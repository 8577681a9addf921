//! Shared functional→hardware pipeline used by Figures 17, 18, 19 and the
//! headline numbers.
//!
//! For every network and every accuracy-loss budget the pipeline:
//! 1. finds the deployable threshold with the BNN predictor (the
//!    Section 3.2.1 exploration) on the functional model,
//! 2. feeds the measured computation-reuse fraction into the E-PUR
//!    simulator configured with the *full-size* Table 1 topology,
//! 3. returns the paired baseline / memoized reports.

use crate::harness::{EvalConfig, NetworkRun, ScoredPoint};
use nfm_accel::{ComparisonReport, EpurConfig, EpurSimulator};

/// Hardware results for one network at one accuracy-loss budget.
#[derive(Debug, Clone)]
pub struct HardwarePoint {
    /// Accuracy-loss budget in percentage points (1, 2 or 3 in the paper).
    pub loss_budget: f64,
    /// The functional operating point (threshold, reuse, measured loss).
    pub operating_point: ScoredPoint,
    /// Baseline vs memoized accelerator reports.
    pub comparison: ComparisonReport,
}

/// Hardware results for one network across all requested loss budgets.
#[derive(Debug, Clone)]
pub struct NetworkHardware {
    /// The functional run the measurements came from.
    pub run: NetworkRun,
    /// One entry per loss budget, in the order requested.
    pub points: Vec<HardwarePoint>,
}

/// Runs the pipeline for all four networks and the given loss budgets.
///
/// # Errors
///
/// Propagates workload construction failures.
pub fn simulate(config: &EvalConfig, loss_budgets: &[f64]) -> Result<Vec<NetworkHardware>, String> {
    let simulator = EpurSimulator::new(EpurConfig::default());
    let runs = NetworkRun::all(config)?;
    let mut out = Vec::with_capacity(runs.len());
    for run in runs {
        let shape = run.full_scale_shape();
        let timesteps = run.full_scale_timesteps(config);
        let sequences = config.sequences.max(1) as u64;
        let points = loss_budgets
            .iter()
            .map(|&budget| {
                let op = run.operating_point(budget, config.threshold_steps, true);
                let comparison = simulator.compare(&shape, timesteps, sequences, op.reuse);
                HardwarePoint {
                    loss_budget: budget,
                    operating_point: op,
                    comparison,
                }
            })
            .collect();
        out.push(NetworkHardware { run, points });
    }
    Ok(out)
}

/// Arithmetic mean of a slice (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_produces_one_point_per_budget_per_network() {
        let results = simulate(&EvalConfig::smoke(), &[1.0, 2.0]).unwrap();
        assert_eq!(results.len(), 4);
        for nh in &results {
            assert_eq!(nh.points.len(), 2);
            for p in &nh.points {
                assert!(p.operating_point.reuse >= 0.0);
                assert!(p.comparison.baseline.cycles > 0);
                assert!(p.comparison.memoized.cycles > 0);
                // Energy savings can be slightly negative at zero reuse but
                // must never exceed the reuse fraction itself.
                assert!(p.comparison.energy_savings() <= p.operating_point.reuse + 1e-9);
            }
        }
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
