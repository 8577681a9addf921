//! `energy`: the paper's energy claim tracked alongside measured
//! wall-clock speedups.
//!
//! Figures 17–19 regenerate the paper's per-figure artefacts; this
//! experiment is the repository's own regression view of the same
//! pipeline: for each Table 1 network it deploys the BNN predictor at
//! the paper's 2% accuracy-loss budget, then reports side by side
//!
//! * the *measured* software wall-clock speedup of the memoized run
//!   over the exact run (this workspace's CPU implementation: one lane,
//!   sequence by sequence, with the mirror built outside the timed
//!   region), and
//! * the *simulated* E-PUR+BM speedup, energy savings, per-sequence
//!   energy and average power from `nfm-accel`'s cycle/energy model of
//!   the full-size topology at the measured reuse fraction.
//!
//! The two columns answer different questions — the software speedup
//! is what this repo's serving stack gains today, the accelerator
//! numbers are the paper's hardware claim — and keeping them in one
//! table makes any drift between the functional reuse measurement and
//! the modeled savings visible per PR.

use std::time::Instant;

use crate::experiments::hw::{mean, simulate};
use crate::harness::EvalConfig;
use crate::report::{ExperimentReport, TableReport};
use nfm_core::{BnnMemoConfig, Predictor, PredictorKind};
use nfm_workloads::Workload;

/// Accuracy-loss budget the operating points target (the paper's
/// headline 2%).
const LOSS_BUDGET: f64 = 2.0;

/// Timed passes per network.  Odd, so the median is one pass's ratio.
const TIMING_PASSES: usize = 9;

/// The measured software speedup of `memoized` over exact inference on
/// `workload`: the median, over the passes, of one pass's exact seconds
/// over its memoized seconds.  A pass times the two runs back to back,
/// in an order that flips every pass, so a drift in the host's speed
/// reaches both sides of a ratio alike.
fn sw_speedup(workload: &Workload, memoized: PredictorKind) -> f64 {
    // Builds the mirror, if scoring has not, before any pass is timed.
    memoized.prepare(workload.model());
    let seconds = |predictor: PredictorKind| {
        let start = Instant::now();
        predictor
            .run(workload.model(), workload.sequences())
            .expect("workload already ran during scoring; timing rerun cannot fail");
        start.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..TIMING_PASSES)
        .map(|pass| {
            if pass % 2 == 0 {
                let exact = seconds(PredictorKind::Exact);
                exact / seconds(memoized)
            } else {
                let memo = seconds(memoized);
                seconds(PredictorKind::Exact) / memo
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[TIMING_PASSES / 2]
}

/// Regenerates the energy-vs-wallclock regression table.
pub fn run(config: &EvalConfig) -> ExperimentReport {
    let mut report =
        ExperimentReport::new("Energy: E-PUR+BM accelerator model vs measured software wall-clock");
    let results = match simulate(config, &[LOSS_BUDGET]) {
        Ok(r) => r,
        Err(e) => {
            report.heading = format!("Energy experiment failed: {e}");
            return report;
        }
    };
    let mut table = TableReport::new(
        format!("Operating points at {LOSS_BUDGET:.0}% accuracy-loss budget"),
        vec![
            "Network",
            "Threshold",
            "Reuse (%)",
            "SW speedup (measured)",
            "Accel speedup (sim)",
            "Energy savings (%)",
            "Energy/seq (mJ)",
            "Avg power (W)",
        ],
    );
    let mut sw_speedups = Vec::new();
    let mut accel_speedups = Vec::new();
    let mut savings_all = Vec::new();
    for nh in &results {
        let point = &nh.points[0];
        let threshold = point.operating_point.threshold;
        let sw_speedup = sw_speedup(
            nh.run.workload(),
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(threshold)),
        );
        let accel_speedup = point.comparison.speedup();
        let savings = point.comparison.energy_savings() * 100.0;
        let sequences = config.sequences.max(1) as f64;
        let energy_per_seq_mj = point.comparison.memoized.total_energy_joules() / sequences * 1e3;
        let power = point.comparison.memoized.average_power_watts();
        sw_speedups.push(sw_speedup);
        accel_speedups.push(accel_speedup);
        savings_all.push(savings);
        table.push_row(vec![
            nh.run.spec().id.to_string(),
            format!("{threshold:.3}"),
            format!("{:.1}", point.operating_point.reuse * 100.0),
            format!("{sw_speedup:.2}x"),
            format!("{accel_speedup:.2}x"),
            format!("{savings:.1}"),
            format!("{energy_per_seq_mj:.3}"),
            format!("{power:.2}"),
        ]);
    }
    table.push_row(vec![
        "Average".into(),
        String::new(),
        String::new(),
        format!("{:.2}x", mean(&sw_speedups)),
        format!("{:.2}x", mean(&accel_speedups)),
        format!("{:.1}", mean(&savings_all)),
        String::new(),
        String::new(),
    ]);
    table.push_note(format!(
        "SW speedup: median over {TIMING_PASSES} interleaved passes of this workspace's \
         exact vs memoized wall-clock (one lane, sequence by sequence, functional \
         scale); values below 1 mean the predictor overhead exceeds the skipped MACs on this \
         CPU at this scale — the hardware FMU is what makes the skip free."
    ));
    table.push_note(
        "Accel columns: nfm-accel cycle/energy model of the full-size Table 1 \
         topology at the measured reuse.  Paper averages at 2% loss: 25.5% \
         energy savings, 1.4x speedup.",
    );
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_report_has_one_row_per_network_plus_average() {
        let r = run(&EvalConfig::smoke());
        assert_eq!(r.tables.len(), 1);
        let table = &r.tables[0];
        assert_eq!(table.rows.len(), 5);
        assert_eq!(table.rows[4][0], "Average");
        for row in &table.rows[..4] {
            let reuse: f64 = row[2].parse().unwrap();
            assert!((0.0..=100.0).contains(&reuse));
            let sw: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(sw > 0.0, "measured speedup must be positive");
            let accel: f64 = row[4].trim_end_matches('x').parse().unwrap();
            // At near-zero reuse (smoke operating points) the FMU check
            // overhead can leave the modeled speedup slightly below 1.
            assert!(accel > 0.0);
            let energy: f64 = row[6].parse().unwrap();
            assert!(energy > 0.0);
            let power: f64 = row[7].parse().unwrap();
            assert!(power > 0.0);
        }
    }
}
