//! Figure 5: relative change in neuron output between consecutive input
//! elements.

use crate::harness::{EvalConfig, NetworkRun};
use crate::report::{ExperimentReport, Series, TableReport};
use nfm_rnn::{ExactEvaluator, GateBatch, GateId, NeuronEvaluator, Result as RnnResult};
use nfm_tensor::stats::empirical_cdf;
use nfm_tensor::vector::relative_difference;
use std::collections::HashMap;

/// A [`NeuronEvaluator`] that performs exact inference while recording,
/// for every neuron of every lane, the relative difference between its
/// outputs at consecutive timesteps of that lane's sequence.
///
/// Section 3.1.1 of the paper motivates memoization by observing that "a
/// neuron's output exhibits small changes (less than 10%) for 25% of
/// consecutive input elements" and that the average change is about 23%.
/// This probe reproduces that measurement on any workload.
#[derive(Debug, Clone)]
struct SimilarityProbe {
    /// Per lane, each gate's outputs at the lane's previous timestep.
    previous: Vec<HashMap<GateId, Vec<f32>>>,
    relative_changes: Vec<f32>,
    epsilon: f32,
}

impl SimilarityProbe {
    /// Creates a probe with the default near-zero clamp.
    fn new() -> Self {
        SimilarityProbe {
            previous: Vec::new(),
            relative_changes: Vec::new(),
            epsilon: 1e-3,
        }
    }

    /// All recorded relative changes (one per neuron per consecutive
    /// timestep pair), as fractions (0.1 = 10%).
    fn relative_changes(&self) -> &[f32] {
        &self.relative_changes
    }

    /// Mean relative change, or `None` if nothing was recorded.
    fn mean_relative_change(&self) -> Option<f32> {
        if self.relative_changes.is_empty() {
            return None;
        }
        Some(self.relative_changes.iter().sum::<f32>() / self.relative_changes.len() as f32)
    }

    /// Fraction of consecutive-output pairs whose relative change is at
    /// most `threshold` (e.g. `0.1` reproduces the "changes of less than
    /// 10%" statistic).
    fn fraction_below(&self, threshold: f32) -> Option<f32> {
        if self.relative_changes.is_empty() {
            return None;
        }
        let below = self
            .relative_changes
            .iter()
            .filter(|&&c| c <= threshold)
            .count();
        Some(below as f32 / self.relative_changes.len() as f32)
    }
}

impl NeuronEvaluator for SimilarityProbe {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        ExactEvaluator::new().evaluate_gate_batch(call, out)?;
        let lanes = out.chunks_exact(call.gate.neurons());
        for (previous, y) in self.previous.iter_mut().zip(lanes) {
            // Empty on the lane's first timestep: nothing to compare.
            let prev = previous.entry(call.gate_id).or_default();
            let changes = prev.iter().zip(y);
            self.relative_changes.extend(
                changes.map(|(&p, &y_t)| relative_difference(p, y_t, self.epsilon).min(10.0)),
            );
            prev.clear();
            prev.extend_from_slice(y);
        }
        Ok(())
    }

    fn begin_batch(&mut self, lanes: usize) {
        if self.previous.len() < lanes {
            self.previous.resize_with(lanes, HashMap::new);
        }
    }

    fn begin_lane_sequence(&mut self, lane: usize) {
        // A new sequence breaks the consecutive-timestep relationship.
        self.previous[lane].clear();
    }

    fn swap_lane_state(&mut self, a: usize, b: usize) {
        self.previous.swap(a, b);
    }
}

/// Regenerates Figure 5: for every network, the distribution of relative
/// neuron-output changes between consecutive timesteps, presented as the
/// paper does (relative difference as a function of the cumulative
/// percentage of neuron-output transitions).
pub fn run(config: &EvalConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "Figure 5: relative change in neuron output between consecutive inputs",
    );
    let runs = match NetworkRun::all(config) {
        Ok(r) => r,
        Err(e) => {
            report.heading = format!("Figure 5 failed: {e}");
            return report;
        }
    };
    let mut summary = TableReport::new(
        "Output similarity summary",
        vec!["Network", "Mean change (%)", "Changes <= 10% (%)"],
    );
    for run in &runs {
        let spec = run.spec();
        let mut probe = SimilarityProbe::new();
        for seq in run.workload().sequences() {
            let _ = run
                .workload()
                .network()
                .run(seq, &mut probe)
                .expect("similarity probe run");
        }
        let changes = probe.relative_changes();
        if changes.is_empty() {
            continue;
        }
        let mut series = Series::new(
            format!("{} cumulative distribution", spec.id),
            "Cumulative % of neurons",
            "Relative Output Difference (%)",
        );
        if let Ok(cdf) = empirical_cdf(changes, 21) {
            for point in cdf {
                series.push(
                    point.fraction as f64 * 100.0,
                    (point.value as f64 * 100.0).min(100.0),
                );
            }
        }
        report.series.push(series);
        summary.push_row(vec![
            spec.id.to_string(),
            format!("{:.1}", probe.mean_relative_change().unwrap_or(0.0) * 100.0),
            format!("{:.1}", probe.fraction_below(0.10).unwrap_or(0.0) * 100.0),
        ]);
    }
    summary.push_note(
        "The paper reports ~23% average change and ~25% of transitions below 10% across its \
         trained models (Section 3.1.1).",
    );
    report.tables.push(summary);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig};
    use nfm_tensor::rng::DeterministicRng;
    use nfm_tensor::Vector;

    fn setup(seed: u64) -> (DeepRnn, Vec<Vector>) {
        let cfg = DeepRnnConfig::new(CellKind::Gru, 6, 10);
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        let mut x = Vector::from_fn(6, |_| rng.uniform(-0.5, 0.5));
        let seq: Vec<Vector> = (0..30)
            .map(|_| {
                x = x
                    .add(&Vector::from_fn(6, |_| rng.uniform(-0.05, 0.05)))
                    .unwrap();
                x.clone()
            })
            .collect();
        (net, seq)
    }

    #[test]
    fn probe_preserves_outputs() {
        let (net, seq) = setup(1);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let mut probe = SimilarityProbe::new();
        let probed = net.run(&seq, &mut probe).unwrap();
        assert_eq!(exact, probed);
    }

    #[test]
    fn records_one_change_per_neuron_per_transition() {
        let (net, seq) = setup(2);
        let mut probe = SimilarityProbe::new();
        let _ = net.run(&seq, &mut probe).unwrap();
        let expected = net.neuron_evaluations_per_step() * (seq.len() - 1);
        assert_eq!(probe.relative_changes().len(), expected);
    }

    #[test]
    fn smooth_inputs_produce_small_changes() {
        let (net, seq) = setup(3);
        let mut probe = SimilarityProbe::new();
        let _ = net.run(&seq, &mut probe).unwrap();
        let mean = probe.mean_relative_change().unwrap();
        assert!(
            mean < 1.0,
            "mean relative change should be moderate: {mean}"
        );
        let below_10 = probe.fraction_below(0.10).unwrap();
        assert!(below_10 > 0.05, "some outputs change by <10%: {below_10}");
        assert!(probe.fraction_below(10.0).unwrap() >= below_10);
    }

    #[test]
    fn empty_probe_reports_none() {
        let probe = SimilarityProbe::new();
        assert!(probe.mean_relative_change().is_none());
        assert!(probe.fraction_below(0.1).is_none());
    }

    #[test]
    fn a_new_sequence_breaks_the_chain() {
        let (net, seq) = setup(4);
        let mut probe = SimilarityProbe::new();
        let _ = net.run(&seq, &mut probe).unwrap();
        let first = probe.relative_changes().len();
        let _ = net.run(&seq, &mut probe).unwrap();
        // The first timestep of the second sequence is not compared with
        // the last timestep of the first one.
        assert_eq!(probe.relative_changes().len(), first * 2);
    }

    #[test]
    fn lanes_of_one_batch_record_what_solo_runs_record() {
        let (net, long) = setup(5);
        let (_, short) = setup(6);
        let short = &short[..17];
        let mut solo = SimilarityProbe::new();
        let _ = net.run(&long, &mut solo).unwrap();
        let _ = net.run(short, &mut solo).unwrap();
        let mut batched = SimilarityProbe::new();
        let _ = net.run_batch(&[short, &long], &mut batched).unwrap();
        assert_eq!(
            batched.relative_changes().len(),
            solo.relative_changes().len()
        );
        let sorted = |probe: &SimilarityProbe| {
            let mut bits: Vec<u32> = probe
                .relative_changes()
                .iter()
                .map(|c| c.to_bits())
                .collect();
            bits.sort_unstable();
            bits
        };
        assert_eq!(sorted(&batched), sorted(&solo));
    }

    #[test]
    fn figure5_produces_monotone_cdfs_and_a_summary() {
        let r = run(&EvalConfig::smoke());
        assert_eq!(r.series.len(), 4);
        for s in &r.series {
            assert!(s.is_non_decreasing(1e-6), "a CDF must be non-decreasing");
            assert!(s.points.iter().all(|&(_, y)| (0.0..=100.0).contains(&y)));
        }
        assert_eq!(r.tables[0].rows.len(), 4);
    }
}
