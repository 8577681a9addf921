//! Output-similarity instrumentation (the motivation study of Figure 5).

use nfm_rnn::{evaluate_neurons, GateBatch, GateId, NeuronEvaluator, Result as RnnResult};
use nfm_tensor::vector::relative_difference;
use std::collections::HashMap;

/// A [`NeuronEvaluator`] that performs exact inference while recording,
/// for every neuron, the relative difference between its outputs at
/// consecutive timesteps.
///
/// Section 3.1.1 of the paper motivates memoization by observing that "a
/// neuron's output exhibits small changes (less than 10%) for 25% of
/// consecutive input elements" and that the average change is about 23%.
/// This probe reproduces that measurement on any workload.
#[derive(Debug, Clone, Default)]
pub struct SimilarityProbe {
    previous: HashMap<(GateId, usize), f32>,
    relative_changes: Vec<f32>,
    epsilon: f32,
}

impl SimilarityProbe {
    /// Creates a probe with the default near-zero clamp.
    pub fn new() -> Self {
        SimilarityProbe {
            previous: HashMap::new(),
            relative_changes: Vec::new(),
            epsilon: 1e-3,
        }
    }

    /// All recorded relative changes (one per neuron per consecutive
    /// timestep pair), as fractions (0.1 = 10%).
    pub fn relative_changes(&self) -> &[f32] {
        &self.relative_changes
    }

    /// Mean relative change, or `None` if nothing was recorded.
    pub fn mean_relative_change(&self) -> Option<f32> {
        if self.relative_changes.is_empty() {
            return None;
        }
        Some(self.relative_changes.iter().sum::<f32>() / self.relative_changes.len() as f32)
    }

    /// Fraction of consecutive-output pairs whose relative change is at
    /// most `threshold` (e.g. `0.1` reproduces the "changes of less than
    /// 10%" statistic).
    pub fn fraction_below(&self, threshold: f32) -> Option<f32> {
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
        let wh = call.gate.wh();
        evaluate_neurons(call, out, |id, _, h_prev, fwd| {
            let y_t = fwd + wh.row_dot(id.neuron, h_prev)?;
            let key = (id.gate_id, id.neuron);
            if let Some(&prev) = self.previous.get(&key) {
                self.relative_changes
                    .push(relative_difference(prev, y_t, self.epsilon).min(10.0));
            }
            self.previous.insert(key, y_t);
            Ok(y_t)
        })
    }

    fn begin_lane_sequence(&mut self, _lane: usize) {
        // A new sequence breaks the consecutive-timestep relationship.
        self.previous.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig, ExactEvaluator};
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
}
