//! Input-similarity predictor — the strawman the paper argues against.
//!
//! Section 1 of the paper notes that "by simply looking at the inputs,
//! i.e. predicting that similar inputs will produce similar outputs,
//! might not be accurate: small changes in an input that is multiplied by
//! a large weight will introduce a significant change in the output of
//! the neuron."  This module implements exactly that scheme so the claim
//! can be evaluated: a neuron's output is reused when the concatenated
//! input `[x_t ; h_{t-1}]` is close (relative L1 distance) to the inputs
//! seen when the cached output was produced.  Unlike the BNN predictor it
//! ignores the weights entirely.

use crate::config::DEFAULT_EPSILON;
use crate::stats::ReuseStats;
use nfm_rnn::{Gate, GateId, NeuronEvaluator, NeuronRef, Result as RnnResult};
use std::collections::HashMap;

/// Configuration of the input-similarity predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputSimilarityConfig {
    /// Maximum allowed relative L1 change of the concatenated input
    /// vector for a reuse to be allowed.
    pub threshold: f32,
    /// Denominator clamp for the relative change.
    pub epsilon: f32,
}

impl InputSimilarityConfig {
    /// Creates a configuration with the given threshold.
    pub fn with_threshold(threshold: f32) -> Self {
        InputSimilarityConfig {
            threshold,
            epsilon: DEFAULT_EPSILON,
        }
    }
}

impl Default for InputSimilarityConfig {
    fn default() -> Self {
        InputSimilarityConfig::with_threshold(0.0)
    }
}

#[derive(Debug, Clone)]
struct CachedInputs {
    /// Concatenated `[x ; h_prev]` at the last full evaluation of the gate.
    inputs: Vec<f32>,
    /// Cached pre-activation outputs per neuron of the gate.
    outputs: Vec<Option<f32>>,
}

/// A [`NeuronEvaluator`] that reuses a neuron's cached output whenever the
/// gate's *inputs* have changed little since the cached evaluation.
///
/// The input distance is shared by all neurons of a gate (they all read
/// the same `[x_t ; h_{t-1}]`), so the decision is per gate per timestep;
/// this is the cheapest conceivable predictor and the paper's implicit
/// baseline.  Its weakness is visible in the evaluation: at equal reuse it
/// loses more accuracy than the BNN predictor because it cannot know which
/// input changes matter (those multiplied by large weights).
#[derive(Debug, Clone)]
pub struct InputSimilarityEvaluator {
    config: InputSimilarityConfig,
    cache: HashMap<GateId, CachedInputs>,
    stats: ReuseStats,
}

impl InputSimilarityEvaluator {
    /// Creates an evaluator with the given configuration.
    pub fn new(config: InputSimilarityConfig) -> Self {
        InputSimilarityEvaluator {
            config,
            cache: HashMap::new(),
            stats: ReuseStats::new(),
        }
    }

    /// The reuse statistics accumulated so far.
    pub fn stats(&self) -> &ReuseStats {
        &self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> InputSimilarityConfig {
        self.config
    }

    fn relative_l1_change(cached: &[f32], current: &[f32], epsilon: f32) -> f32 {
        debug_assert_eq!(cached.len(), current.len());
        let mut diff = 0.0f32;
        let mut norm = 0.0f32;
        for (c, n) in cached.iter().zip(current.iter()) {
            diff += (c - n).abs();
            norm += c.abs();
        }
        diff / norm.max(epsilon)
    }
}

impl NeuronEvaluator for InputSimilarityEvaluator {
    fn evaluate(
        &mut self,
        neuron: NeuronRef,
        gate: &Gate,
        x: &[f32],
        h_prev: &[f32],
    ) -> RnnResult<f32> {
        let mut current = Vec::with_capacity(x.len() + h_prev.len());
        current.extend_from_slice(x);
        current.extend_from_slice(h_prev);

        if let Some(entry) = self.cache.get(&neuron.gate_id) {
            if entry.inputs.len() == current.len() {
                let change = Self::relative_l1_change(&entry.inputs, &current, self.config.epsilon);
                if change <= self.config.threshold {
                    if let Some(Some(cached)) = entry.outputs.get(neuron.neuron) {
                        self.stats.record_reused();
                        return Ok(*cached);
                    }
                }
            }
        }

        let y_t = gate.neuron_dot(neuron.neuron, x, h_prev)?;
        self.stats.record_computed();
        let entry = self
            .cache
            .entry(neuron.gate_id)
            .or_insert_with(|| CachedInputs {
                inputs: current.clone(),
                outputs: vec![None; gate.neurons()],
            });
        if entry.outputs.len() != gate.neurons() {
            entry.outputs = vec![None; gate.neurons()];
        }
        // When the reference inputs are refreshed, every previously cached
        // output becomes stale: it was produced under the old inputs and
        // must not be reused against the new reference.
        if entry.inputs != current {
            entry.inputs = current;
            entry.outputs.iter_mut().for_each(|o| *o = None);
        }
        entry.outputs[neuron.neuron] = Some(y_t);
        Ok(y_t)
    }

    fn begin_lane_sequence(&mut self, _lane: usize) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig, ExactEvaluator};
    use nfm_tensor::rng::DeterministicRng;
    use nfm_tensor::Vector;

    fn network(seed: u64) -> DeepRnn {
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 6, 8);
        let mut rng = DeterministicRng::seed_from_u64(seed);
        DeepRnn::random(&cfg, &mut rng).unwrap()
    }

    fn smooth_sequence(len: usize, width: usize, seed: u64) -> Vec<Vector> {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let mut x = Vector::from_fn(width, |_| rng.uniform(-0.5, 0.5));
        (0..len)
            .map(|_| {
                x = x
                    .add(&Vector::from_fn(width, |_| rng.uniform(-0.03, 0.03)))
                    .unwrap();
                x.clone()
            })
            .collect()
    }

    #[test]
    fn negative_threshold_reproduces_exact_inference() {
        let net = network(1);
        let seq = smooth_sequence(12, 6, 2);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let mut memo = InputSimilarityEvaluator::new(InputSimilarityConfig::with_threshold(-1.0));
        let out = net.run(&seq, &mut memo).unwrap();
        assert_eq!(exact, out);
        assert_eq!(memo.stats().reuses(), 0);
    }

    #[test]
    fn generous_threshold_reuses_on_smooth_inputs() {
        let net = network(3);
        let seq = smooth_sequence(25, 6, 4);
        let mut memo = InputSimilarityEvaluator::new(InputSimilarityConfig::with_threshold(0.5));
        let _ = net.run(&seq, &mut memo).unwrap();
        assert!(
            memo.stats().reuse_fraction() > 0.2,
            "got {}",
            memo.stats().reuse_percent()
        );
    }

    #[test]
    fn accounting_is_exact() {
        let net = network(5);
        let seq = smooth_sequence(10, 6, 6);
        let mut memo = InputSimilarityEvaluator::new(InputSimilarityConfig::with_threshold(0.2));
        let _ = net.run(&seq, &mut memo).unwrap();
        assert_eq!(
            memo.stats().evaluations(),
            (10 * net.neuron_evaluations_per_step()) as u64
        );
        assert_eq!(
            memo.stats().computed() + memo.stats().reuses(),
            memo.stats().evaluations()
        );
        assert_eq!(memo.config().threshold, 0.2);
    }

    #[test]
    fn every_sequence_starts_with_a_cold_cache() {
        let net = network(7);
        let seq = smooth_sequence(6, 6, 8);
        let mut memo = InputSimilarityEvaluator::new(InputSimilarityConfig::with_threshold(5.0));
        let _ = net.run(&seq, &mut memo).unwrap();
        let reuses_one = memo.stats().reuses();
        let _ = net.run(&seq, &mut memo).unwrap();
        // Identical per-sequence behaviour: the table is cold at the start
        // of each sequence, so reuse simply doubles.
        assert_eq!(memo.stats().reuses(), reuses_one * 2);
    }

    #[test]
    fn relative_l1_change_is_zero_for_identical_inputs() {
        let a = vec![1.0, -2.0, 3.0];
        assert_eq!(
            InputSimilarityEvaluator::relative_l1_change(&a, &a, 1e-3),
            0.0
        );
        let b = vec![1.0, -2.0, 4.0];
        let change = InputSimilarityEvaluator::relative_l1_change(&a, &b, 1e-3);
        assert!((change - 1.0 / 6.0).abs() < 1e-6);
    }
}
