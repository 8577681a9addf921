//! Deep (stacked) RNNs with an optional dense head.  A network is
//! weights and shape; [`DeepRnn::run`] / [`DeepRnn::run_batch`] hand
//! the walking of it to the one stack driver,
//! [`LaneScheduler::step`].

use crate::config::DeepRnnConfig;
use crate::dense::Dense;
use crate::error::RnnError;
use crate::evaluator::NeuronEvaluator;
use crate::gate::{Gate, GateId};
use crate::layer::Layer;
use crate::scheduler::LaneScheduler;
use crate::Result;
use nfm_tensor::activation::Activation;
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Vector;

/// A deep RNN: a stack of recurrent [`Layer`]s followed by an optional
/// dense head, mirroring the workload networks of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepRnn {
    layers: Vec<Layer>,
    head: Option<Dense>,
    input_size: usize,
}

impl DeepRnn {
    /// Builds a network from explicit layers and an optional head.
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::InvalidConfig`] if the stack is empty, if
    /// consecutive layers have incompatible widths, or if the head's
    /// input width does not match the last layer's output width.
    pub fn new(layers: Vec<Layer>, head: Option<Dense>) -> Result<Self> {
        if layers.is_empty() {
            return Err(RnnError::InvalidConfig {
                what: "a deep RNN needs at least one layer".into(),
            });
        }
        for pair in layers.windows(2) {
            if pair[1].input_size() != pair[0].output_size() {
                return Err(RnnError::InvalidConfig {
                    what: format!(
                        "layer {} expects input width {} but layer {} produces {}",
                        pair[1].index(),
                        pair[1].input_size(),
                        pair[0].index(),
                        pair[0].output_size()
                    ),
                });
            }
        }
        if let Some(h) = &head {
            let last = layers.last().expect("non-empty");
            if h.input_size() != last.output_size() {
                return Err(RnnError::InvalidConfig {
                    what: format!(
                        "head expects input width {} but the last layer produces {}",
                        h.input_size(),
                        last.output_size()
                    ),
                });
            }
        }
        let input_size = layers[0].input_size();
        Ok(DeepRnn {
            layers,
            head,
            input_size,
        })
    }

    /// Builds a randomly initialized network from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::InvalidConfig`] if the configuration is invalid.
    pub fn random(config: &DeepRnnConfig, rng: &mut DeterministicRng) -> Result<Self> {
        config.validate()?;
        let mut layers = Vec::with_capacity(config.layer_count());
        let mut layer_input = config.input_size();
        for i in 0..config.layer_count() {
            let layer = Layer::random(
                i,
                config.cell(),
                config.direction_kind(),
                layer_input,
                config.hidden_size(),
                config.has_peepholes(),
                rng,
            )?;
            layer_input = layer.output_size();
            layers.push(layer);
        }
        let head = match config.head_size() {
            Some(out) => Some(Dense::random(layer_input, out, Activation::Identity, rng)?),
            None => None,
        };
        DeepRnn::new(layers, head)
    }

    /// Width of the input vectors the network expects.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Width of the vectors produced per timestep (head output if a head
    /// is present, otherwise the last layer's output).
    pub fn output_size(&self) -> usize {
        match &self.head {
            Some(h) => h.output_size(),
            None => self.layers.last().expect("non-empty").output_size(),
        }
    }

    /// The recurrent layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The dense head, if any.
    pub fn head(&self) -> Option<&Dense> {
        self.head.as_ref()
    }

    /// Iterates over every `(GateId, &Gate)` in the recurrent stack.
    pub fn gates(&self) -> Vec<(GateId, &Gate)> {
        self.layers.iter().flat_map(|l| l.gates()).collect()
    }

    /// Looks up a gate by id.
    pub fn gate(&self, id: GateId) -> Option<&Gate> {
        self.layers.get(id.layer).and_then(|layer| {
            let cell = if id.direction == 0 {
                Some(layer.forward_cell())
            } else {
                layer.backward_cell()
            };
            cell.and_then(|c| c.gate(id.kind))
        })
    }

    /// Total recurrent weights (excluding the head).
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(Layer::weight_count).sum()
    }

    /// Neuron evaluations per timestep across the whole stack — the
    /// denominator of the paper's computation-reuse percentages.
    pub fn neuron_evaluations_per_step(&self) -> usize {
        self.layers
            .iter()
            .map(Layer::neuron_evaluations_per_step)
            .sum()
    }

    /// Runs the network over one input sequence, returning one output per
    /// timestep (after the dense head when present): a one-lane
    /// [`DeepRnn::run_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::EmptySequence`] for an empty input, or an
    /// error if any element has the wrong width.
    pub fn run(
        &self,
        sequence: &[Vector],
        evaluator: &mut dyn NeuronEvaluator,
    ) -> Result<Vec<Vector>> {
        let mut lanes = self.run_batch(&[sequence], evaluator)?;
        Ok(lanes.pop().expect("one lane in, one lane out"))
    }

    /// Runs a batch of independent input sequences through the network
    /// as the **lanes** of one [`LaneScheduler`] — every gate evaluation
    /// is batched across the sequences, so one weight stream serves all
    /// of them — admitted in the caller's order and stepped until idle.
    ///
    /// Ragged lengths are supported: the scheduler keeps its lanes
    /// longest-first (the returned outputs are in the caller's order)
    /// and a lane drops out of the active prefix when its sequence ends.
    /// Lanes never interact: lane `l`'s outputs, reuse statistics and
    /// memoization behavior are bit-identical to running sequence `l`
    /// alone.  The evaluator's
    /// [`begin_batch`](NeuronEvaluator::begin_batch) hook is invoked
    /// once, then
    /// [`begin_lane_sequence`](NeuronEvaluator::begin_lane_sequence) per
    /// lane, so per-lane memoization state starts cold.  (For a
    /// *stateful custom* evaluator that did not override the gate
    /// entry, the trait's default lane loop shares its single state
    /// across lanes — the per-lane guarantee then only holds for one
    /// lane at a time; see [`NeuronEvaluator::evaluate_gate_batch`].)
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::EmptySequence`] if any sequence is empty, or
    /// an error if any element has the wrong width; the evaluator's
    /// lanes before the offending sequence have been begun by then.
    pub fn run_batch(
        &self,
        sequences: &[&[Vector]],
        evaluator: &mut dyn NeuronEvaluator,
    ) -> Result<Vec<Vec<Vector>>> {
        let lanes = sequences.len();
        if lanes == 0 {
            return Ok(Vec::new());
        }
        let mut scheduler = LaneScheduler::new(self, lanes)?;
        evaluator.begin_batch(lanes);
        for (token, sequence) in sequences.iter().enumerate() {
            scheduler.admit(token as u64, sequence.to_vec(), evaluator)?;
        }
        let mut finished = Vec::with_capacity(lanes);
        while scheduler.step(self, evaluator, &mut finished)? > 0 {}
        let mut outputs = vec![Vec::new(); lanes];
        for lane in finished {
            outputs[lane.token as usize] = lane.outputs;
        }
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CellKind, Direction};
    use crate::evaluator::{CountingEvaluator, ExactEvaluator};

    fn seq(n: usize, width: usize, seed: u64) -> Vec<Vector> {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Vector::from_fn(width, |_| rng.uniform(-1.0, 1.0)))
            .collect()
    }

    #[test]
    fn random_network_runs_and_has_expected_shapes() {
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 6, 8)
            .layers(2)
            .output_size(3);
        let mut rng = DeterministicRng::seed_from_u64(1);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        assert_eq!(net.input_size(), 6);
        assert_eq!(net.output_size(), 3);
        assert_eq!(net.layers().len(), 2);
        assert!(net.head().is_some());
        let out = net.run(&seq(5, 6, 2), &mut ExactEvaluator::new()).unwrap();
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|v| v.len() == 3));
    }

    #[test]
    fn bidirectional_network_widths_compose() {
        let cfg = DeepRnnConfig::new(CellKind::Gru, 4, 5)
            .layers(3)
            .direction(Direction::Bidirectional);
        let mut rng = DeterministicRng::seed_from_u64(3);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        assert_eq!(net.output_size(), 10);
        assert_eq!(net.gates().len(), 3 * 2 * 3);
        let out = net.run(&seq(4, 4, 4), &mut ExactEvaluator::new()).unwrap();
        assert!(out.iter().all(|v| v.len() == 10));
    }

    #[test]
    fn run_counts_expected_neuron_evaluations() {
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 4, 6).layers(2);
        let mut rng = DeterministicRng::seed_from_u64(5);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        let mut counter = CountingEvaluator::new(ExactEvaluator::new());
        let timesteps = 7;
        let _ = net.run(&seq(timesteps, 4, 6), &mut counter).unwrap();
        assert_eq!(
            counter.calls() as usize,
            timesteps * net.neuron_evaluations_per_step()
        );
        assert_eq!(counter.sequences(), 1);
    }

    #[test]
    fn gate_lookup_round_trips() {
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 4, 4)
            .layers(2)
            .direction(Direction::Bidirectional);
        let mut rng = DeterministicRng::seed_from_u64(7);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        for (id, gate) in net.gates() {
            let found = net.gate(id).expect("gate must exist");
            assert_eq!(found.neurons(), gate.neurons());
        }
        // Unknown ids return None.
        assert!(net
            .gate(GateId::new(9, 0, crate::gate::GateKind::Input))
            .is_none());
    }

    #[test]
    fn run_rejects_empty_and_misshaped_sequences() {
        let cfg = DeepRnnConfig::new(CellKind::Gru, 3, 4);
        let mut rng = DeterministicRng::seed_from_u64(8);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        let mut eval = ExactEvaluator::new();
        assert!(matches!(
            net.run(&[], &mut eval),
            Err(RnnError::EmptySequence)
        ));
        let bad = vec![Vector::zeros(2)];
        assert!(matches!(
            net.run(&bad, &mut eval),
            Err(RnnError::InputSizeMismatch { .. })
        ));
    }

    #[test]
    fn new_rejects_incompatible_layers_and_head() {
        let mut rng = DeterministicRng::seed_from_u64(9);
        let l0 = Layer::random(
            0,
            CellKind::Lstm,
            Direction::Unidirectional,
            4,
            6,
            false,
            &mut rng,
        )
        .unwrap();
        let l1_bad = Layer::random(
            1,
            CellKind::Lstm,
            Direction::Unidirectional,
            5,
            6,
            false,
            &mut rng,
        )
        .unwrap();
        assert!(DeepRnn::new(vec![l0.clone(), l1_bad], None).is_err());
        let bad_head = Dense::random(7, 2, Activation::Identity, &mut rng).unwrap();
        assert!(DeepRnn::new(vec![l0], Some(bad_head)).is_err());
        assert!(DeepRnn::new(vec![], None).is_err());
    }

    #[test]
    fn run_batch_matches_per_sequence_run_bitwise() {
        // Ragged lengths, bidirectional stack, head: every lane of a
        // batched run must be bit-identical to its own dedicated run.
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 4, 5)
            .layers(2)
            .direction(Direction::Bidirectional)
            .output_size(3);
        let mut rng = DeterministicRng::seed_from_u64(21);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        let seqs: Vec<Vec<Vector>> = [5usize, 9, 3, 7]
            .iter()
            .enumerate()
            .map(|(i, &len)| seq(len, 4, 30 + i as u64))
            .collect();
        let refs: Vec<&[Vector]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut batch_eval = ExactEvaluator::new();
        let batched = net.run_batch(&refs, &mut batch_eval).unwrap();
        let mut single_evals = 0u64;
        for (i, s) in seqs.iter().enumerate() {
            let mut eval = ExactEvaluator::new();
            let single = net.run(s, &mut eval).unwrap();
            single_evals += eval.evaluations();
            assert_eq!(batched[i].len(), single.len(), "lane {i}");
            for (t, (a, b)) in batched[i].iter().zip(single.iter()).enumerate() {
                for n in 0..a.len() {
                    assert_eq!(a[n].to_bits(), b[n].to_bits(), "lane {i} t={t} n={n}");
                }
            }
        }
        assert_eq!(batch_eval.evaluations(), single_evals);
    }

    #[test]
    fn run_batch_rejects_empty_and_misshaped_lanes() {
        let cfg = DeepRnnConfig::new(CellKind::Gru, 3, 4);
        let mut rng = DeterministicRng::seed_from_u64(22);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        let mut eval = ExactEvaluator::new();
        assert!(net.run_batch(&[], &mut eval).unwrap().is_empty());
        let good = seq(4, 3, 23);
        let empty: Vec<Vector> = Vec::new();
        assert!(matches!(
            net.run_batch(&[good.as_slice(), empty.as_slice()], &mut eval),
            Err(RnnError::EmptySequence)
        ));
        let bad = vec![Vector::zeros(2); 3];
        assert!(matches!(
            net.run_batch(&[good.as_slice(), bad.as_slice()], &mut eval),
            Err(RnnError::InputSizeMismatch { .. })
        ));
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let cfg = DeepRnnConfig::new(CellKind::Gru, 4, 4).layers(2);
        let mut rng = DeterministicRng::seed_from_u64(13);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        let s = seq(6, 4, 14);
        let a = net.run(&s, &mut ExactEvaluator::new()).unwrap();
        let b = net.run(&s, &mut ExactEvaluator::new()).unwrap();
        assert_eq!(a, b);
    }
}
