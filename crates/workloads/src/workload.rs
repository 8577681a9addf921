//! Assembling networks, inputs and accuracy metrics into workloads.

use crate::accuracy::AccuracyMetric;
use crate::generator::SequenceGenerator;
use crate::spec::{NetworkId, NetworkSpec};
use crate::Result;
use nfm_core::Model;
use nfm_rnn::{DeepRnn, DeepRnnConfig, RnnError};
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Vector;
use std::error::Error;
use std::fmt;

/// Errors produced while building a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// Underlying network construction failed.
    Rnn(RnnError),
    /// The builder was configured with invalid parameters.
    InvalidParameter {
        /// Description of the violated constraint.
        what: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Rnn(e) => write!(f, "network construction failed: {e}"),
            WorkloadError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Rnn(e) => Some(e),
            WorkloadError::InvalidParameter { .. } => None,
        }
    }
}

impl From<RnnError> for WorkloadError {
    fn from(e: RnnError) -> Self {
        WorkloadError::Rnn(e)
    }
}

/// A ready-to-run workload: one of the Table 1 networks (possibly scaled
/// down), its synthetic input sequences, and the accuracy proxy that
/// scores memoized outputs against the exact baseline.
///
/// The network is held as a [`Model`], so its binary mirror is built at
/// most once — by the first policy that reads it — and every run of the
/// workload, and every clone of it, shares that one mirror.
#[derive(Debug, Clone)]
pub struct Workload {
    spec: NetworkSpec,
    model: Model,
    sequences: Vec<Vec<Vector>>,
    metric: AccuracyMetric,
    scale: f32,
    seed: u64,
}

impl Workload {
    /// The Table 1 specification this workload instantiates.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// The network being evaluated.
    pub fn network(&self) -> &DeepRnn {
        self.model.network()
    }

    /// The network with its (lazily built, shared) binary mirror: what
    /// [`Predictor::run`](nfm_core::Predictor::run) takes.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The input sequences.
    pub fn sequences(&self) -> &[Vec<Vector>] {
        &self.sequences
    }

    /// The accuracy proxy for this workload's task.
    pub fn metric(&self) -> AccuracyMetric {
        self.metric
    }

    /// The scale factor the builder applied to the Table 1 topology.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The seed the workload was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total neuron evaluations an exact run of this workload performs.
    pub fn total_neuron_evaluations(&self) -> u64 {
        let per_step = self.network().neuron_evaluations_per_step() as u64;
        self.sequences
            .iter()
            .map(|s| s.len() as u64 * per_step)
            .sum()
    }

    /// Total timesteps across all sequences.
    pub fn total_timesteps(&self) -> usize {
        self.sequences.iter().map(Vec::len).sum()
    }
}

/// Builds a [`Workload`] from a Table 1 network id, with optional
/// down-scaling for fast experimentation.
///
/// Scaling multiplies the neuron count, input features and output classes
/// by `scale` (minimum 4/2 respectively) while keeping the layer count
/// and cell type, so the memoization behaviour (which is a per-neuron,
/// per-timestep property) is preserved while runtimes drop by orders of
/// magnitude.  `scale = 1.0` reproduces the exact Table 1 topology.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadBuilder {
    id: NetworkId,
    scale: f32,
    sequences: usize,
    sequence_length: Option<usize>,
    seed: u64,
    layers_override: Option<usize>,
}

impl WorkloadBuilder {
    /// Starts a builder for the given network.
    pub fn new(id: NetworkId) -> Self {
        WorkloadBuilder {
            id,
            scale: 1.0,
            sequences: 4,
            sequence_length: None,
            seed: 0xF02D,
            layers_override: None,
        }
    }

    /// Sets the topology scale factor in `(0, 1]`.
    pub fn scale(mut self, scale: f32) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the number of input sequences to generate.
    pub fn sequences(mut self, sequences: usize) -> Self {
        self.sequences = sequences;
        self
    }

    /// Sets the length of every input sequence (defaults to the spec's
    /// typical length, capped for scaled-down builds).
    pub fn sequence_length(mut self, length: usize) -> Self {
        self.sequence_length = Some(length);
        self
    }

    /// Sets the RNG seed controlling weights and inputs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the number of recurrent layers (used by scaled-down
    /// integration tests for the deepest networks).
    pub fn layers(mut self, layers: usize) -> Self {
        self.layers_override = Some(layers);
        self
    }

    /// Builds the workload.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for a non-positive
    /// scale, zero sequences or zero-length sequences, and propagates
    /// network construction failures.
    pub fn build(&self) -> Result<Workload> {
        if !(self.scale > 0.0 && self.scale <= 1.0) {
            return Err(WorkloadError::InvalidParameter {
                what: format!("scale must be in (0, 1], got {}", self.scale),
            });
        }
        if self.sequences == 0 {
            return Err(WorkloadError::InvalidParameter {
                what: "at least one sequence is required".into(),
            });
        }
        if self.sequence_length == Some(0) {
            return Err(WorkloadError::InvalidParameter {
                what: "sequence length must be positive".into(),
            });
        }
        let spec = NetworkSpec::of(self.id);
        let neurons = scale_dim(spec.neurons, self.scale, 4);
        let features = scale_dim(spec.input_features, self.scale, 4);
        // The output head is tiny compared to the recurrent stack, so it is
        // never scaled: keeping the full class/character/vocabulary width
        // keeps the accuracy proxies (argmax decodes) as sensitive to
        // memoization-induced perturbations as the real tasks are.
        let classes = spec.output_classes;
        let layers = self.layers_override.unwrap_or(spec.layers).max(1);

        let config = DeepRnnConfig::new(spec.cell, features, neurons)
            .layers(layers)
            .direction(spec.direction)
            .output_size(classes);
        let mut rng = DeterministicRng::seed_from_u64(self.seed ^ network_salt(self.id));
        let network = DeepRnn::random(&config, &mut rng)?;

        let length = self.sequence_length.unwrap_or_else(|| {
            if self.scale >= 1.0 {
                spec.typical_sequence_length
            } else {
                // Scaled-down builds default to shorter sequences so the
                // whole suite stays fast; the temporal statistics are
                // unaffected because the generators are stationary.
                spec.typical_sequence_length.min(50)
            }
        });
        let mut generator = SequenceGenerator::for_spec(&spec, features, self.seed);
        let sequences = generator.sequences(self.sequences, length);

        Ok(Workload {
            metric: AccuracyMetric::new(spec.accuracy),
            spec,
            model: Model::from(network),
            sequences,
            scale: self.scale,
            seed: self.seed,
        })
    }
}

fn scale_dim(value: usize, scale: f32, minimum: usize) -> usize {
    ((value as f32 * scale).round() as usize).max(minimum)
}

fn network_salt(id: NetworkId) -> u64 {
    match id {
        NetworkId::ImdbSentiment => 0x11,
        NetworkId::DeepSpeech2 => 0x22,
        NetworkId::Eesen => 0x33,
        NetworkId::Mnmt => 0x44,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_core::{BnnMemoConfig, Predictor, PredictorKind};
    use nfm_rnn::{CellKind, Direction};

    #[test]
    fn full_scale_topology_matches_table1() {
        // Build the smallest full-scale network (IMDB) and check Table 1.
        let w = WorkloadBuilder::new(NetworkId::ImdbSentiment)
            .sequences(1)
            .sequence_length(4)
            .build()
            .unwrap();
        assert_eq!(w.network().layers().len(), 1);
        assert_eq!(w.network().layers()[0].forward_cell().hidden_size(), 128);
        assert_eq!(
            w.network().layers()[0].forward_cell().kind(),
            CellKind::Lstm
        );
        assert_eq!(w.scale(), 1.0);
    }

    #[test]
    fn scaled_build_preserves_structure() {
        let w = WorkloadBuilder::new(NetworkId::Eesen)
            .scale(0.05)
            .layers(2)
            .sequences(2)
            .sequence_length(8)
            .seed(3)
            .build()
            .unwrap();
        assert_eq!(w.spec().direction, Direction::Bidirectional);
        assert_eq!(w.network().layers().len(), 2);
        assert!(w.network().layers()[0].is_bidirectional());
        assert_eq!(w.sequences().len(), 2);
        assert_eq!(w.sequences()[0].len(), 8);
        assert_eq!(w.total_timesteps(), 16);
        assert!(w.total_neuron_evaluations() > 0);
    }

    #[test]
    fn builder_validates_parameters() {
        assert!(WorkloadBuilder::new(NetworkId::Mnmt)
            .scale(0.0)
            .build()
            .is_err());
        assert!(WorkloadBuilder::new(NetworkId::Mnmt)
            .scale(1.5)
            .build()
            .is_err());
        assert!(WorkloadBuilder::new(NetworkId::Mnmt)
            .sequences(0)
            .build()
            .is_err());
        assert!(WorkloadBuilder::new(NetworkId::Mnmt)
            .sequence_length(0)
            .build()
            .is_err());
    }

    #[test]
    fn same_seed_same_workload_different_seed_differs() {
        let mk = |seed| {
            WorkloadBuilder::new(NetworkId::ImdbSentiment)
                .scale(0.1)
                .sequences(1)
                .sequence_length(6)
                .seed(seed)
                .build()
                .unwrap()
        };
        let a = mk(1);
        let b = mk(1);
        let c = mk(2);
        assert_eq!(a.sequences(), b.sequences());
        assert_ne!(a.sequences(), c.sequences());
    }

    #[test]
    fn workload_runs_under_predictor_run() {
        let w = WorkloadBuilder::new(NetworkId::DeepSpeech2)
            .scale(0.02)
            .layers(2)
            .sequences(2)
            .sequence_length(12)
            .seed(9)
            .build()
            .unwrap();
        let exact = PredictorKind::Exact.run(w.model(), w.sequences()).unwrap();
        let memo = PredictorKind::Bnn(BnnMemoConfig::with_threshold(1.0))
            .run(w.model(), w.sequences())
            .unwrap();
        assert_eq!(exact.outputs.len(), 2);
        assert!(memo.reuse_fraction() > 0.0);
        // Accuracy proxy: identical outputs -> zero loss.
        assert_eq!(w.metric().batch_loss(&exact.outputs, &exact.outputs), 0.0);
        let loss = w.metric().batch_loss(&exact.outputs, &memo.outputs);
        assert!(loss >= 0.0);
    }

    #[test]
    fn error_display_and_source() {
        let e = WorkloadError::InvalidParameter { what: "x".into() };
        assert!(e.to_string().contains("invalid parameter"));
        assert!(e.source().is_none());
        let e: WorkloadError = RnnError::EmptySequence.into();
        assert!(e.source().is_some());
    }
}
