//! # nfm-rnn
//!
//! Recurrent neural network inference substrate for the neuron-level
//! fuzzy memoization (MICRO 2019) reproduction.
//!
//! The crate implements the cell types the paper evaluates — LSTM with
//! peephole connections (Figure 2 / Equations 1–6) and GRU (Figure 3) —
//! as one [`Cell`]: a [`CellKind`] and its gates in
//! [`CellKind::gate_kinds`] order, stepped by one `step_batch_into` whose
//! only per-kind code is how the gate outputs combine.  Layers are one
//! cell or a bidirectional pair, stacked into deep networks,
//! matching the topologies of Table 1 (e.g. EESEN is a 10-layer
//! bidirectional LSTM with 320 neurons per direction).
//!
//! Inference has one driver, [`LaneScheduler::step`]: sequences run as
//! the lanes of a scheduler ([`DeepRnn::run_batch`] admits them and
//! steps until idle; hold a [`LaneScheduler`] yourself for mid-flight
//! refill) and a single sequence is a batch of one ([`DeepRnn::run`]).
//!
//! The central abstraction is the [`NeuronEvaluator`] trait: every
//! per-neuron dot product (`W_x·x_t + W_h·h_{t-1}`) performed during
//! inference goes through it.  The default [`ExactEvaluator`] simply
//! computes the products; the `nfm-core` crate plugs in the paper's fuzzy
//! memoization scheme at exactly this boundary, which mirrors where the
//! E-PUR accelerator's fuzzy memoization unit intercepts the DPU.
//!
//! # Example
//!
//! ```
//! use nfm_rnn::{DeepRnnConfig, CellKind, Direction, DeepRnn, ExactEvaluator};
//! use nfm_tensor::rng::DeterministicRng;
//! use nfm_tensor::Vector;
//!
//! let config = DeepRnnConfig::new(CellKind::Lstm, 8, 16)
//!     .layers(2)
//!     .direction(Direction::Unidirectional);
//! let mut rng = DeterministicRng::seed_from_u64(1);
//! let rnn = DeepRnn::random(&config, &mut rng).unwrap();
//! let sequence: Vec<Vector> = (0..4).map(|_| Vector::zeros(8)).collect();
//! let outputs = rnn.run(&sequence, &mut ExactEvaluator::new()).unwrap();
//! assert_eq!(outputs.len(), 4);
//! assert_eq!(outputs[0].len(), 16);
//! ```

pub mod batch;
pub mod cell;
pub mod config;
pub mod dense;
pub mod error;
pub mod evaluator;
pub mod gate;
pub mod layer;
pub mod network;
pub mod scheduler;

pub use batch::{BatchScratch, BatchState};
pub use cell::Cell;
pub use config::{CellKind, DeepRnnConfig, Direction};
pub use dense::Dense;
pub use error::RnnError;
pub use evaluator::{
    evaluate_neurons, CountingEvaluator, ExactEvaluator, GateBatch, NeuronEvaluator, NeuronRef,
};
pub use gate::{Gate, GateId, GateKind};
pub use layer::{Layer, HOIST_BLOCK};
pub use network::DeepRnn;
pub use scheduler::{FinishedLane, LaneScheduler};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, RnnError>;
