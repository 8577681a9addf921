//! # nfm — Neuron-Level Fuzzy Memoization in RNNs
//!
//! Umbrella crate for the reproduction of *"Neuron-Level Fuzzy Memoization
//! in RNNs"* (Silfa, Dot, Arnau, González — MICRO-52, 2019).
//!
//! It re-exports the workspace crates under a single namespace so
//! examples, integration tests and downstream users can write
//! `use nfm::memo::...` without tracking individual crate names.
//!
//! # Public surface
//!
//! Every type has exactly **one canonical path**; the table is the
//! contract:
//!
//! | Path | What lives there |
//! |---|---|
//! | [`tensor`] | dense linear algebra, activations, statistics, kernel backends |
//! | [`rnn`] | LSTM/GRU cells, layers, deep networks; the one lane-striped inference path (`DeepRnn::run` is a batch of one), the lane scheduler, and the 6-method [`NeuronEvaluator`](rnn::NeuronEvaluator) boundary |
//! | [`bnn`] | binarized (bitwise) network substrate |
//! | [`memo`] | the paper's contribution: neuron-level fuzzy memoization (evaluators, configs, the open [`Predictor`](nfm_core::Predictor) abstraction and its offline [`Predictor::run`](nfm_core::Predictor::run)) |
//! | [`model`] | versioned binary model artifacts: aligned save, a load that reads each tensor into its own line buffer, prebuilt BNN mirrors |
//! | [`control`] | online adaptive threshold controller holding an accuracy SLO |
//! | [`serve`] | the request-oriented serving engine: multi-model registry, per-request options, deadlines, hot swaps with canary routing |
//! | [`net`] | the TCP serving surface: length-prefixed wire protocol (each frame declared once), poll-loop server, client |
//! | [`accel`] | the E-PUR accelerator simulator (timing/energy/area) |
//! | [`workloads`] | the four Table 1 RNNs (each a [`Model`](nfm_core::Model): network plus its one mirror) with synthetic data |
//! | [`eval`] | per-figure/per-table experiment harness |
//!
//! Types re-exported by more than one crate resolve as follows:
//!
//! * The predictor abstraction ([`Predictor`](nfm_core::Predictor), the
//!   built-in implementations and [`RunOutcome`](nfm_core::RunOutcome))
//!   is canonical in [`memo`]; [`serve`] re-exports the policy types
//!   because the engine is where implementations plug in.
//!
//! # Quickstart
//!
//! ```
//! use nfm::workloads::{NetworkId, WorkloadBuilder};
//! use nfm::memo::{BnnMemoConfig, Predictor, PredictorKind};
//!
//! // Build a scaled-down IMDB sentiment workload and run it, one
//! // sequence at a time, with the BNN-predictor memoization scheme at
//! // threshold 0.05.
//! let workload = WorkloadBuilder::new(NetworkId::ImdbSentiment)
//!     .scale(0.125)
//!     .sequences(2)
//!     .sequence_length(16)
//!     .seed(7)
//!     .build()
//!     .expect("workload");
//! let bnn = PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.05));
//! let outcome = bnn.run(workload.model(), workload.sequences()).expect("run");
//! assert_eq!(outcome.outputs.len(), 2);
//! assert!(outcome.reuse_fraction() >= 0.0);
//! ```

pub use nfm_accel as accel;
pub use nfm_bnn as bnn;
pub use nfm_control as control;
pub use nfm_eval as eval;
pub use nfm_model as model;
pub use nfm_net as net;
pub use nfm_rnn as rnn;
pub use nfm_serve as serve;
pub use nfm_tensor as tensor;
pub use nfm_workloads as workloads;

/// The memoization surface: the `nfm-core` evaluators, the
/// [`Model`](nfm_core::Model) a version's shared artifacts live in and
/// the open [`Predictor`](nfm_core::Predictor) policy abstraction.
pub mod memo {
    pub use nfm_core::*;
}
