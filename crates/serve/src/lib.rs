//! # nfm-serve — request-oriented inference serving
//!
//! The serving front door of the NFM reproduction.  The paper's
//! memoization scheme targets *inference serving* — batch-of-one
//! sequences arriving continuously — so the public unit of work here is
//! a **request**, not a pre-collected workload:
//!
//! * [`InferenceRequest`] — one sequence, an optional deadline,
//!   per-request [`RequestOptions`] (model, predictor, threshold
//!   override, priority), and a caller-chosen id.
//! * [`ModelRegistry`] — the open serving surface: [`ModelId`] →
//!   one [`Model`] (a version's network plus the binary mirror derived
//!   from it once) served under a set of [`Predictor`] policies.  One
//!   call registers any of them — a [`PredictorKind`], an adaptive or a
//!   custom [`Predictor`] — over a network or a loaded artifact, and
//!   the same arguments hot-swap a version
//!   ([`Engine::swap_model`]).  One engine serves every registered
//!   model concurrently.
//! * [`Engine`] / [`EngineBuilder`] — a bounded, priority-aware
//!   submission queue (backpressure via [`EngineError::QueueFull`]) in
//!   front of worker threads; each worker builds one private evaluator
//!   and one [`LaneScheduler`](nfm_rnn::LaneScheduler) per served
//!   (model, predictor) combination, interleaves them, and drops those
//!   of a version the registry retired once idle.  A request
//!   is admitted into a lane, and what is specific to it — a threshold
//!   override included — is state of that lane, so requests that differ
//!   only in `θ` share one gate call.  Every context advances by the
//!   scheduler's one step routine: 8 timesteps of every lane at a time
//!   on a unidirectional stack — inputs hoisted across the block, a
//!   drained lane refilled from the queue *immediately* (mid-wave lane
//!   refill), expired in-flight requests aborted between blocks — and
//!   the seated sequences whole on a stack with a bidirectional layer.
//!   Hot contexts borrow idle lanes from cold ones on the same worker,
//!   and a lane never leaves the worker that admitted it — neither
//!   changes results.
//! * [`InferenceResponse`] — per-request outputs, per-request
//!   [`ReuseStats`](nfm_core::ReuseStats), queue/compute latency, and a
//!   [`CompletionStatus`] (`Done` / `DeadlineExpired` / `Rejected`);
//!   every admitted request is reported exactly once.
//!
//! A pre-collected workload needs no engine: [`Predictor::run`] runs its
//! sequences one at a time through one evaluator, and every response's
//! outputs and statistics are bit-identical to it over the same
//! sequence (by test).
//!
//! # Example
//!
//! ```
//! use nfm_serve::{Engine, EngineBuilder, InferenceRequest, PredictorKind};
//! use nfm_core::BnnMemoConfig;
//! use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig};
//! use nfm_tensor::rng::DeterministicRng;
//! use nfm_tensor::Vector;
//!
//! let mut rng = DeterministicRng::seed_from_u64(9);
//! let net = DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 4, 8), &mut rng).unwrap();
//! let engine = EngineBuilder::new(net, PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)))
//!     .lanes(2)
//!     .workers(1)
//!     .queue_capacity(16)
//!     .build()
//!     .unwrap();
//! for id in 0..4u64 {
//!     let seq: Vec<Vector> =
//!         (0..6).map(|t| Vector::from_fn(4, |i| (id as f32) * 0.1 + (t + i) as f32 * 0.05)).collect();
//!     engine.submit(InferenceRequest::new(id, seq)).unwrap();
//! }
//! let responses = engine.shutdown();
//! assert_eq!(responses.len(), 4);
//! assert!(responses.iter().all(|r| r.is_done()));
//! ```

pub mod engine;
mod error;
mod lifecycle;
pub mod registry;
pub mod request;
mod worker;

pub use engine::{
    CanaryConfig, CanaryRule, ContextStats, Engine, EngineBuilder, EngineError, RegistryGuard,
    SwapOutcome, SwapReport, SwapStatus, DEFAULT_MODEL,
};
pub use nfm_tensor::backend::KernelBackend;
pub use registry::{ModelId, ModelRegistry, ModelVersion};
pub use request::{
    CompletionStatus, InferenceRequest, InferenceResponse, Priority, RequestId, RequestOptions,
};

// What a registry is given lives below this crate — a `Model` and the
// `Predictor`s it is served under in `nfm-core`, artifact loading in
// `nfm-model` — and is re-exported here, where it plugs in.
pub use nfm_core::{Model, Predictor, PredictorKind, ServedEvaluator};
pub use nfm_model as model;
