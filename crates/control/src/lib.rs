//! # nfm-control — online adaptive threshold control
//!
//! The source paper picks the memoization threshold θ **offline**: sweep
//! θ on a validation set, keep the largest reuse whose accuracy loss
//! stays within budget (Section 3.2.1). Under live traffic whose
//! statistics drift, a static θ either wastes reuse (too conservative)
//! or silently blows the accuracy budget (too aggressive). This crate
//! closes the loop online:
//!
//! * **Feedback** — [`BnnMemoEvaluator`](nfm_core::BnnMemoEvaluator)
//!   audit sampling: a deterministic 1-in-N subsample of memo *hits* is
//!   also computed exactly and its |error| recorded per layer
//!   ([`nfm_core::AuditStats`]), so error is observed without forfeiting
//!   the savings of the other N−1 hits.
//! * **Control law** — [`ThresholdController`]: per layer, an EWMA of
//!   the mean audited error is compared against the accuracy SLO;
//!   bounded multiplicative updates shrink θ when the EWMA exceeds the
//!   SLO and grow it when there is headroom. All state is seeded and
//!   deterministic.
//! * **Serving integration** — [`AdaptivePredictor`] implements
//!   [`nfm_core::Predictor`], so it registers with the serving engine's
//!   `ModelRegistry` through the same call as any static policy and
//!   reads the binary mirror of the [`Model`](nfm_core::Model) it is
//!   served on — it owns no copy. One controller is `Arc`-shared by
//!   every worker's [`AdaptiveEvaluator`]; evaluators
//!   drain their audit counters into it and re-read θ **between
//!   whole-gate calls only** (block boundaries), so all lanes of one
//!   gate invocation always share a single θ and lane bit-identity
//!   within a block is preserved.
//!
//! With a frozen controller ([`ControllerConfig::frozen_at`]) the
//! adaptive evaluator is bit-identical to a static
//! [`PredictorKind::Bnn`](nfm_core::PredictorKind::Bnn) at the same θ.
//!
//! Determinism note: a single evaluator (or a single-worker engine)
//! adapts deterministically for a given seed and request order. With
//! several workers the *observation order* at the shared controller
//! depends on thread scheduling, so θ trajectories may differ between
//! runs even though every individual output remains a valid memoized
//! inference.

pub mod controller;
pub mod predictor;

pub use controller::{ControllerConfig, ThresholdController};
pub use predictor::{AdaptiveEvaluator, AdaptivePredictor};
