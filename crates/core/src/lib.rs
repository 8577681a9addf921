//! # nfm-core — neuron-level fuzzy memoization
//!
//! The paper's primary contribution (Section 3): a per-neuron fuzzy
//! memoization scheme for recurrent layers that skips a neuron's
//! full-precision dot products whenever a cheap Bitwise Neural Network
//! (BNN) predicts that the output will be very close to a recently
//! cached one.
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`MemoTable`] / [`MemoEntry`] — the memoization buffer holding, per
//!   neuron, the cached full-precision output `y_m`, the cached BNN
//!   output `yb_m` and the accumulated relative difference `δb`
//!   (Figure 10 / the FMU's memoization buffer).
//! * [`BnnMemoEvaluator`] — the memoizing evaluator.  Built with
//!   [`BnnMemoEvaluator::new`] it is the realisable predictor (Figure
//!   10/12): the binarized mirror is evaluated every timestep, relative
//!   changes of its outputs are accumulated (the throttling mechanism),
//!   and the full-precision neuron is evaluated only when the
//!   accumulated change exceeds the threshold `θ`.  Built with
//!   [`BnnMemoEvaluator::oracle`] it is the idealised predictor of
//!   Figure 6 used for the limit study of Figure 1: the true output
//!   stands in for the mirror's, so it reuses whenever the true
//!   relative change is below the threshold.
//! * [`ReuseStats`] — computation-reuse accounting (the numerator /
//!   denominator of every "computation reuse (%)" number in the paper).
//! * [`ThresholdExplorer`] — the per-model threshold search of
//!   Section 3.2.1 (pick the largest reuse whose accuracy loss stays
//!   within a target).
//! * [`Model`] / [`Predictor`] / [`ServedEvaluator`] — the serving
//!   abstraction: a `Model` is one version's shared artifacts (network
//!   plus the mirror derived from it once), a `Predictor` is a policy
//!   that stamps out per-worker evaluators over a `Model`, and
//!   [`PredictorKind`] is the built-in family (exact/oracle/BNN).
//! * [`Predictor::run`] — offline inference: a policy's one evaluator
//!   runs a set of sequences one at a time through
//!   [`DeepRnn::run`](nfm_rnn::DeepRnn::run), returning a
//!   [`RunOutcome`] (outputs plus merged [`ReuseStats`]).
//!
//! The request-oriented serving surface — the `Engine` and its
//! multi-model registry — lives in the `nfm-serve` crate, which plugs
//! the same policies into the unified lane scheduler of `nfm-rnn`.
//!
//! # Example
//!
//! ```
//! use nfm_core::{BnnMemoConfig, BnnMemoEvaluator, Model, ReuseStats};
//! use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig};
//! use nfm_tensor::rng::DeterministicRng;
//! use nfm_tensor::Vector;
//!
//! let cfg = DeepRnnConfig::new(CellKind::Lstm, 4, 8);
//! let mut rng = DeterministicRng::seed_from_u64(1);
//! let model = Model::from(DeepRnn::random(&cfg, &mut rng).unwrap());
//! let net = model.network();
//! let mut evaluator =
//!     BnnMemoEvaluator::new(model.mirror().clone(), BnnMemoConfig::with_threshold(0.1));
//! let seq: Vec<Vector> = (0..10).map(|_| Vector::from_fn(4, |i| (i as f32) * 0.1)).collect();
//! let _ = net.run(&seq, &mut evaluator).unwrap();
//! let stats: &ReuseStats = evaluator.stats();
//! assert_eq!(stats.evaluations(), 10 * net.neuron_evaluations_per_step() as u64);
//! ```

pub mod audit;
pub mod config;
pub mod lanes;
pub mod predictor;
pub mod serving;
pub mod stats;
pub mod table;
pub mod threshold;

pub use audit::{AuditConfig, AuditStats, ControlSnapshot, LayerAudit, LayerControl};
pub use config::{BnnMemoConfig, OracleMemoConfig};
pub use lanes::MemoLanes;
pub use nfm_bnn::Model;
pub use predictor::BnnMemoEvaluator;
pub use serving::{Predictor, PredictorKind, RunOutcome, ServedEvaluator};
pub use stats::ReuseStats;
pub use table::{GateColumns, GateHandle, MemoEntry, MemoTable};
pub use threshold::{ThresholdExplorer, ThresholdPoint};
