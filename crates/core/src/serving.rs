//! The open predictor abstraction of the serving stack.
//!
//! The paper's FMU is one instance of a *family* of memoization
//! policies (the micro 2019 evaluation compares oracle, BNN and
//! threshold variants side by side) over the same trained networks.
//! This module says that once: a model version's shared artifacts are a
//! [`Model`] — the network plus the binary mirror derived from its
//! weights at most once — and a [`Predictor`] is a **policy**: it holds
//! configuration only and stamps out one private [`ServedEvaluator`]
//! per engine worker from the `Model` it is handed, so any number of
//! policies and workers read one set of weights and one mirror and
//! never share mutable state.
//!
//! * [`Predictor`] — the policy trait.  Anything implementing it
//!   registers with the serving engine's model registry, next to the
//!   built-ins and through the same call.
//! * [`PredictorKind`] — the built-in family (exact / oracle / BNN),
//!   itself a [`Predictor`].
//! * [`Predictor::run`] / [`RunOutcome`] — offline inference under a
//!   policy: sequences one at a time through one evaluator, outputs plus
//!   the merged [`ReuseStats`].
//! * [`ServedEvaluator`] — [`NeuronEvaluator`] plus the three optional
//!   hooks the engine drives a request through: harvest the lane's
//!   [`ReuseStats`], snapshot the aggregate counters, install the
//!   request's `θ` override on its lane.  Evaluators that keep no
//!   per-lane counters (the exact baseline, most custom evaluators)
//!   leave the lane hook alone: the engine synthesizes a request's
//!   all-computed statistics from its length.

use crate::config::{BnnMemoConfig, OracleMemoConfig};
use crate::control::ControlSnapshot;
use crate::predictor::BnnMemoEvaluator;
use crate::stats::ReuseStats;
use nfm_bnn::Model;
use nfm_rnn::{ExactEvaluator, NeuronEvaluator, Result as RnnResult};
use nfm_tensor::Vector;
use std::fmt;
use std::sync::Arc;

/// A [`NeuronEvaluator`] as the serving engine drives it: the inference
/// hook plus three optional hooks — take a lane's statistics, snapshot
/// the aggregate counters, set a lane's `θ`.
///
/// A request occupies one lane of one worker from admission to its
/// response, and everything request-specific is lane state: the engine
/// installs the request's `θ` override on the lane right after
/// admission and harvests the lane's reuse statistics when the request
/// finishes.  Evaluators that track counters (the memoizing
/// [`BnnMemoEvaluator`], oracle or BNN) override the hooks; evaluators that do not (simple
/// custom evaluators; the exact baseline reports only its aggregate)
/// inherit the defaults — the engine then synthesizes the exact-path
/// statistics (every neuron of every timestep computed, nothing
/// reused), which is correct for any evaluator that never skips work.
pub trait ServedEvaluator: NeuronEvaluator + Send {
    /// Takes the statistics attributable to the request that just
    /// finished (or was aborted) on `lane` of a batched schedule,
    /// leaving the lane's counters at zero.  `None` means the evaluator
    /// keeps no per-lane counters.
    fn take_lane_stats(&mut self, lane: usize) -> Option<ReuseStats> {
        let _ = lane;
        None
    }

    /// Snapshot of the aggregate counters over every request served so
    /// far.  `None` means the evaluator keeps no counters.
    fn stats_snapshot(&self) -> Option<ReuseStats> {
        None
    }

    /// Makes lane `lane` compare against `threshold` instead of the
    /// configured `θ` until the lane's next
    /// [`begin_lane_sequence`](NeuronEvaluator::begin_lane_sequence),
    /// which must clear it.  The engine calls this right after
    /// admitting a request that carries an override, and only for
    /// evaluators whose predictor
    /// [accepts overrides](Predictor::accepts_threshold_override); the
    /// default ignores it.
    fn set_lane_threshold(&mut self, lane: usize, threshold: f32) {
        let _ = (lane, threshold);
    }
}

/// The exact baseline keeps no per-lane counters, but its aggregate is
/// every evaluation it made, all computed.
impl ServedEvaluator for ExactEvaluator {
    fn stats_snapshot(&self) -> Option<ReuseStats> {
        let mut stats = ReuseStats::new();
        stats.record_computed_many(self.evaluations());
        Some(stats)
    }
}

/// Everything request-specific — statistics and `θ` — is the lane's
/// state in [`MemoLanes`](crate::lanes::MemoLanes).
impl ServedEvaluator for BnnMemoEvaluator {
    fn take_lane_stats(&mut self, lane: usize) -> Option<ReuseStats> {
        Some(std::mem::take(&mut self.lanes.0[lane].stats))
    }

    fn stats_snapshot(&self) -> Option<ReuseStats> {
        Some(*self.stats())
    }

    fn set_lane_threshold(&mut self, lane: usize, threshold: f32) {
        self.lanes.0[lane].threshold = Some(threshold);
    }
}

/// A memoization policy: how to evaluate the neurons of whatever
/// [`Model`] it is applied to.
///
/// Implementations hold policy only (configuration, a shared
/// controller) — the weights and the binary mirror belong to the
/// `Model`.  The registry calls [`prepare`](Predictor::prepare) once on
/// the registering thread when the policy is filed for a model version,
/// so what the policy reads from the `Model` exists before the first
/// request; every engine worker then calls
/// [`build_evaluator`](Predictor::build_evaluator) once to get a private
/// mutable evaluator, so the hot path never synchronizes and worker
/// memory never scales with the shared artifacts.
///
/// The built-in family is [`PredictorKind`]; custom policies implement
/// this trait and register through the same calls.
pub trait Predictor: Send + Sync + fmt::Debug {
    /// The name a registry files this predictor under and requests pick
    /// it by ("exact", "oracle", "bnn", …).  One model serves each name
    /// once; a second configuration of the same policy is a `Predictor`
    /// with its own name.
    fn name(&self) -> &str;

    /// Builds one private evaluator over `model`'s shared artifacts.
    fn build_evaluator(&self, model: &Model) -> Box<dyn ServedEvaluator>;

    /// Called once when the policy is filed for `model`, before any
    /// evaluator is built over it.  A policy whose evaluators read
    /// [`Model::mirror`] touches it here, so the mirror is built where
    /// the version is registered and never by a worker; the default
    /// does nothing (a mirror nobody prepared is still built, once, by
    /// the first evaluator that asks).
    fn prepare(&self, model: &Model) {
        let _ = model;
    }

    /// Whether a request may override the reuse threshold `θ`.  A
    /// policy that returns `true` builds evaluators that honour
    /// [`ServedEvaluator::set_lane_threshold`]: the override is state
    /// of the request's lane, so overridden and plain requests share
    /// one evaluator.  `false` (the default) means the policy has no
    /// threshold a caller may pin; the engine then rejects override
    /// requests at submission with a typed error instead of silently
    /// ignoring the option.
    fn accepts_threshold_override(&self) -> bool {
        false
    }

    /// Snapshot of this predictor's live controller state — current
    /// per-layer θ, audit-error EWMA, hit/audit counters — if the
    /// policy adapts its thresholds online.  `None` (the default) means
    /// the policy is static; the serving engine surfaces the snapshot
    /// through its observability accessors.
    fn control_snapshot(&self) -> Option<ControlSnapshot> {
        None
    }

    /// Runs `sequences` through `model` under this policy, one at a
    /// time (the paper's batch-of-one regime): one evaluator is
    /// [prepared](Predictor::prepare) and built, and every sequence is
    /// one [`DeepRnn::run`](nfm_rnn::DeepRnn::run) through it, starting
    /// cold.  The outcome's statistics are the evaluator's merged
    /// counters; an evaluator that keeps none reports every neuron of
    /// every timestep computed, as the serving engine does.
    ///
    /// # Errors
    ///
    /// Propagates the first inference error (an empty sequence, an
    /// input of the wrong width).
    fn run(&self, model: &Model, sequences: &[Vec<Vector>]) -> RnnResult<RunOutcome> {
        self.prepare(model);
        let network = model.network();
        let mut evaluator = self.build_evaluator(model);
        let outputs = sequences
            .iter()
            .map(|sequence| network.run(sequence, evaluator.as_mut()))
            .collect::<RnnResult<Vec<_>>>()?;
        let stats = evaluator.stats_snapshot().unwrap_or_else(|| {
            let steps: usize = sequences.iter().map(Vec::len).sum();
            let mut stats = ReuseStats::new();
            stats.record_computed_many((steps * network.neuron_evaluations_per_step()) as u64);
            stats
        });
        Ok(RunOutcome { outputs, stats })
    }
}

/// What [`Predictor::run`] returns: per-sequence outputs plus the
/// aggregated reuse statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Network outputs, one `Vec<Vector>` per input sequence.
    pub outputs: Vec<Vec<Vector>>,
    /// Aggregated reuse statistics across all sequences.
    pub stats: ReuseStats,
}

impl RunOutcome {
    /// Fraction of neuron evaluations avoided, in `[0, 1]`.
    pub fn reuse_fraction(&self) -> f64 {
        self.stats.reuse_fraction()
    }

    /// Computation reuse as a percentage (the paper's unit).
    pub fn reuse_percent(&self) -> f64 {
        self.stats.reuse_percent()
    }
}

/// A shared policy is the policy: callers that keep a handle on what
/// they register (an adaptive predictor's controller) pass a clone of
/// their `Arc`.
impl<P: Predictor + ?Sized> Predictor for Arc<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn build_evaluator(&self, model: &Model) -> Box<dyn ServedEvaluator> {
        (**self).build_evaluator(model)
    }

    fn prepare(&self, model: &Model) {
        (**self).prepare(model)
    }

    fn accepts_threshold_override(&self) -> bool {
        (**self).accepts_threshold_override()
    }

    fn control_snapshot(&self) -> Option<ControlSnapshot> {
        (**self).control_snapshot()
    }
}

/// The built-in predictor family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorKind {
    /// No memoization: the exact baseline.
    Exact,
    /// The oracle predictor of Figure 6.
    Oracle(OracleMemoConfig),
    /// The BNN predictor of Figure 10, over the model's shared mirror.
    Bnn(BnnMemoConfig),
}

impl Predictor for PredictorKind {
    fn name(&self) -> &str {
        match self {
            PredictorKind::Exact => "exact",
            PredictorKind::Oracle(_) => "oracle",
            PredictorKind::Bnn(_) => "bnn",
        }
    }

    fn build_evaluator(&self, model: &Model) -> Box<dyn ServedEvaluator> {
        match self {
            PredictorKind::Exact => Box::new(ExactEvaluator::new()),
            PredictorKind::Oracle(config) => Box::new(BnnMemoEvaluator::oracle(*config)),
            PredictorKind::Bnn(config) => {
                Box::new(BnnMemoEvaluator::new(Arc::clone(model.mirror()), *config))
            }
        }
    }

    fn prepare(&self, model: &Model) {
        if matches!(self, PredictorKind::Bnn(_)) {
            model.mirror();
        }
    }

    fn accepts_threshold_override(&self) -> bool {
        !matches!(self, PredictorKind::Exact)
    }
}
