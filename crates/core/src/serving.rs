//! The open predictor abstraction of the serving stack.
//!
//! The paper's FMU is one instance of a *family* of memoization
//! policies (the micro 2019 evaluation compares oracle, BNN and
//! threshold variants side by side).  This module makes that family an
//! open set: a [`Predictor`] is an **evaluator factory** — it owns the
//! `Arc`-shared immutable artifacts of one policy applied to one model
//! (configuration, the prebuilt [`BinaryNetwork`] mirror) and stamps
//! out one private [`ServedEvaluator`] per engine worker, so workers
//! never clone weights or mirrors and never share mutable state.
//!
//! * [`Predictor`] — the factory trait.  Anything implementing it can
//!   be registered with the serving engine's model registry and served
//!   next to the built-ins.
//! * [`ServedEvaluator`] — [`NeuronEvaluator`] plus the optional
//!   per-lane hooks the engine drives a request through: harvest the
//!   lane's [`ReuseStats`], install the request's `θ` override on its
//!   lane, move the lane's state to another worker.  Evaluators that
//!   keep no counters (the exact baseline, most custom evaluators)
//!   implement nothing: the engine synthesizes all-computed statistics
//!   from the request's length.
//! * [`ExactPredictor`] / [`OraclePredictor`] / [`BnnPredictor`] — the
//!   built-in policies as factories.
//! * [`PredictorKind`] — the closed enum naming the built-in family;
//!   [`PredictorKind::instantiate`] turns a kind into its factory for a
//!   concrete network (prebuilding the binary mirror once for the BNN).

use crate::audit::ControlSnapshot;
use crate::config::{BnnMemoConfig, OracleMemoConfig};
use crate::lanes::MemoLaneState;
use crate::oracle::OracleEvaluator;
use crate::predictor::BnnMemoEvaluator;
use crate::stats::ReuseStats;
use nfm_bnn::BinaryNetwork;
use nfm_rnn::{DeepRnn, ExactEvaluator, NeuronEvaluator};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// The type-erased per-lane state a [`ServedEvaluator`] hands over when
/// a lane migrates between workers (see
/// [`ServedEvaluator::export_lane_state`]).
pub type LaneState = Box<dyn Any + Send>;

/// Migratable lane state of the exact evaluator: nothing — the lane's
/// entire state is the recurrent `(h, c)` the scheduler itself moves.
struct ExactLaneState;

/// A [`NeuronEvaluator`] as the serving engine drives it: the inference
/// hook plus optional per-lane hooks.
///
/// A request occupies one lane from admission to its response, and
/// everything request-specific is lane state: the engine harvests the
/// lane's reuse statistics when the request finishes, installs the
/// request's `θ` override on the lane right after admission, and moves
/// the lane's state along when it migrates the request to another
/// worker.  Evaluators that track counters (the oracle and BNN
/// evaluators) override the hooks; evaluators that do not (the exact
/// baseline, simple custom evaluators) inherit the defaults — the
/// engine then synthesizes the exact-path statistics (every neuron of
/// every timestep computed, nothing reused), which is correct for any
/// evaluator that never skips work.
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

    /// Moves lane `lane`'s migratable evaluator state (memo tables,
    /// per-lane statistics) out so the serving engine can transfer an
    /// in-flight request to another worker's evaluator of the same
    /// predictor — work stealing.  `None` (the default) means the
    /// evaluator does not support lane migration and the engine must
    /// finish the lane where it is; custom evaluators therefore never
    /// migrate unless they opt in.
    fn export_lane_state(&mut self, lane: usize) -> Option<LaneState> {
        let _ = lane;
        None
    }

    /// Installs state produced by
    /// [`export_lane_state`](ServedEvaluator::export_lane_state) on a
    /// peer evaluator of the same predictor into lane `lane`,
    /// overwriting the lane's current state **without** resetting it
    /// (the sequence is mid-flight).  Returns `false` when the state
    /// is not recognized — the engine treats that as a failed
    /// migration.
    fn import_lane_state(&mut self, lane: usize, state: LaneState) -> bool {
        let _ = (lane, state);
        false
    }
}

impl ServedEvaluator for ExactEvaluator {
    fn export_lane_state(&mut self, lane: usize) -> Option<LaneState> {
        let _ = lane;
        Some(Box::new(ExactLaneState))
    }

    fn import_lane_state(&mut self, lane: usize, state: LaneState) -> bool {
        let _ = lane;
        state.downcast::<ExactLaneState>().is_ok()
    }
}

/// The hooks of an evaluator that keeps its per-lane state in
/// [`MemoLanes`](crate::lanes::MemoLanes): everything request-specific
/// — statistics, `θ`, and the state that migrates — is the lane's
/// [`MemoLaneState`].
macro_rules! serve_from_memo_lanes {
    ($evaluator:ty) => {
        impl ServedEvaluator for $evaluator {
            fn take_lane_stats(&mut self, lane: usize) -> Option<ReuseStats> {
                Some(self.lanes.take_stats(lane))
            }

            fn stats_snapshot(&self) -> Option<ReuseStats> {
                Some(*self.stats())
            }

            fn set_lane_threshold(&mut self, lane: usize, threshold: f32) {
                self.lanes.set_threshold(lane, threshold);
            }

            fn export_lane_state(&mut self, lane: usize) -> Option<LaneState> {
                Some(Box::new(self.lanes.export(lane)))
            }

            fn import_lane_state(&mut self, lane: usize, state: LaneState) -> bool {
                let Ok(state) = state.downcast::<MemoLaneState>() else {
                    return false;
                };
                self.begin_batch(lane + 1);
                self.lanes.import(lane, *state);
                true
            }
        }
    };
}

serve_from_memo_lanes!(OracleEvaluator);
serve_from_memo_lanes!(BnnMemoEvaluator);

/// An evaluator factory: one memoization policy bound to one model.
///
/// Implementations hold only `Arc`-shared immutable artifacts (policy
/// configuration, the prebuilt binary mirror); every engine worker
/// calls [`build_evaluator`](Predictor::build_evaluator) once to get a
/// private mutable evaluator, so the hot path never synchronizes and
/// worker memory never scales with the shared artifacts.
///
/// Custom policies implement this trait and register through the
/// serving engine's model registry; the built-ins are
/// [`ExactPredictor`], [`OraclePredictor`] and [`BnnPredictor`]
/// (usually reached through [`PredictorKind::instantiate`]).
pub trait Predictor: Send + Sync + fmt::Debug {
    /// The name under which a registry files this predictor when the
    /// caller does not pick one ("exact", "oracle", "bnn", …).
    fn name(&self) -> &str;

    /// Builds one private evaluator for a worker.  `network` is the
    /// model this predictor was registered for — factories that
    /// prebuild per-network state (tables sized up front, mirrors) may
    /// ignore it and use their shared artifacts instead.
    fn build_evaluator(&self, network: &DeepRnn) -> Box<dyn ServedEvaluator>;

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
}

/// The exact baseline as a factory: every neuron computed, nothing
/// memoized, no threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExactPredictor;

impl Predictor for ExactPredictor {
    fn name(&self) -> &str {
        "exact"
    }

    fn build_evaluator(&self, _network: &DeepRnn) -> Box<dyn ServedEvaluator> {
        Box::new(ExactEvaluator::new())
    }
}

/// The oracle predictor of Figure 6 as a factory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OraclePredictor {
    config: OracleMemoConfig,
}

impl OraclePredictor {
    /// A factory producing oracle evaluators with `config`.
    pub fn new(config: OracleMemoConfig) -> Self {
        OraclePredictor { config }
    }

    /// The configuration evaluators are built with.
    pub fn config(&self) -> OracleMemoConfig {
        self.config
    }
}

impl Predictor for OraclePredictor {
    fn name(&self) -> &str {
        "oracle"
    }

    fn build_evaluator(&self, network: &DeepRnn) -> Box<dyn ServedEvaluator> {
        Box::new(OracleEvaluator::for_network(network, self.config))
    }

    fn accepts_threshold_override(&self) -> bool {
        true
    }
}

/// The BNN predictor of Figure 10 as a factory: holds the binary mirror
/// of its model behind an `Arc`, so every worker's evaluator consults
/// the **same** prebuilt sign buffers — worker memory does not scale
/// with mirror size.
#[derive(Debug, Clone)]
pub struct BnnPredictor {
    mirror: Arc<BinaryNetwork>,
    config: BnnMemoConfig,
}

impl BnnPredictor {
    /// A factory producing BNN-memoized evaluators over a prebuilt
    /// `mirror` (built once per model, shared by every worker).
    pub fn new(mirror: impl Into<Arc<BinaryNetwork>>, config: BnnMemoConfig) -> Self {
        BnnPredictor {
            mirror: mirror.into(),
            config,
        }
    }

    /// Builds the mirror of `network` and wraps it.  Prefer
    /// [`BnnPredictor::new`] with a shared mirror when several
    /// predictors serve the same model.
    pub fn mirror_of(network: &DeepRnn, config: BnnMemoConfig) -> Self {
        BnnPredictor::new(BinaryNetwork::mirror(network), config)
    }

    /// The shared binary mirror.
    pub fn mirror(&self) -> &Arc<BinaryNetwork> {
        &self.mirror
    }

    /// The configuration evaluators are built with.
    pub fn config(&self) -> BnnMemoConfig {
        self.config
    }
}

impl Predictor for BnnPredictor {
    fn name(&self) -> &str {
        "bnn"
    }

    fn build_evaluator(&self, _network: &DeepRnn) -> Box<dyn ServedEvaluator> {
        Box::new(BnnMemoEvaluator::new(Arc::clone(&self.mirror), self.config))
    }

    fn accepts_threshold_override(&self) -> bool {
        true
    }
}

/// The built-in predictor family by name — the closed enum the serving
/// API grew up around, kept as the convenient way to pick a built-in
/// policy.  [`PredictorKind::instantiate`] turns a kind into its open
/// [`Predictor`] factory for a concrete network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorKind {
    /// No memoization: the exact baseline.
    Exact,
    /// The oracle predictor of Figure 6.
    Oracle(OracleMemoConfig),
    /// The BNN predictor of Figure 10.
    Bnn(BnnMemoConfig),
}

impl PredictorKind {
    /// The registry name of this kind: `"exact"`, `"oracle"` or
    /// `"bnn"`.
    pub fn name(&self) -> &'static str {
        match self {
            PredictorKind::Exact => "exact",
            PredictorKind::Oracle(_) => "oracle",
            PredictorKind::Bnn(_) => "bnn",
        }
    }

    /// Whether instantiating this kind needs the model's binary mirror.
    pub fn needs_mirror(&self) -> bool {
        matches!(self, PredictorKind::Bnn(_))
    }

    /// Builds the factory for this kind applied to `network`.  `mirror`
    /// lets the caller share one prebuilt [`BinaryNetwork`] across
    /// several BNN predictors of the same model; `None` builds it here
    /// (only when [`needs_mirror`](PredictorKind::needs_mirror)).
    pub fn instantiate(
        &self,
        network: &DeepRnn,
        mirror: Option<Arc<BinaryNetwork>>,
    ) -> Arc<dyn Predictor> {
        match self {
            PredictorKind::Exact => Arc::new(ExactPredictor),
            PredictorKind::Oracle(config) => Arc::new(OraclePredictor::new(*config)),
            PredictorKind::Bnn(config) => {
                let mirror = mirror.unwrap_or_else(|| Arc::new(BinaryNetwork::mirror(network)));
                Arc::new(BnnPredictor::new(mirror, *config))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_rnn::{CellKind, DeepRnnConfig};
    use nfm_tensor::rng::DeterministicRng;
    use nfm_tensor::Vector;

    fn network() -> DeepRnn {
        let mut rng = DeterministicRng::seed_from_u64(21);
        DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 4, 6), &mut rng).unwrap()
    }

    fn sequence(net: &DeepRnn, len: usize) -> Vec<Vector> {
        let mut rng = DeterministicRng::seed_from_u64(22);
        let mut x = Vector::from_fn(net.input_size(), |_| rng.uniform(-0.5, 0.5));
        (0..len)
            .map(|_| {
                x = x
                    .add(&Vector::from_fn(net.input_size(), |_| {
                        rng.uniform(-0.05, 0.05)
                    }))
                    .unwrap();
                x.clone()
            })
            .collect()
    }

    #[test]
    fn kinds_name_their_factories() {
        let net = network();
        for kind in [
            PredictorKind::Exact,
            PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.2)),
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
        ] {
            let factory = kind.instantiate(&net, None);
            assert_eq!(factory.name(), kind.name());
            assert_eq!(kind.needs_mirror(), kind.name() == "bnn");
        }
    }

    #[test]
    fn built_evaluators_match_direct_construction_bitwise() {
        let net = network();
        let seq = sequence(&net, 12);
        let mirror = Arc::new(BinaryNetwork::mirror(&net));
        let config = BnnMemoConfig::with_threshold(1.0);
        let factory = PredictorKind::Bnn(config).instantiate(&net, Some(Arc::clone(&mirror)));
        let mut built = factory.build_evaluator(&net);
        let from_factory = net.run(&seq, built.as_mut()).unwrap();
        let mut direct = BnnMemoEvaluator::new(Arc::clone(&mirror), config);
        let reference = net.run(&seq, &mut direct).unwrap();
        assert_eq!(from_factory, reference);
        assert_eq!(
            built.stats_snapshot().map(|s| s.reuses()),
            Some(direct.stats().reuses())
        );
    }

    #[test]
    fn only_thresholded_policies_accept_overrides() {
        let net = network();
        assert!(!ExactPredictor.accepts_threshold_override());
        assert!(OraclePredictor::new(OracleMemoConfig::with_threshold(0.4))
            .accepts_threshold_override());
        assert!(
            BnnPredictor::mirror_of(&net, BnnMemoConfig::with_threshold(0.5))
                .accepts_threshold_override()
        );
    }

    #[test]
    fn untracked_evaluators_report_no_stats() {
        let mut exact = ExactEvaluator::new();
        assert!(ServedEvaluator::take_lane_stats(&mut exact, 0).is_none());
        assert!(ServedEvaluator::stats_snapshot(&exact).is_none());
        ServedEvaluator::set_lane_threshold(&mut exact, 0, 0.5); // ignored, must not panic
    }
}
