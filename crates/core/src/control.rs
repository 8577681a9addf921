//! Online adaptive threshold control.
//!
//! The paper picks the memoization threshold θ **offline**: sweep θ on a
//! validation set, keep the largest reuse whose accuracy loss stays
//! within budget (Section 3.2.1).  Under live traffic whose statistics
//! drift, a static θ either wastes reuse (too conservative) or silently
//! blows the accuracy budget (too aggressive).  This module closes the
//! loop online:
//!
//! * **Feedback** — [`BnnMemoEvaluator`] audit sampling: a deterministic
//!   1-in-N subsample of memo *hits* is also computed exactly and its
//!   |error| recorded per layer ([`AuditStats`]), so error is observed
//!   without forfeiting the savings of the other N−1 hits.
//! * **Control law** — [`ThresholdController`]: per layer, an EWMA of
//!   the mean audited error is compared against the accuracy SLO;
//!   bounded multiplicative updates shrink θ when the EWMA exceeds the
//!   SLO and grow it when there is headroom.  All state is seeded and
//!   deterministic.
//! * **Serving integration** — [`AdaptivePredictor`] implements
//!   [`Predictor`], so it registers with the serving engine's
//!   `ModelRegistry` through the same call as any static policy and
//!   reads the binary mirror of the [`Model`] it is served on — it owns
//!   no copy.  One controller is `Arc`-shared by every worker's
//!   evaluator, [`BnnMemoEvaluator::adaptive`], which drains its audit
//!   counters into it and re-reads θ **between whole-gate calls only**
//!   (block boundaries), so all lanes of one gate invocation always
//!   share a single θ and lane bit-identity within a block is preserved.
//!
//! With a frozen controller ([`ControllerConfig::frozen_at`]) the
//! adaptive evaluator is bit-identical to a static
//! [`PredictorKind::Bnn`](crate::PredictorKind::Bnn) at the same θ.
//!
//! Determinism note: a single evaluator (or a single-worker engine)
//! adapts deterministically for a given seed and request order.  With
//! several workers the *observation order* at the shared controller
//! depends on thread scheduling, so θ trajectories may differ between
//! runs even though every individual output remains a valid memoized
//! inference.

use crate::audit::{AuditConfig, AuditStats};
use crate::predictor::BnnMemoEvaluator;
use crate::serving::{Predictor, ServedEvaluator};
use nfm_bnn::Model;
use nfm_rnn::{GateBatch, HOIST_BLOCK};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of the online threshold controller.
///
/// The control law, per layer: audited hits accumulate into a pending
/// pool; once `min_audits_per_update` audits are pending, their mean
/// absolute error updates an EWMA (`ewma ← alpha·mean + (1−alpha)·ewma`)
/// and θ takes one bounded multiplicative step — `θ ← θ·shrink` when
/// the EWMA exceeds the SLO, `θ ← θ·grow` otherwise — clamped to
/// `[theta_min, theta_max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// The accuracy SLO: target mean |exact − cached| per audited hit.
    pub slo: f64,
    /// Audit one in `audit_period` memo hits.
    pub audit_period: u64,
    /// EWMA weight of the newest observation, in `(0, 1]`.
    pub alpha: f64,
    /// Multiplicative θ growth when the EWMA is within the SLO (> 1).
    pub grow: f32,
    /// Multiplicative θ shrink when the EWMA violates the SLO (< 1).
    pub shrink: f32,
    /// Lower θ clamp.
    pub theta_min: f32,
    /// Upper θ clamp.
    pub theta_max: f32,
    /// θ every layer starts from.
    pub initial_theta: f32,
    /// Pending audits required before a layer takes an update step.
    pub min_audits_per_update: u64,
    /// Seed for the deterministic audit phase (which hit residue is
    /// audited).
    pub seed: u64,
}

impl ControllerConfig {
    /// A controller targeting `slo` with default gains.
    pub fn new(slo: f64) -> Self {
        ControllerConfig {
            slo,
            audit_period: 16,
            alpha: 0.2,
            grow: 1.05,
            shrink: 0.7,
            theta_min: 1e-3,
            theta_max: 16.0,
            initial_theta: 0.5,
            min_audits_per_update: 4,
            seed: 0x5E5,
        }
    }

    /// A frozen controller pinned at `theta`: the clamp is the single
    /// point `[theta, theta]`, so θ never moves while audit telemetry
    /// still flows, and evaluators behave bit-identically to a static
    /// predictor at `theta`.  A later [`theta_range`](Self::theta_range)
    /// or [`initial_theta`](Self::initial_theta) call replaces the pin.
    pub fn frozen_at(slo: f64, theta: f32) -> Self {
        ControllerConfig::new(slo)
            .initial_theta(theta)
            .theta_range(theta, theta)
    }

    /// Replaces the audit period.
    pub fn audit_period(mut self, period: u64) -> Self {
        self.audit_period = period;
        self
    }

    /// Replaces the starting θ.
    pub fn initial_theta(mut self, theta: f32) -> Self {
        self.initial_theta = theta;
        self
    }

    /// Replaces the EWMA weight.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Replaces the multiplicative gains.
    pub fn gains(mut self, grow: f32, shrink: f32) -> Self {
        self.grow = grow;
        self.shrink = shrink;
        self
    }

    /// Replaces the θ clamp range.
    pub fn theta_range(mut self, min: f32, max: f32) -> Self {
        self.theta_min = min;
        self.theta_max = max;
        self
    }

    /// Replaces the pending-audit quorum per update step.
    pub fn min_audits_per_update(mut self, audits: u64) -> Self {
        self.min_audits_per_update = audits;
        self
    }

    /// Replaces the audit-phase seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The audit sampling this controller expects its evaluators to
    /// run with.
    pub fn audit_config(&self) -> AuditConfig {
        AuditConfig::new(self.audit_period, self.seed)
    }
}

/// One layer's control state: θ, the error EWMA and the audits pending
/// for the next update step.
#[derive(Debug, Clone)]
struct LayerState {
    theta: f32,
    ewma: Option<f64>,
    pending_audits: u64,
    pending_error: f64,
}

impl LayerState {
    fn initial(config: &ControllerConfig) -> LayerState {
        LayerState {
            theta: config
                .initial_theta
                .clamp(config.theta_min, config.theta_max),
            ewma: None,
            pending_audits: 0,
            pending_error: 0.0,
        }
    }
}

#[derive(Debug)]
struct ControlState {
    layers: Vec<LayerState>,
    // Everything observed so far, per layer.
    audit: AuditStats,
    updates: u64,
}

/// Snapshot of a threshold controller's state, exposed through
/// [`Predictor::control_snapshot`] so the serving engine can report it.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlSnapshot {
    /// The accuracy SLO: target mean absolute error per audited hit.
    pub slo: f64,
    /// Current θ per layer, indexed by `GateId::layer`.
    pub thresholds: Vec<f32>,
    /// EWMA of each layer's mean audited error, `None` before the
    /// layer's first update.
    pub ewma_errors: Vec<Option<f64>>,
    /// Cumulative hit and audit counters the controller observed (the
    /// EWMA only tracks the recent past).
    pub audit: AuditStats,
}

/// The shared online threshold controller: one per
/// [`AdaptivePredictor`], `Arc`-shared by every worker's evaluator.
///
/// Evaluators feed it drained [`AuditStats`] via
/// [`observe`](ThresholdController::observe) and poll
/// [`epoch`](ThresholdController::epoch) — a lock-free generation
/// counter bumped whenever any θ moves — to decide whether to re-read
/// the per-layer thresholds at their next block boundary.
#[derive(Debug)]
pub struct ThresholdController {
    config: ControllerConfig,
    epoch: AtomicU64,
    inner: Mutex<ControlState>,
}

impl ThresholdController {
    /// A controller for a network with `layers` recurrent layers.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical gains or clamps.
    pub fn new(layers: usize, config: ControllerConfig) -> Self {
        assert!(config.slo >= 0.0, "SLO must be non-negative");
        assert!(
            config.alpha > 0.0 && config.alpha <= 1.0,
            "alpha must be in (0, 1]"
        );
        assert!(config.grow >= 1.0, "grow must be at least 1");
        assert!(
            config.shrink > 0.0 && config.shrink <= 1.0,
            "shrink must be in (0, 1]"
        );
        assert!(
            config.theta_min <= config.theta_max,
            "theta_min must not exceed theta_max"
        );
        assert!(config.min_audits_per_update >= 1, "quorum must be >= 1");
        let controller = ThresholdController {
            config,
            epoch: AtomicU64::new(0),
            inner: Mutex::new(ControlState {
                layers: Vec::new(),
                audit: AuditStats::new(),
                updates: 0,
            }),
        };
        controller.track_layers(layers.max(1));
        controller
    }

    /// Grows the per-layer state and counters to cover `layers` layers
    /// (never shrinks), so observing them allocates nothing; new layers
    /// start at the configured initial θ.
    pub fn track_layers(&self, layers: usize) {
        let mut inner = self.inner.lock().expect("controller poisoned");
        if layers > inner.layers.len() {
            inner
                .layers
                .resize(layers, LayerState::initial(&self.config));
            inner.audit.ensure_layer(layers - 1);
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> ControllerConfig {
        self.config
    }

    /// Generation counter: bumped whenever any layer's θ changes.
    /// Evaluators compare it against their cached value to skip the
    /// lock on the fast path.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Total update steps taken (across layers an update that moves at
    /// least one θ counts once).
    pub fn updates(&self) -> u64 {
        self.inner.lock().expect("controller poisoned").updates
    }

    /// Feeds drained audit telemetry into the controller and applies
    /// any due θ updates.
    pub fn observe(&self, stats: &AuditStats) {
        self.track_layers(stats.layers().len());
        let mut inner = self.inner.lock().expect("controller poisoned");
        inner.audit.merge(stats);
        let mut changed = false;
        for (state, layer) in inner.layers.iter_mut().zip(stats.layers()) {
            state.pending_audits += layer.audited;
            state.pending_error += layer.error_sum;
            if state.pending_audits < self.config.min_audits_per_update {
                continue;
            }
            let mean = state.pending_error / state.pending_audits as f64;
            state.pending_audits = 0;
            state.pending_error = 0.0;
            let ewma = match state.ewma {
                Some(prev) => self.config.alpha * mean + (1.0 - self.config.alpha) * prev,
                None => mean,
            };
            state.ewma = Some(ewma);
            let next = if ewma > self.config.slo {
                state.theta * self.config.shrink
            } else {
                state.theta * self.config.grow
            }
            .clamp(self.config.theta_min, self.config.theta_max);
            if next.to_bits() != state.theta.to_bits() {
                state.theta = next;
                changed = true;
            }
        }
        if changed {
            inner.updates += 1;
            drop(inner);
            self.epoch.fetch_add(1, Ordering::Release);
        }
    }

    /// Writes the current per-layer thresholds into `out` (cleared
    /// first) — the allocation-free form evaluators use at block
    /// boundaries.
    pub fn write_thetas_into(&self, out: &mut Vec<f32>) {
        let inner = self.inner.lock().expect("controller poisoned");
        out.clear();
        out.extend(inner.layers.iter().map(|l| l.theta));
    }

    /// Observability snapshot: SLO, per-layer θ and EWMA, and the
    /// cumulative audit counters.
    pub fn snapshot(&self) -> ControlSnapshot {
        let inner = self.inner.lock().expect("controller poisoned");
        ControlSnapshot {
            slo: self.config.slo,
            thresholds: inner.layers.iter().map(|l| l.theta).collect(),
            ewma_errors: inner.layers.iter().map(|l| l.ewma).collect(),
            audit: inner.audit.clone(),
        }
    }
}

/// The evaluator's side of the control loop
/// ([`BnnMemoEvaluator::adaptive`]): the shared controller, the epoch
/// the evaluator last read θ at, the block of its last gate call and
/// its θ per layer.
#[derive(Debug, Clone)]
pub(crate) struct ControlLoop {
    controller: Arc<ThresholdController>,
    epoch: u64,
    // `(layer, direction, timestep / HOIST_BLOCK)` of the last
    // whole-gate call; a sync runs before a call that differs in it.
    block: (usize, usize, usize),
    pub(crate) thetas: Vec<f32>,
}

impl ControlLoop {
    pub(crate) fn new(controller: Arc<ThresholdController>) -> Self {
        let mut thetas = Vec::new();
        controller.write_thetas_into(&mut thetas);
        ControlLoop {
            epoch: controller.epoch(),
            controller,
            block: (0, 0, 0),
            thetas,
        }
    }

    /// Syncs before `call` if it enters another cell or another
    /// [`HOIST_BLOCK`]-aligned block of timesteps.  A layer's θ over a
    /// block of its timesteps is thus a function of that layer's audits
    /// in its earlier blocks, not of how the driver interleaves the
    /// layers.
    pub(crate) fn enter(&mut self, call: &GateBatch<'_>, pending: &mut AuditStats) {
        let id = call.gate_id;
        let block = (id.layer, id.direction, call.timestep / HOIST_BLOCK);
        if block != self.block {
            self.block = block;
            self.sync(pending);
        }
    }

    /// A sync: drains the `pending` audit counters into the controller,
    /// zeroing them in place, and re-reads θ if its epoch moved.
    pub(crate) fn sync(&mut self, pending: &mut AuditStats) {
        if !pending.is_empty() {
            self.controller.observe(pending);
            pending.clear();
        }
        let epoch = self.controller.epoch();
        if epoch != self.epoch {
            self.epoch = epoch;
            self.controller.write_thetas_into(&mut self.thetas);
        }
    }
}

/// An online-adaptive memoization policy as a [`Predictor`].
///
/// Holds one shared [`ThresholdController`] and nothing of the model:
/// every worker's evaluator ([`BnnMemoEvaluator::adaptive`]) reads the
/// binary mirror of the [`Model`] it serves, drains audit telemetry into
/// the controller and re-reads per-layer θ at block boundaries.  It
/// registers like any static policy; pass a clone of the `Arc` you keep
/// to read the controller.
///
/// Per-request θ overrides are rejected
/// ([`Predictor::accepts_threshold_override`] stays `false`): the
/// controller owns θ — pinning it per request would undo the control
/// loop.  Use [`PredictorKind::Bnn`](crate::PredictorKind::Bnn) for
/// explicit thresholds.
#[derive(Debug, Clone)]
pub struct AdaptivePredictor {
    controller: Arc<ThresholdController>,
}

impl AdaptivePredictor {
    /// An adaptive policy with default memoization settings (throttling
    /// on, default ε) and the given controller configuration.
    pub fn new(config: ControllerConfig) -> Self {
        AdaptivePredictor {
            // Sized by the first model an evaluator is built over.
            controller: Arc::new(ThresholdController::new(0, config)),
        }
    }

    /// The shared controller (live state; snapshots via
    /// [`ThresholdController::snapshot`]).
    pub fn controller(&self) -> &Arc<ThresholdController> {
        &self.controller
    }

    /// Builds the concrete evaluator over `model`'s mirror (the trait
    /// object path goes through [`Predictor::build_evaluator`]).
    pub fn evaluator(&self, model: &Model) -> BnnMemoEvaluator {
        self.prepare(model);
        BnnMemoEvaluator::adaptive(Arc::clone(model.mirror()), Arc::clone(&self.controller))
    }
}

impl Predictor for AdaptivePredictor {
    fn name(&self) -> &str {
        "adaptive"
    }

    fn build_evaluator(&self, model: &Model) -> Box<dyn ServedEvaluator> {
        Box::new(self.evaluator(model))
    }

    /// Builds the mirror and sizes the controller to the model's layers.
    fn prepare(&self, model: &Model) {
        let layers = model.mirror().iter().map(|(id, _)| id.layer + 1).max();
        self.controller.track_layers(layers.unwrap_or(1));
    }

    fn control_snapshot(&self) -> Option<ControlSnapshot> {
        Some(self.controller.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BnnMemoConfig;
    use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig, ExactEvaluator, NeuronEvaluator};
    use nfm_tensor::kernels::matmul_into;
    use nfm_tensor::rng::DeterministicRng;
    use nfm_tensor::Vector;

    fn audits(layer: usize, audited: u64, error_each: f64) -> AuditStats {
        let mut stats = AuditStats::new();
        for _ in 0..audited {
            stats.record_hit(layer);
            stats.record_audit(layer, error_each);
        }
        stats
    }

    fn thresholds(ctrl: &ThresholdController) -> Vec<f32> {
        ctrl.snapshot().thresholds
    }

    #[test]
    fn shrinks_on_violation_grows_on_headroom() {
        let ctrl = ThresholdController::new(2, ControllerConfig::new(0.1).min_audits_per_update(2));
        let theta0 = thresholds(&ctrl)[0];
        ctrl.observe(&audits(0, 4, 1.0)); // far above SLO
        let after_violation = thresholds(&ctrl)[0];
        assert!(after_violation < theta0);
        assert_eq!(ctrl.epoch(), 1);
        ctrl.observe(&audits(1, 4, 0.0)); // within SLO
        assert!(thresholds(&ctrl)[1] > theta0);
        assert_eq!(ctrl.epoch(), 2);
    }

    #[test]
    fn quorum_defers_updates() {
        let ctrl = ThresholdController::new(1, ControllerConfig::new(0.1).min_audits_per_update(8));
        ctrl.observe(&audits(0, 3, 1.0));
        assert_eq!(ctrl.epoch(), 0, "below quorum: no update");
        ctrl.observe(&audits(0, 5, 1.0));
        assert_eq!(ctrl.epoch(), 1, "quorum reached across observations");
    }

    #[test]
    fn frozen_never_moves() {
        let ctrl = ThresholdController::new(1, ControllerConfig::frozen_at(0.1, 0.75));
        assert_eq!(thresholds(&ctrl), vec![0.75]);
        ctrl.observe(&audits(0, 100, 5.0));
        assert_eq!(thresholds(&ctrl), vec![0.75]);
        assert_eq!(ctrl.epoch(), 0);
        let snap = ctrl.snapshot();
        assert_eq!(snap.audit.audited(), 100, "telemetry still flows");
    }

    #[test]
    fn theta_stays_clamped() {
        let config = ControllerConfig::new(0.1)
            .theta_range(0.25, 1.0)
            .initial_theta(0.5)
            .min_audits_per_update(1);
        let ctrl = ThresholdController::new(1, config);
        for _ in 0..64 {
            ctrl.observe(&audits(0, 1, 10.0));
        }
        assert_eq!(thresholds(&ctrl), vec![0.25]);
        for _ in 0..256 {
            ctrl.observe(&audits(0, 1, 0.0));
        }
        assert_eq!(thresholds(&ctrl), vec![1.0]);
    }

    #[test]
    fn snapshot_reports_ewma_and_counters() {
        let ctrl = ThresholdController::new(1, ControllerConfig::new(0.5).min_audits_per_update(2));
        ctrl.observe(&audits(0, 2, 0.25));
        let snap = ctrl.snapshot();
        assert_eq!(snap.slo, 0.5);
        assert_eq!(snap.ewma_errors, vec![Some(0.25)]);
        assert_eq!(snap.audit.hits(), 2);
        assert_eq!(snap.audit.audited(), 2);
        assert_eq!(snap.audit.mean_error(), Some(0.25));
    }

    #[test]
    fn observing_more_layers_grows_state() {
        let ctrl = ThresholdController::new(1, ControllerConfig::new(0.1));
        ctrl.observe(&audits(3, 1, 0.0));
        assert_eq!(thresholds(&ctrl).len(), 4);
    }

    fn network(seed: u64) -> Model {
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 8, 12);
        let mut rng = DeterministicRng::seed_from_u64(seed);
        Model::from(DeepRnn::random(&cfg, &mut rng).unwrap())
    }

    fn smooth_sequence(len: usize, width: usize, seed: u64) -> Vec<Vector> {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let mut x = Vector::from_fn(width, |_| rng.uniform(-0.5, 0.5));
        (0..len)
            .map(|_| {
                x = x
                    .add(&Vector::from_fn(width, |_| rng.uniform(-0.05, 0.05)))
                    .unwrap();
                x.clone()
            })
            .collect()
    }

    #[test]
    fn frozen_controller_is_bit_identical_to_static() {
        let model = network(1);
        let net = model.network();
        let seqs: Vec<_> = (0..4).map(|i| smooth_sequence(40, 8, 10 + i)).collect();
        let theta = 1.0;
        let predictor = AdaptivePredictor::new(ControllerConfig::frozen_at(0.05, theta));
        let mut adaptive = predictor.evaluator(&model);
        let mut fixed = BnnMemoEvaluator::new(
            Arc::clone(model.mirror()),
            BnnMemoConfig::with_threshold(theta),
        );
        for seq in &seqs {
            let a = net.run(seq, &mut adaptive).unwrap();
            let b = net.run(seq, &mut fixed).unwrap();
            assert_eq!(a, b);
        }
        let a = adaptive.stats();
        let b = fixed.stats();
        assert_eq!(a.evaluations(), b.evaluations());
        assert_eq!(a.reuses(), b.reuses());
        assert_eq!(a.bnn_evaluations(), b.bnn_evaluations());
        assert!(a.audited() > 0, "frozen mode still audits");
        assert_eq!(b.audited(), 0);
    }

    #[test]
    fn adaptation_is_deterministic() {
        let model = network(3);
        let net = model.network();
        let seqs: Vec<_> = (0..6).map(|i| smooth_sequence(50, 8, 20 + i)).collect();
        let run = || {
            let predictor =
                AdaptivePredictor::new(ControllerConfig::new(0.02).min_audits_per_update(2));
            let mut evaluator = predictor.evaluator(&model);
            let outputs: Vec<_> = seqs
                .iter()
                .map(|s| net.run(s, &mut evaluator).unwrap())
                .collect();
            evaluator.flush();
            (outputs, predictor.controller().snapshot())
        };
        let (out_a, snap_a) = run();
        let (out_b, snap_b) = run();
        assert_eq!(out_a, out_b, "bit-identical outputs across runs");
        assert_eq!(snap_a, snap_b, "identical controller trajectories");
    }

    #[test]
    fn the_trajectory_does_not_depend_on_how_a_driver_interleaves_layers() {
        // A two-layer stack visited layer-major over a whole sequence and
        // block-major, `HOIST_BLOCK` timesteps of every layer at a time.
        // Each gate sees the same inputs in the same timestep order, so
        // every output, the audit sample and the controller's trajectory
        // must agree.
        const STEPS: usize = 44;
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 8, 12).layers(2);
        let mut rng = DeterministicRng::seed_from_u64(13);
        let model = Model::from(DeepRnn::random(&cfg, &mut rng).unwrap());
        let input = |width: usize, layer: usize, t: usize| -> Vec<f32> {
            (0..width)
                .map(|i| ((i + 3 * layer) as f32 * 0.7).sin() * 0.5 + 0.004 * (t * (i % 5)) as f32)
                .collect()
        };
        let visit = |order: Vec<(usize, usize)>| {
            let predictor = AdaptivePredictor::new(
                ControllerConfig::new(0.02)
                    .audit_period(5)
                    .min_audits_per_update(2),
            );
            let mut evaluator = predictor.evaluator(&model);
            evaluator.begin_batch(1);
            evaluator.begin_lane_sequence(0);
            let mut outputs = std::collections::BTreeMap::new();
            for (layer, t) in order {
                for (id, gate) in model.network().gates() {
                    if id.layer != layer {
                        continue;
                    }
                    let xs = input(gate.input_size(), layer, t);
                    let h_prevs = input(gate.hidden_size(), layer + 1, t);
                    let mut fwd = vec![0.0; gate.neurons()];
                    matmul_into(gate.wx(), &xs, 1, &mut fwd).unwrap();
                    let call = GateBatch {
                        gate_id: id,
                        timestep: t,
                        lanes: 1,
                        gate,
                        xs: &xs,
                        h_prevs: &h_prevs,
                        fwd: &fwd,
                    };
                    let mut out = vec![0.0; gate.neurons()];
                    evaluator.evaluate_gate_batch(&call, &mut out).unwrap();
                    let bits: Vec<u32> = out.iter().map(|y| y.to_bits()).collect();
                    outputs.insert((id.dense_index(), t), bits);
                }
            }
            evaluator.flush();
            let stats = *evaluator.stats();
            (outputs, stats, predictor.controller().snapshot())
        };
        let layer_major = (0..2).flat_map(|l| (0..STEPS).map(move |t| (l, t)));
        let block_major = (0..STEPS).step_by(HOIST_BLOCK).flat_map(|start| {
            (0..2).flat_map(move |l| (start..STEPS.min(start + HOIST_BLOCK)).map(move |t| (l, t)))
        });
        let (a, b) = (visit(layer_major.collect()), visit(block_major.collect()));
        assert!(a.1.audited() > 0 && a.1.reuses() > 0, "{:?}", a.1);
        let thetas = &a.2.thresholds;
        assert!(thetas.iter().all(|&t| t != 0.5), "θ moved: {thetas:?}");
        assert_eq!(a, b);
    }

    #[test]
    fn tight_slo_shrinks_theta_and_loose_slo_grows_it() {
        let model = network(5);
        let net = model.network();
        let seqs: Vec<_> = (0..8).map(|i| smooth_sequence(60, 8, 30 + i)).collect();
        let drive = |slo: f64| {
            let predictor = AdaptivePredictor::new(
                ControllerConfig::new(slo)
                    .initial_theta(1.0)
                    .audit_period(4)
                    .min_audits_per_update(2),
            );
            let mut evaluator = predictor.evaluator(&model);
            for seq in &seqs {
                let _ = net.run(seq, &mut evaluator).unwrap();
            }
            evaluator.flush();
            thresholds(predictor.controller())[0]
        };
        let tight = drive(0.0);
        let loose = drive(1e3);
        assert!(tight < 1.0, "SLO 0 must shrink θ, got {tight}");
        assert!(loose > 1.0, "huge SLO must grow θ, got {loose}");
    }

    #[test]
    fn predictor_reports_control_snapshot_and_rejects_overrides() {
        let predictor = AdaptivePredictor::new(ControllerConfig::new(0.1));
        assert_eq!(predictor.name(), "adaptive");
        assert!(!predictor.accepts_threshold_override());
        // The controller tracks the layers of whatever model it serves.
        let _ = predictor.build_evaluator(&network(7));
        let snap = predictor.control_snapshot().expect("adaptive has control");
        assert_eq!(snap.slo, 0.1);
        assert_eq!(snap.thresholds.len(), 1);
    }

    #[test]
    fn exact_outputs_unaffected_by_wrapper_plumbing() {
        // A controller pinned at θ < 0 never reuses, so the adaptive
        // evaluator degenerates to exact inference.
        let model = network(11);
        let net = model.network();
        let seq = smooth_sequence(20, 8, 50);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let predictor = AdaptivePredictor::new(ControllerConfig::frozen_at(0.0, -1.0));
        let mut evaluator = predictor.evaluator(&model);
        let out = net.run(&seq, &mut evaluator).unwrap();
        assert_eq!(exact, out, "θ<0 degenerates to exact inference");
    }
}
