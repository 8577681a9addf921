//! The per-layer EWMA/SLO threshold controller.

use nfm_core::{AuditConfig, AuditStats, ControlSnapshot, LayerControl};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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
    /// When `true` the controller never moves θ: evaluators behave
    /// bit-identically to a static predictor at `initial_theta` while
    /// still collecting audit telemetry.
    pub frozen: bool,
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
            frozen: false,
        }
    }

    /// A frozen controller pinned at `theta` (audit telemetry still
    /// flows; θ never moves).
    pub fn frozen_at(slo: f64, theta: f32) -> Self {
        let mut config = ControllerConfig::new(slo);
        config.initial_theta = theta;
        config.frozen = true;
        config
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

/// One layer's controller state.
#[derive(Debug, Clone)]
struct LayerState {
    theta: f32,
    ewma: Option<f64>,
    hits: u64,
    audited: u64,
    /// Cumulative audited error (all time; the pending pool below is
    /// drained every update step).
    error_sum: f64,
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
            hits: 0,
            audited: 0,
            error_sum: 0.0,
            pending_audits: 0,
            pending_error: 0.0,
        }
    }
}

#[derive(Debug)]
struct ControlState {
    layers: Vec<LayerState>,
    updates: u64,
}

/// The shared online threshold controller: one per
/// [`AdaptivePredictor`](crate::AdaptivePredictor), `Arc`-shared by
/// every worker's evaluator.
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
        ThresholdController {
            config,
            epoch: AtomicU64::new(0),
            inner: Mutex::new(ControlState {
                layers: vec![LayerState::initial(&config); layers.max(1)],
                updates: 0,
            }),
        }
    }

    /// Grows the per-layer state to cover `layers` layers (never
    /// shrinks); new layers start at the configured initial θ.
    pub fn track_layers(&self, layers: usize) {
        let mut inner = self.inner.lock().expect("controller poisoned");
        if layers > inner.layers.len() {
            inner
                .layers
                .resize(layers, LayerState::initial(&self.config));
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
        let mut changed = false;
        for (state, layer) in inner.layers.iter_mut().zip(stats.layers()) {
            state.hits += layer.hits;
            state.audited += layer.audited;
            state.error_sum += layer.error_sum;
            state.pending_audits += layer.audited;
            state.pending_error += layer.error_sum;
            if self.config.frozen || state.pending_audits < self.config.min_audits_per_update {
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

    /// The current per-layer thresholds.
    pub fn thetas(&self) -> Vec<f32> {
        let inner = self.inner.lock().expect("controller poisoned");
        inner.layers.iter().map(|l| l.theta).collect()
    }

    /// Writes the current per-layer thresholds into `out` (cleared
    /// first) — the allocation-free form evaluators use at block
    /// boundaries.
    pub fn write_thetas_into(&self, out: &mut Vec<f32>) {
        let inner = self.inner.lock().expect("controller poisoned");
        out.clear();
        out.extend(inner.layers.iter().map(|l| l.theta));
    }

    /// Observability snapshot: SLO plus per-layer θ, EWMA and
    /// cumulative hit/audit counters.
    pub fn snapshot(&self) -> ControlSnapshot {
        let inner = self.inner.lock().expect("controller poisoned");
        ControlSnapshot {
            slo: self.config.slo,
            layers: inner
                .layers
                .iter()
                .map(|l| LayerControl {
                    threshold: l.theta,
                    ewma_error: l.ewma,
                    hits: l.hits,
                    audited: l.audited,
                    error_sum: l.error_sum,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audits(layer: usize, audited: u64, error_each: f64) -> AuditStats {
        let mut stats = AuditStats::new();
        for _ in 0..audited {
            stats.record_hit(layer);
            stats.record_audit(layer, error_each);
        }
        stats
    }

    #[test]
    fn shrinks_on_violation_grows_on_headroom() {
        let ctrl = ThresholdController::new(2, ControllerConfig::new(0.1).min_audits_per_update(2));
        let theta0 = ctrl.thetas()[0];
        ctrl.observe(&audits(0, 4, 1.0)); // far above SLO
        let after_violation = ctrl.thetas()[0];
        assert!(after_violation < theta0);
        assert_eq!(ctrl.epoch(), 1);
        ctrl.observe(&audits(1, 4, 0.0)); // within SLO
        assert!(ctrl.thetas()[1] > theta0);
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
        assert_eq!(ctrl.thetas(), vec![0.75]);
        ctrl.observe(&audits(0, 100, 5.0));
        assert_eq!(ctrl.thetas(), vec![0.75]);
        assert_eq!(ctrl.epoch(), 0);
        let snap = ctrl.snapshot();
        assert_eq!(snap.layers[0].audited, 100, "telemetry still flows");
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
        assert_eq!(ctrl.thetas(), vec![0.25]);
        for _ in 0..256 {
            ctrl.observe(&audits(0, 1, 0.0));
        }
        assert_eq!(ctrl.thetas(), vec![1.0]);
    }

    #[test]
    fn snapshot_reports_ewma_and_counters() {
        let ctrl = ThresholdController::new(1, ControllerConfig::new(0.5).min_audits_per_update(2));
        ctrl.observe(&audits(0, 2, 0.25));
        let snap = ctrl.snapshot();
        assert_eq!(snap.slo, 0.5);
        assert_eq!(snap.layers[0].ewma_error, Some(0.25));
        assert_eq!(snap.layers[0].hits, 2);
        assert_eq!(snap.layers[0].audited, 2);
        assert_eq!(snap.max_ewma_error(), Some(0.25));
    }

    #[test]
    fn observing_more_layers_grows_state() {
        let ctrl = ThresholdController::new(1, ControllerConfig::new(0.1));
        ctrl.observe(&audits(3, 1, 0.0));
        assert_eq!(ctrl.thetas().len(), 4);
    }
}
