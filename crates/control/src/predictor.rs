//! The adaptive predictor and its evaluator wrapper.

use crate::controller::{ControllerConfig, ThresholdController};
use nfm_bnn::BinaryNetwork;
use nfm_core::{
    BnnMemoConfig, BnnMemoEvaluator, ControlSnapshot, Model, Predictor, ReuseStats, ServedEvaluator,
};
use nfm_rnn::{GateBatch, NeuronEvaluator, Result as RnnResult, HOIST_BLOCK};
use std::sync::Arc;

/// An online-adaptive memoization policy as a [`Predictor`].
///
/// Holds one shared [`ThresholdController`] and nothing of the model:
/// every worker's evaluator reads the binary mirror of the [`Model`] it
/// serves, drains audit telemetry into the controller and re-reads
/// per-layer θ at block boundaries.  It registers like any static
/// policy; pass a clone of the `Arc` you keep to read the controller.
///
/// Per-request θ overrides are rejected
/// ([`Predictor::accepts_threshold_override`] stays `false`): the
/// controller owns θ — pinning it per request would undo the control
/// loop.  Use [`PredictorKind::Bnn`](nfm_core::PredictorKind::Bnn) for
/// explicit thresholds.
#[derive(Debug, Clone)]
pub struct AdaptivePredictor {
    controller: Arc<ThresholdController>,
}

/// Number of recurrent layers addressed by the mirror's gates.
fn mirror_layers(mirror: &BinaryNetwork) -> usize {
    mirror
        .iter()
        .map(|(id, _)| id.layer)
        .max()
        .map_or(1, |m| m + 1)
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

    /// Builds the concrete evaluator type over `model`'s mirror (the
    /// trait object path goes through [`Predictor::build_evaluator`]).
    pub fn evaluator(&self, model: &Model) -> AdaptiveEvaluator {
        self.prepare(model);
        let base = BnnMemoConfig::with_threshold(self.controller.config().initial_theta);
        let mirror = Arc::clone(model.mirror());
        AdaptiveEvaluator::new(mirror, base, Arc::clone(&self.controller))
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
        self.controller.track_layers(mirror_layers(model.mirror()));
    }

    fn control_snapshot(&self) -> Option<ControlSnapshot> {
        Some(self.controller.snapshot())
    }
}

/// A [`BnnMemoEvaluator`] wrapped with the adaptive control loop.
///
/// Delegates every evaluation bit-identically to the inner evaluator
/// (which runs with audit sampling and the controller's per-layer θ
/// installed) and, whenever the driver moves on to another cell or into
/// another [`HOIST_BLOCK`]-aligned block of timesteps, performs a
/// *sync*: drain the accumulated audit counters into the shared
/// controller, and — only if the controller's epoch moved — re-read the
/// per-layer thresholds. A layer's θ over a block of its timesteps is
/// thus a function of that layer's audits in its earlier blocks, not of
/// how the driver interleaves the layers. The layer θ never changes
/// inside a gate invocation and is shared by every lane of the call; a
/// lane override, which this predictor refuses, would take precedence.
#[derive(Debug)]
pub struct AdaptiveEvaluator {
    inner: BnnMemoEvaluator,
    controller: Arc<ThresholdController>,
    seen_epoch: u64,
    // `(layer, direction, timestep / HOIST_BLOCK)` of the last
    // whole-gate call; a sync runs before a call that differs in it.
    block: (usize, usize, usize),
    thetas: Vec<f32>,
}

impl AdaptiveEvaluator {
    /// Wraps a fresh audit-enabled evaluator around `mirror` and the
    /// shared `controller`.
    pub fn new(
        mirror: Arc<BinaryNetwork>,
        base: BnnMemoConfig,
        controller: Arc<ThresholdController>,
    ) -> Self {
        let mut inner =
            BnnMemoEvaluator::new(mirror, base).with_audit(controller.config().audit_config());
        let mut thetas = Vec::new();
        controller.write_thetas_into(&mut thetas);
        inner.set_layer_thresholds(&thetas);
        let seen_epoch = controller.epoch();
        AdaptiveEvaluator {
            inner,
            controller,
            seen_epoch,
            block: (0, 0, 0),
            thetas,
        }
    }

    /// The shared controller.
    pub fn controller(&self) -> &Arc<ThresholdController> {
        &self.controller
    }

    /// The wrapped evaluator (statistics, audit counters, tables).
    pub fn inner(&self) -> &BnnMemoEvaluator {
        &self.inner
    }

    /// A sync: drains pending audit telemetry into the controller and
    /// re-reads θ. Drivers call this after a run so the tail of the last
    /// block is observed too.
    pub fn flush(&mut self) {
        let audit = self.inner.take_audit_stats();
        if !audit.is_empty() {
            self.controller.observe(&audit);
        }
        let epoch = self.controller.epoch();
        if epoch != self.seen_epoch {
            self.seen_epoch = epoch;
            self.controller.write_thetas_into(&mut self.thetas);
            self.inner.set_layer_thresholds(&self.thetas);
        }
    }
}

impl NeuronEvaluator for AdaptiveEvaluator {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        let id = call.gate_id;
        let block = (id.layer, id.direction, call.timestep / HOIST_BLOCK);
        if block != self.block {
            self.block = block;
            self.flush();
        }
        self.inner.evaluate_gate_batch(call, out)
    }

    fn begin_batch(&mut self, lanes: usize) {
        self.inner.begin_batch(lanes);
        self.flush();
    }

    fn begin_lane_sequence(&mut self, lane: usize) {
        // A lane admission is a block boundary for that lane: drain
        // telemetry and pick up the freshest θ before the new request.
        self.flush();
        self.inner.begin_lane_sequence(lane);
    }

    fn swap_lane_state(&mut self, a: usize, b: usize) {
        self.inner.swap_lane_state(a, b);
    }
}

// Everything per-lane (statistics, audit phase) is the inner
// evaluator's; `set_lane_threshold` keeps its ignoring default.
impl ServedEvaluator for AdaptiveEvaluator {
    fn take_lane_stats(&mut self, lane: usize) -> Option<ReuseStats> {
        self.inner.take_lane_stats(lane)
    }

    fn stats_snapshot(&self) -> Option<ReuseStats> {
        self.inner.stats_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig, ExactEvaluator};
    use nfm_tensor::kernels::matmul_into;
    use nfm_tensor::rng::DeterministicRng;
    use nfm_tensor::Vector;

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
        let a = adaptive.inner().stats();
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
            let stats = *evaluator.inner().stats();
            (outputs, stats, predictor.controller().snapshot())
        };
        let layer_major = (0..2).flat_map(|l| (0..STEPS).map(move |t| (l, t)));
        let block_major = (0..STEPS).step_by(HOIST_BLOCK).flat_map(|start| {
            (0..2).flat_map(move |l| (start..STEPS.min(start + HOIST_BLOCK)).map(move |t| (l, t)))
        });
        let (a, b) = (visit(layer_major.collect()), visit(block_major.collect()));
        assert!(a.1.audited() > 0 && a.1.reuses() > 0, "{:?}", a.1);
        let thetas = a.2.thresholds();
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
            predictor.controller().thetas()[0]
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
        assert_eq!(snap.layers.len(), 1);
    }

    #[test]
    fn exact_outputs_unaffected_by_wrapper_plumbing() {
        // The adaptive θ floor can be pushed so low the evaluator
        // degenerates to (nearly) exact inference; outputs must stay
        // finite and bounded like the plain evaluator's.
        let model = network(11);
        let net = model.network();
        let seq = smooth_sequence(20, 8, 50);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let predictor =
            AdaptivePredictor::new(ControllerConfig::frozen_at(0.0, -1.0).theta_range(-1.0, 1.0));
        let mut evaluator = predictor.evaluator(&model);
        let out = net.run(&seq, &mut evaluator).unwrap();
        assert_eq!(exact, out, "θ<0 degenerates to exact inference");
    }
}
