//! The memoizing evaluator (Figures 6, 10 and 12) and its one memo
//! decision (`decide_lane`).
//!
//! The decision walks a gate's [`MemoTable`] columns, the paper's three
//! quantities per neuron (`y_m`, `yb_m`, `δb`; 12 bytes).  A slot is
//! live iff its `δb` is not NaN: a cleared or new slot holds NaN, a miss
//! writes 0, and a hit stores `δb' <= θ`, which is never NaN.

use crate::audit::{AuditConfig, AuditStats};
use crate::config::{BnnMemoConfig, OracleMemoConfig};
use crate::lanes::{MemoLaneState, MemoLanes};
use crate::stats::ReuseStats;
use crate::table::{GateColumns, MemoTable};
use nfm_bnn::{BinaryGate, BinaryNetwork};
use nfm_rnn::{ExactEvaluator, Gate, GateBatch, GateId, NeuronEvaluator, Result as RnnResult};
use nfm_tensor::{vector::relative_difference, LineBuf};
use std::sync::Arc;

/// A [`NeuronEvaluator`] implementing the paper's realisable memoization
/// scheme:
///
/// 1. the binarized mirror of the neuron is evaluated for every timestep
///    (`yb_t`, Equation 8);
/// 2. the relative difference `εb_t = |yb_t - yb_m| / |yb_t|` against the
///    cached BNN output is computed (Equation 12);
/// 3. the differences are accumulated over consecutive reuses
///    (`δb_t = Σ εb_i`, Equation 13 — the throttling mechanism);
/// 4. if `δb_t <= θ` the cached full-precision output `y_m` is returned
///    and the expensive dot products are skipped; otherwise the neuron is
///    evaluated exactly and the memoization entry is refreshed
///    (Equations 14–17).
///
/// The oracle of Figure 6 is the same evaluator without a mirror
/// ([`oracle`](Self::oracle)): the exact output stands in for `yb_t`.
///
/// The decision is written once, in the gate entry
/// [`NeuronEvaluator::evaluate_gate_batch`] every driver runs, and is
/// checked against the independent memoized reference
/// (`nfm_eval::reference::MemoReference`, `tests/memo_reference.rs`):
/// every decision, memo entry and counter after every gate call.  The
/// entry takes the hoisted input projections and is three data-parallel
/// passes over one gate call, all on evaluator-owned buffers (steady
/// state allocates nothing, which `tests/zero_alloc.rs` pins):
/// **predict** — every lane's inputs are sign-packed exactly once into
/// one buffer and the mirror gate's sign block is evaluated against all
/// of them in one dispatched XNOR-popcount call (the oracle skips it);
/// **compute** — the exact path's own kernel (one tiled
/// [`matmul_add_into`](nfm_tensor::kernels::matmul_add_into) over
/// `W_h`, added onto the hoisted `W_x·x_t`) gives every lane's exact
/// outputs; **decide** — per lane, one branch-free loop over the gate's
/// contiguous [`MemoTable`] columns compares, throttles, flags the
/// misses, updates the table and selects each output: `y_m` on a hit,
/// the exact value (which also refreshes `y_m`) on a miss.  So the
/// software gate computes every dot product (at several lanes a weight
/// row could be skipped only when every lane hits, and streaming it
/// whole through the tile is cheaper than compacting the misses); a hit
/// changes which value is emitted and what the statistics count as
/// skipped.  Audit sampling, when installed, is a separate walk over
/// the hit flags.  Every lane owns a **separate** [`MemoTable`] (the
/// paper's buffer holds no state across independent inputs, so lanes
/// must not share entries) and may carry its own `θ` (see
/// [`MemoLanes`]): `begin_batch` sizes the per-lane state and
/// `begin_lane_sequence` resets exactly one lane, so lane `l` of any
/// batch is bit-identical — outputs, reuse statistics and memo-hit
/// sequence — to running its sequence alone at its `θ`.
#[derive(Debug, Clone)]
pub struct BnnMemoEvaluator {
    // Arc-shared: the mirror depends only on the trained weights, so
    // every evaluator of the same model (all engine workers, every
    // threshold variant) consults one prebuilt copy.  `None` is the
    // oracle, which predicts with the exact outputs.
    mirror: Option<Arc<BinaryNetwork>>,
    config: BnnMemoConfig,
    stats: ReuseStats,
    // Whole-gate mirror outputs for every lane, filled by one
    // dispatched XNOR-popcount call per gate invocation.
    yb: LineBuf<i32>,
    // Every lane's sign-packed `[x_t; h_{t-1}]` of the current gate
    // call, `row_words()` words a lane.
    packed: LineBuf<u64>,
    // Per-lane state of the gate entry: table, statistics (so a serving
    // engine can attribute reuse to the request occupying each lane;
    // `stats` still aggregates everything), audit phase and θ override.
    pub(crate) lanes: MemoLanes,
    // Every lane's exact outputs of the current gate call, lane-striped
    // like the gate's outputs: written by the compute pass, selected
    // from by the decide pass and read by the audit walk.
    y: LineBuf<f32>,
    // Miss flags of the current gate invocation, lane-striped like the
    // gate's outputs: written by the decide pass, read by the audit walk.
    miss: Vec<u8>,
    // Per-layer threshold overrides installed by an adaptive
    // controller; empty means the uniform `config.threshold` applies
    // to every layer.
    layer_thresholds: Vec<f32>,
    // Deterministic 1-in-N audit sampling of memo hits (None = off).
    audit: Option<AuditSampler>,
    audit_stats: AuditStats,
}

/// Precomputed audit selection: a gate's hit number `c` of the sequence
/// is audited iff `c % period == offset`.
#[derive(Debug, Clone, Copy)]
struct AuditSampler {
    period: u64,
    offset: u64,
}

impl AuditSampler {
    #[inline]
    fn due(&self, count: u64) -> bool {
        count % self.period == self.offset
    }
}

impl BnnMemoEvaluator {
    /// Creates an evaluator from the binary mirror of the network it will
    /// run and a configuration.  Each lane's memo table is laid out from
    /// the mirror's gate shapes (the paper's dense FMU buffer) when a
    /// run sizes the lanes.
    ///
    /// The mirror is taken as (anything convertible into) an
    /// `Arc<BinaryNetwork>`: build it once per model and share the
    /// `Arc` across evaluators — cloning a prebuilt mirror per worker
    /// would scale memory with `workers × mirror size` for no benefit.
    pub fn new(mirror: impl Into<Arc<BinaryNetwork>>, config: BnnMemoConfig) -> Self {
        Self::build(Some(mirror.into()), config)
    }

    /// The oracle predictor of Figure 6: the true output `y_t` is always
    /// known, and the cached `y_m` is reused whenever `|y_t - y_m| /
    /// |y_t| <= θ`.  It is this evaluator without a mirror and without
    /// throttling: `y_t` stands in for `yb_t`, so every slot holds `yb_m
    /// == y_m` and the compare against `yb_m` is Figure 6's compare
    /// against `y_m`.  Each lane's memo table lays gate regions out on
    /// first touch.
    ///
    /// The oracle computes every output (it must, to decide), so it
    /// saves no work in a real system; it bounds the reuse a perfect
    /// predictor could extract (Figures 1 and 16).  A hit returns the
    /// *cached* value, so the accuracy impact of oracle-guided
    /// memoization propagates through the network.
    pub fn oracle(config: OracleMemoConfig) -> Self {
        let OracleMemoConfig { threshold, epsilon } = config;
        Self::build(
            None,
            BnnMemoConfig {
                threshold,
                throttle: false,
                epsilon,
            },
        )
    }

    fn build(mirror: Option<Arc<BinaryNetwork>>, config: BnnMemoConfig) -> Self {
        BnnMemoEvaluator {
            mirror,
            config,
            stats: ReuseStats::new(),
            yb: LineBuf::default(),
            packed: LineBuf::default(),
            lanes: MemoLanes::default(),
            y: LineBuf::default(),
            miss: Vec::new(),
            layer_thresholds: Vec::new(),
            audit: None,
            audit_stats: AuditStats::new(),
        }
    }

    /// Enables deterministic audit sampling: one in `config.period`
    /// memo hits is *also* computed exactly and its absolute output
    /// error recorded into per-layer [`AuditStats`] (plus the
    /// `audited` counter of [`ReuseStats`]).  The emitted outputs are
    /// unchanged — auditing only observes; the audited hit stays a
    /// reuse.
    pub fn with_audit(mut self, config: AuditConfig) -> Self {
        self.audit = Some(AuditSampler {
            period: config.period,
            offset: config.offset(),
        });
        self
    }

    /// Installs per-layer thresholds overriding the uniform
    /// `config.threshold`: a gate on layer `i` (`GateId::layer`) uses
    /// `thresholds[i]`, layers past the end fall back to the uniform
    /// value.  The adaptive controller calls this between whole-gate
    /// invocations only, so the layer θ never changes inside a gate
    /// call; a lane's own override takes precedence over it.
    pub fn set_layer_thresholds(&mut self, thresholds: &[f32]) {
        self.layer_thresholds.clear();
        self.layer_thresholds.extend_from_slice(thresholds);
    }

    /// The per-layer thresholds in effect (empty = uniform).
    pub fn layer_thresholds(&self) -> &[f32] {
        &self.layer_thresholds
    }

    /// Borrows the per-layer audit counters accumulated so far.
    pub fn audit_stats(&self) -> &AuditStats {
        &self.audit_stats
    }

    /// Takes the per-layer audit counters, leaving zeros behind.
    pub fn take_audit_stats(&mut self) -> AuditStats {
        self.audit_stats.take()
    }

    /// The threshold in effect for `layer` on lanes without an override.
    #[inline]
    fn threshold_for(&self, layer: usize) -> f32 {
        self.layer_thresholds
            .get(layer)
            .copied()
            .unwrap_or(self.config.threshold)
    }

    /// The reuse statistics accumulated so far.
    pub fn stats(&self) -> &ReuseStats {
        &self.stats
    }

    /// The configuration in use (the oracle's threshold and clamp,
    /// unthrottled, for [`oracle`](Self::oracle)).
    pub fn config(&self) -> BnnMemoConfig {
        self.config
    }

    /// The per-lane state: tables and the statistics each lane
    /// accumulated since its last `begin_lane_sequence` (empty until a
    /// run sized it via `begin_batch`).  The aggregate
    /// [`stats`](Self::stats) includes everything recorded there.
    pub fn lanes(&self) -> &MemoLanes {
        &self.lanes
    }

    /// Audit sampling of one gate call's hits (`miss == 0`, `out` holding
    /// their cached values): every lane counts its hits on this gate in
    /// neuron order and the due ones read the exact value the compute
    /// pass already left in `y`.  Neuron-outer, lane-inner, so the
    /// per-layer error sums accumulate in a fixed order whatever the
    /// lane count.
    fn audit_hits(&mut self, sampler: AuditSampler, call: &GateBatch<'_>, out: &[f32]) {
        let nsz = call.gate.neurons();
        for n in 0..nsz {
            for l in 0..call.lanes {
                let at = l * nsz + n;
                if self.miss[at] != 0 {
                    continue;
                }
                let lane = &mut self.lanes.0[l];
                if sampler.due(lane.audit.count_hit(call.gate_id)) {
                    self.audit_stats
                        .record_audit(call.gate_id.layer, f64::from((self.y[at] - out[at]).abs()));
                    self.stats.record_audited();
                    lane.stats.record_audited();
                }
            }
        }
    }
}

/// The mirror of `gate`, if `mirror` holds one of exactly its shape.  A
/// mirror built for a different network has none, and the caller
/// evaluates exactly rather than failing inference — or, with a wrong
/// neuron count, reading rows the sign block does not have.
fn usable_mirror<'m>(
    mirror: &'m BinaryNetwork,
    gate_id: GateId,
    gate: &Gate,
) -> Option<&'m BinaryGate> {
    mirror.gate(gate_id).filter(|bg| bg.has_shape_of(gate))
}

/// `if keep { old } else { new }` as mask arithmetic on the bits.  Written
/// as an `if`, "keep what the slot holds" compiles to a conditional
/// store, which the vectoriser turns back into a branch per element.
#[inline(always)]
fn keep_if(keep: bool, old: f32, new: f32) -> f32 {
    let mask = u32::from(keep).wrapping_neg();
    f32::from_bits(new.to_bits() ^ ((new.to_bits() ^ old.to_bits()) & mask))
}

/// A prediction the memo decision compares: the mirror's integer
/// popcount `yb_t`, or (the oracle) the exact output standing in for it.
pub(crate) trait Prediction: Copy {
    /// The output as the `f32` the relative difference is taken in.
    fn value(self) -> f32;
}

impl Prediction for i32 {
    #[inline(always)]
    fn value(self) -> f32 {
        self as f32
    }
}

impl Prediction for f32 {
    #[inline(always)]
    fn value(self) -> f32 {
        self
    }
}

/// The memo decision of one lane over one gate (Equations 12–17), as one
/// branch-free loop over the gate's table columns: `εb =
/// relative_difference(yb_t, yb_m)`, `δb' = δb + εb` (or `εb` without
/// throttling), hit iff the slot is live (`δb` is not NaN) and `δb' <=
/// θ`, so a NaN anywhere compares false and misses.  A hit keeps `δb'`
/// and emits `y_m`; a miss emits the exact `y_t` and is refreshed on the
/// spot (`y_m = y_t`, `yb_m = yb_t`, `δb = 0`).  `miss` receives the
/// complement of the decision; returns the number of hits.  Every memo
/// decision is made here: the BNN predictor's with the mirror's
/// popcounts as `yb`, the oracle's with `yb = y` and no throttling.
///
/// Every column is a parameter of its own, and the function is never
/// inlined, so that the compiler knows the slices are disjoint (inlined
/// into the gate entry it loses that and emits a scalar, branchy loop)
/// and vectorises the loop without overlap checks.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide_lane<P: Prediction>(
    yb: &[P],
    y: &[f32],
    y_m: &mut [f32],
    yb_m: &mut [f32],
    delta: &mut [f32],
    throttle: bool,
    epsilon: f32,
    theta: f32,
    miss: &mut [u8],
    out: &mut [f32],
) -> u32 {
    let mut hits = 0u32;
    let slots = yb_m.iter_mut().zip(delta);
    let values = y.iter().zip(y_m).zip(out);
    for (((yb_m, delta), (&yb_t, miss)), ((&y_t, y_m), out)) in
        slots.zip(yb.iter().zip(miss)).zip(values)
    {
        let yb_t = yb_t.value();
        let eps_t = relative_difference(yb_t, *yb_m, epsilon);
        let delta_t = if throttle { *delta + eps_t } else { eps_t };
        let hit = !delta.is_nan() & (delta_t <= theta);
        *miss = u8::from(!hit);
        *y_m = keep_if(hit, *y_m, y_t);
        *out = *y_m;
        *yb_m = keep_if(hit, *yb_m, yb_t);
        *delta = if hit { delta_t } else { 0.0 };
        hits += u32::from(hit);
    }
    hits
}

impl NeuronEvaluator for BnnMemoEvaluator {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        let GateBatch {
            gate_id,
            lanes,
            gate,
            xs,
            h_prevs,
            ..
        } = *call;
        let nsz = gate.neurons();
        // `None` is the oracle; a mirror without this gate evaluates
        // every lane exactly.
        let mirror_gate = self
            .mirror
            .as_deref()
            .map(|mirror| usable_mirror(mirror, gate_id, gate));
        if let Some(None) = mirror_gate {
            ExactEvaluator::new().evaluate_gate_batch(call, out)?;
            self.stats.record_computed_many(out.len() as u64);
            for lane in self.lanes.0.iter_mut().take(lanes) {
                lane.stats.record_computed_many(nsz as u64);
            }
            return Ok(());
        }
        let binary_gate = mirror_gate.flatten();
        assert!(
            self.lanes.len() >= lanes,
            "evaluate_gate_batch with {lanes} lanes but begin_batch sized {} \
             (the batch driver always calls begin_batch first)",
            self.lanes.len()
        );
        self.miss.resize(lanes * nsz, 0);
        self.y.resize(lanes * nsz);
        // Pass 1 — predict.  Sign-pack every lane's inputs exactly once,
        // into reused storage, then evaluate the mirror gate's whole sign
        // block for *every* lane in one dispatched XNOR-popcount call:
        // eight rows' words are loaded once and reused across lanes
        // (block-outer, lane-inner).  Popcounts are integer-exact, so
        // every lane's outputs equal its one-lane call's.
        if let Some(binary_gate) = binary_gate {
            binary_gate.pack_inputs(xs, h_prevs, lanes, &mut self.packed);
            self.yb.resize(lanes * nsz);
            binary_gate.predict_packed_into(&self.packed, &mut self.yb);
        }

        // Pass 2 — compute.  Every lane's exact outputs through the exact
        // path's own kernel (the hoisted `W_x·x_t` plus one tiled product
        // over `W_h`).
        ExactEvaluator::new().evaluate_gate_batch(call, &mut self.y)?;
        // The layer's θ is hoisted once per gate call (adaptive
        // controllers only swap it between whole-gate invocations); a
        // lane whose request overrode θ compares against its own.
        let layer_theta = self.threshold_for(gate_id.layer);
        let BnnMemoConfig {
            throttle, epsilon, ..
        } = self.config;
        let bnn_evaluations = if binary_gate.is_some() { nsz as u64 } else { 0 };

        // Pass 3 — decide.  Per (lane, neuron) decisions are independent
        // (each lane owns its table, each neuron its slot), so each lane
        // runs one branch-free loop over the gate's contiguous columns
        // that also selects `out = hit ? y_m : y` and refreshes `y_m`
        // with it.  Reuse statistics are added once per lane.
        for l in 0..lanes {
            let at = l * nsz..(l + 1) * nsz;
            let lane = &mut self.lanes.0[l];
            let theta = lane.threshold.unwrap_or(layer_theta);
            let GateColumns {
                cached_output: y_m,
                cached_bnn_output: yb_m,
                accumulated_delta: delta,
            } = lane.table.gate_columns(gate_id, nsz);
            let y = &self.y[at.clone()];
            let (miss, out) = (&mut self.miss[at.clone()], &mut out[at.clone()]);
            let reused = u64::from(match binary_gate {
                Some(_) => {
                    let yb = &self.yb[at];
                    decide_lane(yb, y, y_m, yb_m, delta, throttle, epsilon, theta, miss, out)
                }
                None => decide_lane(y, y, y_m, yb_m, delta, throttle, epsilon, theta, miss, out),
            });
            for stats in [&mut self.stats, &mut lane.stats] {
                stats.record_bnn_evaluations_many(bnn_evaluations);
                stats.record_reused_many(reused);
                stats.record_computed_many(nsz as u64 - reused);
            }
            if self.audit.is_some() {
                self.audit_stats.record_hits(gate_id.layer, reused);
            }
        }
        if let Some(sampler) = self.audit {
            self.audit_hits(sampler, call, out);
        }
        Ok(())
    }

    fn begin_batch(&mut self, lanes: usize) {
        while self.lanes.len() < lanes {
            // The FMU buffer shape, replicated once per lane; the
            // oracle's tables lay regions out on first touch.
            let table = match &self.mirror {
                Some(mirror) => {
                    MemoTable::with_gates(mirror.iter().map(|(id, g)| (*id, g.neurons())))
                }
                None => MemoTable::new(),
            };
            self.lanes.0.push(MemoLaneState {
                table,
                ..MemoLaneState::default()
            });
        }
    }

    fn begin_lane_sequence(&mut self, lane: usize) {
        // The lane starts cold and at the layer's θ: a recycled lane
        // never inherits its predecessor's override.
        let state = &mut self.lanes.0[lane];
        state.table.clear();
        state.stats.reset();
        state.audit.reset();
        state.threshold = None;
    }

    fn swap_lane_state(&mut self, a: usize, b: usize) {
        // The scheduler moved a lane; all of its state moves along.
        self.lanes.0.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig};
    use nfm_tensor::rng::DeterministicRng;
    use nfm_tensor::Vector;

    fn network(seed: u64) -> DeepRnn {
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 6, 10);
        let mut rng = DeterministicRng::seed_from_u64(seed);
        DeepRnn::random(&cfg, &mut rng).unwrap()
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
    fn zero_threshold_reuses_nothing_and_matches_exact() {
        let net = network(1);
        let seq = smooth_sequence(20, 6, 2);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let mut oracle = BnnMemoEvaluator::oracle(OracleMemoConfig::with_threshold(0.0));
        let memo = net.run(&seq, &mut oracle).unwrap();
        assert_eq!(exact, memo);
        assert_eq!(oracle.stats().reuses(), 0);
        assert_eq!(
            oracle.stats().evaluations(),
            (20 * net.neuron_evaluations_per_step()) as u64
        );
    }

    #[test]
    fn huge_threshold_reuses_everything_after_warmup() {
        let net = network(3);
        let seq = smooth_sequence(15, 6, 4);
        let mut oracle = BnnMemoEvaluator::oracle(OracleMemoConfig::with_threshold(f32::INFINITY));
        let _ = net.run(&seq, &mut oracle).unwrap();
        let per_step = net.neuron_evaluations_per_step() as u64;
        // First timestep must compute everything; the rest can all reuse.
        assert_eq!(oracle.stats().computed(), per_step);
        assert_eq!(oracle.stats().reuses(), per_step * 14);
    }

    #[test]
    fn reuse_grows_monotonically_with_threshold() {
        let net = network(5);
        let seq = smooth_sequence(25, 6, 6);
        let mut previous = -1.0f64;
        for &theta in &[0.0, 0.1, 0.3, 0.5, 1.0] {
            let mut oracle = BnnMemoEvaluator::oracle(OracleMemoConfig::with_threshold(theta));
            let _ = net.run(&seq, &mut oracle).unwrap();
            let reuse = oracle.stats().reuse_fraction();
            assert!(
                reuse + 1e-9 >= previous,
                "reuse should not decrease: {previous} -> {reuse} at θ={theta}"
            );
            previous = reuse;
        }
        assert!(previous > 0.0, "a generous threshold must yield some reuse");
    }

    #[test]
    fn table_is_cleared_between_sequences() {
        let net = network(7);
        let seq = smooth_sequence(5, 6, 8);
        let mut oracle = BnnMemoEvaluator::oracle(OracleMemoConfig::with_threshold(0.5));
        let _ = net.run(&seq, &mut oracle).unwrap();
        let after_first = oracle.stats().evaluations();
        let _ = net.run(&seq, &mut oracle).unwrap();
        // Every sequence starts cold: the first timestep of the second run
        // must compute (not reuse) for every neuron, so computed count grows.
        assert_eq!(oracle.stats().evaluations(), after_first * 2);
        assert!(oracle.stats().computed() >= 2 * net.neuron_evaluations_per_step() as u64);
    }

    #[test]
    fn moderate_threshold_introduces_small_output_error() {
        let net = network(9);
        let seq = smooth_sequence(30, 6, 10);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let mut oracle = BnnMemoEvaluator::oracle(OracleMemoConfig::with_threshold(0.3));
        let memo = net.run(&seq, &mut oracle).unwrap();
        assert!(oracle.stats().reuse_fraction() > 0.05);
        // Outputs diverge, but not wildly: the relative error per reuse is
        // bounded by the threshold.
        let mut max_abs_err = 0.0f32;
        for (e, m) in exact.iter().zip(memo.iter()) {
            for i in 0..e.len() {
                max_abs_err = max_abs_err.max((e[i] - m[i]).abs());
            }
        }
        assert!(max_abs_err < 1.0, "bounded divergence, got {max_abs_err}");
    }
}
