//! The BNN-based memoization predictor (Figures 10 and 12).

use crate::audit::{AuditConfig, AuditStats};
use crate::config::BnnMemoConfig;
use crate::stats::ReuseStats;
use crate::table::{GateHandle, MemoTable};
use nfm_bnn::{BinaryNetwork, BitVector};
use nfm_rnn::{Gate, GateBatch, GateId, NeuronEvaluator, NeuronRef, Result as RnnResult};
use nfm_tensor::vector::relative_difference;
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
/// The decision exists twice, contractually bit-identical: the
/// per-neuron [`NeuronEvaluator::evaluate`] (the paper's boundary and
/// the reference the equivalence suites pin the fused path against,
/// with one shared [`table`](Self::table)), and the gate entry
/// [`NeuronEvaluator::evaluate_gate_batch`] every driver runs.  The
/// gate entry binarizes each lane's inputs exactly once per invocation
/// into reusable buffers (zero `BitVector` clones or allocations),
/// evaluates the mirror gate for all lanes in one dispatched
/// XNOR-popcount call, and walks flat memo tables with pre-resolved
/// gate handles.  Every lane owns a **separate** [`MemoTable`] (the
/// paper's buffer holds no state across independent inputs, so lanes
/// must not share entries): `begin_batch` sizes the per-lane tables
/// from the mirror's gate shapes and `begin_lane_sequence` clears
/// exactly one lane's table, so lane `l` of any batch is bit-identical
/// — outputs, reuse statistics and memo-hit sequence — to running its
/// sequence alone.
#[derive(Debug, Clone)]
pub struct BnnMemoEvaluator {
    // Arc-shared: the mirror depends only on the trained weights, so
    // every evaluator of the same model (all engine workers, every
    // threshold variant) consults one prebuilt copy.
    mirror: Arc<BinaryNetwork>,
    config: BnnMemoConfig,
    table: MemoTable,
    stats: ReuseStats,
    // Binarized inputs are shared by every neuron of the same gate at the
    // same timestep; cache them to binarize once per gate invocation,
    // mirroring the FMU's single concatenated input vector.
    input_cache: Option<InputCache>,
    // Whole-gate mirror outputs for every lane, filled by one
    // dispatched XNOR-popcount call per gate invocation.
    yb: Vec<i32>,
    // Per-lane state of the gate entry: one memo table per lane plus
    // reusable binarization scratch per lane.
    lane_tables: Vec<MemoTable>,
    lane_xb: Vec<BitVector>,
    lane_hb: Vec<BitVector>,
    // Per-lane accounting for the batched path, so a serving engine can
    // attribute reuse statistics to the request occupying each lane.
    // `stats` still aggregates everything.
    lane_stats: Vec<ReuseStats>,
    // Scratch for the neuron-outer batched decision loop: pre-resolved
    // per-lane gate handles, the lanes whose memo decision missed on
    // the current neuron, and per-lane reuse/compute counters for the
    // current gate invocation.
    lane_handles: Vec<GateHandle>,
    miss_lanes: Vec<u32>,
    lane_reused: Vec<u64>,
    lane_computed: Vec<u64>,
    // Per-layer threshold overrides installed by an adaptive
    // controller; empty means the uniform `config.threshold` applies
    // to every layer.
    layer_thresholds: Vec<f32>,
    // Deterministic 1-in-N audit sampling of memo hits (None = off).
    audit: Option<AuditSampler>,
    audit_stats: AuditStats,
    // Hit counters driving audit selection: one for the per-neuron
    // reference path, one per lane for the gate entry (so a lane's
    // audit sequence does not depend on its neighbours).
    audit_counter: u64,
    lane_audit_counters: Vec<u64>,
    // Scratch: audits taken per lane during the current gate call.
    lane_audited: Vec<u64>,
}

/// Precomputed audit selection: hit number `c` is audited iff
/// `c % period == offset`.
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

#[derive(Debug, Clone)]
struct InputCache {
    gate_id: GateId,
    timestep: usize,
    xb: BitVector,
    hb: BitVector,
}

impl BnnMemoEvaluator {
    /// Creates an evaluator from the binary mirror of the network it will
    /// run and a configuration.  The memo table is laid out up front from
    /// the mirror's gate shapes (the paper's dense FMU buffer).
    ///
    /// The mirror is taken as (anything convertible into) an
    /// `Arc<BinaryNetwork>`: build it once per model and share the
    /// `Arc` across evaluators — cloning a prebuilt mirror per worker
    /// would scale memory with `workers × mirror size` for no benefit.
    pub fn new(mirror: impl Into<Arc<BinaryNetwork>>, config: BnnMemoConfig) -> Self {
        let mirror = mirror.into();
        let table = MemoTable::with_gates(mirror.iter().map(|(id, g)| (*id, g.neurons())));
        BnnMemoEvaluator {
            mirror,
            config,
            table,
            stats: ReuseStats::new(),
            input_cache: None,
            yb: Vec::new(),
            lane_tables: Vec::new(),
            lane_xb: Vec::new(),
            lane_hb: Vec::new(),
            lane_stats: Vec::new(),
            lane_handles: Vec::new(),
            miss_lanes: Vec::new(),
            lane_reused: Vec::new(),
            lane_computed: Vec::new(),
            layer_thresholds: Vec::new(),
            audit: None,
            audit_stats: AuditStats::new(),
            audit_counter: 0,
            lane_audit_counters: Vec::new(),
            lane_audited: Vec::new(),
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
    /// invocations only, so every lane of one gate call sees the same
    /// θ.
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

    /// Lane `lane`'s audit hit counter (lane-migration hook).
    pub fn lane_audit_counter(&self, lane: usize) -> u64 {
        self.lane_audit_counters.get(lane).copied().unwrap_or(0)
    }

    /// Restores lane `lane`'s audit hit counter (lane-migration hook).
    pub fn set_lane_audit_counter(&mut self, lane: usize, counter: u64) {
        if lane >= self.lane_audit_counters.len() {
            self.lane_audit_counters.resize(lane + 1, 0);
        }
        self.lane_audit_counters[lane] = counter;
    }

    /// The threshold in effect for `layer`.
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

    /// The configuration in use.
    pub fn config(&self) -> BnnMemoConfig {
        self.config
    }

    /// Borrow the per-neuron reference path's memoization table
    /// (diagnostics only; the gate entry uses
    /// [`lane_tables`](Self::lane_tables)).
    pub fn table(&self) -> &MemoTable {
        &self.table
    }

    /// Borrow the per-lane memoization tables of the gate entry
    /// (diagnostics only; empty until a run sized them via
    /// `begin_batch`).
    pub fn lane_tables(&self) -> &[MemoTable] {
        &self.lane_tables
    }

    /// Per-lane reuse statistics, accumulated since each lane's last
    /// `begin_lane_sequence` (empty until a run sized the lanes).  The
    /// aggregate [`stats`](Self::stats) includes everything recorded
    /// here.
    pub fn lane_stats(&self) -> &[ReuseStats] {
        &self.lane_stats
    }

    /// Takes lane `lane`'s statistics, leaving the lane's counters at
    /// zero.  Serving engines call this when the request occupying the
    /// lane completes, *before* the lane is refilled.
    pub fn take_lane_stats(&mut self, lane: usize) -> ReuseStats {
        std::mem::take(&mut self.lane_stats[lane])
    }

    /// Moves lane `lane`'s migratable state — its memo table and
    /// accumulated statistics — out for transfer to another evaluator
    /// of the same mirror and configuration (the serving engine's
    /// lane-migration hook).  The source lane's statistics are left at
    /// zero; its table is left behind and reset by the next
    /// `begin_lane_sequence`.
    pub fn export_lane(&mut self, lane: usize) -> (MemoTable, ReuseStats) {
        (
            self.lane_tables[lane].clone(),
            std::mem::take(&mut self.lane_stats[lane]),
        )
    }

    /// Installs a lane exported by [`export_lane`](Self::export_lane)
    /// into lane `lane`, overwriting whatever state the lane held.
    /// Grows the per-lane state to cover `lane` if needed.
    pub fn import_lane(&mut self, lane: usize, table: MemoTable, stats: ReuseStats) {
        self.begin_batch(lane + 1);
        self.lane_tables[lane] = table;
        self.lane_stats[lane] = stats;
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Ensures the input cache holds this `(gate, timestep)`'s binarized
    /// inputs.  Callers then borrow them from `self.input_cache` — no
    /// clones (the cached bitvectors used to be cloned per neuron, which
    /// dominated the per-neuron path's cost).
    fn ensure_binarized_inputs(
        &mut self,
        gate_id: GateId,
        timestep: usize,
        x: &[f32],
        h_prev: &[f32],
    ) {
        let hit = self
            .input_cache
            .as_ref()
            .map(|c| c.gate_id == gate_id && c.timestep == timestep)
            .unwrap_or(false);
        if !hit {
            // Reuse the cache's storage when present.
            let mut cache = self.input_cache.take().unwrap_or(InputCache {
                gate_id,
                timestep,
                xb: BitVector::zeros(0),
                hb: BitVector::zeros(0),
            });
            cache.gate_id = gate_id;
            cache.timestep = timestep;
            cache.xb.fill_from_signs(x);
            cache.hb.fill_from_signs(h_prev);
            self.input_cache = Some(cache);
        }
    }
}

impl NeuronEvaluator for BnnMemoEvaluator {
    fn evaluate(
        &mut self,
        neuron: NeuronRef,
        gate: &Gate,
        x: &[f32],
        h_prev: &[f32],
    ) -> RnnResult<f32> {
        if self.mirror.gate(neuron.gate_id).is_none() {
            // No mirror: fall back to exact evaluation (this only happens
            // if the mirror was built for a different network).
            self.stats.record_computed();
            return gate.neuron_dot(neuron.neuron, x, h_prev);
        }

        // Step 1: evaluate the binarized neuron (always done).  The
        // cached input bitvectors are borrowed, never cloned.
        self.ensure_binarized_inputs(neuron.gate_id, neuron.timestep, x, h_prev);
        let cache = self.input_cache.as_ref().expect("just populated");
        let binary_gate = self.mirror.gate(neuron.gate_id).expect("checked above");
        let yb_t = match binary_gate.neuron_output(neuron.neuron, &cache.xb, &cache.hb) {
            Ok(v) => v as f32,
            Err(_) => {
                // Dimension mismatch between mirror and network: evaluate
                // exactly rather than failing inference.
                self.stats.record_computed();
                return gate.neuron_dot(neuron.neuron, x, h_prev);
            }
        };
        self.stats.record_bnn_evaluation();

        // Step 2/3: compare with the cached BNN output, accumulating over
        // consecutive reuses when throttling is enabled.
        if let Some(entry) = self.table.get(neuron.gate_id, neuron.neuron) {
            let eps_t = relative_difference(yb_t, entry.cached_bnn_output, self.config.epsilon);
            let delta_t = if self.config.throttle {
                entry.accumulated_delta + eps_t
            } else {
                eps_t
            };
            if delta_t <= self.threshold_for(neuron.gate_id.layer) {
                self.stats.record_reused();
                let cached = self
                    .table
                    .record_reuse(neuron.gate_id, neuron.neuron, delta_t);
                if let Some(sampler) = self.audit {
                    let layer = neuron.gate_id.layer;
                    self.audit_stats.record_hit(layer);
                    let count = self.audit_counter;
                    self.audit_counter += 1;
                    if sampler.due(count) {
                        // Audit step: compute the skipped dot product
                        // anyway to observe the error — but still emit
                        // the cached value, so outputs are unchanged.
                        let y_exact = gate.neuron_dot(neuron.neuron, x, h_prev)?;
                        self.audit_stats
                            .record_audit(layer, f64::from((y_exact - cached).abs()));
                        self.stats.record_audited();
                    }
                }
                return Ok(cached);
            }
        }

        // Step 4: evaluate in full precision and refresh the entry.
        let y_t = gate.neuron_dot(neuron.neuron, x, h_prev)?;
        self.stats.record_computed();
        self.table.refresh(neuron.gate_id, neuron.neuron, y_t, yb_t);
        Ok(y_t)
    }

    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        let GateBatch {
            gate_id,
            lanes,
            gate,
            xs,
            h_prevs,
            ..
        } = *call;
        let (isz, hsz, nsz) = (gate.input_size(), gate.hidden_size(), gate.neurons());
        let mirror_usable = match self.mirror.gate(gate_id) {
            Some(bg) => bg.input_size() == isz && bg.hidden_size() == hsz,
            None => false,
        };
        if !mirror_usable {
            // No usable mirror: exact evaluation for every lane rather
            // than failing inference (matches the per-neuron fallback
            // bit for bit: the lane-striped kernel shares the reduction
            // order).
            nfm_tensor::kernels::dual_matmul_into(gate.wx(), gate.wh(), xs, h_prevs, lanes, out)?;
            self.stats.record_computed_many(out.len() as u64);
            for lane_stats in self.lane_stats.iter_mut().take(lanes) {
                lane_stats.record_computed_many(nsz as u64);
            }
            return Ok(());
        }
        assert!(
            self.lane_tables.len() >= lanes,
            "evaluate_gate_batch with {lanes} lanes but begin_batch sized {} \
             (the batch driver always calls begin_batch first)",
            self.lane_tables.len()
        );
        // Binarize every lane's inputs exactly once, into reused storage.
        BitVector::fill_lanes_from_signs(&mut self.lane_xb, xs, lanes, isz);
        BitVector::fill_lanes_from_signs(&mut self.lane_hb, h_prevs, lanes, hsz);
        let binary_gate = self.mirror.gate(gate_id).expect("checked above");
        // One dispatched XNOR-popcount call evaluates the whole mirror
        // gate for *every* lane of the wave: each binary weight row
        // streams once and is reused across lanes (row-outer,
        // lane-inner), instead of re-walking the mirror per lane.
        // Popcounts are integer-exact, so the lane-striped outputs equal
        // the per-lane calls bit for bit.
        self.yb.resize(lanes * nsz, 0);
        binary_gate.neuron_outputs_batch_unchecked_into(
            &self.lane_xb[..lanes],
            &self.lane_hb[..lanes],
            &mut self.yb,
        );
        // Resolve every lane's gate block once so the neuron loop below
        // is pure array indexing, and zero this invocation's per-lane
        // counters.
        self.lane_handles.clear();
        for table in self.lane_tables.iter_mut().take(lanes) {
            self.lane_handles.push(table.gate_handle(gate_id, nsz));
        }
        if self.lane_reused.len() < lanes {
            self.lane_reused.resize(lanes, 0);
            self.lane_computed.resize(lanes, 0);
            self.lane_audited.resize(lanes, 0);
        }
        self.lane_reused[..lanes].fill(0);
        self.lane_computed[..lanes].fill(0);
        self.lane_audited[..lanes].fill(0);
        // θ and the audit sampler are hoisted once per gate call:
        // adaptive controllers only swap thresholds between whole-gate
        // invocations, so every lane of this call shares one θ.
        let theta = self.threshold_for(gate_id.layer);
        let sampler = self.audit;

        // Neuron-outer, lane-inner: per (lane, neuron) memo decisions
        // are independent (each lane owns its table, each neuron its
        // slot), so this order is bit-identical to the lane-outer loop
        // — but the lanes that miss on a neuron now share that neuron's
        // weight rows.  Misses are computed four at a time with the
        // quad-dot kernel, whose per-lane results are bit-identical to
        // individual dots by the kernel contract; the bias-free neuron
        // dot is exactly `dot(wx row, x) + dot(wh row, h_prev)`, so
        // each miss equals `neuron_dot_unchecked` bit for bit.
        let (wx, wh) = (gate.wx(), gate.wh());
        for n in 0..nsz {
            self.miss_lanes.clear();
            for l in 0..lanes {
                let yb_t = self.yb[l * nsz + n] as f32;
                let handle = self.lane_handles[l];
                let table = &mut self.lane_tables[l];
                if let Some(entry) = table.entry(handle, n) {
                    let eps_t =
                        relative_difference(yb_t, entry.cached_bnn_output, self.config.epsilon);
                    let delta_t = if self.config.throttle {
                        entry.accumulated_delta + eps_t
                    } else {
                        eps_t
                    };
                    if delta_t <= theta {
                        self.lane_reused[l] += 1;
                        let cached = table.reuse_at(handle, n, delta_t);
                        out[l * nsz + n] = cached;
                        if let Some(sampler) = sampler {
                            let count = self.lane_audit_counters[l];
                            self.lane_audit_counters[l] += 1;
                            if sampler.due(count) {
                                let y_exact = nfm_tensor::kernels::dot_unchecked(
                                    wx.row(n),
                                    &xs[l * isz..(l + 1) * isz],
                                ) + nfm_tensor::kernels::dot_unchecked(
                                    wh.row(n),
                                    &h_prevs[l * hsz..(l + 1) * hsz],
                                );
                                self.audit_stats.record_audit(
                                    gate_id.layer,
                                    f64::from((y_exact - cached).abs()),
                                );
                                self.lane_audited[l] += 1;
                            }
                        }
                        continue;
                    }
                }
                self.miss_lanes.push(l as u32);
            }
            if self.miss_lanes.is_empty() {
                continue;
            }
            let (wx_row, wh_row) = (wx.row(n), wh.row(n));
            let mut finish = |l: usize, y_t: f32, tables: &mut [MemoTable]| {
                self.lane_computed[l] += 1;
                tables[l].refresh_at(self.lane_handles[l], n, y_t, self.yb[l * nsz + n] as f32);
                out[l * nsz + n] = y_t;
            };
            let mut quads = self.miss_lanes.chunks_exact(4);
            for quad in &mut quads {
                let ls = [
                    quad[0] as usize,
                    quad[1] as usize,
                    quad[2] as usize,
                    quad[3] as usize,
                ];
                let fwd = nfm_tensor::kernels::dot_quad_unchecked(
                    wx_row,
                    &xs[ls[0] * isz..(ls[0] + 1) * isz],
                    &xs[ls[1] * isz..(ls[1] + 1) * isz],
                    &xs[ls[2] * isz..(ls[2] + 1) * isz],
                    &xs[ls[3] * isz..(ls[3] + 1) * isz],
                );
                let rec = nfm_tensor::kernels::dot_quad_unchecked(
                    wh_row,
                    &h_prevs[ls[0] * hsz..(ls[0] + 1) * hsz],
                    &h_prevs[ls[1] * hsz..(ls[1] + 1) * hsz],
                    &h_prevs[ls[2] * hsz..(ls[2] + 1) * hsz],
                    &h_prevs[ls[3] * hsz..(ls[3] + 1) * hsz],
                );
                for (j, &l) in ls.iter().enumerate() {
                    finish(l, fwd[j] + rec[j], &mut self.lane_tables);
                }
            }
            for &l in quads.remainder() {
                let l = l as usize;
                let y_t = nfm_tensor::kernels::dot_unchecked(wx_row, &xs[l * isz..(l + 1) * isz])
                    + nfm_tensor::kernels::dot_unchecked(wh_row, &h_prevs[l * hsz..(l + 1) * hsz]);
                finish(l, y_t, &mut self.lane_tables);
            }
        }

        // The BNN mirror ran for every neuron of every lane; fold the
        // counters into the aggregate and per-lane stats.
        for l in 0..lanes {
            self.stats.record_bnn_evaluations_many(nsz as u64);
            self.stats.record_reused_many(self.lane_reused[l]);
            self.stats.record_computed_many(self.lane_computed[l]);
            self.stats.record_audited_many(self.lane_audited[l]);
            let lane_stats = &mut self.lane_stats[l];
            lane_stats.record_bnn_evaluations_many(nsz as u64);
            lane_stats.record_reused_many(self.lane_reused[l]);
            lane_stats.record_computed_many(self.lane_computed[l]);
            lane_stats.record_audited_many(self.lane_audited[l]);
            if sampler.is_some() {
                self.audit_stats
                    .record_hits(gate_id.layer, self.lane_reused[l]);
            }
        }
        Ok(())
    }

    fn begin_batch(&mut self, lanes: usize) {
        while self.lane_tables.len() < lanes {
            // Same dense layout as the reference table: the FMU buffer
            // shape replicated once per lane.
            self.lane_tables.push(MemoTable::with_gates(
                self.mirror.iter().map(|(id, g)| (*id, g.neurons())),
            ));
        }
        if self.lane_stats.len() < lanes {
            self.lane_stats.resize(lanes, ReuseStats::new());
        }
        if self.lane_audit_counters.len() < lanes {
            self.lane_audit_counters.resize(lanes, 0);
        }
    }

    fn begin_lane_sequence(&mut self, lane: usize) {
        // A wrapper may route evaluation through the per-neuron path
        // (the trait's default lane loop), which uses the shared
        // reference state — so a lane's fresh sequence must start that
        // state cold too.  (Under the default loop, lanes > 1 still
        // share it; per-lane isolation needs the gate-entry override,
        // as the trait docs spell out.)
        self.table.clear();
        self.input_cache = None;
        self.audit_counter = 0;
        self.lane_tables[lane].clear();
        self.lane_stats[lane].reset();
        self.lane_audit_counters[lane] = 0;
    }

    fn swap_lane_state(&mut self, a: usize, b: usize) {
        // The lane scheduler moves a surviving lane into a drained
        // slot; its memo table and per-lane counters move along.
        self.lane_tables.swap(a, b);
        self.lane_stats.swap(a, b);
        self.lane_audit_counters.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BnnMemoConfig;
    use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig, ExactEvaluator};
    use nfm_tensor::rng::DeterministicRng;
    use nfm_tensor::Vector;

    fn network(seed: u64) -> DeepRnn {
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 8, 12);
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

    fn evaluator(net: &DeepRnn, config: BnnMemoConfig) -> BnnMemoEvaluator {
        BnnMemoEvaluator::new(BinaryNetwork::mirror(net), config)
    }

    #[test]
    fn negative_threshold_matches_exact_inference() {
        // With θ < 0 no accumulated difference can qualify, so the scheme
        // degenerates to exact inference with zero reuse.
        let net = network(1);
        let seq = smooth_sequence(15, 8, 2);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let mut memo = evaluator(&net, BnnMemoConfig::with_threshold(-1.0));
        let out = net.run(&seq, &mut memo).unwrap();
        assert_eq!(exact, out);
        assert_eq!(memo.stats().reuses(), 0);
    }

    #[test]
    fn zero_threshold_only_reuses_identical_bnn_outputs() {
        // θ=0 reuses only while the BNN output is bit-identical to the
        // cached one; the resulting divergence from exact inference stays
        // small because identical BNN outputs imply near-identical
        // full-precision outputs (the correlation property of Figure 7).
        let net = network(1);
        let seq = smooth_sequence(15, 8, 2);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let mut memo = evaluator(&net, BnnMemoConfig::with_threshold(0.0));
        let out = net.run(&seq, &mut memo).unwrap();
        for (a, b) in exact.iter().zip(out.iter()) {
            for i in 0..a.len() {
                assert!((a[i] - b[i]).abs() < 0.3, "{} vs {}", a[i], b[i]);
            }
        }
    }

    #[test]
    fn bnn_is_evaluated_for_every_neuron_every_timestep() {
        let net = network(3);
        let seq = smooth_sequence(10, 8, 4);
        let mut memo = evaluator(&net, BnnMemoConfig::with_threshold(0.3));
        let _ = net.run(&seq, &mut memo).unwrap();
        let expected = (10 * net.neuron_evaluations_per_step()) as u64;
        assert_eq!(memo.stats().evaluations(), expected);
        assert_eq!(memo.stats().bnn_evaluations(), expected);
    }

    #[test]
    fn generous_threshold_yields_substantial_reuse() {
        let net = network(5);
        let seq = smooth_sequence(30, 8, 6);
        let mut memo = evaluator(&net, BnnMemoConfig::with_threshold(2.0));
        let _ = net.run(&seq, &mut memo).unwrap();
        assert!(
            memo.stats().reuse_fraction() > 0.2,
            "expected >20% reuse, got {}",
            memo.stats().reuse_percent()
        );
    }

    #[test]
    fn reuse_is_monotone_in_threshold() {
        let net = network(7);
        let seq = smooth_sequence(25, 8, 8);
        let mut previous = -1.0;
        for &theta in &[0.0, 0.25, 0.5, 1.0, 2.0, 4.0] {
            let mut memo = evaluator(&net, BnnMemoConfig::with_threshold(theta));
            let _ = net.run(&seq, &mut memo).unwrap();
            let reuse = memo.stats().reuse_fraction();
            assert!(
                reuse + 1e-9 >= previous,
                "reuse decreased from {previous} to {reuse} at θ={theta}"
            );
            previous = reuse;
        }
    }

    #[test]
    fn throttling_reduces_consecutive_reuse_runs() {
        let net = network(9);
        let seq = smooth_sequence(40, 8, 10);
        let theta = 1.5;
        let mut with = evaluator(&net, BnnMemoConfig::with_threshold(theta));
        let _ = net.run(&seq, &mut with).unwrap();
        let mut without = evaluator(
            &net,
            BnnMemoConfig::with_threshold(theta).without_throttling(),
        );
        let _ = net.run(&seq, &mut without).unwrap();
        // Without throttling, per-step differences are never accumulated,
        // so reuse and maximum run length can only be larger or equal.
        assert!(without.stats().reuse_fraction() + 1e-9 >= with.stats().reuse_fraction());
        assert!(
            without.lane_tables()[0].max_consecutive_reuses()
                >= with.lane_tables()[0].max_consecutive_reuses()
        );
    }

    #[test]
    fn outputs_stay_bounded_under_aggressive_reuse() {
        let net = network(11);
        let seq = smooth_sequence(30, 8, 12);
        let mut memo = evaluator(&net, BnnMemoConfig::with_threshold(8.0));
        let out = net.run(&seq, &mut memo).unwrap();
        assert!(memo.stats().reuse_fraction() > 0.4);
        for v in &out {
            assert!(v.iter().all(|x| x.is_finite()));
            assert!(v.norm_inf() <= 1.0 + 1e-4, "LSTM outputs remain in [-1, 1]");
        }
    }

    #[test]
    fn begin_lane_sequence_clears_lane_and_reference_state() {
        let net = network(13);
        let seq = smooth_sequence(10, 8, 14);
        let mut memo = evaluator(&net, BnnMemoConfig::with_threshold(1.0));
        let _ = net.run(&seq, &mut memo).unwrap();
        assert!(!memo.lane_tables()[0].is_empty());
        // Populate the per-neuron reference table too.
        let (id, gate) = net.gates()[0];
        let neuron = NeuronRef {
            gate_id: id,
            neuron: 0,
            timestep: 0,
        };
        memo.evaluate(neuron, gate, seq[0].as_slice(), &[0.0; 12])
            .unwrap();
        assert!(!memo.table().is_empty());
        memo.begin_lane_sequence(0);
        assert!(memo.lane_tables()[0].is_empty());
        assert!(memo.table().is_empty());
    }

    #[test]
    fn accuracy_degrades_gracefully_with_threshold() {
        // The divergence from exact inference should grow with θ but stay
        // bounded — the property that makes fuzzy memoization usable.
        let net = network(15);
        let seq = smooth_sequence(25, 8, 16);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let mut divergences = Vec::new();
        for &theta in &[0.5, 2.0, 8.0] {
            let mut memo = evaluator(&net, BnnMemoConfig::with_threshold(theta));
            let out = net.run(&seq, &mut memo).unwrap();
            let mut err = 0.0f32;
            let mut count = 0usize;
            for (a, b) in exact.iter().zip(out.iter()) {
                for i in 0..a.len() {
                    err += (a[i] - b[i]).abs();
                    count += 1;
                }
            }
            divergences.push(err / count as f32);
        }
        assert!(divergences[0] <= divergences[2] + 1e-6);
        assert!(divergences[2] < 0.5, "mean divergence stays small");
    }

    #[test]
    fn audit_sampling_never_changes_outputs() {
        let net = network(5);
        let seq = smooth_sequence(30, 8, 6);
        let theta = 1.0;
        let mut plain = evaluator(&net, BnnMemoConfig::with_threshold(theta));
        let baseline = net.run(&seq, &mut plain).unwrap();
        let mut audited = evaluator(&net, BnnMemoConfig::with_threshold(theta))
            .with_audit(AuditConfig::new(4, 2019));
        let out = net.run(&seq, &mut audited).unwrap();
        assert_eq!(baseline, out, "auditing must not change emitted outputs");
        assert_eq!(plain.stats().reuses(), audited.stats().reuses());
        assert_eq!(plain.stats().evaluations(), audited.stats().evaluations());
        assert_eq!(
            plain.stats().bnn_evaluations(),
            audited.stats().bnn_evaluations()
        );
        assert!(audited.stats().audited() > 0, "some hits were audited");
        let audit = audited.audit_stats();
        assert_eq!(audit.audited(), audited.stats().audited());
        let hits: u64 = audit.layers().iter().map(|l| l.hits).sum();
        assert_eq!(hits, audited.stats().reuses(), "every hit is counted");
        assert!(audit.mean_error().is_some());
    }

    #[test]
    fn per_layer_thresholds_override_uniform() {
        let net = network(1);
        let seq = smooth_sequence(15, 8, 2);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let mut memo = evaluator(&net, BnnMemoConfig::with_threshold(4.0));
        memo.set_layer_thresholds(&[-1.0; 4]);
        let out = net.run(&seq, &mut memo).unwrap();
        assert_eq!(exact, out, "θ<0 on every layer degenerates to exact");
        assert_eq!(memo.stats().reuses(), 0);
        // Clearing the overrides restores the uniform threshold.
        memo.set_layer_thresholds(&[]);
        let _ = net.run(&seq, &mut memo).unwrap();
        assert!(memo.stats().reuses() > 0);
    }
}
