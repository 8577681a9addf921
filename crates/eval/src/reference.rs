//! An independent `f64` reference for the recurrent stack, and the
//! error of the exact `f32` path against it (`nfm-eval reference`).
//!
//! The equivalence suites assert that optimised paths agree with each
//! other; this module keeps "all paths agree" from meaning "all paths
//! share a bug".  It is deliberately naive — the textbook LSTM / GRU
//! equations, one weight at a time, in `f64` with `f64::exp` / `tanh` —
//! reads a model only through [`Gate::wx`], [`Gate::wh`], [`Gate::bias`]
//! and [`Gate::peephole`], and shares no kernel, activation, layout or
//! batching code with `nfm-tensor` / `nfm-rnn`.
//!
//! The numeric contract has two parts: within a build every path and
//! dispatch tier is bit-identical; against this reference the exact
//! `f32` path stays inside [`BUDGET_MAX_ABS`] at every layer
//! (`tests/reference_f64.rs` pins it on each tier).
//!
//! [`MemoReference`] does the same for memoization: a naive replay of
//! the memo decision (Equations 7–8 and 12–17, the oracle of Figure 6,
//! 1-in-N audit sampling) one neuron at a time over its own per-lane
//! maps, sharing no code with `nfm-core`'s table, lanes or decide loop
//! and no code with `nfm-bnn`'s sign packing or popcounts.
//! `tests/memo_reference.rs` feeds it every gate call's own inputs and
//! requires every decision, memo entry and counter to match.

use crate::harness::{EvalConfig, NetworkRun};
use crate::report::{ExperimentReport, TableReport};
use nfm_core::{AuditConfig, BnnMemoConfig, OracleMemoConfig};
use nfm_rnn::{Cell, CellKind, DeepRnn, ExactEvaluator, Gate, GateId, GateKind, RnnError};
use nfm_tensor::Vector;
use std::collections::HashMap;

/// Largest absolute difference allowed between any hidden output of the
/// exact `f32` path and the reference, at any layer.  Measured worst
/// case over the shapes of `tests/reference_f64.rs`: 2.13e-7 (a 64-unit
/// GRU, 96 steps); the budget is under 4x that.
pub const BUDGET_MAX_ABS: f64 = 8e-7;

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// `W_x[n]·x + W_h[n]·h + b[n]` (`+ p[n]·c[n]` where the equation has a
/// peephole term and the gate has the weights) for every neuron `n`.
fn preactivation(gate: &Gate, x: &[f64], h: &[f64], c: Option<&[f64]>) -> Vec<f64> {
    (0..gate.neurons())
        .map(|n| {
            let mut sum = f64::from(gate.bias()[n]);
            for (k, x) in x.iter().enumerate() {
                sum += f64::from(gate.wx().get(n, k)) * x;
            }
            for (k, h) in h.iter().enumerate() {
                sum += f64::from(gate.wh().get(n, k)) * h;
            }
            if let (Some(p), Some(c)) = (gate.peephole(), c) {
                sum += f64::from(p[n]) * c[n];
            }
            sum
        })
        .collect()
}

/// One LSTM step, returning `(h_t, c_t)`:
///
/// ```text
/// i = σ(W_i·[x, h] + p_i⊙c + b_i)      f = σ(W_f·[x, h] + p_f⊙c + b_f)
/// g = tanh(W_g·[x, h] + b_g)           o = σ(W_o·[x, h] + p_o⊙c + b_o)
/// c_t = f⊙c + i⊙g                      h_t = o⊙tanh(c_t)
/// ```
///
/// with this repo's peephole convention: the output gate reads
/// `c_{t-1}` like the other two, not `c_t`.
///
/// # Panics
///
/// Panics if `cell` is not an LSTM.
pub fn lstm_step(cell: &Cell, x: &[f64], h: &[f64], c: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let pre = |kind, c| preactivation(cell.gate(kind).expect("an LSTM gate kind"), x, h, c);
    let i = pre(GateKind::Input, Some(c));
    let f = pre(GateKind::Forget, Some(c));
    let g = pre(GateKind::Candidate, None);
    let o = pre(GateKind::Output, Some(c));
    let c_t: Vec<f64> = (0..c.len())
        .map(|n| sigmoid(f[n]) * c[n] + sigmoid(i[n]) * g[n].tanh())
        .collect();
    let h_t = (0..c.len())
        .map(|n| sigmoid(o[n]) * c_t[n].tanh())
        .collect();
    (h_t, c_t)
}

/// One GRU step, returning `h_t`:
///
/// ```text
/// z = σ(W_z·[x, h] + b_z)              r = σ(W_r·[x, h] + b_r)
/// g = tanh(W_g·[x, r⊙h] + b_g)         h_t = (1 - z)⊙h + z⊙g
/// ```
///
/// # Panics
///
/// Panics if `cell` is not a GRU.
pub fn gru_step(cell: &Cell, x: &[f64], h: &[f64]) -> Vec<f64> {
    let gate = |kind| cell.gate(kind).expect("a GRU gate kind");
    let z = preactivation(gate(GateKind::Update), x, h, None);
    let r = preactivation(gate(GateKind::Reset), x, h, None);
    let rh: Vec<f64> = r.iter().zip(h).map(|(r, h)| sigmoid(*r) * h).collect();
    let g = preactivation(gate(GateKind::Candidate), x, &rh, None);
    (0..h.len())
        .map(|n| (1.0 - sigmoid(z[n])) * h[n] + sigmoid(z[n]) * g[n].tanh())
        .collect()
}

/// One direction of a layer over a whole sequence from a zero state;
/// `reverse` walks it back to front, outputs stay indexed by timestep.
fn run_cell(cell: &Cell, xs: &[Vec<f64>], reverse: bool) -> Vec<Vec<f64>> {
    let (mut h, mut c) = (vec![0.0; cell.hidden_size()], vec![0.0; cell.hidden_size()]);
    let mut out = vec![Vec::new(); xs.len()];
    for s in 0..xs.len() {
        let t = if reverse { xs.len() - 1 - s } else { s };
        match cell.kind() {
            CellKind::Lstm => (h, c) = lstm_step(cell, &xs[t], &h, &c),
            CellKind::Gru => h = gru_step(cell, &xs[t], &h),
        }
        out[t] = h.clone();
    }
    out
}

/// The hidden outputs of every recurrent layer of `net` over one
/// sequence, `[layer][timestep][unit]`; a bidirectional layer's output
/// is its forward half followed by its backward half, and each layer
/// reads the one below it (the dense head is not part of the stack).
pub fn run_layers(net: &DeepRnn, sequence: &[Vector]) -> Vec<Vec<Vec<f64>>> {
    let mut xs: Vec<Vec<f64>> = sequence
        .iter()
        .map(|x| x.iter().map(f64::from).collect())
        .collect();
    let mut layers = Vec::new();
    for layer in net.layers() {
        let mut out = run_cell(layer.forward_cell(), &xs, false);
        if let Some(backward) = layer.backward_cell() {
            for (fwd, bwd) in out.iter_mut().zip(run_cell(backward, &xs, true)) {
                fwd.extend(bwd);
            }
        }
        xs.clone_from(&out);
        layers.push(out);
    }
    layers
}

/// The memoization policy [`MemoReference`] replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoPolicy {
    /// The BNN predictor (Figure 10), optionally auditing 1 in N hits.
    Bnn(BnnMemoConfig, Option<AuditConfig>),
    /// The oracle (Figure 6).
    Oracle(OracleMemoConfig),
}

/// One neuron's memo entry: `y_m`, `yb_m` (the oracle keeps its true
/// output there) and `δb`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoSlot {
    /// Cached full-precision output `y_m`.
    pub y_m: f32,
    /// Cached predictor output `yb_m`.
    pub yb_m: f32,
    /// Accumulated relative difference `δb`.
    pub delta: f32,
}

/// Neuron evaluations requested, served from the memo entry, predicted
/// by the BNN, and audited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Neuron evaluations requested.
    pub evaluations: u64,
    /// Evaluations that reused `y_m`.
    pub reuses: u64,
    /// BNN neuron evaluations.
    pub bnn_evaluations: u64,
    /// Reuses also computed exactly to observe their error.
    pub audited: u64,
}

/// One layer's audit counters: hits, audited hits, and the summed
/// `|y_t − y_m|` of the audited ones.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AuditCounts {
    /// Memo hits on the layer (counted only while auditing).
    pub hits: u64,
    /// Hits audited.
    pub audited: u64,
    /// Sum of the audited absolute errors.
    pub error_sum: f64,
}

/// One lane: its memo entries and audit hit counters per gate, and its
/// counts since the lane's sequence began.
#[derive(Debug, Clone, Default)]
struct MemoLane {
    slots: HashMap<GateId, Vec<Option<MemoSlot>>>,
    hits: HashMap<GateId, u64>,
    counts: MemoCounts,
}

/// A naive memoized step, one lane and one neuron at a time.
#[derive(Debug, Clone)]
pub struct MemoReference {
    policy: MemoPolicy,
    lanes: Vec<MemoLane>,
    total: MemoCounts,
    audits: Vec<AuditCounts>,
}

/// `Σ sign(w)·sign(v)` over one weight row and its inputs, with the sign
/// of Equation 7: `+1` iff `v >= 0` (so NaN is `−1`).
fn binary_dot(weights: &[f32], inputs: &[f32]) -> i32 {
    let sign = |v: f32| if v >= 0.0 { 1 } else { -1 };
    weights
        .iter()
        .zip(inputs)
        .map(|(&w, &v)| sign(w) * sign(v))
        .sum()
}

/// Equation 12: `|a − b| / |a|`, the denominator clamped to `epsilon`.
fn relative(a: f32, b: f32, epsilon: f32) -> f32 {
    (a - b).abs() / a.abs().max(epsilon)
}

impl MemoReference {
    /// A reference with no lanes yet.
    pub fn new(policy: MemoPolicy) -> Self {
        MemoReference {
            policy,
            lanes: Vec::new(),
            total: MemoCounts::default(),
            audits: Vec::new(),
        }
    }

    /// Lane `lane` starts a sequence: no entries, counts at zero.
    pub fn begin_lane(&mut self, lane: usize) {
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, MemoLane::default);
        }
        self.lanes[lane] = MemoLane::default();
    }

    /// The driver moved lanes `a` and `b`.
    pub fn swap_lanes(&mut self, a: usize, b: usize) {
        self.lanes.swap(a, b);
    }

    /// One gate call on lane `lane` with inputs `x` and `h`: decides
    /// every neuron in order and returns the emitted outputs.  The BNN
    /// rule computes `yb_t` from the weight signs and `y_t` in `f64`;
    /// the oracle decides on `truth`, the gate's exact outputs (its
    /// decision is only as exact as the value it is handed, so it takes
    /// the exact path's own).
    ///
    /// # Panics
    ///
    /// Panics if lane `lane` never began.
    pub fn step(
        &mut self,
        lane: usize,
        id: GateId,
        gate: &Gate,
        x: &[f32],
        h: &[f32],
        truth: &[f32],
    ) -> Vec<f32> {
        let state = &mut self.lanes[lane];
        let slots = state
            .slots
            .entry(id)
            .or_insert_with(|| vec![None; gate.neurons()]);
        let mut out = Vec::with_capacity(gate.neurons());
        for (n, slot) in slots.iter_mut().enumerate() {
            let (y_t, yb_t, delta, theta, bnn) = match self.policy {
                MemoPolicy::Bnn(config, _) => {
                    let yb_t = binary_dot(gate.wx().row(n), x) + binary_dot(gate.wh().row(n), h);
                    let yb_t = yb_t as f32;
                    let delta = slot.map(|s| {
                        let eps = relative(yb_t, s.yb_m, config.epsilon);
                        if config.throttle {
                            s.delta + eps
                        } else {
                            eps
                        }
                    });
                    let y_t = preactivation_f32(gate, n, x, h);
                    (y_t, yb_t, delta, config.threshold, true)
                }
                MemoPolicy::Oracle(config) => {
                    let y_t = truth[n];
                    let delta = slot.map(|s| relative(y_t, s.y_m, config.epsilon));
                    (y_t, y_t, delta, config.threshold, false)
                }
            };
            let hit = delta.is_some_and(|delta| delta <= theta);
            for counts in [&mut state.counts, &mut self.total] {
                counts.evaluations += 1;
                counts.reuses += u64::from(hit);
                counts.bnn_evaluations += u64::from(bnn);
            }
            let Some(s) = slot.as_mut().filter(|_| hit) else {
                // Equations 15–17: compute, and cache what was computed.
                *slot = Some(MemoSlot {
                    y_m: y_t,
                    yb_m: yb_t,
                    delta: 0.0,
                });
                out.push(y_t);
                continue;
            };
            // Equation 14: reuse `y_m`, keep the accumulated difference.
            s.delta = delta.expect("a hit has a difference");
            out.push(s.y_m);
            if let MemoPolicy::Bnn(_, Some(audit)) = self.policy {
                if self.audits.len() <= id.layer {
                    self.audits.resize(id.layer + 1, AuditCounts::default());
                }
                let layer = &mut self.audits[id.layer];
                layer.hits += 1;
                let hits = state.hits.entry(id).or_insert(0);
                if *hits % audit.period == audit.seed % audit.period {
                    layer.audited += 1;
                    layer.error_sum += f64::from((y_t - s.y_m).abs());
                    state.counts.audited += 1;
                    self.total.audited += 1;
                }
                *hits += 1;
            }
        }
        out
    }

    /// Lane `lane`'s entry for neuron `n` of gate `id`.
    pub fn slot(&self, lane: usize, id: GateId, n: usize) -> Option<MemoSlot> {
        self.lanes[lane].slots.get(&id).and_then(|s| s[n])
    }

    /// Lane `lane`'s counts since its sequence began.
    pub fn lane_counts(&self, lane: usize) -> MemoCounts {
        self.lanes[lane].counts
    }

    /// The counts over every lane and sequence so far.
    pub fn total(&self) -> MemoCounts {
        self.total
    }

    /// Audit counters per layer.
    pub fn audits(&self) -> &[AuditCounts] {
        &self.audits
    }
}

/// `W_x[n]·x + W_h[n]·h` in `f64`, rounded once to `f32`.
fn preactivation_f32(gate: &Gate, n: usize, x: &[f32], h: &[f32]) -> f32 {
    let dot = |w: &[f32], v: &[f32]| -> f64 {
        w.iter()
            .zip(v)
            .map(|(w, v)| f64::from(*w) * f64::from(*v))
            .sum()
    };
    (dot(gate.wx().row(n), x) + dot(gate.wh().row(n), h)) as f32
}

/// Error of one layer's `f32` outputs against the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerError {
    /// Largest absolute difference over every timestep and unit.
    pub max_abs: f64,
    /// Mean absolute difference.
    pub mean_abs: f64,
}

/// Per-layer error of the exact `f32` path (each layer fed by the `f32`
/// layer below it, so the error accumulates as it does in inference)
/// against [`run_layers`].
///
/// # Errors
///
/// Returns an error if `sequence` does not fit the network.
pub fn layer_errors(net: &DeepRnn, sequence: &[Vector]) -> Result<Vec<LayerError>, RnnError> {
    let mut xs = sequence.to_vec();
    let mut errors = Vec::new();
    for (layer, reference) in net.layers().iter().zip(run_layers(net, sequence)) {
        // Each layer on its own, as a one-layer stack.
        xs = DeepRnn::new(vec![layer.clone()], None)?.run(&xs, &mut ExactEvaluator::new())?;
        let diffs: Vec<f64> = xs
            .iter()
            .zip(&reference)
            .flat_map(|(got, want)| got.iter().zip(want).map(|(g, w)| (f64::from(g) - w).abs()))
            .collect();
        errors.push(LayerError {
            // Not `f64::max`, which would swallow a NaN output.
            max_abs: diffs
                .iter()
                .fold(0.0, |m, &d| if d > m || d.is_nan() { d } else { m }),
            mean_abs: diffs.iter().sum::<f64>() / diffs.len().max(1) as f64,
        });
    }
    Ok(errors)
}

/// The `reference` experiment: the per-layer error table for the four
/// Table 1 networks.
pub fn run(config: &EvalConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new("Exact f32 path vs the independent f64 reference");
    let mut table = TableReport::new(
        "Per-layer error of the hidden outputs",
        vec!["Network", "Layer", "Max abs error", "Mean abs error"],
    );
    let runs = NetworkRun::all(config).unwrap_or_else(|e| {
        table.push_note(format!("measurement failed: {e}"));
        Vec::new()
    });
    for run in &runs {
        let (id, workload) = (run.spec().id, run.workload());
        match layer_errors(workload.network(), &workload.sequences()[0]) {
            Ok(errors) => {
                for (k, e) in errors.iter().enumerate() {
                    let (max, mean) = (format!("{:.3e}", e.max_abs), format!("{:.3e}", e.mean_abs));
                    table.push_row(vec![id.to_string(), k.to_string(), max, mean]);
                }
            }
            Err(e) => table.push_note(format!("{id}: {e}")),
        }
    }
    table.push_note(format!(
        "Budget: max abs error <= {BUDGET_MAX_ABS:.0e} at every layer (pinned by \
         tests/reference_f64.rs on every kernel tier; measured on {}, and within a build \
         all paths and tiers are bit-identical).",
        nfm_tensor::backend::active()
    ));
    report.tables.push(table);
    report
}
