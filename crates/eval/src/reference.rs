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

use crate::harness::{EvalConfig, NetworkRun};
use crate::report::{ExperimentReport, TableReport};
use nfm_rnn::{Cell, DeepRnn, ExactEvaluator, Gate, GateKind, GruCell, LstmCell, RnnError};
use nfm_tensor::Vector;

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
pub fn lstm_step(cell: &LstmCell, x: &[f64], h: &[f64], c: &[f64]) -> (Vec<f64>, Vec<f64>) {
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
pub fn gru_step(cell: &GruCell, x: &[f64], h: &[f64]) -> Vec<f64> {
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
        match cell {
            Cell::Lstm(lstm) => (h, c) = lstm_step(lstm, &xs[t], &h, &c),
            Cell::Gru(gru) => h = gru_step(gru, &xs[t], &h),
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
