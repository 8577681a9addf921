//! The recurrent cell: a kind and its gates (Figures 2 and 3).

use crate::batch::{BatchScratch, BatchState};
use crate::config::CellKind;
use crate::error::RnnError;
use crate::evaluator::NeuronEvaluator;
use crate::gate::{Gate, GateId, GateKind};
use crate::Result;
use nfm_tensor::activation::Activation;
use nfm_tensor::kernels::activate_into;
use nfm_tensor::rng::DeterministicRng;

/// A recurrent cell: its kind and one [`Gate`] per kind in
/// [`CellKind::gate_kinds`] order.  The kinds differ only in how a step
/// combines the gate outputs.
///
/// An LSTM with peephole connections (Equations 1–6 of the paper):
///
/// ```text
/// i_t = σ(W_ix·x_t + W_ih·h_{t-1} + p_i⊙c_{t-1} + b_i)
/// f_t = σ(W_fx·x_t + W_fh·h_{t-1} + p_f⊙c_{t-1} + b_f)
/// g_t = ϕ(W_gx·x_t + W_gh·h_{t-1} + b_g)
/// c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
/// o_t = σ(W_ox·x_t + W_oh·h_{t-1} + p_o⊙c_t + b_o)
/// h_t = o_t ⊙ ϕ(c_t)
/// ```
///
/// The output-gate peephole uses the *previous* cell state here (a common
/// simplification that keeps all four gates independent, matching the
/// E-PUR hardware where the four computation units run concurrently).
///
/// A GRU:
///
/// ```text
/// z_t = σ(W_zx·x_t + W_zh·h_{t-1} + b_z)    (update gate)
/// r_t = σ(W_rx·x_t + W_rh·h_{t-1} + b_r)    (reset gate)
/// g_t = ϕ(W_gx·x_t + W_gh·(r_t ⊙ h_{t-1}) + b_g)
/// h_t = (1 - z_t) ⊙ h_{t-1} + z_t ⊙ g_t
/// ```
///
/// The candidate gate's recurrent dot product takes the *reset-modulated*
/// hidden state `r_t ⊙ h_{t-1}` as its recurrent input, exactly as the
/// GRU definition in the paper's reference (Cho et al., 2014).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    kind: CellKind,
    gates: Vec<Gate>,
}

impl Cell {
    /// Creates a cell of `kind` from its gates, in
    /// [`CellKind::gate_kinds`] order.
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::InvalidConfig`] if the gate count does not
    /// match the kind, the gates disagree on neuron count, input size or
    /// hidden size, the recurrent width differs from the neuron count,
    /// or a gate that reads no cell state
    /// ([`CellKind::reads_cell_state`]) has peephole weights.
    pub fn new(kind: CellKind, gates: Vec<Gate>) -> Result<Self> {
        let invalid = |what: String| Err(RnnError::InvalidConfig { what });
        let name = kind.name();
        if gates.len() != kind.gates() {
            return invalid(format!(
                "{name} cell takes {} gates, got {}",
                kind.gates(),
                gates.len()
            ));
        }
        let first = &gates[0];
        let (neurons, in_size, hid) = (first.neurons(), first.input_size(), first.hidden_size());
        if gates
            .iter()
            .any(|g| g.neurons() != neurons || g.input_size() != in_size || g.hidden_size() != hid)
        {
            return invalid(format!("{name} gates disagree on dimensions"));
        }
        if hid != neurons {
            return invalid(format!(
                "{name} recurrent width {hid} must equal neuron count {neurons}"
            ));
        }
        for (&gate_kind, gate) in kind.gate_kinds().iter().zip(&gates) {
            if gate.peephole().is_some() && !kind.reads_cell_state(gate_kind) {
                return invalid(format!(
                    "the {name} {} gate reads no cell state and takes no peephole",
                    gate_kind.name()
                ));
            }
        }
        Ok(Cell { kind, gates })
    }

    /// Creates a randomly initialized cell of `kind`, drawing its gates
    /// in [`CellKind::gate_kinds`] order: the candidate gate activates
    /// with `tanh`, the others with the sigmoid.  `peepholes` gives
    /// peephole connections to the gates that read the cell state (the
    /// paper's LSTM description includes them; a GRU has none).
    pub fn random(
        kind: CellKind,
        input_size: usize,
        hidden_size: usize,
        peepholes: bool,
        rng: &mut DeterministicRng,
    ) -> Result<Self> {
        let gates = kind.gate_kinds().iter().map(|&gate_kind| {
            let activation = if gate_kind == GateKind::Candidate {
                Activation::Tanh
            } else {
                Activation::Sigmoid
            };
            let peephole = peepholes && kind.reads_cell_state(gate_kind);
            Gate::random(
                hidden_size,
                input_size,
                hidden_size,
                activation,
                peephole,
                rng,
            )
        });
        Cell::new(kind, gates.collect::<Result<_>>()?)
    }

    /// The cell kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Neurons per gate.
    pub fn hidden_size(&self) -> usize {
        self.gates[0].neurons()
    }

    /// Expected input width.
    pub fn input_size(&self) -> usize {
        self.gates[0].input_size()
    }

    /// Gate kinds evaluated by this cell, in order.
    pub fn gate_kinds(&self) -> &'static [GateKind] {
        self.kind.gate_kinds()
    }

    /// The gates, in [`Cell::gate_kinds`] order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Borrows a gate by kind, if the cell has it.
    pub fn gate(&self, kind: GateKind) -> Option<&Gate> {
        let at = self.gate_kinds().iter().position(|&k| k == kind)?;
        Some(&self.gates[at])
    }

    /// Total weights in the cell.
    pub fn weight_count(&self) -> usize {
        self.gates.iter().map(Gate::weight_count).sum()
    }

    /// Number of neuron evaluations performed per timestep (one per gate
    /// neuron), i.e. the quantity the paper's "computation reuse"
    /// percentages are measured against.
    pub fn neuron_evaluations_per_step(&self) -> usize {
        self.hidden_size() * self.gates.len()
    }

    /// Advances the first `lanes` lanes of a batch by one timestep,
    /// writing the next lane-striped state into `next` and reusing the
    /// caller-owned `scratch`: the steady-state path performs zero
    /// allocations (`tests/zero_alloc.rs` pins it under every
    /// evaluator) and every gate's weights are streamed once for all
    /// lanes.
    ///
    /// `layer`/`direction` locate this cell inside the deep network so
    /// the evaluator can key its memoization tables; `timestep` is the
    /// driver's step counter.  `state` and `next` must be distinct.
    /// `xs` holds the `lanes` input vectors lane-striped
    /// (`lanes * input_size`).  `hoisted` supplies the pre-computed
    /// input projections `W_x·x_t` for this timestep, one lane-striped
    /// slice (`lanes * hidden`) per gate in [`Cell::gate_kinds`] order
    /// (a GRU candidate's *recurrent* half still uses the
    /// reset-modulated hidden state).  Lanes never interact: lane `l`'s
    /// next state is bit-identical to a one-lane call over lane `l`'s
    /// vectors.
    ///
    /// # Errors
    ///
    /// Returns an error if the lane-striped widths do not match the
    /// cell.
    #[allow(clippy::too_many_arguments)]
    pub fn step_batch_into(
        &self,
        layer: usize,
        direction: usize,
        timestep: usize,
        lanes: usize,
        xs: &[f32],
        state: &BatchState,
        next: &mut BatchState,
        scratch: &mut BatchScratch,
        hoisted: &[&[f32]],
        evaluator: &mut dyn NeuronEvaluator,
    ) -> Result<()> {
        let hidden = self.hidden_size();
        if state.hidden() != hidden
            || next.hidden() != hidden
            || state.lanes() < lanes
            || next.lanes() < lanes
        {
            return Err(RnnError::InvalidConfig {
                what: format!(
                    "batch states ({} lanes x {}, next {} x {}) do not cover {} lanes of hidden size {}",
                    state.lanes(),
                    state.hidden(),
                    next.lanes(),
                    next.hidden(),
                    lanes,
                    hidden
                ),
            });
        }
        let kinds = self.gate_kinds();
        if hoisted.len() != kinds.len() {
            return Err(RnnError::InvalidConfig {
                what: format!(
                    "hoisted projections cover {} gates, {} needs {}",
                    hoisted.len(),
                    self.kind.name(),
                    kinds.len()
                ),
            });
        }
        let h_prev = state.h_prefix(lanes);
        let c_prev = state.c_prefix(lanes);
        // Gate `g` over the recurrent input `h`, into `out`.
        let mut gate = |g: usize, h: &[f32], out: &mut [f32]| {
            let kind = kinds[g];
            self.gates[g].evaluate_batch_into(
                GateId::new(layer, direction, kind),
                timestep,
                lanes,
                xs,
                h,
                self.kind.reads_cell_state(kind).then_some(c_prev),
                hoisted[g],
                evaluator,
                out,
            )
        };
        let (a, b, c) = scratch.bufs(lanes * hidden);
        gate(0, h_prev, a)?;
        gate(1, h_prev, b)?;
        match self.kind {
            CellKind::Lstm => {
                // a = i_t, b = f_t, c = g_t.
                gate(2, h_prev, c)?;
                // c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t, elementwise over all lanes.
                for (n, c_next) in next.c_prefix_mut(lanes).iter_mut().enumerate() {
                    *c_next = b[n] * c_prev[n] + a[n] * c[n];
                }
                // Output-gate peephole uses the previous cell state (see
                // the type docs); `a` is free again and holds o_t.
                gate(3, h_prev, a)?;
                // h_t = o_t ⊙ ϕ(c_t): ϕ over all lanes in one call, then
                // scaled in place.
                let (h_next, c_next) = next.h_mut_c_prefix(lanes);
                h_next.copy_from_slice(c_next);
                activate_into(Activation::Tanh, h_next);
                for (h, o) in h_next.iter_mut().zip(a.iter()) {
                    *h *= o;
                }
            }
            CellKind::Gru => {
                // a = z_t; reset-modulated hidden state, in place:
                // b = r_t ⊙ h_{t-1}; c = g_t.
                for (r, h) in b.iter_mut().zip(h_prev.iter()) {
                    *r *= h;
                }
                gate(2, b, c)?;
                // h_t = (1 - z_t) ⊙ h_{t-1} + z_t ⊙ g_t
                for (n, h_next) in next.h_prefix_mut(lanes).iter_mut().enumerate() {
                    *h_next = (1.0 - a[n]) * h_prev[n] + a[n] * c[n];
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ExactEvaluator;
    use crate::layer::Layer;
    use crate::network::DeepRnn;
    use nfm_tensor::init::Initializer;
    use nfm_tensor::kernels::matmul_into;
    use nfm_tensor::Vector;

    const KINDS: [CellKind; 2] = [CellKind::Lstm, CellKind::Gru];

    fn cell(kind: CellKind, input_size: usize, hidden: usize, seed: u64) -> Cell {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        Cell::random(kind, input_size, hidden, true, &mut rng).unwrap()
    }

    /// `h_t` of every step of `xs` through a one-layer network of `cell`,
    /// from the zero state.
    fn run(cell: &Cell, xs: &[Vector], eval: &mut ExactEvaluator) -> Vec<Vector> {
        let layer = Layer::new(0, cell.clone(), None).unwrap();
        let net = DeepRnn::new(vec![layer], None).unwrap();
        net.run(xs, eval).unwrap()
    }

    fn sequence(len: usize, width: usize, bound: f32, seed: u64) -> Vec<Vector> {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        (0..len)
            .map(|_| Vector::from_fn(width, |_| rng.uniform(-bound, bound)))
            .collect()
    }

    /// A hand-built cell of `kind` over `n` units, one gate per
    /// `(activation, bias)`, with no peepholes.
    fn hand_cell(kind: CellKind, n: usize, biases: &[f32], seed: u64) -> Cell {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let gates = kind.gate_kinds().iter().zip(biases).map(|(&k, &bias)| {
            let wx = Initializer::XavierUniform.matrix(&mut rng, n, n);
            let wh = Initializer::XavierUniform.matrix(&mut rng, n, n);
            let act = if k == GateKind::Candidate {
                Activation::Tanh
            } else {
                Activation::Sigmoid
            };
            Gate::new(wx, wh, Vector::filled(n, bias), None, act).unwrap()
        });
        Cell::new(kind, gates.collect()).unwrap()
    }

    #[test]
    fn random_cell_dimensions() {
        let lstm = cell(CellKind::Lstm, 6, 4, 1);
        assert_eq!(lstm.kind(), CellKind::Lstm);
        assert_eq!(lstm.hidden_size(), 4);
        assert_eq!(lstm.input_size(), 6);
        assert_eq!(lstm.neuron_evaluations_per_step(), 16);
        assert_eq!(lstm.weight_count(), 4 * 4 * (6 + 4));
        assert!(lstm.gate(GateKind::Input).is_some());
        assert!(lstm.gate(GateKind::Update).is_none());
        assert_eq!(lstm.gate_kinds(), GateKind::LSTM);
        let peepholes = lstm.gates().iter().map(|g| g.peephole().is_some());
        assert_eq!(peepholes.collect::<Vec<_>>(), [true, true, false, true]);

        let gru = cell(CellKind::Gru, 5, 3, 1);
        assert_eq!(gru.kind(), CellKind::Gru);
        assert_eq!(gru.hidden_size(), 3);
        assert_eq!(gru.input_size(), 5);
        assert_eq!(gru.neuron_evaluations_per_step(), 9);
        assert_eq!(gru.weight_count(), 3 * 3 * (5 + 3));
        assert!(gru.gate(GateKind::Update).is_some());
        assert!(gru.gate(GateKind::Forget).is_none());
        assert_eq!(gru.gate_kinds(), GateKind::GRU);
        assert!(gru.gates().iter().all(|g| g.peephole().is_none()));
    }

    #[test]
    fn lstm_step_produces_bounded_outputs() {
        let c = cell(CellKind::Lstm, 6, 4, 2);
        let mut eval = ExactEvaluator::new();
        for h in run(&c, &sequence(20, 6, 1.0, 9), &mut eval) {
            // |h| <= 1 because h = σ(...) ⊙ tanh(c); c is bounded by the
            // forget/input gate dynamics for bounded inputs.
            assert!(h.norm_inf() <= 1.0 + 1e-5);
            assert!(h.iter().all(|v| v.is_finite()));
        }
        assert_eq!(eval.evaluations(), 20 * 16);
    }

    #[test]
    fn gru_hidden_state_stays_bounded() {
        let c = cell(CellKind::Gru, 4, 6, 2);
        let mut eval = ExactEvaluator::new();
        for h in run(&c, &sequence(30, 4, 2.0, 5), &mut eval) {
            // h is a convex combination of the previous h and tanh output,
            // so it remains within [-1, 1].
            assert!(h.norm_inf() <= 1.0 + 1e-5);
        }
        assert_eq!(eval.evaluations(), 30 * 18);
    }

    #[test]
    fn step_is_deterministic() {
        for kind in KINDS {
            let c = cell(kind, 3, 5, 7);
            let xs = [Vector::from(vec![0.1, -0.3, 0.7])];
            let a = run(&c, &xs, &mut ExactEvaluator::new());
            let b = run(&c, &xs, &mut ExactEvaluator::new());
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn zero_input_zero_state_gives_small_output() {
        let c = cell(CellKind::Lstm, 4, 4, 3);
        let out = run(&c, &[Vector::zeros(4)], &mut ExactEvaluator::new());
        // With zero inputs only the biases contribute, so outputs stay small.
        assert!(out[0].norm_inf() < 0.5);
    }

    #[test]
    fn step_batch_into_rejects_bad_widths() {
        for kind in KINDS {
            let c = cell(kind, 4, 4, 4);
            let mut eval = ExactEvaluator::new();
            let mut scratch = BatchScratch::new();
            let fwd = [0.0f32; 4];
            let hoisted = vec![&fwd[..]; kind.gates()];
            let state = BatchState::zeros(1, 4);
            let mut step = |lanes, xs: &[f32], state: &BatchState, hidden, hoisted: &[&[f32]]| {
                let next = &mut BatchState::zeros(1, hidden);
                let (s, e) = (&mut scratch, &mut eval);
                c.step_batch_into(0, 0, 0, lanes, xs, state, next, s, hoisted, e)
            };
            let gates = hoisted.len();
            assert!(step(1, &[0.0; 4], &state, 4, &hoisted).is_ok());
            assert!(step(1, &[0.0; 3], &state, 4, &hoisted).is_err());
            assert!(step(1, &[0.0; 4], &BatchState::zeros(1, 2), 4, &hoisted).is_err());
            assert!(step(1, &[0.0; 4], &state, 2, &hoisted).is_err());
            assert!(step(2, &[0.0; 8], &state, 4, &hoisted).is_err());
            assert!(step(1, &[0.0; 4], &state, 4, &hoisted[..gates - 1]).is_err());
        }
    }

    #[test]
    fn new_rejects_mismatched_gates() {
        let mut rng = DeterministicRng::seed_from_u64(13);
        let mut gate = |neurons, input, hidden, peephole| {
            let act = Activation::Sigmoid;
            Gate::random(neurons, input, hidden, act, peephole, &mut rng).unwrap()
        };
        for kind in KINDS {
            let n = kind.gates();
            let good: Vec<Gate> = (0..n).map(|_| gate(4, 4, 4, false)).collect();
            assert!(Cell::new(kind, good.clone()).is_ok(), "{kind:?}");
            let with = |at: usize, g: Gate| {
                let mut gates = good.clone();
                gates[at] = g;
                gates
            };
            // Each case breaks one rule of `Cell::new`.
            let cases = [
                (good[1..].to_vec(), "one gate short"),
                (
                    [&good[..], &[gate(4, 4, 4, false)]].concat(),
                    "one gate too many",
                ),
                (with(n - 1, gate(3, 4, 3, false)), "neuron count differs"),
                (with(n - 1, gate(4, 5, 4, false)), "input size differs"),
                (
                    (0..n).map(|_| gate(4, 4, 5, false)).collect(),
                    "recurrent width",
                ),
                (with(2, gate(4, 4, 4, true)), "candidate has a peephole"),
            ];
            for (gates, why) in cases {
                assert!(Cell::new(kind, gates).is_err(), "{kind:?}: {why}");
            }
        }
        let mut gates: Vec<Gate> = (0..3).map(|_| gate(4, 4, 4, false)).collect();
        gates[0] = gate(4, 4, 4, true);
        assert!(
            Cell::new(CellKind::Gru, gates).is_err(),
            "GRU update peephole"
        );
    }

    #[test]
    fn forget_gate_dominates_when_input_gate_closed() {
        // A hand-built cell where the input gate is forced closed (large
        // negative bias): the cell state must stay at zero, and with it
        // h = o ⊙ tanh(c) (o ≈ σ(0), not small).
        let cell = hand_cell(CellKind::Lstm, 2, &[-30.0, 0.0, 0.0, 0.0], 11);
        let out = run(
            &cell,
            &[Vector::from(vec![1.0, -1.0])],
            &mut ExactEvaluator::new(),
        );
        assert!(out[0].norm_inf() < 1e-5);
    }

    #[test]
    fn update_gate_closed_keeps_previous_state() {
        // Force z_t ≈ 0 with a huge negative bias: h_t must equal h_{t-1}.
        let cell = hand_cell(CellKind::Gru, 3, &[-40.0, 0.0, 0.0], 3);
        let prev = [0.3, -0.2, 0.5];
        let x = [1.0, 2.0, -1.0];
        let mut state = BatchState::zeros(1, 3);
        state.h_prefix_mut(1).copy_from_slice(&prev);
        let hoisted: Vec<Vec<f32>> = cell
            .gates()
            .iter()
            .map(|gate| {
                let mut fwd = vec![0.0; 3];
                matmul_into(gate.wx(), &x, 1, &mut fwd).unwrap();
                fwd
            })
            .collect();
        let hoisted: Vec<&[f32]> = hoisted.iter().map(Vec::as_slice).collect();
        let mut next = BatchState::zeros(1, 3);
        let mut eval = ExactEvaluator::new();
        cell.step_batch_into(
            0,
            0,
            0,
            1,
            &x,
            &state,
            &mut next,
            &mut BatchScratch::new(),
            &hoisted,
            &mut eval,
        )
        .unwrap();
        for (next, prev) in next.h_prefix(1).iter().zip(prev) {
            assert!((next - prev).abs() < 1e-4);
        }
    }
}
