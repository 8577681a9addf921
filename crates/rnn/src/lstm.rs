//! LSTM cell with peephole connections (Figure 2 / Equations 1–6).

use crate::batch::{BatchScratch, BatchState};
use crate::error::RnnError;
use crate::evaluator::NeuronEvaluator;
use crate::gate::{Gate, GateId, GateKind};
use crate::Result;
use nfm_tensor::activation::Activation;
use nfm_tensor::kernels::activate_into;
use nfm_tensor::rng::DeterministicRng;

/// An LSTM cell (Equations 1–6 of the paper):
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
#[derive(Debug, Clone, PartialEq)]
pub struct LstmCell {
    input: Gate,
    forget: Gate,
    candidate: Gate,
    output: Gate,
}

impl LstmCell {
    /// Creates a cell from its four gates.
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::InvalidConfig`] if the gates disagree on
    /// neuron count, input size or hidden size, or the candidate gate
    /// has peephole weights (Equation 3 has no peephole term).
    pub fn new(input: Gate, forget: Gate, candidate: Gate, output: Gate) -> Result<Self> {
        let gates = [&input, &forget, &candidate, &output];
        let neurons = input.neurons();
        let in_size = input.input_size();
        let hid = input.hidden_size();
        for g in gates {
            if g.neurons() != neurons || g.input_size() != in_size || g.hidden_size() != hid {
                return Err(RnnError::InvalidConfig {
                    what: "LSTM gates disagree on dimensions".into(),
                });
            }
        }
        if hid != neurons {
            return Err(RnnError::InvalidConfig {
                what: format!("LSTM recurrent width {hid} must equal neuron count {neurons}"),
            });
        }
        if candidate.peephole().is_some() {
            return Err(RnnError::InvalidConfig {
                what: "the LSTM candidate gate reads no cell state and takes no peephole".into(),
            });
        }
        Ok(LstmCell {
            input,
            forget,
            candidate,
            output,
        })
    }

    /// Creates a randomly initialized cell.
    ///
    /// `peepholes` controls whether the sigmoid gates get peephole
    /// connections (the paper's LSTM description includes them).
    pub fn random(
        input_size: usize,
        hidden_size: usize,
        peepholes: bool,
        rng: &mut DeterministicRng,
    ) -> Result<Self> {
        let input = Gate::random(
            hidden_size,
            input_size,
            hidden_size,
            Activation::Sigmoid,
            peepholes,
            rng,
        )?;
        let forget = Gate::random(
            hidden_size,
            input_size,
            hidden_size,
            Activation::Sigmoid,
            peepholes,
            rng,
        )?;
        let candidate = Gate::random(
            hidden_size,
            input_size,
            hidden_size,
            Activation::Tanh,
            false,
            rng,
        )?;
        let output = Gate::random(
            hidden_size,
            input_size,
            hidden_size,
            Activation::Sigmoid,
            peepholes,
            rng,
        )?;
        LstmCell::new(input, forget, candidate, output)
    }

    /// Number of neurons per gate.
    pub fn hidden_size(&self) -> usize {
        self.input.neurons()
    }

    /// Width of the expected input vector.
    pub fn input_size(&self) -> usize {
        self.input.input_size()
    }

    /// Borrows a gate by kind.
    ///
    /// Returns `None` for GRU-only gate kinds (`Update`, `Reset`).
    pub fn gate(&self, kind: GateKind) -> Option<&Gate> {
        match kind {
            GateKind::Input => Some(&self.input),
            GateKind::Forget => Some(&self.forget),
            GateKind::Candidate => Some(&self.candidate),
            GateKind::Output => Some(&self.output),
            GateKind::Update | GateKind::Reset => None,
        }
    }

    /// The gate kinds this cell evaluates, in order.
    pub fn gate_kinds(&self) -> &'static [GateKind] {
        &GateKind::LSTM
    }

    /// Total number of weights in the cell (all four gates).
    pub fn weight_count(&self) -> usize {
        GateKind::LSTM
            .iter()
            .filter_map(|&k| self.gate(k))
            .map(Gate::weight_count)
            .sum()
    }

    /// Number of neuron evaluations performed per timestep (one per gate
    /// neuron), i.e. the quantity the paper's "computation reuse"
    /// percentages are measured against.
    pub fn neuron_evaluations_per_step(&self) -> usize {
        self.hidden_size() * GateKind::LSTM.len()
    }

    /// Advances the first `lanes` lanes of a batch by one timestep,
    /// writing the next lane-striped state into `next` and reusing the
    /// caller-owned `scratch`: the steady-state path performs zero
    /// allocations and every gate's weights are streamed once for all
    /// lanes.
    ///
    /// `layer`/`direction` locate this cell inside the deep network so
    /// the evaluator can key its memoization tables; `timestep` is the
    /// driver's step counter.  `state` and `next` must be distinct.
    /// `xs` holds the `lanes` input vectors lane-striped
    /// (`lanes * input_size`).  `hoisted` supplies the
    /// pre-computed input projections `W_x·x_t` for this timestep, one
    /// lane-striped slice (`lanes * hidden`) per gate in
    /// [`GateKind::LSTM`] order.  Lanes never interact: lane `l`'s next
    /// state is bit-identical to a one-lane call over lane `l`'s
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
        if state.hidden() != hidden || state.lanes() < lanes || next.lanes() < lanes {
            return Err(RnnError::InvalidConfig {
                what: format!(
                    "batch state ({} lanes x {}) does not cover {} lanes of hidden size {}",
                    state.lanes(),
                    state.hidden(),
                    lanes,
                    hidden
                ),
            });
        }
        if next.hidden() != hidden {
            return Err(RnnError::InvalidConfig {
                what: format!(
                    "next batch state hidden size {} does not match cell hidden size {}",
                    next.hidden(),
                    hidden
                ),
            });
        }
        if hoisted.len() != GateKind::LSTM.len() {
            return Err(RnnError::InvalidConfig {
                what: format!(
                    "hoisted projections cover {} gates, LSTM needs {}",
                    hoisted.len(),
                    GateKind::LSTM.len()
                ),
            });
        }
        let id = |kind| GateId::new(layer, direction, kind);
        let h_prev = state.h_prefix(lanes);
        let c_prev = state.c_prefix(lanes);
        let (ib, fb, gb) = scratch.bufs(lanes * hidden);
        self.input.evaluate_batch_into(
            id(GateKind::Input),
            timestep,
            lanes,
            xs,
            h_prev,
            Some(c_prev),
            hoisted[0],
            evaluator,
            ib,
        )?;
        self.forget.evaluate_batch_into(
            id(GateKind::Forget),
            timestep,
            lanes,
            xs,
            h_prev,
            Some(c_prev),
            hoisted[1],
            evaluator,
            fb,
        )?;
        self.candidate.evaluate_batch_into(
            id(GateKind::Candidate),
            timestep,
            lanes,
            xs,
            h_prev,
            None,
            hoisted[2],
            evaluator,
            gb,
        )?;
        // c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t, elementwise over all lanes.
        for (n, c_next) in next.c_prefix_mut(lanes).iter_mut().enumerate() {
            *c_next = fb[n] * c_prev[n] + ib[n] * gb[n];
        }
        // Output-gate peephole uses the previous cell state (see the
        // cell docs); `ib` is free again and holds o_t.
        self.output.evaluate_batch_into(
            id(GateKind::Output),
            timestep,
            lanes,
            xs,
            h_prev,
            Some(c_prev),
            hoisted[3],
            evaluator,
            ib,
        )?;
        // h_t = o_t ⊙ ϕ(c_t): ϕ over all lanes in one call, then scaled
        // in place.
        let (h_next, c_next) = next.h_mut_c_prefix(lanes);
        h_next.copy_from_slice(c_next);
        activate_into(Activation::Tanh, h_next);
        for (h, o) in h_next.iter_mut().zip(ib.iter()) {
            *h *= o;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ExactEvaluator;
    use crate::layer::{Cell, Layer};
    use crate::network::DeepRnn;
    use nfm_tensor::Vector;

    fn cell(input_size: usize, hidden: usize, seed: u64) -> LstmCell {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        LstmCell::random(input_size, hidden, true, &mut rng).unwrap()
    }

    /// `h_t` of every step of `xs` through a one-layer network of `cell`,
    /// from the zero state.
    fn run(cell: &LstmCell, xs: &[Vector], eval: &mut ExactEvaluator) -> Vec<Vector> {
        let layer = Layer::new(0, Cell::Lstm(cell.clone()), None).unwrap();
        let net = DeepRnn::new(vec![layer], None).unwrap();
        net.run(xs, eval).unwrap()
    }

    #[test]
    fn random_cell_dimensions() {
        let c = cell(6, 4, 1);
        assert_eq!(c.hidden_size(), 4);
        assert_eq!(c.input_size(), 6);
        assert_eq!(c.neuron_evaluations_per_step(), 16);
        assert_eq!(c.weight_count(), 4 * 4 * (6 + 4));
        assert!(c.gate(GateKind::Input).is_some());
        assert!(c.gate(GateKind::Update).is_none());
        assert_eq!(c.gate_kinds().len(), 4);
    }

    #[test]
    fn step_produces_bounded_outputs() {
        let c = cell(6, 4, 2);
        let mut eval = ExactEvaluator::new();
        let mut rng = DeterministicRng::seed_from_u64(9);
        let xs: Vec<Vector> = (0..20)
            .map(|_| Vector::from_fn(6, |_| rng.uniform(-1.0, 1.0)))
            .collect();
        for h in run(&c, &xs, &mut eval) {
            // |h| <= 1 because h = σ(...) ⊙ tanh(c); c is bounded by the
            // forget/input gate dynamics for bounded inputs.
            assert!(h.norm_inf() <= 1.0 + 1e-5);
            assert!(h.iter().all(|v| v.is_finite()));
        }
        assert_eq!(eval.evaluations(), 20 * 16);
    }

    #[test]
    fn step_is_deterministic() {
        let c = cell(3, 5, 7);
        let xs = [Vector::from(vec![0.1, -0.3, 0.7])];
        let a = run(&c, &xs, &mut ExactEvaluator::new());
        let b = run(&c, &xs, &mut ExactEvaluator::new());
        assert_eq!(a, b);
    }

    #[test]
    fn zero_input_zero_state_gives_small_output() {
        let c = cell(4, 4, 3);
        let out = run(&c, &[Vector::zeros(4)], &mut ExactEvaluator::new());
        // With zero inputs only the biases contribute, so outputs stay small.
        assert!(out[0].norm_inf() < 0.5);
    }

    #[test]
    fn step_batch_into_rejects_bad_widths() {
        let c = cell(4, 4, 4);
        let mut eval = ExactEvaluator::new();
        let mut scratch = BatchScratch::new();
        let fwd = [0.0f32; 4];
        let hoisted = [&fwd[..]; 4];
        let state = BatchState::zeros(1, 4);
        let mut step = |lanes, xs: &[f32], state: &BatchState, hidden, hoisted: &[&[f32]]| {
            let next = &mut BatchState::zeros(1, hidden);
            let (s, e) = (&mut scratch, &mut eval);
            c.step_batch_into(0, 0, 0, lanes, xs, state, next, s, hoisted, e)
        };
        assert!(step(1, &[0.0; 4], &state, 4, &hoisted).is_ok());
        assert!(step(1, &[0.0; 3], &state, 4, &hoisted).is_err());
        assert!(step(1, &[0.0; 4], &BatchState::zeros(1, 2), 4, &hoisted).is_err());
        assert!(step(1, &[0.0; 4], &state, 2, &hoisted).is_err());
        assert!(step(2, &[0.0; 8], &state, 4, &hoisted).is_err());
        assert!(step(1, &[0.0; 4], &state, 4, &hoisted[..3]).is_err());
    }

    #[test]
    fn new_rejects_mismatched_gates() {
        let mut rng = DeterministicRng::seed_from_u64(5);
        let g4 = || {
            Gate::random(
                4,
                4,
                4,
                Activation::Sigmoid,
                false,
                &mut DeterministicRng::seed_from_u64(1),
            )
            .unwrap()
        };
        let g_bad = Gate::random(3, 4, 3, Activation::Sigmoid, false, &mut rng).unwrap();
        assert!(LstmCell::new(g4(), g4(), g4(), g_bad).is_err());
    }

    #[test]
    fn forget_gate_dominates_when_input_gate_closed() {
        // A hand-built cell where the input gate is forced closed (large
        // negative bias): the cell state must stay at zero, and with it
        // h = o ⊙ tanh(c) (o ≈ σ(0), not small).
        let mut rng = DeterministicRng::seed_from_u64(11);
        let mut mk = |act, bias: f32| {
            let wx = nfm_tensor::init::Initializer::XavierUniform.matrix(&mut rng, 2, 2);
            let wh = nfm_tensor::init::Initializer::XavierUniform.matrix(&mut rng, 2, 2);
            Gate::new(wx, wh, Vector::filled(2, bias), None, act).unwrap()
        };
        let input = mk(Activation::Sigmoid, -30.0);
        let forget = mk(Activation::Sigmoid, 0.0);
        let candidate = mk(Activation::Tanh, 0.0);
        let output = mk(Activation::Sigmoid, 0.0);
        let cell = LstmCell::new(input, forget, candidate, output).unwrap();
        let out = run(
            &cell,
            &[Vector::from(vec![1.0, -1.0])],
            &mut ExactEvaluator::new(),
        );
        assert!(out[0].norm_inf() < 1e-5);
    }
}
