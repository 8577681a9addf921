//! GRU cell (Figure 3 of the paper).

use crate::batch::{BatchScratch, BatchState};
use crate::error::RnnError;
use crate::evaluator::NeuronEvaluator;
use crate::gate::{Gate, GateId, GateKind};
use crate::Result;
use nfm_tensor::activation::Activation;
use nfm_tensor::rng::DeterministicRng;

/// A GRU cell:
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
pub struct GruCell {
    update: Gate,
    reset: Gate,
    candidate: Gate,
}

impl GruCell {
    /// Creates a cell from its three gates.
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::InvalidConfig`] if the gates disagree on
    /// dimensions, the recurrent width differs from the neuron count, or
    /// any gate has peephole weights.
    pub fn new(update: Gate, reset: Gate, candidate: Gate) -> Result<Self> {
        let neurons = update.neurons();
        let in_size = update.input_size();
        let hid = update.hidden_size();
        for g in [&update, &reset, &candidate] {
            if g.neurons() != neurons || g.input_size() != in_size || g.hidden_size() != hid {
                return Err(RnnError::InvalidConfig {
                    what: "GRU gates disagree on dimensions".into(),
                });
            }
        }
        if hid != neurons {
            return Err(RnnError::InvalidConfig {
                what: format!("GRU recurrent width {hid} must equal neuron count {neurons}"),
            });
        }
        if [&update, &reset, &candidate]
            .iter()
            .any(|g| g.peephole().is_some())
        {
            return Err(RnnError::InvalidConfig {
                what: "GRU gates have no cell state and take no peephole".into(),
            });
        }
        Ok(GruCell {
            update,
            reset,
            candidate,
        })
    }

    /// Creates a randomly initialized cell.
    pub fn random(
        input_size: usize,
        hidden_size: usize,
        rng: &mut DeterministicRng,
    ) -> Result<Self> {
        let update = Gate::random(
            hidden_size,
            input_size,
            hidden_size,
            Activation::Sigmoid,
            false,
            rng,
        )?;
        let reset = Gate::random(
            hidden_size,
            input_size,
            hidden_size,
            Activation::Sigmoid,
            false,
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
        GruCell::new(update, reset, candidate)
    }

    /// Number of neurons per gate.
    pub fn hidden_size(&self) -> usize {
        self.update.neurons()
    }

    /// Width of the expected input vector.
    pub fn input_size(&self) -> usize {
        self.update.input_size()
    }

    /// Borrows a gate by kind; returns `None` for LSTM-only kinds.
    pub fn gate(&self, kind: GateKind) -> Option<&Gate> {
        match kind {
            GateKind::Update => Some(&self.update),
            GateKind::Reset => Some(&self.reset),
            GateKind::Candidate => Some(&self.candidate),
            GateKind::Input | GateKind::Forget | GateKind::Output => None,
        }
    }

    /// The gate kinds this cell evaluates, in order.
    pub fn gate_kinds(&self) -> &'static [GateKind] {
        &GateKind::GRU
    }

    /// Total number of weights in the cell (all three gates).
    pub fn weight_count(&self) -> usize {
        GateKind::GRU
            .iter()
            .filter_map(|&k| self.gate(k))
            .map(Gate::weight_count)
            .sum()
    }

    /// Number of neuron evaluations performed per timestep.
    pub fn neuron_evaluations_per_step(&self) -> usize {
        self.hidden_size() * GateKind::GRU.len()
    }

    /// Advances the first `lanes` lanes of a batch by one timestep,
    /// writing the next lane-striped state into `next` and reusing the
    /// caller-owned `scratch`.  `xs` is lane-striped
    /// (`lanes * input_size`); `hoisted` supplies the
    /// pre-computed `W_x·x_t` projections, one lane-striped slice per
    /// gate in [`GateKind::GRU`] order (the candidate's *recurrent* half
    /// still uses the reset-modulated hidden state per timestep).
    /// Lanes never interact: lane `l`'s next state is bit-identical to
    /// a one-lane call over lane `l`'s vectors.
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
                    "batch state ({} lanes x {}) does not cover {} lanes of hidden size {}",
                    state.lanes(),
                    state.hidden(),
                    lanes,
                    hidden
                ),
            });
        }
        if hoisted.len() != GateKind::GRU.len() {
            return Err(RnnError::InvalidConfig {
                what: format!(
                    "hoisted projections cover {} gates, GRU needs {}",
                    hoisted.len(),
                    GateKind::GRU.len()
                ),
            });
        }
        let id = |kind| GateId::new(layer, direction, kind);
        let h_prev = state.h_prefix(lanes);
        let (zb, rb, gb) = scratch.bufs(lanes * hidden);
        self.update.evaluate_batch_into(
            id(GateKind::Update),
            timestep,
            lanes,
            xs,
            h_prev,
            None,
            hoisted[0],
            evaluator,
            zb,
        )?;
        self.reset.evaluate_batch_into(
            id(GateKind::Reset),
            timestep,
            lanes,
            xs,
            h_prev,
            None,
            hoisted[1],
            evaluator,
            rb,
        )?;
        // Reset-modulated hidden state, in place: rb = r_t ⊙ h_{t-1}.
        for (r, h) in rb.iter_mut().zip(h_prev.iter()) {
            *r *= h;
        }
        self.candidate.evaluate_batch_into(
            id(GateKind::Candidate),
            timestep,
            lanes,
            xs,
            rb,
            None,
            hoisted[2],
            evaluator,
            gb,
        )?;
        // h_t = (1 - z_t) ⊙ h_{t-1} + z_t ⊙ g_t
        for (n, h_next) in next.h_prefix_mut(lanes).iter_mut().enumerate() {
            *h_next = (1.0 - zb[n]) * h_prev[n] + zb[n] * gb[n];
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
    use nfm_tensor::kernels::matmul_into;
    use nfm_tensor::Vector;

    fn cell(input: usize, hidden: usize, seed: u64) -> GruCell {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        GruCell::random(input, hidden, &mut rng).unwrap()
    }

    #[test]
    fn random_cell_dimensions() {
        let c = cell(5, 3, 1);
        assert_eq!(c.hidden_size(), 3);
        assert_eq!(c.input_size(), 5);
        assert_eq!(c.neuron_evaluations_per_step(), 9);
        assert_eq!(c.weight_count(), 3 * 3 * (5 + 3));
        assert!(c.gate(GateKind::Update).is_some());
        assert!(c.gate(GateKind::Forget).is_none());
        assert_eq!(c.gate_kinds().len(), 3);
    }

    #[test]
    fn hidden_state_stays_bounded() {
        let c = cell(4, 6, 2);
        let net = DeepRnn::new(vec![Layer::new(0, Cell::Gru(c), None).unwrap()], None).unwrap();
        let mut eval = ExactEvaluator::new();
        let mut rng = DeterministicRng::seed_from_u64(5);
        let xs: Vec<Vector> = (0..30)
            .map(|_| Vector::from_fn(4, |_| rng.uniform(-2.0, 2.0)))
            .collect();
        for h in net.run(&xs, &mut eval).unwrap() {
            // h is a convex combination of the previous h and tanh output,
            // so it remains within [-1, 1].
            assert!(h.norm_inf() <= 1.0 + 1e-5);
        }
        assert_eq!(eval.evaluations(), 30 * 18);
    }

    #[test]
    fn update_gate_closed_keeps_previous_state() {
        // Force z_t ≈ 0 with a huge negative bias: h_t must equal h_{t-1}.
        let mut rng = DeterministicRng::seed_from_u64(3);
        let mk = |act, bias: f32, rng: &mut DeterministicRng| {
            let wx = nfm_tensor::init::Initializer::XavierUniform.matrix(rng, 3, 3);
            let wh = nfm_tensor::init::Initializer::XavierUniform.matrix(rng, 3, 3);
            Gate::new(wx, wh, Vector::filled(3, bias), None, act).unwrap()
        };
        let update = mk(Activation::Sigmoid, -40.0, &mut rng);
        let reset = mk(Activation::Sigmoid, 0.0, &mut rng);
        let candidate = mk(Activation::Tanh, 0.0, &mut rng);
        let cell = GruCell::new(update, reset, candidate).unwrap();
        let prev = [0.3, -0.2, 0.5];
        let x = [1.0, 2.0, -1.0];
        let mut state = BatchState::zeros(1, 3);
        state.h_prefix_mut(1).copy_from_slice(&prev);
        let hoisted: Vec<Vec<f32>> = GateKind::GRU
            .iter()
            .map(|&k| {
                let mut fwd = vec![0.0; 3];
                matmul_into(cell.gate(k).unwrap().wx(), &x, 1, &mut fwd).unwrap();
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

    #[test]
    fn step_batch_into_rejects_bad_widths() {
        let c = cell(4, 4, 9);
        let mut eval = ExactEvaluator::new();
        let mut scratch = BatchScratch::new();
        let fwd = [0.0f32; 4];
        let hoisted = [&fwd[..]; 3];
        let state = BatchState::zeros(1, 4);
        let mut step = |lanes, xs: &[f32], state: &BatchState, hidden, hoisted: &[&[f32]]| {
            let next = &mut BatchState::zeros(1, hidden);
            let (s, e) = (&mut scratch, &mut eval);
            c.step_batch_into(0, 0, 0, lanes, xs, state, next, s, hoisted, e)
        };
        assert!(step(1, &[0.0; 4], &state, 4, &hoisted).is_ok());
        assert!(step(1, &[0.0; 2], &state, 4, &hoisted).is_err());
        assert!(step(1, &[0.0; 4], &BatchState::zeros(1, 3), 4, &hoisted).is_err());
        assert!(step(1, &[0.0; 4], &state, 3, &hoisted).is_err());
        assert!(step(2, &[0.0; 8], &state, 4, &hoisted).is_err());
        assert!(step(1, &[0.0; 4], &state, 4, &hoisted[..2]).is_err());
    }

    #[test]
    fn new_rejects_mismatched_gates() {
        let mut rng = DeterministicRng::seed_from_u64(13);
        let good = Gate::random(4, 4, 4, Activation::Sigmoid, false, &mut rng).unwrap();
        let good2 = Gate::random(4, 4, 4, Activation::Sigmoid, false, &mut rng).unwrap();
        let bad = Gate::random(4, 5, 4, Activation::Tanh, false, &mut rng).unwrap();
        assert!(GruCell::new(good, good2, bad).is_err());
    }
}
