//! Fully-connected gates: the unit of work the paper memoizes.

use crate::error::RnnError;
use crate::evaluator::{GateBatch, NeuronEvaluator};
use crate::Result;
use nfm_tensor::activation::Activation;
use nfm_tensor::init::Initializer;
use nfm_tensor::kernels;
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::{Matrix, Vector};

/// Which gate of a cell a set of weights belongs to.
///
/// LSTM cells use `Input`, `Forget`, `Candidate` (called the *updater*
/// gate `g_t` in the paper) and `Output`; GRU cells use `Update`, `Reset`
/// and `Candidate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// LSTM input gate `i_t` (Equation 1).
    Input,
    /// LSTM forget gate `f_t` (Equation 2).
    Forget,
    /// Candidate / updater gate `g_t` (Equation 3); also the GRU candidate.
    Candidate,
    /// LSTM output gate `o_t` (Equation 5).
    Output,
    /// GRU update gate `z_t`.
    Update,
    /// GRU reset gate `r_t`.
    Reset,
}

impl GateKind {
    /// All gate kinds used by an LSTM cell, in evaluation order.
    pub const LSTM: [GateKind; 4] = [
        GateKind::Input,
        GateKind::Forget,
        GateKind::Candidate,
        GateKind::Output,
    ];

    /// All gate kinds used by a GRU cell, in evaluation order.
    pub const GRU: [GateKind; 3] = [GateKind::Update, GateKind::Reset, GateKind::Candidate];

    /// Total number of gate kinds across both cell types.
    pub const COUNT: usize = 6;

    /// Stable dense index of the kind in `0..GateKind::COUNT`, used to
    /// key flat per-gate tables without hashing.
    pub fn index(self) -> usize {
        match self {
            GateKind::Input => 0,
            GateKind::Forget => 1,
            GateKind::Candidate => 2,
            GateKind::Output => 3,
            GateKind::Update => 4,
            GateKind::Reset => 5,
        }
    }

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Input => "input",
            GateKind::Forget => "forget",
            GateKind::Candidate => "candidate",
            GateKind::Output => "output",
            GateKind::Update => "update",
            GateKind::Reset => "reset",
        }
    }
}

/// Stable identifier of a gate inside a deep (possibly bidirectional)
/// network: `(layer, direction slot, gate kind)`.
///
/// The memoization machinery keys its per-neuron tables with
/// `(GateId, neuron index)`, which matches the paper's hardware where each
/// computation unit owns the memoization buffer for the gate it evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateId {
    /// Index of the layer in the deep stack.
    pub layer: usize,
    /// 0 for the forward cell, 1 for the backward cell of a bidirectional
    /// layer.
    pub direction: usize,
    /// Which gate of the cell.
    pub kind: GateKind,
}

impl GateId {
    /// Creates a new gate identifier.
    pub fn new(layer: usize, direction: usize, kind: GateKind) -> Self {
        GateId {
            layer,
            direction,
            kind,
        }
    }

    /// Dense index of the gate inside a network:
    /// `(layer * 2 + direction) * GateKind::COUNT + kind`.
    ///
    /// The memoization buffer uses this to replace hashing with plain
    /// array indexing on the hot path (directions are always 0 or 1).
    pub fn dense_index(self) -> usize {
        debug_assert!(self.direction < 2, "directions are 0 (fwd) or 1 (bwd)");
        (self.layer * 2 + self.direction) * GateKind::COUNT + self.kind.index()
    }
}

/// A fully-connected, single-layer gate with forward and recurrent
/// connections, bias, optional peephole weights and an activation.
///
/// Each *row* of the two weight matrices belongs to one neuron; the
/// pre-activation of neuron `n` at timestep `t` is
/// `W_x[n]·x_t + W_h[n]·h_{t-1}` — this is the quantity that flows
/// through a [`NeuronEvaluator`] and that the fuzzy memoization scheme
/// either computes or reuses.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    wx: Matrix,
    wh: Matrix,
    bias: Vector,
    peephole: Option<Vector>,
    activation: Activation,
}

impl Gate {
    /// Creates a gate from explicit weights.
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::InvalidConfig`] if the matrix/vector shapes are
    /// inconsistent (both matrices must have the same number of rows, the
    /// bias and peephole must have one entry per row, and `wh` must be
    /// square unless the layer projects to a different hidden size).
    pub fn new(
        wx: Matrix,
        wh: Matrix,
        bias: Vector,
        peephole: Option<Vector>,
        activation: Activation,
    ) -> Result<Self> {
        if wx.rows() != wh.rows() {
            return Err(RnnError::InvalidConfig {
                what: format!(
                    "forward and recurrent weight matrices disagree on neuron count: {} vs {}",
                    wx.rows(),
                    wh.rows()
                ),
            });
        }
        if bias.len() != wx.rows() {
            return Err(RnnError::InvalidConfig {
                what: format!(
                    "bias length {} does not match neuron count {}",
                    bias.len(),
                    wx.rows()
                ),
            });
        }
        if let Some(p) = &peephole {
            if p.len() != wx.rows() {
                return Err(RnnError::InvalidConfig {
                    what: format!(
                        "peephole length {} does not match neuron count {}",
                        p.len(),
                        wx.rows()
                    ),
                });
            }
        }
        Ok(Gate {
            wx,
            wh,
            bias,
            peephole,
            activation,
        })
    }

    /// Creates a randomly initialized gate with `neurons` outputs,
    /// `input_size` forward inputs and `hidden_size` recurrent inputs.
    pub fn random(
        neurons: usize,
        input_size: usize,
        hidden_size: usize,
        activation: Activation,
        peephole: bool,
        rng: &mut DeterministicRng,
    ) -> Result<Self> {
        if neurons == 0 || input_size == 0 || hidden_size == 0 {
            return Err(RnnError::InvalidConfig {
                what: "gate dimensions must be positive".into(),
            });
        }
        let wx = Initializer::XavierUniform.matrix(rng, neurons, input_size);
        let wh = Initializer::XavierUniform.matrix(rng, neurons, hidden_size);
        let bias = Initializer::Uniform { bound: 0.05 }.vector(rng, neurons);
        let peephole = if peephole {
            Some(Initializer::Uniform { bound: 0.1 }.vector(rng, neurons))
        } else {
            None
        };
        Gate::new(wx, wh, bias, peephole, activation)
    }

    /// Number of neurons (rows) in the gate.
    pub fn neurons(&self) -> usize {
        self.wx.rows()
    }

    /// Width of the forward input `x_t`.
    pub fn input_size(&self) -> usize {
        self.wx.cols()
    }

    /// Width of the recurrent input `h_{t-1}`.
    pub fn hidden_size(&self) -> usize {
        self.wh.cols()
    }

    /// Forward-connection weight matrix (`neurons x input_size`).
    pub fn wx(&self) -> &Matrix {
        &self.wx
    }

    /// Recurrent-connection weight matrix (`neurons x hidden_size`).
    pub fn wh(&self) -> &Matrix {
        &self.wh
    }

    /// Bias vector.
    pub fn bias(&self) -> &Vector {
        &self.bias
    }

    /// Peephole weights, if the gate has them.
    pub fn peephole(&self) -> Option<&Vector> {
        self.peephole.as_ref()
    }

    /// Activation function applied after bias/peephole.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Total number of weights in the gate.
    pub fn weight_count(&self) -> usize {
        self.wx.element_count() + self.wh.element_count()
    }

    /// A gate with peephole weights finished without a cell state would
    /// silently drop its peephole term; that is a caller bug.
    #[track_caller]
    fn debug_assert_cell_state(&self, kind: GateKind, has_cell_state: bool) {
        debug_assert!(
            has_cell_state || self.peephole.is_none(),
            "{} gate has peephole weights but was finished without c_prev",
            kind.name()
        );
    }

    /// Completes a gate evaluation in place for any number of lanes:
    /// `pre` holds the lane-striped dot products (as they arrive from
    /// [`NeuronEvaluator::evaluate_gate_batch`]) and leaves as the gate
    /// output.  Bias and the optional peephole contribution are added
    /// lane by lane — `(dot + bias) + p * c` — then one
    /// [`kernels::activate_into`] call activates the whole slice.  `kind`
    /// names the gate in diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `pre.len()` is not a multiple of `self.neurons()` or
    /// `c_prev` is present with a different length; in debug builds also
    /// if the gate has peephole weights and `c_prev` is `None`.
    pub fn finish_into(&self, kind: GateKind, pre: &mut [f32], c_prev: Option<&[f32]>) {
        self.debug_assert_cell_state(kind, c_prev.is_some());
        // (`max(1)`: a zero-neuron gate has only the empty output.)
        let neurons = self.neurons().max(1);
        assert_eq!(pre.len() % neurons, 0, "gate output width mismatch");
        let bias = self.bias.as_slice();
        match (&self.peephole, c_prev) {
            (Some(p), Some(c)) => {
                assert_eq!(c.len(), pre.len(), "cell state width mismatch");
                let p = p.as_slice();
                for (pre, c) in pre.chunks_exact_mut(neurons).zip(c.chunks_exact(neurons)) {
                    for ((v, b), (p, c)) in pre.iter_mut().zip(bias).zip(p.iter().zip(c)) {
                        *v = *v + b + p * c;
                    }
                }
            }
            _ => {
                for pre in pre.chunks_exact_mut(neurons) {
                    for (v, b) in pre.iter_mut().zip(bias) {
                        *v += b;
                    }
                }
            }
        }
        kernels::activate_into(self.activation, pre);
    }

    /// Evaluates the whole gate for one timestep across `lanes`
    /// independent sequences into a caller-owned lane-striped buffer.
    ///
    /// `xs`/`h_prevs`/`c_prevs`/`out` are lane-striped (`lanes *` the
    /// respective width) and lanes never interact: lane `l`'s result is
    /// bit-identical to a one-lane call over lane `l`'s vectors.  `fwd`
    /// holds the hoisted input projections `W_x[n]·xs[l]`
    /// (lane-striped, `lanes * neurons`).  The dot products go through
    /// one [`NeuronEvaluator::evaluate_gate_batch`] call, then
    /// bias/peephole/activation are applied in place.
    ///
    /// # Errors
    ///
    /// Returns an error if the input widths do not match the gate shape.
    ///
    /// # Panics
    ///
    /// Panics if `fwd.len()` or `out.len()` is not
    /// `lanes * self.neurons()`.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_batch_into(
        &self,
        gate_id: GateId,
        timestep: usize,
        lanes: usize,
        xs: &[f32],
        h_prevs: &[f32],
        c_prevs: Option<&[f32]>,
        fwd: &[f32],
        evaluator: &mut dyn NeuronEvaluator,
        out: &mut [f32],
    ) -> Result<()> {
        if xs.len() != lanes * self.input_size() {
            return Err(RnnError::InputSizeMismatch {
                expected: lanes * self.input_size(),
                found: xs.len(),
                timestep,
            });
        }
        if h_prevs.len() != lanes * self.hidden_size() {
            return Err(RnnError::InputSizeMismatch {
                expected: lanes * self.hidden_size(),
                found: h_prevs.len(),
                timestep,
            });
        }
        let neurons = self.neurons();
        assert_eq!(out.len(), lanes * neurons, "gate output width mismatch");
        assert_eq!(
            fwd.len(),
            lanes * neurons,
            "hoisted projection width mismatch"
        );
        let call = GateBatch {
            gate_id,
            timestep,
            lanes,
            gate: self,
            xs,
            h_prevs,
            fwd,
        };
        evaluator.evaluate_gate_batch(&call, out)?;
        self.finish_into(gate_id.kind, out, c_prevs);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::ExactEvaluator;

    fn small_gate(peephole: bool) -> Gate {
        let wx = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let wh = Matrix::from_rows(vec![vec![0.5, 0.0], vec![0.0, 0.5]]).unwrap();
        let bias = Vector::from(vec![0.0, 0.1]);
        let p = if peephole {
            Some(Vector::from(vec![0.2, 0.2]))
        } else {
            None
        };
        Gate::new(wx, wh, bias, p, Activation::Identity).unwrap()
    }

    #[test]
    fn new_validates_shapes() {
        let wx = Matrix::zeros(2, 3);
        let wh = Matrix::zeros(3, 2);
        let bias = Vector::zeros(2);
        assert!(matches!(
            Gate::new(wx, wh, bias, None, Activation::Sigmoid),
            Err(RnnError::InvalidConfig { .. })
        ));
        let wx = Matrix::zeros(2, 3);
        let wh = Matrix::zeros(2, 2);
        let bias = Vector::zeros(3);
        assert!(Gate::new(wx, wh, bias, None, Activation::Sigmoid).is_err());
        let wx = Matrix::zeros(2, 3);
        let wh = Matrix::zeros(2, 2);
        let bias = Vector::zeros(2);
        let peephole = Some(Vector::zeros(5));
        assert!(Gate::new(wx, wh, bias, peephole, Activation::Sigmoid).is_err());
    }

    #[test]
    fn random_gate_has_requested_shape() {
        let mut rng = DeterministicRng::seed_from_u64(3);
        let g = Gate::random(4, 6, 4, Activation::Sigmoid, true, &mut rng).unwrap();
        assert_eq!(g.neurons(), 4);
        assert_eq!(g.input_size(), 6);
        assert_eq!(g.hidden_size(), 4);
        assert_eq!(g.weight_count(), 40);
        assert!(g.peephole().is_some());
        assert!(Gate::random(0, 1, 1, Activation::Sigmoid, false, &mut rng).is_err());
    }

    #[test]
    fn finish_into_applies_bias_peephole_activation() {
        // neuron 1: dot 3.0 + bias 0.1 + peephole 0.2*2.0 = 3.5, identity activation
        let mut out = [0.0, 3.0];
        small_gate(true).finish_into(GateKind::Input, &mut out, Some(&[1.0, 2.0]));
        assert!((out[1] - 3.5).abs() < 1e-6);
        // A gate without peephole weights needs no cell state.
        let mut out = [0.0, 3.0];
        small_gate(false).finish_into(GateKind::Candidate, &mut out, None);
        assert!((out[1] - 3.1).abs() < 1e-6);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "forget gate has peephole weights")]
    fn finishing_a_peephole_gate_without_cell_state_is_a_bug() {
        small_gate(true).finish_into(GateKind::Forget, &mut [0.0, 0.0], None);
    }

    #[test]
    fn finish_into_is_the_scalar_neuron_formula_bitwise_on_every_lane() {
        let mut rng = DeterministicRng::seed_from_u64(9);
        for activation in [Activation::Sigmoid, Activation::Tanh] {
            let g = Gate::random(5, 3, 5, activation, true, &mut rng).unwrap();
            let dots: Vec<f32> = (0..15).map(|_| rng.uniform(-4.0, 4.0)).collect();
            let cs: Vec<f32> = (0..15).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let mut out = dots.clone();
            g.finish_into(GateKind::Input, &mut out, Some(&cs));
            let (b, p) = (g.bias(), g.peephole().unwrap());
            for l in 0..3 {
                for n in 0..5 {
                    let (dot, c) = (dots[l * 5 + n], cs[l * 5 + n]);
                    let y = activation.apply((dot + b[n]) + p[n] * c);
                    assert_eq!(out[l * 5 + n].to_bits(), y.to_bits(), "lane {l} neuron {n}");
                }
            }
        }
    }

    #[test]
    fn evaluate_batch_routes_through_evaluator_per_lane() {
        let g = small_gate(true);
        let id = GateId::new(0, 0, GateKind::Input);
        // Two lanes; lane 1 also exercises the peephole term.
        let xs = [1.0, 2.0, 0.0, 1.0];
        let hs = [2.0, 2.0, 4.0, 0.0];
        let cs = [0.0, 0.0, 1.0, 2.0];
        // W_x·x per lane: [1, 2] and [0, 1].
        let fwd = [1.0, 2.0, 0.0, 1.0];
        let mut eval = ExactEvaluator::new();
        let mut out = [0.0f32; 4];
        g.evaluate_batch_into(id, 0, 2, &xs, &hs, Some(&cs), &fwd, &mut eval, &mut out)
            .unwrap();
        // lane 0: 1.0*1 + 0.5*2 = 2.0 (bias 0); 2.0 + 1.0 + bias 0.1
        assert!((out[0] - 2.0).abs() < 1e-6);
        assert!((out[1] - 3.1).abs() < 1e-6);
        // lane 1: 0 + 0.5*4 + 0.2*1; 1.0 + 0 + bias 0.1 + 0.2*2
        assert!((out[2] - 2.2).abs() < 1e-6);
        assert!((out[3] - 1.5).abs() < 1e-6);
        assert_eq!(eval.evaluations(), 4);
    }

    #[test]
    fn evaluate_batch_rejects_wrong_widths() {
        let g = small_gate(false);
        let mut eval = ExactEvaluator::new();
        let id = GateId::new(0, 0, GateKind::Input);
        let mut out = [0.0f32; 2];
        assert!(matches!(
            g.evaluate_batch_into(
                id,
                0,
                1,
                &[1.0],
                &[1.0, 1.0],
                None,
                &[0.0, 0.0],
                &mut eval,
                &mut out
            ),
            Err(RnnError::InputSizeMismatch { .. })
        ));
        assert!(g
            .evaluate_batch_into(
                id,
                0,
                1,
                &[1.0, 1.0],
                &[1.0],
                None,
                &[0.0, 0.0],
                &mut eval,
                &mut out
            )
            .is_err());
    }

    #[test]
    fn gate_kind_lists_and_names() {
        assert_eq!(GateKind::LSTM.len(), 4);
        assert_eq!(GateKind::GRU.len(), 3);
        assert_eq!(GateKind::Forget.name(), "forget");
        assert_eq!(GateKind::Update.name(), "update");
    }

    #[test]
    fn gate_id_equality_and_hash() {
        use std::collections::HashSet;
        let a = GateId::new(1, 0, GateKind::Input);
        let b = GateId::new(1, 0, GateKind::Input);
        let c = GateId::new(1, 1, GateKind::Input);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: HashSet<GateId> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
