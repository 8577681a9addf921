//! The neuron evaluation hook where fuzzy memoization plugs in.
//!
//! Inference has one path — lane-striped batches, a single sequence
//! being a batch of one — and evaluators see it at one altitude:
//! [`NeuronEvaluator::evaluate_gate_batch`], one whole gate across every
//! active lane per call, with the input half `W_x·x_t` already hoisted
//! into [`GateBatch::fwd`].  Each built-in evaluator writes its policy
//! once, there: the exact baseline adds the recurrent half in one tiled
//! product, and the memoizing evaluators (`nfm-core`) decide every lane
//! against its own memo table.  A custom policy that thinks one neuron
//! at a time implements the same method through [`evaluate_neurons`],
//! which loops lanes × neurons and hands each neuron its `x_t`,
//! `h_{t-1}` and hoisted `W_x[n]·x_t`.
//!
//! Correctness is pinned from outside: the memoizing evaluators against
//! the independent memoized reference (`nfm_eval::reference`), every
//! evaluator against its own one-lane run for lane and scheduler
//! invariance, and the exact path against the independent `f64`
//! reference.

use crate::gate::{Gate, GateId};
use crate::Result;
use nfm_tensor::kernels::matmul_add_into;

/// Identifies one neuron evaluation of a gate call: which gate, which
/// lane, which neuron of that gate, and at which timestep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NeuronRef {
    /// The gate being evaluated.
    pub gate_id: GateId,
    /// The lane whose sequence the neuron belongs to.
    pub lane: usize,
    /// Row index of the neuron inside the gate.
    pub neuron: usize,
    /// The driver's step counter (see [`GateBatch::timestep`]).
    pub timestep: usize,
}

/// The borrowed arguments of one
/// [`NeuronEvaluator::evaluate_gate_batch`] call: one gate, one
/// timestep, every active lane.
///
/// `xs`, `h_prevs`, `fwd` and the call's `out` buffer are
/// **lane-striped**: lane `l`'s vector occupies
/// `[l * width .. (l + 1) * width]` of the flat slice (widths:
/// `gate.input_size()`, `gate.hidden_size()`, and `gate.neurons()` for
/// both `fwd` and `out`).
#[derive(Debug, Clone, Copy)]
pub struct GateBatch<'a> {
    /// The gate being evaluated.
    pub gate_id: GateId,
    /// The driver's step counter.  All lanes share it; under the block
    /// scheduler lanes sit at different positions of their own
    /// sequences, so it is not a per-lane sequence index.
    pub timestep: usize,
    /// Number of active lanes.
    pub lanes: usize,
    /// The gate's weights.
    pub gate: &'a Gate,
    /// Forward inputs `x_t`, lane-striped.
    pub xs: &'a [f32],
    /// Recurrent inputs `h_{t-1}`, lane-striped.
    pub h_prevs: &'a [f32],
    /// The hoisted input projections `W_x[n]·xs[l]`, lane-striped and
    /// produced with the shared reduction order, so an evaluator only
    /// adds the recurrent half (`out = fwd + W_h·h`).
    pub fwd: &'a [f32],
}

/// Strategy for producing a gate's pre-activation dot products
/// `W_x[n]·x_t + W_h[n]·h_{t-1}`.
///
/// This is the exact boundary at which the paper's scheme operates: the
/// E-PUR dot-product unit (DPU) computes this value in the baseline,
/// while the fuzzy memoization unit (FMU) may instead return a recently
/// cached value and skip the DPU entirely.  Implementations decide, per
/// neuron and per timestep, whether to compute or reuse.
///
/// Bias, peephole and activation are *not* the evaluator's concern; the
/// cell applies them afterwards (they are computed by the multi-functional
/// unit in the accelerator and are never skipped).
///
/// A driver calls [`begin_batch`](NeuronEvaluator::begin_batch) once,
/// [`begin_lane_sequence`](NeuronEvaluator::begin_lane_sequence) when a
/// lane starts a sequence, then
/// [`evaluate_gate_batch`](NeuronEvaluator::evaluate_gate_batch) per
/// gate per step, and
/// [`swap_lane_state`](NeuronEvaluator::swap_lane_state) whenever it
/// reorders lanes.
pub trait NeuronEvaluator {
    /// Produces the pre-activation dot products for every neuron of
    /// `call.gate` across `call.lanes` independent sequences at once,
    /// writing them lane-striped into the caller-owned `out`
    /// (`out.len() == call.lanes * call.gate.neurons()`, guaranteed by
    /// [`Gate::evaluate_batch_into`]).
    ///
    /// Lanes are independent sequences: an evaluator that keeps state
    /// across timesteps keeps it per lane, so that every lane's result
    /// equals the same sequence run alone.  A per-neuron policy
    /// implements this through [`evaluate_neurons`].
    ///
    /// # Errors
    ///
    /// Returns an error if the input widths are inconsistent with the
    /// gate.
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> Result<()>;

    /// Called once before a run so implementations can size per-lane
    /// state for `lanes` lanes (e.g. one memoization table per lane).
    /// The default is a no-op.
    fn begin_batch(&mut self, lanes: usize) {
        let _ = lanes;
    }

    /// Called when lane `lane` starts a fresh input sequence, so its
    /// state can be reset (memoization tables are cold at the start of
    /// a sequence).  The default is a no-op.
    fn begin_lane_sequence(&mut self, lane: usize) {
        let _ = lane;
    }

    /// Exchanges all per-lane state between lanes `a` and `b` (memo
    /// tables, per-lane statistics, …).
    ///
    /// The lane scheduler ([`LaneScheduler`](crate::LaneScheduler))
    /// calls this when it re-sorts or compacts its lanes: lanes are
    /// kept a contiguous prefix ordered by descending remaining length,
    /// and a moved lane's memoization state must move with it.
    /// Evaluators that keep per-lane state must override this; the
    /// default is a no-op, which is correct for stateless evaluators.
    fn swap_lane_state(&mut self, a: usize, b: usize) {
        let _ = (a, b);
    }
}

/// A gate entry written one neuron at a time: calls `neuron` for every
/// `(lane, neuron)` of `call`, lane-outer, with the neuron's
/// [`NeuronRef`], its lane's `x_t` and `h_{t-1}`, and its hoisted
/// `W_x[n]·x_t`, and stores the returned value in `out`.
///
/// `fwd + W_h[n]·h_{t-1}` (through [`Matrix::row_dot`](nfm_tensor::Matrix::row_dot))
/// is bit for bit the exact evaluator's value.
///
/// # Errors
///
/// Propagates the first error `neuron` returns.
pub fn evaluate_neurons(
    call: &GateBatch<'_>,
    out: &mut [f32],
    mut neuron: impl FnMut(NeuronRef, &[f32], &[f32], f32) -> Result<f32>,
) -> Result<()> {
    let gate = call.gate;
    let (isz, hsz, nsz) = (gate.input_size(), gate.hidden_size(), gate.neurons());
    debug_assert_eq!(out.len(), call.lanes * nsz);
    for l in 0..call.lanes {
        let x = &call.xs[l * isz..(l + 1) * isz];
        let h_prev = &call.h_prevs[l * hsz..(l + 1) * hsz];
        let at = l * nsz..(l + 1) * nsz;
        for (n, (slot, &fwd)) in out[at.clone()].iter_mut().zip(&call.fwd[at]).enumerate() {
            let id = NeuronRef {
                gate_id: call.gate_id,
                lane: l,
                neuron: n,
                timestep: call.timestep,
            };
            *slot = neuron(id, x, h_prev, fwd)?;
        }
    }
    Ok(())
}

/// The baseline evaluator: always computes the exact dot products.
///
/// Corresponds to the unmodified E-PUR accelerator.  Its gate entry is
/// one lane-striped matrix product: the recurrent half added to the
/// hoisted input projections.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactEvaluator {
    evaluations: u64,
}

impl ExactEvaluator {
    /// Creates a new exact evaluator.
    pub fn new() -> Self {
        ExactEvaluator { evaluations: 0 }
    }

    /// Number of neuron evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

impl NeuronEvaluator for ExactEvaluator {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> Result<()> {
        matmul_add_into(call.gate.wh(), call.h_prevs, call.lanes, call.fwd, out)?;
        self.evaluations += out.len() as u64;
        Ok(())
    }
}

/// An instrumented evaluator that wraps another one and counts its
/// neuron evaluations and sequence starts; used by the evaluation
/// harness and by tests.
#[derive(Debug)]
pub struct CountingEvaluator<E> {
    inner: E,
    calls: u64,
    sequences: u64,
}

impl<E: NeuronEvaluator> CountingEvaluator<E> {
    /// Wraps `inner`.
    pub fn new(inner: E) -> Self {
        CountingEvaluator {
            inner,
            calls: 0,
            sequences: 0,
        }
    }

    /// Total neuron evaluations observed (gate calls count one per
    /// neuron per lane they cover).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Total `begin_lane_sequence` calls observed.
    pub fn sequences(&self) -> u64 {
        self.sequences
    }

    /// Returns the wrapped evaluator.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// Borrows the wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: NeuronEvaluator> NeuronEvaluator for CountingEvaluator<E> {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> Result<()> {
        self.calls += out.len() as u64;
        self.inner.evaluate_gate_batch(call, out)
    }

    fn begin_batch(&mut self, lanes: usize) {
        self.inner.begin_batch(lanes);
    }

    fn begin_lane_sequence(&mut self, lane: usize) {
        self.sequences += 1;
        self.inner.begin_lane_sequence(lane);
    }

    fn swap_lane_state(&mut self, a: usize, b: usize) {
        self.inner.swap_lane_state(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use nfm_tensor::activation::Activation;
    use nfm_tensor::{Matrix, Vector};

    fn gate() -> Gate {
        Gate::new(
            Matrix::from_rows(vec![vec![1.0, 2.0], vec![-1.0, 0.5]]).unwrap(),
            Matrix::from_rows(vec![vec![3.0], vec![0.25]]).unwrap(),
            Vector::zeros(2),
            None,
            Activation::Identity,
        )
        .unwrap()
    }

    /// Two lanes over `x = [1, 1] / [2, -1]`, `h = [2] / [-4]`, with the
    /// hoisted `W_x·x` of each (`[3, -0.5]` and `[0, -2.5]`).
    fn call(gate: &Gate) -> GateBatch<'_> {
        GateBatch {
            gate_id: GateId::new(0, 0, GateKind::Input),
            timestep: 5,
            lanes: 2,
            gate,
            xs: &[1.0, 1.0, 2.0, -1.0],
            h_prevs: &[2.0, -4.0],
            fwd: &[3.0, -0.5, 0.0, -2.5],
        }
    }

    #[test]
    fn exact_evaluator_adds_the_recurrent_half_to_the_hoisted_one() {
        let g = gate();
        let mut e = ExactEvaluator::new();
        let mut out = [0.0f32; 4];
        e.evaluate_gate_batch(&call(&g), &mut out).unwrap();
        assert_eq!(out, [3.0 + 6.0, -0.5 + 0.5, -12.0, -2.5 - 1.0]);
        assert_eq!(e.evaluations(), 4);
    }

    #[test]
    fn exact_evaluator_propagates_shape_errors() {
        let g = gate();
        let mut e = ExactEvaluator::new();
        let mut out = [0.0f32; 4];
        let short = GateBatch {
            h_prevs: &[2.0],
            ..call(&g)
        };
        assert!(e.evaluate_gate_batch(&short, &mut out).is_err());
    }

    #[test]
    fn evaluate_neurons_visits_every_lane_and_neuron_with_its_inputs() {
        let g = gate();
        let c = call(&g);
        let mut seen = Vec::new();
        let mut out = [0.0f32; 4];
        evaluate_neurons(&c, &mut out, |id, x, h, fwd| {
            seen.push((id, x.to_vec(), h.to_vec(), fwd));
            Ok(fwd + g.wh().row_dot(id.neuron, h)?)
        })
        .unwrap();
        let mut exact = [0.0f32; 4];
        ExactEvaluator::new()
            .evaluate_gate_batch(&c, &mut exact)
            .unwrap();
        assert_eq!(out.map(f32::to_bits), exact.map(f32::to_bits));
        let at = |lane, neuron| NeuronRef {
            gate_id: c.gate_id,
            lane,
            neuron,
            timestep: 5,
        };
        assert_eq!(
            seen,
            vec![
                (at(0, 0), vec![1.0, 1.0], vec![2.0], 3.0),
                (at(0, 1), vec![1.0, 1.0], vec![2.0], -0.5),
                (at(1, 0), vec![2.0, -1.0], vec![-4.0], 0.0),
                (at(1, 1), vec![2.0, -1.0], vec![-4.0], -2.5),
            ]
        );
    }

    #[test]
    fn counting_evaluator_tracks_calls_and_sequences() {
        let g = gate();
        let mut e = CountingEvaluator::new(ExactEvaluator::new());
        e.begin_lane_sequence(0);
        let mut out = [0.0f32; 4];
        e.evaluate_gate_batch(&call(&g), &mut out).unwrap();
        e.evaluate_gate_batch(&call(&g), &mut out).unwrap();
        assert_eq!(e.calls(), 8);
        assert_eq!(e.sequences(), 1);
        assert_eq!(e.inner().evaluations(), 8);
        assert_eq!(e.into_inner().evaluations(), 8);
    }
}
