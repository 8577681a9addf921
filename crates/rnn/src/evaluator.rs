//! The neuron evaluation hook where fuzzy memoization plugs in.
//!
//! Inference has one path — lane-striped batches, a single sequence
//! being a batch of one — and evaluators see it at two altitudes:
//!
//! * [`NeuronEvaluator::evaluate`] — one neuron at a time, the boundary
//!   the paper describes (the FMU intercepting one DPU operation).  It
//!   is the only method an evaluator must implement, and through the
//!   trait default and [`PerNeuronEvaluator`] it is the independent
//!   reference every equivalence suite compares against;
//! * [`NeuronEvaluator::evaluate_gate_batch`] — one whole gate across
//!   every active lane per call, the granularity the drivers run at.
//!   The default loops lanes × neurons over `evaluate`; the built-in
//!   evaluators override it with fused, allocation-free kernels and
//!   per-lane memoization state.
//!
//! The two are contractually **bit-identical**: every built-in override
//! performs the same floating-point operations in the same order as the
//! per-neuron default (see the `batched_equivalence` integration
//! tests).

use crate::gate::{Gate, GateId};
use crate::Result;
use nfm_tensor::kernels::{dual_matmul_into, matmul_add_into};

/// Identifies one neuron evaluation: which gate, which neuron of that
/// gate, and at which timestep of the current sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NeuronRef {
    /// The gate being evaluated.
    pub gate_id: GateId,
    /// Row index of the neuron inside the gate.
    pub neuron: usize,
    /// Index of the current element in the input sequence.
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
    /// produced with the shared reduction order — `Some` exactly when
    /// the evaluator's
    /// [`supports_input_hoisting`](NeuronEvaluator::supports_input_hoisting)
    /// returned `true`, so an override only adds the recurrent half
    /// (`out = fwd + W_h·h`, the scalar order of the fused kernel).
    pub fwd: Option<&'a [f32]>,
}

/// Strategy for producing a neuron's pre-activation dot product
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
    /// Produces the pre-activation dot product for `neuron`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input widths are inconsistent with the
    /// gate (exact evaluation performs dimension-checked dot products).
    fn evaluate(
        &mut self,
        neuron: NeuronRef,
        gate: &Gate,
        x: &[f32],
        h_prev: &[f32],
    ) -> Result<f32>;

    /// Produces the pre-activation dot products for every neuron of
    /// `call.gate` across `call.lanes` independent sequences at once,
    /// writing them lane-striped into the caller-owned `out`
    /// (`out.len() == call.lanes * call.gate.neurons()`, guaranteed by
    /// [`Gate::evaluate_batch_into`]).
    ///
    /// The default routes every `(lane, neuron)` through
    /// [`evaluate`](NeuronEvaluator::evaluate), ignoring `call.fwd`, so
    /// a custom evaluator only has to implement that one method; note
    /// that a *stateful* custom evaluator (one that memoizes across
    /// timesteps) sees every lane through the same shared state under
    /// this default and should override this method for per-lane
    /// isolation when driven with more than one lane.  Built-in
    /// evaluators override it with lane-striped kernels (one weight
    /// stream serving all lanes) and per-lane memoization tables;
    /// overrides must keep every lane bit-identical to the default.
    ///
    /// # Errors
    ///
    /// Returns an error if the input widths are inconsistent with the
    /// gate.
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> Result<()> {
        let gate = call.gate;
        let (isz, hsz, nsz) = (gate.input_size(), gate.hidden_size(), gate.neurons());
        debug_assert_eq!(out.len(), call.lanes * nsz);
        for l in 0..call.lanes {
            let x = &call.xs[l * isz..(l + 1) * isz];
            let h_prev = &call.h_prevs[l * hsz..(l + 1) * hsz];
            for (n, slot) in out[l * nsz..(l + 1) * nsz].iter_mut().enumerate() {
                let neuron = NeuronRef {
                    gate_id: call.gate_id,
                    neuron: n,
                    timestep: call.timestep,
                };
                *slot = self.evaluate(neuron, gate, x, h_prev)?;
            }
        }
        Ok(())
    }

    /// Whether the driver should pre-compute the input-projection half
    /// `W_x·x_t` for a block of timesteps and hand it over as
    /// [`GateBatch::fwd`].
    ///
    /// An evaluator that says yes adds only the recurrent half per step
    /// (`out = fwd + W_h·h`, the fused kernel's scalar order).  Every
    /// built-in gate entry does — the exact baseline, and the memoizing
    /// evaluators, whose miss values come from the same kernel.
    /// Defaults to `false`, which suits a custom per-neuron evaluator:
    /// its [`evaluate`](NeuronEvaluator::evaluate) sees `x_t` and
    /// ignores [`GateBatch::fwd`].
    fn supports_input_hoisting(&self) -> bool {
        false
    }

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
    /// default is a no-op, which is correct for stateless evaluators
    /// and for stateful custom evaluators running through the default
    /// (shared-state) lane loop.
    fn swap_lane_state(&mut self, a: usize, b: usize) {
        let _ = (a, b);
    }
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
    fn evaluate(
        &mut self,
        neuron: NeuronRef,
        gate: &Gate,
        x: &[f32],
        h_prev: &[f32],
    ) -> Result<f32> {
        self.evaluations += 1;
        gate.neuron_dot(neuron.neuron, x, h_prev)
    }

    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> Result<()> {
        let gate = call.gate;
        match call.fwd {
            Some(fwd) => matmul_add_into(gate.wh(), call.h_prevs, call.lanes, fwd, out)?,
            None => dual_matmul_into(gate.wx(), gate.wh(), call.xs, call.h_prevs, call.lanes, out)?,
        }
        self.evaluations += out.len() as u64;
        Ok(())
    }

    fn supports_input_hoisting(&self) -> bool {
        true
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
    fn evaluate(
        &mut self,
        neuron: NeuronRef,
        gate: &Gate,
        x: &[f32],
        h_prev: &[f32],
    ) -> Result<f32> {
        self.calls += 1;
        self.inner.evaluate(neuron, gate, x, h_prev)
    }

    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> Result<()> {
        self.calls += out.len() as u64;
        self.inner.evaluate_gate_batch(call, out)
    }

    fn supports_input_hoisting(&self) -> bool {
        self.inner.supports_input_hoisting()
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

/// Forces the wrapped evaluator onto the per-neuron reference path: its
/// gate entry is the trait's default lanes × neurons loop over
/// [`NeuronEvaluator::evaluate`], ignoring any fused override the inner
/// evaluator provides.
///
/// Used by the equivalence tests (the overrides must be bit-identical
/// to this path) and by the benchmarks to measure the naive path's cost.
#[derive(Debug, Clone, Default)]
pub struct PerNeuronEvaluator<E> {
    inner: E,
}

impl<E: NeuronEvaluator> PerNeuronEvaluator<E> {
    /// Wraps `inner`.
    pub fn new(inner: E) -> Self {
        PerNeuronEvaluator { inner }
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

impl<E: NeuronEvaluator> NeuronEvaluator for PerNeuronEvaluator<E> {
    fn evaluate(
        &mut self,
        neuron: NeuronRef,
        gate: &Gate,
        x: &[f32],
        h_prev: &[f32],
    ) -> Result<f32> {
        self.inner.evaluate(neuron, gate, x, h_prev)
    }

    // No evaluate_gate_batch override: the trait default IS the loop
    // this wrapper exists to pin down (and `supports_input_hoisting`
    // stays `false`, so the driver never hoists for it).

    fn begin_batch(&mut self, lanes: usize) {
        self.inner.begin_batch(lanes);
    }

    fn begin_lane_sequence(&mut self, lane: usize) {
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
            Matrix::from_rows(vec![vec![1.0, 2.0]]).unwrap(),
            Matrix::from_rows(vec![vec![3.0]]).unwrap(),
            Vector::zeros(1),
            None,
            Activation::Identity,
        )
        .unwrap()
    }

    fn nref() -> NeuronRef {
        NeuronRef {
            gate_id: GateId::new(0, 0, GateKind::Input),
            neuron: 0,
            timestep: 0,
        }
    }

    /// A one-lane call over `x = [1, 1]`, `h = [2]` (or a misshaped
    /// `x`), optionally with the hoisted `W_x·x = 3`.
    fn call<'a>(gate: &'a Gate, xs: &'a [f32], fwd: Option<&'a [f32]>) -> GateBatch<'a> {
        GateBatch {
            gate_id: nref().gate_id,
            timestep: 0,
            lanes: 1,
            gate,
            xs,
            h_prevs: &[2.0],
            fwd,
        }
    }

    #[test]
    fn exact_evaluator_computes_dot() {
        let g = gate();
        let mut e = ExactEvaluator::new();
        let v = e.evaluate(nref(), &g, &[1.0, 1.0], &[2.0]).unwrap();
        assert_eq!(v, 1.0 + 2.0 + 6.0);
        assert_eq!(e.evaluations(), 1);
    }

    #[test]
    fn exact_evaluator_propagates_shape_errors() {
        let g = gate();
        let mut e = ExactEvaluator::new();
        assert!(e.evaluate(nref(), &g, &[1.0], &[2.0]).is_err());
        let mut out = [0.0f32; 1];
        assert!(e
            .evaluate_gate_batch(&call(&g, &[1.0], None), &mut out)
            .is_err());
    }

    #[test]
    fn exact_gate_entry_matches_per_neuron_bitwise_fused_and_hoisted() {
        let g = gate();
        let mut naive = PerNeuronEvaluator::new(ExactEvaluator::new());
        let mut reference = [0.0f32; 1];
        naive
            .evaluate_gate_batch(&call(&g, &[1.0, 1.0], None), &mut reference)
            .unwrap();
        assert_eq!(naive.inner().evaluations(), 1);
        for fwd in [None, Some(&[3.0f32][..])] {
            let mut exact = ExactEvaluator::new();
            let mut out = [0.0f32; 1];
            exact
                .evaluate_gate_batch(&call(&g, &[1.0, 1.0], fwd), &mut out)
                .unwrap();
            assert_eq!(out[0].to_bits(), reference[0].to_bits(), "fwd={fwd:?}");
            assert_eq!(exact.evaluations(), 1);
        }
    }

    #[test]
    fn counting_evaluator_tracks_calls_and_sequences() {
        let g = gate();
        let mut e = CountingEvaluator::new(ExactEvaluator::new());
        e.begin_lane_sequence(0);
        let _ = e.evaluate(nref(), &g, &[1.0, 1.0], &[2.0]).unwrap();
        let _ = e.evaluate(nref(), &g, &[1.0, 1.0], &[2.0]).unwrap();
        assert_eq!(e.calls(), 2);
        assert_eq!(e.sequences(), 1);
        assert_eq!(e.inner().evaluations(), 2);
        assert_eq!(e.into_inner().evaluations(), 2);
    }

    #[test]
    fn counting_evaluator_counts_gate_call_neurons() {
        let g = gate();
        let mut e = CountingEvaluator::new(ExactEvaluator::new());
        assert!(
            e.supports_input_hoisting(),
            "delegates to the inner evaluator"
        );
        let mut out = [0.0f32; 1];
        e.evaluate_gate_batch(&call(&g, &[1.0, 1.0], None), &mut out)
            .unwrap();
        assert_eq!(e.calls(), 1);
        assert_eq!(e.inner().evaluations(), 1);
    }
}
