//! The neuron evaluation hook where fuzzy memoization plugs in.
//!
//! Evaluators expose two granularities:
//!
//! * [`NeuronEvaluator::evaluate`] — one neuron at a time, the boundary
//!   the paper describes (the FMU intercepting one DPU operation);
//! * [`NeuronEvaluator::evaluate_gate`] — one whole gate per call, the
//!   granularity the software hot path actually runs at.  The default
//!   implementation falls back to the per-neuron method, so custom
//!   evaluators keep working unchanged, while the built-in evaluators
//!   override it with fused, allocation-free kernels.
//!
//! The two paths are contractually **bit-identical**: every built-in
//! override performs the same floating-point operations in the same
//! order as the per-neuron fallback (see the `batched_equivalence`
//! integration tests).

use crate::gate::{Gate, GateId};
use crate::Result;
use nfm_tensor::kernels::{dual_matmul_into, dual_matvec_into, matmul_add_into};

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

    /// Produces the pre-activation dot products for *every* neuron of
    /// `gate` at once, writing them into the caller-owned `out` buffer
    /// (`out.len() == gate.neurons()`, guaranteed by [`Gate::evaluate`]).
    ///
    /// The default implementation routes each neuron through
    /// [`evaluate`](NeuronEvaluator::evaluate), preserving the trait
    /// contract for custom evaluators; the built-in evaluators override
    /// it with fused kernels that skip per-neuron virtual dispatch,
    /// dimension checks and hashing.  Overrides must remain bit-identical
    /// to the fallback.
    ///
    /// # Errors
    ///
    /// Returns an error if the input widths are inconsistent with the
    /// gate.
    fn evaluate_gate(
        &mut self,
        gate_id: GateId,
        timestep: usize,
        gate: &Gate,
        x: &[f32],
        h_prev: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        debug_assert_eq!(out.len(), gate.neurons());
        for (n, slot) in out.iter_mut().enumerate() {
            *slot = self.evaluate(
                NeuronRef {
                    gate_id,
                    neuron: n,
                    timestep,
                },
                gate,
                x,
                h_prev,
            )?;
        }
        Ok(())
    }

    /// Produces the pre-activation dot products for every neuron of
    /// `gate` across `lanes` independent sequences at once.
    ///
    /// `xs`, `h_prevs` and `out` are **lane-striped**: lane `l`'s vector
    /// occupies `[l * width .. (l + 1) * width]` of the flat slice
    /// (widths: `gate.input_size()`, `gate.hidden_size()` and
    /// `gate.neurons()` respectively).  All lanes share the same
    /// `timestep` (the batch driver advances lanes in lockstep).
    ///
    /// The default implementation routes each lane through
    /// [`evaluate_gate`](NeuronEvaluator::evaluate_gate), so custom
    /// evaluators keep working unchanged; note that a *stateful* custom
    /// evaluator (one that memoizes across timesteps) sees every lane
    /// through the same shared state under this default and should
    /// override the batch methods for per-lane isolation when driven
    /// with `lanes > 1`.  Built-in evaluators override this with
    /// lane-striped kernels (one weight stream serving all lanes) and
    /// per-lane memoization tables; overrides must keep every lane
    /// bit-identical to the single-sequence path.
    ///
    /// # Errors
    ///
    /// Returns an error if the input widths are inconsistent with the
    /// gate.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_gate_batch(
        &mut self,
        gate_id: GateId,
        timestep: usize,
        lanes: usize,
        gate: &Gate,
        xs: &[f32],
        h_prevs: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        let (isz, hsz, nsz) = (gate.input_size(), gate.hidden_size(), gate.neurons());
        debug_assert_eq!(out.len(), lanes * nsz);
        for l in 0..lanes {
            self.evaluate_gate(
                gate_id,
                timestep,
                gate,
                &xs[l * isz..(l + 1) * isz],
                &h_prevs[l * hsz..(l + 1) * hsz],
                &mut out[l * nsz..(l + 1) * nsz],
            )?;
        }
        Ok(())
    }

    /// Whether the batch driver should pre-compute the input-projection
    /// half `W_x·x_t` for a block of timesteps and hand it to
    /// [`evaluate_gate_batch_hoisted`](NeuronEvaluator::evaluate_gate_batch_hoisted).
    ///
    /// Only evaluators that compute *every* neuron in full precision can
    /// benefit (the exact baseline); memoizing evaluators skip most dot
    /// products, so pre-computing their forward halves would be wasted
    /// work.  Defaults to `false`.
    fn supports_input_hoisting(&self) -> bool {
        false
    }

    /// Like [`evaluate_gate_batch`](NeuronEvaluator::evaluate_gate_batch),
    /// but with the forward half pre-computed: `fwd` is lane-striped
    /// (`lanes * gate.neurons()`) and holds `W_x[n]·xs[l]` produced with
    /// the shared reduction order, so an override only adds the
    /// recurrent half (`out = fwd + W_h·h`, the exact scalar order of
    /// the fused kernel).
    ///
    /// The default ignores `fwd` and recomputes both halves through
    /// [`evaluate_gate_batch`](NeuronEvaluator::evaluate_gate_batch) —
    /// bit-identical, just without the hoisting win — so the method is
    /// only dispatched to evaluators whose
    /// [`supports_input_hoisting`](NeuronEvaluator::supports_input_hoisting)
    /// returns `true`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input widths are inconsistent with the
    /// gate.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_gate_batch_hoisted(
        &mut self,
        gate_id: GateId,
        timestep: usize,
        lanes: usize,
        gate: &Gate,
        fwd: &[f32],
        xs: &[f32],
        h_prevs: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        let _ = fwd;
        self.evaluate_gate_batch(gate_id, timestep, lanes, gate, xs, h_prevs, out)
    }

    /// Called by [`DeepRnn::run`](crate::DeepRnn::run) before each new
    /// input sequence so implementations can reset per-sequence state
    /// (e.g. memoization tables are cold at the start of a sequence).
    fn begin_sequence(&mut self) {}

    /// Called by [`DeepRnn::run_batch`](crate::DeepRnn::run_batch) once
    /// before a batched run so implementations can size per-lane state
    /// (e.g. one memoization table per lane).  The default is a no-op.
    fn begin_batch(&mut self, lanes: usize) {
        let _ = lanes;
    }

    /// Called when lane `lane` of a batched run starts a fresh input
    /// sequence, so per-lane state can be reset.  The default falls back
    /// to [`begin_sequence`](NeuronEvaluator::begin_sequence) — exactly
    /// the per-sequence contract when `lanes == 1`, and the best
    /// available approximation for stateful custom evaluators that did
    /// not override the batch methods.
    fn begin_lane_sequence(&mut self, lane: usize) {
        let _ = lane;
        self.begin_sequence();
    }

    /// Exchanges all per-lane state between lanes `a` and `b` (memo
    /// tables, per-lane statistics, …).
    ///
    /// The unified lane scheduler
    /// ([`LaneScheduler`](crate::LaneScheduler)) calls this when it
    /// re-sorts or compacts its lanes: lanes are kept a contiguous
    /// prefix ordered by descending remaining length, and a moved
    /// lane's memoization state must move with it.
    /// Evaluators that keep per-lane state and implement the batch
    /// methods must override this; the default is a no-op, which is
    /// correct for stateless evaluators and for stateful custom
    /// evaluators running through the default (shared-state) lane loop.
    fn swap_lane_state(&mut self, a: usize, b: usize) {
        let _ = (a, b);
    }
}

/// The baseline evaluator: always computes the exact dot products.
///
/// Corresponds to the unmodified E-PUR accelerator.  Its batched path is
/// one fused dual matrix-vector product per gate.
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

    fn evaluate_gate(
        &mut self,
        _gate_id: GateId,
        _timestep: usize,
        gate: &Gate,
        x: &[f32],
        h_prev: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        dual_matvec_into(gate.wx(), gate.wh(), x, h_prev, out)?;
        self.evaluations += out.len() as u64;
        Ok(())
    }

    fn evaluate_gate_batch(
        &mut self,
        _gate_id: GateId,
        _timestep: usize,
        lanes: usize,
        gate: &Gate,
        xs: &[f32],
        h_prevs: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        dual_matmul_into(gate.wx(), gate.wh(), xs, h_prevs, lanes, out)?;
        self.evaluations += out.len() as u64;
        Ok(())
    }

    fn supports_input_hoisting(&self) -> bool {
        true
    }

    fn evaluate_gate_batch_hoisted(
        &mut self,
        _gate_id: GateId,
        _timestep: usize,
        lanes: usize,
        gate: &Gate,
        fwd: &[f32],
        _xs: &[f32],
        h_prevs: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        matmul_add_into(gate.wh(), h_prevs, lanes, fwd, out)?;
        self.evaluations += out.len() as u64;
        Ok(())
    }
}

/// An instrumented evaluator that wraps another one and records every
/// produced value; used by the evaluation harness to study output
/// similarity between consecutive timesteps (Figure 5) and by tests.
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

    /// Total neuron evaluations observed (batched gate calls count one
    /// per neuron they cover).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Total `begin_sequence` calls observed.
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

    fn evaluate_gate(
        &mut self,
        gate_id: GateId,
        timestep: usize,
        gate: &Gate,
        x: &[f32],
        h_prev: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        self.calls += out.len() as u64;
        self.inner
            .evaluate_gate(gate_id, timestep, gate, x, h_prev, out)
    }

    fn evaluate_gate_batch(
        &mut self,
        gate_id: GateId,
        timestep: usize,
        lanes: usize,
        gate: &Gate,
        xs: &[f32],
        h_prevs: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        self.calls += out.len() as u64;
        self.inner
            .evaluate_gate_batch(gate_id, timestep, lanes, gate, xs, h_prevs, out)
    }

    fn supports_input_hoisting(&self) -> bool {
        self.inner.supports_input_hoisting()
    }

    fn evaluate_gate_batch_hoisted(
        &mut self,
        gate_id: GateId,
        timestep: usize,
        lanes: usize,
        gate: &Gate,
        fwd: &[f32],
        xs: &[f32],
        h_prevs: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        self.calls += out.len() as u64;
        self.inner
            .evaluate_gate_batch_hoisted(gate_id, timestep, lanes, gate, fwd, xs, h_prevs, out)
    }

    fn begin_sequence(&mut self) {
        self.sequences += 1;
        self.inner.begin_sequence();
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

/// Forces the wrapped evaluator onto the per-neuron fallback path: its
/// `evaluate_gate` loops over [`NeuronEvaluator::evaluate`] exactly like
/// the trait's default implementation, ignoring any batched override the
/// inner evaluator provides.
///
/// Used by the equivalence tests (batched output must be bit-identical
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

    // No evaluate_gate / evaluate_gate_batch overrides: the trait
    // defaults ARE the per-neuron and per-lane loops this wrapper exists
    // to pin down (and `supports_input_hoisting` stays `false`, so the
    // batch driver never hands this wrapper a hoisted projection).

    fn begin_sequence(&mut self) {
        self.inner.begin_sequence();
    }

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
            .evaluate_gate(nref().gate_id, 0, &g, &[1.0], &[2.0], &mut out)
            .is_err());
    }

    #[test]
    fn exact_batched_matches_per_neuron_bitwise() {
        let g = gate();
        let mut batched = ExactEvaluator::new();
        let mut out = [0.0f32; 1];
        batched
            .evaluate_gate(nref().gate_id, 0, &g, &[1.0, 1.0], &[2.0], &mut out)
            .unwrap();
        let mut naive = PerNeuronEvaluator::new(ExactEvaluator::new());
        let mut out2 = [0.0f32; 1];
        naive
            .evaluate_gate(nref().gate_id, 0, &g, &[1.0, 1.0], &[2.0], &mut out2)
            .unwrap();
        assert_eq!(out[0].to_bits(), out2[0].to_bits());
        assert_eq!(batched.evaluations(), 1);
        assert_eq!(naive.inner().evaluations(), 1);
    }

    #[test]
    fn counting_evaluator_tracks_calls_and_sequences() {
        let g = gate();
        let mut e = CountingEvaluator::new(ExactEvaluator::new());
        e.begin_sequence();
        let _ = e.evaluate(nref(), &g, &[1.0, 1.0], &[2.0]).unwrap();
        let _ = e.evaluate(nref(), &g, &[1.0, 1.0], &[2.0]).unwrap();
        assert_eq!(e.calls(), 2);
        assert_eq!(e.sequences(), 1);
        assert_eq!(e.inner().evaluations(), 2);
        assert_eq!(e.into_inner().evaluations(), 2);
    }

    #[test]
    fn counting_evaluator_counts_batched_neurons() {
        let g = gate();
        let mut e = CountingEvaluator::new(ExactEvaluator::new());
        let mut out = [0.0f32; 1];
        e.evaluate_gate(nref().gate_id, 0, &g, &[1.0, 1.0], &[2.0], &mut out)
            .unwrap();
        assert_eq!(e.calls(), 1);
        assert_eq!(e.inner().evaluations(), 1);
    }

    #[test]
    fn default_begin_sequence_is_noop() {
        let mut e = ExactEvaluator::new();
        e.begin_sequence();
        assert_eq!(e.evaluations(), 0);
    }
}
