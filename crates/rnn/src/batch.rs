//! Lane-striped state and scratch for multi-sequence batched inference.
//!
//! Batch>1 serving evaluates `B` independent sequences (**lanes**)
//! through a single gate invocation: every lane-striped buffer stores
//! lane `l`'s vector at `[l * width .. (l + 1) * width]` of one flat
//! allocation, so the batched kernels can stream a gate's weight rows
//! once and reuse them across all lanes.
//!
//! Ownership rule: the *caller* owns [`BatchState`] and
//! [`BatchScratch`] and may reuse them across timesteps, waves and
//! cells of the same width; a cell only borrows them for the duration
//! of one `step_batch_into` call and never stores references, so the
//! steady-state per-timestep allocation count of a cell step is zero.  Lanes are advanced in lockstep and must be
//! ordered by **descending sequence length**, so that at batch step `s`
//! the active lanes are always the prefix `0..active` — a shorter lane
//! simply drops out of the prefix when its sequence ends (the ragged
//! tail) and its stale state is never read again.

use crate::config::CellKind;

/// The recurrent state of `lanes` independent cell instances, stored
/// lane-striped: `h` holds `lanes * hidden` values, and so does `c` for
/// an LSTM cell; a GRU cell has no cell state and `c` holds nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchState {
    h: nfm_tensor::LineBuf<f32>,
    c: nfm_tensor::LineBuf<f32>,
    lanes: usize,
    hidden: usize,
    // Cell-state values per lane: `hidden` for an LSTM, 0 for a GRU.
    c_width: usize,
}

impl BatchState {
    /// Zero-initialized state for `lanes` lanes of a `kind` cell with
    /// `hidden` neurons per gate.
    pub fn zeros(kind: CellKind, lanes: usize, hidden: usize) -> Self {
        let c_width = if kind == CellKind::Lstm { hidden } else { 0 };
        BatchState {
            h: nfm_tensor::LineBuf::zeros(lanes * hidden),
            c: nfm_tensor::LineBuf::zeros(lanes * c_width),
            lanes,
            hidden,
            c_width,
        }
    }

    /// Number of lanes the state was sized for.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Neurons per gate per lane.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The hidden outputs of the first `active` lanes, lane-striped.
    pub fn h_prefix(&self, active: usize) -> &[f32] {
        &self.h[..active * self.hidden]
    }

    /// Mutable hidden outputs of the first `active` lanes.
    pub fn h_prefix_mut(&mut self, active: usize) -> &mut [f32] {
        &mut self.h[..active * self.hidden]
    }

    /// The cell states of the first `active` lanes, lane-striped (empty
    /// for a GRU).
    pub fn c_prefix(&self, active: usize) -> &[f32] {
        &self.c[..active * self.c_width]
    }

    /// Mutable cell states of the first `active` lanes.
    pub fn c_prefix_mut(&mut self, active: usize) -> &mut [f32] {
        &mut self.c[..active * self.c_width]
    }

    /// Splits the state into mutable hidden outputs and immutable cell
    /// states over the first `active` lanes (the LSTM `h_t = o_t ⊙ ϕ(c_t)`
    /// update reads `c` while writing `h`).
    pub fn h_mut_c_prefix(&mut self, active: usize) -> (&mut [f32], &[f32]) {
        (
            &mut self.h[..active * self.hidden],
            &self.c[..active * self.c_width],
        )
    }

    /// Zeroes lane `lane`'s state so the slot can be refilled with a
    /// fresh sequence.
    pub fn reset_lane(&mut self, lane: usize) {
        self.h[lane * self.hidden..(lane + 1) * self.hidden].fill(0.0);
        self.c[lane * self.c_width..(lane + 1) * self.c_width].fill(0.0);
    }

    /// Swaps the state of two lanes.  The unified lane scheduler uses
    /// this to keep the active lanes a contiguous prefix sorted by
    /// remaining length (see
    /// [`LaneScheduler`](crate::LaneScheduler)); evaluators move their
    /// per-lane state alongside via
    /// [`NeuronEvaluator::swap_lane_state`](crate::NeuronEvaluator::swap_lane_state).
    pub fn swap_lanes(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        for (buf, w) in [(&mut self.h, self.hidden), (&mut self.c, self.c_width)] {
            let (head, tail) = buf.split_at_mut(hi * w);
            head[lo * w..(lo + 1) * w].swap_with_slice(&mut tail[..w]);
        }
    }
}

/// Reusable lane-striped working buffers for batched cell stepping:
/// three gate-width buffers sized `lanes * hidden` (LSTM: `i_t`, `f_t`,
/// `g_t` before the cell-state update, with the output gate reusing the
/// first buffer; GRU: `z_t`, `r_t ⊙ h_{t-1}` and the candidate).  (The
/// sequence driver keeps its own block-packing and hoisted-projection
/// buffers; a cell step only ever needs these three.)
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    a: nfm_tensor::LineBuf<f32>,
    b: nfm_tensor::LineBuf<f32>,
    c: nfm_tensor::LineBuf<f32>,
}

impl BatchScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Returns the three gate buffers resized to `len = lanes * hidden`
    /// values, as disjoint mutable slices.  Only allocates when `len`
    /// grows beyond any previously seen width.
    pub fn bufs(&mut self, len: usize) -> (&mut [f32], &mut [f32], &mut [f32]) {
        if self.a.len() < len {
            self.a.resize(len);
            self.b.resize(len);
            self.c.resize(len);
        }
        (&mut self.a[..len], &mut self.b[..len], &mut self.c[..len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_prefixes_are_lane_striped() {
        let mut s = BatchState::zeros(CellKind::Lstm, 3, 4);
        assert_eq!(s.lanes(), 3);
        assert_eq!(s.hidden(), 4);
        assert_eq!(s.h_prefix(2).len(), 8);
        assert_eq!(s.c_prefix(3).len(), 12);
        s.h_prefix_mut(3)[5] = 2.5;
        assert_eq!(s.h_prefix(2)[4..], [0.0, 2.5, 0.0, 0.0]);
        s.c_prefix_mut(2)[0] = 1.0;
        assert_eq!(s.c_prefix(1)[0], 1.0);
        let gru = BatchState::zeros(CellKind::Gru, 3, 4);
        assert_eq!((gru.h_prefix(3).len(), gru.c_prefix(3).len()), (12, 0));
    }

    #[test]
    fn reset_lane_only_touches_one_lane() {
        let mut s = BatchState::zeros(CellKind::Lstm, 2, 3);
        s.h_prefix_mut(2).fill(1.0);
        s.c_prefix_mut(2).fill(2.0);
        s.reset_lane(0);
        assert_eq!(s.h_prefix(2), [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(s.c_prefix(2)[3..], [2.0, 2.0, 2.0]);
    }

    #[test]
    fn swap_lanes_exchanges_h_and_c() {
        let mut s = BatchState::zeros(CellKind::Lstm, 3, 2);
        s.h_prefix_mut(3)
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        s.c_prefix_mut(3)
            .copy_from_slice(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        s.swap_lanes(0, 2);
        assert_eq!(s.h_prefix(3), &[5.0, 6.0, 3.0, 4.0, 1.0, 2.0]);
        assert_eq!(s.c_prefix(3), &[50.0, 60.0, 30.0, 40.0, 10.0, 20.0]);
        // Swapping a lane with itself is a no-op.
        s.swap_lanes(1, 1);
        assert_eq!(s.h_prefix(3), &[5.0, 6.0, 3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn scratch_buffers_grow_but_never_shrink_storage() {
        let mut s = BatchScratch::new();
        {
            let (a, b, c) = s.bufs(8);
            assert_eq!((a.len(), b.len(), c.len()), (8, 8, 8));
            a[0] = 1.0;
        }
        let (a, _, _) = s.bufs(4);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0], 1.0);
    }
}
