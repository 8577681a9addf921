//! A recurrent layer: one [`Cell`] (unidirectional) or a forward/backward
//! pair of cells of one kind (bidirectional), and the one routine that
//! runs a cell, `Cell::run_block` — a block of timesteps under
//! [`LaneScheduler::step`](crate::LaneScheduler::step), which decides
//! which rows a block holds and in what order cells are visited.  The
//! block hoists every gate's input projection in one product per gate,
//! then calls the cell's one [`Cell::step_batch_into`] per block step,
//! whatever the cell's kind.

use crate::batch::{BatchScratch, BatchState};
use crate::cell::Cell;
use crate::config::{CellKind, Direction};
use crate::error::RnnError;
use crate::evaluator::NeuronEvaluator;
use crate::gate::{Gate, GateId, GateKind};
use crate::Result;
use nfm_tensor::{kernels::matmul_into, rng::DeterministicRng, LineBuf};

/// Timesteps per block: the number of input projections `W_x·x_t`
/// hoisted into one matrix product per gate per layer, and the
/// granularity at which the lane scheduler retires and refills lanes.
pub const HOIST_BLOCK: usize = 8;

/// The largest gate count of any cell kind (LSTM), sizing the
/// stack-allocated hoisted-slice array in the block step loop.
const MAX_GATES: usize = GateKind::LSTM.len();

/// Grows `buf` to at least `len` values (never shrinks, so block-local
/// buffers allocate only when a block is larger than any seen before).
pub(crate) fn grow(buf: &mut LineBuf<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len);
    }
}

/// The row layout of one hoist block over lanes sorted by descending
/// remaining length: block step `b` covers the lane prefix
/// `0..step_active[b]`, packed step-major starting at row
/// `row_offset[b]`.
#[derive(Debug)]
pub(crate) struct BlockPlan {
    /// Timesteps in the block: the longest lane's remaining length,
    /// capped at [`HOIST_BLOCK`].
    pub(crate) block: usize,
    /// Active lanes per block step (only shrinks within a block).
    pub(crate) step_active: [usize; HOIST_BLOCK],
    /// First packed row of each block step.
    pub(crate) row_offset: [usize; HOIST_BLOCK],
    /// Lane-timesteps in the block (`Σ step_active`).
    pub(crate) total_rows: usize,
}

impl BlockPlan {
    /// Plans the next block for lanes whose remaining lengths are
    /// `remaining`, in lane order (descending).
    pub(crate) fn new(remaining: impl Iterator<Item = usize> + Clone) -> Self {
        let block = remaining.clone().next().unwrap_or(0).min(HOIST_BLOCK);
        let mut plan = BlockPlan {
            block,
            step_active: [0; HOIST_BLOCK],
            row_offset: [0; HOIST_BLOCK],
            total_rows: 0,
        };
        for b in 0..block {
            plan.step_active[b] = remaining.clone().take_while(|&n| n > b).count();
            plan.row_offset[b] = plan.total_rows;
            plan.total_rows += plan.step_active[b];
        }
        plan
    }

    /// Every `(block step, lane)` pair of the block, in packed row
    /// order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.block).flat_map(move |b| (0..self.step_active[b]).map(move |l| (b, l)))
    }
}

/// Working memory of [`Cell::run_block`], owned by the driver and
/// reused across blocks and layers: the cell step's gate buffers plus
/// the block's hoisted input projections (one step-major block per
/// gate).
#[derive(Debug, Default)]
pub(crate) struct BlockScratch {
    cell: BatchScratch,
    fwd: LineBuf<f32>,
}

impl Cell {
    /// Runs one hoist block of this cell: `plan.block` timesteps over
    /// the plan's shrinking active-lane prefix — the per-layer routine
    /// under [`LaneScheduler::step`](crate::LaneScheduler::step).
    ///
    /// `xs_pack` holds the block's inputs lane-striped and step-major
    /// (row `plan.row_offset[b] + l` is lane `l`'s input at block step
    /// `b`).  After each block step `b`, `emit(b, h)` receives that
    /// step's hidden outputs, lane-striped over its active lanes.  One
    /// matrix product per gate pre-computes every row's input
    /// projection `W_x·x_t` — the forward weight matrix is streamed once
    /// per block instead of once per timestep — and each step hands its
    /// rows to the evaluator as [`GateBatch::fwd`](crate::GateBatch::fwd).
    /// The recurrent half `W_h·h_{t-1}` can never be hoisted (it depends
    /// on the previous step's output).
    ///
    /// `state` is advanced in place (`next` is its double buffer) and
    /// the evaluator sees timesteps `first_step..first_step + block`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_block(
        &self,
        layer: usize,
        direction: usize,
        first_step: usize,
        plan: &BlockPlan,
        xs_pack: &[f32],
        state: &mut BatchState,
        next: &mut BatchState,
        scratch: &mut BlockScratch,
        mut emit: impl FnMut(usize, &[f32]),
        evaluator: &mut dyn NeuronEvaluator,
    ) -> Result<()> {
        let (in_w, out_w) = (self.input_size(), self.hidden_size());
        let rows = plan.total_rows;
        let gate_count = self.gates().len();
        debug_assert!(gate_count <= MAX_GATES);
        grow(&mut scratch.fwd, gate_count * rows * out_w);
        for (g, gate) in self.gates().iter().enumerate() {
            matmul_into(
                gate.wx(),
                &xs_pack[..rows * in_w],
                rows,
                &mut scratch.fwd[g * rows * out_w..(g + 1) * rows * out_w],
            )?;
        }
        for b in 0..plan.block {
            let (active, offset) = (plan.step_active[b], plan.row_offset[b]);
            let xs = &xs_pack[offset * in_w..(offset + active) * in_w];
            let mut hoisted: [&[f32]; MAX_GATES] = [&[]; MAX_GATES];
            for (g, slot) in hoisted.iter_mut().enumerate().take(gate_count) {
                let start = (g * rows + offset) * out_w;
                *slot = &scratch.fwd[start..start + active * out_w];
            }
            self.step_batch_into(
                layer,
                direction,
                first_step + b,
                active,
                xs,
                state,
                next,
                &mut scratch.cell,
                &hoisted[..gate_count],
                evaluator,
            )?;
            emit(b, next.h_prefix(active));
            std::mem::swap(state, next);
        }
        Ok(())
    }
}

/// One layer of a deep RNN.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    index: usize,
    forward: Cell,
    backward: Option<Cell>,
}

impl Layer {
    /// Creates a layer from its cells.
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::InvalidConfig`] if the backward cell (when
    /// present) disagrees with the forward cell on dimensions or kind.
    pub fn new(index: usize, forward: Cell, backward: Option<Cell>) -> Result<Self> {
        if let Some(b) = &backward {
            if b.hidden_size() != forward.hidden_size()
                || b.input_size() != forward.input_size()
                || b.kind() != forward.kind()
            {
                return Err(RnnError::InvalidConfig {
                    what: "bidirectional halves must have identical shape and cell kind".into(),
                });
            }
        }
        Ok(Layer {
            index,
            forward,
            backward,
        })
    }

    /// Creates a randomly initialized layer.
    pub fn random(
        index: usize,
        kind: CellKind,
        direction: Direction,
        input_size: usize,
        hidden_size: usize,
        peepholes: bool,
        rng: &mut DeterministicRng,
    ) -> Result<Self> {
        let forward = Cell::random(kind, input_size, hidden_size, peepholes, rng)?;
        let backward = match direction {
            Direction::Unidirectional => None,
            Direction::Bidirectional => {
                Some(Cell::random(kind, input_size, hidden_size, peepholes, rng)?)
            }
        };
        Layer::new(index, forward, backward)
    }

    /// Position of the layer in the stack.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether the layer is bidirectional.
    pub fn is_bidirectional(&self) -> bool {
        self.backward.is_some()
    }

    /// The forward cell.
    pub fn forward_cell(&self) -> &Cell {
        &self.forward
    }

    /// The backward cell, if bidirectional.
    pub fn backward_cell(&self) -> Option<&Cell> {
        self.backward.as_ref()
    }

    /// Width of the input this layer expects.
    pub fn input_size(&self) -> usize {
        self.forward.input_size()
    }

    /// Width of the output this layer produces per timestep
    /// (hidden size, doubled for bidirectional layers).
    pub fn output_size(&self) -> usize {
        self.forward.hidden_size() * if self.is_bidirectional() { 2 } else { 1 }
    }

    /// Total weights in the layer.
    pub fn weight_count(&self) -> usize {
        self.forward.weight_count() + self.backward.as_ref().map_or(0, Cell::weight_count)
    }

    /// Neuron evaluations per timestep across both directions.
    pub fn neuron_evaluations_per_step(&self) -> usize {
        self.forward.neuron_evaluations_per_step()
            + self
                .backward
                .as_ref()
                .map_or(0, Cell::neuron_evaluations_per_step)
    }

    /// Iterates over `(GateId, &Gate)` pairs for every gate in the layer.
    pub fn gates(&self) -> Vec<(GateId, &Gate)> {
        let cells = std::iter::once(&self.forward).chain(&self.backward);
        let gates = cells.enumerate().flat_map(|(direction, cell)| {
            let kinds = cell.gate_kinds().iter();
            kinds
                .zip(cell.gates())
                .map(move |(&kind, g)| (GateId::new(self.index, direction, kind), g))
        });
        gates.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unidirectional_layer_output_width() {
        let mut rng = DeterministicRng::seed_from_u64(2);
        let layer = Layer::random(
            0,
            CellKind::Lstm,
            Direction::Unidirectional,
            4,
            6,
            true,
            &mut rng,
        )
        .unwrap();
        assert!(!layer.is_bidirectional());
        assert_eq!(layer.output_size(), 6);
        assert_eq!(layer.gates().len(), 4);
    }

    #[test]
    fn bidirectional_layer_output_width() {
        let mut rng = DeterministicRng::seed_from_u64(4);
        let layer = Layer::random(
            1,
            CellKind::Gru,
            Direction::Bidirectional,
            3,
            5,
            false,
            &mut rng,
        )
        .unwrap();
        assert!(layer.is_bidirectional());
        assert_eq!(layer.output_size(), 10);
        assert_eq!(layer.gates().len(), 6);
    }

    #[test]
    fn layer_rejects_mismatched_halves() {
        let mut rng = DeterministicRng::seed_from_u64(8);
        let fwd = Cell::random(CellKind::Lstm, 4, 4, false, &mut rng).unwrap();
        let bad_bwd = Cell::random(CellKind::Lstm, 4, 5, false, &mut rng).unwrap();
        assert!(Layer::new(0, fwd.clone(), Some(bad_bwd)).is_err());
        let wrong_kind = Cell::random(CellKind::Gru, 4, 4, false, &mut rng).unwrap();
        assert!(Layer::new(0, fwd, Some(wrong_kind)).is_err());
    }

    #[test]
    fn gate_ids_are_unique_within_layer() {
        use std::collections::HashSet;
        let mut rng = DeterministicRng::seed_from_u64(9);
        let layer = Layer::random(
            2,
            CellKind::Lstm,
            Direction::Bidirectional,
            3,
            3,
            true,
            &mut rng,
        )
        .unwrap();
        let ids: HashSet<GateId> = layer.gates().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 8);
        assert!(ids.iter().all(|id| id.layer == 2));
    }
}
