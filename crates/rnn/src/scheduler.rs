//! The lane scheduler: the one driver of a recurrent stack.
//!
//! A [`LaneScheduler`] holds up to `lanes` in-flight sequences.
//! [`admit`](LaneScheduler::admit) seats a sequence in a lane, resets
//! that lane's recurrent and evaluator state
//! ([`NeuronEvaluator::begin_lane_sequence`]) and returns the lane
//! index, so a request has a lane — somewhere to keep per-request
//! evaluator state such as a threshold override — from the moment it is
//! admitted.  [`step`](LaneScheduler::step) then advances every seated
//! lane by a **span** of its remaining timesteps, and it is the only
//! routine that decides in what order (layer, direction, timestep) are
//! visited and where a step's rows live ([`DeepRnn::run`] and
//! [`DeepRnn::run_batch`] admit their sequences and step until idle):
//!
//! * The span's rows are packed step-major — lanes sorted
//!   longest-first, so each timestep covers a lane prefix — in blocks of
//!   up to [`HOIST_BLOCK`] steps.  Layer by layer, the forward cell runs
//!   the blocks in order on the layer's persistent state; within a
//!   block every `W_x·x_t` projection is **one matrix product per
//!   gate** over all its rows, and layer `k`'s packed outputs are layer
//!   `k+1`'s packed inputs.
//! * A bidirectional layer is a second pass over the same blocks: its
//!   backward cell starts from a zeroed state and reads each lane's
//!   rows end-first, and its outputs go into the upper half of the rows
//!   they were read from.
//! * The span is [`HOIST_BLOCK`] timesteps for a unidirectional stack —
//!   layer `k` at `t` needs only layer `k-1` at `t` and its own state at
//!   `t-1` — so finished lanes retire and `admit` refills them between
//!   blocks (**mid-wave refill**).  A backward cell needs its sequences
//!   whole, so a stack with a bidirectional layer spans every seated
//!   sequence to its end and lanes refill when that step returns.
//!
//! The span's length is the only thing that differs, and it is not a
//! choice: it follows from the network
//! ([`LaneScheduler::refills_mid_wave`]).
//!
//! # Equivalence
//!
//! Per-lane results are **bit-identical** whatever the lane count and
//! whatever shares the scheduler with the lane: every
//! `(neuron, lane)` dot product goes through the shared reduction
//! order, lanes never interact numerically, per-lane memoization state
//! is reset when a lane is admitted, and the hoisted kernels keep the
//! `fwd + rec` scalar order of the fused path.  Scheduling therefore
//! changes throughput, never results; what the results *are* is pinned
//! against an independent f64 implementation (`tests/reference_f64.rs`).
//!
//! # Lane order and compaction
//!
//! Batched cell stepping requires the active lanes to form a prefix
//! `0..active` sorted by descending *remaining* length, so the prefix
//! only shrinks within a step.  [`step`](LaneScheduler::step) restores
//! that order first (admissions land at the tail): a stable insertion
//! sort applied as adjacent lane swaps, each swap moving the recurrent
//! state ([`BatchState::swap_lanes`]) and the evaluator's per-lane
//! state ([`NeuronEvaluator::swap_lane_state`]) together, which keeps
//! every lane's results bit-identical.  Retiring a finished or
//! cancelled lane compacts the prefix the same way.
//!
//! # Timestep semantics
//!
//! Under mid-wave refill lanes sit at *different* positions of their
//! own sequences, so the `timestep` handed to the evaluator's gate
//! entry is the scheduler's global step counter, not a per-lane
//! sequence index.  The built-in gate-entry overrides ignore it; a
//! custom evaluator that keys per-lane state must use the lane index
//! plus [`NeuronEvaluator::begin_lane_sequence`] instead.

use crate::batch::BatchState;
use crate::error::RnnError;
use crate::evaluator::NeuronEvaluator;
use crate::layer::{grow, BlockPlan, BlockScratch, HOIST_BLOCK};
use crate::network::DeepRnn;
use crate::Result;
use nfm_tensor::{LineBuf, Vector};

/// One lane that finished its sequence during a
/// [`LaneScheduler::step`] call (or was cancelled).
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedLane {
    /// The caller-chosen token passed to [`LaneScheduler::admit`].
    pub token: u64,
    /// One output per timestep of the finished sequence (head applied
    /// when the network has one); a partial prefix for cancelled
    /// lanes.
    pub outputs: Vec<Vector>,
    /// The evaluator lane index where this sequence's per-lane state
    /// (memo table, per-lane statistics) resides *right now*.  Read any
    /// per-lane statistics at this index **before** the next
    /// [`LaneScheduler::admit`] call: admission reuses retired lane
    /// slots and `begin_lane_sequence` resets their state.
    pub stats_lane: usize,
}

/// Per-lane bookkeeping: the sequence being processed, the next
/// timestep to consume, and the outputs produced so far.
#[derive(Debug)]
struct LaneSlot {
    token: u64,
    inputs: Vec<Vector>,
    t: usize,
    outputs: Vec<Vector>,
}

impl LaneSlot {
    fn remaining(&self) -> usize {
        self.inputs.len() - self.t
    }
}

/// The row layout of one step over lanes sorted by descending remaining
/// length: lane `l` advances `lens[l]` timesteps, packed step-major in
/// blocks of up to [`HOIST_BLOCK`] steps (block `i` is `blocks[i].1`, its
/// rows starting at `blocks[i].0`).
#[derive(Debug, Default)]
struct Span {
    lens: Vec<usize>,
    blocks: Vec<(usize, BlockPlan)>,
    total_rows: usize,
}

impl Span {
    /// Re-plans for lanes advancing `lens` timesteps each.
    fn plan(&mut self, lens: impl Iterator<Item = usize>) {
        self.lens.clear();
        self.lens.extend(lens);
        self.blocks.clear();
        self.total_rows = 0;
        for start in (0..self.lens[0]).step_by(HOIST_BLOCK) {
            let plan = BlockPlan::new(self.lens.iter().map(|n| n.saturating_sub(start)));
            self.total_rows += plan.total_rows;
            self.blocks.push((self.total_rows - plan.total_rows, plan));
        }
    }

    /// The packed row of lane `l` at span step `s` — of a backward
    /// cell when `backward`, which walks the lane's own span end first.
    /// Every block but the last is full, so a step sits in block
    /// `s / HOIST_BLOCK`.
    fn row(&self, s: usize, l: usize, backward: bool) -> usize {
        let s = if backward { self.lens[l] - 1 - s } else { s };
        let (first, plan) = &self.blocks[s / HOIST_BLOCK];
        first + plan.row_offset[s % HOIST_BLOCK] + l
    }

    /// Every `(span step, lane, packed row)`, in row order.
    fn rows(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let blocks = self.blocks.iter().enumerate();
        blocks.flat_map(|(i, (first, plan))| {
            plan.rows()
                .map(move |(b, l)| (i * HOIST_BLOCK + b, l, first + plan.row_offset[b] + l))
        })
    }
}

/// The lane scheduler (see the [module docs](self) for the step and its
/// equivalence contract).
///
/// The scheduler owns all recurrent state and scratch (two lane-striped
/// [`BatchState`]s a layer, a third where it has a backward cell, plus
/// the step's packed row buffers), so a warm step allocates only its
/// outputs; the caller owns the evaluator and the network and passes
/// them into [`admit`](LaneScheduler::admit) /
/// [`step`](LaneScheduler::step).  Call
/// [`NeuronEvaluator::begin_batch`] with [`lanes`](LaneScheduler::lanes)
/// once before the first admission so per-lane evaluator state is
/// sized.
#[derive(Debug)]
pub struct LaneScheduler {
    /// A step spans [`HOIST_BLOCK`] timesteps of every lane and freed
    /// lanes refill between steps; `false` spans whole sequences.
    mid_wave: bool,
    lanes: usize,
    input_size: usize,
    /// Hidden size per layer and direction.
    hidden: Vec<usize>,
    /// Per-layer recurrent state of the forward cells.
    states: Vec<BatchState>,
    nexts: Vec<BatchState>,
    /// Per-layer state of the backward cells, zeroed at every step
    /// (`None` for a unidirectional layer).
    backward: Vec<Option<BatchState>>,
    scratch: BlockScratch,
    /// Row layout of the current step.
    span: Span,
    /// Step-major packed layer inputs of the current step (ping).
    pack_a: LineBuf<f32>,
    /// Step-major packed layer outputs of the current step (pong).
    pack_b: LineBuf<f32>,
    /// `pack_a` in the order a backward cell consumes it.
    pack_rev: LineBuf<f32>,
    /// Occupied lane slots; always exactly `active` entries, slot `l`
    /// holding lane `l`'s sequence.
    slots: Vec<LaneSlot>,
    steps: usize,
}

impl LaneScheduler {
    /// Whether a scheduler for `network` refills freed lanes mid-wave
    /// (and can therefore lend lanes): true exactly
    /// for stacks without a bidirectional layer, whose backward half
    /// would need every sequence whole before its first step.
    pub fn refills_mid_wave(network: &DeepRnn) -> bool {
        !network.layers().iter().any(|l| l.is_bidirectional())
    }

    /// Creates a scheduler with `lanes` lane slots for `network`.
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::InvalidConfig`] if `lanes == 0` (a scheduler
    /// needs at least one lane; the accepted range is `lanes >= 1`).
    pub fn new(network: &DeepRnn, lanes: usize) -> Result<Self> {
        if lanes == 0 {
            return Err(RnnError::InvalidConfig {
                what: "a lane scheduler needs at least one lane (lanes >= 1), got 0".into(),
            });
        }
        let mid_wave = Self::refills_mid_wave(network);
        let hidden: Vec<usize> = network
            .layers()
            .iter()
            .map(|l| l.forward_cell().hidden_size())
            .collect();
        let states = || -> Vec<BatchState> {
            hidden
                .iter()
                .map(|&h| BatchState::zeros(lanes, h))
                .collect()
        };
        let backward = network.layers().iter().zip(&hidden);
        Ok(LaneScheduler {
            mid_wave,
            lanes,
            input_size: network.input_size(),
            states: states(),
            nexts: states(),
            backward: backward
                .map(|(l, &h)| l.is_bidirectional().then(|| BatchState::zeros(lanes, h)))
                .collect(),
            hidden,
            scratch: BlockScratch::default(),
            span: Span::default(),
            pack_a: LineBuf::default(),
            pack_b: LineBuf::default(),
            pack_rev: LineBuf::default(),
            slots: Vec::with_capacity(lanes),
            steps: 0,
        })
    }

    /// Total lane slots.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Currently occupied lanes.
    pub fn active_lanes(&self) -> usize {
        self.slots.len()
    }

    /// Lane slots available for [`admit`](LaneScheduler::admit).
    pub fn free_lanes(&self) -> usize {
        self.lanes - self.slots.len()
    }

    /// Whether no lane holds a sequence.
    pub fn is_idle(&self) -> bool {
        self.slots.is_empty()
    }

    /// The lane index currently holding `token`.  This is where the
    /// evaluator's per-lane state for the token lives until the next
    /// [`step`](LaneScheduler::step) / [`admit`](LaneScheduler::admit)
    /// / [`cancel`](LaneScheduler::cancel) call.
    pub fn lane_of(&self, token: u64) -> Option<usize> {
        self.slots.iter().position(|s| s.token == token)
    }

    /// Seats `sequence` in a free lane and returns the lane's index:
    /// the lane's recurrent state is reset and
    /// [`begin_lane_sequence`](NeuronEvaluator::begin_lane_sequence)
    /// starts its evaluator state cold, with the other lanes untouched.
    /// Per-request evaluator state belongs at the returned index until
    /// the next [`step`](LaneScheduler::step).  `token` is returned
    /// with the lane's [`FinishedLane`]; the scheduler attaches no
    /// meaning to it.
    ///
    /// # Errors
    ///
    /// Returns an error if no lane is free, the sequence is empty, or
    /// an element has the wrong width.
    pub fn admit(
        &mut self,
        token: u64,
        sequence: Vec<Vector>,
        evaluator: &mut dyn NeuronEvaluator,
    ) -> Result<usize> {
        if self.free_lanes() == 0 {
            return Err(RnnError::InvalidConfig {
                what: format!("all {} scheduler lanes are occupied", self.lanes),
            });
        }
        if sequence.is_empty() {
            return Err(RnnError::EmptySequence);
        }
        for (t, x) in sequence.iter().enumerate() {
            if x.len() != self.input_size {
                return Err(RnnError::InputSizeMismatch {
                    expected: self.input_size,
                    found: x.len(),
                    timestep: t,
                });
            }
        }
        let lane = self.slots.len();
        for state in &mut self.states {
            state.reset_lane(lane);
        }
        evaluator.begin_lane_sequence(lane);
        self.slots.push(LaneSlot {
            token,
            inputs: sequence,
            t: 0,
            outputs: Vec::new(),
        });
        Ok(lane)
    }

    /// Advances every seated lane by its span of the step — its next
    /// [`HOIST_BLOCK`] timesteps under mid-wave refill, all of them
    /// otherwise (see the [module docs](self)) — appending finished
    /// lanes to `finished` (see [`FinishedLane::stats_lane`] for the
    /// read-before-admit contract).  Returns the number of
    /// lane-timesteps advanced — `0` means the scheduler is idle.
    ///
    /// # Errors
    ///
    /// Propagates evaluator/kernel errors; these indicate widths that
    /// [`admit`](LaneScheduler::admit) already validated, so they only
    /// arise from a network/evaluator swapped mid-flight.
    pub fn step(
        &mut self,
        network: &DeepRnn,
        evaluator: &mut dyn NeuronEvaluator,
        finished: &mut Vec<FinishedLane>,
    ) -> Result<usize> {
        if self.slots.is_empty() {
            return Ok(0);
        }
        self.sort_by_remaining(evaluator);
        let limit = if self.mid_wave {
            HOIST_BLOCK
        } else {
            usize::MAX
        };
        self.span
            .plan(self.slots.iter().map(|s| s.remaining().min(limit)));
        let span = &self.span;
        // Gather the span's layer-0 inputs, lane-striped, step-major.
        let mut in_w = self.input_size;
        grow(&mut self.pack_a, span.total_rows * in_w);
        for (s, l, row) in span.rows() {
            let slot = &self.slots[l];
            self.pack_a[row * in_w..(row + 1) * in_w]
                .copy_from_slice(slot.inputs[slot.t + s].as_slice());
        }
        for (k, layer) in network.layers().iter().enumerate() {
            let (h_w, out_w) = (self.hidden[k], layer.output_size());
            grow(&mut self.pack_b, span.total_rows * out_w);
            // The forward cell runs the span's blocks in order on the
            // layer's persistent state, into the lower half of each
            // output row; a backward cell runs the same blocks from a
            // zeroed state over the end-first rows, each output into
            // the upper half of the row its input was read from.
            let cells = [Some(layer.forward_cell()), layer.backward_cell()];
            for (direction, cell) in cells.into_iter().flatten().enumerate() {
                let backward = direction == 1;
                let (xs, state) = if backward {
                    grow(&mut self.pack_rev, span.total_rows * in_w);
                    for (s, l, dst) in span.rows() {
                        let src = span.row(s, l, true) * in_w;
                        self.pack_rev[dst * in_w..(dst + 1) * in_w]
                            .copy_from_slice(&self.pack_a[src..src + in_w]);
                    }
                    let zeroed = self.backward[k].as_mut().expect("a backward cell");
                    (0..span.lens.len()).for_each(|l| zeroed.reset_lane(l));
                    (&self.pack_rev, zeroed)
                } else {
                    (&self.pack_a, &mut self.states[k])
                };
                for (i, (first, plan)) in span.blocks.iter().enumerate() {
                    cell.run_block(
                        k,
                        direction,
                        self.steps + i * HOIST_BLOCK,
                        plan,
                        &xs[first * in_w..],
                        state,
                        &mut self.nexts[k],
                        &mut self.scratch,
                        |b, h| {
                            for (l, lane) in h.chunks_exact(h_w).enumerate() {
                                let row = span.row(i * HOIST_BLOCK + b, l, backward);
                                let dst = row * out_w + direction * h_w;
                                self.pack_b[dst..dst + h_w].copy_from_slice(lane);
                            }
                        },
                        evaluator,
                    )?;
                }
            }
            std::mem::swap(&mut self.pack_a, &mut self.pack_b);
            in_w = out_w;
        }
        // Emit the span's outputs from the last layer's packed rows
        // (head applied when present).
        for (_, l, row) in span.rows() {
            let h = Vector::from(self.pack_a[row * in_w..(row + 1) * in_w].to_vec());
            let out = match network.head() {
                None => h,
                Some(head) => head.apply(&h)?,
            };
            self.slots[l].outputs.push(out);
        }
        for (slot, n) in self.slots.iter_mut().zip(&span.lens) {
            slot.t += n;
        }
        self.steps += span.lens[0];
        let advanced = span.total_rows;
        // Retire finished lanes, highest index first so each swap
        // target is still an unfinished lane (or the lane itself).
        self.retire_finished(evaluator, finished);
        Ok(advanced)
    }

    /// Evicts the lane holding `token` — the deadline-abort hook: a
    /// serving engine that notices an in-flight request's deadline
    /// expired frees its lane at the next step boundary instead of
    /// computing the remaining timesteps.
    ///
    /// Compaction is identical to retiring a finished lane (state swap
    /// with the tail plus [`NeuronEvaluator::swap_lane_state`]), so
    /// the surviving lanes keep bit-identical results.  Returns the
    /// evicted lane with the outputs of the timesteps computed **so
    /// far** (none for a lane that was seated but has not stepped) and
    /// the [`FinishedLane::stats_lane`] index its per-lane statistics
    /// live at — read them before the next
    /// [`admit`](LaneScheduler::admit), exactly like a finished lane.
    /// Returns `None` when no lane holds `token`.
    pub fn cancel(
        &mut self,
        token: u64,
        evaluator: &mut dyn NeuronEvaluator,
    ) -> Option<FinishedLane> {
        let lane = self.lane_of(token)?;
        let tail = self.slots.len() - 1;
        self.swap_lanes(lane, tail, evaluator);
        let slot = self.slots.pop().expect("slot exists");
        Some(FinishedLane {
            token: slot.token,
            outputs: slot.outputs,
            stats_lane: tail,
        })
    }

    /// Restores the descending-remaining lane order admissions at the
    /// tail may have broken.  A stable insertion sort applied as
    /// adjacent swaps, so recurrent and evaluator lane state move with
    /// their lanes and results stay bit-identical.
    fn sort_by_remaining(&mut self, evaluator: &mut dyn NeuronEvaluator) {
        for i in 1..self.slots.len() {
            let mut j = i;
            while j > 0 && self.slots[j].remaining() > self.slots[j - 1].remaining() {
                self.swap_lanes(j - 1, j, evaluator);
                j -= 1;
            }
        }
    }

    /// Swaps two lanes everywhere their state lives: slot bookkeeping,
    /// per-layer recurrent state, and the evaluator's per-lane state.
    fn swap_lanes(&mut self, a: usize, b: usize, evaluator: &mut dyn NeuronEvaluator) {
        if a == b {
            return;
        }
        self.slots.swap(a, b);
        for state in &mut self.states {
            state.swap_lanes(a, b);
        }
        evaluator.swap_lane_state(a, b);
    }

    /// Retire loop of a block step: pops every lane whose sequence is
    /// exhausted, compacting the active prefix.
    fn retire_finished(
        &mut self,
        evaluator: &mut dyn NeuronEvaluator,
        finished: &mut Vec<FinishedLane>,
    ) {
        for l in (0..self.slots.len()).rev() {
            if self.slots[l].remaining() == 0 {
                let tail = self.slots.len() - 1;
                self.swap_lanes(l, tail, evaluator);
                let slot = self.slots.pop().expect("slot exists");
                finished.push(FinishedLane {
                    token: slot.token,
                    outputs: slot.outputs,
                    stats_lane: tail,
                });
            }
        }
    }
}
