//! The memoization buffer (Figure 10 / the FMU's memoization buffer).
//!
//! The buffer is stored as *columns* — one flat `Vec` per quantity
//! (`y_m`, `yb_m`, `δb`, the reuse-run length and the epoch a slot was
//! written in; 20 bytes per neuron) — indexed by precomputed per-gate
//! offsets: the software analogue of the paper's dense
//! per-computation-unit memoization buffer.  A gate's neurons are
//! contiguous in every column, so the whole-gate passes of
//! [`BnnMemoEvaluator`](crate::BnnMemoEvaluator) take the gate's column
//! slices once ([`MemoTable::gate_columns`]) and run plain slice loops
//! over them, while the per-neuron handle API performs no hashing: a
//! lookup is two array indexes (`gate_map[GateId::dense_index()]` →
//! block offset → slot).
//!
//! Sequence boundaries are handled with an epoch counter instead of
//! clearing storage: [`MemoTable::clear`] bumps the epoch, instantly
//! invalidating every entry.

use nfm_rnn::{DeepRnn, GateId};
use nfm_tensor::LineBuf;

/// Per-neuron memoization state.
///
/// Matches the three quantities the paper's memoization buffer holds for
/// every neuron: the cached full-precision output `y_m`, the cached
/// binary-network output `yb_m` and the accumulated relative difference
/// `δb` over the current run of reuses (Equations 13–17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoEntry {
    /// Cached full-precision output `y_m` (the pre-activation dot product
    /// in this implementation, which is what the DPU produces and the FMU
    /// bypasses).
    pub cached_output: f32,
    /// Cached binary-network output `yb_m`.
    pub cached_bnn_output: f32,
    /// Accumulated relative difference `δb` across consecutive reuses.
    pub accumulated_delta: f32,
    /// Number of consecutive timesteps the entry has been reused since
    /// the last full-precision evaluation (diagnostic; the hardware does
    /// not need it but the evaluation section reports it).
    pub consecutive_reuses: u32,
}

/// Contiguous region of every column owned by one gate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Block {
    offset: u32,
    len: u32,
}

/// Opaque handle to a gate's block, resolved once per gate invocation so
/// the per-neuron loop is pure array indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateHandle(u32);

/// Sentinel in `gate_map` for gates with no block yet.
const NO_BLOCK: u32 = u32::MAX;

/// One gate's slice of every column, for whole-gate passes: index `n` of
/// each slice is neuron `n`'s [`MemoEntry`] field of the same name.
///
/// Slot `n` is live iff `epochs[n] == epoch`; a pass that revives a slot
/// writes `epoch` there, and one that extends reuse runs keeps
/// `max_consecutive_reuses` (the table's watermark) at least as large as
/// every run it wrote.
#[derive(Debug)]
pub struct GateColumns<'a> {
    /// Cached full-precision outputs `y_m`.
    pub cached_output: &'a mut [f32],
    /// Cached binary-network outputs `yb_m`.
    pub cached_bnn_output: &'a mut [f32],
    /// Accumulated relative differences `δb`.
    pub accumulated_delta: &'a mut [f32],
    /// Lengths of the current reuse runs.
    pub consecutive_reuses: &'a mut [u32],
    /// The epoch each slot was last written in.
    pub epochs: &'a mut [u32],
    /// The table's current epoch.
    pub epoch: u32,
    /// The table's longest-run watermark.
    pub max_consecutive_reuses: &'a mut u32,
}

/// The memoization buffer: one [`MemoEntry`] per `(gate, neuron)`,
/// stored as flat columns indexed by precomputed per-gate offsets.
///
/// The table is (logically) cleared at the start of every input
/// sequence — the hardware buffer holds no useful state across
/// independent inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoTable {
    /// `GateId::dense_index()` → index into `blocks`, `NO_BLOCK` if the
    /// gate has no region yet.  Grown on demand.
    gate_map: Vec<u32>,
    blocks: Vec<Block>,
    // The columns, all of one length, each starting on a cache line: a
    // `MemoEntry` field each, plus the epoch the slot was written in.
    cached_output: LineBuf<f32>,
    cached_bnn_output: LineBuf<f32>,
    accumulated_delta: LineBuf<f32>,
    consecutive_reuses: LineBuf<u32>,
    epochs: LineBuf<u32>,
    /// Entries are live iff their slot epoch equals this (starts at 1 so
    /// zero-initialized slots are dead).
    epoch: u32,
    max_consecutive_reuses: u32,
}

impl Default for MemoTable {
    fn default() -> Self {
        MemoTable {
            gate_map: Vec::new(),
            blocks: Vec::new(),
            cached_output: LineBuf::default(),
            cached_bnn_output: LineBuf::default(),
            accumulated_delta: LineBuf::default(),
            consecutive_reuses: LineBuf::default(),
            epochs: LineBuf::default(),
            epoch: 1,
            max_consecutive_reuses: 0,
        }
    }
}

impl MemoTable {
    /// Creates an empty table; gate regions are laid out on first touch
    /// (each gate's neuron count becomes known when it is first
    /// evaluated).
    pub fn new() -> Self {
        MemoTable::default()
    }

    /// Creates a table with every gate region of `network` laid out up
    /// front, so the hot path never appends.
    pub fn for_network(network: &DeepRnn) -> Self {
        let mut table = MemoTable::new();
        for (id, gate) in network.gates() {
            table.gate_handle(id, gate.neurons());
        }
        table
    }

    /// Creates a table pre-laid-out for an explicit `(gate, neurons)`
    /// shape list (e.g. from a binary mirror).
    pub fn with_gates(shapes: impl IntoIterator<Item = (GateId, usize)>) -> Self {
        let mut table = MemoTable::new();
        for (id, neurons) in shapes {
            table.gate_handle(id, neurons);
        }
        table
    }

    /// Number of neurons with a live cached entry (diagnostic: counts
    /// the epoch column).
    pub fn len(&self) -> usize {
        self.epochs.iter().filter(|&&e| e == self.epoch).count()
    }

    /// Returns `true` if no neuron has a live cached entry.
    pub fn is_empty(&self) -> bool {
        !self.epochs.contains(&self.epoch)
    }

    /// Resolves (laying out if needed) the block of `gate`, sized for
    /// `neurons` entries.  Call once per gate invocation; the returned
    /// handle makes every per-neuron access O(1) indexing.
    ///
    /// # Panics
    ///
    /// Panics if `gate` was laid out for fewer than `neurons` entries: a
    /// gate's shape never changes.
    pub fn gate_handle(&mut self, gate: GateId, neurons: usize) -> GateHandle {
        let dense = gate.dense_index();
        if dense >= self.gate_map.len() {
            self.gate_map.resize(dense + 1, NO_BLOCK);
        }
        let block_idx = self.gate_map[dense];
        if block_idx != NO_BLOCK {
            let len = self.blocks[block_idx as usize].len as usize;
            assert!(
                len >= neurons,
                "{gate:?} was laid out for {len} neurons, not {neurons}"
            );
            return GateHandle(block_idx);
        }
        let offset = self.epochs.len();
        let end = offset + neurons;
        self.cached_output.resize(end);
        self.cached_bnn_output.resize(end);
        self.accumulated_delta.resize(end);
        self.consecutive_reuses.resize(end);
        self.epochs.resize(end);
        self.blocks.push(Block {
            offset: offset as u32,
            len: neurons as u32,
        });
        self.gate_map[dense] = self.blocks.len() as u32 - 1;
        GateHandle(self.gate_map[dense])
    }

    /// Hands out the first `neurons` slots of `gate`'s block as column
    /// slices (allocating the block if needed), for passes that decide
    /// and update a whole gate at once.
    pub fn gate_columns(&mut self, gate: GateId, neurons: usize) -> GateColumns<'_> {
        let handle = self.gate_handle(gate, neurons);
        let at = self.blocks[handle.0 as usize].offset as usize;
        let slots = at..at + neurons;
        GateColumns {
            cached_output: &mut self.cached_output[slots.clone()],
            cached_bnn_output: &mut self.cached_bnn_output[slots.clone()],
            accumulated_delta: &mut self.accumulated_delta[slots.clone()],
            consecutive_reuses: &mut self.consecutive_reuses[slots.clone()],
            epochs: &mut self.epochs[slots],
            epoch: self.epoch,
            max_consecutive_reuses: &mut self.max_consecutive_reuses,
        }
    }

    #[inline]
    fn slot_index(&self, handle: GateHandle, neuron: usize) -> usize {
        let block = &self.blocks[handle.0 as usize];
        debug_assert!(neuron < block.len as usize, "neuron outside gate block");
        block.offset as usize + neuron
    }

    /// Looks up the live entry for `neuron` of the handled gate.
    #[inline]
    pub fn entry(&self, handle: GateHandle, neuron: usize) -> Option<MemoEntry> {
        let idx = self.slot_index(handle, neuron);
        (self.epochs[idx] == self.epoch).then(|| MemoEntry {
            cached_output: self.cached_output[idx],
            cached_bnn_output: self.cached_bnn_output[idx],
            accumulated_delta: self.accumulated_delta[idx],
            consecutive_reuses: self.consecutive_reuses[idx],
        })
    }

    /// Replaces a neuron's entry after a full-precision evaluation.
    #[inline]
    pub fn refresh_at(&mut self, handle: GateHandle, neuron: usize, output: f32, bnn_output: f32) {
        let idx = self.slot_index(handle, neuron);
        self.cached_output[idx] = output;
        self.cached_bnn_output[idx] = bnn_output;
        self.accumulated_delta[idx] = 0.0;
        self.consecutive_reuses[idx] = 0;
        self.epochs[idx] = self.epoch;
    }

    /// Marks a reuse of a neuron's entry, updating the accumulated delta
    /// (Equation 14 keeps `δb` when the value is reused).  Returns the
    /// cached full-precision output.
    ///
    /// # Panics
    ///
    /// Panics if the neuron has no live entry; callers must only record
    /// a reuse after [`MemoTable::entry`] returned `Some`.
    #[inline]
    pub fn reuse_at(&mut self, handle: GateHandle, neuron: usize, new_delta: f32) -> f32 {
        let idx = self.slot_index(handle, neuron);
        assert_eq!(
            self.epochs[idx], self.epoch,
            "reuse recorded for a neuron with no memo entry"
        );
        self.accumulated_delta[idx] = new_delta;
        self.consecutive_reuses[idx] += 1;
        self.max_consecutive_reuses = self
            .max_consecutive_reuses
            .max(self.consecutive_reuses[idx]);
        self.cached_output[idx]
    }

    /// Looks up the live entry for a neuron by gate (diagnostics; the
    /// hot path resolves a [`GateHandle`] once per gate instead).
    pub fn get(&self, gate: GateId, neuron: usize) -> Option<MemoEntry> {
        let block_idx = *self.gate_map.get(gate.dense_index())?;
        if block_idx == NO_BLOCK || neuron >= self.blocks[block_idx as usize].len as usize {
            return None;
        }
        self.entry(GateHandle(block_idx), neuron)
    }

    /// Longest run of consecutive reuses observed for any neuron since
    /// the table was created or cleared.
    pub fn max_consecutive_reuses(&self) -> u32 {
        self.max_consecutive_reuses
    }

    /// Clears every entry (start of a new input sequence).  O(1): the
    /// epoch bump invalidates all slots without touching storage.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.epochs.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.max_consecutive_reuses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_rnn::GateKind;

    fn gid() -> GateId {
        GateId::new(0, 0, GateKind::Input)
    }

    #[test]
    fn epoch_wraparound_resets_slots() {
        let mut t = MemoTable::with_gates([(gid(), 1)]);
        let h = t.gate_handle(gid(), 1);
        t.refresh_at(h, 0, 1.0, 1.0);
        // Force the wrap path.
        t.epoch = u32::MAX - 1;
        t.clear(); // -> u32::MAX
        t.refresh_at(h, 0, 2.0, 2.0);
        t.clear(); // wraps: full slot reset
        assert!(t.entry(h, 0).is_none());
        t.refresh_at(h, 0, 3.0, 3.0);
        assert_eq!(t.entry(h, 0).unwrap().cached_output, 3.0);
    }

    #[test]
    fn epoch_wraparound_keeps_counters_and_liveness_consistent() {
        // Around the wrap, live counts and the max-consecutive-reuse
        // watermark must behave exactly like an ordinary clear: no entry
        // may survive and no counter may leak.
        let mut t = MemoTable::with_gates([(gid(), 4)]);
        t.epoch = u32::MAX;
        let h = t.gate_handle(gid(), 4);
        for n in 0..4 {
            t.refresh_at(h, n, n as f32, 0.0);
        }
        t.reuse_at(h, 2, 0.1);
        assert_eq!(t.len(), 4);
        assert_eq!(t.max_consecutive_reuses(), 1);
        t.clear(); // wraps u32::MAX -> 1 with a full slot sweep
        assert_eq!(t.epoch, 1, "wrap restarts the epoch at 1");
        assert!(t.is_empty());
        assert_eq!(t.max_consecutive_reuses(), 0);
        for n in 0..4 {
            assert!(t.entry(h, n).is_none(), "slot {n} must be dead after wrap");
        }
        // Entries written before the wrap (epoch == u32::MAX) and the
        // zero-initialized epoch-0 slots must both read as dead under
        // the restarted epoch.
        t.refresh_at(h, 1, 9.0, 9.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.entry(h, 1).unwrap().cached_output, 9.0);
        assert!(t.entry(h, 0).is_none());
    }
}
