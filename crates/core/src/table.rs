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
//! over them, while the scalar API performs no hashing: a lookup is two
//! array indexes (`gate_map[GateId::dense_index()]` → block offset →
//! slot).
//!
//! Sequence boundaries are handled with an epoch counter instead of
//! clearing storage: [`MemoTable::clear`] bumps the epoch, instantly
//! invalidating every entry.

use nfm_rnn::{DeepRnn, GateId};
use std::ops::Range;

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

impl MemoEntry {
    /// Creates a fresh entry right after a full-precision evaluation
    /// (Equations 15–17: `y_m = y_t`, `yb_m = yb_t`, `δb = 0`).
    pub fn fresh(output: f32, bnn_output: f32) -> Self {
        MemoEntry {
            cached_output: output,
            cached_bnn_output: bnn_output,
            accumulated_delta: 0.0,
            consecutive_reuses: 0,
        }
    }
}

/// Contiguous region of every column owned by one gate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Block {
    offset: u32,
    len: u32,
}

impl Block {
    fn range(self) -> Range<usize> {
        self.offset as usize..(self.offset + self.len) as usize
    }
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
    // The columns, all of one length: a `MemoEntry` field each, plus the
    // epoch the slot was written in.
    cached_output: Vec<f32>,
    cached_bnn_output: Vec<f32>,
    accumulated_delta: Vec<f32>,
    consecutive_reuses: Vec<u32>,
    epochs: Vec<u32>,
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
            cached_output: Vec::new(),
            cached_bnn_output: Vec::new(),
            accumulated_delta: Vec::new(),
            consecutive_reuses: Vec::new(),
            epochs: Vec::new(),
            epoch: 1,
            max_consecutive_reuses: 0,
        }
    }
}

/// Appends a block of `len` slots to one column: a copy of the `carry`
/// region first (empty for a new gate), zeros after it.
fn append_block<T: Copy + Default>(column: &mut Vec<T>, carry: Range<usize>, len: usize) {
    let end = column.len() + len;
    column.extend_from_within(carry);
    column.resize(end, T::default());
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

    /// Resolves (allocating if needed) the block of `gate`, sized for at
    /// least `neurons` entries.  Call once per gate invocation; the
    /// returned handle makes every per-neuron access O(1) indexing.
    pub fn gate_handle(&mut self, gate: GateId, neurons: usize) -> GateHandle {
        let dense = gate.dense_index();
        if dense >= self.gate_map.len() {
            self.gate_map.resize(dense + 1, NO_BLOCK);
        }
        let mut block_idx = self.gate_map[dense];
        // A new gate gets a fresh block.  A gate that grew past its
        // region (only possible through the keyed convenience API) is
        // relocated to the end, keeping its live entries.
        let (carry, len) = if block_idx == NO_BLOCK {
            (0..0, neurons)
        } else {
            let old = self.blocks[block_idx as usize];
            if old.len as usize >= neurons {
                return GateHandle(block_idx);
            }
            (old.range(), neurons.max(old.len as usize * 2))
        };
        let block = Block {
            offset: self.epochs.len() as u32,
            len: len as u32,
        };
        append_block(&mut self.cached_output, carry.clone(), len);
        append_block(&mut self.cached_bnn_output, carry.clone(), len);
        append_block(&mut self.accumulated_delta, carry.clone(), len);
        append_block(&mut self.consecutive_reuses, carry.clone(), len);
        append_block(&mut self.epochs, carry.clone(), len);
        // Kill the abandoned region so stale entries cannot resurface.
        self.epochs[carry].fill(0);
        if block_idx == NO_BLOCK {
            block_idx = self.blocks.len() as u32;
            self.blocks.push(block);
            self.gate_map[dense] = block_idx;
        } else {
            self.blocks[block_idx as usize] = block;
        }
        GateHandle(block_idx)
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

    fn lookup_handle(&self, gate: GateId) -> Option<GateHandle> {
        let dense = gate.dense_index();
        let block_idx = *self.gate_map.get(dense)?;
        (block_idx != NO_BLOCK).then_some(GateHandle(block_idx))
    }

    /// Looks up the entry for a neuron (keyed convenience API; the hot
    /// path resolves a [`GateHandle`] once per gate instead).
    pub fn get(&self, gate: GateId, neuron: usize) -> Option<MemoEntry> {
        let handle = self.lookup_handle(gate)?;
        if neuron >= self.blocks[handle.0 as usize].len as usize {
            return None;
        }
        self.entry(handle, neuron)
    }

    /// Replaces a neuron's entry after a full-precision evaluation
    /// (keyed convenience API).
    pub fn refresh(&mut self, gate: GateId, neuron: usize, output: f32, bnn_output: f32) {
        let handle = self.gate_handle(gate, neuron + 1);
        self.refresh_at(handle, neuron, output, bnn_output);
    }

    /// Marks a reuse of a neuron's entry (keyed convenience API).
    ///
    /// Returns the cached full-precision output.
    ///
    /// # Panics
    ///
    /// Panics if the neuron has no entry; callers must only record a
    /// reuse after [`MemoTable::get`] returned `Some`.
    pub fn record_reuse(&mut self, gate: GateId, neuron: usize, new_delta: f32) -> f32 {
        let handle = self
            .lookup_handle(gate)
            .expect("reuse recorded for a neuron with no memo entry");
        assert!(
            neuron < self.blocks[handle.0 as usize].len as usize,
            "reuse recorded for a neuron with no memo entry"
        );
        self.reuse_at(handle, neuron, new_delta)
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

    /// Approximate size of the buffer in bytes, assuming the hardware
    /// layout of Table 2: a 16-bit cached output, a 16-bit cached BNN
    /// output and a 16-bit fixed-point accumulated delta per neuron.
    pub fn hardware_bytes(&self) -> usize {
        self.len() * 6
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
    fn fresh_entry_has_zero_delta() {
        let e = MemoEntry::fresh(1.5, 12.0);
        assert_eq!(e.cached_output, 1.5);
        assert_eq!(e.cached_bnn_output, 12.0);
        assert_eq!(e.accumulated_delta, 0.0);
        assert_eq!(e.consecutive_reuses, 0);
    }

    #[test]
    fn refresh_and_get_roundtrip() {
        let mut t = MemoTable::new();
        assert!(t.is_empty());
        assert!(t.get(gid(), 3).is_none());
        t.refresh(gid(), 3, 2.0, 5.0);
        assert_eq!(t.len(), 1);
        let e = t.get(gid(), 3).unwrap();
        assert_eq!(e.cached_output, 2.0);
        assert_eq!(e.cached_bnn_output, 5.0);
        // Unwritten neurons of the same gate remain absent.
        assert!(t.get(gid(), 0).is_none());
        assert!(t.get(gid(), 9).is_none());
    }

    #[test]
    fn record_reuse_updates_delta_and_counts() {
        let mut t = MemoTable::new();
        t.refresh(gid(), 0, 1.0, 4.0);
        let y = t.record_reuse(gid(), 0, 0.2);
        assert_eq!(y, 1.0);
        let y = t.record_reuse(gid(), 0, 0.35);
        assert_eq!(y, 1.0);
        let e = t.get(gid(), 0).unwrap();
        assert_eq!(e.consecutive_reuses, 2);
        assert!((e.accumulated_delta - 0.35).abs() < 1e-6);
        assert_eq!(t.max_consecutive_reuses(), 2);
        // A refresh resets the run length.
        t.refresh(gid(), 0, 9.0, 9.0);
        assert_eq!(t.get(gid(), 0).unwrap().consecutive_reuses, 0);
        assert_eq!(t.max_consecutive_reuses(), 2);
    }

    #[test]
    #[should_panic(expected = "no memo entry")]
    fn reuse_without_entry_panics() {
        let mut t = MemoTable::new();
        let _ = t.record_reuse(gid(), 7, 0.0);
    }

    #[test]
    #[should_panic(expected = "no memo entry")]
    fn reuse_after_clear_panics() {
        let mut t = MemoTable::new();
        t.refresh(gid(), 0, 1.0, 1.0);
        t.clear();
        let _ = t.record_reuse(gid(), 0, 0.0);
    }

    #[test]
    fn clear_empties_the_table() {
        let mut t = MemoTable::new();
        t.refresh(gid(), 0, 1.0, 1.0);
        t.record_reuse(gid(), 0, 0.1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.max_consecutive_reuses(), 0);
        assert!(t.get(gid(), 0).is_none());
        // The storage survives the clear and is reused.
        t.refresh(gid(), 0, 2.0, 2.0);
        assert_eq!(t.get(gid(), 0).unwrap().cached_output, 2.0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn hardware_bytes_scale_with_entries() {
        let mut t = MemoTable::new();
        assert_eq!(t.hardware_bytes(), 0);
        for n in 0..10 {
            t.refresh(gid(), n, 0.0, 0.0);
        }
        assert_eq!(t.hardware_bytes(), 60);
    }

    #[test]
    fn entries_are_independent_per_neuron_and_gate() {
        let mut t = MemoTable::new();
        let other_gate = GateId::new(1, 0, GateKind::Forget);
        t.refresh(gid(), 0, 1.0, 1.0);
        t.refresh(other_gate, 0, 2.0, 2.0);
        t.record_reuse(gid(), 0, 0.5);
        assert_eq!(t.get(other_gate, 0).unwrap().accumulated_delta, 0.0);
        assert_eq!(t.get(gid(), 0).unwrap().accumulated_delta, 0.5);
    }

    #[test]
    fn handles_make_lookups_o1_and_match_keyed_api() {
        let mut t = MemoTable::with_gates([(gid(), 8)]);
        let h = t.gate_handle(gid(), 8);
        assert!(t.entry(h, 3).is_none());
        t.refresh_at(h, 3, 1.5, -2.0);
        assert_eq!(t.get(gid(), 3).unwrap().cached_output, 1.5);
        assert_eq!(t.entry(h, 3).unwrap().cached_bnn_output, -2.0);
        assert_eq!(t.reuse_at(h, 3, 0.25), 1.5);
        assert_eq!(t.get(gid(), 3).unwrap().consecutive_reuses, 1);
    }

    #[test]
    fn gate_columns_are_the_slots_the_scalar_api_reads() {
        let other = GateId::new(1, 0, GateKind::Forget);
        let mut t = MemoTable::with_gates([(other, 3), (gid(), 5)]);
        let h = t.gate_handle(gid(), 5);
        t.refresh_at(h, 1, 1.5, -2.0);
        t.reuse_at(h, 1, 0.25);
        let cols = t.gate_columns(gid(), 5);
        assert_eq!(cols.cached_output.len(), 5);
        assert_eq!(cols.cached_output[1], 1.5);
        assert_eq!(cols.cached_bnn_output[1], -2.0);
        assert_eq!(cols.accumulated_delta[1], 0.25);
        assert_eq!(cols.consecutive_reuses[1], 1);
        assert_eq!(cols.epochs[1], cols.epoch);
        assert_ne!(cols.epochs[3], cols.epoch, "never written: dead");
        // A whole-gate pass revives slot 3 and extends a run.
        cols.cached_output[3] = 7.0;
        cols.consecutive_reuses[3] = 4;
        cols.epochs[3] = cols.epoch;
        *cols.max_consecutive_reuses = 4;
        assert_eq!(t.entry(h, 3).unwrap().cached_output, 7.0);
        assert_eq!(t.entry(h, 3).unwrap().consecutive_reuses, 4);
        assert_eq!(t.len(), 2);
        assert_eq!(t.max_consecutive_reuses(), 4);
        assert!(
            t.get(other, 0).is_none(),
            "the neighbouring gate is untouched"
        );
    }

    #[test]
    fn block_relocation_preserves_live_entries() {
        let mut t = MemoTable::new();
        t.refresh(gid(), 0, 1.0, 1.0);
        // Force the gate block to grow well past its initial size.
        t.refresh(gid(), 30, 3.0, 3.0);
        assert_eq!(t.get(gid(), 0).unwrap().cached_output, 1.0);
        assert_eq!(t.get(gid(), 30).unwrap().cached_output, 3.0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn epoch_wraparound_resets_slots() {
        let mut t = MemoTable::new();
        t.refresh(gid(), 0, 1.0, 1.0);
        // Force the wrap path.
        t.epoch = u32::MAX - 1;
        t.clear(); // -> u32::MAX
        t.refresh(gid(), 0, 2.0, 2.0);
        t.clear(); // wraps: full slot reset
        assert!(t.get(gid(), 0).is_none());
        t.refresh(gid(), 0, 3.0, 3.0);
        assert_eq!(t.get(gid(), 0).unwrap().cached_output, 3.0);
    }

    #[test]
    fn epoch_wraparound_keeps_counters_and_liveness_consistent() {
        // Around the wrap, live counts, hardware bytes and the
        // max-consecutive-reuse watermark must behave exactly like an
        // ordinary clear: no entry may survive and no counter may leak.
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
        assert_eq!(t.hardware_bytes(), 0);
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

    #[test]
    fn gate_handle_stays_valid_across_clear_cycles() {
        // The hot path resolves a GateHandle once per gate invocation;
        // the batched runner additionally reuses per-lane tables across
        // waves, so a handle resolved before clear() must keep
        // addressing the same block afterwards.
        let mut t = MemoTable::with_gates([(gid(), 8)]);
        let h = t.gate_handle(gid(), 8);
        for cycle in 0..5 {
            assert!(t.is_empty(), "cycle {cycle} starts cold");
            for n in 0..8 {
                assert!(t.entry(h, n).is_none(), "cycle {cycle} slot {n}");
            }
            t.refresh_at(h, cycle, cycle as f32, -(cycle as f32));
            assert_eq!(t.entry(h, cycle).unwrap().cached_output, cycle as f32);
            assert_eq!(t.reuse_at(h, cycle, 0.2), cycle as f32);
            // Re-resolving yields the same block: no relocation, no new
            // storage.
            let resolved = t.gate_handle(gid(), 8);
            assert_eq!(resolved, h);
            assert_eq!(t.len(), 1);
            t.clear();
        }
    }

    #[test]
    fn interleaved_insert_and_lookup_on_freshly_cleared_table() {
        let other = GateId::new(2, 1, GateKind::Reset);
        let mut t = MemoTable::with_gates([(gid(), 4), (other, 4)]);
        let h0 = t.gate_handle(gid(), 4);
        let h1 = t.gate_handle(other, 4);
        // Warm both gates, then clear.
        for n in 0..4 {
            t.refresh_at(h0, n, 1.0, 1.0);
            t.refresh_at(h1, n, 2.0, 2.0);
        }
        t.clear();
        // Interleave inserts and lookups: a lookup of a not-yet-refreshed
        // neuron must miss even though the same slot was live last epoch,
        // while freshly inserted neighbors hit.
        assert!(t.entry(h0, 0).is_none());
        t.refresh_at(h0, 0, 10.0, 10.0);
        assert!(t.entry(h0, 1).is_none(), "stale neighbor must stay dead");
        assert_eq!(t.entry(h0, 0).unwrap().cached_output, 10.0);
        assert!(t.entry(h1, 0).is_none(), "other gate untouched this epoch");
        t.refresh_at(h1, 3, 30.0, 30.0);
        assert_eq!(t.entry(h1, 3).unwrap().cached_output, 30.0);
        assert!(t.entry(h1, 2).is_none());
        assert_eq!(t.len(), 2);
        // Reuse immediately after an interleaved insert sees the fresh
        // entry, not the pre-clear one.
        assert_eq!(t.reuse_at(h0, 0, 0.5), 10.0);
        assert_eq!(t.entry(h0, 0).unwrap().consecutive_reuses, 1);
        assert_eq!(t.entry(h0, 0).unwrap().accumulated_delta, 0.5);
    }

    #[test]
    #[should_panic(expected = "no memo entry")]
    fn reuse_of_stale_epoch_entry_panics_after_clear() {
        let mut t = MemoTable::with_gates([(gid(), 2)]);
        let h = t.gate_handle(gid(), 2);
        t.refresh_at(h, 1, 1.0, 1.0);
        t.clear();
        // The slot still physically holds last epoch's entry; reusing it
        // without a refresh must be rejected loudly.
        let _ = t.reuse_at(h, 1, 0.0);
    }
}
