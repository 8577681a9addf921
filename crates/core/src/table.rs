//! The memoization buffer (Figure 10 / the FMU's memoization buffer).
//!
//! The buffer is stored as *columns* — one flat `f32` column per
//! quantity the paper's buffer holds (`y_m`, `yb_m` and `δb`; 12 bytes
//! per neuron) — indexed by precomputed per-gate offsets: the software
//! analogue of the paper's dense per-computation-unit memoization
//! buffer.  A gate's neurons are contiguous in every column, so the
//! whole-gate decide pass of the memoizing evaluators takes the gate's
//! column slices once ([`MemoTable::gate_columns`]) and runs one plain
//! slice loop over them, while the per-neuron handle API performs no
//! hashing: a lookup is two array indexes (`gate_map[GateId::dense_index()]`
//! → block offset → slot).
//!
//! A slot is live iff its `δb` is not NaN.  A new gate region and
//! [`MemoTable::clear`] (the start of a sequence) fill `δb` with NaN, a
//! refresh writes 0, and a reuse stores a `δb' <= θ`, which a NaN never
//! is.

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
/// each slice is neuron `n`'s [`MemoEntry`] field of the same name, and
/// slot `n` is live iff `accumulated_delta[n]` is not NaN.
#[derive(Debug)]
pub struct GateColumns<'a> {
    /// Cached full-precision outputs `y_m`.
    pub cached_output: &'a mut [f32],
    /// Cached binary-network outputs `yb_m`.
    pub cached_bnn_output: &'a mut [f32],
    /// Accumulated relative differences `δb` (NaN in a dead slot).
    pub accumulated_delta: &'a mut [f32],
}

/// The memoization buffer: one [`MemoEntry`] per `(gate, neuron)`,
/// stored as flat columns indexed by precomputed per-gate offsets.
///
/// The table is cleared at the start of every input sequence — the
/// hardware buffer holds no useful state across independent inputs.
#[derive(Debug, Clone, Default)]
pub struct MemoTable {
    /// `GateId::dense_index()` → index into `blocks`, `NO_BLOCK` if the
    /// gate has no region yet.  Grown on demand.
    gate_map: Vec<u32>,
    blocks: Vec<Block>,
    // The columns, all of one length, each starting on a cache line: a
    // `MemoEntry` field each.
    cached_output: LineBuf<f32>,
    cached_bnn_output: LineBuf<f32>,
    accumulated_delta: LineBuf<f32>,
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
    /// the `δb` column).
    pub fn len(&self) -> usize {
        self.accumulated_delta
            .iter()
            .filter(|d| !d.is_nan())
            .count()
    }

    /// Returns `true` if no neuron has a live cached entry.
    pub fn is_empty(&self) -> bool {
        self.accumulated_delta.iter().all(|d| d.is_nan())
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
        let offset = self.accumulated_delta.len();
        let end = offset + neurons;
        self.cached_output.resize(end);
        self.cached_bnn_output.resize(end);
        self.accumulated_delta.resize(end);
        self.accumulated_delta[offset..].fill(f32::NAN);
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
            accumulated_delta: &mut self.accumulated_delta[slots],
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
        let accumulated_delta = self.accumulated_delta[idx];
        (!accumulated_delta.is_nan()).then(|| MemoEntry {
            cached_output: self.cached_output[idx],
            cached_bnn_output: self.cached_bnn_output[idx],
            accumulated_delta,
        })
    }

    /// Replaces a neuron's entry after a full-precision evaluation.
    #[inline]
    pub fn refresh_at(&mut self, handle: GateHandle, neuron: usize, output: f32, bnn_output: f32) {
        let idx = self.slot_index(handle, neuron);
        self.cached_output[idx] = output;
        self.cached_bnn_output[idx] = bnn_output;
        self.accumulated_delta[idx] = 0.0;
    }

    /// Marks a reuse of a neuron's entry, updating the accumulated delta
    /// (Equation 14 keeps `δb` when the value is reused).  Returns the
    /// cached full-precision output.
    ///
    /// # Panics
    ///
    /// Panics if the neuron has no live entry (callers must only record
    /// a reuse after [`MemoTable::entry`] returned `Some`), or if
    /// `new_delta` is NaN: a hit's `δb' <= θ` never is, and storing it
    /// would kill the slot.
    #[inline]
    pub fn reuse_at(&mut self, handle: GateHandle, neuron: usize, new_delta: f32) -> f32 {
        let idx = self.slot_index(handle, neuron);
        assert!(
            !self.accumulated_delta[idx].is_nan(),
            "reuse recorded for a neuron with no memo entry"
        );
        assert!(!new_delta.is_nan(), "reuse recorded with a NaN δb");
        self.accumulated_delta[idx] = new_delta;
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

    /// Clears every entry (start of a new input sequence): one fill of
    /// the `δb` column with NaN.
    pub fn clear(&mut self) {
        self.accumulated_delta.fill(f32::NAN);
    }
}
