//! Per-lane state of the memoizing evaluator's gate entry.
//!
//! A lane is one in-flight sequence.  Everything the
//! [`BnnMemoEvaluator`](crate::BnnMemoEvaluator) keeps about it — its
//! memo table, its reuse counters, its audit phase and the reuse
//! threshold `θ` its request asked for — is one `MemoLaneState`; the
//! evaluator's driver hooks (size, begin, swap, take stats, set θ) act
//! on it, and [`MemoLanes`] is the read view.
//!
//! `θ` lives here because it is an operand of the per-neuron compare,
//! not a property of the memo buffer: the decide loop of lane `l` reads
//! the lane's override or else the layer's configured `θ`, so requests
//! that differ only in `θ` share one evaluator, one gate call and one
//! weight stream.

use crate::stats::ReuseStats;
use crate::table::MemoTable;
use nfm_rnn::GateId;

/// Memo hits counted so far on each gate of one sequence: the phase of
/// the deterministic 1-in-N audit sampling.  Counted per gate, and every
/// driver visits a gate's timesteps in sequence order, so which hits are
/// sampled does not depend on how the visits to different gates
/// interleave.
#[derive(Debug, Clone, Default)]
pub(crate) struct AuditPhase(Vec<u64>);

impl AuditPhase {
    /// Counts one more hit on `gate` and returns how many preceded it.
    #[inline]
    pub(crate) fn count_hit(&mut self, gate: GateId) -> u64 {
        let at = gate.dense_index();
        if at >= self.0.len() {
            self.0.resize(at + 1, 0);
        }
        self.0[at] += 1;
        self.0[at] - 1
    }

    /// A new sequence starts: every gate counts from zero again.
    pub(crate) fn reset(&mut self) {
        self.0.clear();
    }
}

/// Everything the memoizing evaluator keeps about one lane.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemoLaneState {
    pub(crate) table: MemoTable,
    pub(crate) stats: ReuseStats,
    /// The lane's audit sampling phase (unused unless auditing is on).
    pub(crate) audit: AuditPhase,
    /// The request's `θ` override; `None` runs at the layer's `θ`.
    pub(crate) threshold: Option<f32>,
}

/// The lanes of one evaluator, indexed by lane.
#[derive(Debug, Clone, Default)]
pub struct MemoLanes(pub(crate) Vec<MemoLaneState>);

impl MemoLanes {
    /// Number of lanes sized so far (`0` until a run's `begin_batch`).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no lane has been sized yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Lane `lane`'s memo table (diagnostics only).
    pub fn table(&self, lane: usize) -> &MemoTable {
        &self.0[lane].table
    }

    /// Lane `lane`'s reuse statistics, accumulated since its last
    /// `begin_lane_sequence`.
    pub fn stats(&self, lane: usize) -> &ReuseStats {
        &self.0[lane].stats
    }
}
