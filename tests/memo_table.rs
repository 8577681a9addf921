//! `MemoTable` through its public surface: the per-gate handle API
//! (`gate_handle`, `entry`, `refresh_at`, `reuse_at`), the whole-gate
//! column view and the clear.  A slot is live iff its `δb` is not NaN:
//! new regions and `clear` fill `δb` with NaN, a refresh writes 0.

use nfm::memo::MemoTable;
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig, Direction, GateId, GateKind};
use nfm::tensor::rng::DeterministicRng;

fn gid() -> GateId {
    GateId::new(0, 0, GateKind::Input)
}

#[test]
fn refresh_and_entry_roundtrip() {
    let mut t = MemoTable::new();
    assert!(t.is_empty());
    let h = t.gate_handle(gid(), 8);
    assert!(t.entry(h, 3).is_none());
    t.refresh_at(h, 3, 2.0, 5.0);
    assert_eq!(t.len(), 1);
    let e = t.entry(h, 3).unwrap();
    assert_eq!((e.cached_output, e.cached_bnn_output), (2.0, 5.0));
    assert_eq!(e.accumulated_delta, 0.0);
    assert_eq!(t.get(gid(), 3), Some(e), "the keyed lookup reads the slot");
    // Unwritten neurons of the same gate, and neurons past it, are absent.
    assert!(t.entry(h, 0).is_none());
    assert!(t.get(gid(), 9).is_none());
    assert!(t.get(GateId::new(3, 1, GateKind::Reset), 0).is_none());
}

#[test]
fn reuse_updates_delta_and_run_and_a_refresh_ends_the_run() {
    let mut t = MemoTable::new();
    let h = t.gate_handle(gid(), 1);
    t.refresh_at(h, 0, 1.0, 4.0);
    assert_eq!(t.reuse_at(h, 0, 0.2), 1.0);
    assert_eq!(t.reuse_at(h, 0, 0.35), 1.0);
    let e = t.entry(h, 0).unwrap();
    assert_eq!(
        (e.cached_output, e.cached_bnn_output, e.accumulated_delta),
        (1.0, 4.0, 0.35)
    );
    t.refresh_at(h, 0, 9.0, 9.0);
    let e = t.entry(h, 0).unwrap();
    assert_eq!((e.cached_output, e.accumulated_delta), (9.0, 0.0));
}

#[test]
#[should_panic(expected = "no memo entry")]
fn reuse_without_entry_panics() {
    let mut t = MemoTable::new();
    let h = t.gate_handle(gid(), 8);
    let _ = t.reuse_at(h, 7, 0.0);
}

#[test]
#[should_panic(expected = "NaN δb")]
fn reuse_with_a_nan_delta_panics() {
    // A NaN `δb` marks a dead slot, so storing one would silently
    // drop the entry: no hit stores one (`δb' <= θ` is false for NaN).
    let mut t = MemoTable::new();
    let h = t.gate_handle(gid(), 1);
    t.refresh_at(h, 0, 1.0, 1.0);
    let _ = t.reuse_at(h, 0, f32::NAN);
}

#[test]
#[should_panic(expected = "no memo entry")]
fn reuse_of_a_stale_entry_after_clear_panics() {
    let mut t = MemoTable::with_gates([(gid(), 2)]);
    let h = t.gate_handle(gid(), 2);
    t.refresh_at(h, 1, 1.0, 1.0);
    t.clear();
    // The slot still holds the last sequence's `y_m` and `yb_m`;
    // reusing it without a refresh must be rejected loudly.
    let _ = t.reuse_at(h, 1, 0.0);
}

#[test]
fn clear_empties_the_table_and_keeps_its_storage() {
    let mut t = MemoTable::new();
    let h = t.gate_handle(gid(), 1);
    t.refresh_at(h, 0, 1.0, 1.0);
    t.reuse_at(h, 0, 0.1);
    t.clear();
    assert!(t.is_empty());
    assert!(t.entry(h, 0).is_none());
    t.refresh_at(h, 0, 2.0, 2.0);
    assert_eq!(t.entry(h, 0).unwrap().cached_output, 2.0);
    assert_eq!(t.len(), 1);
    assert_eq!(t.gate_handle(gid(), 1), h, "no new block after a clear");
}

#[test]
fn entries_are_independent_per_neuron_and_gate() {
    let other = GateId::new(1, 0, GateKind::Forget);
    let mut t = MemoTable::new();
    let (h0, h1) = (t.gate_handle(gid(), 2), t.gate_handle(other, 2));
    t.refresh_at(h0, 0, 1.0, 1.0);
    t.refresh_at(h1, 0, 2.0, 2.0);
    t.reuse_at(h0, 0, 0.5);
    assert_eq!(t.entry(h1, 0).unwrap().accumulated_delta, 0.0);
    assert_eq!(t.entry(h0, 0).unwrap().accumulated_delta, 0.5);
    assert!(t.entry(h0, 1).is_none());
}

#[test]
fn for_network_lays_out_every_gate_once() {
    let mut rng = DeterministicRng::seed_from_u64(7);
    let config = DeepRnnConfig::new(CellKind::Gru, 3, 5)
        .layers(2)
        .direction(Direction::Bidirectional);
    let net = DeepRnn::random(&config, &mut rng).unwrap();
    let mut t = MemoTable::for_network(&net);
    let handles: Vec<_> = net
        .gates()
        .into_iter()
        .map(|(id, gate)| t.gate_handle(id, gate.neurons()))
        .collect();
    // Twelve gates, twelve distinct blocks, every slot dead.
    assert_eq!(handles.len(), 12);
    for (i, h) in handles.iter().enumerate() {
        assert!(!handles[..i].contains(h));
        assert!((0..5).all(|n| t.entry(*h, n).is_none()));
    }
    assert!(t.is_empty());
}

#[test]
#[should_panic(expected = "laid out for 4 neurons")]
fn a_gate_keeps_the_shape_it_was_laid_out_with() {
    let mut t = MemoTable::with_gates([(gid(), 4)]);
    assert_eq!(t.gate_handle(gid(), 3), t.gate_handle(gid(), 4));
    let _ = t.gate_handle(gid(), 5);
}

#[test]
fn gate_columns_are_the_slots_the_handle_api_reads() {
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
    assert!(cols.accumulated_delta[3].is_nan(), "never written: dead");
    // A whole-gate pass revives slot 3 and refreshes slot 1.
    cols.cached_output[3] = 7.0;
    cols.accumulated_delta[3] = 0.5;
    cols.accumulated_delta[1] = 0.0;
    let e = t.entry(h, 3).unwrap();
    assert_eq!((e.cached_output, e.accumulated_delta), (7.0, 0.5));
    assert_eq!(t.entry(h, 1).unwrap().accumulated_delta, 0.0);
    assert_eq!(t.len(), 2);
    assert!(
        t.get(other, 0).is_none(),
        "the neighbouring gate is untouched"
    );
}

#[test]
fn gate_handle_stays_valid_across_clear_cycles() {
    // The hot path resolves a GateHandle once per gate invocation, and
    // lanes reuse their tables across sequences, so a handle resolved
    // before clear() must keep addressing the same block afterwards.
    let mut t = MemoTable::with_gates([(gid(), 8)]);
    let h = t.gate_handle(gid(), 8);
    for cycle in 0..5 {
        assert!(t.is_empty(), "cycle {cycle} starts cold");
        assert!((0..8).all(|n| t.entry(h, n).is_none()), "cycle {cycle}");
        t.refresh_at(h, cycle, cycle as f32, -(cycle as f32));
        assert_eq!(t.entry(h, cycle).unwrap().cached_output, cycle as f32);
        assert_eq!(t.reuse_at(h, cycle, 0.2), cycle as f32);
        assert_eq!(t.gate_handle(gid(), 8), h, "no relocation");
        assert_eq!(t.len(), 1);
        t.clear();
    }
}

#[test]
fn interleaved_insert_and_lookup_on_a_freshly_cleared_table() {
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
    // A lookup of a not-yet-refreshed neuron must miss even though the
    // same slot was live before the clear, while freshly inserted neighbours
    // hit.
    assert!(t.entry(h0, 0).is_none());
    t.refresh_at(h0, 0, 10.0, 10.0);
    assert!(t.entry(h0, 1).is_none(), "stale neighbour must stay dead");
    assert_eq!(t.entry(h0, 0).unwrap().cached_output, 10.0);
    assert!(
        t.entry(h1, 0).is_none(),
        "other gate untouched since the clear"
    );
    t.refresh_at(h1, 3, 30.0, 30.0);
    assert_eq!(t.entry(h1, 3).unwrap().cached_output, 30.0);
    assert!(t.entry(h1, 2).is_none());
    assert_eq!(t.len(), 2);
    // Reuse right after an interleaved insert sees the fresh entry, not
    // the pre-clear one.
    assert_eq!(t.reuse_at(h0, 0, 0.5), 10.0);
    let e = t.entry(h0, 0).unwrap();
    assert_eq!((e.cached_output, e.accumulated_delta), (10.0, 0.5));
}
