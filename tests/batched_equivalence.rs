//! Equivalence guarantees for the gate entry, the one implementation
//! every evaluator has.
//!
//! The exact evaluator's tiled entry must be bit-identical to the exact
//! policy written one neuron at a time through `evaluate_neurons`.  The
//! memoizing evaluators are checked against the independent per-neuron
//! memoized reference (`memo_check`): every one-lane run below goes
//! through that check, and every run through the lane scheduler must
//! reproduce those one-lane runs bit for bit — outputs, each sequence's
//! statistics and final memo entries, audits — for {oracle, BNN, BNN
//! unthrottled, BNN + audit} × {LSTM, GRU} × {uni, bidirectional}, with
//! lanes refilled mid-flight and at sequence lengths on both sides of
//! the hoist block.  BNN's whole-gate passes are also pinned to their
//! one-lane runs across gate widths and lane counts on both sides of
//! every vector width and kernel tile.  An engine with any worker count
//! must answer with the outputs and statistics of `Predictor::run`.

mod memo_check;

use memo_check::{checked_run, entry_bits, Inspect};
use nfm::bnn::BinaryNetwork;
use nfm::eval::reference::MemoPolicy;
use nfm::memo::{
    AuditConfig, BnnMemoConfig, BnnMemoEvaluator, Model, OracleMemoConfig, Predictor,
    PredictorKind, ReuseStats,
};
use nfm::rnn::{
    evaluate_neurons, CellKind, DeepRnn, DeepRnnConfig, Direction, ExactEvaluator, GateBatch,
    LaneScheduler, NeuronEvaluator, Result as RnnResult,
};
use nfm::serve::{EngineBuilder, InferenceRequest};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Vector;

fn networks() -> Vec<(&'static str, DeepRnn)> {
    let mut rng = DeterministicRng::seed_from_u64(42);
    vec![
        (
            "lstm-uni",
            DeepRnn::random(
                &DeepRnnConfig::new(CellKind::Lstm, 6, 9)
                    .layers(2)
                    .output_size(3),
                &mut rng,
            )
            .unwrap(),
        ),
        (
            "lstm-bidi",
            DeepRnn::random(
                &DeepRnnConfig::new(CellKind::Lstm, 5, 7)
                    .layers(2)
                    .direction(Direction::Bidirectional),
                &mut rng,
            )
            .unwrap(),
        ),
        (
            "gru-uni",
            DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 6, 8).layers(3), &mut rng).unwrap(),
        ),
        (
            "gru-bidi",
            DeepRnn::random(
                &DeepRnnConfig::new(CellKind::Gru, 4, 6)
                    .layers(2)
                    .direction(Direction::Bidirectional)
                    .output_size(2),
                &mut rng,
            )
            .unwrap(),
        ),
    ]
}

fn smooth_sequence(len: usize, width: usize, seed: u64) -> Vec<Vector> {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let mut x = Vector::from_fn(width, |_| rng.uniform(-0.5, 0.5));
    (0..len)
        .map(|_| {
            x = x
                .add(&Vector::from_fn(width, |_| rng.uniform(-0.08, 0.08)))
                .unwrap();
            x.clone()
        })
        .collect()
}

/// Asserts two output sequences are bit-identical (stricter than
/// `PartialEq`, which would let `-0.0 == 0.0` slip through).
fn assert_bit_identical(name: &str, batched: &[Vector], per_neuron: &[Vector]) {
    assert_eq!(batched.len(), per_neuron.len(), "{name}: length");
    for (t, (a, b)) in batched.iter().zip(per_neuron.iter()).enumerate() {
        assert_eq!(a.len(), b.len(), "{name}: width at t={t}");
        for i in 0..a.len() {
            assert_eq!(
                a[i].to_bits(),
                b[i].to_bits(),
                "{name}: output bit mismatch at t={t}, i={i}: {} vs {}",
                a[i],
                b[i]
            );
        }
    }
}

/// The exact policy written one neuron at a time.
#[derive(Default)]
struct PerNeuronExact {
    evaluations: u64,
}

impl NeuronEvaluator for PerNeuronExact {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        let wh = call.gate.wh();
        evaluate_neurons(call, out, |id, _, h, fwd| {
            self.evaluations += 1;
            Ok(fwd + wh.row_dot(id.neuron, h)?)
        })
    }
}

/// One sequence's run: outputs, its lane's statistics and the memo
/// entries its lane's table ended with.
type Run = (Vec<Vector>, ReuseStats, Vec<Option<[u32; 3]>>);

/// Runs `seqs` through a `lanes`-wide lane scheduler, refilling lanes
/// as they drain, and returns every sequence's run in input order.
fn through_scheduler<E: Inspect>(
    net: &DeepRnn,
    lanes: usize,
    seqs: &[Vec<Vector>],
    evaluator: &mut E,
) -> Vec<Run> {
    let mut sched = LaneScheduler::new(net, lanes).unwrap();
    evaluator.begin_batch(lanes);
    let mut queue = seqs.iter().cloned().enumerate();
    let mut results = vec![None; seqs.len()];
    let mut finished = Vec::new();
    loop {
        while sched.free_lanes() > 0 {
            let Some((i, s)) = queue.next() else { break };
            sched.admit(i as u64, s, evaluator).unwrap();
        }
        if sched.step(net, evaluator, &mut finished).unwrap() == 0 {
            break;
        }
        for f in finished.drain(..) {
            let (stats, table) = (
                evaluator.lanes().stats(f.stats_lane),
                evaluator.lanes().table(f.stats_lane),
            );
            results[f.token as usize] = Some((f.outputs, *stats, entry_bits(net, table)));
        }
    }
    results.into_iter().map(Option::unwrap).collect()
}

/// Every sequence of `seqs` alone, under the reference check.
fn checked_solo_runs<E: Inspect>(
    net: &DeepRnn,
    seqs: &[Vec<Vector>],
    make: impl Fn() -> E,
    policy: MemoPolicy,
) -> Vec<Run> {
    seqs.iter()
        .map(|s| {
            let (out, e) = checked_run(net, s, make(), policy);
            let entries = entry_bits(net, e.lanes().table(0));
            (out, *e.lanes().stats(0), entries)
        })
        .collect()
}

/// Requires every sequence's scheduled run to equal its solo run.
fn assert_runs_match(what: &str, batched: &[Run], solo: &[Run]) {
    assert_eq!(batched.len(), solo.len(), "{what}");
    for (i, (b, s)) in batched.iter().zip(solo).enumerate() {
        assert_bit_identical(&format!("{what} seq {i}"), &b.0, &s.0);
        assert_eq!(
            (b.1, &b.2),
            (s.1, &s.2),
            "{what} seq {i}: stats, memo entries"
        );
    }
}

/// Four ragged sequences of `net`'s input width.
fn ragged(net: &DeepRnn, seed: u64) -> Vec<Vec<Vector>> {
    [14, 9, 17, 5]
        .iter()
        .enumerate()
        .map(|(i, &len)| smooth_sequence(len, net.input_size(), seed + i as u64))
        .collect()
}

/// Each of a network's ragged sequences, checked alone against the
/// reference, then all of them through a 3-lane scheduler on one
/// evaluator: every sequence reproduces its solo run, and the
/// evaluator's aggregate counts are the solo runs' sum.  Returns the
/// scheduled evaluator.
fn assert_scheduled_runs_reproduce_checked_solo_runs<E: Inspect>(
    what: &str,
    net: &DeepRnn,
    seqs: &[Vec<Vector>],
    make: impl Fn() -> E,
    policy: MemoPolicy,
) -> E {
    let solo = checked_solo_runs(net, seqs, &make, policy);
    let mut evaluator = make();
    let batched = through_scheduler(net, 3, seqs, &mut evaluator);
    assert_runs_match(what, &batched, &solo);
    let mut total = ReuseStats::new();
    solo.iter().for_each(|run| total.merge(&run.1));
    assert_eq!(evaluator.total(), total, "{what}: aggregate statistics");
    evaluator
}

#[test]
fn exact_batched_is_bit_identical_to_per_neuron() {
    for (name, net) in networks() {
        let seq = smooth_sequence(12, net.input_size(), 7);
        let mut batched = ExactEvaluator::new();
        let out_batched = net.run(&seq, &mut batched).unwrap();
        let mut naive = PerNeuronExact::default();
        let out_naive = net.run(&seq, &mut naive).unwrap();
        assert_bit_identical(name, &out_batched, &out_naive);
        assert_eq!(batched.evaluations(), naive.evaluations, "{name}");
    }
}

#[test]
fn oracle_batched_is_bit_identical_and_stats_match() {
    for theta in [0.0f32, 0.2, 0.6, f32::INFINITY] {
        for (name, net) in networks() {
            let config = OracleMemoConfig::with_threshold(theta);
            assert_scheduled_runs_reproduce_checked_solo_runs(
                &format!("{name} oracle θ={theta}"),
                &net,
                &ragged(&net, 11),
                || BnnMemoEvaluator::oracle(config),
                MemoPolicy::Oracle(config),
            );
        }
    }
}

/// BNN at `config` over every network, checked, scheduled and compared;
/// with `audit`, the scheduled run also samples the solo runs' hits.
fn assert_bnn_case(case: &str, config: BnnMemoConfig, audit: Option<AuditConfig>, seed: u64) {
    for (name, net) in networks() {
        let what = format!("{name} bnn {case}");
        let mirror = std::sync::Arc::new(BinaryNetwork::mirror(&net));
        let make = || {
            let evaluator = BnnMemoEvaluator::new(mirror.clone(), config);
            match audit {
                Some(audit) => evaluator.with_audit(audit),
                None => evaluator,
            }
        };
        let seqs = ragged(&net, seed);
        let policy = MemoPolicy::Bnn(config, audit);
        let scheduled =
            assert_scheduled_runs_reproduce_checked_solo_runs(&what, &net, &seqs, make, policy);
        assert!(
            scheduled.stats().reuses() > 0 || config.threshold == 0.0,
            "{what}"
        );
        if audit.is_some() {
            // Same hits sampled: the per-layer counters of the solo runs
            // add up to the scheduled run's.
            let mut solo = nfm::memo::AuditStats::new();
            for s in &seqs {
                let (_, e) = checked_run(&net, s, make(), policy);
                solo.merge(e.audit_stats());
            }
            let got = scheduled.audit_stats();
            assert!(got.audited() > 0, "{what}: some hits audited");
            for (g, w) in got.layers().iter().zip(solo.layers()) {
                assert_eq!((g.hits, g.audited), (w.hits, w.audited), "{what}");
                assert!(
                    (g.error_sum - w.error_sum).abs() <= 1e-9 * w.error_sum,
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn bnn_batched_is_bit_identical_and_stats_match() {
    for theta in [0.0f32, 0.5, 2.0] {
        assert_bnn_case(
            &format!("θ={theta}"),
            BnnMemoConfig::with_threshold(theta),
            None,
            13,
        );
    }
}

#[test]
fn bnn_without_throttling_is_bit_identical_too() {
    let config = BnnMemoConfig::with_threshold(0.8).without_throttling();
    assert_bnn_case("unthrottled", config, None, 17);
}

#[test]
fn bnn_with_audit_is_bit_identical_and_audits_the_same_hits() {
    let audit = AuditConfig::new(4, 2019);
    assert_bnn_case(
        "audited",
        BnnMemoConfig::with_threshold(1.0),
        Some(audit),
        19,
    );
}

/// BNN's gate entry decides, computes and refreshes a whole gate in
/// vector-shaped passes over lane-striped buffers, so every lane is
/// pinned to the same sequence run alone across gate widths that are no
/// multiple of any vector width and lane counts around the kernel's
/// lane quads and chunks — under the lane scheduler's block refill,
/// with ragged lengths, so lanes drain and are refilled while their
/// neighbours are mid-sequence.  With and without audit sampling.
#[test]
fn bnn_passes_match_one_lane_at_every_gate_width_and_lane_count() {
    const WIDTHS: [usize; 6] = [1, 7, 17, 37, 128, 400];
    const LANES: [usize; 7] = [1, 2, 3, 5, 8, 9, 70];
    let config = BnnMemoConfig::with_threshold(1.0);
    for (w, &hidden) in WIDTHS.iter().enumerate() {
        let mut rng = DeterministicRng::seed_from_u64(300 + w as u64);
        let kind = [CellKind::Lstm, CellKind::Gru][w % 2];
        let net = DeepRnn::random(&DeepRnnConfig::new(kind, 3, hidden), &mut rng).unwrap();
        let mirror = std::sync::Arc::new(BinaryNetwork::mirror(&net));
        // Three more sequences than the widest scheduler has lanes, of
        // lengths on both sides of the 8-step block.
        let seqs: Vec<Vec<Vector>> = (0..LANES[LANES.len() - 1] + 3)
            .map(|i| smooth_sequence(2 + (i * 7) % 11, 3, 400 + i as u64))
            .collect();
        for audit in [None, Some(AuditConfig::new(3, 2019))] {
            let make = || {
                let evaluator = BnnMemoEvaluator::new(mirror.clone(), config);
                match audit {
                    Some(audit) => evaluator.with_audit(audit),
                    None => evaluator,
                }
            };
            let solo = through_scheduler(&net, 1, &seqs, &mut make());
            for lanes in LANES {
                let what = format!("hidden {hidden} lanes {lanes} audit {}", audit.is_some());
                let mut evaluator = make();
                let batched = through_scheduler(&net, lanes, &seqs[..lanes + 3], &mut evaluator);
                assert_runs_match(&what, &batched, &solo[..lanes + 3]);
                let audited: u64 = batched.iter().map(|run| run.1.audited()).sum();
                assert_eq!(evaluator.audit_stats().audited(), audited, "{what}");
                assert_eq!(
                    audit.is_some(),
                    audited > 0,
                    "{what}: audits taken iff sampling"
                );
            }
        }
    }
}

/// The memoizing evaluators take the hoisted `W_x·x_t` and add one
/// tiled `W_h` product onto it, so their hits, misses and audits must
/// not depend on where a hoist block starts or ends: under the lane
/// scheduler, at sequence lengths 1 / 4 / 9 / 17 and 1, 3 and 8 lanes,
/// every sequence equals its run alone checked against the per-neuron
/// reference — outputs, its lane's statistics (audits included) — for
/// BNN (throttled or not, with and without audit) and the oracle, over
/// an LSTM with peepholes, a GRU (whose candidate gate's recurrent
/// input is `r ⊙ h`) and a bidirectional GRU.  A mirror of another
/// network reproduces exact.
#[test]
fn hoisting_memo_evaluators_match_per_neuron_across_hoist_blocks() {
    let mut rng = DeterministicRng::seed_from_u64(34);
    let nets = [
        DeepRnnConfig::new(CellKind::Lstm, 5, 9)
            .layers(2)
            .peepholes(true),
        DeepRnnConfig::new(CellKind::Gru, 5, 7).layers(2),
        DeepRnnConfig::new(CellKind::Gru, 5, 6).direction(Direction::Bidirectional),
    ]
    .map(|config| DeepRnn::random(&config, &mut rng).unwrap());
    let seqs: Vec<Vec<Vector>> = (0..12)
        .map(|i| smooth_sequence([1, 4, 9, 17][i % 4], 5, 500 + i as u64))
        .collect();
    let bnn = BnnMemoConfig::with_threshold(1.0);
    let bnn_configs = [
        (bnn, None),
        (bnn.without_throttling(), None),
        (bnn, Some(AuditConfig::new(3, 2019))),
    ];
    let oracle = OracleMemoConfig::with_threshold(0.3);
    for (n, net) in nets.iter().enumerate() {
        let mirror = std::sync::Arc::new(BinaryNetwork::mirror(net));
        let bnn_make = |(config, audit): (BnnMemoConfig, Option<AuditConfig>)| {
            let evaluator = BnnMemoEvaluator::new(mirror.clone(), config);
            match audit {
                Some(audit) => evaluator.with_audit(audit),
                None => evaluator,
            }
        };
        let bnn_solo = bnn_configs.map(|case| {
            let policy = MemoPolicy::Bnn(case.0, case.1);
            checked_solo_runs(net, &seqs, || bnn_make(case), policy)
        });
        let oracle_make = || BnnMemoEvaluator::oracle(oracle);
        let oracle_solo = checked_solo_runs(net, &seqs, oracle_make, MemoPolicy::Oracle(oracle));
        for lanes in [1usize, 3, 8] {
            for (case, solo) in bnn_configs.iter().zip(&bnn_solo) {
                let what = format!("net {n} lanes {lanes} bnn {case:?}");
                let batched = through_scheduler(net, lanes, &seqs, &mut bnn_make(*case));
                assert_runs_match(&what, &batched, solo);
                let audited: u64 = batched.iter().map(|run| run.1.audited()).sum();
                assert_eq!(case.1.is_some(), audited > 0, "{what}: audits iff sampling");
            }
            let what = format!("net {n} lanes {lanes} oracle");
            let batched = through_scheduler(net, lanes, &seqs, &mut oracle_make());
            assert_runs_match(&what, &batched, &oracle_solo);
            // A mirror of another network fits none of these gates, so
            // every gate falls back to the exact path, hoisted half
            // included.
            let other = DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 3, 4), &mut rng);
            let foreign = BinaryNetwork::mirror(&other.unwrap());
            let mut evaluator = BnnMemoEvaluator::new(foreign, bnn);
            let batched = through_scheduler(net, lanes, &seqs, &mut evaluator);
            for (i, (out, stats, _)) in batched.iter().enumerate() {
                let exact = net.run(&seqs[i], &mut ExactEvaluator::new()).unwrap();
                let what = format!("net {n} lanes {lanes} foreign mirror seq {i}");
                assert_bit_identical(&what, out, &exact);
                assert_eq!(stats.reuses(), 0, "{what}");
            }
        }
    }
}

#[test]
fn runner_worker_count_never_changes_results() {
    let mut rng = DeterministicRng::seed_from_u64(99);
    let net = DeepRnn::random(
        &DeepRnnConfig::new(CellKind::Lstm, 5, 8).layers(2),
        &mut rng,
    )
    .unwrap();
    let seqs: Vec<Vec<Vector>> = (0..9)
        .map(|i| smooth_sequence(8 + (i % 3), 5, 100 + i as u64))
        .collect();
    let model = Model::from(net);
    for predictor in [
        PredictorKind::Exact,
        PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.3)),
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(1.0)),
    ] {
        // Uneven split: 9 sequences over 4 engine workers against one
        // sequence at a time through one evaluator, with no engine.
        let engine = EngineBuilder::new(model.clone(), predictor)
            .lanes(1)
            .workers(4)
            .build()
            .unwrap();
        for (i, s) in seqs.iter().enumerate() {
            engine
                .submit(InferenceRequest::new(i as u64, s.clone()))
                .unwrap();
        }
        let mut responses = engine.shutdown();
        responses.sort_by_key(|r| r.id);
        let reference = predictor.run(&model, &seqs).unwrap();
        assert_eq!(responses.len(), reference.outputs.len());
        let mut par_stats = ReuseStats::new();
        for (a, b) in responses.iter().zip(reference.outputs.iter()) {
            assert_bit_identical(predictor.name(), &a.outputs, b);
            par_stats.merge(&a.stats);
        }
        assert_eq!(par_stats, reference.stats);
    }
}
