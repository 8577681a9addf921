//! Equivalence guarantees for the fused gate-evaluation hot path.
//!
//! The contract: every `NeuronEvaluator::evaluate_gate_batch` override
//! must be **bit-identical** to the per-neuron reference (the trait's
//! default lanes × neurons loop over `evaluate`, pinned down by
//! `PerNeuronEvaluator`, which also never receives hoisted
//! projections) — for {exact (hoisted), oracle, BNN, BNN + audit} ×
//! {LSTM, GRU} × {uni, bidirectional}, and for BNN's whole-gate passes
//! also across gate widths and lane counts on both sides of every
//! vector width and kernel tile, with lanes refilled mid-flight.  Every
//! built-in memoizing evaluator takes the hoisted input projections, so
//! BNN and the oracle are also pinned under the lane scheduler at
//! sequence lengths on both sides of the hoist block.  An engine with
//! any worker count must answer with the outputs and statistics of
//! `Predictor::run`.

use nfm::bnn::BinaryNetwork;
use nfm::control::{AdaptivePredictor, ControllerConfig};
use nfm::memo::{
    AuditConfig, BnnMemoConfig, BnnMemoEvaluator, Model, OracleEvaluator, OracleMemoConfig,
    Predictor, PredictorKind, ReuseStats,
};
use nfm::rnn::{
    CellKind, DeepRnn, DeepRnnConfig, Direction, ExactEvaluator, LaneScheduler, NeuronEvaluator,
    PerNeuronEvaluator,
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

#[test]
fn exact_batched_is_bit_identical_to_per_neuron() {
    for (name, net) in networks() {
        let seq = smooth_sequence(12, net.input_size(), 7);
        let mut batched = ExactEvaluator::new();
        let out_batched = net.run(&seq, &mut batched).unwrap();
        let mut naive = PerNeuronEvaluator::new(ExactEvaluator::new());
        let out_naive = net.run(&seq, &mut naive).unwrap();
        assert_bit_identical(name, &out_batched, &out_naive);
        assert_eq!(batched.evaluations(), naive.inner().evaluations(), "{name}");
    }
}

#[test]
fn oracle_batched_is_bit_identical_and_stats_match() {
    for theta in [0.0f32, 0.2, 0.6, f32::INFINITY] {
        for (name, net) in networks() {
            let seq = smooth_sequence(14, net.input_size(), 11);
            let mut batched =
                OracleEvaluator::for_network(&net, OracleMemoConfig::with_threshold(theta));
            let out_batched = net.run(&seq, &mut batched).unwrap();
            let mut naive = PerNeuronEvaluator::new(OracleEvaluator::new(
                OracleMemoConfig::with_threshold(theta),
            ));
            let out_naive = net.run(&seq, &mut naive).unwrap();
            assert_bit_identical(name, &out_batched, &out_naive);
            assert_eq!(
                batched.stats(),
                naive.inner().stats(),
                "{name} θ={theta}: reuse statistics must match"
            );
        }
    }
}

#[test]
fn bnn_batched_is_bit_identical_and_stats_match() {
    for theta in [0.0f32, 0.5, 2.0] {
        for (name, net) in networks() {
            let seq = smooth_sequence(14, net.input_size(), 13);
            let mirror = BinaryNetwork::mirror(&net);
            let mut batched =
                BnnMemoEvaluator::new(mirror.clone(), BnnMemoConfig::with_threshold(theta));
            let out_batched = net.run(&seq, &mut batched).unwrap();
            let mut naive = PerNeuronEvaluator::new(BnnMemoEvaluator::new(
                mirror,
                BnnMemoConfig::with_threshold(theta),
            ));
            let out_naive = net.run(&seq, &mut naive).unwrap();
            assert_bit_identical(name, &out_batched, &out_naive);
            assert_eq!(
                batched.stats(),
                naive.inner().stats(),
                "{name} θ={theta}: reuse statistics must match"
            );
            assert_eq!(
                batched.lanes().table(0).max_consecutive_reuses(),
                naive.inner().table().max_consecutive_reuses(),
                "{name} θ={theta}: reuse run lengths must match"
            );
        }
    }
}

#[test]
fn bnn_without_throttling_is_bit_identical_too() {
    for (name, net) in networks() {
        let seq = smooth_sequence(10, net.input_size(), 17);
        let mirror = BinaryNetwork::mirror(&net);
        let config = BnnMemoConfig::with_threshold(0.8).without_throttling();
        let mut batched = BnnMemoEvaluator::new(mirror.clone(), config);
        let out_batched = net.run(&seq, &mut batched).unwrap();
        let mut naive = PerNeuronEvaluator::new(BnnMemoEvaluator::new(mirror, config));
        let out_naive = net.run(&seq, &mut naive).unwrap();
        assert_bit_identical(name, &out_batched, &out_naive);
        assert_eq!(batched.stats(), naive.inner().stats(), "{name}");
    }
}

#[test]
fn bnn_with_audit_is_bit_identical_and_audits_the_same_hits() {
    for (name, net) in networks() {
        let seq = smooth_sequence(14, net.input_size(), 19);
        let mirror = BinaryNetwork::mirror(&net);
        let config = BnnMemoConfig::with_threshold(1.0);
        let audit = AuditConfig::new(4, 2019);
        let mut batched = BnnMemoEvaluator::new(mirror.clone(), config).with_audit(audit);
        let out_batched = net.run(&seq, &mut batched).unwrap();
        let mut naive =
            PerNeuronEvaluator::new(BnnMemoEvaluator::new(mirror, config).with_audit(audit));
        let out_naive = net.run(&seq, &mut naive).unwrap();
        assert_bit_identical(name, &out_batched, &out_naive);
        assert_eq!(batched.stats(), naive.inner().stats(), "{name}");
        assert!(batched.stats().audited() > 0, "{name}: some hits audited");
        // Same hits sampled, same exact recomputations, same errors.
        assert_eq!(
            batched.audit_stats(),
            naive.inner().audit_stats(),
            "{name}: per-layer audit counters must match"
        );
    }
}

/// BNN's gate entry decides, computes and refreshes a whole gate in
/// vector-shaped passes over lane-striped buffers, so it is pinned to
/// the per-neuron reference across gate widths that are no multiple of
/// any vector width and lane counts around the kernel's lane quads and
/// chunks — under the lane scheduler's block refill, with ragged
/// lengths, so lanes drain and are refilled while their neighbours are
/// mid-sequence.  With and without audit sampling.
#[test]
fn bnn_passes_match_per_neuron_at_every_gate_width_and_lane_count() {
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
            let solo: Vec<(Vec<Vector>, ReuseStats)> = seqs
                .iter()
                .map(|s| {
                    let mut naive = PerNeuronEvaluator::new(make());
                    let out = net.run(s, &mut naive).unwrap();
                    (out, *naive.inner().stats())
                })
                .collect();
            for lanes in LANES {
                let what = format!("hidden {hidden} lanes {lanes} audit {}", audit.is_some());
                let mut sched = LaneScheduler::new(&net, lanes).unwrap();
                let mut evaluator = make();
                evaluator.begin_batch(lanes);
                let mut queue = seqs[..lanes + 3].iter().cloned().enumerate();
                let mut finished = Vec::new();
                let (mut done, mut audited) = (0, 0);
                loop {
                    while sched.free_lanes() > 0 {
                        let Some((i, s)) = queue.next() else { break };
                        sched.admit(i as u64, s, &mut evaluator).unwrap();
                    }
                    if sched.step(&net, &mut evaluator, &mut finished).unwrap() == 0 {
                        break;
                    }
                    for f in finished.drain(..) {
                        let i = f.token as usize;
                        assert_bit_identical(&format!("{what} seq {i}"), &f.outputs, &solo[i].0);
                        let lane = f.stats_lane;
                        assert_eq!(*evaluator.lanes().stats(lane), solo[i].1, "{what} seq {i}");
                        audited += solo[i].1.audited();
                        done += 1;
                    }
                }
                assert_eq!(done, lanes + 3, "{what}: every sequence finished");
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

/// Runs `seqs` through a `lanes`-wide lane scheduler, refilling lanes
/// as they drain, and returns every sequence's outputs with the
/// statistics its lane accumulated, in input order.
fn through_scheduler<E: NeuronEvaluator>(
    net: &DeepRnn,
    lanes: usize,
    seqs: &[Vec<Vector>],
    evaluator: &mut E,
    lane_stats: impl Fn(&E, usize) -> ReuseStats,
) -> Vec<(Vec<Vector>, ReuseStats)> {
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
            results[f.token as usize] = Some((f.outputs, lane_stats(evaluator, f.stats_lane)));
        }
    }
    results.into_iter().map(Option::unwrap).collect()
}

/// The memoizing evaluators take the hoisted `W_x·x_t` and add one
/// tiled `W_h` product onto it, so their hits, misses and audits must
/// not depend on where a hoist block starts or ends: under the lane
/// scheduler, at sequence lengths 1 / 4 / 9 / 17 and 1, 3 and 8 lanes,
/// every sequence equals its per-neuron run alone — outputs, its lane's
/// statistics (audits included) — for BNN (throttled or not, with and
/// without audit) and the oracle, over an LSTM with peepholes, a GRU
/// (whose candidate gate's recurrent input is `r ⊙ h`) and a
/// bidirectional GRU.  A mirror of another network reproduces exact.
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
    let bnn_stats = |e: &BnnMemoEvaluator, lane| *e.lanes().stats(lane);
    let oracle_stats = |e: &OracleEvaluator, lane| *e.lanes().stats(lane);
    for (n, net) in nets.iter().enumerate() {
        let mirror = std::sync::Arc::new(BinaryNetwork::mirror(net));
        let bnn_make = |(config, audit): (BnnMemoConfig, Option<AuditConfig>)| {
            let evaluator = BnnMemoEvaluator::new(mirror.clone(), config);
            match audit {
                Some(audit) => evaluator.with_audit(audit),
                None => evaluator,
            }
        };
        for lanes in [1usize, 3, 8] {
            for case in bnn_configs {
                let what = format!("net {n} lanes {lanes} bnn {case:?}");
                let mut evaluator = bnn_make(case);
                assert!(evaluator.supports_input_hoisting());
                let batched = through_scheduler(net, lanes, &seqs, &mut evaluator, bnn_stats);
                for (i, (out, stats)) in batched.iter().enumerate() {
                    let mut naive = PerNeuronEvaluator::new(bnn_make(case));
                    let solo = net.run(&seqs[i], &mut naive).unwrap();
                    assert_bit_identical(&format!("{what} seq {i}"), out, &solo);
                    assert_eq!(stats, naive.inner().stats(), "{what} seq {i}");
                }
                let audited: u64 = batched.iter().map(|(_, stats)| stats.audited()).sum();
                assert_eq!(case.1.is_some(), audited > 0, "{what}: audits iff sampling");
            }
            let what = format!("net {n} lanes {lanes} oracle");
            let mut evaluator = OracleEvaluator::new(oracle);
            assert!(evaluator.supports_input_hoisting());
            let batched = through_scheduler(net, lanes, &seqs, &mut evaluator, oracle_stats);
            for (i, (out, stats)) in batched.iter().enumerate() {
                let mut naive = PerNeuronEvaluator::new(OracleEvaluator::new(oracle));
                let solo = net.run(&seqs[i], &mut naive).unwrap();
                assert_bit_identical(&format!("{what} seq {i}"), out, &solo);
                assert_eq!(stats, naive.inner().stats(), "{what} seq {i}");
            }
            // A mirror of another network fits none of these gates, so
            // every gate falls back to the exact path, hoisted half
            // included.
            let other = DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 3, 4), &mut rng);
            let foreign = BinaryNetwork::mirror(&other.unwrap());
            let mut evaluator = BnnMemoEvaluator::new(foreign, bnn);
            let batched = through_scheduler(net, lanes, &seqs, &mut evaluator, bnn_stats);
            for (i, (out, stats)) in batched.iter().enumerate() {
                let exact = net.run(&seqs[i], &mut ExactEvaluator::new()).unwrap();
                let what = format!("net {n} lanes {lanes} foreign mirror seq {i}");
                assert_bit_identical(&what, out, &exact);
                assert_eq!(stats.reuses(), 0, "{what}");
            }
        }
    }
    let model = Model::from(nets[0].clone());
    let adaptive = AdaptivePredictor::new(ControllerConfig::new(0.04)).evaluator(&model);
    assert!(adaptive.supports_input_hoisting());
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
