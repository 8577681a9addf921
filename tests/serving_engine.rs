//! Serving semantics of the request engine.
//!
//! Three contracts:
//!
//! 1. **Equivalence** — mid-wave lane refill (the unified lane
//!    scheduler's block schedule) produces outputs, per-request reuse
//!    statistics and memo-hit counts bit-identical to running each
//!    sequence alone through `Predictor::run` and to the wave schedule
//!    of `DeepRnn::run_batch`, for every predictor and for ragged
//!    lengths.
//! 2. **Deadlines** — expired requests are always *reported* (never
//!    silently dropped).
//! 3. **Backpressure** — a full bounded queue rejects submissions with
//!    a `QueueFull` error; degenerate engine configurations are
//!    rejected at build time.

use nfm::bnn::BinaryNetwork;
use nfm::memo::{BnnMemoConfig, BnnMemoEvaluator, Model, OracleMemoConfig, ReuseStats};
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig, Direction};
use nfm::serve::{
    CompletionStatus, Engine, EngineBuilder, EngineError, InferenceRequest, Predictor,
    PredictorKind,
};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Vector;
use std::time::Duration;

/// Ragged lengths that force lanes to drain at different steps: with 2
/// or 3 lanes every refill happens mid-wave.
const RAGGED_LENS: [usize; 9] = [12, 5, 9, 1, 3, 11, 7, 2, 8];

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

fn unidirectional_networks() -> Vec<(&'static str, DeepRnn)> {
    let mut rng = DeterministicRng::seed_from_u64(4321);
    vec![
        (
            "lstm-uni-head",
            DeepRnn::random(
                &DeepRnnConfig::new(CellKind::Lstm, 6, 9)
                    .layers(2)
                    .output_size(3),
                &mut rng,
            )
            .unwrap(),
        ),
        (
            "gru-uni",
            DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 5, 8).layers(2), &mut rng).unwrap(),
        ),
    ]
}

fn ragged_sequences(net: &DeepRnn, seed: u64) -> Vec<Vec<Vector>> {
    RAGGED_LENS
        .iter()
        .enumerate()
        .map(|(i, &len)| smooth_sequence(len, net.input_size(), seed + i as u64))
        .collect()
}

fn predictors() -> Vec<(&'static str, PredictorKind)> {
    vec![
        ("exact", PredictorKind::Exact),
        (
            "oracle",
            PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.4)),
        ),
        (
            "bnn",
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(1.0)),
        ),
    ]
}

fn assert_bit_identical(name: &str, a: &[Vector], b: &[Vector]) {
    assert_eq!(a.len(), b.len(), "{name}: output length");
    for (t, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.len(), y.len(), "{name}: width at t={t}");
        for i in 0..x.len() {
            assert_eq!(
                x[i].to_bits(),
                y[i].to_bits(),
                "{name}: bit mismatch at t={t} i={i}: {} vs {}",
                x[i],
                y[i]
            );
        }
    }
}

/// The property test of the tentpole: mid-wave refill through the
/// engine == per-sequence runs == wave-boundary refill, bit for bit,
/// outputs *and* per-request stats, for all predictors and ragged
/// lengths.
#[test]
fn midwave_refill_is_bit_identical_to_per_sequence_and_wave_refill() {
    for (net_name, net) in unidirectional_networks() {
        let seqs = ragged_sequences(&net, 100);
        let model = Model::from(net);
        let net = model.network();
        for (pred_name, predictor) in predictors() {
            // Per-sequence reference: each sequence alone through
            // `Predictor::run`, with no engine.
            let reference: Vec<(Vec<Vector>, ReuseStats)> = seqs
                .iter()
                .map(|seq| {
                    let outcome = predictor.run(&model, std::slice::from_ref(seq)).unwrap();
                    (outcome.outputs.into_iter().next().unwrap(), outcome.stats)
                })
                .collect();

            for lanes in [2usize, 3] {
                let name = format!("{net_name}/{pred_name}/lanes={lanes}");
                let engine = EngineBuilder::new(model.clone(), predictor)
                    .lanes(lanes)
                    .workers(1)
                    .queue_capacity(seqs.len())
                    .start_paused()
                    .build()
                    .unwrap();
                for (i, seq) in seqs.iter().enumerate() {
                    engine
                        .submit(InferenceRequest::new(i as u64, seq.clone()))
                        .unwrap();
                }
                let mut responses = engine.shutdown();
                assert_eq!(responses.len(), seqs.len(), "{name}: all reported");
                responses.sort_by_key(|r| r.id);
                for (i, r) in responses.iter().enumerate() {
                    assert_eq!(r.status, CompletionStatus::Done, "{name} seq {i}");
                    assert_bit_identical(&format!("{name} seq {i}"), &r.outputs, &reference[i].0);
                    // Per-request stats double as memo-hit counts:
                    // reuses() is exactly the lookups served from the
                    // lane's memo table.
                    assert_eq!(r.stats, reference[i].1, "{name} seq {i}: per-request stats");
                }

                // Wave-boundary refill baseline over the same admitted
                // sequences: chunks of `lanes` through run_batch.
                let mut wave_eval = predictor.build_evaluator(&model);
                let mut wave_outputs = Vec::new();
                for wave in seqs.chunks(lanes) {
                    let refs: Vec<&[Vector]> = wave.iter().map(|s| s.as_slice()).collect();
                    wave_outputs.extend(net.run_batch(&refs, wave_eval.as_mut()).unwrap());
                }
                for (i, (r, w)) in responses.iter().zip(wave_outputs.iter()).enumerate() {
                    assert_bit_identical(&format!("{name} vs wave, seq {i}"), &r.outputs, w);
                }
            }
        }
    }
}

/// Bidirectional stacks cannot step-pipeline; the engine must fall back
/// to wave scheduling and still match per-sequence runs exactly.
#[test]
fn bidirectional_engine_falls_back_to_waves_and_matches() {
    let mut rng = DeterministicRng::seed_from_u64(99);
    let net = DeepRnn::random(
        &DeepRnnConfig::new(CellKind::Lstm, 4, 6)
            .layers(2)
            .direction(Direction::Bidirectional),
        &mut rng,
    )
    .unwrap();
    let seqs = ragged_sequences(&net, 500);
    let predictor = PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.8));
    let engine = EngineBuilder::new(net.clone(), predictor)
        .lanes(3)
        .workers(1)
        .queue_capacity(seqs.len())
        .start_paused()
        .build()
        .unwrap();
    for (i, seq) in seqs.iter().enumerate() {
        engine
            .submit(InferenceRequest::new(i as u64, seq.clone()))
            .unwrap();
    }
    let mut responses = engine.shutdown();
    responses.sort_by_key(|r| r.id);
    let mirror = BinaryNetwork::mirror(&net);
    let mut merged = ReuseStats::new();
    for (i, r) in responses.iter().enumerate() {
        let mut single = BnnMemoEvaluator::new(mirror.clone(), BnnMemoConfig::with_threshold(0.8));
        let reference = net.run(&seqs[i], &mut single).unwrap();
        assert_bit_identical(&format!("bidi seq {i}"), &r.outputs, &reference);
        assert_eq!(r.stats, *single.stats(), "bidi seq {i}: per-request stats");
        merged.merge(&r.stats);
    }
    assert!(merged.reuses() > 0, "memoization was exercised");
}

/// A context's aggregate counters are the sum of what its responses
/// carried, for every predictor, the exact baseline included.
#[test]
fn context_stats_sum_the_responses_of_every_predictor() {
    let mut rng = DeterministicRng::seed_from_u64(5);
    let bidi = DeepRnnConfig::new(CellKind::Gru, 4, 6).direction(Direction::Bidirectional);
    let mut networks = unidirectional_networks();
    networks.push(("gru-bidi", DeepRnn::random(&bidi, &mut rng).unwrap()));
    for (net_name, net) in networks {
        let seqs = ragged_sequences(&net, 300);
        for (pred_name, predictor) in predictors() {
            let engine = EngineBuilder::new(net.clone(), predictor)
                .lanes(3)
                .workers(1)
                .queue_capacity(seqs.len())
                .start_paused()
                .build()
                .unwrap();
            for (i, seq) in seqs.iter().enumerate() {
                engine
                    .submit(InferenceRequest::new(i as u64, seq.clone()))
                    .unwrap();
            }
            let mut served = ReuseStats::new();
            for r in engine.drain() {
                served.merge(&r.stats);
            }
            let contexts = engine.context_stats();
            assert_eq!(contexts.len(), 1, "{net_name}/{pred_name}");
            assert!(served.evaluations() > 0, "{net_name}/{pred_name}");
            assert_eq!(contexts[0].stats, served, "{net_name}/{pred_name}");
        }
    }
}

fn tiny_engine(capacity: usize, paused: bool) -> (DeepRnn, Engine) {
    let mut rng = DeterministicRng::seed_from_u64(7);
    let net = DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 3, 4), &mut rng).unwrap();
    let mut builder = EngineBuilder::new(net.clone(), PredictorKind::Exact)
        .lanes(2)
        .workers(1)
        .queue_capacity(capacity);
    if paused {
        builder = builder.start_paused();
    }
    (net, builder.build().unwrap())
}

#[test]
fn expired_requests_are_reported_not_dropped() {
    let (net, engine) = tiny_engine(16, true);
    // Zero budget: expired by the time a lane looks at them.
    for i in 0..5u64 {
        engine
            .submit(
                InferenceRequest::new(i, smooth_sequence(6, net.input_size(), i))
                    .with_deadline(Duration::ZERO),
            )
            .unwrap();
    }
    // One request without a deadline must still complete normally.
    engine
        .submit(InferenceRequest::new(
            99,
            smooth_sequence(6, net.input_size(), 99),
        ))
        .unwrap();
    let responses = engine.drain();
    assert_eq!(responses.len(), 6, "every request is reported");
    let expired: Vec<_> = responses
        .iter()
        .filter(|r| r.status == CompletionStatus::DeadlineExpired)
        .collect();
    assert_eq!(expired.len(), 5);
    for r in &expired {
        assert!(r.outputs.is_empty(), "dropped requests are not computed");
        assert_eq!(r.stats, ReuseStats::new());
        assert_eq!(r.compute_latency, Duration::ZERO);
    }
    let done = responses.iter().find(|r| r.id == 99).unwrap();
    assert_eq!(done.status, CompletionStatus::Done);
    assert_eq!(done.outputs.len(), 6);
}

#[test]
fn full_queue_rejects_with_backpressure_error() {
    // start_paused makes this deterministic: no worker drains the
    // queue while we fill it.
    let (net, engine) = tiny_engine(3, true);
    for i in 0..3u64 {
        engine
            .submit(InferenceRequest::new(
                i,
                smooth_sequence(4, net.input_size(), i),
            ))
            .unwrap();
    }
    let err = engine
        .submit(InferenceRequest::new(
            3,
            smooth_sequence(4, net.input_size(), 3),
        ))
        .unwrap_err();
    assert_eq!(err, EngineError::QueueFull { capacity: 3 });
    assert!(err.to_string().contains("backpressure"), "{err}");
    // Draining frees capacity again.
    let responses = engine.drain();
    assert_eq!(responses.len(), 3);
    engine
        .submit(InferenceRequest::new(
            4,
            smooth_sequence(4, net.input_size(), 4),
        ))
        .unwrap();
    assert_eq!(engine.drain().len(), 1);
    assert!(engine.last_error().is_none());
}

#[test]
fn submissions_are_validated_up_front() {
    let (net, engine) = tiny_engine(8, false);
    assert_eq!(
        engine.submit(InferenceRequest::new(1, Vec::new())),
        Err(EngineError::EmptySequence { id: 1 })
    );
    let bad = vec![Vector::zeros(net.input_size() + 1)];
    assert!(matches!(
        engine.submit(InferenceRequest::new(2, bad)),
        Err(EngineError::InputSizeMismatch { id: 2, .. })
    ));
    // submit_all stops at the first failure and reports the count.
    let mixed = vec![
        InferenceRequest::new(3, smooth_sequence(4, net.input_size(), 3)),
        InferenceRequest::new(4, Vec::new()),
        InferenceRequest::new(5, smooth_sequence(4, net.input_size(), 5)),
    ];
    assert!(engine.submit_all(mixed).is_err());
    assert_eq!(engine.drain().len(), 1, "the valid prefix was admitted");
}

#[test]
fn degenerate_builder_configs_error_instead_of_clamping() {
    let mut rng = DeterministicRng::seed_from_u64(3);
    let net = DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 3, 4), &mut rng).unwrap();
    for (build, what) in [
        (
            EngineBuilder::new(net.clone(), PredictorKind::Exact).lanes(0),
            "lanes",
        ),
        (
            EngineBuilder::new(net.clone(), PredictorKind::Exact).workers(0),
            "workers",
        ),
        (
            EngineBuilder::new(net.clone(), PredictorKind::Exact).queue_capacity(0),
            "queue_capacity",
        ),
    ] {
        match build.build() {
            Err(EngineError::InvalidConfig { what: msg }) => {
                assert!(msg.contains(what), "{msg} should name {what}");
                assert!(
                    msg.contains(">= 1"),
                    "{msg} should state the accepted range"
                );
            }
            other => panic!("expected InvalidConfig for {what}, got {other:?}"),
        }
    }
}

#[test]
fn shutdown_refuses_further_submissions() {
    let (net, engine) = tiny_engine(8, false);
    engine
        .submit(InferenceRequest::new(
            1,
            smooth_sequence(4, net.input_size(), 1),
        ))
        .unwrap();
    let responses = engine.shutdown();
    assert_eq!(responses.len(), 1);
    // The engine is consumed by shutdown; build another and kill it via
    // drop semantics instead: drop drains the queue too.
    let (net, engine) = tiny_engine(8, true);
    engine
        .submit(InferenceRequest::new(
            2,
            smooth_sequence(4, net.input_size(), 2),
        ))
        .unwrap();
    drop(engine); // must not hang: workers drain and join
}

#[test]
fn engine_reports_latencies_and_pending_counts() {
    let (net, engine) = tiny_engine(8, true);
    for i in 0..4u64 {
        engine
            .submit(InferenceRequest::new(
                i,
                smooth_sequence(5, net.input_size(), i),
            ))
            .unwrap();
    }
    assert_eq!(engine.pending(), 4);
    let responses = engine.drain();
    assert_eq!(engine.pending(), 0);
    for r in &responses {
        assert!(r.total_latency() >= r.compute_latency);
        assert!(r.is_done());
    }
    assert_eq!(engine.take_completed().len(), 0, "drain already took them");
}
