//! End-to-end contracts for live model hot swaps.
//!
//! 1. **Promotion routes traffic to the new weights** — a staged
//!    version canaried under a wide tolerance promotes, and every
//!    post-swap response is bit-identical to a fresh engine built
//!    directly on the new version's weights.
//! 2. **Rollback keeps the incumbent serving** — a staged version that
//!    diverges beyond the tolerance is discarded after the first
//!    comparison, and post-swap responses are bit-identical to an
//!    engine that never staged anything.
//! 3. **Zero drops under live traffic** — a swap staged while a closed
//!    loop four requests deep hammers the TCP front door loses no
//!    request: sent = done, zero rejects, zero expiries.
//! 4. **Priority-class canarying** — `CanaryRule::Priority` routes
//!    exactly the chosen class; other traffic never pairs.
//! 5. **Artifact swaps** — a version arriving as serialized bytes
//!    (decoded, then `swap_model` like any other) promotes cleanly at
//!    zero tolerance when the weights round-trip, and garbage bytes
//!    surface as the typed `BadArtifact` error without disturbing the
//!    live version.
//! 6. **Retired versions leave nothing behind** — after any number of
//!    promoted swaps a worker holds one context per live (model,
//!    predictor), a single-model engine never borrows a lane, and
//!    requests in flight on a retired version still finish on it.

use nfm::bnn::BinaryNetwork;
use nfm::memo::{BnnMemoConfig, BnnMemoEvaluator};
use nfm::model::{load_from_slice, save_to_vec};
use nfm::net::NetServer;
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig};
use nfm::serve::{
    CanaryConfig, Engine, EngineBuilder, EngineError, InferenceRequest, InferenceResponse,
    ModelRegistry, PredictorKind, Priority, RequestOptions, SwapOutcome,
};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Vector;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;

const FEATURES: usize = 4;

fn network(seed: u64) -> DeepRnn {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, FEATURES, 6), &mut rng)
        .expect("network builds")
}

fn sequences(count: usize, seed: u64) -> Vec<Vec<Vector>> {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..8)
                .map(|_| Vector::from_fn(FEATURES, |_| rng.uniform(-1.0, 1.0)))
                .collect()
        })
        .collect()
}

/// Single-worker engine serving `net` under "kws" with an exact and a
/// BNN predictor (one worker keeps execution order, and therefore memo
/// state, deterministic for bit-identity checks).
fn engine_on(net: DeepRnn) -> Engine {
    let mut registry = ModelRegistry::new();
    registry
        .register("kws", net, PredictorKind::Exact)
        .expect("register");
    registry
        .add_predictor(
            "kws",
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.3)),
        )
        .expect("add bnn");
    EngineBuilder::from_registry(registry)
        .lanes(2)
        .workers(1)
        .queue_capacity(256)
        .build()
        .expect("engine builds")
}

fn submit_all(engine: &Engine, seqs: &[Vec<Vector>], base_id: u64) -> Vec<InferenceResponse> {
    for (i, seq) in seqs.iter().enumerate() {
        engine
            .submit(InferenceRequest::new(base_id + i as u64, seq.clone()))
            .expect("submit");
    }
    let mut responses = engine.drain();
    responses.sort_by_key(|r| r.id);
    responses
}

fn assert_bit_identical(a: &[InferenceResponse], b: &[InferenceResponse]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.outputs.len(), y.outputs.len());
        for (u, v) in x.outputs.iter().zip(&y.outputs) {
            assert_eq!(u.as_slice(), v.as_slice(), "request {}", x.id);
        }
    }
}

#[test]
fn promotion_routes_all_traffic_to_the_new_version() {
    let seqs = sequences(12, 21);
    let engine = engine_on(network(1));

    // Stage genuinely different weights; the wide tolerance lets the
    // canary comparisons pass despite real output differences.
    let staged = engine
        .swap_model(
            "kws",
            network(2),
            [PredictorKind::Exact],
            CanaryConfig::fraction(1.0).min_requests(4).tolerance(1e6),
        )
        .expect("stage swap");
    assert_eq!(staged, 2);
    let status = engine.swap_status("kws").expect("swap is staged");
    assert_eq!((status.from, status.to), (1, 2));
    assert!(status.decision.is_none());

    // Drive traffic through the undecided swap; drain applies the
    // decision once the last canary pair lands.
    submit_all(&engine, &seqs[..6], 0);
    let reports = engine.swap_reports();
    assert_eq!(reports.len(), 1, "swap decided after 6 > 4 canaries");
    let report = &reports[0];
    assert_eq!(report.outcome, SwapOutcome::Promoted);
    assert_eq!((report.from, report.to), (1, 2));
    assert!(report.canaries >= 4);
    assert!(report.matched >= 4);
    assert!(engine.swap_status("kws").is_none(), "no swap staged now");
    assert_eq!(engine.registry().version("kws"), Some(2));

    // Post-swap traffic must be bit-identical to a fresh engine built
    // directly on the new version's weights.
    let after = submit_all(&engine, &seqs[6..], 100);
    let fresh = engine_on(network(2));
    let expected = submit_all(&fresh, &seqs[6..], 100);
    assert_bit_identical(&after, &expected);
    engine.shutdown();
    fresh.shutdown();
}

#[test]
fn rollback_discards_the_staged_version_and_keeps_the_incumbent() {
    let seqs = sequences(10, 33);
    let engine = engine_on(network(1));

    engine
        .swap_model(
            "kws",
            network(9),
            [PredictorKind::Exact],
            CanaryConfig::fraction(1.0).min_requests(4), // zero tolerance
        )
        .expect("stage swap");

    // Different weights at zero tolerance: the first completed
    // comparison rolls the swap back.  Every canaried request still
    // gets exactly one response.
    let during = submit_all(&engine, &seqs[..5], 0);
    assert_eq!(during.len(), 5);
    assert!(during.iter().all(|r| r.is_done()));

    let reports = engine.swap_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].outcome, SwapOutcome::RolledBack);
    assert!(reports[0].max_abs_diff > 0.0);
    assert_eq!(engine.registry().version("kws"), Some(1));

    // The incumbent keeps serving: post-rollback responses are
    // bit-identical to an engine that never staged anything.
    let after = submit_all(&engine, &seqs[5..], 100);
    let fresh = engine_on(network(1));
    submit_all(&fresh, &seqs[..5], 0); // replay the same memo history
    let expected = submit_all(&fresh, &seqs[5..], 100);
    assert_bit_identical(&after, &expected);
    engine.shutdown();
    fresh.shutdown();
}

#[test]
fn loadgen_traffic_during_swap_drops_nothing() {
    use nfm::net::WireRequest;

    let pool = sequences(16, 55);
    let server = NetServer::bind("127.0.0.1:0", engine_on(network(1))).expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    // A 3:1 blend of the exact default and the BNN predictor.
    let requests: Vec<WireRequest> = (0..128u64)
        .map(|i| {
            let request = WireRequest::new(i, pool[i as usize % pool.len()].clone());
            match i % 4 {
                3 => request.with_model("kws").with_predictor("bnn"),
                _ => request.with_model("kws"),
            }
        })
        .collect();
    let traffic = std::thread::spawn(move || common::drive(addr, &requests, 4, || Duration::ZERO));

    // Stage the swap while the loop is in full flight.  The artifact
    // round-trips the incumbent's weights, so zero tolerance promotes.
    std::thread::sleep(Duration::from_millis(10));
    let artifact = save_to_vec(&network(1), None).expect("serialize");
    handle
        .engine()
        .swap_model(
            "kws",
            load_from_slice(&artifact).expect("artifact loads"),
            [PredictorKind::Exact],
            CanaryConfig::fraction(0.5).min_requests(8),
        )
        .expect("stage swap mid-traffic");

    let replies = traffic.join().expect("traffic thread");
    assert_eq!(
        common::done_ids(&replies),
        (0..128).collect::<Vec<_>>(),
        "every request completed: none shed, dropped or expired"
    );

    // The swap decided during (or right after) the run; whichever, the
    // weights are identical so it must have promoted.
    let engine = handle.engine();
    let mut round = 0u64;
    while engine.swap_status("kws").is_some() {
        // Not enough canaries landed during the run: push a few more.
        assert!(round < 16, "swap should decide within a few rounds");
        let extra = sequences(8, 56 + round);
        for (i, seq) in extra.into_iter().enumerate() {
            engine
                .submit(InferenceRequest::new(10_000 + round * 100 + i as u64, seq))
                .expect("submit");
        }
        engine.drain();
        round += 1;
    }
    let reports = engine.swap_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].outcome, SwapOutcome::Promoted);
    assert_eq!(reports[0].max_abs_diff, 0.0, "round-tripped weights");
    assert_eq!(engine.registry().version("kws"), Some(2));
    let stats = handle.shutdown();
    assert_eq!((stats.requests_admitted, stats.responses_sent), (128, 128));
    assert_eq!(stats.rejects_total(), 0);
}

#[test]
fn priority_rule_canaries_exactly_the_chosen_class() {
    let seqs = sequences(12, 77);
    let engine = engine_on(network(1));
    engine
        .swap_model(
            "kws",
            network(1),
            [PredictorKind::Exact],
            CanaryConfig::priority(Priority::High).min_requests(3),
        )
        .expect("stage swap");

    // Low/Normal traffic is seen but never canaried.
    for (i, seq) in seqs[..6].iter().enumerate() {
        engine
            .submit(
                InferenceRequest::new(i as u64, seq.clone())
                    .with_options(RequestOptions::new().priority(Priority::Low)),
            )
            .expect("submit");
    }
    engine.drain();
    let status = engine.swap_status("kws").expect("still staged");
    assert_eq!(status.seen, 6);
    assert_eq!(status.canaries, 0);
    assert!(status.decision.is_none());

    // High-priority traffic pairs; identical weights promote.
    for (i, seq) in seqs[6..].iter().enumerate() {
        engine
            .submit(
                InferenceRequest::new(100 + i as u64, seq.clone())
                    .with_options(RequestOptions::new().priority(Priority::High)),
            )
            .expect("submit");
    }
    engine.drain();
    let reports = engine.swap_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].outcome, SwapOutcome::Promoted);
    assert!(reports[0].canaries >= 3);
    engine.shutdown();
}

#[test]
fn swap_errors_are_typed_and_leave_the_live_version_alone() {
    let engine = engine_on(network(1));

    assert!(matches!(
        engine.swap_model(
            "ghost",
            network(2),
            [PredictorKind::Exact],
            CanaryConfig::fraction(0.5),
        ),
        Err(EngineError::UnknownModel { .. })
    ));
    assert!(matches!(
        engine.swap_model(
            "kws",
            network(2),
            [PredictorKind::Exact; 0],
            CanaryConfig::fraction(0.5)
        ),
        Err(EngineError::InvalidConfig { .. })
    ));
    assert!(matches!(
        engine.swap_model(
            "kws",
            network(2),
            [PredictorKind::Exact],
            CanaryConfig::fraction(0.0),
        ),
        Err(EngineError::InvalidConfig { .. })
    ));
    assert!(matches!(
        engine.swap_model(
            "kws",
            network(2),
            [PredictorKind::Exact],
            CanaryConfig::fraction(0.5).min_requests(0),
        ),
        Err(EngineError::InvalidConfig { .. })
    ));
    assert!(matches!(
        load_from_slice(b"not an artifact").map_err(EngineError::from),
        Err(EngineError::BadArtifact { .. })
    ));

    // A staged swap blocks a second one...
    engine
        .swap_model(
            "kws",
            network(2),
            [PredictorKind::Exact],
            CanaryConfig::fraction(0.5),
        )
        .expect("first stage");
    assert!(matches!(
        engine.swap_model(
            "kws",
            network(3),
            [PredictorKind::Exact],
            CanaryConfig::fraction(0.5),
        ),
        Err(EngineError::SwapInProgress { .. })
    ));

    // ...and eviction of the last model is refused, while evicting a
    // second model also discards its staged swap.
    assert!(matches!(
        engine.evict_model("kws"),
        Err(EngineError::CannotEvictLast { .. })
    ));
    assert!(matches!(
        engine.evict_model("ghost"),
        Err(EngineError::UnknownModel { .. })
    ));
    assert_eq!(engine.registry().version("kws"), Some(1), "still live");
    engine.shutdown();
}

#[test]
fn evicting_a_model_discards_its_staged_swap() {
    let mut registry = ModelRegistry::new();
    registry
        .register("kws", network(1), PredictorKind::Exact)
        .expect("register kws");
    registry
        .register("asr", network(4), PredictorKind::Exact)
        .expect("register asr");
    let engine = EngineBuilder::from_registry(registry)
        .workers(1)
        .build()
        .expect("engine builds");

    engine
        .swap_model(
            "asr",
            network(5),
            [PredictorKind::Exact],
            CanaryConfig::fraction(1.0),
        )
        .expect("stage");
    engine.evict_model("asr").expect("evict");
    assert!(engine.swap_status("asr").is_none());
    assert!(engine.swap_reports().is_empty(), "discard is not a report");
    assert!(
        engine
            .submit(InferenceRequest::new(1, sequences(1, 9).pop().unwrap()))
            .is_ok(),
        "default model keeps serving"
    );
    engine.shutdown();
}

#[test]
fn admin_frames_swap_and_evict_over_the_wire() {
    use nfm::net::{NetClient, RejectReason, ServerFrame, WireAdmin, WirePredictorKind};

    let mut registry = ModelRegistry::new();
    registry
        .register("kws", network(1), PredictorKind::Exact)
        .expect("register kws");
    registry
        .register("asr", network(4), PredictorKind::Exact)
        .expect("register asr");
    let engine = EngineBuilder::from_registry(registry)
        .workers(1)
        .build()
        .expect("engine builds");
    let handle = NetServer::bind("127.0.0.1:0", engine)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut control = NetClient::connect(handle.addr()).expect("connect");

    // A swap staged over the wire acks with the staged version.
    let artifact = save_to_vec(&network(1), None).expect("serialize");
    let admin = WireAdmin::swap(900, "kws", artifact)
        .predictors(vec![WirePredictorKind::Exact, WirePredictorKind::Bnn(0.3)])
        .fraction(1.0)
        .min_requests(2);
    match control.admin(&admin).expect("admin round trip") {
        ServerFrame::AdminOk(ok) => {
            assert_eq!(ok.id, 900);
            assert_eq!(ok.version, 2);
        }
        other => panic!("expected ack, got {other:?}"),
    }
    assert!(handle.engine().swap_status("kws").is_some());

    // Garbage artifact bytes come back as a typed reject, not a drop.
    let bad = WireAdmin::swap(901, "asr", b"junk".to_vec());
    match control.admin(&bad).expect("admin round trip") {
        ServerFrame::Reject(r) => {
            assert_eq!(r.id, 901);
            assert_eq!(r.reason, RejectReason::Internal);
            assert!(r.message.contains("artifact"), "{}", r.message);
        }
        other => panic!("expected reject, got {other:?}"),
    }

    // Eviction over the wire: ok for a spare model, typed reject once
    // only one is left.
    match control.admin(&WireAdmin::evict(902, "asr")).expect("admin") {
        ServerFrame::AdminOk(ok) => assert_eq!((ok.id, ok.version), (902, 0)),
        other => panic!("expected ack, got {other:?}"),
    }
    match control.admin(&WireAdmin::evict(903, "kws")).expect("admin") {
        ServerFrame::Reject(r) => {
            assert_eq!(r.id, 903);
            assert_eq!(r.reason, RejectReason::Internal);
            assert!(r.message.contains("last"), "{}", r.message);
        }
        other => panic!("expected reject, got {other:?}"),
    }
    handle.shutdown();
}

/// Submits `seq` under the next id and notes the version that must
/// answer it.
fn submit_expecting(
    engine: &Engine,
    expected: &mut Vec<(u32, Vec<Vector>)>,
    version: u32,
    seq: &[Vector],
) {
    engine
        .submit(InferenceRequest::new(expected.len() as u64, seq.to_vec()))
        .expect("submit");
    expected.push((version, seq.to_vec()));
}

#[test]
fn workers_drop_the_contexts_of_retired_versions() {
    const LANES: usize = 2;
    let config = BnnMemoConfig::with_threshold(0.3);
    let engine = EngineBuilder::new(network(1), PredictorKind::Bnn(config))
        .lanes(LANES)
        .workers(1)
        .queue_capacity(64)
        .build()
        .expect("engine builds");
    let shorts = sequences(1 + 3 * LANES, 91);
    // Long enough to still be on a lane when its version is retired.
    let long: Vec<Vector> = (0..400).flat_map(|_| shorts[0].clone()).collect();

    // Per request id: the version that must answer it, and its input.
    let mut expected = Vec::new();
    let mut responses = Vec::new();
    for live in 1..=5u32 {
        // In flight on the incumbent, within its fair share.
        for _ in 1..LANES {
            submit_expecting(&engine, &mut expected, live, &long);
        }
        engine
            .swap_model(
                "default",
                network(u64::from(live) + 1),
                [PredictorKind::Bnn(config)],
                CanaryConfig::fraction(1.0).min_requests(1).tolerance(1e6),
            )
            .expect("stage");
        // One canary pair decides; the staged version answers it.
        submit_expecting(&engine, &mut expected, live + 1, &shorts[0]);
        while engine.swap_status("default").is_some() {
            std::thread::yield_now();
        }
        assert_eq!(engine.registry().version("default"), Some(live + 1));
        // The long requests finish on the version just retired...
        responses.extend(engine.drain());
        // ...and a backlog three times the lane count runs on the new
        // one, alone on the worker: no sibling to borrow a lane from.
        for seq in &shorts[1..] {
            submit_expecting(&engine, &mut expected, live + 1, seq);
        }
        responses.extend(engine.drain());
    }

    let contexts = engine.context_stats();
    assert_eq!(contexts.len(), 1, "{contexts:?}");
    assert_eq!(contexts[0].version, 6);
    assert_eq!(engine.lane_borrows(), 0);

    assert_eq!(responses.len(), expected.len());
    responses.sort_by_key(|r| r.id);
    for (response, (version, seq)) in responses.iter().zip(&expected) {
        let what = format!("request {} on v{version}", response.id);
        assert!(response.is_done(), "{what}");
        let net = network(u64::from(*version));
        let mut dedicated = BnnMemoEvaluator::new(BinaryNetwork::mirror(&net), config);
        let outputs = net.run(seq, &mut dedicated).expect("dedicated run");
        assert_eq!(response.outputs.len(), outputs.len(), "{what}");
        for (u, v) in response.outputs.iter().zip(&outputs) {
            assert_eq!(u.as_slice(), v.as_slice(), "{what}");
        }
        assert_eq!(response.stats, *dedicated.stats(), "{what}");
    }
    engine.shutdown();
}

/// ROADMAP 7(c), the last step: retiring a version wakes the parked
/// workers, so a quiet engine lets go of the retired weights at once
/// instead of when the next request happens to arrive.
#[test]
fn a_quiet_engine_drops_an_evicted_models_contexts() {
    let (a, b) = (Arc::new(network(1)), Arc::new(network(2)));
    let mut registry = ModelRegistry::new();
    let bnn = PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.3));
    registry.register("a", Arc::clone(&a), bnn).expect("a");
    registry.register("b", Arc::clone(&b), bnn).expect("b");
    let engine = EngineBuilder::from_registry(registry)
        .lanes(2)
        .workers(2)
        .queue_capacity(64)
        .build()
        .expect("engine builds");
    for (i, seq) in sequences(24, 17).into_iter().enumerate() {
        let model = if i % 2 == 0 { "a" } else { "b" };
        let options = RequestOptions::new().model(model);
        engine
            .submit(InferenceRequest::new(i as u64, seq).with_options(options))
            .expect("submit");
    }
    assert_eq!(engine.drain().len(), 24);
    let served = |model: &str| {
        engine
            .context_stats()
            .iter()
            .any(|c| c.model.as_str() == model)
    };
    assert!(served("a") && served("b"));
    assert!(Arc::strong_count(&b) > 1, "registry and workers share it");

    // No further submissions: only the eviction itself can wake the
    // parked workers.
    engine.evict_model("b").expect("evict");
    let patience = Instant::now() + Duration::from_secs(20);
    while served("b") || Arc::strong_count(&b) > 1 {
        assert!(
            Instant::now() < patience,
            "parked workers still hold the evicted model: {} handles, {:?}",
            Arc::strong_count(&b),
            engine.context_stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(served("a"), "the surviving model keeps its contexts");
    engine.shutdown();
}
