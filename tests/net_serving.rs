//! End-to-end contracts for the TCP serving surface.
//!
//! 1. **Loopback bit-identity** — responses served over a real socket
//!    (outputs *and* `ReuseStats`) are bit-identical to in-process
//!    `Engine::submit` for the same request stream: exact baseline,
//!    BNN predictor, and per-request θ override.
//! 2. **Deadline expiry over the wire** — an already-expired deadline
//!    comes back as `DeadlineExpired` with empty outputs, exactly like
//!    the in-process path.
//! 3. **Shedding and overload over the wire** — against a paused
//!    engine with a tiny queue, Low-priority work is shed at the
//!    watermark and a full queue yields `Overloaded`; every admitted
//!    request is still answered after the graceful drain. No silent
//!    drops: sent = answered.
//! 4. **Malformed traffic** — garbage frames and undefined code bytes
//!    get typed rejects naming the frame's id, and the connection keeps
//!    working; an oversized frame gets a typed reject and a close.
//! 5. **Degenerate lengths** — a zero-length sequence is a typed error
//!    and a single-step one a correct result, in process and over the
//!    wire, on uni- and bidirectional stacks (ROADMAP 7(d)).
//! 6. **Closed and open loops** — a window of requests in flight, sent
//!    back to back or at Poisson arrivals, is answered in full and the
//!    server accounts for every one.
//! 7. **The client's timed receive** — an error inside `recv_timeout`
//!    leaves the connection blocking, so the next `recv` waits.
//! 8. **Hot swaps driven by the wire alone** — a swap staged by an
//!    admin frame and canaried by wire requests is applied when its last
//!    pair lands, with no in-process call to apply it.
//! 9. **The server's waits end when they should** — a slow reader whose
//!    outbox passed the cap still receives everything once it reads (the
//!    server waits for writability, not for a timeout), and shutting down
//!    an idle server ends its wait at once.

use nfm::memo::{BnnMemoConfig, PredictorKind};
use nfm::model::save_to_vec;
use nfm::net::server::{MAX_OUTBOX_BYTES, STOP_POLL};
use nfm::net::{
    NetClient, NetError, NetServer, ProtocolError, RejectReason, ServerConfig, ServerFrame,
    WireAdmin, WireReject, WireRequest,
};
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig, Direction, ExactEvaluator};
use nfm::serve::{
    CompletionStatus, Engine, EngineBuilder, EngineError, InferenceRequest, ModelRegistry,
    Priority, RequestOptions,
};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Vector;
use nfm::workloads::{NetworkId, Workload, WorkloadBuilder};
use std::io::Write;
use std::time::{Duration, Instant};

mod common;

fn workload(seed: u64) -> Workload {
    WorkloadBuilder::new(NetworkId::ImdbSentiment)
        .scale(0.05)
        .sequences(4)
        .sequence_length(6)
        .seed(seed)
        .build()
        .expect("workload builds")
}

/// One engine configuration, constructed identically for the
/// in-process reference and the served instance (workers = 1 keeps the
/// execution order, and therefore memo-table evolution, identical).
fn make_engine(w: &Workload) -> Engine {
    let mut registry = ModelRegistry::new();
    registry
        .register("imdb", w.network().clone(), PredictorKind::Exact)
        .expect("register model");
    registry
        .add_predictor(
            "imdb",
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.05)),
        )
        .expect("register bnn");
    EngineBuilder::from_registry(registry)
        .workers(1)
        .build()
        .expect("engine builds")
}

/// The request mix the bit-identity test replays on both paths: the
/// exact baseline, the BNN predictor, and a θ override, across all
/// pool sequences.
fn mixed_requests(w: &Workload) -> Vec<(u64, Vec<Vector>, RequestOptions)> {
    let mut requests = Vec::new();
    let mut id = 0u64;
    for seq in w.sequences() {
        for options in [
            RequestOptions::default(),
            RequestOptions::default().predictor("bnn"),
            RequestOptions::default().predictor("bnn").threshold(0.2),
        ] {
            requests.push((id, seq.clone(), options));
            id += 1;
        }
    }
    requests
}

#[test]
fn loopback_responses_bit_identical_to_in_process() {
    let w = workload(11);
    let requests = mixed_requests(&w);

    // In-process reference: submit one at a time so the order is fixed.
    let reference_engine = make_engine(&w);
    let mut reference = Vec::new();
    for (id, seq, options) in &requests {
        reference_engine
            .submit(InferenceRequest::new(*id, seq.clone()).with_options(options.clone()))
            .expect("reference submit");
        let mut done = reference_engine.drain();
        assert_eq!(done.len(), 1);
        reference.push(done.pop().unwrap());
    }
    reference_engine.shutdown();

    // Same stream over a real socket, same one-at-a-time order.
    let server = NetServer::bind("127.0.0.1:0", make_engine(&w)).expect("bind");
    let handle = server.spawn().expect("spawn");
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    for ((id, seq, options), expected) in requests.iter().zip(&reference) {
        let mut wire = WireRequest::new(*id, seq.clone());
        if let Some(predictor) = &options.predictor {
            wire = wire.with_predictor(predictor.clone());
        }
        if let Some(theta) = options.threshold {
            wire = wire.with_threshold(theta);
        }
        client.send(&wire).expect("send");
        let response = match client.recv().expect("recv") {
            ServerFrame::Response(r) => r,
            other => panic!("request {id} got unexpected frame: {other:?}"),
        };
        assert_eq!(response.id, *id);
        assert_eq!(response.status, CompletionStatus::Done);
        assert_eq!(
            response.outputs.len(),
            expected.outputs.len(),
            "request {id}: output length"
        );
        for (t, (a, b)) in response.outputs.iter().zip(&expected.outputs).enumerate() {
            assert_eq!(a.len(), b.len());
            for i in 0..a.len() {
                assert_eq!(
                    a[i].to_bits(),
                    b[i].to_bits(),
                    "request {id}: bit mismatch at t={t} i={i}"
                );
            }
        }
        let stats = response.stats();
        assert_eq!(stats.computed(), expected.stats.computed(), "request {id}");
        assert_eq!(stats.reuses(), expected.stats.reuses(), "request {id}");
        assert_eq!(
            stats.bnn_evaluations(),
            expected.stats.bnn_evaluations(),
            "request {id}"
        );
    }
    let stats = handle.shutdown();
    assert_eq!(stats.requests_admitted, requests.len() as u64);
    assert_eq!(stats.responses_sent, requests.len() as u64);
    assert_eq!(stats.rejects_total(), 0);
    assert_eq!(stats.responses_orphaned, 0);
}

#[test]
fn deadline_expiry_travels_the_wire() {
    let w = workload(23);
    let server = NetServer::bind("127.0.0.1:0", make_engine(&w)).expect("bind");
    let handle = server.spawn().expect("spawn");
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    client
        .send(&WireRequest::new(1, w.sequences()[0].clone()).with_deadline(Duration::ZERO))
        .expect("send");
    match client.recv().expect("recv") {
        ServerFrame::Response(r) => {
            assert_eq!(r.status, CompletionStatus::DeadlineExpired);
            assert!(r.outputs.is_empty(), "an expired request ships no outputs");
        }
        other => panic!("unexpected frame: {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn shed_and_overload_paths_over_the_wire() {
    let w = workload(31);
    let mut registry = ModelRegistry::new();
    registry
        .register("imdb", w.network().clone(), PredictorKind::Exact)
        .expect("register model");
    // Paused engine: admissions queue up deterministically, nothing
    // completes until the drain at shutdown. Capacity 4, default
    // watermark 0.75 → Low sheds once depth reaches 3.
    let engine = EngineBuilder::from_registry(registry)
        .workers(1)
        .queue_capacity(4)
        .start_paused()
        .build()
        .expect("engine builds");
    let server = NetServer::bind("127.0.0.1:0", engine).expect("bind");
    let handle = server.spawn().expect("spawn");
    let mut client = NetClient::connect(handle.addr()).expect("connect");

    let seq = &w.sequences()[0];
    let send = |client: &mut NetClient, id: u64, priority: Priority| {
        client
            .send(&WireRequest::new(id, seq.clone()).with_priority(priority))
            .expect("send");
    };
    send(&mut client, 1, Priority::Normal);
    send(&mut client, 2, Priority::Normal);
    send(&mut client, 3, Priority::Normal);
    send(&mut client, 4, Priority::Low); // depth 3 ≥ watermark → shed
    send(&mut client, 5, Priority::Normal); // fills the queue
    send(&mut client, 6, Priority::Normal); // queue full → Overloaded

    // The two rejects arrive while the engine is still paused.
    let mut rejects = Vec::new();
    while rejects.len() < 2 {
        match client.recv().expect("recv reject") {
            ServerFrame::Reject(r) => rejects.push(r),
            other => panic!("unexpected frame before drain: {other:?}"),
        }
    }
    rejects.sort_by_key(|r| r.id);
    assert_eq!(rejects[0].id, 4);
    assert_eq!(rejects[0].reason, RejectReason::ShedLowPriority);
    assert_eq!(rejects[1].id, 6);
    assert_eq!(rejects[1].reason, RejectReason::Overloaded);

    // Graceful drain answers every admitted request.
    let collector = std::thread::spawn(move || {
        let mut done = Vec::new();
        loop {
            match client.recv() {
                Ok(ServerFrame::Response(r)) => {
                    assert_eq!(r.status, CompletionStatus::Done);
                    done.push(r.id);
                }
                Ok(other) => panic!("unexpected frame: {other:?}"),
                Err(NetError::Disconnected) => break,
                Err(e) => panic!("recv failed: {e}"),
            }
        }
        done
    });
    let stats = handle.shutdown();
    let mut done = collector.join().expect("collector");
    done.sort_unstable();
    assert_eq!(done, vec![1, 2, 3, 5]);
    assert_eq!(stats.requests_admitted, 4);
    assert_eq!(stats.responses_sent, 4);
    assert_eq!(stats.rejects(RejectReason::ShedLowPriority), 1);
    assert_eq!(stats.rejects(RejectReason::Overloaded), 1);
    assert_eq!(stats.rejects_total(), 2);
}

#[test]
fn malformed_frames_get_typed_rejects_without_desync() {
    let w = workload(41);
    let config = ServerConfig {
        max_frame_bytes: 4096,
    };
    let server = NetServer::bind_with("127.0.0.1:0", make_engine(&w), config).expect("bind");
    let handle = server.spawn().expect("spawn");
    let mut client = NetClient::connect(handle.addr()).expect("connect");

    // A frame with a valid prefix but garbage payload: typed reject,
    // connection stays usable.
    let garbage = [9u8, 0, 0, 0, 0xEE, 0xFF, 1, 2, 3, 4, 5, 6, 7];
    client.send_raw(&garbage).expect("send garbage");
    match client.recv().expect("recv") {
        ServerFrame::Reject(r) => assert_eq!(r.reason, RejectReason::UnsupportedVersion),
        other => panic!("unexpected frame: {other:?}"),
    }

    // An unknown model: typed reject, connection stays usable.
    client
        .send(&WireRequest::new(8, w.sequences()[0].clone()).with_model("no-such-model"))
        .expect("send");
    match client.recv().expect("recv") {
        ServerFrame::Reject(r) => {
            assert_eq!(r.id, 8);
            assert_eq!(r.reason, RejectReason::UnknownModel);
        }
        other => panic!("unexpected frame: {other:?}"),
    }

    // A hostile geometry header — width 0, u32::MAX timesteps — passes
    // the payload-length arithmetic (0 bytes wanted) but must be a
    // cheap typed reject, not a multi-gigabyte allocation.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&32u32.to_le_bytes()); // payload length
    hostile.push(1); // protocol version
    hostile.push(0x01); // request kind
    hostile.extend_from_slice(&11u64.to_le_bytes()); // id
    hostile.push(1); // Normal priority
    hostile.extend_from_slice(&u64::MAX.to_le_bytes()); // no deadline
    hostile.push(0); // no θ override
    hostile.extend_from_slice(&0u16.to_le_bytes()); // model: default
    hostile.extend_from_slice(&0u16.to_le_bytes()); // predictor: default
    hostile.extend_from_slice(&0u32.to_le_bytes()); // width 0
    hostile.extend_from_slice(&u32::MAX.to_le_bytes()); // timesteps
    client.send_raw(&hostile).expect("send hostile header");
    match client.recv().expect("recv") {
        ServerFrame::Reject(r) => {
            assert_eq!(r.id, 11);
            assert_eq!(r.reason, RejectReason::Malformed);
        }
        other => panic!("unexpected frame: {other:?}"),
    }

    // The connection still serves real work after the rejects.
    client
        .send(&WireRequest::new(9, w.sequences()[0].clone()))
        .expect("send");
    match client.recv().expect("recv") {
        ServerFrame::Response(r) => {
            assert_eq!(r.id, 9);
            assert_eq!(r.status, CompletionStatus::Done);
        }
        other => panic!("unexpected frame: {other:?}"),
    }

    // An oversized length prefix: typed reject, then the server closes
    // this connection (the frame boundary is gone).
    client
        .send_raw(&(1u32 << 24).to_le_bytes())
        .expect("send oversized prefix");
    match client.recv().expect("recv") {
        ServerFrame::Reject(r) => assert_eq!(r.reason, RejectReason::Oversized),
        other => panic!("unexpected frame: {other:?}"),
    }
    match client.recv() {
        Err(NetError::Disconnected) => {}
        other => panic!("expected close after oversized frame, got {other:?}"),
    }

    // A fresh connection is unaffected.
    let mut fresh = NetClient::connect(handle.addr()).expect("reconnect");
    fresh
        .send(&WireRequest::new(10, w.sequences()[0].clone()))
        .expect("send");
    match fresh.recv().expect("recv") {
        ServerFrame::Response(r) => assert_eq!(r.id, 10),
        other => panic!("unexpected frame: {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn zero_length_is_a_typed_error_and_a_single_step_a_result_on_every_serving_path() {
    for direction in [Direction::Unidirectional, Direction::Bidirectional] {
        let mut rng = DeterministicRng::seed_from_u64(12);
        let config = DeepRnnConfig::new(CellKind::Lstm, 3, 4)
            .layers(2)
            .direction(direction)
            .output_size(2);
        let net = DeepRnn::random(&config, &mut rng).unwrap();
        let step = vec![Vector::from_fn(3, |_| rng.uniform(-1.0, 1.0))];
        let want = net.run(&step, &mut ExactEvaluator::new()).unwrap();
        let engine = || {
            EngineBuilder::new(net.clone(), PredictorKind::Exact)
                .build()
                .expect("engine builds")
        };

        // In process.
        let direct = engine();
        assert_eq!(
            direct.submit(InferenceRequest::new(1, Vec::new())),
            Err(EngineError::EmptySequence { id: 1 }),
            "{direction:?}"
        );
        direct
            .submit(InferenceRequest::new(2, step.clone()))
            .unwrap();
        let responses = direct.shutdown();
        assert_eq!(
            responses.len(),
            1,
            "{direction:?}: the refusal left nothing behind"
        );
        assert_eq!(responses[0].status, CompletionStatus::Done);
        assert_eq!(responses[0].outputs, want, "{direction:?}");

        // Over the wire.
        let handle = NetServer::bind("127.0.0.1:0", engine())
            .expect("bind")
            .spawn()
            .expect("spawn");
        let mut client = NetClient::connect(handle.addr()).expect("connect");
        client.send(&WireRequest::new(3, Vec::new())).expect("send");
        match client.recv().expect("recv") {
            ServerFrame::Reject(r) => {
                assert_eq!((r.id, r.reason), (3, RejectReason::InvalidSequence));
            }
            other => panic!("{direction:?}: unexpected frame: {other:?}"),
        }
        client.send(&WireRequest::new(4, step)).expect("send");
        match client.recv().expect("recv") {
            ServerFrame::Response(r) => {
                assert_eq!((r.id, r.status), (4, CompletionStatus::Done));
                assert_eq!(r.outputs, want, "{direction:?}");
            }
            other => panic!("{direction:?}: unexpected frame: {other:?}"),
        }
        let stats = handle.shutdown();
        assert_eq!((stats.requests_admitted, stats.responses_sent), (1, 1));
        assert_eq!(stats.rejects(RejectReason::InvalidSequence), 1);
    }
}

/// A client that half-closes its write side after its last request
/// must still receive every response — the server may not reap the
/// connection while admitted requests are in flight.  The paused
/// engine makes the race deterministic: the server observes EOF long
/// before any response exists.
#[test]
fn half_close_still_delivers_pending_responses() {
    let w = workload(71);
    let mut registry = ModelRegistry::new();
    registry
        .register("imdb", w.network().clone(), PredictorKind::Exact)
        .expect("register model");
    let engine = EngineBuilder::from_registry(registry)
        .workers(1)
        .queue_capacity(8)
        .start_paused()
        .build()
        .expect("engine builds");
    let server = NetServer::bind("127.0.0.1:0", engine).expect("bind");
    let handle = server.spawn().expect("spawn");
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    for id in 0..3 {
        client
            .send(&WireRequest::new(id, w.sequences()[0].clone()))
            .expect("send");
    }
    client.finish_sending().expect("half-close");
    // Let the server sweep past the EOF while the engine is still
    // paused (the regression reaped the connection right here and
    // orphaned all three responses).
    std::thread::sleep(Duration::from_millis(50));
    let collector = std::thread::spawn(move || {
        let mut done = Vec::new();
        loop {
            match client.recv() {
                Ok(ServerFrame::Response(r)) => {
                    assert_eq!(r.status, CompletionStatus::Done);
                    done.push(r.id);
                }
                Ok(other) => panic!("unexpected frame: {other:?}"),
                Err(NetError::Disconnected) => break,
                Err(e) => panic!("recv failed: {e}"),
            }
        }
        done
    });
    let stats = handle.shutdown();
    let mut done = collector.join().expect("collector");
    done.sort_unstable();
    assert_eq!(done, vec![0, 1, 2]);
    assert_eq!(stats.requests_admitted, 3);
    assert_eq!(stats.responses_sent, 3);
    assert_eq!(stats.responses_orphaned, 0);
}

/// A request and an admin frame, each with one code byte (priority,
/// admin op — both right after the `u64` id) outside its table, come
/// back as `Malformed` rejects carrying the frame's own id.
#[test]
fn undefined_code_bytes_reject_as_malformed_with_the_frames_id() {
    let w = workload(43);
    let handle = NetServer::bind("127.0.0.1:0", make_engine(&w))
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    let code_at = 4 + 2 + 8; // length prefix, version, kind, id
    let mut request = Vec::new();
    WireRequest::new(21, w.sequences()[0].clone()).encode(&mut request);
    let mut admin = Vec::new();
    WireAdmin::evict(22, "imdb").encode(&mut admin);
    for (id, mut frame) in [(21, request), (22, admin)] {
        frame[code_at] = 0x7F;
        client.send_raw(&frame).expect("send");
        match client.recv().expect("recv") {
            ServerFrame::Reject(r) => {
                assert_eq!((r.id, r.reason), (id, RejectReason::Malformed));
                assert!(r.message.contains("127"), "{}", r.message);
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    let stats = handle.shutdown();
    assert_eq!(stats.rejects(RejectReason::Malformed), 2);
}

#[test]
fn loadgen_closed_loop_accounts_for_every_request() {
    let w = workload(51);
    let server = NetServer::bind("127.0.0.1:0", make_engine(&w)).expect("bind");
    let handle = server.spawn().expect("spawn");

    // Ragged lengths over the pool, a 2:1:1 blend of the exact
    // default, the BNN predictor and the BNN predictor at θ 0.3.
    let pool = w.sequences();
    let requests: Vec<WireRequest> = (0..28u64)
        .map(|i| {
            let len = [2, 4, 6][i as usize % 3];
            let request = WireRequest::new(i, pool[i as usize % pool.len()][..len].to_vec());
            match i % 4 {
                2 => request.with_predictor("bnn"),
                3 => request.with_predictor("bnn").with_threshold(0.3),
                _ => request,
            }
        })
        .collect();
    let replies = common::drive(handle.addr(), &requests, 4, || Duration::ZERO);
    assert_eq!(common::done_ids(&replies), (0..28).collect::<Vec<_>>());

    let stats = handle.shutdown();
    assert_eq!(stats.requests_admitted, 28);
    assert_eq!(stats.responses_sent, 28);
}

#[test]
fn loadgen_open_loop_poisson_accounts_for_every_request() {
    let w = workload(61);
    let server = NetServer::bind("127.0.0.1:0", make_engine(&w)).expect("bind");
    let handle = server.spawn().expect("spawn");

    // Exponential gaps at 400 requests/s; at most 8 unanswered.
    let mut rng = DeterministicRng::seed_from_u64(88);
    let gap = move || Duration::from_secs_f64(-(1.0 - rng.uniform(0.0, 1.0) as f64).ln() / 400.0);
    let pool = w.sequences();
    let requests: Vec<WireRequest> = (0..20u64)
        .map(|i| WireRequest::new(i, pool[i as usize % pool.len()].clone()))
        .collect();
    let replies = common::drive(handle.addr(), &requests, 8, gap);
    assert_eq!(common::done_ids(&replies), (0..20).collect::<Vec<_>>());

    let stats = handle.shutdown();
    assert_eq!(stats.requests_admitted, 20);
    assert_eq!(stats.responses_sent, 20);
}

/// The server only submits and takes responses; it never asks the
/// engine about swaps.  A swap it staged must still promote once wire
/// traffic has landed the canary pairs that decide it.
#[test]
fn a_wire_staged_swap_promotes_without_in_process_calls() {
    let w = workload(81);
    let handle = NetServer::bind("127.0.0.1:0", make_engine(&w))
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    // The incumbent's weights, round-tripped: zero tolerance promotes.
    let artifact = save_to_vec(w.network(), None).expect("serialize");
    let admin = WireAdmin::swap(900, "imdb", artifact)
        .fraction(1.0)
        .min_requests(2);
    match client.admin(&admin).expect("admin round trip") {
        ServerFrame::AdminOk(ok) => assert_eq!((ok.id, ok.version), (900, 2)),
        other => panic!("expected ack, got {other:?}"),
    }
    for (id, seq) in w.sequences().iter().enumerate() {
        client
            .send(&WireRequest::new(id as u64, seq.clone()))
            .expect("send");
        match client.recv().expect("recv") {
            ServerFrame::Response(r) => assert_eq!(r.status, CompletionStatus::Done),
            other => panic!("request {id} got unexpected frame: {other:?}"),
        }
    }
    let engine = handle.engine();
    let patience = Instant::now() + Duration::from_secs(3);
    while engine.pending() > 0 {
        assert!(Instant::now() < patience, "shadow halves never landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    loop {
        let version = engine.registry().version("imdb");
        if version == Some(2) {
            break;
        }
        assert!(
            Instant::now() < patience,
            "the decided swap was never applied: live version {version:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown();
}

/// A frame that fails to decode inside `recv_timeout` must not leave
/// the socket's read timeout behind: the next blocking `recv` waits for
/// the peer's late, valid frame instead of failing with `WouldBlock`
/// once the old timeout passes.
#[test]
fn recv_timeout_restores_blocking_reads_after_a_decode_error() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (errored, peer_waits) = std::sync::mpsc::channel();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Version 1, kind 0x7F: a payload no decoder accepts.
        stream.write_all(&[2, 0, 0, 0, 1, 0x7F]).expect("write");
        // The valid frame comes well after the 100 ms timeout would
        // have expired, so a leaked timeout fails the blocking `recv`.
        peer_waits.recv().expect("client reports the error");
        std::thread::sleep(Duration::from_millis(300));
        let mut reject = Vec::new();
        WireReject::new(5, RejectReason::Internal, "late").encode(&mut reject);
        stream.write_all(&reject).expect("write");
    });
    let mut client = NetClient::connect(addr).expect("connect");
    match client.recv_timeout(Duration::from_millis(100)) {
        Err(NetError::Protocol(ProtocolError::UnknownKind { found: 0x7F })) => {}
        other => panic!("expected the undecodable frame's error, got {other:?}"),
    }
    errored.send(()).expect("peer is waiting");
    match client.recv() {
        Ok(ServerFrame::Reject(r)) => assert_eq!((r.id, r.message.as_str()), (5, "late")),
        other => panic!("expected the late reject, got {other:?}"),
    }
    peer.join().expect("peer");
}

/// Runs `f` on its own thread and fails the test if it has not
/// returned within `limit`, so a server stuck in its wait shows up as a
/// failure instead of a hung suite.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(f()));
    result
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("did not finish within {limit:?}"))
}

/// A client pipelines requests whose responses overflow the server's
/// outbox cap, so the server stops reading from it, and only then reads.
/// The server must flush when the socket turns writable and read again
/// once the outbox drained.  A wait missing either arm ends only at its
/// `STOP_POLL` timeout, once per refill of the socket buffer: the reads
/// then take several seconds instead of about one.
#[test]
fn a_slow_reader_receives_every_response_once_it_reads() {
    // Two hidden units under a 2048-wide head: 8 KiB of response per
    // step for almost no compute.
    let mut rng = DeterministicRng::seed_from_u64(3);
    let config = DeepRnnConfig::new(CellKind::Gru, 1, 2).output_size(2048);
    let net = DeepRnn::random(&config, &mut rng).unwrap();
    let sequence: Vec<Vector> = (0..512)
        .map(|t| Vector::from_fn(1, |_| t as f32 / 512.0))
        .collect();
    let response_bytes = 512 * 2048 * 4;
    let engine = EngineBuilder::new(net, PredictorKind::Exact)
        .workers(1)
        .build()
        .expect("engine builds");
    let handle = NetServer::bind("127.0.0.1:0", engine)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    // Enough to fill the socket buffers (a few MiB on loopback) and
    // leave more than the cap in the outbox.
    let first = (MAX_OUTBOX_BYTES / response_bytes + 3) as u64;
    for id in 0..first {
        client
            .send(&WireRequest::new(id, sequence.clone()))
            .expect("send");
    }
    let patience = Instant::now() + Duration::from_secs(60);
    while handle.engine().pending() > 0 {
        assert!(Instant::now() < patience, "the engine never answered");
        std::thread::sleep(Duration::from_millis(5));
    }
    // These wait in the socket until the outbox drains below the cap.
    let total = first + 4;
    for id in first..total {
        client
            .send(&WireRequest::new(id, sequence.clone()))
            .expect("send");
    }
    let received = within(Duration::from_secs(60), move || {
        let mut ids = Vec::new();
        while (ids.len() as u64) < total {
            match client.recv().expect("recv") {
                ServerFrame::Response(r) => {
                    assert_eq!((r.status, r.outputs.len()), (CompletionStatus::Done, 512));
                    ids.push(r.id);
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        ids.sort_unstable();
        ids
    });
    assert_eq!(received, (0..total).collect::<Vec<_>>());
    let stats = handle.shutdown();
    assert_eq!(
        (stats.requests_admitted, stats.responses_sent),
        (total, total)
    );
    assert_eq!(stats.responses_orphaned, 0);
}

/// An idle server waits up to `STOP_POLL` for a socket; the handle's
/// wake byte ends that wait, so shutting down takes far less than the
/// stop-flag timeout.
#[test]
fn shutting_down_an_idle_server_ends_its_wait_at_once() {
    let w = workload(91);
    let handle = NetServer::bind("127.0.0.1:0", make_engine(&w))
        .expect("bind")
        .spawn()
        .expect("spawn");
    // One round trip, so the serving thread is past start-up and idle.
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    client
        .send(&WireRequest::new(1, w.sequences()[0].clone()))
        .expect("send");
    assert!(matches!(client.recv(), Ok(ServerFrame::Response(_))));
    let bound = STOP_POLL / 10;
    let started = Instant::now();
    let stats = within(STOP_POLL * 10, move || handle.shutdown());
    assert!(
        started.elapsed() < bound,
        "shutdown took {:?}",
        started.elapsed()
    );
    assert_eq!(stats.responses_sent, 1);
}
