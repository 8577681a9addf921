//! Network serving end to end: server half and client half.
//!
//! A two-model engine goes behind `NetServer` on an ephemeral loopback
//! port and `NetClient` talks to it — the exact baseline, the BNN
//! predictor, a θ override, a deadline that expires in the queue, and a
//! request for a model that does not exist (a typed reject frame, not a
//! dropped connection).  Load tests live in the repo benchmark
//! (`benchmark/run.sh`).
//!
//! ```text
//! cargo run --release --example net_serve
//! ```

use nfm::memo::{BnnMemoConfig, PredictorKind};
use nfm::net::{NetClient, NetServer, ServerFrame, WireRequest};
use nfm::serve::{CompletionStatus, EngineBuilder, ModelRegistry, Priority};
use nfm::workloads::{NetworkId, WorkloadBuilder};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two quarter-scale models with the same input width, so one
    // request pool can target either: "imdb" serves exact + BNN
    // predictors, "imdb-b" is a differently-seeded sibling.
    let primary = WorkloadBuilder::new(NetworkId::ImdbSentiment)
        .scale(0.25)
        .sequences(8)
        .sequence_length(24)
        .seed(11)
        .build()?;
    let sibling = WorkloadBuilder::new(NetworkId::ImdbSentiment)
        .scale(0.25)
        .sequences(2)
        .sequence_length(24)
        .seed(29)
        .build()?;

    let mut registry = ModelRegistry::new();
    registry.register("imdb", primary.network().clone(), PredictorKind::Exact)?;
    registry.add_predictor(
        "imdb",
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
    )?;
    registry.register(
        "imdb-b",
        sibling.network().clone(),
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
    )?;
    let engine = EngineBuilder::from_registry(registry)
        .lanes(4)
        .workers(2)
        .queue_capacity(64)
        .build()?;

    let server = NetServer::bind("127.0.0.1:0", engine)?;
    let handle = server.spawn()?;
    println!("serving on {}\n", handle.addr());

    let mut client = NetClient::connect(handle.addr())?;
    let show = |label: &str, frame: &ServerFrame| match frame {
        ServerFrame::Response(r) => {
            let stats = r.stats();
            println!(
                "{label:<28} id={} {:?}  outputs={}  computed={} reused={} ({:.1}%)  queue={:?} compute={:?}",
                r.id,
                r.status,
                r.outputs.len(),
                stats.computed(),
                stats.reuses(),
                stats.reuse_percent(),
                Duration::from_nanos(r.queue_latency_ns),
                Duration::from_nanos(r.compute_latency_ns),
            );
        }
        ServerFrame::AdminOk(r) => {
            println!("{label:<28} id={} ADMIN OK version={}", r.id, r.version);
        }
        ServerFrame::Reject(r) => {
            println!(
                "{label:<28} id={} REJECT {:?}: {}",
                r.id, r.reason, r.message
            );
        }
    };

    let seq = primary.sequences()[0].clone();
    for (label, request) in [
        ("exact baseline", WireRequest::new(1, seq.clone())),
        (
            "bnn predictor",
            WireRequest::new(2, seq.clone()).with_predictor("bnn"),
        ),
        (
            "bnn, theta=0.2 override",
            WireRequest::new(3, seq.clone())
                .with_predictor("bnn")
                .with_threshold(0.2),
        ),
        (
            "second model, low priority",
            WireRequest::new(4, seq.clone())
                .with_model("imdb-b")
                .with_priority(Priority::Low),
        ),
        (
            "already-expired deadline",
            WireRequest::new(5, seq.clone()).with_deadline(Duration::ZERO),
        ),
        (
            "unknown model (typed reject)",
            WireRequest::new(6, seq.clone()).with_model("no-such-model"),
        ),
    ] {
        client.send(&request)?;
        let frame = client.recv()?;
        if request.id == 5 {
            if let ServerFrame::Response(r) = &frame {
                assert_eq!(r.status, CompletionStatus::DeadlineExpired);
            }
        }
        show(label, &frame);
    }

    let stats = handle.shutdown();
    println!(
        "\nserver lifetime: {} connections, {} admitted, {} responses, {} typed rejects, 0 silent drops",
        stats.connections_accepted,
        stats.requests_admitted,
        stats.responses_sent,
        stats.rejects_total(),
    );
    Ok(())
}
