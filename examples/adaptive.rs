//! Adaptive thresholds end to end: one model served with a static-θ
//! BNN predictor *and* an adaptive controller-driven predictor, behind
//! `NetServer`, under drifting-regime traffic kept six requests deep
//! over one `NetClient`.
//!
//! The drifting pool makes the input distribution wander over the run,
//! so a θ tuned for the opening regime is wrong by the end.  The
//! adaptive predictor audits one in eight memoization hits, feeds the
//! exact-vs-cached error into the per-layer controller, and walks θ to
//! hold the accuracy SLO while keeping as much reuse as the error
//! budget allows.  The run closes with the engine-side
//! [`context_stats`](nfm::serve::Engine::context_stats): per-context
//! memo hit rates plus the live controller state.
//!
//! ```text
//! cargo run --release --example adaptive
//! ```

use nfm::memo::{AdaptivePredictor, BnnMemoConfig, ControllerConfig, PredictorKind};
use nfm::net::{NetClient, NetServer, ServerFrame, WireRequest};
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig};
use nfm::serve::{CompletionStatus, EngineBuilder, ModelRegistry};
use nfm::tensor::rng::DeterministicRng;
use nfm::workloads::{InputDomain, SequenceGenerator};
use std::sync::Arc;

const FEATURES: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = DeterministicRng::seed_from_u64(2019);
    let config = DeepRnnConfig::new(CellKind::Lstm, FEATURES, 48).layers(2);
    let net = DeepRnn::random(&config, &mut rng)?;

    // Accuracy SLO: mean |exact − cached| per audited hit ≤ 0.05.
    // Aggressive gains so the controller visibly reacts within a short
    // example run; the defaults are gentler.
    let control = ControllerConfig::new(0.05)
        .audit_period(8)
        .initial_theta(0.1)
        .alpha(0.3)
        .gains(1.25, 0.6)
        .min_audits_per_update(8)
        .seed(2019);
    let adaptive = Arc::new(AdaptivePredictor::new(control));

    let mut registry = ModelRegistry::new();
    registry.register(
        "rnn",
        net,
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.1)),
    )?;
    // Same call, same model: the adaptive policy reads the mirror the
    // static one does.
    registry.add_predictor("rnn", Arc::clone(&adaptive))?;
    let engine = EngineBuilder::from_registry(registry)
        .lanes(4)
        .workers(2)
        .queue_capacity(64)
        .build()?;

    let server = NetServer::bind("127.0.0.1:0", engine)?;
    let handle = server.spawn()?;
    println!("serving on {}\n", handle.addr());

    // Drifting-regime pool: a random walk through input space, so the
    // distribution the memo caches were warmed on keeps moving.  The
    // requests alternate between the two predictors, six in flight.
    let pool = SequenceGenerator::new(InputDomain::drifting(), FEATURES, 7).sequences(12, 40);
    let mut client = NetClient::connect(handle.addr())?;
    let (total, window) = (176, 6);
    let (mut sent, mut done) = (0, 0);
    while done < total {
        if sent < total && sent - done < window {
            let predictor = ["bnn", "adaptive"][sent as usize % 2];
            let sequence = pool[sent as usize % pool.len()].clone();
            client.send(&WireRequest::new(sent, sequence).with_predictor(predictor))?;
            sent += 1;
        } else {
            match client.recv()? {
                ServerFrame::Response(r) if r.status == CompletionStatus::Done => done += 1,
                other => return Err(format!("unexpected frame: {other:?}").into()),
            }
        }
    }

    // Quiesce the workers so the final per-context counters are
    // published.
    handle.engine().drain();
    println!("drifting regime: {done} requests done");
    for ctx in handle.engine().context_stats() {
        let hit_rate = ctx.hit_rate() * 100.0;
        println!(
            "  {}/{} · hit rate {hit_rate:.1}%",
            ctx.model, ctx.predictor
        );
    }

    let snapshot = adaptive.controller().snapshot();
    println!(
        "\ncontroller: {} θ updates · θ {:?} · mean audited err {:?} · slo {}",
        adaptive.controller().updates(),
        snapshot.thresholds,
        snapshot.audit.mean_error(),
        snapshot.slo,
    );
    assert!(
        adaptive.controller().updates() > 0,
        "the drifting run should trigger at least one θ update"
    );

    handle.shutdown();
    Ok(())
}
