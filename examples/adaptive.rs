//! Adaptive thresholds end to end: one model served with a static-θ
//! BNN predictor *and* an adaptive controller-driven predictor, behind
//! `NetServer`, under drifting-regime traffic from `nfm-loadgen`.
//!
//! The drifting pool makes the input distribution wander over the run,
//! so a θ tuned for the opening regime is wrong by the end.  The
//! adaptive predictor audits one in eight memoization hits, feeds the
//! exact-vs-cached error into the per-layer controller, and walks θ to
//! hold the accuracy SLO while keeping as much reuse as the error
//! budget allows.  The scenario report closes with the engine-side
//! [`context_stats`](nfm::serve::Engine::context_stats): per-context
//! memo hit rates plus the live controller state.
//!
//! ```text
//! cargo run --release --example adaptive
//! ```

use nfm::control::{AdaptivePredictor, ControllerConfig};
use nfm::loadgen::{drifting_pool, run_scenario, BlendEntry, Scenario};
use nfm::memo::{BnnMemoConfig, PredictorKind};
use nfm::net::NetServer;
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig};
use nfm::serve::{EngineBuilder, ModelRegistry};
use nfm::tensor::rng::DeterministicRng;
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
    // distribution the memo caches were warmed on keeps moving.
    let pool = drifting_pool(FEATURES, 12, 40, 7);
    let scenario = Scenario::closed_loop(pool, 6)
        .seed(42)
        .warmup(16)
        .measure(160)
        .blend(vec![
            BlendEntry::new(1.0).predictor("bnn"),
            BlendEntry::new(1.0).predictor("adaptive"),
        ]);
    let mut report = run_scenario(handle.addr(), &scenario)?;

    // Quiesce the workers so the final per-context counters are
    // published, then attach them to the traffic report.
    handle.engine().drain();
    report.attach_context_stats(handle.engine().context_stats());
    println!("drifting regime: {}", report.summary());

    let snapshot = adaptive.controller().snapshot();
    println!(
        "\ncontroller: {} θ updates · θ {:?} · mean audited err {:?} · slo {}",
        adaptive.controller().updates(),
        snapshot.thresholds(),
        snapshot.mean_audited_error(),
        snapshot.slo,
    );
    assert!(
        adaptive.controller().updates() > 0,
        "the drifting run should trigger at least one θ update"
    );

    handle.shutdown();
    Ok(())
}
