//! Integration tests for the adaptive threshold controller through the
//! serving engine: audit sampling is output-invariant, a frozen
//! controller is bit-identical to the static BNN predictor it freezes,
//! single-worker adaptive serving is seed-deterministic, the controller
//! converges onto the accuracy SLO under drifting traffic, and
//! [`Engine::context_stats`](nfm::serve::Engine::context_stats) reports
//! every served context with live controller state.

use nfm::control::{AdaptivePredictor, ControllerConfig};
use nfm::memo::{AuditConfig, BnnMemoConfig, BnnMemoEvaluator, Model};
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig};
use nfm::serve::{EngineBuilder, InferenceRequest, ModelRegistry, PredictorKind, RequestOptions};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Vector;
use nfm::workloads::{InputDomain, SequenceGenerator};
use std::sync::Arc;

const FEATURES: usize = 6;

fn network(seed: u64) -> DeepRnn {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let config = DeepRnnConfig::new(CellKind::Lstm, FEATURES, 24).layers(2);
    DeepRnn::random(&config, &mut rng).expect("network builds")
}

fn drifting_sequences(count: usize, length: usize, seed: u64) -> Vec<Vec<Vector>> {
    SequenceGenerator::new(InputDomain::drifting(), FEATURES, seed).sequences(count, length)
}

/// Runs `sequences` through a single-worker engine serving `registry`,
/// with every request routed to `predictor`, and returns the outputs in
/// request order.  The engine starts paused so the full queue is
/// visible before the worker schedules anything — lane assignment (and
/// therefore the adaptive θ trajectory) is then a pure function of the
/// request order, not of the submit/pump race.
fn serve_all(
    registry: ModelRegistry,
    predictor: &str,
    sequences: &[Vec<Vector>],
) -> Vec<Vec<Vector>> {
    let engine = EngineBuilder::from_registry(registry)
        .lanes(2)
        .workers(1)
        .queue_capacity(sequences.len().max(1))
        .start_paused()
        .build()
        .expect("engine builds");
    for (i, seq) in sequences.iter().enumerate() {
        engine
            .submit(
                InferenceRequest::new(i as u64, seq.clone())
                    .with_options(RequestOptions::new().predictor(predictor)),
            )
            .expect("submit");
    }
    let mut responses = engine.shutdown();
    responses.sort_by_key(|r| r.id);
    assert!(responses.iter().all(|r| r.is_done()));
    responses.into_iter().map(|r| r.outputs).collect()
}

#[test]
fn audit_sampling_never_changes_outputs_or_reuse() {
    let net = network(41);
    let mirror = Arc::new(nfm::bnn::BinaryNetwork::mirror(&net));
    let sequences = drifting_sequences(3, 24, 17);
    let config = BnnMemoConfig::with_threshold(0.4);

    let mut plain = BnnMemoEvaluator::new(Arc::clone(&mirror), config);
    let mut audited =
        BnnMemoEvaluator::new(Arc::clone(&mirror), config).with_audit(AuditConfig::new(4, 9));
    for seq in &sequences {
        let a = net.run(seq, &mut plain).expect("plain run");
        let b = net.run(seq, &mut audited).expect("audited run");
        assert_eq!(a, b, "auditing must not change emitted outputs");
    }
    // Reuse accounting is untouched; only the audit counter moves.
    assert_eq!(plain.stats().evaluations(), audited.stats().evaluations());
    assert_eq!(plain.stats().reuses(), audited.stats().reuses());
    assert_eq!(
        plain.stats().bnn_evaluations(),
        audited.stats().bnn_evaluations()
    );
    assert_eq!(plain.stats().audited(), 0);
    let stats = audited.audit_stats();
    assert!(stats.audited() > 0, "the audit subsample must be non-empty");
    assert_eq!(audited.stats().audited(), stats.audited());
    assert!(plain.audit_stats().is_empty());
}

#[test]
fn frozen_controller_matches_static_bnn_bit_for_bit() {
    let theta = 0.35;
    let sequences = drifting_sequences(4, 20, 23);

    let mut static_registry = ModelRegistry::new();
    static_registry
        .register(
            "m",
            network(77),
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta)),
        )
        .unwrap();
    let static_outputs = serve_all(static_registry, "bnn", &sequences);

    let net = network(77);
    let frozen = Arc::new(AdaptivePredictor::new(ControllerConfig::frozen_at(
        0.05, theta,
    )));
    let mut frozen_registry = ModelRegistry::new();
    frozen_registry
        .register("m", net, PredictorKind::Exact)
        .unwrap();
    frozen_registry
        .add_predictor("m", Arc::clone(&frozen))
        .unwrap();
    let frozen_outputs = serve_all(frozen_registry, "adaptive", &sequences);

    assert_eq!(
        static_outputs, frozen_outputs,
        "a frozen controller must reproduce the static BNN predictor bit for bit"
    );
    assert_eq!(frozen.controller().updates(), 0);
    assert!(frozen.controller().snapshot().hits() > 0);
}

#[test]
fn single_worker_adaptive_serving_is_seed_deterministic() {
    let sequences = drifting_sequences(5, 24, 31);
    let run = || {
        let net = network(99);
        let predictor = Arc::new(AdaptivePredictor::new(
            ControllerConfig::new(0.04)
                .audit_period(4)
                .initial_theta(0.3)
                .alpha(0.3)
                .gains(1.25, 0.6)
                .min_audits_per_update(4)
                .seed(7),
        ));
        let mut registry = ModelRegistry::new();
        registry.register("m", net, PredictorKind::Exact).unwrap();
        registry.add_predictor("m", Arc::clone(&predictor)).unwrap();
        let outputs = serve_all(registry, "adaptive", &sequences);
        (outputs, predictor.controller().snapshot())
    };
    let (outputs_a, snap_a) = run();
    let (outputs_b, snap_b) = run();
    assert_eq!(outputs_a, outputs_b, "same seed, same outputs");
    assert_eq!(snap_a, snap_b, "same seed, same controller trajectory");
    assert!(
        snap_a.hits() > 0,
        "the run should exercise the memoization path"
    );
}

#[test]
fn controller_converges_onto_slo_under_drift() {
    let model = Model::from(network(5));
    let net = model.network();
    let slo = 0.05;
    let predictor = AdaptivePredictor::new(
        ControllerConfig::new(slo)
            .audit_period(4)
            .initial_theta(0.05)
            .alpha(0.3)
            .gains(1.25, 0.6)
            .min_audits_per_update(8)
            .seed(2019),
    );
    let mut evaluator = predictor.evaluator(&model);
    for seq in &drifting_sequences(12, 60, 13) {
        net.run(seq, &mut evaluator).expect("adaptive run");
    }
    evaluator.flush();

    let controller = predictor.controller();
    assert!(
        controller.updates() > 0,
        "drift must trigger θ updates, got none"
    );
    let snapshot = controller.snapshot();
    let mean = snapshot
        .mean_audited_error()
        .expect("audits were collected");
    // Starting from a conservative θ the controller approaches the SLO
    // from the low-error side; the cumulative audited error (which
    // still contains the convergence transient) stays within a small
    // slack of the budget rather than running away with the drift.
    assert!(
        mean <= slo * 2.0,
        "cumulative audited error {mean} ran away from the SLO {slo}"
    );
    // And it actually used the budget: θ grew above its conservative
    // starting point on at least one layer.
    assert!(
        snapshot.thresholds().iter().any(|&t| t > 0.05),
        "θ never grew: {:?}",
        snapshot.thresholds()
    );
}

#[test]
fn context_stats_reports_every_served_context() {
    let net = network(61);
    let slo = 0.05;
    let adaptive = Arc::new(AdaptivePredictor::new(
        ControllerConfig::new(slo).audit_period(4).seed(3),
    ));
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "m",
            net,
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
        )
        .unwrap();
    registry.add_predictor("m", Arc::clone(&adaptive)).unwrap();
    let engine = EngineBuilder::from_registry(registry)
        .lanes(2)
        .workers(1)
        .queue_capacity(16)
        .build()
        .expect("engine builds");

    let sequences = drifting_sequences(6, 16, 47);
    for (i, seq) in sequences.iter().enumerate() {
        let mut request = InferenceRequest::new(i as u64, seq.clone());
        request = match i % 3 {
            0 => request, // default predictor (bnn)
            1 => request.with_options(RequestOptions::new().predictor("adaptive")),
            _ => request.with_options(RequestOptions::new().threshold(0.25)), // per-request θ override
        };
        engine.submit(request).expect("submit");
    }
    let responses = engine.drain();
    assert_eq!(responses.len(), sequences.len());

    let stats = engine.context_stats();
    // The override rode on the "bnn" context's lanes: one entry per
    // registered predictor, sorted by name.
    let names: Vec<&str> = stats.iter().map(|c| c.predictor.as_str()).collect();
    assert_eq!(names, ["adaptive", "bnn"]);

    for ctx in &stats {
        assert_eq!(ctx.model.as_str(), "m");
        assert!(ctx.stats.evaluations() > 0, "{} saw no work", ctx.predictor);
        assert!((0.0..=1.0).contains(&ctx.hit_rate()));
        if ctx.predictor == "adaptive" {
            let control = ctx.control.as_ref().expect("adaptive exposes control");
            assert_eq!(control.slo, slo);
            assert_eq!(control.hits(), adaptive.controller().snapshot().hits());
        } else {
            assert!(ctx.control.is_none(), "static contexts have no controller");
        }
    }
}
