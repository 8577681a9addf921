//! One registration path: a `Model` owns a version's shared artifacts
//! and every `Predictor` — built-in, adaptive, custom — is a policy
//! over it.
//!
//! 1. **One mirror per version** — a registry entry served under
//!    `PredictorKind::Bnn`, an `AdaptivePredictor` and a custom
//!    `Predictor` at once builds every evaluator, on every worker, over
//!    the *same* mirror, and every response equals a dedicated
//!    `BnnMemoEvaluator` run.
//! 2. **Policies follow a hot swap** — the same three predictors handed
//!    to `swap_model` serve the promoted version on *its* mirror.
//! 3. **Artifacts keep their mirror** — a `LoadedModel` that carries a
//!    mirror registers without rebuilding it.
//! 4. **θ overrides at their edges** — `NaN`, negative, zero, infinite
//!    and `f32::MAX` overrides, in process and over the wire, equal a
//!    dedicated evaluator at that θ, and the lane is back at the
//!    configured θ for the next request.

use nfm::bnn::BinaryNetwork;
use nfm::control::{AdaptivePredictor, ControllerConfig};
use nfm::memo::{
    BnnMemoConfig, BnnMemoEvaluator, ControlSnapshot, Model, OracleMemoConfig, Predictor,
    ReuseStats, ServedEvaluator,
};
use nfm::model::{load_from_slice, save_to_vec};
use nfm::net::{NetClient, NetServer, ServerFrame, WireRequest};
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig, ExactEvaluator};
use nfm::serve::{
    CanaryConfig, Engine, EngineBuilder, InferenceRequest, InferenceResponse, ModelRegistry,
    PredictorKind, RequestOptions, SwapOutcome,
};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Vector;
use std::sync::{Arc, Mutex};

const FEATURES: usize = 5;

fn network(seed: u64) -> DeepRnn {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let config = DeepRnnConfig::new(CellKind::Lstm, FEATURES, 10).layers(2);
    DeepRnn::random(&config, &mut rng).expect("network builds")
}

fn sequences(count: usize, len: usize, seed: u64) -> Vec<Vec<Vector>> {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut x = Vector::from_fn(FEATURES, |_| rng.uniform(-0.5, 0.5));
            (0..len)
                .map(|_| {
                    x = x
                        .add(&Vector::from_fn(FEATURES, |_| rng.uniform(-0.06, 0.06)))
                        .unwrap();
                    x.clone()
                })
                .collect()
        })
        .collect()
}

/// A dedicated BNN-memoized run of `seq` over `model` at `theta`.
fn bnn_run(model: &Model, theta: f32, seq: &[Vector]) -> (Vec<Vector>, ReuseStats) {
    let config = BnnMemoConfig::with_threshold(theta);
    let mut eval = BnnMemoEvaluator::new(Arc::clone(model.mirror()), config);
    (model.network().run(seq, &mut eval).unwrap(), *eval.stats())
}

fn assert_bits(what: &str, a: &[Vector], b: &[Vector]) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (t, (x, y)) in a.iter().zip(b).enumerate() {
        let (x, y) = (x.as_slice(), y.as_slice());
        assert!(
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()),
            "{what}: outputs differ at t={t}"
        );
    }
}

/// The mirrors evaluators were built over, in build order.
type Seen = Arc<Mutex<Vec<Arc<BinaryNetwork>>>>;

/// Wraps a policy and records the mirror of every `Model` it is asked
/// to build an evaluator over.
#[derive(Debug)]
struct Spy {
    inner: Arc<dyn Predictor>,
    seen: Seen,
}

impl Predictor for Spy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build_evaluator(&self, model: &Model) -> Box<dyn ServedEvaluator> {
        self.seen.lock().unwrap().push(Arc::clone(model.mirror()));
        self.inner.build_evaluator(model)
    }

    fn prepare(&self, model: &Model) {
        self.inner.prepare(model)
    }

    fn accepts_threshold_override(&self) -> bool {
        self.inner.accepts_threshold_override()
    }

    fn control_snapshot(&self) -> Option<ControlSnapshot> {
        self.inner.control_snapshot()
    }
}

/// A custom policy: BNN memoization at its own θ under its own name.
#[derive(Debug)]
struct Loose;

const LOOSE_THETA: f32 = 2.0;

impl Predictor for Loose {
    fn name(&self) -> &str {
        "loose"
    }

    fn build_evaluator(&self, model: &Model) -> Box<dyn ServedEvaluator> {
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(LOOSE_THETA)).build_evaluator(model)
    }

    fn prepare(&self, model: &Model) {
        model.mirror();
    }
}

const BNN_THETA: f32 = 0.5;
const ADAPTIVE_THETA: f32 = 1.0;

/// The three policies — built-in, adaptive (frozen, so it equals a
/// static BNN at its θ), custom — each behind a spy on `seen`.
fn three_policies(seen: &Seen) -> Vec<Spy> {
    let policies: [Arc<dyn Predictor>; 3] = [
        Arc::new(PredictorKind::Bnn(BnnMemoConfig::with_threshold(BNN_THETA))),
        Arc::new(AdaptivePredictor::new(ControllerConfig::frozen_at(
            0.05,
            ADAPTIVE_THETA,
        ))),
        Arc::new(Loose),
    ];
    policies
        .into_iter()
        .map(|inner| Spy {
            inner,
            seen: Arc::clone(seen),
        })
        .collect()
}

const POLICIES: [(&str, f32); 3] = [
    ("bnn", BNN_THETA),
    ("adaptive", ADAPTIVE_THETA),
    ("loose", LOOSE_THETA),
];

/// Submits every sequence under every policy, drains, and checks each
/// response against a dedicated run over `model`.
fn serve_and_check(engine: &Engine, model: &Model, seqs: &[Vec<Vector>], base: u64) {
    for (p, (name, _)) in POLICIES.iter().enumerate() {
        for (i, seq) in seqs.iter().enumerate() {
            let id = base + (p * seqs.len() + i) as u64;
            engine
                .submit(
                    InferenceRequest::new(id, seq.clone())
                        .with_options(RequestOptions::new().predictor(*name)),
                )
                .expect("submit");
        }
    }
    let mut responses = engine.drain();
    assert_eq!(responses.len(), POLICIES.len() * seqs.len());
    responses.sort_by_key(|r| r.id);
    for (k, r) in responses.iter().enumerate() {
        let (name, theta) = POLICIES[k / seqs.len()];
        let what = format!("{name} request {}", r.id);
        assert!(r.is_done(), "{what}");
        let (outputs, stats) = bnn_run(model, theta, &seqs[k % seqs.len()]);
        assert_bits(&what, &r.outputs, &outputs);
        // An adaptive evaluator also counts the hits it audited.
        assert_eq!(r.stats.evaluations(), stats.evaluations(), "{what}");
        assert_eq!(r.stats.reuses(), stats.reuses(), "{what}");
        assert_eq!(r.stats.bnn_evaluations(), stats.bnn_evaluations(), "{what}");
        if name != "adaptive" {
            assert_eq!(r.stats, stats, "{what}");
        }
    }
}

#[test]
fn every_policy_of_a_version_reads_its_one_mirror_and_follows_a_swap() {
    let seqs = sequences(4, 40, 7);
    let seen = Seen::default();
    let model = Model::from(network(1));
    let mut policies = three_policies(&seen).into_iter();
    let mut registry = ModelRegistry::new();
    registry
        .register("m", model.clone(), policies.next().unwrap())
        .unwrap();
    for policy in policies {
        registry.add_predictor("m", policy).unwrap();
    }
    assert_eq!(
        registry.predictor_names("m").unwrap(),
        ["bnn", "adaptive", "loose"]
    );
    // Filing the policies built the version's mirror on this thread:
    // every evaluator a worker builds from here on finds it there.
    assert!(model.has_mirror() && seen.lock().unwrap().is_empty());

    let engine = EngineBuilder::from_registry(registry)
        .lanes(2)
        .workers(2)
        .queue_capacity(64)
        .build()
        .unwrap();
    serve_and_check(&engine, &model, &seqs, 0);
    {
        let seen = seen.lock().unwrap();
        assert!(seen.len() >= 3, "a worker built one evaluator per policy");
        assert!(seen.iter().all(|m| Arc::ptr_eq(m, model.mirror())));
    }

    // The same three policies, handed to `swap_model`, are filed on the
    // staged version's own mirror and follow it to promotion.
    let staged_seen = Seen::default();
    let next = Model::from(network(2));
    let version = engine
        .swap_model(
            "m",
            next.clone(),
            three_policies(&staged_seen),
            CanaryConfig::fraction(1.0).min_requests(12).tolerance(1e6),
        )
        .expect("stage");
    assert_eq!(version, 2);
    assert!(next.has_mirror() && staged_seen.lock().unwrap().is_empty());
    // All twelve requests canary, so the staged version answers each.
    serve_and_check(&engine, &next, &seqs, 1_000);
    let reports = engine.swap_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].outcome, SwapOutcome::Promoted);
    assert!(model.is_retired() && !next.is_retired());

    // After promotion all three names resolve on version 2 and run
    // over its mirror, not the incumbent's.
    serve_and_check(&engine, &next, &seqs, 2_000);
    for (name, _) in POLICIES {
        assert!(
            engine
                .context_stats()
                .iter()
                .any(|c| c.version == 2 && c.predictor == name && c.stats.evaluations() > 0),
            "{name} did not serve version 2"
        );
    }
    assert!(!Arc::ptr_eq(next.mirror(), model.mirror()));
    let staged_seen = staged_seen.lock().unwrap();
    assert!(staged_seen.len() >= 3);
    assert!(staged_seen.iter().all(|m| Arc::ptr_eq(m, next.mirror())));
    assert!(seen
        .lock()
        .unwrap()
        .iter()
        .all(|m| Arc::ptr_eq(m, model.mirror())));
    engine.shutdown();
}

#[test]
fn a_loaded_model_registers_with_the_mirror_its_artifact_carried() {
    // An artifact whose mirror is deliberately not the one its weights
    // would give: serving it shows which mirror the engine reads.
    let net = network(3);
    let foreign = BinaryNetwork::mirror(&network(4));
    let bytes = save_to_vec(&net, Some(&foreign)).expect("serialize");
    let loaded = load_from_slice(&bytes).expect("load");
    let blocks = |mirror: &BinaryNetwork| -> Vec<*const u64> {
        let gates = mirror.iter();
        gates.map(|(_, gate)| gate.sign_block().as_ptr()).collect()
    };
    let read = blocks(
        loaded
            .mirror
            .as_ref()
            .expect("the artifact carries a mirror"),
    );

    // Converting moves the sign blocks the load read into the model:
    // none is rebuilt or copied.
    let model = Model::from(loaded);
    assert_eq!(**model.mirror(), foreign);
    assert_eq!(blocks(model.mirror()), read, "a sign block was rebuilt");

    let theta = 1.0;
    let engine = EngineBuilder::new(
        model.clone(),
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta)),
    )
    .workers(1)
    .build()
    .unwrap();
    let rebuilt = Model::from(net);
    let mut told_apart = false;
    for (i, seq) in sequences(3, 40, 11).iter().enumerate() {
        engine
            .submit(InferenceRequest::new(i as u64, seq.clone()))
            .unwrap();
        let response = engine.drain().pop().unwrap();
        let (outputs, stats) = bnn_run(&model, theta, seq);
        assert_bits("carried mirror", &response.outputs, &outputs);
        assert_eq!(response.stats, stats);
        told_apart |= bnn_run(&rebuilt, theta, seq).1 != stats;
    }
    assert!(told_apart, "the two mirrors must predict differently");
    engine.shutdown();
}

/// A dedicated run of `seq` over `model` under `kind` at `theta`.
fn run_at(
    model: &Model,
    kind: PredictorKind,
    theta: f32,
    seq: &[Vector],
) -> (Vec<Vector>, ReuseStats) {
    match kind {
        PredictorKind::Bnn(_) => bnn_run(model, theta, seq),
        PredictorKind::Oracle(_) => {
            let config = OracleMemoConfig::with_threshold(theta);
            let mut eval = BnnMemoEvaluator::oracle(config);
            (model.network().run(seq, &mut eval).unwrap(), *eval.stats())
        }
        PredictorKind::Exact => unreachable!("the exact baseline has no threshold"),
    }
}

#[test]
fn threshold_overrides_at_their_edges_match_dedicated_runs_in_process_and_over_the_wire() {
    const CONFIGURED: f32 = 0.75;
    let edges = [f32::NAN, -1.0, 0.0, f32::INFINITY, f32::MAX];
    let model = Model::from(network(5));
    let seqs = sequences(edges.len() + 1, 24, 13);
    let (plain_seq, edge_seqs) = seqs.split_last().unwrap();

    for kind in [
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(CONFIGURED)),
        PredictorKind::Oracle(OracleMemoConfig::with_threshold(CONFIGURED)),
    ] {
        // One worker with one lane: every request sits in lane 0, so a
        // plain request always follows an override into the same lane.
        let engine = || {
            EngineBuilder::new(model.clone(), kind)
                .lanes(1)
                .workers(1)
                .build()
                .unwrap()
        };
        let in_process = engine();
        let handle = NetServer::bind("127.0.0.1:0", engine())
            .expect("bind")
            .spawn()
            .expect("spawn");
        let mut client = NetClient::connect(handle.addr()).expect("connect");

        let mut serve = |id: u64, seq: &[Vector], theta: Option<f32>| {
            let mut options = RequestOptions::new();
            let mut wire = WireRequest::new(id, seq.to_vec());
            if let Some(theta) = theta {
                options = options.threshold(theta);
                wire = wire.with_threshold(theta);
            }
            in_process
                .submit(InferenceRequest::new(id, seq.to_vec()).with_options(options))
                .expect("submit");
            let local: InferenceResponse = in_process.drain().pop().expect("one response");
            client.send(&wire).expect("send");
            let remote = match client.recv().expect("recv") {
                ServerFrame::Response(r) => r,
                other => panic!("request {id}: unexpected frame {other:?}"),
            };
            assert!(local.is_done() && remote.id == id);
            [
                (local.outputs, local.stats),
                (remote.outputs.clone(), remote.stats()),
            ]
        };

        let evals =
            |seq: &[Vector]| (seq.len() * model.network().neuron_evaluations_per_step()) as u64;
        for (i, (&theta, seq)) in edges.iter().zip(edge_seqs).enumerate() {
            let what = format!("{} θ={theta}", kind.name());
            let (outputs, stats) = run_at(&model, kind, theta, seq);
            for (outs, st) in serve(2 * i as u64, seq, Some(theta)) {
                assert_bits(&what, &outs, &outputs);
                assert_eq!(st, stats, "{what}");
                // NaN compares false and nothing is below a negative
                // θ: every neuron is computed, as the exact path does.
                if theta.is_nan() || theta < 0.0 {
                    let exact = model.network().run(seq, &mut ExactEvaluator::new());
                    assert_bits(&what, &outs, &exact.unwrap());
                    assert_eq!((st.reuses(), st.evaluations()), (0, evals(seq)), "{what}");
                }
            }
            // The lane forgets the override with the request.
            let (outputs, stats) = run_at(&model, kind, CONFIGURED, plain_seq);
            for (outs, st) in serve(2 * i as u64 + 1, plain_seq, None) {
                assert_bits(&format!("plain after {what}"), &outs, &outputs);
                assert_eq!(st, stats, "plain after {what}");
            }
        }
        in_process.shutdown();
        handle.shutdown();
    }
}
