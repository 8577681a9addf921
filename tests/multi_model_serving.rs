//! The open serving API: `Predictor` trait + multi-model registry +
//! per-request options.
//!
//! Five contracts:
//!
//! 1. **Open predictors** — a custom [`Predictor`] registered through
//!    the [`ModelRegistry`] and served through the engine is
//!    bit-identical to driving its evaluator directly (dedicated
//!    per-sequence runs and `run_batch` waves).
//! 2. **Multi-model** — one engine serves two registered models under
//!    different predictors concurrently, each request bit-identical to
//!    its dedicated single-model reference, including per-request
//!    threshold overrides.
//! 3. **Registry hygiene** — unknown models/predictors and unsupported
//!    overrides are typed submit-time errors; duplicate registrations
//!    are rejected.
//! 4. **Scheduling knobs** — priorities reorder admission (never
//!    results); an in-flight request whose deadline expires is aborted
//!    between steps, freeing its lane mid-sequence.
//! 5. **Lane borrowing and ownership** — a hot model borrows the lanes
//!    a cold sibling context leaves idle (never past the worker-wide
//!    fair-share total) without changing results, and a lane never
//!    leaves the worker that seated it: with a sibling worker idle, a
//!    busy worker's deadline-bound lanes still abort where they were
//!    seated.

use nfm::bnn::BinaryNetwork;
use nfm::memo::{
    BnnMemoConfig, BnnMemoEvaluator, Model, OracleMemoConfig, Predictor, ReuseStats,
    ServedEvaluator,
};
use nfm::rnn::{
    evaluate_neurons, CellKind, DeepRnn, DeepRnnConfig, Direction, GateBatch, GateId,
    LaneScheduler, NeuronEvaluator, Result as RnnResult,
};
use nfm::serve::{
    CompletionStatus, EngineBuilder, EngineError, InferenceRequest, ModelRegistry, PredictorKind,
    Priority, RequestOptions,
};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Vector;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

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

// ---------------------------------------------------------------------
// A custom memoization policy, implemented entirely outside the built-in
// family: every third evaluation of a neuron (within one sequence)
// returns the cached value instead of computing.  It keeps full
// per-lane state — the contract a stateful evaluator must satisfy to be
// schedule-independent under lanes > 1.
// ---------------------------------------------------------------------

#[derive(Default)]
struct StickyState {
    /// Per (gate, neuron): cached preactivation + evaluation count.
    cache: HashMap<(GateId, usize), (f32, u32)>,
}

impl StickyState {
    fn produce(&mut self, gate_id: GateId, neuron: usize, exact: impl FnOnce() -> f32) -> f32 {
        let entry = self.cache.entry((gate_id, neuron)).or_insert((0.0, 0));
        entry.1 += 1;
        if entry.1.is_multiple_of(3) {
            entry.0
        } else {
            let y = exact();
            entry.0 = y;
            y
        }
    }
}

/// The custom evaluator: one [`StickyState`] per lane, written one
/// neuron at a time.
#[derive(Default)]
struct StickyEvaluator {
    lanes: Vec<StickyState>,
}

impl NeuronEvaluator for StickyEvaluator {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        let wh = call.gate.wh();
        evaluate_neurons(call, out, |id, _, h, fwd| {
            let exact = fwd + wh.row_dot(id.neuron, h)?;
            Ok(self.lanes[id.lane].produce(id.gate_id, id.neuron, move || exact))
        })
    }

    fn begin_batch(&mut self, lanes: usize) {
        while self.lanes.len() < lanes {
            self.lanes.push(StickyState::default());
        }
    }

    fn begin_lane_sequence(&mut self, lane: usize) {
        self.lanes[lane].cache.clear();
    }

    fn swap_lane_state(&mut self, a: usize, b: usize) {
        self.lanes.swap(a, b);
    }
}

// No stats overrides: the engine synthesizes all-computed statistics
// for this policy (it has no notion of skipped work it could report).
impl ServedEvaluator for StickyEvaluator {}

#[derive(Debug)]
struct StickyPredictor;

impl Predictor for StickyPredictor {
    fn name(&self) -> &str {
        "sticky"
    }

    fn build_evaluator(&self, _model: &Model) -> Box<dyn ServedEvaluator> {
        Box::<StickyEvaluator>::default()
    }
}

fn unidirectional_network(seed: u64) -> DeepRnn {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    DeepRnn::random(
        &DeepRnnConfig::new(CellKind::Lstm, 6, 9)
            .layers(2)
            .output_size(3),
        &mut rng,
    )
    .unwrap()
}

const RAGGED_LENS: [usize; 8] = [12, 5, 9, 1, 3, 11, 7, 2];

fn ragged_sequences(net: &DeepRnn, seed: u64) -> Vec<Vec<Vector>> {
    RAGGED_LENS
        .iter()
        .enumerate()
        .map(|(i, &len)| smooth_sequence(len, net.input_size(), seed + i as u64))
        .collect()
}

/// Contract 1: a custom `Predictor` served through the engine ==
/// driving its evaluator directly — one sequence at a time and through
/// `run_batch` waves — for every lane count.
#[test]
fn custom_predictor_through_engine_matches_direct_evaluator_runs() {
    let net = unidirectional_network(31);
    let seqs = ragged_sequences(&net, 400);

    // Solo reference runs, one lane each.
    let mut reference = Vec::new();
    for seq in &seqs {
        let mut eval = StickyEvaluator::default();
        reference.push(net.run(seq, &mut eval).unwrap());
    }

    // The same sequences through `run_batch` waves (wave refill: a
    // freed lane idles until its wave ends).
    let mut wave_eval = StickyEvaluator::default();
    let mut wave_outputs = Vec::new();
    for wave in seqs.chunks(3) {
        let refs: Vec<&[Vector]> = wave.iter().map(|s| s.as_slice()).collect();
        wave_outputs.extend(net.run_batch(&refs, &mut wave_eval).unwrap());
    }
    for (i, (w, r)) in wave_outputs.iter().zip(reference.iter()).enumerate() {
        assert_bit_identical(&format!("run_batch vs dedicated, seq {i}"), w, r);
    }

    // Served through the engine: single lane, mid-wave pipeline lanes.
    for lanes in [1usize, 2, 3] {
        let mut registry = ModelRegistry::new();
        registry
            .register("tiny", net.clone(), StickyPredictor)
            .unwrap();
        let engine = EngineBuilder::from_registry(registry)
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
        assert_eq!(responses.len(), seqs.len());
        responses.sort_by_key(|r| r.id);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.status, CompletionStatus::Done, "lanes={lanes} seq {i}");
            assert_bit_identical(
                &format!("engine lanes={lanes} seq {i}"),
                &r.outputs,
                &reference[i],
            );
            // Synthesized stats: all-computed over the request's own
            // timesteps.
            assert_eq!(
                r.stats.evaluations(),
                (seqs[i].len() * net.neuron_evaluations_per_step()) as u64,
                "lanes={lanes} seq {i}"
            );
            assert_eq!(r.stats.reuses(), 0);
        }
    }
}

/// Contract 2: one engine, two models, three predictor families and a
/// per-request threshold override — every response bit-identical to its
/// dedicated single-model reference.
#[test]
fn one_engine_serves_two_models_with_per_request_options() {
    let imdb = unidirectional_network(41);
    let mut rng = DeterministicRng::seed_from_u64(43);
    let kws =
        DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 5, 8).layers(2), &mut rng).unwrap();

    let bnn_base = BnnMemoConfig::with_threshold(1.0);
    let oracle_cfg = OracleMemoConfig::with_threshold(0.4);
    let mut registry = ModelRegistry::new();
    registry
        .register("imdb", imdb.clone(), PredictorKind::Bnn(bnn_base))
        .unwrap();
    registry
        .add_predictor("imdb", PredictorKind::Exact)
        .unwrap();
    registry
        .register("kws", kws.clone(), PredictorKind::Exact)
        .unwrap();
    registry
        .add_predictor("kws", PredictorKind::Oracle(oracle_cfg))
        .unwrap();

    // One request shape per (model, options) combination, interleaved
    // across the two models so both are in flight at once.
    enum Expect {
        Bnn(f32),
        ExactImdb,
        ExactKws,
        Oracle,
    }
    let cases: Vec<(RequestOptions, Expect, &DeepRnn)> = vec![
        (RequestOptions::default(), Expect::Bnn(1.0), &imdb),
        (
            RequestOptions::default().model("kws"),
            Expect::ExactKws,
            &kws,
        ),
        (
            RequestOptions::default().threshold(0.25),
            Expect::Bnn(0.25),
            &imdb,
        ),
        (
            RequestOptions::default().model("kws").predictor("oracle"),
            Expect::Oracle,
            &kws,
        ),
        (
            RequestOptions::default().model("imdb").predictor("exact"),
            Expect::ExactImdb,
            &imdb,
        ),
        (
            RequestOptions::default()
                .model("imdb")
                .threshold(4.0)
                .priority(Priority::High),
            Expect::Bnn(4.0),
            &imdb,
        ),
    ];

    // Two full rounds of every case, ragged lengths, through engines
    // with one and two workers: results must not depend on scheduling.
    let imdb_mirror = BinaryNetwork::mirror(&imdb);
    for workers in [1usize, 2] {
        let engine = EngineBuilder::from_registry({
            let mut r = ModelRegistry::new();
            r.register("imdb", imdb.clone(), PredictorKind::Bnn(bnn_base))
                .unwrap();
            r.add_predictor("imdb", PredictorKind::Exact).unwrap();
            r.register("kws", kws.clone(), PredictorKind::Exact)
                .unwrap();
            r.add_predictor("kws", PredictorKind::Oracle(oracle_cfg))
                .unwrap();
            r
        })
        .lanes(2)
        .workers(workers)
        .queue_capacity(64)
        .start_paused()
        .build()
        .unwrap();

        let mut submitted: Vec<(u64, Vec<Vector>, &Expect, &DeepRnn)> = Vec::new();
        for round in 0..2u64 {
            for (c, (options, expect, net)) in cases.iter().enumerate() {
                let id = round * 100 + c as u64;
                let len = 4 + ((round as usize + c) % 3) * 5;
                let seq = smooth_sequence(len, net.input_size(), 700 + id);
                engine
                    .submit(InferenceRequest::new(id, seq.clone()).with_options(options.clone()))
                    .unwrap();
                submitted.push((id, seq, expect, net));
            }
        }
        let responses = engine.shutdown();
        assert_eq!(responses.len(), submitted.len(), "workers={workers}");
        for (id, seq, expect, net) in submitted {
            let r = responses.iter().find(|r| r.id == id).unwrap();
            assert_eq!(
                r.status,
                CompletionStatus::Done,
                "workers={workers} id={id}"
            );
            let name = format!("workers={workers} id={id}");
            match expect {
                Expect::Bnn(theta) => {
                    let mut eval = BnnMemoEvaluator::new(
                        imdb_mirror.clone(),
                        BnnMemoConfig::with_threshold(*theta),
                    );
                    let reference = net.run(&seq, &mut eval).unwrap();
                    assert_bit_identical(&name, &r.outputs, &reference);
                    assert_eq!(r.stats, *eval.stats(), "{name}: per-request stats");
                }
                Expect::Oracle => {
                    let mut eval = BnnMemoEvaluator::oracle(oracle_cfg);
                    let reference = net.run(&seq, &mut eval).unwrap();
                    assert_bit_identical(&name, &r.outputs, &reference);
                    assert_eq!(r.stats, *eval.stats(), "{name}: per-request stats");
                }
                Expect::ExactImdb | Expect::ExactKws => {
                    let mut eval = nfm::rnn::ExactEvaluator::new();
                    let reference = net.run(&seq, &mut eval).unwrap();
                    assert_bit_identical(&name, &r.outputs, &reference);
                    assert_eq!(r.stats.reuses(), 0, "{name}");
                    assert_eq!(
                        r.stats.evaluations(),
                        (seq.len() * net.neuron_evaluations_per_step()) as u64,
                        "{name}"
                    );
                }
            }
        }
    }
}

/// A client sweeping a thousand distinct per-request thresholds against
/// one registered model: θ is state of each request's lane, so no
/// context is created per value — `context_stats` stays at the one
/// registered combination however many values were asked for — and
/// every response is bit-identical to a dedicated run at its θ.
#[test]
fn threshold_sweeps_survive_context_eviction() {
    let net = unidirectional_network(81);
    let mirror = BinaryNetwork::mirror(&net);
    let engine = EngineBuilder::new(
        net.clone(),
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
    )
    .lanes(2)
    .workers(2)
    .queue_capacity(1000)
    .start_paused()
    .build()
    .unwrap();
    let mut submitted = Vec::new();
    for i in 0..1000usize {
        let theta = 0.001 * i as f32 + 0.0005;
        let seq = smooth_sequence(4 + i % 4, net.input_size(), 900 + (i % 16) as u64);
        engine
            .submit(
                InferenceRequest::new(i as u64, seq.clone())
                    .with_options(RequestOptions::new().threshold(theta)),
            )
            .unwrap();
        submitted.push((i as u64, theta, seq));
    }
    let mut responses = engine.drain();
    assert_eq!(responses.len(), submitted.len());
    responses.sort_by_key(|r| r.id);
    for ((id, theta, seq), r) in submitted.into_iter().zip(&responses) {
        assert_eq!(r.id, id);
        assert_eq!(r.status, CompletionStatus::Done, "id={id}");
        let mut eval = BnnMemoEvaluator::new(mirror.clone(), BnnMemoConfig::with_threshold(theta));
        let reference = net.run(&seq, &mut eval).unwrap();
        assert_bit_identical(&format!("sweep id={id} θ={theta}"), &r.outputs, &reference);
        assert_eq!(r.stats, *eval.stats(), "sweep id={id} θ={theta}: stats");
    }
    let contexts = engine.context_stats();
    assert_eq!(contexts.len(), 1, "1,000 θ values, one context");
    assert_eq!(contexts[0].predictor, "bnn");
}

/// A dedicated one-lane run of `seq` under `kind` with its threshold
/// replaced by `theta`.
fn dedicated_run(
    net: &DeepRnn,
    mirror: &Arc<BinaryNetwork>,
    kind: PredictorKind,
    theta: f32,
    seq: &[Vector],
) -> (Vec<Vector>, ReuseStats) {
    match kind {
        PredictorKind::Bnn(mut config) => {
            config.threshold = theta;
            let mut eval = BnnMemoEvaluator::new(Arc::clone(mirror), config);
            (net.run(seq, &mut eval).unwrap(), *eval.stats())
        }
        PredictorKind::Oracle(mut config) => {
            config.threshold = theta;
            let mut eval = BnnMemoEvaluator::oracle(config);
            (net.run(seq, &mut eval).unwrap(), *eval.stats())
        }
        PredictorKind::Exact => unreachable!("the exact baseline has no threshold"),
    }
}

/// One 4-lane context serving its configured θ next to three different
/// overrides, over ragged lengths that make the scheduler swap lanes
/// when it sorts and compact the tail when one retires: every response
/// — outputs and per-request statistics — is bit-identical to a
/// dedicated run at the θ its request asked for.  The shortest request
/// carries the override that reuses nothing, and the first request
/// admitted into the lane it vacates carries none: it must run at the
/// configured θ, not inherit its predecessor's.  Unidirectional stacks
/// exercise the block schedule (refill between blocks), bidirectional
/// ones the layer-lockstep schedule (refill once all four finished).
#[test]
fn one_context_serves_mixed_thresholds_on_its_lanes() {
    let mut rng = DeterministicRng::seed_from_u64(97);
    let bidirectional = DeepRnn::random(
        &DeepRnnConfig::new(CellKind::Gru, 5, 7)
            .layers(2)
            .direction(Direction::Bidirectional),
        &mut rng,
    )
    .unwrap();
    // (length, θ override).  Admission order is submission order (one
    // worker, paused engine); 4 is the first to retire.
    const NOTHING_REUSED: f32 = -1.0;
    let requests: [(usize, Option<f32>); 10] = [
        (9, None),
        (21, Some(0.25)),
        (4, Some(NOTHING_REUSED)),
        (14, Some(4.0)),
        (17, None),
        (6, Some(0.25)),
        (11, None),
        (3, Some(4.0)),
        (19, Some(NOTHING_REUSED)),
        (8, None),
    ];
    for net in [unidirectional_network(95), bidirectional] {
        let mirror = Arc::new(BinaryNetwork::mirror(&net));
        for (kind, configured) in [
            (PredictorKind::Bnn(BnnMemoConfig::with_threshold(1.0)), 1.0),
            (
                PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.4)),
                0.4,
            ),
        ] {
            let engine = EngineBuilder::new(net.clone(), kind)
                .lanes(4)
                .workers(1)
                .queue_capacity(requests.len())
                .start_paused()
                .build()
                .unwrap();
            let seqs: Vec<Vec<Vector>> = requests
                .iter()
                .enumerate()
                .map(|(i, &(len, _))| smooth_sequence(len, net.input_size(), 3100 + i as u64))
                .collect();
            for (i, (seq, &(_, theta))) in seqs.iter().zip(&requests).enumerate() {
                let mut options = RequestOptions::new();
                if let Some(theta) = theta {
                    options = options.threshold(theta);
                }
                engine
                    .submit(InferenceRequest::new(i as u64, seq.clone()).with_options(options))
                    .unwrap();
            }
            let mut responses = engine.drain();
            assert_eq!(responses.len(), requests.len());
            responses.sort_by_key(|r| r.id);
            for (i, r) in responses.iter().enumerate() {
                let theta = requests[i].1.unwrap_or(configured);
                let name = format!("{} seq {i} θ={theta}", kind.name());
                assert_eq!(r.status, CompletionStatus::Done, "{name}");
                let (reference, stats) = dedicated_run(&net, &mirror, kind, theta, &seqs[i]);
                assert_bit_identical(&name, &r.outputs, &reference);
                assert_eq!(r.stats, stats, "{name}: per-request stats");
                if requests[i].1 == Some(NOTHING_REUSED) {
                    assert_eq!(r.stats.reuses(), 0, "{name}");
                }
            }
            // The vacated lane's successor really ran at another θ.
            assert!(responses[4].stats.reuses() > 0, "{}", kind.name());
            assert_eq!(engine.context_stats().len(), 1, "one context, four θ");
        }
    }
}

/// Steps `sched` until idle and returns every finished lane's outputs
/// and statistics by token, each lane's statistics taken before the
/// next admission can reuse its slot.
fn drain_lanes(
    net: &DeepRnn,
    sched: &mut LaneScheduler,
    eval: &mut dyn ServedEvaluator,
) -> HashMap<u64, (Vec<Vector>, ReuseStats)> {
    let mut done = HashMap::new();
    let mut finished = Vec::new();
    while sched.step(net, eval, &mut finished).unwrap() > 0 {
        for f in finished.drain(..) {
            let stats = eval.take_lane_stats(f.stats_lane).unwrap();
            done.insert(f.token, (f.outputs, stats));
        }
    }
    done
}

/// A lane's θ override moves with its lane: a request admitted with
/// an override behind a shorter neighbour is moved to the front when
/// the scheduler sorts its lanes longest-first, and finishes
/// bit-identical to a dedicated run at its θ, its un-overridden
/// neighbour at the configured one — and the next request seated in
/// the slot it vacates is back at the configured θ.
#[test]
fn a_lane_override_moves_with_its_lane() {
    let model = Model::from(unidirectional_network(99));
    let (net, mirror) = (model.network().as_ref(), model.mirror());
    let kind = PredictorKind::Bnn(BnnMemoConfig::with_threshold(1.0));
    let overridden = smooth_sequence(30, net.input_size(), 3300);
    let neighbour = smooth_sequence(13, net.input_size(), 3301);
    let successor = smooth_sequence(10, net.input_size(), 3302);

    let mut eval = kind.build_evaluator(&model);
    eval.begin_batch(2);
    let mut sched = LaneScheduler::new(net, 2).unwrap();
    sched.admit(1, neighbour.clone(), eval.as_mut()).unwrap();
    let lane = sched.admit(0, overridden.clone(), eval.as_mut()).unwrap();
    assert_eq!(lane, 1, "seated behind its neighbour");
    eval.set_lane_threshold(lane, 0.25);
    let mut finished = Vec::new();
    // One block in: sorting moved the longer, overridden lane to the
    // front, its θ with it.
    sched.step(net, eval.as_mut(), &mut finished).unwrap();
    assert!(finished.is_empty());
    assert_eq!(sched.lane_of(0), Some(0));
    let mut done = drain_lanes(net, &mut sched, eval.as_mut());
    let slot = sched.admit(5, successor.clone(), eval.as_mut()).unwrap();
    assert_eq!(slot, 0, "the successor reuses the overridden lane's slot");
    done.extend(drain_lanes(net, &mut sched, eval.as_mut()));

    for (what, token, theta, seq) in [
        ("overridden lane", 0, 0.25, &overridden),
        ("neighbour", 1, 1.0, &neighbour),
        ("successor", 5, 1.0, &successor),
    ] {
        let (outputs, stats) = &done[&token];
        let (reference, reference_stats) = dedicated_run(net, mirror, kind, theta, seq);
        assert_bit_identical(what, outputs, &reference);
        assert_eq!(*stats, reference_stats, "{what}: per-request stats");
    }
}

/// Contract 3: registry and submit-time errors are typed.
#[test]
fn unknown_ids_and_unsupported_overrides_are_typed_errors() {
    let net = unidirectional_network(51);
    let mut registry = ModelRegistry::new();
    registry
        .register("only", net.clone(), PredictorKind::Exact)
        .unwrap();

    // Duplicate registrations are rejected with typed errors.
    assert_eq!(
        registry.register("only", net.clone(), PredictorKind::Exact),
        Err(EngineError::DuplicateModel {
            model: "only".into()
        })
    );
    assert_eq!(
        registry.add_predictor("only", PredictorKind::Exact),
        Err(EngineError::DuplicatePredictor {
            model: "only".into(),
            predictor: "exact".into(),
        })
    );
    assert_eq!(
        registry.add_predictor("ghost", PredictorKind::Exact),
        Err(EngineError::UnknownModel {
            model: "ghost".into()
        })
    );

    let engine = EngineBuilder::from_registry(registry).build().unwrap();
    let seq = smooth_sequence(4, net.input_size(), 1);
    assert_eq!(
        engine.submit(
            InferenceRequest::new(1, seq.clone()).with_options(RequestOptions::for_model("ghost"))
        ),
        Err(EngineError::UnknownModel {
            model: "ghost".into()
        })
    );
    assert_eq!(
        engine.submit(
            InferenceRequest::new(2, seq.clone())
                .with_options(RequestOptions::new().predictor("bnn"))
        ),
        Err(EngineError::UnknownPredictor {
            model: "only".into(),
            predictor: "bnn".into(),
        })
    );
    // The exact baseline has no threshold to override.
    assert_eq!(
        engine.submit(
            InferenceRequest::new(3, seq.clone())
                .with_options(RequestOptions::new().threshold(0.5))
        ),
        Err(EngineError::ThresholdUnsupported {
            model: "only".into(),
            predictor: "exact".into(),
        })
    );
    // Nothing was admitted by the failed submissions.
    engine.submit(InferenceRequest::new(4, seq)).unwrap();
    assert_eq!(engine.drain().len(), 1);

    // An empty registry cannot build an engine.
    assert_eq!(
        EngineBuilder::from_registry(ModelRegistry::new())
            .build()
            .err(),
        Some(EngineError::EmptyRegistry)
    );
}

/// Contract 4a: priorities reorder admission (High before Normal before
/// Low) without changing any request's results.
#[test]
fn priorities_reorder_admission_not_results() {
    let net = unidirectional_network(61);
    let engine = EngineBuilder::new(net.clone(), PredictorKind::Exact)
        .lanes(1)
        .workers(1)
        .queue_capacity(8)
        .start_paused()
        .build()
        .unwrap();
    let mut references = HashMap::new();
    for (id, priority) in [
        (1u64, Priority::Low),
        (2, Priority::Normal),
        (3, Priority::High),
        (4, Priority::Normal),
    ] {
        let seq = smooth_sequence(5, net.input_size(), 800 + id);
        references.insert(
            id,
            net.run(&seq, &mut nfm::rnn::ExactEvaluator::new()).unwrap(),
        );
        engine
            .submit(
                InferenceRequest::new(id, seq)
                    .with_options(RequestOptions::new().priority(priority)),
            )
            .unwrap();
    }
    // Responses are emitted in completion order; with one single-lane
    // worker that is exactly the admission order.
    let responses = engine.drain();
    let order: Vec<u64> = responses.iter().map(|r| r.id).collect();
    assert_eq!(order, vec![3, 2, 4, 1], "High first, FIFO within class");
    for r in &responses {
        assert_bit_identical(
            &format!("priority id={}", r.id),
            &r.outputs,
            &references[&r.id],
        );
    }
}

/// A deliberately slow exact predictor: computing is correct but takes
/// ~`delay` per gate batch, making deadline timing deterministic.
#[derive(Debug)]
struct SleepyPredictor {
    delay: Duration,
    /// Hold points a test stages worker layouts with (`None`: just slow).
    stage: Option<Arc<Stage>>,
}

/// Hold points shared by every evaluator of one [`SleepyPredictor`]:
/// the first gate call made anywhere reports in and blocks until the
/// test releases it, and the first gate call carrying two lanes is
/// reported.  Every gate call is counted by the thread that made it,
/// and the threads that hit the two hold points are recorded.
#[derive(Debug, Default)]
struct Stage {
    first_call: Mutex<Option<(Sender<()>, Receiver<()>)>>,
    two_lanes: Mutex<Option<Sender<()>>>,
    calls: Mutex<HashMap<ThreadId, usize>>,
    held: Mutex<Option<ThreadId>>,
    seated: Mutex<Option<ThreadId>>,
}

struct SleepyEvaluator {
    inner: nfm::rnn::ExactEvaluator,
    delay: Duration,
    stage: Option<Arc<Stage>>,
}

impl NeuronEvaluator for SleepyEvaluator {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        if let Some(stage) = &self.stage {
            let me = thread::current().id();
            *stage.calls.lock().unwrap().entry(me).or_default() += 1;
            if call.lanes == 2 {
                if let Some(seated) = stage.two_lanes.lock().unwrap().take() {
                    *stage.seated.lock().unwrap() = Some(me);
                    seated.send(()).unwrap();
                }
            }
            let hold = stage.first_call.lock().unwrap().take();
            if let Some((started, release)) = hold {
                *stage.held.lock().unwrap() = Some(me);
                started.send(()).unwrap();
                release.recv().unwrap();
            }
        }
        std::thread::sleep(self.delay);
        self.inner.evaluate_gate_batch(call, out)
    }
}

impl ServedEvaluator for SleepyEvaluator {}

impl Predictor for SleepyPredictor {
    fn name(&self) -> &str {
        "sleepy"
    }

    fn build_evaluator(&self, _model: &Model) -> Box<dyn ServedEvaluator> {
        Box::new(SleepyEvaluator {
            inner: nfm::rnn::ExactEvaluator::new(),
            delay: self.delay,
            stage: self.stage.clone(),
        })
    }
}

fn sleepy_engine(net: &DeepRnn) -> nfm::serve::Engine {
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "slow",
            net.clone(),
            SleepyPredictor {
                delay: Duration::from_millis(1),
                stage: None,
            },
        )
        .unwrap();
    EngineBuilder::from_registry(registry)
        .lanes(2)
        .workers(1)
        .queue_capacity(8)
        .build()
        .unwrap()
}

/// Contract 4b: an in-flight request whose deadline expires is aborted
/// *between timesteps* — its lane frees without computing the rest of
/// the sequence, with the consumed compute time reported.
#[test]
fn per_step_deadline_abort_frees_the_lane_mid_sequence() {
    let mut rng = DeterministicRng::seed_from_u64(71);
    // One GRU layer => 3 sleepy gate calls ≈ 3ms per timestep.
    let net = DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 4, 6), &mut rng).unwrap();
    let long = smooth_sequence(60, net.input_size(), 1); // ≈ 180ms of compute
    let short = smooth_sequence(3, net.input_size(), 2);

    let engine = sleepy_engine(&net);
    engine
        .submit(InferenceRequest::new(1, long.clone()).with_deadline(Duration::from_millis(40)))
        .unwrap();
    engine
        .submit(InferenceRequest::new(2, short.clone()))
        .unwrap();
    let responses = engine.drain();
    assert_eq!(responses.len(), 2);
    let aborted = responses.iter().find(|r| r.id == 1).unwrap();
    assert_eq!(aborted.status, CompletionStatus::DeadlineExpired);
    assert!(
        aborted.outputs.is_empty(),
        "dropped mid-flight, not computed"
    );
    assert!(
        aborted.compute_latency > Duration::ZERO,
        "the abort happened on a lane, not in the queue: partial compute is accounted"
    );
    assert!(
        aborted.compute_latency < Duration::from_millis(150),
        "the request did not run to completion (~180ms): {:?}",
        aborted.compute_latency
    );
    let done = responses.iter().find(|r| r.id == 2).unwrap();
    assert_eq!(
        done.status,
        CompletionStatus::Done,
        "the freed lane kept serving"
    );
    assert_eq!(done.outputs.len(), short.len());
}

/// Contract 5a: cross-context lane borrowing.  A hot model may borrow
/// the lanes a cold sibling context leaves idle — but never past the
/// worker-wide fair-share total — and borrowing changes admission only,
/// never results.  With one worker and a paused engine the fill order
/// is the submission order, making the borrow deterministic.
#[test]
fn hot_context_borrows_idle_lanes_from_cold_sibling() {
    let hot = unidirectional_network(91);
    let cold = unidirectional_network(92);
    let theta = 1.0f32;
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "hot",
            hot.clone(),
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta)),
        )
        .unwrap();
    registry
        .register("cold", cold.clone(), PredictorKind::Exact)
        .unwrap();
    let engine = EngineBuilder::from_registry(registry)
        .lanes(2)
        .workers(1)
        .queue_capacity(16)
        .start_paused()
        .build()
        .unwrap();

    // Two hot requests fill the hot context's fair share (= the
    // configured 2 lanes), one cold request occupies the cold context,
    // and the third hot request is only admittable by borrowing a lane
    // the cold context leaves idle: 3 active lanes < 2 lanes × 2
    // contexts.  The remaining hot requests wait on the queue until
    // lanes retire.
    let hot_seqs: Vec<Vec<Vector>> = [12usize, 9, 7, 5, 3]
        .iter()
        .enumerate()
        .map(|(i, &len)| smooth_sequence(len, hot.input_size(), 2100 + i as u64))
        .collect();
    let cold_seq = smooth_sequence(10, cold.input_size(), 2200);
    for (i, seq) in hot_seqs.iter().take(2).enumerate() {
        engine
            .submit(
                InferenceRequest::new(i as u64, seq.clone())
                    .with_options(RequestOptions::for_model("hot")),
            )
            .unwrap();
    }
    engine
        .submit(
            InferenceRequest::new(100, cold_seq.clone())
                .with_options(RequestOptions::for_model("cold")),
        )
        .unwrap();
    for (i, seq) in hot_seqs.iter().enumerate().skip(2) {
        engine
            .submit(
                InferenceRequest::new(i as u64, seq.clone())
                    .with_options(RequestOptions::for_model("hot")),
            )
            .unwrap();
    }
    let responses = engine.drain();
    assert_eq!(
        responses.len(),
        hot_seqs.len() + 1,
        "every request reported"
    );
    assert!(
        engine.lane_borrows() >= 1,
        "the third hot request was admitted on a borrowed lane"
    );
    let mirror = BinaryNetwork::mirror(&hot);
    for (i, seq) in hot_seqs.iter().enumerate() {
        let r = responses.iter().find(|r| r.id == i as u64).unwrap();
        assert_eq!(r.status, CompletionStatus::Done, "hot seq {i}");
        let mut eval = BnnMemoEvaluator::new(mirror.clone(), BnnMemoConfig::with_threshold(theta));
        let reference = hot.run(seq, &mut eval).unwrap();
        assert_bit_identical(
            &format!("borrowed-lane hot seq {i}"),
            &r.outputs,
            &reference,
        );
        assert_eq!(r.stats, *eval.stats(), "hot seq {i}: per-request stats");
    }
    let r = responses.iter().find(|r| r.id == 100).unwrap();
    assert_eq!(r.status, CompletionStatus::Done, "cold request");
    let reference = cold
        .run(&cold_seq, &mut nfm::rnn::ExactEvaluator::new())
        .unwrap();
    assert_bit_identical("cold request", &r.outputs, &reference);

    // A single-context worker has no sibling to borrow from: the same
    // traffic through a one-model engine never exceeds the configured
    // lane count, so the borrow counter stays at zero.
    let engine = EngineBuilder::new(
        hot.clone(),
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta)),
    )
    .lanes(2)
    .workers(1)
    .queue_capacity(16)
    .start_paused()
    .build()
    .unwrap();
    for (i, seq) in hot_seqs.iter().enumerate() {
        engine
            .submit(InferenceRequest::new(i as u64, seq.clone()))
            .unwrap();
    }
    let responses = engine.drain();
    assert_eq!(responses.len(), hot_seqs.len());
    assert!(responses.iter().all(|r| r.status == CompletionStatus::Done));
    assert_eq!(
        engine.lane_borrows(),
        0,
        "a single-context worker never borrows"
    );
}

/// Contract 5b: lanes stay on the worker that seated them.  With one
/// worker parked and the other holding two deadline-bound longs, both
/// longs abort at their deadline on the worker that seated them, and
/// every request is reported exactly once.
///
/// The layout is staged, not raced: a short request is held inside its
/// first gate call while two deadline-bound longs are submitted, so the
/// *other* worker necessarily seats both; only then is the short
/// released.  Its worker retires it and parks while the longs' worker
/// still holds two lanes with most of their steps left, long before the
/// deadline.
#[test]
fn stolen_lanes_still_abort_on_deadline() {
    let mut rng = DeterministicRng::seed_from_u64(73);
    // One GRU layer => 3 sleepy gate calls ≈ 3ms per timestep.
    let net = DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 4, 6), &mut rng).unwrap();
    let short = smooth_sequence(6, net.input_size(), 1);
    // Two longs that cannot possibly meet their 300ms deadline (≥ 480ms
    // each); the short's worker parks some 50ms in.
    let longs = [
        smooth_sequence(160, net.input_size(), 3),
        smooth_sequence(160, net.input_size(), 4),
    ];
    let wait = Duration::from_secs(30);

    let (started_tx, started) = channel();
    let (release, release_rx) = channel();
    let (seated_tx, seated) = channel();
    let stage = Arc::new(Stage {
        first_call: Mutex::new(Some((started_tx, release_rx))),
        two_lanes: Mutex::new(Some(seated_tx)),
        ..Stage::default()
    });
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "slow",
            net.clone(),
            SleepyPredictor {
                delay: Duration::from_millis(1),
                stage: Some(Arc::clone(&stage)),
            },
        )
        .unwrap();
    let engine = EngineBuilder::from_registry(registry)
        .lanes(2)
        .workers(2)
        .queue_capacity(8)
        .build()
        .unwrap();

    engine
        .submit(InferenceRequest::new(0, short.clone()))
        .unwrap();
    started
        .recv_timeout(wait)
        .expect("a worker took the short and is held in its first gate call");
    for (i, seq) in longs.iter().enumerate() {
        engine
            .submit(
                InferenceRequest::new(10 + i as u64, seq.clone())
                    .with_deadline(Duration::from_millis(300)),
            )
            .unwrap();
    }
    seated
        .recv_timeout(wait)
        .expect("the free worker seated both longs");
    release.send(()).unwrap();

    let responses = engine.drain();
    assert_eq!(responses.len(), 3, "exactly once");
    let done = responses.iter().find(|r| r.id == 0).unwrap();
    assert_eq!(done.status, CompletionStatus::Done);
    assert_eq!(done.outputs.len(), short.len());
    for i in 0..longs.len() {
        let r = responses.iter().find(|r| r.id == 10 + i as u64).unwrap();
        assert_eq!(r.status, CompletionStatus::DeadlineExpired, "long {i}");
        assert!(r.outputs.is_empty(), "aborted mid-flight, not computed");
        assert!(
            r.compute_latency > Duration::ZERO,
            "long {i}: the abort happened on a lane"
        );
    }
    assert_eq!(engine.migrations(), 0);

    // The short's worker made exactly the gate calls of the short run
    // alone: it never computed a timestep of either long.
    let held = stage.held.lock().unwrap().expect("the short was held");
    let seated_on = stage.seated.lock().unwrap().expect("the longs were seated");
    assert_ne!(held, seated_on, "the longs were seated on the other worker");
    let solo = Arc::new(Stage::default());
    let mut alone = SleepyEvaluator {
        inner: nfm::rnn::ExactEvaluator::new(),
        delay: Duration::ZERO,
        stage: Some(Arc::clone(&solo)),
    };
    net.run(&short, &mut alone).unwrap();
    let solo_calls = solo.calls.lock().unwrap()[&thread::current().id()];
    assert_eq!(stage.calls.lock().unwrap()[&held], solo_calls);
}
