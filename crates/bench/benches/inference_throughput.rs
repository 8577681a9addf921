//! Inference throughput of the fused gate-evaluation hot path for the
//! exact baseline (against the seed's per-neuron path) and the
//! BNN-memoized predictor, plus the `kernel/*` rungs that locate a
//! change the repo benchmark (`benchmark/run.sh`) measures end to end.
//!
//! Two exact-inference variants are measured:
//!
//! * `inference/exact/*` — the hot path at one lane: one
//!   `evaluate_gate_batch` call per gate over block-hoisted `W_x·x_t`
//!   projections, reused scratch buffers.
//! * `inference/exact_naive/*` — a faithful reproduction of the seed hot
//!   path, written per neuron through `evaluate_neurons`: per-row
//!   dimension checks and the strictly-ordered scalar dot product the
//!   original implementation compiled to, both halves per step (it
//!   ignores the hoisted one).
//!
//! Multi-sequence batched inference is measured separately on
//! 8-sequence workloads: `inference/exact_single/*` and
//! `inference/bnn_memoized_single/*` process the sequences one at a
//! time (`Predictor::run`), `inference/exact_batched/*` and
//! `inference/bnn_memoized_batched/*` run the same sequences as the 8
//! lanes of one `DeepRnn::run_batch` call (plus block-hoisted `W_x·x_t`
//! projections on the exact path).  Every iteration of these rungs
//! builds its evaluator from the policy over the workload's `Model`,
//! whose mirror exists before timing starts; no engine is built.  Each
//! exact entry is measured interleaved with its memoized twin, so
//! `exact_batched → bnn_memoized_batched` is the committed
//! exact-vs-memoized comparison.

use nfm_bench::Bencher;
use nfm_bnn::{BinaryGate, BinaryNetwork};
use nfm_control::{AdaptivePredictor, ControllerConfig};
use nfm_core::{BnnMemoConfig, BnnMemoEvaluator};
use nfm_rnn::{
    evaluate_neurons, DeepRnn, ExactEvaluator, GateBatch, NeuronEvaluator, Result as RnnResult,
    RnnError,
};
use nfm_serve::{
    CanaryConfig, EngineBuilder, InferenceRequest, InferenceResponse, ModelRegistry, Predictor,
    PredictorKind, RequestOptions, SwapOutcome,
};
use nfm_tensor::activation::Activation;
use nfm_tensor::backend::KernelBackend;
use nfm_tensor::kernels::team::KernelTeam;
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::{kernels, Matrix, Vector};
use nfm_workloads::{InputDomain, NetworkId, SequenceGenerator, Workload, WorkloadBuilder};
use std::hint::black_box;
use std::sync::Arc;

/// Seed-faithful naive evaluator: one call per neuron, dimension
/// checks re-run per row, and a strictly-ordered scalar reduction (the
/// loop shape the seed's `iter().zip().map().sum()` dot compiled to —
/// sequential adds cannot be vectorized).
#[derive(Default)]
struct NaiveExactEvaluator;

/// The two-branch libm sigmoid the rational one replaced: the baseline
/// of the `kernel/activate_sigmoid_1k` rungs.
fn libm_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

fn scalar_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

impl NeuronEvaluator for NaiveExactEvaluator {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        let gate = call.gate;
        evaluate_neurons(call, out, |id, x, h_prev, _| {
            if x.len() != gate.input_size() {
                return Err(RnnError::InputSizeMismatch {
                    expected: gate.input_size(),
                    found: x.len(),
                    timestep: id.timestep,
                });
            }
            if h_prev.len() != gate.hidden_size() {
                return Err(RnnError::InputSizeMismatch {
                    expected: gate.hidden_size(),
                    found: h_prev.len(),
                    timestep: id.timestep,
                });
            }
            Ok(scalar_dot(gate.wx().row(id.neuron), x)
                + scalar_dot(gate.wh().row(id.neuron), h_prev))
        })
    }
}

/// `values` copied into a fresh buffer so that they start `past_line`
/// bytes (a multiple of 4) after a 64-byte boundary: the buffer and the
/// index of the first value in it.
fn place(values: &[f32], past_line: usize) -> (Vec<f32>, usize) {
    let mut buf = vec![0.0f32; values.len() + 32];
    let skew = buf.as_ptr() as usize % 64 / 4;
    let at = (16 - skew) % 16 + past_line / 4;
    buf[at..at + values.len()].copy_from_slice(values);
    (buf, at)
}

/// Reads every value of a product's output on the calling thread, as
/// the cell that activates it does: an XOR of the bit patterns, which
/// vectorises, so the read costs little beside the product.
fn read_back(out: &[f32]) -> u32 {
    out.iter().fold(0, |acc, v| acc ^ v.to_bits())
}

fn workload(id: NetworkId, scale: f32, sequences: usize, len: usize) -> Workload {
    WorkloadBuilder::new(id)
        .scale(scale)
        .sequences(sequences)
        .sequence_length(len)
        .seed(5)
        .build()
        .expect("workload builds")
}

/// Wave-boundary refill over ragged traffic: waves of `lanes`
/// sequences through `run_batch` (a scheduler that is never refilled),
/// freed lanes idle until the wave ends.  The evaluator is
/// caller-owned and reused across iterations (each wave starts its
/// lanes cold via `begin_lane_sequence`, so iterations are identical).
fn wave_refill(
    net: &DeepRnn,
    seqs: &[Vec<Vector>],
    lanes: usize,
    evaluator: &mut dyn NeuronEvaluator,
) -> usize {
    let mut total = 0;
    for wave in seqs.chunks(lanes) {
        let refs: Vec<&[Vector]> = wave.iter().map(|s| s.as_slice()).collect();
        total += net.run_batch(&refs, evaluator).expect("runs").len();
    }
    total
}

/// Mid-wave refill over the same traffic through a caller-owned,
/// long-lived engine (the serving regime), so the timed work is the
/// scheduler, not engine construction — symmetric with `wave_refill`'s
/// reused evaluator.  Each iteration still clones the sequences into
/// requests: request payload ownership is inherent to the API.
fn midwave_refill(engine: &nfm_serve::Engine, seqs: &[Vec<Vector>]) -> Vec<InferenceResponse> {
    for (i, s) in seqs.iter().enumerate() {
        engine
            .submit(InferenceRequest::new(i as u64, s.clone()))
            .expect("submit");
    }
    engine.drain()
}

fn run_all(workload: &Workload, evaluator: &mut dyn NeuronEvaluator) -> usize {
    let mut total = 0;
    for seq in workload.sequences() {
        total += workload
            .network()
            .run(black_box(seq), evaluator)
            .expect("inference runs")
            .len();
    }
    total
}

fn main() {
    let (mut bench, save) = Bencher::from_args();

    // small: a quarter-scale IMDB LSTM; medium: the full Table 1 IMDB
    // topology (128 neurons, 64 features).
    let sizes = [
        ("small", workload(NetworkId::ImdbSentiment, 0.25, 2, 32)),
        ("medium", workload(NetworkId::ImdbSentiment, 1.0, 2, 48)),
    ];

    // Multi-sequence batched inference: 8 sequences through
    // serving-scale networks (half- and full-scale IMDB), evaluated
    // per-sequence (`*_single`) vs lane-striped with BATCH lanes per
    // gate invocation (`*_batched`).  Both sides build one evaluator
    // from the policy per iteration, so the comparison isolates the
    // batching itself; the exact path's lanes additionally share the
    // block-hoisted `W_x·x_t` projections.  This section runs first, on
    // the heap a serving process starts with.
    const BATCH: usize = 8;
    let batch_sizes = [
        ("small", workload(NetworkId::ImdbSentiment, 0.5, BATCH, 32)),
        ("medium", workload(NetworkId::ImdbSentiment, 1.0, BATCH, 48)),
    ];
    for (size, w) in &batch_sizes {
        // Exact vs memoized on the same workload, interleaved: the pair
        // ROADMAP item 2 is judged on.
        let memo = PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5));
        memo.prepare(w.model());
        let single = |predictor: PredictorKind| {
            let outcome = predictor.run(w.model(), w.sequences()).expect("runs");
            black_box(outcome.outputs.len())
        };
        bench.bench_pair(
            &format!("inference/exact_single/{size}"),
            || single(PredictorKind::Exact),
            &format!("inference/bnn_memoized_single/{size}"),
            || single(memo),
        );
        let lanes: Vec<&[Vector]> = w.sequences().iter().map(Vec::as_slice).collect();
        let batched = |predictor: PredictorKind| {
            let mut evaluator = predictor.build_evaluator(w.model());
            let outputs = w.network().run_batch(&lanes, evaluator.as_mut());
            black_box(outputs.expect("runs").len())
        };
        bench.bench_pair(
            &format!("inference/exact_batched/{size}"),
            || batched(PredictorKind::Exact),
            &format!("inference/bnn_memoized_batched/{size}"),
            || batched(memo),
        );
    }

    // The bidirectional path, which the repo benchmark has no workload
    // for: EESEN's shape (10 x 320 bidirectional LSTM) at 8 ragged lanes
    // through `run_batch` — every step spans the seated sequences
    // whole, forward and backward pass per layer — exact against BNN
    // memoization, interleaved.  Evaluators are caller-owned and reused
    // (each call starts its lanes cold).
    {
        let eesen = workload(NetworkId::Eesen, 1.0, BATCH, 24);
        let seqs: Vec<&[Vector]> = eesen
            .sequences()
            .iter()
            .zip([24usize, 8, 17, 9, 24, 1, 12, 20])
            .map(|(s, len)| &s[..len])
            .collect();
        let net = eesen.network();
        let mut exact = ExactEvaluator::new();
        let mut memo = BnnMemoEvaluator::new(
            BinaryNetwork::mirror(net),
            BnnMemoConfig::with_threshold(0.5),
        );
        bench.bench_pair(
            "inference/bidirectional_batched/exact",
            || black_box(net.run_batch(&seqs, &mut exact).expect("runs").len()),
            "inference/bidirectional_batched/bnn",
            || black_box(net.run_batch(&seqs, &mut memo).expect("runs").len()),
        );
    }

    // Adaptive thresholds vs the static θ they start from, on a
    // drifting-regime workload (the input distribution wanders — the
    // traffic the controller exists for).  Both sides run the same
    // sequences through the same half-scale IMDB network; the adaptive
    // side additionally pays deterministic audit sampling (one in
    // eight memoization hits recomputed exactly) and block-boundary θ
    // updates on top of the BnnMemoEvaluator, so the pair prices the
    // controller machinery on the inference hot path.  Controller
    // state persists across iterations: after the first iterations
    // converge θ, the median measures the steady-state regime.
    {
        let base = workload(NetworkId::ImdbSentiment, 0.5, 1, 8);
        let model = base.model();
        let net = model.network();
        let drift =
            SequenceGenerator::new(InputDomain::drifting(), net.input_size(), 11).sequences(8, 48);
        let theta = 0.5;
        let mut static_eval = BnnMemoEvaluator::new(
            Arc::clone(model.mirror()),
            BnnMemoConfig::with_threshold(theta),
        );
        let control = ControllerConfig::new(0.05)
            .audit_period(8)
            .initial_theta(theta)
            .seed(11);
        let predictor = AdaptivePredictor::new(control);
        let mut adaptive_eval = predictor.evaluator(model);
        fn run_drift(
            net: &DeepRnn,
            seqs: &[Vec<Vector>],
            evaluator: &mut dyn NeuronEvaluator,
        ) -> usize {
            let mut total = 0;
            for seq in seqs {
                total += net.run(black_box(seq), evaluator).expect("drift run").len();
            }
            total
        }
        bench.bench_pair(
            "inference/adaptive_vs_static/static",
            || black_box(run_drift(net, &drift, &mut static_eval)),
            "inference/adaptive_vs_static/adaptive",
            || black_box(run_drift(net, &drift, &mut adaptive_eval)),
        );
    }

    // The serving engine under ragged traffic: the same sequences
    // drained in whole waves through `run_batch` vs refilled mid-wave
    // through the engine — the same stack driver under both, so the
    // pair isolates refill + engine from driver order.  Long and short requests interleave, so every wave thins out to a
    // sliver of active lanes near its end — exactly the utilization gap
    // mid-wave refill closes.  Construction is symmetric and hoisted
    // out of the timed closures: the wave side reuses one evaluator,
    // the engine side one long-lived engine (worker thread + evaluator
    // already running), so the pair measures the schedulers.  Each
    // engine iteration still clones the sequences into requests —
    // payload ownership is inherent to the request API.
    const ENGINE_LANES: usize = 8;
    let ragged_base = workload(NetworkId::ImdbSentiment, 0.5, 24, 48);
    let ragged: Vec<Vec<Vector>> = ragged_base
        .sequences()
        .iter()
        .enumerate()
        .map(|(i, s)| s[..[48usize, 8, 32, 6, 48, 12, 20, 9][i % 8]].to_vec())
        .collect();
    let ragged_net = ragged_base.network();
    for (pred_name, predictor) in [
        ("exact", PredictorKind::Exact),
        (
            "bnn",
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
        ),
    ] {
        let mut wave_eval = predictor.build_evaluator(ragged_base.model());
        let engine = EngineBuilder::new(ragged_net.clone(), predictor)
            .lanes(ENGINE_LANES)
            .workers(1)
            .queue_capacity(ragged.len())
            .build()
            .expect("engine builds");
        bench.bench_pair(
            &format!("inference/engine_wave_refill/{pred_name}"),
            || {
                black_box(wave_refill(
                    ragged_net,
                    &ragged,
                    ENGINE_LANES,
                    wave_eval.as_mut(),
                ))
            },
            &format!("inference/engine_midwave_refill/{pred_name}"),
            || black_box(midwave_refill(&engine, &ragged).len()),
        );
    }

    // Two models, one engine: the multi-model registry serving the
    // same ragged BNN traffic as `engine_midwave_refill/bnn` *plus* an
    // interleaved exact quarter-scale model from the same queue — the
    // serving shape the registry redesign enables.  One long-lived
    // engine, construction outside the timed closure.
    let second_base = workload(NetworkId::ImdbSentiment, 0.25, 24, 48);
    let second_ragged: Vec<Vec<Vector>> = second_base
        .sequences()
        .iter()
        .enumerate()
        .map(|(i, s)| s[..[48usize, 8, 32, 6, 48, 12, 20, 9][i % 8]].to_vec())
        .collect();
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "imdb-half",
            ragged_net.clone(),
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
        )
        .expect("fresh registry");
    registry
        .register(
            "imdb-quarter",
            second_base.network().clone(),
            PredictorKind::Exact,
        )
        .expect("fresh id");
    let two_model_engine = EngineBuilder::from_registry(registry)
        .lanes(ENGINE_LANES)
        .workers(1)
        .queue_capacity(ragged.len() + second_ragged.len())
        .build()
        .expect("engine builds");
    bench.bench("inference/engine_two_model/mixed", || {
        for (i, s) in ragged.iter().enumerate() {
            two_model_engine
                .submit(
                    InferenceRequest::new(i as u64, s.clone())
                        .with_options(RequestOptions::for_model("imdb-half")),
                )
                .expect("submit");
            two_model_engine
                .submit(
                    InferenceRequest::new(1000 + i as u64, second_ragged[i].clone())
                        .with_options(RequestOptions::for_model("imdb-quarter")),
                )
                .expect("submit");
        }
        black_box(two_model_engine.drain().len())
    });

    // Skewed traffic: a hot/cold model blend under a Poisson-ish
    // arrival mix with heavy-tailed ragged lengths — the serving shape
    // where fixed per-model lane allocations waste the most capacity.
    // The schedule is drawn once from the deterministic xoshiro RNG (a
    // Poisson arrival stream thinned per model is itself Poisson, so
    // at submission granularity the blend is an i.i.d. Bernoulli mix):
    // ~3/4 of requests hit the hot half-scale DeepSpeech2 model (5 GRU
    // layers whose per-layer weights exceed L2, so every step-sweep
    // re-streams them from L3 and thin waves waste real bandwidth),
    // the rest the cold half-scale IMDB BNN model.  Lengths are
    // bimodal — ~80% short interactive requests (5-10 steps), ~20%
    // long stragglers (48-63 steps), the canonical heavy-tailed
    // service-time mix — so nearly every wave ends with a straggler
    // holding a sliver of lanes.  The wave reference gives each model
    // its own fixed ENGINE_LANES-lane waves (no refill, no borrowing
    // across models); the engine serves both
    // models from one worker whose block schedulers let the hot
    // context borrow the cold context's idle lanes while mid-wave
    // refill backfills around the stragglers.  This pair is the PR
    // acceptance measurement: `engine_midwave_refill_skewed` must hold
    // ≥ 1.1x over `engine_wave_refill_skewed`, interleaved so host
    // drift cancels.
    const SKEWED_REQUESTS: usize = 64;
    let hot_pool = workload(NetworkId::DeepSpeech2, 0.5, SKEWED_REQUESTS, 64);
    let cold_pool = workload(NetworkId::ImdbSentiment, 0.5, SKEWED_REQUESTS, 64);
    let mut traffic_rng = DeterministicRng::seed_from_u64(42);
    let skewed: Vec<(bool, Vec<Vector>)> = (0..SKEWED_REQUESTS)
        .map(|i| {
            let hot = traffic_rng.uniform(0.0, 1.0) < 0.75;
            let long = traffic_rng.uniform(0.0, 1.0) < 0.2;
            let u: f32 = traffic_rng.uniform(0.0, 1.0);
            let len = if long {
                48 + (u * 15.0) as usize
            } else {
                5 + (u * 6.0) as usize
            };
            let pool = if hot { &hot_pool } else { &cold_pool };
            (hot, pool.sequences()[i][..len].to_vec())
        })
        .collect();
    let hot_seqs: Vec<Vec<Vector>> = skewed
        .iter()
        .filter(|(hot, _)| *hot)
        .map(|(_, s)| s.clone())
        .collect();
    let cold_seqs: Vec<Vec<Vector>> = skewed
        .iter()
        .filter(|(hot, _)| !*hot)
        .map(|(_, s)| s.clone())
        .collect();
    assert!(
        !hot_seqs.is_empty() && !cold_seqs.is_empty(),
        "skewed schedule must exercise both models"
    );
    let mut hot_eval = ExactEvaluator::new();
    let mut cold_eval = BnnMemoEvaluator::new(
        BinaryNetwork::mirror(cold_pool.network()),
        BnnMemoConfig::with_threshold(0.5),
    );
    let mut skew_registry = ModelRegistry::new();
    skew_registry
        .register("ds2-hot", hot_pool.network().clone(), PredictorKind::Exact)
        .expect("fresh registry");
    skew_registry
        .register(
            "imdb-cold",
            cold_pool.network().clone(),
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
        )
        .expect("fresh id");
    let skewed_engine = EngineBuilder::from_registry(skew_registry)
        .lanes(ENGINE_LANES)
        .workers(1)
        .queue_capacity(SKEWED_REQUESTS)
        .build()
        .expect("engine builds");
    let submit_skewed = |engine: &nfm_serve::Engine| -> Vec<InferenceResponse> {
        for (i, (hot, s)) in skewed.iter().enumerate() {
            engine
                .submit(InferenceRequest::new(i as u64, s.clone()).with_options(
                    RequestOptions::for_model(if *hot { "ds2-hot" } else { "imdb-cold" }),
                ))
                .expect("submit");
        }
        engine.drain()
    };
    bench.bench_pair(
        "inference/engine_wave_refill_skewed/mixed",
        || {
            black_box(
                wave_refill(hot_pool.network(), &hot_seqs, ENGINE_LANES, &mut hot_eval)
                    + wave_refill(
                        cold_pool.network(),
                        &cold_seqs,
                        ENGINE_LANES,
                        &mut cold_eval,
                    ),
            )
        },
        "inference/engine_midwave_refill_skewed/mixed",
        || black_box(submit_skewed(&skewed_engine).len()),
    );

    for (size, w) in &sizes {
        bench.bench(&format!("inference/exact/{size}"), || {
            let mut evaluator = ExactEvaluator::new();
            run_all(w, &mut evaluator)
        });
        bench.bench(&format!("inference/exact_naive/{size}"), || {
            let mut evaluator = NaiveExactEvaluator;
            run_all(w, &mut evaluator)
        });

        let mirror = BinaryNetwork::mirror(w.network());
        let mut memo = BnnMemoEvaluator::new(mirror, BnnMemoConfig::with_threshold(0.5));
        bench.bench(&format!("inference/bnn_memoized/{size}"), || {
            run_all(w, &mut memo)
        });
    }

    // Per-backend kernel throughput: the same hot kernels measured once
    // per dispatch tier the host supports, at gate scale (medium IMDB:
    // 128 neurons, 64 inputs, 128 hidden, 8 serving lanes).  Every tier
    // computes bit-identical results (tests/backend_kernels.rs), so
    // these entries isolate pure ISA throughput; `kernel/*/scalar` is
    // the portable-codegen reference the SIMD tiers are judged against.
    // Runs last so the allocation-heavy benches above see the same heap
    // they always did.
    let kernel_pairs = {
        let mut rng = DeterministicRng::seed_from_u64(77);
        let (rows, xc, hc, lanes) = (128usize, 64usize, 128usize, 8usize);
        let wx = Matrix::from_fn(rows, xc, |_, _| rng.uniform(-1.0, 1.0));
        let wh = Matrix::from_fn(rows, hc, |_, _| rng.uniform(-1.0, 1.0));
        let x: Vec<f32> = (0..xc).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let h: Vec<f32> = (0..hc).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let xs: Vec<f32> = (0..lanes * xc).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let hs: Vec<f32> = (0..lanes * hc).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let da: Vec<f32> = (0..1024).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let db: Vec<f32> = (0..1024).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let act_in: Vec<f32> = (0..1024).map(|_| rng.uniform(-6.0, 6.0)).collect();
        let mut single_out = vec![0.0f32; rows];
        let mut batch_out = vec![0.0f32; lanes * rows];
        let mut pairs: Vec<(String, String)> = Vec::new();
        for backend in KernelBackend::supported() {
            bench.bench(&format!("kernel/dot_1024/{backend}"), || {
                black_box(kernels::dot_unchecked_on(
                    backend,
                    black_box(&da),
                    black_box(&db),
                ))
            });
            bench.bench(&format!("kernel/matvec/{backend}"), || {
                kernels::matmul_into_on(backend, black_box(&wx), black_box(&x), 1, &mut single_out)
                    .unwrap();
                black_box(single_out[0])
            });
            bench.bench(&format!("kernel/dual_matvec/{backend}"), || {
                kernels::dual_matmul_into_on(
                    backend,
                    black_box(&wx),
                    black_box(&wh),
                    black_box(&x),
                    black_box(&h),
                    1,
                    &mut single_out,
                )
                .unwrap();
                black_box(single_out[0])
            });
            bench.bench(&format!("kernel/dual_matmul_8l/{backend}"), || {
                kernels::dual_matmul_into_on(
                    backend,
                    black_box(&wx),
                    black_box(&wh),
                    black_box(&xs),
                    black_box(&hs),
                    lanes,
                    &mut batch_out,
                )
                .unwrap();
                black_box(batch_out[0])
            });
            // The gate's last step: the rational activation over 1024
            // pre-activations in gate range, interleaved with the libm
            // forms it replaced (which now live only here).
            for (name, activation, libm) in [
                (
                    "sigmoid",
                    Activation::Sigmoid,
                    libm_sigmoid as fn(f32) -> f32,
                ),
                ("tanh", Activation::Tanh, f32::tanh as fn(f32) -> f32),
            ] {
                let libm_id = format!("kernel/activate_{name}_1k_libm/{backend}");
                let id = format!("kernel/activate_{name}_1k/{backend}");
                let mut buf = act_in.clone();
                let mut libm_buf = act_in.clone();
                bench.bench_pair(
                    &libm_id,
                    || {
                        libm_buf.copy_from_slice(black_box(&act_in));
                        for v in libm_buf.iter_mut() {
                            *v = libm(*v);
                        }
                        black_box(libm_buf[0])
                    },
                    &id,
                    || {
                        buf.copy_from_slice(black_box(&act_in));
                        kernels::activate_into_on(backend, activation, &mut buf);
                        black_box(buf[0])
                    },
                );
                pairs.push((libm_id, id));
            }
            if backend != KernelBackend::Scalar {
                for kernel in ["dot_1024", "matvec", "dual_matvec", "dual_matmul_8l"] {
                    pairs.push((
                        format!("kernel/{kernel}/scalar"),
                        format!("kernel/{kernel}/{backend}"),
                    ));
                }
            }
        }
        // The packed BNN predictor at the `bnn_memoized_batched` shape
        // (medium IMDB gate), per kernel tier.  `streamed` is the
        // kernel the evaluators run, one dispatched call per gate over
        // inputs already packed, at 8 lanes and at the one lane
        // `serve_open` and `nfm-eval energy` run.  `sign_pack_8l` is
        // that packing (`BinaryGate::pack_inputs` on an explicit tier),
        // `mirror_build_medium` the same sign-pack building the gate's
        // block.
        let fp_gate = nfm_rnn::Gate::random(
            rows,
            xc,
            hc,
            nfm_tensor::activation::Activation::Sigmoid,
            true,
            &mut rng,
        )
        .expect("gate builds");
        let bnn_gate = BinaryGate::mirror(&fp_gate);
        let mut packed = nfm_tensor::LineBuf::default();
        bnn_gate.pack_inputs(&xs, &hs, lanes, &mut packed);
        let (words, xw) = (bnn_gate.row_words(), xc.div_ceil(64));
        let mut yb = vec![0i32; lanes * rows];
        for backend in KernelBackend::supported() {
            bench.bench(&format!("kernel/bnn_gate_8l_streamed/{backend}"), || {
                bnn_gate.predict_packed_on(backend, black_box(&packed), &mut yb);
                black_box(yb[0])
            });
            bench.bench(&format!("kernel/bnn_gate_1l_streamed/{backend}"), || {
                bnn_gate.predict_packed_on(backend, black_box(&packed[..words]), &mut yb[..rows]);
                black_box(yb[0])
            });
            bench.bench(&format!("kernel/sign_pack_8l/{backend}"), || {
                for (l, lane) in packed.chunks_exact_mut(words).enumerate() {
                    let (x, h) = (&xs[l * xc..][..xc], &hs[l * hc..][..hc]);
                    nfm_bnn::popcount::pack_signs_on(backend, black_box(x), &mut lane[..xw]);
                    nfm_bnn::popcount::pack_signs_on(backend, black_box(h), &mut lane[xw..]);
                }
                black_box(packed[0])
            });
            bench.bench(&format!("kernel/mirror_build_medium/{backend}"), || {
                black_box(BinaryGate::mirror_on(backend, black_box(&fp_gate)))
            });
            if backend != KernelBackend::Scalar {
                for kernel in [
                    "bnn_gate_8l_streamed",
                    "bnn_gate_1l_streamed",
                    "sign_pack_8l",
                    "mirror_build_medium",
                ] {
                    pairs.push((
                        format!("kernel/{kernel}/scalar"),
                        format!("kernel/{kernel}/{backend}"),
                    ));
                }
            }
        }

        // The two kernels the exact path runs (`batch_exact` spends ~90%
        // of its time in them): the block hoist `W_x` × 8 steps × 8
        // lanes and the per-step recurrent half, at the medium gate
        // above and at the DeepSpeech2-0.5 gate (`_ds2`: 400 × 400,
        // fifteen matrices — five layers of z / r / candidate — walked
        // round-robin, 9.6 MB, so the 2 MB L2 cannot hide the weight
        // stream).  The activation operand starts on a 64-byte line;
        // `_off16` starts it 16 bytes past one, which is what a
        // `Vec<f32>` from `malloc` gives the scheduler's block buffers
        // three times in four (ROADMAP 3(b)).
        const HOIST: usize = 64;
        let ds2: Vec<Matrix> = (0..15)
            .map(|_| Matrix::from_fn(400, 400, |_, _| rng.uniform(-1.0, 1.0)))
            .collect();
        let gates: [(&str, &[Matrix], &[Matrix]); 2] = [
            ("", std::slice::from_ref(&wx), std::slice::from_ref(&wh)),
            ("_ds2", &ds2, &ds2),
        ];
        for backend in KernelBackend::supported() {
            for (gate, hoisted, recurrent) in gates {
                let (rows, xc, hc) = (hoisted[0].rows(), hoisted[0].cols(), recurrent[0].cols());
                let block: Vec<f32> = (0..HOIST * xc).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let state: Vec<f32> = (0..lanes * hc).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let base: Vec<f32> = (0..lanes * rows).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let mut hoist_out = vec![0.0f32; HOIST * rows];
                let mut step_out = vec![0.0f32; lanes * rows];
                for kernel in ["hoist_matmul_64l", "matmul_add_8l"] {
                    let id = format!("kernel/{kernel}{gate}/{backend}");
                    if backend != KernelBackend::Scalar {
                        pairs.push((format!("kernel/{kernel}{gate}/scalar"), id.clone()));
                    }
                    pairs.push((id.clone(), format!("kernel/{kernel}{gate}_off16/{backend}")));
                    if !gate.is_empty() {
                        pairs.push((id, format!("kernel/{kernel}{gate}_team/{backend}")));
                    }
                }
                // `_team` runs the aligned `_ds2` products on a kernel
                // team of two, what one engine worker gets on a 2-CPU
                // host: each thread streams half of the rows of every
                // product of at least `team::SPLIT_MIN_WORK`
                // multiply-adds.  The medium gate's products are below
                // that and would run serially, so they have no team rung.
                // Every placement writes its lane input on this thread
                // before the product, as the scheduler packs a block and
                // `Cell::run_block` writes `h`, and reads the whole output
                // back after it, as the cell does: a split pays for
                // moving both between cores, as it does in the engine.
                for (placement, past_line, team) in [("", 0, 1), ("_off16", 16, 1), ("_team", 0, 2)]
                {
                    if team > 1 && gate.is_empty() {
                        continue;
                    }
                    let _team = (team > 1).then(|| KernelTeam::install(team));
                    let hoist_id = format!("kernel/hoist_matmul_64l{gate}{placement}/{backend}");
                    let step_id = format!("kernel/matmul_add_8l{gate}{placement}/{backend}");
                    let (mut buf, at) = place(&block, past_line);
                    let mut turn = 0;
                    bench.bench(&hoist_id, || {
                        turn = (turn + 1) % hoisted.len();
                        let input = &mut buf[at..at + block.len()];
                        input.copy_from_slice(black_box(&block));
                        kernels::matmul_into_on(
                            backend,
                            black_box(&hoisted[turn]),
                            black_box(input),
                            HOIST,
                            &mut hoist_out,
                        )
                        .unwrap();
                        black_box(read_back(&hoist_out))
                    });
                    let (mut buf, at) = place(&state, past_line);
                    let mut turn = 0;
                    bench.bench(&step_id, || {
                        turn = (turn + 1) % recurrent.len();
                        let input = &mut buf[at..at + state.len()];
                        input.copy_from_slice(black_box(&state));
                        kernels::matmul_add_into_on(
                            backend,
                            black_box(&recurrent[turn]),
                            black_box(input),
                            lanes,
                            black_box(&base),
                            &mut step_out,
                        )
                        .unwrap();
                        black_box(read_back(&step_out))
                    });
                }
            }
        }
        pairs
    };

    // Hot-swap cost: a full stage → canary (every request, paired with
    // an incumbent shadow) → promote cycle of an identical-weights
    // artifact, against the same 8-request traffic on a quiet engine.
    // The gap prices the canary double-execution plus the registry
    // locking — the steady-state overhead a live swap imposes.
    {
        let w = workload(NetworkId::ImdbSentiment, 0.25, 8, 24);
        let artifact = nfm_model::save_to_vec(w.network(), None).expect("artifact serializes");
        let mut registry = ModelRegistry::new();
        registry
            .register("kws", w.network().clone(), PredictorKind::Exact)
            .expect("register");
        let engine = EngineBuilder::from_registry(registry)
            .lanes(ENGINE_LANES)
            .workers(1)
            .queue_capacity(64)
            .build()
            .expect("engine builds");
        let submit_pool = |engine: &nfm_serve::Engine| {
            for (i, seq) in w.sequences().iter().enumerate() {
                engine
                    .submit(InferenceRequest::new(i as u64, seq.clone()))
                    .expect("submit");
            }
            engine.drain().len()
        };
        bench.bench_pair(
            "inference/model_swap/baseline",
            || black_box(submit_pool(&engine)),
            "inference/model_swap/stage_promote",
            || {
                let next = nfm_model::load_from_slice(&artifact).expect("artifact loads");
                engine
                    .swap_model(
                        "kws",
                        next,
                        [PredictorKind::Exact],
                        CanaryConfig::fraction(1.0).min_requests(4),
                    )
                    .expect("stage");
                let served = submit_pool(&engine);
                let reports = engine.swap_reports();
                assert_eq!(reports.len(), 1, "swap must decide within the pool");
                assert_eq!(reports[0].outcome, SwapOutcome::Promoted);
                black_box(served)
            },
        );
        engine.shutdown();
    }

    // Pin how this snapshot was measured: the dispatch tier the
    // inference/* entries (f32 and BNN kernels alike) ran on.
    bench.set_meta("kernel_backend", nfm_tensor::backend::active().name());

    let static_speedups: Vec<(&str, &str)> = vec![
        ("inference/exact_naive/small", "inference/exact/small"),
        ("inference/exact_naive/medium", "inference/exact/medium"),
        (
            "inference/exact_batched/small",
            "inference/bnn_memoized_batched/small",
        ),
        (
            "inference/exact_batched/medium",
            "inference/bnn_memoized_batched/medium",
        ),
        (
            "inference/exact_single/small",
            "inference/exact_batched/small",
        ),
        (
            "inference/exact_single/medium",
            "inference/exact_batched/medium",
        ),
        (
            "inference/bnn_memoized_single/small",
            "inference/bnn_memoized_batched/small",
        ),
        (
            "inference/bnn_memoized_single/medium",
            "inference/bnn_memoized_batched/medium",
        ),
        (
            "inference/bidirectional_batched/exact",
            "inference/bidirectional_batched/bnn",
        ),
        (
            "inference/engine_wave_refill/exact",
            "inference/engine_midwave_refill/exact",
        ),
        (
            "inference/engine_wave_refill/bnn",
            "inference/engine_midwave_refill/bnn",
        ),
        (
            "inference/engine_wave_refill_skewed/mixed",
            "inference/engine_midwave_refill_skewed/mixed",
        ),
        (
            "inference/adaptive_vs_static/static",
            "inference/adaptive_vs_static/adaptive",
        ),
        (
            "inference/model_swap/baseline",
            "inference/model_swap/stage_promote",
        ),
    ];
    let speedups: Vec<(&str, &str)> = static_speedups
        .into_iter()
        .chain(
            kernel_pairs
                .iter()
                .map(|(base, cand)| (base.as_str(), cand.as_str())),
        )
        .collect();
    println!();
    for (base, cand) in &speedups {
        bench.report_speedup(base, cand);
    }
    if let Some(path) = save {
        bench.save_json(&path, &speedups).expect("snapshot written");
    }
}
