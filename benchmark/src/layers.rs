//! The outside-in layer ladder of a traced run: a fixed sample of the
//! workload's inputs replayed through each layer's public functions, each
//! call timed from here.  Counts are read at the same boundaries and
//! repeat exactly for a seed.

use crate::gen::{run_closed, Rng, Stop};
use crate::model::{DirectRunTimes, Entry, Model, LANES};
use crate::program::{build_engine, engine_request, serve, wire_request};
use crate::stats::{median, percentile, sort};
use crate::trace::{Span, Trace};
use crate::wire::TracedClient;
use nfm_bnn::BinaryNetwork;
use nfm_core::MemoTable;
use nfm_net::{FrameAssembler, ServerFrame, WireRequest, WireResponse, DEFAULT_MAX_FRAME_BYTES};
use nfm_rnn::{Gate, GateId};
use nfm_serve::InferenceResponse;
use nfm_tensor::kernels::{dual_matmul_into, dual_matvec_into, matmul_into};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Timesteps the input-projection hoist covers per block.
const HOIST_STEPS: usize = 8;
/// One-at-a-time round trips of the `net.*` rung: entries are taken in
/// order until either limit is reached.
const RTT_MAX_REQUESTS: usize = 64;
const RTT_MAX_STEPS: usize = 1024;

/// Median ns per call of `f`, over `REPS` batches sized to about 30 ms.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const REPS: usize = 5;
    let started = Instant::now();
    f();
    let once = started.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.03 / once) as usize).clamp(3, 200_000);
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut samples)
}

fn filled(len: usize, rng: &mut Rng) -> Vec<f32> {
    (0..len)
        .map(|_| (rng.next_unit() * 2.0 - 1.0) as f32)
        .collect()
}

/// The last gate of the stack: its shape (hidden x hidden recurrent
/// input) is the one most of the network's weights have.
fn main_gate(model: &Model) -> (GateId, &Gate) {
    *model
        .network
        .gates()
        .last()
        .expect("a network has at least one gate")
}

fn span(trace: &mut Trace, name: &'static str, layer: &'static str, start_ns: u64) {
    let end_ns = trace.now_ns();
    trace.measured(name, layer, start_ns, end_ns, None);
}

/// Median ns of one `dual_matmul_into` call over `gate` at [`LANES`].
fn dual_matmul_ns(gate: &Gate, rng: &mut Rng) -> Result<f64, String> {
    let (wx, wh) = (gate.wx(), gate.wh());
    let xs = filled(LANES * wx.cols(), rng);
    let hs = filled(LANES * wh.cols(), rng);
    let mut out = vec![0.0f32; LANES * wx.rows()];
    dual_matmul_into(wx, wh, &xs, &hs, LANES, &mut out)
        .map_err(|e| format!("dual_matmul_into: {e}"))?;
    Ok(ns_per_call(|| {
        dual_matmul_into(wx, wh, black_box(&xs), black_box(&hs), LANES, &mut out)
            .expect("shapes were checked above");
        black_box(&mut out);
    }))
}

/// Dual-matmul ns per lane-step summed over every gate of `model`, one
/// measurement per distinct gate shape: the kernel time a direct run of
/// one timestep of one lane cannot go below.
fn kernel_ns_per_lane_step(model: &Model, trace: &mut Trace) -> Result<f64, String> {
    let start = trace.now_ns();
    let mut rng = Rng::new(0x7E45);
    let mut by_shape: BTreeMap<(usize, usize, usize), f64> = BTreeMap::new();
    let mut per_step_ns = 0.0;
    for (_, gate) in model.network.gates() {
        let shape = (gate.wx().rows(), gate.wx().cols(), gate.wh().cols());
        per_step_ns += match by_shape.get(&shape) {
            Some(&ns) => ns,
            None => {
                let ns = dual_matmul_ns(gate, &mut rng)?;
                by_shape.insert(shape, ns);
                ns
            }
        };
    }
    span(trace, "tensor.gate_shapes", "tensor", start);
    Ok(per_step_ns / LANES as f64)
}

/// `nfm-tensor`: the kernels at the shape of `model`'s main gate.
fn tensor(model: &Model, m: &mut LayerMetrics, trace: &mut Trace) -> Result<(), String> {
    let start = trace.now_ns();
    let mut rng = Rng::new(0x7E46);
    let (_, gate) = main_gate(model);
    let (wx, wh) = (gate.wx(), gate.wh());
    let rows = wx.rows();
    let fail = |e| format!("{}: kernel call: {e}", model.spec.id);

    let matmul_ns = dual_matmul_ns(gate, &mut rng)?;
    let x = filled(wx.cols(), &mut rng);
    let h = filled(wh.cols(), &mut rng);
    let mut out = vec![0.0f32; rows];
    dual_matvec_into(wx, wh, &x, &h, &mut out).map_err(fail)?;
    let matvec_ns = ns_per_call(|| {
        dual_matvec_into(wx, wh, black_box(&x), black_box(&h), &mut out)
            .expect("shapes were checked above");
        black_box(&mut out);
    });
    let hoist_lanes = HOIST_STEPS * LANES;
    let hoist_xs = filled(hoist_lanes * wx.cols(), &mut rng);
    let mut hoist_out = vec![0.0f32; hoist_lanes * rows];
    matmul_into(wx, &hoist_xs, hoist_lanes, &mut hoist_out).map_err(fail)?;
    let hoist_ns = ns_per_call(|| {
        matmul_into(wx, black_box(&hoist_xs), hoist_lanes, &mut hoist_out)
            .expect("shapes were checked above");
        black_box(&mut hoist_out);
    });

    // Computed from shapes, not measured: two flops per weight per lane,
    // and every weight of the gate streamed once per call.
    let weights = (rows * (wx.cols() + wh.cols())) as f64;
    m.insert("tensor.dual_matmul_ns", matmul_ns);
    m.insert("tensor.dual_matvec_ns", matvec_ns);
    m.insert("tensor.hoist_matmul_ns", hoist_ns);
    m.insert("tensor.gflops", 2.0 * weights * LANES as f64 / matmul_ns);
    m.insert("tensor.weight_mb_per_call", weights * 4.0 / 1e6);
    span(trace, "tensor.kernels", "tensor", start);
    Ok(())
}

/// `nfm-bnn` and `nfm-core` on the first memoized model: mirror build,
/// input binarization, one gate's batched prediction, and memo-table
/// operations at the measured hit rate.
fn bnn_and_core(
    model: &Model,
    reuse_fraction: f64,
    m: &mut LayerMetrics,
    trace: &mut Trace,
) -> Result<(), String> {
    let start = trace.now_ns();
    let started = Instant::now();
    let mirror = BinaryNetwork::mirror(&model.network);
    m.insert("bnn.mirror_build_s", started.elapsed().as_secs_f64());

    let mut rng = Rng::new(0xB1A5);
    let (gate_id, gate) = main_gate(model);
    let binary = mirror
        .gate(gate_id)
        .ok_or_else(|| format!("{}: mirror has no gate {gate_id:?}", model.spec.id))?;
    let x = filled(gate.wx().cols(), &mut rng);
    let h = filled(gate.wh().cols(), &mut rng);
    m.insert(
        "bnn.binarize_ns",
        ns_per_call(|| {
            black_box(binary.binarize_inputs(black_box(&x), black_box(&h)));
        }),
    );
    let (xbs, hbs): (Vec<_>, Vec<_>) = (0..LANES)
        .map(|_| {
            binary.binarize_inputs(
                &filled(gate.wx().cols(), &mut rng),
                &filled(gate.wh().cols(), &mut rng),
            )
        })
        .unzip();
    let neurons = gate.wx().rows();
    let mut out = vec![0i32; LANES * neurons];
    binary
        .neuron_outputs_batch_into(&xbs, &hbs, &mut out)
        .map_err(|e| format!("{}: gate prediction: {e}", model.spec.id))?;
    m.insert(
        "bnn.gate_predict_ns",
        ns_per_call(|| {
            binary
                .neuron_outputs_batch_into(black_box(&xbs), black_box(&hbs), &mut out)
                .expect("shapes were checked above");
            black_box(&mut out);
        }),
    );
    span(trace, "bnn.gate", "bnn", start);

    let start = trace.now_ns();
    let mut table = MemoTable::for_network(&model.network);
    let handle = table.gate_handle(gate_id, neurons);
    for n in 0..neurons {
        table.refresh_at(handle, n, 0.5, 1.0);
    }
    let hits: Vec<bool> = (0..neurons)
        .map(|_| rng.next_unit() < reuse_fraction)
        .collect();
    let per_sweep_ns = ns_per_call(|| {
        for (n, &hit) in hits.iter().enumerate() {
            let cached = table.entry(handle, n).map(|e| e.cached_output);
            if hit {
                black_box(table.reuse_at(handle, n, 0.01));
            } else {
                table.refresh_at(handle, n, black_box(0.5), 1.0);
            }
            black_box(cached);
        }
    });
    m.insert("core.table_op_ns", per_sweep_ns / neurons as f64);
    span(trace, "core.table", "core", start);
    Ok(())
}

/// `nfm-model`: artifact save and load, summed over the workload's
/// models.
fn artifacts(models: &[Model], m: &mut LayerMetrics, trace: &mut Trace) -> Result<(), String> {
    let start = trace.now_ns();
    let (mut save_s, mut load_s, mut bytes) = (0.0, 0.0, 0usize);
    for model in models {
        let started = Instant::now();
        let artifact = nfm_model::save_to_vec(&model.network, None)
            .map_err(|e| format!("{}: save: {e}", model.spec.id))?;
        save_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        black_box(
            nfm_model::load_from_slice(&artifact)
                .map_err(|e| format!("{}: load: {e}", model.spec.id))?,
        );
        load_s += started.elapsed().as_secs_f64();
        bytes += artifact.len();
    }
    m.insert("model.save_s", save_s);
    m.insert("model.load_s", load_s);
    m.insert("model.artifact_mb", bytes as f64 / 1e6);
    span(trace, "model.roundtrip", "model", start);
    Ok(())
}

/// One staged engine round over every entry, with spans.
pub struct EngineRound {
    pub build_s: f64,
    pub submit_ns: Vec<f64>,
    pub drain_s: f64,
    pub responses: Vec<InferenceResponse>,
    pub lane_borrows: u64,
    pub migrations: u64,
    pub rejected: u64,
}

/// Builds a paused engine, stages request `i` for entry `i`, and times
/// `drain()`.  The build is outside the drain span: a submit racing the
/// worker makes rounds incomparable.
pub fn engine_round(
    models: &[Model],
    entries: &[Entry],
    workers: usize,
    trace: Option<&mut Trace>,
) -> Result<EngineRound, String> {
    let now = |t: &Option<&mut Trace>| t.as_ref().map_or(0, |t| t.now_ns());
    let root_start = now(&trace);
    let started = Instant::now();
    let engine = build_engine(models, workers, entries.len() + LANES, true)?;
    let build_s = started.elapsed().as_secs_f64();
    let build_end = now(&trace);

    let mut rejected = 0u64;
    let mut submit_ns = Vec::with_capacity(entries.len());
    let mut submit_spans = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let request = engine_request(models, entry, i as u64);
        let start_ns = now(&trace);
        let started = Instant::now();
        if engine.submit(request).is_err() {
            rejected += 1;
        }
        submit_ns.push(started.elapsed().as_nanos() as f64);
        submit_spans.push((i as u64, start_ns, now(&trace)));
    }

    let drain_start = now(&trace);
    let started = Instant::now();
    let responses = engine.drain();
    let drain_s = started.elapsed().as_secs_f64();
    let drain_end = now(&trace);
    let (lane_borrows, migrations) = (engine.lane_borrows(), engine.migrations());
    engine.shutdown();

    if let Some(trace) = trace {
        let root = trace.measured("round", "gen", root_start, drain_end, None);
        trace.measured(
            "serve.engine_build",
            "serve",
            root_start,
            build_end,
            Some(root),
        );
        for (id, start_ns, end_ns) in submit_spans {
            trace.push(Span {
                name: "serve.submit",
                layer: "serve",
                start_ns,
                end_ns,
                parent: Some(root),
                request: Some(id),
                reconstructed: false,
            });
        }
        let drain = trace.measured("serve.drain", "serve", drain_start, drain_end, Some(root));
        // The engine reports each request's queue wait and lane time;
        // the spans are laid back to back from when the drain began.
        for r in &responses {
            let queued = r.queue_latency.as_nanos() as u64;
            let computed = r.compute_latency.as_nanos() as u64;
            let compute_end = (drain_start + queued + computed).min(drain_end);
            let compute_start = compute_end.saturating_sub(computed);
            for (name, start_ns, end_ns) in [
                (
                    "serve.queue_wait",
                    compute_start.saturating_sub(queued),
                    compute_start,
                ),
                ("serve.compute", compute_start, compute_end),
            ] {
                trace.push(Span {
                    name,
                    layer: "serve",
                    start_ns,
                    end_ns,
                    parent: Some(drain),
                    request: Some(r.id),
                    reconstructed: true,
                });
            }
        }
    }
    rejected += responses.iter().filter(|r| !r.is_done()).count() as u64;
    Ok(EngineRound {
        build_s,
        submit_ns,
        drain_s,
        responses,
        lane_borrows,
        migrations,
        rejected,
    })
}

fn percentile_of(samples: &mut [f64], p: f64) -> f64 {
    sort(samples);
    percentile(samples, p).map_or(0.0, |p| p.value)
}

/// `nfm-serve`: the metrics of one traced engine round.
fn serve_metrics(round: &mut EngineRound, served_run_s: f64, m: &mut LayerMetrics) {
    m.insert("serve.engine_build_s", round.build_s);
    m.insert("serve.submit_ns", median(&mut round.submit_ns));
    m.insert("serve.engine_round_s", round.drain_s);
    m.insert(
        "serve.self_share_pct",
        100.0 * (round.drain_s - served_run_s) / round.drain_s,
    );
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut queue: Vec<f64> = round
        .responses
        .iter()
        .map(|r| ms(r.queue_latency))
        .collect();
    let mut compute: Vec<f64> = round
        .responses
        .iter()
        .map(|r| ms(r.compute_latency))
        .collect();
    m.insert("serve.queue_wait_ms_p50", percentile_of(&mut queue, 50.0));
    m.insert("serve.queue_wait_ms_p99", percentile_of(&mut queue, 99.0));
    m.insert("serve.compute_ms_p50", percentile_of(&mut compute, 50.0));
    m.insert("serve.compute_ms_p99", percentile_of(&mut compute, 99.0));
    m.insert("serve.lane_borrows", round.lane_borrows as f64);
    m.insert("serve.migrations", round.migrations as f64);
    m.insert("serve.rejected", round.rejected as f64);
}

/// `nfm-net`: one-at-a-time loopback round trips over the first entries,
/// then the codec and reassembly on the frames those round trips carried.
fn net(
    models: &[Model],
    entries: &[Entry],
    workers: usize,
    m: &mut LayerMetrics,
    trace: &mut Trace,
) -> Result<(), String> {
    let start = trace.now_ns();
    let mut steps = 0;
    let sample: Vec<&Entry> = entries
        .iter()
        .take(RTT_MAX_REQUESTS)
        .take_while(|e| {
            let fits = steps < RTT_MAX_STEPS;
            steps += e.steps();
            fits
        })
        .collect();
    let mut pool: Vec<WireRequest> = sample.iter().map(|e| wire_request(models, e)).collect();
    let (served, _) = serve(models, workers, 256, &pool[0])?;
    let mut client = TracedClient::connect(served.handle.addr(), trace.origin())?;
    let count = pool.len();
    let outcome = run_closed(
        &mut client,
        &mut pool,
        &|k| k as usize,
        1,
        Stop::AfterRequests(count),
    )?;
    drop(client);
    drop(served.client);
    let stats = served.handle.shutdown();

    let mut responses: Vec<WireResponse> = Vec::new();
    let (mut rtt_us, mut self_us) = (Vec::new(), Vec::new());
    for arrival in outcome.arrivals {
        if let ServerFrame::Response(response) = arrival.frame {
            let rtt = (arrival.recv_ns - outcome.sent_ns[response.id as usize]) as f64 / 1e3;
            rtt_us.push(rtt);
            self_us.push(rtt - response.server_latency().as_secs_f64() * 1e6);
            responses.push(response);
        }
    }
    if responses.len() != count {
        return Err(format!(
            "net rung: {} of {count} one-at-a-time requests were served",
            responses.len()
        ));
    }
    m.insert("net.rtt_us_p50", median(&mut rtt_us));
    m.insert("net.self_us_p50", median(&mut self_us));
    m.insert("net.admitted", stats.requests_admitted as f64);
    m.insert("net.responses_sent", stats.responses_sent as f64);
    m.insert("net.rejects", stats.rejects_total() as f64);
    m.insert("net.orphaned", stats.responses_orphaned as f64);

    // Codec and reassembly over the same requests and their responses,
    // per frame.
    let mut buffer = Vec::new();
    let request_frames: Vec<Vec<u8>> = pool
        .iter()
        .map(|r| {
            buffer.clear();
            r.encode(&mut buffer);
            buffer.clone()
        })
        .collect();
    let response_frames: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| {
            buffer.clear();
            r.encode(&mut buffer);
            buffer.clone()
        })
        .collect();
    let frames = count as f64;
    m.insert(
        "net.encode_req_ns",
        ns_per_call(|| {
            for r in &pool {
                buffer.clear();
                black_box(r).encode(&mut buffer);
                black_box(&mut buffer);
            }
        }) / frames,
    );
    m.insert(
        "net.decode_req_ns",
        ns_per_call(|| {
            for f in &request_frames {
                black_box(WireRequest::decode(black_box(&f[4..])).expect("own frame decodes"));
            }
        }) / frames,
    );
    m.insert(
        "net.encode_resp_ns",
        ns_per_call(|| {
            for r in &responses {
                buffer.clear();
                black_box(r).encode(&mut buffer);
                black_box(&mut buffer);
            }
        }) / frames,
    );
    m.insert(
        "net.decode_resp_ns",
        ns_per_call(|| {
            for f in &response_frames {
                black_box(WireResponse::decode(black_box(&f[4..])).expect("own frame decodes"));
            }
        }) / frames,
    );
    m.insert(
        "net.assemble_ns",
        ns_per_call(|| {
            let mut assembler = FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES);
            for f in &response_frames {
                assembler.push(black_box(f));
                black_box(assembler.next_frame().expect("frame is under the cap"));
            }
        }) / frames,
    );
    let mean_len = |frames: &[Vec<u8>]| {
        frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64
    };
    m.insert("net.req_bytes", mean_len(&request_frames));
    m.insert("net.resp_bytes", mean_len(&response_frames));
    span(trace, "net.rung", "net", start);
    Ok(())
}

/// Runs the whole ladder.  `times` are the direct `run_batch` runs of the
/// same entries in waves of [`LANES`]; `round` is one traced engine round
/// over them.
pub fn replay(
    models: &[Model],
    entries: &[Entry],
    workers: usize,
    times: &DirectRunTimes,
    round: &mut EngineRound,
    trace: &mut Trace,
) -> Result<LayerMetrics, String> {
    let mut m = LayerMetrics::new();

    // nfm-rnn, and the counts nfm-core and nfm-bnn made during its runs.
    let memo = times.memo_counts;
    m.insert("rnn.run_exact_s", times.exact_s);
    m.insert("rnn.run_memo_s", times.memo_s);
    m.insert("rnn.steps", times.steps as f64);
    m.insert("bnn.evals", memo.bnn_evaluations as f64);
    m.insert("core.evaluations", memo.evaluations as f64);
    m.insert("core.reuses", memo.reuses as f64);
    let reuse_fraction = if memo.evaluations == 0 {
        0.0
    } else {
        memo.reuses as f64 / memo.evaluations as f64
    };
    m.insert("core.reuse_pct", 100.0 * reuse_fraction);
    m.insert(
        "core.memo_net_cost_pct",
        if times.exact_of_memo_s > 0.0 {
            100.0 * (times.memo_s - times.exact_of_memo_s) / times.exact_of_memo_s
        } else {
            0.0
        },
    );

    // nfm-tensor: measured on the first model; the kernel share of the
    // exact run is computed over every model's own gates and steps.
    tensor(&models[0], &mut m, trace)?;
    let mut kernel_s = 0.0;
    for (index, model) in models.iter().enumerate() {
        let steps: usize = entries
            .iter()
            .filter(|e| e.model == index)
            .map(Entry::steps)
            .sum();
        kernel_s += kernel_ns_per_lane_step(model, trace)? * steps as f64 / 1e9;
    }
    let kernel_share = 100.0 * kernel_s / times.exact_s;
    m.insert("rnn.kernel_share_pct", kernel_share);
    m.insert("rnn.self_share_pct", 100.0 - kernel_share);

    match models.iter().find(|model| model.spec.theta.is_some()) {
        Some(model) => bnn_and_core(model, reuse_fraction, &mut m, trace)?,
        None => {
            for name in [
                "bnn.mirror_build_s",
                "bnn.gate_predict_ns",
                "bnn.binarize_ns",
                "core.table_op_ns",
            ] {
                m.insert(name, 0.0);
            }
        }
    }
    artifacts(models, &mut m, trace)?;

    // The direct runs use one thread; an engine with several workers is
    // held against that time split evenly over them.
    let served_run_s = (times.exact_s - times.exact_of_memo_s + times.memo_s) / workers as f64;
    serve_metrics(round, served_run_s, &mut m);
    net(models, entries, workers, &mut m, trace)?;
    Ok(m)
}
