//! The two serving workloads: a loopback TCP server driven by the
//! benchmark's own generator over one connection.

use crate::affinity;
use crate::gen::{
    cycled_lengths, poisson_schedule, run_closed, run_open, spread_lengths, Arrival, Outcome, Rng,
    Stop,
};
use crate::layers::{engine_round, replay, LayerMetrics};
use crate::model::{Entry, Model, ModelSpec, Reference, AUDIO, LANES, TOKENS};
use crate::program::{serve, wire_request, Served};
use crate::report::{peak_rss_mb, Report, Value};
use crate::stats::{percentile, sort, Percentile, Summary};
use crate::trace::{Span, Trace};
use crate::verify::check_arrivals;
use crate::wire::TracedClient;
use crate::Args;
use nfm_net::{ServerFrame, WireRequest};
use nfm_workloads::NetworkId;
use std::collections::BTreeMap;
use std::time::Duration;

/// `serve_open`: requests so small that the wire and the server loop are
/// most of a round trip.
const OPEN_MODEL: ModelSpec = ModelSpec {
    id: "imdb-small",
    network: NetworkId::ImdbSentiment,
    scale: 0.25,
    theta: Some(0.5),
    domain: TOKENS,
};
const OPEN_POOL: usize = 256;
const OPEN_STEPS: [usize; 3] = [8, 16, 24];
const OPEN_WORKERS: usize = 1;
/// Fixed arrival rates.  The timed phase runs at the reference rate,
/// about a fifth of what the server sustains in a closed loop on the
/// reference host; a traced run adds the high rate, where queueing shows.
const RATE_REF: f64 = 1500.0;
const RATE_HI: f64 = 3000.0;
/// A request slower than this misses the latency limit used for
/// `gen.max_rate_ok_rps`.
const LATENCY_LIMIT_MS: f64 = 5.0;
/// Requests of a traced run's extra phases: the reference rate over the
/// span-recording client, the high rate, and a closed loop of 16.
const TRACED_OPEN_REQUESTS: usize = 2000;
const HI_RATE_REQUESTS: usize = 6000;
const CAPACITY_REQUESTS: usize = 8000;

/// `serve_mixed`: a saturated closed loop over two models.
const HOT_MODEL: ModelSpec = ModelSpec {
    id: "hot",
    network: NetworkId::DeepSpeech2,
    scale: 0.5,
    theta: None,
    domain: AUDIO,
};
const COLD_MODEL: ModelSpec = ModelSpec {
    id: "cold",
    network: NetworkId::ImdbSentiment,
    scale: 0.5,
    theta: Some(0.5),
    domain: TOKENS,
};
const HOT_POOL: usize = 48;
const HOT_STEPS: [usize; 3] = [16, 32, 48];
const COLD_POOL: usize = 64;
const COLD_STEPS: (usize, usize) = (16, 64);
/// Every fourth cold request overrides its threshold.
const COLD_OVERRIDE: f32 = 0.2;
const MIXED_WORKERS: usize = 2;
const WINDOW: usize = 16;
const TRACED_MIXED_REQUESTS: usize = 320;

/// Queue bound of a served engine: far above any backlog a healthy run
/// builds, so a reject means the program fell behind.
const QUEUE_CAPACITY: usize = 4096;
/// Share of each phase's first requests left out of its metrics.
const WARMUP_SHARE: f64 = 0.1;

/// Set-ups measured per run; all but the last are torn down again.
fn setup_repeats(args: &Args, full: usize) -> usize {
    if args.quick {
        1
    } else {
        full
    }
}

/// The request that ends a set-up: the first step of the first pool
/// entry, so its cost does not depend on which length the seed gave it.
fn warmup_request(pool: &[WireRequest]) -> WireRequest {
    let mut request = pool[0].clone();
    request.sequence.truncate(1);
    request
}

/// Brings the server up `repeats` times, keeping the last, and returns it
/// with the set-up time of each.
fn bring_up(
    models: &[Model],
    workers: usize,
    warmup: &WireRequest,
    repeats: usize,
    placement: &Option<(Vec<usize>, usize)>,
) -> Result<(Served, Vec<f64>), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats {
        if let Some(Served { handle, client }) = kept.take() {
            drop(client);
            handle.shutdown();
        }
        // The server and worker threads inherit the CPUs this thread has
        // when it spawns them; the generator then moves to its own.
        if let Some((program, _)) = placement {
            affinity::pin_current_thread(program);
        }
        let (served, took) = serve(models, workers, QUEUE_CAPACITY, warmup)?;
        times.push(took.as_secs_f64());
        kept = Some(served);
    }
    if let Some((_, generator)) = placement {
        affinity::pin_current_thread(&[*generator]);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Windows a measured phase is cut into.  Each metric is the median of
/// its per-window values, so one stall of the host moves one window, not
/// the result.
const WINDOWS: usize = 24;
/// A window has at least this many requests; shorter phases get fewer
/// windows.
const MIN_WINDOW_REQUESTS: usize = 40;

/// One window: consecutive requests by send order.
#[derive(Default)]
struct Window {
    /// Latencies of the served responses, ms, ascending, each clocked
    /// from when its request was due.
    latency_ms: Vec<f64>,
    steps: u64,
    responses: u64,
    /// From this window's first request falling due to the next
    /// window's.
    span_s: f64,
}

/// The served responses of requests `from..` of a driver run.
struct Measured {
    windows: Vec<Window>,
    /// Every window's latencies together, ascending.
    latency_ms: Vec<f64>,
    /// From the first counted request falling due to the last counted
    /// arrival.
    served_span_s: f64,
}

fn measure(
    outcome: &Outcome,
    entries: &[Entry],
    pick: &dyn Fn(u64) -> usize,
    from: usize,
) -> Measured {
    let counted = outcome.sent().saturating_sub(from);
    let count = (counted / MIN_WINDOW_REQUESTS).clamp(1, WINDOWS);
    let width = counted.div_ceil(count).max(1);
    let mut windows: Vec<Window> = (0..count).map(|_| Window::default()).collect();
    let mut last_ns = 0;
    for Arrival { recv_ns, frame } in &outcome.arrivals {
        let id = frame.id() as usize;
        if id < from || id >= outcome.sent() {
            continue;
        }
        if let ServerFrame::Response(r) = frame {
            if r.status == nfm_serve::CompletionStatus::Done {
                let w = &mut windows[(id - from) / width];
                w.latency_ms
                    .push((recv_ns - outcome.due_ns[id]) as f64 / 1e6);
                w.steps += entries[pick(id as u64)].steps() as u64;
                w.responses += 1;
                last_ns = last_ns.max(*recv_ns);
            }
        }
    }
    for (i, w) in windows.iter_mut().enumerate() {
        let first = outcome.due_ns[from + i * width];
        let next = outcome.due_ns[(from + (i + 1) * width).min(outcome.sent() - 1)];
        w.span_s = (next - first) as f64 / 1e9;
        sort(&mut w.latency_ms);
    }
    let mut latency_ms: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.latency_ms.iter().copied())
        .collect();
    sort(&mut latency_ms);
    let first_ns = outcome.due_ns.get(from).copied().unwrap_or(0);
    Measured {
        windows,
        latency_ms,
        served_span_s: last_ns.saturating_sub(first_ns) as f64 / 1e9,
    }
}

impl Measured {
    /// Median over the windows of `f`; unresolved if `f` says so for any.
    fn median_of(
        &self,
        f: impl Fn(&Window) -> Option<Percentile>,
        what: &str,
    ) -> Result<Value, String> {
        let per_window: Vec<Percentile> = self
            .windows
            .iter()
            .map(&f)
            .collect::<Option<_>>()
            .ok_or_else(|| format!("{what}: a window has no served responses"))?;
        let mut values: Vec<f64> = per_window.iter().map(|p| p.value).collect();
        Ok(Value {
            resolved: per_window.iter().all(|p| p.resolved),
            ..Value::median(Summary::of(&mut values))
        })
    }

    fn latency(&self, p: f64, what: &str) -> Result<Value, String> {
        self.median_of(|w| percentile(&w.latency_ms, p), &format!("{what} p{p}"))
    }

    fn steps_per_s(&self, what: &str) -> Result<Value, String> {
        self.median_of(
            |w| {
                (w.span_s > 0.0).then(|| Percentile {
                    value: w.steps as f64 / w.span_s,
                    resolved: true,
                })
            },
            what,
        )
    }

    /// Timesteps served per second over the whole phase, to the last
    /// arrival.  In an open loop this is the offered load unless the
    /// program falls behind.
    fn overall_steps_per_s(&self) -> f64 {
        self.windows.iter().map(|w| w.steps).sum::<u64>() as f64 / self.served_span_s
    }

    /// Median latency over all windows together.
    fn p50_ms(&self) -> f64 {
        percentile(&self.latency_ms, 50.0).map_or(0.0, |p| p.value)
    }

    fn responses_per_s(&self) -> f64 {
        let span: f64 = self.windows.iter().map(|w| w.span_s).sum();
        self.windows.iter().map(|w| w.responses).sum::<u64>() as f64 / span
    }
}

/// `p50/p95/p99/max` of the latencies, for the output file.
fn describe(m: &Measured) -> String {
    let at = |p| percentile(&m.latency_ms, p).map_or(0.0, |p| p.value);
    format!(
        "p50={:.3} p95={:.3} p99={:.3} max={:.3} n={}",
        at(50.0),
        at(95.0),
        at(99.0),
        at(100.0),
        m.latency_ms.len()
    )
}

/// The p99 if ten samples lie beyond it, else 0: a tail nobody can read
/// off this few samples is not reported.
fn resolved_p99(samples: &[f64]) -> f64 {
    percentile(samples, 99.0)
        .filter(|p| p.resolved)
        .map_or(0.0, |p| p.value)
}

/// Spans of one traced driver run, from the client's own timings and the
/// durations each response reports.
fn request_spans(trace: &mut Trace, client: &TracedClient, outcome: &Outcome) {
    let base = trace.at_ns(outcome.origin);
    let recvs: BTreeMap<u64, _> = client.recvs.iter().map(|r| (r.id, *r)).collect();
    let responses: BTreeMap<u64, _> = outcome
        .arrivals
        .iter()
        .filter_map(|a| match &a.frame {
            ServerFrame::Response(r) => Some((r.id, (r.queue_latency_ns, r.compute_latency_ns))),
            _ => None,
        })
        .collect();
    for send in &client.sends {
        let (Some(recv), Some(&(queued, computed))) =
            (recvs.get(&send.id), responses.get(&send.id))
        else {
            continue;
        };
        let request = Some(send.id);
        let push = |trace: &mut Trace, name, layer, start_ns, end_ns, parent, reconstructed| {
            trace.push(Span {
                name,
                layer,
                start_ns,
                end_ns,
                parent,
                request,
                reconstructed,
            })
        };
        let due = base + outcome.due_ns[send.id as usize];
        let root = push(
            trace,
            "request",
            "gen",
            due,
            recv.decode_end_ns,
            None,
            false,
        );
        push(
            trace,
            "gen.lateness",
            "gen",
            due,
            send.encode_start_ns,
            Some(root),
            false,
        );
        push(
            trace,
            "net.encode_req",
            "net",
            send.encode_start_ns,
            send.encode_end_ns,
            Some(root),
            false,
        );
        push(
            trace,
            "net.write",
            "net",
            send.encode_end_ns,
            send.write_end_ns,
            Some(root),
            false,
        );
        let wait = push(
            trace,
            "net.wait",
            "net",
            send.write_end_ns,
            recv.frame_ns,
            Some(root),
            false,
        );
        // Reported by the server; placed to end when the frame arrived.
        let compute_start = recv.frame_ns.saturating_sub(computed);
        push(
            trace,
            "serve.compute",
            "serve",
            compute_start,
            recv.frame_ns,
            Some(wait),
            true,
        );
        push(
            trace,
            "serve.queue_wait",
            "serve",
            compute_start.saturating_sub(queued),
            compute_start,
            Some(wait),
            true,
        );
        push(
            trace,
            "net.decode_resp",
            "net",
            recv.frame_ns,
            recv.decode_end_ns,
            Some(root),
            false,
        );
    }
}

/// The `gen.*` metrics of one traced driver run.
fn generator_metrics(outcome: &Outcome, m: &mut LayerMetrics) {
    let (mut done, mut expired, mut rejected) = (0u64, 0u64, 0u64);
    for arrival in &outcome.arrivals {
        match &arrival.frame {
            ServerFrame::Response(r) => match r.status {
                nfm_serve::CompletionStatus::Done => done += 1,
                nfm_serve::CompletionStatus::DeadlineExpired => expired += 1,
                nfm_serve::CompletionStatus::Rejected => rejected += 1,
            },
            _ => rejected += 1,
        }
    }
    let mut lateness_us: Vec<f64> = outcome
        .sent_ns
        .iter()
        .zip(&outcome.due_ns)
        .map(|(sent, due)| (sent - due) as f64 / 1e3)
        .collect();
    sort(&mut lateness_us);
    m.insert("gen.sent", outcome.sent() as f64);
    m.insert("gen.done", done as f64);
    m.insert("gen.expired", expired as f64);
    m.insert("gen.rejected", rejected as f64);
    m.insert(
        "gen.lateness_us_p99",
        percentile(&lateness_us, 99.0).map_or(0.0, |p| p.value),
    );
    m.insert("gen.backlog_end", outcome.backlog_end as f64);
}

/// The layer ladder of a serving workload: a traced engine round and the
/// direct runs over every pool entry, then each layer's own calls.
fn ladder(
    models: &[Model],
    entries: &[Entry],
    workers: usize,
    placement: &Option<(Vec<usize>, usize)>,
    trace: &mut Trace,
) -> Result<LayerMetrics, String> {
    // The rungs bring up engines of their own: let their threads float,
    // as they do in the batch workloads, then return to the generator's
    // CPU for the traced phase against the served engine.
    if let Some((program, generator)) = placement {
        let mut all = program.clone();
        all.push(*generator);
        affinity::pin_current_thread(&all);
    }
    let times = Reference::build(models, entries, LANES)?.times;
    let mut round = engine_round(models, entries, workers, Some(trace))?;
    let metrics = replay(models, entries, workers, &times, &mut round, trace)?;
    if let Some((_, generator)) = placement {
        affinity::pin_current_thread(&[*generator]);
    }
    Ok(metrics)
}

/// Verifies every frame of a driver run against the reference, then
/// measures requests `from..`.
fn check_and_measure(
    report: &mut Report,
    reference: &Reference,
    entries: &[Entry],
    pick: &dyn Fn(u64) -> usize,
    outcome: &Outcome,
    from: usize,
) -> Measured {
    check_arrivals(
        &mut report.verdict,
        reference,
        pick,
        outcome.sent(),
        &outcome.arrivals,
    );
    measure(outcome, entries, pick, from)
}

/// Tears the served engine down and records what only the end of a run
/// knows.
fn finish(report: &mut Report, served: Served) -> Result<(), String> {
    let Served { handle, client } = served;
    drop(client);
    let stats = handle.shutdown();
    report.fact("server_rejects", stats.rejects_total());
    report
        .end_to_end
        .insert("peak_rss_mb", Value::of(peak_rss_mb()?));
    Ok(())
}

fn finish_traced(
    report: &mut Report,
    mut m: LayerMetrics,
    trace: Trace,
    timed_p50_ms: f64,
    traced_p50_ms: f64,
) {
    m.insert("trace.unattributed_pct", trace.unattributed_pct("request"));
    m.insert(
        "trace.overhead_pct",
        100.0 * (traced_p50_ms - timed_p50_ms) / timed_p50_ms,
    );
    m.insert("trace.spans", trace.spans.len() as f64);
    report.per_layer = m;
    report.trace = Some(trace);
}

pub fn run_open_workload(args: &Args) -> Result<Report, String> {
    let mut report = Report::new("serve_open");
    let models = [Model::build(OPEN_MODEL)?];
    let pool_size = if args.quick { OPEN_POOL / 8 } else { OPEN_POOL };
    let lengths = cycled_lengths(&OPEN_STEPS, pool_size, &mut Rng::new(args.seed));
    let entries = Entry::for_model(0, models[0].sequences(args.seed, &lengths));
    let reference = Reference::build(&models, &entries, 1)?;
    let mut pool: Vec<WireRequest> = entries.iter().map(|e| wire_request(&models, e)).collect();
    let pick = move |k: u64| (k % pool_size as u64) as usize;

    // The generator gets a CPU of its own and the program the others,
    // as if the client were another machine.
    let placement = affinity::split();
    let (mut served, mut setup) = bring_up(
        &models,
        OPEN_WORKERS,
        &warmup_request(&pool),
        setup_repeats(args, 101),
        &placement,
    )?;

    let budget = if args.quick {
        0.1
    } else {
        args.timed_seconds()
    };
    let warm = |count: usize| (count as f64 * WARMUP_SHARE) as usize;

    // Open loop at the reference rate: every send is due at a time fixed
    // by the seed, whether or not earlier requests were answered.
    let count = ((RATE_REF * budget) as usize).max(MIN_WINDOW_REQUESTS);
    let schedule = poisson_schedule(args.seed, RATE_REF, count);
    let at_reference = run_open(&mut served.client, &mut pool, &pick, &schedule)?;
    let reference_m = check_and_measure(
        &mut report,
        &reference,
        &entries,
        &pick,
        &at_reference,
        warm(count),
    );

    report
        .end_to_end
        .insert("setup_s", Value::median(Summary::of(&mut setup)));
    report
        .end_to_end
        .insert("steps_per_s", Value::of(reference_m.overall_steps_per_s()));
    report.end_to_end.insert(
        "latency_p50_ms",
        reference_m.latency(50.0, "reference rate")?,
    );
    report
        .end_to_end
        .insert("output_fidelity_pct", Value::of(reference.fidelity_pct));

    report.fact("pool_entries", pool_size);
    report.fact("rate_reference_rps", RATE_REF);
    report.fact("requests_reference_rate", at_reference.sent());
    report.fact("latency_ms_reference_rate", describe(&reference_m));
    report.fact("backlog_end_reference_rate", at_reference.backlog_end);
    report.fact("lanes", LANES);
    report.fact("engine_workers", OPEN_WORKERS);
    report.fact("server_threads", 1);
    report.fact("generator_threads", 1);
    report.fact("connections", 1);
    report.fact("setups_measured", setup.len());

    if args.traced {
        let mut trace = Trace::new();
        let mut m = ladder(&models, &entries, OPEN_WORKERS, &placement, &mut trace)?;
        let shrink = if args.quick { 20 } else { 1 };

        // The same open loop over the span-recording client.
        let count = TRACED_OPEN_REQUESTS / shrink;
        let schedule = poisson_schedule(args.seed ^ 0x7ACE, RATE_REF, count);
        let mut client = TracedClient::connect(served.handle.addr(), trace.origin())?;
        let traced = run_open(&mut client, &mut pool, &pick, &schedule)?;
        let traced_m = check_and_measure(
            &mut report,
            &reference,
            &entries,
            &pick,
            &traced,
            warm(count),
        );
        request_spans(&mut trace, &client, &traced);
        generator_metrics(&traced, &mut m);
        drop(client);

        // The high rate, where queueing shows.  Its tail swings too much
        // from run to run on a small host to gate on, so it is reported
        // here and not among the end-to-end metrics.
        let count = HI_RATE_REQUESTS / shrink;
        let schedule = poisson_schedule(args.seed ^ 0x41, RATE_HI, count);
        let at_hi = run_open(&mut served.client, &mut pool, &pick, &schedule)?;
        let hi_m = check_and_measure(
            &mut report,
            &reference,
            &entries,
            &pick,
            &at_hi,
            warm(count),
        );

        // Highest fixed rate at which at least 99% of the requests sent
        // came back within the limit and the backlog did not grow.
        let mut max_rate_ok = 0.0f64;
        for (rate, outcome, measured) in [
            (RATE_REF, &at_reference, &reference_m),
            (RATE_HI, &at_hi, &hi_m),
        ] {
            let counted = outcome.sent() - warm(outcome.sent());
            let within = measured
                .latency_ms
                .iter()
                .filter(|&&ms| ms <= LATENCY_LIMIT_MS)
                .count();
            if within as f64 >= 0.99 * counted as f64 && !outcome.backlog_grew() {
                max_rate_ok = max_rate_ok.max(rate);
            }
        }
        m.insert("gen.max_rate_ok_rps", max_rate_ok);

        // What the server sustains when a client keeps 16 in flight.
        let count = CAPACITY_REQUESTS / shrink;
        let closed = run_closed(
            &mut served.client,
            &mut pool,
            &pick,
            WINDOW,
            Stop::AfterRequests(count),
        )?;
        let closed_m = check_and_measure(
            &mut report,
            &reference,
            &entries,
            &pick,
            &closed,
            warm(count),
        );
        m.insert("gen.capacity_rps", closed_m.responses_per_s());
        report.fact("latency_ms_closed_loop", describe(&closed_m));
        m.insert("gen.goodput_rps", hi_m.responses_per_s());
        m.insert(
            "gen.latency_p95_ms",
            reference_m.latency(95.0, "reference rate")?.value,
        );
        m.insert("gen.latency_p99_ms", resolved_p99(&reference_m.latency_ms));
        m.insert("gen.latency_p99_hi_ms", resolved_p99(&hi_m.latency_ms));
        report.fact("rate_high_rps", RATE_HI);
        report.fact("latency_ms_high_rate", describe(&hi_m));
        finish_traced(
            &mut report,
            m,
            trace,
            reference_m.p50_ms(),
            traced_m.p50_ms(),
        );
    }

    finish(&mut report, served)?;
    Ok(report)
}

pub fn run_mixed_workload(args: &Args) -> Result<Report, String> {
    let mut report = Report::new("serve_mixed");
    let models = [Model::build(HOT_MODEL)?, Model::build(COLD_MODEL)?];
    let shrink = if args.quick { 8 } else { 1 };
    let (hot_n, cold_n) = (HOT_POOL / shrink, COLD_POOL / shrink);
    let mut rng = Rng::new(args.seed);
    let hot_lengths = cycled_lengths(&HOT_STEPS, hot_n, &mut rng);
    let cold_lengths = spread_lengths(COLD_STEPS.0, COLD_STEPS.1, cold_n, &mut rng);
    let mut entries = Entry::for_model(0, models[0].sequences(args.seed, &hot_lengths));
    entries.extend(
        models[1]
            .sequences(args.seed ^ 0xC01D, &cold_lengths)
            .into_iter()
            .enumerate()
            .map(|(i, sequence)| Entry {
                model: 1,
                theta_override: (i % 4 == 3).then_some(COLD_OVERRIDE),
                sequence,
            }),
    );
    let reference = Reference::build(&models, &entries, 1)?;
    let mut pool: Vec<WireRequest> = entries.iter().map(|e| wire_request(&models, e)).collect();
    // Three hot requests, then a cold one; each pool is walked in order.
    let pick = move |k: u64| {
        let (group, slot) = ((k / 4) as usize, (k % 4) as usize);
        if slot == 3 {
            hot_n + group % cold_n
        } else {
            (group * 3 + slot) % hot_n
        }
    };

    // Two workers and the server loop need both CPUs of the reference
    // host, and the generator sleeps in `recv`, so nothing is pinned.
    let placement = None;
    let (mut served, mut setup) = bring_up(
        &models,
        MIXED_WORKERS,
        &warmup_request(&pool),
        setup_repeats(args, 9),
        &placement,
    )?;

    let budget = if args.quick {
        0.5
    } else {
        args.timed_seconds()
    };
    let outcome = run_closed(
        &mut served.client,
        &mut pool,
        &pick,
        WINDOW,
        Stop::AfterTime(Duration::from_secs_f64(budget)),
    )?;
    let warm = (outcome.sent() as f64 * WARMUP_SHARE / 2.0) as usize;
    let measured = check_and_measure(&mut report, &reference, &entries, &pick, &outcome, warm);

    report
        .end_to_end
        .insert("setup_s", Value::median(Summary::of(&mut setup)));
    report
        .end_to_end
        .insert("steps_per_s", measured.steps_per_s("closed loop")?);
    report
        .end_to_end
        .insert("latency_p50_ms", measured.latency(50.0, "closed loop")?);
    report
        .end_to_end
        .insert("output_fidelity_pct", Value::of(reference.fidelity_pct));

    report.fact("hot_pool_entries", hot_n);
    report.fact("cold_pool_entries", cold_n);
    report.fact("in_flight", WINDOW);
    report.fact("requests_sent", outcome.sent());
    report.fact("latency_ms", describe(&measured));
    report.fact("goodput_rps", measured.responses_per_s());
    report.fact("lanes", LANES);
    report.fact("engine_workers", MIXED_WORKERS);
    report.fact("server_threads", 1);
    report.fact("generator_threads", 1);
    report.fact("connections", 1);
    report.fact("setups_measured", setup.len());

    if args.traced {
        let mut trace = Trace::new();
        let mut m = ladder(&models, &entries, MIXED_WORKERS, &placement, &mut trace)?;
        let count = if args.quick {
            2 * WINDOW
        } else {
            TRACED_MIXED_REQUESTS
        };
        let mut client = TracedClient::connect(served.handle.addr(), trace.origin())?;
        let traced = run_closed(
            &mut client,
            &mut pool,
            &pick,
            WINDOW,
            Stop::AfterRequests(count),
        )?;
        let traced_m = check_and_measure(&mut report, &reference, &entries, &pick, &traced, WINDOW);
        request_spans(&mut trace, &client, &traced);
        generator_metrics(&traced, &mut m);
        m.insert("gen.max_rate_ok_rps", 0.0);
        m.insert("gen.capacity_rps", measured.responses_per_s());
        m.insert("gen.goodput_rps", measured.responses_per_s());
        m.insert(
            "gen.latency_p95_ms",
            measured.latency(95.0, "closed loop")?.value,
        );
        m.insert("gen.latency_p99_ms", resolved_p99(&measured.latency_ms));
        m.insert("gen.latency_p99_hi_ms", resolved_p99(&measured.latency_ms));
        finish_traced(&mut report, m, trace, measured.p50_ms(), traced_m.p50_ms());
    }

    finish(&mut report, served)?;
    Ok(report)
}
