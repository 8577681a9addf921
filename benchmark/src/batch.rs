//! The three offline workloads: rounds of requests staged on a paused
//! engine, timing `drain()`.

use crate::gen::{spread_lengths, Rng};
use crate::layers::{engine_round, replay};
use crate::model::{Entry, Model, ModelSpec, Reference, AUDIO, LANES, TOKENS};
use crate::report::{peak_rss_mb, Report, Value};
use crate::stats::{percentile, sort, Summary};
use crate::trace::Trace;
use crate::verify::check_round;
use crate::Args;
use nfm_workloads::NetworkId;
use std::time::Instant;

pub struct BatchSpec {
    pub name: &'static str,
    pub model: ModelSpec,
    /// Requests staged per round, and the range their lengths spread over.
    pub requests: usize,
    pub steps: (usize, usize),
}

const DEEPSPEECH: ModelSpec = ModelSpec {
    id: "ds2",
    network: NetworkId::DeepSpeech2,
    scale: 0.5,
    theta: None,
    domain: AUDIO,
};

pub const BATCH_EXACT: BatchSpec = BatchSpec {
    name: "batch_exact",
    model: DEEPSPEECH,
    requests: 48,
    steps: (32, 96),
};

pub const BATCH_MEMO_LO: BatchSpec = BatchSpec {
    name: "batch_memo_lo",
    model: ModelSpec {
        theta: Some(0.1),
        ..DEEPSPEECH
    },
    requests: 48,
    steps: (32, 96),
};

pub const BATCH_MEMO_HI: BatchSpec = BatchSpec {
    name: "batch_memo_hi",
    model: ModelSpec {
        id: "imdb",
        network: NetworkId::ImdbSentiment,
        scale: 1.0,
        theta: Some(2.0),
        domain: TOKENS,
    },
    requests: 512,
    steps: (40, 120),
};

/// Engine workers of every batch workload.
const WORKERS: usize = 1;
/// A timed phase has at least this many measured rounds, after one
/// warm-up round that lets caches and lazy set-up settle.
const MIN_ROUNDS: usize = 3;

pub fn run(spec: &BatchSpec, args: &Args) -> Result<Report, String> {
    let mut report = Report::new(spec.name);
    let models = [Model::build(spec.model)?];
    let requests = if args.quick {
        (spec.requests / 20).max(LANES)
    } else {
        spec.requests
    };
    let lengths = spread_lengths(
        spec.steps.0,
        spec.steps.1,
        requests,
        &mut Rng::new(args.seed),
    );
    let entries = Entry::for_model(0, models[0].sequences(args.seed, &lengths));
    let steps_per_round: usize = lengths.iter().sum();
    let reference = Reference::build(&models, &entries, LANES)?;

    if !args.quick {
        engine_round(&models, &entries, WORKERS, None)?;
    }
    // Each round is verified as soon as it has been timed and only its
    // times are kept, so memory does not grow with the number of rounds.
    let budget = args.timed_seconds();
    let phase = Instant::now();
    let (mut setup, mut drains, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50_ms, mut p95_ms, mut latency_ms) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let started = Instant::now();
        let round = engine_round(&models, &entries, WORKERS, None)?;
        check_round(&mut report.verdict, &reference, &round.responses);
        setup.push(round.build_s);
        drains.push(round.drain_s);
        rate.push(steps_per_round as f64 / round.drain_s);
        let mut round_ms: Vec<f64> = round
            .responses
            .iter()
            .map(|r| r.total_latency().as_secs_f64() * 1e3)
            .collect();
        sort(&mut round_ms);
        for (per_round, p) in [(&mut p50_ms, 50.0), (&mut p95_ms, 95.0)] {
            per_round.push(
                percentile(&round_ms, p)
                    .ok_or("a round returned no responses")?
                    .value,
            );
        }
        latency_ms.extend(round_ms);
        let last = started.elapsed().as_secs_f64();
        let enough =
            drains.len() >= MIN_ROUNDS && phase.elapsed().as_secs_f64() + last / 2.0 >= budget;
        if args.quick || enough {
            break;
        }
    }
    sort(&mut latency_ms);

    let rate = Summary::of(&mut rate);
    report
        .end_to_end
        .insert("setup_s", Value::median(Summary::of(&mut setup)));
    report.end_to_end.insert("steps_per_s", Value::median(rate));
    // A round's own percentile, then the median over rounds: a slow round
    // moves one sample, not the tail of a pooled distribution.
    report
        .end_to_end
        .insert("latency_p50_ms", Value::median(Summary::of(&mut p50_ms)));
    report
        .end_to_end
        .insert("output_fidelity_pct", Value::of(reference.fidelity_pct));

    report.fact("requests_per_round", requests);
    report.fact("steps_per_round", steps_per_round);
    report.fact("measured_rounds", drains.len());
    let drains: Vec<String> = drains.iter().map(|s| format!("{s:.4}")).collect();
    report.fact("round_drain_s", drains.join(" "));
    report.fact("lanes", LANES);
    report.fact("engine_workers", WORKERS);
    report.fact("connections", 0);
    report.fact("latency_samples", latency_ms.len());

    if args.traced {
        let mut trace = Trace::new();
        let mut traced = engine_round(&models, &entries, WORKERS, Some(&mut trace))?;
        check_round(&mut report.verdict, &reference, &traced.responses);
        let mut m = replay(
            &models,
            &entries,
            WORKERS,
            &reference.times,
            &mut traced,
            &mut trace,
        )?;
        // The generator of a batch workload is the staging loop: every
        // request is handed over at once, none is late.
        let done = traced.responses.iter().filter(|r| r.is_done()).count();
        m.insert("gen.sent", requests as f64);
        m.insert("gen.done", done as f64);
        m.insert("gen.expired", 0.0);
        m.insert("gen.rejected", traced.rejected as f64);
        m.insert("gen.lateness_us_p99", 0.0);
        m.insert("gen.backlog_end", 0.0);
        m.insert("gen.max_rate_ok_rps", 0.0);
        m.insert("gen.capacity_rps", done as f64 / traced.drain_s);
        m.insert("gen.goodput_rps", done as f64 / traced.drain_s);
        // One load level, so both tails are the same number; 0 when
        // fewer than ten samples lie beyond it.
        let p99 = percentile(&latency_ms, 99.0)
            .filter(|p| p.resolved)
            .map_or(0.0, |p| p.value);
        m.insert("gen.latency_p95_ms", Summary::of(&mut p95_ms).median);
        m.insert("gen.latency_p99_ms", p99);
        m.insert("gen.latency_p99_hi_ms", p99);
        m.insert("trace.unattributed_pct", trace.unattributed_pct("round"));
        let timed_round_s = steps_per_round as f64 / rate.median;
        m.insert(
            "trace.overhead_pct",
            100.0 * (traced.drain_s - timed_round_s) / timed_round_s,
        );
        m.insert("trace.spans", trace.spans.len() as f64);
        report.per_layer = m;
        report.trace = Some(trace);
    }
    report
        .end_to_end
        .insert("peak_rss_mb", Value::of(peak_rss_mb()?));
    Ok(report)
}
