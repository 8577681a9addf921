//! # nfm-loadgen — calibrated traffic for the serving surface
//!
//! Drives a [`NetServer`](nfm_net::NetServer) (or anything speaking the
//! `nfm-net` protocol) with reproducible traffic and reports honest
//! tail latencies:
//!
//! * **Arrival processes** — [`ArrivalProcess::ClosedLoop`] keeps a
//!   fixed number of requests in flight (each completion triggers the
//!   next send: classic think-time-zero closed loop, measures capacity);
//!   [`ArrivalProcess::OpenLoopPoisson`] draws exponential inter-arrival
//!   gaps from the seeded RNG and sends on schedule whether or not
//!   responses came back (measures latency under a fixed offered rate,
//!   the server-side regime the paper targets).
//! * **Request blends** — weighted [`BlendEntry`] mixes over models,
//!   predictors, θ overrides, priorities and deadlines, with ragged
//!   sequence lengths sampled per request from the scenario's pool.
//! * **Warmup/measure phases** — the first `warmup` requests prime
//!   caches, memo tables and the connection; only the `measure`
//!   requests after them land in the histogram.
//! * **Latency accounting** — a log-bucketed [`LatencyHistogram`]
//!   (≈3 % bucket resolution) with p50/p99/p999.  Open-loop latencies
//!   are measured from the request's *scheduled* arrival, not the
//!   actual send, so a stalled sender cannot hide queueing delay
//!   (no coordinated omission).
//!
//! * **Regime pools** — [`regime_pool`] / [`drifting_pool`] build the
//!   request pool from `nfm-workloads` regime generators (slow drift,
//!   bursty switches, long memory), the traffic shapes adaptive
//!   thresholds (`nfm-control`) are built for; and callers holding the
//!   engine can [`attach`](ScenarioReport::attach_context_stats) its
//!   [`context_stats`](nfm_serve::Engine::context_stats) so the
//!   [`summary`](ScenarioReport::summary) reports memo hit rates and
//!   controller state next to the latencies.
//!
//! Everything is deterministic given [`Scenario::seed`] — the same
//! blend, lengths and arrival schedule replay exactly; only the
//! measured durations differ run to run.

use nfm_net::{NetClient, NetError, RejectReason, ServerFrame, WireRequest};
use nfm_serve::{CompletionStatus, ContextStats, Priority};
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Vector;
use nfm_workloads::{InputDomain, SequenceGenerator};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Builds a request pool of `count` sequences of `length` steps drawn
/// from a regime generator — the drifting-input scenario knob.  Feed
/// the result to [`Scenario::closed_loop`] / [`Scenario::open_loop`]
/// to offer non-stationary traffic (slow drift, bursty switches, long
/// memory) instead of i.i.d. frames.
pub fn regime_pool(
    domain: InputDomain,
    features: usize,
    count: usize,
    length: usize,
    seed: u64,
) -> Vec<Vec<Vector>> {
    SequenceGenerator::new(domain, features, seed).sequences(count, length)
}

/// [`regime_pool`] over the slow-drift regime
/// ([`InputDomain::drifting`]) — the workload adaptive thresholds are
/// built for.
pub fn drifting_pool(features: usize, count: usize, length: usize, seed: u64) -> Vec<Vec<Vector>> {
    regime_pool(InputDomain::drifting(), features, count, length, seed)
}

/// Log-bucketed latency histogram: 64 power-of-two ranges × 16
/// sub-buckets (≈3 % relative resolution), exact min/max/mean.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: vec![0; 64 * SUB],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros() as usize;
        let sub = ((ns >> (msb as u32 - SUB_BITS)) as usize) & (SUB - 1);
        msb * SUB + sub
    }

    /// Upper bound of the bucket at `index` — the value percentiles
    /// report (conservative: never below the true percentile's bucket).
    fn bucket_upper(index: usize) -> u64 {
        if index < SUB {
            return index as u64;
        }
        let msb = (index / SUB) as u32;
        let sub = (index % SUB) as u64;
        (1u64 << msb) + (sub + 1) * (1u64 << (msb - SUB_BITS)) - 1
    }

    /// Records one latency.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in nanoseconds (`q` in `[0, 1]`); 0 when empty.
    /// Exact at the extremes (min/max), bucket-resolution in between.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min_ns;
        }
        if q >= 1.0 {
            return self.max_ns;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max_ns).max(self.min_ns);
            }
        }
        self.max_ns
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        Duration::from_nanos(self.quantile_ns(0.50))
    }

    /// 99th percentile latency.
    pub fn p99(&self) -> Duration {
        Duration::from_nanos(self.quantile_ns(0.99))
    }

    /// 99.9th percentile latency.
    pub fn p999(&self) -> Duration {
        Duration::from_nanos(self.quantile_ns(0.999))
    }

    /// Smallest recorded latency (zero when empty).
    pub fn min(&self) -> Duration {
        Duration::from_nanos(if self.count == 0 { 0 } else { self.min_ns })
    }

    /// Largest recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }
}

/// One weighted component of a traffic mix.
#[derive(Debug, Clone, PartialEq)]
pub struct BlendEntry {
    /// Relative weight among the scenario's entries (any positive
    /// scale; they are normalized).
    pub weight: f64,
    /// Target model (`None` = the server's default model).
    pub model: Option<String>,
    /// Predictor name override.
    pub predictor: Option<String>,
    /// θ override.
    pub threshold: Option<f32>,
    /// Queue class.
    pub priority: Priority,
    /// Per-request deadline.
    pub deadline: Option<Duration>,
}

impl Default for BlendEntry {
    fn default() -> Self {
        BlendEntry::new(1.0)
    }
}

impl BlendEntry {
    /// An entry with `weight` targeting the default model/predictor at
    /// [`Priority::Normal`] with no deadline or θ override.
    pub fn new(weight: f64) -> BlendEntry {
        BlendEntry {
            weight,
            model: None,
            predictor: None,
            threshold: None,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Targets a named model.
    pub fn model(mut self, model: impl Into<String>) -> Self {
        self.model = Some(model.into());
        self
    }

    /// Selects a named predictor.
    pub fn predictor(mut self, predictor: impl Into<String>) -> Self {
        self.predictor = Some(predictor.into());
        self
    }

    /// Overrides the memoization threshold θ.
    pub fn threshold(mut self, threshold: f32) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Sets the queue class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Attaches a deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// How requests arrive at the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Keep exactly `concurrency` requests in flight; each completion
    /// immediately triggers the next send.
    ClosedLoop {
        /// In-flight window size (≥ 1).
        concurrency: usize,
    },
    /// Memoryless arrivals at `rate_per_sec`: inter-arrival gaps are
    /// `-ln(1-u)/λ`, sends happen on schedule regardless of response
    /// progress (up to `max_in_flight` backpressure).
    OpenLoopPoisson {
        /// Offered load λ in requests per second (> 0).
        rate_per_sec: f64,
        /// Safety valve: past this many outstanding requests the
        /// sender blocks on a response first, so an overloaded server
        /// cannot make the generator's tracking table grow without
        /// bound.  Scheduled arrival times still anchor the latency
        /// clock, so the stall itself is *measured*, not hidden.
        max_in_flight: usize,
    },
}

/// A reproducible traffic scenario against one server address.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Seed for every stochastic choice (blend, sequence, length,
    /// arrival gaps).
    pub seed: u64,
    /// Requests sent before measurement starts (prime memo tables,
    /// branch predictors, the connection).
    pub warmup: usize,
    /// Requests measured after warmup.
    pub measure: usize,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Weighted request mix (must be non-empty, weights > 0).
    pub blend: Vec<BlendEntry>,
    /// Input sequences to draw from (picked uniformly per request).
    pub pool: Vec<Vec<Vector>>,
    /// Ragged-length mix: each request truncates its sequence to a
    /// length sampled from this list (values clamp to the sequence's
    /// own length; `None` = always full length).
    pub ragged_lengths: Option<Vec<usize>>,
}

impl Scenario {
    /// A closed-loop scenario with sensible defaults: weight-1 default
    /// blend, no ragged mix, 1 in flight.
    pub fn closed_loop(pool: Vec<Vec<Vector>>, concurrency: usize) -> Scenario {
        Scenario {
            seed: 0x10AD,
            warmup: 0,
            measure: 64,
            arrival: ArrivalProcess::ClosedLoop { concurrency },
            blend: vec![BlendEntry::new(1.0)],
            pool,
            ragged_lengths: None,
        }
    }

    /// An open-loop Poisson scenario at `rate_per_sec` with a
    /// 1024-request in-flight valve.
    pub fn open_loop(pool: Vec<Vec<Vector>>, rate_per_sec: f64) -> Scenario {
        Scenario {
            seed: 0x10AD,
            warmup: 0,
            measure: 64,
            arrival: ArrivalProcess::OpenLoopPoisson {
                rate_per_sec,
                max_in_flight: 1024,
            },
            blend: vec![BlendEntry::new(1.0)],
            pool,
            ragged_lengths: None,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the warmup request count.
    pub fn warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the measured request count.
    pub fn measure(mut self, measure: usize) -> Self {
        self.measure = measure;
        self
    }

    /// Replaces the request blend.
    pub fn blend(mut self, blend: Vec<BlendEntry>) -> Self {
        self.blend = blend;
        self
    }

    /// Sets the ragged sequence-length mix.
    pub fn ragged_lengths(mut self, lengths: Vec<usize>) -> Self {
        self.ragged_lengths = Some(lengths);
        self
    }
}

/// What a [`run_scenario`] measured.
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    /// Requests sent (warmup + measured).
    pub sent: u64,
    /// Responses with [`CompletionStatus::Done`] in the measure phase.
    pub done: u64,
    /// Responses with [`CompletionStatus::DeadlineExpired`] in the
    /// measure phase.
    pub deadline_expired: u64,
    /// Typed rejects received in the measure phase, by
    /// [`RejectReason`] code.
    pub rejects_by_reason: [u64; RejectReason::ALL.len()],
    /// Latency histogram over measured `Done` responses (scheduled
    /// arrival → response for open loop, send → response for closed
    /// loop).
    pub latency: LatencyHistogram,
    /// Wall-clock time of the measure phase.
    pub elapsed: Duration,
    /// Offered rate for open-loop scenarios (requests/s), `None` for
    /// closed loop.
    pub offered_rate: Option<f64>,
    /// Per-(model, predictor, threshold) engine-side statistics,
    /// attached by the caller via
    /// [`attach_context_stats`](ScenarioReport::attach_context_stats)
    /// when it holds the serving engine (the loadgen itself only sees
    /// the wire).  Rendered by [`summary`](ScenarioReport::summary).
    pub context_stats: Vec<ContextStats>,
}

impl ScenarioReport {
    /// Attaches engine-side per-context statistics
    /// ([`Engine::context_stats`](nfm_serve::Engine::context_stats))
    /// so [`summary`](ScenarioReport::summary) can report memo hit
    /// rates and adaptive-controller state next to the latencies.
    pub fn attach_context_stats(&mut self, stats: Vec<ContextStats>) {
        self.context_stats = stats;
    }
    /// Rejects received for `reason` during the measure phase.
    pub fn rejects(&self, reason: RejectReason) -> u64 {
        self.rejects_by_reason[reason.code() as usize]
    }

    /// Total rejects across reasons during the measure phase.
    pub fn rejects_total(&self) -> u64 {
        self.rejects_by_reason.iter().sum()
    }

    /// Measured completions per second (Done + DeadlineExpired +
    /// rejects, i.e. every answered request).
    pub fn achieved_rate(&self) -> f64 {
        let answered = self.done + self.deadline_expired + self.rejects_total();
        if self.elapsed.is_zero() {
            return 0.0;
        }
        answered as f64 / self.elapsed.as_secs_f64()
    }

    /// Human summary: the one-line latency digest, plus one line per
    /// attached engine context (memo hit rate, and for adaptive
    /// predictors the SLO, the audit-error EWMA and the current
    /// per-layer θ).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "done {} · expired {} · rejected {} · p50 {:?} · p99 {:?} · p999 {:?} · {:.0} req/s",
            self.done,
            self.deadline_expired,
            self.rejects_total(),
            self.latency.p50(),
            self.latency.p99(),
            self.latency.p999(),
            self.achieved_rate(),
        );
        for ctx in &self.context_stats {
            out.push_str(&format!(
                "\n  {}/{} · hit rate {:.1}%",
                ctx.model,
                ctx.predictor,
                ctx.hit_rate() * 100.0
            ));
            if let Some(control) = &ctx.control {
                out.push_str(&format!(" · slo {:.4}", control.slo));
                if let Some(ewma) = control.max_ewma_error() {
                    out.push_str(&format!(" · ewma err {ewma:.4}"));
                }
                let thetas: Vec<String> = control
                    .thresholds()
                    .iter()
                    .map(|t| format!("{t:.3}"))
                    .collect();
                out.push_str(&format!(" · θ [{}]", thetas.join(" ")));
            }
        }
        out
    }
}

/// Per-request bookkeeping between send and response.
struct InFlight {
    /// The latency clock's zero: scheduled arrival (open loop) or send
    /// time (closed loop).
    clock_start: Instant,
    /// Whether this request belongs to the measure phase.
    measured: bool,
}

/// Draws the wire request `n` for `scenario` from forked RNG streams
/// (stable against changes in how the driving loop interleaves draws).
fn draw_request(
    scenario: &Scenario,
    n: u64,
    blend_rng: &mut DeterministicRng,
    shape_rng: &mut DeterministicRng,
    total_weight: f64,
) -> WireRequest {
    // Weighted blend pick.
    let mut pick = blend_rng.uniform(0.0, 1.0) as f64 * total_weight;
    let mut entry = &scenario.blend[scenario.blend.len() - 1];
    for e in &scenario.blend {
        if pick < e.weight {
            entry = e;
            break;
        }
        pick -= e.weight;
    }
    // Sequence + ragged length.
    let seq = &scenario.pool[shape_rng.index(scenario.pool.len())];
    let len = match &scenario.ragged_lengths {
        Some(mix) if !mix.is_empty() => mix[shape_rng.index(mix.len())].clamp(1, seq.len()),
        _ => seq.len(),
    };
    let mut request = WireRequest::new(n, seq[..len].to_vec()).with_priority(entry.priority);
    if let Some(model) = &entry.model {
        request = request.with_model(model.clone());
    }
    if let Some(predictor) = &entry.predictor {
        request = request.with_predictor(predictor.clone());
    }
    if let Some(theta) = entry.threshold {
        request = request.with_threshold(theta);
    }
    if let Some(deadline) = entry.deadline {
        request = request.with_deadline(deadline);
    }
    request
}

/// Records one server frame into the report (measure phase only).
fn account(
    frame: &ServerFrame,
    in_flight: &mut HashMap<u64, InFlight>,
    report: &mut ScenarioReport,
    now: Instant,
) {
    let id = frame.id();
    let Some(fly) = in_flight.remove(&id) else {
        return;
    };
    if !fly.measured {
        return;
    }
    match frame {
        ServerFrame::Response(r) => match r.status {
            CompletionStatus::Done => {
                report.done += 1;
                report
                    .latency
                    .record(now.saturating_duration_since(fly.clock_start));
            }
            CompletionStatus::DeadlineExpired => report.deadline_expired += 1,
            CompletionStatus::Rejected => {
                report.rejects_by_reason[RejectReason::Internal.code() as usize] += 1;
            }
        },
        ServerFrame::Reject(r) => {
            report.rejects_by_reason[r.reason.code() as usize] += 1;
        }
        // The loadgen never sends admin frames, so an ack cannot be
        // meant for one of its in-flight requests; ignore it.
        ServerFrame::AdminOk(_) => {}
    }
}

/// Runs `scenario` against the server at `addr` over one connection and
/// returns the measured report.
///
/// # Errors
///
/// Socket and protocol failures surface as [`NetError`]; a scenario
/// with an empty pool, an empty/weightless blend, zero concurrency or
/// a non-positive rate returns [`NetError::Io`] with
/// [`std::io::ErrorKind::InvalidInput`].
pub fn run_scenario(
    addr: impl std::net::ToSocketAddrs,
    scenario: &Scenario,
) -> Result<ScenarioReport, NetError> {
    let total_weight: f64 = scenario.blend.iter().map(|e| e.weight).sum();
    let invalid = |what: &str| {
        NetError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            what.to_string(),
        ))
    };
    if scenario.pool.is_empty() {
        return Err(invalid("scenario pool is empty"));
    }
    let positive = |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
    if scenario.blend.is_empty() || !positive(total_weight) {
        return Err(invalid("scenario blend needs positive total weight"));
    }
    match scenario.arrival {
        ArrivalProcess::ClosedLoop { concurrency: 0 } => {
            return Err(invalid("closed loop needs concurrency >= 1"))
        }
        ArrivalProcess::OpenLoopPoisson { rate_per_sec, .. } if !positive(rate_per_sec) => {
            return Err(invalid("open loop needs a positive rate"))
        }
        _ => {}
    }

    let mut root = DeterministicRng::seed_from_u64(scenario.seed);
    let mut blend_rng = root.fork(1);
    let mut shape_rng = root.fork(2);
    let mut arrival_rng = root.fork(3);

    let mut client = NetClient::connect(addr)?;
    let total = (scenario.warmup + scenario.measure) as u64;
    let mut report = ScenarioReport {
        sent: 0,
        done: 0,
        deadline_expired: 0,
        rejects_by_reason: [0; RejectReason::ALL.len()],
        latency: LatencyHistogram::new(),
        elapsed: Duration::ZERO,
        context_stats: Vec::new(),
        offered_rate: match scenario.arrival {
            ArrivalProcess::OpenLoopPoisson { rate_per_sec, .. } => Some(rate_per_sec),
            ArrivalProcess::ClosedLoop { .. } => None,
        },
    };
    let mut in_flight: HashMap<u64, InFlight> = HashMap::new();
    let mut measure_started_at: Option<Instant> = None;
    let mut next_id = 0u64;
    let warmup = scenario.warmup as u64;

    let mut send_next = |client: &mut NetClient,
                         in_flight: &mut HashMap<u64, InFlight>,
                         report: &mut ScenarioReport,
                         blend_rng: &mut DeterministicRng,
                         shape_rng: &mut DeterministicRng,
                         measure_started_at: &mut Option<Instant>,
                         clock_start: Instant|
     -> Result<(), NetError> {
        let id = next_id;
        next_id += 1;
        let measured = id >= warmup;
        if measured && measure_started_at.is_none() {
            *measure_started_at = Some(Instant::now());
        }
        let request = draw_request(scenario, id, blend_rng, shape_rng, total_weight);
        in_flight.insert(
            id,
            InFlight {
                clock_start,
                measured,
            },
        );
        client.send(&request)?;
        report.sent += 1;
        Ok(())
    };

    match scenario.arrival {
        ArrivalProcess::ClosedLoop { concurrency } => {
            // Prime the window, then lock-step: one completion, one send.
            while report.sent < total.min(concurrency as u64) {
                send_next(
                    &mut client,
                    &mut in_flight,
                    &mut report,
                    &mut blend_rng,
                    &mut shape_rng,
                    &mut measure_started_at,
                    Instant::now(),
                )?;
            }
            while !in_flight.is_empty() {
                let frame = client.recv()?;
                account(&frame, &mut in_flight, &mut report, Instant::now());
                if report.sent < total {
                    send_next(
                        &mut client,
                        &mut in_flight,
                        &mut report,
                        &mut blend_rng,
                        &mut shape_rng,
                        &mut measure_started_at,
                        Instant::now(),
                    )?;
                }
            }
        }
        ArrivalProcess::OpenLoopPoisson {
            rate_per_sec,
            max_in_flight,
        } => {
            let start = Instant::now();
            let mut next_arrival = Duration::ZERO;
            while report.sent < total {
                // Exponential gap; 1-u keeps ln's argument in (0, 1].
                let u = arrival_rng.uniform(0.0, 1.0) as f64;
                let gap = -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate_per_sec;
                let scheduled = start + next_arrival;
                next_arrival += Duration::from_secs_f64(gap);
                // Drain responses while waiting for the scheduled slot.
                loop {
                    match client.try_recv()? {
                        Some(frame) => account(&frame, &mut in_flight, &mut report, Instant::now()),
                        None => {
                            let now = Instant::now();
                            if now >= scheduled {
                                break;
                            }
                            std::thread::sleep((scheduled - now).min(Duration::from_micros(200)));
                        }
                    }
                }
                // The in-flight valve: block on responses rather than
                // grow without bound (the stall stays measured because
                // the clock anchors at `scheduled`).
                while in_flight.len() >= max_in_flight.max(1) {
                    let frame = client.recv()?;
                    account(&frame, &mut in_flight, &mut report, Instant::now());
                }
                send_next(
                    &mut client,
                    &mut in_flight,
                    &mut report,
                    &mut blend_rng,
                    &mut shape_rng,
                    &mut measure_started_at,
                    scheduled,
                )?;
            }
            while !in_flight.is_empty() {
                let frame = client.recv()?;
                account(&frame, &mut in_flight, &mut report, Instant::now());
            }
        }
    }

    report.elapsed = measure_started_at.map(|t| t.elapsed()).unwrap_or_default();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_micros(i));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.p50().as_micros() as f64;
        let p99 = h.p99().as_micros() as f64;
        let p999 = h.p999().as_micros() as f64;
        // Log buckets are conservative: upper bound of the right
        // bucket, so within ~7% above the true percentile.
        assert!((500.0..=540.0).contains(&p50), "p50={p50}");
        assert!((990.0..=1000.0).contains(&p99), "p99={p99}");
        assert!((999.0..=1000.0).contains(&p999), "p999={p999}");
        assert_eq!(h.min(), Duration::from_micros(1));
        assert_eq!(h.max(), Duration::from_micros(1000));
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(7));
        assert_eq!(h.p50(), Duration::from_nanos(7));
        assert_eq!(h.p999(), Duration::from_nanos(7));
    }

    #[test]
    fn blend_draws_are_seed_deterministic_and_weighted() {
        let pool = vec![vec![Vector::zeros(3); 8]];
        let scenario = Scenario::closed_loop(pool, 1).seed(42).blend(vec![
            BlendEntry::new(3.0).model("hot"),
            BlendEntry::new(1.0).model("cold").threshold(0.5),
        ]);
        let total: f64 = scenario.blend.iter().map(|e| e.weight).sum();
        let draw_all = || {
            let mut root = DeterministicRng::seed_from_u64(scenario.seed);
            let mut blend = root.fork(1);
            let mut shape = root.fork(2);
            (0..400u64)
                .map(|n| draw_request(&scenario, n, &mut blend, &mut shape, total))
                .collect::<Vec<_>>()
        };
        let a = draw_all();
        let b = draw_all();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.model, y.model);
            assert_eq!(x.threshold, y.threshold);
            assert_eq!(x.sequence.len(), y.sequence.len());
        }
        let hot = a
            .iter()
            .filter(|r| r.model.as_deref() == Some("hot"))
            .count();
        // 3:1 mix over 400 draws → ~300 hot; wide tolerance, zero flake.
        assert!((220..=380).contains(&hot), "hot={hot}");
    }

    #[test]
    fn regime_pools_are_seed_deterministic() {
        let a = drifting_pool(4, 3, 10, 77);
        let b = regime_pool(InputDomain::drifting(), 4, 3, 10, 77);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|s| s.len() == 10 && s[0].len() == 4));
        for (x, y) in a.iter().zip(&b) {
            for (u, v) in x.iter().zip(y) {
                assert_eq!(u.as_slice(), v.as_slice());
            }
        }
        let c = drifting_pool(4, 3, 10, 78);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.iter().zip(y).any(|(u, v)| u.as_slice() != v.as_slice())),
            "different seeds should draw different pools"
        );
    }

    #[test]
    fn summary_renders_attached_context_stats() {
        use nfm_core::{ControlSnapshot, LayerControl, ReuseStats};
        let mut report = ScenarioReport::default();
        let mut stats = ReuseStats::new();
        stats.record_reused_many(3);
        stats.record_computed();
        report.attach_context_stats(vec![ContextStats {
            model: "default".into(),
            version: 1,
            predictor: "adaptive".to_string(),
            stats,
            control: Some(ControlSnapshot {
                slo: 0.05,
                layers: vec![LayerControl {
                    threshold: 0.25,
                    ewma_error: Some(0.04),
                    hits: 3,
                    audited: 1,
                    error_sum: 0.04,
                }],
            }),
        }]);
        let text = report.summary();
        assert!(text.contains("default/adaptive"), "{text}");
        assert!(text.contains("hit rate 75.0%"), "{text}");
        assert!(text.contains("slo 0.0500"), "{text}");
        assert!(text.contains("ewma err 0.0400"), "{text}");
        assert!(text.contains("θ [0.250]"), "{text}");
    }

    #[test]
    fn ragged_lengths_clamp_to_sequence() {
        let pool = vec![vec![Vector::zeros(2); 6]];
        let scenario = Scenario::closed_loop(pool, 1)
            .seed(7)
            .ragged_lengths(vec![2, 4, 64]);
        let total: f64 = scenario.blend.iter().map(|e| e.weight).sum();
        let mut root = DeterministicRng::seed_from_u64(scenario.seed);
        let mut blend = root.fork(1);
        let mut shape = root.fork(2);
        for n in 0..64 {
            let r = draw_request(&scenario, n, &mut blend, &mut shape, total);
            assert!(matches!(r.sequence.len(), 2 | 4 | 6));
        }
    }

    #[test]
    fn poisson_gaps_match_rate_on_average() {
        let mut rng = DeterministicRng::seed_from_u64(99);
        let rate = 10_000.0;
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.uniform(0.0, 1.0) as f64;
            sum += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate;
        }
        let mean_gap = sum / n as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean_gap - expected).abs() < expected * 0.05,
            "mean gap {mean_gap} vs {expected}"
        );
    }
}
