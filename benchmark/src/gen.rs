//! The benchmark's own load generator: seeded inputs, arrival schedules
//! and the open- and closed-loop drivers.  Nothing here depends on how
//! the program under test generates or paces load.

use nfm_net::{ServerFrame, WireRequest};
use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, and owned by the benchmark so a change to
/// the repo's own generators cannot move the schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `count` lengths spread evenly over `lo..=hi`, in seeded order.  The
/// multiset is the same for every seed, so the work in a round does not
/// vary with the seed; only which input gets which length does.
pub fn spread_lengths(lo: usize, hi: usize, count: usize, rng: &mut Rng) -> Vec<usize> {
    let mut lengths: Vec<usize> = (0..count)
        .map(|i| {
            if count == 1 {
                (lo + hi) / 2
            } else {
                lo + (i * (hi - lo) + (count - 1) / 2) / (count - 1)
            }
        })
        .collect();
    rng.shuffle(&mut lengths);
    lengths
}

/// `count` lengths cycling through `choices` in equal shares, in seeded
/// order.
pub fn cycled_lengths(choices: &[usize], count: usize, rng: &mut Rng) -> Vec<usize> {
    let mut lengths: Vec<usize> = (0..count).map(|i| choices[i % choices.len()]).collect();
    rng.shuffle(&mut lengths);
    lengths
}

/// Send offsets, in ns from the phase start, of `count` Poisson arrivals
/// at `rate` per second: exponential gaps, drawn from `seed` alone.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0xA11C_E5ED);
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += -rng.next_unit().ln() / rate * 1e9;
            at as u64
        })
        .collect()
}

/// What the drivers need from a connection.  The timed phases run over
/// `nfm_net::NetClient`; traced phases over the benchmark's own
/// span-recording client.
pub trait Wire {
    fn send(&mut self, request: &WireRequest) -> Result<(), String>;
    /// Blocks for the next server frame.
    fn recv(&mut self) -> Result<ServerFrame, String>;
    /// Returns the next server frame if one has fully arrived.
    fn try_recv(&mut self) -> Result<Option<ServerFrame>, String>;
}

impl Wire for nfm_net::NetClient {
    fn send(&mut self, request: &WireRequest) -> Result<(), String> {
        nfm_net::NetClient::send(self, request).map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<ServerFrame, String> {
        nfm_net::NetClient::recv(self).map_err(|e| format!("recv: {e}"))
    }

    fn try_recv(&mut self) -> Result<Option<ServerFrame>, String> {
        nfm_net::NetClient::try_recv(self).map_err(|e| format!("try_recv: {e}"))
    }
}

/// One server frame and when the generator saw it, in ns from `origin`.
#[derive(Debug)]
pub struct Arrival {
    pub recv_ns: u64,
    pub frame: ServerFrame,
}

/// Everything a driver observed.  Request `k` carries wire id `k`; its
/// times sit at index `k` of `due_ns` and `sent_ns`.
#[derive(Debug)]
pub struct Outcome {
    /// The phase start every time below counts from.
    pub origin: Instant,
    /// When each request was due, ns from the phase start.  In a closed
    /// loop a request is due the moment its slot frees, so this equals
    /// `sent_ns`.
    pub due_ns: Vec<u64>,
    /// When the generator began sending each request.
    pub sent_ns: Vec<u64>,
    pub arrivals: Vec<Arrival>,
    /// Requests in flight when half of the sends were out, and when the
    /// last one went out: a backlog that grows between the two means the
    /// rate is not sustained.
    pub backlog_mid: usize,
    pub backlog_end: usize,
}

impl Outcome {
    fn starting_now(capacity: usize) -> Outcome {
        Outcome {
            origin: Instant::now(),
            due_ns: Vec::with_capacity(capacity),
            sent_ns: Vec::with_capacity(capacity),
            arrivals: Vec::with_capacity(capacity),
            backlog_mid: 0,
            backlog_end: 0,
        }
    }

    pub fn sent(&self) -> usize {
        self.sent_ns.len()
    }

    pub fn backlog_grew(&self) -> bool {
        self.backlog_end > 2 * self.backlog_mid + 8
    }
}

/// How long a driver waits for outstanding responses after its last
/// send before it counts them as missing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// The generator polls for responses in steps of at most this while no
/// send is due.  It sleeps rather than spins: on a small host a spinning
/// generator takes a core from the server it is measuring.
const POLL_SLEEP: Duration = Duration::from_micros(50);

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Open loop: request `k` is sent at `schedule_ns[k]` whether or not
/// earlier ones were answered.  `pick(k)` names the pool entry it
/// carries.
pub fn run_open(
    wire: &mut dyn Wire,
    pool: &mut [WireRequest],
    pick: &dyn Fn(u64) -> usize,
    schedule_ns: &[u64],
) -> Result<Outcome, String> {
    let total = schedule_ns.len();
    let mut out = Outcome::starting_now(total);
    out.due_ns.extend_from_slice(schedule_ns);
    let origin = out.origin;
    let mut next = 0usize;
    let mut drain_started: Option<Instant> = None;
    while out.arrivals.len() < total {
        while let Some(frame) = wire.try_recv()? {
            out.arrivals.push(Arrival {
                recv_ns: ns_since(origin),
                frame,
            });
        }
        if next < total {
            let now = ns_since(origin);
            if now >= schedule_ns[next] {
                let request = &mut pool[pick(next as u64)];
                request.id = next as u64;
                out.sent_ns.push(now);
                wire.send(request)?;
                next += 1;
                let in_flight = next - out.arrivals.len();
                if next == total / 2 {
                    out.backlog_mid = in_flight;
                }
                if next == total {
                    out.backlog_end = in_flight;
                    drain_started = Some(Instant::now());
                }
            } else {
                std::thread::sleep(POLL_SLEEP.min(Duration::from_nanos(schedule_ns[next] - now)));
            }
        } else {
            if drain_started.is_some_and(|t| t.elapsed() > DRAIN_TIMEOUT) {
                break;
            }
            std::thread::sleep(POLL_SLEEP);
        }
    }
    Ok(out)
}

/// When a closed loop stops issuing new requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    AfterRequests(usize),
    AfterTime(Duration),
}

/// Closed loop: `window` requests in flight; each response frees a slot
/// for the next request.
pub fn run_closed(
    wire: &mut dyn Wire,
    pool: &mut [WireRequest],
    pick: &dyn Fn(u64) -> usize,
    window: usize,
    stop: Stop,
) -> Result<Outcome, String> {
    let mut out = Outcome::starting_now(0);
    let origin = out.origin;
    let more = |sent: usize| match stop {
        Stop::AfterRequests(n) => sent < n,
        Stop::AfterTime(d) => origin.elapsed() < d,
    };
    loop {
        while out.sent() - out.arrivals.len() < window && more(out.sent()) {
            let k = out.sent() as u64;
            let request = &mut pool[pick(k)];
            request.id = k;
            let now = ns_since(origin);
            out.due_ns.push(now);
            out.sent_ns.push(now);
            wire.send(request)?;
        }
        if out.arrivals.len() == out.sent() {
            break;
        }
        let frame = wire.recv()?;
        out.arrivals.push(Arrival {
            recv_ns: ns_since(origin),
            frame,
        });
    }
    out.backlog_mid = window.min(out.sent());
    out.backlog_end = out.backlog_mid;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_per_seed_and_differs_across_seeds() {
        let a = poisson_schedule(5, 1500.0, 4000);
        let b = poisson_schedule(5, 1500.0, 4000);
        let c = poisson_schedule(29, 1500.0, 4000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate_and_exponential_gaps() {
        let s = poisson_schedule(5, 2000.0, 20_000);
        let seconds = *s.last().unwrap() as f64 / 1e9;
        let rate = s.len() as f64 / seconds;
        assert!((rate - 2000.0).abs() < 60.0, "rate {rate}");
        // For exponential gaps the share below the mean is 1 - 1/e.
        let mean_gap = 1e9 / 2000.0;
        let short = s
            .windows(2)
            .filter(|w| ((w[1] - w[0]) as f64) < mean_gap)
            .count() as f64
            / (s.len() - 1) as f64;
        assert!((short - 0.632).abs() < 0.02, "share below mean {short}");
    }

    #[test]
    fn lengths_keep_the_same_multiset_for_every_seed() {
        let mut a = spread_lengths(32, 96, 48, &mut Rng::new(5));
        let mut b = spread_lengths(32, 96, 48, &mut Rng::new(29));
        assert_ne!(a, b, "order depends on the seed");
        assert_eq!(a.iter().min(), Some(&32));
        assert_eq!(a.iter().max(), Some(&96));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(a.iter().sum::<usize>(), 48 * 64);

        let mut c = cycled_lengths(&[8, 16, 24], 300, &mut Rng::new(5));
        c.sort_unstable();
        assert_eq!(c.iter().filter(|&&l| l == 16).count(), 100);
        assert_eq!(spread_lengths(10, 20, 1, &mut Rng::new(1)), vec![15]);
    }

    /// A wire that answers every request after `delay` sends, so the
    /// drivers' bookkeeping can be checked without a socket.
    struct EchoWire {
        queued: std::collections::VecDeque<u64>,
        sent: Vec<u64>,
    }

    impl EchoWire {
        fn frame(id: u64) -> ServerFrame {
            ServerFrame::Reject(nfm_net::WireReject::new(
                id,
                nfm_net::RejectReason::ALL[0],
                "echo",
            ))
        }
    }

    impl Wire for EchoWire {
        fn send(&mut self, request: &WireRequest) -> Result<(), String> {
            self.sent.push(request.id);
            self.queued.push_back(request.id);
            Ok(())
        }

        fn recv(&mut self) -> Result<ServerFrame, String> {
            self.queued
                .pop_front()
                .map(EchoWire::frame)
                .ok_or_else(|| "nothing in flight".to_string())
        }

        fn try_recv(&mut self) -> Result<Option<ServerFrame>, String> {
            Ok(self.queued.pop_front().map(EchoWire::frame))
        }
    }

    fn pool() -> Vec<WireRequest> {
        (0..3)
            .map(|_| WireRequest::new(0, vec![nfm_tensor::Vector::zeros(1)]))
            .collect()
    }

    #[test]
    fn open_loop_sends_every_request_on_schedule_and_collects_every_answer() {
        let mut wire = EchoWire {
            queued: Default::default(),
            sent: Vec::new(),
        };
        let schedule = poisson_schedule(3, 20_000.0, 200);
        let out = run_open(&mut wire, &mut pool(), &|k| (k % 3) as usize, &schedule).unwrap();
        assert_eq!(wire.sent, (0..200).collect::<Vec<u64>>());
        assert_eq!((out.sent(), out.arrivals.len()), (200, 200));
        for k in 0..200 {
            assert!(out.sent_ns[k] >= out.due_ns[k], "request {k} left early");
        }
        assert!(!out.backlog_grew());
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_stops_at_the_count() {
        let mut wire = EchoWire {
            queued: Default::default(),
            sent: Vec::new(),
        };
        let out = run_closed(
            &mut wire,
            &mut pool(),
            &|k| (k % 3) as usize,
            4,
            Stop::AfterRequests(50),
        )
        .unwrap();
        assert_eq!((out.sent(), out.arrivals.len()), (50, 50));
        assert_eq!(wire.sent, (0..50).collect::<Vec<u64>>());
        let ids: Vec<u64> = out.arrivals.iter().map(|a| a.frame.id()).collect();
        assert_eq!(ids, (0..50).collect::<Vec<u64>>());
    }
}
