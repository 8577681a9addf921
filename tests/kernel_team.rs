//! Engine workers and their kernel teams.
//!
//! Each engine worker installs a kernel team of `max(1, CPUs in its
//! affinity mask / workers)` threads, whose helpers take a share of the
//! rows of every product of at least `SPLIT_MIN_WORK`.  Three contracts:
//!
//! 1. **Equivalence** — a worker with a two-thread team answers a
//!    DeepSpeech2-shaped model (gates above the cutoff) with outputs and
//!    reuse statistics bit-identical to `Predictor::run`, exact and
//!    memoized.
//! 2. **Lifecycle** — team helpers are parked while the engine idles
//!    and none outlives `Engine::shutdown` or a dropped engine.
//! 3. **Panics** — a panic inside a helper's range reaches the worker,
//!    which answers the affected requests `Rejected`, records the panic
//!    in `last_error` and keeps serving; `drain` returns.
//!
//! A two-thread team needs two CPUs: each test restricts its own thread,
//! and so the engine it builds, to the first two it may run on.  On a
//! single-CPU host the team is one thread and the checks that need a
//! helper say so and stop.  The tests take one lock, so the thread
//! counts of one never see the helpers of another.

use nfm::memo::{BnnMemoConfig, Model, ReuseStats, ServedEvaluator};
use nfm::rnn::{GateBatch, NeuronEvaluator, Result as RnnResult};
use nfm::serve::{
    CompletionStatus, Engine, EngineBuilder, InferenceRequest, Predictor, PredictorKind,
};
use nfm::tensor::kernels::team::{split_rows, SPLIT_MIN_WORK};
use nfm::tensor::Vector;
use nfm::workloads::{NetworkId, Workload, WorkloadBuilder};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

const LANES: usize = 8;

/// Two layers of the DeepSpeech2-0.5 GRU (400 neurons): every recurrent
/// product at eight lanes (400 × 400 × 8) and every hoist is above the
/// cutoff; the ninth sequence runs on its own lane at the end.
fn ds2() -> Workload {
    WorkloadBuilder::new(NetworkId::DeepSpeech2)
        .scale(0.5)
        .layers(2)
        .sequences(9)
        .sequence_length(9)
        .seed(29)
        .build()
        .expect("workload builds")
}

/// Restricts the calling thread, and the threads it spawns from now on,
/// to the first two CPUs it may run on.  Returns whether it could.
#[cfg(target_os = "linux")]
fn pin_to_two_cpus() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let mut two = [0u64; 16];
    let cpus = (0..64 * mask.len()).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1);
    for cpu in cpus.take(2) {
        two[cpu / 64] |= 1 << (cpu % 64);
    }
    let kept: u32 = two.iter().map(|w| w.count_ones()).sum();
    // SAFETY: as above; the call changes nothing but this thread's CPUs.
    kept == 2 && unsafe { sched_setaffinity(0, std::mem::size_of_val(&two), two.as_ptr()) } == 0
}

#[cfg(not(target_os = "linux"))]
fn pin_to_two_cpus() -> bool {
    false
}

/// A paused one-worker engine with `workload`'s requests queued.
fn queued_engine(workload: &Workload, predictor: impl Predictor + 'static) -> Engine {
    let engine = EngineBuilder::new(workload.model().clone(), predictor)
        .lanes(LANES)
        .workers(1)
        .queue_capacity(workload.sequences().len())
        .start_paused()
        .build()
        .expect("engine builds");
    for (i, seq) in workload.sequences().iter().enumerate() {
        engine
            .submit(InferenceRequest::new(i as u64, seq.clone()))
            .expect("submit");
    }
    engine
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

#[test]
fn a_worker_team_answers_bit_identically_to_predictor_run() {
    let _one = serial();
    let pinned = pin_to_two_cpus();
    let workload = ds2();
    let gate = workload.network().layers()[0].forward_cell().hidden_size();
    assert!(
        gate * gate * LANES >= SPLIT_MIN_WORK,
        "the recurrent gate splits"
    );
    for (name, predictor) in [
        ("exact", PredictorKind::Exact),
        (
            "bnn θ=0.1",
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.1)),
        ),
    ] {
        let engine = queued_engine(&workload, predictor);
        let mut responses = engine.drain();
        #[cfg(target_os = "linux")]
        if pinned {
            assert_eq!(team_helpers().len(), 1, "one worker on two CPUs");
        }
        responses.sort_by_key(|r| r.id);
        assert_eq!(responses.len(), workload.sequences().len(), "{name}");
        let mut total = ReuseStats::new();
        for (i, (r, seq)) in responses.iter().zip(workload.sequences()).enumerate() {
            let alone = predictor
                .run(workload.model(), std::slice::from_ref(seq))
                .unwrap();
            assert_eq!(r.status, CompletionStatus::Done, "{name} seq {i}");
            assert_bits(&format!("{name} seq {i}"), &r.outputs, &alone.outputs[0]);
            assert_eq!(r.stats, alone.stats, "{name} seq {i}: reuse statistics");
            total.merge(&r.stats);
        }
        let context = &engine.context_stats()[0];
        assert_eq!(context.stats, total, "{name}: the context's counters");
        engine.shutdown();
    }
}

/// The kernel team helpers of this process, with their scheduler state
/// (`R`unning, `S`leeping, …).
#[cfg(target_os = "linux")]
fn team_helpers() -> Vec<char> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("task list");
    tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
            // The state follows the parenthesised name.
            let state = stat.rsplit_once(") ")?.1.chars().next()?;
            name.starts_with("nfm-team-").then_some(state)
        })
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn team_helpers_park_when_idle_and_never_outlive_the_engine() {
    let _one = serial();
    let helpers = usize::from(pin_to_two_cpus());
    let workload = ds2();
    assert!(team_helpers().is_empty(), "no team before any engine");
    // One engine shut down, one dropped.
    for shut_down in [true, false] {
        let engine = queued_engine(&workload, PredictorKind::Exact);
        assert_eq!(engine.drain().len(), workload.sequences().len());
        assert_eq!(team_helpers().len(), helpers, "helpers while serving");
        // An idle engine's helpers stop spinning and park.
        let give_up = Instant::now() + Duration::from_secs(10);
        while team_helpers().iter().any(|&state| state != 'S') {
            assert!(Instant::now() < give_up, "idle helpers still running");
            std::thread::sleep(Duration::from_millis(5));
        }
        if shut_down {
            engine.shutdown();
        } else {
            drop(engine);
        }
        assert!(team_helpers().is_empty(), "helpers outlived the engine");
    }
}

/// A policy whose evaluator panics inside every kernel team helper's
/// range of its first gate call, then evaluates exactly.
#[derive(Debug)]
struct PanicsInAHelper;

struct PanickingEvaluator {
    exact: Box<dyn ServedEvaluator>,
    armed: bool,
}

impl NeuronEvaluator for PanickingEvaluator {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        if std::mem::take(&mut self.armed) {
            split_rows(call.gate.neurons(), usize::MAX, &|rows| {
                assert!(
                    rows.start == 0,
                    "injected panic in a helper's rows {rows:?}"
                );
            });
        }
        self.exact.evaluate_gate_batch(call, out)
    }

    fn begin_batch(&mut self, lanes: usize) {
        self.exact.begin_batch(lanes)
    }
}

impl ServedEvaluator for PanickingEvaluator {}

impl Predictor for PanicsInAHelper {
    fn name(&self) -> &str {
        "panics-in-a-helper"
    }

    fn build_evaluator(&self, model: &Model) -> Box<dyn ServedEvaluator> {
        Box::new(PanickingEvaluator {
            exact: PredictorKind::Exact.build_evaluator(model),
            armed: true,
        })
    }
}

#[test]
fn a_panic_in_a_team_helper_rejects_its_requests_without_hanging_drain() {
    let _one = serial();
    if !pin_to_two_cpus() {
        eprintln!("single CPU: the team has no helper to panic in");
        return;
    }
    let workload = ds2();
    let engine = queued_engine(&workload, PanicsInAHelper);
    let responses = engine.drain();
    assert_eq!(
        responses.len(),
        workload.sequences().len(),
        "every request answered"
    );
    let rejected = responses
        .iter()
        .filter(|r| r.status == CompletionStatus::Rejected)
        .count();
    assert!(
        rejected > 0,
        "the requests on the panicking step are rejected"
    );
    let error = engine.last_error().expect("the panic is recorded");
    assert!(error.contains("injected panic in a helper"), "{error}");
    // The worker and its team keep serving (the evaluator panics once).
    engine
        .submit(InferenceRequest::new(99, workload.sequences()[0].clone()))
        .unwrap();
    let again = engine.drain();
    assert_eq!(again.len(), 1);
    assert_eq!(
        again[0].status,
        CompletionStatus::Done,
        "served after the panic"
    );
    drop(engine);
    #[cfg(target_os = "linux")]
    assert!(team_helpers().is_empty(), "helpers outlived the engine");
}
