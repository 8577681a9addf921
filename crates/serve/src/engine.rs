//! The serving engine: a bounded, priority-aware submission queue in
//! front of worker threads that each drive per-model lane schedulers.

use crate::registry::{ContextKey, ModelId, ModelRegistry, ModelVersion};
use crate::request::{CompletionStatus, InferenceRequest, InferenceResponse, Priority, RequestId};
use crate::worker::{LaneWorker, QueuedRequest, ResponseTag};
use nfm_core::{ControlSnapshot, Model, Predictor, ReuseStats};
use nfm_model::ModelArtifactError;
use nfm_rnn::RnnError;
use nfm_tensor::Vector;
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// The model id [`EngineBuilder::new`] registers its single network
/// under — the single-model API is sugar for a one-entry registry.
pub const DEFAULT_MODEL: &str = "default";

/// Errors surfaced by [`EngineBuilder::build`],
/// [`Engine::submit`] and [`ModelRegistry`] registration.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The builder was configured outside the accepted ranges (all
    /// three knobs accept `1..`): the engine refuses degenerate
    /// configurations instead of silently clamping them.
    InvalidConfig {
        /// Which constraint was violated.
        what: String,
    },
    /// The submission queue is at capacity — backpressure.  Retry after
    /// draining some responses, or build the engine with a larger
    /// [`queue_capacity`](EngineBuilder::queue_capacity).
    QueueFull {
        /// The configured capacity that is currently exhausted.
        capacity: usize,
    },
    /// The request's sequence is empty.
    EmptySequence {
        /// The offending request.
        id: RequestId,
    },
    /// A sequence element does not match the targeted model's input
    /// width.
    InputSizeMismatch {
        /// The offending request.
        id: RequestId,
        /// Width the targeted model's network expects.
        expected: usize,
        /// Width found.
        found: usize,
        /// Index of the offending element.
        timestep: usize,
    },
    /// The request names a model that is not registered.
    UnknownModel {
        /// The id that failed to resolve.
        model: ModelId,
    },
    /// The request names a predictor that is not registered for its
    /// model.
    UnknownPredictor {
        /// The model the lookup ran against.
        model: ModelId,
        /// The predictor name that failed to resolve.
        predictor: String,
    },
    /// The request overrides the threshold of a predictor that accepts
    /// no override (the exact baseline, the adaptive predictor, custom
    /// predictors that leave
    /// [`Predictor::accepts_threshold_override`]
    /// at its default).
    ThresholdUnsupported {
        /// The model the request targeted.
        model: ModelId,
        /// The predictor without a threshold.
        predictor: String,
    },
    /// A model id was registered twice.
    DuplicateModel {
        /// The contested id.
        model: ModelId,
    },
    /// A predictor name was registered twice for the same model.
    DuplicatePredictor {
        /// The model the registration ran against.
        model: ModelId,
        /// The contested predictor name.
        predictor: String,
    },
    /// The registry holds no models, so there is nothing to serve (and
    /// no default model to resolve requests against).
    EmptyRegistry,
    /// A hot swap is already staged for this model; resolve it
    /// (promotion, rollback or eviction) before staging another.
    SwapInProgress {
        /// The model with a pending swap.
        model: ModelId,
    },
    /// Evicting this model would leave the registry empty; an engine
    /// cannot serve without a default model.
    CannotEvictLast {
        /// The model that was not evicted.
        model: ModelId,
    },
    /// A model artifact could not be loaded (converted from
    /// [`ModelArtifactError`], which has the failure taxonomy).
    BadArtifact {
        /// The underlying artifact error, rendered.
        what: String,
    },
    /// The engine has been shut down and accepts no further work.
    ShutDown,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig { what } => write!(f, "invalid engine config: {what}"),
            EngineError::QueueFull { capacity } => {
                write!(
                    f,
                    "submission queue full (capacity {capacity}); backpressure"
                )
            }
            EngineError::EmptySequence { id } => {
                write!(f, "request {id} has an empty sequence")
            }
            EngineError::InputSizeMismatch {
                id,
                expected,
                found,
                timestep,
            } => write!(
                f,
                "request {id}: element {timestep} has width {found}, network expects {expected}"
            ),
            EngineError::UnknownModel { model } => {
                write!(f, "no model registered under id {model:?}")
            }
            EngineError::UnknownPredictor { model, predictor } => {
                write!(f, "model {model:?} has no predictor named {predictor:?}")
            }
            EngineError::ThresholdUnsupported { model, predictor } => write!(
                f,
                "predictor {predictor:?} of model {model:?} has no threshold to override"
            ),
            EngineError::DuplicateModel { model } => {
                write!(f, "model id {model:?} is already registered")
            }
            EngineError::DuplicatePredictor { model, predictor } => write!(
                f,
                "model {model:?} already has a predictor named {predictor:?}"
            ),
            EngineError::EmptyRegistry => {
                write!(f, "the model registry is empty; register a model first")
            }
            EngineError::SwapInProgress { model } => {
                write!(f, "model {model:?} already has a hot swap staged")
            }
            EngineError::CannotEvictLast { model } => {
                write!(f, "cannot evict {model:?}: it is the last registered model")
            }
            EngineError::BadArtifact { what } => write!(f, "bad model artifact: {what}"),
            EngineError::ShutDown => write!(f, "engine is shut down"),
        }
    }
}

impl Error for EngineError {}

impl From<ModelArtifactError> for EngineError {
    fn from(e: ModelArtifactError) -> EngineError {
        EngineError::BadArtifact {
            what: e.to_string(),
        }
    }
}

impl From<EngineError> for RnnError {
    fn from(e: EngineError) -> RnnError {
        match e {
            EngineError::EmptySequence { .. } => RnnError::EmptySequence,
            EngineError::InputSizeMismatch {
                expected,
                found,
                timestep,
                ..
            } => RnnError::InputSizeMismatch {
                expected,
                found,
                timestep,
            },
            other => RnnError::InvalidConfig {
                what: other.to_string(),
            },
        }
    }
}

/// Which live requests a staged hot swap canaries on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CanaryRule {
    /// Route this fraction (`(0, 1]`) of the model's traffic to the
    /// staged version.  Routing is a deterministic proportional
    /// counter, not sampling: over any window the canary share tracks
    /// the fraction exactly.
    Fraction(f32),
    /// Route exactly this priority class to the staged version.
    Priority(Priority),
}

/// How a hot swap canaries and when it decides.
///
/// Every canaried request runs **twice**: once on the staged version
/// (the response the caller sees) and once on the incumbent (a shadow,
/// suppressed from the response stream but compared output-by-output).
/// The swap promotes after [`min_requests`](CanaryConfig::min_requests)
/// comparisons stay within [`tolerance`](CanaryConfig::tolerance), and
/// rolls back on the first comparison that exceeds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanaryConfig {
    /// Which requests canary.
    pub rule: CanaryRule,
    /// Completed canary/incumbent comparisons required to promote
    /// (`>= 1`).
    pub min_requests: u64,
    /// Largest tolerated absolute output difference between the staged
    /// and incumbent versions.  `0.0` demands bit-identical outputs —
    /// right for weight-preserving swaps (artifact reloads); widen it
    /// for genuinely retrained weights.
    pub tolerance: f32,
}

impl CanaryConfig {
    /// Canary `fraction` of the model's traffic, promote after 8 clean
    /// comparisons at zero tolerance.
    pub fn fraction(fraction: f32) -> Self {
        CanaryConfig {
            rule: CanaryRule::Fraction(fraction),
            min_requests: 8,
            tolerance: 0.0,
        }
    }

    /// Canary exactly one priority class, promote after 8 clean
    /// comparisons at zero tolerance.
    pub fn priority(priority: Priority) -> Self {
        CanaryConfig {
            rule: CanaryRule::Priority(priority),
            min_requests: 8,
            tolerance: 0.0,
        }
    }

    /// Sets the comparisons required to promote (`>= 1`).
    pub fn min_requests(mut self, min_requests: u64) -> Self {
        self.min_requests = min_requests;
        self
    }

    /// Sets the tolerated absolute output difference.
    pub fn tolerance(mut self, tolerance: f32) -> Self {
        self.tolerance = tolerance;
        self
    }

    fn validate(&self) -> Result<(), EngineError> {
        if let CanaryRule::Fraction(f) = self.rule {
            if !(f > 0.0 && f <= 1.0) {
                return Err(EngineError::InvalidConfig {
                    what: format!("canary fraction must be in (0, 1], got {f}"),
                });
            }
        }
        if self.min_requests == 0 {
            return Err(EngineError::InvalidConfig {
                what: "canary min_requests must be >= 1".into(),
            });
        }
        if self.tolerance.is_nan() || self.tolerance < 0.0 {
            return Err(EngineError::InvalidConfig {
                what: format!("canary tolerance must be >= 0, got {}", self.tolerance),
            });
        }
        Ok(())
    }
}

/// How a hot swap ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcome {
    /// Enough canary comparisons matched; the staged version is live.
    Promoted,
    /// A comparison exceeded the tolerance; the staged version was
    /// discarded and the incumbent kept serving.
    RolledBack,
}

/// Live progress of a staged hot swap ([`Engine::swap_status`]).
#[derive(Debug, Clone)]
pub struct SwapStatus {
    /// The model being swapped.
    pub model: ModelId,
    /// The incumbent version.
    pub from: ModelVersion,
    /// The staged version.
    pub to: ModelVersion,
    /// Requests for this model observed while the swap was undecided.
    pub seen: u64,
    /// Canary pairs routed so far.
    pub canaries: u64,
    /// Comparisons completed within tolerance.
    pub matched: u64,
    /// Canary pairs still in flight.
    pub in_flight: usize,
    /// The decision, once reached (applied after the in-flight pairs
    /// finish).
    pub decision: Option<SwapOutcome>,
}

/// The record of a finished hot swap ([`Engine::swap_reports`]).
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// The model that was swapped.
    pub model: ModelId,
    /// The version that was serving when the swap was staged.
    pub from: ModelVersion,
    /// The version that was staged.
    pub to: ModelVersion,
    /// How the swap ended.
    pub outcome: SwapOutcome,
    /// Canary pairs routed.
    pub canaries: u64,
    /// Comparisons completed within tolerance.
    pub matched: u64,
    /// Largest absolute output difference observed across all
    /// comparisons.
    pub max_abs_diff: f32,
    /// Reuse counters accumulated by the staged version's canary runs.
    pub canary_stats: ReuseStats,
    /// Reuse counters accumulated by the incumbent's shadow runs.
    pub incumbent_stats: ReuseStats,
}

/// One half of a canary pair, captured at emission.
#[derive(Debug)]
struct ObservedHalf {
    done: bool,
    outputs: Vec<Vector>,
    stats: ReuseStats,
}

/// A canary pair waiting for both halves.
#[derive(Debug, Default)]
struct PendingPair {
    canary: Option<ObservedHalf>,
    incumbent: Option<ObservedHalf>,
}

/// Engine-side bookkeeping of one staged hot swap.  Lives in [`State`]
/// (mutated under the state lock by `submit` and the workers' emit
/// path); the decision is applied to the registry later by
/// [`Engine::apply_ready_swaps`] under the registry write lock.
#[derive(Debug)]
struct SwapState {
    model: ModelId,
    from: ModelVersion,
    to: ModelVersion,
    config: CanaryConfig,
    seen: u64,
    routed: u64,
    matched: u64,
    max_abs_diff: f32,
    pending: HashMap<u64, PendingPair>,
    decision: Option<SwapOutcome>,
    canary_stats: ReuseStats,
    incumbent_stats: ReuseStats,
}

/// Largest absolute element difference between two output sequences;
/// infinite when the shapes disagree or any element is non-finite (a
/// shape change across versions can never promote).
fn max_abs_diff(a: &[Vector], b: &[Vector]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    let mut max = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        if x.len() != y.len() {
            return f32::INFINITY;
        }
        for n in 0..x.len() {
            let d = (x[n] - y[n]).abs();
            if !d.is_finite() {
                return f32::INFINITY;
            }
            if d > max {
                max = d;
            }
        }
    }
    max
}

/// Feeds one emitted response into the swap bookkeeping: records the
/// pair half the tag names, and when both halves are in, compares them
/// and advances the swap toward promotion or rollback.  Runs under the
/// state lock on the worker's emit path; non-canary responses (serial
/// not in any pending map) fall straight through.
fn swap_observe(state: &mut State, response: &InferenceResponse, tag: ResponseTag) {
    let Some(swap) = state
        .swaps
        .iter_mut()
        .find(|s| s.pending.contains_key(&tag.serial))
    else {
        return;
    };
    let pair = swap
        .pending
        .get_mut(&tag.serial)
        .expect("serial found above");
    let half = ObservedHalf {
        done: response.status == CompletionStatus::Done,
        outputs: response.outputs.clone(),
        stats: response.stats,
    };
    if tag.shadow {
        pair.incumbent = Some(half);
    } else {
        pair.canary = Some(half);
    }
    if pair.canary.is_none() || pair.incumbent.is_none() {
        return;
    }
    let pair = swap.pending.remove(&tag.serial).expect("pair completed");
    let (canary, incumbent) = (
        pair.canary.expect("checked above"),
        pair.incumbent.expect("checked above"),
    );
    swap.canary_stats.merge(&canary.stats);
    swap.incumbent_stats.merge(&incumbent.stats);
    // Pairs where either half expired or was rejected are inconclusive:
    // they neither promote nor roll back.
    if !(canary.done && incumbent.done) {
        return;
    }
    let diff = max_abs_diff(&canary.outputs, &incumbent.outputs);
    if diff > swap.max_abs_diff {
        swap.max_abs_diff = diff;
    }
    if swap.decision.is_some() {
        return;
    }
    if diff > swap.config.tolerance || !diff.is_finite() {
        swap.decision = Some(SwapOutcome::RolledBack);
    } else {
        swap.matched += 1;
        if swap.matched >= swap.config.min_requests {
            swap.decision = Some(SwapOutcome::Promoted);
        }
    }
}

/// Builds an [`Engine`].
///
/// [`EngineBuilder::from_registry`] serves every model/predictor pair
/// of a [`ModelRegistry`], with requests choosing per submission via
/// [`RequestOptions`](crate::RequestOptions);
/// [`EngineBuilder::new`] is the same thing for a one-entry registry
/// under [`DEFAULT_MODEL`].
///
/// # Accepted ranges
///
/// All three sizing knobs accept `1..`; `0` is rejected by
/// [`build`](EngineBuilder::build) with
/// [`EngineError::InvalidConfig`] — never silently clamped:
///
/// * [`lanes`](EngineBuilder::lanes) — sequences evaluated per gate
///   invocation per worker (default 4).
/// * [`workers`](EngineBuilder::workers) — background compute threads
///   (default 1).
/// * [`queue_capacity`](EngineBuilder::queue_capacity) — bound on
///   *waiting* submissions, excluding requests already on a lane
///   (default 256).
#[derive(Debug)]
pub struct EngineBuilder {
    registry: ModelRegistry,
    lanes: usize,
    workers: usize,
    queue_capacity: usize,
    paused: bool,
}

impl EngineBuilder {
    /// Starts a builder serving `model` under `predictor`, registered
    /// as the model [`DEFAULT_MODEL`] of a fresh registry.
    pub fn new(model: impl Into<Model>, predictor: impl Predictor + 'static) -> Self {
        let mut registry = ModelRegistry::new();
        registry
            .register(DEFAULT_MODEL, model, predictor)
            .expect("a fresh registry holds no duplicate");
        EngineBuilder::from_registry(registry)
    }

    /// Starts a builder serving every model of `registry`.
    pub fn from_registry(registry: ModelRegistry) -> Self {
        EngineBuilder {
            registry,
            lanes: 4,
            workers: 1,
            queue_capacity: 256,
            paused: false,
        }
    }

    /// Lane count per worker (`>= 1`): how many sequences share one
    /// weight stream per gate invocation.
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Worker thread count (`>= 1`).  Each worker owns its own
    /// evaluator and lane scheduler and pulls from the shared queue.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Bound on waiting submissions (`>= 1`); a full queue makes
    /// [`Engine::submit`] return [`EngineError::QueueFull`].
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Starts the engine paused: workers are spawned but do not pull
    /// work until [`Engine::resume`] (or a draining call).  Useful to
    /// stage a burst of submissions — and to test backpressure
    /// deterministically.
    pub fn start_paused(mut self) -> Self {
        self.paused = true;
        self
    }

    /// Spawns the workers and returns the engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] when `lanes`, `workers`
    /// or `queue_capacity` is `0` and [`EngineError::EmptyRegistry`]
    /// when no model is registered.
    pub fn build(self) -> Result<Engine, EngineError> {
        for (what, value) in [
            ("lanes", self.lanes),
            ("workers", self.workers),
            ("queue_capacity", self.queue_capacity),
        ] {
            if value == 0 {
                return Err(EngineError::InvalidConfig {
                    what: format!(
                        "{what} must be >= 1, got 0 (degenerate configurations are rejected, \
                         not clamped)"
                    ),
                });
            }
        }
        if self.registry.is_empty() {
            return Err(EngineError::EmptyRegistry);
        }
        let registry = Arc::new(RwLock::new(self.registry));
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: PriorityQueue::new(),
                responses: Vec::new(),
                outstanding: 0,
                idle_workers: 0,
                lane_borrows: 0,
                context_stats: (0..self.workers).map(|_| Vec::new()).collect(),
                swaps: Vec::new(),
                swap_reports: Vec::new(),
                next_serial: 1,
                shutdown: false,
                paused: self.paused,
                error: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            capacity: self.queue_capacity,
        });
        let mut handles = Vec::with_capacity(self.workers);
        for index in 0..self.workers {
            let worker = LaneWorker::new(self.lanes);
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                worker_loop(shared, worker, index)
            }));
        }
        Ok(Engine {
            shared,
            registry,
            handles,
            lanes: self.lanes,
            workers: self.workers,
        })
    }
}

/// The bounded submission queue: one FIFO per [`Priority`] class,
/// drained highest class first.  Priority picks the *admission order*;
/// results never depend on it.
#[derive(Debug)]
struct PriorityQueue {
    classes: [VecDeque<QueuedRequest>; 3],
    len: usize,
}

impl PriorityQueue {
    fn new() -> Self {
        PriorityQueue {
            classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, request: QueuedRequest) {
        let class = request.req.options.priority.index();
        self.classes[class].push_back(request);
        self.len += 1;
    }

    /// Pops the first request (highest class first, FIFO within a
    /// class) that satisfies `admittable`.  Requests the calling worker
    /// cannot place right now are *skipped, not taken*: they stay
    /// queued — preserving backpressure accounting and leaving them
    /// available to any other worker with free capacity.
    fn pop_where(&mut self, admittable: &dyn Fn(&QueuedRequest) -> bool) -> Option<QueuedRequest> {
        for class in &mut self.classes {
            if let Some(i) = class.iter().position(admittable) {
                let request = class.remove(i).expect("index from position");
                self.len -= 1;
                return Some(request);
            }
        }
        None
    }
}

#[derive(Debug)]
struct State {
    queue: PriorityQueue,
    responses: Vec<InferenceResponse>,
    /// Submitted but not yet responded (queued or on a lane).
    outstanding: usize,
    /// Workers currently parked on `work_cv` (`drain`'s quiescence
    /// condition).
    idle_workers: usize,
    /// Cross-context lane borrows since the engine started (a hot
    /// model admitted beyond its fair share into lanes its sibling
    /// contexts left idle), added by each worker when it publishes its
    /// context stats.
    lane_borrows: u64,
    /// Per-worker context-stats snapshots, republished (replaced, not
    /// accumulated — evaluator counters are cumulative) every time a
    /// worker drains the queue and goes idle.  Indexed by worker.
    context_stats: Vec<Vec<(ContextKey, ReuseStats)>>,
    /// Staged hot swaps: canary bookkeeping mutated by `submit` and the
    /// emit path; decisions applied to the registry by
    /// `apply_ready_swaps`.
    swaps: Vec<SwapState>,
    /// Finished swaps awaiting collection via `Engine::swap_reports`.
    swap_reports: Vec<SwapReport>,
    /// Next submission serial (unique per admitted request; canary
    /// pairs share one serial across their two halves).
    next_serial: u64,
    shutdown: bool,
    paused: bool,
    error: Option<String>,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Workers wait here for submissions / resume / shutdown.
    work_cv: Condvar,
    /// Callers wait here for `outstanding` to reach zero.
    done_cv: Condvar,
    capacity: usize,
}

fn worker_loop(shared: Arc<Shared>, mut worker: LaneWorker, index: usize) {
    loop {
        {
            let mut state = shared.state.lock().expect("engine state lock");
            loop {
                if state.shutdown && state.queue.is_empty() {
                    return;
                }
                // Shutdown overrides pause so the queue always drains.
                let runnable = !state.queue.is_empty() && (!state.paused || state.shutdown);
                if runnable {
                    break;
                }
                // Nothing to run: before parking (again — retiring a
                // version wakes every worker), let go of the contexts
                // of retired versions and republish, freeing them
                // outside the lock.
                if worker.has_spent_contexts() {
                    drop(state);
                    worker.drop_spent_contexts();
                    state = shared.state.lock().expect("engine state lock");
                    state.context_stats[index] = worker.stats_snapshots();
                    continue;
                }
                // Parking wakes `drain` waiters: they wait for
                // *quiescence* (zero outstanding + every worker parked),
                // which makes the context stats and lane borrows
                // published below complete by the time `drain` returns.
                state.idle_workers += 1;
                shared.done_cv.notify_all();
                state = shared.work_cv.wait(state).expect("engine state lock");
                state.idle_workers -= 1;
            }
        }
        let pull_shared = Arc::clone(&shared);
        let mut pull = move |admittable: &dyn Fn(&QueuedRequest) -> bool| {
            let mut state = pull_shared.state.lock().expect("engine state lock");
            if state.paused && !state.shutdown {
                return None;
            }
            state.queue.pop_where(admittable)
        };
        let emit_shared = Arc::clone(&shared);
        let mut emit = move |response: InferenceResponse, tag: ResponseTag| {
            let mut state = emit_shared.state.lock().expect("engine state lock");
            swap_observe(&mut state, &response, tag);
            // Shadow halves of canary pairs are compared above but
            // never surfaced: callers see exactly one response per
            // submitted request.  They still balance `outstanding`, so
            // drain/quiescence accounting holds even for shadows that
            // land after their swap decided.
            if !tag.shadow {
                state.responses.push(response);
            }
            state.outstanding -= 1;
            emit_shared.done_cv.notify_all();
        };
        let report_shared = Arc::clone(&shared);
        let mut report = move |error: String| {
            let mut state = report_shared.state.lock().expect("engine state lock");
            state.error.get_or_insert(error);
        };
        let borrows = worker.pump(&mut pull, &mut emit, &mut report);
        // Publish this worker's per-context counters and lane borrows
        // before parking (or exiting): `Engine::context_stats` merges
        // these snapshots, and both quiescence points — `drain`
        // returning, `shutdown` joining — happen after the publication.
        let snapshots = worker.stats_snapshots();
        let mut state = shared.state.lock().expect("engine state lock");
        state.context_stats[index] = snapshots;
        state.lane_borrows += borrows;
    }
}

/// Aggregate statistics of one served (model, predictor) execution
/// context, merged across workers — the engine's observability surface
/// for memoization behavior ([`Engine::context_stats`]).
#[derive(Debug, Clone)]
pub struct ContextStats {
    /// The model this context serves.
    pub model: ModelId,
    /// The model weight version the context ran (canary contexts of a
    /// hot swap report the staged version).
    pub version: ModelVersion,
    /// The predictor name the context was resolved under.
    pub predictor: String,
    /// Reuse counters accumulated by the context's evaluators across
    /// every request they served (workers merged), whatever `θ` each
    /// request ran at.
    pub stats: ReuseStats,
    /// Live controller state for adaptive predictors (current per-layer
    /// θ, audit-error EWMA, hit/audit counters) — `None` for static
    /// predictors.
    pub control: Option<ControlSnapshot>,
}

impl ContextStats {
    /// Fraction of neuron evaluations answered from the memo table,
    /// `0.0` before any work.
    pub fn hit_rate(&self) -> f64 {
        self.stats.reuse_fraction()
    }
}

/// A request-oriented serving engine.
///
/// Built by [`EngineBuilder`] — over a single model or a whole
/// [`ModelRegistry`]; accepts [`InferenceRequest`]s through
/// [`submit`](Engine::submit) / [`submit_all`](Engine::submit_all)
/// (each request choosing its model, predictor, threshold override
/// and priority via [`RequestOptions`](crate::RequestOptions)) and
/// reports every admitted request exactly once as an
/// [`InferenceResponse`] (collect them with
/// [`take_completed`](Engine::take_completed),
/// [`drain`](Engine::drain) or [`shutdown`](Engine::shutdown)).
///
/// Internally each worker thread owns one **execution context** per
/// served (model, predictor) combination — a private evaluator built
/// by the registered [`Predictor`] plus a
/// lane scheduler — and interleaves the contexts step by step, so
/// several models make progress concurrently on one thread; a worker's
/// context count is bounded by the registry.  A request is admitted
/// into a lane of its context's
/// [`LaneScheduler`](nfm_rnn::LaneScheduler) and its threshold
/// override, if any, is state of that lane, so requests that differ
/// only in `θ` share one gate call.  Every context advances by
/// [`LaneScheduler::step`](nfm_rnn::LaneScheduler::step): on a
/// unidirectional stack a step is one
/// [`HOIST_BLOCK`](nfm_rnn::HOIST_BLOCK)-timestep block of every lane
/// (inputs hoisted across it), so a drained lane refills from the queue
/// *immediately* (mid-wave lane refill) and an in-flight request whose
/// deadline expires is aborted at the next block boundary; on a stack
/// with a bidirectional layer a step is the seated sequences whole, and
/// lanes refill when it returns.  A hot context may
/// also *borrow* idle lanes from cold contexts on the same worker
/// ([`lane_borrows`](Engine::lane_borrows)); a lane never leaves the
/// worker that admitted it.  Scheduling never changes
/// results: per-request outputs, reuse statistics and memo-hit counts
/// are bit-identical to a dedicated
/// [`MemoizedRunner::run`](crate::MemoizedRunner::run) over the same
/// sequence.
///
/// Dropping the engine shuts it down and joins the workers (draining
/// any queued work first); pending responses are discarded — call
/// [`shutdown`](Engine::shutdown) to receive them instead.
#[derive(Debug)]
pub struct Engine {
    shared: Arc<Shared>,
    /// Lock order: registry (read or write) strictly **before** the
    /// state mutex, everywhere.  Workers never touch the registry —
    /// they run on `Arc` handles resolved at submission.
    registry: Arc<RwLock<ModelRegistry>>,
    handles: Vec<JoinHandle<()>>,
    lanes: usize,
    workers: usize,
}

impl Engine {
    /// The model registry this engine serves (a read guard: the
    /// registry is shared with the hot-swap path, which takes the write
    /// side briefly to stage, promote or evict versions).  Don't hold
    /// the guard across calls into the engine.
    pub fn registry(&self) -> RwLockReadGuard<'_, ModelRegistry> {
        self.registry.read().expect("registry lock")
    }

    /// Lanes per worker.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Bound on waiting submissions.
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Always `0`: lanes never move between workers — a request stays
    /// on the worker that admitted it until it finishes, is cancelled
    /// or aborts at its deadline.  Kept because the frozen repository
    /// benchmark still reads it.
    pub fn migrations(&self) -> u64 {
        0
    }

    /// Requests admitted beyond their context's fair share into lanes
    /// that sibling contexts on the same worker were leaving idle
    /// (cross-context lane borrowing).  Purely observability; each
    /// worker adds its count when it goes idle, so after
    /// [`drain`](Engine::drain) it covers every answered request.
    pub fn lane_borrows(&self) -> u64 {
        self.shared
            .state
            .lock()
            .expect("engine state lock")
            .lane_borrows
    }

    /// Aggregate per-context memoization statistics: one entry per
    /// served (model, version, predictor) combination — never more than
    /// the registry holds, whatever thresholds clients ask for — merged
    /// across workers and sorted by that triple so the listing is
    /// deterministic.  Adaptive predictors additionally
    /// carry a live [`ControlSnapshot`] (current per-layer θ,
    /// audit-error EWMA, hit/audit counters) fetched from the
    /// registered predictor at call time.
    ///
    /// Each worker republishes its counters every time it drains the
    /// queue and goes idle, so under in-flight traffic the numbers can
    /// trail the responses already taken; after [`drain`](Engine::drain)
    /// (which waits for full quiescence) or
    /// [`shutdown`](Engine::shutdown) they cover every answered
    /// request.
    pub fn context_stats(&self) -> Vec<ContextStats> {
        let per_worker = {
            let state = self.shared.state.lock().expect("engine state lock");
            state.context_stats.clone()
        };
        let mut merged: Vec<(ContextKey, ReuseStats)> = Vec::new();
        for (key, stats) in per_worker.into_iter().flatten() {
            match merged.iter_mut().find(|(k, _)| *k == key) {
                Some((_, acc)) => acc.merge(&stats),
                None => merged.push((key, stats)),
            }
        }
        merged.sort_by(|(a, _), (b, _)| {
            (a.model.as_str(), a.version, a.predictor.as_ref()).cmp(&(
                b.model.as_str(),
                b.version,
                b.predictor.as_ref(),
            ))
        });
        let registry = self.registry.read().expect("registry lock");
        merged
            .into_iter()
            .map(|(key, stats)| {
                let control = registry
                    .find_predictor(&key.model, key.version, &key.predictor)
                    .and_then(|p| p.control_snapshot());
                ContextStats {
                    model: key.model.clone(),
                    version: key.version,
                    predictor: key.predictor.as_ref().to_string(),
                    stats,
                    control,
                }
            })
            .collect()
    }

    /// The kernel dispatch tier this process serves with (resolved once
    /// from CPU detection / `NFM_KERNEL_BACKEND` — see
    /// [`nfm_tensor::backend`]).  Purely observability: the tier never
    /// changes results, only throughput.
    pub fn kernel_backend(&self) -> nfm_tensor::backend::KernelBackend {
        nfm_tensor::backend::active()
    }

    /// Submits one request.  On success the request is guaranteed to
    /// produce exactly one [`InferenceResponse`].
    ///
    /// The request's [`RequestOptions`](crate::RequestOptions) are
    /// resolved against the registry *here*, synchronously: unknown
    /// ids, unknown predictor names and unsupported threshold
    /// overrides are typed errors from this call, and the sequence is
    /// validated against the **targeted model's** input width — lanes
    /// never fault mid-flight.
    ///
    /// # Errors
    ///
    /// * [`EngineError::UnknownModel`] / [`EngineError::UnknownPredictor`]
    ///   / [`EngineError::ThresholdUnsupported`] — the options do not
    ///   resolve against the registry;
    /// * [`EngineError::EmptySequence`] / [`EngineError::InputSizeMismatch`]
    ///   — the sequence cannot run on the targeted model;
    /// * [`EngineError::QueueFull`] — backpressure: the bounded queue
    ///   is at capacity;
    /// * [`EngineError::ShutDown`] — the engine no longer accepts work.
    pub fn submit(&self, request: InferenceRequest) -> Result<(), EngineError> {
        // Lock order: registry before state, always.  The read guard is
        // held across the state lock so a staged version cannot be
        // promoted or discarded between resolution and enqueue.
        let registry = self.registry.read().expect("registry lock");
        let resolved = registry.resolve(&request.options)?;
        if request.sequence.is_empty() {
            return Err(EngineError::EmptySequence { id: request.id });
        }
        let expected = resolved.model.network().input_size();
        for (t, x) in request.sequence.iter().enumerate() {
            if x.len() != expected {
                return Err(EngineError::InputSizeMismatch {
                    id: request.id,
                    expected,
                    found: x.len(),
                    timestep: t,
                });
            }
        }
        let mut state = self.shared.state.lock().expect("engine state lock");
        if state.shutdown {
            return Err(EngineError::ShutDown);
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(EngineError::QueueFull {
                capacity: self.shared.capacity,
            });
        }
        // Canary routing: while an undecided swap covers this model,
        // requests the rule selects run as a pair — the staged version
        // answers the caller, the incumbent shadows for comparison.
        let model = &resolved.key.model;
        if let Some(idx) = state
            .swaps
            .iter()
            .position(|s| &s.model == model && s.decision.is_none())
        {
            state.swaps[idx].seen += 1;
            let swap = &state.swaps[idx];
            let route = match swap.config.rule {
                // Deterministic proportional routing: canary exactly
                // when doing so keeps routed/seen at or under the
                // fraction.
                CanaryRule::Fraction(f) => (swap.routed + 1) as f64 <= swap.seen as f64 * f as f64,
                CanaryRule::Priority(p) => request.options.priority == p,
            };
            // A pair needs room for both halves; with one slot left the
            // request falls back to the incumbent rather than failing.
            if route && state.queue.len() + 2 <= self.shared.capacity {
                if let Ok(staged) = registry.resolve_staged(model, &request.options) {
                    let serial = state.next_serial;
                    state.next_serial += 1;
                    state.swaps[idx].routed += 1;
                    state.swaps[idx]
                        .pending
                        .insert(serial, PendingPair::default());
                    let shadow_req = request.clone();
                    let submitted_at = Instant::now();
                    state.queue.push(QueuedRequest {
                        req: request,
                        submitted_at,
                        resolved: staged,
                        serial,
                        shadow: false,
                    });
                    state.queue.push(QueuedRequest {
                        req: shadow_req,
                        submitted_at,
                        resolved,
                        serial,
                        shadow: true,
                    });
                    state.outstanding += 2;
                    if !state.paused {
                        self.shared.work_cv.notify_one();
                        self.shared.work_cv.notify_one();
                    }
                    return Ok(());
                }
                // The staged version cannot serve these options (e.g. a
                // predictor it was not staged with): serve the
                // incumbent alone.
            }
        }
        let serial = state.next_serial;
        state.next_serial += 1;
        state.queue.push(QueuedRequest {
            req: request,
            submitted_at: Instant::now(),
            resolved,
            serial,
            shadow: false,
        });
        state.outstanding += 1;
        if !state.paused {
            self.shared.work_cv.notify_one();
        }
        Ok(())
    }

    /// Submits every request in order, stopping at the first error
    /// (earlier submissions stay admitted).  Returns how many were
    /// accepted.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::submit`].
    pub fn submit_all(
        &self,
        requests: impl IntoIterator<Item = InferenceRequest>,
    ) -> Result<usize, EngineError> {
        let mut accepted = 0;
        for request in requests {
            self.submit(request)?;
            accepted += 1;
        }
        Ok(accepted)
    }

    /// Stages `next` as the next version of `model` and starts
    /// canarying live traffic onto it, without pausing the engine or
    /// dropping any in-flight request.
    ///
    /// `next` and `predictors` are what
    /// [`ModelRegistry::register`] takes: anything that converts into a
    /// [`Model`] (a loaded artifact keeps the mirror it carried) and
    /// any [`Predictor`]s — built-in, adaptive or custom — each filed
    /// under its own name on the staged version's own mirror, so a
    /// request naming one of them follows the swap.  The staged version
    /// gets version `live + 1`.  While the swap is undecided, requests
    /// selected by `canary` run as pairs: the staged version answers
    /// the caller, the incumbent shadows for comparison.
    /// After [`CanaryConfig::min_requests`] comparisons within
    /// [`CanaryConfig::tolerance`] the staged version is promoted;
    /// the first comparison outside it rolls the swap back.  Either
    /// way the registry change is applied only once the last canary
    /// pair lands (see [`Engine::swap_status`] /
    /// [`Engine::swap_reports`]); requests already resolved keep their
    /// weight handles and always complete.
    ///
    /// # Errors
    ///
    /// * [`EngineError::UnknownModel`] — `model` is not registered;
    /// * [`EngineError::SwapInProgress`] — a swap is already staged;
    /// * [`EngineError::DuplicatePredictor`] — two of `predictors`
    ///   share a name;
    /// * [`EngineError::InvalidConfig`] — `canary` is degenerate or
    ///   `predictors` is empty;
    /// * [`EngineError::ShutDown`] — the engine no longer accepts work.
    pub fn swap_model<P: Predictor + 'static>(
        &self,
        model: impl Into<ModelId>,
        next: impl Into<Model>,
        predictors: impl IntoIterator<Item = P>,
        canary: CanaryConfig,
    ) -> Result<ModelVersion, EngineError> {
        let model = model.into();
        canary.validate()?;
        self.apply_ready_swaps();
        let mut registry = self.registry.write().expect("registry lock");
        let mut state = self.shared.state.lock().expect("engine state lock");
        if state.shutdown {
            return Err(EngineError::ShutDown);
        }
        let from = registry
            .version(&model)
            .ok_or_else(|| EngineError::UnknownModel {
                model: model.clone(),
            })?;
        // A decided-but-not-yet-applied swap still owns the staged
        // slot; `stage` rejects it below via the staged entry.
        let to = registry.stage(&model, next.into(), predictors)?;
        state.swaps.push(SwapState {
            model,
            from,
            to,
            config: canary,
            seen: 0,
            routed: 0,
            matched: 0,
            max_abs_diff: 0.0,
            pending: HashMap::new(),
            decision: None,
            canary_stats: ReuseStats::new(),
            incumbent_stats: ReuseStats::new(),
        });
        Ok(to)
    }

    /// Removes `model` from the registry: new submissions naming it get
    /// [`EngineError::UnknownModel`], while everything already admitted
    /// runs to its response on the retired weights.  A staged swap for
    /// the model is discarded with it.
    ///
    /// # Errors
    ///
    /// * [`EngineError::UnknownModel`] — `model` is not registered;
    /// * [`EngineError::CannotEvictLast`] — it is the only model.
    pub fn evict_model(&self, model: impl Into<ModelId>) -> Result<(), EngineError> {
        let model = model.into();
        self.apply_ready_swaps();
        let mut registry = self.registry.write().expect("registry lock");
        let mut state = self.shared.state.lock().expect("engine state lock");
        registry.evict(&model)?;
        // Orphan the model's canary bookkeeping: in-flight pair halves
        // still emit (and balance `outstanding`), they just no longer
        // find a pending slot to compare into.
        state.swaps.retain(|s| s.model != model);
        // Parked workers drop their contexts for the retired version.
        self.shared.work_cv.notify_all();
        Ok(())
    }

    /// Progress of the staged swap for `model`, `None` when no swap is
    /// staged (finished swaps move to [`Engine::swap_reports`]).
    /// Applies any decision whose last canary pair has landed.
    pub fn swap_status(&self, model: impl Into<ModelId>) -> Option<SwapStatus> {
        let model = model.into();
        self.apply_ready_swaps();
        let state = self.shared.state.lock().expect("engine state lock");
        state
            .swaps
            .iter()
            .find(|s| s.model == model)
            .map(|s| SwapStatus {
                model: s.model.clone(),
                from: s.from,
                to: s.to,
                seen: s.seen,
                canaries: s.routed,
                matched: s.matched,
                in_flight: s.pending.len(),
                decision: s.decision,
            })
    }

    /// Takes the reports of every swap that finished (decision applied
    /// to the registry) since the last call.
    pub fn swap_reports(&self) -> Vec<SwapReport> {
        self.apply_ready_swaps();
        std::mem::take(
            &mut self
                .shared
                .state
                .lock()
                .expect("engine state lock")
                .swap_reports,
        )
    }

    /// Applies every decided swap whose canary pairs have all landed:
    /// promotion installs the staged version as live, rollback discards
    /// it.  Takes the registry write lock *then* the state lock (the
    /// engine-wide order), which is why the emit path only records
    /// decisions — it already holds the state lock.
    fn apply_ready_swaps(&self) {
        let mut registry = self.registry.write().expect("registry lock");
        let mut state = self.shared.state.lock().expect("engine state lock");
        let mut i = 0;
        while i < state.swaps.len() {
            let ready = state.swaps[i].decision.is_some() && state.swaps[i].pending.is_empty();
            if !ready {
                i += 1;
                continue;
            }
            let swap = state.swaps.remove(i);
            let outcome = swap.decision.expect("checked ready above");
            match outcome {
                SwapOutcome::Promoted => registry.promote(&swap.model),
                SwapOutcome::RolledBack => registry.discard_staged(&swap.model),
            }
            // Either way a version was retired: parked workers drop
            // their contexts for it.
            self.shared.work_cv.notify_all();
            state.swap_reports.push(SwapReport {
                model: swap.model,
                from: swap.from,
                to: swap.to,
                outcome,
                canaries: swap.routed,
                matched: swap.matched,
                max_abs_diff: swap.max_abs_diff,
                canary_stats: swap.canary_stats,
                incumbent_stats: swap.incumbent_stats,
            });
        }
    }

    /// Lets paused workers start pulling work.
    pub fn resume(&self) {
        let mut state = self.shared.state.lock().expect("engine state lock");
        state.paused = false;
        self.shared.work_cv.notify_all();
    }

    /// Requests submitted but not yet answered (queued or in flight).
    pub fn pending(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("engine state lock")
            .outstanding
    }

    /// Requests waiting in the submission queue right now (excluding
    /// requests already on a lane).  This is the number
    /// [`queue_capacity`](Engine::queue_capacity) bounds — the signal
    /// admission control in front of the engine (e.g. the `nfm-net`
    /// listener's load shedding) watches to start rejecting
    /// low-priority traffic *before* the queue hard-fails everyone
    /// with [`EngineError::QueueFull`].
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("engine state lock")
            .queue
            .len()
    }

    /// Whether [`initiate_shutdown`](Engine::initiate_shutdown) (or a
    /// consuming [`shutdown`](Engine::shutdown)) has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shared
            .state
            .lock()
            .expect("engine state lock")
            .shutdown
    }

    /// Starts a graceful drain without consuming the engine: every
    /// further [`submit`](Engine::submit) returns
    /// [`EngineError::ShutDown`], while everything already admitted
    /// keeps running to its response (paused workers are woken so the
    /// queue always drains).  Collect the tail with
    /// [`take_completed`](Engine::take_completed) /
    /// [`drain`](Engine::drain), then call
    /// [`shutdown`](Engine::shutdown) to join the workers.  Idempotent.
    pub fn initiate_shutdown(&self) {
        self.begin_shutdown();
    }

    /// Takes every response completed so far, without blocking.
    pub fn take_completed(&self) -> Vec<InferenceResponse> {
        std::mem::take(
            &mut self
                .shared
                .state
                .lock()
                .expect("engine state lock")
                .responses,
        )
    }

    /// Blocks until every submitted request has a response, then takes
    /// them all.  Resumes a paused engine first.
    ///
    /// `drain` waits for full quiescence — zero outstanding requests
    /// *and* every worker parked — so the per-context counters behind
    /// [`context_stats`](Engine::context_stats) are complete for all
    /// returned responses by the time it returns.
    pub fn drain(&self) -> Vec<InferenceResponse> {
        let responses = {
            let mut state = self.shared.state.lock().expect("engine state lock");
            if state.paused {
                state.paused = false;
                self.shared.work_cv.notify_all();
            }
            // During shutdown workers exit instead of parking, so the
            // idle-worker quiescence condition only applies to a live
            // engine (`shutdown` reaches quiescence by joining instead).
            while state.outstanding > 0 || (!state.shutdown && state.idle_workers < self.workers) {
                state = self.shared.done_cv.wait(state).expect("engine state lock");
            }
            std::mem::take(&mut state.responses)
        };
        // Quiescence means every canary pair has landed: apply any swap
        // decision now, so traffic after this drain resolves against
        // the promoted (or rolled-back) registry.
        self.apply_ready_swaps();
        responses
    }

    /// The first internal execution error any worker hit, if any (the
    /// affected requests were answered with
    /// [`CompletionStatus::Rejected`]).
    pub fn last_error(&self) -> Option<String> {
        self.shared
            .state
            .lock()
            .expect("engine state lock")
            .error
            .clone()
    }

    /// Stops accepting work, finishes everything already submitted
    /// (paused engines are resumed), joins the workers and returns the
    /// remaining responses.
    pub fn shutdown(mut self) -> Vec<InferenceResponse> {
        self.begin_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        std::mem::take(
            &mut self
                .shared
                .state
                .lock()
                .expect("engine state lock")
                .responses,
        )
    }

    fn begin_shutdown(&self) {
        let mut state = self.shared.state.lock().expect("engine state lock");
        state.shutdown = true;
        self.shared.work_cv.notify_all();
        // Wake `drain` waiters too: their quiescence condition changes
        // shape under shutdown (workers exit instead of parking).
        self.shared.done_cv.notify_all();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
