//! The serving engine: a bounded, priority-aware submission queue in
//! front of worker threads that each drive per-model lane schedulers.

pub use crate::error::EngineError;
use crate::lifecycle::Lifecycle;
pub use crate::lifecycle::{CanaryConfig, CanaryRule, SwapOutcome, SwapReport, SwapStatus};
use crate::registry::{ContextKey, ModelId, ModelRegistry, ModelVersion};
use crate::request::{InferenceRequest, InferenceResponse};
use crate::worker::{LaneWorker, QueuedRequest, ResponseTag};
use nfm_core::{ControlSnapshot, Model, Predictor, ReuseStats};
use nfm_tensor::kernels::team::KernelTeam;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Deref;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// The model id [`EngineBuilder::new`] registers its single network
/// under — the single-model API is sugar for a one-entry registry.
pub const DEFAULT_MODEL: &str = "default";

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
    ///
    /// Each worker also gets a kernel team ([`KernelTeam`]) of
    /// `max(1, CPUs in the building thread's affinity mask / workers)`
    /// threads, itself included: the team's helpers take a share of the
    /// weight rows of every block hoist and recurrent product of at least
    /// [`SPLIT_MIN_WORK`](nfm_tensor::kernels::team::SPLIT_MIN_WORK)
    /// multiply-adds, so
    /// one worker on a 2-CPU host streams each gate from both cores.
    /// Everything else a worker does (predict, decide, the elementwise
    /// passes) stays on the worker thread.  Results never depend on the
    /// team.
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
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                registry: self.registry,
                lifecycle: Lifecycle::default(),
                queue: PriorityQueue::new(),
                responses: Vec::new(),
                outstanding: 0,
                idle_workers: 0,
                lane_borrows: 0,
                context_stats: (0..self.workers).map(|_| Vec::new()).collect(),
                notifier: None,
                shutdown: false,
                paused: self.paused,
                error: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            capacity: self.queue_capacity,
        });
        // A spawned thread starts with its creator's affinity mask, so
        // this thread's CPUs are each worker's.
        let kernel_team = (affinity_cpus() / self.workers).max(1);
        let mut handles = Vec::with_capacity(self.workers);
        for index in 0..self.workers {
            let worker = LaneWorker::new(self.lanes);
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                worker_loop(shared, worker, index, kernel_team)
            }));
        }
        Ok(Engine {
            shared,
            handles,
            lanes: self.lanes,
            workers: self.workers,
        })
    }
}

/// CPUs in the calling thread's affinity mask.  On Linux that is one
/// `sched_getaffinity(2)` call: `available_parallelism` also parses the
/// cgroup files, 25–90 µs on a 2-vCPU host, a tenth to a third of a small
/// model's whole engine set-up.
fn affinity_cpus() -> usize {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        }
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread, and the call only reads.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0 {
            return mask.iter().map(|word| word.count_ones() as usize).sum();
        }
    }
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
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
/// Each worker thread owns one execution context — a private evaluator
/// built by the registered [`Predictor`] plus a
/// [`LaneScheduler`](nfm_rnn::LaneScheduler) — per served (model
/// version, predictor) and interleaves them step by step; a request is
/// admitted into a lane, where its threshold override lives.  A hot
/// context may *borrow* idle lanes from cold contexts on the same worker
/// ([`lane_borrows`](Engine::lane_borrows)); a lane never leaves the
/// worker that admitted it.  Scheduling never changes results:
/// per-request outputs, reuse statistics and memo-hit counts are
/// bit-identical to a dedicated [`Predictor::run`] of the request's
/// predictor over the same sequence.
///
/// Dropping the engine shuts it down and joins the workers (draining
/// any queued work first); pending responses are discarded — call
/// [`shutdown`](Engine::shutdown) to receive them instead.
#[derive(Debug)]
pub struct Engine {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    lanes: usize,
    workers: usize,
}

impl Engine {
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
        let mut state = self.shared.lock();
        let resolved = state.registry.resolve(&request.options)?;
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
        if state.shutdown {
            return Err(EngineError::ShutDown);
        }
        let capacity = self.shared.capacity;
        if state.queue.len() >= capacity {
            return Err(EngineError::QueueFull { capacity });
        }
        let pair_fits = state.queue.len() + 2 <= capacity;
        let routed = state.lifecycle.route(&request.options, resolved, pair_fits);
        let submitted_at = Instant::now();
        let shadow = routed.shadow.map(|resolved| QueuedRequest {
            req: request.clone(),
            submitted_at,
            resolved,
            serial: routed.serial,
            shadow: true,
        });
        self.enqueue(
            &mut state,
            QueuedRequest {
                req: request,
                submitted_at,
                resolved: routed.primary,
                serial: routed.serial,
                shadow: false,
            },
        );
        if let Some(shadow) = shadow {
            self.enqueue(&mut state, shadow);
        }
        Ok(())
    }

    fn enqueue(&self, state: &mut State, request: QueuedRequest) {
        state.queue.push(request);
        state.outstanding += 1;
        if !state.paused {
            self.shared.work_cv.notify_one();
        }
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

/// Everything the engine shares with its workers, behind its one lock.
#[derive(Debug)]
struct State {
    /// The live model versions `submit` resolves against.
    registry: ModelRegistry,
    /// Staged hot swaps: `submit` routes through it, the emit path
    /// observes canary halves and applies decisions to `registry`.
    lifecycle: Lifecycle,
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
    /// Called when a response lands in an empty `responses`
    /// ([`Engine::set_completion_notifier`]).
    notifier: Option<Notifier>,
    shutdown: bool,
    paused: bool,
    error: Option<String>,
}

/// A registered completion callback.
#[derive(Clone)]
struct Notifier(Arc<dyn Fn() + Send + Sync>);

impl std::fmt::Debug for Notifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Notifier")
    }
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

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("engine state lock")
    }
}

fn worker_loop(shared: Arc<Shared>, mut worker: LaneWorker, index: usize, kernel_team: usize) {
    // Lives as long as the worker: its helpers are joined on every
    // exit, so none outlives `shutdown` or a dropped engine.
    let _team = KernelTeam::install(kernel_team);
    loop {
        {
            let mut state = shared.lock();
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
                    state = shared.lock();
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
            let mut state = pull_shared.lock();
            if state.paused && !state.shutdown {
                return None;
            }
            state.queue.pop_where(admittable)
        };
        let emit_shared = Arc::clone(&shared);
        let mut emit = move |response: InferenceResponse, tag: ResponseTag| {
            let mut guard = emit_shared.lock();
            let state = &mut *guard;
            // The emission that lands a decided swap's last canary pair
            // applies the decision; the retired version wakes parked
            // workers, which drop their contexts for it.
            if let Some(decision) = state.lifecycle.observe(tag, &response) {
                state.lifecycle.apply(decision, &mut state.registry);
                emit_shared.work_cv.notify_all();
            }
            // Shadow halves of canary pairs are compared above but
            // never surfaced: callers see exactly one response per
            // submitted request.  They still balance `outstanding`, so
            // drain/quiescence accounting holds even for shadows that
            // land after their swap decided.
            let was_empty = state.responses.is_empty();
            if !tag.shadow {
                state.responses.push(response);
            }
            state.outstanding -= 1;
            // Only news for a taker that emptied the list notifies: the
            // first response since the take (it sees every later one at
            // the next), or a shadow half that leaves nothing outstanding.
            let notify = if was_empty && (!tag.shadow || state.outstanding == 0) {
                state.notifier.clone()
            } else {
                None
            };
            emit_shared.done_cv.notify_all();
            drop(guard);
            if let Some(Notifier(notify)) = notify {
                notify();
            }
        };
        let report_shared = Arc::clone(&shared);
        let mut report = move |error: String| {
            let mut state = report_shared.lock();
            state.error.get_or_insert(error);
        };
        let borrows = worker.pump(&mut pull, &mut emit, &mut report);
        // Publish this worker's per-context counters and lane borrows
        // before parking (or exiting): `Engine::context_stats` merges
        // these snapshots, and both quiescence points — `drain`
        // returning, `shutdown` joining — happen after the publication.
        let snapshots = worker.stats_snapshots();
        let mut state = shared.lock();
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

/// Read access to the registry an [`Engine`] serves
/// ([`Engine::registry`]).  It holds the engine's lock, which workers
/// take to emit every response: keep it short-lived, and drop it before
/// calling into the engine again.
#[derive(Debug)]
pub struct RegistryGuard<'a>(MutexGuard<'a, State>);

impl Deref for RegistryGuard<'_> {
    type Target = ModelRegistry;

    fn deref(&self) -> &ModelRegistry {
        &self.0.registry
    }
}

impl Engine {
    /// Stages `next` as the next version of `model` and starts
    /// canarying live traffic onto it, without pausing the engine or
    /// dropping any in-flight request.
    ///
    /// `next` and `predictors` are what
    /// [`ModelRegistry::register`] takes: anything that converts into a
    /// [`Model`] (a loaded artifact keeps the mirror it carried) and
    /// any [`Predictor`]s — built-in, adaptive or custom — each filed
    /// under its own name on the staged version's own mirror, so a
    /// request naming one of them follows the swap; the incumbent's
    /// predictors under other names are filed there too, so no name
    /// stops resolving at promotion.  The staged version gets version
    /// `live + 1`.  While the swap is undecided, requests
    /// selected by `canary` run as pairs: the staged version answers
    /// the caller, the incumbent shadows for comparison.
    /// After [`CanaryConfig::min_requests`] comparisons within
    /// [`CanaryConfig::tolerance`] the staged version is promoted;
    /// the first comparison outside it rolls the swap back.  Either
    /// way the decision is applied by the worker that emits the last
    /// canary pair in flight — no further call is needed, so traffic
    /// over the wire completes a swap too — and is then reported by
    /// [`Engine::swap_reports`].  Requests already resolved keep their
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
        let mut state = self.shared.lock();
        if state.shutdown {
            return Err(EngineError::ShutDown);
        }
        let State {
            registry,
            lifecycle,
            ..
        } = &mut *state;
        lifecycle.stage(registry, model.into(), next.into(), predictors, canary)
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
        let mut state = self.shared.lock();
        let evicted = state.registry.evict(&model)?;
        let staged = state.lifecycle.evict(&model);
        // Parked workers drop their contexts for the retired versions.
        self.shared.work_cv.notify_all();
        // A version no request ran on is freed here, outside the lock.
        drop(state);
        drop((evicted, staged));
        Ok(())
    }

    /// Progress of the staged swap for `model`, `None` when no swap is
    /// staged (applied swaps move to [`Engine::swap_reports`]).
    pub fn swap_status(&self, model: impl Into<ModelId>) -> Option<SwapStatus> {
        let state = self.shared.lock();
        state.lifecycle.status(&model.into())
    }

    /// Takes the reports of every swap applied since the last call.
    pub fn swap_reports(&self) -> Vec<SwapReport> {
        let mut state = self.shared.lock();
        state.lifecycle.take_reports()
    }

    /// The model registry this engine serves, behind the engine's one
    /// lock (see [`RegistryGuard`]).
    pub fn registry(&self) -> RegistryGuard<'_> {
        RegistryGuard(self.shared.lock())
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
        self.shared.lock().lane_borrows
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
        let state = self.shared.lock();
        let mut merged: Vec<(ContextKey, ReuseStats)> = Vec::new();
        for (key, stats) in state.context_stats.iter().flatten() {
            match merged.iter_mut().find(|(k, _)| k == key) {
                Some((_, acc)) => acc.merge(stats),
                None => merged.push((key.clone(), *stats)),
            }
        }
        let predictors: Vec<_> = (merged.iter())
            .map(|(key, _)| {
                (state.registry.find_predictor(key))
                    .or_else(|| state.lifecycle.find_predictor(key))
                    .cloned()
            })
            .collect();
        // Controllers are read after the lock is released.
        drop(state);
        let mut contexts: Vec<ContextStats> = (merged.into_iter().zip(predictors))
            .map(|((key, stats), predictor)| ContextStats {
                model: key.model,
                version: key.version,
                predictor: key.predictor.as_ref().to_string(),
                stats,
                control: predictor.and_then(|p| p.control_snapshot()),
            })
            .collect();
        contexts.sort_by(|a, b| {
            (a.model.as_str(), a.version, &a.predictor).cmp(&(
                b.model.as_str(),
                b.version,
                &b.predictor,
            ))
        });
        contexts
    }

    /// The kernel dispatch tier this process serves with (resolved once
    /// from CPU detection / `NFM_KERNEL_BACKEND` — see
    /// [`nfm_tensor::backend`]).  Purely observability: the tier never
    /// changes results, only throughput.
    pub fn kernel_backend(&self) -> nfm_tensor::backend::KernelBackend {
        nfm_tensor::backend::active()
    }
    /// Lets paused workers start pulling work.
    pub fn resume(&self) {
        let mut state = self.shared.lock();
        state.paused = false;
        self.shared.work_cv.notify_all();
    }

    /// Requests submitted but not yet answered (queued or in flight).
    pub fn pending(&self) -> usize {
        self.shared.lock().outstanding
    }

    /// Requests waiting in the submission queue right now (excluding
    /// requests already on a lane).  This is the number
    /// [`queue_capacity`](Engine::queue_capacity) bounds — the signal
    /// admission control in front of the engine (e.g. the `nfm-net`
    /// listener's load shedding) watches to start rejecting
    /// low-priority traffic *before* the queue hard-fails everyone
    /// with [`EngineError::QueueFull`].
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether [`initiate_shutdown`](Engine::initiate_shutdown) (or a
    /// consuming [`shutdown`](Engine::shutdown)) has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.lock().shutdown
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
        let mut state = self.shared.lock();
        state.shutdown = true;
        self.shared.work_cv.notify_all();
        // Wake `drain` waiters too: their quiescence condition changes
        // shape under shutdown (workers exit instead of parking).
        self.shared.done_cv.notify_all();
    }

    /// Registers `notify` to be called whenever a response lands while
    /// no completed response is waiting, so a caller of
    /// [`take_completed`](Engine::take_completed) can sleep until there
    /// is something to take instead of polling.  It runs on a worker
    /// thread, outside the engine's lock, at most once between two
    /// calls that take the responses.  A shadow half of a canary pair
    /// calls it only when it leaves nothing [`pending`](Engine::pending)
    /// and nothing to take, so a caller waiting for the engine to empty
    /// hears of it.  Replaces any earlier notifier.
    pub fn set_completion_notifier(&self, notify: impl Fn() + Send + Sync + 'static) {
        self.shared.lock().notifier = Some(Notifier(Arc::new(notify)));
    }

    /// Takes every response completed so far, without blocking.
    pub fn take_completed(&self) -> Vec<InferenceResponse> {
        std::mem::take(&mut self.shared.lock().responses)
    }

    /// Blocks until every submitted request has a response, then takes
    /// them all.  Resumes a paused engine first.
    ///
    /// `drain` waits for full quiescence — zero outstanding requests
    /// *and* every worker parked — so the per-context counters behind
    /// [`context_stats`](Engine::context_stats) are complete for all
    /// returned responses by the time it returns.
    pub fn drain(&self) -> Vec<InferenceResponse> {
        let mut state = self.shared.lock();
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
    }

    /// The first internal execution error any worker hit, if any (the
    /// affected requests were answered with
    /// [`CompletionStatus::Rejected`](crate::CompletionStatus::Rejected)).
    pub fn last_error(&self) -> Option<String> {
        self.shared.lock().error.clone()
    }

    /// Stops accepting work, finishes everything already submitted
    /// (paused engines are resumed), joins the workers and returns the
    /// remaining responses.
    pub fn shutdown(mut self) -> Vec<InferenceResponse> {
        self.initiate_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        std::mem::take(&mut self.shared.lock().responses)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.initiate_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
