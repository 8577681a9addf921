//! Per-worker execution: one unified lane scheduler + evaluator per
//! served (model, predictor, threshold) combination.
//!
//! Every engine worker owns a [`LaneWorker`].  Requests arrive already
//! resolved against the registry (network +
//! [`Predictor`](nfm_core::Predictor) factory + [`ContextKey`]); the
//! worker groups them into **execution contexts** — one per distinct
//! key, created lazily on first use — and interleaves the non-idle
//! contexts one scheduling block at a time, so an engine serving
//! several models makes progress on all of them concurrently even with
//! a single worker thread.  The exception is bidirectional models:
//! their waves run to completion in one piece (`run_batch` needs whole
//! sequences), pausing the worker's other contexts for the wave's
//! duration — give latency-sensitive mixes of uni- and bidirectional
//! models separate workers.
//!
//! Each context owns a private evaluator (built once from the shared
//! factory — no weight or mirror clones) and one [`LaneScheduler`],
//! its refill policy picked from the model's direction:
//!
//! * [`RefillPolicy::Block`] (unidirectional stacks, any lane count) —
//!   lanes advance through the whole stack in [`HOIST_BLOCK`]-step
//!   blocks with every layer's input projections hoisted across all
//!   active lanes, a drained lane is refilled from the queue at the
//!   next block boundary (mid-wave refill), and an in-flight request
//!   whose deadline expires is aborted **between blocks** (under
//!   [`DeadlinePolicy::DropExpired`]), freeing its lane without
//!   computing the remaining steps.
//! * [`RefillPolicy::Wave`] (bidirectional stacks) — layer-lockstep
//!   waves via `DeepRnn::run_batch`; freed lanes refill at wave
//!   boundaries (the backward halves need whole sequences up front).
//!
//! Both policies produce bit-identical per-request outputs and reuse
//! statistics: scheduling never changes results, only latency.
//!
//! # Cross-context lane stealing
//!
//! A block scheduler is built with **twice** the engine's configured
//! lane count; the extra lanes are *borrowed* capacity.  The worker's
//! queue-pull predicate admits a request beyond a context's fair share
//! (the configured lane count) only while the worker's *total* active
//! lanes stay under `lanes × contexts` — i.e. a hot model may borrow
//! exactly the lanes its sibling contexts are leaving idle, and a
//! worker serving a single context never exceeds the configured count.
//! Borrowing widens the hoisted matrix products of the hot context
//! (more rows per weight stream) without starving anyone: the moment a
//! cold context gets traffic, its fair share is free by construction.
//!
//! # Worker work stealing
//!
//! When another engine worker goes idle while this one still holds two
//! or more active lanes, the worker **migrates** one in-flight lane to
//! it through the engine's [`StealBridge`]: the lane with the most
//! remaining timesteps (at least [`MIN_STEAL_REMAINING`]) is extracted
//! as a [`LaneSnapshot`] together with the evaluator's per-lane state
//! ([`ServedEvaluator::export_lane_state`]), and the receiving worker
//! implants it into its own context and resumes mid-sequence.
//! Migration is bit-transparent — the resumed lane consumes the same
//! inputs and recurrent state in the same scalar order — and
//! exactly-once: the donor forgets the request without emitting, the
//! receiver emits its single response.  Evaluators that do not
//! implement the export/import hooks never migrate.

use crate::registry::{ContextKey, Resolved};
use crate::request::{
    CompletionStatus, DeadlinePolicy, InferenceRequest, InferenceResponse, RequestId,
};
use nfm_core::{LaneState, ReuseStats, ServedEvaluator};
use nfm_rnn::{DeepRnn, FinishedLane, LaneScheduler, LaneSnapshot, RefillPolicy, HOIST_BLOCK};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Routes a response back to the engine's swap observer: the
/// submission serial (unique per admitted request) plus whether this is
/// the suppressed shadow half of a canary pair.  Workers thread the tag
/// through unchanged; only the engine's emit closure interprets it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResponseTag {
    pub(crate) serial: u64,
    pub(crate) shadow: bool,
}

/// A request plus its submission timestamp (queue-latency anchor) and
/// its registry resolution.
#[derive(Debug)]
pub(crate) struct QueuedRequest {
    pub req: InferenceRequest,
    pub submitted_at: Instant,
    pub resolved: Resolved,
    /// Engine-issued submission serial (see [`ResponseTag`]).
    pub serial: u64,
    /// Whether this is the suppressed shadow half of a canary pair.
    pub shadow: bool,
}

impl QueuedRequest {
    fn expired(&self) -> bool {
        match self.req.deadline {
            Some(deadline) => self.submitted_at.elapsed() > deadline,
            None => false,
        }
    }

    fn tag(&self) -> ResponseTag {
        ResponseTag {
            serial: self.serial,
            shadow: self.shadow,
        }
    }
}

/// A request occupying a scheduler lane (or staged for the next wave).
pub(crate) struct Inflight {
    id: RequestId,
    deadline: Option<Duration>,
    submitted_at: Instant,
    admitted_at: Instant,
    timesteps: usize,
    serial: u64,
    shadow: bool,
}

impl Inflight {
    fn expired(&self) -> bool {
        match self.deadline {
            Some(d) => self.submitted_at.elapsed() > d,
            None => false,
        }
    }

    fn tag(&self) -> ResponseTag {
        ResponseTag {
            serial: self.serial,
            shadow: self.shadow,
        }
    }
}

/// Fewest remaining timesteps an in-flight lane must have to be worth
/// migrating to an idle worker: below two full hoist blocks the donor
/// finishes the lane faster than the handoff amortizes.
pub(crate) const MIN_STEAL_REMAINING: usize = 2 * HOIST_BLOCK;

/// An in-flight lane migrating from a saturated worker to an idle one:
/// the scheduler-side snapshot, the evaluator's per-lane state, and the
/// request bookkeeping (original timestamps, so latency accounting
/// spans the migration).
pub(crate) struct MigratedLane {
    pub(crate) resolved: Resolved,
    pub(crate) inflight: Inflight,
    pub(crate) snapshot: LaneSnapshot,
    pub(crate) eval_state: LaneState,
}

impl fmt::Debug for MigratedLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MigratedLane")
            .field("key", &self.resolved.key)
            .field("request", &self.inflight.id)
            .field("remaining", &self.snapshot.remaining())
            .finish_non_exhaustive()
    }
}

/// The worker's window onto the engine's migration pool.  All methods
/// are called from the worker thread between scheduling blocks.
pub(crate) trait StealBridge {
    /// Pops a migrated lane this worker can host right now, leaving the
    /// rest pooled.
    fn try_receive(&self, admittable: &dyn Fn(&MigratedLane) -> bool) -> Option<MigratedLane>;
    /// Whether some other worker is idle and the pool is empty — the
    /// donor-side precondition for extracting a lane.
    fn donation_wanted(&self) -> bool;
    /// Hands an extracted lane to the pool and wakes an idle worker.
    fn donate(&self, lane: MigratedLane);
    /// Records a cross-context lane borrow (observability only).
    fn note_lane_borrow(&self);
}

/// Unified scheduler bookkeeping of one execution context.
struct LaneSched {
    scheduler: LaneScheduler,
    /// Requests on lanes (or staged for the next wave), by token.
    inflight: HashMap<u64, Inflight>,
    /// Scratch for [`LaneScheduler::step`] results.
    finished: Vec<FinishedLane>,
    /// Tokens are context-local and never reused.
    next_token: u64,
}

/// One (model, predictor, threshold) combination being served: private
/// evaluator + lane scheduler.
struct ExecContext {
    key: ContextKey,
    /// The registry resolution that created this context, kept so a
    /// migrating lane carries everything its receiver needs.
    resolved: Resolved,
    network: Arc<DeepRnn>,
    evaluator: Box<dyn ServedEvaluator>,
    evals_per_step: u64,
    sched: LaneSched,
    /// Worker-clock value of the last request routed here (LRU
    /// eviction of idle threshold-override contexts).
    last_used: u64,
}

impl ExecContext {
    /// Builds a context, reviving a parked evaluator when the worker
    /// held on to one for this key (LRU-evicted override contexts park
    /// their evaluators so recreation reuses the allocations — memo
    /// tables, sign buffers, lane state — instead of rebuilding them).
    fn new(
        key: ContextKey,
        resolved: &Resolved,
        lanes: usize,
        revived: Option<Box<dyn ServedEvaluator>>,
    ) -> ExecContext {
        let network = Arc::clone(&resolved.network);
        let mut evaluator = revived.unwrap_or_else(|| resolved.predictor.build_evaluator(&network));
        // A revived evaluator carries stale aggregate counters; all
        // per-request state is reset at admission, but the counters
        // must start from zero like a fresh build's.
        evaluator.reset_stats();
        let unidirectional = network.layers().iter().all(|l| !l.is_bidirectional());
        let (policy, capacity) = if unidirectional {
            // Twice the fair share: the extra lanes are borrowable
            // capacity for cross-context lane stealing.  The queue-pull
            // predicate keeps a context at its fair share unless
            // sibling contexts leave lanes idle.
            (RefillPolicy::Block, lanes * 2)
        } else {
            (RefillPolicy::Wave, lanes)
        };
        let scheduler = LaneScheduler::new(&network, capacity, policy)
            .expect("lanes >= 1, and Wave accepts any stack");
        if policy == RefillPolicy::Block {
            // Size the evaluator's per-lane state once up front (wave
            // schedulers size it per wave inside run_batch).
            evaluator.begin_batch(capacity);
        }
        let evals_per_step = network.neuron_evaluations_per_step() as u64;
        ExecContext {
            key,
            resolved: resolved.clone(),
            network,
            evaluator,
            evals_per_step,
            sched: LaneSched {
                scheduler,
                inflight: HashMap::new(),
                finished: Vec::new(),
                next_token: 0,
            },
            last_used: 0,
        }
    }

    /// Whether this context holds no admitted or staged work.
    fn is_idle(&self) -> bool {
        self.sched.scheduler.is_idle()
    }

    /// Whether this context can take one more request right now (the
    /// worker's queue-pull admissibility predicate): room within its
    /// fair share, or a borrowable lane some sibling context is leaving
    /// idle (cross-context lane stealing — block schedulers only, and
    /// never past the worker-wide fair-share total, so a single-context
    /// worker never exceeds the configured lane count).
    fn can_accept(&self, fair_share: usize, total_active: usize, contexts: usize) -> bool {
        let active = self.sched.scheduler.active_lanes();
        if active < fair_share {
            return true;
        }
        self.sched.scheduler.policy() == RefillPolicy::Block
            && total_active < fair_share * contexts
            && self.sched.scheduler.free_lanes() > 0
    }
}

/// Statistics attributable to the request that just left `lane`:
/// harvested from the evaluator when it tracks per-lane counters,
/// synthesized as all-computed otherwise (correct for evaluators that
/// never skip work — the exact baseline and plain custom evaluators).
fn harvest_lane_stats(
    evaluator: &mut dyn ServedEvaluator,
    evals_per_step: u64,
    lane: usize,
    timesteps: usize,
) -> ReuseStats {
    evaluator.take_lane_stats(lane).unwrap_or_else(|| {
        let mut stats = ReuseStats::new();
        stats.record_computed_many(timesteps as u64 * evals_per_step);
        stats
    })
}

/// Default for how many execution contexts born from per-request
/// threshold overrides one worker keeps alive at once.  Registered
/// (model, predictor) combinations are never evicted — their count is
/// bounded by the registry — but every distinct override θ materializes
/// its own context, and clients sweeping thresholds would otherwise
/// grow worker memory without bound.  Idle override contexts beyond the
/// cap are dropped least-recently-used first, their evaluators parked
/// (also LRU-bounded by the cap) so recreating one revives the parked
/// allocations instead of rebuilding; a miss is just an evaluator build
/// (all per-request state is reset at admission anyway, so neither
/// eviction nor revival ever changes results).  Tune per engine with
/// [`EngineBuilder::override_context_cap`](crate::EngineBuilder::override_context_cap).
pub(crate) const DEFAULT_OVERRIDE_CONTEXT_CAP: usize = 8;

/// The queue-pull callback handed to [`LaneWorker::pump`]: pops the
/// highest-priority queued request satisfying the worker's
/// admissibility predicate, leaving everything else queued.
pub(crate) type PullFn<'a> =
    dyn FnMut(&dyn Fn(&QueuedRequest) -> bool) -> Option<QueuedRequest> + 'a;

/// One worker: a set of execution contexts fed from the shared queue.
pub(crate) struct LaneWorker {
    lanes: usize,
    policy: DeadlinePolicy,
    /// Per-worker bound on idle threshold-override contexts (the
    /// [`EngineBuilder::override_context_cap`](crate::EngineBuilder::override_context_cap)
    /// knob).
    override_context_cap: usize,
    /// Live contexts in creation order (deterministic stepping; one
    /// entry per served combination, override contexts capped by
    /// `override_context_cap`).
    contexts: Vec<ExecContext>,
    /// Evaluators of LRU-evicted override contexts, parked for reuse:
    /// a client sweeping back to a recently-evicted θ gets its old
    /// evaluator's allocations back (memo tables, sign buffers, lane
    /// state) instead of a rebuild.  Bounded by `override_context_cap`,
    /// least-recently-used entries dropped first; per-request state is
    /// reset at admission anyway, so revival never changes results.
    parked: Vec<(ContextKey, Box<dyn ServedEvaluator>, u64)>,
    /// Monotonic routing counter backing context LRU eviction.
    clock: u64,
}

impl LaneWorker {
    /// Builds a worker; contexts appear lazily as resolved requests
    /// arrive.  The caller guarantees `lanes >= 1` and
    /// `override_context_cap >= 1`.
    pub(crate) fn new(
        lanes: usize,
        policy: DeadlinePolicy,
        override_context_cap: usize,
    ) -> LaneWorker {
        debug_assert!(lanes >= 1);
        debug_assert!(override_context_cap >= 1);
        LaneWorker {
            lanes,
            policy,
            override_context_cap,
            contexts: Vec::new(),
            parked: Vec::new(),
            clock: 0,
        }
    }

    /// Aggregate reuse counters of every live execution context, keyed
    /// by context identity — the feed behind
    /// [`Engine::context_stats`](crate::Engine::context_stats).
    /// Evaluators that keep no counters (custom predictors without
    /// [`ServedEvaluator::stats_snapshot`]) report empty stats.
    pub(crate) fn stats_snapshots(&self) -> Vec<(ContextKey, ReuseStats)> {
        self.contexts
            .iter()
            .map(|c| {
                let stats = c.evaluator.stats_snapshot().unwrap_or_default();
                (c.key.clone(), stats)
            })
            .collect()
    }

    /// Drains work from `pull` (and migrated lanes from `bridge`) until
    /// both run dry and every context is idle, emitting one response
    /// per request.  Internal execution errors (which submit-time
    /// validation makes unreachable for well-formed engines) turn the
    /// affected requests into [`CompletionStatus::Rejected`] responses
    /// — never silently dropped — and are passed to `report` *before*
    /// those responses are emitted, so a caller observing a rejected
    /// response always finds the root cause already recorded.
    pub(crate) fn pump(
        &mut self,
        pull: &mut PullFn<'_>,
        bridge: &dyn StealBridge,
        emit: &mut dyn FnMut(InferenceResponse, ResponseTag),
        report: &mut dyn FnMut(String),
    ) {
        loop {
            // Migrated lanes first: they carry in-flight work another
            // worker already started, so they outrank fresh queue
            // pulls.
            loop {
                let contexts = &self.contexts;
                let receivable = |m: &MigratedLane| -> bool {
                    match contexts.iter().find(|c| c.key == m.resolved.key) {
                        // A fresh context always has room.
                        None => true,
                        Some(ctx) => {
                            ctx.sched.scheduler.policy() == RefillPolicy::Block
                                && ctx.sched.scheduler.free_lanes() > 0
                        }
                    }
                };
                let Some(lane) = bridge.try_receive(&receivable) else {
                    break;
                };
                self.receive(lane, emit, report);
            }
            // Fill phase: pull until the queue has nothing this worker
            // can place right now.  The admissibility predicate keeps
            // requests for saturated contexts *on the shared queue*
            // (skipped, not taken), so this worker never hoards work
            // another worker could serve, a saturated model never
            // stalls the other models, and backpressure accounting
            // stays truthful.  Requests a worker can place are taken
            // strictly in queue priority order.
            loop {
                let lanes = self.lanes;
                let contexts = &self.contexts;
                let total_active: usize = contexts
                    .iter()
                    .map(|c| c.sched.scheduler.active_lanes())
                    .sum();
                let count = contexts.len();
                let admittable = |q: &QueuedRequest| -> bool {
                    match contexts.iter().find(|c| c.key == q.resolved.key) {
                        // New combination: a fresh context always has room.
                        None => true,
                        Some(ctx) => ctx.can_accept(lanes, total_active, count),
                    }
                };
                let Some(q) = pull(&admittable) else { break };
                self.route(q, bridge, emit, report);
            }
            // Step phase: one scheduling block for every active
            // context.  Non-empty waves are due now — the fill phase
            // just proved the queue holds nothing more this worker
            // could add.
            let progressed = self.step_contexts(emit, report);
            // Donate phase: if another worker went idle while this one
            // still holds several active lanes, hand one over.
            let donated = self.try_donate(bridge);
            if !progressed && !donated && self.contexts.iter().all(ExecContext::is_idle) {
                return;
            }
        }
    }

    /// Index of the context for `resolved`, creating it on first use
    /// (and evicting a stale idle threshold-override context when the
    /// override population outgrows the configured cap).
    fn context_index(&mut self, resolved: &Resolved) -> usize {
        self.clock += 1;
        let clock = self.clock;
        match self.contexts.iter().position(|c| c.key == resolved.key) {
            Some(i) => {
                self.contexts[i].last_used = clock;
                i
            }
            None => {
                let mut revived = None;
                if resolved.key.threshold_bits.is_some() {
                    self.evict_stale_override_contexts();
                    // Evict first, then check the parked pool: a θ the
                    // client swept away from and is now sweeping back
                    // to gets its old evaluator's allocations back.
                    if let Some(pos) = self
                        .parked
                        .iter()
                        .position(|(key, _, _)| *key == resolved.key)
                    {
                        revived = Some(self.parked.remove(pos).1);
                    }
                }
                let mut ctx = ExecContext::new(resolved.key.clone(), resolved, self.lanes, revived);
                ctx.last_used = clock;
                self.contexts.push(ctx);
                self.contexts.len() - 1
            }
        }
    }

    /// Drops least-recently-used *idle* threshold-override contexts
    /// until their population is back under the cap (a burst of
    /// distinct overrides can overshoot it while every context still
    /// holds work — this shrinks the population as they drain, instead
    /// of ratcheting).  Contexts with admitted or staged work are
    /// never touched, and neither are the registered (no-override)
    /// combinations.
    fn evict_stale_override_contexts(&mut self) {
        loop {
            let overrides = self
                .contexts
                .iter()
                .filter(|c| c.key.threshold_bits.is_some())
                .count();
            if overrides < self.override_context_cap {
                return;
            }
            let victim = self
                .contexts
                .iter()
                .enumerate()
                .filter(|(_, c)| c.key.threshold_bits.is_some() && c.is_idle())
                .min_by_key(|(_, c)| c.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let ctx = self.contexts.remove(i);
                    self.park_evaluator(ctx);
                }
                // Everything over the cap is busy; try again when the
                // next override context is created.
                None => return,
            }
        }
    }

    /// Parks an evicted override context's evaluator for later revival,
    /// keeping the pool itself under the override cap (oldest parked
    /// entry dropped first).
    fn park_evaluator(&mut self, ctx: ExecContext) {
        self.parked.push((ctx.key, ctx.evaluator, ctx.last_used));
        while self.parked.len() > self.override_context_cap {
            let oldest = self
                .parked
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, last_used))| *last_used)
                .map(|(i, _)| i)
                .expect("pool is non-empty past the cap");
            self.parked.remove(oldest);
        }
    }

    /// Routes one pulled request: admits it into its context's
    /// scheduler (block lanes start at the next step phase, wave
    /// admissions stage until their wave is due).  The pull predicate
    /// guarantees the context has room; the full-context branch below
    /// is defensive (it fails the request loudly instead of hanging
    /// the engine if that invariant is ever broken).
    fn route(
        &mut self,
        q: QueuedRequest,
        bridge: &dyn StealBridge,
        emit: &mut dyn FnMut(InferenceResponse, ResponseTag),
        report: &mut dyn FnMut(String),
    ) {
        let queue_latency = q.submitted_at.elapsed();
        let tag = q.tag();
        if q.expired() && self.policy == DeadlinePolicy::DropExpired {
            emit(
                expired_response(q.req.id, queue_latency, Duration::ZERO),
                tag,
            );
            return;
        }
        let fair_share = self.lanes;
        let idx = self.context_index(&q.resolved);
        let ctx = &mut self.contexts[idx];
        if ctx.sched.scheduler.free_lanes() == 0 {
            debug_assert!(false, "pull predicate admitted into a full scheduler");
            report("request routed to a full execution context".into());
            emit(
                rejected_response(q.req.id, queue_latency, Duration::ZERO),
                tag,
            );
            return;
        }
        // An admission past the fair share is a borrowed sibling lane.
        let borrows = ctx.sched.scheduler.policy() == RefillPolicy::Block
            && ctx.sched.scheduler.active_lanes() >= fair_share;
        let token = ctx.sched.next_token;
        ctx.sched.next_token += 1;
        let timesteps = q.req.sequence.len();
        // Timestamp before admit(): lane setup is the request's own
        // compute, not queue wait.  (Wave admissions re-stamp when
        // their wave actually starts.)
        let admitted_at = Instant::now();
        match ctx
            .sched
            .scheduler
            .admit(token, q.req.sequence, ctx.evaluator.as_mut())
        {
            Ok(()) => {
                ctx.sched.inflight.insert(
                    token,
                    Inflight {
                        id: q.req.id,
                        deadline: q.req.deadline,
                        submitted_at: q.submitted_at,
                        admitted_at,
                        timesteps,
                        serial: q.serial,
                        shadow: q.shadow,
                    },
                );
                if borrows {
                    bridge.note_lane_borrow();
                }
            }
            Err(e) => {
                report(e.to_string());
                emit(
                    rejected_response(q.req.id, queue_latency, Duration::ZERO),
                    tag,
                );
            }
        }
    }

    /// Advances every non-idle context by one scheduling block (block
    /// policy) or one whole staged wave (wave policy), after aborting
    /// expired in-flight requests.  Returns whether any compute
    /// happened.
    fn step_contexts(
        &mut self,
        emit: &mut dyn FnMut(InferenceResponse, ResponseTag),
        report: &mut dyn FnMut(String),
    ) -> bool {
        let mut progressed = false;
        let policy = self.policy;
        for ctx in &mut self.contexts {
            if step_context(ctx, policy, emit, report) {
                progressed = true;
            }
        }
        progressed
    }

    /// Donor half of worker work stealing: when another worker is idle
    /// and this one still holds two or more active lanes, extract the
    /// lane with the most remaining work (evaluator state included) and
    /// hand it over.  At most one lane per pump round — the pool is
    /// drained before anyone donates again, so workers cannot flood it.
    fn try_donate(&mut self, bridge: &dyn StealBridge) -> bool {
        if !bridge.donation_wanted() {
            return false;
        }
        let total_active: usize = self
            .contexts
            .iter()
            .map(|c| c.sched.scheduler.active_lanes())
            .sum();
        // Never donate the last active lane: that just moves the work.
        if total_active < 2 {
            return false;
        }
        for ctx in &mut self.contexts {
            let Some(token) = ctx.sched.scheduler.steal_candidate(MIN_STEAL_REMAINING) else {
                continue;
            };
            let Some(lane) = ctx.sched.scheduler.lane_of(token) else {
                continue;
            };
            // Export the evaluator's lane state *before* extraction
            // compacts the lane prefix; evaluators without the hook
            // keep their lanes.
            let Some(eval_state) = ctx.evaluator.export_lane_state(lane) else {
                continue;
            };
            let snapshot = ctx
                .sched
                .scheduler
                .extract(token, ctx.evaluator.as_mut())
                .expect("steal candidate is an active lane");
            let inflight = ctx
                .sched
                .inflight
                .remove(&token)
                .expect("active lanes are tracked");
            bridge.donate(MigratedLane {
                resolved: ctx.resolved.clone(),
                inflight,
                snapshot,
                eval_state,
            });
            return true;
        }
        false
    }

    /// Receiver half of worker work stealing: implant a migrated lane
    /// into this worker's context for the same key and resume it
    /// mid-sequence.  The failure paths are defensive — the donor only
    /// exports through the same evaluator hooks — and fail the request
    /// loudly rather than losing it.
    fn receive(
        &mut self,
        lane: MigratedLane,
        emit: &mut dyn FnMut(InferenceResponse, ResponseTag),
        report: &mut dyn FnMut(String),
    ) {
        let MigratedLane {
            resolved,
            inflight,
            snapshot,
            eval_state,
        } = lane;
        let queue_latency = inflight.admitted_at.duration_since(inflight.submitted_at);
        let compute_latency = inflight.admitted_at.elapsed();
        let idx = self.context_index(&resolved);
        let ctx = &mut self.contexts[idx];
        let token = ctx.sched.next_token;
        ctx.sched.next_token += 1;
        match ctx.sched.scheduler.implant(token, snapshot) {
            Ok(lane_idx) => {
                if ctx.evaluator.import_lane_state(lane_idx, eval_state) {
                    ctx.sched.inflight.insert(token, inflight);
                } else {
                    let _ = ctx.sched.scheduler.cancel(token, ctx.evaluator.as_mut());
                    report("migrated lane rejected: evaluator refused the lane state".into());
                    emit(
                        rejected_response(inflight.id, queue_latency, compute_latency),
                        inflight.tag(),
                    );
                }
            }
            Err(e) => {
                report(e.to_string());
                emit(
                    rejected_response(inflight.id, queue_latency, compute_latency),
                    inflight.tag(),
                );
            }
        }
    }
}

/// Aborts expired in-flight requests, then advances one context by a
/// scheduling block (or a whole staged wave).  Returns whether any
/// compute happened.
fn step_context(
    ctx: &mut ExecContext,
    policy: DeadlinePolicy,
    emit: &mut dyn FnMut(InferenceResponse, ResponseTag),
    report: &mut dyn FnMut(String),
) -> bool {
    // Split the context's fields so the scheduler, evaluator and
    // network can be borrowed side by side.
    let ExecContext {
        network,
        evaluator,
        evals_per_step,
        sched,
        ..
    } = ctx;
    let evals_per_step = *evals_per_step;
    if sched.scheduler.is_idle() {
        return false;
    }
    // Block-boundary deadline aborts: a request whose budget ran out
    // mid-sequence frees its lane *now* (mid-wave, like refill) instead
    // of computing its remaining timesteps; a staged wave admission
    // whose budget ran out is unstaged before it costs anything.  Only
    // DropExpired aborts; RunToCompletion keeps computing and reports
    // the late result.
    if policy == DeadlinePolicy::DropExpired {
        let expired: Vec<u64> = sched
            .inflight
            .iter()
            .filter(|(_, info)| info.expired())
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            let cancelled = sched
                .scheduler
                .cancel(token, evaluator.as_mut())
                .expect("inflight tokens are scheduled");
            let info = sched.inflight.remove(&token).expect("lane tracked");
            match cancelled.stats_lane {
                // The lane ran: zero its counters (the partial work is
                // discarded with the outputs) and report the abort with
                // partial latency accounting — the queue wait it really
                // had, the compute time it really consumed.
                Some(lane) => {
                    let _ = harvest_lane_stats(
                        evaluator.as_mut(),
                        evals_per_step,
                        lane,
                        cancelled.outputs.len(),
                    );
                    emit(
                        InferenceResponse {
                            id: info.id,
                            status: CompletionStatus::DeadlineExpired,
                            outputs: Vec::new(),
                            stats: ReuseStats::new(),
                            queue_latency: info.admitted_at.duration_since(info.submitted_at),
                            compute_latency: info.admitted_at.elapsed(),
                        },
                        info.tag(),
                    );
                }
                // A staged wave admission that never entered the
                // evaluator: pure queue wait, zero compute.
                None => {
                    emit(
                        expired_response(info.id, info.submitted_at.elapsed(), Duration::ZERO),
                        info.tag(),
                    );
                }
            }
        }
        if sched.scheduler.is_idle() {
            return false;
        }
    }
    // A staged wave starts computing *now*: re-stamp its admissions so
    // queue latency covers the whole staging wait and compute latency
    // the wave itself.
    if sched.scheduler.policy() == RefillPolicy::Wave {
        let wave_start = Instant::now();
        for info in sched.inflight.values_mut() {
            info.admitted_at = wave_start;
        }
    }
    match sched
        .scheduler
        .step(network, evaluator.as_mut(), &mut sched.finished)
    {
        Ok(advanced) => {
            // Read each finished lane's stats before the next admission
            // reuses its slot.
            let finished = std::mem::take(&mut sched.finished);
            for f in finished {
                let info = sched.inflight.remove(&f.token).expect("lane tracked");
                let stats = match f.stats_lane {
                    Some(lane) => {
                        harvest_lane_stats(evaluator.as_mut(), evals_per_step, lane, info.timesteps)
                    }
                    // Unreachable for finished lanes (only cancelled
                    // wave-pending admissions lack a lane).
                    None => ReuseStats::new(),
                };
                emit(
                    InferenceResponse {
                        id: info.id,
                        status: completion_status(&info.deadline, info.submitted_at),
                        outputs: f.outputs,
                        stats,
                        queue_latency: info.admitted_at.duration_since(info.submitted_at),
                        compute_latency: info.admitted_at.elapsed(),
                    },
                    info.tag(),
                );
            }
            advanced > 0
        }
        Err(e) => {
            // Unreachable for validated submissions; fail the in-flight
            // requests loudly and restart the scheduler with fresh
            // lanes.
            report(e.to_string());
            for (_, info) in sched.inflight.drain() {
                emit(
                    rejected_response(
                        info.id,
                        info.admitted_at.duration_since(info.submitted_at),
                        info.admitted_at.elapsed(),
                    ),
                    info.tag(),
                );
            }
            let capacity = sched.scheduler.lanes();
            let refill = sched.scheduler.policy();
            sched.scheduler = LaneScheduler::new(network, capacity, refill)
                .expect("same network accepted this configuration before");
            if refill == RefillPolicy::Block {
                evaluator.begin_batch(capacity);
            }
            sched.finished.clear();
            true
        }
    }
}

/// Status of a computed request: late if its deadline elapsed anywhere
/// between submission and now.
fn completion_status(deadline: &Option<Duration>, submitted_at: Instant) -> CompletionStatus {
    match deadline {
        Some(d) if submitted_at.elapsed() > *d => CompletionStatus::DeadlineExpired,
        _ => CompletionStatus::Done,
    }
}

fn expired_response(
    id: RequestId,
    queue_latency: Duration,
    compute_latency: Duration,
) -> InferenceResponse {
    InferenceResponse {
        id,
        status: CompletionStatus::DeadlineExpired,
        outputs: Vec::new(),
        stats: ReuseStats::new(),
        queue_latency,
        compute_latency,
    }
}

fn rejected_response(
    id: RequestId,
    queue_latency: Duration,
    compute_latency: Duration,
) -> InferenceResponse {
    InferenceResponse {
        id,
        status: CompletionStatus::Rejected,
        outputs: Vec::new(),
        stats: ReuseStats::new(),
        queue_latency,
        compute_latency,
    }
}
