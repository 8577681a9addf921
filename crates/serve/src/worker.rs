//! Per-worker execution: one lane scheduler + evaluator per served
//! (model, predictor) combination.
//!
//! Every engine worker owns a [`LaneWorker`].  Requests arrive already
//! resolved against the registry ([`Model`](nfm_core::Model) +
//! [`Predictor`](nfm_core::Predictor) + [`ContextKey`]); the
//! worker groups them into **execution contexts** — one per distinct
//! key, created lazily on first use, dropped once idle after the
//! registry retires their model version, so their number is bounded by
//! what the registry holds — and interleaves the non-idle contexts one
//! scheduling step at a time, so an engine serving several models makes
//! progress on all of them concurrently even with a single worker
//! thread.  The exception is bidirectional models: one step of theirs
//! spans their seated sequences whole (the backward halves need them),
//! pausing the worker's other contexts for its duration — give
//! latency-sensitive mixes of uni- and bidirectional models separate
//! workers.
//!
//! Each context owns a private evaluator (built once by the predictor
//! over the shared `Model` — no weight or mirror clones) and one
//! [`LaneScheduler`].
//! A request is admitted into a lane — the one path for every model —
//! and whatever is specific to it lives on that lane: a `θ` override is
//! installed through [`ServedEvaluator::set_lane_threshold`] right
//! after admission and ends with the lane's sequence, so requests that
//! differ only in `θ` share one context, one gate call and one weight
//! stream.  Every context advances by [`LaneScheduler::step`], the one
//! stack driver: a step covers [`HOIST_BLOCK`](nfm_rnn::HOIST_BLOCK)
//! timesteps of every lane of a unidirectional stack — every layer's
//! input projections hoisted across all active lanes (exact and
//! memoized predictors alike), drained lanes
//! refilled from the queue at the next block boundary (mid-wave
//! refill) — and the whole seated sequences of a stack with a
//! bidirectional layer, which refills when the step returns.  A
//! request whose deadline expired in the queue is answered without
//! compute, and an in-flight one is aborted **between steps**, freeing
//! its lane without computing the remaining timesteps — always.
//!
//! Per-request outputs and reuse statistics are bit-identical whatever
//! shares the scheduler: scheduling never changes results, only
//! latency.
//!
//! # Cross-context lane borrowing
//!
//! A scheduler that refills mid-wave is built with **twice** the
//! engine's configured lane count; the extra lanes are *borrowed*
//! capacity.  The worker's queue-pull predicate admits a request beyond
//! a context's fair share (the configured lane count) only while the
//! worker's *total* active lanes stay under `lanes × contexts` — i.e. a
//! hot model may borrow exactly the lanes its sibling contexts are
//! leaving idle, and a worker serving a single context never exceeds
//! the configured count.
//! Borrowing widens the hot context's matrix products (more rows per
//! weight stream: the hoisted `W_x` block and the per-step `W_h` tile,
//! under every built-in predictor) without starving anyone: the moment
//! a cold context gets traffic, its fair share is free by construction.
//!
//! A lane stays on the worker that admitted it until it finishes, is
//! cancelled or aborts at its deadline: workers share the queue, never
//! in-flight lanes.

use crate::registry::{ContextKey, Resolved};
use crate::request::{CompletionStatus, InferenceRequest, InferenceResponse, RequestId};
use nfm_core::{ReuseStats, ServedEvaluator};
use nfm_rnn::{FinishedLane, LaneScheduler};
use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Routes a response back to the hot-swap lifecycle: the submission
/// serial (unique per admitted request) plus whether this is the
/// suppressed shadow half of a canary pair.  Workers thread the tag
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
    fn tag(&self) -> ResponseTag {
        ResponseTag {
            serial: self.serial,
            shadow: self.shadow,
        }
    }
}

/// A request occupying a scheduler lane.
struct Inflight {
    id: RequestId,
    deadline: Option<Duration>,
    submitted_at: Instant,
    admitted_at: Instant,
    timesteps: usize,
    tag: ResponseTag,
}

/// Whether a request submitted at `submitted_at` has outlived its
/// deadline by now.
fn past_deadline(deadline: Option<Duration>, submitted_at: Instant) -> bool {
    deadline.is_some_and(|d| submitted_at.elapsed() > d)
}

/// Scheduler bookkeeping of one execution context.
struct LaneSched {
    scheduler: LaneScheduler,
    /// Requests on lanes, by token.
    inflight: HashMap<u64, Inflight>,
    /// Scratch for [`LaneScheduler::step`] results.
    finished: Vec<FinishedLane>,
    /// Tokens are context-local and never reused.
    next_token: u64,
}

/// One (model, predictor) combination being served: private evaluator +
/// lane scheduler.
struct ExecContext {
    /// The registry resolution that created this context (less its
    /// request's `θ`, which is lane state): its identity and model.
    resolved: Resolved,
    evaluator: Box<dyn ServedEvaluator>,
    evals_per_step: u64,
    sched: LaneSched,
}

impl ExecContext {
    fn new(resolved: &Resolved, lanes: usize) -> ExecContext {
        let network = resolved.model.network();
        let mut evaluator = resolved.predictor.build_evaluator(&resolved.model);
        // Twice the fair share where lanes refill mid-wave: the extra
        // lanes are borrowable capacity for cross-context lane
        // borrowing.  The queue-pull predicate keeps a context at its
        // fair share unless sibling contexts leave lanes idle.  A
        // context that steps whole sequences could not use a borrowed
        // lane before its seated lanes have all finished, so it gets
        // none.
        let capacity = if LaneScheduler::refills_mid_wave(network) {
            lanes * 2
        } else {
            lanes
        };
        let scheduler = LaneScheduler::new(network, capacity).expect("lanes >= 1");
        evaluator.begin_batch(capacity);
        let evals_per_step = network.neuron_evaluations_per_step() as u64;
        ExecContext {
            resolved: Resolved {
                threshold: None,
                ..resolved.clone()
            },
            evaluator,
            evals_per_step,
            sched: LaneSched {
                scheduler,
                inflight: HashMap::new(),
                finished: Vec::new(),
                next_token: 0,
            },
        }
    }

    /// Whether this context holds no admitted work.
    fn is_idle(&self) -> bool {
        self.sched.scheduler.is_idle()
    }

    /// Whether the registry no longer routes to this context's model
    /// version and nothing is running on it: its weights, evaluator
    /// tables and scheduler can go.
    fn is_spent(&self) -> bool {
        self.is_idle() && self.resolved.model.is_retired()
    }

    /// Whether this context can take one more request right now (the
    /// worker's queue-pull admissibility predicate): room within its
    /// fair share, or a borrowable lane some sibling context is leaving
    /// idle (cross-context lane borrowing — only schedulers built with
    /// spare lanes have one, and never past the worker-wide fair-share
    /// total, so a single-context worker never exceeds the configured
    /// lane count).
    fn can_accept(&self, fair_share: usize, total_active: usize, contexts: usize) -> bool {
        self.sched.scheduler.active_lanes() < fair_share
            || (total_active < fair_share * contexts && self.sched.scheduler.free_lanes() > 0)
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

/// The queue-pull callback handed to [`LaneWorker::pump`]: pops the
/// highest-priority queued request satisfying the worker's
/// admissibility predicate, leaving everything else queued.
pub(crate) type PullFn<'a> =
    dyn FnMut(&dyn Fn(&QueuedRequest) -> bool) -> Option<QueuedRequest> + 'a;

/// One worker: a set of execution contexts fed from the shared queue.
pub(crate) struct LaneWorker {
    lanes: usize,
    /// Live contexts in creation order (deterministic stepping; one
    /// entry per served (model, version, predictor) combination).
    contexts: Vec<ExecContext>,
}

impl LaneWorker {
    /// Builds a worker; contexts appear lazily as resolved requests
    /// arrive.  The caller guarantees `lanes >= 1`.
    pub(crate) fn new(lanes: usize) -> LaneWorker {
        debug_assert!(lanes >= 1);
        LaneWorker {
            lanes,
            contexts: Vec::new(),
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
                (c.resolved.key.clone(), stats)
            })
            .collect()
    }

    /// Whether some context is idle on a version the registry has
    /// promoted over, rolled back or evicted.
    pub(crate) fn has_spent_contexts(&self) -> bool {
        self.contexts.iter().any(ExecContext::is_spent)
    }

    /// Drops every such context — weights handle, evaluator tables and
    /// scheduler — and with it its share of the borrow budget.  Runs at
    /// the top of every pump round, and when the engine wakes a parked
    /// worker because a version was retired.
    pub(crate) fn drop_spent_contexts(&mut self) {
        self.contexts.retain(|c| !c.is_spent());
    }

    /// Drains work from `pull` until it runs dry and every context is
    /// idle, emitting one response per request, and returns how many
    /// requests it admitted on a borrowed lane.  Internal execution
    /// errors (which submit-time validation makes unreachable for
    /// well-formed engines) turn the affected requests into
    /// [`CompletionStatus::Rejected`] responses — never silently
    /// dropped — and are passed to `report` *before* those responses
    /// are emitted, so a caller observing a rejected response always
    /// finds the root cause already recorded.
    pub(crate) fn pump(
        &mut self,
        pull: &mut PullFn<'_>,
        emit: &mut dyn FnMut(InferenceResponse, ResponseTag),
        report: &mut dyn FnMut(String),
    ) -> u64 {
        let mut borrows = 0;
        loop {
            // A late request for a dropped context (resolved before
            // the retirement) simply gets a fresh one.
            self.drop_spent_contexts();
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
                    match contexts.iter().find(|c| c.resolved.key == q.resolved.key) {
                        // New combination: a fresh context always has room.
                        None => true,
                        Some(ctx) => ctx.can_accept(lanes, total_active, count),
                    }
                };
                let Some(q) = pull(&admittable) else { break };
                if self.route(q, emit, report) {
                    borrows += 1;
                }
            }
            // Step phase: one scheduling step for every active
            // context.  Lanes seated for a whole-sequence step are due
            // now — the fill phase just proved the queue holds nothing
            // more this worker could add.
            let mut progressed = false;
            for ctx in &mut self.contexts {
                progressed |= step_context(ctx, emit, report);
            }
            if !progressed && self.contexts.iter().all(ExecContext::is_idle) {
                return borrows;
            }
        }
    }

    /// Index of the context for `resolved`, creating it on first use.
    fn context_index(&mut self, resolved: &Resolved) -> usize {
        match self
            .contexts
            .iter()
            .position(|c| c.resolved.key == resolved.key)
        {
            Some(i) => i,
            None => {
                self.contexts.push(ExecContext::new(resolved, self.lanes));
                self.contexts.len() - 1
            }
        }
    }

    /// Routes one pulled request: admits it into a lane of its
    /// context's scheduler (it starts at the next step phase) and
    /// installs its `θ` override, if any, on that lane.  Returns
    /// whether the lane was borrowed from a sibling context's share.
    /// The pull predicate guarantees the context has room; the
    /// full-context branch below is defensive (it fails the request
    /// loudly instead of hanging the engine if that invariant is ever
    /// broken).
    fn route(
        &mut self,
        q: QueuedRequest,
        emit: &mut dyn FnMut(InferenceResponse, ResponseTag),
        report: &mut dyn FnMut(String),
    ) -> bool {
        let queue_latency = q.submitted_at.elapsed();
        let (id, tag) = (q.req.id, q.tag());
        // Answers the request without admitting it.
        let mut turn_away = |status| {
            emit(
                empty_response(id, status, queue_latency, Duration::ZERO),
                tag,
            )
        };
        if past_deadline(q.req.deadline, q.submitted_at) {
            turn_away(CompletionStatus::DeadlineExpired);
            return false;
        }
        let fair_share = self.lanes;
        let idx = self.context_index(&q.resolved);
        let ctx = &mut self.contexts[idx];
        if ctx.sched.scheduler.free_lanes() == 0 {
            debug_assert!(false, "pull predicate admitted into a full scheduler");
            report("request routed to a full execution context".into());
            turn_away(CompletionStatus::Rejected);
            return false;
        }
        // An admission past the fair share is a borrowed sibling lane.
        let borrows = ctx.sched.scheduler.active_lanes() >= fair_share;
        let token = ctx.sched.next_token;
        ctx.sched.next_token += 1;
        let timesteps = q.req.sequence.len();
        // Timestamp before admit(): lane setup is the request's own
        // compute, not queue wait.
        let admitted_at = Instant::now();
        match ctx
            .sched
            .scheduler
            .admit(token, q.req.sequence, ctx.evaluator.as_mut())
        {
            Ok(lane) => {
                if let Some(theta) = q.resolved.threshold {
                    ctx.evaluator.set_lane_threshold(lane, theta);
                }
                ctx.sched.inflight.insert(
                    token,
                    Inflight {
                        id,
                        deadline: q.req.deadline,
                        submitted_at: q.submitted_at,
                        admitted_at,
                        timesteps,
                        tag,
                    },
                );
                borrows
            }
            Err(e) => {
                report(e.to_string());
                turn_away(CompletionStatus::Rejected);
                false
            }
        }
    }
}

/// Aborts expired in-flight requests, then advances one context by a
/// scheduling step.  Returns whether any compute happened.
fn step_context(
    ctx: &mut ExecContext,
    emit: &mut dyn FnMut(InferenceResponse, ResponseTag),
    report: &mut dyn FnMut(String),
) -> bool {
    // Split the context's fields so the scheduler, evaluator and
    // model can be borrowed side by side.
    let ExecContext {
        resolved,
        evaluator,
        evals_per_step,
        sched,
    } = ctx;
    let network = resolved.model.network();
    let evals_per_step = *evals_per_step;
    if sched.scheduler.is_idle() {
        return false;
    }
    // Step-boundary deadline aborts: a request whose budget ran out
    // frees its lane *now* (like refill) instead of computing its
    // remaining timesteps.
    let expired: Vec<u64> = sched
        .inflight
        .iter()
        .filter(|(_, info)| past_deadline(info.deadline, info.submitted_at))
        .map(|(&token, _)| token)
        .collect();
    for token in expired {
        let cancelled = sched
            .scheduler
            .cancel(token, evaluator.as_mut())
            .expect("inflight tokens are scheduled");
        let info = sched.inflight.remove(&token).expect("lane tracked");
        // Zero the lane's counters (the partial work is discarded
        // with the outputs) and report the abort with partial
        // latency accounting — the queue wait it really had, the
        // time it really held a lane.
        let _ = harvest_lane_stats(
            evaluator.as_mut(),
            evals_per_step,
            cancelled.stats_lane,
            cancelled.outputs.len(),
        );
        emit(
            empty_response(
                info.id,
                CompletionStatus::DeadlineExpired,
                info.admitted_at.duration_since(info.submitted_at),
                info.admitted_at.elapsed(),
            ),
            info.tag,
        );
    }
    if sched.scheduler.is_idle() {
        return false;
    }
    // A panic inside the step (the evaluator's, or a kernel team
    // helper's, which the team resumes here) fails the context's
    // in-flight requests like an execution error instead of taking the
    // worker down with their responses unsent.
    let stepped = panic::catch_unwind(AssertUnwindSafe(|| {
        let step = sched
            .scheduler
            .step(network, evaluator.as_mut(), &mut sched.finished);
        step.map_err(|e| e.to_string())
    }))
    .unwrap_or_else(|payload| Err(format!("step panicked: {}", panic_message(&*payload))));
    match stepped {
        Ok(advanced) => {
            // Read each finished lane's stats before the next admission
            // reuses its slot.
            let finished = std::mem::take(&mut sched.finished);
            for f in finished {
                let info = sched.inflight.remove(&f.token).expect("lane tracked");
                let stats = harvest_lane_stats(
                    evaluator.as_mut(),
                    evals_per_step,
                    f.stats_lane,
                    info.timesteps,
                );
                emit(
                    InferenceResponse {
                        id: info.id,
                        status: if past_deadline(info.deadline, info.submitted_at) {
                            CompletionStatus::DeadlineExpired
                        } else {
                            CompletionStatus::Done
                        },
                        outputs: f.outputs,
                        stats,
                        queue_latency: info.admitted_at.duration_since(info.submitted_at),
                        compute_latency: info.admitted_at.elapsed(),
                    },
                    info.tag,
                );
            }
            advanced > 0
        }
        Err(e) => {
            // Unreachable for validated submissions; fail the in-flight
            // requests loudly and restart the scheduler with fresh
            // lanes.
            report(e);
            for (_, info) in sched.inflight.drain() {
                emit(
                    empty_response(
                        info.id,
                        CompletionStatus::Rejected,
                        info.admitted_at.duration_since(info.submitted_at),
                        info.admitted_at.elapsed(),
                    ),
                    info.tag,
                );
            }
            let capacity = sched.scheduler.lanes();
            sched.scheduler = LaneScheduler::new(network, capacity)
                .expect("same network accepted this configuration before");
            evaluator.begin_batch(capacity);
            sched.finished.clear();
            true
        }
    }
}

/// The text of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-text payload")
}

/// The response of a request that leaves without outputs: expired in
/// the queue or on its lane, or rejected.
fn empty_response(
    id: RequestId,
    status: CompletionStatus,
    queue_latency: Duration,
    compute_latency: Duration,
) -> InferenceResponse {
    InferenceResponse {
        id,
        status,
        outputs: Vec::new(),
        stats: ReuseStats::new(),
        queue_latency,
        compute_latency,
    }
}
