//! The unit of work the serving engine deals in: one request, one
//! response.

use crate::registry::ModelId;
use nfm_core::ReuseStats;
use nfm_tensor::Vector;
use std::time::Duration;

/// Caller-chosen identifier carried from an [`InferenceRequest`] to its
/// [`InferenceResponse`].  The engine attaches no meaning to it (and
/// does not deduplicate), so callers are free to reuse ids — but then
/// they must disambiguate responses themselves.
pub type RequestId = u64;

/// Scheduling priority of a request.  Workers drain higher classes
/// first; within a class, submissions stay first-in-first-out.
/// Priority affects *when* a request is admitted to a lane, never its
/// results.
///
/// Workers take requests strictly in queue order (class, then FIFO)
/// among the requests they can place *right now*: a request whose
/// (model, predictor) combination has no free lane on any worker waits
/// on the queue — without blocking it — so an admittable lower-priority
/// request for a different combination may start first.  Within one
/// combination, priority order is strict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Admitted before everything else.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Admitted only when no higher class is waiting.
    Low,
}

impl Priority {
    /// All classes, highest first (the queue drain order).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Dense index of this class (`High = 0`).
    pub(crate) fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Per-request serving options: which model and predictor to run under,
/// an optional reuse-threshold override, and the scheduling priority.
///
/// The default options (`RequestOptions::default()`) reproduce the
/// single-model API exactly: the engine's default model under that
/// model's default predictor at its configured threshold, at
/// [`Priority::Normal`].
///
/// Options are resolved against the engine's
/// [`ModelRegistry`](crate::ModelRegistry) at submission time, so a
/// request naming an unknown model or predictor — or overriding the
/// threshold of a predictor that has none — is rejected synchronously
/// with a typed [`EngineError`](crate::EngineError).
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct RequestOptions {
    /// The model to run, `None` for the engine's default model.
    pub model: Option<ModelId>,
    /// The registered predictor name to serve under ("exact",
    /// "oracle", "bnn", or a custom registration name); `None` for the
    /// model's default predictor.
    pub predictor: Option<String>,
    /// Overrides the predictor's reuse threshold `θ` for this request
    /// only.  The override is state of the request's lane, so requests
    /// that differ only in `θ` share one execution context; it never
    /// leaks into other requests.
    pub threshold: Option<f32>,
    /// Scheduling priority.
    pub priority: Priority,
}

impl RequestOptions {
    /// Options for the engine's default model — the start of a fluent
    /// chain, equivalent to `RequestOptions::default()`.
    pub fn new() -> Self {
        RequestOptions::default()
    }

    /// Options targeting a registered model — the canonical start of
    /// the fluent chain:
    ///
    /// ```
    /// use nfm_serve::{Priority, RequestOptions};
    ///
    /// let options = RequestOptions::for_model("kws")
    ///     .predictor("bnn")
    ///     .threshold(0.4)
    ///     .priority(Priority::High);
    /// assert_eq!(options.model, Some("kws".into()));
    /// ```
    pub fn for_model(model: impl Into<ModelId>) -> Self {
        RequestOptions::default().model(model)
    }

    /// Targets a registered model.
    pub fn model(mut self, model: impl Into<ModelId>) -> Self {
        self.model = Some(model.into());
        self
    }

    /// Picks a registered predictor by name.
    pub fn predictor(mut self, predictor: impl Into<String>) -> Self {
        self.predictor = Some(predictor.into());
        self
    }

    /// Overrides the reuse threshold `θ` for this request.
    pub fn threshold(mut self, threshold: f32) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Sets the scheduling priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// One inference submission: a sequence to run, an optional deadline,
/// per-request [`RequestOptions`], and the id under which the result is
/// reported.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceRequest {
    /// Echoed on the response.
    pub id: RequestId,
    /// The input sequence (one vector per timestep, widths matching the
    /// targeted model's network; must be non-empty).
    pub sequence: Vec<Vector>,
    /// Latency budget measured from submission.  `None` means the
    /// request never expires.
    pub deadline: Option<Duration>,
    /// Model / predictor / threshold / priority choices; the default
    /// reproduces the single-model path.
    pub options: RequestOptions,
}

impl InferenceRequest {
    /// A request with no deadline and default options (the engine's
    /// default model and predictor).
    pub fn new(id: RequestId, sequence: Vec<Vector>) -> Self {
        InferenceRequest {
            id,
            sequence,
            deadline: None,
            options: RequestOptions::default(),
        }
    }

    /// Sets the latency budget (queue wait + compute), measured from
    /// the moment [`Engine::submit`](crate::Engine::submit) accepts the
    /// request.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replaces all options at once — the canonical way to choose a
    /// model, predictor, threshold and priority, paired with the
    /// [`RequestOptions`] fluent builder:
    ///
    /// ```
    /// use nfm_serve::{InferenceRequest, Priority, RequestOptions};
    /// use nfm_tensor::Vector;
    ///
    /// let request = InferenceRequest::new(1, vec![Vector::zeros(4)])
    ///     .with_options(RequestOptions::for_model("kws").priority(Priority::High));
    /// ```
    pub fn with_options(mut self, options: RequestOptions) -> Self {
        self.options = options;
        self
    }
}

/// How a request left the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// Computed within its deadline (or with no deadline).
    Done,
    /// The deadline elapsed.  A request that expired in the queue was
    /// never computed, one that expired on a lane was aborted at the
    /// next step boundary, and either way `outputs` is empty; when the
    /// deadline ran out only during the request's last step `outputs`
    /// holds the full result.  Expired requests are always reported —
    /// never silently dropped.
    DeadlineExpired,
    /// The engine aborted the request after admission (an internal
    /// execution error; see
    /// [`Engine::last_error`](crate::Engine::last_error)).  Submission
    /// failures are *not* reported this way — they surface as
    /// [`EngineError`](crate::EngineError)s from `submit` itself.
    Rejected,
}

/// The per-request result: outputs, this request's own reuse
/// statistics, and where its latency went.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResponse {
    /// The id of the request this answers.
    pub id: RequestId,
    /// How the request completed.
    pub status: CompletionStatus,
    /// One output per timestep (empty when the request was dropped
    /// before compute).
    pub outputs: Vec<Vector>,
    /// Reuse statistics attributable to *this request alone* —
    /// bit-identical to what a dedicated
    /// [`Predictor::run`](crate::Predictor::run) over the same sequence
    /// would report.
    pub stats: ReuseStats,
    /// Time spent waiting in the queue before a lane picked the
    /// request up.
    pub queue_latency: Duration,
    /// Wall time from lane admission to the last timestep's output
    /// (or to the mid-sequence abort, for requests dropped by a
    /// per-step deadline check).  Lanes advance together, so this
    /// includes the steps shared with the other requests in flight
    /// (on a bidirectional stack, the whole step over every seated
    /// sequence), and on a worker serving several (model, predictor)
    /// combinations it also includes the interleaved steps of the
    /// *other* contexts: it measures lane occupancy, not this request's
    /// exclusive compute.
    pub compute_latency: Duration,
}

impl InferenceResponse {
    /// Whether the request completed normally.
    pub fn is_done(&self) -> bool {
        self.status == CompletionStatus::Done
    }

    /// Queue plus compute latency.
    pub fn total_latency(&self) -> Duration {
        self.queue_latency + self.compute_latency
    }
}
