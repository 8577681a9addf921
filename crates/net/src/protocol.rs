//! The wire format: length-prefixed little-endian binary frames.
//!
//! Every frame on the wire is a 4-byte little-endian payload length
//! followed by the payload.  Every payload starts with the same two
//! bytes — protocol version, frame kind — so both sides can reject
//! traffic they do not understand with a *typed* error instead of
//! guessing at offsets:
//!
//! | bytes | field |
//! |-------|-------|
//! | `u32` | payload length (bounds-checked against the frame cap) |
//! | `u8`  | protocol version ([`PROTOCOL_VERSION`]) |
//! | `u8`  | frame kind (`0x01` request, `0x02` response, `0x03` reject) |
//! | ...   | kind-specific body (see [`WireRequest`], [`WireResponse`], [`WireReject`]) |
//!
//! Integers are little-endian, floats are IEEE-754 `f32` bit patterns —
//! the engine's native representation — so a loopback round trip is
//! bit-exact: the sequence the server decodes is the sequence the
//! client encoded, and the outputs the client decodes are the outputs
//! the engine produced.  No external dependencies; everything here is
//! `std`.
//!
//! Decoding never panics on malformed input: every failure is a
//! [`ProtocolError`], and the server maps each to a typed
//! [`WireReject`] so clients always learn *why* a frame was refused.
//! Frame boundaries come from the length prefix alone, so a malformed
//! *payload* never desyncs the connection; only an oversized length
//! prefix (which the receiver refuses to buffer) poisons the stream,
//! and the server closes the connection after rejecting it.

use nfm_core::{BnnMemoConfig, OracleMemoConfig, PredictorKind, ReuseStats};
use nfm_serve::{CompletionStatus, InferenceResponse, Priority};
use nfm_tensor::Vector;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// The protocol version this build speaks.  A frame carrying any other
/// version byte is rejected with [`ProtocolError::UnsupportedVersion`]
/// — never guessed at.
pub const PROTOCOL_VERSION: u8 = 1;

/// Frame kind byte of a client → server inference request.
pub const FRAME_REQUEST: u8 = 0x01;
/// Frame kind byte of a server → client inference response.
pub const FRAME_RESPONSE: u8 = 0x02;
/// Frame kind byte of a server → client typed reject.
pub const FRAME_REJECT: u8 = 0x03;
/// Frame kind byte of a client → server admin operation (hot swap /
/// evict).
pub const FRAME_ADMIN: u8 = 0x04;
/// Frame kind byte of a server → client admin acknowledgement.
pub const FRAME_ADMIN_OK: u8 = 0x05;

/// Default cap on a single frame's payload (16 MiB ≈ a 1 M-timestep
/// sequence of width 4).  Frames declaring more are rejected before a
/// single payload byte is buffered.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 << 20;

/// Sentinel for "no deadline" in the request's microsecond deadline
/// field, so a zero deadline (already expired at submission — a real
/// request shape the engine's deadline tests use) stays expressible.
const NO_DEADLINE_US: u64 = u64::MAX;

/// A decode failure.  Every variant names what went wrong; the server
/// maps each onto a [`RejectReason`] so the client sees the same story.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion {
        /// The version byte received.
        found: u8,
    },
    /// The kind byte names no known frame kind.
    UnknownKind {
        /// The kind byte received.
        found: u8,
    },
    /// A known frame kind arrived on the wrong side of the connection
    /// (e.g. a request frame sent to a client).
    UnexpectedKind {
        /// The kind byte received.
        found: u8,
    },
    /// The priority byte names no priority class.
    UnknownPriority {
        /// The byte received.
        found: u8,
    },
    /// The status byte names no completion status.
    UnknownStatus {
        /// The byte received.
        found: u8,
    },
    /// The reject-reason byte names no reject reason.
    UnknownReason {
        /// The byte received.
        found: u8,
    },
    /// The payload ended before the named field was complete.
    Truncated {
        /// The field being decoded when the payload ran out.
        field: &'static str,
    },
    /// The payload continues past the end of the last field — a framing
    /// bug on the sender, rejected rather than silently ignored.
    TrailingBytes {
        /// How many undecoded bytes remain.
        extra: usize,
    },
    /// A name field (model / predictor) is not valid UTF-8.
    InvalidUtf8 {
        /// The field that failed to decode.
        field: &'static str,
    },
    /// The header declares `timesteps > 0` vectors of width 0 — a
    /// geometry no encoder produces.  Rejected explicitly: zero width
    /// makes the payload-length check vacuous (`0 × timesteps` bytes)
    /// while the timestep count would still drive the allocation, so a
    /// ~30-byte frame could demand billions of empty vectors.
    InvalidDimensions {
        /// The declared vector width.
        width: u32,
        /// The declared timestep count.
        timesteps: u32,
    },
    /// The admin-op byte names no admin operation.
    UnknownAdminOp {
        /// The byte received.
        found: u8,
    },
    /// The predictor-kind byte of an admin swap names no predictor
    /// kind.
    UnknownPredictorKind {
        /// The byte received.
        found: u8,
    },
    /// The length prefix declares a payload larger than the receiver's
    /// frame cap.  The receiver refuses to buffer it; since the
    /// declared length can no longer be trusted as a frame boundary,
    /// the connection is desynced and must be closed.
    Oversized {
        /// The declared payload length.
        declared: usize,
        /// The receiver's cap.
        max: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            ProtocolError::UnknownKind { found } => write!(f, "unknown frame kind {found:#04x}"),
            ProtocolError::UnexpectedKind { found } => {
                write!(f, "frame kind {found:#04x} is not valid in this direction")
            }
            ProtocolError::UnknownPriority { found } => write!(f, "unknown priority byte {found}"),
            ProtocolError::UnknownStatus { found } => write!(f, "unknown status byte {found}"),
            ProtocolError::UnknownReason { found } => {
                write!(f, "unknown reject-reason byte {found}")
            }
            ProtocolError::Truncated { field } => {
                write!(f, "payload truncated while decoding {field}")
            }
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            ProtocolError::InvalidUtf8 { field } => write!(f, "{field} is not valid UTF-8"),
            ProtocolError::InvalidDimensions { width, timesteps } => {
                write!(
                    f,
                    "impossible geometry: {timesteps} timesteps of width {width}"
                )
            }
            ProtocolError::UnknownAdminOp { found } => {
                write!(f, "unknown admin-op byte {found}")
            }
            ProtocolError::UnknownPredictorKind { found } => {
                write!(f, "unknown predictor-kind byte {found}")
            }
            ProtocolError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} payload bytes, cap is {max}")
            }
        }
    }
}

impl Error for ProtocolError {}

/// Why the server refused a request, carried inside a [`WireReject`]
/// frame.  Codes are part of the wire format and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The frame failed to decode (truncated, trailing bytes, bad
    /// enum byte, invalid UTF-8).
    Malformed = 0,
    /// The version byte is not one this server speaks.
    UnsupportedVersion = 1,
    /// The frame declared a payload larger than the server's cap.  The
    /// server closes the connection after sending this — the length
    /// prefix can no longer be trusted as a frame boundary.
    Oversized = 2,
    /// The request names a model the registry does not hold.
    UnknownModel = 3,
    /// The request names a predictor its model does not register.
    UnknownPredictor = 4,
    /// The request overrides the threshold of a predictor without one.
    ThresholdUnsupported = 5,
    /// The sequence is empty or its width does not match the model.
    InvalidSequence = 6,
    /// The engine's bounded queue is full — hard backpressure.  Retry
    /// after draining responses.
    Overloaded = 7,
    /// Load shedding: the queue crossed the shed watermark and this
    /// request is [`Priority::Low`], so it was turned away before
    /// higher classes lose their headroom.
    ShedLowPriority = 8,
    /// The server is draining for shutdown and admits no new work.
    ShuttingDown = 9,
    /// An internal server error (should not happen; the message says
    /// what broke).
    Internal = 10,
}

impl RejectReason {
    /// All reasons, for tests sweeping the code space.
    pub const ALL: [RejectReason; 11] = [
        RejectReason::Malformed,
        RejectReason::UnsupportedVersion,
        RejectReason::Oversized,
        RejectReason::UnknownModel,
        RejectReason::UnknownPredictor,
        RejectReason::ThresholdUnsupported,
        RejectReason::InvalidSequence,
        RejectReason::Overloaded,
        RejectReason::ShedLowPriority,
        RejectReason::ShuttingDown,
        RejectReason::Internal,
    ];

    /// The wire code of this reason.
    pub fn code(self) -> u8 {
        self as u8
    }

    fn from_code(code: u8) -> Result<RejectReason, ProtocolError> {
        RejectReason::ALL
            .into_iter()
            .find(|r| r.code() == code)
            .ok_or(ProtocolError::UnknownReason { found: code })
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RejectReason::Malformed => "malformed",
            RejectReason::UnsupportedVersion => "unsupported-version",
            RejectReason::Oversized => "oversized",
            RejectReason::UnknownModel => "unknown-model",
            RejectReason::UnknownPredictor => "unknown-predictor",
            RejectReason::ThresholdUnsupported => "threshold-unsupported",
            RejectReason::InvalidSequence => "invalid-sequence",
            RejectReason::Overloaded => "overloaded",
            RejectReason::ShedLowPriority => "shed-low-priority",
            RejectReason::ShuttingDown => "shutting-down",
            RejectReason::Internal => "internal",
        };
        f.write_str(name)
    }
}

fn priority_code(p: Priority) -> u8 {
    match p {
        Priority::High => 0,
        Priority::Normal => 1,
        Priority::Low => 2,
    }
}

fn priority_from_code(code: u8) -> Result<Priority, ProtocolError> {
    match code {
        0 => Ok(Priority::High),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::Low),
        found => Err(ProtocolError::UnknownPriority { found }),
    }
}

fn status_code(s: CompletionStatus) -> u8 {
    match s {
        CompletionStatus::Done => 0,
        CompletionStatus::DeadlineExpired => 1,
        CompletionStatus::Rejected => 2,
    }
}

fn status_from_code(code: u8) -> Result<CompletionStatus, ProtocolError> {
    match code {
        0 => Ok(CompletionStatus::Done),
        1 => Ok(CompletionStatus::DeadlineExpired),
        2 => Ok(CompletionStatus::Rejected),
        found => Err(ProtocolError::UnknownStatus { found }),
    }
}

/// One inference request as it travels over the wire.
///
/// Body layout after the shared version + kind bytes:
///
/// | bytes | field |
/// |-------|-------|
/// | `u64` | request id (echoed on the response) |
/// | `u8`  | priority (`0` High, `1` Normal, `2` Low) |
/// | `u64` | deadline in µs from admission; `u64::MAX` = none |
/// | `u8` + `f32?` | θ-override flag; the `f32` follows only when `1` |
/// | `u16` + bytes | model name (UTF-8; empty = server default model) |
/// | `u16` + bytes | predictor name (UTF-8; empty = model default) |
/// | `u32` | input width |
/// | `u32` | timesteps |
/// | `f32 × width × timesteps` | the sequence, timestep-major |
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen id, echoed on the response / reject.
    pub id: u64,
    /// Scheduling priority (the server sheds `Low` first under load).
    pub priority: Priority,
    /// Latency budget from server admission; `None` never expires.
    pub deadline: Option<Duration>,
    /// Per-request reuse-threshold override.
    pub threshold: Option<f32>,
    /// Target model; `None` for the server's default model.
    pub model: Option<String>,
    /// Target predictor name; `None` for the model's default.
    pub predictor: Option<String>,
    /// The input sequence, one vector per timestep (uniform width).
    pub sequence: Vec<Vector>,
}

impl WireRequest {
    /// A request with default options: default model and predictor, no
    /// deadline, no override, [`Priority::Normal`].
    pub fn new(id: u64, sequence: Vec<Vector>) -> Self {
        WireRequest {
            id,
            priority: Priority::Normal,
            deadline: None,
            threshold: None,
            model: None,
            predictor: None,
            sequence,
        }
    }

    /// Targets a registered model.
    pub fn with_model(mut self, model: impl Into<String>) -> Self {
        self.model = Some(model.into());
        self
    }

    /// Picks a registered predictor by name.
    pub fn with_predictor(mut self, predictor: impl Into<String>) -> Self {
        self.predictor = Some(predictor.into());
        self
    }

    /// Overrides the reuse threshold θ for this request.
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the latency budget, measured from server admission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Appends this request as one length-prefixed frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut w = FrameWriter::begin(out, FRAME_REQUEST);
        w.u64(self.id);
        w.u8(priority_code(self.priority));
        w.u64(match self.deadline {
            Some(d) => u64::try_from(d.as_micros()).unwrap_or(NO_DEADLINE_US - 1),
            None => NO_DEADLINE_US,
        });
        match self.threshold {
            Some(t) => {
                w.u8(1);
                w.f32(t);
            }
            None => w.u8(0),
        }
        w.name(self.model.as_deref());
        w.name(self.predictor.as_deref());
        let width = self.sequence.first().map(Vector::len).unwrap_or(0);
        w.u32(width as u32);
        w.u32(self.sequence.len() as u32);
        for step in &self.sequence {
            for v in step.as_slice() {
                w.f32(*v);
            }
        }
        w.finish();
    }

    /// Decodes one request payload (length prefix already stripped).
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`] describing the malformation; the sequence
    /// length is validated against the payload length exactly, so a
    /// lying header cannot over- or under-read.
    pub fn decode(payload: &[u8]) -> Result<WireRequest, ProtocolError> {
        let mut r = FrameReader::begin(payload, FRAME_REQUEST)?;
        let id = r.u64("request id")?;
        let priority = priority_from_code(r.u8("priority")?)?;
        let deadline_us = r.u64("deadline")?;
        let deadline = if deadline_us == NO_DEADLINE_US {
            None
        } else {
            Some(Duration::from_micros(deadline_us))
        };
        let threshold = match r.u8("threshold flag")? {
            0 => None,
            _ => Some(r.f32("threshold")?),
        };
        let model = r.name("model name")?;
        let predictor = r.name("predictor name")?;
        let width = r.u32("input width")? as usize;
        let timesteps = r.u32("timesteps")? as usize;
        check_dimensions(width, timesteps)?;
        let want = (width as u64) * (timesteps as u64) * 4;
        if r.remaining() as u64 != want {
            return if (r.remaining() as u64) < want {
                Err(ProtocolError::Truncated { field: "sequence" })
            } else {
                Err(ProtocolError::TrailingBytes {
                    extra: r.remaining() - want as usize,
                })
            };
        }
        let mut sequence = Vec::with_capacity(timesteps);
        for _ in 0..timesteps {
            let mut step = Vec::with_capacity(width);
            for _ in 0..width {
                step.push(r.f32("sequence")?);
            }
            sequence.push(Vector::from(step));
        }
        r.end()?;
        Ok(WireRequest {
            id,
            priority,
            deadline,
            threshold,
            model,
            predictor,
            sequence,
        })
    }
}

/// The reuse counters of one response, flattened for the wire.
/// Reconstructs the engine's [`ReuseStats`] bit-exactly via
/// [`to_stats`](WireStats::to_stats) (the counters are plain `u64`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Evaluations computed in full precision.
    pub computed: u64,
    /// Evaluations served from the memoization buffer.
    pub reuses: u64,
    /// Binary-network evaluations performed.
    pub bnn_evaluations: u64,
}

impl WireStats {
    /// Flattens engine stats for the wire.
    pub fn from_stats(stats: &ReuseStats) -> WireStats {
        WireStats {
            computed: stats.computed(),
            reuses: stats.reuses(),
            bnn_evaluations: stats.bnn_evaluations(),
        }
    }

    /// Rebuilds the engine-side stats object, counter for counter.
    pub fn to_stats(self) -> ReuseStats {
        let mut stats = ReuseStats::new();
        stats.record_computed_many(self.computed);
        stats.record_reused_many(self.reuses);
        stats.record_bnn_evaluations_many(self.bnn_evaluations);
        stats
    }
}

/// One inference response as it travels over the wire.
///
/// Body layout after the shared version + kind bytes:
///
/// | bytes | field |
/// |-------|-------|
/// | `u64` | request id |
/// | `u8`  | status (`0` Done, `1` DeadlineExpired, `2` Rejected) |
/// | `u64 × 3` | reuse counters (computed, reused, BNN evaluations) |
/// | `u64` | queue latency, ns |
/// | `u64` | compute latency, ns |
/// | `u32` | output width |
/// | `u32` | timesteps |
/// | `f32 × width × timesteps` | the outputs, timestep-major |
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The id of the request this answers.
    pub id: u64,
    /// How the request completed.
    pub status: CompletionStatus,
    /// This request's own reuse counters.
    pub stats: WireStats,
    /// Time queued before a lane picked the request up, ns.
    pub queue_latency_ns: u64,
    /// Lane-occupancy time, ns (see
    /// [`InferenceResponse::compute_latency`]).
    pub compute_latency_ns: u64,
    /// One output vector per timestep (empty when dropped pre-compute).
    pub outputs: Vec<Vector>,
}

impl WireResponse {
    /// Flattens an engine response for the wire, under the id the
    /// client chose (the server remaps its internal engine ids back).
    pub fn from_response(client_id: u64, r: &InferenceResponse) -> WireResponse {
        WireResponse {
            id: client_id,
            status: r.status,
            stats: WireStats::from_stats(&r.stats),
            queue_latency_ns: u64::try_from(r.queue_latency.as_nanos()).unwrap_or(u64::MAX),
            compute_latency_ns: u64::try_from(r.compute_latency.as_nanos()).unwrap_or(u64::MAX),
            outputs: r.outputs.clone(),
        }
    }

    /// The engine-side stats object, rebuilt counter for counter.
    pub fn stats(&self) -> ReuseStats {
        self.stats.to_stats()
    }

    /// Queue plus compute latency as reported by the server.
    pub fn server_latency(&self) -> Duration {
        Duration::from_nanos(
            self.queue_latency_ns
                .saturating_add(self.compute_latency_ns),
        )
    }

    /// Appends this response as one length-prefixed frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut w = FrameWriter::begin(out, FRAME_RESPONSE);
        w.u64(self.id);
        w.u8(status_code(self.status));
        w.u64(self.stats.computed);
        w.u64(self.stats.reuses);
        w.u64(self.stats.bnn_evaluations);
        w.u64(self.queue_latency_ns);
        w.u64(self.compute_latency_ns);
        let width = self.outputs.first().map(Vector::len).unwrap_or(0);
        w.u32(width as u32);
        w.u32(self.outputs.len() as u32);
        for step in &self.outputs {
            for v in step.as_slice() {
                w.f32(*v);
            }
        }
        w.finish();
    }

    fn decode_body(r: &mut FrameReader<'_>) -> Result<WireResponse, ProtocolError> {
        let id = r.u64("request id")?;
        let status = status_from_code(r.u8("status")?)?;
        let stats = WireStats {
            computed: r.u64("computed count")?,
            reuses: r.u64("reuse count")?,
            bnn_evaluations: r.u64("bnn count")?,
        };
        let queue_latency_ns = r.u64("queue latency")?;
        let compute_latency_ns = r.u64("compute latency")?;
        let width = r.u32("output width")? as usize;
        let timesteps = r.u32("timesteps")? as usize;
        check_dimensions(width, timesteps)?;
        let want = (width as u64) * (timesteps as u64) * 4;
        if (r.remaining() as u64) < want {
            return Err(ProtocolError::Truncated { field: "outputs" });
        }
        let mut outputs = Vec::with_capacity(timesteps);
        for _ in 0..timesteps {
            let mut step = Vec::with_capacity(width);
            for _ in 0..width {
                step.push(r.f32("outputs")?);
            }
            outputs.push(Vector::from(step));
        }
        r.end()?;
        Ok(WireResponse {
            id,
            status,
            stats,
            queue_latency_ns,
            compute_latency_ns,
            outputs,
        })
    }

    /// Decodes one response payload (length prefix already stripped).
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`] describing the malformation.
    pub fn decode(payload: &[u8]) -> Result<WireResponse, ProtocolError> {
        let mut r = FrameReader::begin(payload, FRAME_RESPONSE)?;
        WireResponse::decode_body(&mut r)
    }
}

/// A typed refusal: the request identified by `id` was not admitted,
/// and `reason` / `message` say why.  Rejects answer *submission*
/// failures (malformed frames, unknown models, shedding); requests the
/// engine admitted always come back as [`WireResponse`]s instead.
///
/// Body layout after the shared version + kind bytes: `u64` id (zero
/// when the id could not be parsed out of the broken frame), `u8`
/// reason code, `u16`-prefixed UTF-8 message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReject {
    /// The refused request's id; `0` when the frame was too broken to
    /// carry one.
    pub id: u64,
    /// The typed reason.
    pub reason: RejectReason,
    /// Human-readable detail (the engine/protocol error's display).
    pub message: String,
}

impl WireReject {
    /// Builds a reject frame body.
    pub fn new(id: u64, reason: RejectReason, message: impl Into<String>) -> WireReject {
        WireReject {
            id,
            reason,
            message: message.into(),
        }
    }

    /// Appends this reject as one length-prefixed frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut w = FrameWriter::begin(out, FRAME_REJECT);
        w.u64(self.id);
        w.u8(self.reason.code());
        w.name(Some(&self.message));
        w.finish();
    }

    fn decode_body(r: &mut FrameReader<'_>) -> Result<WireReject, ProtocolError> {
        let id = r.u64("request id")?;
        let reason = RejectReason::from_code(r.u8("reject reason")?)?;
        let message = r.name("reject message")?.unwrap_or_default();
        r.end()?;
        Ok(WireReject {
            id,
            reason,
            message,
        })
    }

    /// Decodes one reject payload (length prefix already stripped).
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`] describing the malformation.
    pub fn decode(payload: &[u8]) -> Result<WireReject, ProtocolError> {
        let mut r = FrameReader::begin(payload, FRAME_REJECT)?;
        WireReject::decode_body(&mut r)
    }
}

/// Predictor selection inside an admin swap, flattened for the wire:
/// a kind byte (`0` exact, `1` BNN, `2` oracle) followed by an `f32`
/// threshold θ for the kinds that take one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WirePredictorKind {
    /// No memoization: the exact baseline.
    Exact,
    /// The BNN predictor at this reuse threshold θ.
    Bnn(f32),
    /// The oracle predictor at this reuse threshold θ.
    Oracle(f32),
}

impl WirePredictorKind {
    /// The engine-side kind this wire selection names.
    pub fn to_kind(self) -> PredictorKind {
        match self {
            WirePredictorKind::Exact => PredictorKind::Exact,
            WirePredictorKind::Bnn(theta) => {
                PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta))
            }
            WirePredictorKind::Oracle(theta) => {
                PredictorKind::Oracle(OracleMemoConfig::with_threshold(theta))
            }
        }
    }

    fn code(self) -> u8 {
        match self {
            WirePredictorKind::Exact => 0,
            WirePredictorKind::Bnn(_) => 1,
            WirePredictorKind::Oracle(_) => 2,
        }
    }
}

/// The operation an admin frame requests.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminOp {
    /// Stage `artifact` as the next version of `model` and canary a
    /// fraction of its live traffic onto it (the server decodes the
    /// artifact and calls the engine's `swap_model`).
    Swap {
        /// The model to swap.
        model: String,
        /// Predictors the staged version serves (at least one).
        predictors: Vec<WirePredictorKind>,
        /// Fraction of the model's traffic to canary, `(0, 1]`.
        fraction: f32,
        /// Clean canary comparisons required to promote.
        min_requests: u64,
        /// Largest tolerated absolute output difference.
        tolerance: f32,
        /// The serialized model artifact (`nfm-model` format).
        artifact: Vec<u8>,
    },
    /// Remove `model` from the registry.
    Evict {
        /// The model to evict.
        model: String,
    },
}

/// One admin operation as it travels over the wire (client → server).
///
/// Body layout after the shared version + kind bytes:
///
/// | bytes | field |
/// |-------|-------|
/// | `u64` | operation id (echoed on the ack / reject) |
/// | `u8`  | op (`0` swap, `1` evict) |
/// | `u16` + bytes | model name (UTF-8) |
///
/// A swap continues with:
///
/// | bytes | field |
/// |-------|-------|
/// | `u8`  | predictor count |
/// | `u8` + `f32?` | per predictor: kind (`0` exact, `1` BNN, `2` oracle); θ follows for `1`/`2` |
/// | `f32` | canary fraction |
/// | `u64` | canary min_requests |
/// | `f32` | canary tolerance |
/// | `u32` + bytes | the serialized artifact (must end the payload exactly) |
#[derive(Debug, Clone, PartialEq)]
pub struct WireAdmin {
    /// Client-chosen id, echoed on the ack / reject.  Shares the id
    /// space of the connection's request ids — use distinct ids (or a
    /// dedicated control connection) to correlate replies.
    pub id: u64,
    /// The operation.
    pub op: AdminOp,
}

impl WireAdmin {
    /// A swap operation with the default canary policy: 50% of
    /// traffic, 8 clean comparisons, zero tolerance, exact predictor.
    pub fn swap(id: u64, model: impl Into<String>, artifact: Vec<u8>) -> WireAdmin {
        WireAdmin {
            id,
            op: AdminOp::Swap {
                model: model.into(),
                predictors: vec![WirePredictorKind::Exact],
                fraction: 0.5,
                min_requests: 8,
                tolerance: 0.0,
                artifact,
            },
        }
    }

    /// An evict operation.
    pub fn evict(id: u64, model: impl Into<String>) -> WireAdmin {
        WireAdmin {
            id,
            op: AdminOp::Evict {
                model: model.into(),
            },
        }
    }

    /// Replaces the swap's predictor set (no-op for evict).
    pub fn predictors(mut self, kinds: Vec<WirePredictorKind>) -> Self {
        if let AdminOp::Swap { predictors, .. } = &mut self.op {
            *predictors = kinds;
        }
        self
    }

    /// Sets the swap's canary fraction (no-op for evict).
    pub fn fraction(mut self, f: f32) -> Self {
        if let AdminOp::Swap { fraction, .. } = &mut self.op {
            *fraction = f;
        }
        self
    }

    /// Sets the swap's promotion quorum (no-op for evict).
    pub fn min_requests(mut self, n: u64) -> Self {
        if let AdminOp::Swap { min_requests, .. } = &mut self.op {
            *min_requests = n;
        }
        self
    }

    /// Sets the swap's output tolerance (no-op for evict).
    pub fn tolerance(mut self, t: f32) -> Self {
        if let AdminOp::Swap { tolerance, .. } = &mut self.op {
            *tolerance = t;
        }
        self
    }

    /// Appends this operation as one length-prefixed frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut w = FrameWriter::begin(out, FRAME_ADMIN);
        w.u64(self.id);
        match &self.op {
            AdminOp::Swap {
                model,
                predictors,
                fraction,
                min_requests,
                tolerance,
                artifact,
            } => {
                w.u8(0);
                w.name(Some(model));
                w.u8(predictors.len() as u8);
                for p in predictors {
                    w.u8(p.code());
                    match p {
                        WirePredictorKind::Exact => {}
                        WirePredictorKind::Bnn(theta) | WirePredictorKind::Oracle(theta) => {
                            w.f32(*theta)
                        }
                    }
                }
                w.f32(*fraction);
                w.u64(*min_requests);
                w.f32(*tolerance);
                w.u32(artifact.len() as u32);
                w.bytes(artifact);
            }
            AdminOp::Evict { model } => {
                w.u8(1);
                w.name(Some(model));
            }
        }
        w.finish();
    }

    /// Decodes one admin payload (length prefix already stripped).
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`] describing the malformation; the declared
    /// artifact length is validated against the payload length
    /// exactly.
    pub fn decode(payload: &[u8]) -> Result<WireAdmin, ProtocolError> {
        let mut r = FrameReader::begin(payload, FRAME_ADMIN)?;
        let id = r.u64("admin id")?;
        let op = match r.u8("admin op")? {
            0 => {
                let model = r.name("model name")?.unwrap_or_default();
                let count = r.u8("predictor count")? as usize;
                let mut predictors = Vec::with_capacity(count);
                for _ in 0..count {
                    predictors.push(match r.u8("predictor kind")? {
                        0 => WirePredictorKind::Exact,
                        1 => WirePredictorKind::Bnn(r.f32("bnn threshold")?),
                        2 => WirePredictorKind::Oracle(r.f32("oracle threshold")?),
                        found => return Err(ProtocolError::UnknownPredictorKind { found }),
                    });
                }
                let fraction = r.f32("canary fraction")?;
                let min_requests = r.u64("canary min_requests")?;
                let tolerance = r.f32("canary tolerance")?;
                let declared = r.u32("artifact length")? as usize;
                if r.remaining() != declared {
                    return if r.remaining() < declared {
                        Err(ProtocolError::Truncated { field: "artifact" })
                    } else {
                        Err(ProtocolError::TrailingBytes {
                            extra: r.remaining() - declared,
                        })
                    };
                }
                let artifact = r.take_remaining();
                AdminOp::Swap {
                    model,
                    predictors,
                    fraction,
                    min_requests,
                    tolerance,
                    artifact,
                }
            }
            1 => AdminOp::Evict {
                model: r.name("model name")?.unwrap_or_default(),
            },
            found => return Err(ProtocolError::UnknownAdminOp { found }),
        };
        r.end()?;
        Ok(WireAdmin { id, op })
    }
}

/// Acknowledgement of a completed admin operation (server → client):
/// `u64` echoed id, `u32` resulting version (the staged version for a
/// swap, `0` for an evict).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireAdminOk {
    /// The acknowledged operation's id.
    pub id: u64,
    /// The staged version a swap produced; `0` for an evict.
    pub version: u32,
}

impl WireAdminOk {
    /// Appends this ack as one length-prefixed frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut w = FrameWriter::begin(out, FRAME_ADMIN_OK);
        w.u64(self.id);
        w.u32(self.version);
        w.finish();
    }

    /// Decodes one ack payload (length prefix already stripped).
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`] describing the malformation.
    pub fn decode(payload: &[u8]) -> Result<WireAdminOk, ProtocolError> {
        let mut r = FrameReader::begin(payload, FRAME_ADMIN_OK)?;
        let id = r.u64("admin id")?;
        let version = r.u32("version")?;
        r.end()?;
        Ok(WireAdminOk { id, version })
    }
}

/// A server → client frame: a response, a typed reject, or an admin
/// acknowledgement.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// A completed request's result.
    Response(WireResponse),
    /// A refused request.
    Reject(WireReject),
    /// A completed admin operation.
    AdminOk(WireAdminOk),
}

impl ServerFrame {
    /// Decodes one server-side payload by its kind byte.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnexpectedKind`] for a request frame (valid on
    /// the wire, invalid in this direction), otherwise whatever the
    /// kind's decoder reports.
    pub fn decode(payload: &[u8]) -> Result<ServerFrame, ProtocolError> {
        let kind = peek_kind(payload)?;
        match kind {
            FRAME_RESPONSE => WireResponse::decode(payload).map(ServerFrame::Response),
            FRAME_REJECT => WireReject::decode(payload).map(ServerFrame::Reject),
            FRAME_ADMIN_OK => WireAdminOk::decode(payload).map(ServerFrame::AdminOk),
            FRAME_REQUEST | FRAME_ADMIN => Err(ProtocolError::UnexpectedKind { found: kind }),
            found => Err(ProtocolError::UnknownKind { found }),
        }
    }

    /// The request id this frame concerns.
    pub fn id(&self) -> u64 {
        match self {
            ServerFrame::Response(r) => r.id,
            ServerFrame::Reject(r) => r.id,
            ServerFrame::AdminOk(r) => r.id,
        }
    }
}

/// Guards a sequence-geometry header before anything is reserved for
/// it.  With `width == 0` the payload-length check wants `0 ×
/// timesteps` bytes — vacuously satisfied by an empty payload — yet the
/// decode loop would still allocate and push `timesteps` empty vectors,
/// so a tiny hostile header could demand a multi-gigabyte allocation.
/// No encoder produces zero-width steps; reject the geometry outright.
fn check_dimensions(width: usize, timesteps: usize) -> Result<(), ProtocolError> {
    if width == 0 && timesteps != 0 {
        return Err(ProtocolError::InvalidDimensions {
            width: width as u32,
            timesteps: timesteps as u32,
        });
    }
    Ok(())
}

/// Validates the version byte and returns the kind byte without
/// consuming the payload.
///
/// # Errors
///
/// [`ProtocolError::Truncated`] when the payload is shorter than the
/// two shared header bytes, [`ProtocolError::UnsupportedVersion`] on a
/// version mismatch.
pub fn peek_kind(payload: &[u8]) -> Result<u8, ProtocolError> {
    if payload.len() < 2 {
        return Err(ProtocolError::Truncated {
            field: "frame header",
        });
    }
    if payload[0] != PROTOCOL_VERSION {
        return Err(ProtocolError::UnsupportedVersion { found: payload[0] });
    }
    match payload[1] {
        kind @ (FRAME_REQUEST | FRAME_RESPONSE | FRAME_REJECT | FRAME_ADMIN | FRAME_ADMIN_OK) => {
            Ok(kind)
        }
        found => Err(ProtocolError::UnknownKind { found }),
    }
}

/// Best-effort extraction of the request id from a request payload that
/// failed full decoding, so the reject frame can still name the request
/// it refuses.  Returns `0` when even the id bytes are missing.
pub fn salvage_request_id(payload: &[u8]) -> u64 {
    if payload.len() >= 10 && payload[1] == FRAME_REQUEST {
        let mut b = [0u8; 8];
        b.copy_from_slice(&payload[2..10]);
        u64::from_le_bytes(b)
    } else {
        0
    }
}

/// Appends one frame: length prefix, version, kind, then the body
/// written through the helper methods; `finish` back-patches the
/// prefix.
struct FrameWriter<'a> {
    out: &'a mut Vec<u8>,
    start: usize,
}

impl<'a> FrameWriter<'a> {
    fn begin(out: &'a mut Vec<u8>, kind: u8) -> FrameWriter<'a> {
        let start = out.len();
        out.extend_from_slice(&0u32.to_le_bytes());
        out.push(PROTOCOL_VERSION);
        out.push(kind);
        FrameWriter { out, start }
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.out.extend_from_slice(v);
    }

    /// `u16` length-prefixed UTF-8 name; `None` encodes as length 0.
    /// Names longer than `u16::MAX` bytes are truncated at the cap (the
    /// registry never holds such names; requests carrying them would be
    /// rejected as unknown).
    fn name(&mut self, name: Option<&str>) {
        let bytes = name.unwrap_or("").as_bytes();
        let len = bytes.len().min(u16::MAX as usize);
        self.out.extend_from_slice(&(len as u16).to_le_bytes());
        self.out.extend_from_slice(&bytes[..len]);
    }

    fn finish(self) {
        let payload_len = (self.out.len() - self.start - 4) as u32;
        self.out[self.start..self.start + 4].copy_from_slice(&payload_len.to_le_bytes());
    }
}

/// Sequential payload reader; every accessor names the field it is
/// decoding so truncation errors say what was missing.
struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    fn begin(payload: &'a [u8], expected_kind: u8) -> Result<FrameReader<'a>, ProtocolError> {
        let kind = peek_kind(payload)?;
        if kind != expected_kind {
            return Err(ProtocolError::UnexpectedKind { found: kind });
        }
        Ok(FrameReader {
            buf: payload,
            pos: 2,
        })
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes and returns every byte left in the payload.
    fn take_remaining(&mut self) -> Vec<u8> {
        let rest = self.buf[self.pos..].to_vec();
        self.pos = self.buf.len();
        rest
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated { field });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, ProtocolError> {
        let b = self.take(2, field)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, ProtocolError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, ProtocolError> {
        let b = self.take(8, field)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f32(&mut self, field: &'static str) -> Result<f32, ProtocolError> {
        Ok(f32::from_bits(self.u32(field)?))
    }

    fn name(&mut self, field: &'static str) -> Result<Option<String>, ProtocolError> {
        let len = self.u16(field)? as usize;
        if len == 0 {
            return Ok(None);
        }
        let bytes = self.take(len, field)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(Some(s.to_string())),
            Err(_) => Err(ProtocolError::InvalidUtf8 { field }),
        }
    }

    fn end(&self) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(ProtocolError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Reassembles length-prefixed frames from a byte stream delivered in
/// arbitrary chunks (the nonblocking read path hands over whatever the
/// socket had).  Payloads are handed out whole; the length prefix is
/// validated against the frame cap *before* any payload byte is
/// buffered, so a hostile prefix cannot balloon memory.
///
/// After an [`ProtocolError::Oversized`] the assembler is poisoned —
/// the declared length cannot be trusted as a frame boundary, so every
/// further call returns the same error and the caller must drop the
/// connection.
#[derive(Debug)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    pos: usize,
    max_frame: usize,
    poisoned: Option<ProtocolError>,
}

impl Default for FrameAssembler {
    /// An assembler with the [`DEFAULT_MAX_FRAME_BYTES`] cap.
    fn default() -> FrameAssembler {
        FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES)
    }
}

impl FrameAssembler {
    /// An assembler enforcing `max_frame` payload bytes per frame.
    pub fn new(max_frame: usize) -> FrameAssembler {
        FrameAssembler {
            buf: Vec::new(),
            pos: 0,
            max_frame,
            poisoned: None,
        }
    }

    /// Buffers newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame's payload, `None` when more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Oversized`] when the next length prefix exceeds
    /// the cap; the assembler stays poisoned afterwards (see the type
    /// docs).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.pending_bytes() < 4 {
            self.compact();
            return Ok(None);
        }
        let b = &self.buf[self.pos..self.pos + 4];
        let declared = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        if declared > self.max_frame {
            let e = ProtocolError::Oversized {
                declared,
                max: self.max_frame,
            };
            self.poisoned = Some(e.clone());
            return Err(e);
        }
        if self.pending_bytes() < 4 + declared {
            self.compact();
            return Ok(None);
        }
        let payload = self.buf[self.pos + 4..self.pos + 4 + declared].to_vec();
        self.pos += 4 + declared;
        self.compact();
        Ok(Some(payload))
    }

    /// Reclaims consumed prefix bytes once they outweigh the pending
    /// tail (amortized O(1) per byte).
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos >= self.buf.len() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(width: usize, steps: usize) -> Vec<Vector> {
        (0..steps)
            .map(|t| Vector::from_fn(width, |i| (t * width + i) as f32 * 0.25 - 1.0))
            .collect()
    }

    #[test]
    fn request_roundtrip_all_fields() {
        let req = WireRequest::new(77, seq(3, 4))
            .with_model("imdb")
            .with_predictor("bnn")
            .with_threshold(0.25)
            .with_priority(Priority::High)
            .with_deadline(Duration::from_micros(1500));
        let mut out = Vec::new();
        req.encode(&mut out);
        let declared = u32::from_le_bytes([out[0], out[1], out[2], out[3]]) as usize;
        assert_eq!(declared + 4, out.len());
        let back = WireRequest::decode(&out[4..]).expect("decodes");
        assert_eq!(back, req);
    }

    #[test]
    fn request_roundtrip_defaults_and_zero_deadline() {
        let req = WireRequest::new(0, seq(2, 1)).with_deadline(Duration::ZERO);
        let mut out = Vec::new();
        req.encode(&mut out);
        let back = WireRequest::decode(&out[4..]).expect("decodes");
        assert_eq!(back.deadline, Some(Duration::ZERO));
        assert_eq!(back.model, None);
        assert_eq!(back.predictor, None);
        assert_eq!(back.threshold, None);
        assert_eq!(back.priority, Priority::Normal);
    }

    #[test]
    fn response_roundtrip() {
        let resp = WireResponse {
            id: 9,
            status: CompletionStatus::Done,
            stats: WireStats {
                computed: 10,
                reuses: 5,
                bnn_evaluations: 15,
            },
            queue_latency_ns: 1234,
            compute_latency_ns: 56789,
            outputs: seq(2, 3),
        };
        let mut out = Vec::new();
        resp.encode(&mut out);
        let back = WireResponse::decode(&out[4..]).expect("decodes");
        assert_eq!(back, resp);
        let stats = back.stats();
        assert_eq!(stats.evaluations(), 15);
        assert_eq!(stats.reuses(), 5);
        assert_eq!(stats.bnn_evaluations(), 15);
    }

    #[test]
    fn reject_roundtrip_every_reason() {
        for reason in RejectReason::ALL {
            let rej = WireReject::new(3, reason, format!("because {reason}"));
            let mut out = Vec::new();
            rej.encode(&mut out);
            match ServerFrame::decode(&out[4..]).expect("decodes") {
                ServerFrame::Reject(back) => assert_eq!(back, rej),
                other => panic!("expected reject, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_version_is_typed() {
        let mut out = Vec::new();
        WireRequest::new(1, seq(1, 1)).encode(&mut out);
        out[4] = 99;
        assert_eq!(
            WireRequest::decode(&out[4..]),
            Err(ProtocolError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let mut out = Vec::new();
        WireRequest::new(42, seq(2, 2))
            .with_model("m")
            .with_threshold(0.5)
            .encode(&mut out);
        let payload = &out[4..];
        for len in 0..payload.len() {
            let err = WireRequest::decode(&payload[..len]).expect_err("truncated must fail");
            assert!(
                matches!(err, ProtocolError::Truncated { .. }),
                "truncation at {len} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut out = Vec::new();
        WireRequest::new(1, seq(1, 1)).encode(&mut out);
        out.push(0xAB);
        assert_eq!(
            WireRequest::decode(&out[4..]),
            Err(ProtocolError::TrailingBytes { extra: 1 })
        );
    }

    /// A hand-built request payload declaring `timesteps` steps of
    /// width 0 — passes the payload-length check (0 bytes wanted), so
    /// only the geometry guard stands between it and the allocator.
    fn zero_width_request_payload(timesteps: u32) -> Vec<u8> {
        let mut p = vec![PROTOCOL_VERSION, FRAME_REQUEST];
        p.extend_from_slice(&7u64.to_le_bytes()); // id
        p.push(1); // Normal priority
        p.extend_from_slice(&NO_DEADLINE_US.to_le_bytes());
        p.push(0); // no θ override
        p.extend_from_slice(&0u16.to_le_bytes()); // model: default
        p.extend_from_slice(&0u16.to_le_bytes()); // predictor: default
        p.extend_from_slice(&0u32.to_le_bytes()); // width 0
        p.extend_from_slice(&timesteps.to_le_bytes());
        p
    }

    #[test]
    fn zero_width_request_header_is_rejected_before_allocating() {
        // The hostile shape: ~30 bytes on the wire, u32::MAX timesteps
        // declared.  Must fail typed and fast, not allocate billions of
        // empty vectors.
        assert_eq!(
            WireRequest::decode(&zero_width_request_payload(u32::MAX)),
            Err(ProtocolError::InvalidDimensions {
                width: 0,
                timesteps: u32::MAX
            })
        );
        // The legitimate empty-sequence encoding (0 × 0) still decodes.
        let empty = WireRequest::decode(&zero_width_request_payload(0)).expect("decodes");
        assert!(empty.sequence.is_empty());
    }

    #[test]
    fn zero_width_response_header_is_rejected_before_allocating() {
        let mut p = vec![PROTOCOL_VERSION, FRAME_RESPONSE];
        p.extend_from_slice(&7u64.to_le_bytes()); // id
        p.push(0); // Done
        for _ in 0..5 {
            p.extend_from_slice(&0u64.to_le_bytes()); // counters + latencies
        }
        p.extend_from_slice(&0u32.to_le_bytes()); // width 0
        p.extend_from_slice(&u32::MAX.to_le_bytes()); // timesteps
        assert_eq!(
            WireResponse::decode(&p),
            Err(ProtocolError::InvalidDimensions {
                width: 0,
                timesteps: u32::MAX
            })
        );
    }

    #[test]
    fn salvage_reads_id_from_broken_request() {
        let mut out = Vec::new();
        WireRequest::new(0xDEAD_BEEF, seq(1, 2)).encode(&mut out);
        // Truncate mid-sequence: the id still salvages.
        assert_eq!(salvage_request_id(&out[4..14]), 0xDEAD_BEEF);
        assert_eq!(salvage_request_id(&[]), 0);
    }

    #[test]
    fn assembler_reassembles_split_frames() {
        let mut bytes = Vec::new();
        let reqs: Vec<WireRequest> = (0..3).map(|i| WireRequest::new(i, seq(2, 3))).collect();
        for r in &reqs {
            r.encode(&mut bytes);
        }
        // Deliver one byte at a time: worst-case fragmentation.
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES);
        let mut decoded = Vec::new();
        for b in bytes {
            asm.push(&[b]);
            while let Some(frame) = asm.next_frame().expect("no oversize") {
                decoded.push(WireRequest::decode(&frame).expect("decodes"));
            }
        }
        assert_eq!(decoded, reqs);
        assert_eq!(asm.pending_bytes(), 0);
    }

    #[test]
    fn assembler_oversize_poisons() {
        let mut asm = FrameAssembler::new(16);
        asm.push(&1000u32.to_le_bytes());
        asm.push(&[0u8; 8]);
        let e = asm.next_frame().expect_err("oversized");
        assert_eq!(
            e,
            ProtocolError::Oversized {
                declared: 1000,
                max: 16
            }
        );
        // Poisoned: same typed error forever, no desynced frames.
        assert_eq!(asm.next_frame(), Err(e));
    }
}
