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
//! | `u8`  | frame kind (`0x01` request, `0x02` response, `0x03` reject, `0x04` admin, `0x05` admin ack) |
//! | ...   | kind-specific body (see [`WireRequest`], [`WireResponse`], [`WireReject`], [`WireAdmin`], [`WireAdminOk`]) |
//!
//! Each frame is *declared* once, as its kind byte and its fields in
//! wire order (`WireAdminOk = FRAME_ADMIN_OK { id, version }`); its
//! `encode` and `decode` are generated from that list, each field
//! written and read through the one codec of its form (a little-endian
//! integer, a one-byte code table, a `u16`-prefixed name, a sequence,
//! ...), so the two directions cannot disagree about an order.
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
    /// A one-byte code (priority, status, reject reason, admin op,
    /// predictor kind) names no entry of its table.
    UnknownCode {
        /// The field whose table lacks the byte.
        field: &'static str,
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
            ProtocolError::UnknownCode { field, found } => {
                write!(f, "unknown {field} byte {found}")
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
            ProtocolError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} payload bytes, cap is {max}")
            }
        }
    }
}

impl Error for ProtocolError {}

/// One field form on the wire: how a value is appended to a frame
/// (`put`) and read back from a payload (`get`).  Every frame is a list
/// of such fields, so this is the whole codec.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    /// `field` names the value in the errors a malformed payload gives.
    fn get(r: &mut FrameReader<'_>, field: &'static str) -> Result<Self, ProtocolError>;
}

/// Fixed-width little-endian scalars.
macro_rules! le_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut FrameReader<'_>, field: &'static str) -> Result<Self, ProtocolError> {
                const N: usize = std::mem::size_of::<$t>();
                let mut bytes = [0; N];
                bytes.copy_from_slice(r.take(N, field)?);
                Ok(<$t>::from_le_bytes(bytes))
            }
        }
    )*};
}
le_wire!(u8, u16, u32, u64, f32);

/// A one-byte code table: each entry's code is written once, here, for
/// both directions, and a byte outside the table decodes to
/// [`ProtocolError::UnknownCode`].  For an enum of this crate the table
/// also declares the enum, its discriminants being the codes.
macro_rules! code_table {
    ($(#[$meta:meta])* pub enum $ty:ident {
        $($(#[$vmeta:meta])* $variant:ident = $code:literal,)*
    }) => {
        $(#[$meta])*
        pub enum $ty {
            $($(#[$vmeta])* $variant = $code,)*
        }
        code_table!($ty { $($variant = $code),* });
    };
    ($ty:ident { $($variant:ident = $code:literal),* }) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.push(match self {
                    $($ty::$variant => $code,)*
                });
            }
            fn get(r: &mut FrameReader<'_>, field: &'static str) -> Result<Self, ProtocolError> {
                match u8::get(r, field)? {
                    $($code => Ok($ty::$variant),)*
                    found => Err(ProtocolError::UnknownCode { field, found }),
                }
            }
        }
    };
}

/// A struct on the wire is its fields in wire order.
macro_rules! wire_fields {
    ($ty:ident { $($field:ident),* }) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            fn get(r: &mut FrameReader<'_>, _: &'static str) -> Result<Self, ProtocolError> {
                Ok($ty {
                    $($field: Wire::get(r, stringify!($field))?,)*
                })
            }
        }
    };
}

/// A frame is a struct on the wire behind its kind byte; `encode` and
/// `decode` are the two directions of that one declaration.
macro_rules! frames {
    ($($ty:ident = $kind:ident { $($field:ident),* })*) => {$(
        wire_fields!($ty { $($field),* });

        impl $ty {
            /// Appends this frame: the length prefix, the version and
            /// kind bytes, then the fields in their declared order.
            pub fn encode(&self, out: &mut Vec<u8>) {
                encode_frame($kind, self, out);
            }

            /// Decodes one payload of this kind (length prefix already
            /// stripped).
            ///
            /// # Errors
            ///
            /// Any [`ProtocolError`] describing the malformation.  A
            /// length-prefixed field (the sequence, the artifact) is
            /// checked against the bytes that remain before anything
            /// is allocated for it, so a lying header cannot over- or
            /// under-read.
            pub fn decode(payload: &[u8]) -> Result<$ty, ProtocolError> {
                decode_frame($kind, payload)
            }
        }
    )*};
}

/// A deadline in µs from admission; `u64::MAX` is none.
impl Wire for Option<Duration> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(d) => u64::try_from(d.as_micros()).unwrap_or(NO_DEADLINE_US - 1),
            None => NO_DEADLINE_US,
        }
        .put(out);
    }

    fn get(r: &mut FrameReader<'_>, field: &'static str) -> Result<Self, ProtocolError> {
        let us = u64::get(r, field)?;
        Ok((us != NO_DEADLINE_US).then(|| Duration::from_micros(us)))
    }
}

/// A θ override: a flag byte, followed by the `f32` only when set.
impl Wire for Option<f32> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(theta) => {
                1u8.put(out);
                theta.put(out);
            }
            None => 0u8.put(out),
        }
    }

    fn get(r: &mut FrameReader<'_>, field: &'static str) -> Result<Self, ProtocolError> {
        Ok(match u8::get(r, field)? {
            0 => None,
            _ => Some(f32::get(r, field)?),
        })
    }
}

/// A `u16` length-prefixed UTF-8 name.  Names longer than `u16::MAX`
/// bytes are truncated at the cap (the registry never holds such names;
/// requests carrying them would be rejected as unknown).
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        let len = self.len().min(u16::MAX as usize);
        (len as u16).put(out);
        out.extend_from_slice(&self.as_bytes()[..len]);
    }

    fn get(r: &mut FrameReader<'_>, field: &'static str) -> Result<Self, ProtocolError> {
        let len = u16::get(r, field)? as usize;
        std::str::from_utf8(r.take(len, field)?)
            .map(str::to_owned)
            .map_err(|_| ProtocolError::InvalidUtf8 { field })
    }
}

/// An optional name: the empty name is `None`.
impl Wire for Option<String> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(name) => name.put(out),
            None => 0u16.put(out),
        }
    }

    fn get(r: &mut FrameReader<'_>, field: &'static str) -> Result<Self, ProtocolError> {
        String::get(r, field).map(|name| (!name.is_empty()).then_some(name))
    }
}

/// A sequence: `u32` width, `u32` timesteps, then `width × timesteps`
/// `f32`s, timestep-major.
impl Wire for Vec<Vector> {
    fn put(&self, out: &mut Vec<u8>) {
        let width = self.first().map_or(0, Vector::len);
        (width as u32).put(out);
        (self.len() as u32).put(out);
        out.reserve(width * self.len() * 4);
        for step in self {
            for v in step.as_slice() {
                v.put(out);
            }
        }
    }

    fn get(r: &mut FrameReader<'_>, field: &'static str) -> Result<Self, ProtocolError> {
        let width = u32::get(r, field)?;
        let timesteps = u32::get(r, field)?;
        check_dimensions(width, timesteps)?;
        // Saturating, so a hostile header cannot wrap into a length the
        // payload happens to have.
        let bytes = (width as usize)
            .saturating_mul(timesteps as usize)
            .saturating_mul(4);
        let span = r.take(bytes, field)?;
        if width == 0 {
            return Ok(Vec::new());
        }
        Ok(span
            .chunks_exact(4 * width as usize)
            .map(|step| {
                let values: Vec<f32> = step
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect();
                Vector::from(values)
            })
            .collect())
    }
}

/// A serialized artifact: `u32` length, then the bytes verbatim.
impl Wire for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self);
    }

    fn get(r: &mut FrameReader<'_>, field: &'static str) -> Result<Self, ProtocolError> {
        let len = u32::get(r, field)? as usize;
        Ok(r.take(len, field)?.to_vec())
    }
}

/// The undecoded rest of a payload.
struct FrameReader<'a> {
    rest: &'a [u8],
}

impl<'a> FrameReader<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.rest.len() < n {
            return Err(ProtocolError::Truncated { field });
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }
}

/// Appends `body` as one frame of `kind`, back-patching the length
/// prefix.
fn encode_frame(kind: u8, body: &impl Wire, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0, PROTOCOL_VERSION, kind]);
    body.put(out);
    let payload_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
}

/// Decodes a payload of `kind`, which its fields must consume exactly.
fn decode_frame<T: Wire>(kind: u8, payload: &[u8]) -> Result<T, ProtocolError> {
    let found = peek_kind(payload)?;
    if found != kind {
        return Err(ProtocolError::UnexpectedKind { found });
    }
    let mut r = FrameReader {
        rest: &payload[2..],
    };
    let body = T::get(&mut r, "frame")?;
    match r.rest.len() {
        0 => Ok(body),
        extra => Err(ProtocolError::TrailingBytes { extra }),
    }
}

code_table! {
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
}

code_table! { Priority { High = 0, Normal = 1, Low = 2 } }
code_table! { CompletionStatus { Done = 0, DeadlineExpired = 1, Rejected = 2 } }

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
}

impl Wire for WirePredictorKind {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            WirePredictorKind::Exact => 0u8.put(out),
            WirePredictorKind::Bnn(theta) => {
                1u8.put(out);
                theta.put(out);
            }
            WirePredictorKind::Oracle(theta) => {
                2u8.put(out);
                theta.put(out);
            }
        }
    }

    fn get(r: &mut FrameReader<'_>, field: &'static str) -> Result<Self, ProtocolError> {
        match u8::get(r, field)? {
            0 => Ok(WirePredictorKind::Exact),
            1 => Ok(WirePredictorKind::Bnn(f32::get(r, "bnn threshold")?)),
            2 => Ok(WirePredictorKind::Oracle(f32::get(r, "oracle threshold")?)),
            found => Err(ProtocolError::UnknownCode { field, found }),
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

impl Wire for AdminOp {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            AdminOp::Swap {
                model,
                predictors,
                fraction,
                min_requests,
                tolerance,
                artifact,
            } => {
                0u8.put(out);
                model.put(out);
                (predictors.len() as u8).put(out);
                for p in predictors {
                    p.put(out);
                }
                fraction.put(out);
                min_requests.put(out);
                tolerance.put(out);
                artifact.put(out);
            }
            AdminOp::Evict { model } => {
                1u8.put(out);
                model.put(out);
            }
        }
    }

    fn get(r: &mut FrameReader<'_>, field: &'static str) -> Result<Self, ProtocolError> {
        match u8::get(r, field)? {
            0 => {
                let model = String::get(r, "model")?;
                let count = u8::get(r, "predictor count")?;
                let predictors = (0..count)
                    .map(|_| WirePredictorKind::get(r, "predictor kind"))
                    .collect::<Result<_, _>>()?;
                Ok(AdminOp::Swap {
                    model,
                    predictors,
                    fraction: f32::get(r, "fraction")?,
                    min_requests: u64::get(r, "min_requests")?,
                    tolerance: f32::get(r, "tolerance")?,
                    artifact: Vec::get(r, "artifact")?,
                })
            }
            1 => Ok(AdminOp::Evict {
                model: String::get(r, "model")?,
            }),
            found => Err(ProtocolError::UnknownCode { field, found }),
        }
    }
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

// The protocol: every frame, its kind byte and its fields in wire order.
frames! {
    WireRequest = FRAME_REQUEST { id, priority, deadline, threshold, model, predictor, sequence }
    WireResponse = FRAME_RESPONSE { id, status, stats, queue_latency_ns, compute_latency_ns, outputs }
    WireReject = FRAME_REJECT { id, reason, message }
    WireAdmin = FRAME_ADMIN { id, op }
    WireAdminOk = FRAME_ADMIN_OK { id, version }
}

wire_fields! { WireStats { computed, reuses, bnn_evaluations } }

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
fn check_dimensions(width: u32, timesteps: u32) -> Result<(), ProtocolError> {
    if width == 0 && timesteps != 0 {
        return Err(ProtocolError::InvalidDimensions { width, timesteps });
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

/// Best-effort extraction of the client-chosen id from a request or
/// admin payload that failed full decoding, so the reject frame can
/// still name what it refuses.  Returns `0` when even the id bytes are
/// missing.
pub fn salvage_request_id(payload: &[u8]) -> u64 {
    match payload {
        [_, FRAME_REQUEST | FRAME_ADMIN, id @ ..] if id.len() >= 8 => {
            let mut b = [0u8; 8];
            b.copy_from_slice(&id[..8]);
            u64::from_le_bytes(b)
        }
        _ => 0,
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
