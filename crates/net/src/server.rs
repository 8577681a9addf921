//! The TCP front door: a nonblocking poll loop feeding the engine.
//!
//! [`NetServer`] owns a `TcpListener`, a set of client connections and
//! the [`Engine`] it fronts.  One thread sweeps everything, and repeats
//! the sweep while it moves anything:
//!
//! 1. **Accept** — drain `accept()` until `WouldBlock`; new sockets go
//!    nonblocking with `TCP_NODELAY`.
//! 2. **Read** — for each connection, read whatever the socket has into
//!    its [`FrameAssembler`], pop complete frames, decode and admit
//!    them (see *Admission* below).
//! 3. **Route** — take the engine's completed responses and encode each
//!    into the outbox of the connection that submitted it.
//! 4. **Flush** — write outboxes until `WouldBlock` (partial writes
//!    keep their tail for the next sweep).
//!
//! A sweep that moved nothing blocks in `poll(2)` until the next one
//! has work: the listener or a connection the read phase would read is
//! readable, a connection with an undelivered outbox is writable, or the
//! wake socket is readable.  The engine's completion notifier
//! ([`Engine::set_completion_notifier`]) writes a byte to the wake
//! socket when a response lands for the route phase or the engine falls
//! idle, and [`ServerHandle::shutdown`] writes one to end the wait.  The
//! server empties it before sweeping again, so a byte written after that
//! is still pending at the next wait: no completion is slept through.  A
//! wait lasts at most [`STOP_POLL`], which bounds how late a stop flag
//! set without a wake is noticed.  After an accept error other than
//! `WouldBlock` (out of file descriptors: the connection stays in the
//! backlog, so the listener stays readable) the next wait leaves the
//! listener out rather than spin; the accept is retried after it.
//! `poll(2)` and the `UnixStream` pair make this module unix-only.
//!
//! # Admission and load shedding
//!
//! Every decoded request is resolved against the engine synchronously,
//! and every refusal is a **typed [`WireReject`] frame — never a silent
//! drop**:
//!
//! * protocol failures (bad version, truncation, trailing bytes, bad
//!   enum bytes) → [`RejectReason::Malformed`] /
//!   [`RejectReason::UnsupportedVersion`], connection stays usable
//!   (frame boundaries come from the length prefix);
//! * an oversized length prefix → [`RejectReason::Oversized`], then the
//!   connection closes — the prefix can no longer be trusted as a frame
//!   boundary;
//! * registry misses → [`RejectReason::UnknownModel`] /
//!   [`RejectReason::UnknownPredictor`] /
//!   [`RejectReason::ThresholdUnsupported`];
//! * invalid sequences → [`RejectReason::InvalidSequence`];
//! * the shed watermark: once [`Engine::queue_depth`] crosses
//!   [`SHED_LOW_WATERMARK`]` × queue_capacity`, [`Priority::Low`] requests
//!   are turned away with [`RejectReason::ShedLowPriority`] *before*
//!   they reach the queue, keeping the remaining headroom for the
//!   higher classes (the engine's priority queue already drains High
//!   before Normal before Low among admitted work);
//! * a full queue → [`RejectReason::Overloaded`] for any priority —
//!   the engine's own [`EngineError::QueueFull`] backpressure,
//!   surfaced over the wire;
//! * a draining server → [`RejectReason::ShuttingDown`].
//!
//! # Backpressure and connection lifecycle
//!
//! Outboxes are bounded: once a connection holds
//! [`MAX_OUTBOX_BYTES`] of undelivered responses, the
//! server stops reading (and therefore admitting) from it until the
//! client drains — TCP pushes back on the sender instead of server
//! memory growing without bound.  A read EOF only *half*-closes: the
//! connection stays alive until every response its admitted requests
//! are owed has been flushed, so a client may send, shut down its
//! write half and still collect all results.  A hard socket failure
//! reaps the connection immediately; responses it can no longer take
//! are counted as orphaned, never silently lost.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] (or [`NetServer::run`] observing its stop
//! flag) drains gracefully: stop accepting, call
//! [`Engine::initiate_shutdown`] so new submissions get typed rejects,
//! keep sweeping until every admitted request's response has been
//! routed and flushed, then join the engine workers and return the
//! final [`ServerStats`].

use crate::protocol::{
    peek_kind, salvage_request_id, AdminOp, FrameAssembler, ProtocolError, RejectReason, WireAdmin,
    WireAdminOk, WireReject, WireRequest, WireResponse, DEFAULT_MAX_FRAME_BYTES, FRAME_ADMIN,
    FRAME_REQUEST,
};
use nfm_serve::{CanaryConfig, Engine, EngineError, InferenceRequest, Priority, RequestOptions};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::raw::{c_int, c_short};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fraction of the engine's queue capacity above which
/// [`Priority::Low`] requests are shed (the depth threshold is floored
/// at 1, so an idle server never sheds).
pub const SHED_LOW_WATERMARK: f64 = 0.75;

/// Undelivered bytes in a connection's outbox at which the server stops
/// reading from it (slow-reader backpressure, see the [module docs](self)).
pub const MAX_OUTBOX_BYTES: usize = 2 * DEFAULT_MAX_FRAME_BYTES;

/// The longest a wait between sweeps lasts: how late a stop flag set
/// without a wake (by the owner of [`NetServer::run`]) is noticed.
pub const STOP_POLL: Duration = Duration::from_secs(1);

/// The limit a [`NetServer`] puts on outside input.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Cap on a single frame's payload; frames declaring more are
    /// rejected with [`RejectReason::Oversized`] and the connection is
    /// closed.  Default [`DEFAULT_MAX_FRAME_BYTES`].
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// Counters the server accumulates over its lifetime; returned by
/// [`ServerHandle::shutdown`] / [`NetServer::run`] so callers can
/// assert nothing was silently dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections_accepted: usize,
    /// Requests decoded and admitted into the engine.
    pub requests_admitted: u64,
    /// Responses encoded back to their connections.
    pub responses_sent: u64,
    /// Typed reject frames sent, by [`RejectReason`] code.
    pub rejects_by_reason: [u64; RejectReason::ALL.len()],
    /// Responses whose connection had already gone away (counted, not
    /// silent; the work was done but had no socket to return to).
    pub responses_orphaned: u64,
}

impl ServerStats {
    /// Total typed rejects across all reasons.
    pub fn rejects_total(&self) -> u64 {
        self.rejects_by_reason.iter().sum()
    }

    /// Rejects sent for `reason`.
    pub fn rejects(&self, reason: RejectReason) -> u64 {
        self.rejects_by_reason[reason.code() as usize]
    }

    fn count_reject(&mut self, reason: RejectReason) {
        self.rejects_by_reason[reason.code() as usize] += 1;
    }
}

/// One client connection's state.
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    /// Encoded frames waiting for the socket to accept them (partial
    /// writes keep their unsent tail here).
    outbox: Vec<u8>,
    /// Set when no more requests will arrive (peer half-closed, or the
    /// inbound stream desynced).  The write side stays alive: the
    /// connection is only dropped once its outbox flushed *and* no
    /// admitted request still owes it a response — a half-closing
    /// client ([`finish_sending`](crate::NetClient::finish_sending))
    /// keeps receiving everything it was promised.
    closing: bool,
    /// Set when the socket itself failed (read or write error, zero
    /// write): nothing can be delivered anymore, so the connection is
    /// reaped immediately and any in-flight responses are counted as
    /// orphaned when they complete.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_frame: usize) -> Conn {
        Conn {
            stream,
            assembler: FrameAssembler::new(max_frame),
            outbox: Vec::new(),
            closing: false,
            dead: false,
        }
    }
}

/// Whether the read phase should pull bytes from this connection:
/// not once it is closing/dead, and not while its outbox holds
/// `max_outbox` or more undelivered bytes (slow-reader backpressure —
/// see [`MAX_OUTBOX_BYTES`]).
fn wants_read(conn: &Conn, max_outbox: usize) -> bool {
    !conn.closing && conn.outbox.len() < max_outbox
}

/// The sending end of a server's wake socket.
#[derive(Debug, Clone)]
struct Waker(Arc<UnixStream>);

impl Waker {
    /// Makes the server's next (or current) wait return.  A full socket
    /// already holds a byte the server has not read, so a failed write
    /// loses nothing.
    fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

/// `nfds_t`: `unsigned long` in glibc and musl, `unsigned int` in the
/// BSDs, macOS and Android.
#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// The engine's TCP serving surface.  Bind, then either call
/// [`run`](NetServer::run) on the current thread or
/// [`spawn`](NetServer::spawn) a serving thread and keep the
/// [`ServerHandle`].
pub struct NetServer {
    listener: TcpListener,
    engine: Arc<Engine>,
    config: ServerConfig,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Engine-side id → (connection, client-chosen id).  The engine
    /// namespace is server-owned so ids from different connections
    /// never collide.
    routes: HashMap<u64, (u64, u64)>,
    next_engine_id: u64,
    shed_threshold: usize,
    stats: ServerStats,
    /// The last accept failed with an error other than `WouldBlock`, so
    /// the next wait leaves the listener out (see the [module docs](self)).
    accept_stalled: bool,
    /// Receiving end of the wake socket.
    wake_rx: UnixStream,
    waker: Waker,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) in front of
    /// `engine` with default [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, engine: Engine) -> std::io::Result<NetServer> {
        NetServer::bind_with(addr, engine, ServerConfig::default())
    }

    /// Binds with explicit configuration.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        engine: Engine,
        config: ServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let shed_threshold = shed_threshold_for(engine.queue_capacity(), SHED_LOW_WATERMARK);
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let waker = Waker(Arc::new(wake_tx));
        let notifier = waker.clone();
        engine.set_completion_notifier(move || notifier.wake());
        Ok(NetServer {
            listener,
            engine: Arc::new(engine),
            config,
            conns: HashMap::new(),
            next_conn: 0,
            routes: HashMap::new(),
            next_engine_id: 0,
            shed_threshold,
            stats: ServerStats::default(),
            accept_stalled: false,
            wake_rx,
            waker,
        })
    }

    /// The bound address (read the ephemeral port here).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The engine behind this server.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Serves until `stop` becomes `true`, then drains gracefully
    /// (admitted work completes and flushes, new work gets
    /// [`RejectReason::ShuttingDown`]) and returns the final counters.
    ///
    /// An idle server notices `stop` within [`STOP_POLL`] (one second);
    /// [`ServerHandle::shutdown`] also wakes it.
    pub fn run(mut self, stop: &AtomicBool) -> ServerStats {
        while !stop.load(Ordering::Acquire) {
            if !self.sweep(false) {
                self.wait_ready(!self.accept_stalled, STOP_POLL);
            }
        }
        self.drain()
    }

    /// Spawns the serving thread and returns its handle.
    ///
    /// # Errors
    ///
    /// Propagates the address query failure (the thread itself cannot
    /// fail to start).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let engine = Arc::clone(&self.engine);
        let waker = self.waker.clone();
        let thread = std::thread::spawn(move || self.run(&flag));
        Ok(ServerHandle {
            addr,
            stop,
            thread,
            engine,
            waker,
        })
    }

    /// Blocks until a source the next sweep would act on is ready (see
    /// the [module docs](self)) or `timeout` passes, then empties the
    /// wake socket.  `accepting` adds the listener.
    fn wait_ready(&self, accepting: bool, timeout: Duration) {
        let entry = |fd: &dyn AsRawFd, events| PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        };
        let mut fds = vec![entry(&self.wake_rx, POLLIN)];
        if accepting {
            fds.push(entry(&self.listener, POLLIN));
        }
        for conn in self.conns.values() {
            let mut events = 0;
            if wants_read(conn, MAX_OUTBOX_BYTES) {
                events |= POLLIN;
            }
            if !conn.outbox.is_empty() {
                events |= POLLOUT;
            }
            // A connection waiting on nothing is left out: poll(2)
            // reports a hang-up even unasked, and that would spin.
            if events != 0 {
                fds.push(entry(&conn.stream, events));
            }
        }
        let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is a live, initialised array of exactly the
        // length passed, laid out as poll(2)'s `struct pollfd`; every fd
        // in it is owned by `self` and stays open for the call, which
        // writes nothing but the `revents` fields.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        // An error (EINTR) or a timeout just sends the loop round again.
        if ready > 0 && fds[0].revents != 0 {
            let mut bytes = [0u8; 64];
            while matches!((&self.wake_rx).read(&mut bytes), Ok(n) if n > 0) {}
        }
    }

    /// One poll-loop sweep: accept, read/decode/admit, route completed
    /// responses, flush outboxes, reap closed connections.  Returns
    /// whether anything moved (bytes, frames or responses) — the idle
    /// signal for the caller's wait.
    ///
    /// `draining` suppresses accepts and turns fresh requests into
    /// [`RejectReason::ShuttingDown`] rejects.
    fn sweep(&mut self, draining: bool) -> bool {
        let mut moved = false;
        if !draining {
            moved |= self.accept_new();
        }
        moved |= self.read_all(draining);
        moved |= self.route_responses();
        moved |= self.flush_all();
        self.reap_closed();
        moved
    }

    /// Accept loop: drain the listener backlog.
    fn accept_new(&mut self) -> bool {
        let mut moved = false;
        self.accept_stalled = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Nonblocking + NODELAY: the loop may block only in
                    // poll(2), never in a socket call, and response
                    // frames are latency-sensitive (no Nagle batching).
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns
                        .insert(id, Conn::new(stream, self.config.max_frame_bytes));
                    self.stats.connections_accepted += 1;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // The failed connection left the backlog: go on.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::ConnectionAborted | ErrorKind::Interrupted
                    ) => {}
                // Out of descriptors or buffers: the connection stays
                // queued and the listener readable, so stop asking until
                // after the next wait.
                Err(_) => {
                    self.accept_stalled = true;
                    break;
                }
            }
        }
        moved
    }

    /// Read phase: pull available bytes from every connection and admit
    /// the complete frames.
    fn read_all(&mut self, draining: bool) -> bool {
        let mut moved = false;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        let mut chunk = [0u8; 64 * 1024];
        for conn_id in ids {
            let conn = self.conns.get_mut(&conn_id).expect("listed");
            if !wants_read(conn, MAX_OUTBOX_BYTES) {
                continue;
            }
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        // Peer closed its write half; whatever frames
                        // are already buffered still decode below, and
                        // responses keep flowing until delivered.
                        conn.closing = true;
                        break;
                    }
                    Ok(n) => {
                        conn.assembler.push(&chunk[..n]);
                        moved = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Hard socket failure: nothing more can be
                        // read *or* delivered.
                        conn.closing = true;
                        conn.dead = true;
                        break;
                    }
                }
            }
            // Decode every complete frame this connection has buffered.
            loop {
                let conn = self.conns.get_mut(&conn_id).expect("listed");
                match conn.assembler.next_frame() {
                    Ok(Some(payload)) => {
                        moved = true;
                        self.handle_frame(conn_id, &payload, draining);
                    }
                    Ok(None) => break,
                    Err(oversized) => {
                        // Typed reject, then close: the stream is
                        // desynced (the length prefix lied).
                        moved = true;
                        self.send_reject(
                            conn_id,
                            WireReject::new(0, RejectReason::Oversized, oversized.to_string()),
                        );
                        if let Some(c) = self.conns.get_mut(&conn_id) {
                            c.closing = true;
                        }
                        break;
                    }
                }
            }
        }
        moved
    }

    /// Decodes and admits one frame from `conn_id`.
    fn handle_frame(&mut self, conn_id: u64, payload: &[u8], draining: bool) {
        if matches!(peek_kind(payload), Ok(FRAME_ADMIN)) {
            self.handle_admin(conn_id, payload, draining);
            return;
        }
        let request = match self.decode_request(payload) {
            Ok(request) => request,
            Err(reject) => {
                self.send_reject(conn_id, reject);
                return;
            }
        };
        let client_id = request.id;
        if draining || self.engine.is_shutting_down() {
            self.send_reject(
                conn_id,
                WireReject::new(
                    client_id,
                    RejectReason::ShuttingDown,
                    "server is draining; no new work admitted",
                ),
            );
            return;
        }
        // Load shedding ahead of the queue: past the watermark, Low
        // gives up its spot so High/Normal keep the remaining headroom.
        if request.priority == Priority::Low && self.engine.queue_depth() >= self.shed_threshold {
            self.send_reject(
                conn_id,
                WireReject::new(
                    client_id,
                    RejectReason::ShedLowPriority,
                    format!(
                        "queue depth {} crossed the shed watermark {}",
                        self.engine.queue_depth(),
                        self.shed_threshold
                    ),
                ),
            );
            return;
        }
        let engine_id = self.next_engine_id;
        self.next_engine_id += 1;
        match self.engine.submit(to_engine_request(engine_id, request)) {
            Ok(()) => {
                self.routes.insert(engine_id, (conn_id, client_id));
                self.stats.requests_admitted += 1;
            }
            Err(e) => {
                let reason = reject_reason_for(&e);
                self.send_reject(conn_id, WireReject::new(client_id, reason, e.to_string()));
            }
        }
    }

    /// Decodes and executes one admin frame (hot swap / evict).
    /// Success is acknowledged with a [`WireAdminOk`]; every failure —
    /// malformed frame, bad artifact, engine refusal — comes back as
    /// the same typed reject an inference request would get.
    fn handle_admin(&mut self, conn_id: u64, payload: &[u8], draining: bool) {
        let admin = match WireAdmin::decode(payload) {
            Ok(admin) => admin,
            Err(e) => {
                let id = salvage_request_id(payload);
                self.send_reject(
                    conn_id,
                    WireReject::new(id, RejectReason::Malformed, e.to_string()),
                );
                return;
            }
        };
        if draining || self.engine.is_shutting_down() {
            self.send_reject(
                conn_id,
                WireReject::new(
                    admin.id,
                    RejectReason::ShuttingDown,
                    "server is draining; no admin ops accepted",
                ),
            );
            return;
        }
        let result = match &admin.op {
            AdminOp::Swap {
                model,
                predictors,
                fraction,
                min_requests,
                tolerance,
                artifact,
            } => {
                let kinds: Vec<_> = predictors.iter().map(|p| p.to_kind()).collect();
                let canary = CanaryConfig::fraction(*fraction)
                    .min_requests(*min_requests)
                    .tolerance(*tolerance);
                nfm_serve::model::load_from_slice(artifact)
                    .map_err(EngineError::from)
                    .and_then(|next| self.engine.swap_model(model.as_str(), next, kinds, canary))
            }
            AdminOp::Evict { model } => self.engine.evict_model(model.as_str()).map(|()| 0),
        };
        match result {
            Ok(version) => {
                let ok = WireAdminOk {
                    id: admin.id,
                    version,
                };
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    ok.encode(&mut conn.outbox);
                }
            }
            Err(e) => {
                let reason = reject_reason_for(&e);
                self.send_reject(conn_id, WireReject::new(admin.id, reason, e.to_string()));
            }
        }
    }

    /// Decodes a request payload, mapping every failure to the typed
    /// reject frame the client should see.
    fn decode_request(&self, payload: &[u8]) -> Result<WireRequest, WireReject> {
        let id = salvage_request_id(payload);
        match peek_kind(payload) {
            Ok(FRAME_REQUEST) => {}
            Ok(found) => {
                return Err(WireReject::new(
                    id,
                    RejectReason::Malformed,
                    ProtocolError::UnexpectedKind { found }.to_string(),
                ))
            }
            Err(e @ ProtocolError::UnsupportedVersion { .. }) => {
                return Err(WireReject::new(
                    0,
                    RejectReason::UnsupportedVersion,
                    e.to_string(),
                ))
            }
            Err(e) => return Err(WireReject::new(0, RejectReason::Malformed, e.to_string())),
        }
        WireRequest::decode(payload)
            .map_err(|e| WireReject::new(id, RejectReason::Malformed, e.to_string()))
    }

    /// Route phase: encode completed engine responses into the outbox
    /// of the connection that submitted each.
    fn route_responses(&mut self) -> bool {
        let responses = self.engine.take_completed();
        let moved = !responses.is_empty();
        for r in responses {
            match self.routes.remove(&r.id) {
                Some((conn_id, client_id)) => {
                    let wire = WireResponse::from_response(client_id, &r);
                    match self.conns.get_mut(&conn_id) {
                        Some(conn) => {
                            wire.encode(&mut conn.outbox);
                            self.stats.responses_sent += 1;
                        }
                        None => self.stats.responses_orphaned += 1,
                    }
                }
                // Unroutable response: engine ids are server-issued, so
                // this cannot happen; counted rather than ignored.
                None => self.stats.responses_orphaned += 1,
            }
        }
        moved
    }

    /// Flush phase: write every outbox until its socket would block.
    fn flush_all(&mut self) -> bool {
        let mut moved = false;
        for conn in self.conns.values_mut() {
            while !conn.outbox.is_empty() {
                match conn.stream.write(&conn.outbox) {
                    Ok(n) if n > 0 => {
                        conn.outbox.drain(..n);
                        moved = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // Ok(0) or a hard error: the write side is gone,
                    // nothing buffered can ever be delivered.
                    _ => {
                        conn.closing = true;
                        conn.dead = true;
                        conn.outbox.clear();
                        break;
                    }
                }
            }
        }
        moved
    }

    /// Drops connections that are finished.  A dead socket is reaped
    /// immediately (its in-flight responses are counted as orphaned
    /// when they complete).  A *closing* connection — read EOF, write
    /// side still good — is kept until its outbox is flushed **and**
    /// no admitted request still routes to it, so a half-closing
    /// client receives every response it was promised before the
    /// connection goes away.
    fn reap_closed(&mut self) {
        let dead: Vec<u64> = self
            .conns
            .iter()
            .filter(|(&id, c)| {
                c.dead
                    || (c.closing
                        && c.outbox.is_empty()
                        && !self.routes.values().any(|&(conn_id, _)| conn_id == id))
            })
            .map(|(&id, _)| id)
            .collect();
        for id in dead {
            self.conns.remove(&id);
        }
    }

    /// Encodes a typed reject into `conn_id`'s outbox (or counts it as
    /// orphaned when the connection vanished mid-handling).
    fn send_reject(&mut self, conn_id: u64, reject: WireReject) {
        self.stats.count_reject(reject.reason);
        match self.conns.get_mut(&conn_id) {
            Some(conn) => reject.encode(&mut conn.outbox),
            None => self.stats.responses_orphaned += 1,
        }
    }

    /// Graceful drain: reject fresh work, finish everything admitted,
    /// flush every response, join the engine workers, return counters.
    fn drain(mut self) -> ServerStats {
        self.engine.initiate_shutdown();
        // Finish routing everything the engine still owes.  Sweeping
        // keeps reading (so queued frames become typed ShuttingDown
        // rejects instead of going unanswered) and keeps flushing.
        while self.engine.pending() > 0 {
            if !self.sweep(true) {
                self.wait_ready(false, STOP_POLL);
            }
        }
        // Route any tail the last sweep's take_completed() missed, then
        // flush with a bounded budget: a stuck peer must not wedge
        // shutdown.  The engine is `Arc`-shared with a possible
        // `ServerHandle`; its workers are joined when the final handle
        // drops (they are already draining — `initiate_shutdown` ran
        // above).
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let moved = self.sweep(true);
            let now = Instant::now();
            if now >= deadline || self.conns.values().all(|c| c.outbox.is_empty()) {
                break;
            }
            if !moved {
                self.wait_ready(false, deadline - now);
            }
        }
        self.stats
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.listener.local_addr().ok())
            .field("connections", &self.conns.len())
            .field("in_flight", &self.routes.len())
            .finish_non_exhaustive()
    }
}

/// Handle to a spawned [`NetServer`] thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<ServerStats>,
    engine: Arc<Engine>,
    waker: Waker,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the spawned server — live observability
    /// ([`Engine::context_stats`], queue depth) while traffic runs.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Signals the serving thread to drain gracefully and joins it,
    /// returning the lifetime counters.
    pub fn shutdown(self) -> ServerStats {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
        self.thread.join().expect("server thread never panics")
    }
}

/// The queue depth at which [`Priority::Low`] requests start being
/// shed.  ceil() so a watermark of 1.0 only sheds when the queue is
/// genuinely full; floored at 1 so a watermark of 0.0 (or a tiny
/// capacity) sheds only when something is actually queued — `>= 0`
/// would shed every Low request on an idle server.
fn shed_threshold_for(capacity: usize, watermark: f64) -> usize {
    ((capacity as f64) * watermark.clamp(0.0, 1.0))
        .ceil()
        .max(1.0) as usize
}

/// Builds the engine-side request: the server-issued `engine_id` keys
/// the response route; all client choices map field for field.
fn to_engine_request(engine_id: u64, w: WireRequest) -> InferenceRequest {
    let mut options = RequestOptions::default().priority(w.priority);
    if let Some(model) = w.model {
        options = options.model(model);
    }
    if let Some(predictor) = w.predictor {
        options = options.predictor(predictor);
    }
    if let Some(threshold) = w.threshold {
        options = options.threshold(threshold);
    }
    let mut request = InferenceRequest::new(engine_id, w.sequence).with_options(options);
    if let Some(deadline) = w.deadline {
        request = request.with_deadline(deadline);
    }
    request
}

/// Maps a submit-time engine error onto the wire's typed reject space.
fn reject_reason_for(e: &EngineError) -> RejectReason {
    match e {
        EngineError::QueueFull { .. } => RejectReason::Overloaded,
        EngineError::UnknownModel { .. } => RejectReason::UnknownModel,
        EngineError::UnknownPredictor { .. } => RejectReason::UnknownPredictor,
        EngineError::ThresholdUnsupported { .. } => RejectReason::ThresholdUnsupported,
        EngineError::EmptySequence { .. } | EngineError::InputSizeMismatch { .. } => {
            RejectReason::InvalidSequence
        }
        EngineError::ShutDown => RejectReason::ShuttingDown,
        _ => RejectReason::Internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_mapping_covers_submit_errors() {
        assert_eq!(
            reject_reason_for(&EngineError::QueueFull { capacity: 4 }),
            RejectReason::Overloaded
        );
        assert_eq!(
            reject_reason_for(&EngineError::UnknownModel {
                model: "nope".into()
            }),
            RejectReason::UnknownModel
        );
        assert_eq!(
            reject_reason_for(&EngineError::EmptySequence { id: 1 }),
            RejectReason::InvalidSequence
        );
        assert_eq!(
            reject_reason_for(&EngineError::ShutDown),
            RejectReason::ShuttingDown
        );
        assert_eq!(
            reject_reason_for(&EngineError::EmptyRegistry),
            RejectReason::Internal
        );
    }

    #[test]
    fn shed_threshold_never_sheds_an_idle_server() {
        // The interesting edge: watermark 0.0 floors at depth 1, so
        // Low is shed only when something is actually queued.
        assert_eq!(shed_threshold_for(4, 0.0), 1);
        assert_eq!(shed_threshold_for(4, 0.75), 3);
        // 1.0 sheds only at a genuinely full queue.
        assert_eq!(shed_threshold_for(4, 1.0), 4);
        assert_eq!(shed_threshold_for(1, 0.5), 1);
        // Out-of-range watermarks clamp instead of misbehaving.
        assert_eq!(shed_threshold_for(4, -1.0), 1);
        assert_eq!(shed_threshold_for(4, 2.0), 4);
    }

    #[test]
    fn outbox_cap_pauses_reads() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let mut conn = Conn::new(stream, DEFAULT_MAX_FRAME_BYTES);
        assert!(wants_read(&conn, 64));
        // At the cap: reads (and so admissions) pause until it drains.
        conn.outbox = vec![0u8; 64];
        assert!(!wants_read(&conn, 64));
        conn.outbox.truncate(63);
        assert!(wants_read(&conn, 64));
        // Closing connections are never read.
        conn.closing = true;
        assert!(!wants_read(&conn, 64));
    }

    #[test]
    fn server_stats_counts_by_reason() {
        let mut stats = ServerStats::default();
        stats.count_reject(RejectReason::Overloaded);
        stats.count_reject(RejectReason::Overloaded);
        stats.count_reject(RejectReason::ShedLowPriority);
        assert_eq!(stats.rejects(RejectReason::Overloaded), 2);
        assert_eq!(stats.rejects(RejectReason::ShedLowPriority), 1);
        assert_eq!(stats.rejects_total(), 3);
    }
}
