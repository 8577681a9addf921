//! The client half of the wire: frame a [`WireRequest`], read back
//! [`ServerFrame`]s.
//!
//! [`NetClient`] is deliberately simple — a blocking `TcpStream`
//! wrapper with the same [`FrameAssembler`] the server uses, so the
//! benchmark, the e2e tests and the examples all speak through one
//! code path.  `recv` blocks until a full frame arrives;
//! [`try_recv`](NetClient::try_recv) flips the socket nonblocking for
//! open-loop senders that must not stall on slow responses, and
//! [`recv_timeout`](NetClient::recv_timeout) waits a bounded time.  All
//! three are one receive routine, and every send is one write routine.

use crate::protocol::{FrameAssembler, ProtocolError, ServerFrame, WireAdmin, WireRequest};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Failures a [`NetClient`] can surface.
#[derive(Debug)]
pub enum NetError {
    /// The socket failed or closed.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode as a protocol frame.
    Protocol(ProtocolError),
    /// The peer closed the connection cleanly mid-conversation.
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Protocol(e) => Some(e),
            NetError::Disconnected => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ProtocolError> for NetError {
    fn from(e: ProtocolError) -> Self {
        NetError::Protocol(e)
    }
}

/// How long one receive may wait for bytes.
#[derive(Clone, Copy)]
enum Wait {
    /// Until a frame arrives.
    Block,
    /// Not at all: only what the socket already holds.
    Poll,
    /// Up to this long.
    Upto(Duration),
}

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    assembler: FrameAssembler,
    scratch: Vec<u8>,
}

impl NetClient {
    /// Connects to `addr` with `TCP_NODELAY` (request/response frames
    /// are latency-sensitive).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            assembler: FrameAssembler::default(),
            scratch: Vec::new(),
        })
    }

    /// The local (client-side) address of the connection.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.stream.local_addr()?)
    }

    /// Encodes and writes one request frame (blocking until the socket
    /// accepted all of it).
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn send(&mut self, request: &WireRequest) -> Result<(), NetError> {
        self.write(|out| request.encode(out))
    }

    /// Encodes and writes one admin frame (blocking until the socket
    /// accepted all of it).  The ack arrives as a regular
    /// [`ServerFrame`] — use [`admin`](NetClient::admin) for the
    /// send-and-wait round trip.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn send_admin(&mut self, admin: &WireAdmin) -> Result<(), NetError> {
        self.write(|out| admin.encode(out))
    }

    /// Sends raw bytes on the wire, bypassing the encoder — the
    /// property tests use this to throw malformed frames at a live
    /// server.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.write(|out| out.extend_from_slice(bytes))
    }

    /// Sends one admin operation and blocks for the server's verdict:
    /// [`ServerFrame::AdminOk`] on success, [`ServerFrame::Reject`]
    /// with the typed reason otherwise.
    ///
    /// Intended for a dedicated control connection: on a connection
    /// with inference requests in flight, the next frame may be one of
    /// their responses rather than this ack (match on
    /// [`ServerFrame::id`] in that case).
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] on clean EOF, otherwise socket or
    /// decode failures.
    pub fn admin(&mut self, admin: &WireAdmin) -> Result<ServerFrame, NetError> {
        self.send_admin(admin)?;
        self.recv()
    }

    /// Blocks until the next server frame arrives (response or typed
    /// reject).
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] on clean EOF, otherwise socket or
    /// decode failures.
    pub fn recv(&mut self) -> Result<ServerFrame, NetError> {
        self.receive(Wait::Block)?
            .ok_or_else(|| NetError::Io(ErrorKind::WouldBlock.into()))
    }

    /// Nonblocking receive: returns `Ok(None)` when no complete frame
    /// is available yet.  Open-loop senders poll this between sends so
    /// arrivals never wait on responses.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] on clean EOF, otherwise socket or
    /// decode failures.
    pub fn try_recv(&mut self) -> Result<Option<ServerFrame>, NetError> {
        self.receive(Wait::Poll)
    }

    /// Blocks up to `timeout` for the next frame; `Ok(None)` on
    /// timeout.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] on clean EOF, otherwise socket or
    /// decode failures.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<ServerFrame>, NetError> {
        self.receive(Wait::Upto(timeout))
    }

    /// Half-closes the write side so the server sees EOF after the
    /// in-flight requests, while responses keep flowing back.
    ///
    /// # Errors
    ///
    /// Propagates the shutdown failure.
    pub fn finish_sending(&mut self) -> Result<(), NetError> {
        self.stream.shutdown(std::net::Shutdown::Write)?;
        Ok(())
    }

    /// The one write path: encodes into the scratch buffer and writes it
    /// whole, blocking.
    fn write(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), NetError> {
        self.scratch.clear();
        encode(&mut self.scratch);
        self.stream.set_nonblocking(false)?;
        self.stream.write_all(&self.scratch)?;
        Ok(())
    }

    /// The one receive path: a frame already buffered is returned
    /// without touching the socket; otherwise the socket is put in
    /// `wait`'s mode and read until a frame completes.  A timed wait
    /// restores blocking, no-timeout reads on every exit, errors
    /// included.
    fn receive(&mut self, wait: Wait) -> Result<Option<ServerFrame>, NetError> {
        if let Some(payload) = self.assembler.next_frame()? {
            return Ok(Some(ServerFrame::decode(&payload)?));
        }
        self.stream.set_nonblocking(matches!(wait, Wait::Poll))?;
        if let Wait::Upto(timeout) = wait {
            // read_timeout(Some(0)) is rejected by std; clamp up.
            let timeout = timeout.max(Duration::from_millis(1));
            self.stream.set_read_timeout(Some(timeout))?;
        }
        let received = self.read_frame();
        if let Wait::Upto(_) = wait {
            self.stream.set_read_timeout(None)?;
        }
        received
    }

    /// Reads until the assembler yields a frame; `Ok(None)` once the
    /// socket has nothing more within the current mode's wait.
    fn read_frame(&mut self) -> Result<Option<ServerFrame>, NetError> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => {
                    self.assembler.push(&chunk[..n]);
                    if let Some(payload) = self.assembler.next_frame()? {
                        return Ok(Some(ServerFrame::decode(&payload)?));
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}
