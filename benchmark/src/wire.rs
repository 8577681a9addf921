//! The benchmark's own span-recording client: the same frames as
//! `nfm_net::NetClient`, but every step of a request's life on the client
//! side is timed, so a traced run can attribute a round trip.

use crate::gen::Wire;
use nfm_net::{FrameAssembler, ServerFrame, WireRequest, DEFAULT_MAX_FRAME_BYTES};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Client-side times of one sent request, in ns on the trace clock.
#[derive(Debug, Clone, Copy)]
pub struct SendTiming {
    pub id: u64,
    pub encode_start_ns: u64,
    pub encode_end_ns: u64,
    pub write_end_ns: u64,
}

/// Client-side times of one received frame.
#[derive(Debug, Clone, Copy)]
pub struct RecvTiming {
    pub id: u64,
    /// When the frame's last byte had been read and reassembled.
    pub frame_ns: u64,
    pub decode_end_ns: u64,
}

pub struct TracedClient {
    stream: TcpStream,
    nonblocking: bool,
    assembler: FrameAssembler,
    scratch: Vec<u8>,
    origin: Instant,
    pub sends: Vec<SendTiming>,
    pub recvs: Vec<RecvTiming>,
}

impl TracedClient {
    /// Connects with `TCP_NODELAY`, like `NetClient`.  `origin` is the
    /// trace clock's zero.
    pub fn connect(addr: SocketAddr, origin: Instant) -> Result<TracedClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        Ok(TracedClient {
            stream,
            nonblocking: false,
            assembler: FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES),
            scratch: Vec::new(),
            origin,
            sends: Vec::new(),
            recvs: Vec::new(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn set_nonblocking(&mut self, on: bool) -> Result<(), String> {
        if self.nonblocking != on {
            self.stream
                .set_nonblocking(on)
                .map_err(|e| format!("set_nonblocking({on}): {e}"))?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// Pops and decodes one reassembled frame, if a whole one is buffered.
    fn pop_frame(&mut self) -> Result<Option<ServerFrame>, String> {
        let Some(payload) = self
            .assembler
            .next_frame()
            .map_err(|e| format!("reassemble: {e}"))?
        else {
            return Ok(None);
        };
        let frame_ns = self.now_ns();
        let frame = ServerFrame::decode(&payload).map_err(|e| format!("decode: {e}"))?;
        self.recvs.push(RecvTiming {
            id: frame.id(),
            frame_ns,
            decode_end_ns: self.now_ns(),
        });
        Ok(Some(frame))
    }

    /// Reads once into the assembler.  `Ok(false)` means nothing was
    /// available on a nonblocking socket.
    fn fill(&mut self) -> Result<bool, String> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.assembler.push(&chunk[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

impl Wire for TracedClient {
    fn send(&mut self, request: &WireRequest) -> Result<(), String> {
        self.set_nonblocking(false)?;
        let encode_start_ns = self.now_ns();
        self.scratch.clear();
        request.encode(&mut self.scratch);
        let encode_end_ns = self.now_ns();
        self.stream
            .write_all(&self.scratch)
            .map_err(|e| format!("write: {e}"))?;
        self.sends.push(SendTiming {
            id: request.id,
            encode_start_ns,
            encode_end_ns,
            write_end_ns: self.now_ns(),
        });
        Ok(())
    }

    fn recv(&mut self) -> Result<ServerFrame, String> {
        self.set_nonblocking(false)?;
        loop {
            if let Some(frame) = self.pop_frame()? {
                return Ok(frame);
            }
            self.fill()?;
        }
    }

    fn try_recv(&mut self) -> Result<Option<ServerFrame>, String> {
        if let Some(frame) = self.pop_frame()? {
            return Ok(Some(frame));
        }
        self.set_nonblocking(true)?;
        while self.fill()? {
            if let Some(frame) = self.pop_frame()? {
                return Ok(Some(frame));
            }
        }
        Ok(None)
    }
}
