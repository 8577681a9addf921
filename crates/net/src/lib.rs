//! # nfm-net — the engine's TCP serving surface
//!
//! Everything needed to put the in-process [`Engine`](nfm_serve::Engine)
//! behind a socket, with **no dependencies outside `std`**.  The crate
//! is unix-only: the server waits in `poll(2)`.
//!
//! * [`protocol`] — the length-prefixed little-endian wire format:
//!   [`WireRequest`] / [`WireAdmin`] in, [`WireResponse`] /
//!   [`WireReject`] / [`WireAdminOk`] out, each declared once as its
//!   fields in wire order (both directions are derived from that
//!   list), with [`FrameAssembler`] turning an arbitrary byte stream
//!   back into frames.  `f32` payloads travel as IEEE-754 bit patterns,
//!   so a loopback round-trip is bit-exact — the e2e tests assert
//!   network outputs identical to `Engine::submit`.
//! * [`server`] — [`NetServer`], a single-threaded nonblocking poll
//!   loop that sleeps in `poll(2)` until a socket is ready or the
//!   engine's completion notifier writes to its wake socket, decodes
//!   frames, admits them into the engine's bounded priority queue, sheds
//!   [`Priority::Low`](nfm_serve::Priority::Low) work past a queue
//!   watermark, and answers every refusal with a typed reject frame.
//! * [`client`] — [`NetClient`], the blocking/nonblocking client used
//!   by the benchmark, the tests and the examples.
//!
//! ## Minimal round trip
//!
//! ```
//! use nfm_core::PredictorKind;
//! use nfm_net::{NetClient, NetServer, ServerFrame, WireRequest};
//! use nfm_serve::EngineBuilder;
//! use nfm_workloads::{NetworkId, WorkloadBuilder};
//!
//! let workload = WorkloadBuilder::new(NetworkId::ImdbSentiment)
//!     .scale(0.05)
//!     .sequences(1)
//!     .sequence_length(4)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let engine = EngineBuilder::new(workload.network().clone(), PredictorKind::Exact)
//!     .workers(1)
//!     .build()
//!     .unwrap();
//!
//! let server = NetServer::bind("127.0.0.1:0", engine).unwrap();
//! let handle = server.spawn().unwrap();
//!
//! let mut client = NetClient::connect(handle.addr()).unwrap();
//! client
//!     .send(&WireRequest::new(1, workload.sequences()[0].clone()))
//!     .unwrap();
//! match client.recv().unwrap() {
//!     ServerFrame::Response(r) => assert_eq!(r.id, 1),
//!     other => panic!("unexpected frame: {other:?}"),
//! }
//!
//! let stats = handle.shutdown();
//! assert_eq!(stats.responses_sent, 1);
//! ```

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{NetClient, NetError};
pub use protocol::{
    AdminOp, FrameAssembler, ProtocolError, RejectReason, ServerFrame, WireAdmin, WireAdminOk,
    WirePredictorKind, WireReject, WireRequest, WireResponse, WireStats, DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
pub use server::{NetServer, ServerConfig, ServerHandle, ServerStats};
