//! The end-to-end suites' one traffic driver: a window of requests in
//! flight over one `NetClient`.  (The load generator is the repo
//! benchmark's, `benchmark/`; these tests only have to account for every
//! request they send.)

use nfm::net::{NetClient, ServerFrame, WireRequest};
use nfm::serve::CompletionStatus;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Sends `requests` in order over one connection with at most `window`
/// unanswered, waiting `gap()` before each send while polling for
/// replies, and returns every reply once each request has one.  A zero
/// gap is a closed loop `window` deep; drawn gaps are an open loop whose
/// window only bounds the backlog.
pub fn drive(
    addr: SocketAddr,
    requests: &[WireRequest],
    window: usize,
    mut gap: impl FnMut() -> Duration,
) -> Vec<ServerFrame> {
    let mut client = NetClient::connect(addr).expect("connect");
    let mut replies = Vec::with_capacity(requests.len());
    for (sent, request) in requests.iter().enumerate() {
        let due = Instant::now() + gap();
        loop {
            match client.try_recv().expect("try_recv") {
                Some(frame) => replies.push(frame),
                None if Instant::now() >= due => break,
                None => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        while sent - replies.len() >= window {
            replies.push(client.recv().expect("recv"));
        }
        client.send(request).expect("send");
    }
    while replies.len() < requests.len() {
        replies.push(client.recv().expect("recv"));
    }
    replies
}

/// The sorted ids of `replies`, each asserted to be a completed
/// response (no reject, no expiry).
pub fn done_ids(replies: &[ServerFrame]) -> Vec<u64> {
    let mut ids: Vec<u64> = replies
        .iter()
        .map(|frame| match frame {
            ServerFrame::Response(r) if r.status == CompletionStatus::Done => r.id,
            other => panic!("expected a completed response, got {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids
}
