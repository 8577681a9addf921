//! The serving crates' own suites, mounted here so they run under the
//! umbrella package's tier-1 `cargo test -q` too: the `crates/net`
//! wire-protocol properties (seeded frames round-trip, damaged ones
//! give typed errors), the `crates/model` artifact properties (bitwise
//! fidelity, chunked per-tensor loads, never a panic) and
//! `crates/serve`'s unit tests (request builders, the engine's
//! completion notifier).

#[path = "../crates/net/tests/protocol_roundtrip.rs"]
mod protocol;

#[path = "../crates/model/tests/artifact_roundtrip.rs"]
mod artifact;

#[path = "../crates/serve/tests/units.rs"]
mod serve;
