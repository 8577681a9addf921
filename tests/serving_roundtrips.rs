//! The serving crates' own round-trip suites, mounted here so they run
//! under the umbrella package's tier-1 `cargo test -q` too: the
//! `crates/net` wire-protocol properties (seeded frames round-trip,
//! damaged ones give typed errors) and the `crates/model` artifact
//! properties (bitwise fidelity, zero-copy views, never a panic).

#[path = "../crates/net/tests/protocol_roundtrip.rs"]
mod protocol;

#[path = "../crates/model/tests/artifact_roundtrip.rs"]
mod artifact;
