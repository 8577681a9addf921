//! The suites that pin the packed BNN predictor, mounted here so they
//! run under the umbrella package's tier-1 `cargo test -q` too: the
//! `crates/bnn` properties (packed predict and sign-pack against their
//! references on every kernel tier) and the `crates/core` regression
//! for a mirror of another shape than its network.

#[path = "../crates/bnn/tests/properties.rs"]
mod bnn;

#[path = "../crates/core/tests/mirror_mismatch.rs"]
mod core;
