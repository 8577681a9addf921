//! The activation semantics suite of `crates/tensor`, mounted here so
//! it runs under the umbrella package's tier-1 `cargo test -q` too.

#[path = "../crates/tensor/tests/activation_semantics.rs"]
mod suite;
