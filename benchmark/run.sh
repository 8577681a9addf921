#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.  All arguments go
# to the benchmark binary; `benchmark/run.sh --help`-style usage is in
# benchmark/README.md.
#
#   benchmark/run.sh                        every workload, one process each
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --aa                   two sets of three runs, within bounds?
#   benchmark/run.sh --quick                smoke run: outputs, not speed
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# The root workspace's target directory unless the caller chose one; a
# relative CARGO_TARGET_DIR is relative to the repo root.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Build output goes to stderr so stdout carries only the benchmark's own.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2

NFM_BENCH_RUSTC="$(rustc -V)"
NFM_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export NFM_BENCH_RUSTC NFM_BENCH_COMMIT

exec "$CARGO_TARGET_DIR/release/nfm-benchmark" "$@"
