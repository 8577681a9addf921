#!/usr/bin/env bash
# Prints the workspace's non-test line count: for every `.rs` file under
# `crates/*/src` and `src`, the lines before its first `#[cfg(test)]`
# (the whole file when it has none), per crate and in total.  This is
# the measure ROADMAP item 3's "fewer non-test lines" budget and the
# per-PR CHANGES.md deltas are stated in.
#
# Usage: scripts/nontest_loc.sh [--check]
#
# `--check` also compares the total with the ceiling committed in
# `scripts/nontest_loc.max` and fails when it is above: the count may
# rise only in a PR that raises that file and says why.
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
  find "$1" -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { n++ }
    END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
  n=$(count "$dir")
  printf '%-24s %7d\n' "$dir" "$n"
  total=$((total + n))
done
printf '%-24s %7d\n' total "$total"

if [ "${1:-}" = --check ]; then
  max=$(cat scripts/nontest_loc.max)
  if [ "$total" -gt "$max" ]; then
    echo "non-test lines $total exceed scripts/nontest_loc.max ($max)" >&2
    exit 1
  fi
  echo "within scripts/nontest_loc.max ($max)"
fi
