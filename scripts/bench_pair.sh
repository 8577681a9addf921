#!/usr/bin/env bash
# Interleaved A/B pairs of the repo benchmark: a parent revision (A)
# against the working tree (B), on the same host in one session.
#
# Usage: scripts/bench_pair.sh <parent-rev> [workloads] [pairs]
#
#   workloads  comma-separated names from BENCHMARK.json (default: all)
#   pairs      runs per side and workload (default 5)
#
# Environment: BENCH_SEED (input seed, default 5; 29 is the hold-out),
# BENCH_PAIR_DIR (scratch, default target/bench_pair).  Every run lasts
# BENCHMARK.json's run_seconds.
#
# The parent is exported with `git archive` (no worktree metadata is left
# in .git) and each side's `benchmark/` is built once into its own target
# directory.  For every workload and metric the report prints each side's
# median [q1, q3] over the pairs, the ratio B/A of the medians, the pairs
# B won, and a verdict: `same` where the medians differ by less than the
# printed ratio can show (|B/A - 1| < 0.0005) *and* the parent's quartiles
# both lie within 0.0005 of its median (a fixed-rate metric such as
# serve_open's steps_per_s, or a constant one such as output_fidelity_pct:
# any difference would otherwise exceed its near-zero IQR; a noisy row
# whose medians happen to coincide resolves nothing), `unresolved` where
# the parent's IQR is wider than the difference of the medians, else
# `better` or `worse`.  Both sides' medians are then appended to
# BENCH_history.jsonl through scripts/bench_history.sh.  Nothing under
# `benchmark/` is written.
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"

if [[ $# -lt 1 || $# -gt 3 ]]; then
    sed -n '5,9p' "$0" >&2
    exit 2
fi
rev="$1"
parent_commit="$(git rev-parse --verify "$rev^{commit}")"
workloads="${2:-$(python3 -c 'import json; print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}"
pairs="${3:-5}"
seed="${BENCH_SEED:-5}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
work="${BENCH_PAIR_DIR:-$root/target/bench_pair}"
mkdir -p "$work"
work="$(cd "$work" && pwd)"

head_commit="$(git rev-parse HEAD)"
change_label="change $(git rev-parse --short HEAD)"
if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then
    change_label="change (uncommitted tree on $(git rev-parse --short HEAD))"
fi
NFM_BENCH_RUSTC="$(rustc -V)"
export NFM_BENCH_RUSTC

# Build each side once.  Cargo output goes to stderr.
rm -rf "$work/parent" "$work/runs" "$work/summary"
mkdir -p "$work/parent" "$work/bin"
git archive "$parent_commit" | tar -x -C "$work/parent"
build() { # <source-root> <target-dir> <binary-name>
    CARGO_TARGET_DIR="$2" cargo build --release --offline --locked \
        --manifest-path "$1/benchmark/Cargo.toml" >&2
    cp "$2/release/nfm-benchmark" "$work/bin/$3"
}
build "$work/parent" "$work/target-parent" parent
build "$root" "$work/target-change" change

# One run: <side> <pair> <workload>.
run() {
    local commit="$parent_commit"
    [[ "$1" == change ]] && commit="$head_commit"
    echo "pair $2 $3: $1" >&2
    NFM_BENCH_COMMIT="$commit" "$work/bin/$1" --workload "$3" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$work/runs/$1/$2" > /dev/null
}
for ((pair = 0; pair < pairs; pair++)); do
    for workload in ${workloads//,/ }; do
        # The order within a pair is drawn from a fixed seed, so a drift
        # across the session does not favour one side.
        if python3 -c "import random, sys; sys.exit(random.Random('$pair/$workload').random() < 0.5)"; then
            run parent "$pair" "$workload"; run change "$pair" "$workload"
        else
            run change "$pair" "$workload"; run parent "$pair" "$workload"
        fi
    done
done

python3 - "$work" "$workloads" "$pairs" <<'EOF'
import json, os, statistics, sys

work, workloads, pairs = sys.argv[1], sys.argv[2].split(","), int(sys.argv[3])
spec = json.load(open("BENCHMARK.json"))

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return median, q1, q3

def fmt(x):
    return f"{x:.4g}"

for w in workloads:
    runs = {
        side: [json.load(open(f"{work}/runs/{side}/{p}/{w}.json")) for p in range(pairs)]
        for side in ("parent", "change")
    }
    print(f"\n{w}: {pairs} pairs, A = parent, B = change")
    print(f"  {'metric':<20} {'A median [q1, q3]':<30} {'B median [q1, q3]':<30} {'B/A':>6}  won  verdict")
    summary = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in runs["parent"]]
        b = [r["metrics"][name]["value"] for r in runs["change"]]
        (am, aq1, aq3), (bm, bq1, bq3) = quartiles(a), quartiles(b)
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ratio = bm / am if am else float("nan")
        steady = all(abs(q - am) <= 0.0005 * abs(am) for q in (aq1, aq3))
        if steady and (bm == am or abs(ratio - 1) < 0.0005):
            verdict = "same"
        elif aq3 - aq1 > abs(bm - am):
            verdict = "unresolved"
        else:
            verdict = "better" if (bm < am) == lower else "worse"
        side_a = f"{fmt(am)} [{fmt(aq1)}, {fmt(aq3)}]"
        side_b = f"{fmt(bm)} [{fmt(bq1)}, {fmt(bq3)}]"
        print(f"  {name:<20} {side_a:<30} {side_b:<30} {ratio:>6.3f}  {won}/{pairs}  {verdict}")
        summary[name] = {"parent": (am, aq1, aq3), "change": (bm, bq1, bq3)}
    # One summary file per side in the shape bench_history.sh reads: the
    # first run's meta, every run's verdict, the medians over the pairs.
    for side in ("parent", "change"):
        os.makedirs(f"{work}/summary/{side}", exist_ok=True)
        first = runs[side][0]
        out = {
            "meta": first["meta"],
            "result": {
                "failed": sum(r["result"]["failed"] for r in runs[side]),
                "correct": all(r["result"]["correct"] for r in runs[side]),
            },
            "metrics": {
                name: dict(zip(("value", "q1", "q3"), values[side]))
                for name, values in summary.items()
            },
        }
        json.dump(out, open(f"{work}/summary/{side}/{w}.json", "w"))
EOF

label="pair of $pairs, seed $seed"
scripts/bench_history.sh "$label, parent $(git rev-parse --short "$parent_commit")" "$work/summary/parent"
scripts/bench_history.sh "$label, $change_label" "$work/summary/change"
