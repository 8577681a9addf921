#!/usr/bin/env bash
# Appends one line to BENCH_history.jsonl: what the repo benchmark last
# measured, so a later PR can see how the five workloads moved over
# time instead of only the parent it is judged against.
#
# Usage: scripts/bench_history.sh [label] [out-dir]
#
# Run `benchmark/run.sh` first; this reads the untraced
# `<out-dir>/<workload>.json` files it leaves (default `benchmark/out`)
# and records the commit, host shape and dispatch tiers their `meta`
# carries, plus each workload's five end-to-end metrics as
# `[median, q1, q3]` (`[value]` where the benchmark reports no
# quartiles).  A workload with no file is left out of the line;
# `scripts/bench_pair.sh` writes its per-side medians in the same form.
# `commit` is the HEAD the benchmark ran on; say in `label` when the
# numbers are of an uncommitted tree on top of it.
# Nothing under `benchmark/` is written.
set -euo pipefail

cd "$(dirname "$0")/.."

python3 - "${1:-}" "${2:-benchmark/out}" >> BENCH_history.jsonl <<'EOF'
import json, os, sys

label, out_dir = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
line = {"label": label}
workloads = {}
for w in (w["name"] for w in spec["workloads"]):
    if not os.path.exists(f"{out_dir}/{w}.json"):
        continue
    run = json.load(open(f"{out_dir}/{w}.json"))
    meta = run["meta"]
    # `serve_open` pins its threads and reports the CPUs it was left
    # with, so the host's count is the largest any workload saw.
    line["nproc"] = max(line.get("nproc", 0), int(meta["nproc"]))
    host = {
        "commit": meta["git_commit"],
        "kernel_backend": meta["kernel_backend"],
        "popcount_backend": meta["popcount_backend"],
        "seed": meta["seed"],
        "seconds": meta["seconds"],
    }
    for key, value in host.items():
        if line.setdefault(key, value) != value:
            sys.exit(f"{out_dir}/{w}.json: {key} {value!r} differs from {line[key]!r}: not one run of the set")
    if run["result"]["failed"] or not run["result"]["correct"]:
        sys.exit(f"{out_dir}/{w}.json: the run failed; not recording it")
    workloads[w] = {
        m["name"]: [run["metrics"][m["name"]][k] for k in ("value", "q1", "q3") if k in run["metrics"][m["name"]]]
        for m in spec["end_to_end"]
    }
if not workloads:
    sys.exit(f"{out_dir}: no workload results")
line["workloads"] = workloads
print(json.dumps(line, separators=(",", ":")))
EOF

tail -n 1 BENCH_history.jsonl
