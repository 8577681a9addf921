//! The benchmark's fixed definition: workloads, metrics, bounds and
//! operation counts.  `BENCHMARK.json` at the repo root is rendered from
//! these tables (`--print-spec`) and a unit test keeps the two equal, so
//! later PRs cite workloads and metrics by the names written here.

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 18;
/// Default seed.  Seed 29 is the hold-out no change is developed against.
pub const DEFAULT_SEED: u64 = 5;
/// Seed of every model's weights.  Weights are part of the program under
/// test, not of its input, so `--seed` never changes them.
pub const MODEL_SEED: u64 = 0xF02D;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "batch_exact",
        why: "DeepSpeech2-shape GRU (5x400, 17.7 MB of weights) under the exact predictor: kernels and lane scheduler do all the work, memoization none; the bypass workload for every memoization change",
    },
    Workload {
        name: "batch_memo_lo",
        why: "Same network and inputs under BNN memoization at theta=0.1 (about 15% reuse): mostly misses, so predictor and compare are overhead; shows miss-path and bypass changes",
    },
    Workload {
        name: "batch_memo_hi",
        why: "IMDB-shape LSTM (1x128, cache-resident) under BNN memoization at theta=2.0 (about 60% reuse): mostly hits, so table, popcount and compare dominate and kernels barely matter",
    },
    Workload {
        name: "serve_open",
        why: "Loopback TCP, open-loop Poisson arrivals of tiny requests at a fixed 1500 req/s: wire framing, server sweep/park and engine admission are most of the latency, kernels little",
    },
    Workload {
        name: "serve_mixed",
        why: "Loopback TCP, closed loop with 16 in flight over a 3:1 blend of a large exact model and a small memoized one: context interleaving and lane borrowing decide throughput, the wire is under 5%",
    },
];

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees.  Every workload reports every one of
/// them; README.md says what each means on each workload.
pub const END_TO_END: [Metric; 5] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("steps_per_s", "1/s", Higher, 0.25),
    gated("latency_p50_ms", "ms", Lower, 0.25),
    gated("output_fidelity_pct", "%", Higher, 0.05),
    gated("peak_rss_mb", "MB", Lower, 0.15),
];

/// One layer each, timed from outside around that layer's public calls
/// in a traced run.  A value of 0 means the layer is not on the
/// workload's path (for example `bnn.*` on `batch_exact`).
pub const PER_LAYER: [Metric; 61] = [
    layer("tensor.dual_matmul_ns", "ns", Lower),
    layer("tensor.dual_matvec_ns", "ns", Lower),
    layer("tensor.hoist_matmul_ns", "ns", Lower),
    layer("tensor.gflops", "gflop/s", Higher),
    layer("tensor.weight_mb_per_call", "MB", Lower),
    layer("bnn.mirror_build_s", "s", Lower),
    layer("bnn.gate_predict_ns", "ns", Lower),
    layer("bnn.binarize_ns", "ns", Lower),
    layer("bnn.evals", "count", Lower),
    layer("core.reuse_pct", "%", Higher),
    layer("core.evaluations", "count", Lower),
    layer("core.reuses", "count", Higher),
    layer("core.table_op_ns", "ns", Lower),
    layer("core.memo_net_cost_pct", "%", Lower),
    layer("rnn.run_exact_s", "s", Lower),
    layer("rnn.run_memo_s", "s", Lower),
    layer("rnn.steps", "count", Higher),
    layer("rnn.kernel_share_pct", "%", Lower),
    layer("rnn.self_share_pct", "%", Lower),
    layer("model.save_s", "s", Lower),
    layer("model.load_s", "s", Lower),
    layer("model.artifact_mb", "MB", Lower),
    layer("serve.engine_build_s", "s", Lower),
    layer("serve.submit_ns", "ns", Lower),
    layer("serve.engine_round_s", "s", Lower),
    layer("serve.self_share_pct", "%", Lower),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.queue_wait_ms_p99", "ms", Lower),
    layer("serve.compute_ms_p50", "ms", Lower),
    layer("serve.compute_ms_p99", "ms", Lower),
    layer("serve.lane_borrows", "count", Higher),
    layer("serve.migrations", "count", Higher),
    layer("serve.rejected", "count", Lower),
    layer("net.rtt_us_p50", "us", Lower),
    layer("net.self_us_p50", "us", Lower),
    layer("net.encode_req_ns", "ns", Lower),
    layer("net.decode_req_ns", "ns", Lower),
    layer("net.encode_resp_ns", "ns", Lower),
    layer("net.decode_resp_ns", "ns", Lower),
    layer("net.assemble_ns", "ns", Lower),
    layer("net.req_bytes", "B", Lower),
    layer("net.resp_bytes", "B", Lower),
    layer("net.admitted", "count", Higher),
    layer("net.responses_sent", "count", Higher),
    layer("net.rejects", "count", Lower),
    layer("net.orphaned", "count", Lower),
    layer("gen.sent", "count", Higher),
    layer("gen.done", "count", Higher),
    layer("gen.expired", "count", Lower),
    layer("gen.rejected", "count", Lower),
    layer("gen.lateness_us_p99", "us", Lower),
    layer("gen.backlog_end", "count", Lower),
    layer("gen.max_rate_ok_rps", "1/s", Higher),
    layer("gen.capacity_rps", "1/s", Higher),
    layer("gen.goodput_rps", "1/s", Higher),
    layer("gen.latency_p95_ms", "ms", Lower),
    layer("gen.latency_p99_ms", "ms", Lower),
    layer("gen.latency_p99_hi_ms", "ms", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.unattributed_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Renders `BENCHMARK.json` exactly as it is committed at the repo root.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics are gated"),
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const MAX_WORKLOADS: usize = 8;
    const MAX_END_TO_END: usize = 16;
    const MAX_PER_LAYER: usize = 128;
    const MAX_BOUND: f64 = 0.25;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "workload name {}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n') && !w.why.contains('"') && !w.why.contains('\\'));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(valid_unit(m.unit), "{}: unit {}", m.name, m.unit);
        }
    }

    #[test]
    fn counts_and_bounds_fit_the_contract() {
        assert!((2..=MAX_WORKLOADS).contains(&WORKLOADS.len()));
        assert!((1..=MAX_END_TO_END).contains(&END_TO_END.len()));
        assert!((1..=MAX_PER_LAYER).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in &END_TO_END {
            let bound = m.bound.expect("gated");
            assert!(
                bound > 0.0 && bound <= MAX_BOUND,
                "{}: bound {bound}",
                m.name
            );
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        // 4 + 22 runs per workload, each under 30 s, fits the 3420 s cap
        // only while the set stays this small.
        assert!(4 + 22 * WORKLOADS.len() <= 114);
    }

    #[test]
    fn committed_benchmark_json_is_rendered_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            committed == benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh --print-spec`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
