//! # nfm-bench
//!
//! Dependency-free benchmark harness plus the benchmark targets for the
//! reproduction.  The build container has no network access, so instead
//! of `criterion` this crate ships a small measurement core with the
//! same ergonomics: named benchmarks in groups, warm-up, automatic
//! iteration scaling, median-of-samples reporting and machine-readable
//! JSON snapshots (`--save <path>`; CI's bench-smoke job checks the
//! ids it requires in one).
//!
//! Benchmark targets (all `harness = false`):
//!
//! * `benches/inference_throughput.rs` — the perf baseline: batched
//!   exact inference vs the per-neuron fallback vs the seed-faithful
//!   naive path, plus BNN-memoized inference and the serving engine.
//! * `benches/micro.rs` — microbenchmarks (FP vs XNOR-popcount dot
//!   products, exact vs memoized inference, throttling ablation,
//!   accelerator projections).
//! * `benches/figures.rs` — regenerates every figure through the
//!   evaluation harness.
//! * `benches/tables.rs` — regenerates Tables 1 and 2 and the headline
//!   averages.
//!
//! Run everything with `cargo bench --workspace`, or a single target
//! with e.g. `cargo bench -p nfm-bench --bench micro`.  Pass a substring
//! filter and/or `--save <path>` after `--`:
//!
//! ```text
//! cargo bench -p nfm-bench --bench inference_throughput -- exact --save out.json
//! ```

use std::time::{Duration, Instant};

/// The benchmark targets this crate provides, for documentation and for
/// sanity tests.
pub const BENCH_TARGETS: [&str; 4] = ["inference_throughput", "micro", "figures", "tables"];

/// One measured benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark id, e.g. `inference/exact/small`.
    pub id: String,
    /// Median per-iteration time over all samples, in nanoseconds.
    pub median_ns: f64,
    /// Lower quartile of the per-iteration sample times, in nanoseconds.
    pub q1_ns: f64,
    /// Upper quartile of the per-iteration sample times, in nanoseconds:
    /// `q1_ns ..= q3_ns` is the spread one run of the rung shows.
    pub q3_ns: f64,
    /// Minimum per-iteration time over all samples, in nanoseconds.
    pub min_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations folded into each sample.
    pub iters_per_sample: u64,
}

impl BenchResult {
    /// The result of `samples` per-iteration times (nanoseconds, any
    /// order) of `iters` iterations each.
    fn of_samples(id: &str, mut samples: Vec<f64>, iters: u64) -> Self {
        samples.sort_by(|a, b| a.total_cmp(b));
        let n = samples.len();
        BenchResult {
            id: id.to_string(),
            median_ns: samples[n / 2],
            q1_ns: samples[n / 4],
            q3_ns: samples[3 * n / 4],
            min_ns: samples[0],
            samples: n,
            iters_per_sample: iters,
        }
    }

    /// Prints the result's line: median, quartiles, sample shape.
    fn print(&self, how: &str) {
        println!(
            "{:<44} median {:>12} [{} .. {}]  ({} samples x {} iters{how})",
            self.id,
            format_ns(self.median_ns),
            format_ns(self.q1_ns),
            format_ns(self.q3_ns),
            self.samples,
            self.iters_per_sample
        );
    }

    /// Iterations per second implied by the median sample.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.median_ns > 0.0 {
            1e9 / self.median_ns
        } else {
            f64::INFINITY
        }
    }
}

/// Options controlling a [`Bencher`]'s measurement loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchOptions {
    /// Timed samples per benchmark.
    pub samples: usize,
    /// Wall-clock target per sample; iterations are scaled to reach it.
    pub sample_time: Duration,
    /// Warm-up time before iteration scaling is estimated.
    pub warmup: Duration,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            samples: 11,
            sample_time: Duration::from_millis(40),
            warmup: Duration::from_millis(150),
        }
    }
}

/// A minimal benchmark driver: measures closures, prints a table, and
/// serializes results to JSON.
#[derive(Debug, Default)]
pub struct Bencher {
    options: BenchOptions,
    filter: Option<String>,
    results: Vec<BenchResult>,
    /// Snapshot metadata (`key` → `value`), serialized as the `meta`
    /// object of the JSON snapshot — e.g. the kernel dispatch backend
    /// the measurements ran on.
    meta: Vec<(String, String)>,
}

impl Bencher {
    /// Creates a bencher with default options and a filter/save spec
    /// parsed from the process arguments (`cargo bench` passes its
    /// trailing arguments through; unknown flags are ignored).
    ///
    /// `--samples N`, `--sample-time-ms N` and `--warmup-ms N` override
    /// the measurement loop — CI's bench smoke job passes tiny values so
    /// every benchmark compiles and runs one iteration without spending
    /// real measurement time.
    pub fn from_args() -> (Self, Option<String>) {
        let mut options = BenchOptions::default();
        let mut filter = None;
        let mut save = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--save" => save = args.next(),
                "--samples" => {
                    if let Some(v) = args.next().and_then(|v| v.parse::<usize>().ok()) {
                        options.samples = v.max(1);
                    }
                }
                "--sample-time-ms" => {
                    if let Some(v) = args.next().and_then(|v| v.parse::<u64>().ok()) {
                        options.sample_time = Duration::from_millis(v);
                    }
                }
                "--warmup-ms" => {
                    if let Some(v) = args.next().and_then(|v| v.parse::<u64>().ok()) {
                        options.warmup = Duration::from_millis(v);
                    }
                }
                // Flags cargo/libtest conventionally forward.
                "--bench" | "--test" | "--nocapture" | "--quiet" => {}
                other if other.starts_with("--") => {}
                other => filter = Some(other.to_string()),
            }
        }
        (
            Bencher {
                options,
                filter,
                results: Vec::new(),
                meta: Vec::new(),
            },
            save,
        )
    }

    /// Creates a bencher with explicit options (tests / scripts).
    pub fn with_options(options: BenchOptions) -> Self {
        Bencher {
            options,
            filter: None,
            results: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Records a metadata key/value pair for the JSON snapshot's `meta`
    /// object (last write per key wins).  Used by the snapshot script
    /// to pin *how* the numbers were measured — e.g.
    /// `kernel_backend = "avx512"`.
    pub fn set_meta(&mut self, key: &str, value: &str) {
        if let Some(entry) = self.meta.iter_mut().find(|(k, _)| k == key) {
            entry.1 = value.to_string();
        } else {
            self.meta.push((key.to_string(), value.to_string()));
        }
    }

    /// Measures one benchmark.  Skips (and records nothing) when a
    /// command-line filter is set and `id` does not contain it.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        // Warm-up: pay one-time costs and estimate the per-iteration
        // time.  Always run at least one iteration so the estimate comes
        // from a real measurement even when the warm-up budget is zero
        // (the CI smoke configuration).
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        loop {
            std::hint::black_box(f());
            warmup_iters += 1;
            if warmup_start.elapsed() >= self.options.warmup {
                break;
            }
        }
        let per_iter = warmup_start.elapsed().as_nanos() as f64 / warmup_iters.max(1) as f64;
        let iters =
            ((self.options.sample_time.as_nanos() as f64 / per_iter.max(1.0)).ceil() as u64).max(1);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.options.samples);
        for _ in 0..self.options.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        let result = BenchResult::of_samples(id, samples_ns, iters);
        result.print("");
        self.results.push(result);
    }

    /// Measures two benchmarks **interleaved**: each timed sample of `a`
    /// is immediately followed by one of `b`, so slow drift on the host
    /// (thermal throttling, noisy neighbors on shared vCPUs) hits both
    /// sides equally.  Use this for head-to-head comparisons whose
    /// expected ratio is close to 1 — measured back to back as separate
    /// benchmarks, a few percent of drift between their windows can
    /// dominate the comparison.
    ///
    /// Both use the same per-sample iteration count (scaled from the
    /// slower side) and are recorded as two ordinary results.  Skipped
    /// entirely when a command-line filter matches neither id.
    pub fn bench_pair<RA, RB>(
        &mut self,
        id_a: &str,
        mut fa: impl FnMut() -> RA,
        id_b: &str,
        mut fb: impl FnMut() -> RB,
    ) {
        if let Some(filter) = &self.filter {
            if !id_a.contains(filter.as_str()) && !id_b.contains(filter.as_str()) {
                return;
            }
        }
        let estimate = |f: &mut dyn FnMut()| {
            let start = Instant::now();
            let mut iters: u64 = 0;
            loop {
                f();
                iters += 1;
                if start.elapsed() >= self.options.warmup {
                    break;
                }
            }
            start.elapsed().as_nanos() as f64 / iters.max(1) as f64
        };
        let per_iter_a = estimate(&mut || {
            std::hint::black_box(fa());
        });
        let per_iter_b = estimate(&mut || {
            std::hint::black_box(fb());
        });
        let per_iter = per_iter_a.max(per_iter_b).max(1.0);
        let iters = ((self.options.sample_time.as_nanos() as f64 / per_iter).ceil() as u64).max(1);
        let mut samples_a: Vec<f64> = Vec::with_capacity(self.options.samples);
        let mut samples_b: Vec<f64> = Vec::with_capacity(self.options.samples);
        for _ in 0..self.options.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(fa());
            }
            samples_a.push(start.elapsed().as_nanos() as f64 / iters as f64);
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(fb());
            }
            samples_b.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        for (id, samples) in [(id_a, samples_a), (id_b, samples_b)] {
            let result = BenchResult::of_samples(id, samples, iters);
            result.print(", interleaved");
            self.results.push(result);
        }
    }

    /// Records an externally measured value (e.g. a latency percentile
    /// extracted from serving-engine responses) as a result row, so it
    /// lands in the printed table and the JSON snapshot alongside the
    /// measured benchmarks.  Respects the command-line filter.
    pub fn record_value(&mut self, id: &str, ns: f64) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let result = BenchResult::of_samples(id, vec![ns], 1);
        println!(
            "{:<44} value  {:>12}  (recorded)",
            result.id,
            format_ns(result.median_ns)
        );
        self.results.push(result);
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Looks up a result by exact id.
    pub fn result(&self, id: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.id == id)
    }

    /// Prints the ratio of two benchmarks (`baseline` over `candidate`)
    /// as a speedup line, when both were measured.
    pub fn report_speedup(&self, baseline: &str, candidate: &str) {
        if let (Some(b), Some(c)) = (self.result(baseline), self.result(candidate)) {
            println!(
                "speedup {:<36} {:>6.2}x  ({} -> {})",
                format!("{candidate} vs {baseline}"),
                b.median_ns / c.median_ns,
                format_ns(b.median_ns),
                format_ns(c.median_ns),
            );
        }
    }

    /// Serializes every result (plus snapshot metadata and derived
    /// speedups) to a JSON string.
    pub fn to_json(&self, speedups: &[(&str, &str)]) -> String {
        let mut out = String::from("{\n  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            out.push_str(&format!(
                "{}\"{}\": \"{}\"",
                if i == 0 { "" } else { ", " },
                escape(k),
                escape(v)
            ));
        }
        out.push_str("},\n  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"q1_ns\": {:.1}, \"q3_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
                escape(&r.id),
                r.median_ns,
                r.q1_ns,
                r.q3_ns,
                r.min_ns,
                r.samples,
                r.iters_per_sample,
                if i + 1 == self.results.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"speedups\": [\n");
        let pairs: Vec<(String, f64)> = speedups
            .iter()
            .filter_map(|(base, cand)| {
                let b = self.result(base)?;
                let c = self.result(cand)?;
                Some((format!("{} vs {}", cand, base), b.median_ns / c.median_ns))
            })
            .collect();
        for (i, (name, ratio)) in pairs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"comparison\": \"{}\", \"speedup\": {:.3}}}{}\n",
                escape(name),
                ratio,
                if i + 1 == pairs.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`Bencher::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save_json(&self, path: &str, speedups: &[(&str, &str)]) -> std::io::Result<()> {
        std::fs::write(path, self.to_json(speedups))?;
        println!("saved {} results to {path}", self.results.len());
        Ok(())
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_options() -> BenchOptions {
        BenchOptions {
            samples: 3,
            sample_time: Duration::from_micros(200),
            warmup: Duration::from_micros(200),
        }
    }

    #[test]
    fn bench_targets_are_listed() {
        assert_eq!(BENCH_TARGETS.len(), 4);
        assert!(BENCH_TARGETS.contains(&"micro"));
        assert!(BENCH_TARGETS.contains(&"inference_throughput"));
    }

    #[test]
    fn bencher_measures_and_serializes() {
        let mut b = Bencher::with_options(fast_options());
        b.bench("group/fast", || std::hint::black_box(1 + 1));
        b.bench("group/slow", || {
            let mut acc = 0u64;
            for i in 0..2000 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc
        });
        assert_eq!(b.results().len(), 2);
        assert!(b.result("group/fast").unwrap().median_ns > 0.0);
        assert!(
            b.result("group/slow").unwrap().median_ns >= b.result("group/fast").unwrap().median_ns
        );
        let json = b.to_json(&[("group/slow", "group/fast")]);
        assert!(json.contains("\"id\": \"group/fast\""));
        assert!(json.contains("\"speedups\""));
        assert!(json.contains("group/fast vs group/slow"));
    }

    #[test]
    fn bench_pair_interleaves_and_records_both() {
        let mut b = Bencher::with_options(fast_options());
        b.bench_pair(
            "pair/a",
            || std::hint::black_box(1 + 1),
            "pair/b",
            || std::hint::black_box(2 + 2),
        );
        let a = b.result("pair/a").unwrap();
        let bb = b.result("pair/b").unwrap();
        assert_eq!(a.iters_per_sample, bb.iters_per_sample);
        assert!(a.median_ns > 0.0 && bb.median_ns > 0.0);
        // Identical closures measured interleaved should agree closely.
        let ratio = a.median_ns / bb.median_ns;
        assert!(ratio > 0.2 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn zero_budget_options_still_run_each_benchmark_once() {
        // The CI smoke configuration: no warm-up or sample time, one
        // sample — every benchmark must still execute at least once.
        let mut b = Bencher::with_options(BenchOptions {
            samples: 1,
            sample_time: Duration::ZERO,
            warmup: Duration::ZERO,
        });
        let mut runs = 0u32;
        b.bench("smoke/once", || {
            runs += 1;
        });
        assert!(runs >= 2, "one warmup + one timed iteration, got {runs}");
        let r = b.result("smoke/once").unwrap();
        assert_eq!(r.samples, 1);
        assert_eq!(r.iters_per_sample, 1);
    }

    #[test]
    fn meta_lands_in_json_and_last_write_wins() {
        let mut b = Bencher::with_options(fast_options());
        b.set_meta("kernel_backend", "scalar");
        b.set_meta("kernel_backend", "avx2");
        b.set_meta("popcount_backend", "popcnt");
        let json = b.to_json(&[]);
        assert!(json.contains(
            "\"meta\": {\"kernel_backend\": \"avx2\", \"popcount_backend\": \"popcnt\"}"
        ));
        assert!(!json.contains("\"scalar\""));
        // No meta -> empty object, schema stays stable.
        let empty = Bencher::with_options(fast_options()).to_json(&[]);
        assert!(empty.contains("\"meta\": {}"));
    }

    #[test]
    fn record_value_lands_in_results_and_json() {
        let mut b = Bencher::with_options(fast_options());
        b.record_value("engine/latency_p99", 12_345.0);
        let r = b.result("engine/latency_p99").unwrap();
        assert_eq!(r.median_ns, 12_345.0);
        assert_eq!(r.samples, 1);
        assert!(b.to_json(&[]).contains("engine/latency_p99"));
    }

    #[test]
    fn throughput_is_inverse_of_median() {
        let r = BenchResult::of_samples("x", vec![100.0, 90.0, 110.0], 10);
        assert!((r.throughput_per_sec() - 1e7).abs() < 1.0);
    }

    #[test]
    fn quartiles_bracket_the_median_and_land_in_json() {
        let samples: Vec<f64> = (0..11).rev().map(|i| 100.0 + f64::from(i)).collect();
        let r = BenchResult::of_samples("x", samples, 1);
        assert_eq!(
            (r.min_ns, r.q1_ns, r.median_ns, r.q3_ns),
            (100.0, 102.0, 105.0, 108.0)
        );
        let mut b = Bencher::with_options(fast_options());
        b.record_value("x", 7.0);
        assert!(b.to_json(&[]).contains("\"q1_ns\": 7.0, \"q3_ns\": 7.0"));
    }

    #[test]
    fn format_ns_scales_units() {
        assert!(format_ns(12.0).contains("ns"));
        assert!(format_ns(12_000.0).contains("us"));
        assert!(format_ns(12_000_000.0).contains("ms"));
        assert!(format_ns(2e9).contains(" s"));
    }
}
