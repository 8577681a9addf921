//! What one run produces: metrics by name, the verdict, and the files
//! written under `benchmark/out/`.

use crate::spec::{self, Metric};
use crate::stats::Summary;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Tallies attempted operations and the ones that failed.  A reject,
/// expiry, transport error, missing response or wrong output is a
/// failure.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub examples: Vec<String>,
}

impl Verdict {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(what());
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(what);
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    /// Spread of the samples the value is the median of, when it is one.
    pub summary: Option<Summary>,
    /// `false` when fewer than ten samples lie beyond a percentile.
    pub resolved: bool,
}

impl Value {
    pub fn of(value: f64) -> Value {
        Value {
            value,
            summary: None,
            resolved: true,
        }
    }

    pub fn median(summary: Summary) -> Value {
        Value {
            value: summary.median,
            summary: Some(summary),
            resolved: true,
        }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub verdict: Verdict,
    pub end_to_end: BTreeMap<&'static str, Value>,
    /// Present on traced runs only.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Operation, thread and connection counts of this run.
    pub facts: Vec<(&'static str, String)>,
    pub trace: Option<Trace>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            verdict: Verdict::default(),
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            facts: Vec::new(),
            trace: None,
        }
    }

    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.verdict.failed == 0 && self.verdict.attempted > 0
    }
}

/// Facts about the host and build, recorded in every output file.
pub fn host_facts() -> Vec<(&'static str, String)> {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_else(|_| "unknown".into()),
        ),
        (
            "kernel_backend",
            nfm_tensor::backend::active().name().to_string(),
        ),
        (
            "popcount_backend",
            nfm_bnn::popcount::active().name().to_string(),
        ),
        // run.sh exports both; a bare binary run records "unknown".
        ("rustc", env("NFM_BENCH_RUSTC")),
        ("git_commit", env("NFM_BENCH_COMMIT")),
    ]
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1000.0)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The metrics a run of this kind must report, in spec order.
fn expected_metrics(traced: bool) -> &'static [Metric] {
    if traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    }
}

/// `name -> value` of the reported metrics, checked against the spec:
/// every metric present, every value a finite number.
fn reported(report: &Report, traced: bool) -> Result<Vec<(&'static Metric, Value)>, String> {
    expected_metrics(traced)
        .iter()
        .map(|metric| {
            let value = if traced {
                report.per_layer.get(metric.name).copied().map(Value::of)
            } else {
                report.end_to_end.get(metric.name).copied()
            }
            .ok_or_else(|| {
                format!(
                    "{}: metric {} was not measured",
                    report.workload, metric.name
                )
            })?;
            if !value.value.is_finite() {
                return Err(format!(
                    "{}: metric {} is {}",
                    report.workload, metric.name, value.value
                ));
            }
            Ok((metric, value))
        })
        .collect()
}

/// Prints every metric as `name value unit`, writes the output files, and
/// ends with the one-line JSON result.
pub fn emit(
    report: &Report,
    traced: bool,
    seed: u64,
    seconds: f64,
    quick: bool,
    out_dir: &Path,
) -> Result<(), String> {
    let metrics = reported(report, traced)?;
    for example in &report.verdict.examples {
        eprintln!("{}: FAILED: {example}", report.workload);
    }
    for (metric, value) in &metrics {
        let note = if value.resolved {
            ""
        } else {
            "  # fewer than 10 samples beyond"
        };
        println!("{} {} {}{note}", metric.name, value.value, metric.unit);
    }

    let mut file = String::from("{\n");
    let _ = writeln!(file, "  \"workload\": \"{}\",", report.workload);
    file.push_str("  \"meta\": {\n");
    let _ = writeln!(file, "    \"seed\": {seed},");
    let _ = writeln!(file, "    \"seconds\": {seconds},");
    let _ = writeln!(file, "    \"traced\": {traced},");
    let _ = writeln!(file, "    \"quick\": {quick},");
    let facts: Vec<String> = host_facts()
        .iter()
        .chain(report.facts.iter())
        .map(|(k, v)| format!("    \"{}\": \"{}\"", escape(k), escape(v)))
        .collect();
    file.push_str(&facts.join(",\n"));
    file.push_str("\n  },\n");
    let _ = writeln!(
        file,
        "  \"result\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}}},",
        report.correct(),
        report.verdict.attempted,
        report.verdict.failed
    );
    file.push_str("  \"metrics\": {\n");
    let rows: Vec<String> = metrics
        .iter()
        .map(|(metric, value)| {
            let mut row = format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"resolved\": {}",
                metric.name, value.value, metric.unit, value.resolved
            );
            if let Some(s) = value.summary {
                let _ = write!(row, ", \"n\": {}, \"q1\": {}, \"q3\": {}", s.n, s.q1, s.q3);
            }
            row.push('}');
            row
        })
        .collect();
    file.push_str(&rows.join(",\n"));
    file.push_str("\n  }\n}\n");

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let stem = if traced {
        format!("{}.traced", report.workload)
    } else {
        report.workload.to_string()
    };
    let path = out_dir.join(format!("{stem}.json"));
    std::fs::write(&path, file).map_err(|e| format!("write {}: {e}", path.display()))?;
    if let Some(trace) = &report.trace {
        let path = out_dir.join(format!("{}.trace.jsonl", report.workload));
        std::fs::write(&path, trace.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let fields: Vec<String> = metrics
        .iter()
        .map(|(metric, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, value.value, metric.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.verdict.attempted,
        report.verdict.failed,
        fields.join(", ")
    );
    Ok(())
}
