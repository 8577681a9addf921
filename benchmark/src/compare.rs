//! Running the whole set, one process per workload, and the A/A check:
//! two interleaved sets of runs of the same build must agree, median
//! against median, within each end-to-end metric's own bound.

use crate::spec::{self, Better};
use crate::stats::median;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

type Metrics = BTreeMap<String, f64>;

/// Runs one workload in a child process of this same binary, echoing its
/// output.  Returns whether its outputs verified, and its metric lines.
fn run_child(passthrough: &[String], workload: &str) -> Result<(bool, Metrics), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args(passthrough)
        .args(["--workload", workload])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    match output.status.code() {
        Some(0) | Some(1) => {}
        other => return Err(format!("{workload}: run ended with {other:?}")),
    }
    let mut metrics = Metrics::new();
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        if let (Some(name), Some(value)) = (words.next(), words.next()) {
            if let Ok(value) = value.parse::<f64>() {
                metrics.insert(name.to_string(), value);
            }
        }
    }
    Ok((output.status.success(), metrics))
}

/// By how much `second` is worse than `first`, as a share of `first`.
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// `argv` without the flags this module consumes.
fn passthrough(argv: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--aa" => {}
            "--workload" => {
                it.next();
            }
            _ => out.push(arg.clone()),
        }
    }
    out
}

/// Runs of each workload in each of the two A/A sets.  One run can fall
/// into a noisy stretch of the host; the median of three rarely does.
const AA_RUNS_PER_SET: usize = 3;

/// Runs every workload (or only `only`) once; for `--aa`, in two sets of
/// [`AA_RUNS_PER_SET`] runs each, compared by their medians.
pub fn run_sets(argv: &[String], only: Option<&str>, aa: bool) -> Result<bool, String> {
    let passthrough = passthrough(argv);
    let mut names: Vec<&str> = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| only.is_none_or(|o| o == *name))
        .collect();
    let mut all_correct = true;
    // sets[s][workload][metric] -> one value per run.
    let mut sets: [BTreeMap<&str, BTreeMap<String, Vec<f64>>>; 2] = Default::default();
    let passes = if aa { 2 * AA_RUNS_PER_SET } else { 1 };
    for pass in 0..passes {
        for &name in &names {
            let (correct, metrics) = run_child(&passthrough, name)?;
            all_correct &= correct;
            let runs = sets[pass % 2].entry(name).or_default();
            for (metric, value) in metrics {
                runs.entry(metric).or_default().push(value);
            }
        }
        // Passes alternate between the two sets and run in opposite
        // orders, so a drift over the session favours neither set.
        names.reverse();
    }
    if !aa {
        return Ok(all_correct);
    }

    let traced = passthrough
        .windows(2)
        .any(|w| w[0] == "--trace" && w[1] == "1");
    if traced {
        println!("# --aa: traced runs report per-layer metrics, which have no bounds");
        return Ok(all_correct);
    }
    println!("# A/A: two sets of {AA_RUNS_PER_SET} runs of the same build, medians");
    println!(
        "# {:<14} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let [first_set, second_set] = &mut sets;
    let mut within = true;
    for workload in spec::WORKLOADS.iter().map(|w| w.name) {
        let (Some(a), Some(b)) = (first_set.get_mut(workload), second_set.get_mut(workload)) else {
            continue;
        };
        for metric in &spec::END_TO_END {
            let (Some(first), Some(second)) = (a.get_mut(metric.name), b.get_mut(metric.name))
            else {
                return Err(format!("{workload}: {} missing from a run", metric.name));
            };
            let (first, second) = (median(first), median(second));
            // Either order may be the worse one: the two sets are peers.
            let worse = worsening(metric.better, first, second).max(worsening(
                metric.better,
                second,
                first,
            ));
            let bound = metric.bound.expect("end-to-end metrics are gated");
            let ok = worse <= bound;
            within &= ok;
            println!(
                "# {workload:<14} {:<20} {first:>14.4} {second:>14.4} {:>8.2}% {:>6.1}%{}",
                metric.name,
                100.0 * worse,
                100.0 * bound,
                if ok { "" } else { "  OUTSIDE BOUND" }
            );
        }
    }
    // A smoke run is too short for its numbers to mean anything.
    let quick = passthrough.iter().any(|arg| arg == "--quick");
    Ok(all_correct && (within || quick))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 95.0) - 0.05).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 105.0) < 0.0);
    }

    #[test]
    fn passthrough_drops_only_the_set_flags() {
        let argv: Vec<String> = [
            "--aa",
            "--seed",
            "29",
            "--workload",
            "serve_open",
            "--quick",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(passthrough(&argv), ["--seed", "29", "--quick"]);
    }
}
