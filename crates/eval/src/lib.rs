//! # nfm-eval
//!
//! The evaluation harness: one experiment per table and figure of the
//! paper's evaluation (Sections 3.1, 4 and 5), each regenerating the
//! corresponding rows/series from the systems built in this workspace.
//!
//! | Experiment | Paper artefact | Module |
//! |------------|----------------|--------|
//! | `table1`   | Table 1 — workload networks | [`experiments::table1`] |
//! | `table2`   | Table 2 — accelerator configuration | [`experiments::table2`] |
//! | `fig1`     | Figure 1 — oracle threshold sweep | [`experiments::fig01`] |
//! | `fig5`     | Figure 5 — consecutive-output similarity CDF | [`experiments::fig05`] |
//! | `fig7`     | Figure 7 — BNN vs FP output correlation (EESEN) | [`experiments::fig07`] |
//! | `fig8`     | Figure 8 — per-neuron correlation histogram | [`experiments::fig08`] |
//! | `fig11`    | Figure 11 — throttling ablation | [`experiments::fig11`] |
//! | `fig16`    | Figure 16 — oracle vs BNN predictor | [`experiments::fig16`] |
//! | `fig17`    | Figure 17 — energy savings & reuse | [`experiments::fig17`] |
//! | `fig18`    | Figure 18 — energy breakdown | [`experiments::fig18`] |
//! | `fig19`    | Figure 19 — speedup | [`experiments::fig19`] |
//! | `headline` | Abstract / Section 5 averages | [`experiments::headline`] |
//! | `ablation` | BNN vs input-similarity predictor (Section 1 argument) | [`experiments::ablation`] |
//! | `sensitivity` | FMU-latency / DPU-width design sweep | [`experiments::sensitivity`] |
//! | `energy`   | E-PUR+BM energy model vs measured wall-clock speedup | [`experiments::energy`] |
//! | `frontier` | Adaptive θ control vs static sweep under drift (Section 3.2.1 extension) | [`experiments::frontier`] |
//! | `reference` | Error of the exact f32 path against an independent f64 reference | [`mod@reference`] |
//!
//! Run any of them with `cargo run -p nfm-eval -- <experiment> [--full]`.
//!
//! The functional (accuracy/reuse) measurements run on scaled-down
//! instances of the Table 1 networks by default ([`EvalConfig::fast`]);
//! the accelerator timing/energy results always use the *full-size*
//! Table 1 topologies, with the reuse fraction measured functionally —
//! the same two-stage methodology as the paper (TensorFlow for accuracy,
//! the cycle-level simulator for time/energy).

pub mod experiments;
pub mod harness;
pub mod reference;
pub mod report;

pub use harness::{EvalConfig, NetworkRun, ScoredPoint};
pub use report::{Series, TableReport};

/// Names of every runnable experiment, as accepted by the `nfm-eval`
/// binary and produced by [`run_experiment`].
pub const EXPERIMENTS: [&str; 17] = [
    "table1",
    "table2",
    "fig1",
    "fig5",
    "fig7",
    "fig8",
    "fig11",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "headline",
    "ablation",
    "sensitivity",
    "energy",
    "frontier",
    "reference",
];

/// Runs an experiment by name and returns its printable report.
///
/// # Errors
///
/// Returns an error string for unknown experiment names or if the
/// underlying workload construction fails.
pub fn run_experiment(name: &str, config: &EvalConfig) -> Result<String, String> {
    match name {
        "table1" => Ok(experiments::table1::run(config).to_string()),
        "table2" => Ok(experiments::table2::run().to_string()),
        "fig1" => Ok(experiments::fig01::run(config).to_string()),
        "fig5" => Ok(experiments::fig05::run(config).to_string()),
        "fig7" => Ok(experiments::fig07::run(config).to_string()),
        "fig8" => Ok(experiments::fig08::run(config).to_string()),
        "fig11" => Ok(experiments::fig11::run(config).to_string()),
        "fig16" => Ok(experiments::fig16::run(config).to_string()),
        "fig17" => Ok(experiments::fig17::run(config).to_string()),
        "fig18" => Ok(experiments::fig18::run(config).to_string()),
        "fig19" => Ok(experiments::fig19::run(config).to_string()),
        "headline" => Ok(experiments::headline::run(config).to_string()),
        "ablation" => Ok(experiments::ablation::run(config).to_string()),
        "sensitivity" => Ok(experiments::sensitivity::run(config).to_string()),
        "energy" => Ok(experiments::energy::run(config).to_string()),
        "frontier" => Ok(experiments::frontier::run(config).to_string()),
        "reference" => Ok(reference::run(config).to_string()),
        other => Err(format!(
            "unknown experiment '{other}'; expected one of {EXPERIMENTS:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_rejected() {
        let err = run_experiment("fig99", &EvalConfig::smoke()).unwrap_err();
        assert!(err.contains("unknown experiment"));
    }

    #[test]
    fn experiment_list_matches_dispatch() {
        // Every listed experiment must dispatch successfully on the
        // smoke-test configuration (tiny models, tiny sweeps).
        let config = EvalConfig::smoke();
        for name in EXPERIMENTS {
            let out = run_experiment(name, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!out.is_empty(), "{name} produced empty output");
        }
    }
}
