//! Pins the printed output of every `nfm-eval` experiment, byte for byte.
//!
//! Each experiment in [`EXPERIMENTS`] runs at [`EvalConfig::smoke`], and
//! `frontier` (the adaptive controller's end-to-end output) also runs at
//! [`EvalConfig::fast`], the CLI's default.  Every report is compared with
//! its committed file under `tests/golden/`.  `energy` is left out: its
//! software columns are wall-clock measurements.  The one tier-dependent
//! word, the kernel tier `reference` names, is written as `<tier>`, so
//! the files hold on every kernel tier.
//!
//! A refactor must leave every file as it is.  The ignored test below
//! rewrites them:
//!
//! ```sh
//! cargo test --test experiment_golden -- --ignored
//! ```
//!
//! Run it only in a change that means to move a reproduction number, and
//! say in CHANGES.md which numbers moved and why.

use nfm::eval::{run_experiment, EvalConfig, EXPERIMENTS};
use std::path::PathBuf;

/// `(golden file, experiment, configuration)` for every pinned report.
fn cases() -> Vec<(String, &'static str, EvalConfig)> {
    EXPERIMENTS
        .into_iter()
        .filter(|&name| name != "energy")
        .map(|name| (format!("{name}.smoke.txt"), name, EvalConfig::smoke()))
        .chain([("frontier.fast.txt".into(), "frontier", EvalConfig::fast())])
        .collect()
}

/// The report of `name` at `config`, with the active kernel tier's name
/// replaced by `<tier>`.
fn render(name: &str, config: &EvalConfig) -> String {
    let tier = format!("measured on {}", nfm::tensor::backend::active());
    run_experiment(name, config)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .replace(&tier, "measured on <tier>")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn every_experiment_prints_its_golden_output() {
    let mut differing = Vec::new();
    for (file, name, config) in cases() {
        let path = golden_dir().join(&file);
        let want =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let got = render(name, &config);
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            let (g, w) = (got.lines().nth(line), want.lines().nth(line));
            differing.push(format!(
                "{file} line {}:\n  got  {g:?}\n  want {w:?}",
                line + 1
            ));
        }
    }
    assert!(
        differing.is_empty(),
        "experiment output moved:\n{}",
        differing.join("\n")
    );
}

#[test]
#[ignore = "rewrites tests/golden/; only for a change that moves a reproduction number"]
fn regenerate_golden_outputs() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    for (file, name, config) in cases() {
        std::fs::write(golden_dir().join(file), render(name, &config)).unwrap();
    }
}
