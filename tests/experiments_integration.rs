//! Integration tests for the evaluation harness: every experiment of the
//! per-figure/per-table index in DESIGN.md produces a well-formed report.

use nfm::eval::{run_experiment, EvalConfig, EXPERIMENTS};

/// Every experiment renders, and — `energy` aside, whose software column
/// is a wall-clock measurement — renders the same text every time.
#[test]
fn every_experiment_runs_on_the_smoke_configuration() {
    let config = EvalConfig::smoke();
    for name in EXPERIMENTS {
        let report = run_experiment(name, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            report.contains("===="),
            "{name}: report should carry a heading"
        );
        assert!(report.len() > 80, "{name}: report looks too short");
        if name != "energy" {
            let again = run_experiment(name, &config).unwrap();
            assert!(report == again, "{name}: a second rendering differs");
        }
    }
}

#[test]
fn table1_mentions_every_network_and_its_paper_reuse() {
    let report = run_experiment("table1", &EvalConfig::smoke()).unwrap();
    for needle in [
        "IMDB Sentiment",
        "DeepSpeech2",
        "EESEN",
        "MNMT",
        "36.2%",
        "16.4%",
        "30.5%",
        "19.0%",
    ] {
        assert!(report.contains(needle), "missing {needle}");
    }
}

#[test]
fn table2_matches_the_paper_configuration() {
    let report = run_experiment("table2", &EvalConfig::smoke()).unwrap();
    for needle in ["28 nm", "500 MHz", "2048 bits", "5 cycles", "16 operations"] {
        assert!(report.contains(needle), "missing {needle}");
    }
}

#[test]
fn figure_reports_contain_their_curves() {
    let config = EvalConfig::smoke();
    let fig1 = run_experiment("fig1", &config).unwrap();
    assert!(fig1.contains("Computation Reuse (%)"));
    let fig16 = run_experiment("fig16", &config).unwrap();
    assert!(fig16.contains("Oracle predictor"));
    assert!(fig16.contains("Binary Network predictor"));
    let fig18 = run_experiment("fig18", &config).unwrap();
    assert!(fig18.contains("E-PUR+BM"));
    assert!(fig18.contains("LPDDR4"));
    let fig19 = run_experiment("fig19", &config).unwrap();
    assert!(fig19.contains("Speedup"));
}

#[test]
fn headline_report_compares_against_paper_numbers() {
    let report = run_experiment("headline", &EvalConfig::smoke()).unwrap();
    assert!(report.contains("24.2"));
    assert!(report.contains("18.5"));
    assert!(report.contains("1.35"));
}

#[test]
fn unknown_experiments_are_rejected_with_the_valid_list() {
    let err = run_experiment("figure-42", &EvalConfig::smoke()).unwrap_err();
    assert!(err.contains("fig16"));
}
