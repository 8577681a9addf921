//! The paper's headline averages (abstract / Section 5).

use crate::experiments::hw::{mean, simulate};
use crate::harness::EvalConfig;
use crate::report::{ExperimentReport, TableReport};

/// Reproduces the headline claim: at a 1% accuracy-loss budget the
/// BNN-guided memoization scheme avoids >24.2% of computations, saves
/// 18.5% energy and speeds execution up by 1.35x on average.
pub fn run(config: &EvalConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new("Headline: averages at 1% accuracy loss");
    let results = match simulate(config, &[1.0]) {
        Ok(r) => r,
        Err(e) => {
            report.heading = format!("Headline failed: {e}");
            return report;
        }
    };
    let reuse: Vec<f64> = results
        .iter()
        .map(|nh| nh.points[0].operating_point.reuse * 100.0)
        .collect();
    let savings: Vec<f64> = results
        .iter()
        .map(|nh| nh.points[0].comparison.energy_savings() * 100.0)
        .collect();
    let speedup: Vec<f64> = results
        .iter()
        .map(|nh| nh.points[0].comparison.speedup())
        .collect();

    let mut table = TableReport::new(
        "Headline comparison",
        vec!["Metric", "Paper", "This reproduction"],
    );
    table.push_row(vec![
        "Computation reuse (%)".into(),
        "24.2".into(),
        format!("{:.1}", mean(&reuse)),
    ]);
    table.push_row(vec![
        "Energy savings (%)".into(),
        "18.5".into(),
        format!("{:.1}", mean(&savings)),
    ]);
    table.push_row(vec![
        "Speedup (x)".into(),
        "1.35".into(),
        format!("{:.2}", mean(&speedup)),
    ]);
    table.push_note(
        "Reproduction numbers use synthetic stand-in workloads and an analytical energy model; \
         the comparison targets the shape of the result (reuse > savings, speedup > 1, FMU \
         overhead small), not the absolute values.",
    );
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_produces_the_three_metrics() {
        let r = run(&EvalConfig::smoke());
        let table = &r.tables[0];
        assert_eq!(table.rows.len(), 3);
        let reuse: f64 = table.rows[0][2].parse().unwrap();
        let savings: f64 = table.rows[1][2].parse().unwrap();
        let speedup: f64 = table.rows[2][2].parse().unwrap();
        assert!((0.0..=100.0).contains(&reuse));
        assert!(savings <= reuse + 1e-6);
        assert!(speedup > 0.5);
    }
}
