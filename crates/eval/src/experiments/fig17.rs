//! Figure 17: energy savings and computation reuse of E-PUR+BM.

use crate::experiments::hw::{mean, simulate};
use crate::harness::EvalConfig;
use crate::report::{ExperimentReport, TableReport};

/// Regenerates Figure 17: for accuracy-loss budgets of 1%, 2% and 3%, the
/// energy savings and computation reuse of E-PUR+BM relative to the
/// baseline accelerator, per network and on average.
pub fn run(config: &EvalConfig) -> ExperimentReport {
    let mut report =
        ExperimentReport::new("Figure 17: energy savings and computation reuse of E-PUR+BM");
    let budgets = [1.0, 2.0, 3.0];
    let results = match simulate(config, &budgets) {
        Ok(r) => r,
        Err(e) => {
            report.heading = format!("Figure 17 failed: {e}");
            return report;
        }
    };
    for (i, &budget) in budgets.iter().enumerate() {
        let mut table = TableReport::new(
            format!("Accuracy loss budget {budget:.0}%"),
            vec!["Network", "Computation Reuse (%)", "Energy Savings (%)"],
        );
        let mut reuses = Vec::new();
        let mut savings = Vec::new();
        for nh in &results {
            let point = &nh.points[i];
            let reuse = point.operating_point.reuse * 100.0;
            let saving = point.comparison.energy_savings() * 100.0;
            reuses.push(reuse);
            savings.push(saving);
            table.push_row(vec![
                nh.run.spec().id.to_string(),
                format!("{reuse:.1}"),
                format!("{saving:.1}"),
            ]);
        }
        table.push_row(vec![
            "Average".into(),
            format!("{:.1}", mean(&reuses)),
            format!("{:.1}", mean(&savings)),
        ]);
        if (budget - 1.0).abs() < f64::EPSILON {
            table.push_note("Paper averages at 1% loss: 24.2% reuse, 18.5% energy savings.");
        }
        if (budget - 2.0).abs() < f64::EPSILON {
            table.push_note("Paper averages at 2% loss: 31% reuse, 25.5% energy savings.");
        }
        report.tables.push(table);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure17_has_three_budgets_with_averages() {
        let r = run(&EvalConfig::smoke());
        assert_eq!(r.tables.len(), 3);
        for table in &r.tables {
            assert_eq!(table.rows.len(), 5);
            assert_eq!(table.rows[4][0], "Average");
            for row in &table.rows {
                let reuse: f64 = row[1].parse().unwrap();
                let savings: f64 = row[2].parse().unwrap();
                assert!((0.0..=100.0).contains(&reuse));
                assert!(savings <= reuse + 1e-6, "savings cannot exceed reuse");
            }
        }
    }
}
