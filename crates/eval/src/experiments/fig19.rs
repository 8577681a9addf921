//! Figure 19: speedup of E-PUR+BM over the baseline.

use crate::experiments::hw::{mean, simulate};
use crate::harness::EvalConfig;
use crate::report::{ExperimentReport, TableReport};

/// Regenerates Figure 19: the speedup of E-PUR+BM over E-PUR for
/// accuracy-loss budgets of 1%, 2% and 3%, per network and on average.
pub fn run(config: &EvalConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new("Figure 19: speedup of E-PUR+BM over E-PUR");
    let budgets = [1.0, 2.0, 3.0];
    let results = match simulate(config, &budgets) {
        Ok(r) => r,
        Err(e) => {
            report.heading = format!("Figure 19 failed: {e}");
            return report;
        }
    };
    let mut table = TableReport::new(
        "Speedup (x)",
        vec!["Network", "1% loss", "2% loss", "3% loss"],
    );
    let mut per_budget: Vec<Vec<f64>> = vec![Vec::new(); budgets.len()];
    for nh in &results {
        let mut row = vec![nh.run.spec().id.to_string()];
        for (i, point) in nh.points.iter().enumerate() {
            let speedup = point.comparison.speedup();
            per_budget[i].push(speedup);
            row.push(format!("{speedup:.2}"));
        }
        table.push_row(row);
    }
    table.push_row(vec![
        "Average".into(),
        format!("{:.2}", mean(&per_budget[0])),
        format!("{:.2}", mean(&per_budget[1])),
        format!("{:.2}", mean(&per_budget[2])),
    ]);
    table.push_note("Paper averages: 1.35x at 1% loss, 1.5x at 2%, 1.67x at 3%.");
    table.push_note(
        "Workloads with low reuse (e.g. DeepSpeech at 1%) show smaller speedups because every \
         neuron still pays the 5-cycle FMU latency.",
    );
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure19_speedups_are_positive_and_grow_with_the_budget() {
        let r = run(&EvalConfig::smoke());
        let table = &r.tables[0];
        assert_eq!(table.rows.len(), 5);
        let avg: Vec<f64> = table.rows[4][1..]
            .iter()
            .map(|c| c.parse().unwrap())
            .collect();
        assert!(avg.iter().all(|&s| s > 0.5));
        // A larger accuracy budget can only allow more reuse, hence at
        // least as much speedup.
        assert!(avg[2] + 1e-9 >= avg[0]);
    }
}
