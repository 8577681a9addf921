//! Predictor ablation: BNN predictor vs the input-similarity strawman.
//!
//! Section 1 of the paper argues that predicting output similarity from
//! *input* similarity alone is not accurate, because small input changes
//! multiplied by large weights produce large output changes; the BNN
//! predictor folds the weights in at negligible cost.  This experiment
//! quantifies that argument: for each network it sweeps both predictors
//! and reports the accuracy loss at comparable levels of computation
//! reuse.

use crate::harness::{EvalConfig, NetworkRun};
use crate::report::{ExperimentReport, Series, TableReport};
use nfm_core::config::DEFAULT_EPSILON;
use nfm_core::ReuseStats;
use nfm_rnn::{evaluate_neurons, GateBatch, GateId, NeuronEvaluator, Result as RnnResult};
use nfm_tensor::Vector;
use std::collections::HashMap;

/// The strawman of the paper's Section 1: a gate's cached outputs are
/// reused while its concatenated input `[x_t ; h_{t-1}]` stays within a
/// relative L1 distance `threshold` of the input they were computed
/// from.  The decision is per gate per timestep (every neuron of a gate
/// reads the same input) and never looks at the weights — which is why,
/// at equal reuse, it loses more accuracy than the BNN predictor.
struct InputSimilarityEvaluator {
    threshold: f32,
    /// Per gate: the reference input and the outputs computed under it.
    cache: HashMap<GateId, (Vec<f32>, Vec<Option<f32>>)>,
    stats: ReuseStats,
}

impl InputSimilarityEvaluator {
    fn new(threshold: f32) -> Self {
        InputSimilarityEvaluator {
            threshold,
            cache: HashMap::new(),
            stats: ReuseStats::new(),
        }
    }
}

impl NeuronEvaluator for InputSimilarityEvaluator {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        let (neurons, wh) = (call.gate.neurons(), call.gate.wh());
        evaluate_neurons(call, out, |id, x, h_prev, fwd| {
            let current = [x, h_prev].concat();
            let (inputs, outputs) = self
                .cache
                .entry(id.gate_id)
                .or_insert_with(|| (current.clone(), vec![None; neurons]));
            let (mut diff, mut norm) = (0.0f32, 0.0f32);
            for (c, n) in inputs.iter().zip(&current) {
                diff += (c - n).abs();
                norm += c.abs();
            }
            if diff / norm.max(DEFAULT_EPSILON) <= self.threshold {
                if let Some(cached) = outputs[id.neuron] {
                    self.stats.record_reused();
                    return Ok(cached);
                }
            }
            let y_t = fwd + wh.row_dot(id.neuron, h_prev)?;
            self.stats.record_computed();
            // Refreshing the reference input makes every output cached
            // under the old one stale.
            if *inputs != current {
                *inputs = current;
                outputs.fill(None);
            }
            outputs[id.neuron] = Some(y_t);
            Ok(y_t)
        })
    }

    fn begin_lane_sequence(&mut self, _lane: usize) {
        self.cache.clear();
    }
}

/// Runs the input-similarity predictor over a workload at one threshold,
/// returning `(reuse, loss)`.
fn score_input_similarity(run: &NetworkRun, threshold: f32) -> (f64, f64) {
    let mut evaluator = InputSimilarityEvaluator::new(threshold);
    let mut outputs: Vec<Vec<Vector>> = Vec::new();
    for seq in run.workload().sequences() {
        outputs.push(
            run.workload()
                .network()
                .run(seq, &mut evaluator)
                .expect("input-similarity run"),
        );
    }
    let loss = run
        .workload()
        .metric()
        .batch_loss(run.baseline_outputs(), &outputs);
    (evaluator.stats.reuse_fraction(), loss)
}

/// Regenerates the predictor ablation.
pub fn run(config: &EvalConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new("Ablation: BNN predictor vs input-similarity predictor");
    let runs = match NetworkRun::all(config) {
        Ok(r) => r,
        Err(e) => {
            report.heading = format!("Ablation failed: {e}");
            return report;
        }
    };
    let mut table = TableReport::new(
        "Accuracy loss at the operating point closest to 30% reuse",
        vec![
            "Network",
            "BNN reuse (%)",
            "BNN loss",
            "Input-sim reuse (%)",
            "Input-sim loss",
        ],
    );
    for run in &runs {
        let spec = run.spec();

        // Sweep both predictors.
        let bnn_points = run.sweep_bnn(config.threshold_steps, true);
        let mut input_series = Series::new(
            format!("{} / input-similarity predictor", spec.id),
            "Computation Reuse (%)",
            spec.accuracy.loss_label(),
        );
        let mut input_points = Vec::new();
        for threshold in run.oracle_thresholds(config.threshold_steps) {
            let (reuse, loss) = score_input_similarity(run, threshold);
            input_points.push((threshold, reuse, loss));
            input_series.push(reuse * 100.0, loss);
        }
        let mut bnn_series = Series::new(
            format!("{} / BNN predictor", spec.id),
            "Computation Reuse (%)",
            spec.accuracy.loss_label(),
        );
        for p in &bnn_points {
            bnn_series.push(p.reuse * 100.0, p.loss);
        }
        report.series.push(bnn_series);
        report.series.push(input_series);

        // Compare the points closest to 30% reuse (the paper's average
        // operating region).
        let target = 0.30;
        let closest_bnn = bnn_points
            .iter()
            .min_by(|a, b| {
                (a.reuse - target)
                    .abs()
                    .partial_cmp(&(b.reuse - target).abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .copied();
        let closest_input = input_points
            .iter()
            .min_by(|a, b| {
                (a.1 - target)
                    .abs()
                    .partial_cmp(&(b.1 - target).abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .copied();
        if let (Some(b), Some(i)) = (closest_bnn, closest_input) {
            table.push_row(vec![
                spec.id.to_string(),
                format!("{:.1}", b.reuse * 100.0),
                format!("{:.2}", b.loss),
                format!("{:.1}", i.1 * 100.0),
                format!("{:.2}", i.2),
            ]);
        }
    }
    table.push_note(
        "The paper's argument (Section 1) is that input similarity alone is unreliable because \
         small input changes multiplied by large trained weights cause large output changes. \
         On this reproduction's synthetic Xavier-initialised weights the weight magnitudes are \
         homogeneous, so the effect is muted — see EXPERIMENTS.md for the discussion.",
    );
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_rnn::ExactEvaluator;

    #[test]
    fn zero_threshold_reuses_nothing_and_equals_exact() {
        let run = &NetworkRun::all(&EvalConfig::smoke()).unwrap()[0];
        let (net, seq) = (run.workload().network(), &run.workload().sequences()[0]);
        let mut strawman = InputSimilarityEvaluator::new(0.0);
        let got = net.run(seq, &mut strawman).unwrap();
        assert_eq!(got, net.run(seq, &mut ExactEvaluator::new()).unwrap());
        assert_eq!(strawman.stats.reuses(), 0);
        let steps = (seq.len() * net.neuron_evaluations_per_step()) as u64;
        assert_eq!(strawman.stats.evaluations(), steps);
        // And it does reuse once the threshold allows it.
        let mut loose = InputSimilarityEvaluator::new(5.0);
        net.run(seq, &mut loose).unwrap();
        assert!(loose.stats.reuses() > 0);
    }

    #[test]
    fn ablation_compares_both_predictors_on_every_network() {
        let r = run(&EvalConfig::smoke());
        assert_eq!(r.series.len(), 8);
        assert_eq!(r.tables[0].rows.len(), 4);
        for row in &r.tables[0].rows {
            for cell in &row[1..] {
                let v: f64 = cell.parse().unwrap();
                assert!(v >= 0.0);
            }
        }
    }
}
