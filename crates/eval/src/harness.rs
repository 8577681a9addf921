//! Shared machinery: building workloads, scoring thresholds, and mapping
//! functional results onto the full-size accelerator model.

use nfm_accel::{LayerShape, NetworkShape};
use nfm_core::{
    BnnMemoConfig, OracleMemoConfig, Predictor, PredictorKind, ThresholdExplorer, ThresholdPoint,
};
use nfm_tensor::Vector;
use nfm_workloads::{NetworkId, NetworkSpec, Workload, WorkloadBuilder};

/// Controls how heavy the functional measurements are.
///
/// * [`EvalConfig::fast`] — the default for the CLI and benches: the
///   Table 1 topologies scaled down (~10%), a couple of short sequences,
///   coarse threshold sweeps.  Finishes in seconds.
/// * [`EvalConfig::full`] — the faithful Table 1 topologies and typical
///   sequence lengths.  Slow; intended for release-mode runs.
/// * [`EvalConfig::smoke`] — minimal sizes for unit tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Topology scale factor passed to the workload builder.
    pub scale: f32,
    /// Number of input sequences per workload.
    pub sequences: usize,
    /// Length of each input sequence (None = the spec's typical length).
    pub sequence_length: Option<usize>,
    /// Cap on the number of recurrent layers (None = the spec's depth).
    pub max_layers: Option<usize>,
    /// Number of points in threshold sweeps.
    pub threshold_steps: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl EvalConfig {
    /// Fast preset used by the CLI by default and by the benches.
    pub fn fast() -> Self {
        EvalConfig {
            scale: 0.1,
            sequences: 2,
            sequence_length: Some(30),
            max_layers: Some(4),
            threshold_steps: 7,
            seed: 2019,
        }
    }

    /// Minimal preset for unit tests.
    pub fn smoke() -> Self {
        EvalConfig {
            scale: 0.04,
            sequences: 1,
            sequence_length: Some(10),
            max_layers: Some(2),
            threshold_steps: 3,
            seed: 7,
        }
    }

    /// Faithful Table 1 topologies (slow; run in release mode).
    pub fn full() -> Self {
        EvalConfig {
            scale: 1.0,
            sequences: 4,
            sequence_length: None,
            max_layers: None,
            threshold_steps: 13,
            seed: 2019,
        }
    }
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig::fast()
    }
}

/// One measured operating point of a predictor on a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredPoint {
    /// The threshold `θ` that was applied.
    pub threshold: f32,
    /// Computation reuse achieved, in `[0, 1]`.
    pub reuse: f64,
    /// Accuracy loss versus the exact baseline, in percentage points.
    pub loss: f64,
}

impl From<ThresholdPoint> for ScoredPoint {
    fn from(p: ThresholdPoint) -> Self {
        ScoredPoint {
            threshold: p.threshold,
            reuse: p.reuse,
            loss: p.accuracy_loss,
        }
    }
}

/// A workload instantiated under an [`EvalConfig`], with its exact
/// (non-memoized) baseline outputs already computed.
#[derive(Debug, Clone)]
pub struct NetworkRun {
    spec: NetworkSpec,
    workload: Workload,
    baseline_outputs: Vec<Vec<Vector>>,
}

impl NetworkRun {
    /// Builds the run for one network.
    ///
    /// # Errors
    ///
    /// Returns a human-readable error if workload construction or the
    /// baseline inference fails.
    pub fn build(id: NetworkId, config: &EvalConfig) -> Result<Self, String> {
        let spec = NetworkSpec::of(id);
        let mut builder = WorkloadBuilder::new(id)
            .scale(config.scale)
            .sequences(config.sequences)
            .seed(config.seed);
        if let Some(len) = config.sequence_length {
            builder = builder.sequence_length(len);
        }
        if let Some(cap) = config.max_layers {
            builder = builder.layers(spec.layers.min(cap));
        }
        let workload = builder.build().map_err(|e| format!("{id}: {e}"))?;
        let baseline = PredictorKind::Exact
            .run(workload.model(), workload.sequences())
            .map_err(|e| format!("{id}: baseline run failed: {e}"))?;
        Ok(NetworkRun {
            spec,
            workload,
            baseline_outputs: baseline.outputs,
        })
    }

    /// Builds the runs for all four Table 1 networks.
    ///
    /// # Errors
    ///
    /// Propagates the first construction failure.
    pub fn all(config: &EvalConfig) -> Result<Vec<Self>, String> {
        NetworkId::ALL
            .iter()
            .map(|&id| NetworkRun::build(id, config))
            .collect()
    }

    /// The Table 1 specification.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// The instantiated (possibly scaled-down) workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The exact baseline outputs.
    pub fn baseline_outputs(&self) -> &[Vec<Vector>] {
        &self.baseline_outputs
    }

    /// Scores one run of the BNN predictor at a threshold.
    pub fn score_bnn(&self, config: BnnMemoConfig) -> ScoredPoint {
        self.score(config.threshold, PredictorKind::Bnn(config))
    }

    /// Scores one run of the oracle predictor at a threshold.
    pub fn score_oracle(&self, threshold: f32) -> ScoredPoint {
        let config = OracleMemoConfig::with_threshold(threshold);
        self.score(threshold, PredictorKind::Oracle(config))
    }

    fn score(&self, threshold: f32, predictor: PredictorKind) -> ScoredPoint {
        let outcome = predictor
            .run(self.workload.model(), self.workload.sequences())
            .expect("workload already ran exactly; rerunning it cannot fail");
        ScoredPoint {
            threshold,
            reuse: outcome.reuse_fraction(),
            loss: self
                .workload
                .metric()
                .batch_loss(&self.baseline_outputs, &outcome.outputs),
        }
    }

    /// The oracle threshold sweep grid for this network (Figure 1 uses
    /// 0–0.6 for speech, up to 1.0 for classification).
    pub fn oracle_thresholds(&self, steps: usize) -> Vec<f32> {
        linspace(self.spec.threshold_sweep_max(), steps)
    }

    /// The BNN threshold sweep grid.  The BNN predictor accumulates
    /// relative differences over consecutive reuses, so the useful range
    /// extends a little beyond the oracle's.
    pub fn bnn_thresholds(&self, steps: usize) -> Vec<f32> {
        linspace(self.spec.threshold_sweep_max() * 2.0, steps)
    }

    /// Sweeps the oracle predictor over its threshold grid.
    pub fn sweep_oracle(&self, steps: usize) -> Vec<ScoredPoint> {
        self.oracle_thresholds(steps)
            .into_iter()
            .map(|t| self.score_oracle(t))
            .collect()
    }

    /// Sweeps the BNN predictor over its threshold grid.
    pub fn sweep_bnn(&self, steps: usize, throttle: bool) -> Vec<ScoredPoint> {
        self.bnn_thresholds(steps)
            .into_iter()
            .map(|t| {
                let mut cfg = BnnMemoConfig::with_threshold(t);
                if !throttle {
                    cfg = cfg.without_throttling();
                }
                self.score_bnn(cfg)
            })
            .collect()
    }

    /// Finds the operating point the paper would deploy: the highest
    /// reuse whose accuracy loss stays within `max_loss` percentage
    /// points (Section 3.2.1).  Falls back to the most conservative
    /// threshold if nothing qualifies.
    pub fn operating_point(&self, max_loss: f64, steps: usize, throttle: bool) -> ScoredPoint {
        let explorer = ThresholdExplorer::new(self.bnn_thresholds(steps));
        let points = explorer.sweep(|threshold| {
            let mut cfg = BnnMemoConfig::with_threshold(threshold);
            if !throttle {
                cfg = cfg.without_throttling();
            }
            let scored = self.score_bnn(cfg);
            (scored.reuse, scored.loss)
        });
        match ThresholdExplorer::select(&points, max_loss) {
            Some(p) => p.into(),
            None => points
                .first()
                .copied()
                .map(ScoredPoint::from)
                .unwrap_or(ScoredPoint {
                    threshold: 0.0,
                    reuse: 0.0,
                    loss: 0.0,
                }),
        }
    }

    /// The *full-size* Table 1 topology of this network, used by the
    /// accelerator model regardless of the functional scale factor.
    pub fn full_scale_shape(&self) -> NetworkShape {
        shape_from_spec(&self.spec)
    }

    /// Total timesteps the accelerator model simulates: the spec's
    /// typical sequence length times the configured sequence count.
    pub fn full_scale_timesteps(&self, config: &EvalConfig) -> u64 {
        (self.spec.typical_sequence_length * config.sequences.max(1)) as u64
    }
}

/// Builds the full-size accelerator-facing shape of a Table 1 network.
pub fn shape_from_spec(spec: &NetworkSpec) -> NetworkShape {
    let directions = spec.direction.cells_per_layer();
    let mut layers = Vec::with_capacity(spec.layers);
    let mut input = spec.input_features;
    for _ in 0..spec.layers {
        layers.push(LayerShape {
            neurons: spec.neurons,
            input_size: input,
            hidden_size: spec.neurons,
            gates: spec.cell.gates(),
            directions,
        });
        input = spec.neurons * directions;
    }
    NetworkShape::new(layers)
}

fn linspace(max: f32, steps: usize) -> Vec<f32> {
    let steps = steps.max(2);
    (0..steps)
        .map(|i| max * i as f32 / (steps - 1) as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_config_builds_all_networks() {
        let runs = NetworkRun::all(&EvalConfig::smoke()).unwrap();
        assert_eq!(runs.len(), 4);
        for run in &runs {
            assert_eq!(run.baseline_outputs().len(), 1);
            assert!(!run.baseline_outputs()[0].is_empty());
        }
    }

    #[test]
    fn scoring_produces_sane_numbers() {
        let run = NetworkRun::build(NetworkId::ImdbSentiment, &EvalConfig::smoke()).unwrap();
        let exactish = run.score_bnn(BnnMemoConfig::with_threshold(-1.0));
        assert_eq!(exactish.reuse, 0.0);
        assert_eq!(exactish.loss, 0.0);
        let generous = run.score_bnn(BnnMemoConfig::with_threshold(4.0));
        assert!(generous.reuse > 0.0);
        assert!(generous.loss >= 0.0);
        let oracle = run.score_oracle(0.5);
        assert!(oracle.reuse >= 0.0 && oracle.reuse <= 1.0);
    }

    #[test]
    fn threshold_grids_follow_the_spec() {
        let run = NetworkRun::build(NetworkId::Eesen, &EvalConfig::smoke()).unwrap();
        let grid = run.oracle_thresholds(4);
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0], 0.0);
        assert!((grid[3] - 0.6).abs() < 1e-6);
        let bnn = run.bnn_thresholds(4);
        assert!((bnn[3] - 1.2).abs() < 1e-6);
    }

    #[test]
    fn operating_point_respects_the_loss_budget() {
        let run = NetworkRun::build(NetworkId::ImdbSentiment, &EvalConfig::smoke()).unwrap();
        let p = run.operating_point(50.0, 3, true);
        assert!(p.loss <= 50.0);
        assert!(p.reuse >= 0.0);
    }

    #[test]
    fn full_scale_shape_matches_table1() {
        let run = NetworkRun::build(NetworkId::Eesen, &EvalConfig::smoke()).unwrap();
        let shape = run.full_scale_shape();
        assert_eq!(shape.layers().len(), 10);
        assert_eq!(shape.layers()[0].neurons, 320);
        assert_eq!(shape.layers()[0].directions, 2);
        assert_eq!(shape.layers()[1].input_size, 640);
        assert_eq!(
            shape.neurons_per_step(),
            NetworkSpec::of(NetworkId::Eesen).neuron_evaluations_per_step()
        );
        let steps = run.full_scale_timesteps(&EvalConfig::smoke());
        assert_eq!(steps, 200);
    }
}
