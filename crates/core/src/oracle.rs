//! The Oracle predictor (Figure 6): an upper bound on achievable reuse.

use crate::config::OracleMemoConfig;
use crate::lanes::MemoLanes;
use crate::predictor::decide_lane;
use crate::stats::ReuseStats;
use crate::table::MemoTable;
use nfm_rnn::{ExactEvaluator, GateBatch, NeuronEvaluator, Result as RnnResult};
use nfm_tensor::LineBuf;

/// A [`NeuronEvaluator`] implementing the oracle memoization scheme of
/// Figure 6: the true output `y_t` is always known, the cached value
/// `y_m` is reused whenever `|y_t - y_m| / |y_t| <= θ`.
///
/// The oracle still *computes* every output (it must, to make its
/// decision), so it cannot save work in a real system; its purpose is the
/// limit study of Figures 1 and 16.  When a reuse is possible the oracle
/// returns the *cached* value, so the accuracy impact of oracle-guided
/// memoization is faithfully propagated through the network.
///
/// It is the BNN predictor's decision with the exact output standing in
/// for the BNN output and no throttling: the gate entry computes all
/// lanes' true outputs with the exact evaluator's kernel into an owned
/// buffer, then runs the same per-lane decide loop as
/// [`BnnMemoEvaluator`](crate::BnnMemoEvaluator) with `yb_t = y_t`.
/// Every slot then holds `yb_m == y_m`, so comparing against `yb_m` is
/// Figure 6's compare against `y_m`.  Every lane owns a separate
/// [`MemoTable`] and may carry its own `θ` (see [`MemoLanes`]).  The rule
/// is checked against the independent memoized reference
/// (`nfm_eval::reference::MemoReference`, `tests/memo_reference.rs`)
/// after every gate call.
#[derive(Debug, Clone)]
pub struct OracleEvaluator {
    config: OracleMemoConfig,
    stats: ReuseStats,
    // Per-lane state of the gate entry: table, statistics (so a serving
    // engine can attribute reuse to the request occupying each lane;
    // `stats` still aggregates everything) and θ override.
    pub(crate) lanes: MemoLanes,
    // Every lane's exact outputs of the current gate call, lane-striped
    // like the gate's outputs.
    y: LineBuf<f32>,
    // Miss flags the decide loop writes (the oracle reads none).
    miss: Vec<u8>,
}

impl OracleEvaluator {
    /// Creates an oracle evaluator with the given configuration; each
    /// lane's memo table lays out gate regions on first touch.
    pub fn new(config: OracleMemoConfig) -> Self {
        OracleEvaluator {
            config,
            stats: ReuseStats::new(),
            lanes: MemoLanes::default(),
            y: LineBuf::default(),
            miss: Vec::new(),
        }
    }

    /// The reuse statistics accumulated so far.
    pub fn stats(&self) -> &ReuseStats {
        &self.stats
    }

    /// The configured threshold.
    pub fn config(&self) -> OracleMemoConfig {
        self.config
    }

    /// The per-lane state: tables and the statistics each
    /// lane accumulated since its last `begin_lane_sequence` (empty
    /// until a run sized it).  The aggregate [`stats`](Self::stats)
    /// includes everything recorded there.
    pub fn lanes(&self) -> &MemoLanes {
        &self.lanes
    }
}

impl NeuronEvaluator for OracleEvaluator {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        let (nsz, lanes) = (call.gate.neurons(), call.lanes);
        assert!(
            self.lanes.len() >= lanes,
            "evaluate_gate_batch with {lanes} lanes but begin_batch sized {}",
            self.lanes.len()
        );
        // The oracle always knows the true outputs: the exact path's
        // kernel computes every lane's — the recurrent half added onto
        // the hoisted input projections.
        self.y.resize(lanes * nsz);
        self.miss.resize(lanes * nsz, 0);
        ExactEvaluator::new().evaluate_gate_batch(call, &mut self.y)?;
        for l in 0..lanes {
            let at = l * nsz..(l + 1) * nsz;
            let lane = &mut self.lanes.0[l];
            let theta = lane.threshold.unwrap_or(self.config.threshold);
            let cols = lane.table.gate_columns(call.gate_id, nsz);
            let y = &self.y[at.clone()];
            let reused = u64::from(decide_lane(
                y,
                y,
                cols.cached_output,
                cols.cached_bnn_output,
                cols.accumulated_delta,
                false,
                self.config.epsilon,
                theta,
                &mut self.miss[at.clone()],
                &mut out[at],
            ));
            for stats in [&mut self.stats, &mut lane.stats] {
                stats.record_reused_many(reused);
                stats.record_computed_many(nsz as u64 - reused);
            }
        }
        Ok(())
    }

    fn begin_batch(&mut self, lanes: usize) {
        self.lanes.grow(lanes, MemoTable::new);
    }

    fn begin_lane_sequence(&mut self, lane: usize) {
        self.lanes.begin(lane);
    }

    fn swap_lane_state(&mut self, a: usize, b: usize) {
        self.lanes.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig, ExactEvaluator};
    use nfm_tensor::rng::DeterministicRng;
    use nfm_tensor::Vector;

    fn network(seed: u64) -> DeepRnn {
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 6, 10);
        let mut rng = DeterministicRng::seed_from_u64(seed);
        DeepRnn::random(&cfg, &mut rng).unwrap()
    }

    fn smooth_sequence(len: usize, width: usize, seed: u64) -> Vec<Vector> {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let mut x = Vector::from_fn(width, |_| rng.uniform(-0.5, 0.5));
        (0..len)
            .map(|_| {
                x = x
                    .add(&Vector::from_fn(width, |_| rng.uniform(-0.05, 0.05)))
                    .unwrap();
                x.clone()
            })
            .collect()
    }

    #[test]
    fn zero_threshold_reuses_nothing_and_matches_exact() {
        let net = network(1);
        let seq = smooth_sequence(20, 6, 2);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let mut oracle = OracleEvaluator::new(OracleMemoConfig::with_threshold(0.0));
        let memo = net.run(&seq, &mut oracle).unwrap();
        assert_eq!(exact, memo);
        assert_eq!(oracle.stats().reuses(), 0);
        assert_eq!(
            oracle.stats().evaluations(),
            (20 * net.neuron_evaluations_per_step()) as u64
        );
    }

    #[test]
    fn huge_threshold_reuses_everything_after_warmup() {
        let net = network(3);
        let seq = smooth_sequence(15, 6, 4);
        let mut oracle = OracleEvaluator::new(OracleMemoConfig::with_threshold(f32::INFINITY));
        let _ = net.run(&seq, &mut oracle).unwrap();
        let per_step = net.neuron_evaluations_per_step() as u64;
        // First timestep must compute everything; the rest can all reuse.
        assert_eq!(oracle.stats().computed(), per_step);
        assert_eq!(oracle.stats().reuses(), per_step * 14);
    }

    #[test]
    fn reuse_grows_monotonically_with_threshold() {
        let net = network(5);
        let seq = smooth_sequence(25, 6, 6);
        let mut previous = -1.0f64;
        for &theta in &[0.0, 0.1, 0.3, 0.5, 1.0] {
            let mut oracle = OracleEvaluator::new(OracleMemoConfig::with_threshold(theta));
            let _ = net.run(&seq, &mut oracle).unwrap();
            let reuse = oracle.stats().reuse_fraction();
            assert!(
                reuse + 1e-9 >= previous,
                "reuse should not decrease: {previous} -> {reuse} at θ={theta}"
            );
            previous = reuse;
        }
        assert!(previous > 0.0, "a generous threshold must yield some reuse");
    }

    #[test]
    fn table_is_cleared_between_sequences() {
        let net = network(7);
        let seq = smooth_sequence(5, 6, 8);
        let mut oracle = OracleEvaluator::new(OracleMemoConfig::with_threshold(0.5));
        let _ = net.run(&seq, &mut oracle).unwrap();
        let after_first = oracle.stats().evaluations();
        let _ = net.run(&seq, &mut oracle).unwrap();
        // Every sequence starts cold: the first timestep of the second run
        // must compute (not reuse) for every neuron, so computed count grows.
        assert_eq!(oracle.stats().evaluations(), after_first * 2);
        assert!(oracle.stats().computed() >= 2 * net.neuron_evaluations_per_step() as u64);
    }

    #[test]
    fn moderate_threshold_introduces_small_output_error() {
        let net = network(9);
        let seq = smooth_sequence(30, 6, 10);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let mut oracle = OracleEvaluator::new(OracleMemoConfig::with_threshold(0.3));
        let memo = net.run(&seq, &mut oracle).unwrap();
        assert!(oracle.stats().reuse_fraction() > 0.05);
        // Outputs diverge, but not wildly: the relative error per reuse is
        // bounded by the threshold.
        let mut max_abs_err = 0.0f32;
        for (e, m) in exact.iter().zip(memo.iter()) {
            for i in 0..e.len() {
                max_abs_err = max_abs_err.max((e[i] - m[i]).abs());
            }
        }
        assert!(max_abs_err < 1.0, "bounded divergence, got {max_abs_err}");
    }
}
