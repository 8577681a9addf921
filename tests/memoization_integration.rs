//! Integration tests spanning the workload, memoization and RNN crates:
//! end-to-end behaviour of the fuzzy memoization scheme on the Table 1
//! workloads (scaled down).

use nfm::memo::{BnnMemoConfig, OracleMemoConfig, Predictor, PredictorKind, RunOutcome};
use nfm::workloads::{NetworkId, Workload, WorkloadBuilder};

fn workload(id: NetworkId, seed: u64) -> Workload {
    WorkloadBuilder::new(id)
        .scale(0.06)
        .layers(2)
        .sequences(2)
        .sequence_length(16)
        .seed(seed)
        .build()
        .expect("workload builds")
}

fn run(w: &Workload, predictor: PredictorKind) -> RunOutcome {
    predictor.run(w.model(), w.sequences()).unwrap()
}

fn bnn(theta: f32) -> PredictorKind {
    PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta))
}

fn oracle(theta: f32) -> PredictorKind {
    PredictorKind::Oracle(OracleMemoConfig::with_threshold(theta))
}

#[test]
fn exact_runner_is_reference_behaviour_for_every_network() {
    for id in NetworkId::ALL {
        let w = workload(id, 1);
        let a = run(&w, PredictorKind::Exact);
        let b = run(&w, PredictorKind::Exact);
        assert_eq!(
            a.outputs, b.outputs,
            "{id}: exact inference is deterministic"
        );
        assert_eq!(a.reuse_fraction(), 0.0);
        assert_eq!(
            a.stats.evaluations(),
            w.total_neuron_evaluations(),
            "{id}: every neuron evaluation is counted"
        );
        // Zero divergence from itself under every accuracy proxy.
        assert_eq!(w.metric().batch_loss(&a.outputs, &b.outputs), 0.0);
    }
}

#[test]
fn oracle_at_zero_threshold_matches_exact_for_every_network() {
    for id in NetworkId::ALL {
        let w = workload(id, 2);
        let exact = run(&w, PredictorKind::Exact);
        let oracle = run(&w, oracle(0.0));
        assert_eq!(exact.outputs, oracle.outputs, "{id}");
        assert_eq!(w.metric().batch_loss(&exact.outputs, &oracle.outputs), 0.0);
    }
}

#[test]
fn bnn_reuse_grows_with_threshold_and_loss_stays_finite() {
    for id in [NetworkId::Eesen, NetworkId::ImdbSentiment] {
        let w = workload(id, 3);
        let baseline = run(&w, PredictorKind::Exact);
        let mut last_reuse = -1.0;
        for theta in [0.0_f32, 0.3, 0.8, 1.6] {
            let memo = run(&w, bnn(theta));
            // Reuse generally grows with θ, but because reused values feed
            // back through the recurrent state the trajectory changes, so
            // small local dips are possible; only forbid large regressions.
            assert!(
                memo.reuse_fraction() + 0.05 >= last_reuse,
                "{id}: reuse should not drop sharply when θ grows"
            );
            last_reuse = memo.reuse_fraction();
            let loss = w.metric().batch_loss(&baseline.outputs, &memo.outputs);
            assert!(loss.is_finite());
            assert!(loss >= 0.0);
            for (seq_base, seq_memo) in baseline.outputs.iter().zip(memo.outputs.iter()) {
                assert_eq!(seq_base.len(), seq_memo.len());
                for (a, b) in seq_base.iter().zip(seq_memo.iter()) {
                    assert_eq!(a.len(), b.len());
                    assert!(b.iter().all(|v| v.is_finite()));
                }
            }
        }
        assert!(
            last_reuse > 0.0,
            "{id}: generous thresholds must reuse something"
        );
    }
}

#[test]
fn bnn_predictor_evaluates_the_binary_network_every_step() {
    let w = workload(NetworkId::DeepSpeech2, 4);
    let memo = run(&w, bnn(0.5));
    assert_eq!(
        memo.stats.bnn_evaluations(),
        w.total_neuron_evaluations(),
        "the BNN is evaluated for every neuron at every timestep"
    );
    assert_eq!(
        memo.stats.evaluations(),
        w.total_neuron_evaluations(),
        "every neuron evaluation request is accounted for"
    );
    assert_eq!(
        memo.stats.computed() + memo.stats.reuses(),
        memo.stats.evaluations()
    );
}

#[test]
fn oracle_upper_bounds_bnn_at_matched_accuracy() {
    // The oracle knows the true outputs, so at (approximately) the same
    // accuracy loss it should achieve at least as much reuse as the BNN
    // predictor.  Compare the best reuse found below a loss budget.
    let w = workload(NetworkId::Eesen, 5);
    let baseline = run(&w, PredictorKind::Exact);
    let budget = 10.0; // percentage points
    let best = |predictor: fn(f32) -> PredictorKind| -> f64 {
        let mut best_reuse = 0.0_f64;
        for i in 0..8 {
            let outcome = run(&w, predictor(0.1 * i as f32));
            let loss = w.metric().batch_loss(&baseline.outputs, &outcome.outputs);
            if loss <= budget {
                best_reuse = best_reuse.max(outcome.reuse_fraction());
            }
        }
        best_reuse
    };
    let oracle_best = best(oracle);
    let bnn_best = best(bnn);
    assert!(
        oracle_best + 0.05 >= bnn_best,
        "oracle ({oracle_best}) should not be clearly worse than BNN ({bnn_best})"
    );
}

#[test]
fn different_workload_seeds_give_different_data_same_topology() {
    let a = workload(NetworkId::Mnmt, 10);
    let b = workload(NetworkId::Mnmt, 11);
    assert_eq!(
        a.network().neuron_evaluations_per_step(),
        b.network().neuron_evaluations_per_step()
    );
    assert_ne!(a.sequences(), b.sequences());
}
