//! Tests of `nfm-core` through its public surface: property-style
//! invariants of the fuzzy memoization scheme over seeded deterministic
//! sampling loops (the container has no `proptest`), the BNN
//! evaluator's behaviour, the predictor policies, and `Predictor::run`.

use nfm_bnn::BinaryNetwork;
use nfm_core::{
    AuditConfig, BnnMemoConfig, BnnMemoEvaluator, ControllerConfig, Model, OracleMemoConfig,
    Predictor, PredictorKind, ReuseStats, ServedEvaluator, ThresholdController,
};
use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig, ExactEvaluator, NeuronEvaluator};
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Vector;
use std::sync::Arc;

fn network(seed: u64) -> DeepRnn {
    let cfg = DeepRnnConfig::new(CellKind::Lstm, 5, 8);
    let mut rng = DeterministicRng::seed_from_u64(seed);
    DeepRnn::random(&cfg, &mut rng).unwrap()
}

fn smooth_sequence(len: usize, width: usize, seed: u64, drift: f32) -> Vec<Vector> {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let mut x = Vector::from_fn(width, |_| rng.uniform(-0.5, 0.5));
    (0..len)
        .map(|_| {
            x = x
                .add(&Vector::from_fn(width, |_| rng.uniform(-drift, drift)))
                .unwrap();
            x.clone()
        })
        .collect()
}

#[test]
fn accounting_is_exact_for_any_threshold() {
    let mut rng = DeterministicRng::seed_from_u64(100);
    for _ in 0..16 {
        let seed = rng.index(300) as u64;
        let theta = rng.uniform(0.0, 4.0);
        let steps = 2 + rng.index(10);
        let net = network(seed);
        let seq = smooth_sequence(steps, 5, seed ^ 1, 0.05);
        let mut memo = BnnMemoEvaluator::new(
            BinaryNetwork::mirror(&net),
            BnnMemoConfig::with_threshold(theta),
        );
        let out = net.run(&seq, &mut memo).unwrap();
        let expected = (steps * net.neuron_evaluations_per_step()) as u64;
        assert_eq!(memo.stats().evaluations(), expected);
        assert_eq!(memo.stats().bnn_evaluations(), expected);
        assert_eq!(memo.stats().computed() + memo.stats().reuses(), expected);
        assert!(out.iter().all(|v| v.iter().all(|x| x.is_finite())));
    }
}

#[test]
fn first_timestep_always_computes_every_neuron() {
    let mut rng = DeterministicRng::seed_from_u64(101);
    for _ in 0..16 {
        let seed = rng.index(300) as u64;
        let theta = rng.uniform(0.0, 8.0);
        let net = network(seed);
        let seq = smooth_sequence(1, 5, seed ^ 2, 0.05);
        let mut memo = BnnMemoEvaluator::new(
            BinaryNetwork::mirror(&net),
            BnnMemoConfig::with_threshold(theta),
        );
        let _ = net.run(&seq, &mut memo).unwrap();
        assert_eq!(memo.stats().reuses(), 0);
        assert_eq!(
            memo.stats().computed(),
            net.neuron_evaluations_per_step() as u64
        );
    }
}

#[test]
fn oracle_reuse_is_monotone_in_threshold_on_a_fixed_trajectory() {
    let mut rng = DeterministicRng::seed_from_u64(102);
    for _ in 0..16 {
        let seed = rng.index(200) as u64;
        let steps = 3 + rng.index(7);
        // Unlike the BNN predictor (whose reuse decisions feed back into
        // the state trajectory), the oracle on a *fixed* exact trajectory
        // gives reuse counts that cannot decrease with the threshold when
        // measured per decision against the same cached values; here we
        // check the aggregate is close to monotone.
        let net = network(seed);
        let seq = smooth_sequence(steps, 5, seed ^ 3, 0.05);
        let mut previous = -1.0f64;
        for theta in [0.0f32, 0.2, 0.5, 1.0, 2.0] {
            let mut oracle = BnnMemoEvaluator::oracle(OracleMemoConfig::with_threshold(theta));
            let _ = net.run(&seq, &mut oracle).unwrap();
            let reuse = oracle.stats().reuse_fraction();
            assert!(reuse + 0.02 >= previous, "θ={theta}: {reuse} < {previous}");
            previous = reuse;
        }
    }
}

#[test]
fn throttling_never_increases_reuse() {
    let mut rng = DeterministicRng::seed_from_u64(103);
    for _ in 0..16 {
        let seed = rng.index(200) as u64;
        let theta = rng.uniform(0.1, 2.0);
        let steps = 4 + rng.index(10);
        let net = network(seed);
        let seq = smooth_sequence(steps, 5, seed ^ 4, 0.03);
        let run = |throttle: bool| {
            let mut cfg = BnnMemoConfig::with_threshold(theta);
            if !throttle {
                cfg = cfg.without_throttling();
            }
            let mut memo = BnnMemoEvaluator::new(BinaryNetwork::mirror(&net), cfg);
            let _ = net.run(&seq, &mut memo).unwrap();
            memo.stats().reuse_fraction()
        };
        let with = run(true);
        let without = run(false);
        // Accumulating differences can only make the comparison stricter,
        // so throttled reuse is bounded by unthrottled reuse (up to the
        // small trajectory-feedback noise).
        assert!(with <= without + 0.05, "with={with} without={without}");
    }
}

#[test]
fn memoized_outputs_stay_bounded_like_exact_ones() {
    let mut rng = DeterministicRng::seed_from_u64(104);
    for _ in 0..16 {
        let seed = rng.index(200) as u64;
        let theta = rng.uniform(0.0, 10.0);
        let steps = 2 + rng.index(8);
        let net = network(seed);
        let seq = smooth_sequence(steps, 5, seed ^ 5, 0.08);
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let mut memo = BnnMemoEvaluator::new(
            BinaryNetwork::mirror(&net),
            BnnMemoConfig::with_threshold(theta),
        );
        let out = net.run(&seq, &mut memo).unwrap();
        assert_eq!(out.len(), exact.len());
        for v in &out {
            assert!(v.norm_inf() <= 1.0 + 1e-4);
        }
    }
}

#[test]
fn every_run_starts_its_sequence_cold() {
    let mut rng = DeterministicRng::seed_from_u64(105);
    for _ in 0..16 {
        let seed = rng.index(200) as u64;
        let theta = rng.uniform(0.5, 3.0);
        let net = network(seed);
        let seq = smooth_sequence(6, 5, seed ^ 6, 0.05);
        let mirror = BinaryNetwork::mirror(&net);
        // Run the same sequence twice with the same evaluator: because the
        // table is cleared at sequence start, both runs must produce the
        // same outputs and the same per-sequence reuse.
        let mut memo = BnnMemoEvaluator::new(mirror.clone(), BnnMemoConfig::with_threshold(theta));
        let first = net.run(&seq, &mut memo).unwrap();
        let after_first = memo.stats().reuses();
        let second = net.run(&seq, &mut memo).unwrap();
        assert_eq!(first, second);
        assert_eq!(memo.stats().reuses(), after_first * 2);
        // And a fresh evaluator agrees with the reused one.
        let mut fresh = BnnMemoEvaluator::new(mirror, BnnMemoConfig::with_threshold(theta));
        let third = net.run(&seq, &mut fresh).unwrap();
        assert_eq!(third, net.run(&seq, &mut fresh).unwrap());
    }
}

// ---- The BNN evaluator -------------------------------------------------

/// A one-layer 8 → 12 LSTM.
fn lstm(seed: u64) -> DeepRnn {
    let cfg = DeepRnnConfig::new(CellKind::Lstm, 8, 12);
    let mut rng = DeterministicRng::seed_from_u64(seed);
    DeepRnn::random(&cfg, &mut rng).unwrap()
}

fn bnn(net: &DeepRnn, config: BnnMemoConfig) -> BnnMemoEvaluator {
    BnnMemoEvaluator::new(BinaryNetwork::mirror(net), config)
}

#[test]
fn negative_threshold_matches_exact_inference() {
    // With θ < 0 no accumulated difference can qualify, so the scheme
    // degenerates to exact inference with zero reuse.
    let net = lstm(1);
    let seq = smooth_sequence(15, 8, 2, 0.05);
    let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
    let mut memo = bnn(&net, BnnMemoConfig::with_threshold(-1.0));
    let out = net.run(&seq, &mut memo).unwrap();
    assert_eq!(exact, out);
    assert_eq!(memo.stats().reuses(), 0);
}

#[test]
fn zero_threshold_only_reuses_identical_bnn_outputs() {
    // θ=0 reuses only while the BNN output is bit-identical to the
    // cached one; the resulting divergence from exact inference stays
    // small because identical BNN outputs imply near-identical
    // full-precision outputs (the correlation property of Figure 7).
    let net = lstm(1);
    let seq = smooth_sequence(15, 8, 2, 0.05);
    let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
    let mut memo = bnn(&net, BnnMemoConfig::with_threshold(0.0));
    let out = net.run(&seq, &mut memo).unwrap();
    for (a, b) in exact.iter().zip(out.iter()) {
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 0.3, "{} vs {}", a[i], b[i]);
        }
    }
}

#[test]
fn bnn_is_evaluated_for_every_neuron_every_timestep() {
    let net = lstm(3);
    let seq = smooth_sequence(10, 8, 4, 0.05);
    let mut memo = bnn(&net, BnnMemoConfig::with_threshold(0.3));
    let _ = net.run(&seq, &mut memo).unwrap();
    let expected = (10 * net.neuron_evaluations_per_step()) as u64;
    assert_eq!(memo.stats().evaluations(), expected);
    assert_eq!(memo.stats().bnn_evaluations(), expected);
}

#[test]
fn generous_threshold_yields_substantial_reuse() {
    let net = lstm(5);
    let seq = smooth_sequence(30, 8, 6, 0.05);
    let mut memo = bnn(&net, BnnMemoConfig::with_threshold(2.0));
    let _ = net.run(&seq, &mut memo).unwrap();
    assert!(
        memo.stats().reuse_fraction() > 0.2,
        "expected >20% reuse, got {}",
        memo.stats().reuse_percent()
    );
}

#[test]
fn reuse_is_monotone_in_threshold() {
    let net = lstm(7);
    let seq = smooth_sequence(25, 8, 8, 0.05);
    let mut previous = -1.0;
    for &theta in &[0.0, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut memo = bnn(&net, BnnMemoConfig::with_threshold(theta));
        let _ = net.run(&seq, &mut memo).unwrap();
        let reuse = memo.stats().reuse_fraction();
        assert!(
            reuse + 1e-9 >= previous,
            "reuse decreased from {previous} to {reuse} at θ={theta}"
        );
        previous = reuse;
    }
}

#[test]
fn throttling_never_increases_reuse_over_forty_steps() {
    let net = lstm(9);
    let seq = smooth_sequence(40, 8, 10, 0.05);
    let theta = 1.5;
    let mut with = bnn(&net, BnnMemoConfig::with_threshold(theta));
    let _ = net.run(&seq, &mut with).unwrap();
    let mut without = bnn(
        &net,
        BnnMemoConfig::with_threshold(theta).without_throttling(),
    );
    let _ = net.run(&seq, &mut without).unwrap();
    // Without throttling, per-step differences are never accumulated,
    // so reuse can only be larger or equal.
    assert!(without.stats().reuse_fraction() + 1e-9 >= with.stats().reuse_fraction());
}

#[test]
fn outputs_stay_bounded_under_aggressive_reuse() {
    let net = lstm(11);
    let seq = smooth_sequence(30, 8, 12, 0.05);
    let mut memo = bnn(&net, BnnMemoConfig::with_threshold(8.0));
    let out = net.run(&seq, &mut memo).unwrap();
    assert!(memo.stats().reuse_fraction() > 0.4);
    for v in &out {
        assert!(v.iter().all(|x| x.is_finite()));
        assert!(v.norm_inf() <= 1.0 + 1e-4, "LSTM outputs remain in [-1, 1]");
    }
}

#[test]
fn begin_lane_sequence_clears_only_its_lane() {
    let net = lstm(13);
    let seqs = [14, 15].map(|seed| smooth_sequence(10, 8, seed, 0.05));
    let mut memo = bnn(&net, BnnMemoConfig::with_threshold(1.0));
    let _ = net
        .run_batch(&[seqs[0].as_slice(), seqs[1].as_slice()], &mut memo)
        .unwrap();
    memo.set_lane_threshold(0, 0.25);
    // Lane 1's live entries (a dead slot reads `None`) and statistics.
    let lane1_state = |memo: &BnnMemoEvaluator| {
        let table = memo.lanes().table(1);
        let entries: Vec<_> = net
            .gates()
            .into_iter()
            .flat_map(|(id, gate)| (0..gate.neurons()).map(move |n| table.get(id, n)))
            .collect();
        (entries, *memo.lanes().stats(1))
    };
    let lane1 = lane1_state(&memo);
    assert!(!memo.lanes().table(0).is_empty());
    assert!(memo.lanes().stats(0).reuses() > 0);
    memo.begin_lane_sequence(0);
    assert!(memo.lanes().table(0).is_empty());
    assert_eq!(*memo.lanes().stats(0), ReuseStats::new());
    assert_eq!(lane1_state(&memo), lane1);
    // The cleared lane also dropped its θ override: run alone, it
    // replays the configured θ.
    let again = net.run_batch(&[seqs[0].as_slice()], &mut memo).unwrap();
    let mut fresh = bnn(&net, BnnMemoConfig::with_threshold(1.0));
    assert_eq!(again, vec![net.run(&seqs[0], &mut fresh).unwrap()]);
}

#[test]
fn accuracy_degrades_gracefully_with_threshold() {
    // The divergence from exact inference should grow with θ but stay
    // bounded — the property that makes fuzzy memoization usable.
    let net = lstm(15);
    let seq = smooth_sequence(25, 8, 16, 0.05);
    let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
    let mut divergences = Vec::new();
    for &theta in &[0.5, 2.0, 8.0] {
        let mut memo = bnn(&net, BnnMemoConfig::with_threshold(theta));
        let out = net.run(&seq, &mut memo).unwrap();
        let mut err = 0.0f32;
        let mut count = 0usize;
        for (a, b) in exact.iter().zip(out.iter()) {
            for i in 0..a.len() {
                err += (a[i] - b[i]).abs();
                count += 1;
            }
        }
        divergences.push(err / count as f32);
    }
    assert!(divergences[0] <= divergences[2] + 1e-6);
    assert!(divergences[2] < 0.5, "mean divergence stays small");
}

#[test]
fn audit_sampling_never_changes_outputs() {
    let net = lstm(5);
    let seq = smooth_sequence(30, 8, 6, 0.05);
    let theta = 1.0;
    let mut plain = bnn(&net, BnnMemoConfig::with_threshold(theta));
    let baseline = net.run(&seq, &mut plain).unwrap();
    let mut audited =
        bnn(&net, BnnMemoConfig::with_threshold(theta)).with_audit(AuditConfig::new(4, 2019));
    let out = net.run(&seq, &mut audited).unwrap();
    assert_eq!(baseline, out, "auditing must not change emitted outputs");
    assert_eq!(plain.stats().reuses(), audited.stats().reuses());
    assert_eq!(plain.stats().evaluations(), audited.stats().evaluations());
    assert_eq!(
        plain.stats().bnn_evaluations(),
        audited.stats().bnn_evaluations()
    );
    assert!(audited.stats().audited() > 0, "some hits were audited");
    let audit = audited.audit_stats();
    assert_eq!(audit.audited(), audited.stats().audited());
    let hits: u64 = audit.layers().iter().map(|l| l.hits).sum();
    assert_eq!(hits, audited.stats().reuses(), "every hit is counted");
    assert!(audit.mean_error().is_some());
}

#[test]
fn per_layer_thresholds_override_uniform() {
    let net = lstm(1);
    let seq = smooth_sequence(15, 8, 2, 0.05);
    let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
    // The evaluator's uniform θ is the initial 4.0; the controller
    // clamps every layer it tracks to -1.
    let config = ControllerConfig::new(0.0)
        .initial_theta(4.0)
        .theta_range(-1.0, -1.0);
    let controller = Arc::new(ThresholdController::new(1, config));
    let mut memo = BnnMemoEvaluator::adaptive(BinaryNetwork::mirror(&net), controller);
    let out = net.run(&seq, &mut memo).unwrap();
    assert_eq!(exact, out, "θ<0 on every layer degenerates to exact");
    assert_eq!(memo.stats().reuses(), 0);
    // The uniform threshold alone reuses.
    let mut uniform = bnn(&net, BnnMemoConfig::with_threshold(4.0));
    let _ = net.run(&seq, &mut uniform).unwrap();
    assert!(uniform.stats().reuses() > 0);
}

// ---- Predictor policies ------------------------------------------------

/// A one-layer 4 → 6 LSTM as a `Model`.
fn small_model() -> Model {
    let mut rng = DeterministicRng::seed_from_u64(21);
    Model::from(DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 4, 6), &mut rng).unwrap())
}

#[test]
fn built_evaluators_match_direct_construction_bitwise() {
    let model = small_model();
    let net = model.network();
    let seq = smooth_sequence(12, net.input_size(), 22, 0.05);
    let config = BnnMemoConfig::with_threshold(1.0);
    // A shared handle on a policy builds what the policy builds.
    let mut built = Arc::new(PredictorKind::Bnn(config)).build_evaluator(&model);
    let from_policy = net.run(&seq, built.as_mut()).unwrap();
    let mut direct = BnnMemoEvaluator::new(Arc::clone(model.mirror()), config);
    let reference = net.run(&seq, &mut direct).unwrap();
    assert_eq!(from_policy, reference);
    assert_eq!(
        built.stats_snapshot().map(|s| s.reuses()),
        Some(direct.stats().reuses())
    );
}

#[test]
fn only_thresholded_policies_accept_overrides() {
    for (kind, name, accepts) in [
        (PredictorKind::Exact, "exact", false),
        (
            PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.4)),
            "oracle",
            true,
        ),
        (
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
            "bnn",
            true,
        ),
    ] {
        assert_eq!(kind.name(), name);
        assert_eq!(kind.accepts_threshold_override(), accepts);
    }
}

#[test]
fn untracked_evaluators_report_no_stats() {
    let mut exact = ExactEvaluator::new();
    assert!(ServedEvaluator::take_lane_stats(&mut exact, 0).is_none());
    ServedEvaluator::set_lane_threshold(&mut exact, 0, 0.5); // ignored, must not panic
}

// ---- Predictor::run ----------------------------------------------------

/// `sequences` smooth random walks of `len` steps over a one-layer
/// 5 → 8 LSTM, each scaled slightly differently so they are distinct.
fn workload(sequences: usize, len: usize) -> (Model, Vec<Vec<Vector>>) {
    let mut rng = DeterministicRng::seed_from_u64(17);
    let net = DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 5, 8), &mut rng).unwrap();
    let seqs = (0..sequences)
        .map(|i| {
            let mut x = Vector::from_fn(5, |_| rng.uniform(-0.5, 0.5));
            (0..len)
                .map(|_| {
                    x = x
                        .add(&Vector::from_fn(5, |_| rng.uniform(-0.05, 0.05)))
                        .unwrap();
                    x.scale(1.0 + 0.01 * i as f32)
                })
                .collect()
        })
        .collect();
    (Model::from(net), seqs)
}

fn predictor_kinds() -> [PredictorKind; 3] {
    [
        PredictorKind::Exact,
        PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.4)),
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(1.0)),
    ]
}

#[test]
fn exact_run_has_zero_reuse() {
    let (model, seqs) = workload(2, 10);
    let outcome = PredictorKind::Exact.run(&model, &seqs).unwrap();
    assert_eq!(outcome.outputs.len(), 2);
    assert_eq!(outcome.reuse_fraction(), 0.0);
    assert_eq!(
        outcome.stats.evaluations(),
        (2 * 10 * model.network().neuron_evaluations_per_step()) as u64
    );
}

#[test]
fn oracle_and_bnn_runs_report_reuse() {
    let (model, seqs) = workload(2, 20);
    let oracle = PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.5))
        .run(&model, &seqs)
        .unwrap();
    let bnn = PredictorKind::Bnn(BnnMemoConfig::with_threshold(2.0))
        .run(&model, &seqs)
        .unwrap();
    assert!(oracle.reuse_fraction() > 0.0);
    assert!(bnn.reuse_fraction() > 0.0);
    assert!(oracle.reuse_percent() <= 100.0);
    assert!(bnn.reuse_percent() <= 100.0);
}

#[test]
fn predictor_kind_is_observable_in_run_stats() {
    // Only the BNN predictor evaluates a mirror, once per neuron
    // evaluation; the others never touch one, so it is not even built
    // until the BNN run (the last kind) asks for it.
    let (model, seqs) = workload(2, 8);
    for kind in predictor_kinds() {
        let stats = kind.run(&model, &seqs).unwrap().stats;
        let is_bnn = matches!(kind, PredictorKind::Bnn(_));
        let expected = if is_bnn { stats.evaluations() } else { 0 };
        assert_eq!(stats.bnn_evaluations(), expected, "{}", kind.name());
        assert_eq!(model.has_mirror(), is_bnn, "{}", kind.name());
    }
}

#[test]
fn exact_and_zero_threshold_oracle_agree() {
    let (model, seqs) = workload(1, 12);
    let exact = PredictorKind::Exact.run(&model, &seqs).unwrap();
    let oracle = PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.0))
        .run(&model, &seqs)
        .unwrap();
    assert_eq!(exact.outputs, oracle.outputs);
}

#[test]
fn empty_sequence_errors_propagate_from_run() {
    let (model, mut seqs) = workload(3, 6);
    seqs[1].clear();
    assert!(PredictorKind::Exact.run(&model, &seqs).is_err());
    let refs: Vec<&[Vector]> = seqs.iter().map(Vec::as_slice).collect();
    let mut evaluator = PredictorKind::Exact.build_evaluator(&model);
    assert!(model
        .network()
        .run_batch(&refs, evaluator.as_mut())
        .is_err());
}

/// Batching is how a caller trades latency for throughput, never
/// results: `run_batch` over chunks of any width, with one evaluator
/// the policy built, reproduces `Predictor::run` bit for bit, and so do
/// the evaluator's merged counters where it keeps any.
#[test]
fn run_batch_matches_run_for_every_predictor() {
    let (model, seqs) = workload(5, 12);
    for kind in predictor_kinds() {
        let reference = kind.run(&model, &seqs).unwrap();
        // 2 leaves a ragged last chunk over 5 sequences; 8 exceeds the
        // sequence count.
        for lanes in [1usize, 2, 5, 8] {
            let mut evaluator = kind.build_evaluator(&model);
            let mut outputs = Vec::new();
            for chunk in seqs.chunks(lanes) {
                let refs: Vec<&[Vector]> = chunk.iter().map(Vec::as_slice).collect();
                outputs.extend(
                    model
                        .network()
                        .run_batch(&refs, evaluator.as_mut())
                        .unwrap(),
                );
            }
            let what = format!("{} lanes={lanes}", kind.name());
            assert_eq!(outputs, reference.outputs, "{what}");
            if let Some(stats) = evaluator.stats_snapshot() {
                assert_eq!(stats, reference.stats, "{what}");
            }
        }
    }
}

#[test]
fn empty_workload_yields_empty_outcome() {
    let (model, _) = workload(1, 4);
    for kind in predictor_kinds() {
        let outcome = kind.run(&model, &[]).unwrap();
        assert!(outcome.outputs.is_empty());
        assert_eq!(outcome.stats, ReuseStats::new());
    }
}
