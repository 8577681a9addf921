//! The memoizing evaluators against the independent memoized reference,
//! gate call by gate call (see `memo_check`): over `DeepRnn::run` (one
//! lane) and the lane scheduler at 3 and 8 lanes with mid-flight
//! refills, so lane swaps and recycled lanes are mirrored too; at θ = 0
//! (a hit only under `<=`) and θ = ∞, and over a sequence holding NaN
//! and ±inf inputs.

mod memo_check;

use memo_check::{Inspect, Recorder};
use nfm::bnn::BinaryNetwork;
use nfm::eval::reference::MemoPolicy;
use nfm::memo::config::{DEFAULT_BNN_EPSILON, DEFAULT_EPSILON};
use nfm::memo::{AuditConfig, BnnMemoConfig, BnnMemoEvaluator, OracleMemoConfig};
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig, Direction, LaneScheduler, NeuronEvaluator};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Vector;
use std::sync::Arc;

fn networks() -> Vec<(&'static str, DeepRnn)> {
    let mut rng = DeterministicRng::seed_from_u64(36);
    let configs = [
        (
            "lstm-peepholes",
            DeepRnnConfig::new(CellKind::Lstm, 5, 9)
                .layers(2)
                .peepholes(true),
        ),
        ("gru", DeepRnnConfig::new(CellKind::Gru, 6, 8).layers(2)),
        (
            "gru-bidi",
            DeepRnnConfig::new(CellKind::Gru, 4, 6).direction(Direction::Bidirectional),
        ),
    ];
    configs
        .into_iter()
        .map(|(name, config)| (name, DeepRnn::random(&config, &mut rng).unwrap()))
        .collect()
}

fn smooth_sequence(len: usize, width: usize, seed: u64) -> Vec<Vector> {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    let mut x = Vector::from_fn(width, |_| rng.uniform(-0.5, 0.5));
    (0..len)
        .map(|_| {
            x = x
                .add(&Vector::from_fn(width, |_| rng.uniform(-0.08, 0.08)))
                .unwrap();
            x.clone()
        })
        .collect()
}

/// Ten ragged sequences; the third holds NaN and ±inf inputs, at steps
/// far enough apart that the infinities act before NaN fills the
/// lane's recurrent state.
fn sequences(width: usize) -> Vec<Vec<Vector>> {
    let mut seqs: Vec<Vec<Vector>> = (0..10)
        .map(|i| smooth_sequence(3 + (i * 7) % 13, width, 900 + i as u64))
        .collect();
    let hostile = &mut seqs[2];
    hostile.resize(12, hostile[0].clone());
    hostile[2].as_mut_slice()[0] = f32::INFINITY;
    hostile[4].as_mut_slice()[1] = f32::NEG_INFINITY;
    hostile[7].as_mut_slice()[0] = f32::NAN;
    seqs
}

/// Drives `seqs` through `DeepRnn::run` and through the lane scheduler
/// at 3 and 8 lanes, each on a fresh recorder.  Returns the hits seen,
/// and the fewest non-finite outputs any one driver compared.
fn drive<E: Inspect>(
    what: &str,
    net: &DeepRnn,
    seqs: &[Vec<Vector>],
    make: impl Fn() -> E,
    policy: MemoPolicy,
) -> (u64, u64) {
    let mut solo = Recorder::new(make(), policy, format!("{what} run"));
    for s in seqs {
        net.run(s, &mut solo).unwrap();
    }
    let (mut hits, mut nonfinite) = (solo.hits, solo.nonfinite);
    for lanes in [3usize, 8] {
        let mut recorder = Recorder::new(make(), policy, format!("{what} lanes {lanes}"));
        let mut sched = LaneScheduler::new(net, lanes).unwrap();
        recorder.begin_batch(lanes);
        let mut queue = seqs.iter().cloned().enumerate();
        let (mut finished, mut done) = (Vec::new(), 0);
        loop {
            while sched.free_lanes() > 0 {
                let Some((i, s)) = queue.next() else { break };
                sched.admit(i as u64, s, &mut recorder).unwrap();
            }
            if sched.step(net, &mut recorder, &mut finished).unwrap() == 0 {
                break;
            }
            done += finished.drain(..).count();
        }
        assert_eq!(done, seqs.len(), "{what} lanes {lanes}");
        hits += recorder.hits;
        nonfinite = nonfinite.min(recorder.nonfinite);
    }
    (hits, nonfinite)
}

#[test]
fn bnn_decisions_entries_and_counts_match_the_reference() {
    let bnn = BnnMemoConfig::with_threshold;
    let cases = [
        ("θ=0", bnn(0.0), None),
        ("θ=0.5", bnn(0.5), None),
        ("θ=2", bnn(2.0), None),
        ("θ=inf", bnn(f32::INFINITY), None),
        ("unthrottled θ=0.8", bnn(0.8).without_throttling(), None),
        ("audited θ=1", bnn(1.0), Some(AuditConfig::new(3, 2019))),
    ];
    for (name, net) in networks() {
        let seqs = sequences(net.input_size());
        let mirror = Arc::new(BinaryNetwork::mirror(&net));
        for (case, config, audit) in cases {
            let make = || {
                let evaluator = BnnMemoEvaluator::new(mirror.clone(), config);
                match audit {
                    Some(audit) => evaluator.with_audit(audit),
                    None => evaluator,
                }
            };
            let what = format!("{name} bnn {case}");
            let policy = MemoPolicy::Bnn(config, audit);
            let (hits, nonfinite) = drive(&what, &net, &seqs, make, policy);
            // θ = 0 still hits wherever yb_t == yb_m: δ = 0 passes `<=`.
            assert!(hits > 0, "{what}: some decisions are hits");
            // At θ = ∞ every step after the first reuses its finite y_m.
            let finite_theta = config.threshold.is_finite();
            assert_eq!(finite_theta, nonfinite > 0, "{what}: non-finite values");
        }
    }
}

#[test]
fn oracle_decisions_entries_and_counts_match_the_reference() {
    for (name, net) in networks() {
        let seqs = sequences(net.input_size());
        for theta in [0.0f32, 0.3, f32::INFINITY] {
            let config = OracleMemoConfig::with_threshold(theta);
            let what = format!("{name} oracle θ={theta}");
            let make = || BnnMemoEvaluator::oracle(config);
            let policy = MemoPolicy::Oracle(config);
            let (hits, nonfinite) = drive(&what, &net, &seqs, make, policy);
            assert_eq!(theta > 0.0, hits > 0, "{what}: hits iff θ > 0");
            // A NaN output never hits (δ is NaN), so NaN is always met.
            assert!(nonfinite > 0, "{what}: non-finite values");
        }
    }
}

/// Requires every neuron of `net` to hold a live entry with a non-NaN
/// `δb` in lane 0 of `evaluator`.
fn assert_no_nan_stored<E: Inspect>(net: &DeepRnn, evaluator: &E, what: &str) {
    for (id, gate) in net.gates() {
        for n in 0..gate.neurons() {
            let entry = evaluator.lanes().table(0).get(id, n).unwrap();
            assert!(!entry.accumulated_delta.is_nan(), "{what}: NaN stored");
        }
    }
}

/// The decision where the arithmetic degenerates: a zero clamp turns
/// every neuron whose BNN output sits at 0 into `0 / 0 = NaN` (which
/// must miss and must never reach the stored `δb`), θ at NaN / negative
/// / zero / infinite / `f32::MAX`, with and without throttling, and the
/// oracle at the same θ and a zero or default clamp — over a 2,000-step
/// constant input, the saturated regime in which a throttled `δb`
/// accumulates longest.
#[test]
fn degenerate_thresholds_and_clamps_match_the_reference() {
    let mut rng = DeterministicRng::seed_from_u64(23);
    let net = DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 8, 12), &mut rng).unwrap();
    let seq = vec![smooth_sequence(1, 8, 22).remove(0); 2000];
    let mirror = Arc::new(BinaryNetwork::mirror(&net));
    let mut nan_compares = 0;
    for theta in [f32::NAN, -1.0, 0.0, f32::INFINITY, f32::MAX] {
        for epsilon in [0.0, DEFAULT_BNN_EPSILON] {
            for throttle in [true, false] {
                let config = BnnMemoConfig {
                    threshold: theta,
                    throttle,
                    epsilon,
                };
                let what = format!("θ={theta} ε₀={epsilon} throttle={throttle}");
                let evaluator = BnnMemoEvaluator::new(mirror.clone(), config);
                let mut recorder = Recorder::new(evaluator, MemoPolicy::Bnn(config, None), what);
                net.run(&seq, &mut recorder).unwrap();
                let (fused, what) = (&recorder.inner, &recorder.what);
                assert_no_nan_stored(&net, fused, what);
                if theta == f32::INFINITY {
                    // Every finite or infinite δb' qualifies, so
                    // whatever missed after the cold first step
                    // compared a NaN — possible under a zero clamp
                    // only.
                    let cold = net.neuron_evaluations_per_step() as u64;
                    let nan_misses = fused.stats().computed() - cold;
                    assert!(epsilon == 0.0 || nan_misses == 0, "{what}");
                    nan_compares += nan_misses;
                }
            }
        }
        for epsilon in [0.0, DEFAULT_EPSILON] {
            let config = OracleMemoConfig {
                threshold: theta,
                epsilon,
            };
            let what = format!("oracle θ={theta} ε₀={epsilon}");
            let evaluator = BnnMemoEvaluator::oracle(config);
            let mut recorder = Recorder::new(evaluator, MemoPolicy::Oracle(config), what);
            net.run(&seq, &mut recorder).unwrap();
            assert_no_nan_stored(&net, &recorder.inner, &recorder.what);
        }
    }
    assert!(nan_compares > 0, "no neuron exercised the 0 / 0 compare");
}
