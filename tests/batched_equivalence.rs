//! Equivalence guarantees for the fused gate-evaluation hot path.
//!
//! The contract: every `NeuronEvaluator::evaluate_gate_batch` override
//! must be **bit-identical** to the per-neuron reference (the trait's
//! default lanes × neurons loop over `evaluate`, pinned down by
//! `PerNeuronEvaluator`, which also never receives hoisted
//! projections) — for {exact (hoisted), oracle, BNN, BNN + audit} ×
//! {LSTM, GRU} × {uni, bidirectional} — and the runner must produce
//! the same outputs and statistics for any worker count.

use nfm::bnn::BinaryNetwork;
use nfm::memo::{
    AuditConfig, BnnMemoConfig, BnnMemoEvaluator, OracleEvaluator, OracleMemoConfig, ReuseStats,
};
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig, Direction, ExactEvaluator, PerNeuronEvaluator};
use nfm::serve::{InferenceWorkload, MemoizedRunner};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Vector;

fn networks() -> Vec<(&'static str, DeepRnn)> {
    let mut rng = DeterministicRng::seed_from_u64(42);
    vec![
        (
            "lstm-uni",
            DeepRnn::random(
                &DeepRnnConfig::new(CellKind::Lstm, 6, 9)
                    .layers(2)
                    .output_size(3),
                &mut rng,
            )
            .unwrap(),
        ),
        (
            "lstm-bidi",
            DeepRnn::random(
                &DeepRnnConfig::new(CellKind::Lstm, 5, 7)
                    .layers(2)
                    .direction(Direction::Bidirectional),
                &mut rng,
            )
            .unwrap(),
        ),
        (
            "gru-uni",
            DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 6, 8).layers(3), &mut rng).unwrap(),
        ),
        (
            "gru-bidi",
            DeepRnn::random(
                &DeepRnnConfig::new(CellKind::Gru, 4, 6)
                    .layers(2)
                    .direction(Direction::Bidirectional)
                    .output_size(2),
                &mut rng,
            )
            .unwrap(),
        ),
    ]
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

/// Asserts two output sequences are bit-identical (stricter than
/// `PartialEq`, which would let `-0.0 == 0.0` slip through).
fn assert_bit_identical(name: &str, batched: &[Vector], per_neuron: &[Vector]) {
    assert_eq!(batched.len(), per_neuron.len(), "{name}: length");
    for (t, (a, b)) in batched.iter().zip(per_neuron.iter()).enumerate() {
        assert_eq!(a.len(), b.len(), "{name}: width at t={t}");
        for i in 0..a.len() {
            assert_eq!(
                a[i].to_bits(),
                b[i].to_bits(),
                "{name}: output bit mismatch at t={t}, i={i}: {} vs {}",
                a[i],
                b[i]
            );
        }
    }
}

#[test]
fn exact_batched_is_bit_identical_to_per_neuron() {
    for (name, net) in networks() {
        let seq = smooth_sequence(12, net.input_size(), 7);
        let mut batched = ExactEvaluator::new();
        let out_batched = net.run(&seq, &mut batched).unwrap();
        let mut naive = PerNeuronEvaluator::new(ExactEvaluator::new());
        let out_naive = net.run(&seq, &mut naive).unwrap();
        assert_bit_identical(name, &out_batched, &out_naive);
        assert_eq!(batched.evaluations(), naive.inner().evaluations(), "{name}");
    }
}

#[test]
fn oracle_batched_is_bit_identical_and_stats_match() {
    for theta in [0.0f32, 0.2, 0.6, f32::INFINITY] {
        for (name, net) in networks() {
            let seq = smooth_sequence(14, net.input_size(), 11);
            let mut batched =
                OracleEvaluator::for_network(&net, OracleMemoConfig::with_threshold(theta));
            let out_batched = net.run(&seq, &mut batched).unwrap();
            let mut naive = PerNeuronEvaluator::new(OracleEvaluator::new(
                OracleMemoConfig::with_threshold(theta),
            ));
            let out_naive = net.run(&seq, &mut naive).unwrap();
            assert_bit_identical(name, &out_batched, &out_naive);
            assert_eq!(
                batched.stats(),
                naive.inner().stats(),
                "{name} θ={theta}: reuse statistics must match"
            );
        }
    }
}

#[test]
fn bnn_batched_is_bit_identical_and_stats_match() {
    for theta in [0.0f32, 0.5, 2.0] {
        for (name, net) in networks() {
            let seq = smooth_sequence(14, net.input_size(), 13);
            let mirror = BinaryNetwork::mirror(&net);
            let mut batched =
                BnnMemoEvaluator::new(mirror.clone(), BnnMemoConfig::with_threshold(theta));
            let out_batched = net.run(&seq, &mut batched).unwrap();
            let mut naive = PerNeuronEvaluator::new(BnnMemoEvaluator::new(
                mirror,
                BnnMemoConfig::with_threshold(theta),
            ));
            let out_naive = net.run(&seq, &mut naive).unwrap();
            assert_bit_identical(name, &out_batched, &out_naive);
            assert_eq!(
                batched.stats(),
                naive.inner().stats(),
                "{name} θ={theta}: reuse statistics must match"
            );
            assert_eq!(
                batched.lane_tables()[0].max_consecutive_reuses(),
                naive.inner().table().max_consecutive_reuses(),
                "{name} θ={theta}: reuse run lengths must match"
            );
        }
    }
}

#[test]
fn bnn_without_throttling_is_bit_identical_too() {
    for (name, net) in networks() {
        let seq = smooth_sequence(10, net.input_size(), 17);
        let mirror = BinaryNetwork::mirror(&net);
        let config = BnnMemoConfig::with_threshold(0.8).without_throttling();
        let mut batched = BnnMemoEvaluator::new(mirror.clone(), config);
        let out_batched = net.run(&seq, &mut batched).unwrap();
        let mut naive = PerNeuronEvaluator::new(BnnMemoEvaluator::new(mirror, config));
        let out_naive = net.run(&seq, &mut naive).unwrap();
        assert_bit_identical(name, &out_batched, &out_naive);
        assert_eq!(batched.stats(), naive.inner().stats(), "{name}");
    }
}

#[test]
fn bnn_with_audit_is_bit_identical_and_audits_the_same_hits() {
    for (name, net) in networks() {
        let seq = smooth_sequence(14, net.input_size(), 19);
        let mirror = BinaryNetwork::mirror(&net);
        let config = BnnMemoConfig::with_threshold(1.0);
        let audit = AuditConfig::new(4, 2019);
        let mut batched = BnnMemoEvaluator::new(mirror.clone(), config).with_audit(audit);
        let out_batched = net.run(&seq, &mut batched).unwrap();
        let mut naive =
            PerNeuronEvaluator::new(BnnMemoEvaluator::new(mirror, config).with_audit(audit));
        let out_naive = net.run(&seq, &mut naive).unwrap();
        assert_bit_identical(name, &out_batched, &out_naive);
        assert_eq!(batched.stats(), naive.inner().stats(), "{name}");
        assert!(batched.stats().audited() > 0, "{name}: some hits audited");
        // Same hits sampled, same exact recomputations, same errors.
        assert_eq!(
            batched.audit_stats(),
            naive.inner().audit_stats(),
            "{name}: per-layer audit counters must match"
        );
    }
}

struct Tiny {
    net: DeepRnn,
    seqs: Vec<Vec<Vector>>,
}

impl InferenceWorkload for Tiny {
    fn network(&self) -> &DeepRnn {
        &self.net
    }
    fn input_sequences(&self) -> &[Vec<Vector>] {
        &self.seqs
    }
}

#[test]
fn runner_worker_count_never_changes_results() {
    let mut rng = DeterministicRng::seed_from_u64(99);
    let net = DeepRnn::random(
        &DeepRnnConfig::new(CellKind::Lstm, 5, 8).layers(2),
        &mut rng,
    )
    .unwrap();
    let seqs: Vec<Vec<Vector>> = (0..9)
        .map(|i| smooth_sequence(8 + (i % 3), 5, 100 + i as u64))
        .collect();
    let w = Tiny { net, seqs };
    for runner in [
        MemoizedRunner::exact(),
        MemoizedRunner::oracle(OracleMemoConfig::with_threshold(0.3)),
        MemoizedRunner::bnn(BnnMemoConfig::with_threshold(1.0)),
    ] {
        // Uneven split: 9 sequences over 4 engine workers vs one.
        let par = runner.with_workers(4).run(&w).unwrap();
        let seq = runner.run(&w).unwrap();
        assert_eq!(par.outputs.len(), seq.outputs.len());
        for (a, b) in par.outputs.iter().zip(seq.outputs.iter()) {
            assert_bit_identical("runner", a, b);
        }
        let par_stats: ReuseStats = par.stats;
        assert_eq!(par_stats, seq.stats);
    }
}
