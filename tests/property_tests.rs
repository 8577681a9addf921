//! Property-style tests on the core data structures and invariants of
//! the reproduction.
//!
//! The container has no access to the `proptest` crate, so the
//! properties are exercised with seeded deterministic sampling loops
//! instead: every case is reproducible and each property is checked over
//! dozens of randomly drawn inputs.
//!
//! The per-crate property suites of `crates/{tensor,rnn,core}` are
//! mounted here too, so they run under the umbrella package's tier-1
//! `cargo test -q`.

#[path = "../crates/tensor/tests/properties.rs"]
mod tensor;

#[path = "../crates/rnn/tests/properties.rs"]
mod rnn;

#[path = "../crates/core/tests/properties.rs"]
mod core;

use nfm::bnn::{binarize::reference_binary_dot, BinaryGate, BitVector};
use nfm::memo::{BnnMemoConfig, OracleMemoConfig, Predictor, PredictorKind, ReuseStats};
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig, ExactEvaluator, Gate};
use nfm::tensor::activation::Activation;
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::stats::{empirical_cdf, pearson_correlation};
use nfm::tensor::vector::relative_difference;
use nfm::tensor::{LineBuf, Matrix, Vector};
use nfm::workloads::accuracy::{bleu, edit_distance, word_error_rate};

fn vec_f32(rng: &mut DeterministicRng, len: usize, low: f32, high: f32) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(low, high)).collect()
}

fn vec_usize(rng: &mut DeterministicRng, len: usize, bound: usize) -> Vec<usize> {
    (0..len).map(|_| rng.index(bound)).collect()
}

// ---- Bit-packed sign vectors -------------------------------------------

#[test]
fn bitvector_packing_roundtrips() {
    let mut rng = DeterministicRng::seed_from_u64(1);
    for case in 0..64 {
        let len = rng.index(200);
        let values = vec_f32(&mut rng, len, -10.0, 10.0);
        let packed = BitVector::from_signs(&values);
        assert_eq!(packed.len(), values.len(), "case {case}");
        for (i, &v) in values.iter().enumerate() {
            let bit = packed.words()[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(bit, v >= 0.0, "case {case} bit {i}");
        }
    }
}

/// Equation 8's XNOR-popcount dot product of `a` and `b` as the packed
/// predictor computes it: a one-neuron mirror whose forward row is `a`
/// and whose recurrent row is empty.
fn xnor_dot(a: &[f32], b: &[f32]) -> i32 {
    let gate = Gate::new(
        Matrix::from_fn(1, a.len(), |_, c| a[c]),
        Matrix::from_fn(1, 0, |_, _| 0.0),
        Vector::zeros(1),
        None,
        Activation::Sigmoid,
    )
    .unwrap();
    let mirror = BinaryGate::mirror(&gate);
    let mut packed = LineBuf::default();
    mirror.pack_inputs(b, &[], 1, &mut packed);
    let mut out = [i32::MIN];
    mirror.predict_packed_into(&packed, &mut out);
    out[0]
}

#[test]
fn xnor_dot_equals_reference_sign_product() {
    let mut rng = DeterministicRng::seed_from_u64(2);
    for case in 0..64 {
        let len = 1 + rng.index(300);
        let a = vec_f32(&mut rng, len, -5.0, 5.0);
        let b = vec_f32(&mut rng, len, -5.0, 5.0);
        assert_eq!(
            xnor_dot(&a, &b),
            reference_binary_dot(&a, &b),
            "case {case}"
        );
    }
}

#[test]
fn xnor_dot_is_symmetric_and_bounded() {
    let mut rng = DeterministicRng::seed_from_u64(3);
    for _ in 0..64 {
        let len = 1 + rng.index(128);
        let a = vec_f32(&mut rng, len, -1.0, 1.0);
        let b = vec_f32(&mut rng, len, -1.0, 1.0);
        let ab = xnor_dot(&a, &b);
        let ba = xnor_dot(&b, &a);
        assert_eq!(ab, ba);
        assert!(ab.unsigned_abs() as usize <= a.len());
        assert_eq!(xnor_dot(&a, &a) as usize, a.len());
    }
}

// ---- Statistics ----------------------------------------------------------

#[test]
fn correlation_is_bounded_and_symmetric() {
    let mut rng = DeterministicRng::seed_from_u64(6);
    for _ in 0..64 {
        let len = 2 + rng.index(62);
        let xs = vec_f32(&mut rng, len, -100.0, 100.0);
        let ys = vec_f32(&mut rng, len, -100.0, 100.0);
        let r = pearson_correlation(&xs, &ys).unwrap();
        let r2 = pearson_correlation(&ys, &xs).unwrap();
        assert!((-1.0001..=1.0001).contains(&r));
        assert!((r - r2).abs() < 1e-4);
    }
}

#[test]
fn empirical_cdf_is_monotone() {
    let mut rng = DeterministicRng::seed_from_u64(8);
    for _ in 0..64 {
        let len = 1 + rng.index(79);
        let values = vec_f32(&mut rng, len, -10.0, 10.0);
        let cdf = empirical_cdf(&values, 11).unwrap();
        assert!(cdf.windows(2).all(|w| w[0].value <= w[1].value + 1e-6));
    }
}

#[test]
fn relative_difference_properties() {
    let mut rng = DeterministicRng::seed_from_u64(9);
    for _ in 0..256 {
        let a = rng.uniform(-100.0, 100.0);
        let b = rng.uniform(-100.0, 100.0);
        let d = relative_difference(a, b, 1e-3);
        assert!(d >= 0.0);
        assert!(d.is_finite());
        assert_eq!(relative_difference(a, a, 1e-3), 0.0);
    }
}

// ---- Accuracy proxies ----------------------------------------------------

#[test]
fn edit_distance_is_a_metric() {
    let mut rng = DeterministicRng::seed_from_u64(10);
    for _ in 0..64 {
        let (la, lb, lc) = (rng.index(16), rng.index(16), rng.index(16));
        let a = vec_usize(&mut rng, la, 8);
        let b = vec_usize(&mut rng, lb, 8);
        let c = vec_usize(&mut rng, lc, 8);
        assert_eq!(edit_distance(&a, &a), 0);
        assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        // Triangle inequality.
        assert!(edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c));
        // Upper bound by the longer sequence.
        assert!(edit_distance(&a, &b) <= a.len().max(b.len()));
    }
}

#[test]
fn wer_and_bleu_are_bounded() {
    let mut rng = DeterministicRng::seed_from_u64(11);
    for _ in 0..64 {
        let (lr, lh) = (1 + rng.index(19), rng.index(20));
        let reference = vec_usize(&mut rng, lr, 6);
        let hypothesis = vec_usize(&mut rng, lh, 6);
        let wer = word_error_rate(&reference, &hypothesis);
        assert!(wer >= 0.0);
        assert_eq!(word_error_rate(&reference, &reference), 0.0);
        let b = bleu(&reference, &hypothesis);
        assert!((0.0..=1.0).contains(&b));
        assert!((bleu(&reference, &reference) - 1.0).abs() < 1e-9);
    }
}

// ---- Reuse statistics ----------------------------------------------------

#[test]
fn reuse_stats_fractions_are_consistent() {
    let mut rng = DeterministicRng::seed_from_u64(12);
    for _ in 0..64 {
        let computed = rng.index(500) as u32;
        let reused = rng.index(500) as u32;
        let mut stats = ReuseStats::new();
        for _ in 0..computed {
            stats.record_computed();
        }
        for _ in 0..reused {
            stats.record_reused();
        }
        assert_eq!(stats.evaluations(), (computed + reused) as u64);
        assert_eq!(stats.computed(), computed as u64);
        let f = stats.reuse_fraction();
        assert!((0.0..=1.0).contains(&f));
        if computed + reused > 0 {
            let expected = reused as f64 / (computed + reused) as f64;
            assert!((f - expected).abs() < 1e-12);
        }
    }
}

// ---- Heavier end-to-end properties (fewer cases) -------------------------

#[test]
fn lstm_outputs_stay_bounded_for_arbitrary_bounded_inputs() {
    let mut rng = DeterministicRng::seed_from_u64(13);
    for _ in 0..8 {
        let seed = rng.index(1000) as u64;
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 6, 8);
        let mut net_rng = DeterministicRng::seed_from_u64(seed);
        let net = DeepRnn::random(&cfg, &mut net_rng).unwrap();
        let steps = 1 + rng.index(11);
        let seq: Vec<Vector> = (0..steps)
            .map(|_| Vector::from(vec_f32(&mut rng, 6, -2.0, 2.0)))
            .collect();
        let out = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        for v in out {
            assert!(v.iter().all(|x| x.is_finite()));
            assert!(
                v.norm_inf() <= 1.0 + 1e-4,
                "LSTM hidden outputs stay in [-1, 1]"
            );
        }
    }
}

#[test]
fn memoized_inference_never_reuses_with_negative_threshold() {
    let mut rng = DeterministicRng::seed_from_u64(14);
    for _ in 0..8 {
        let seed = rng.index(500) as u64;
        let w = nfm::workloads::WorkloadBuilder::new(nfm::workloads::NetworkId::ImdbSentiment)
            .scale(0.05)
            .sequences(1)
            .sequence_length(6)
            .seed(seed)
            .build()
            .unwrap();
        let (model, seqs) = (w.model(), w.sequences());
        let exact = PredictorKind::Exact.run(model, seqs).unwrap();
        let memo = PredictorKind::Bnn(BnnMemoConfig::with_threshold(-1.0))
            .run(model, seqs)
            .unwrap();
        assert_eq!(memo.stats.reuses(), 0);
        assert_eq!(&exact.outputs, &memo.outputs);
        let oracle = PredictorKind::Oracle(OracleMemoConfig::with_threshold(-1.0))
            .run(model, seqs)
            .unwrap();
        assert_eq!(oracle.stats.reuses(), 0);
        assert_eq!(&exact.outputs, &oracle.outputs);
    }
}

#[test]
fn infinite_threshold_reuses_everything_after_the_first_step() {
    let mut rng = DeterministicRng::seed_from_u64(15);
    for _ in 0..8 {
        let seed = rng.index(500) as u64;
        let w = nfm::workloads::WorkloadBuilder::new(nfm::workloads::NetworkId::DeepSpeech2)
            .scale(0.05)
            .layers(1)
            .sequences(1)
            .sequence_length(8)
            .seed(seed)
            .build()
            .unwrap();
        let oracle = PredictorKind::Oracle(OracleMemoConfig::with_threshold(f32::INFINITY))
            .run(w.model(), w.sequences())
            .unwrap();
        let per_step = w.network().neuron_evaluations_per_step() as u64;
        assert_eq!(oracle.stats.computed(), per_step);
        assert_eq!(oracle.stats.reuses(), per_step * 7);
    }
}
