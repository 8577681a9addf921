//! Equivalence guarantees for multi-sequence batched inference.
//!
//! The contract: `MemoizedRunner::run_batched` — lane-striped gate
//! evaluation with one weight stream serving all lanes and one memo
//! table per lane — must be **bit-identical** to the per-sequence path
//! in outputs, reuse statistics and memo-hit counts, for every
//! predictor, for batch sizes that divide the sequence count and ones
//! that leave a ragged tail, and for ragged sequence *lengths* inside a
//! wave.

use nfm::bnn::BinaryNetwork;
use nfm::memo::{BnnMemoConfig, BnnMemoEvaluator, OracleMemoConfig};
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig, Direction, ExactEvaluator, PerNeuronEvaluator};
use nfm::serve::{InferenceWorkload, MemoizedRunner};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Vector;

fn networks() -> Vec<(&'static str, DeepRnn)> {
    let mut rng = DeterministicRng::seed_from_u64(1234);
    vec![
        (
            "lstm-uni-head",
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
            DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 6, 8).layers(2), &mut rng).unwrap(),
        ),
        (
            "gru-bidi-head",
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

/// Seven ragged-length sequences: 7 is not divisible by 2 or 3, so those
/// batch sizes leave a ragged tail wave, and the lengths force lanes to
/// drain at different steps inside every wave.
const RAGGED_LENS: [usize; 7] = [12, 5, 9, 9, 3, 11, 7];

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

fn workload(net: DeepRnn, seed: u64) -> Tiny {
    let width = net.input_size();
    let seqs = RAGGED_LENS
        .iter()
        .enumerate()
        .map(|(i, &len)| smooth_sequence(len, width, seed + i as u64))
        .collect();
    Tiny { net, seqs }
}

fn assert_bit_identical(name: &str, batched: &[Vec<Vector>], reference: &[Vec<Vector>]) {
    assert_eq!(batched.len(), reference.len(), "{name}: sequence count");
    for (s, (seq_a, seq_b)) in batched.iter().zip(reference.iter()).enumerate() {
        assert_eq!(seq_a.len(), seq_b.len(), "{name}: length of sequence {s}");
        for (t, (a, b)) in seq_a.iter().zip(seq_b.iter()).enumerate() {
            assert_eq!(a.len(), b.len(), "{name}: width at seq={s} t={t}");
            for i in 0..a.len() {
                assert_eq!(
                    a[i].to_bits(),
                    b[i].to_bits(),
                    "{name}: output bit mismatch at seq={s} t={t} i={i}: {} vs {}",
                    a[i],
                    b[i]
                );
            }
        }
    }
}

#[test]
fn exact_run_batched_is_bit_identical_to_per_sequence() {
    for (name, net) in networks() {
        let w = workload(net, 100);
        let reference = MemoizedRunner::exact().sequential().run(&w).unwrap();
        for batch in [1usize, 2, 3] {
            let batched = MemoizedRunner::exact().run_batched(&w, batch).unwrap();
            assert_bit_identical(
                &format!("{name} B={batch}"),
                &batched.outputs,
                &reference.outputs,
            );
            assert_eq!(
                batched.stats, reference.stats,
                "{name} B={batch}: evaluation counts must match"
            );
        }
    }
}

#[test]
fn bnn_run_batched_is_bit_identical_and_memo_hits_match() {
    for theta in [0.0f32, 0.5, 2.0] {
        for (name, net) in networks() {
            let w = workload(net, 200);
            let runner = MemoizedRunner::bnn(BnnMemoConfig::with_threshold(theta));
            let reference = runner.sequential().run(&w).unwrap();
            for batch in [1usize, 2, 3] {
                let batched = runner.run_batched(&w, batch).unwrap();
                assert_bit_identical(
                    &format!("{name} θ={theta} B={batch}"),
                    &batched.outputs,
                    &reference.outputs,
                );
                // Reuse statistics double as memo-hit counts: reuses()
                // is exactly the number of lookups served from a memo
                // table, computed() the number of refreshes.
                assert_eq!(
                    batched.stats, reference.stats,
                    "{name} θ={theta} B={batch}: reuse stats / memo hits must match"
                );
                assert!(
                    theta <= 0.0 || batched.stats.reuses() > 0,
                    "{name} θ={theta}: a generous threshold must produce memo hits"
                );
            }
        }
    }
}

#[test]
fn oracle_run_batched_matches_per_sequence_too() {
    for (name, net) in networks() {
        let w = workload(net, 300);
        let runner = MemoizedRunner::oracle(OracleMemoConfig::with_threshold(0.4));
        let reference = runner.sequential().run(&w).unwrap();
        for batch in [1usize, 3] {
            let batched = runner.run_batched(&w, batch).unwrap();
            assert_bit_identical(
                &format!("{name} B={batch}"),
                &batched.outputs,
                &reference.outputs,
            );
            assert_eq!(batched.stats, reference.stats, "{name} B={batch}");
        }
    }
}

#[test]
fn per_lane_memo_tables_reproduce_per_sequence_hit_runs() {
    // Drive the evaluator directly: lane l of one batched wave must
    // leave its lane table in exactly the state a dedicated
    // single-sequence run leaves its table in (same longest memo-hit
    // run), and the merged stats must match.
    let (_, net) = networks().remove(0);
    let seqs: Vec<Vec<Vector>> = RAGGED_LENS
        .iter()
        .enumerate()
        .map(|(i, &len)| smooth_sequence(len, net.input_size(), 400 + i as u64))
        .collect();
    let mirror = BinaryNetwork::mirror(&net);
    let config = BnnMemoConfig::with_threshold(1.0);

    let mut batched_eval = BnnMemoEvaluator::new(mirror.clone(), config);
    let refs: Vec<&[Vector]> = seqs.iter().map(|s| s.as_slice()).collect();
    let _ = net.run_batch(&refs, &mut batched_eval).unwrap();
    assert_eq!(batched_eval.lane_tables().len(), seqs.len());

    // The batch driver packs lanes longest-first (stable): recompute the
    // packing to map lanes back to sequences.
    let mut order: Vec<usize> = (0..seqs.len()).collect();
    order.sort_by(|&a, &b| seqs[b].len().cmp(&seqs[a].len()));

    let mut merged = nfm::memo::ReuseStats::new();
    for (lane, &seq_idx) in order.iter().enumerate() {
        let mut single = BnnMemoEvaluator::new(mirror.clone(), config);
        let _ = net.run(&seqs[seq_idx], &mut single).unwrap();
        merged.merge(single.stats());
        assert_eq!(
            batched_eval.lane_tables()[lane].max_consecutive_reuses(),
            single.table().max_consecutive_reuses(),
            "lane {lane} (sequence {seq_idx}): memo-hit run lengths must match"
        );
    }
    assert_eq!(batched_eval.stats(), &merged);
}

#[test]
fn custom_evaluators_keep_working_through_the_default_lane_loop() {
    // PerNeuronEvaluator has no batch overrides, so run_batch exercises
    // the trait's default per-lane fallback; with one lane the result
    // must be bit-identical to the per-sequence path even for stateful
    // wrapped evaluators.
    let (_, net) = networks().remove(1);
    let seq = smooth_sequence(10, net.input_size(), 500);
    let mirror = BinaryNetwork::mirror(&net);
    let config = BnnMemoConfig::with_threshold(0.8);
    let mut naive = PerNeuronEvaluator::new(BnnMemoEvaluator::new(mirror.clone(), config));
    let batched = net.run_batch(&[seq.as_slice()], &mut naive).unwrap();
    let mut reference_eval = BnnMemoEvaluator::new(mirror, config);
    let reference = net.run(&seq, &mut reference_eval).unwrap();
    assert_bit_identical("per-neuron default lane loop", &batched, &[reference]);

    let mut exact_naive = PerNeuronEvaluator::new(ExactEvaluator::new());
    let b2 = net.run_batch(&[seq.as_slice()], &mut exact_naive).unwrap();
    let r2 = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
    assert_bit_identical("exact default lane loop", &b2, &[r2]);
}

#[test]
fn repeated_run_batch_calls_start_every_sequence_cold() {
    // Reusing one evaluator across run_batch calls (the runner's wave
    // loop does exactly this) must behave like fresh per-sequence runs:
    // begin_lane_sequence has to reset BOTH the per-lane tables and the
    // single-sequence state that wrapped/default-loop evaluation uses.
    let (_, net) = networks().remove(0);
    let s0 = smooth_sequence(9, net.input_size(), 600);
    let s1 = smooth_sequence(7, net.input_size(), 601);
    let mirror = BinaryNetwork::mirror(&net);
    let config = BnnMemoConfig::with_threshold(1.0);

    // Batch overrides active (bare evaluator), two waves.
    let mut evaluator = BnnMemoEvaluator::new(mirror.clone(), config);
    let w0 = net.run_batch(&[s0.as_slice()], &mut evaluator).unwrap();
    let w1 = net.run_batch(&[s1.as_slice()], &mut evaluator).unwrap();
    let mut fresh = BnnMemoEvaluator::new(mirror.clone(), config);
    let r0 = net.run(&s0, &mut fresh).unwrap();
    let mut fresh = BnnMemoEvaluator::new(mirror.clone(), config);
    let r1 = net.run(&s1, &mut fresh).unwrap();
    assert_bit_identical("wave 0", &w0, std::slice::from_ref(&r0));
    assert_bit_identical("wave 1 must start cold", &w1, std::slice::from_ref(&r1));

    // Default per-lane loop (wrapped evaluator suppresses the batch
    // overrides): single-sequence state must also go cold per wave.
    let mut wrapped = PerNeuronEvaluator::new(BnnMemoEvaluator::new(mirror, config));
    let w0 = net.run_batch(&[s0.as_slice()], &mut wrapped).unwrap();
    let w1 = net.run_batch(&[s1.as_slice()], &mut wrapped).unwrap();
    assert_bit_identical("wrapped wave 0", &w0, &[r0]);
    assert_bit_identical("wrapped wave 1 must start cold", &w1, &[r1]);
}
