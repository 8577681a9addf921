//! Lane-independence guarantees for multi-sequence batched inference.
//!
//! A single sequence is a batch of one, so the contract is about lane
//! *count* and *neighbours*: a sequence's outputs, reuse statistics and
//! memo-hit counts must be **bit-identical** whether it runs alone in
//! one lane or shares lane-striped gate calls (one weight stream, one
//! memo table per lane) with other sequences — for every predictor,
//! for batch sizes that divide the sequence count and ones that leave
//! a ragged tail, for ragged sequence *lengths* inside a wave, and
//! whatever values a neighbouring lane carries (NaN, ±inf, denormals).

mod memo_check;

use memo_check::entry_bits;
use nfm::bnn::BinaryNetwork;
use nfm::memo::{
    BnnMemoConfig, BnnMemoEvaluator, Model, OracleMemoConfig, Predictor, PredictorKind, ReuseStats,
    RunOutcome,
};
use nfm::rnn::{
    CellKind, DeepRnn, DeepRnnConfig, Direction, ExactEvaluator, LaneScheduler, NeuronEvaluator,
};
use nfm::serve::{CompletionStatus, EngineBuilder, InferenceRequest};
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

fn workload(net: DeepRnn, seed: u64) -> (Model, Vec<Vec<Vector>>) {
    let width = net.input_size();
    let seqs = RAGGED_LENS
        .iter()
        .enumerate()
        .map(|(i, &len)| smooth_sequence(len, width, seed + i as u64))
        .collect();
    (Model::from(net), seqs)
}

/// `seqs` through a one-worker engine with `lanes` lanes, all queued
/// before compute starts: the responses in submission order, their
/// statistics merged.
fn through_engine(
    model: &Model,
    seqs: &[Vec<Vector>],
    predictor: PredictorKind,
    lanes: usize,
) -> RunOutcome {
    let engine = EngineBuilder::new(model.clone(), predictor)
        .lanes(lanes)
        .queue_capacity(seqs.len())
        .start_paused()
        .build()
        .unwrap();
    for (i, seq) in seqs.iter().enumerate() {
        engine
            .submit(InferenceRequest::new(i as u64, seq.clone()))
            .unwrap();
    }
    let mut responses = engine.shutdown();
    responses.sort_by_key(|r| r.id);
    let mut stats = ReuseStats::new();
    let outputs = responses
        .into_iter()
        .map(|r| {
            assert_eq!(r.status, CompletionStatus::Done, "request {}", r.id);
            stats.merge(&r.stats);
            r.outputs
        })
        .collect();
    RunOutcome { outputs, stats }
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

// The references below are `Predictor::run`: one lane, sequence by
// sequence, with no engine.  The engine runs the same sequences at 1, 2
// and 3 lanes, refilling freed lanes mid-wave on unidirectional stacks.

#[test]
fn exact_run_batched_is_bit_identical_to_one_lane() {
    for (name, net) in networks() {
        let (model, seqs) = workload(net, 100);
        let reference = PredictorKind::Exact.run(&model, &seqs).unwrap();
        for batch in [1usize, 2, 3] {
            let batched = through_engine(&model, &seqs, PredictorKind::Exact, batch);
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
            let (model, seqs) = workload(net, 200);
            let predictor = PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta));
            let reference = predictor.run(&model, &seqs).unwrap();
            for batch in [1usize, 2, 3] {
                let batched = through_engine(&model, &seqs, predictor, batch);
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
fn oracle_run_batched_matches_one_lane_too() {
    for (name, net) in networks() {
        let (model, seqs) = workload(net, 300);
        let predictor = PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.4));
        let reference = predictor.run(&model, &seqs).unwrap();
        for batch in [1usize, 2, 3] {
            let batched = through_engine(&model, &seqs, predictor, batch);
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
fn per_lane_memo_tables_reproduce_solo_hit_runs() {
    // Drive the evaluator directly: lane l of one 7-lane wave must
    // leave its lane table in exactly the state a solo one-lane run
    // leaves lane 0's table in (every memo entry, bit for bit), and the
    // merged stats must match.
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
    assert_eq!(batched_eval.lanes().len(), seqs.len());

    // The batch driver packs lanes longest-first (stable): recompute the
    // packing to map lanes back to sequences.
    let mut order: Vec<usize> = (0..seqs.len()).collect();
    order.sort_by(|&a, &b| seqs[b].len().cmp(&seqs[a].len()));

    let mut merged = ReuseStats::new();
    for (lane, &seq_idx) in order.iter().enumerate() {
        let mut single = BnnMemoEvaluator::new(mirror.clone(), config);
        let _ = net.run(&seqs[seq_idx], &mut single).unwrap();
        merged.merge(single.stats());
        assert_eq!(
            entry_bits(&net, batched_eval.lanes().table(lane)),
            entry_bits(&net, single.lanes().table(0)),
            "lane {lane} (sequence {seq_idx}): memo entries must match"
        );
    }
    assert_eq!(batched_eval.stats(), &merged);
}

#[test]
fn repeated_run_batch_calls_start_every_sequence_cold() {
    // Reusing one evaluator across run_batch calls (the scheduler's
    // wave policy does exactly this) must behave like fresh evaluators:
    // begin_lane_sequence has to reset the lane's table.
    let (_, net) = networks().remove(0);
    let s0 = smooth_sequence(9, net.input_size(), 600);
    let s1 = smooth_sequence(7, net.input_size(), 601);
    let mirror = BinaryNetwork::mirror(&net);
    let config = BnnMemoConfig::with_threshold(1.0);

    // Two waves on one evaluator.
    let mut evaluator = BnnMemoEvaluator::new(mirror.clone(), config);
    let w0 = net.run_batch(&[s0.as_slice()], &mut evaluator).unwrap();
    let w1 = net.run_batch(&[s1.as_slice()], &mut evaluator).unwrap();
    let mut fresh = BnnMemoEvaluator::new(mirror.clone(), config);
    let r0 = net.run(&s0, &mut fresh).unwrap();
    let mut fresh = BnnMemoEvaluator::new(mirror.clone(), config);
    let r1 = net.run(&s1, &mut fresh).unwrap();
    assert_bit_identical("wave 0", &w0, std::slice::from_ref(&r0));
    assert_bit_identical("wave 1 must start cold", &w1, std::slice::from_ref(&r1));
}

/// Writes a denormal, `+inf`, `-inf` and NaN into `seq`'s inputs, at
/// increasing timesteps so the infinities act before NaN saturates the
/// lane's recurrent state.
fn poison(seq: &mut [Vector]) {
    seq[0].as_mut_slice()[0] = f32::from_bits(1);
    seq[2].as_mut_slice()[1] = f32::INFINITY;
    seq[3].as_mut_slice()[2] = f32::NEG_INFINITY;
    seq[5].as_mut_slice()[0] = f32::NAN;
}

/// One lane of an 8-lane ragged wave carries degenerate inputs; every
/// *other* lane's outputs and per-lane `ReuseStats` must stay
/// bit-identical to its solo one-lane run, under `run_batch` and under
/// the lane scheduler's block refill.  `lane_stats` reads one lane's
/// statistics (`None` for evaluators that keep none).
fn assert_poisoned_lane_is_isolated<E: NeuronEvaluator>(
    what: &str,
    net: &DeepRnn,
    make: impl Fn() -> E,
    lane_stats: impl Fn(&E, usize) -> Option<ReuseStats>,
) {
    const POISONED: usize = 0;
    // The first eight form the wave; the scheduler also refills its
    // freed lanes with the last two while the poisoned lane still runs.
    let lens = [12usize, 5, 9, 14, 3, 11, 7, 10, 6, 8];
    let mut seqs: Vec<Vec<Vector>> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| smooth_sequence(len, net.input_size(), 700 + i as u64))
        .collect();
    poison(&mut seqs[POISONED]);

    let solo: Vec<(Vec<Vector>, Option<ReuseStats>)> = seqs
        .iter()
        .map(|s| {
            let mut evaluator = make();
            let out = net.run(s, &mut evaluator).unwrap();
            (out, lane_stats(&evaluator, 0))
        })
        .collect();
    assert!(
        solo[POISONED]
            .0
            .iter()
            .flat_map(|v| v.iter())
            .any(|x| !x.is_finite()),
        "{what}: the poison must reach the lane's own outputs"
    );

    // One 8-lane wave (run_batch packs lanes longest-first, stable).
    let wave = &seqs[..8];
    let refs: Vec<&[Vector]> = wave.iter().map(|s| s.as_slice()).collect();
    let mut evaluator = make();
    let outs = net.run_batch(&refs, &mut evaluator).unwrap();
    let mut order: Vec<usize> = (0..wave.len()).collect();
    order.sort_by(|&a, &b| wave[b].len().cmp(&wave[a].len()));
    for (lane, &i) in order.iter().enumerate().filter(|(_, &i)| i != POISONED) {
        assert_bit_identical(
            &format!("{what} run_batch seq {i}"),
            std::slice::from_ref(&outs[i]),
            std::slice::from_ref(&solo[i].0),
        );
        assert_eq!(
            lane_stats(&evaluator, lane),
            solo[i].1,
            "{what} run_batch seq {i}"
        );
    }

    // Block refill: eight lanes, ten sequences.
    if net.layers().iter().any(|l| l.is_bidirectional()) {
        return;
    }
    let mut sched = LaneScheduler::new(net, 8).unwrap();
    let mut evaluator = make();
    evaluator.begin_batch(8);
    let mut queue = seqs.iter().cloned().enumerate();
    let mut finished = Vec::new();
    let mut done = 0;
    loop {
        while sched.free_lanes() > 0 {
            let Some((i, s)) = queue.next() else { break };
            sched.admit(i as u64, s, &mut evaluator).unwrap();
        }
        if sched.step(net, &mut evaluator, &mut finished).unwrap() == 0 {
            break;
        }
        for f in finished.drain(..) {
            done += 1;
            let i = f.token as usize;
            if i == POISONED {
                continue;
            }
            assert_bit_identical(
                &format!("{what} block seq {i}"),
                std::slice::from_ref(&f.outputs),
                std::slice::from_ref(&solo[i].0),
            );
            let lane = f.stats_lane;
            assert_eq!(
                lane_stats(&evaluator, lane),
                solo[i].1,
                "{what} block seq {i}"
            );
        }
    }
    assert_eq!(done, seqs.len(), "{what}: every sequence finished");
}

#[test]
fn degenerate_values_in_one_lane_never_leak_into_its_neighbours() {
    for (name, net) in networks() {
        assert_poisoned_lane_is_isolated(
            &format!("{name} exact"),
            &net,
            ExactEvaluator::new,
            |_, _| None,
        );
        assert_poisoned_lane_is_isolated(
            &format!("{name} oracle"),
            &net,
            || BnnMemoEvaluator::oracle(OracleMemoConfig::with_threshold(0.4)),
            |e, lane| Some(*e.lanes().stats(lane)),
        );
        let mirror = std::sync::Arc::new(BinaryNetwork::mirror(&net));
        assert_poisoned_lane_is_isolated(
            &format!("{name} bnn"),
            &net,
            || BnnMemoEvaluator::new(mirror.clone(), BnnMemoConfig::with_threshold(1.0)),
            |e, lane| Some(*e.lanes().stats(lane)),
        );
    }
}
