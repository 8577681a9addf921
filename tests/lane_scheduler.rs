//! The lane scheduler, the one driver of a recurrent stack, through its
//! public surface: a drained `LaneScheduler` at any lane count,
//! `DeepRnn::run` and `DeepRnn::run_batch` all give every sequence the
//! outputs of its own dedicated run, bit for bit; admission, cancel and
//! the empty-sequence cases are typed.

use nfm::rnn::{
    evaluate_neurons, Cell, CellKind, CountingEvaluator, DeepRnn, DeepRnnConfig, Direction,
    ExactEvaluator, GateBatch, LaneScheduler, Layer, NeuronEvaluator, Result, RnnError,
};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Vector;

fn seq(n: usize, width: usize, seed: u64) -> Vec<Vector> {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vector::from_fn(width, |_| rng.uniform(-1.0, 1.0)))
        .collect()
}

fn bidirectional() -> DeepRnn {
    let mut rng = DeterministicRng::seed_from_u64(5);
    DeepRnn::random(
        &DeepRnnConfig::new(CellKind::Lstm, 3, 4).direction(Direction::Bidirectional),
        &mut rng,
    )
    .unwrap()
}

fn networks() -> Vec<DeepRnn> {
    let mut rng = DeterministicRng::seed_from_u64(77);
    vec![
        DeepRnn::random(
            &DeepRnnConfig::new(CellKind::Lstm, 4, 6)
                .layers(2)
                .output_size(3),
            &mut rng,
        )
        .unwrap(),
        DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 5, 7).layers(3), &mut rng).unwrap(),
    ]
}

/// Drains a set of sequences through a scheduler with `lanes`
/// lanes, refilling freed lanes as soon as the schedule allows, and
/// returns outputs by token.
fn drain_scheduler(
    net: &DeepRnn,
    lanes: usize,
    seqs: &[Vec<Vector>],
    evaluator: &mut dyn NeuronEvaluator,
) -> Vec<Vec<Vector>> {
    let mut sched = LaneScheduler::new(net, lanes).unwrap();
    evaluator.begin_batch(lanes);
    let mut queue: std::collections::VecDeque<(u64, Vec<Vector>)> = seqs
        .iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s.clone()))
        .collect();
    let mut results: Vec<Option<Vec<Vector>>> = vec![None; seqs.len()];
    let mut finished = Vec::new();
    loop {
        while sched.free_lanes() > 0 {
            match queue.pop_front() {
                Some((token, s)) => {
                    let lane = sched.admit(token, s, evaluator).unwrap();
                    assert_eq!(sched.lane_of(token), Some(lane), "admit returns the lane");
                }
                None => break,
            }
        }
        if sched.step(net, evaluator, &mut finished).unwrap() == 0 {
            break;
        }
        for f in finished.drain(..) {
            results[f.token as usize] = Some(f.outputs);
        }
    }
    results.into_iter().map(|r| r.expect("finished")).collect()
}

fn assert_bitwise_eq(a: &[Vec<Vector>], b: &[Vec<Vector>], what: &str) {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.len(), y.len(), "{what} seq {i}");
        for (t, (u, v)) in x.iter().zip(y.iter()).enumerate() {
            for n in 0..u.len() {
                assert_eq!(u[n].to_bits(), v[n].to_bits(), "{what} seq={i} t={t} n={n}");
            }
        }
    }
}

#[test]
fn block_scheduler_matches_dedicated_runs_bitwise() {
    // Ragged lengths across every lane count, LSTM with head and a
    // 3-layer GRU: each sequence's block-scheduled outputs must be
    // bit-identical to its own dedicated run, and mid-wave refill
    // must not change the total evaluation count.
    let lens = [9usize, 3, 7, 7, 1, 5, 17, 2];
    for net in networks() {
        let seqs: Vec<Vec<Vector>> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| seq(n, net.input_size(), 900 + i as u64))
            .collect();
        let mut reference = Vec::new();
        let mut single_evals = 0u64;
        for s in &seqs {
            let mut eval = ExactEvaluator::new();
            reference.push(net.run(s, &mut eval).unwrap());
            single_evals += eval.evaluations();
        }
        for lanes in [1usize, 2, 3, 8] {
            let mut eval = ExactEvaluator::new();
            let outs = drain_scheduler(&net, lanes, &seqs, &mut eval);
            assert_bitwise_eq(&outs, &reference, &format!("lanes={lanes}"));
            assert_eq!(eval.evaluations(), single_evals, "lanes={lanes}");
        }
    }
}

#[test]
fn hoist_block_size_is_bit_transparent() {
    // A block step hoists `min(longest remaining, HOIST_BLOCK)`
    // timesteps, so uniform lengths of 1, 4, 9 and 17 drive hoisted
    // blocks of 1, 4, 8+1 and 8+8+1 steps: every block size must
    // reproduce the per-step `DeepRnn::run` outputs bit for bit.
    for net in networks() {
        for len in [1usize, 4, 9, 17] {
            let seqs: Vec<Vec<Vector>> = (0..3)
                .map(|i| seq(len, net.input_size(), 300 + i))
                .collect();
            let reference: Vec<Vec<Vector>> = seqs
                .iter()
                .map(|s| net.run(s, &mut ExactEvaluator::new()).unwrap())
                .collect();
            let mut eval = ExactEvaluator::new();
            let outs = drain_scheduler(&net, 3, &seqs, &mut eval);
            assert_bitwise_eq(&outs, &reference, &format!("steps={len}"));
        }
    }
}

#[test]
fn lockstep_schedule_matches_dedicated_runs_bitwise() {
    // Ragged admissions in arrival order: the step has to sort them
    // longest-first itself, and spans whole sequences (one to three
    // blocks of them here).
    let lens = [3usize, 9, 7, 1, 17, 5];
    let mut rng = DeterministicRng::seed_from_u64(6);
    let deep = DeepRnn::random(
        &DeepRnnConfig::new(CellKind::Gru, 4, 5)
            .layers(2)
            .direction(Direction::Bidirectional)
            .output_size(3),
        &mut rng,
    )
    .unwrap();
    for net in [bidirectional(), deep] {
        assert!(!LaneScheduler::refills_mid_wave(&net));
        let seqs: Vec<Vec<Vector>> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| seq(n, net.input_size(), 400 + i as u64))
            .collect();
        let reference: Vec<Vec<Vector>> = seqs
            .iter()
            .map(|s| net.run(s, &mut ExactEvaluator::new()).unwrap())
            .collect();
        for lanes in [2usize, 3] {
            let mut eval = ExactEvaluator::new();
            let outs = drain_scheduler(&net, lanes, &seqs, &mut eval);
            assert_bitwise_eq(&outs, &reference, &format!("lockstep lanes={lanes}"));
        }
    }
}

#[test]
fn refill_starts_each_sequence_cold() {
    // CountingEvaluator counts begin_lane_sequence calls: every
    // admission (including mid-wave refills) must start a sequence.
    for net in [networks().remove(0), bidirectional()] {
        let seqs: Vec<Vec<Vector>> = (0..5)
            .map(|i| seq(3 + i % 3, net.input_size(), 950 + i as u64))
            .collect();
        let mut eval = CountingEvaluator::new(ExactEvaluator::new());
        let _ = drain_scheduler(&net, 2, &seqs, &mut eval);
        assert_eq!(eval.sequences(), 5);
    }
}

#[test]
fn the_schedule_follows_the_network_and_zero_lanes_are_rejected() {
    let uni = networks().remove(0);
    let bidi = bidirectional();
    assert!(LaneScheduler::refills_mid_wave(&uni));
    assert!(!LaneScheduler::refills_mid_wave(&bidi));
    for net in [&uni, &bidi] {
        assert!(LaneScheduler::new(net, 2).is_ok());
        assert!(matches!(
            LaneScheduler::new(net, 0),
            Err(RnnError::InvalidConfig { .. })
        ));
    }
}

#[test]
fn admit_validates_sequences_and_capacity() {
    for net in [networks().remove(0), bidirectional()] {
        let mut sched = LaneScheduler::new(&net, 1).unwrap();
        let mut eval = ExactEvaluator::new();
        eval.begin_batch(1);
        assert!(matches!(
            sched.admit(0, Vec::new(), &mut eval),
            Err(RnnError::EmptySequence)
        ));
        assert!(matches!(
            sched.admit(0, vec![Vector::zeros(2)], &mut eval),
            Err(RnnError::InputSizeMismatch { .. })
        ));
        let lane = sched.admit(0, seq(4, net.input_size(), 1), &mut eval);
        assert_eq!(lane.unwrap(), 0, "admit returns the seated lane");
        assert_eq!(sched.free_lanes(), 0);
        assert!(sched
            .admit(1, seq(4, net.input_size(), 2), &mut eval)
            .is_err());
    }
}

#[test]
fn cancel_frees_the_lane_and_keeps_survivors_bit_identical() {
    let net = networks().remove(0);
    let seqs: Vec<Vec<Vector>> = (0..3)
        .map(|i| seq(12, net.input_size(), 970 + i as u64))
        .collect();
    // Reference: dedicated runs for the two surviving sequences.
    let mut reference = Vec::new();
    for s in &seqs[1..] {
        reference.push(net.run(s, &mut ExactEvaluator::new()).unwrap());
    }
    let mut sched = LaneScheduler::new(&net, 3).unwrap();
    let mut eval = ExactEvaluator::new();
    eval.begin_batch(3);
    for (i, s) in seqs.iter().enumerate() {
        sched.admit(i as u64, s.clone(), &mut eval).unwrap();
    }
    let mut finished = Vec::new();
    // One block in (8 of 12 timesteps), abort token 0 mid-sequence.
    sched.step(&net, &mut eval, &mut finished).unwrap();
    assert!(finished.is_empty());
    let cancelled = sched.cancel(0, &mut eval).expect("token 0 in flight");
    assert_eq!(cancelled.token, 0);
    assert_eq!(cancelled.outputs.len(), 8, "one block of partial outputs");
    assert_eq!(cancelled.stats_lane, 2, "compacted to the tail");
    assert_eq!(sched.free_lanes(), 1, "the lane is free immediately");
    assert!(sched.cancel(0, &mut eval).is_none(), "already evicted");
    // Drain the survivors; their outputs must be unaffected.
    while sched.step(&net, &mut eval, &mut finished).unwrap() > 0 {}
    finished.sort_by_key(|f| f.token);
    assert_eq!(finished.len(), 2);
    for (f, reference) in finished.iter().zip(reference.iter()) {
        assert_eq!(&f.outputs, reference, "survivor token {}", f.token);
    }
}

#[test]
fn a_seated_lockstep_lane_cancels_like_any_other_lane() {
    // Three sequences seated on a bidirectional stack, none run
    // yet: cancelling the middle one (a deadline abort) reports
    // through the ordinary cancelled-lane path — a lane index, no
    // outputs — and the survivors still match dedicated runs.
    let net = bidirectional();
    let seqs: Vec<Vec<Vector>> = [4usize, 9, 6]
        .iter()
        .enumerate()
        .map(|(i, &n)| seq(n, net.input_size(), 980 + i as u64))
        .collect();
    let mut sched = LaneScheduler::new(&net, 3).unwrap();
    let mut eval = CountingEvaluator::new(ExactEvaluator::new());
    eval.begin_batch(3);
    for (i, s) in seqs.iter().enumerate() {
        assert_eq!(sched.admit(i as u64, s.clone(), &mut eval).unwrap(), i);
    }
    assert_eq!(eval.sequences(), 3, "every admission begins its lane");
    let cancelled = sched.cancel(1, &mut eval).expect("token 1 is seated");
    assert_eq!(cancelled.token, 1);
    assert!(cancelled.outputs.is_empty(), "it never stepped");
    assert_eq!(cancelled.stats_lane, 2, "compacted to the tail");
    assert_eq!(sched.active_lanes(), 2);
    let mut finished = Vec::new();
    assert_eq!(sched.step(&net, &mut eval, &mut finished).unwrap(), 4 + 6);
    assert!(sched.is_idle());
    assert_eq!(finished.len(), 2);
    for f in &finished {
        let reference = net
            .run(&seqs[f.token as usize], &mut ExactEvaluator::new())
            .unwrap();
        assert_eq!(f.outputs, reference, "survivor token {}", f.token);
    }
    // Longest first: token 2 (6 steps) ran on lane 0.
    let lane_of = |token| {
        finished
            .iter()
            .find(|f| f.token == token)
            .unwrap()
            .stats_lane
    };
    assert_eq!((lane_of(2), lane_of(0)), (0, 1));
}

#[test]
fn idle_scheduler_steps_zero_lanes() {
    for net in [networks().remove(0), bidirectional()] {
        let mut sched = LaneScheduler::new(&net, 3).unwrap();
        assert!(sched.is_idle());
        assert_eq!(sched.lanes(), 3);
        assert_eq!(sched.active_lanes(), 0);
        let mut eval = ExactEvaluator::new();
        let mut finished = Vec::new();
        assert_eq!(sched.step(&net, &mut eval, &mut finished).unwrap(), 0);
        assert!(finished.is_empty());
    }
}

/// The stacks the one driver is pinned on: bidirectional two-layer
/// LSTM and GRU with a head, and a unidirectional three-layer GRU.
fn driver_networks() -> Vec<DeepRnn> {
    let mut rng = DeterministicRng::seed_from_u64(41);
    let bidi = |kind| {
        DeepRnnConfig::new(kind, 4, 5)
            .layers(2)
            .direction(Direction::Bidirectional)
            .output_size(3)
    };
    vec![
        DeepRnn::random(&bidi(CellKind::Lstm), &mut rng).unwrap(),
        DeepRnn::random(&bidi(CellKind::Gru), &mut rng).unwrap(),
        DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 4, 6).layers(3), &mut rng).unwrap(),
    ]
}

/// `run` per sequence, `run_batch` and a drained scheduler at 1, 2,
/// 3 and 8 lanes: the same outputs bit for bit and the same
/// evaluation and sequence counts, whatever `wrap` puts around the
/// exact evaluator.
fn assert_every_entry_point_agrees<E: NeuronEvaluator>(wrap: impl Fn(ExactEvaluator) -> E) {
    // Below, at, and across one and two block boundaries.
    let lens = [9usize, 1, 8, 17, 3, 16];
    for net in driver_networks() {
        let seqs: Vec<Vec<Vector>> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| seq(n, net.input_size(), 700 + i as u64))
            .collect();
        let mut single = CountingEvaluator::new(wrap(ExactEvaluator::new()));
        let reference: Vec<Vec<Vector>> = seqs
            .iter()
            .map(|s| net.run(s, &mut single).unwrap())
            .collect();
        let steps: usize = lens.iter().sum();
        assert_eq!(
            single.calls() as usize,
            steps * net.neuron_evaluations_per_step()
        );

        let refs: Vec<&[Vector]> = seqs.iter().map(Vec::as_slice).collect();
        let mut batch = CountingEvaluator::new(wrap(ExactEvaluator::new()));
        let batched = net.run_batch(&refs, &mut batch).unwrap();
        assert_bitwise_eq(&batched, &reference, "run_batch");
        assert_eq!(
            (batch.calls(), batch.sequences()),
            (single.calls(), single.sequences())
        );

        for lanes in [1usize, 2, 3, 8] {
            let mut eval = CountingEvaluator::new(wrap(ExactEvaluator::new()));
            let outs = drain_scheduler(&net, lanes, &seqs, &mut eval);
            assert_bitwise_eq(&outs, &reference, &format!("scheduler lanes={lanes}"));
            assert_eq!(
                (eval.calls(), eval.sequences()),
                (single.calls(), single.sequences()),
                "lanes={lanes}"
            );
        }
    }
}

#[test]
fn run_run_batch_and_the_scheduler_agree_under_the_batched_evaluator() {
    assert_every_entry_point_agrees(|exact| exact);
}

/// The exact policy written one neuron at a time.
struct PerNeuronExact;

impl NeuronEvaluator for PerNeuronExact {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> Result<()> {
        let wh = call.gate.wh();
        evaluate_neurons(call, out, |id, _, h, fwd| {
            Ok(fwd + wh.row_dot(id.neuron, h)?)
        })
    }
}

#[test]
fn run_run_batch_and_the_scheduler_agree_under_the_per_neuron_evaluator() {
    assert_every_entry_point_agrees(|_| PerNeuronExact);
}

#[test]
fn backward_half_is_the_forward_half_over_the_reversed_sequence() {
    // One bidirectional layer whose two cells are the same cell: the
    // backward half at `t` must be what the forward half produces at
    // `n - 1 - t` of the reversed sequence, across block boundaries
    // and in a ragged batch.
    let mut rng = DeterministicRng::seed_from_u64(6);
    for kind in [CellKind::Lstm, CellKind::Gru] {
        let cell = Cell::random(kind, 2, 3, false, &mut rng).unwrap();
        let layer = Layer::new(0, cell.clone(), Some(cell)).unwrap();
        let net = DeepRnn::new(vec![layer], None).unwrap();
        let seqs: Vec<Vec<Vector>> = [3usize, 19, 8, 1]
            .iter()
            .map(|&n| seq(n, 2, 7 + n as u64))
            .collect();
        let reversed: Vec<Vec<Vector>> = seqs
            .iter()
            .map(|s| s.iter().rev().cloned().collect())
            .collect();
        let run = |batch: &[Vec<Vector>]| {
            let refs: Vec<&[Vector]> = batch.iter().map(Vec::as_slice).collect();
            net.run_batch(&refs, &mut ExactEvaluator::new()).unwrap()
        };
        let (out, out_rev) = (run(&seqs), run(&reversed));
        for (lane, rev_lane) in out.iter().zip(&out_rev) {
            let n = lane.len();
            for t in 0..n {
                assert_eq!(
                    lane[t].as_slice()[3..],
                    rev_lane[n - 1 - t].as_slice()[..3],
                    "n={n} t={t}"
                );
            }
        }
    }
}

#[test]
fn empty_sequences_are_typed_errors_and_single_steps_are_results() {
    // ROADMAP 7(d) at this layer: `run`, `run_batch` and `admit`,
    // uni- and bidirectional.
    for net in driver_networks() {
        let mut eval = ExactEvaluator::new();
        let one = seq(1, net.input_size(), 3);
        let none: Vec<Vector> = Vec::new();
        assert!(matches!(
            net.run(&none, &mut eval),
            Err(RnnError::EmptySequence)
        ));
        assert!(matches!(
            net.run_batch(&[one.as_slice(), none.as_slice()], &mut eval),
            Err(RnnError::EmptySequence)
        ));
        let mut sched = LaneScheduler::new(&net, 2).unwrap();
        eval.begin_batch(2);
        assert!(matches!(
            sched.admit(0, Vec::new(), &mut eval),
            Err(RnnError::EmptySequence)
        ));
        assert!(sched.is_idle(), "a refused sequence takes no lane");

        let single = net.run(&one, &mut ExactEvaluator::new()).unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].len(), net.output_size());
        // The same step as the first of a longer run over the same
        // input would differ only in the backward half, so compare
        // against the other entry points instead.
        let longer = seq(4, net.input_size(), 4);
        let batched = net
            .run_batch(&[longer.as_slice(), one.as_slice()], &mut eval)
            .unwrap();
        assert_eq!(batched[1], single);
        sched.admit(7, one.clone(), &mut eval).unwrap();
        let mut finished = Vec::new();
        assert_eq!(sched.step(&net, &mut eval, &mut finished).unwrap(), 1);
        assert_eq!((finished[0].token, &finished[0].outputs), (7, &single));
    }
}
