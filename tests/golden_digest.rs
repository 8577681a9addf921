//! Numerics pinned across commits: a digest of every output bit and
//! every `ReuseStats` count of the four Table 1 networks at test scale,
//! under the exact predictor, BNN memoization at θ ∈ {0.1, 0.5, 2.0} and
//! the oracle, each at 1 and 8 lanes.
//!
//! Every dispatch tier rounds once per multiply-add in one canonical
//! order and activations are one rational with no libm, so these digests
//! are a function of the weights, the inputs and θ only — the same on
//! every tier (CI's `kernel-matrix` job runs this file once per tier).
//! A change that claims bit-identical outputs leaves the table alone; a
//! change that moves numerics edits it and says why.

use nfm::memo::{
    BnnMemoConfig, OracleMemoConfig, Predictor, PredictorKind, ReuseStats, ServedEvaluator,
};
use nfm::rnn::LaneScheduler;
use nfm::tensor::Vector;
use nfm::workloads::{NetworkId, WorkloadBuilder};

/// `(network, case, digest)`; each digest must come out of both lane
/// counts.
const GOLDEN: [(&str, &str, u64); 20] = [
    ("IMDB Sentiment", "exact", 0x2d37_6eb1_45d7_684a),
    ("IMDB Sentiment", "bnn-0.1", 0x3297_394f_e0dd_0988),
    ("IMDB Sentiment", "bnn-0.5", 0xf8c5_7edb_ef20_8dc3),
    ("IMDB Sentiment", "bnn-2", 0x529b_d601_339d_1b9a),
    ("IMDB Sentiment", "oracle-0.5", 0xbfc1_2da8_f8b1_a69b),
    ("DeepSpeech2", "exact", 0xbb42_5878_c896_928b),
    ("DeepSpeech2", "bnn-0.1", 0x6c15_340f_ba3d_d381),
    ("DeepSpeech2", "bnn-0.5", 0x2539_e611_cf91_787f),
    ("DeepSpeech2", "bnn-2", 0x877e_167a_dc10_10d1),
    ("DeepSpeech2", "oracle-0.5", 0xdca9_d5a4_b455_eac8),
    ("EESEN", "exact", 0x0be5_8ba0_584d_231c),
    ("EESEN", "bnn-0.1", 0x2436_251a_1c37_1d58),
    ("EESEN", "bnn-0.5", 0x2928_077a_f7c8_ef05),
    ("EESEN", "bnn-2", 0xa52e_0912_b895_d3b7),
    ("EESEN", "oracle-0.5", 0xe790_9b80_c4f1_f82d),
    ("MNMT", "exact", 0x8b8d_d090_82d6_6710),
    ("MNMT", "bnn-0.1", 0xc2b6_e2d1_081b_f554),
    ("MNMT", "bnn-0.5", 0xc618_890f_22ce_9da5),
    ("MNMT", "bnn-2", 0x5488_919c_3d3e_b52d),
    ("MNMT", "oracle-0.5", 0x9e1f_e807_1b7e_31c4),
];

fn cases() -> [(&'static str, PredictorKind); 5] {
    let bnn = |theta| PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta));
    [
        ("exact", PredictorKind::Exact),
        ("bnn-0.1", bnn(0.1)),
        ("bnn-0.5", bnn(0.5)),
        ("bnn-2", bnn(2.0)),
        (
            "oracle-0.5",
            PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.5)),
        ),
    ]
}

/// FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, stats: Option<ReuseStats>) {
        match stats {
            None => self.word(u64::MAX),
            Some(s) => {
                for count in [
                    s.evaluations(),
                    s.reuses(),
                    s.bnn_evaluations(),
                    s.audited(),
                ] {
                    self.word(count);
                }
            }
        }
    }
}

/// Ten sequences of ragged lengths (4 to 14 steps), so that at 8 lanes
/// lanes drain at different steps and are refilled mid-flight.
fn sequences(id: NetworkId) -> (nfm::memo::Model, Vec<Vec<Vector>>) {
    let workload = WorkloadBuilder::new(id)
        .scale(0.06)
        .layers(2)
        .sequences(10)
        .sequence_length(14)
        .seed(36)
        .build()
        .expect("workload builds");
    let seqs = workload
        .sequences()
        .iter()
        .enumerate()
        .map(|(i, s)| s[..4 + (i * 5) % 11].to_vec())
        .collect();
    (workload.model().clone(), seqs)
}

/// Runs `seqs` through a `lanes`-wide lane scheduler, refilling freed
/// lanes, and digests every output bit and every sequence's lane
/// statistics in input order, then the evaluator's aggregate counts,
/// which it also returns.
fn digest(
    model: &nfm::memo::Model,
    predictor: PredictorKind,
    seqs: &[Vec<Vector>],
    lanes: usize,
) -> (u64, ReuseStats) {
    let net = model.network();
    let mut evaluator: Box<dyn ServedEvaluator> = predictor.build_evaluator(model);
    let mut sched = LaneScheduler::new(net, lanes).unwrap();
    evaluator.begin_batch(lanes);
    let mut results = vec![None; seqs.len()];
    let mut queue = seqs.iter().cloned().enumerate();
    let mut finished = Vec::new();
    loop {
        while sched.free_lanes() > 0 {
            let Some((i, s)) = queue.next() else { break };
            sched.admit(i as u64, s, evaluator.as_mut()).unwrap();
        }
        if sched.step(net, evaluator.as_mut(), &mut finished).unwrap() == 0 {
            break;
        }
        for f in finished.drain(..) {
            let stats = evaluator.take_lane_stats(f.stats_lane);
            results[f.token as usize] = Some((f.outputs, stats));
        }
    }
    let mut d = Digest::new();
    for result in results {
        let (outputs, stats) = result.expect("every sequence finished");
        for y in outputs.iter().flat_map(|v| v.iter()) {
            d.word(u64::from(y.to_bits()));
        }
        d.stats(stats);
    }
    let total = evaluator
        .stats_snapshot()
        .expect("built-ins keep aggregate counts");
    d.stats(Some(total));
    (d.0, total)
}

#[test]
fn outputs_and_reuse_counts_match_the_golden_digests() {
    let mut actual = Vec::new();
    let mut mismatches = Vec::new();
    for id in NetworkId::ALL {
        let (model, seqs) = sequences(id);
        for (case, predictor) in cases() {
            let (one, total) = digest(&model, predictor, &seqs, 1);
            let (eight, _) = digest(&model, predictor, &seqs, 8);
            assert_eq!(one, eight, "{id} {case}: 1 and 8 lanes must agree");
            // The memoized cases pin decisions, not only exact values.
            let memoized = !matches!(predictor, PredictorKind::Exact);
            assert_eq!(memoized, total.reuses() > 0, "{id} {case}: {total:?}");
            actual.push((id.name(), case, one));
        }
    }
    for (got, want) in actual.iter().zip(GOLDEN.iter()) {
        if got != want {
            mismatches.push(format!("{got:?} (golden {:#018x})", want.2));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}\nactual table:\n{}",
        mismatches.join("\n"),
        actual
            .iter()
            .map(|(n, c, d)| format!("    ({n:?}, {c:?}, {d:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
