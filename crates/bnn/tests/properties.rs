//! Property-style tests for the binarized-network substrate, exercised
//! over seeded deterministic sampling loops (the container has no
//! `proptest`).

use nfm_bnn::binarize::{binarize_sign, reference_binary_dot};
use nfm_bnn::{BinaryGate, BinaryNetwork, BitVector, CorrelationProbe, NeuronSeries};
use nfm_rnn::{
    CellKind, DeepRnn, DeepRnnConfig, ExactEvaluator, Gate, GateBatch, GateId, NeuronEvaluator,
    Result as RnnResult,
};
use nfm_tensor::activation::Activation;
use nfm_tensor::backend::KernelBackend;
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::{Matrix, Vector};
use std::collections::HashMap;

fn vec_f32(rng: &mut DeterministicRng, len: usize, low: f32, high: f32) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(low, high)).collect()
}

/// The XNOR-popcount dot product of `a` and `b` through the packed
/// predictor: a one-neuron mirror whose forward row is `a[..k]` and
/// recurrent row `a[k..]`, fed `b` split the same way.
fn packed_dot(a: &[f32], b: &[f32], k: usize) -> i32 {
    let row = |v: &[f32]| Matrix::from_fn(1, v.len(), |_, c| v[c]);
    let gate = Gate::new(
        row(&a[..k]),
        row(&a[k..]),
        Vector::zeros(1),
        None,
        Activation::Sigmoid,
    )
    .unwrap();
    let bg = BinaryGate::mirror(&gate);
    let mut packed = nfm_tensor::LineBuf::default();
    bg.pack_inputs(&b[..k], &b[k..], 1, &mut packed);
    let mut out = [i32::MIN];
    bg.predict_packed_into(&packed, &mut out);
    out[0]
}

#[test]
fn packed_dot_matches_reference_for_any_length() {
    let mut rng = DeterministicRng::seed_from_u64(1);
    for _ in 0..48 {
        let len = 1 + rng.index(511);
        let k = rng.index(len + 1);
        let a = vec_f32(&mut rng, len, -3.0, 3.0);
        let b = vec_f32(&mut rng, len, -3.0, 3.0);
        assert_eq!(
            packed_dot(&a, &b, k),
            reference_binary_dot(&a, &b),
            "len {len} split {k}"
        );
    }
}

#[test]
fn binarization_is_sign_preserving() {
    let mut rng = DeterministicRng::seed_from_u64(3);
    for _ in 0..256 {
        let x = rng.uniform(-100.0, 100.0);
        let b = binarize_sign(x);
        assert!(b == 1.0 || b == -1.0);
        if x != 0.0 {
            assert_eq!(b.signum(), x.signum());
        }
    }
}

#[test]
fn binary_gate_output_is_bounded_and_matches_unpacked_reference() {
    let mut outer = DeterministicRng::seed_from_u64(4);
    for _ in 0..48 {
        let neurons = 1 + outer.index(5);
        let input = 1 + outer.index(11);
        let hidden = 1 + outer.index(11);
        let seed = outer.index(500) as u64;
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let gate =
            Gate::random(neurons, input, hidden, Activation::Sigmoid, false, &mut rng).unwrap();
        let bg = BinaryGate::mirror(&gate);
        let x = vec_f32(&mut rng, input, -1.0, 1.0);
        let h = vec_f32(&mut rng, hidden, -1.0, 1.0);
        let mut packed = nfm_tensor::LineBuf::default();
        bg.pack_inputs(&x, &h, 1, &mut packed);
        let mut out = vec![i32::MIN; neurons];
        bg.predict_packed_into(&packed, &mut out);
        for (n, &y) in out.iter().enumerate() {
            let reference = reference_binary_dot(gate.wx().row(n), &x)
                + reference_binary_dot(gate.wh().row(n), &h);
            assert_eq!(y, reference);
            assert!(y.abs() <= (input + hidden) as i32);
        }
    }
}

#[test]
fn mirror_sign_bits_equal_weight_count() {
    let mut outer = DeterministicRng::seed_from_u64(5);
    for _ in 0..48 {
        let layers = 1 + outer.index(2);
        let hidden = 2 + outer.index(6);
        let seed = outer.index(300) as u64;
        let cfg = DeepRnnConfig::new(CellKind::Gru, 4, hidden).layers(layers);
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        let mirror = BinaryNetwork::mirror(&net);
        assert_eq!(mirror.total_sign_bits(), net.weight_count());
        assert_eq!(mirror.gate_count(), net.gates().len());
    }
}

/// Values whose sign bit, ordering against zero or exponent could
/// tempt a vector compare into a different answer than `x >= 0.0`.
const PAYLOADS: [f32; 10] = [
    f32::NAN,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MIN_POSITIVE / 2.0,  // positive denormal
    -f32::MIN_POSITIVE / 2.0, // negative denormal
    0.0,
    f32::MAX,
    f32::MIN,
    -1.0e-30,
];

/// Random values with the payloads (and a negated, sign-bit-set NaN)
/// planted on both sides of every 64-value word boundary, at the ends,
/// and across the 16-value groups of the avx512 compare.
fn planted(rng: &mut DeterministicRng, len: usize) -> Vec<f32> {
    let mut v = vec_f32(rng, len, -1.0, 1.0);
    let mut next = rng.index(PAYLOADS.len());
    let mut spots: Vec<usize> = vec![0, 1, 15, 16, 17, len.saturating_sub(1)];
    for boundary in (64..len + 64).step_by(64) {
        spots.extend([boundary - 2, boundary - 1, boundary, boundary + 1]);
    }
    for at in spots.into_iter().filter(|&at| at < len) {
        v[at] = PAYLOADS[next % PAYLOADS.len()];
        next += 1;
    }
    if len > 40 {
        v[40] = -f32::NAN;
    }
    v
}

#[test]
fn sign_pack_is_the_scalar_bit_rule_on_every_tier_with_zero_tails() {
    use nfm_bnn::popcount::{pack_signs, pack_signs_on};
    let mut rng = DeterministicRng::seed_from_u64(7);
    for len in (0..=130).chain([1024]) {
        for round in 0..3 {
            let values = if round == 0 {
                // Every payload at every position of the first words.
                (0..len)
                    .map(|i| PAYLOADS[(i + len) % PAYLOADS.len()])
                    .collect()
            } else {
                planted(&mut rng, len)
            };
            // The rule, bit by bit (NaN -> 0, -0.0 -> 1), tail bits zero.
            let mut expected = vec![0u64; len.div_ceil(64)];
            for (i, &x) in values.iter().enumerate() {
                expected[i / 64] |= u64::from(binarize_sign(x) == 1.0) << (i % 64);
            }
            for backend in KernelBackend::supported() {
                // Stale ones everywhere: the pack must write whole words.
                let mut packed = vec![u64::MAX; len.div_ceil(64)];
                pack_signs_on(backend, &values, &mut packed);
                assert_eq!(packed, expected, "len {len} round {round} {backend}");
            }
            let mut active = vec![u64::MAX; len.div_ceil(64)];
            pack_signs(&values, &mut active);
            assert_eq!(active, expected, "len {len} round {round} active tier");
            assert_eq!(BitVector::from_signs(&values).words(), expected);
        }
    }
}

/// The packed predict on every supported tier against
/// `reference_binary_dot` on the raw f32 rows, neuron by neuron, for
/// one gate shape and lane count.
fn check_packed_predict(rows: usize, isz: usize, hsz: usize, lanes: usize, seed: u64) {
    let what = format!("rows {rows} widths {isz}+{hsz} lanes {lanes}");
    let mut rng = DeterministicRng::seed_from_u64(seed);
    // Degenerate weights too: the mirror is packed by the same rule.
    let mut wx = Matrix::from_fn(rows, isz, |_, _| rng.uniform(-1.0, 1.0));
    let mut wh = Matrix::from_fn(rows, hsz, |_, _| rng.uniform(-1.0, 1.0));
    wx.row_mut(rows - 1)
        .copy_from_slice(&planted(&mut rng, isz));
    wh.row_mut(0).copy_from_slice(&planted(&mut rng, hsz));
    let gate = Gate::new(wx, wh, Vector::zeros(rows), None, Activation::Sigmoid).unwrap();
    let bg = BinaryGate::mirror(&gate);
    for backend in KernelBackend::supported() {
        assert_eq!(
            BinaryGate::mirror_on(backend, &gate),
            bg,
            "{what}: mirror on {backend}"
        );
    }
    let xs: Vec<f32> = (0..lanes).flat_map(|_| planted(&mut rng, isz)).collect();
    let hs: Vec<f32> = (0..lanes).flat_map(|_| planted(&mut rng, hsz)).collect();

    let mut expected = vec![0i32; lanes * rows];
    for l in 0..lanes {
        let (x, h) = (&xs[l * isz..(l + 1) * isz], &hs[l * hsz..(l + 1) * hsz]);
        for n in 0..rows {
            expected[l * rows + n] = reference_binary_dot(gate.wx().row(n), x)
                + reference_binary_dot(gate.wh().row(n), h);
        }
    }
    let mut packed = nfm_tensor::LineBuf::default();
    bg.pack_inputs(&xs, &hs, lanes, &mut packed);
    for backend in KernelBackend::supported() {
        let mut out = vec![i32::MIN; lanes * rows];
        bg.predict_packed_on(backend, &packed, &mut out);
        assert_eq!(out, expected, "{what}: packed predict on {backend}");
    }
    let mut out = vec![i32::MIN; lanes * rows];
    bg.predict_packed_into(&packed, &mut out);
    assert_eq!(out, expected, "{what}: packed predict on the active tier");
}

#[test]
fn packed_predict_equals_per_neuron_and_f32_reference_on_every_tier() {
    const ROWS: [usize; 7] = [1, 7, 8, 9, 33, 128, 400];
    const WIDTHS: [usize; 7] = [1, 63, 64, 65, 80, 161, 400];
    const LANES: [usize; 4] = [1, 3, 8, 9];
    let mut seed = 100;
    for rows in ROWS {
        for isz in WIDTHS {
            for hsz in WIDTHS {
                for lanes in LANES {
                    check_packed_predict(rows, isz, hsz, lanes, seed);
                    seed += 1;
                }
            }
        }
    }
}

/// Wraps a [`CorrelationProbe`] and records, per gate call, the series
/// the probe must record, from references it shares no code with: the
/// exact evaluator's values and the unpacked sign product of the f32
/// rows (zero where the call's gate has no mirror of its shape).
struct ProbeWitness {
    probe: CorrelationProbe,
    mirror: BinaryNetwork,
    expected: HashMap<(GateId, usize), NeuronSeries>,
}

impl NeuronEvaluator for ProbeWitness {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        let gate = call.gate;
        let (isz, hsz, nsz) = (gate.input_size(), gate.hidden_size(), gate.neurons());
        let mut exact = vec![0.0; call.lanes * nsz];
        ExactEvaluator::new().evaluate_gate_batch(call, &mut exact)?;
        let mirrored = self
            .mirror
            .gate(call.gate_id)
            .is_some_and(|bg| (bg.neurons(), bg.input_size(), bg.hidden_size()) == (nsz, isz, hsz));
        for l in 0..call.lanes {
            let x = &call.xs[l * isz..(l + 1) * isz];
            let h = &call.h_prevs[l * hsz..(l + 1) * hsz];
            for n in 0..nsz {
                let binarized = if mirrored {
                    reference_binary_dot(gate.wx().row(n), x)
                        + reference_binary_dot(gate.wh().row(n), h)
                } else {
                    0
                };
                let series = self.expected.entry((call.gate_id, n)).or_default();
                series.full_precision.push(exact[l * nsz + n]);
                series.binarized.push(binarized as f32);
            }
        }
        self.probe.evaluate_gate_batch(call, out)
    }
}

#[test]
fn the_probe_records_the_exact_value_and_the_unpacked_sign_product() {
    let cfg = DeepRnnConfig::new(CellKind::Lstm, 70, 65).layers(2);
    let mut rng = DeterministicRng::seed_from_u64(8);
    let net = DeepRnn::random(&cfg, &mut rng).unwrap();
    // A mirror of another shape: its gates stand in for none of `net`'s.
    let other = DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 9, 7), &mut rng).unwrap();
    let seqs: Vec<Vec<Vector>> = [12, 9, 5]
        .iter()
        .map(|&len| {
            (0..len)
                .map(|_| Vector::from_fn(70, |_| rng.uniform(-1.0, 1.0)))
                .collect()
        })
        .collect();
    for mirror in [BinaryNetwork::mirror(&net), BinaryNetwork::mirror(&other)] {
        for lanes in [1, 3] {
            let mut witness = ProbeWitness {
                probe: CorrelationProbe::new(mirror.clone()),
                mirror: mirror.clone(),
                expected: HashMap::new(),
            };
            let outputs = if lanes == 1 {
                vec![net.run(&seqs[0], &mut witness).unwrap()]
            } else {
                let refs: Vec<&[Vector]> = seqs.iter().map(Vec::as_slice).collect();
                net.run_batch(&refs, &mut witness).unwrap()
            };
            for (l, lane) in outputs.iter().enumerate() {
                assert_eq!(
                    lane,
                    &net.run(&seqs[l], &mut ExactEvaluator::new()).unwrap()
                );
            }
            assert_eq!(witness.expected.len(), net.neuron_evaluations_per_step());
            assert!(witness.expected.values().all(|s| !s.is_empty()));
            assert!(witness.probe.series() == &witness.expected, "{lanes} lanes");
        }
    }
}
