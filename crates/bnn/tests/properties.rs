//! Property-style tests for the binarized-network substrate, exercised
//! over seeded deterministic sampling loops (the container has no
//! `proptest`).

use nfm_bnn::binarize::{binarize_sign, reference_binary_dot};
use nfm_bnn::{BinaryGate, BinaryNetwork, BitVector};
use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig, Gate};
use nfm_tensor::activation::Activation;
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::{Matrix, Vector};

fn vec_f32(rng: &mut DeterministicRng, len: usize, low: f32, high: f32) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(low, high)).collect()
}

#[test]
fn packed_dot_matches_reference_for_any_length() {
    let mut rng = DeterministicRng::seed_from_u64(1);
    for _ in 0..48 {
        let len = rng.index(512);
        let a = vec_f32(&mut rng, len, -3.0, 3.0);
        let b = vec_f32(&mut rng, len, -3.0, 3.0);
        let pa = BitVector::from_signs(&a);
        let pb = BitVector::from_signs(&b);
        if a.is_empty() {
            assert_eq!(pa.xnor_dot(&pb).unwrap(), 0);
        } else {
            assert_eq!(pa.xnor_dot(&pb).unwrap(), reference_binary_dot(&a, &b));
        }
    }
}

#[test]
fn hamming_distance_and_dot_are_consistent() {
    let mut rng = DeterministicRng::seed_from_u64(2);
    for _ in 0..48 {
        let len = 1 + rng.index(199);
        let a = vec_f32(&mut rng, len, -1.0, 1.0);
        let b = vec_f32(&mut rng, len, -1.0, 1.0);
        let pa = BitVector::from_signs(&a);
        let pb = BitVector::from_signs(&b);
        let dot = pa.xnor_dot(&pb).unwrap();
        let ham = pa.hamming_distance(&pb).unwrap();
        assert_eq!(dot, a.len() as i32 - 2 * ham as i32);
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
        for n in 0..neurons {
            let packed = bg.neuron_output_from_raw(n, &x, &h).unwrap();
            let reference = reference_binary_dot(gate.wx().row(n), &x)
                + reference_binary_dot(gate.wh().row(n), &h);
            assert_eq!(packed, reference);
            assert!(packed.abs() <= (input + hidden) as i32);
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

#[test]
fn xnor_dot_is_identical_on_every_popcount_tier_around_word_boundaries() {
    // The dispatch satellite of the SIMD-kernel PR: every popcount tier
    // the host supports must produce the exact scalar result for widths
    // straddling the 64-bit word boundary (full-word counts, one-bit
    // tails, multi-chunk widths that engage the 8-word vpopcntdq loop).
    use nfm_bnn::PopcountBackend;
    let widths = [
        1usize, 7, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257, 511, 512, 513, 1023,
        1024, 1025,
    ];
    let mut rng = DeterministicRng::seed_from_u64(6);
    let supported = PopcountBackend::supported();
    assert!(supported.contains(&PopcountBackend::Scalar));
    for &len in &widths {
        let a = vec_f32(&mut rng, len, -3.0, 3.0);
        let b = vec_f32(&mut rng, len, -3.0, 3.0);
        let pa = BitVector::from_signs(&a);
        let pb = BitVector::from_signs(&b);
        let reference = pa.xnor_dot_on(&pb, PopcountBackend::Scalar).unwrap();
        assert_eq!(
            reference,
            reference_binary_dot(&a, &b),
            "scalar vs unpacked, len {len}"
        );
        assert_eq!(
            pa.xnor_dot(&pb).unwrap(),
            reference,
            "active tier, len {len}"
        );
        for &backend in &supported {
            assert_eq!(
                pa.xnor_dot_on(&pb, backend).unwrap(),
                reference,
                "len {len} backend {backend}"
            );
        }
    }
}

#[test]
fn xnor_dot_on_validates_lengths_and_empty_operands() {
    use nfm_bnn::PopcountBackend;
    let a = BitVector::from_signs(&[1.0, -1.0, 1.0]);
    let b = BitVector::from_signs(&[1.0, -1.0]);
    assert!(a.xnor_dot_on(&b, PopcountBackend::Scalar).is_err());
    let empty = BitVector::from_signs(&[]);
    assert_eq!(
        empty.xnor_dot_on(&empty, PopcountBackend::Scalar).unwrap(),
        0
    );
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
    use nfm_bnn::PopcountBackend;
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
            for backend in PopcountBackend::supported() {
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

/// The packed predict on every supported tier against (a) the
/// per-neuron `neuron_output` and (b) `reference_binary_dot` on the raw
/// f32 rows, for one gate shape and lane count.
fn check_packed_predict(rows: usize, isz: usize, hsz: usize, lanes: usize, seed: u64) {
    use nfm_bnn::PopcountBackend;
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
    for backend in PopcountBackend::supported() {
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
        let (xb, hb) = bg.binarize_inputs(x, h);
        for n in 0..rows {
            let reference = reference_binary_dot(gate.wx().row(n), x)
                + reference_binary_dot(gate.wh().row(n), h);
            assert_eq!(
                bg.neuron_output(n, &xb, &hb).unwrap(),
                reference,
                "{what}: per-neuron vs f32 reference, lane {l} neuron {n}"
            );
            expected[l * rows + n] = reference;
        }
    }
    let mut packed = nfm_tensor::LineBuf::default();
    bg.pack_inputs(&xs, &hs, lanes, &mut packed);
    for backend in PopcountBackend::supported() {
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
