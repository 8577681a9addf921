//! Dispatch-tier equivalence at workload scale.
//!
//! The SIMD dispatch layer's contract is that `NFM_KERNEL_BACKEND` is a
//! pure performance knob: every tier computes bit-identical kernels, so
//! every downstream quantity — gate pre-activations, memoization
//! hit/miss sequences, reuse statistics, engine responses — is
//! byte-for-byte independent of the tier.  Coverage is layered:
//!
//! * `crates/tensor/tests/backend_kernels.rs` pins every kernel of
//!   every supported tier to the scalar reference across remainder
//!   shapes (kernel-level identity ⇒ end-to-end identity, since all
//!   float arithmetic on the inference path flows through those kernels
//!   and the BNN popcount is integer-exact);
//! * this file re-checks the identity on *gate-shaped* operands (the
//!   sizes serving actually runs), proves whole-workload runs are
//!   deterministic under the dispatched kernels, pins the rounding
//!   itself with a known answer that only one rounding per multiply-add
//!   produces (so tiers cannot agree on the wrong rounding), and holds
//!   the dispatched entry points' own suite (`entry_points`);
//! * the CI `kernel-matrix` job re-runs the entire workspace (including
//!   all of the above plus the serving_engine / batched_lanes /
//!   multi_model equivalence suites) once per backend, and diffs a
//!   deterministic example's output across tiers cross-process.

/// The per-kernel tier suite of `crates/tensor` (every kernel of every
/// supported tier against the scalar reference, the register tiles at
/// every edge), mounted here so the umbrella package's tier-1
/// `cargo test -q` runs it too.
#[path = "../crates/tensor/tests/backend_kernels.rs"]
mod backend_kernels;

use nfm::memo::{BnnMemoConfig, OracleMemoConfig, Predictor, PredictorKind};
use nfm::tensor::activation::Activation;
use nfm::tensor::backend::KernelBackend;
use nfm::tensor::kernels::{
    activate_into_on, dot_unchecked_on, dual_matmul_into_on, dual_matvec_into_on,
    matmul_add_into_on, matmul_into_on,
};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Matrix;
use nfm::workloads::{NetworkId, Workload, WorkloadBuilder};

fn workload() -> Workload {
    WorkloadBuilder::new(NetworkId::ImdbSentiment)
        .scale(0.25)
        .sequences(3)
        .sequence_length(12)
        .seed(11)
        .build()
        .expect("workload builds")
}

#[test]
fn gate_shaped_kernels_are_bit_identical_across_supported_tiers() {
    // The shapes the serving engine actually runs: IMDB-class gates
    // (128 neurons over 64 inputs / 128 hidden) and the EESEN-class
    // widths, at serving lane counts.
    let mut rng = DeterministicRng::seed_from_u64(42);
    for (rows, xc, hc, lanes) in [(128usize, 64usize, 128usize, 8usize), (80, 39, 80, 5)] {
        let wx = Matrix::from_fn(rows, xc, |_, _| rng.uniform(-1.0, 1.0));
        let wh = Matrix::from_fn(rows, hc, |_, _| rng.uniform(-1.0, 1.0));
        let x: Vec<f32> = (0..xc).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let h: Vec<f32> = (0..hc).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let xs: Vec<f32> = (0..lanes * xc).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let hs: Vec<f32> = (0..lanes * hc).map(|_| rng.uniform(-1.0, 1.0)).collect();

        let mut single_ref = vec![0.0f32; rows];
        dual_matvec_into_on(KernelBackend::Scalar, &wx, &wh, &x, &h, &mut single_ref).unwrap();
        let mut batch_ref = vec![0.0f32; lanes * rows];
        dual_matmul_into_on(
            KernelBackend::Scalar,
            &wx,
            &wh,
            &xs,
            &hs,
            lanes,
            &mut batch_ref,
        )
        .unwrap();
        let dot_ref = dot_unchecked_on(KernelBackend::Scalar, wx.as_slice(), wx.as_slice());

        for backend in KernelBackend::supported() {
            let mut single = vec![f32::NAN; rows];
            dual_matvec_into_on(backend, &wx, &wh, &x, &h, &mut single).unwrap();
            let mut batch = vec![f32::NAN; lanes * rows];
            dual_matmul_into_on(backend, &wx, &wh, &xs, &hs, lanes, &mut batch).unwrap();
            for (i, (a, e)) in single.iter().zip(single_ref.iter()).enumerate() {
                assert_eq!(a.to_bits(), e.to_bits(), "{backend} single[{i}]");
            }
            for (i, (a, e)) in batch.iter().zip(batch_ref.iter()).enumerate() {
                assert_eq!(a.to_bits(), e.to_bits(), "{backend} batch[{i}]");
            }
            assert_eq!(
                dot_unchecked_on(backend, wx.as_slice(), wx.as_slice()).to_bits(),
                dot_ref.to_bits(),
                "{backend} long dot"
            );
        }
    }
}

#[test]
fn hoisted_pair_equals_fused_gate_on_every_supported_tier() {
    // What the exact and the memoized paths actually run: one
    // `matmul_into` hoists the forward block `W_x·x`, then
    // `matmul_add_into` adds the recurrent half per step.  On every
    // tier the pair must equal the fused `dual_matmul_into` and the
    // scalar tier bit for bit — at the benchmark's gate widths (400:
    // DeepSpeech2-shape GRU, 128: IMDB-shape LSTM) plus a width that is
    // not a multiple of the 16-lane chunk, from one lane up to a full
    // 8-lane × 8-step hoist block (64 rows); and (three-row gates) at
    // every remainder length of the 16-wide dot chunk, which pins the
    // tiers' four-lane dot to the scalar one length by length.
    let mut rng = DeterministicRng::seed_from_u64(43);
    let gates = [(400usize, 400usize, 400usize), (128, 64, 128), (37, 23, 37)];
    let remainders = (1..=33)
        .chain([47, 48, 49, 63, 64, 65, 129, 257])
        .map(|len| (3, len, 2));
    for (rows, xc, hc) in gates.into_iter().chain(remainders) {
        let wx = Matrix::from_fn(rows, xc, |_, _| rng.uniform(-1.0, 1.0));
        let wh = Matrix::from_fn(rows, hc, |_, _| rng.uniform(-1.0, 1.0));
        for lanes in [1usize, 2, 3, 5, 8, 64] {
            let xs: Vec<f32> = (0..lanes * xc).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let hs: Vec<f32> = (0..lanes * hc).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut reference = vec![0.0f32; lanes * rows];
            dual_matmul_into_on(
                KernelBackend::Scalar,
                &wx,
                &wh,
                &xs,
                &hs,
                lanes,
                &mut reference,
            )
            .unwrap();
            for backend in KernelBackend::supported() {
                let tag = format!("{rows}x{xc}x{hc} lanes {lanes} {backend}");
                let mut fused = vec![f32::NAN; lanes * rows];
                dual_matmul_into_on(backend, &wx, &wh, &xs, &hs, lanes, &mut fused).unwrap();
                let mut fwd = vec![f32::NAN; lanes * rows];
                matmul_into_on(backend, &wx, &xs, lanes, &mut fwd).unwrap();
                let mut hoisted = vec![f32::NAN; lanes * rows];
                matmul_add_into_on(backend, &wh, &hs, lanes, &fwd, &mut hoisted).unwrap();
                for (i, e) in reference.iter().enumerate() {
                    assert_eq!(fused[i].to_bits(), e.to_bits(), "{tag} fused[{i}]");
                    assert_eq!(hoisted[i].to_bits(), e.to_bits(), "{tag} hoisted[{i}]");
                }
            }
        }
    }
}

#[test]
fn every_tier_rounds_each_multiply_add_once() {
    // One chunk loads `-(1 + 2⁻¹¹)` into an accumulator, a later one adds
    // `x·x` with `x = 1 + 2⁻¹²`.  `x·x = 1 + 2⁻¹¹ + 2⁻²⁴` exactly; a
    // fused multiply-add keeps the `2⁻²⁴`, a separate multiply rounds it
    // away (a tie, to even) and the sum cancels to `0`.  Each row holds
    // the case once, in a 16-wide body lane or in the `len % 16` tail,
    // and every other product is zero, so every dot is exactly `2⁻²⁴`
    // on a tier that rounds once and `0` on one that rounds twice.
    let x = 1.0 + 2.0f32.powi(-12);
    let neg = -(1.0 + 2.0f32.powi(-11));
    let fused = 2.0f32.powi(-24);
    assert_eq!(x.mul_add(x, neg), fused, "the operands discriminate");
    assert_eq!(neg + x * x, 0.0, "the operands discriminate");

    // `b` is all ones in the first chunk and all `x` after it, so row
    // `a` picks its own case lane: `a[l] = neg`, `a[16 + l] = x`.
    let cols = 2 * 16 + 2;
    let b: Vec<f32> = (0..cols)
        .map(|i| if i < 16 || i == 32 { 1.0 } else { x })
        .collect();
    let row = |case: usize| {
        let mut a = vec![0.0f32; cols];
        // Cases 0..16 sit in body lane `case`, case 16 in the tail.
        let at = if case < 16 { case } else { 32 };
        a[at] = neg;
        a[at + if case < 16 { 16 } else { 1 }] = x;
        a
    };
    for backend in KernelBackend::supported() {
        for case in 0..=16 {
            let place = if case < 16 {
                format!("body lane {case}")
            } else {
                "tail".to_string()
            };
            let got = dot_unchecked_on(backend, &row(case), &b);
            assert_eq!(
                got.to_bits(),
                fused.to_bits(),
                "{backend} dot, case in the {place}: {got:e} — a tier that rounds each \
                 multiply-add twice gives 0"
            );
        }
        // Seventeen rows (every case) against up to nine lanes walks the
        // 4 × 4 tile, the lane-quad and row-quad edges, the lane pair
        // and the single dot.
        let m = Matrix::from_rows((0..=16).map(row).collect()).unwrap();
        for lanes in [1usize, 2, 3, 4, 5, 9] {
            let xs: Vec<f32> = (0..lanes).flat_map(|_| b.iter().copied()).collect();
            let mut out = vec![f32::NAN; lanes * 17];
            matmul_into_on(backend, &m, &xs, lanes, &mut out).unwrap();
            let mut added = vec![f32::NAN; lanes * 17];
            let base = vec![0.0f32; lanes * 17];
            matmul_add_into_on(backend, &m, &xs, lanes, &base, &mut added).unwrap();
            for (i, (p, q)) in out.iter().zip(&added).enumerate() {
                let (lane, case) = (i / 17, i % 17);
                let tag = format!("{backend} lanes {lanes}: lane {lane} row {case}");
                assert_eq!(p.to_bits(), fused.to_bits(), "matmul {tag}: {p:e}");
                assert_eq!(q.to_bits(), fused.to_bits(), "matmul_add {tag}: {q:e}");
            }
        }
    }
}

#[test]
fn activation_matches_the_scalar_tier_at_every_remainder_length() {
    // Lengths around every vector width a tier may pick (4/8/16 lanes,
    // unrolled), each with NaN / inf / denormal payloads mixed into
    // gate-range values so a tier that handles them differently in its
    // vector body than in its scalar tail cannot hide.
    let lens = (1..=33usize)
        .chain(47..=49)
        .chain(63..=65)
        .chain([129, 257, 1024]);
    let poison = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -f32::MIN_POSITIVE / 2.0,
        -0.0,
        1e30,
    ];
    let mut rng = DeterministicRng::seed_from_u64(45);
    for len in lens {
        let mut input: Vec<f32> = (0..len).map(|_| rng.uniform(-12.0, 12.0)).collect();
        for (k, p) in poison.iter().enumerate() {
            // Coprime strides spread the payloads over body and tail.
            input[(k * 5 + len / 2) % len] = *p;
        }
        for activation in [
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Relu,
            Activation::HardSigmoid,
            Activation::Identity,
        ] {
            let mut reference = input.clone();
            activate_into_on(KernelBackend::Scalar, activation, &mut reference);
            for backend in KernelBackend::supported() {
                let mut out = input.clone();
                activate_into_on(backend, activation, &mut out);
                for (i, (a, e)) in out.iter().zip(reference.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        e.to_bits(),
                        "{backend} {activation:?} len {len} [{i}] input {}",
                        input[i]
                    );
                }
            }
        }
    }
}

#[test]
fn whole_workload_runs_are_deterministic_under_dispatch() {
    // Two identical runs through every predictor must agree exactly —
    // outputs and reuse statistics — on whichever tier is active.
    // Combined with kernel-level tier identity (above) this gives
    // cross-tier end-to-end identity; the CI kernel-matrix job verifies
    // it cross-process as well.
    let w = workload();
    for predictor in [
        PredictorKind::Exact,
        PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.4)),
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
    ] {
        let name = predictor.name();
        let a = predictor.run(w.model(), w.sequences()).expect("first run");
        let b = predictor.run(w.model(), w.sequences()).expect("second run");
        assert_eq!(a.stats, b.stats, "{name}: stats drifted between runs");
        assert_eq!(
            a.outputs.len(),
            b.outputs.len(),
            "{name}: output counts differ"
        );
        for (s, (seq_a, seq_b)) in a.outputs.iter().zip(b.outputs.iter()).enumerate() {
            assert_eq!(seq_a.len(), seq_b.len(), "{name}: sequence {s} length");
            for (t, (va, vb)) in seq_a.iter().zip(seq_b.iter()).enumerate() {
                for (i, (x, y)) in va.iter().zip(vb.iter()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{name}: seq {s} step {t} element {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn packed_bnn_predict_matches_its_references_on_every_popcount_tier() {
    // The memoized workload's own mirror gates at a serving lane count:
    // on every popcount tier the packed predict equals the per-neuron
    // `neuron_output` and the unpacked sign product of the f32 rows
    // (`crates/bnn/tests/properties.rs`, mounted as
    // `tests/bnn_packed_predict.rs`, sweeps the boundary shapes).
    use nfm::bnn::binarize::reference_binary_dot;
    use nfm::bnn::{BinaryNetwork, PopcountBackend};
    let w = workload();
    let mirror = BinaryNetwork::mirror(w.network());
    let mut rng = DeterministicRng::seed_from_u64(43);
    let lanes = 8;
    for (id, gate) in w.network().gates() {
        let bg = mirror.gate(id).expect("every gate is mirrored");
        let (rows, isz, hsz) = (gate.neurons(), gate.input_size(), gate.hidden_size());
        let xs: Vec<f32> = (0..lanes * isz).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let hs: Vec<f32> = (0..lanes * hsz).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut expected = vec![0i32; lanes * rows];
        for l in 0..lanes {
            let (x, h) = (&xs[l * isz..(l + 1) * isz], &hs[l * hsz..(l + 1) * hsz]);
            let (xb, hb) = bg.binarize_inputs(x, h);
            for n in 0..rows {
                expected[l * rows + n] = bg.neuron_output(n, &xb, &hb).unwrap();
                assert_eq!(
                    expected[l * rows + n],
                    reference_binary_dot(gate.wx().row(n), x)
                        + reference_binary_dot(gate.wh().row(n), h),
                    "{id:?} lane {l} neuron {n}: per-neuron vs f32 rows"
                );
            }
        }
        let mut packed = Vec::new();
        bg.pack_inputs(&xs, &hs, lanes, &mut packed);
        for pop in PopcountBackend::supported() {
            let mut out = vec![i32::MIN; lanes * rows];
            bg.predict_packed_on(pop, &packed, &mut out);
            assert_eq!(out, expected, "{id:?} on {pop}");
        }
    }
}

#[test]
fn active_backend_is_reported_and_supported() {
    let active = nfm::tensor::backend::active();
    assert!(active.is_supported());
    // Breadcrumb for CI logs: which tier did this test process run on?
    println!("active kernel backend: {active}");
    println!("active popcount backend: {}", nfm::bnn::popcount::active());
}

/// The dispatched entry points (`dot_unchecked`, `matvec_into`,
/// `dual_matvec_into`, `matmul_into`, `dual_matmul_into`,
/// `matmul_add_into`) against the checked `Vector` / `Matrix` forms and
/// each other: shape validation, lane-by-lane identity with the
/// one-lane forms, and the hoisted pair against the fused gate.
mod entry_points {
    use nfm::tensor::backend::KernelBackend;
    use nfm::tensor::kernels::{
        dot_unchecked, dot_unchecked_on, dual_matmul_into, dual_matvec_into, matmul_add_into,
        matmul_into, matvec_into,
    };
    use nfm::tensor::rng::DeterministicRng;
    use nfm::tensor::vector::dot;
    use nfm::tensor::{Matrix, Vector};

    fn random_matrix(rng: &mut DeterministicRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
    }

    #[test]
    fn dot_unchecked_matches_checked_dot_bitwise() {
        let mut rng = DeterministicRng::seed_from_u64(1);
        for len in [0usize, 1, 3, 7, 8, 9, 16, 31, 64, 100, 257] {
            let a: Vec<f32> = (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect();
            assert_eq!(
                dot_unchecked(&a, &b).to_bits(),
                dot(&a, &b).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn dot_unchecked_is_accurate() {
        // Compare against a f64 reference on a long vector.
        let mut rng = DeterministicRng::seed_from_u64(2);
        let a: Vec<f32> = (0..1000).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..1000).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let reference: f64 = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum();
        assert!((dot_unchecked(&a, &b) as f64 - reference).abs() < 1e-3);
    }

    #[test]
    fn every_supported_backend_matches_scalar_dot_bitwise() {
        // The exhaustive per-kernel suite is `backend_kernels`; this is
        // the dispatched entry points' smoke check.
        let mut rng = DeterministicRng::seed_from_u64(21);
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 250] {
            let a: Vec<f32> = (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let reference = dot_unchecked_on(KernelBackend::Scalar, &a, &b);
            for backend in KernelBackend::supported() {
                assert_eq!(
                    dot_unchecked_on(backend, &a, &b).to_bits(),
                    reference.to_bits(),
                    "len {len} backend {backend}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not supported on this host")]
    fn explicit_unsupported_backend_panics() {
        // At most one of these two can exist on any one target.
        let foreign = if cfg!(target_arch = "aarch64") {
            KernelBackend::Avx2
        } else {
            KernelBackend::Neon
        };
        let _ = dot_unchecked_on(foreign, &[1.0], &[1.0]);
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let mut rng = DeterministicRng::seed_from_u64(3);
        for (rows, cols) in [(1, 1), (3, 5), (8, 8), (13, 21)] {
            let m = random_matrix(&mut rng, rows, cols);
            let x: Vec<f32> = (0..cols).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut out = vec![0.0f32; rows];
            matvec_into(&m, &x, &mut out).unwrap();
            let reference = m.matvec(&Vector::from(x)).unwrap();
            assert_eq!(out.as_slice(), reference.as_slice());
        }
    }

    #[test]
    fn matvec_into_validates_shapes() {
        let m = Matrix::zeros(2, 3);
        let mut out = vec![0.0; 2];
        assert!(matvec_into(&m, &[1.0, 2.0], &mut out).is_err());
        let mut short = vec![0.0; 1];
        assert!(matvec_into(&m, &[1.0, 2.0, 3.0], &mut short).is_err());
    }

    #[test]
    fn dual_matvec_matches_row_dots_bitwise() {
        let mut rng = DeterministicRng::seed_from_u64(4);
        let (neurons, input, hidden) = (9, 13, 9);
        let wx = random_matrix(&mut rng, neurons, input);
        let wh = random_matrix(&mut rng, neurons, hidden);
        let x: Vec<f32> = (0..input).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let h: Vec<f32> = (0..hidden).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut out = vec![0.0f32; neurons];
        dual_matvec_into(&wx, &wh, &x, &h, &mut out).unwrap();
        for (n, &o) in out.iter().enumerate() {
            let reference = wx.row_dot(n, &x).unwrap() + wh.row_dot(n, &h).unwrap();
            assert_eq!(o.to_bits(), reference.to_bits(), "neuron {n}");
        }
    }

    #[test]
    fn dual_matvec_validates_shapes() {
        let wx = Matrix::zeros(2, 3);
        let wh = Matrix::zeros(2, 2);
        let mut out = vec![0.0; 2];
        assert!(dual_matvec_into(&wx, &wh, &[0.0; 2], &[0.0; 2], &mut out).is_err());
        assert!(dual_matvec_into(&wx, &wh, &[0.0; 3], &[0.0; 3], &mut out).is_err());
        let mut short = vec![0.0; 1];
        assert!(dual_matvec_into(&wx, &wh, &[0.0; 3], &[0.0; 2], &mut short).is_err());
        let wh_bad = Matrix::zeros(3, 2);
        assert!(dual_matvec_into(&wx, &wh_bad, &[0.0; 3], &[0.0; 2], &mut out).is_err());
    }

    #[test]
    fn matmul_lane_zero_matches_matvec_bitwise() {
        let mut rng = DeterministicRng::seed_from_u64(6);
        for lanes in [1usize, 2, 4, 5] {
            let (rows, cols) = (7, 13);
            let m = random_matrix(&mut rng, rows, cols);
            let xs: Vec<f32> = (0..lanes * cols).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut out = vec![0.0f32; lanes * rows];
            matmul_into(&m, &xs, lanes, &mut out).unwrap();
            for l in 0..lanes {
                let mut single = vec![0.0f32; rows];
                matvec_into(&m, &xs[l * cols..(l + 1) * cols], &mut single).unwrap();
                for r in 0..rows {
                    assert_eq!(
                        out[l * rows + r].to_bits(),
                        single[r].to_bits(),
                        "lane {l} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_into_validates_shapes() {
        let m = Matrix::zeros(2, 3);
        let mut out = vec![0.0; 4];
        assert!(matmul_into(&m, &[0.0; 5], 2, &mut out).is_err());
        let mut short = vec![0.0; 3];
        assert!(matmul_into(&m, &[0.0; 6], 2, &mut short).is_err());
        assert!(matmul_into(&m, &[0.0; 6], 2, &mut out).is_ok());
    }

    #[test]
    fn dual_matmul_lanes_match_dual_matvec_bitwise() {
        // Row and lane counts straddling the 4x4 tile edges: full
        // tiles, row remainders, lane remainders and sub-tile shapes
        // must all stay bit-identical to the single-lane kernel.
        let mut rng = DeterministicRng::seed_from_u64(7);
        for (neurons, lanes) in [
            (9usize, 3usize),
            (8, 4),
            (4, 8),
            (5, 5),
            (1, 1),
            (3, 7),
            (12, 9),
            (7, 13),
        ] {
            let (input, hidden) = (12, neurons);
            let wx = random_matrix(&mut rng, neurons, input);
            let wh = random_matrix(&mut rng, neurons, hidden);
            let xs: Vec<f32> = (0..lanes * input).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let hs: Vec<f32> = (0..lanes * hidden)
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect();
            let mut out = vec![0.0f32; lanes * neurons];
            dual_matmul_into(&wx, &wh, &xs, &hs, lanes, &mut out).unwrap();
            for l in 0..lanes {
                let mut single = vec![0.0f32; neurons];
                dual_matvec_into(
                    &wx,
                    &wh,
                    &xs[l * input..(l + 1) * input],
                    &hs[l * hidden..(l + 1) * hidden],
                    &mut single,
                )
                .unwrap();
                for n in 0..neurons {
                    assert_eq!(
                        out[l * neurons + n].to_bits(),
                        single[n].to_bits(),
                        "rows {neurons} lanes {lanes}: lane {l} neuron {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn dual_matmul_validates_shapes() {
        let wx = Matrix::zeros(2, 3);
        let wh = Matrix::zeros(2, 2);
        let mut out = vec![0.0; 4];
        assert!(dual_matmul_into(&wx, &wh, &[0.0; 5], &[0.0; 4], 2, &mut out).is_err());
        assert!(dual_matmul_into(&wx, &wh, &[0.0; 6], &[0.0; 3], 2, &mut out).is_err());
        let mut short = vec![0.0; 3];
        assert!(dual_matmul_into(&wx, &wh, &[0.0; 6], &[0.0; 4], 2, &mut short).is_err());
        assert!(dual_matmul_into(&wx, &wh, &[0.0; 6], &[0.0; 4], 2, &mut out).is_ok());
    }

    #[test]
    fn matmul_add_is_bit_identical_to_fused_dual() {
        // Hoisting splits fwd and rec halves; base + rec must reproduce
        // the fused fwd + rec result exactly.
        let mut rng = DeterministicRng::seed_from_u64(8);
        let (neurons, input, hidden, lanes) = (6, 10, 6, 4);
        let wx = random_matrix(&mut rng, neurons, input);
        let wh = random_matrix(&mut rng, neurons, hidden);
        let xs: Vec<f32> = (0..lanes * input).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let hs: Vec<f32> = (0..lanes * hidden)
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        let mut fused = vec![0.0f32; lanes * neurons];
        dual_matmul_into(&wx, &wh, &xs, &hs, lanes, &mut fused).unwrap();
        let mut fwd = vec![0.0f32; lanes * neurons];
        matmul_into(&wx, &xs, lanes, &mut fwd).unwrap();
        let mut hoisted = vec![0.0f32; lanes * neurons];
        matmul_add_into(&wh, &hs, lanes, &fwd, &mut hoisted).unwrap();
        for (i, (a, b)) in fused.iter().zip(hoisted.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "index {i}");
        }
        let mut short = vec![0.0f32; 3];
        assert!(matmul_add_into(&wh, &hs, lanes, &fwd, &mut short).is_err());
        assert!(matmul_add_into(&wh, &[0.0; 3], lanes, &fwd, &mut hoisted).is_err());
    }
}
