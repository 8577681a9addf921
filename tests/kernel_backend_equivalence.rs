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
//!   sizes serving actually runs) and proves whole-workload runs are
//!   deterministic under the dispatched kernels;
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
