//! Microbenchmarks and ablations underneath the paper's headline results:
//!
//! * the full-precision dot product, per dispatch tier (the BNN
//!   predictor's packed kernel has its rungs in `inference_throughput`),
//! * exact inference vs oracle vs BNN-memoized inference on one workload,
//! * the throttling ablation (Figure 11's mechanism) at a fixed threshold,
//! * the accelerator model itself (baseline vs memoized projection).

use nfm_accel::{EpurConfig, EpurSimulator, LayerShape, NetworkShape};
use nfm_bench::Bencher;
use nfm_bnn::BinaryNetwork;
use nfm_core::{BnnMemoConfig, BnnMemoEvaluator, OracleMemoConfig, Predictor, PredictorKind};
use nfm_rnn::ExactEvaluator;
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::vector::dot;
use nfm_workloads::{NetworkId, WorkloadBuilder};
use std::hint::black_box;

fn dot_products(bench: &mut Bencher) {
    let mut rng = DeterministicRng::seed_from_u64(1);
    for &len in &[256usize, 1024, 4096] {
        let a: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
        bench.bench(&format!("dot_product/fp32/{len}"), || {
            dot(black_box(&a), black_box(&b)).unwrap()
        });
        // The same products once per dispatch tier the host supports
        // (all tiers are bit-identical; this isolates ISA throughput —
        // the committed per-backend entries live in
        // inference_throughput's kernel/* group).
        for backend in nfm_tensor::backend::KernelBackend::supported() {
            bench.bench(&format!("dot_product/fp32_{backend}/{len}"), || {
                black_box(nfm_tensor::kernels::dot_unchecked_on(
                    backend,
                    black_box(&a),
                    black_box(&b),
                ))
            });
        }
    }
}

fn inference_modes(bench: &mut Bencher) {
    let workload = WorkloadBuilder::new(NetworkId::Eesen)
        .scale(0.05)
        .layers(2)
        .sequences(1)
        .sequence_length(16)
        .seed(3)
        .build()
        .expect("workload");
    bench.bench("inference/exact", || {
        let mut evaluator = ExactEvaluator::new();
        for seq in workload.sequences() {
            black_box(workload.network().run(seq, &mut evaluator).unwrap());
        }
    });
    let run = |predictor: PredictorKind| {
        black_box(
            predictor
                .run(workload.model(), workload.sequences())
                .unwrap(),
        )
    };
    bench.bench("inference/oracle_memoized", || {
        run(PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.4)))
    });
    bench.bench("inference/bnn_memoized", || {
        run(PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.4)))
    });
    bench.bench("inference/bnn_memoized_no_throttling", || {
        run(PredictorKind::Bnn(
            BnnMemoConfig::with_threshold(0.4).without_throttling(),
        ))
    });
    // The evaluator in isolation, reusing a pre-built binary mirror (the
    // mirror corresponds to static sign-buffer contents in hardware).
    let mirror = BinaryNetwork::mirror(workload.network());
    bench.bench("inference/bnn_evaluator_reused_mirror", || {
        let mut evaluator =
            BnnMemoEvaluator::new(mirror.clone(), BnnMemoConfig::with_threshold(0.4));
        for seq in workload.sequences() {
            black_box(workload.network().run(seq, &mut evaluator).unwrap());
        }
    });
}

fn accelerator_model(bench: &mut Bencher) {
    let shape = NetworkShape::new(
        (0..10)
            .map(|i| LayerShape {
                neurons: 320,
                input_size: if i == 0 { 40 } else { 640 },
                hidden_size: 320,
                gates: 4,
                directions: 2,
            })
            .collect(),
    );
    let sim = EpurSimulator::new(EpurConfig::default());
    bench.bench("accelerator/baseline_projection", || {
        black_box(sim.simulate_baseline(black_box(&shape), 200))
    });
    bench.bench("accelerator/memoized_projection", || {
        black_box(sim.simulate_memoized(black_box(&shape), 200, 0.305))
    });
}

fn main() {
    let (mut bench, save) = Bencher::from_args();
    dot_products(&mut bench);
    inference_modes(&mut bench);
    accelerator_model(&mut bench);
    if let Some(path) = save {
        bench.save_json(&path, &[]).expect("snapshot written");
    }
}
