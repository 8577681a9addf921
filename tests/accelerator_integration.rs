//! Integration tests spanning the functional model and the accelerator
//! simulator: reuse measured by `nfm-core` drives E-PUR+BM projections.

use nfm::accel::{EpurConfig, EpurSimulator, NetworkShape};
use nfm::eval::harness::shape_from_spec;
use nfm::memo::{BnnMemoConfig, Predictor, PredictorKind};
use nfm::workloads::{NetworkId, NetworkSpec, WorkloadBuilder};

/// Measures reuse on a scaled-down functional model, but — like the paper
/// and the eval harness — projects it onto the *full-size* Table 1
/// topology for the hardware study (tiny models would be dominated by the
/// fixed 5-cycle FMU latency).
fn measured_reuse(id: NetworkId, theta: f32) -> (f64, NetworkShape, u64) {
    let w = WorkloadBuilder::new(id)
        .scale(0.06)
        .layers(2)
        .sequences(2)
        .sequence_length(20)
        .seed(13)
        .build()
        .unwrap();
    let memo = PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta))
        .run(w.model(), w.sequences())
        .unwrap();
    let spec = NetworkSpec::of(id);
    let shape = shape_from_spec(&spec);
    let timesteps = spec.typical_sequence_length as u64;
    (memo.reuse_fraction(), shape, timesteps)
}

#[test]
fn measured_reuse_translates_into_energy_and_time_savings() {
    let (reuse, shape, timesteps) = measured_reuse(NetworkId::Eesen, 1.0);
    assert!(reuse > 0.05, "need some reuse for this test, got {reuse}");
    let sim = EpurSimulator::new(EpurConfig::default());
    let cmp = sim.compare(&shape, timesteps, 2, reuse);
    assert!(cmp.speedup() > 1.0, "speedup {}", cmp.speedup());
    assert!(cmp.energy_savings() > 0.0);
    assert!(
        cmp.energy_savings() < reuse,
        "savings ({}) cannot exceed the reuse fraction ({reuse})",
        cmp.energy_savings()
    );
}

#[test]
fn baseline_simulation_is_independent_of_measured_reuse() {
    let (r1, shape, timesteps) = measured_reuse(NetworkId::ImdbSentiment, 0.5);
    let (r2, _, _) = measured_reuse(NetworkId::ImdbSentiment, 2.0);
    assert_ne!(r1, r2);
    let sim = EpurSimulator::new(EpurConfig::default());
    let a = sim.compare(&shape, timesteps, 1, r1).baseline;
    let b = sim.compare(&shape, timesteps, 1, r2).baseline;
    assert_eq!(a.cycles, b.cycles);
    assert!((a.total_energy_joules() - b.total_energy_joules()).abs() < 1e-12);
}

#[test]
fn more_reuse_never_hurts_hardware_metrics() {
    let (_, shape, timesteps) = measured_reuse(NetworkId::DeepSpeech2, 1.0);
    let sim = EpurSimulator::new(EpurConfig::default());
    let mut last_speedup = 0.0;
    let mut last_savings = f64::NEG_INFINITY;
    for reuse in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let cmp = sim.compare(&shape, timesteps, 1, reuse);
        assert!(cmp.speedup() >= last_speedup);
        assert!(cmp.energy_savings() >= last_savings);
        last_speedup = cmp.speedup();
        last_savings = cmp.energy_savings();
    }
}

#[test]
fn scaled_shape_and_full_scale_shape_are_consistent() {
    // The functional network (scaled) and the Table 1 network (full) have
    // different sizes but the same structure; per-step evaluation counts
    // must scale with neurons * gates * directions.
    let w = WorkloadBuilder::new(NetworkId::Eesen)
        .scale(0.1)
        .layers(2)
        .sequences(1)
        .sequence_length(4)
        .seed(3)
        .build()
        .unwrap();
    let shape = NetworkShape::from_network(w.network());
    assert_eq!(
        shape.neurons_per_step(),
        w.network().neuron_evaluations_per_step()
    );
    assert_eq!(shape.weight_count(), w.network().weight_count());
    assert!(shape.layers().iter().all(|l| l.directions == 2));
    assert!(shape.layers().iter().all(|l| l.gates == 4));
}
