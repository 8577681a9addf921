//! Accelerator scenario: measure the computation reuse functionally, then
//! project it onto the full-size E-PUR+BM accelerator to obtain the
//! paper's energy/speedup numbers (Figures 17–19).
//!
//! ```text
//! cargo run --release --example accelerator_sim
//! ```

use nfm::accel::{EpurConfig, EpurSimulator, LayerShape, NetworkShape};
use nfm::memo::{BnnMemoConfig, Predictor, PredictorKind};
use nfm::workloads::{NetworkId, NetworkSpec, WorkloadBuilder};

fn full_scale_shape(spec: &NetworkSpec) -> NetworkShape {
    let directions = spec.direction.cells_per_layer();
    let mut layers = Vec::new();
    let mut input = spec.input_features;
    for _ in 0..spec.layers {
        layers.push(LayerShape {
            neurons: spec.neurons,
            input_size: input,
            hidden_size: spec.neurons,
            gates: spec.cell.gates(),
            directions,
        });
        input = spec.neurons * directions;
    }
    NetworkShape::new(layers)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let simulator = EpurSimulator::new(EpurConfig::default());
    println!(
        "E-PUR: {} CUs, DPU width {}, {} MHz  |  area {:.1} mm2 -> {:.1} mm2 with memoization",
        simulator.config().computation_units,
        simulator.config().dpu_width,
        simulator.config().frequency_hz / 1e6,
        simulator.area_model().baseline_mm2(),
        simulator.area_model().with_memoization_mm2()
    );

    println!(
        "\n{:<16} {:>10} {:>12} {:>12} {:>10}",
        "network", "reuse (%)", "energy (mJ)", "savings (%)", "speedup"
    );
    for id in [
        NetworkId::ImdbSentiment,
        NetworkId::DeepSpeech2,
        NetworkId::Eesen,
        NetworkId::Mnmt,
    ] {
        let spec = NetworkSpec::of(id);
        // Functional measurement on a scaled-down instance.
        let workload = WorkloadBuilder::new(id)
            .scale(0.08)
            .layers(spec.layers.min(3))
            .sequences(2)
            .sequence_length(30)
            .seed(11)
            .build()?;
        let memo = PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5))
            .run(workload.model(), workload.sequences())?;
        let reuse = memo.reuse_fraction();

        // Hardware projection on the full Table 1 topology.
        let shape = full_scale_shape(&spec);
        let timesteps = spec.typical_sequence_length as u64;
        let cmp = simulator.compare(&shape, timesteps, 1, reuse);
        println!(
            "{:<16} {:>10.1} {:>12.2} {:>12.1} {:>9.2}x",
            spec.id.to_string(),
            reuse * 100.0,
            cmp.memoized.total_energy_joules() * 1e3,
            cmp.energy_savings() * 100.0,
            cmp.speedup()
        );
    }

    println!("\nEnergy savings track the reuse fraction scaled by the share of energy spent");
    println!("on weight fetches and dot products; main-memory energy is unaffected.");
    Ok(())
}
