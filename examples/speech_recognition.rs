//! Speech recognition scenario (DeepSpeech2 / EESEN style): sweep the
//! memoization threshold on an audio-like workload and print the
//! reuse-vs-WER-loss trade-off, i.e. a miniature of Figures 1 and 16.
//!
//! ```text
//! cargo run --release --example speech_recognition
//! ```

use nfm::memo::{BnnMemoConfig, OracleMemoConfig, Predictor, PredictorKind};
use nfm::workloads::{NetworkId, WorkloadBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = WorkloadBuilder::new(NetworkId::DeepSpeech2)
        .scale(0.1)
        .layers(3)
        .sequences(2)
        .sequence_length(60)
        .seed(7)
        .build()?;
    println!(
        "DeepSpeech2-like workload: {} GRU layers, {} neurons, {} audio frames/sequence",
        workload.network().layers().len(),
        workload.network().layers()[0].forward_cell().hidden_size(),
        workload.sequences()[0].len()
    );

    let (model, sequences) = (workload.model(), workload.sequences());
    let baseline = PredictorKind::Exact.run(model, sequences)?;

    println!(
        "\n{:>10} {:>18} {:>18} {:>14} {:>14}",
        "threshold", "oracle reuse (%)", "bnn reuse (%)", "oracle WER loss", "bnn WER loss"
    );
    for theta in [0.0_f32, 0.1, 0.2, 0.3, 0.4, 0.6] {
        let oracle =
            PredictorKind::Oracle(OracleMemoConfig::with_threshold(theta)).run(model, sequences)?;
        let bnn = PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta)).run(model, sequences)?;
        let oracle_loss = workload
            .metric()
            .batch_loss(&baseline.outputs, &oracle.outputs);
        let bnn_loss = workload
            .metric()
            .batch_loss(&baseline.outputs, &bnn.outputs);
        println!(
            "{theta:>10.2} {:>18.1} {:>18.1} {:>14.2} {:>14.2}",
            oracle.reuse_percent(),
            bnn.reuse_percent(),
            oracle_loss,
            bnn_loss
        );
    }

    println!("\nAudio frames change slowly between timesteps, so even modest thresholds");
    println!("let the BNN predictor skip a large share of the full-precision dot products.");
    Ok(())
}
