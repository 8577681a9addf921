//! Sentiment-classification scenario (IMDB style): pick the deployable
//! threshold with the Section 3.2.1 exploration, then verify the chosen
//! operating point on held-out sequences.
//!
//! ```text
//! cargo run --release --example sentiment_analysis
//! ```

use nfm::memo::{BnnMemoConfig, Predictor, PredictorKind, ThresholdExplorer};
use nfm::workloads::{NetworkId, WorkloadBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // "Training set": the sequences used to calibrate the threshold.
    let calibration = WorkloadBuilder::new(NetworkId::ImdbSentiment)
        .scale(0.25)
        .sequences(6)
        .sequence_length(40)
        .seed(100)
        .build()?;
    // "Test set": a different seed, so different reviews.
    let test = WorkloadBuilder::new(NetworkId::ImdbSentiment)
        .scale(0.25)
        .sequences(6)
        .sequence_length(40)
        .seed(200)
        .build()?;

    let calibration_baseline =
        PredictorKind::Exact.run(calibration.model(), calibration.sequences())?;

    // Explore thresholds on the calibration set (Section 3.2.1): highest
    // reuse with less than 1% accuracy loss.
    let explorer = ThresholdExplorer::linspace(2.0, 11);
    let chosen = explorer
        .explore(
            |theta| {
                let outcome = PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta))
                    .run(calibration.model(), calibration.sequences())
                    .expect("calibration run");
                let loss = calibration
                    .metric()
                    .batch_loss(&calibration_baseline.outputs, &outcome.outputs);
                (outcome.reuse_fraction(), loss)
            },
            1.0,
        )
        .expect("at least the zero threshold qualifies");

    println!(
        "chosen threshold θ = {:.2} (calibration reuse {:.1}%, accuracy loss {:.2}%)",
        chosen.threshold,
        chosen.reuse * 100.0,
        chosen.accuracy_loss
    );

    // Apply the chosen threshold to the test set.
    let test_baseline = PredictorKind::Exact.run(test.model(), test.sequences())?;
    let deployed = PredictorKind::Bnn(BnnMemoConfig::with_threshold(chosen.threshold))
        .run(test.model(), test.sequences())?;
    let test_loss = test
        .metric()
        .batch_loss(&test_baseline.outputs, &deployed.outputs);
    println!(
        "test set: reuse {:.1}%, accuracy loss {:.2}%",
        deployed.reuse_percent(),
        test_loss
    );
    println!("\nThe threshold is chosen once per model and reused at inference time,");
    println!("exactly as the paper does with its training sets.");
    Ok(())
}
