//! Quickstart: run one workload under exact inference, the oracle
//! predictor and the BNN predictor, and compare reuse and accuracy.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nfm::memo::{BnnMemoConfig, OracleMemoConfig, Predictor, PredictorKind};
use nfm::tensor::Vector;
use nfm::workloads::{NetworkId, WorkloadBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down EESEN-like workload: 10-layer bidirectional LSTM in the
    // paper; here 3 layers at 10% width so the example runs in seconds.
    let workload = WorkloadBuilder::new(NetworkId::Eesen)
        .scale(0.1)
        .layers(3)
        .sequences(2)
        .sequence_length(40)
        .seed(42)
        .build()?;

    println!("workload: {}", workload.spec().id);
    println!(
        "  cell: {} x {} layers x {} neurons (scale {:.2})",
        workload.spec().cell.name(),
        workload.network().layers().len(),
        workload.network().layers()[0].forward_cell().hidden_size(),
        workload.scale()
    );
    println!(
        "  neuron evaluations per run: {}",
        workload.total_neuron_evaluations()
    );

    // Every run below goes through the workload's one `Model`, so the
    // BNN predictor's binary mirror is built once and shared.
    let (model, sequences) = (workload.model(), workload.sequences());

    // 1. Exact baseline.
    let baseline = PredictorKind::Exact.run(model, sequences)?;
    println!("\nexact baseline: reuse = {:.1}%", baseline.reuse_percent());

    // 2. Oracle predictor (upper bound, Figure 1).
    let oracle =
        PredictorKind::Oracle(OracleMemoConfig::with_threshold(0.4)).run(model, sequences)?;
    let oracle_loss = workload
        .metric()
        .batch_loss(&baseline.outputs, &oracle.outputs);
    println!(
        "oracle  (θ=0.40): reuse = {:>5.1}%   {} = {:.2}",
        oracle.reuse_percent(),
        workload.spec().accuracy.loss_label(),
        oracle_loss
    );

    // 3. BNN predictor (the deployable scheme, Figure 10/12).
    for theta in [0.1_f32, 0.4, 0.8] {
        let memo =
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta)).run(model, sequences)?;
        let loss = workload
            .metric()
            .batch_loss(&baseline.outputs, &memo.outputs);
        println!(
            "bnn     (θ={theta:.2}): reuse = {:>5.1}%   {} = {:.2}",
            memo.reuse_percent(),
            workload.spec().accuracy.loss_label(),
            loss
        );
    }

    // 4. Multi-sequence batched inference: every sequence is a lane of
    //    one `run_batch` call, so each gate invocation evaluates all of
    //    them and one weight stream serves all of them; memoizing
    //    predictors keep one memo table per lane.  Outputs and reuse
    //    statistics are bit-identical to the per-sequence runs above —
    //    batching changes the throughput, never the results.
    let lanes: Vec<&[Vector]> = sequences.iter().map(Vec::as_slice).collect();
    let mut exact = PredictorKind::Exact.build_evaluator(model);
    assert_eq!(
        workload.network().run_batch(&lanes, exact.as_mut())?,
        baseline.outputs
    );
    let bnn = PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.4));
    let per_sequence = bnn.run(model, sequences)?;
    let mut batched = bnn.build_evaluator(model);
    assert_eq!(
        workload.network().run_batch(&lanes, batched.as_mut())?,
        per_sequence.outputs
    );
    let batched_stats = batched.stats_snapshot().expect("the BNN evaluator counts");
    assert_eq!(batched_stats, per_sequence.stats);
    println!(
        "\nbatched ({} lanes): exact and bnn outputs bit-identical to the per-sequence path",
        lanes.len()
    );
    println!(
        "batched bnn (θ=0.40): reuse = {:>5.1}% (same memo hits, one weight stream per gate)",
        batched_stats.reuse_percent()
    );

    println!("\nHigher thresholds trade accuracy for reuse; the paper deploys the largest");
    println!("threshold whose accuracy loss stays below 1% (Section 3.2.1).");
    Ok(())
}
