//! Quickstart: run one workload under exact inference, the oracle
//! predictor and the BNN predictor, and compare reuse and accuracy.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nfm::memo::{BnnMemoConfig, OracleMemoConfig};
use nfm::serve::MemoizedRunner;
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

    // 1. Exact baseline.
    let baseline = MemoizedRunner::exact().run(&workload)?;
    println!("\nexact baseline: reuse = {:.1}%", baseline.reuse_percent());

    // 2. Oracle predictor (upper bound, Figure 1).
    let oracle = MemoizedRunner::oracle(OracleMemoConfig::with_threshold(0.4)).run(&workload)?;
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
        let memo = MemoizedRunner::bnn(BnnMemoConfig::with_threshold(theta)).run(&workload)?;
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

    // 4. Multi-sequence batched inference: the serving path.  Up to
    //    `batch_size` sequences (lanes) run through every gate
    //    invocation at once, so one weight stream serves all of them;
    //    memoizing predictors keep one memo table per lane.  Outputs and
    //    reuse statistics are bit-identical to the per-sequence runs
    //    above — batching changes the throughput, never the results.
    let batch_size = 4;
    let batched_exact = MemoizedRunner::exact().run_batched(&workload, batch_size)?;
    assert_eq!(batched_exact.outputs, baseline.outputs);
    let memo_runner = MemoizedRunner::bnn(BnnMemoConfig::with_threshold(0.4));
    let batched_memo = memo_runner.run_batched(&workload, batch_size)?;
    let per_sequence_memo = memo_runner.run(&workload)?;
    assert_eq!(batched_memo.outputs, per_sequence_memo.outputs);
    assert_eq!(batched_memo.stats, per_sequence_memo.stats);
    println!(
        "\nbatched (lanes={batch_size}): exact and bnn outputs bit-identical to the \
         per-sequence path"
    );
    println!(
        "batched bnn (θ=0.40): reuse = {:>5.1}% (same memo hits, one weight stream per gate)",
        batched_memo.reuse_percent()
    );

    println!("\nHigher thresholds trade accuracy for reuse; the paper deploys the largest");
    println!("threshold whose accuracy loss stays below 1% (Section 3.2.1).");
    Ok(())
}
