//! Serving quickstart: submit → poll → per-request stats, then the
//! multi-model registry.
//!
//! Part 1 builds a single-model request engine over an IMDB-like LSTM,
//! submits a burst of ragged-length requests (some with tight
//! deadlines), polls for completions while the lanes drain, and prints
//! each request's own reuse statistics and latency split — finally
//! cross-checking that the engine's outputs are bit-identical to
//! `Predictor::run`, the same policy run offline, one sequence at a
//! time, with no engine.
//!
//! Part 2 registers **two models** with different predictor sets in one
//! `ModelRegistry` and serves both from a single engine, with requests
//! choosing their model, predictor and reuse threshold per submission
//! (`RequestOptions`).
//!
//! ```text
//! cargo run --release --example serve
//! ```
//!
//! # Migration note (`EngineBuilder::new`)
//!
//! `EngineBuilder::new(network, predictor)` is unchanged and keeps
//! serving exactly one model: it is now sugar for a one-entry
//! `ModelRegistry` whose model id is `nfm::serve::DEFAULT_MODEL`.
//! Multi-model engines use `EngineBuilder::from_registry(registry)`
//! instead; requests without options behave identically on both.

use nfm::memo::BnnMemoConfig;
use nfm::serve::{
    CompletionStatus, EngineBuilder, InferenceRequest, ModelRegistry, Predictor, PredictorKind,
    RequestOptions,
};
use nfm::workloads::{NetworkId, WorkloadBuilder};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A half-scale IMDB sentiment LSTM and a batch of synthetic
    // "reviews" of very different lengths — the ragged traffic shape
    // that mid-wave lane refill exists for.
    let workload = WorkloadBuilder::new(NetworkId::ImdbSentiment)
        .scale(0.5)
        .sequences(12)
        .sequence_length(32)
        .seed(11)
        .build()?;
    let lens = [32usize, 6, 20, 9, 32, 4, 14, 27, 8, 32, 11, 5];
    let sequences: Vec<_> = workload
        .sequences()
        .iter()
        .zip(lens)
        .map(|(s, len)| s[..len].to_vec())
        .collect();

    let predictor = PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5));
    let engine = EngineBuilder::new(workload.network().clone(), predictor)
        .lanes(4) // 4 sequences share each gate's weight stream
        .workers(1) // one compute thread; results never depend on this
        .queue_capacity(64) // submissions beyond this get backpressure
        .build()?;

    // Submit the burst.  Two requests carry a deadline that already
    // expired (zero budget) to show expiry reporting; everything else
    // is unbounded.
    for (id, seq) in sequences.iter().enumerate() {
        let mut request = InferenceRequest::new(id as u64, seq.clone());
        if id % 6 == 5 {
            request = request.with_deadline(Duration::ZERO);
        }
        engine.submit(request)?;
    }
    println!(
        "submitted {} requests, pending = {} (kernel backend: {})",
        lens.len(),
        engine.pending(),
        engine.kernel_backend()
    );

    // Poll: take completions as they appear (a real server would do
    // this from its response loop; `drain()` is the blocking variant).
    let mut responses = Vec::new();
    while responses.len() < lens.len() {
        let batch = engine.take_completed();
        if batch.is_empty() {
            std::thread::yield_now();
            continue;
        }
        responses.extend(batch);
    }
    responses.sort_by_key(|r| r.id);

    println!("\n  id  len  status            reuse%   queue      compute");
    for r in &responses {
        let status = match r.status {
            CompletionStatus::Done => "done",
            CompletionStatus::DeadlineExpired => "deadline-expired",
            CompletionStatus::Rejected => "rejected",
        };
        println!(
            "  {:>2}  {:>3}  {:<16}  {:>5.1}   {:>7.1?}  {:>9.1?}",
            r.id,
            sequences[r.id as usize].len(),
            status,
            r.stats.reuse_percent(),
            r.queue_latency,
            r.compute_latency,
        );
    }

    // Cross-check: the engine's per-request outputs are bit-identical
    // to the same policy run offline over the same admitted sequences.
    let admitted: Vec<usize> = responses
        .iter()
        .filter(|r| r.status == CompletionStatus::Done)
        .map(|r| r.id as usize)
        .collect();
    let admitted_sequences: Vec<_> = admitted.iter().map(|&i| sequences[i].clone()).collect();
    let reference = predictor.run(workload.model(), &admitted_sequences)?;
    for (slot, &id) in admitted.iter().enumerate() {
        let response = responses.iter().find(|r| r.id == id as u64).unwrap();
        assert_eq!(response.outputs, reference.outputs[slot]);
    }
    let merged = responses
        .iter()
        .fold(nfm::memo::ReuseStats::new(), |mut acc, r| {
            acc.merge(&r.stats);
            acc
        });
    assert_eq!(merged, reference.stats);
    println!(
        "\n{} admitted requests: outputs and reuse stats bit-identical to Predictor::run \
         (merged reuse = {:.1}%)",
        admitted.len(),
        merged.reuse_percent()
    );
    println!(
        "{} expired requests were reported, not silently dropped",
        responses.len() - admitted.len()
    );

    // ------------------------------------------------------------------
    // Part 2: several models, one engine.  A half-scale IMDB LSTM and a
    // scaled-down DeepSpeech2 GRU register in one ModelRegistry; each
    // request picks its model, predictor and threshold per submission.
    // ------------------------------------------------------------------
    let asr = WorkloadBuilder::new(NetworkId::DeepSpeech2)
        .scale(0.05)
        .sequences(4)
        .sequence_length(24)
        .seed(23)
        .build()?;

    let mut registry = ModelRegistry::new();
    // "imdb": BNN-memoized by default, exact available on request.
    registry.register(
        "imdb",
        workload.network().clone(),
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
    )?;
    registry.add_predictor("imdb", PredictorKind::Exact)?;
    // "asr": exact by default, BNN-memoized on request.
    registry.register("asr", asr.network().clone(), PredictorKind::Exact)?;
    registry.add_predictor(
        "asr",
        PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
    )?;

    let engine = EngineBuilder::from_registry(registry)
        .lanes(4)
        .workers(1)
        .queue_capacity(64)
        .build()?;

    // Interleave traffic for both models.  The three IMDB requests
    // carry the *same review* at three reuse thresholds — the
    // registered 0.5 plus per-request overrides tighter (θ=0.1) and
    // looser (θ=2.0) — so the engine runs three accuracy/reuse
    // trade-offs of one model in flight at once, next to the second
    // model's traffic.
    let review = sequences[0].clone();
    let imdb = |o: RequestOptions| (o.model("imdb"), review.clone());
    let cases: Vec<(RequestOptions, Vec<nfm::tensor::Vector>)> = vec![
        imdb(RequestOptions::default()),
        imdb(RequestOptions::default().threshold(0.1)),
        (
            RequestOptions::default().model("asr"),
            asr.sequences()[0].clone(),
        ),
        imdb(RequestOptions::default().threshold(2.0)),
        (
            RequestOptions::default().model("asr"),
            asr.sequences()[1].clone(),
        ),
        imdb(RequestOptions::default().predictor("exact")),
    ];
    let mut expectations = Vec::new();
    for (i, (options, seq)) in cases.into_iter().enumerate() {
        let id = 100 + i as u64;
        expectations.push((id, options.clone()));
        engine.submit(InferenceRequest::new(id, seq).with_options(options))?;
    }
    let mut multi = engine.drain();
    multi.sort_by_key(|r| r.id);
    println!("\n  id  model predictor      θ        reuse%");
    for (r, (id, options)) in multi.iter().zip(&expectations) {
        assert_eq!(r.id, *id);
        assert_eq!(r.status, CompletionStatus::Done);
        println!(
            "  {:>2}  {:<5} {:<12} {:>8}  {:>5.1}",
            r.id,
            options.model.as_ref().map(|m| m.as_str()).unwrap_or("-"),
            options.predictor.as_deref().unwrap_or("(default)"),
            options
                .threshold
                .map(|t| format!("{t:.2}"))
                .unwrap_or_else(|| "(cfg)".into()),
            r.stats.reuse_percent(),
        );
    }
    // Tighter θ trades reuse for accuracy, looser θ the reverse — per
    // request, on the same registered model.
    let reuse_at = |theta: Option<f32>| {
        multi
            .iter()
            .zip(&expectations)
            .find(|(_, (_, o))| {
                o.threshold == theta && o.model.as_ref().map(|m| m.as_str()) == Some("imdb")
            })
            .map(|(r, _)| r.stats.reuse_fraction() * 100.0)
            .unwrap()
    };
    let (tight, base, loose) = (reuse_at(Some(0.1)), reuse_at(None), reuse_at(Some(2.0)));
    assert!(tight <= base && base <= loose, "reuse is monotone in θ");
    println!(
        "\ntwo models served concurrently; per-request θ overrides on \"imdb\" swept reuse \
         {tight:.1}% (θ=0.1) / {base:.1}% (θ=0.5 registered) / {loose:.1}% (θ=2.0)"
    );
    Ok(())
}
