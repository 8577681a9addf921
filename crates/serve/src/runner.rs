//! The workload-level façade: `MemoizedRunner` as a thin wrapper over
//! the request [`Engine`](crate::Engine).

use crate::engine::EngineBuilder;
use crate::request::{CompletionStatus, InferenceRequest};
use nfm_core::config::{BnnMemoConfig, OracleMemoConfig};
use nfm_core::ReuseStats;
use nfm_rnn::{DeepRnn, Result as RnnResult, RnnError};
use nfm_tensor::Vector;

pub use nfm_core::PredictorKind;

/// Anything that can be run through the memoization schemes: a network
/// plus a set of input sequences.
///
/// The `nfm-workloads` crate implements this for the four Table 1
/// networks; tests implement it for small ad-hoc models.
pub trait InferenceWorkload {
    /// The network to evaluate.
    fn network(&self) -> &DeepRnn;

    /// The input sequences to process (each is one utterance / review /
    /// sentence, matching the batch-of-one inference regime of the paper).
    fn input_sequences(&self) -> &[Vec<Vector>];
}

/// The result of running a workload: per-sequence outputs plus the
/// aggregated reuse statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Network outputs, one `Vec<Vector>` per input sequence.
    pub outputs: Vec<Vec<Vector>>,
    /// Aggregated reuse statistics across all sequences.
    pub stats: ReuseStats,
}

impl RunOutcome {
    /// Fraction of neuron evaluations avoided, in `[0, 1]`.
    pub fn reuse_fraction(&self) -> f64 {
        self.stats.reuse_fraction()
    }

    /// Computation reuse as a percentage (the paper's unit).
    pub fn reuse_percent(&self) -> f64 {
        self.stats.reuse_percent()
    }
}

/// Runs a workload end-to-end under a chosen predictor — a thin
/// wrapper over the request [`Engine`](crate::Engine): every sequence
/// becomes one [`InferenceRequest`], and the outcome is the responses
/// reassembled in submission order with their statistics merged.
///
/// [`MemoizedRunner::run`] processes sequences one at a time (one
/// lane, requests in submission order);
/// [`MemoizedRunner::run_batched`] gives the engine `batch_size` lanes
/// so gates evaluate many sequences per weight stream, with outputs
/// and statistics *identical* to `run`.
///
/// Every call builds a transient engine — worker thread spawn/join
/// plus an owned copy of each input sequence — so callers timing the
/// run itself (figure experiments, the `inference/*_single` bench
/// entries) measure that small constant alongside inference.
///
/// ```
/// use nfm_serve::{InferenceWorkload, MemoizedRunner};
/// use nfm_core::BnnMemoConfig;
/// use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig};
/// use nfm_tensor::rng::DeterministicRng;
/// use nfm_tensor::Vector;
///
/// struct Tiny { net: DeepRnn, seqs: Vec<Vec<Vector>> }
/// impl InferenceWorkload for Tiny {
///     fn network(&self) -> &DeepRnn { &self.net }
///     fn input_sequences(&self) -> &[Vec<Vector>] { &self.seqs }
/// }
///
/// let mut rng = DeterministicRng::seed_from_u64(5);
/// let net = DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 4, 6), &mut rng).unwrap();
/// let seqs = vec![(0..8).map(|t| Vector::from_fn(4, |i| (t + i) as f32 * 0.05)).collect()];
/// let workload = Tiny { net, seqs };
/// let outcome = MemoizedRunner::bnn(BnnMemoConfig::with_threshold(0.5)).run(&workload).unwrap();
/// assert_eq!(outcome.outputs.len(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoizedRunner {
    predictor: PredictorKind,
}

impl MemoizedRunner {
    /// A runner that performs exact inference (the baseline).
    pub fn exact() -> Self {
        MemoizedRunner {
            predictor: PredictorKind::Exact,
        }
    }

    /// A runner using the oracle predictor.
    pub fn oracle(config: OracleMemoConfig) -> Self {
        MemoizedRunner {
            predictor: PredictorKind::Oracle(config),
        }
    }

    /// A runner using the BNN predictor.
    pub fn bnn(config: BnnMemoConfig) -> Self {
        MemoizedRunner {
            predictor: PredictorKind::Bnn(config),
        }
    }

    /// The predictor this runner applies.
    pub fn predictor(&self) -> PredictorKind {
        self.predictor
    }

    /// Runs every sequence of `workload` through its network, one at a
    /// time: [`run_batched`](MemoizedRunner::run_batched) at one lane.
    ///
    /// # Errors
    ///
    /// Propagates any inference error (shape mismatches, empty
    /// sequences).
    pub fn run(&self, workload: &impl InferenceWorkload) -> RnnResult<RunOutcome> {
        self.run_batched(workload, 1)
    }

    /// Runs every sequence of `workload` with **multi-sequence batched
    /// inference**: the engine gets `batch_size` lanes, so up to that
    /// many sequences are evaluated through each gate invocation at
    /// once and one weight stream serves all of them.
    ///
    /// The lanes are driven by the one
    /// [`LaneScheduler`](nfm_rnn::LaneScheduler) step.  On
    /// unidirectional stacks a lane that finishes its sequence is
    /// refilled from the queue *immediately* — mid-wave — so
    /// ragged-length traffic keeps every lane busy, and all lanes'
    /// inputs are hoisted per 8-step block.  Stacks with a
    /// bidirectional layer step their seated sequences whole and refill
    /// once all have finished.
    ///
    /// Outputs, reuse statistics and memo-hit behavior are
    /// **bit-identical** to [`MemoizedRunner::run`] for every
    /// predictor: memoizing evaluators keep one
    /// [`MemoTable`](nfm_core::MemoTable) per lane, reset when a lane
    /// admits a new sequence, so lanes never interact.
    ///
    /// The transient engine owns its inputs, so each call copies the
    /// network's weights once (an `Arc` hands them to the worker) and
    /// each sequence once — a constant that one weight-pass of
    /// inference already dwarfs; long-lived callers that care should
    /// hold an [`Engine`](crate::Engine) directly.
    ///
    /// # Errors
    ///
    /// Returns [`RnnError::InvalidConfig`] when `batch_size == 0` (the
    /// accepted range is `batch_size >= 1`; `1` runs one sequence at a
    /// time), and propagates any inference
    /// error (shape mismatches, empty sequences).
    pub fn run_batched(
        &self,
        workload: &impl InferenceWorkload,
        batch_size: usize,
    ) -> RnnResult<RunOutcome> {
        if batch_size == 0 {
            return Err(RnnError::InvalidConfig {
                what: "run_batched requires batch_size >= 1 (0 lanes cannot make progress); \
                       pass 1 for sequential per-sequence inference"
                    .into(),
            });
        }
        let sequences = workload.input_sequences();
        if sequences.is_empty() {
            return Ok(RunOutcome {
                outputs: Vec::new(),
                stats: ReuseStats::new(),
            });
        }
        // Paused start: every request is queued before compute begins,
        // so the groups a bidirectional stack steps together match the
        // chunk boundaries of a pre-collected workload.
        let engine = EngineBuilder::new(workload.network().clone(), self.predictor)
            .lanes(batch_size)
            .queue_capacity(sequences.len())
            .start_paused()
            .build()
            .map_err(RnnError::from)?;
        for (i, sequence) in sequences.iter().enumerate() {
            engine
                .submit(InferenceRequest::new(i as u64, sequence.clone()))
                .map_err(RnnError::from)?;
        }
        // Drain (which resumes the paused worker) before reading the
        // error slot, so any failure recorded mid-run is visible; the
        // drop then joins the worker thread.
        let mut responses = engine.drain();
        let worker_error = engine.last_error();
        drop(engine);
        debug_assert_eq!(responses.len(), sequences.len());
        responses.sort_by_key(|r| r.id);
        let mut outputs = Vec::with_capacity(responses.len());
        let mut stats = ReuseStats::new();
        for response in responses {
            if response.status != CompletionStatus::Done {
                let cause = worker_error
                    .as_deref()
                    .map(|e| format!(": {e}"))
                    .unwrap_or_default();
                return Err(RnnError::InvalidConfig {
                    what: format!(
                        "engine aborted request {} ({:?}){cause}",
                        response.id, response.status
                    ),
                });
            }
            stats.merge(&response.stats);
            outputs.push(response.outputs);
        }
        Ok(RunOutcome { outputs, stats })
    }
}
