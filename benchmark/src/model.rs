//! Served models, seeded request pools, and the direct reference runs
//! every response is checked against.

use crate::spec::MODEL_SEED;
use nfm_bnn::BinaryNetwork;
use nfm_core::{BnnMemoConfig, BnnMemoEvaluator};
use nfm_rnn::{DeepRnn, ExactEvaluator};
use nfm_serve::PredictorKind;
use nfm_tensor::Vector;
use nfm_workloads::{InputDomain, NetworkId, SequenceGenerator, WorkloadBuilder};
use std::sync::Arc;
use std::time::Instant;

/// Lanes of every engine and of every direct `run_batch` wave.
pub const LANES: usize = 8;

#[derive(Debug, Clone, Copy)]
pub struct ModelSpec {
    /// Registry id the model is served under.
    pub id: &'static str,
    pub network: NetworkId,
    pub scale: f32,
    /// BNN memoization threshold; `None` serves the exact predictor.
    pub theta: Option<f32>,
    pub domain: InputDomain,
}

pub const AUDIO: InputDomain = InputDomain::AudioFrames { correlation: 0.95 };
pub const TOKENS: InputDomain = InputDomain::TokenStream {
    vocabulary: 512,
    repeat_probability: 0.35,
};

/// A model as the program receives it: artifact bytes to load, plus the
/// loaded network and mirror the benchmark's own reference runs use.
pub struct Model {
    pub spec: ModelSpec,
    pub artifact: Vec<u8>,
    pub network: DeepRnn,
    pub mirror: Option<Arc<BinaryNetwork>>,
}

impl Model {
    pub fn build(spec: ModelSpec) -> Result<Model, String> {
        let built = WorkloadBuilder::new(spec.network)
            .scale(spec.scale)
            .sequences(1)
            .sequence_length(1)
            .seed(MODEL_SEED)
            .build()
            .map_err(|e| format!("{}: build network: {e}", spec.id))?;
        let artifact = nfm_model::save_to_vec(built.network(), None)
            .map_err(|e| format!("{}: save artifact: {e}", spec.id))?;
        drop(built);
        let network = nfm_model::load_from_slice(&artifact)
            .map_err(|e| format!("{}: load artifact: {e}", spec.id))?
            .network;
        let mirror = spec
            .theta
            .map(|_| Arc::new(BinaryNetwork::mirror(&network)));
        Ok(Model {
            spec,
            artifact,
            network,
            mirror,
        })
    }

    pub fn predictor(&self) -> PredictorKind {
        match self.spec.theta {
            Some(theta) => PredictorKind::Bnn(BnnMemoConfig::with_threshold(theta)),
            None => PredictorKind::Exact,
        }
    }

    /// `lengths.len()` input sequences in the model's input domain, from
    /// `seed` alone.
    pub fn sequences(&self, seed: u64, lengths: &[usize]) -> Vec<Vec<Vector>> {
        let mut generator =
            SequenceGenerator::new(self.spec.domain, self.network.input_size(), seed);
        lengths
            .iter()
            .map(|&len| generator.sequences(1, len).remove(0))
            .collect()
    }
}

/// One distinct request of a workload: which model, an optional
/// per-request threshold override, and the input.
pub struct Entry {
    pub model: usize,
    pub theta_override: Option<f32>,
    pub sequence: Vec<Vector>,
}

impl Entry {
    /// One entry per sequence, all for model `model` at its own
    /// threshold.
    pub fn for_model(model: usize, sequences: Vec<Vec<Vector>>) -> Vec<Entry> {
        sequences
            .into_iter()
            .map(|sequence| Entry {
                model,
                theta_override: None,
                sequence,
            })
            .collect()
    }

    pub fn steps(&self) -> usize {
        self.sequence.len()
    }
}

/// The threshold an entry is served under, `None` for exact.
fn effective_theta(models: &[Model], entry: &Entry) -> Option<f32> {
    models[entry.model]
        .spec
        .theta
        .map(|theta| entry.theta_override.unwrap_or(theta))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub evaluations: u64,
    pub reuses: u64,
    pub bnn_evaluations: u64,
}

impl Counts {
    pub fn of(stats: &nfm_core::ReuseStats) -> Counts {
        Counts {
            evaluations: stats.evaluations(),
            reuses: stats.reuses(),
            bnn_evaluations: stats.bnn_evaluations(),
        }
    }

    pub fn add(&mut self, other: Counts) {
        self.evaluations += other.evaluations;
        self.reuses += other.reuses;
        self.bnn_evaluations += other.bnn_evaluations;
    }

    fn minus(self, earlier: Counts) -> Counts {
        Counts {
            evaluations: self.evaluations - earlier.evaluations,
            reuses: self.reuses - earlier.reuses,
            bnn_evaluations: self.bnn_evaluations - earlier.bnn_evaluations,
        }
    }
}

/// Entries that went through one direct `run_batch` call together, and
/// the reuse counters of that call.
pub struct Wave {
    pub entries: Vec<usize>,
    pub counts: Counts,
}

/// Timing of direct runs, for the `rnn.*` layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectRunTimes {
    /// Every entry under the exact evaluator.
    pub exact_s: f64,
    /// Memoized entries under their served threshold.
    pub memo_s: f64,
    /// The same memoized entries under the exact evaluator.
    pub exact_of_memo_s: f64,
    pub steps: u64,
    pub memo_counts: Counts,
}

/// What the program must answer, from direct `DeepRnn::run_batch` calls.
pub struct Reference {
    /// Per entry: the outputs a correct response carries.
    pub served: Vec<Vec<Vector>>,
    pub waves: Vec<Wave>,
    /// Per entry: index of its wave.
    pub wave_of: Vec<usize>,
    /// 100 x sum |exact| / (sum |exact| + sum |served - exact|) over every
    /// output value: 100 when the served outputs are the exact ones, 50
    /// when the error is as large as the signal, never 0.
    pub fidelity_pct: f64,
    pub times: DirectRunTimes,
}

impl Reference {
    /// Runs every entry directly, `wave` entries per `run_batch` call.
    /// With `wave == 1` each wave's counters are one request's own.
    pub fn build(models: &[Model], entries: &[Entry], wave: usize) -> Result<Reference, String> {
        let mut served: Vec<Option<Vec<Vector>>> = (0..entries.len()).map(|_| None).collect();
        let mut waves = Vec::new();
        let mut times = DirectRunTimes::default();
        let (mut abs_err, mut abs_exact) = (0.0f64, 0.0f64);

        // Entries sharing a model and threshold share an evaluator, as
        // they share an execution context in the engine.
        let mut groups: Vec<(usize, Option<f32>, Vec<usize>)> = Vec::new();
        for (i, entry) in entries.iter().enumerate() {
            let theta = effective_theta(models, entry);
            match groups
                .iter_mut()
                .find(|(m, t, _)| *m == entry.model && *t == theta)
            {
                Some((_, _, members)) => members.push(i),
                None => groups.push((entry.model, theta, vec![i])),
            }
        }

        for (model_index, theta, mut members) in groups {
            // Waves of similar lengths waste few lane-steps on ragged
            // ends, as the engine's refilling scheduler wastes none.
            members.sort_by_key(|&i| std::cmp::Reverse(entries[i].steps()));
            let model = &models[model_index];
            let mut exact = ExactEvaluator::new();
            let mut memo = theta.map(|theta| {
                BnnMemoEvaluator::new(
                    model
                        .mirror
                        .clone()
                        .expect("memoized models carry a mirror"),
                    BnnMemoConfig::with_threshold(theta),
                )
            });
            for chunk in members.chunks(wave) {
                let inputs: Vec<&[Vector]> = chunk
                    .iter()
                    .map(|&i| entries[i].sequence.as_slice())
                    .collect();
                times.steps += inputs.iter().map(|s| s.len() as u64).sum::<u64>();

                let evaluations_before = exact.evaluations();
                let started = Instant::now();
                let exact_out = model
                    .network
                    .run_batch(&inputs, &mut exact)
                    .map_err(|e| format!("{}: exact reference run: {e}", model.spec.id))?;
                let exact_s = started.elapsed().as_secs_f64();
                times.exact_s += exact_s;
                abs_exact += abs_sum(&exact_out, None);

                let (outputs, counts) = match memo.as_mut() {
                    // An exact response reports every evaluation as
                    // computed and nothing else.
                    None => (
                        exact_out,
                        Counts {
                            evaluations: exact.evaluations() - evaluations_before,
                            ..Counts::default()
                        },
                    ),
                    Some(memo) => {
                        let before = Counts::of(memo.stats());
                        let started = Instant::now();
                        let memo_out = model
                            .network
                            .run_batch(&inputs, memo)
                            .map_err(|e| format!("{}: memo reference run: {e}", model.spec.id))?;
                        times.memo_s += started.elapsed().as_secs_f64();
                        times.exact_of_memo_s += exact_s;
                        let counts = Counts::of(memo.stats()).minus(before);
                        times.memo_counts.add(counts);
                        abs_err += abs_sum(&memo_out, Some(&exact_out));
                        (memo_out, counts)
                    }
                };
                for (&i, outputs) in chunk.iter().zip(outputs) {
                    served[i] = Some(outputs);
                }
                waves.push(Wave {
                    entries: chunk.to_vec(),
                    counts,
                });
            }
        }

        if abs_exact <= 0.0 {
            return Err("reference outputs are all zero".into());
        }
        let mut wave_of = vec![0; entries.len()];
        for (w, wave) in waves.iter().enumerate() {
            for &i in &wave.entries {
                wave_of[i] = w;
            }
        }
        Ok(Reference {
            wave_of,
            served: served
                .into_iter()
                .map(|o| o.expect("every entry belongs to one group"))
                .collect(),
            waves,
            fidelity_pct: 100.0 * abs_exact / (abs_exact + abs_err),
            times,
        })
    }
}

/// Sum of |a| over every output value, or of |a - b| against `other`.
fn abs_sum(outputs: &[Vec<Vector>], other: Option<&[Vec<Vector>]>) -> f64 {
    let mut total = 0.0f64;
    for (i, sequence) in outputs.iter().enumerate() {
        for (t, step) in sequence.iter().enumerate() {
            let base = other.map(|o| o[i][t].as_slice());
            for (k, &a) in step.as_slice().iter().enumerate() {
                let b = base.map_or(0.0, |b| b[k]);
                total += f64::from((a - b).abs());
            }
        }
    }
    total
}
