//! The model registry: which models an [`Engine`](crate::Engine)
//! serves, which predictors each model can be served under, and which
//! **version** of each model is live.
//!
//! A registry maps a [`ModelId`] to one [`Model`] — a version's network
//! and its binary mirror, immutable and shared — plus a set of
//! [`Predictor`] policies filed under their own
//! [`name`](Predictor::name).  There is one way in:
//! [`register`](ModelRegistry::register) takes anything that converts
//! into a `Model` (a network, a loaded artifact) and any `Predictor`
//! (a [`PredictorKind`](nfm_core::PredictorKind), an adaptive or custom
//! policy); [`add_predictor`](ModelRegistry::add_predictor) files one
//! more policy on the same `Model`.  The registry holds the *live*
//! version of each id; a hot swap stages the next version outside it
//! and promotion replaces the live entry in place.  Workers clone
//! `Model` handles, never weights or mirrors, and a version's mirror
//! exists by the time the call that filed a predictor reading it
//! returns.
//!
//! Requests pick a model and predictor through
//! [`RequestOptions`]; submission resolves the options against the
//! registry **synchronously**, so unknown ids and unsupported
//! overrides surface as typed [`EngineError`]s from
//! [`Engine::submit`](crate::Engine::submit), never mid-flight.

use crate::error::EngineError;
use crate::request::RequestOptions;
use nfm_core::{Model, Predictor};
use nfm_rnn::DeepRnn;
use std::fmt;
use std::sync::Arc;

/// Identifies a registered model.  Cheap to clone (shared string);
/// build one from any string type: `ModelId::from("kws")`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelId(Arc<str>);

/// Monotonic version of a registered model's weights.  Registration
/// starts at 1; each staged hot swap targets the incumbent's version
/// plus one.
pub type ModelVersion = u32;

impl ModelId {
    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ModelId {
    fn from(s: &str) -> Self {
        ModelId(Arc::from(s))
    }
}

impl From<String> for ModelId {
    fn from(s: String) -> Self {
        ModelId(Arc::from(s))
    }
}

impl From<&ModelId> for ModelId {
    fn from(id: &ModelId) -> Self {
        id.clone()
    }
}

/// One model version: its shared artifacts plus the predictors it is
/// served under.  The registry holds the live ones; a version staged by
/// a hot swap waits in the engine's lifecycle until promoted.
#[derive(Debug)]
pub(crate) struct ModelEntry {
    pub(crate) id: ModelId,
    pub(crate) version: ModelVersion,
    pub(crate) model: Model,
    /// `(name, policy)` in registration order; the first is the
    /// model's default.
    pub(crate) predictors: Vec<(Arc<str>, Arc<dyn Predictor>)>,
}

impl ModelEntry {
    /// Version `version` of `id`, served under `predictors` (the first
    /// is its default), each filed under its own name.
    ///
    /// # Errors
    ///
    /// [`EngineError::DuplicatePredictor`] when two share a name and
    /// [`EngineError::InvalidConfig`] when there is none.
    pub(crate) fn new<P: Predictor + 'static>(
        id: ModelId,
        version: ModelVersion,
        model: Model,
        predictors: impl IntoIterator<Item = P>,
    ) -> Result<ModelEntry, EngineError> {
        let mut entry = ModelEntry {
            id,
            version,
            model,
            predictors: Vec::new(),
        };
        for predictor in predictors {
            entry.file(Arc::new(predictor))?;
        }
        if entry.predictors.is_empty() {
            return Err(EngineError::InvalidConfig {
                what: "a model version needs at least one predictor".into(),
            });
        }
        Ok(entry)
    }

    /// Files `predictor` under its own name, after letting it prepare
    /// what it reads from the `Model` — the mirror — on this thread, so
    /// a worker never builds one.
    fn file(&mut self, predictor: Arc<dyn Predictor>) -> Result<(), EngineError> {
        let name = predictor.name();
        if self.predictors.iter().any(|(n, _)| n.as_ref() == name) {
            return Err(EngineError::DuplicatePredictor {
                model: self.id.clone(),
                predictor: name.to_string(),
            });
        }
        predictor.prepare(&self.model);
        self.predictors.push((Arc::from(name), predictor));
        Ok(())
    }

    /// Files, after this version's own predictors, each of
    /// `incumbent`'s whose name this version does not serve yet.
    pub(crate) fn inherit(&mut self, incumbent: &ModelEntry) {
        for (_, predictor) in &incumbent.predictors {
            // Refused only for a name taken here: the given policy wins.
            let _ = self.file(Arc::clone(predictor));
        }
    }

    /// Resolves a request's options to the model + predictor pair a
    /// worker must serve it with on this version.
    pub(crate) fn resolve(&self, options: &RequestOptions) -> Result<Resolved, EngineError> {
        let (name, predictor) = match &options.predictor {
            Some(wanted) => self
                .predictors
                .iter()
                .find(|(name, _)| name.as_ref() == wanted.as_str())
                .ok_or_else(|| EngineError::UnknownPredictor {
                    model: self.id.clone(),
                    predictor: wanted.clone(),
                })?,
            None => self.predictors.first().expect("an entry has a predictor"),
        };
        if options.threshold.is_some() && !predictor.accepts_threshold_override() {
            return Err(EngineError::ThresholdUnsupported {
                model: self.id.clone(),
                predictor: name.as_ref().to_string(),
            });
        }
        Ok(Resolved {
            key: ContextKey {
                model: self.id.clone(),
                version: self.version,
                predictor: Arc::clone(name),
            },
            model: self.model.clone(),
            predictor: Arc::clone(predictor),
            threshold: options.threshold,
        })
    }

    /// The predictor filed under `key`'s name, when `key` names this
    /// model version.
    pub(crate) fn predictor_for(&self, key: &ContextKey) -> Option<&Arc<dyn Predictor>> {
        if self.id != key.model || self.version != key.version {
            return None;
        }
        self.predictors
            .iter()
            .find(|(n, _)| *n == key.predictor)
            .map(|(_, predictor)| predictor)
    }
}

/// A request resolved against the registry: the exact model version and
/// predictor the worker must use, the context key workers group lane
/// schedulers by, and the `θ` override the request's lane runs at
/// (accepted by the predictor, or resolution would have failed).
#[derive(Debug, Clone)]
pub(crate) struct Resolved {
    pub(crate) key: ContextKey,
    pub(crate) model: Model,
    pub(crate) predictor: Arc<dyn Predictor>,
    pub(crate) threshold: Option<f32>,
}

/// Identity of one execution context on a worker: requests with equal
/// keys share a lane scheduler and an evaluator (same model version,
/// same predictor).  A threshold override is state of the request's
/// lane, not of the context, so the keys a worker can ever see are
/// bounded by the registry, never by client-chosen values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ContextKey {
    pub(crate) model: ModelId,
    /// Weight version the context runs — a hot swap's canary requests
    /// key separate contexts from incumbent traffic.
    pub(crate) version: ModelVersion,
    pub(crate) predictor: Arc<str>,
}

/// Maps [`ModelId`]s to the live version of each [`Model`] and its
/// [`Predictor`] set.
///
/// The first registered model is the engine's **default model** (used
/// by requests that name none — the entire single-model API), and each
/// model's first predictor is its **default predictor**.
///
/// ```
/// use nfm_serve::{ModelRegistry, PredictorKind};
/// use nfm_core::BnnMemoConfig;
/// use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig};
/// use nfm_tensor::rng::DeterministicRng;
///
/// let mut rng = DeterministicRng::seed_from_u64(3);
/// let kws = DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 4, 6), &mut rng).unwrap();
/// let asr = DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 5, 8), &mut rng).unwrap();
/// let mut registry = ModelRegistry::new();
/// registry.register("kws", kws, PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5))).unwrap();
/// registry.register("asr", asr, PredictorKind::Exact).unwrap();
/// registry.add_predictor("asr", PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.3))).unwrap();
/// assert_eq!(registry.default_model().unwrap().as_str(), "kws");
/// assert_eq!(registry.version("kws"), Some(1));
/// assert_eq!(registry.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: Vec<ModelEntry>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry { models: Vec::new() }
    }

    /// Registers `model` under `id` (as version 1) with `predictor` as
    /// its default.  `model` is anything that converts into a
    /// [`Model`]: a `DeepRnn`, an `Arc<DeepRnn>`, a
    /// [`LoadedModel`](nfm_model::LoadedModel) (whose mirror, when the
    /// artifact carried one, is reused) or a `Model` the caller keeps a
    /// clone of.  The first registration becomes the engine's default
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DuplicateModel`] when `id` is taken.
    pub fn register(
        &mut self,
        id: impl Into<ModelId>,
        model: impl Into<Model>,
        predictor: impl Predictor + 'static,
    ) -> Result<(), EngineError> {
        let id = id.into();
        if self.entry(&id).is_some() {
            return Err(EngineError::DuplicateModel { model: id });
        }
        self.models
            .push(ModelEntry::new(id, 1, model.into(), [predictor])?);
        Ok(())
    }

    /// Adds a predictor to an already-registered model, filed under
    /// [`Predictor::name`] and reading the same [`Model`] as the
    /// predictors before it.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownModel`] when `model` is not
    /// registered and [`EngineError::DuplicatePredictor`] when the name
    /// is taken for this model.
    pub fn add_predictor(
        &mut self,
        model: impl Into<ModelId>,
        predictor: impl Predictor + 'static,
    ) -> Result<(), EngineError> {
        let model = model.into();
        self.models
            .iter_mut()
            .find(|e| e.id == model)
            .ok_or(EngineError::UnknownModel { model })?
            .file(Arc::new(predictor))
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether no model is registered (an empty registry cannot build
    /// an engine).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The default model: the first registered, `None` while empty.
    pub fn default_model(&self) -> Option<&ModelId> {
        self.models.first().map(|e| &e.id)
    }

    /// The live version of `model`, `None` for an unknown model.
    /// Versions start at 1 and increase by one per promoted hot swap.
    pub fn version(&self, model: impl Into<ModelId>) -> Option<ModelVersion> {
        self.entry(&model.into()).map(|e| e.version)
    }

    /// The predictor names registered for `model`, default first
    /// (`None` for an unknown model).
    pub fn predictor_names(&self, model: impl Into<ModelId>) -> Option<Vec<&str>> {
        self.entry(&model.into())
            .map(|e| e.predictors.iter().map(|(n, _)| n.as_ref()).collect())
    }

    /// The network registered under `model`'s live version.
    pub fn network(&self, model: impl Into<ModelId>) -> Option<&Arc<DeepRnn>> {
        self.entry(&model.into()).map(|e| e.model.network())
    }

    /// The predictor a live version serves under `key`'s name, if any.
    pub(crate) fn find_predictor(&self, key: &ContextKey) -> Option<&Arc<dyn Predictor>> {
        self.models.iter().find_map(|e| e.predictor_for(key))
    }

    /// Resolves a request's options to the concrete model + predictor
    /// pair a worker must serve it with.
    pub(crate) fn resolve(&self, options: &RequestOptions) -> Result<Resolved, EngineError> {
        let entry = match &options.model {
            Some(id) => self
                .entry(id)
                .ok_or_else(|| EngineError::UnknownModel { model: id.clone() })?,
            None => self.models.first().ok_or(EngineError::EmptyRegistry)?,
        };
        entry.resolve(options)
    }

    /// Replaces the live entry of `staged`'s model with `staged`, in
    /// place so default-model ordering never changes, and retires the
    /// outgoing version's model.  In-flight requests keep their handles
    /// on it; workers drop what they hold for it once those finish.
    pub(crate) fn promote(&mut self, staged: ModelEntry) {
        let live = self
            .models
            .iter_mut()
            .find(|e| e.id == staged.id)
            .expect("evicting a model discards its staged swap first");
        std::mem::replace(live, staged).model.retire();
    }

    /// Removes `model` and retires its model, returning the entry.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownModel`] when `model` is not
    /// registered and [`EngineError::CannotEvictLast`] when it is the
    /// only model (an engine cannot serve an empty registry).
    pub(crate) fn evict(&mut self, model: &ModelId) -> Result<ModelEntry, EngineError> {
        let Some(i) = self.models.iter().position(|e| &e.id == model) else {
            return Err(EngineError::UnknownModel {
                model: model.clone(),
            });
        };
        if self.models.len() == 1 {
            return Err(EngineError::CannotEvictLast {
                model: model.clone(),
            });
        }
        let entry = self.models.remove(i);
        entry.model.retire();
        Ok(entry)
    }

    /// The live entry of `id`.
    pub(crate) fn entry(&self, id: &ModelId) -> Option<&ModelEntry> {
        self.models.iter().find(|e| &e.id == id)
    }
}

/// What needs the crate-private `resolve`, `evict` and `Resolved`.  The
/// public registry surface (duplicate registrations, unknown ids, typed
/// submit errors) is tested in tier-1 `tests/multi_model_serving.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use nfm_core::{BnnMemoConfig, PredictorKind, ServedEvaluator};
    use nfm_rnn::{CellKind, DeepRnnConfig};
    use nfm_tensor::rng::DeterministicRng;

    fn network(seed: u64) -> DeepRnn {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 4, 6), &mut rng).unwrap()
    }

    #[test]
    fn resolve_defaults_to_first_model_and_first_predictor() {
        let mut registry = ModelRegistry::new();
        registry
            .register("a", network(1), PredictorKind::Exact)
            .unwrap();
        registry
            .register(
                "b",
                network(2),
                PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
            )
            .unwrap();
        let resolved = registry.resolve(&RequestOptions::default()).unwrap();
        assert_eq!(resolved.key.model.as_str(), "a");
        assert_eq!(resolved.key.predictor.as_ref(), "exact");
        assert_eq!(resolved.key.version, 1);
        assert!(resolved.threshold.is_none());
        let resolved = registry
            .resolve(&RequestOptions::default().model("b"))
            .unwrap();
        assert_eq!(resolved.key.model.as_str(), "b");
        assert_eq!(resolved.key.predictor.as_ref(), "bnn");
    }

    #[test]
    fn resolve_reports_typed_errors() {
        let mut registry = ModelRegistry::new();
        registry
            .register("m", network(1), PredictorKind::Exact)
            .unwrap();
        assert_eq!(
            registry
                .resolve(&RequestOptions::default().model("ghost"))
                .unwrap_err(),
            EngineError::UnknownModel {
                model: "ghost".into()
            }
        );
        assert_eq!(
            registry
                .resolve(&RequestOptions::default().predictor("bnn"))
                .unwrap_err(),
            EngineError::UnknownPredictor {
                model: "m".into(),
                predictor: "bnn".into(),
            }
        );
        assert_eq!(
            registry
                .resolve(&RequestOptions::default().threshold(0.5))
                .unwrap_err(),
            EngineError::ThresholdUnsupported {
                model: "m".into(),
                predictor: "exact".into(),
            }
        );
        assert_eq!(
            ModelRegistry::new()
                .resolve(&RequestOptions::default())
                .unwrap_err(),
            EngineError::EmptyRegistry
        );
    }

    /// A second configuration of a built-in policy under its own name.
    #[derive(Debug)]
    struct Named(&'static str, PredictorKind);

    impl Predictor for Named {
        fn name(&self) -> &str {
            self.0
        }

        fn build_evaluator(&self, model: &Model) -> Box<dyn ServedEvaluator> {
            self.1.build_evaluator(model)
        }
    }

    #[test]
    fn every_predictor_of_a_model_is_filed_on_one_model_under_its_own_name() {
        let model = Model::from(network(1));
        let mut registry = ModelRegistry::new();
        // A policy that reads no mirror builds none...
        registry
            .register("exact-only", model.clone(), PredictorKind::Exact)
            .unwrap();
        assert!(!model.has_mirror());
        // ...and the one the BNN policy reads exists once `register`
        // returns.
        registry
            .register(
                "m",
                model.clone(),
                PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
            )
            .unwrap();
        assert!(model.has_mirror());
        let mirror = Arc::clone(model.mirror());
        let loose = Named(
            "bnn-loose",
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(2.0)),
        );
        registry.add_predictor("m", Arc::new(loose)).unwrap();
        registry
            .add_predictor(
                "m",
                PredictorKind::Oracle(nfm_core::OracleMemoConfig::with_threshold(0.1)),
            )
            .unwrap();
        assert_eq!(
            registry.predictor_names("m").unwrap(),
            vec!["bnn", "bnn-loose", "oracle"]
        );
        for name in ["bnn", "bnn-loose", "oracle"] {
            let resolved = registry
                .resolve(&RequestOptions::for_model("m").predictor(name))
                .unwrap();
            assert!(Arc::ptr_eq(resolved.model.mirror(), &mirror), "{name}");
        }
        assert_eq!(
            registry.add_predictor("ghost", PredictorKind::Exact),
            Err(EngineError::UnknownModel {
                model: "ghost".into()
            })
        );
    }

    #[test]
    fn an_overridden_threshold_rides_on_the_registered_combination() {
        let mut registry = ModelRegistry::new();
        registry
            .register(
                "m",
                network(1),
                PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
            )
            .unwrap();
        let base = registry.resolve(&RequestOptions::default()).unwrap();
        // Whatever θ a request asks for, it resolves to the same
        // context key and the same predictor: workers never build an
        // evaluator per value.
        for theta in [0.5, 0.75] {
            let overridden = registry
                .resolve(&RequestOptions::default().threshold(theta))
                .unwrap();
            assert_eq!(overridden.key, base.key);
            assert!(Arc::ptr_eq(&overridden.predictor, &base.predictor));
            assert_eq!(overridden.threshold, Some(theta));
        }
    }

    #[test]
    fn evict_requires_known_model_and_refuses_the_last() {
        let mut registry = ModelRegistry::new();
        registry
            .register("a", network(1), PredictorKind::Exact)
            .unwrap();
        assert!(matches!(
            registry.evict(&"ghost".into()),
            Err(EngineError::UnknownModel { .. })
        ));
        assert!(matches!(
            registry.evict(&"a".into()),
            Err(EngineError::CannotEvictLast { .. })
        ));
        registry
            .register("b", network(2), PredictorKind::Exact)
            .unwrap();
        let evicted = registry.resolve(&RequestOptions::default()).unwrap();
        registry.evict(&"a".into()).unwrap();
        assert!(evicted.model.is_retired());
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.default_model().unwrap().as_str(), "b");
        assert!(registry.version("a").is_none());
    }
}
