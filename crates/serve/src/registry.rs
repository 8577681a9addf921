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
//! more policy on the same `Model`.  Entries are keyed
//! `(ModelId, version)`: exactly one entry per id is *live* (the one
//! `resolve` routes to) and at most one higher-versioned entry is
//! *staged* during a hot swap.  Workers clone `Model` handles, never
//! weights or mirrors, and a version's mirror exists by the time the
//! call that filed a predictor reading it returns.
//!
//! Requests pick a model and predictor through
//! [`RequestOptions`]; submission resolves the options against the
//! registry **synchronously**, so unknown ids and unsupported
//! overrides surface as typed [`EngineError`]s from
//! [`Engine::submit`](crate::Engine::submit), never mid-flight.

use crate::engine::EngineError;
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

/// One registered model version: its shared artifacts plus the
/// predictors it is served under.
#[derive(Debug)]
pub(crate) struct ModelEntry {
    pub(crate) id: ModelId,
    /// This entry's weight version.
    pub(crate) version: ModelVersion,
    /// Whether `resolve` routes to this entry.  Exactly one entry per
    /// id is live; a non-live entry is a staged hot-swap candidate.
    pub(crate) live: bool,
    pub(crate) model: Model,
    /// `(name, policy)` in registration order; the first is the
    /// model's default.
    pub(crate) predictors: Vec<(Arc<str>, Arc<dyn Predictor>)>,
}

impl ModelEntry {
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

/// Maps [`ModelId`]s to versioned [`Model`]s and their [`Predictor`]
/// sets.
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
        if self.models.iter().any(|e| e.id == id) {
            return Err(EngineError::DuplicateModel { model: id });
        }
        let mut entry = ModelEntry {
            id,
            version: 1,
            live: true,
            model: model.into(),
            predictors: Vec::new(),
        };
        entry.file(Arc::new(predictor))?;
        self.models.push(entry);
        Ok(())
    }

    /// Adds a predictor to an already-registered model's **live**
    /// version, filed under [`Predictor::name`] and reading the same
    /// [`Model`] as the predictors before it.
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
            .find(|e| e.id == model && e.live)
            .ok_or(EngineError::UnknownModel { model })?
            .file(Arc::new(predictor))
    }

    /// Number of registered models (staged swap candidates do not
    /// count).
    pub fn len(&self) -> usize {
        self.models.iter().filter(|e| e.live).count()
    }

    /// Whether no model is registered (an empty registry cannot build
    /// an engine).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The default model: the first registered, `None` while empty.
    pub fn default_model(&self) -> Option<&ModelId> {
        self.models.iter().find(|e| e.live).map(|e| &e.id)
    }

    /// The live version of `model`, `None` for an unknown model.
    /// Versions start at 1 and increase by one per promoted hot swap.
    pub fn version(&self, model: impl Into<ModelId>) -> Option<ModelVersion> {
        let model = model.into();
        self.live_entry(&model).map(|e| e.version)
    }

    /// The version staged for hot swap on `model`, if a swap is in
    /// progress.
    pub fn staged_version(&self, model: impl Into<ModelId>) -> Option<ModelVersion> {
        let model = model.into();
        self.staged_entry(&model).map(|e| e.version)
    }

    /// The predictor names registered for `model`'s live version,
    /// default first (`None` for an unknown model).
    pub fn predictor_names(&self, model: impl Into<ModelId>) -> Option<Vec<&str>> {
        let model = model.into();
        self.live_entry(&model)
            .map(|e| e.predictors.iter().map(|(n, _)| n.as_ref()).collect())
    }

    /// The network registered under `model`'s live version.
    pub fn network(&self, model: impl Into<ModelId>) -> Option<&Arc<DeepRnn>> {
        let model = model.into();
        self.live_entry(&model).map(|e| e.model.network())
    }

    /// The registered predictor for `(model, version, name)`, if any.
    /// The engine's observability path resolves live
    /// [`control_snapshot`](nfm_core::Predictor::control_snapshot)s
    /// through it.
    pub(crate) fn find_predictor(
        &self,
        model: &ModelId,
        version: ModelVersion,
        name: &str,
    ) -> Option<&Arc<dyn Predictor>> {
        self.models
            .iter()
            .find(|e| &e.id == model && e.version == version)
            .and_then(|e| e.predictors.iter().find(|(n, _)| n.as_ref() == name))
            .map(|(_, predictor)| predictor)
    }

    /// Resolves a request's options to the concrete model + predictor
    /// pair a worker must serve it with.  Routes to live versions only;
    /// staged swap candidates are reached through
    /// [`ModelRegistry::resolve_staged`].
    pub(crate) fn resolve(&self, options: &RequestOptions) -> Result<Resolved, EngineError> {
        let entry = match &options.model {
            Some(id) => self
                .live_entry(id)
                .ok_or_else(|| EngineError::UnknownModel { model: id.clone() })?,
            None => self
                .models
                .iter()
                .find(|e| e.live)
                .ok_or(EngineError::EmptyRegistry)?,
        };
        Self::resolve_in(entry, options)
    }

    /// Resolves `options` against the **staged** entry of `model` — the
    /// canary side of a hot swap.  The caller guarantees a staged entry
    /// exists.
    pub(crate) fn resolve_staged(
        &self,
        model: &ModelId,
        options: &RequestOptions,
    ) -> Result<Resolved, EngineError> {
        let entry = self
            .staged_entry(model)
            .ok_or_else(|| EngineError::UnknownModel {
                model: model.clone(),
            })?;
        Self::resolve_in(entry, options)
    }

    fn resolve_in(entry: &ModelEntry, options: &RequestOptions) -> Result<Resolved, EngineError> {
        let (name, predictor) = match &options.predictor {
            Some(wanted) => entry
                .predictors
                .iter()
                .find(|(name, _)| name.as_ref() == wanted.as_str())
                .ok_or_else(|| EngineError::UnknownPredictor {
                    model: entry.id.clone(),
                    predictor: wanted.clone(),
                })?,
            None => entry
                .predictors
                .first()
                .expect("registration always installs a predictor"),
        };
        if options.threshold.is_some() && !predictor.accepts_threshold_override() {
            return Err(EngineError::ThresholdUnsupported {
                model: entry.id.clone(),
                predictor: name.as_ref().to_string(),
            });
        }
        Ok(Resolved {
            key: ContextKey {
                model: entry.id.clone(),
                version: entry.version,
                predictor: Arc::clone(name),
            },
            model: entry.model.clone(),
            predictor: Arc::clone(predictor),
            threshold: options.threshold,
        })
    }

    /// Stages `next` as the next version (`live + 1`) of `model` for hot
    /// swap, served under `predictors` on its own mirror.  It is
    /// invisible to [`ModelRegistry::resolve`] until promoted.
    pub(crate) fn stage<P: Predictor + 'static>(
        &mut self,
        model: &ModelId,
        next: Model,
        predictors: impl IntoIterator<Item = P>,
    ) -> Result<ModelVersion, EngineError> {
        let live = self
            .live_entry(model)
            .ok_or_else(|| EngineError::UnknownModel {
                model: model.clone(),
            })?;
        if self.staged_entry(model).is_some() {
            return Err(EngineError::SwapInProgress {
                model: model.clone(),
            });
        }
        let mut entry = ModelEntry {
            id: model.clone(),
            version: live.version + 1,
            live: false,
            model: next,
            predictors: Vec::new(),
        };
        for predictor in predictors {
            entry.file(Arc::new(predictor))?;
        }
        if entry.predictors.is_empty() {
            return Err(EngineError::InvalidConfig {
                what: "a staged model needs at least one predictor".into(),
            });
        }
        let version = entry.version;
        self.models.push(entry);
        Ok(version)
    }

    /// Promotes `model`'s staged entry to live, retiring the incumbent.
    /// The new version takes the incumbent's registration slot so
    /// default-model ordering never changes.  In-flight requests keep
    /// their handles on the retired [`Model`]; workers drop what they
    /// hold for it once those finish.  No-op when no swap is staged.
    pub(crate) fn promote(&mut self, model: &ModelId) {
        let Some(live_idx) = self.models.iter().position(|e| &e.id == model && e.live) else {
            return;
        };
        let Some(staged_idx) = self.models.iter().position(|e| &e.id == model && !e.live) else {
            return;
        };
        self.models[staged_idx].live = true;
        self.models.swap(live_idx, staged_idx);
        self.models.remove(staged_idx).model.retire();
    }

    /// Drops `model`'s staged entry (hot-swap rollback).  No-op when no
    /// swap is staged.
    pub(crate) fn discard_staged(&mut self, model: &ModelId) {
        self.remove_where(|e| &e.id == model && !e.live);
    }

    /// Removes `model` entirely — live entry and any staged candidate.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownModel`] when `model` is not
    /// registered and [`EngineError::CannotEvictLast`] when it is the
    /// only live model (an engine cannot serve an empty registry).
    pub(crate) fn evict(&mut self, model: &ModelId) -> Result<(), EngineError> {
        if self.live_entry(model).is_none() {
            return Err(EngineError::UnknownModel {
                model: model.clone(),
            });
        }
        if self.len() == 1 {
            return Err(EngineError::CannotEvictLast {
                model: model.clone(),
            });
        }
        self.remove_where(|e| &e.id == model);
        Ok(())
    }

    /// Removes the matching entries and retires their models.
    fn remove_where(&mut self, gone: impl Fn(&ModelEntry) -> bool) {
        self.models.retain(|e| {
            let gone = gone(e);
            if gone {
                e.model.retire();
            }
            !gone
        });
    }

    fn live_entry(&self, id: &ModelId) -> Option<&ModelEntry> {
        self.models.iter().find(|e| &e.id == id && e.live)
    }

    fn staged_entry(&self, id: &ModelId) -> Option<&ModelEntry> {
        self.models.iter().find(|e| &e.id == id && !e.live)
    }
}

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
    fn duplicate_model_and_predictor_are_rejected() {
        let mut registry = ModelRegistry::new();
        registry
            .register("m", network(1), PredictorKind::Exact)
            .unwrap();
        assert_eq!(
            registry.register("m", network(2), PredictorKind::Exact),
            Err(EngineError::DuplicateModel { model: "m".into() })
        );
        assert_eq!(
            registry.add_predictor("m", PredictorKind::Exact),
            Err(EngineError::DuplicatePredictor {
                model: "m".into(),
                predictor: "exact".into(),
            })
        );
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
    fn stage_promote_and_rollback_manage_versions() {
        let mut registry = ModelRegistry::new();
        registry
            .register("a", network(1), PredictorKind::Exact)
            .unwrap();
        registry
            .register("b", network(2), PredictorKind::Exact)
            .unwrap();
        assert_eq!(registry.version("a"), Some(1));
        assert_eq!(registry.staged_version("a"), None);

        // Stage v2 of "a": invisible to resolve, visible to
        // resolve_staged.
        let v = registry
            .stage(&"a".into(), network(3).into(), [PredictorKind::Exact])
            .unwrap();
        assert_eq!(v, 2);
        assert_eq!(registry.staged_version("a"), Some(2));
        assert_eq!(registry.version("a"), Some(1));
        assert_eq!(registry.len(), 2, "staged entries do not count");
        let live = registry.resolve(&RequestOptions::default()).unwrap();
        assert_eq!(live.key.version, 1);
        let staged = registry
            .resolve_staged(&"a".into(), &RequestOptions::default())
            .unwrap();
        assert_eq!(staged.key.version, 2);

        // A second stage while one is pending is a typed error.
        assert!(matches!(
            registry.stage(&"a".into(), network(4).into(), [PredictorKind::Exact]),
            Err(EngineError::SwapInProgress { .. })
        ));

        // Rollback: staged entry vanishes and its model is retired,
        // live untouched.
        registry.discard_staged(&"a".into());
        assert_eq!(registry.staged_version("a"), None);
        assert_eq!(registry.version("a"), Some(1));
        assert!(staged.model.is_retired());
        assert!(!live.model.is_retired());

        // Promote: staged becomes live, version advances, default-model
        // ordering is preserved.
        registry
            .stage(&"a".into(), network(3).into(), [PredictorKind::Exact])
            .unwrap();
        registry.promote(&"a".into());
        assert_eq!(registry.version("a"), Some(2));
        assert_eq!(registry.staged_version("a"), None);
        assert_eq!(registry.default_model().unwrap().as_str(), "a");
        let resolved = registry.resolve(&RequestOptions::default()).unwrap();
        assert_eq!(resolved.key.version, 2);
        assert!(live.model.is_retired(), "promoted over");
        assert!(!resolved.model.is_retired());
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

    #[test]
    fn stage_errors_are_typed() {
        let mut registry = ModelRegistry::new();
        registry
            .register("a", network(1), PredictorKind::Exact)
            .unwrap();
        assert!(matches!(
            registry.stage(&"ghost".into(), network(2).into(), [PredictorKind::Exact]),
            Err(EngineError::UnknownModel { .. })
        ));
        assert!(matches!(
            registry.stage(&"a".into(), network(2).into(), [PredictorKind::Exact; 0]),
            Err(EngineError::InvalidConfig { .. })
        ));
    }
}
