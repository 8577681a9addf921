//! The model registry: which models an [`Engine`](crate::Engine)
//! serves, which predictors each model can be served under, and which
//! **version** of each model is live.
//!
//! A registry maps a [`ModelId`] to one network plus a named set of
//! [`Predictor`] factories.  Entries are keyed `(ModelId, version)`:
//! exactly one entry per id is *live* (the one `resolve` routes to) and
//! at most one higher-versioned entry is *staged* during a hot swap.
//! Weights and mirrors are immutable and `Arc`-shared once registered:
//! workers clone `Arc` handles, never weights or mirrors (one
//! [`BinaryNetwork`] mirror is prebuilt per model version and shared by
//! every BNN predictor and every worker).
//!
//! Requests pick a model and predictor through
//! [`RequestOptions`]; submission resolves the options against the
//! registry **synchronously**, so unknown ids and unsupported
//! overrides surface as typed [`EngineError`]s from
//! [`Engine::submit`](crate::Engine::submit), never mid-flight.

use crate::engine::EngineError;
use crate::request::RequestOptions;
use nfm_bnn::BinaryNetwork;
use nfm_core::{Predictor, PredictorKind};
use nfm_model::LoadedModel;
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

/// One registered model version: the network plus its named predictors.
#[derive(Debug)]
pub(crate) struct ModelEntry {
    pub(crate) id: ModelId,
    /// This entry's weight version.
    pub(crate) version: ModelVersion,
    /// Whether `resolve` routes to this entry.  Exactly one entry per
    /// id is live; a non-live entry is a staged hot-swap candidate.
    pub(crate) live: bool,
    pub(crate) network: Arc<DeepRnn>,
    /// `(name, factory)` in registration order; the first is the
    /// model's default.
    pub(crate) predictors: Vec<(Arc<str>, Arc<dyn Predictor>)>,
    /// The model's binary mirror, built once when the first BNN
    /// predictor is registered (or carried over from an artifact) and
    /// shared from then on.
    mirror: Option<Arc<BinaryNetwork>>,
}

/// A request resolved against the registry: the exact network and
/// predictor factory the worker must use, the context key workers
/// group lane schedulers by, and the `θ` override the request's lane
/// runs at (accepted by the predictor, or resolution would have
/// failed).
#[derive(Debug, Clone)]
pub(crate) struct Resolved {
    pub(crate) key: ContextKey,
    pub(crate) network: Arc<DeepRnn>,
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

/// Maps [`ModelId`]s to versioned networks and named [`Predictor`]
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

    /// Registers `network` under `id` (as version 1) with a built-in
    /// default predictor.  The first registration becomes the engine's
    /// default model.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DuplicateModel`] when `id` is taken.
    pub fn register(
        &mut self,
        id: impl Into<ModelId>,
        network: impl Into<Arc<DeepRnn>>,
        predictor: PredictorKind,
    ) -> Result<(), EngineError> {
        let id = id.into();
        self.register_entry(id.clone(), network.into(), None)?;
        self.add_predictor(&id, predictor)
    }

    /// Registers a model loaded from a versioned artifact (see
    /// [`nfm_model`]).  The artifact's prebuilt [`BinaryNetwork`]
    /// mirror, when present, is reused — a BNN predictor never
    /// rebuilds sign rows the artifact already carries.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DuplicateModel`] when `id` is taken.
    pub fn register_loaded(
        &mut self,
        id: impl Into<ModelId>,
        loaded: LoadedModel,
        predictor: PredictorKind,
    ) -> Result<(), EngineError> {
        let id = id.into();
        let mirror = loaded.mirror.map(Arc::new);
        self.register_entry(id.clone(), Arc::new(loaded.network), mirror)?;
        self.add_predictor(&id, predictor)
    }

    /// Registers `network` under `id` with a custom [`Predictor`]
    /// factory as its default, filed under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DuplicateModel`] when `id` is taken.
    pub fn register_custom(
        &mut self,
        id: impl Into<ModelId>,
        network: impl Into<Arc<DeepRnn>>,
        name: impl Into<Arc<str>>,
        predictor: Arc<dyn Predictor>,
    ) -> Result<(), EngineError> {
        let id = id.into();
        self.register_entry(id.clone(), network.into(), None)?;
        self.add_custom_predictor(&id, name, predictor)
    }

    /// Adds a built-in predictor to an already-registered model's
    /// **live** version, filed under [`PredictorKind::name`].  A BNN
    /// kind reuses the model's prebuilt mirror (building it on first
    /// need).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownModel`] when `model` is not
    /// registered and [`EngineError::DuplicatePredictor`] when the name
    /// is taken for this model.
    pub fn add_predictor(
        &mut self,
        model: impl Into<ModelId>,
        predictor: PredictorKind,
    ) -> Result<(), EngineError> {
        let model = model.into();
        let entry = self.entry_mut(&model)?;
        let mirror = if predictor.needs_mirror() {
            Some(
                entry
                    .mirror
                    .get_or_insert_with(|| Arc::new(BinaryNetwork::mirror(&entry.network)))
                    .clone(),
            )
        } else {
            None
        };
        let factory = predictor.instantiate(&entry.network, mirror);
        Self::push_predictor(entry, Arc::from(predictor.name()), factory)
    }

    /// Adds a custom predictor to an already-registered model's live
    /// version under `name`.
    ///
    /// # Errors
    ///
    /// Same as [`ModelRegistry::add_predictor`].
    pub fn add_custom_predictor(
        &mut self,
        model: impl Into<ModelId>,
        name: impl Into<Arc<str>>,
        predictor: Arc<dyn Predictor>,
    ) -> Result<(), EngineError> {
        let model = model.into();
        let entry = self.entry_mut(&model)?;
        Self::push_predictor(entry, name.into(), predictor)
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

    /// Registered model ids, in registration order.
    pub fn model_ids(&self) -> impl Iterator<Item = &ModelId> {
        self.models.iter().filter(|e| e.live).map(|e| &e.id)
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
        self.live_entry(&model).map(|e| &e.network)
    }

    /// The registered factory for `(model, version, name)`, if any.
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

    /// Resolves a request's options to the concrete network + predictor
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
        let (name, factory) = match &options.predictor {
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
        if options.threshold.is_some() && !factory.accepts_threshold_override() {
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
            network: Arc::clone(&entry.network),
            predictor: Arc::clone(factory),
            threshold: options.threshold,
        })
    }

    /// Stages `network` as the next version of `model` for hot swap.
    /// The staged entry gets predictors built from `kinds` (reusing
    /// `mirror` when supplied, e.g. from an artifact) and version
    /// `live + 1`.  It is invisible to [`ModelRegistry::resolve`] until
    /// promoted.
    pub(crate) fn stage(
        &mut self,
        model: &ModelId,
        network: Arc<DeepRnn>,
        mirror: Option<Arc<BinaryNetwork>>,
        kinds: &[PredictorKind],
    ) -> Result<ModelVersion, EngineError> {
        if kinds.is_empty() {
            return Err(EngineError::InvalidConfig {
                what: "a staged model needs at least one predictor".into(),
            });
        }
        let live = self
            .live_entry(model)
            .ok_or_else(|| EngineError::UnknownModel {
                model: model.clone(),
            })?;
        let version = live.version + 1;
        if self.staged_entry(model).is_some() {
            return Err(EngineError::SwapInProgress {
                model: model.clone(),
            });
        }
        let mut entry = ModelEntry {
            id: model.clone(),
            version,
            live: false,
            network,
            predictors: Vec::new(),
            mirror,
        };
        for kind in kinds {
            let mirror = if kind.needs_mirror() {
                Some(
                    entry
                        .mirror
                        .get_or_insert_with(|| Arc::new(BinaryNetwork::mirror(&entry.network)))
                        .clone(),
                )
            } else {
                None
            };
            let factory = kind.instantiate(&entry.network, mirror);
            Self::push_predictor(&mut entry, Arc::from(kind.name()), factory)?;
        }
        self.models.push(entry);
        Ok(version)
    }

    /// Promotes `model`'s staged entry to live, retiring the incumbent.
    /// The new version takes the incumbent's registration slot so
    /// default-model ordering never changes.  In-flight requests keep
    /// their `Arc` handles to the retired weights; nothing is freed
    /// until they finish.  No-op when no swap is staged.
    pub(crate) fn promote(&mut self, model: &ModelId) {
        let Some(live_idx) = self.models.iter().position(|e| &e.id == model && e.live) else {
            return;
        };
        let Some(staged_idx) = self.models.iter().position(|e| &e.id == model && !e.live) else {
            return;
        };
        self.models[staged_idx].live = true;
        self.models.swap(live_idx, staged_idx);
        self.models.remove(staged_idx);
    }

    /// Drops `model`'s staged entry (hot-swap rollback).  No-op when no
    /// swap is staged.
    pub(crate) fn discard_staged(&mut self, model: &ModelId) {
        self.models.retain(|e| &e.id != model || e.live);
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
        self.models.retain(|e| &e.id != model);
        Ok(())
    }

    fn live_entry(&self, id: &ModelId) -> Option<&ModelEntry> {
        self.models.iter().find(|e| &e.id == id && e.live)
    }

    fn staged_entry(&self, id: &ModelId) -> Option<&ModelEntry> {
        self.models.iter().find(|e| &e.id == id && !e.live)
    }

    fn register_entry(
        &mut self,
        id: ModelId,
        network: Arc<DeepRnn>,
        mirror: Option<Arc<BinaryNetwork>>,
    ) -> Result<(), EngineError> {
        if self.models.iter().any(|e| e.id == id) {
            return Err(EngineError::DuplicateModel { model: id });
        }
        self.models.push(ModelEntry {
            id,
            version: 1,
            live: true,
            network,
            predictors: Vec::new(),
            mirror,
        });
        Ok(())
    }

    fn entry_mut(&mut self, id: &ModelId) -> Result<&mut ModelEntry, EngineError> {
        self.models
            .iter_mut()
            .find(|e| &e.id == id && e.live)
            .ok_or_else(|| EngineError::UnknownModel { model: id.clone() })
    }

    fn push_predictor(
        entry: &mut ModelEntry,
        name: Arc<str>,
        predictor: Arc<dyn Predictor>,
    ) -> Result<(), EngineError> {
        if entry.predictors.iter().any(|(n, _)| *n == name) {
            return Err(EngineError::DuplicatePredictor {
                model: entry.id.clone(),
                predictor: name.as_ref().to_string(),
            });
        }
        entry.predictors.push((name, predictor));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_core::BnnMemoConfig;
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

    #[test]
    fn bnn_predictors_share_one_mirror_per_model() {
        let mut registry = ModelRegistry::new();
        registry
            .register(
                "m",
                network(1),
                PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5)),
            )
            .unwrap();
        registry
            .add_custom_predictor(
                "m",
                "bnn-loose",
                PredictorKind::Bnn(BnnMemoConfig::with_threshold(2.0)).instantiate(
                    registry.network("m").unwrap(),
                    None, // deliberately separate: custom registration path
                ),
            )
            .unwrap();
        // The built-in path shares the entry's mirror.
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
        // context key and the same factory: workers never build an
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
            .stage(
                &"a".into(),
                Arc::new(network(3)),
                None,
                &[PredictorKind::Exact],
            )
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
            registry.stage(
                &"a".into(),
                Arc::new(network(4)),
                None,
                &[PredictorKind::Exact]
            ),
            Err(EngineError::SwapInProgress { .. })
        ));

        // Rollback: staged entry vanishes, live untouched.
        registry.discard_staged(&"a".into());
        assert_eq!(registry.staged_version("a"), None);
        assert_eq!(registry.version("a"), Some(1));

        // Promote: staged becomes live, version advances, default-model
        // ordering is preserved.
        registry
            .stage(
                &"a".into(),
                Arc::new(network(3)),
                None,
                &[PredictorKind::Exact],
            )
            .unwrap();
        registry.promote(&"a".into());
        assert_eq!(registry.version("a"), Some(2));
        assert_eq!(registry.staged_version("a"), None);
        assert_eq!(registry.default_model().unwrap().as_str(), "a");
        let resolved = registry.resolve(&RequestOptions::default()).unwrap();
        assert_eq!(resolved.key.version, 2);
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
        registry.evict(&"a".into()).unwrap();
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
            registry.stage(
                &"ghost".into(),
                Arc::new(network(2)),
                None,
                &[PredictorKind::Exact]
            ),
            Err(EngineError::UnknownModel { .. })
        ));
        assert!(matches!(
            registry.stage(&"a".into(), Arc::new(network(2)), None, &[]),
            Err(EngineError::InvalidConfig { .. })
        ));
    }
}
