//! The serving crate's one error type, shared by the registry, the
//! hot-swap lifecycle and the engine.

use crate::registry::ModelId;
use crate::request::RequestId;
use nfm_model::ModelArtifactError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by [`EngineBuilder::build`](crate::EngineBuilder::build),
/// [`Engine::submit`](crate::Engine::submit),
/// [`Engine::swap_model`](crate::Engine::swap_model) and
/// [`ModelRegistry`](crate::ModelRegistry) registration.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The builder was configured outside the accepted ranges (all
    /// three knobs accept `1..`): the engine refuses degenerate
    /// configurations instead of silently clamping them.
    InvalidConfig {
        /// Which constraint was violated.
        what: String,
    },
    /// The submission queue is at capacity — backpressure.  Retry after
    /// draining some responses, or build the engine with a larger
    /// [`queue_capacity`](crate::EngineBuilder::queue_capacity).
    QueueFull {
        /// The configured capacity that is currently exhausted.
        capacity: usize,
    },
    /// The request's sequence is empty.
    EmptySequence {
        /// The offending request.
        id: RequestId,
    },
    /// A sequence element does not match the targeted model's input
    /// width.
    InputSizeMismatch {
        /// The offending request.
        id: RequestId,
        /// Width the targeted model's network expects.
        expected: usize,
        /// Width found.
        found: usize,
        /// Index of the offending element.
        timestep: usize,
    },
    /// The request names a model that is not registered.
    UnknownModel {
        /// The id that failed to resolve.
        model: ModelId,
    },
    /// The request names a predictor that is not registered for its
    /// model.
    UnknownPredictor {
        /// The model the lookup ran against.
        model: ModelId,
        /// The predictor name that failed to resolve.
        predictor: String,
    },
    /// The request overrides the threshold of a predictor that accepts
    /// no override (the exact baseline, the adaptive predictor, custom
    /// predictors that leave
    /// [`Predictor::accepts_threshold_override`](nfm_core::Predictor::accepts_threshold_override)
    /// at its default).
    ThresholdUnsupported {
        /// The model the request targeted.
        model: ModelId,
        /// The predictor without a threshold.
        predictor: String,
    },
    /// A model id was registered twice.
    DuplicateModel {
        /// The contested id.
        model: ModelId,
    },
    /// A predictor name was registered twice for the same model.
    DuplicatePredictor {
        /// The model the registration ran against.
        model: ModelId,
        /// The contested predictor name.
        predictor: String,
    },
    /// The registry holds no models, so there is nothing to serve (and
    /// no default model to resolve requests against).
    EmptyRegistry,
    /// A hot swap is already staged for this model; resolve it
    /// (promotion, rollback or eviction) before staging another.
    SwapInProgress {
        /// The model with a pending swap.
        model: ModelId,
    },
    /// Evicting this model would leave the registry empty; an engine
    /// cannot serve without a default model.
    CannotEvictLast {
        /// The model that was not evicted.
        model: ModelId,
    },
    /// A model artifact could not be loaded (converted from
    /// [`ModelArtifactError`], which has the failure taxonomy).
    BadArtifact {
        /// The underlying artifact error, rendered.
        what: String,
    },
    /// The engine has been shut down and accepts no further work.
    ShutDown,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig { what } => write!(f, "invalid engine config: {what}"),
            EngineError::QueueFull { capacity } => {
                write!(
                    f,
                    "submission queue full (capacity {capacity}); backpressure"
                )
            }
            EngineError::EmptySequence { id } => {
                write!(f, "request {id} has an empty sequence")
            }
            EngineError::InputSizeMismatch {
                id,
                expected,
                found,
                timestep,
            } => write!(
                f,
                "request {id}: element {timestep} has width {found}, network expects {expected}"
            ),
            EngineError::UnknownModel { model } => {
                write!(f, "no model registered under id {model:?}")
            }
            EngineError::UnknownPredictor { model, predictor } => {
                write!(f, "model {model:?} has no predictor named {predictor:?}")
            }
            EngineError::ThresholdUnsupported { model, predictor } => write!(
                f,
                "predictor {predictor:?} of model {model:?} has no threshold to override"
            ),
            EngineError::DuplicateModel { model } => {
                write!(f, "model id {model:?} is already registered")
            }
            EngineError::DuplicatePredictor { model, predictor } => write!(
                f,
                "model {model:?} already has a predictor named {predictor:?}"
            ),
            EngineError::EmptyRegistry => {
                write!(f, "the model registry is empty; register a model first")
            }
            EngineError::SwapInProgress { model } => {
                write!(f, "model {model:?} already has a hot swap staged")
            }
            EngineError::CannotEvictLast { model } => {
                write!(f, "cannot evict {model:?}: it is the last registered model")
            }
            EngineError::BadArtifact { what } => write!(f, "bad model artifact: {what}"),
            EngineError::ShutDown => write!(f, "engine is shut down"),
        }
    }
}

impl Error for EngineError {}

impl From<ModelArtifactError> for EngineError {
    fn from(e: ModelArtifactError) -> EngineError {
        EngineError::BadArtifact {
            what: e.to_string(),
        }
    }
}
