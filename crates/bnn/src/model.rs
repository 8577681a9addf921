//! One model version's shared artifacts.

use crate::mirror::BinaryNetwork;
use nfm_rnn::DeepRnn;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// One version of a served model: the trained network and the binary
/// mirror derived from its weights.
///
/// The mirror only depends on the weights, so a version has exactly one:
/// it is built by the first [`mirror`](Model::mirror) call (or carried
/// over from an artifact by [`with_mirror`](Model::with_mirror)) and
/// shared from then on.  Every memoization policy applied to the version
/// and every worker serving it reads these artifacts through a clone of
/// the same `Model` — cloning shares, it never copies weights or sign
/// rows.
///
/// The owner of a version (the serving registry) marks it
/// [retired](Model::retire) when it stops routing requests to it, which
/// tells the holders of other clones to drop the state they keep for it
/// once idle.
#[derive(Debug, Clone)]
pub struct Model {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    network: Arc<DeepRnn>,
    mirror: OnceLock<Arc<BinaryNetwork>>,
    retired: AtomicBool,
}

impl Model {
    /// A version whose mirror, when `Some`, was built elsewhere (a model
    /// artifact carries one); `None` leaves it to the first
    /// [`mirror`](Model::mirror) call.
    pub fn with_mirror(
        network: impl Into<Arc<DeepRnn>>,
        mirror: Option<impl Into<Arc<BinaryNetwork>>>,
    ) -> Model {
        Model {
            shared: Arc::new(Shared {
                network: network.into(),
                mirror: mirror.map_or_else(OnceLock::new, |m| OnceLock::from(m.into())),
                retired: AtomicBool::new(false),
            }),
        }
    }

    /// The version's weights.
    pub fn network(&self) -> &Arc<DeepRnn> {
        &self.shared.network
    }

    /// The version's binary mirror, built on the first call.
    pub fn mirror(&self) -> &Arc<BinaryNetwork> {
        self.shared
            .mirror
            .get_or_init(|| Arc::new(BinaryNetwork::mirror(&self.shared.network)))
    }

    /// Whether the mirror exists yet (built, or carried over).
    pub fn has_mirror(&self) -> bool {
        self.shared.mirror.get().is_some()
    }

    /// Marks the version as no longer routed to.  Work already running
    /// on it still finishes.
    pub fn retire(&self) {
        // Relaxed: the flag publishes no other data, it only tells a
        // holder that what it keeps for this version may go.
        self.shared.retired.store(true, Ordering::Relaxed);
    }

    /// Whether [`retire`](Model::retire) has been called on any clone.
    pub fn is_retired(&self) -> bool {
        self.shared.retired.load(Ordering::Relaxed)
    }
}

impl From<DeepRnn> for Model {
    fn from(network: DeepRnn) -> Model {
        Model::from(Arc::new(network))
    }
}

impl From<Arc<DeepRnn>> for Model {
    fn from(network: Arc<DeepRnn>) -> Model {
        Model::with_mirror(network, None::<BinaryNetwork>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_rnn::{CellKind, DeepRnnConfig};
    use nfm_tensor::rng::DeterministicRng;

    fn network() -> DeepRnn {
        let mut rng = DeterministicRng::seed_from_u64(5);
        DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 4, 6), &mut rng).unwrap()
    }

    #[test]
    fn clones_share_one_mirror_and_one_flag() {
        let model = Model::from(network());
        let clone = model.clone();
        assert!(!clone.has_mirror());
        assert!(Arc::ptr_eq(model.mirror(), clone.mirror()));
        assert!(clone.has_mirror());
        assert_eq!(**model.mirror(), BinaryNetwork::mirror(model.network()));
        assert!(!clone.is_retired());
        model.retire();
        assert!(clone.is_retired());
    }

    #[test]
    fn a_carried_mirror_is_never_rebuilt() {
        let carried = Arc::new(BinaryNetwork::mirror(&network()));
        let model = Model::with_mirror(network(), Some(Arc::clone(&carried)));
        assert!(model.has_mirror());
        assert!(Arc::ptr_eq(model.mirror(), &carried));
    }
}
