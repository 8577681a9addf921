//! Binary mirror of a whole deep RNN.

use crate::gate::BinaryGate;
use nfm_rnn::{DeepRnn, GateId};
use std::collections::HashMap;

/// The binarized mirror of every gate of a [`DeepRnn`], keyed by
/// [`GateId`].
///
/// The mirror is built once per network (it only depends on the trained
/// weights, mirroring the sign-buffer contents of the modified E-PUR
/// accelerator) and then consulted on every timestep by the BNN-based
/// memoization predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryNetwork {
    gates: HashMap<GateId, BinaryGate>,
}

impl BinaryNetwork {
    /// Builds the binary mirror of `network`.
    pub fn mirror(network: &DeepRnn) -> Self {
        let gates = network
            .gates()
            .into_iter()
            .map(|(id, gate)| (id, BinaryGate::mirror(gate)))
            .collect();
        BinaryNetwork { gates }
    }

    /// Reassembles a mirror from explicit per-gate binary mirrors — the
    /// path a loaded model artifact takes.
    pub fn from_gates(gates: HashMap<GateId, BinaryGate>) -> Self {
        BinaryNetwork { gates }
    }

    /// Number of mirrored gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Looks up the mirror of a gate.
    pub fn gate(&self, id: GateId) -> Option<&BinaryGate> {
        self.gates.get(&id)
    }

    /// Iterates over `(GateId, &BinaryGate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&GateId, &BinaryGate)> {
        self.gates.iter()
    }

    /// Total number of sign bits stored across all gates — the capacity
    /// the accelerator's sign buffers must provide.
    pub fn total_sign_bits(&self) -> usize {
        self.gates.values().map(BinaryGate::sign_bit_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_rnn::{CellKind, DeepRnnConfig, Direction};
    use nfm_tensor::rng::DeterministicRng;

    fn network(bidi: bool) -> DeepRnn {
        let dir = if bidi {
            Direction::Bidirectional
        } else {
            Direction::Unidirectional
        };
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 6, 8)
            .layers(2)
            .direction(dir);
        let mut rng = DeterministicRng::seed_from_u64(1);
        DeepRnn::random(&cfg, &mut rng).unwrap()
    }

    #[test]
    fn mirror_covers_every_gate() {
        let net = network(false);
        let mirror = BinaryNetwork::mirror(&net);
        assert_eq!(mirror.gate_count(), net.gates().len());
        for (id, gate) in net.gates() {
            let bg = mirror.gate(id).expect("mirrored gate");
            assert_eq!(bg.neurons(), gate.neurons());
            assert_eq!(bg.input_size(), gate.input_size());
        }
    }

    #[test]
    fn bidirectional_mirror_has_twice_the_gates() {
        let uni = BinaryNetwork::mirror(&network(false));
        let bi = BinaryNetwork::mirror(&network(true));
        assert_eq!(bi.gate_count(), uni.gate_count() * 2);
    }

    #[test]
    fn unknown_gate_lookup_errors() {
        let mirror = BinaryNetwork::mirror(&network(false));
        let bogus = GateId::new(99, 0, nfm_rnn::GateKind::Input);
        assert!(mirror.gate(bogus).is_none());
    }

    #[test]
    fn total_sign_bits_matches_weight_count() {
        let net = network(false);
        let mirror = BinaryNetwork::mirror(&net);
        // One sign bit per recurrent weight.
        assert_eq!(mirror.total_sign_bits(), net.weight_count());
    }

    #[test]
    fn iter_visits_every_gate_once() {
        let mirror = BinaryNetwork::mirror(&network(true));
        assert_eq!(mirror.iter().count(), mirror.gate_count());
    }
}
