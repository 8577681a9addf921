//! Instrumentation for the BNN/FP correlation analysis (Figures 7 and 8).

use crate::mirror::BinaryNetwork;
use nfm_rnn::{evaluate_neurons, GateBatch, NeuronEvaluator, Result as RnnResult};
use nfm_tensor::stats::pearson_correlation;
use nfm_tensor::LineBuf;
use std::collections::HashMap;

/// The paired output series of one neuron: full-precision pre-activation
/// dot products and the corresponding binarized outputs, one entry per
/// evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NeuronSeries {
    /// Full-precision dot products (`W_x·x + W_h·h`).
    pub full_precision: Vec<f32>,
    /// Binary-network outputs (Equation 8).
    pub binarized: Vec<f32>,
}

impl NeuronSeries {
    /// Pearson correlation between the two series, or `None` if fewer
    /// than two samples were collected.
    pub fn correlation(&self) -> Option<f32> {
        if self.full_precision.len() < 2 {
            return None;
        }
        pearson_correlation(&self.full_precision, &self.binarized).ok()
    }

    /// Number of paired samples.
    pub fn len(&self) -> usize {
        self.full_precision.len()
    }

    /// Returns `true` if no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.full_precision.is_empty()
    }
}

/// A [`NeuronEvaluator`] that evaluates neurons exactly (so network
/// outputs are unchanged) while recording, for every neuron, both the
/// full-precision dot product and the output of the binarized mirror.
///
/// This reproduces the measurement behind Figure 7 (scatter of binarized
/// vs full-precision outputs for one network) and Figure 8 (histogram of
/// per-neuron correlation factors).  The binarized outputs come from the
/// memoizing evaluator's kernel: each gate call's lanes are sign-packed
/// once and the whole gate predicted in one dispatched call.  A gate
/// whose mirror is missing or of another shape records 0.
#[derive(Debug, Clone)]
pub struct CorrelationProbe {
    mirror: BinaryNetwork,
    series: HashMap<(nfm_rnn::GateId, usize), NeuronSeries>,
    // The current gate call's sign-packed lanes and binary outputs
    // (lane-striped), storage reused across calls.
    packed: LineBuf<u64>,
    yb: LineBuf<i32>,
}

impl CorrelationProbe {
    /// Creates a probe for a network whose binary mirror is `mirror`.
    pub fn new(mirror: BinaryNetwork) -> Self {
        CorrelationProbe {
            mirror,
            series: HashMap::new(),
            packed: LineBuf::default(),
            yb: LineBuf::default(),
        }
    }

    /// Borrow the recorded series, keyed by `(gate, neuron index)`.
    pub fn series(&self) -> &HashMap<(nfm_rnn::GateId, usize), NeuronSeries> {
        &self.series
    }

    /// Total number of neurons with at least one recorded sample.
    pub fn neuron_count(&self) -> usize {
        self.series.len()
    }

    /// The recorded series in a fixed order — by gate
    /// ([`GateId::dense_index`](nfm_rnn::GateId::dense_index)), then
    /// neuron — so what is pooled from them does not depend on the
    /// map's per-process hash order.
    fn ordered_series(&self) -> Vec<&NeuronSeries> {
        let mut keyed: Vec<_> = self.series.iter().collect();
        keyed.sort_unstable_by_key(|((gate, neuron), _)| (gate.dense_index(), *neuron));
        keyed.into_iter().map(|(_, series)| series).collect()
    }

    /// All paired samples flattened into `(full precision, binarized)`
    /// tuples — the point cloud of Figure 7 — in gate, neuron, timestep
    /// order.
    pub fn paired_samples(&self) -> Vec<(f32, f32)> {
        let mut out = Vec::new();
        for s in self.ordered_series() {
            out.extend(
                s.full_precision
                    .iter()
                    .zip(s.binarized.iter())
                    .map(|(&a, &b)| (a, b)),
            );
        }
        out
    }

    /// Per-neuron correlation coefficients (neurons with fewer than two
    /// samples are skipped) in gate, neuron order — the sample behind
    /// Figure 8.
    pub fn per_neuron_correlations(&self) -> Vec<f32> {
        self.ordered_series()
            .into_iter()
            .filter_map(NeuronSeries::correlation)
            .collect()
    }

    /// Correlation computed over the pooled samples of *all* neurons —
    /// the single "R factor" quoted for EESEN in Figure 7.
    pub fn pooled_correlation(&self) -> Option<f32> {
        let pairs = self.paired_samples();
        if pairs.len() < 2 {
            return None;
        }
        let fp: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let bn: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        pearson_correlation(&fp, &bn).ok()
    }
}

impl NeuronEvaluator for CorrelationProbe {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        let (gate, nsz) = (call.gate, call.gate.neurons());
        self.yb.resize(call.lanes * nsz);
        match self.mirror.gate(call.gate_id) {
            Some(bg) if bg.has_shape_of(gate) => {
                bg.pack_inputs(call.xs, call.h_prevs, call.lanes, &mut self.packed);
                bg.predict_packed_into(&self.packed, &mut self.yb);
            }
            _ => self.yb.fill(0),
        }
        let (wh, yb, series) = (gate.wh(), &self.yb, &mut self.series);
        evaluate_neurons(call, out, |id, _, h_prev, fwd| {
            let fp = fwd + wh.row_dot(id.neuron, h_prev)?;
            let entry = series.entry((id.gate_id, id.neuron)).or_default();
            entry.full_precision.push(fp);
            entry.binarized.push(yb[id.lane * nsz + id.neuron] as f32);
            Ok(fp)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig, ExactEvaluator};
    use nfm_tensor::rng::DeterministicRng;
    use nfm_tensor::Vector;

    fn setup() -> (DeepRnn, Vec<Vector>) {
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 8, 12).layers(1);
        let mut rng = DeterministicRng::seed_from_u64(42);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        // A smooth, slowly varying input sequence (random walk) so
        // consecutive outputs are correlated like real audio frames.
        let mut x = Vector::from_fn(8, |_| rng.uniform(-0.5, 0.5));
        let seq: Vec<Vector> = (0..40)
            .map(|_| {
                x = x
                    .map(|v| v) // keep previous
                    .add(&Vector::from_fn(8, |_| rng.uniform(-0.1, 0.1)))
                    .unwrap();
                x.clone()
            })
            .collect();
        (net, seq)
    }

    #[test]
    fn probe_does_not_change_network_outputs() {
        let (net, seq) = setup();
        let exact = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let mut probe = CorrelationProbe::new(BinaryNetwork::mirror(&net));
        let probed = net.run(&seq, &mut probe).unwrap();
        assert_eq!(exact, probed);
    }

    #[test]
    fn probe_records_one_sample_per_neuron_per_timestep() {
        let (net, seq) = setup();
        let mut probe = CorrelationProbe::new(BinaryNetwork::mirror(&net));
        let _ = net.run(&seq, &mut probe).unwrap();
        assert_eq!(probe.neuron_count(), net.neuron_evaluations_per_step());
        for s in probe.series().values() {
            assert_eq!(s.len(), seq.len());
            assert!(!s.is_empty());
        }
        assert_eq!(
            probe.paired_samples().len(),
            net.neuron_evaluations_per_step() * seq.len()
        );
    }

    #[test]
    fn fp_and_bnn_outputs_are_positively_correlated() {
        let (net, seq) = setup();
        let mut probe = CorrelationProbe::new(BinaryNetwork::mirror(&net));
        let _ = net.run(&seq, &mut probe).unwrap();
        let pooled = probe.pooled_correlation().expect("enough samples");
        assert!(
            pooled > 0.5,
            "expected strong positive pooled correlation, got {pooled}"
        );
        let per_neuron = probe.per_neuron_correlations();
        assert!(!per_neuron.is_empty());
        let positive = per_neuron.iter().filter(|&&r| r > 0.0).count();
        assert!(
            positive * 2 > per_neuron.len(),
            "most neurons correlate positively"
        );
    }

    #[test]
    fn pooled_samples_come_in_gate_neuron_timestep_order() {
        // Two probes hash their keys differently; what they pool must
        // not differ.
        let (net, seq) = setup();
        let probes: Vec<CorrelationProbe> = (0..2)
            .map(|_| {
                let mut probe = CorrelationProbe::new(BinaryNetwork::mirror(&net));
                let _ = net.run(&seq, &mut probe).unwrap();
                probe
            })
            .collect();
        let pooled = probes[0].paired_samples();
        assert_eq!(pooled, probes[1].paired_samples());
        let series = probes[0].series();
        let first = series
            .keys()
            .min_by_key(|(gate, neuron)| (gate.dense_index(), *neuron))
            .unwrap();
        let first = &series[first];
        for (t, &(fp, bnn)) in pooled[..seq.len()].iter().enumerate() {
            assert_eq!((fp, bnn), (first.full_precision[t], first.binarized[t]));
        }
    }

    #[test]
    fn empty_probe_reports_nothing() {
        let (net, _) = setup();
        let probe = CorrelationProbe::new(BinaryNetwork::mirror(&net));
        assert_eq!(probe.neuron_count(), 0);
        assert!(probe.pooled_correlation().is_none());
        assert!(probe.per_neuron_correlations().is_empty());
    }

    #[test]
    fn neuron_series_correlation_requires_two_samples() {
        let mut s = NeuronSeries::default();
        assert!(s.correlation().is_none());
        s.full_precision.extend([1.0, 2.0, 3.0]);
        s.binarized.extend([2.0, 4.0, 6.0]);
        assert!((s.correlation().unwrap() - 1.0).abs() < 1e-6);
    }
}
