//! Audit sampling: observing memoization error without forfeiting reuse.
//!
//! A memoized hit normally skips the full-precision dot product, so its
//! error is invisible at run time. An *audit step* fixes that: a
//! deterministic 1-in-N subsample of hits is **also** computed exactly
//! and the absolute output error recorded — the emitted output is still
//! the cached value, so auditing never changes what a run produces,
//! only what it observes. The per-layer hit/error counters collected
//! here are the feedback signal for the online threshold controller in
//! `nfm-control`.

/// Configuration of deterministic audit sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Audit every `period`-th memoization hit of each gate (per lane,
    /// counted from the start of the sequence — so the sample does not
    /// depend on the order a driver visits gates in). Must be at least
    /// 1; `1` audits every hit.
    pub period: u64,
    /// Seed selecting *which* residue of the hit counter is audited,
    /// so different seeds sample different hit phases.
    pub seed: u64,
}

impl AuditConfig {
    /// Creates a config auditing one in `period` hits.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64, seed: u64) -> Self {
        assert!(period >= 1, "audit period must be at least 1");
        AuditConfig { period, seed }
    }

    /// The hit-counter residue that triggers an audit.
    pub fn offset(&self) -> u64 {
        self.seed % self.period
    }
}

/// Per-layer audit accounting: hits observed and the exact error of
/// the audited subsample.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerAudit {
    /// Memoization hits attributed to this layer.
    pub hits: u64,
    /// Hits that were audited (also computed exactly).
    pub audited: u64,
    /// Sum of `|exact − cached|` over the audited hits.
    pub error_sum: f64,
}

impl LayerAudit {
    /// Mean absolute error of the audited hits, `None` if nothing was
    /// audited.
    pub fn mean_error(&self) -> Option<f64> {
        if self.audited == 0 {
            None
        } else {
            Some(self.error_sum / self.audited as f64)
        }
    }
}

/// Audit counters for every layer of a network, indexed by
/// `GateId::layer`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditStats {
    layers: Vec<LayerAudit>,
}

impl AuditStats {
    /// Creates empty stats.
    pub fn new() -> Self {
        AuditStats::default()
    }

    /// Grows the layer vector so `layer` is addressable.
    pub fn ensure_layer(&mut self, layer: usize) {
        if layer >= self.layers.len() {
            self.layers.resize(layer + 1, LayerAudit::default());
        }
    }

    /// Records one memoization hit on `layer`.
    pub fn record_hit(&mut self, layer: usize) {
        self.ensure_layer(layer);
        self.layers[layer].hits += 1;
    }

    /// Records `n` memoization hits on `layer`.
    pub fn record_hits(&mut self, layer: usize, n: u64) {
        self.ensure_layer(layer);
        self.layers[layer].hits += n;
    }

    /// Records one audited hit on `layer` with absolute error `error`.
    pub fn record_audit(&mut self, layer: usize, error: f64) {
        self.ensure_layer(layer);
        let slot = &mut self.layers[layer];
        slot.audited += 1;
        slot.error_sum += error;
    }

    /// Per-layer counters.
    pub fn layers(&self) -> &[LayerAudit] {
        &self.layers
    }

    /// `true` when no hit or audit has been recorded.
    pub fn is_empty(&self) -> bool {
        self.layers.iter().all(|l| l.hits == 0 && l.audited == 0)
    }

    /// Total audited hits across layers.
    pub fn audited(&self) -> u64 {
        self.layers.iter().map(|l| l.audited).sum()
    }

    /// Mean absolute error across all audited hits, `None` if nothing
    /// was audited.
    pub fn mean_error(&self) -> Option<f64> {
        let audited = self.audited();
        if audited == 0 {
            None
        } else {
            let sum: f64 = self.layers.iter().map(|l| l.error_sum).sum();
            Some(sum / audited as f64)
        }
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &AuditStats) {
        self.ensure_layer(other.layers.len().saturating_sub(1));
        for (slot, layer) in self.layers.iter_mut().zip(&other.layers) {
            slot.hits += layer.hits;
            slot.audited += layer.audited;
            slot.error_sum += layer.error_sum;
        }
    }

    /// Takes the counters, leaving empty ones behind (layer count is
    /// preserved so indices stay stable).
    pub fn take(&mut self) -> AuditStats {
        let layers = self.layers.len();
        let taken = std::mem::take(&mut self.layers);
        self.layers = vec![LayerAudit::default(); layers];
        AuditStats { layers: taken }
    }
}

/// Snapshot of one layer's controller state, for observability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerControl {
    /// Current memoization threshold θ for the layer.
    pub threshold: f32,
    /// EWMA of the mean audited error, `None` before the first update.
    pub ewma_error: Option<f64>,
    /// Cumulative memoization hits observed by the controller.
    pub hits: u64,
    /// Cumulative audited hits observed by the controller.
    pub audited: u64,
    /// Cumulative sum of `|exact − cached|` over the audited hits, so
    /// whole-run mean audited error is recoverable from a snapshot
    /// (the EWMA only tracks the recent past).
    pub error_sum: f64,
}

impl LayerControl {
    /// Cumulative mean absolute error of the audited hits, `None`
    /// before the first audit.
    pub fn mean_audited_error(&self) -> Option<f64> {
        if self.audited == 0 {
            None
        } else {
            Some(self.error_sum / self.audited as f64)
        }
    }
}

/// Snapshot of a threshold controller's state, exposed through
/// [`Predictor::control_snapshot`](crate::Predictor::control_snapshot)
/// so the serving engine can report it without depending on the
/// controller crate.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlSnapshot {
    /// The accuracy SLO: target mean absolute error per audited hit.
    pub slo: f64,
    /// Per-layer controller state, indexed by `GateId::layer`.
    pub layers: Vec<LayerControl>,
}

impl ControlSnapshot {
    /// Largest per-layer EWMA error, `None` before any update.
    pub fn max_ewma_error(&self) -> Option<f64> {
        self.layers
            .iter()
            .filter_map(|l| l.ewma_error)
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
    }

    /// Current per-layer thresholds.
    pub fn thresholds(&self) -> Vec<f32> {
        self.layers.iter().map(|l| l.threshold).collect()
    }

    /// Cumulative mean absolute error across all audited hits of all
    /// layers, `None` before any audit.
    pub fn mean_audited_error(&self) -> Option<f64> {
        let audited: u64 = self.layers.iter().map(|l| l.audited).sum();
        if audited == 0 {
            None
        } else {
            let sum: f64 = self.layers.iter().map(|l| l.error_sum).sum();
            Some(sum / audited as f64)
        }
    }

    /// Total memoization hits observed across layers.
    pub fn hits(&self) -> u64 {
        self.layers.iter().map(|l| l.hits).sum()
    }

    /// Total audited hits across layers.
    pub fn audited(&self) -> u64 {
        self.layers.iter().map(|l| l.audited).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_is_seed_residue() {
        assert_eq!(AuditConfig::new(16, 0).offset(), 0);
        assert_eq!(AuditConfig::new(16, 21).offset(), 5);
        assert_eq!(AuditConfig::new(1, 9).offset(), 0);
    }

    #[test]
    #[should_panic(expected = "audit period")]
    fn zero_period_is_rejected() {
        AuditConfig::new(0, 7);
    }

    #[test]
    fn record_and_mean() {
        let mut s = AuditStats::new();
        s.record_hit(1);
        s.record_hits(1, 3);
        s.record_audit(1, 0.5);
        s.record_audit(1, 1.5);
        s.record_hit(0);
        assert_eq!(s.layers().len(), 2);
        assert_eq!(s.layers()[1].hits, 4);
        assert_eq!(s.layers()[1].audited, 2);
        assert_eq!(s.layers()[1].mean_error(), Some(1.0));
        assert_eq!(s.layers()[0].mean_error(), None);
        assert_eq!(s.mean_error(), Some(1.0));
        assert!(!s.is_empty());
    }

    #[test]
    fn merge_and_take() {
        let mut a = AuditStats::new();
        a.record_audit(0, 1.0);
        let mut b = AuditStats::new();
        b.record_audit(2, 3.0);
        b.record_hit(2);
        a.merge(&b);
        assert_eq!(a.layers().len(), 3);
        assert_eq!(a.audited(), 2);
        let taken = a.take();
        assert_eq!(taken.audited(), 2);
        assert!(a.is_empty());
        assert_eq!(a.layers().len(), 3, "layer indices stay stable");
    }

    #[test]
    fn snapshot_max_ewma() {
        let snap = ControlSnapshot {
            slo: 0.1,
            layers: vec![
                LayerControl {
                    threshold: 0.5,
                    ewma_error: None,
                    hits: 0,
                    audited: 0,
                    error_sum: 0.0,
                },
                LayerControl {
                    threshold: 0.25,
                    ewma_error: Some(0.2),
                    hits: 10,
                    audited: 2,
                    error_sum: 0.5,
                },
            ],
        };
        assert_eq!(snap.max_ewma_error(), Some(0.2));
        assert_eq!(snap.thresholds(), vec![0.5, 0.25]);
        assert_eq!(snap.layers[0].mean_audited_error(), None);
        assert_eq!(snap.layers[1].mean_audited_error(), Some(0.25));
        assert_eq!(snap.mean_audited_error(), Some(0.25));
        assert_eq!(snap.hits(), 10);
        assert_eq!(snap.audited(), 2);
    }
}
