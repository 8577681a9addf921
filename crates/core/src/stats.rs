//! Computation-reuse accounting.

/// Counts how many neuron evaluations were requested, how many were
/// served from the memoization buffer, and how many binary-network
/// evaluations were performed.
///
/// "Computation reuse (%)" throughout the paper is
/// `reuses / evaluations`: the fraction of neuron evaluations whose
/// full-precision dot products (and weight fetches) were avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    evaluations: u64,
    reuses: u64,
    bnn_evaluations: u64,
    audited: u64,
}

impl ReuseStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        ReuseStats::default()
    }

    /// Records one neuron evaluation request that was computed in full
    /// precision.
    pub fn record_computed(&mut self) {
        self.evaluations += 1;
    }

    /// Records `n` full-precision evaluations at once (batched paths).
    pub fn record_computed_many(&mut self, n: u64) {
        self.evaluations += n;
    }

    /// Records one neuron evaluation request that was served from the
    /// memoization buffer.
    pub fn record_reused(&mut self) {
        self.evaluations += 1;
        self.reuses += 1;
    }

    /// Records `n` memoization-buffer hits at once (batched paths).
    pub fn record_reused_many(&mut self, n: u64) {
        self.evaluations += n;
        self.reuses += n;
    }

    /// Records `n` binary-network neuron evaluations (the predictor's
    /// own cost; the BNN is evaluated for every element and neuron).
    pub fn record_bnn_evaluations_many(&mut self, n: u64) {
        self.bnn_evaluations += n;
    }

    /// Records one audit step: a memoization hit that was *also*
    /// computed exactly to observe its error. Audits do not change
    /// `evaluations`/`reuses` — the hit stays a hit.
    pub fn record_audited(&mut self) {
        self.audited += 1;
    }

    /// Total neuron evaluation requests.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Requests served from the memoization buffer.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Requests evaluated in full precision.
    pub fn computed(&self) -> u64 {
        self.evaluations - self.reuses
    }

    /// Binary-network evaluations performed.
    pub fn bnn_evaluations(&self) -> u64 {
        self.bnn_evaluations
    }

    /// Memoization hits that were additionally computed exactly as
    /// audit samples (a subset of `reuses`).
    pub fn audited(&self) -> u64 {
        self.audited
    }

    /// Fraction of requests served from the buffer, in `[0, 1]`.
    /// Returns 0 when nothing was evaluated.
    pub fn reuse_fraction(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            self.reuses as f64 / self.evaluations as f64
        }
    }

    /// Reuse expressed as a percentage, the unit used by the paper.
    pub fn reuse_percent(&self) -> f64 {
        self.reuse_fraction() * 100.0
    }

    /// Merges another set of statistics into this one (used to aggregate
    /// across sequences or networks).
    pub fn merge(&mut self, other: &ReuseStats) {
        self.evaluations += other.evaluations;
        self.reuses += other.reuses;
        self.bnn_evaluations += other.bnn_evaluations;
        self.audited += other.audited;
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = ReuseStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_fractions() {
        let mut s = ReuseStats::new();
        assert_eq!(s.reuse_fraction(), 0.0);
        s.record_computed();
        s.record_reused();
        s.record_reused();
        s.record_bnn_evaluations_many(1);
        assert_eq!(s.evaluations(), 3);
        assert_eq!(s.reuses(), 2);
        assert_eq!(s.computed(), 1);
        assert_eq!(s.bnn_evaluations(), 1);
        assert!((s.reuse_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.reuse_percent() - 66.666).abs() < 0.01);
    }

    #[test]
    fn batched_recorders_match_singles() {
        let mut a = ReuseStats::new();
        a.record_computed_many(3);
        a.record_reused_many(2);
        a.record_bnn_evaluations_many(5);
        let mut b = ReuseStats::new();
        for _ in 0..3 {
            b.record_computed();
        }
        for _ in 0..2 {
            b.record_reused();
        }
        for _ in 0..5 {
            b.record_bnn_evaluations_many(1);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ReuseStats::new();
        a.record_computed();
        a.record_reused();
        a.record_audited();
        let mut b = ReuseStats::new();
        b.record_reused();
        b.record_bnn_evaluations_many(1);
        b.record_audited();
        b.record_audited();
        a.merge(&b);
        assert_eq!(a.evaluations(), 3);
        assert_eq!(a.reuses(), 2);
        assert_eq!(a.bnn_evaluations(), 1);
        assert_eq!(a.audited(), 3);
    }

    #[test]
    fn audits_do_not_count_as_evaluations() {
        let mut s = ReuseStats::new();
        s.record_reused();
        s.record_audited();
        assert_eq!(s.evaluations(), 1);
        assert_eq!(s.reuses(), 1);
        assert_eq!(s.audited(), 1);
        assert_eq!(s.computed(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = ReuseStats::new();
        s.record_reused();
        s.record_bnn_evaluations_many(1);
        s.reset();
        assert_eq!(s, ReuseStats::default());
    }
}
