//! Statistics used by the paper's evaluation section.
//!
//! Figure 5 plots the *cumulative distribution* of relative output change
//! between consecutive timesteps; Figures 7 and 8 rely on the *Pearson
//! correlation* between binarized and full-precision neuron outputs;
//! Figure 8 is a *histogram* of per-neuron correlation factors.  The
//! helpers in this module implement those measurements once so every
//! crate (bnn, core, eval) shares identical definitions.

use crate::error::TensorError;
use crate::Result;

/// Arithmetic mean of a non-empty sample.
fn mean(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>() / xs.len() as f32
}

/// Pearson linear correlation coefficient between two equal-length series.
///
/// This is the "R factor" of Figures 7 and 8: the correlation between a
/// neuron's full-precision outputs and its binarized (BNN) outputs.
///
/// Returns `0.0` when either series has zero variance (a flat series is
/// uninformative as a predictor, which is the conservative interpretation
/// for the memoization scheme).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if the slices differ in length
/// or [`TensorError::Empty`] if they are empty.
pub fn pearson_correlation(xs: &[f32], ys: &[f32]) -> Result<f32> {
    if xs.len() != ys.len() {
        return Err(TensorError::LengthMismatch {
            left: xs.len(),
            right: ys.len(),
            op: "pearson_correlation",
        });
    }
    if xs.is_empty() {
        return Err(TensorError::Empty {
            op: "pearson_correlation",
        });
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0f64;
    let mut vx = 0.0f64;
    let mut vy = 0.0f64;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        let dx = (x - mx) as f64;
        let dy = (y - my) as f64;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx <= f64::EPSILON || vy <= f64::EPSILON {
        return Ok(0.0);
    }
    Ok((cov / (vx.sqrt() * vy.sqrt())) as f32)
}

/// A fixed-width histogram over `[min, max)` with an explicit bin count.
///
/// Used for Figure 8 (distribution of per-neuron correlation factors).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: f32,
    max: f32,
    counts: Vec<u64>,
    total: u64,
    below: u64,
    above: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins on `[min, max)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] if `bins == 0` or `min >= max`.
    pub fn new(min: f32, max: f32, bins: usize) -> Result<Self> {
        if bins == 0 {
            return Err(TensorError::InvalidParameter {
                what: "histogram needs at least one bin",
            });
        }
        if min >= max {
            return Err(TensorError::InvalidParameter {
                what: "histogram range must satisfy min < max",
            });
        }
        Ok(Histogram {
            min,
            max,
            counts: vec![0; bins],
            total: 0,
            below: 0,
            above: 0,
        })
    }

    /// Adds a sample.  Samples outside `[min, max)` are tallied in
    /// separate under/overflow counters and still count toward the total.
    pub fn add(&mut self, value: f32) {
        self.total += 1;
        if value < self.min {
            self.below += 1;
            return;
        }
        if value >= self.max {
            self.above += 1;
            return;
        }
        let width = (self.max - self.min) / self.counts.len() as f32;
        let idx = ((value - self.min) / width) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Adds every sample from an iterator.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f32>) {
        for v in values {
            self.add(v);
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw counts per bin.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples added (including out-of-range samples).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of in-range samples per bin (sums to ≤ 1).
    pub fn fractions(&self) -> Vec<f32> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f32 / self.total as f32)
            .collect()
    }

    /// `(low, high)` bounds of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.bins()`.
    pub fn bin_bounds(&self, i: usize) -> (f32, f32) {
        assert!(i < self.counts.len(), "bin index out of range");
        let width = (self.max - self.min) / self.counts.len() as f32;
        (
            self.min + width * i as f32,
            self.min + width * (i + 1) as f32,
        )
    }

    /// Samples that fell below/above the range.
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.below, self.above)
    }
}

/// One point of an empirical cumulative distribution: `fraction` of the
/// samples are `<= value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// Cumulative fraction of samples, in `[0, 1]`.
    pub fraction: f32,
    /// The sample value at this fraction.
    pub value: f32,
}

/// Empirical CDF of a sample, evaluated at `points` evenly spaced
/// fractions (like the x-axis of Figure 5, "cumulative % of neurons").
///
/// # Errors
///
/// Returns [`TensorError::Empty`] if `xs` is empty or
/// [`TensorError::InvalidParameter`] if `points < 2`.
pub fn empirical_cdf(xs: &[f32], points: usize) -> Result<Vec<CdfPoint>> {
    if xs.is_empty() {
        return Err(TensorError::Empty {
            op: "empirical_cdf",
        });
    }
    if points < 2 {
        return Err(TensorError::InvalidParameter {
            what: "cdf needs at least two points",
        });
    }
    let mut sorted: Vec<f32> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut out = Vec::with_capacity(points);
    for i in 0..points {
        let frac = i as f32 / (points - 1) as f32;
        let idx = ((sorted.len() - 1) as f32 * frac).round() as usize;
        out.push(CdfPoint {
            fraction: frac,
            value: sorted[idx],
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_correlation(&xs, &ys).unwrap() - 1.0).abs() < 1e-6);
        let zs = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson_correlation(&xs, &zs).unwrap() + 1.0).abs() < 1e-6);
    }

    #[test]
    fn correlation_flat_series_is_zero() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [1.0, 2.0, 3.0];
        assert_eq!(pearson_correlation(&xs, &ys).unwrap(), 0.0);
    }

    #[test]
    fn correlation_errors() {
        assert!(pearson_correlation(&[1.0], &[1.0, 2.0]).is_err());
        assert!(pearson_correlation(&[], &[]).is_err());
    }

    #[test]
    fn histogram_counts_and_bounds() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.extend([0.1, 0.3, 0.35, 0.9, 1.5, -0.2]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts(), &[1, 2, 0, 1]);
        assert_eq!(h.out_of_range(), (1, 1));
        assert_eq!(h.bin_bounds(0), (0.0, 0.25));
        let fr = h.fractions();
        assert!((fr.iter().sum::<f32>() - 4.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_rejects_bad_params() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 1.0, 3).is_err());
        assert!(Histogram::new(2.0, 1.0, 3).is_err());
    }

    #[test]
    fn histogram_top_edge_value_goes_to_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(1.0);
        assert_eq!(h.counts(), &[0, 0]);
        assert_eq!(h.out_of_range(), (0, 1));
    }

    #[test]
    fn cdf_is_monotone() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let cdf = empirical_cdf(&xs, 11).unwrap();
        assert_eq!(cdf.first().unwrap().value, 1.0);
        assert_eq!(cdf.last().unwrap().value, 5.0);
        assert!(cdf.windows(2).all(|w| w[0].value <= w[1].value));
        assert!(cdf.windows(2).all(|w| w[0].fraction <= w[1].fraction));
        assert!(empirical_cdf(&[], 5).is_err());
        assert!(empirical_cdf(&xs, 1).is_err());
    }
}
