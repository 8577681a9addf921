//! Percentiles and medians over raw samples.  No buckets: a reported
//! percentile is one of the measured values.

/// Samples that must lie beyond a percentile before it counts as
/// resolved; below that the value is still a measured sample but mostly
/// noise, and is flagged.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off sorted raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the value.
    pub resolved: bool,
}

/// Nearest-rank percentile `p` (in `0..=100`) of ascending `sorted`;
/// `None` when there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples are sorted"
    );
    let n = sorted.len();
    // Nearest rank: the smallest sample with at least p% of the samples
    // at or below it.
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        resolved: n - rank >= MIN_BEYOND,
    })
}

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples` (sorted in place).  The median of an even
    /// count is the mean of the two middle samples; quartiles are the
    /// medians of the lower and upper halves.
    pub fn of(samples: &mut [f64]) -> Summary {
        sort(samples);
        let n = samples.len();
        if n == 0 {
            return Summary::default();
        }
        let half = n / 2;
        Summary {
            n,
            q1: middle(&samples[..half.max(1)]),
            median: middle(samples),
            q3: middle(&samples[(n - half.max(1))..]),
        }
    }
}

fn middle(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

pub fn median(samples: &mut [f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_a_measured_sample_at_the_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0).unwrap().value, 50.0);
        assert_eq!(percentile(&s, 95.0).unwrap().value, 95.0);
        assert_eq!(percentile(&s, 99.0).unwrap().value, 99.0);
        assert_eq!(percentile(&s, 100.0).unwrap().value, 100.0);
        assert_eq!(percentile(&s, 0.0).unwrap().value, 1.0);
        assert_eq!(percentile(&[7.5], 99.0).unwrap().value, 7.5);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly ten beyond; of 999 only nine.
        assert!(percentile(&ramp(1000), 99.0).unwrap().resolved);
        assert!(!percentile(&ramp(999), 99.0).unwrap().resolved);
        // p95 needs 200, the median 20.
        assert!(percentile(&ramp(200), 95.0).unwrap().resolved);
        assert!(!percentile(&ramp(199), 95.0).unwrap().resolved);
        assert!(percentile(&ramp(20), 50.0).unwrap().resolved);
        assert!(!percentile(&ramp(19), 50.0).unwrap().resolved);
    }

    #[test]
    fn summary_reports_median_quartiles_and_count() {
        let mut odd = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let s = Summary::of(&mut odd);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 1.5, 3.0, 4.5));
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        let s = Summary::of(&mut even);
        assert_eq!((s.n, s.q1, s.median, s.q3), (4, 1.5, 2.5, 3.5));
        let s = Summary::of(&mut [9.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 9.0, 9.0, 9.0));
        assert_eq!(Summary::of(&mut []).n, 0);
    }
}
