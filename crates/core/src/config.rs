//! Configuration of the memoization predictors.

/// Configuration of the Oracle predictor (Figure 6), which
/// [`BnnMemoEvaluator::oracle`](crate::BnnMemoEvaluator::oracle) builds.
///
/// The oracle knows the true output of every neuron and reuses the cached
/// value whenever the true relative change is at most `threshold`.  It is
/// not realisable in hardware (it must compute the output to decide
/// whether computing could have been skipped); the paper uses it to bound
/// how much reuse a perfect predictor could extract (Figures 1 and 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleMemoConfig {
    /// Maximum allowed relative output error `θ`.
    pub threshold: f32,
    /// Denominator clamp used when the reference output is near zero.
    pub epsilon: f32,
}

impl OracleMemoConfig {
    /// Creates a configuration with the given threshold and the default
    /// epsilon.
    pub fn with_threshold(threshold: f32) -> Self {
        OracleMemoConfig {
            threshold,
            epsilon: DEFAULT_EPSILON,
        }
    }
}

impl Default for OracleMemoConfig {
    fn default() -> Self {
        OracleMemoConfig::with_threshold(0.0)
    }
}

/// Configuration of the BNN-based predictor (Figures 10 and 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BnnMemoConfig {
    /// Maximum allowed accumulated relative BNN-output change `θ`.
    pub threshold: f32,
    /// Whether to accumulate relative differences across consecutive
    /// reuses (Equation 13).  Disabling this reproduces the
    /// "no throttling" ablation of Figure 11.
    pub throttle: bool,
    /// Denominator clamp used when the BNN output is near zero.  The
    /// hardware computes the relative error in fixed point; clamping the
    /// denominator models its saturation behaviour.
    pub epsilon: f32,
}

/// Default denominator clamp for relative errors.
pub const DEFAULT_EPSILON: f32 = 1e-3;

/// Default denominator clamp for the BNN relative error.  BNN outputs
/// are integers in `[-N, N]`; a clamp of 1.0 corresponds to one
/// disagreement out of N connections.
pub const DEFAULT_BNN_EPSILON: f32 = 1.0;

impl BnnMemoConfig {
    /// Creates a configuration with the given threshold, throttling
    /// enabled and the default epsilon.
    pub fn with_threshold(threshold: f32) -> Self {
        BnnMemoConfig {
            threshold,
            throttle: true,
            epsilon: DEFAULT_BNN_EPSILON,
        }
    }

    /// Disables the throttling mechanism (Figure 11 ablation).
    pub fn without_throttling(mut self) -> Self {
        self.throttle = false;
        self
    }

    /// Overrides the epsilon clamp.
    pub fn epsilon(mut self, epsilon: f32) -> Self {
        self.epsilon = epsilon;
        self
    }
}

impl Default for BnnMemoConfig {
    fn default() -> Self {
        BnnMemoConfig::with_threshold(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_config_defaults() {
        let c = OracleMemoConfig::default();
        assert_eq!(c.threshold, 0.0);
        assert!(c.epsilon > 0.0);
        let c = OracleMemoConfig::with_threshold(0.4);
        assert_eq!(c.threshold, 0.4);
    }

    #[test]
    fn bnn_config_builder() {
        let c = BnnMemoConfig::with_threshold(0.2);
        assert!(c.throttle);
        assert_eq!(c.threshold, 0.2);
        let c = c.without_throttling().epsilon(0.5);
        assert!(!c.throttle);
        assert_eq!(c.epsilon, 0.5);
    }

    #[test]
    fn default_bnn_config_reuses_nothing() {
        let c = BnnMemoConfig::default();
        assert_eq!(c.threshold, 0.0);
        assert!(c.throttle);
    }
}
