//! Activation functions used by LSTM/GRU gates.
//!
//! The paper's cells (Figure 4) use the logistic sigmoid `σ` for the
//! input/forget/output/update/reset gates and the hyperbolic tangent `ϕ`
//! for the candidate and cell-output paths.  The softmax is used by the
//! classification heads of the workload models.
//!
//! # The approximation
//!
//! [`tanh`] is one branch-free 13/6 rational, `x·P(x²) / Q(x²)` by
//! Horner's rule after clamping to ±[`TANH_CLAMP`], and [`sigmoid`] is
//! `½ + ½·tanh(x/2)`; neither calls libm.  Coefficients and clamp are
//! those of Eigen's `generic_fast_tanh_float` (a minimax fit; the clamp
//! is where it first rounds to exactly `1.0f32`).  The body is plain
//! `*` `+` `/` `clamp` — no intrinsics, and Rust never fuses
//! `a * b + c` — so [`Activation::apply`] per element and
//! [`crate::kernels::activate_into`] over a slice (this very function,
//! vectorised by the compiler once per dispatch tier) are bit-identical.
//!
//! Measured against `f64` libm over every 257th `f32` bit pattern with
//! `|x| < 30`: `tanh` within 3.6e-7, `sigmoid` within 2.0e-7
//! (`tests/activation_semantics.rs` pins 5e-7 / 3e-7).  `tanh` is
//! exactly odd, outputs stay inside `[-1, 1]` / `[0, 1]`, `±inf`
//! saturate, NaN propagates (`clamp` keeps NaN, `max`/`min` would not),
//! and `sigmoid` is exactly `0` / `1` beyond `|x| ≈ 15.8`.

/// `|x|` beyond which [`tanh`] is exactly `±1`.
pub const TANH_CLAMP: f32 = 7.905_311;

// Odd numerator coefficients (of x, x³, … x¹³) and even denominator
// coefficients (of 1, x², x⁴, x⁶).
const ALPHA: [f32; 7] = [
    4.893_524_6e-3,
    6.372_619_5e-4,
    1.485_722_35e-5,
    5.122_297_3e-8,
    -8.604_672e-11,
    2.000_188e-13,
    -2.760_768_4e-16,
];
const BETA: [f32; 4] = [4.893_525e-3, 2.268_434_7e-3, 1.185_347_1e-4, 1.198_258_4e-6];

/// Hyperbolic tangent `ϕ(x)` (the module docs' rational approximation).
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    // Horner's rule, highest coefficient first.
    let p = ALPHA[..6].iter().rev().fold(ALPHA[6], |p, a| x2 * p + a);
    let q = BETA[..3].iter().rev().fold(BETA[3], |q, b| x2 * q + b);
    (x * p) / q
}

/// Logistic sigmoid `σ(x) = 1 / (1 + e^{-x})`, evaluated as
/// `½ + ½·tanh(x/2)`.
///
/// # Example
///
/// ```
/// # use nfm_tensor::activation::sigmoid;
/// assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
/// ```
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    0.5 + 0.5 * tanh(0.5 * x)
}

/// Rectified linear unit, used by some feed-forward projection layers in
/// the DeepSpeech2-style workload.
#[inline(always)]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Hard sigmoid `clip(0.2x + 0.5, 0, 1)`, a cheap approximation sometimes
/// used by embedded RNN deployments; exposed for the ablation benches.
#[inline(always)]
pub fn hard_sigmoid(x: f32) -> f32 {
    (0.2 * x + 0.5).clamp(0.0, 1.0)
}

/// The activation functions an RNN gate may apply, as a value so gate
/// configurations can be stored and serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Logistic sigmoid.
    #[default]
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Hard (piecewise-linear) sigmoid.
    HardSigmoid,
    /// Identity (no non-linearity).
    Identity,
}

impl Activation {
    /// Applies the activation to a scalar; the slice form is
    /// [`crate::kernels::activate_into`].
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => tanh(x),
            Activation::Relu => relu(x),
            Activation::HardSigmoid => hard_sigmoid(x),
            Activation::Identity => x,
        }
    }

    /// The output range `(min, max)` of the activation, used by the
    /// accelerator model to size fixed-point representations.
    pub fn output_range(self) -> (f32, f32) {
        match self {
            Activation::Sigmoid | Activation::HardSigmoid => (0.0, 1.0),
            Activation::Tanh => (-1.0, 1.0),
            Activation::Relu => (0.0, f32::INFINITY),
            Activation::Identity => (f32::NEG_INFINITY, f32::INFINITY),
        }
    }
}

/// Numerically stable softmax over a slice.
///
/// Returns a probability distribution (non-negative, sums to 1) unless
/// the input is empty, in which case an empty vector is returned.
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    if xs.is_empty() {
        return Vec::new();
    }
    let max = xs.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let exps: Vec<f32> = xs.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry() {
        for x in [-5.0, -1.0, 0.0, 0.3, 2.0, 10.0] {
            let s = sigmoid(x);
            assert!((s + sigmoid(-x) - 1.0).abs() < 1e-6, "σ(x)+σ(-x)=1 at {x}");
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn sigmoid_extremes_are_stable() {
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn tanh_range() {
        for x in [-10.0, -0.5, 0.0, 0.5, 10.0] {
            assert!(tanh(x).abs() <= 1.0);
        }
        assert_eq!(tanh(0.0), 0.0);
    }

    #[test]
    fn relu_and_hard_sigmoid() {
        assert_eq!(relu(-3.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(hard_sigmoid(0.0), 0.5);
        assert_eq!(hard_sigmoid(10.0), 1.0);
        assert_eq!(hard_sigmoid(-10.0), 0.0);
    }

    #[test]
    fn activation_enum_dispatch() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert_eq!(Activation::Identity.apply(42.0), 42.0);
        assert!(Activation::Tanh.apply(-1.0) < 0.0 && Activation::Tanh.apply(1.0) > 0.0);
    }

    #[test]
    fn activation_output_ranges() {
        assert_eq!(Activation::Sigmoid.output_range(), (0.0, 1.0));
        assert_eq!(Activation::Tanh.output_range(), (-1.0, 1.0));
        assert_eq!(Activation::Relu.output_range().0, 0.0);
    }

    #[test]
    fn softmax_is_distribution() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_handles_large_inputs() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn default_activation_is_sigmoid() {
        assert_eq!(Activation::default(), Activation::Sigmoid);
    }
}
