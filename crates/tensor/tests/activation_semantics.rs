//! Semantics of the rational `tanh` / `sigmoid` (`nfm_tensor::activation`):
//! accuracy against `f64` libm, symmetry, range, non-finite inputs, and
//! the slice operation's bitwise agreement with the per-element one.
//!
//! The umbrella package includes this file as `tests/activation_semantics.rs`
//! so the sweep also runs under the repo's tier-1 `cargo test -q`.

use nfm_tensor::activation::{sigmoid, tanh, Activation, TANH_CLAMP};
use nfm_tensor::kernels::activate_into;

const ALL: [Activation; 5] = [
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Relu,
    Activation::HardSigmoid,
    Activation::Identity,
];

/// Every 257th `f32` bit pattern with `|x| < 30`, both signs (8.6 M
/// points: every binade down through the denormals, ~32 k per binade).
fn sweep() -> impl Iterator<Item = f32> {
    (0..30.0f32.to_bits())
        .step_by(257)
        .flat_map(|bits| [f32::from_bits(bits), -f32::from_bits(bits)])
}

#[test]
fn tanh_and_sigmoid_stay_inside_their_error_budget_against_f64() {
    // Measured: tanh 3.51e-7 (at x = 5.83), sigmoid 1.92e-7 (at 11.70).
    let (mut worst_tanh, mut worst_sigmoid) = (0.0f64, 0.0f64);
    for x in sweep() {
        let x64 = f64::from(x);
        worst_tanh = worst_tanh.max((f64::from(tanh(x)) - x64.tanh()).abs());
        worst_sigmoid =
            worst_sigmoid.max((f64::from(sigmoid(x)) - 1.0 / (1.0 + (-x64).exp())).abs());
    }
    assert!(worst_tanh <= 5e-7, "tanh max-abs error {worst_tanh:e}");
    assert!(
        worst_sigmoid <= 3e-7,
        "sigmoid max-abs error {worst_sigmoid:e}"
    );
}

#[test]
fn tanh_is_exactly_odd_and_both_stay_in_range() {
    assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(sigmoid(0.0), 0.5);
    for x in sweep() {
        let t = tanh(x);
        assert_eq!(tanh(-x).to_bits(), (-t).to_bits(), "tanh is odd at {x}");
        assert!((-1.0..=1.0).contains(&t), "tanh({x}) = {t}");
        let s = sigmoid(x);
        assert!((0.0..=1.0).contains(&s), "sigmoid({x}) = {s}");
    }
}

#[test]
fn the_clamp_edge_and_everything_beyond_it_saturate_exactly() {
    let below = f32::from_bits(TANH_CLAMP.to_bits() - 1);
    let above = f32::from_bits(TANH_CLAMP.to_bits() + 1);
    assert!(tanh(below) <= 1.0 && tanh(below) > 0.999_999);
    for x in [TANH_CLAMP, above, 9.0, 30.0, 1e10, f32::MAX, f32::INFINITY] {
        assert_eq!(tanh(x), 1.0, "tanh({x})");
        assert_eq!(tanh(-x), -1.0, "tanh(-{x})");
        assert_eq!(sigmoid(2.0 * x), 1.0, "sigmoid({})", 2.0 * x);
        assert_eq!(sigmoid(-2.0 * x), 0.0, "sigmoid({})", -2.0 * x);
    }
}

#[test]
fn nan_propagates_and_denormals_pass_through() {
    // `clamp` keeps NaN; `f32::max` / `min` would swallow it and turn a
    // poisoned pre-activation into a plausible ±1.
    for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7fa0_0001)] {
        assert!(tanh(nan).is_nan());
        assert!(sigmoid(nan).is_nan());
    }
    let tiny = f32::from_bits(1);
    assert!(tanh(tiny) >= 0.0 && tanh(tiny) <= tiny);
    assert_eq!(sigmoid(tiny), 0.5);
}

#[test]
fn the_slice_operation_is_apply_element_by_element_for_every_variant() {
    let mut inputs: Vec<f32> = sweep().step_by(1009).collect();
    inputs.extend([
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -f32::MIN_POSITIVE,
        TANH_CLAMP,
        -2.0 * TANH_CLAMP,
    ]);
    for activation in ALL {
        // Odd lengths, so vector bodies and scalar tails are both hit.
        for len in [0, 1, 7, 33, inputs.len()] {
            let mut out = inputs[..len].to_vec();
            activate_into(activation, &mut out);
            for (x, y) in inputs.iter().zip(&out) {
                assert_eq!(
                    y.to_bits(),
                    activation.apply(*x).to_bits(),
                    "{activation:?}({x})"
                );
            }
        }
    }
}
