//! The binarization function of Equation 7.

/// Binarizes a value to `+1.0` / `-1.0` by sign (Equation 7 of the paper:
/// `x_b = +1 if x >= 0, -1 otherwise`).
///
/// # Example
///
/// ```
/// # use nfm_bnn::binarize_sign;
/// assert_eq!(binarize_sign(0.7), 1.0);
/// assert_eq!(binarize_sign(-0.2), -1.0);
/// assert_eq!(binarize_sign(0.0), 1.0); // zero counts as non-negative
/// ```
pub fn binarize_sign(x: f32) -> f32 {
    if x >= 0.0 {
        1.0
    } else {
        -1.0
    }
}

/// Reference binary dot product on unpacked `±1` values (Equation 8):
/// one sign product per position, summed — no packing, no popcount.
/// The tests hold the packed XNOR-popcount kernel to it.
pub fn reference_binary_dot(a: &[f32], b: &[f32]) -> i32 {
    assert_eq!(a.len(), b.len(), "reference dot needs equal lengths");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (binarize_sign(x) * binarize_sign(y)) as i32)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_of_zero_is_positive() {
        assert_eq!(binarize_sign(0.0), 1.0);
        assert_eq!(binarize_sign(-0.0), 1.0);
    }

    #[test]
    fn reference_dot_counts_agreements_minus_disagreements() {
        // signs: [+,-,+] vs [+,+,-] -> agree 1, disagree 2 -> -1
        assert_eq!(
            reference_binary_dot(&[2.0, -1.0, 3.0], &[5.0, 1.0, -2.0]),
            -1
        );
        // identical vectors give +len
        assert_eq!(reference_binary_dot(&[1.0, -1.0], &[4.0, -9.0]), 2);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn reference_dot_rejects_mismatch() {
        let _ = reference_binary_dot(&[1.0], &[1.0, 2.0]);
    }
}
