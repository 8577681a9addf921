//! Packed sign vectors and the XNOR-popcount dot product.

use crate::{BnnError, Result};

/// A bit-packed vector of signs: bit `i` is `1` when the `i`-th value is
/// non-negative (`+1`) and `0` when it is negative (`-1`).
///
/// The binary dot product of Equation 8 becomes, for packed operands,
/// `2 * popcount(XNOR(a, b)) - len`: XNOR marks positions whose signs
/// agree (`+1 * +1` or `-1 * -1`), each agreement contributes `+1` and
/// each disagreement `-1`.  This is exactly what the paper's BDPU
/// (binary dot-product unit) computes with an XNOR array and an adder
/// tree.
///
/// A gate's weights do not live in `BitVector`s: they are one packed
/// sign block per [`BinaryGate`](crate::BinaryGate), read by the
/// dispatched predict kernel.  A `BitVector` is what the readable
/// per-neuron reference ([`BinaryGate::neuron_output`](crate::BinaryGate::neuron_output)),
/// the correlation probe, the benches and the tests hold their packed
/// inputs in.  The bits past `len` in the last word are always zero.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVector {
    words: Vec<u64>,
    len: usize,
}

impl BitVector {
    /// Creates an all-zero (all-negative-sign) vector of the given length.
    pub fn zeros(len: usize) -> Self {
        BitVector {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Packs the signs of a slice of values (non-negative → bit set).
    pub fn from_signs(values: &[f32]) -> Self {
        let mut v = BitVector::zeros(values.len());
        v.fill_from_signs(values);
        v
    }

    /// Repacks the signs of `values` into this vector in place, reusing
    /// the existing word storage whenever it is large enough — the
    /// dispatched [`pack_signs`](crate::popcount::pack_signs), the same
    /// rule and code that packs the mirror's weights.
    pub fn fill_from_signs(&mut self, values: &[f32]) {
        self.len = values.len();
        self.words.resize(values.len().div_ceil(64), 0);
        crate::popcount::pack_signs(values, &mut self.words);
    }

    /// Number of packed signs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The packed word storage — one `u64` per 64 signs, tail bits zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns `true` if the vector holds no signs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i` (`true` = `+1`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Number of set bits (positive signs).
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// The sign at position `i` as `+1.0` / `-1.0`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn sign(&self, i: usize) -> f32 {
        if self.get(i) {
            1.0
        } else {
            -1.0
        }
    }

    /// Binary dot product (Equation 8) via XNOR + popcount:
    /// `Σ sign_a(i) * sign_b(i)`.
    ///
    /// # Errors
    ///
    /// Returns [`BnnError::LengthMismatch`] if the operands have
    /// different lengths.
    pub fn xnor_dot(&self, other: &BitVector) -> Result<i32> {
        if self.len != other.len {
            return Err(BnnError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        Ok(self.xnor_dot_unchecked(other))
    }

    /// Check-free variant of [`BitVector::xnor_dot`] for batched callers
    /// that validated the operand widths once per gate invocation.  The
    /// full-word popcounts run on the process-wide
    /// [`PopcountBackend`](crate::popcount::PopcountBackend) (hardware
    /// `popcnt` / `vpopcntq` / NEON `cnt` where available); popcounts
    /// are integer-exact, so the tier never changes the result.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the lengths differ.
    #[inline]
    pub fn xnor_dot_unchecked(&self, other: &BitVector) -> i32 {
        debug_assert_eq!(self.len, other.len);
        if self.len == 0 {
            return 0;
        }
        let full_words = self.len / 64;
        let mut agreements =
            crate::popcount::xnor_agreements(&self.words[..full_words], &other.words[..full_words]);
        agreements += self.tail_agreements(other, full_words);
        2 * agreements as i32 - self.len as i32
    }

    /// [`BitVector::xnor_dot`] with the full-word popcounts forced onto
    /// an explicit [`PopcountBackend`](crate::popcount::PopcountBackend)
    /// — the hook the cross-tier equivalence tests and the per-backend
    /// benches use.
    ///
    /// # Errors
    ///
    /// Returns [`BnnError::LengthMismatch`] if the operands have
    /// different lengths.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not supported on this host.
    pub fn xnor_dot_on(
        &self,
        other: &BitVector,
        backend: crate::popcount::PopcountBackend,
    ) -> Result<i32> {
        if self.len != other.len {
            return Err(BnnError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        if self.len == 0 {
            // Still validate the backend so an unsupported tier fails
            // loudly even on empty operands.
            let _ = crate::popcount::xnor_agreements_on(backend, &[], &[]);
            return Ok(0);
        }
        let full_words = self.len / 64;
        let mut agreements = crate::popcount::xnor_agreements_on(
            backend,
            &self.words[..full_words],
            &other.words[..full_words],
        );
        agreements += self.tail_agreements(other, full_words);
        Ok(2 * agreements as i32 - self.len as i32)
    }

    /// Agreements in the `len % 64` tail bits of the last word (zero
    /// when the length is word-aligned).
    #[inline]
    fn tail_agreements(&self, other: &BitVector, full_words: usize) -> u32 {
        let tail = self.len % 64;
        if tail == 0 {
            return 0;
        }
        let mask = (1u64 << tail) - 1;
        let xnor = !(self.words[full_words] ^ other.words[full_words]) & mask;
        xnor.count_ones()
    }

    /// Number of positions where the two vectors disagree (Hamming
    /// distance), a convenience used by diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`BnnError::LengthMismatch`] if the operands have
    /// different lengths.
    pub fn hamming_distance(&self, other: &BitVector) -> Result<u32> {
        let dot = self.xnor_dot(other)?;
        // dot = len - 2 * disagreements
        Ok(((self.len as i32 - dot) / 2) as u32)
    }

    /// Iterates over the signs as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::reference_binary_dot;

    #[test]
    fn pack_and_get_roundtrip() {
        let values = [1.0, -0.5, 0.0, -2.0, 3.0];
        let v = BitVector::from_signs(&values);
        assert_eq!(v.len(), 5);
        let expected = [true, false, true, false, true];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(v.get(i), e, "bit {i}");
        }
        assert_eq!(v.count_ones(), 3);
        assert_eq!(v.sign(1), -1.0);
        assert_eq!(v.sign(0), 1.0);
    }

    #[test]
    fn fill_from_signs_reuses_storage_and_matches_from_signs() {
        let mut v = BitVector::zeros(130);
        for len in [130usize, 64, 65, 3, 0, 200] {
            let values: Vec<f32> = (0..len)
                .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
                .collect();
            v.fill_from_signs(&values);
            assert_eq!(v, BitVector::from_signs(&values), "len {len}");
        }
    }

    #[test]
    fn set_and_clear_bits() {
        let mut v = BitVector::zeros(70);
        assert_eq!(v.count_ones(), 0);
        v.set(0, true);
        v.set(69, true);
        assert!(v.get(0) && v.get(69));
        assert_eq!(v.count_ones(), 2);
        v.set(0, false);
        assert!(!v.get(0));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    fn xnor_dot_matches_reference_on_small_cases() {
        let a = [1.0, -2.0, 3.0, -4.0, 5.0];
        let b = [-1.0, -2.0, 3.0, 4.0, 0.0];
        let pa = BitVector::from_signs(&a);
        let pb = BitVector::from_signs(&b);
        assert_eq!(pa.xnor_dot(&pb).unwrap(), reference_binary_dot(&a, &b));
    }

    #[test]
    fn xnor_dot_spans_word_boundaries() {
        // 130 elements exercises two full words plus a 2-bit tail.
        let a: Vec<f32> = (0..130)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let b: Vec<f32> = (0..130)
            .map(|i| if i % 5 == 0 { 1.0 } else { -1.0 })
            .collect();
        let pa = BitVector::from_signs(&a);
        let pb = BitVector::from_signs(&b);
        assert_eq!(pa.xnor_dot(&pb).unwrap(), reference_binary_dot(&a, &b));
    }

    #[test]
    fn xnor_dot_identity_and_negation() {
        let a: Vec<f32> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let pa = BitVector::from_signs(&a);
        assert_eq!(pa.xnor_dot(&pa).unwrap(), 100);
        let neg: Vec<f32> = a.iter().map(|v| -v - 0.5).collect();
        let pn = BitVector::from_signs(&neg);
        assert_eq!(pa.xnor_dot(&pn).unwrap(), -100);
    }

    #[test]
    fn xnor_dot_rejects_length_mismatch() {
        let a = BitVector::zeros(4);
        let b = BitVector::zeros(5);
        assert!(matches!(
            a.xnor_dot(&b),
            Err(BnnError::LengthMismatch { left: 4, right: 5 })
        ));
    }

    #[test]
    fn empty_vectors_dot_to_zero() {
        let a = BitVector::zeros(0);
        let b = BitVector::from_signs(&[]);
        assert_eq!(a.xnor_dot(&b).unwrap(), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn hamming_distance_counts_disagreements() {
        let a = BitVector::from_signs(&[1.0, 1.0, -1.0, -1.0]);
        let b = BitVector::from_signs(&[1.0, -1.0, -1.0, 1.0]);
        assert_eq!(a.hamming_distance(&b).unwrap(), 2);
        assert_eq!(a.hamming_distance(&a).unwrap(), 0);
    }

    #[test]
    fn iterator_yields_the_signs() {
        let v = BitVector::from_signs(&[1.0, -1.0, 1.0]);
        let bits: Vec<bool> = v.iter().collect();
        assert_eq!(bits, vec![true, false, true]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let v = BitVector::zeros(3);
        let _ = v.get(3);
    }
}
