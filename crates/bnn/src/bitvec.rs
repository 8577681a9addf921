//! Packed sign vectors: one lane's inputs in the form the per-lane
//! adapters of [`BinaryGate`](crate::BinaryGate) take.

/// A bit-packed vector of signs: bit `i` of word `i / 64` is `1` when
/// the `i`-th value is non-negative (`+1`) and `0` when it is negative
/// (`-1`), packed by [`pack_signs`](crate::popcount::pack_signs) — the
/// rule and code that pack the mirror's weights.  The bits past `len`
/// in the last word are always zero.
///
/// A gate's weights do not live in `BitVector`s: they are one packed
/// sign block per [`BinaryGate`](crate::BinaryGate), and the evaluators
/// pack a gate call's inputs straight into one buffer
/// ([`BinaryGate::pack_inputs`](crate::BinaryGate::pack_inputs)).  A
/// `BitVector` is one lane's forward or recurrent input as
/// [`BinaryGate::binarize_inputs`](crate::BinaryGate::binarize_inputs)
/// returns it and
/// [`BinaryGate::neuron_outputs_batch_into`](crate::BinaryGate::neuron_outputs_batch_into)
/// consumes it.
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
        crate::popcount::pack_signs(values, &mut v.words);
        v
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_signs_packs_64_a_word_with_a_zero_tail() {
        let values: Vec<f32> = (0..130)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let v = BitVector::from_signs(&values);
        assert_eq!(v.len(), 130);
        assert_eq!(v.words().len(), 3);
        for (i, &x) in values.iter().enumerate() {
            assert_eq!(v.words()[i / 64] >> (i % 64) & 1 == 1, x >= 0.0, "bit {i}");
        }
        assert_eq!(v.words()[2] >> 2, 0, "tail bits");
        assert_eq!(BitVector::from_signs(&[-1.0; 130]), BitVector::zeros(130));
    }

    #[test]
    fn empty_vectors_hold_no_words() {
        let v = BitVector::from_signs(&[]);
        assert!(v.is_empty() && v.words().is_empty());
        assert_eq!(v, BitVector::zeros(0));
    }
}
