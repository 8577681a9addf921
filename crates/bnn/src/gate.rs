//! Binary mirror of a full-precision recurrent gate (Figure 9).

use crate::bitvec::BitVector;
use crate::popcount::{self, SignBlock, BLOCK_ROWS};
use crate::{BnnError, Result};
use nfm_rnn::Gate;
use nfm_tensor::backend::{self, KernelBackend};
use nfm_tensor::LineBuf;

/// The binarized mirror of one [`Gate`]: the signs of the forward
/// (`W_x`) and recurrent (`W_h`) weight rows, packed into **one**
/// contiguous block in the layout of [`popcount`] —
/// `words = xw + hw` words a row, rows interleaved eight to a block,
/// every padding bit and padding row zero.
///
/// Mirroring is exactly the construction of Figure 9 in the paper: the
/// trained full-precision weights are binarized with the sign function;
/// peepholes, bias and the activation function are omitted because the
/// BNN output is only used as a change detector, never as the neuron's
/// value.
///
/// Prediction is [`predict_packed_into`](Self::predict_packed_into):
/// one dispatched XNOR-popcount "matmul" per gate call over inputs
/// packed by [`pack_inputs`](Self::pack_inputs).  The [`BitVector`]
/// entries ([`binarize_inputs`](Self::binarize_inputs) and
/// [`neuron_outputs_batch_into`](Self::neuron_outputs_batch_into)) are a
/// per-lane adapter onto the same kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryGate {
    block: LineBuf<u64>,
    neurons: usize,
    input_size: usize,
    hidden_size: usize,
}

/// `(xw, words)` of a row: the forward signs padded to `xw` whole words,
/// then the recurrent signs padded to whole words, `words` in all.
fn row_shape(input_size: usize, hidden_size: usize) -> (usize, usize) {
    let xw = input_size.div_ceil(64);
    (xw, xw + hidden_size.div_ceil(64))
}

/// Words of a sign block: `neurons` rows rounded up to whole blocks.
fn block_len(neurons: usize, words: usize) -> usize {
    neurons.div_ceil(BLOCK_ROWS) * BLOCK_ROWS * words
}

/// Index of word 0 of row `n` in a block of `words`-word rows; the
/// row's word `k` is `k * BLOCK_ROWS` further on.
fn row_start(n: usize, words: usize) -> usize {
    n / BLOCK_ROWS * words * BLOCK_ROWS + n % BLOCK_ROWS
}

impl BinaryGate {
    /// Builds the binary mirror of a full-precision gate.
    pub fn mirror(gate: &Gate) -> Self {
        Self::mirror_on(backend::active(), gate)
    }

    /// [`BinaryGate::mirror`] with the sign-pack on an explicit kernel
    /// tier — the hook cross-tier tests and benches use; every tier
    /// builds the same block.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not supported on this host.
    pub fn mirror_on(backend: KernelBackend, gate: &Gate) -> Self {
        backend.assert_supported();
        let (neurons, input_size, hidden_size) =
            (gate.neurons(), gate.input_size(), gate.hidden_size());
        let (xw, words) = row_shape(input_size, hidden_size);
        let mut block = LineBuf::zeros(block_len(neurons, words));
        let mut row = vec![0u64; words];
        for n in 0..neurons {
            popcount::pack_signs_tier(backend, gate.wx().row(n), &mut row[..xw]);
            popcount::pack_signs_tier(backend, gate.wh().row(n), &mut row[xw..]);
            let at = row_start(n, words);
            for (k, &w) in row.iter().enumerate() {
                block[at + k * BLOCK_ROWS] = w;
            }
        }
        BinaryGate {
            block,
            neurons,
            input_size,
            hidden_size,
        }
    }

    /// Takes a packed sign block (layout in [`popcount`]) as the gate's
    /// own, as a model load reads it: the prebuilt mirror is neither
    /// re-binarized nor copied.
    ///
    /// # Errors
    ///
    /// Returns [`BnnError::LengthMismatch`] if `block` is not exactly
    /// the block of this shape, and [`BnnError::NonZeroPadding`] if a
    /// padding bit or padding row is set — the predict kernel does not
    /// mask, so such a block would not predict what a rebuilt mirror
    /// does.
    pub fn from_sign_block(
        block: LineBuf<u64>,
        neurons: usize,
        input_size: usize,
        hidden_size: usize,
    ) -> Result<Self> {
        let (xw, words) = row_shape(input_size, hidden_size);
        if block.len() != block_len(neurons, words) {
            return Err(BnnError::LengthMismatch {
                left: block.len(),
                right: block_len(neurons, words),
            });
        }
        // (one past a segment's last word, bits that word uses; 0 = all)
        let tails = [(xw, input_size % 64), (words, hidden_size % 64)];
        for row in 0..neurons.div_ceil(BLOCK_ROWS) * BLOCK_ROWS {
            let word = |k: usize| block[row_start(row, words) + k * BLOCK_ROWS];
            let clean = if row < neurons {
                tails
                    .iter()
                    .all(|&(end, used)| used == 0 || word(end - 1) >> used == 0)
            } else {
                (0..words).all(|k| word(k) == 0)
            };
            if !clean {
                return Err(BnnError::NonZeroPadding { row });
            }
        }
        Ok(BinaryGate {
            block,
            neurons,
            input_size,
            hidden_size,
        })
    }

    /// The whole sign block (layout in [`popcount`]), as the
    /// model-artifact writer serializes it.
    pub fn sign_block(&self) -> &[u64] {
        &self.block
    }

    /// Number of neurons in the mirrored gate.
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// Width of the forward input.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Width of the recurrent input.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Words of one packed row — and of one lane's packed inputs: the
    /// forward signs padded to whole words, then the recurrent signs.
    pub fn row_words(&self) -> usize {
        row_shape(self.input_size, self.hidden_size).1
    }

    /// Returns `true` if this mirror has exactly `gate`'s shape — the
    /// only gate it may stand in for.
    pub fn has_shape_of(&self, gate: &Gate) -> bool {
        (self.neurons, self.input_size, self.hidden_size)
            == (gate.neurons(), gate.input_size(), gate.hidden_size())
    }

    /// What the unmasked XNOR owes a row: every padding position reads
    /// as an agreement (module docs of `popcount`), so
    /// `2 * pad + bits = 128 * words - bits`.
    fn bias(&self) -> i32 {
        (128 * self.row_words() - self.input_size - self.hidden_size) as i32
    }

    fn kernel_view(&self) -> SignBlock<'_> {
        SignBlock {
            data: self.sign_block(),
            words: self.row_words(),
            rows: self.neurons,
            bias: self.bias(),
        }
    }

    /// Packs the signs of `lanes` lane-striped input pairs into `dst`
    /// (resized to `lanes * row_words()`, storage reused): lane `l`'s
    /// forward input is `xs[l * input_size ..]`, its recurrent input
    /// `h_prevs[l * hidden_size ..]`.  Call once per gate call and hand
    /// the result to [`predict_packed_into`](Self::predict_packed_into)
    /// (exactly what the hardware's FMU does with its concatenated
    /// input vector).
    ///
    /// # Panics
    ///
    /// Panics if `xs` or `h_prevs` is not `lanes` inputs long.
    pub fn pack_inputs(&self, xs: &[f32], h_prevs: &[f32], lanes: usize, dst: &mut LineBuf<u64>) {
        assert_eq!(xs.len(), lanes * self.input_size, "forward inputs");
        assert_eq!(h_prevs.len(), lanes * self.hidden_size, "recurrent inputs");
        let (isz, hsz) = (self.input_size, self.hidden_size);
        let (xw, words) = row_shape(isz, hsz);
        dst.resize(lanes * words);
        for l in 0..lanes {
            let packed = &mut dst[l * words..(l + 1) * words];
            popcount::pack_signs(&xs[l * isz..(l + 1) * isz], &mut packed[..xw]);
            popcount::pack_signs(&h_prevs[l * hsz..(l + 1) * hsz], &mut packed[xw..]);
        }
    }

    /// Every neuron's binary output (Equation 8) for every packed lane
    /// in one dispatched call on the active tier, lane-striped:
    /// `out[l * neurons + n]` is neuron `n` on lane `l`: the signed
    /// XNOR-popcount dot product of row `n` with the lane's forward plus
    /// recurrent signs.
    ///
    /// # Panics
    ///
    /// Panics if `packed` is not a whole number of
    /// [`row_words`](Self::row_words)-word lanes or `out` is not
    /// `lanes * neurons` long.
    #[inline]
    pub fn predict_packed_into(&self, packed: &[u64], out: &mut [i32]) {
        popcount::predict_tier(backend::active(), self.kernel_view(), packed, out);
    }

    /// [`predict_packed_into`](Self::predict_packed_into) on an explicit
    /// kernel tier — the hook cross-tier tests and benches use.
    ///
    /// # Panics
    ///
    /// As above, and if `backend` is not supported on this host.
    pub fn predict_packed_on(&self, backend: KernelBackend, packed: &[u64], out: &mut [i32]) {
        backend.assert_supported();
        popcount::predict_tier(backend, self.kernel_view(), packed, out);
    }

    /// Packs the signs of one input pair into the [`BitVector`] operands
    /// [`neuron_outputs_batch_into`](Self::neuron_outputs_batch_into)
    /// consumes.
    pub fn binarize_inputs(&self, x: &[f32], h_prev: &[f32]) -> (BitVector, BitVector) {
        (BitVector::from_signs(x), BitVector::from_signs(h_prev))
    }

    /// Every neuron's binary output for **all** lanes of a batch in one
    /// call, lane-striped like
    /// [`predict_packed_into`](Self::predict_packed_into), with lane `l`'s
    /// inputs `xbs[l]` and `hbs[l]`.  A thin adapter: the operands' words
    /// are copied into one packed buffer and go through
    /// [`predict_packed_into`](Self::predict_packed_into).
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if `xbs` and `hbs` have different
    /// lane counts, any lane's packed inputs do not match the gate's
    /// dimensions, or `out.len() != xbs.len() * self.neurons()`.
    pub fn neuron_outputs_batch_into(
        &self,
        xbs: &[BitVector],
        hbs: &[BitVector],
        out: &mut [i32],
    ) -> Result<()> {
        for (left, right) in [
            (xbs.len(), hbs.len()),
            (out.len(), xbs.len() * self.neurons),
        ] {
            if left != right {
                return Err(BnnError::LengthMismatch { left, right });
            }
        }
        let mut packed = Vec::with_capacity(xbs.len() * self.row_words());
        for (xb, hb) in xbs.iter().zip(hbs) {
            for (left, right) in [(xb.len(), self.input_size), (hb.len(), self.hidden_size)] {
                if left != right {
                    return Err(BnnError::LengthMismatch { left, right });
                }
            }
            packed.extend_from_slice(xb.words());
            packed.extend_from_slice(hb.words());
        }
        self.predict_packed_into(&packed, out);
        Ok(())
    }

    /// Total number of sign bits stored for this gate (the contents of
    /// the accelerator's sign buffer).
    pub fn sign_bit_count(&self) -> usize {
        self.neurons() * (self.input_size + self.hidden_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::reference_binary_dot;
    use nfm_tensor::activation::Activation;
    use nfm_tensor::rng::DeterministicRng;
    use nfm_tensor::{Matrix, Vector};

    fn fp_gate(neurons: usize, input: usize, hidden: usize, seed: u64) -> Gate {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        Gate::random(neurons, input, hidden, Activation::Sigmoid, true, &mut rng).unwrap()
    }

    #[test]
    fn mirror_preserves_shape() {
        let g = fp_gate(6, 10, 6, 1);
        let b = BinaryGate::mirror(&g);
        assert_eq!(b.neurons(), 6);
        assert_eq!(b.input_size(), 10);
        assert_eq!(b.hidden_size(), 6);
        assert_eq!(b.sign_bit_count(), 6 * 16);
    }

    /// Every neuron on every lane through the packed kernel.
    fn predict(b: &BinaryGate, xs: &[f32], hs: &[f32], lanes: usize) -> Vec<i32> {
        let mut packed = LineBuf::default();
        b.pack_inputs(xs, hs, lanes, &mut packed);
        let mut out = vec![i32::MIN; lanes * b.neurons()];
        b.predict_packed_into(&packed, &mut out);
        out
    }

    #[test]
    fn predict_matches_reference_binary_dot() {
        let g = fp_gate(4, 8, 4, 2);
        let b = BinaryGate::mirror(&g);
        let mut rng = DeterministicRng::seed_from_u64(3);
        let x: Vec<f32> = (0..8).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let h: Vec<f32> = (0..4).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let predicted = predict(&b, &x, &h, 1);
        for (n, &y) in predicted.iter().enumerate() {
            let expected =
                reference_binary_dot(g.wx().row(n), &x) + reference_binary_dot(g.wh().row(n), &h);
            assert_eq!(y, expected, "neuron {n}");
        }
    }

    #[test]
    fn output_bounded_by_connection_count() {
        let g = fp_gate(3, 5, 3, 4);
        let b = BinaryGate::mirror(&g);
        for y in predict(&b, &[1.0; 5], &[-1.0; 3], 1) {
            assert!(y.abs() <= 5 + 3);
        }
    }

    #[test]
    fn packed_predict_matches_the_f32_reference_on_every_tier() {
        let g = fp_gate(13, 21, 13, 9); // odd sizes: a short block, tails
        let b = BinaryGate::mirror(&g);
        assert_eq!(b.row_words(), 2);
        assert_eq!(b.sign_block().len(), 2 * 8 * 2);
        let mut rng = DeterministicRng::seed_from_u64(10);
        for lanes in [1usize, 2, 3, 5, 8] {
            let xs: Vec<f32> = (0..lanes * 21).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let hs: Vec<f32> = (0..lanes * 13).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut expected = vec![0i32; lanes * 13];
            for l in 0..lanes {
                let (x, h) = (&xs[l * 21..][..21], &hs[l * 13..][..13]);
                for n in 0..13 {
                    expected[l * 13 + n] = reference_binary_dot(g.wx().row(n), x)
                        + reference_binary_dot(g.wh().row(n), h);
                }
            }
            assert_eq!(predict(&b, &xs, &hs, lanes), expected, "lanes {lanes}");
            let mut packed = LineBuf::default();
            b.pack_inputs(&xs, &hs, lanes, &mut packed);
            for backend in KernelBackend::supported() {
                let mut on = vec![0i32; lanes * 13];
                b.predict_packed_on(backend, &packed, &mut on);
                assert_eq!(on, expected, "{backend} lanes {lanes}");
            }
            let (xbs, hbs): (Vec<_>, Vec<_>) = (0..lanes)
                .map(|l| b.binarize_inputs(&xs[l * 21..][..21], &hs[l * 13..][..13]))
                .unzip();
            let mut batched = vec![0i32; lanes * 13];
            b.neuron_outputs_batch_into(&xbs, &hbs, &mut batched)
                .unwrap();
            assert_eq!(batched, expected, "adapter, lanes {lanes}");
        }
        // Dimension checks.
        let (xb, hb) = b.binarize_inputs(&[0.5; 21], &[0.5; 13]);
        let mut out = vec![0i32; 13];
        assert!(b
            .neuron_outputs_batch_into(std::slice::from_ref(&xb), &[], &mut out)
            .is_err());
        assert!(b
            .neuron_outputs_batch_into(&[BitVector::zeros(20)], std::slice::from_ref(&hb), &mut out)
            .is_err());
        assert!(b
            .neuron_outputs_batch_into(std::slice::from_ref(&xb), &[BitVector::zeros(12)], &mut out)
            .is_err());
        assert!(b
            .neuron_outputs_batch_into(&[xb], &[hb], &mut out[..12])
            .is_err());
    }

    #[test]
    #[should_panic]
    fn packed_predict_rejects_a_short_output() {
        let b = BinaryGate::mirror(&fp_gate(13, 21, 13, 9));
        b.predict_packed_into(&[0; 4], &mut [0; 25]);
    }

    #[test]
    fn sign_blocks_must_have_the_gate_shape_and_zero_padding() {
        let b = BinaryGate::mirror(&fp_gate(13, 21, 13, 9));
        let load = |words: &[u64], neurons| {
            BinaryGate::from_sign_block(LineBuf::from(words), neurons, 21, 13)
        };
        assert_eq!(load(b.sign_block(), 13).unwrap(), b);
        assert!(matches!(
            load(&b.sign_block()[8..], 13),
            Err(BnnError::LengthMismatch { .. })
        ));
        // Bit 21 of row 2's forward word, bit 13 of row 12's recurrent
        // word, and anything in the padding rows 13..16.
        for (word, bit, row) in [(2, 21, 2), (16 + 8 + 4, 13, 12), (16 + 5, 0, 13)] {
            let mut dirty = b.sign_block().to_vec();
            dirty[word] |= 1 << bit;
            assert_eq!(
                load(&dirty, 13).unwrap_err(),
                BnnError::NonZeroPadding { row },
                "word {word} bit {bit}"
            );
        }
        // The same words under a smaller neuron count: row 12 is padding.
        assert!(matches!(
            load(b.sign_block(), 12),
            Err(BnnError::NonZeroPadding { row: 12 })
        ));
    }

    #[test]
    fn mirror_of_explicit_weights_has_expected_signs() {
        let wx = Matrix::from_rows(vec![vec![0.5, -0.5, 0.0]]).unwrap();
        let wh = Matrix::from_rows(vec![vec![-1.0]]).unwrap();
        let g = Gate::new(wx, wh, Vector::zeros(1), None, Activation::Identity).unwrap();
        let b = BinaryGate::mirror(&g);
        // x all positive -> forward dot = (+1)(+1) + (-1)(+1) + (+1)(+1) = 1
        // h positive -> recurrent dot = (-1)(+1) = -1
        assert_eq!(predict(&b, &[1.0, 1.0, 1.0], &[1.0], 1), [0]);
    }
}
