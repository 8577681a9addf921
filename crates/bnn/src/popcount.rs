//! Runtime-dispatched XNOR-popcount kernels: the sign-pack
//! ([`pack_signs`]) and the packed gate predictor behind
//! [`BinaryGate::predict_packed_into`](crate::BinaryGate::predict_packed_into).
//! These are the crate's only two kernels: a mirror is built, and every
//! gate call's inputs are packed, by the first; every binary output of
//! Equation 8 comes from the second.
//!
//! The BNN mirror's whole job is to be cheap: every proxied neuron
//! output is `2 * popcount(XNOR(w, x)) - len` over packed 64-bit sign
//! words, for every neuron at every step.  How fast that runs depends
//! on the host ISA, so both kernels dispatch on the same
//! [`KernelBackend`] as the f32 kernels in `nfm_tensor::kernels`: the
//! tier resolved once per process by [`nfm_tensor::backend::active`]
//! (including the `NFM_KERNEL_BACKEND` override), or an explicit tier
//! in the `_on` test hooks.
//!
//! # The sign block
//!
//! A gate's binarised weights are one contiguous `u64` block.  A row is
//! `words = xw + hw` words: the forward signs padded to `xw` whole
//! words, then the recurrent signs padded to `hw` whole words.  Rows are
//! stored word-major in blocks of [`BLOCK_ROWS`] = 8:
//! `block[(b * words + k) * 8 + j]` is word `k` of row `8b + j`, rows
//! past the end are zero.  One 512-bit load therefore feeds eight
//! neurons whatever the lane count, so a one-lane gate call vectorises
//! as well as an eight-lane wave.  Packed inputs use the same row shape,
//! `words` per lane.
//!
//! Padding bits are zero in the weights *and* in the packed inputs, so
//! XNOR reports every padding position as an agreement and the kernel
//! never masks: with `pad = 64 * words - bits` it subtracts one
//! constant, `y = 2 * agree - (2 * pad + bits)`.
//!
//! # Tiers
//!
//! One gate call of the medium IMDB shape (128 rows of 64 + 128 signs,
//! three words a row) on the reference host — the
//! `kernel/bnn_gate_{8l,1l}_streamed/*` and `kernel/sign_pack_8l/*`
//! rungs of `inference_throughput`:
//!
//! | kernel tier | predict and sign-pack bodies | predict, 8 lanes / 1 lane | pack, 8 lanes |
//! |---|---|---|---|
//! | `scalar` | the plain bodies, portable SWAR `count_ones` | 3.04 us / 0.39 us | 0.81 us |
//! | `avx2` | the plain bodies compiled with `popcnt,avx2`: hardware popcounts at about one word a cycle, and the compare loop vectorises | 1.08 us / 0.17 us | 0.40 us |
//! | `avx512` | intrinsics: the predict, where `avx512vpopcntdq` exists, `broadcast(x) -> vpternlogq 0xC3 -> vpopcntq -> vpaddq`, four lanes to a weight load, eight outputs a store (else the `avx2` predict); the sign-pack `vcmpps` into a mask register | 0.25-0.41 us / 0.07-0.13 us | 0.19 us |
//! | `neon` | the plain bodies (`count_ones` lowers to NEON `cnt` on aarch64) | not measured | |
//!
//! The row-wise kernels this layout replaced spent 5.7 us on the same
//! 8-lane call on both x86 tiers (1.9 ns a word against a port bound of
//! 0.5) and 8.1 us on the scalar one, plus 0.9-1.1 us of bit-at-a-time
//! binarisation.  Popcounts are integer-exact, so every tier returns
//! *equal* values by construction — dispatch here is purely about
//! speed, and `crates/bnn/tests/properties.rs` pins the row counts,
//! widths and lane counts around the block and word boundaries anyway.

use nfm_tensor::backend::{self, KernelBackend};

/// The tier both kernels run on in this process:
/// [`nfm_tensor::backend::active`].
pub fn active() -> KernelBackend {
    backend::active()
}

/// Rows per block of a gate's sign block: the eight `u64` lanes of one
/// 512-bit register (see the module docs for the layout).
pub const BLOCK_ROWS: usize = 8;

/// A gate's sign block as the predict kernel reads it: the words, the
/// row shape and the constant the unmasked XNOR owes (module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SignBlock<'a> {
    pub(crate) data: &'a [u64],
    pub(crate) words: usize,
    pub(crate) rows: usize,
    /// `2 * pad + bits` of one row.
    pub(crate) bias: i32,
}

/// The packed "popcount matmul": every row of `block` against every
/// lane of `ins` (`words` packed words a lane, padding bits zero) in
/// one dispatched call, lane-striped —
/// `out[l * rows + n] = 2 * agree(row n, lane l) - bias`.  Block outer,
/// lane inner: eight rows' words are loaded once and reused for every
/// lane.
///
/// `backend` must be supported on this host, as in `nfm_tensor`'s
/// kernel bodies: `backend::active()` is checked once, at its first
/// call, and the explicit-tier hook
/// [`BinaryGate::predict_packed_on`](crate::BinaryGate::predict_packed_on)
/// asserts it.
///
/// # Panics
///
/// Panics if the block is not `rows.div_ceil(8) * 8 * words` words,
/// `ins` is not a whole number of lanes, or `out` is not `lanes * rows`
/// long.  These are real asserts: the vector tier stores eight outputs
/// at a time behind them.
pub(crate) fn predict_tier(
    backend: KernelBackend,
    block: SignBlock<'_>,
    ins: &[u64],
    out: &mut [i32],
) {
    let SignBlock {
        data, words, rows, ..
    } = block;
    assert_eq!(data.len(), rows.div_ceil(BLOCK_ROWS) * BLOCK_ROWS * words);
    assert!(words > 0 && ins.len().is_multiple_of(words), "ragged lanes");
    assert_eq!(out.len(), ins.len() / words * rows);
    match backend {
        // `u64::count_ones` lowers to NEON `cnt` on aarch64 baseline.
        KernelBackend::Scalar | KernelBackend::Neon => predict_body(block, ins, out),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the tier is supported (the caller's contract), so
        // `avx512f` and `avx512vl` are there; the guard checks
        // `avx512vpopcntdq`.
        KernelBackend::Avx512 if is_x86_feature_detected!("avx512vpopcntdq") => unsafe {
            x86::vpopcntdq_predict(block, ins, out)
        },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: both x86 tiers include `popcnt` and `avx2`.
        KernelBackend::Avx2 | KernelBackend::Avx512 => unsafe {
            x86::popcnt_predict(block, ins, out)
        },
        #[allow(unreachable_patterns)]
        other => unreachable!("kernel backend {other} is not compiled for this target"),
    }
}

/// The plain form of [`predict_tier`], compiled once plain and once with
/// `popcnt,avx2`.  The caller has checked the shapes.
#[inline(always)]
fn predict_body(block: SignBlock<'_>, ins: &[u64], out: &mut [i32]) {
    let SignBlock {
        data,
        words,
        rows,
        bias,
    } = block;
    for (b, eight_rows) in data.chunks_exact(words * BLOCK_ROWS).enumerate() {
        let first = b * BLOCK_ROWS;
        let live = (rows - first).min(BLOCK_ROWS);
        for (l, input) in ins.chunks_exact(words).enumerate() {
            let mut agree = [0u32; BLOCK_ROWS];
            for (word_k, &x) in eight_rows.chunks_exact(BLOCK_ROWS).zip(input) {
                for (a, &w) in agree.iter_mut().zip(word_k) {
                    *a += (!(w ^ x)).count_ones();
                }
            }
            let y = &mut out[l * rows + first..][..live];
            for (y, &a) in y.iter_mut().zip(&agree) {
                *y = 2 * a as i32 - bias;
            }
        }
    }
}

/// Packs the signs of `values` into `dst`, 64 a word, on the active
/// kernel tier: bit `i` of word `w` is `values[64 * w + i] >= 0.0` — an
/// ordered compare, so NaN packs as 0 and `-0.0` as 1 — and the bits
/// past the end are zero.  Inputs and weights both go through here, so
/// the mirror and its operands cannot disagree on the rule.
///
/// # Panics
///
/// Panics if `dst.len() != values.len().div_ceil(64)`.
#[inline]
pub fn pack_signs(values: &[f32], dst: &mut [u64]) {
    pack_signs_tier(active(), values, dst);
}

/// [`pack_signs`] on an explicit kernel tier — the hook the cross-tier
/// tests and benches use.
///
/// # Panics
///
/// Panics if `backend` is not supported on this host or
/// `dst.len() != values.len().div_ceil(64)`.
pub fn pack_signs_on(backend: KernelBackend, values: &[f32], dst: &mut [u64]) {
    backend.assert_supported();
    pack_signs_tier(backend, values, dst);
}

/// [`pack_signs`] on a tier the caller knows the host supports, like
/// [`predict_tier`].
///
/// # Panics
///
/// Panics if `dst.len() != values.len().div_ceil(64)`.
pub(crate) fn pack_signs_tier(backend: KernelBackend, values: &[f32], dst: &mut [u64]) {
    assert_eq!(dst.len(), values.len().div_ceil(64), "sign-pack length");
    match backend {
        KernelBackend::Scalar | KernelBackend::Neon => pack_signs_body(values, dst),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the tier is supported (the caller's contract), which
        // covers every feature the body enables.
        KernelBackend::Avx2 => unsafe { x86::avx2_pack_signs(values, dst) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: as above.
        KernelBackend::Avx512 => unsafe { x86::avx512_pack_signs(values, dst) },
        #[allow(unreachable_patterns)]
        other => unreachable!("kernel backend {other} is not compiled for this target"),
    }
}

/// The bit rule itself, compiled once plain and once with `avx2`.
#[inline(always)]
fn pack_signs_body(values: &[f32], dst: &mut [u64]) {
    for (word, chunk) in dst.iter_mut().zip(values.chunks(64)) {
        let mut bits = 0u64;
        for (i, &x) in chunk.iter().enumerate() {
            bits |= u64::from(x >= 0.0) << i;
        }
        *word = bits;
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{SignBlock, BLOCK_ROWS};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// The plain predict body with hardware `popcnt`.
    ///
    /// # Safety
    ///
    /// Requires `popcnt` and `avx2`.
    #[target_feature(enable = "popcnt,avx2")]
    pub(super) unsafe fn popcnt_predict(block: SignBlock<'_>, ins: &[u64], out: &mut [i32]) {
        super::predict_body(block, ins, out);
    }

    /// The plain sign-pack body with `avx2`, under which the compare
    /// loop vectorises.
    ///
    /// # Safety
    ///
    /// Requires `popcnt` and `avx2`.
    #[target_feature(enable = "popcnt,avx2")]
    pub(super) unsafe fn avx2_pack_signs(values: &[f32], dst: &mut [u64]) {
        super::pack_signs_body(values, dst);
    }

    /// The packed predict on `vpopcntq`: a block's word `k` is one
    /// 512-bit load (eight rows), each lane's word `k` a broadcast, and
    /// lanes go four to a weight load while there are four left.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` + `avx512vl` + `avx512vpopcntdq`, and the
    /// shapes [`predict_tier`](super::predict_tier) asserts: `data` is
    /// `rows.div_ceil(8)` blocks of `8 * words` words, `ins` a whole
    /// number of `words`-word lanes, `out` `rows` outputs a lane.
    #[target_feature(enable = "avx512f,avx512vl,avx512vpopcntdq")]
    pub(super) unsafe fn vpopcntdq_predict(block: SignBlock<'_>, ins: &[u64], out: &mut [i32]) {
        let SignBlock {
            data,
            words,
            rows,
            bias,
        } = block;
        let lanes = ins.len() / words;
        let bias = _mm256_set1_epi32(bias);
        for (b, eight_rows) in data.chunks_exact(words * BLOCK_ROWS).enumerate() {
            let first = b * BLOCK_ROWS;
            // A gate's last block may hold fewer than eight rows.
            let live: __mmask8 = 0xFF >> (BLOCK_ROWS - (rows - first).min(BLOCK_ROWS));
            let weights = eight_rows.as_ptr();
            let mut l = 0;
            while l < lanes {
                let group = if lanes - l >= 4 { 4 } else { 1 };
                // SAFETY: lanes `l .. l + group` exist, so `ins` holds
                // their `words` words each from `l * words` and `out`
                // their `rows` outputs each from `l * rows`, of which
                // this block owns `first ..` and `live` admits no more
                // than `rows - first`.
                unsafe {
                    let ins = ins.as_ptr().add(l * words);
                    let out = out.as_mut_ptr().add(l * rows + first);
                    if group == 4 {
                        lanes_of_block::<4>(weights, words, ins, bias, out, rows, live);
                    } else {
                        lanes_of_block::<1>(weights, words, ins, bias, out, rows, live);
                    }
                }
                l += group;
            }
        }
    }

    /// `N` lanes against one eight-row block: lane `i`'s outputs go to
    /// `out + i * rows`, through `live`.
    ///
    /// # Safety
    ///
    /// `weights` is readable for `8 * words` words, `ins` for `N * words`
    /// (lane `i`'s from `i * words`), and each `out + i * rows` writable
    /// for as many `i32`s as `live` has low bits set.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl,avx512vpopcntdq")]
    unsafe fn lanes_of_block<const N: usize>(
        weights: *const u64,
        words: usize,
        ins: *const u64,
        bias: __m256i,
        out: *mut i32,
        rows: usize,
        live: __mmask8,
    ) {
        let mut agree = [_mm512_setzero_si512(); N];
        for k in 0..words {
            // SAFETY: word `k` of the block's eight rows (caller).
            let w = unsafe { _mm512_loadu_si512(weights.add(k * BLOCK_ROWS).cast()) };
            for (i, a) in agree.iter_mut().enumerate() {
                // SAFETY: word `k` of lane `i` (caller).
                let x = _mm512_set1_epi64(unsafe { *ins.add(i * words + k) } as i64);
                // Truth table 0xC3 over (a, b, _) is ~(a ^ b): one-op XNOR.
                let xnor = _mm512_ternarylogic_epi64::<0xC3>(w, x, w);
                *a = _mm512_add_epi64(*a, _mm512_popcnt_epi64(xnor));
            }
        }
        for (i, a) in agree.iter().enumerate() {
            // Counts fit 32 bits; narrow first, finish in 256-bit ops.
            let a = _mm512_cvtepi64_epi32(*a);
            let y = _mm256_sub_epi32(_mm256_add_epi32(a, a), bias);
            // SAFETY: a masked store touches only the `live` low lanes,
            // which the caller owns at `out + i * rows`.
            unsafe { _mm256_mask_storeu_epi32(out.add(i * rows), live, y) };
        }
    }

    /// Sixteen signs per `vcmpps` into a mask register, four masks a
    /// word.  `_CMP_GE_OQ` is the ordered, quiet `>=` of the bit rule.
    ///
    /// # Safety
    ///
    /// Requires `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512_pack_signs(values: &[f32], dst: &mut [u64]) {
        let zero = _mm512_setzero_ps();
        let mut whole = values.chunks_exact(64);
        for (word, chunk) in dst.iter_mut().zip(&mut whole) {
            let mut bits = 0u64;
            for (q, sixteen) in chunk.chunks_exact(16).enumerate() {
                // SAFETY: `chunks_exact` yields exactly sixteen floats.
                let x = unsafe { _mm512_loadu_ps(sixteen.as_ptr()) };
                bits |= u64::from(_mm512_cmp_ps_mask::<_CMP_GE_OQ>(x, zero)) << (16 * q);
            }
            *word = bits;
        }
        // The last, short word: a short group loads only its own lanes;
        // the masked-off ones read as 0.0 and are masked out of the
        // compare again, so the tail bits stay zero.
        let rest = whole.remainder();
        if !rest.is_empty() {
            let mut bits = 0u64;
            for (q, sixteen) in rest.chunks(16).enumerate() {
                let live = (u16::MAX >> (16 - sixteen.len())) as __mmask16;
                // SAFETY: the mask admits `sixteen.len()` floats.
                let x = unsafe { _mm512_maskz_loadu_ps(live, sixteen.as_ptr()) };
                let ge = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(live, x, zero);
                bits |= u64::from(ge) << (16 * q);
            }
            dst[values.len() / 64] = bits;
        }
    }
}
