//! AVX2 and AVX-512 kernel tiers (x86 / x86-64).
//!
//! Both tiers reproduce the scalar reduction order exactly (see
//! [`super::body`]): sixteen canonical lane-major accumulators advanced
//! once per 16-element chunk with one fused multiply-add (`vfmadd`, the
//! single rounding of the scalar reference's `f32::mul_add`), the fixed
//! pairwise reduce tree, and the shared fused `len % 16` tail
//! [`tail_dot`].
//!
//! The 16-lane canonical order is what lets the AVX-512 tier hold one
//! *full* accumulator chain in a single `zmm` register: one
//! `loadu → fmadd` per chunk per output ([`reduce16`]'s 256-bit
//! extract-and-add is exactly the canonical half fold `s[i] = acc[i] +
//! acc[i + 8]`).  The AVX2 tier represents the same sixteen lanes as a
//! `ymm` *pair* — `acc_lo` holds lanes 0–7, `acc_hi` lanes 8–15 — and
//! its final `vaddps` of the two halves is the same half fold, so both
//! tiers reduce through the shared 8-wide tree [`reduce8`] and stay
//! bit-identical by construction.
#![allow(unsafe_op_in_unsafe_fn)]

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use super::body::{tail_dot, DotOps, TILE};

/// The canonical 8-wide pairwise reduce tree over a 256-bit register of
/// half-folded sums: bit-identical to the tree `body::reduce` runs
/// after its half fold.
///
/// # Safety
///
/// Requires `avx`.
#[inline(always)]
unsafe fn reduce8(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    // [s0+s4, s1+s5, s2+s6, s3+s7]
    let s = _mm_add_ps(lo, hi);
    // [(s0+s4)+(s2+s6), (s1+s5)+(s3+s7), ..]
    let t = _mm_add_ps(s, _mm_movehl_ps(s, s));
    // ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))
    let r = _mm_add_ss(t, _mm_shuffle_ps::<0b01>(t, t));
    _mm_cvtss_f32(r)
}

/// Reduce a sixteen-lane accumulator held as a `ymm` pair: the `vaddps`
/// of the halves is the canonical half fold `s[i] = acc[i] + acc[i+8]`,
/// then the shared tree.
///
/// # Safety
///
/// Requires `avx`.
#[inline(always)]
unsafe fn reduce16_pair(acc_lo: __m256, acc_hi: __m256) -> f32 {
    reduce8(_mm256_add_ps(acc_lo, acc_hi))
}

/// Reduce a sixteen-lane accumulator held in one `zmm`: the 256-bit
/// extract-and-add is the canonical half fold, then the shared tree.
///
/// # Safety
///
/// Requires `avx512f` + `avx512dq` (`vextractf32x8`).
#[inline(always)]
unsafe fn reduce16(v: __m512) -> f32 {
    let lo = _mm512_castps512_ps256(v);
    let hi = _mm512_extractf32x8_ps::<1>(v);
    reduce8(_mm256_add_ps(lo, hi))
}

/// Half fold of two chains side by side: `[s_a | s_b]` with
/// `s[i] = acc[i] + acc[i + 8]`.
///
/// # Safety
///
/// Requires `avx512f`.
#[inline(always)]
unsafe fn fold_pair(a: __m512, b: __m512) -> __m512 {
    _mm512_add_ps(
        _mm512_shuffle_f32x4::<0b01_00_01_00>(a, b),
        _mm512_shuffle_f32x4::<0b11_10_11_10>(a, b),
    )
}

/// One weight row's four chains folded to `u[k] = s[k] + s[k + 4]`, one
/// 128-bit group per lane.
///
/// # Safety
///
/// Requires `avx512f`.
#[inline(always)]
unsafe fn fold_row(acc: [__m512; TILE]) -> __m512 {
    let ab = fold_pair(acc[0], acc[1]);
    let cd = fold_pair(acc[2], acc[3]);
    _mm512_add_ps(
        _mm512_shuffle_f32x4::<0b10_00_10_00>(ab, cd),
        _mm512_shuffle_f32x4::<0b11_01_11_01>(ab, cd),
    )
}

/// [`reduce16`] over a whole tile at once: sixteen chains `acc[i][j]`
/// in, their sixteen sums out as `[j][i]` (element `4j + i`).  Each sum
/// is combined in exactly the canonical order — the half fold, then the
/// 8-wide tree — but as a shuffle network over whole registers: 32
/// shuffles and 15 adds where sixteen [`reduce16`] take 64 and 64.
///
/// # Safety
///
/// Requires `avx512f`.
#[inline(always)]
unsafe fn reduce16_tile(acc: [[__m512; TILE]; TILE]) -> __m512 {
    let w0 = fold_row(acc[0]);
    let w1 = fold_row(acc[1]);
    let w2 = fold_row(acc[2]);
    let w3 = fold_row(acc[3]);
    // Transpose 4 × 4 inside every group: `u_k` holds element `k` of all
    // four rows, so the tree's `(u0 + u2) + (u1 + u3)` finishes a lane's
    // four rows in one group.
    let t0 = _mm512_castps_pd(_mm512_unpacklo_ps(w0, w1));
    let t1 = _mm512_castps_pd(_mm512_unpackhi_ps(w0, w1));
    let t2 = _mm512_castps_pd(_mm512_unpacklo_ps(w2, w3));
    let t3 = _mm512_castps_pd(_mm512_unpackhi_ps(w2, w3));
    let u0 = _mm512_castpd_ps(_mm512_unpacklo_pd(t0, t2));
    let u1 = _mm512_castpd_ps(_mm512_unpackhi_pd(t0, t2));
    let u2 = _mm512_castpd_ps(_mm512_unpacklo_pd(t1, t3));
    let u3 = _mm512_castpd_ps(_mm512_unpackhi_pd(t1, t3));
    _mm512_add_ps(_mm512_add_ps(u0, u2), _mm512_add_ps(u1, u3))
}

/// 256-bit tier: each sixteen-lane accumulator chain lives in a `ymm`
/// pair, advanced with two `loadu → fmadd` steps per chunk.
#[derive(Clone, Copy)]
struct Avx2Ops;

impl DotOps for Avx2Ops {
    #[inline(always)]
    unsafe fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 16;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc_lo = _mm256_setzero_ps();
        let mut acc_hi = _mm256_setzero_ps();
        for c in 0..chunks {
            let at = c * 16;
            acc_lo = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(at)),
                _mm256_loadu_ps(pb.add(at)),
                acc_lo,
            );
            acc_hi = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(at + 8)),
                _mm256_loadu_ps(pb.add(at + 8)),
                acc_hi,
            );
        }
        reduce16_pair(acc_lo, acc_hi) + tail_dot(&a[chunks * 16..], &b[chunks * 16..])
    }

    #[inline(always)]
    unsafe fn dot2(self, a0: &[f32], a1: &[f32], shared: &[f32]) -> [f32; 2] {
        debug_assert!(a0.len() == shared.len() && a1.len() == shared.len());
        let n = shared.len();
        let chunks = n / 16;
        let p0 = a0.as_ptr();
        let p1 = a1.as_ptr();
        let ps = shared.as_ptr();
        let mut a0_lo = _mm256_setzero_ps();
        let mut a0_hi = _mm256_setzero_ps();
        let mut a1_lo = _mm256_setzero_ps();
        let mut a1_hi = _mm256_setzero_ps();
        for c in 0..chunks {
            let at = c * 16;
            let s_lo = _mm256_loadu_ps(ps.add(at));
            let s_hi = _mm256_loadu_ps(ps.add(at + 8));
            a0_lo = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(at)), s_lo, a0_lo);
            a0_hi = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(at + 8)), s_hi, a0_hi);
            a1_lo = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(at)), s_lo, a1_lo);
            a1_hi = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(at + 8)), s_hi, a1_hi);
        }
        [
            reduce16_pair(a0_lo, a0_hi) + tail_dot(&a0[chunks * 16..], &shared[chunks * 16..]),
            reduce16_pair(a1_lo, a1_hi) + tail_dot(&a1[chunks * 16..], &shared[chunks * 16..]),
        ]
    }

    #[inline(always)]
    unsafe fn dot_quad(
        self,
        row: &[f32],
        x0: &[f32],
        x1: &[f32],
        x2: &[f32],
        x3: &[f32],
    ) -> [f32; 4] {
        debug_assert!(
            row.len() == x0.len()
                && row.len() == x1.len()
                && row.len() == x2.len()
                && row.len() == x3.len()
        );
        let n = row.len();
        let chunks = n / 16;
        let pr = row.as_ptr();
        let px = [x0.as_ptr(), x1.as_ptr(), x2.as_ptr(), x3.as_ptr()];
        let zero = _mm256_setzero_ps();
        let mut acc = [(zero, zero); 4];
        for c in 0..chunks {
            let at = c * 16;
            let r_lo = _mm256_loadu_ps(pr.add(at));
            let r_hi = _mm256_loadu_ps(pr.add(at + 8));
            for (a, p) in acc.iter_mut().zip(px.iter()) {
                a.0 = _mm256_fmadd_ps(r_lo, _mm256_loadu_ps(p.add(at)), a.0);
                a.1 = _mm256_fmadd_ps(r_hi, _mm256_loadu_ps(p.add(at + 8)), a.1);
            }
        }
        [
            reduce16_pair(acc[0].0, acc[0].1) + tail_dot(&row[chunks * 16..], &x0[chunks * 16..]),
            reduce16_pair(acc[1].0, acc[1].1) + tail_dot(&row[chunks * 16..], &x1[chunks * 16..]),
            reduce16_pair(acc[2].0, acc[2].1) + tail_dot(&row[chunks * 16..], &x2[chunks * 16..]),
            reduce16_pair(acc[3].0, acc[3].1) + tail_dot(&row[chunks * 16..], &x3[chunks * 16..]),
        ]
    }
}

/// 512-bit tier: one `zmm` register *is* one full sixteen-lane
/// accumulator chain — a single `loadu → fmadd` per chunk per
/// output, half the instruction count of the `ymm`-pair tier on the
/// same canonical order.  `dot2` keeps two chains (two `zmm`) over one
/// shared-operand load, `dot_quad` four, `dot_tile` sixteen over four
/// lane loads and four row loads.
#[derive(Clone, Copy)]
struct Avx512Ops;

impl DotOps for Avx512Ops {
    #[inline(always)]
    unsafe fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 16;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc = _mm512_setzero_ps();
        for c in 0..chunks {
            let at = c * 16;
            acc = _mm512_fmadd_ps(
                _mm512_loadu_ps(pa.add(at)),
                _mm512_loadu_ps(pb.add(at)),
                acc,
            );
        }
        reduce16(acc) + tail_dot(&a[chunks * 16..], &b[chunks * 16..])
    }

    #[inline(always)]
    unsafe fn dot2(self, a0: &[f32], a1: &[f32], shared: &[f32]) -> [f32; 2] {
        debug_assert!(a0.len() == shared.len() && a1.len() == shared.len());
        let n = shared.len();
        let chunks = n / 16;
        let p0 = a0.as_ptr();
        let p1 = a1.as_ptr();
        let ps = shared.as_ptr();
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        for c in 0..chunks {
            let at = c * 16;
            let vs = _mm512_loadu_ps(ps.add(at));
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(p0.add(at)), vs, acc0);
            acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(p1.add(at)), vs, acc1);
        }
        [
            reduce16(acc0) + tail_dot(&a0[chunks * 16..], &shared[chunks * 16..]),
            reduce16(acc1) + tail_dot(&a1[chunks * 16..], &shared[chunks * 16..]),
        ]
    }

    #[inline(always)]
    unsafe fn dot_quad(
        self,
        row: &[f32],
        x0: &[f32],
        x1: &[f32],
        x2: &[f32],
        x3: &[f32],
    ) -> [f32; 4] {
        debug_assert!(
            row.len() == x0.len()
                && row.len() == x1.len()
                && row.len() == x2.len()
                && row.len() == x3.len()
        );
        let n = row.len();
        let chunks = n / 16;
        let pr = row.as_ptr();
        let px = [x0.as_ptr(), x1.as_ptr(), x2.as_ptr(), x3.as_ptr()];
        let mut acc = [_mm512_setzero_ps(); 4];
        for c in 0..chunks {
            let at = c * 16;
            let vr = _mm512_loadu_ps(pr.add(at));
            for (a, p) in acc.iter_mut().zip(px.iter()) {
                *a = _mm512_fmadd_ps(vr, _mm512_loadu_ps(p.add(at)), *a);
            }
        }
        [
            reduce16(acc[0]) + tail_dot(&row[chunks * 16..], &x0[chunks * 16..]),
            reduce16(acc[1]) + tail_dot(&row[chunks * 16..], &x1[chunks * 16..]),
            reduce16(acc[2]) + tail_dot(&row[chunks * 16..], &x2[chunks * 16..]),
            reduce16(acc[3]) + tail_dot(&row[chunks * 16..], &x3[chunks * 16..]),
        ]
    }

    #[inline(always)]
    unsafe fn dot_tile(self, rows: [&[f32]; TILE], xs: [&[f32]; TILE]) -> [[f32; TILE]; TILE] {
        let n = rows[0].len();
        debug_assert!(rows.iter().chain(xs.iter()).all(|s| s.len() == n));
        let chunks = n / 16;
        let pr = rows.map(<[f32]>::as_ptr);
        let px = xs.map(<[f32]>::as_ptr);
        // acc[i][j] is the chain of `rows[i]·xs[j]`: sixteen `zmm`, plus
        // four lane vectors and one weight row in flight per chunk —
        // eight loads for sixteen chunk-dots.  (Loops, not closures, for
        // the reason given at the trait's default.)
        let mut acc = [[_mm512_setzero_ps(); TILE]; TILE];
        for c in 0..chunks {
            let at = c * 16;
            let vx = [
                _mm512_loadu_ps(px[0].add(at)),
                _mm512_loadu_ps(px[1].add(at)),
                _mm512_loadu_ps(px[2].add(at)),
                _mm512_loadu_ps(px[3].add(at)),
            ];
            for (a, p) in acc.iter_mut().zip(pr.iter()) {
                let vr = _mm512_loadu_ps(p.add(at));
                for (a, x) in a.iter_mut().zip(vx.iter()) {
                    *a = _mm512_fmadd_ps(vr, *x, *a);
                }
            }
        }
        let mut tile = [[0.0f32; TILE]; TILE];
        _mm512_storeu_ps(tile.as_mut_ptr().cast(), reduce16_tile(acc));
        // With no tail, `dot` adds a `+0.0` that changes no sum (a chain
        // starts at `+0.0`, so none is `-0.0`): skipping it is exact.
        if chunks * 16 < n {
            for (j, lane) in tile.iter_mut().enumerate() {
                for (i, t) in lane.iter_mut().enumerate() {
                    *t += tail_dot(&rows[i][chunks * 16..], &xs[j][chunks * 16..]);
                }
            }
        }
        tile
    }
}

/// Instantiates the full kernel set for one tier inside
/// `#[target_feature]` wrappers, so the ops and the shared bodies
/// inline together under the tier's instruction set.
macro_rules! kernel_set {
    ($feat:literal, $ops:expr) => {
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
            $crate::kernels::body::DotOps::dot($ops, a, b)
        }

        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        pub(crate) unsafe fn matmul(
            m: &[f32],
            rows: usize,
            cols: usize,
            span: std::ops::Range<usize>,
            xs: &[f32],
            lanes: usize,
            out: $crate::kernels::body::Stripes<'_>,
        ) {
            $crate::kernels::body::matmul_body($ops, m, rows, cols, span, xs, lanes, out)
        }

        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        pub(crate) unsafe fn matmul_add(
            m: &[f32],
            rows: usize,
            cols: usize,
            span: std::ops::Range<usize>,
            xs: &[f32],
            lanes: usize,
            base: &[f32],
            out: $crate::kernels::body::Stripes<'_>,
        ) {
            $crate::kernels::body::matmul_add_body($ops, m, rows, cols, span, xs, lanes, base, out)
        }

        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn activate(activation: $crate::activation::Activation, out: &mut [f32]) {
            $crate::kernels::body::activate_body(activation, out)
        }
    };
}

pub(crate) mod avx2 {
    use super::Avx2Ops;
    kernel_set!("avx,avx2,fma", Avx2Ops);
}

pub(crate) mod avx512 {
    use super::Avx512Ops;
    kernel_set!("avx,avx2,fma,avx512f,avx512dq,avx512vl", Avx512Ops);
}
