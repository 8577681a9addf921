//! NEON kernel tier (aarch64).
//!
//! The canonical sixteen lane-major accumulators are represented as four
//! 128-bit registers — `q0` holds lanes 0–3, `q1` lanes 4–7, `q2` lanes
//! 8–11, `q3` lanes 12–15 — advanced with `vfmaq_f32`, one fused
//! multiply-add per element (the single rounding of the scalar
//! reference's `f32::mul_add`).  The final reduction implements the same
//! tree as the scalar [`super::body::reduce`]: the half fold `s[i] =
//! acc[i] + acc[i + 8]` is `vaddq(q0, q2)` / `vaddq(q1, q3)`, then the
//! 8-wide pairwise tree over the folded pair.  The `len % 16` tail is
//! the shared fused [`tail_dot`], so results are bit-identical to the
//! scalar tier.
//!
//! This module compiles only on aarch64; it is exercised by the same
//! per-backend test suites that pin the x86 tiers
//! (`crates/tensor/tests/backend_kernels.rs` runs every backend in
//! `KernelBackend::supported()`).

#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::aarch64::*;

use super::body::{tail_dot, DotOps};

/// Four q-registers holding one sixteen-lane accumulator chain.
type Acc16 = (float32x4_t, float32x4_t, float32x4_t, float32x4_t);

/// The canonical reduce tree over the four-register accumulator chain:
/// bit-identical to `body::reduce([q0 lanes, q1 lanes, q2 lanes, q3
/// lanes])`.
///
/// # Safety
///
/// Requires `neon`.
#[inline(always)]
unsafe fn reduce16(acc: Acc16) -> f32 {
    // Half fold: [a0+a8, a1+a9, a2+a10, a3+a11] / [a4+a12, ..] ==
    // s[0..4] / s[4..8].
    let s_lo = vaddq_f32(acc.0, acc.2);
    let s_hi = vaddq_f32(acc.1, acc.3);
    // [s0+s4, s1+s5, s2+s6, s3+s7]
    let s = vaddq_f32(s_lo, s_hi);
    // [(s0+s4)+(s2+s6), (s1+s5)+(s3+s7)]
    let d = vadd_f32(vget_low_f32(s), vget_high_f32(s));
    // ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))
    vget_lane_f32::<0>(vpadd_f32(d, d))
}

/// One accumulator chain advanced by one 16-element chunk.
#[inline(always)]
unsafe fn step(acc: Acc16, a: *const f32, b: *const f32, at: usize) -> Acc16 {
    step_shared(
        acc,
        a,
        at,
        vld1q_f32(b.add(at)),
        vld1q_f32(b.add(at + 4)),
        vld1q_f32(b.add(at + 8)),
        vld1q_f32(b.add(at + 12)),
    )
}

/// One chain advanced against four preloaded shared-operand quarters.
#[inline(always)]
unsafe fn step_shared(
    acc: Acc16,
    p: *const f32,
    at: usize,
    s0: float32x4_t,
    s1: float32x4_t,
    s2: float32x4_t,
    s3: float32x4_t,
) -> Acc16 {
    (
        vfmaq_f32(acc.0, vld1q_f32(p.add(at)), s0),
        vfmaq_f32(acc.1, vld1q_f32(p.add(at + 4)), s1),
        vfmaq_f32(acc.2, vld1q_f32(p.add(at + 8)), s2),
        vfmaq_f32(acc.3, vld1q_f32(p.add(at + 12)), s3),
    )
}

#[derive(Clone, Copy)]
struct NeonOps;

impl DotOps for NeonOps {
    #[inline(always)]
    unsafe fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 16;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let zero = vdupq_n_f32(0.0);
        let mut acc = (zero, zero, zero, zero);
        for c in 0..chunks {
            acc = step(acc, pa, pb, c * 16);
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
        let zero = vdupq_n_f32(0.0);
        let mut acc0 = (zero, zero, zero, zero);
        let mut acc1 = (zero, zero, zero, zero);
        for c in 0..chunks {
            let at = c * 16;
            let s0 = vld1q_f32(ps.add(at));
            let s1 = vld1q_f32(ps.add(at + 4));
            let s2 = vld1q_f32(ps.add(at + 8));
            let s3 = vld1q_f32(ps.add(at + 12));
            acc0 = step_shared(acc0, p0, at, s0, s1, s2, s3);
            acc1 = step_shared(acc1, p1, at, s0, s1, s2, s3);
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
        let zero = vdupq_n_f32(0.0);
        let mut acc = [(zero, zero, zero, zero); 4];
        for c in 0..chunks {
            let at = c * 16;
            let r0 = vld1q_f32(pr.add(at));
            let r1 = vld1q_f32(pr.add(at + 4));
            let r2 = vld1q_f32(pr.add(at + 8));
            let r3 = vld1q_f32(pr.add(at + 12));
            for (a, p) in acc.iter_mut().zip(px.iter()) {
                *a = step_shared(*a, *p, at, r0, r1, r2, r3);
            }
        }
        [
            reduce16(acc[0]) + tail_dot(&row[chunks * 16..], &x0[chunks * 16..]),
            reduce16(acc[1]) + tail_dot(&row[chunks * 16..], &x1[chunks * 16..]),
            reduce16(acc[2]) + tail_dot(&row[chunks * 16..], &x2[chunks * 16..]),
            reduce16(acc[3]) + tail_dot(&row[chunks * 16..], &x3[chunks * 16..]),
        ]
    }
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    crate::kernels::body::DotOps::dot(NeonOps, a, b)
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn matmul(
    m: &[f32],
    rows: usize,
    cols: usize,
    xs: &[f32],
    lanes: usize,
    out: &mut [f32],
) {
    crate::kernels::body::matmul_body(NeonOps, m, rows, cols, xs, lanes, out)
}

#[target_feature(enable = "neon")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn matmul_add(
    m: &[f32],
    rows: usize,
    cols: usize,
    xs: &[f32],
    lanes: usize,
    base: &[f32],
    out: &mut [f32],
) {
    crate::kernels::body::matmul_add_body(NeonOps, m, rows, cols, xs, lanes, base, out)
}

#[target_feature(enable = "neon")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn dual_matmul(
    wx: &[f32],
    wh: &[f32],
    rows: usize,
    xc: usize,
    hc: usize,
    xs: &[f32],
    hs: &[f32],
    lanes: usize,
    out: &mut [f32],
) {
    crate::kernels::body::dual_matmul_body(NeonOps, wx, wh, rows, xc, hc, xs, hs, lanes, out)
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn activate(activation: crate::activation::Activation, out: &mut [f32]) {
    crate::kernels::body::activate_body(activation, out)
}
