//! Backend-generic kernel loop bodies and the scalar reference ops.
//!
//! The only code that differs between dispatch tiers is the innermost
//! dot-product arithmetic; everything else — row iteration, lane
//! striping, the 4×4 register tiles, tail handling — is shared.  This
//! module expresses that split: [`DotOps`] is the per-backend arithmetic
//! surface, the `*_body` functions are the shared loop nests, and every
//! per-arch module instantiates the bodies inside `#[target_feature]`
//! wrappers so the ops inline with the right instruction set enabled.
//! The elementwise [`activate_body`] needs no [`DotOps`]: it is plain
//! arithmetic the compiler vectorises under each wrapper's features.
//!
//! # The canonical reduction order
//!
//! [`ScalarOps`] **is** the specification.  A dot product is
//!
//! 1. sixteen lane-major accumulators over `chunks_exact(16)`
//!    (`acc[l] += a[16c + l] * b[16c + l]`, multiply-then-add rounding —
//!    never FMA),
//! 2. the fixed pairwise tree [`reduce`]: first a half fold
//!    (`s[i] = acc[i] + acc[i + 8]`), then the 8-wide pairwise tree over
//!    `s`,
//! 3. plus a sequential scalar tail over the `len % 16` remainder.
//!
//! Sixteen lanes let the AVX-512 tier hold one full accumulator chain in
//! a single `zmm` register (the half fold is exactly its 256-bit
//! extract-and-add), AVX2 maps the chain onto two `ymm` registers whose
//! final `vaddps` *is* the half fold, and NEON spreads it over four
//! 128-bit registers.
//!
//! Every [`DotOps`] implementation must reproduce this bit-for-bit; the
//! multi-output ops (`dot2`, `dot_quad`, `dot_tile`) must make each
//! output equal to the corresponding single [`DotOps::dot`].  `f32`
//! multiplication and addition are commutative in their operands, so
//! implementations may swap operand roles within a lane, but never the
//! order in which a lane's partial sums combine.
//!
//! # Why there is a tile
//!
//! The multi-output ops exist to share operand loads and to keep more
//! independent chains in flight; per 16-element chunk of one dot, on the
//! AVX-512 tier:
//!
//! | op | chains | 64-byte loads per chunk-dot |
//! |---|---|---|
//! | `dot` | 1 | 2 |
//! | `dot2` | 2 | 1.5 |
//! | `dot_quad` | 4 | 1.25 |
//! | `dot_tile` | 16 | 0.5 |
//!
//! The reference host (Xeon @ 2.1 GHz, 2 vCPUs) sustains 5.0–5.7 such
//! loads/ns from L1 when they sit on a cache line but 1.9–2.7 when they
//! start 16 or 32 bytes past one (what `malloc` and the artifact arena
//! give every weight row), against 5.2–5.5 register-only `vmulps` /
//! `vaddps` per ns with sixteen chains in flight — and a chain's add has
//! a 4-cycle latency, so two chains finish a chunk-dot every other
//! cycle at best.  `dot2` (what `matmul` and `matmul_add` paired lanes
//! through) therefore ran at 0.65 ns a chunk-dot in its best rounds,
//! bound by latency and by loads; the tile runs at 0.37 ns, the
//! multiply-then-add ceiling itself (2 FP ops / 5.4 per ns), which is
//! why FMA is judged on top of the tile and not instead of it.

use crate::activation::{hard_sigmoid, relu, sigmoid, tanh, Activation};

/// Number of independent accumulators in the unrolled dot product.
pub(crate) const LANES: usize = 16;

/// Tile edge of the register-blocked batched kernels: weight rows and
/// batch lanes are processed in 4 × 4 tiles through
/// [`DotOps::dot_tile`], sixteen independent dot products in flight per
/// streamed row block.
pub(crate) const TILE: usize = 4;

/// The canonical pairwise reduction of the unrolled accumulators.  This
/// IS the reduction order every kernel and every backend inherits —
/// SIMD tiers implement the same tree over register lanes: the half
/// fold is AVX-512's 256-bit extract-and-add (and AVX2's add of its two
/// `ymm` chain halves), the rest is the historical 8-wide tree shaped
/// like the SSE `movehl`/`shuffle` ladder.
#[inline]
pub(crate) fn reduce(acc: [f32; LANES]) -> f32 {
    let mut s = [0.0f32; 8];
    for i in 0..8 {
        s[i] = acc[i] + acc[i + 8];
    }
    ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
}

/// The per-backend arithmetic surface.
///
/// # Safety
///
/// Methods may use SIMD intrinsics; the caller must guarantee the CPU
/// supports the implementation's feature set (the dispatch layer calls
/// them only through `#[target_feature]` wrappers selected at runtime).
pub(crate) trait DotOps: Copy {
    /// Dot product in the canonical reduction order.
    ///
    /// # Safety
    ///
    /// CPU must support this backend's features; slices must have equal
    /// lengths.
    unsafe fn dot(self, a: &[f32], b: &[f32]) -> f32;

    /// Two dot products sharing the `shared` operand:
    /// `[dot(a0, shared), dot(a1, shared)]`, each bit-identical to
    /// [`DotOps::dot`].
    ///
    /// # Safety
    ///
    /// Same contract as [`DotOps::dot`] for every operand.
    #[inline(always)]
    unsafe fn dot2(self, a0: &[f32], a1: &[f32], shared: &[f32]) -> [f32; 2] {
        // SAFETY: forwarded caller contract.
        unsafe { [self.dot(a0, shared), self.dot(a1, shared)] }
    }

    /// Four dot products of one shared `row` against four lane vectors:
    /// `dot_quad(r, a, b, c, d)[i]` is bit-identical to
    /// `dot(r, [a, b, c, d][i])`.
    ///
    /// # Safety
    ///
    /// Same contract as [`DotOps::dot`] for every operand.
    unsafe fn dot_quad(
        self,
        row: &[f32],
        x0: &[f32],
        x1: &[f32],
        x2: &[f32],
        x3: &[f32],
    ) -> [f32; 4];

    /// Sixteen dot products of four weight `rows` against four lane
    /// vectors `xs`, lane-major like the kernels' `out`:
    /// `dot_tile(rows, xs)[j][i]` is bit-identical to
    /// `dot(rows[i], xs[j])`.  The default runs one
    /// [`DotOps::dot_quad`] per row, so a tier whose registers cannot
    /// hold sixteen chains streams one weight row at a time as before;
    /// a tier that can overrides it with the real tile.
    ///
    /// # Safety
    ///
    /// Same contract as [`DotOps::dot`] for every operand.
    #[inline(always)]
    unsafe fn dot_tile(self, rows: [&[f32]; TILE], xs: [&[f32]; TILE]) -> [[f32; TILE]; TILE] {
        // A loop, not `rows.map(..)`: a closure body is compiled without
        // the wrapper's `#[target_feature]`, so the intrinsics under it
        // would stay calls.
        let [x0, x1, x2, x3] = xs;
        let mut tile = [[0.0f32; TILE]; TILE];
        for (i, row) in rows.into_iter().enumerate() {
            // SAFETY: forwarded caller contract.
            let quad = unsafe { self.dot_quad(row, x0, x1, x2, x3) };
            for (lane, d) in tile.iter_mut().zip(quad) {
                lane[i] = d;
            }
        }
        tile
    }
}

/// The portable reference implementation (and the autovectorizer's
/// input when no SIMD tier is selected).
#[derive(Clone, Copy)]
pub(crate) struct ScalarOps;

impl DotOps for ScalarOps {
    #[inline(always)]
    unsafe fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = [0.0f32; LANES];
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for (pa, pb) in (&mut ca).zip(&mut cb) {
            for l in 0..LANES {
                acc[l] += pa[l] * pb[l];
            }
        }
        let mut tail = 0.0f32;
        for (x, y) in ca.remainder().iter().zip(cb.remainder().iter()) {
            tail += x * y;
        }
        reduce(acc) + tail
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
        let mut a0 = [0.0f32; LANES];
        let mut a1 = [0.0f32; LANES];
        let mut a2 = [0.0f32; LANES];
        let mut a3 = [0.0f32; LANES];
        let mut cr = row.chunks_exact(LANES);
        let mut c0 = x0.chunks_exact(LANES);
        let mut c1 = x1.chunks_exact(LANES);
        let mut c2 = x2.chunks_exact(LANES);
        let mut c3 = x3.chunks_exact(LANES);
        for ((((pr, p0), p1), p2), p3) in (&mut cr)
            .zip(&mut c0)
            .zip(&mut c1)
            .zip(&mut c2)
            .zip(&mut c3)
        {
            for l in 0..LANES {
                a0[l] += pr[l] * p0[l];
                a1[l] += pr[l] * p1[l];
                a2[l] += pr[l] * p2[l];
                a3[l] += pr[l] * p3[l];
            }
        }
        let mut t0 = 0.0f32;
        let mut t1 = 0.0f32;
        let mut t2 = 0.0f32;
        let mut t3 = 0.0f32;
        for ((((x, y0), y1), y2), y3) in cr
            .remainder()
            .iter()
            .zip(c0.remainder())
            .zip(c1.remainder())
            .zip(c2.remainder())
            .zip(c3.remainder())
        {
            t0 += x * y0;
            t1 += x * y1;
            t2 += x * y2;
            t3 += x * y3;
        }
        [
            reduce(a0) + t0,
            reduce(a1) + t1,
            reduce(a2) + t2,
            reduce(a3) + t3,
        ]
    }
}

/// Every dot of the lane-striped product `m[r]·xs[l]`, handed to `put`
/// as `(l * rows + r, dots)`: the dots of up to [`TILE`] consecutive
/// rows of lane `l`, which are consecutive in a lane-striped output.
/// Row blocks of four × lane quads run through [`DotOps::dot_tile`], so
/// a block's weight rows stream once and stay in L1 across the lanes.
/// Lanes left over share their vector across the block's four rows and
/// rows left over share theirs across a lane quad (both
/// [`DotOps::dot_quad`]); the corner pairs lanes through
/// [`DotOps::dot2`] down to a single [`DotOps::dot`].  Every form
/// equals the single dot bit for bit, so the walk is bit-transparent.
///
/// # Safety
///
/// CPU must support `O`'s features; `m.len() == rows * cols` and
/// `xs.len() == lanes * cols`.
#[inline(always)]
unsafe fn product_body<O: DotOps>(
    o: O,
    m: &[f32],
    rows: usize,
    cols: usize,
    xs: &[f32],
    lanes: usize,
    mut put: impl FnMut(usize, &[f32]),
) {
    let row = |r: usize| &m[r * cols..(r + 1) * cols];
    let x = |l: usize| &xs[l * cols..(l + 1) * cols];
    let row_blocks = rows - rows % TILE;
    let lane_quads = lanes - lanes % TILE;
    // SAFETY (all calls below): forwarded caller contract.
    unsafe {
        for r0 in (0..row_blocks).step_by(TILE) {
            let rs = [row(r0), row(r0 + 1), row(r0 + 2), row(r0 + 3)];
            for l0 in (0..lane_quads).step_by(TILE) {
                let tile = o.dot_tile(rs, [x(l0), x(l0 + 1), x(l0 + 2), x(l0 + 3)]);
                for (j, dots) in tile.iter().enumerate() {
                    put((l0 + j) * rows + r0, dots);
                }
            }
            for l in lane_quads..lanes {
                put(l * rows + r0, &o.dot_quad(x(l), rs[0], rs[1], rs[2], rs[3]));
            }
        }
        for r in row_blocks..rows {
            let row = row(r);
            for l0 in (0..lane_quads).step_by(TILE) {
                let quad = o.dot_quad(row, x(l0), x(l0 + 1), x(l0 + 2), x(l0 + 3));
                for (j, d) in quad.into_iter().enumerate() {
                    put((l0 + j) * rows + r, &[d]);
                }
            }
            let mut l = lane_quads;
            if l + 2 <= lanes {
                let [d0, d1] = o.dot2(x(l), x(l + 1), row);
                put(l * rows + r, &[d0]);
                put((l + 1) * rows + r, &[d1]);
                l += 2;
            }
            if l < lanes {
                put(l * rows + r, &[o.dot(row, x(l))]);
            }
        }
    }
}

/// Lane-striped `out[l*rows + r] = m[r]·xs[l]`, walked by
/// [`product_body`].
///
/// # Safety
///
/// CPU must support `O`'s features; `m.len() == rows * cols`,
/// `xs.len() == lanes * cols`, `out.len() == lanes * rows`.
#[inline(always)]
pub(crate) unsafe fn matmul_body<O: DotOps>(
    o: O,
    m: &[f32],
    rows: usize,
    cols: usize,
    xs: &[f32],
    lanes: usize,
    out: &mut [f32],
) {
    // SAFETY: forwarded caller contract.
    unsafe {
        product_body(o, m, rows, cols, xs, lanes, |at, dots| {
            out[at..at + dots.len()].copy_from_slice(dots)
        })
    }
}

/// Lane-striped `out[l*rows + r] = base[l*rows + r] + m[r]·xs[l]` (the
/// hoisted recurrent half); scalar order `base + rec`.
///
/// # Safety
///
/// Same contract as [`matmul_body`], plus `base.len() == out.len()`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn matmul_add_body<O: DotOps>(
    o: O,
    m: &[f32],
    rows: usize,
    cols: usize,
    xs: &[f32],
    lanes: usize,
    base: &[f32],
    out: &mut [f32],
) {
    // SAFETY: forwarded caller contract.
    unsafe {
        product_body(o, m, rows, cols, xs, lanes, |at, dots| {
            let end = at + dots.len();
            for ((o, b), d) in out[at..end].iter_mut().zip(&base[at..end]).zip(dots) {
                *o = b + d;
            }
        })
    }
}

/// Lane-striped `out[l*rows + r] = wx[r]·xs[l] + wh[r]·hs[l]`: the
/// forward product written by one [`product_body`] walk, the recurrent
/// one added onto it by a second, which keeps the `fwd + rec` order of
/// `Gate::neuron_dot` and makes the fused gate the hoisted pair
/// ([`matmul_body`] then [`matmul_add_body`]) by construction.
///
/// # Safety
///
/// CPU must support `O`'s features; `wx.len() == rows * xc`,
/// `wh.len() == rows * hc`, `xs.len() == lanes * xc`,
/// `hs.len() == lanes * hc`, `out.len() == lanes * rows`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn dual_matmul_body<O: DotOps>(
    o: O,
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
    // SAFETY: forwarded caller contract.
    unsafe {
        matmul_body(o, wx, rows, xc, xs, lanes, out);
        product_body(o, wh, rows, hc, hs, lanes, |at, dots| {
            for (o, d) in out[at..at + dots.len()].iter_mut().zip(dots) {
                *o += d;
            }
        })
    }
}

/// `out[i] = activation(out[i])` in place — [`crate::activation`]'s
/// per-element functions themselves, inlined so each tier's wrapper
/// vectorises them with its own instruction set.  Correctly rounded
/// `*` `+` `/` `clamp` and no fused multiply-add, so every tier agrees
/// with [`Activation::apply`] bit for bit.
#[inline(always)]
pub(crate) fn activate_body(activation: Activation, out: &mut [f32]) {
    #[inline(always)]
    fn map(out: &mut [f32], f: impl Fn(f32) -> f32) {
        for v in out {
            *v = f(*v);
        }
    }
    // Matched outside the loop so each arm is one straight-line loop.
    match activation {
        Activation::Sigmoid => map(out, sigmoid),
        Activation::Tanh => map(out, tanh),
        Activation::Relu => map(out, relu),
        Activation::HardSigmoid => map(out, hard_sigmoid),
        Activation::Identity => {}
    }
}

/// The scalar tier: safe wrappers instantiating the shared bodies with
/// [`ScalarOps`] (no intrinsics, so no feature requirements).
pub(crate) mod scalar {
    use super::{
        activate_body, dual_matmul_body, matmul_add_body, matmul_body, Activation, DotOps,
        ScalarOps,
    };

    #[inline]
    pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: ScalarOps uses no intrinsics.
        unsafe { ScalarOps.dot(a, b) }
    }

    #[inline]
    pub(crate) fn matmul(
        m: &[f32],
        rows: usize,
        cols: usize,
        xs: &[f32],
        lanes: usize,
        out: &mut [f32],
    ) {
        // SAFETY: ScalarOps uses no intrinsics.
        unsafe { matmul_body(ScalarOps, m, rows, cols, xs, lanes, out) }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn matmul_add(
        m: &[f32],
        rows: usize,
        cols: usize,
        xs: &[f32],
        lanes: usize,
        base: &[f32],
        out: &mut [f32],
    ) {
        // SAFETY: ScalarOps uses no intrinsics.
        unsafe { matmul_add_body(ScalarOps, m, rows, cols, xs, lanes, base, out) }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dual_matmul(
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
        // SAFETY: ScalarOps uses no intrinsics.
        unsafe { dual_matmul_body(ScalarOps, wx, wh, rows, xc, hc, xs, hs, lanes, out) }
    }

    #[inline]
    pub(crate) fn activate(activation: Activation, out: &mut [f32]) {
        activate_body(activation, out)
    }
}
