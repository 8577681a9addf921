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
//! 1. sixteen lane-major accumulators over `chunks_exact(16)`, each
//!    step one fused multiply-add (`acc[l] = a[16c + l].mul_add(b[16c +
//!    l], acc[l])`: the product is never rounded on its own, so every
//!    `acc += a·b` rounds once),
//! 2. the fixed pairwise tree [`reduce`]: first a half fold
//!    (`s[i] = acc[i] + acc[i + 8]`), then the 8-wide pairwise tree over
//!    `s`,
//! 3. plus [`tail_dot`], the sequential fused tail over the `len % 16`
//!    remainder — one copy, which every tier calls.
//!
//! Sixteen lanes let the AVX-512 tier hold one full accumulator chain in
//! a single `zmm` register (the half fold is exactly its 256-bit
//! extract-and-add), AVX2 maps the chain onto two `ymm` registers whose
//! final `vaddps` *is* the half fold, and NEON spreads it over four
//! 128-bit registers.
//!
//! Every [`DotOps`] implementation must reproduce this bit-for-bit; the
//! multi-output ops (`dot2`, `dot_quad`, `dot_tile`) must make each
//! output equal to the corresponding single [`DotOps::dot`].  A fused
//! multiply-add is commutative in its two factors, so implementations
//! may swap operand roles within a lane, but never the rounding (one per
//! multiply-add, never a separate multiply and add) or the order in
//! which a lane's partial sums combine.
//!
//! Without an FMA target feature, `f32::mul_add` is a call to libm's
//! `fmaf`, so the scalar tier's kernels run about 30x slower than a
//! multiply and an add would (its cost is stated in
//! [`crate::backend`]); it is the reference, and every SIMD tier
//! requires `fma`.
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
//! give every weight row), and a chain's multiply-add has a 4-cycle
//! latency, so two chains finish a chunk-dot every other cycle at best.
//! `dot2` (what `matmul` and `matmul_add` paired lanes through)
//! therefore ran at 0.65 ns a chunk-dot in its best rounds, bound by
//! latency and by loads.  With a separate `vmulps` and `vaddps` per
//! chunk-dot the tile ran at 0.37 ns, the multiply-then-add ceiling
//! itself (2 FP ops / 5.4 per ns).  One `vfmadd` halves that ceiling to
//! 0.19 ns, which is why every tier fuses: the `W_x` hoist over the
//! DeepSpeech2 gate (`kernel/hoist_matmul_64l_ds2`) now runs at
//! 0.28–0.33 ns a chunk-dot, 1.5x the multiply-then-add tile in
//! interleaved rounds and no longer at its arithmetic ceiling.

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

/// The canonical sequential tail over the `len % 16` remainder: one
/// fused multiply-add per element, in index order.  Every tier's dot
/// adds this one copy after its reduce tree, so the tail's rounding
/// rule lives here alone.  A loop, not an iterator fold: it inlines
/// into each tier's `#[target_feature]` wrapper, where `mul_add` is the
/// tier's own scalar FMA instruction.
#[inline(always)]
pub(crate) fn tail_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut tail = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        tail = x.mul_add(*y, tail);
    }
    tail
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
    /// `dot(r, [a, b, c, d][i])`.  The default is those four dots; a
    /// SIMD tier overrides it to load each `row` chunk once.
    ///
    /// # Safety
    ///
    /// Same contract as [`DotOps::dot`] for every operand.
    #[inline(always)]
    unsafe fn dot_quad(
        self,
        row: &[f32],
        x0: &[f32],
        x1: &[f32],
        x2: &[f32],
        x3: &[f32],
    ) -> [f32; 4] {
        // SAFETY: forwarded caller contract.
        unsafe {
            [
                self.dot(row, x0),
                self.dot(row, x1),
                self.dot(row, x2),
                self.dot(row, x3),
            ]
        }
    }

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

/// The portable reference implementation.  It overrides only
/// [`DotOps::dot`]: without an FMA target feature every product is a
/// libm `fmaf` call, and that call, not operand loads, is its cost.
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
                acc[l] = pa[l].mul_add(pb[l], acc[l]);
            }
        }
        reduce(acc) + tail_dot(ca.remainder(), cb.remainder())
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
