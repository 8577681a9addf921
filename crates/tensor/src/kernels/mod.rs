//! Fused, allocation-free inference kernels with runtime SIMD dispatch.
//!
//! These are the hot loops of the whole reproduction: every recurrent
//! gate evaluation reduces to two dense lane-striped products over the
//! gate's weight rows, followed by one elementwise activation over the
//! gate's outputs.  There are four operations, each with exactly
//! one dispatched entry point (runs on [`crate::backend::active`] — CPU
//! feature detection with an `NFM_KERNEL_BACKEND` override, see
//! [`crate::backend`]) and one `_on` test hook that runs an explicit
//! [`KernelBackend`] so a single process can cross-check every tier the
//! host supports:
//!
//! | operation | dispatched | explicit tier |
//! |---|---|---|
//! | `a·b` | [`dot_unchecked`] | [`dot_unchecked_on`] |
//! | `out[l] = M xs[l]` | [`matmul_into`] | [`matmul_into_on`] |
//! | `out[l] = base[l] + M xs[l]` | [`matmul_add_into`] | [`matmul_add_into_on`] |
//! | `out[i] = act(out[i])` | [`activate_into`] | [`activate_into_on`] |
//!
//! A single vector is a product at `lanes = 1`: `out = M x` is
//! [`matmul_into`] over one lane.
//!
//! The dual family, `out[l] = Wx xs[l] + Wh hs[l]` ([`dual_matmul_into`],
//! [`dual_matmul_into_on`] and its one-lane form [`dual_matvec_into`]),
//! has no tier of its own: it is the two kernels a cell runs, the hoist
//! ([`matmul_into`]) into a temporary buffer it allocates and the
//! recurrent tile ([`matmul_add_into`]) added onto it.  It is off the
//! inference path, which hoists into reused buffers instead.
//!
//! Both columns of a row share one private body that takes the tier, so
//! they validate and dispatch identically; the `_on` form only adds the
//! host-support assertion.
//! Every operation
//!
//! * writes into a caller-owned buffer (the steady-state inference path
//!   performs no allocation; `tests/zero_alloc.rs` steps cells under a
//!   counting allocator) and checks dimensions once per call, not
//!   once per row or element,
//! * exists in one scalar reference implementation plus hand-written
//!   intrinsic tiers (AVX2 / AVX-512 / NEON) — [`activate_into`] is one
//!   plain-arithmetic body the compiler vectorises once per tier,
//! * runs the *same fixed reduction order* and the *same rounding* on
//!   every tier ([`dot_unchecked`]'s sixteen lane-major accumulators, the
//!   pairwise reduce tree, one sequential tail, and one fused
//!   multiply-add — a single rounding — per product), so the batched
//!   gate path, the per-neuron fallback and every dispatch tier produce
//!   bit-identical results (`crates/tensor/tests/backend_kernels.rs`
//!   pins each tier to the scalar reference byte for byte, and
//!   `tests/kernel_backend_equivalence.rs` holds a known answer that only
//!   a single rounding produces).
//!
//! # Threads
//!
//! A kernel runs on the thread that calls it, with one exception: on a
//! thread that holds a [`team::KernelTeam`], [`matmul_into`] and
//! [`matmul_add_into`] (and their `_on` forms) of at least
//! [`team::SPLIT_MIN_WORK`] multiply-adds hand each team thread one
//! contiguous range of whole 4-row blocks, written in place into the
//! lane-striped output.  Each range is the same walk over fewer rows, so
//! every `(row, lane)` dot keeps its operands, form and reduction order
//! and the output is bit-identical to the serial call.  The serving
//! engine gives every worker a team of `max(1, CPUs in its affinity
//! mask / workers)` threads: `workers` worker threads times that many
//! kernel threads in all.  Every other thread (offline runs, benches,
//! tests) has no team, so every kernel runs serially there.

pub(crate) mod body;
#[cfg(target_arch = "aarch64")]
mod neon;
pub mod team;
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86;

use crate::activation::Activation;
use crate::backend::{self, KernelBackend};
use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::Result;

use body::{scalar, Stripes};

/// Routes one kernel call to the given tier's implementation.  The
/// caller guarantees the tier is supported on this host (`active()`
/// validates at init; the `*_on` entry points assert explicitly) and,
/// for the row-range products, that no two threads write the same rows
/// ([`team::split_rows`] hands each range to one thread).
macro_rules! dispatch {
    ($backend:expr, $name:ident($($arg:expr),* $(,)?)) => {
        // SAFETY: the caller's guarantees above.
        unsafe {
            match $backend {
                KernelBackend::Scalar => scalar::$name($($arg),*),
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                KernelBackend::Avx2 => x86::avx2::$name($($arg),*),
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                KernelBackend::Avx512 => x86::avx512::$name($($arg),*),
                #[cfg(target_arch = "aarch64")]
                KernelBackend::Neon => neon::$name($($arg),*),
                #[allow(unreachable_patterns)]
                other => unreachable!("kernel backend {other} is not compiled for this target"),
            }
        }
    };
}

// One private body per operation.  Each takes the tier, which the
// caller guarantees is supported on this host: the dispatched entry
// passes `backend::active()` (validated at init), the `_on` hook
// asserts first.

#[inline]
fn dot_tier(backend: KernelBackend, a: &[f32], b: &[f32]) -> f32 {
    // The SIMD bodies walk `b` through raw pointers for `a.len()`
    // elements: this check is what keeps the safe entry points in
    // bounds.
    assert_eq!(a.len(), b.len(), "dot_unchecked: operand lengths differ");
    dispatch!(backend, dot(a, b))
}

fn matmul_tier(
    backend: KernelBackend,
    m: &Matrix,
    xs: &[f32],
    lanes: usize,
    out: &mut [f32],
) -> Result<()> {
    if xs.len() != lanes * m.cols() {
        return Err(TensorError::ShapeMismatch {
            rows: m.rows(),
            cols: m.cols(),
            vec_len: xs.len(),
            op: "matmul_into",
        });
    }
    if out.len() != lanes * m.rows() {
        return Err(TensorError::LengthMismatch {
            left: out.len(),
            right: lanes * m.rows(),
            op: "matmul_into",
        });
    }
    let (rows, cols, out) = (m.rows(), m.cols(), Stripes::new(out));
    team::split_rows(rows, rows * cols * lanes, &|span| {
        dispatch!(
            backend,
            matmul(m.as_slice(), rows, cols, span, xs, lanes, out)
        )
    });
    Ok(())
}

fn dual_matmul_tier(
    backend: KernelBackend,
    wx: &Matrix,
    wh: &Matrix,
    xs: &[f32],
    hs: &[f32],
    lanes: usize,
    out: &mut [f32],
) -> Result<()> {
    if xs.len() != lanes * wx.cols() {
        return Err(TensorError::ShapeMismatch {
            rows: wx.rows(),
            cols: wx.cols(),
            vec_len: xs.len(),
            op: "dual_matmul_into(xs)",
        });
    }
    if hs.len() != lanes * wh.cols() {
        return Err(TensorError::ShapeMismatch {
            rows: wh.rows(),
            cols: wh.cols(),
            vec_len: hs.len(),
            op: "dual_matmul_into(hs)",
        });
    }
    if wx.rows() != wh.rows() || out.len() != lanes * wx.rows() {
        return Err(TensorError::LengthMismatch {
            left: out.len(),
            right: lanes * wx.rows(),
            op: "dual_matmul_into(out)",
        });
    }
    // The hoist into a temporary, then the recurrent tile onto it.
    let mut fwd = vec![0.0; out.len()];
    matmul_tier(backend, wx, xs, lanes, &mut fwd)?;
    matmul_add_tier(backend, wh, hs, lanes, &fwd, out)
}

fn matmul_add_tier(
    backend: KernelBackend,
    m: &Matrix,
    xs: &[f32],
    lanes: usize,
    base: &[f32],
    out: &mut [f32],
) -> Result<()> {
    if xs.len() != lanes * m.cols() {
        return Err(TensorError::ShapeMismatch {
            rows: m.rows(),
            cols: m.cols(),
            vec_len: xs.len(),
            op: "matmul_add_into",
        });
    }
    if out.len() != lanes * m.rows() || base.len() != out.len() {
        return Err(TensorError::LengthMismatch {
            left: base.len().min(out.len()),
            right: lanes * m.rows(),
            op: "matmul_add_into(out)",
        });
    }
    let (rows, cols, out) = (m.rows(), m.cols(), Stripes::new(out));
    team::split_rows(rows, rows * cols * lanes, &|span| {
        dispatch!(
            backend,
            matmul_add(m.as_slice(), rows, cols, span, xs, lanes, base, out)
        )
    });
    Ok(())
}

#[inline]
fn activate_tier(backend: KernelBackend, activation: Activation, out: &mut [f32]) {
    dispatch!(backend, activate(activation, out))
}

/// Dot product with a fixed unrolled reduction order and no `Result`.
///
/// Both slices must have the same length, which is checked once per
/// call, not per element: "unchecked" is the error path a caller that
/// has validated its gate's dimensions does not have to thread, not a
/// licence to read out of bounds.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot_unchecked(a: &[f32], b: &[f32]) -> f32 {
    dot_tier(backend::active(), a, b)
}

/// [`dot_unchecked`] on an explicit dispatch tier (tests / benches).
///
/// # Panics
///
/// Panics if `backend` is not supported on this host, or if the lengths
/// differ.
#[inline]
pub fn dot_unchecked_on(backend: KernelBackend, a: &[f32], b: &[f32]) -> f32 {
    backend.assert_supported();
    dot_tier(backend, a, b)
}

/// Dual matrix-vector product into a caller-owned buffer:
/// `out[n] = wx[n]·x + wh[n]·h` — the pre-activation dot product of every
/// neuron of a recurrent gate, without bias.
///
/// This is the quantity the paper's fuzzy memoization scheme decides to
/// compute or reuse.  It is [`dual_matmul_into`] at one lane: the scalar
/// order is `fwd + rec`, the hoisted pair's, on every dispatch tier.
///
/// # Errors
///
/// Returns a shape/length error if the operand widths are inconsistent.
pub fn dual_matvec_into(
    wx: &Matrix,
    wh: &Matrix,
    x: &[f32],
    h: &[f32],
    out: &mut [f32],
) -> Result<()> {
    dual_matmul_tier(backend::active(), wx, wh, x, h, 1, out)
}

/// Lane-striped matrix-matrix product into a caller-owned buffer:
/// `out[l*rows + r] = m[r]·xs[l]` for `l in 0..lanes`.
///
/// `xs` holds `lanes` input vectors back to back (`lanes * m.cols()`
/// values, lane-striped), `out` holds `lanes` output vectors back to
/// back (`lanes * m.rows()`).  Blocks of four weight rows are *outer*
/// and lane quads *inner*, so every weight row is streamed from memory
/// exactly once and then reused for all lanes, a 4 rows × 4 lanes
/// register tile at a time (sixteen accumulator chains over eight
/// operand loads on the AVX-512 tier) — this is what turns the
/// memory-bound per-sequence matvec into a compute-dense kernel under
/// batch>1 serving.  Each `(row, lane)` product runs [`dot_unchecked`]'s
/// reduction order, so lane `l` of a batch is bit-identical to the same
/// vector run alone (`lanes = 1`), whatever the lane count.
///
/// # Errors
///
/// Returns a shape/length error if `xs.len() != lanes * m.cols()` or
/// `out.len() != lanes * m.rows()`.
pub fn matmul_into(m: &Matrix, xs: &[f32], lanes: usize, out: &mut [f32]) -> Result<()> {
    matmul_tier(backend::active(), m, xs, lanes, out)
}

/// [`matmul_into`] on an explicit dispatch tier.
///
/// # Errors
///
/// Same as [`matmul_into`].
///
/// # Panics
///
/// Panics if `backend` is not supported on this host.
pub fn matmul_into_on(
    backend: KernelBackend,
    m: &Matrix,
    xs: &[f32],
    lanes: usize,
    out: &mut [f32],
) -> Result<()> {
    backend.assert_supported();
    matmul_tier(backend, m, xs, lanes, out)
}

/// Lane-striped dual matrix-matrix product:
/// `out[l*rows + r] = wx[r]·xs[l] + wh[r]·hs[l]`.
///
/// It is the hoisted pair a cell runs: [`matmul_into`] of the forward
/// half into a temporary it allocates, then [`matmul_add_into`] of the
/// recurrent half onto it.  The per-lane scalar order is `fwd + rec`
/// with [`dot_unchecked`]'s reduction for each half, so every lane is
/// bit-identical to that lane's vectors run alone (`lanes = 1`) on every
/// dispatch tier.
///
/// # Errors
///
/// Returns a shape/length error if the operand widths are inconsistent.
pub fn dual_matmul_into(
    wx: &Matrix,
    wh: &Matrix,
    xs: &[f32],
    hs: &[f32],
    lanes: usize,
    out: &mut [f32],
) -> Result<()> {
    dual_matmul_tier(backend::active(), wx, wh, xs, hs, lanes, out)
}

/// [`dual_matmul_into`] on an explicit dispatch tier.
///
/// # Errors
///
/// Same as [`dual_matmul_into`].
///
/// # Panics
///
/// Panics if `backend` is not supported on this host.
pub fn dual_matmul_into_on(
    backend: KernelBackend,
    wx: &Matrix,
    wh: &Matrix,
    xs: &[f32],
    hs: &[f32],
    lanes: usize,
    out: &mut [f32],
) -> Result<()> {
    backend.assert_supported();
    dual_matmul_tier(backend, wx, wh, xs, hs, lanes, out)
}

/// Lane-striped matrix-matrix product *added onto* a precomputed base:
/// `out[l*rows + r] = base[l*rows + r] + m[r]·xs[l]`.
///
/// This is the recurrent half of a sequence-hoisted gate evaluation: the
/// caller precomputes the input projections `W_x·x_t` for a block of
/// timesteps (one [`matmul_into`] streams `W_x` once for the whole
/// block), then per timestep only the recurrent `W_h·h_{t-1}` half is
/// evaluated here.  The scalar order is `base + rec`, identical to the
/// `fwd + rec` order of [`dual_matmul_into`], so hoisting is
/// bit-transparent.
///
/// # Errors
///
/// Returns a shape/length error if the operand widths are inconsistent.
pub fn matmul_add_into(
    m: &Matrix,
    xs: &[f32],
    lanes: usize,
    base: &[f32],
    out: &mut [f32],
) -> Result<()> {
    matmul_add_tier(backend::active(), m, xs, lanes, base, out)
}

/// [`matmul_add_into`] on an explicit dispatch tier.
///
/// # Errors
///
/// Same as [`matmul_add_into`].
///
/// # Panics
///
/// Panics if `backend` is not supported on this host.
pub fn matmul_add_into_on(
    backend: KernelBackend,
    m: &Matrix,
    xs: &[f32],
    lanes: usize,
    base: &[f32],
    out: &mut [f32],
) -> Result<()> {
    backend.assert_supported();
    matmul_add_tier(backend, m, xs, lanes, base, out)
}

/// Applies `activation` to every element of `out` in place:
/// `out[i] = activation.apply(out[i])`, bit for bit, on every dispatch
/// tier.  The last step of a gate evaluation (the whole lane-striped
/// `lanes × neurons` output in one call) and the LSTM's `ϕ(c_t)`.
#[inline]
pub fn activate_into(activation: Activation, out: &mut [f32]) {
    activate_tier(backend::active(), activation, out)
}

/// [`activate_into`] on an explicit dispatch tier.
///
/// # Panics
///
/// Panics if `backend` is not supported on this host.
#[inline]
pub fn activate_into_on(backend: KernelBackend, activation: Activation, out: &mut [f32]) {
    backend.assert_supported();
    activate_tier(backend, activation, out)
}
