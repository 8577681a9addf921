//! Dispatch-tier bit-equivalence: every kernel of every backend the
//! host supports must reproduce the scalar reference **byte for byte**,
//! across every remainder shape — odd rows, odd cols, odd lanes, the
//! 4×4 register-tile remainders and dot lengths straddling the 16-wide
//! chunk boundary.
//!
//! This suite is what makes `NFM_KERNEL_BACKEND` a pure performance
//! knob: memo hit/miss sequences, reuse statistics and outputs are all
//! derived from these kernels, so kernel-level bit-identity implies
//! end-to-end bit-identity (the CI `kernel-matrix` job additionally
//! re-runs the whole workspace under each tier).

use nfm_tensor::backend::KernelBackend;
use nfm_tensor::kernels::{
    dot_unchecked_on, dual_matmul_into_on, matmul_add_into_on, matmul_into_on,
};
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Matrix;
use std::hint::black_box;

/// Dot lengths pinning every remainder shape of the 16-lane canonical
/// order: the all-tail cases (`0..16`), *every* tail length `1..=15`
/// after one full chunk (`17..32`), the one- and two-chunk straddles
/// (`15..=17`, `31..=33`), a third-chunk straddle (`47..=49`), a wider
/// straddle (`63..=65`) and two long lengths.
fn dot_lens() -> Vec<usize> {
    (0..=33).chain([47, 48, 49, 63, 64, 65, 129, 257]).collect()
}

/// Row/lane counts straddling the 4×4 tile edges.
const EDGE_COUNTS: [usize; 9] = [1, 2, 3, 4, 5, 7, 8, 9, 13];

fn simd_backends() -> Vec<KernelBackend> {
    KernelBackend::supported()
        .into_iter()
        .filter(|b| *b != KernelBackend::Scalar)
        .collect()
}

fn vecf(rng: &mut DeterministicRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect()
}

fn random_matrix(rng: &mut DeterministicRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
}

fn assert_bits_eq(actual: &[f32], expected: &[f32], context: &str) {
    assert_eq!(actual.len(), expected.len(), "{context}: length");
    for (i, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            e.to_bits(),
            "{context}: element {i} ({a} vs {e})"
        );
    }
}

#[test]
fn reports_exercised_backends() {
    // Not an assertion — a breadcrumb in test logs so a CI run shows
    // which tiers this host actually covered.
    println!(
        "supported kernel backends: {:?}",
        KernelBackend::supported()
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
    );
}

#[test]
fn dot_matches_scalar_on_every_backend_and_length() {
    let mut rng = DeterministicRng::seed_from_u64(101);
    for len in dot_lens() {
        let a = vecf(&mut rng, len);
        let b = vecf(&mut rng, len);
        let reference = dot_unchecked_on(KernelBackend::Scalar, &a, &b);
        for backend in simd_backends() {
            assert_eq!(
                dot_unchecked_on(backend, &a, &b).to_bits(),
                reference.to_bits(),
                "dot len {len} backend {backend}"
            );
        }
    }
}

#[test]
fn matvec_matches_scalar_on_odd_rows_and_cols() {
    let mut rng = DeterministicRng::seed_from_u64(103);
    for rows in EDGE_COUNTS {
        for cols in [1usize, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47] {
            let m = random_matrix(&mut rng, rows, cols);
            let x = vecf(&mut rng, cols);
            let mut reference = vec![0.0f32; rows];
            matmul_into_on(KernelBackend::Scalar, &m, &x, 1, &mut reference).unwrap();
            for backend in simd_backends() {
                let mut out = vec![f32::NAN; rows];
                matmul_into_on(backend, &m, &x, 1, &mut out).unwrap();
                assert_bits_eq(&out, &reference, &format!("matvec {rows}x{cols} {backend}"));
            }
        }
    }
}

#[test]
fn dual_matvec_matches_scalar_on_odd_shapes() {
    let mut rng = DeterministicRng::seed_from_u64(104);
    for rows in EDGE_COUNTS {
        for (xc, hc) in [
            (1usize, 1usize),
            (7, 9),
            (8, 8),
            (9, 7),
            (15, 17),
            (16, 16),
            (17, 5),
            (24, 16),
            (31, 33),
            (33, 31),
        ] {
            let wx = random_matrix(&mut rng, rows, xc);
            let wh = random_matrix(&mut rng, rows, hc);
            let x = vecf(&mut rng, xc);
            let h = vecf(&mut rng, hc);
            let mut reference = vec![0.0f32; rows];
            dual_matmul_into_on(KernelBackend::Scalar, &wx, &wh, &x, &h, 1, &mut reference)
                .unwrap();
            for backend in simd_backends() {
                let mut out = vec![f32::NAN; rows];
                dual_matmul_into_on(backend, &wx, &wh, &x, &h, 1, &mut out).unwrap();
                assert_bits_eq(
                    &out,
                    &reference,
                    &format!("dual_matvec rows {rows} xc {xc} hc {hc} {backend}"),
                );
            }
        }
    }
}

#[test]
fn matmul_matches_scalar_on_odd_lanes() {
    let mut rng = DeterministicRng::seed_from_u64(105);
    for rows in [1usize, 3, 5, 8] {
        for lanes in EDGE_COUNTS {
            for cols in [1usize, 7, 9, 15, 16, 17, 31, 33] {
                let m = random_matrix(&mut rng, rows, cols);
                let xs = vecf(&mut rng, lanes * cols);
                let mut reference = vec![0.0f32; lanes * rows];
                matmul_into_on(KernelBackend::Scalar, &m, &xs, lanes, &mut reference).unwrap();
                for backend in simd_backends() {
                    let mut out = vec![f32::NAN; lanes * rows];
                    matmul_into_on(backend, &m, &xs, lanes, &mut out).unwrap();
                    assert_bits_eq(
                        &out,
                        &reference,
                        &format!("matmul {rows}x{cols} lanes {lanes} {backend}"),
                    );
                }
            }
        }
    }
}

#[test]
fn matmul_add_matches_scalar_on_odd_lanes() {
    let mut rng = DeterministicRng::seed_from_u64(106);
    for rows in [2usize, 5, 8] {
        for lanes in EDGE_COUNTS {
            for cols in [9usize, 17, 31] {
                let m = random_matrix(&mut rng, rows, cols);
                let xs = vecf(&mut rng, lanes * cols);
                let base = vecf(&mut rng, lanes * rows);
                let mut reference = vec![0.0f32; lanes * rows];
                matmul_add_into_on(KernelBackend::Scalar, &m, &xs, lanes, &base, &mut reference)
                    .unwrap();
                for backend in simd_backends() {
                    let mut out = vec![f32::NAN; lanes * rows];
                    matmul_add_into_on(backend, &m, &xs, lanes, &base, &mut out).unwrap();
                    assert_bits_eq(
                        &out,
                        &reference,
                        &format!("matmul_add {rows}x{cols} lanes {lanes} {backend}"),
                    );
                }
            }
        }
    }
}

#[test]
fn dual_matmul_matches_scalar_across_tile_remainders() {
    // The 4×4 register tiles: every (rows % 4, lanes % 4) combination,
    // with quad-dot widths that are all-tail (11), a one-chunk straddle
    // (17), an exact two-chunk multiple (32) and a three-chunk straddle
    // (47), so the register-tiled path runs every remainder shape of
    // the 16-lane order too.
    let mut rng = DeterministicRng::seed_from_u64(107);
    for rows in EDGE_COUNTS {
        for lanes in EDGE_COUNTS {
            for xc in [11usize, 17, 32, 47] {
                let hc = rows.max(1);
                let wx = random_matrix(&mut rng, rows, xc);
                let wh = random_matrix(&mut rng, rows, hc);
                let xs = vecf(&mut rng, lanes * xc);
                let hs = vecf(&mut rng, lanes * hc);
                let mut reference = vec![0.0f32; lanes * rows];
                dual_matmul_into_on(
                    KernelBackend::Scalar,
                    &wx,
                    &wh,
                    &xs,
                    &hs,
                    lanes,
                    &mut reference,
                )
                .unwrap();
                for backend in simd_backends() {
                    let mut out = vec![f32::NAN; lanes * rows];
                    dual_matmul_into_on(backend, &wx, &wh, &xs, &hs, lanes, &mut out).unwrap();
                    assert_bits_eq(
                        &out,
                        &reference,
                        &format!("dual_matmul rows {rows} xc {xc} lanes {lanes} {backend}"),
                    );
                }
            }
        }
    }
}

/// The values the canonical order must carry through unchanged.  The
/// NaN is the one this hardware's own arithmetic produces, so every NaN
/// in flight has one bit pattern and `to_bits` equality is meaningful:
/// which of two *different* NaN payloads an add propagates depends on
/// operand order, which the contract leaves free (and Rust unspecified).
fn degenerates() -> [f32; 8] {
    [
        black_box(f32::INFINITY) - black_box(f32::INFINITY),
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -f32::MIN_POSITIVE / 2.0,
        f32::MAX,
        -f32::MAX,
    ]
}

/// Plants [`degenerates`] into every third `cols`-wide vector of `data`,
/// at the positions where the 16-lane order changes regime: the first
/// element, both sides of the first chunk boundary, the last chunk
/// element, the first tail element and the end.  Which value lands
/// where rotates with the vector, and two vectors in three stay clean,
/// so every tile mixes degenerate outputs with ordinary ones.
fn plant_degenerates(data: &mut [f32], cols: usize, salt: usize) {
    let values = degenerates();
    let body = cols / 16 * 16;
    let mut edges = vec![0, 15, 16, body.wrapping_sub(1), body, cols - 1];
    edges.retain(|&p| p < cols);
    edges.sort_unstable();
    edges.dedup();
    for (v, vector) in data.chunks_exact_mut(cols).enumerate() {
        if v % 3 != 1 {
            continue;
        }
        for (k, &p) in edges.iter().enumerate() {
            if (k + v / 3) % 2 == 0 {
                vector[p] = values[(v / 3 + k + salt) % values.len()];
            }
        }
    }
}

/// `reference[l * rows + r] = dot(m[r], xs[l])` on the scalar tier: what
/// every (row, lane) output of the batched kernels is specified to be.
fn scalar_dots(m: &Matrix, xs: &[f32], lanes: usize) -> Vec<f32> {
    let (rows, cols) = (m.rows(), m.cols());
    let mut reference = vec![0.0f32; lanes * rows];
    for l in 0..lanes {
        for r in 0..rows {
            reference[l * rows + r] = dot_unchecked_on(
                KernelBackend::Scalar,
                m.row(r),
                &xs[l * cols..(l + 1) * cols],
            );
        }
    }
    reference
}

#[test]
fn tiled_kernels_equal_the_scalar_dot_at_every_edge_on_every_tier() {
    // The three kernels that walk 4 × 4 register tiles, on every tier
    // (the scalar tier included: its walk is the same code), over the
    // full product of row counts, lane counts and widths around the
    // tile edge and the 16-wide chunk, up to the benchmark's 400 × 400
    // gate under a full 64-row hoist block.  Every output is compared
    // bit for bit with the scalar tier's single `dot`, composed in the
    // documented order (`base + dot`, `fwd + rec`).
    const ROWS: [usize; 7] = [1, 3, 4, 5, 8, 9, 400];
    const LANES: [usize; 8] = [1, 3, 4, 5, 8, 9, 61, 64];
    const COLS: [usize; 7] = [1, 15, 16, 17, 80, 161, 400];
    let mut rng = DeterministicRng::seed_from_u64(110);
    for rows in ROWS {
        for (c, &xc) in COLS.iter().enumerate() {
            // The recurrent half gets another width of the same list.
            let hc = COLS[(c + 3) % COLS.len()];
            let mut wx = vecf(&mut rng, rows * xc);
            let mut wh = vecf(&mut rng, rows * hc);
            plant_degenerates(&mut wx, xc, 0);
            plant_degenerates(&mut wh, hc, 3);
            let wx = Matrix::from_flat(rows, xc, wx).unwrap();
            let wh = Matrix::from_flat(rows, hc, wh).unwrap();
            for lanes in LANES {
                let mut xs = vecf(&mut rng, lanes * xc);
                let mut hs = vecf(&mut rng, lanes * hc);
                plant_degenerates(&mut xs, xc, 5);
                plant_degenerates(&mut hs, hc, 6);
                let base = vecf(&mut rng, lanes * rows);
                let fwd = scalar_dots(&wx, &xs, lanes);
                let rec = scalar_dots(&wh, &hs, lanes);
                let added: Vec<f32> = base.iter().zip(&rec).map(|(b, d)| b + d).collect();
                let fused: Vec<f32> = fwd.iter().zip(&rec).map(|(f, r)| f + r).collect();
                for backend in KernelBackend::supported() {
                    let tag = format!("rows {rows} lanes {lanes} xc {xc} hc {hc} {backend}");
                    let mut out = vec![f32::NAN; lanes * rows];
                    matmul_into_on(backend, &wx, &xs, lanes, &mut out).unwrap();
                    assert_bits_eq(&out, &fwd, &format!("matmul {tag}"));
                    out.fill(f32::NAN);
                    matmul_add_into_on(backend, &wh, &hs, lanes, &base, &mut out).unwrap();
                    assert_bits_eq(&out, &added, &format!("matmul_add {tag}"));
                    out.fill(f32::NAN);
                    dual_matmul_into_on(backend, &wx, &wh, &xs, &hs, lanes, &mut out).unwrap();
                    assert_bits_eq(&out, &fused, &format!("dual_matmul {tag}"));
                }
            }
        }
    }
}

/// `dot_unchecked` checks its operand lengths once per call on every
/// tier: the SIMD bodies walk `b` through raw pointers for `a.len()`
/// elements, so a shorter `b` must never reach them.  One test per
/// tier; a tier this host lacks falls back to the scalar one so the
/// test still states the contract.
macro_rules! mismatched_dot_panics {
    ($($name:ident: $tier:expr,)*) => {$(
        #[test]
        #[should_panic(expected = "operand lengths differ")]
        fn $name() {
            let tier = if $tier.is_supported() { $tier } else { KernelBackend::Scalar };
            let a = vec![1.0f32; 40];
            let _ = dot_unchecked_on(tier, &a, &a[..24]);
        }
    )*};
}

mismatched_dot_panics! {
    dot_rejects_mismatched_lengths_on_scalar: KernelBackend::Scalar,
    dot_rejects_mismatched_lengths_on_avx2: KernelBackend::Avx2,
    dot_rejects_mismatched_lengths_on_avx512: KernelBackend::Avx512,
    dot_rejects_mismatched_lengths_on_neon: KernelBackend::Neon,
}

#[test]
fn default_entry_points_agree_with_the_active_backend() {
    // The dispatching entry points must be exactly the active tier —
    // no hidden fallback.
    let mut rng = DeterministicRng::seed_from_u64(109);
    let active = nfm_tensor::backend::active();
    let a = vecf(&mut rng, 100);
    let b = vecf(&mut rng, 100);
    assert_eq!(
        nfm_tensor::kernels::dot_unchecked(&a, &b).to_bits(),
        dot_unchecked_on(active, &a, &b).to_bits()
    );
}
