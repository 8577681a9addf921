//! Runtime-selected SIMD kernel backend.
//!
//! Every hot kernel in [`crate::kernels`] exists in one scalar reference
//! implementation plus hand-written intrinsic variants (AVX2 and AVX-512
//! on x86-64, NEON on aarch64).  The variant actually executed is picked
//! **once per process** — at the first kernel call — from
//!
//! 1. the `NFM_KERNEL_BACKEND` environment variable, when set
//!    (`scalar` / `avx2` / `avx512` / `neon`, case-insensitive), or
//! 2. CPU feature detection (`is_x86_feature_detected!` /
//!    `is_aarch64_feature_detected!`), choosing the widest supported
//!    tier.
//!
//! Forcing a backend the host cannot run (or a name that does not parse)
//! **panics** at the first kernel call instead of silently falling back:
//! the override exists so CI can prove dispatch-tier bit-equivalence,
//! and a quiet fallback would fake that matrix.
//!
//! # Bit-identity contract
//!
//! Backend selection never changes results.  Every intrinsic variant
//! reproduces the scalar kernels' fixed reduction order (sixteen
//! lane-major accumulators, the pairwise [`crate::kernels`] reduce tree,
//! a sequential scalar tail) and their rounding — one fused
//! multiply-add per product, never a separate multiply and add — so
//! outputs, downstream memoization hit/miss sequences and reuse
//! statistics are byte-for-byte identical across tiers.  This is
//! enforced per kernel by `crates/tensor/tests/backend_kernels.rs` and
//! end-to-end by the CI `kernel-matrix` job.
//!
//! # The scalar tier's cost
//!
//! The scalar tier computes every product with `f32::mul_add`.  Built
//! without an FMA target feature (the default x86-64 target), that is a
//! call to libm's `fmaf` per element, not an instruction.  On a 2-vCPU
//! AVX-512 Xeon, under `NFM_KERNEL_BACKEND=scalar`, the scalar
//! `kernel/*` rungs of `crates/bench` run 24–34x slower than the
//! multiply-then-add body they replaced, the `quickstart` example takes
//! 0.14 s instead of 0.018 s, and the release tier-1 suite 12–13 s
//! instead of 6.8–6.9 s.  So a `kernel/*/scalar` vs tier ratio recorded
//! before fused multiply-add cannot be compared with one recorded
//! after.  The scalar tier is the portable reference and the CI
//! cross-check, not a fast path; every SIMD tier requires `fma` and
//! fuses in hardware.

use std::sync::OnceLock;

/// Environment variable that forces a specific [`KernelBackend`].
pub const BACKEND_ENV: &str = "NFM_KERNEL_BACKEND";

/// A kernel dispatch tier.
///
/// All variants exist on every target so names parse portably; only the
/// tiers [`KernelBackend::is_supported`] reports can actually execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The portable reference implementation (also the autovectorizer's
    /// input).  Always supported.
    Scalar,
    /// 256-bit x86 path (`avx` + `avx2` + `fma`).
    Avx2,
    /// 512-bit x86 path (`avx512f` + `avx512dq` + `avx512vl` + `fma`);
    /// the BNN popcount additionally uses `avx512vpopcntdq` where
    /// present.
    Avx512,
    /// 128-bit aarch64 path (`neon`).
    Neon,
}

impl KernelBackend {
    /// Every tier, in preference order (widest first).
    pub const ALL: [KernelBackend; 4] = [
        KernelBackend::Avx512,
        KernelBackend::Avx2,
        KernelBackend::Neon,
        KernelBackend::Scalar,
    ];

    /// The tier's canonical lowercase name (the `NFM_KERNEL_BACKEND`
    /// spelling).
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
            KernelBackend::Neon => "neon",
        }
    }

    /// Parses a backend name (case-insensitive, surrounding whitespace
    /// ignored).
    pub fn from_name(name: &str) -> Option<KernelBackend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "avx2" => Some(KernelBackend::Avx2),
            "avx512" => Some(KernelBackend::Avx512),
            "neon" => Some(KernelBackend::Neon),
            _ => None,
        }
    }

    /// Whether this tier can execute on the current host (compile-time
    /// architecture and runtime CPU features: exactly the tier's
    /// `#[target_feature]` list).
    pub fn is_supported(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            KernelBackend::Avx2 => {
                is_x86_feature_detected!("avx")
                    && is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("fma")
            }
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            KernelBackend::Avx512 => {
                is_x86_feature_detected!("avx")
                    && is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("fma")
                    && is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl")
            }
            #[cfg(target_arch = "aarch64")]
            KernelBackend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every tier the current host supports, widest first (always ends
    /// with [`KernelBackend::Scalar`]).
    pub fn supported() -> Vec<KernelBackend> {
        KernelBackend::ALL
            .into_iter()
            .filter(|b| b.is_supported())
            .collect()
    }

    /// The widest tier the current host supports.
    pub fn detect() -> KernelBackend {
        KernelBackend::ALL
            .into_iter()
            .find(|b| b.is_supported())
            .unwrap_or(KernelBackend::Scalar)
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

static ACTIVE: OnceLock<KernelBackend> = OnceLock::new();

/// The process-wide active backend: resolved once from
/// [`BACKEND_ENV`] / detection and then immutable, so every kernel call
/// in the process — and therefore every memoization decision derived
/// from kernel outputs — uses one tier.
///
/// # Panics
///
/// Panics (at the first call) when [`BACKEND_ENV`] names an unknown
/// backend or one the host cannot execute.  A forced backend that fell
/// back silently would fake the CI dispatch-equivalence matrix, so the
/// override fails loudly instead.
pub fn active() -> KernelBackend {
    *ACTIVE.get_or_init(|| match std::env::var(BACKEND_ENV) {
        Ok(value) if !value.trim().is_empty() => {
            let backend = KernelBackend::from_name(&value).unwrap_or_else(|| {
                panic!(
                    "{BACKEND_ENV}={value:?} does not name a kernel backend; \
                     valid names: scalar, avx2, avx512, neon"
                )
            });
            assert!(
                backend.is_supported(),
                "{BACKEND_ENV}={} but this host cannot run that tier; supported here: {}",
                backend.name(),
                KernelBackend::supported()
                    .iter()
                    .map(|b| b.name())
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            backend
        }
        _ => KernelBackend::detect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for backend in KernelBackend::ALL {
            assert_eq!(KernelBackend::from_name(backend.name()), Some(backend));
            assert_eq!(
                KernelBackend::from_name(&backend.name().to_uppercase()),
                Some(backend)
            );
        }
        assert_eq!(
            KernelBackend::from_name(" avx2 "),
            Some(KernelBackend::Avx2)
        );
        assert_eq!(KernelBackend::from_name("sse9"), None);
    }

    #[test]
    fn scalar_is_always_supported_and_listed_last() {
        assert!(KernelBackend::Scalar.is_supported());
        let supported = KernelBackend::supported();
        assert!(!supported.is_empty());
        assert_eq!(*supported.last().unwrap(), KernelBackend::Scalar);
    }

    #[test]
    fn detect_returns_a_supported_backend() {
        assert!(KernelBackend::detect().is_supported());
    }

    #[test]
    fn active_is_stable_and_supported() {
        let first = active();
        assert!(first.is_supported());
        assert_eq!(active(), first);
    }
}
