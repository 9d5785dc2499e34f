//! The pluggable operator backend: which kernel *family* the hot paths
//! run on.
//!
//! The paper's "std." vs "perf." builds differ only in kernel selection
//! (§6, Table 3/4); SELF and StableSpectralElements.jl generalize this
//! into a dispatched backend so families are swappable per shape and
//! per architecture. This module is that dispatch point for the whole
//! workspace:
//!
//! * [`Backend::Scalar`] — the paper-faithful scalar kernel menu and the
//!   unfused reference operators (the "std." build).
//! * [`Backend::Simd`] — explicit-SIMD `mxm` ([`crate::simd`]) plus the
//!   fused sum-factorized operators in `sem-ops` (the "perf." build).
//! * [`Backend::Auto`] — runtime feature detection picks SIMD when the
//!   host has a vector unit, scalar otherwise (the default).
//!
//! Selected by `TERASEM_BACKEND=scalar|simd|auto` (read once per
//! process, malformed values warned once via `sem_obs::warn`), by
//! `NsConfig::backend`, or scoped for benchmarks/tests with
//! [`with_backend`].
//!
//! **Switching backends never changes results.** Every kernel the
//! [`select_kernel`] table dispatches to accumulates over the reduction
//! index in the same ascending order (see `crate::simd` for the
//! argument), and the fused operators are bitwise-identical to the
//! reference path — so checkpoints, determinism suites and regression
//! baselines byte-compare clean across `TERASEM_BACKEND` values, exactly
//! as they do across `TERASEM_THREADS`.

use crate::mxm::MxmKernel;
use crate::simd::SimdIsa;
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Kernel-family selection for the operator hot paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Scalar kernel menu + unfused reference operators ("std.").
    Scalar,
    /// Explicit-SIMD mxm + fused operators ("perf."). Falls back to the
    /// bitwise-identical scalar path on hosts without a vector unit.
    Simd,
    /// Detect at runtime: `Simd` when the host has a vector unit.
    Auto,
}

impl Backend {
    /// Short display name (`scalar`, `simd`, `auto`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
            Backend::Auto => "auto",
        }
    }

    /// Parse a `TERASEM_BACKEND` token (case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" | "std" => Some(Backend::Scalar),
            "simd" | "perf" => Some(Backend::Simd),
            "auto" | "" => Some(Backend::Auto),
            _ => None,
        }
    }
}

thread_local! {
    static BACKEND_OVERRIDE: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// Process-wide backend: 0 = unset (read env), else Backend as u8 + 1.
static PROCESS_BACKEND: AtomicU8 = AtomicU8::new(0);

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 1,
        Backend::Simd => 2,
        Backend::Auto => 3,
    }
}

fn decode(v: u8) -> Option<Backend> {
    match v {
        1 => Some(Backend::Scalar),
        2 => Some(Backend::Simd),
        3 => Some(Backend::Auto),
        _ => None,
    }
}

fn env_backend() -> Backend {
    static ENV: OnceLock<Backend> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("TERASEM_BACKEND") {
        Ok(s) => Backend::parse(&s).unwrap_or_else(|| {
            sem_obs::warn::invalid_env(
                "TERASEM_BACKEND",
                &s,
                "want scalar|simd|auto; using auto (runtime feature detection)",
            );
            Backend::Auto
        }),
        Err(_) => Backend::Auto,
    })
}

/// The backend the next dispatched kernel will use: the innermost
/// [`with_backend`] override, else [`set_backend`]'s process-wide
/// choice, else `TERASEM_BACKEND`, else `Auto`.
pub fn current() -> Backend {
    if let Some(b) = BACKEND_OVERRIDE.with(|c| c.get()) {
        return b;
    }
    decode(PROCESS_BACKEND.load(Ordering::Relaxed)).unwrap_or_else(env_backend)
}

/// Install `b` as the process-wide backend (e.g. from
/// `NsConfig::backend`). Overrides `TERASEM_BACKEND`; scoped
/// [`with_backend`] overrides still win.
pub fn set_backend(b: Backend) {
    PROCESS_BACKEND.store(encode(b), Ordering::Relaxed);
}

/// Run `f` with the backend forced to `b` on the calling thread (the
/// `sem_comm::par` pool workers that run the other blocks of a parallel
/// loop still use the *process* backend, so scope overrides around whole
/// solver calls only when the loop runs serially, or use [`set_backend`]
/// for parallel sections — results are identical either way, only speed
/// differs).
pub fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BACKEND_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = BACKEND_OVERRIDE.with(|c| c.replace(Some(b)));
    let _restore = Restore(prev);
    f()
}

/// The vector ISA runtime feature detection found on this host,
/// independent of the backend knob.
pub fn detected_isa() -> SimdIsa {
    static DETECTED: OnceLock<SimdIsa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdIsa::Avx2;
            }
            if std::arch::is_x86_feature_detected!("sse2") {
                return SimdIsa::Sse2;
            }
            SimdIsa::None
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return SimdIsa::Neon;
            }
            SimdIsa::None
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            SimdIsa::None
        }
    })
}

/// The ISA the SIMD kernels will actually run on right now: the
/// detected ISA, unless the active backend is `Scalar` (which forces
/// the bitwise-identical fallback).
pub fn active_isa() -> SimdIsa {
    match current() {
        Backend::Scalar => SimdIsa::None,
        Backend::Simd | Backend::Auto => detected_isa(),
    }
}

/// Whether the fused sum-factorized operators should run (`Simd`/`Auto`
/// backends). The fused path is bitwise-identical to the reference path;
/// this knob exists so the "std." configuration stays measurable.
pub fn fused_operators() -> bool {
    current() != Backend::Scalar
}

/// One-line description of the backend state for reports and snapshots,
/// e.g. `auto(avx2)`.
pub fn describe() -> String {
    format!("{}({})", current().name(), active_isa().name())
}

// ---------------------------------------------------------------------
// Auto-tuned per-shape kernel selection (the paper's "perf." dispatch).
//
// Regenerate with `table3_mxm --emit-table`: it benches the whole menu
// on the Table 3 shape family and prints these match arms from
// measurement. Last regenerated on an AVX2 x86_64 host (see
// results/BENCH_mxm.json for the numbers behind it).
//
// Only order-preserving kernels (ascending-i dot accumulation: naive,
// blocked, f2, f3, simd) appear here, so Auto's results are bitwise
// independent of the backend; unroll4 reorders the reduction and is
// reachable only by explicit request.
// ---------------------------------------------------------------------

/// Per-shape kernel choice for the scalar backend ("std." menu).
fn select_scalar(n1: usize, n2: usize, n3: usize) -> MxmKernel {
    if n1 <= 4 && n3 <= 4 {
        // Tiny C, e.g. the coarse-grid shape (2,14,2): f2 measured
        // 2137 MFLOPS vs 1483 for f3.
        MxmKernel::F2
    } else if n2 <= 20 {
        // Every remaining Table 3 shape: f3 won, 5.7–11.6 GFLOPS
        // (e.g. (16,16,256) 11577, (14,2,14) 5703).
        MxmKernel::F3
    } else {
        // Long inner dimension beyond the unrolled dots' sweet spot.
        MxmKernel::Blocked
    }
}

/// Per-shape kernel choice when a vector unit is active.
fn select_simd(_n1: usize, _n2: usize, _n3: usize) -> MxmKernel {
    // Measured winner on every Table 3 shape, including the tiny
    // coarse shape (2,14,2): 3.0–18.6 GFLOPS, 1.3–2.5× the best
    // scalar kernel per shape.
    MxmKernel::Simd
}

/// The per-shape dispatch consumed by [`MxmKernel::Auto`]: pick the
/// measured winner for this shape on the active backend. Never returns
/// `Auto`.
pub fn select_kernel(n1: usize, n2: usize, n3: usize) -> MxmKernel {
    let k = if active_isa() == SimdIsa::None {
        select_scalar(n1, n2, n3)
    } else {
        select_simd(n1, n2, n3)
    };
    debug_assert!(k != MxmKernel::Auto);
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_tokens() {
        assert_eq!(Backend::parse("scalar"), Some(Backend::Scalar));
        assert_eq!(Backend::parse("SIMD"), Some(Backend::Simd));
        assert_eq!(Backend::parse(" auto "), Some(Backend::Auto));
        assert_eq!(Backend::parse("std"), Some(Backend::Scalar));
        assert_eq!(Backend::parse("perf"), Some(Backend::Simd));
        assert_eq!(Backend::parse("gpu"), None);
        assert_eq!(Backend::parse("1"), None);
    }

    #[test]
    fn with_backend_scopes_and_restores() {
        let outer = current();
        with_backend(Backend::Scalar, || {
            assert_eq!(current(), Backend::Scalar);
            assert_eq!(active_isa(), SimdIsa::None);
            assert!(!fused_operators());
            with_backend(Backend::Simd, || {
                assert_eq!(current(), Backend::Simd);
                assert!(fused_operators());
            });
            assert_eq!(current(), Backend::Scalar);
        });
        assert_eq!(current(), outer);
    }

    #[test]
    fn select_kernel_never_returns_auto_or_reordering_kernels() {
        for b in [Backend::Scalar, Backend::Simd, Backend::Auto] {
            with_backend(b, || {
                for &(n1, n2, n3) in &[
                    (14usize, 2usize, 14usize),
                    (2, 14, 2),
                    (16, 14, 16),
                    (16, 14, 196),
                    (256, 14, 16),
                    (16, 16, 16),
                    (16, 16, 256),
                    (196, 16, 14),
                    (1, 1, 1),
                    (7, 21, 9),
                    (9, 30, 81),
                ] {
                    let k = select_kernel(n1, n2, n3);
                    assert!(k != MxmKernel::Auto, "{b:?} ({n1},{n2},{n3})");
                    assert!(
                        k != MxmKernel::Unroll4,
                        "Auto must stay order-preserving: {b:?} ({n1},{n2},{n3})"
                    );
                }
            });
        }
    }

    #[test]
    fn describe_names_backend_and_isa() {
        with_backend(Backend::Scalar, || {
            assert_eq!(describe(), "scalar(scalar)");
        });
    }
}
