//! The `mxm` matrix–matrix product kernel family.
//!
//! Matrix–matrix products account for over 90% of the flops in a spectral
//! element simulation (Tufo & Fischer §6). The shapes are small and fixed by
//! the polynomial order: with `N₁ = N+1` (velocity points per direction) and
//! `N₂ = N-1` (pressure points), the products are of form
//! `(n₁ × n₂) · (n₂ × n₃)` with `n₁, n₃ ∈ {N₁, N₁², N₂, N₂², 2}` and
//! `n₂ ∈ {N₁, N₂, 2}`.
//!
//! The paper's Table 3 benchmarks five kernels (`lkm`, `ghm`, `csm`, `f3`,
//! `f2`) and finds no single winner across shapes, motivating per-shape
//! kernel selection. We reproduce that menu:
//!
//! | paper | here        | strategy |
//! |-------|-------------|----------|
//! | `f2`  | [`mxm_f2`]  | inner (`n₂`) loop fully unrolled via const generics, `n₃` controls the outer loop |
//! | `f3`  | [`mxm_f3`]  | inner (`n₂`) loop fully unrolled, `n₁` controls the outer loop |
//! | `lkm` | [`mxm_naive`] | straightforward triple loop (the "standard library" baseline) |
//! | `csm` | [`mxm_unroll4`] | SAXPY (`i-k-j`) form with 4-way unrolling over `k` |
//! | `ghm` | [`mxm_blocked`] | register/cache blocked for small `n₂` |
//! |  —    | [`MxmKernel::Simd`] | explicit-SIMD column vectorization ([`crate::simd`]; AVX2/SSE2/NEON with a bitwise-identical scalar fallback) |
//!
//! All kernels compute `C = A · B` with row-major `A (n₁×n₂)`,
//! `B (n₂×n₃)`, `C (n₁×n₃)`; `C` is overwritten. The accumulating entry
//! point [`mxm_acc_with`] computes `C += A·B` instead (same per-element
//! dot order, one extra add) — the fused sum-factorized operators in
//! `sem-ops` use it to chain `Dᵀ` applications without intermediate
//! buffers.
//!
//! [`MxmKernel::Auto`] picks per shape from the table of the host's ISA
//! ([`select_kernel`] with [`detected_isa`]): winners measured by
//! `table3_mxm --emit-table`, restricted to kernels with identical
//! reduction order so results never depend on the host.

use crate::simd::{detected_isa, SimdIsa};

/// Kernel selector, mirroring the paper's per-shape DGEMM choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MxmKernel {
    /// Straightforward dot-product triple loop (paper's `lkm` stand-in).
    Naive,
    /// `n₃`-outer, fully unrolled `n₂` loop (paper's `f2`).
    F2,
    /// `n₁`-outer, fully unrolled `n₂` loop (paper's `f3`).
    F3,
    /// SAXPY form with 4-way unrolling (paper's `csm` stand-in).
    Unroll4,
    /// Register-blocked kernel (paper's `ghm` stand-in).
    Blocked,
    /// Explicit-SIMD column vectorization with runtime ISA dispatch and
    /// a bitwise-identical scalar fallback ([`crate::simd`]).
    Simd,
    /// Per-shape dispatch over the menu above (the paper's "perf." build).
    Auto,
}

impl MxmKernel {
    /// All concrete (non-Auto) kernels, in Table 3 column order (the
    /// SIMD family appended after the paper's five).
    pub const ALL: [MxmKernel; 6] = [
        MxmKernel::Naive,
        MxmKernel::Blocked,
        MxmKernel::Unroll4,
        MxmKernel::F3,
        MxmKernel::F2,
        MxmKernel::Simd,
    ];

    /// Short display name (matches the Table 3 column headers).
    pub fn name(self) -> &'static str {
        match self {
            MxmKernel::Naive => "naive",
            MxmKernel::F2 => "f2",
            MxmKernel::F3 => "f3",
            MxmKernel::Unroll4 => "unroll4",
            MxmKernel::Blocked => "blocked",
            MxmKernel::Simd => "simd",
            MxmKernel::Auto => "auto",
        }
    }
}

#[inline]
fn check_dims(a: &[f64], n1: usize, n2: usize, b: &[f64], n3: usize, c: &[f64]) {
    assert_eq!(a.len(), n1 * n2, "mxm: A must be n1*n2");
    assert_eq!(b.len(), n2 * n3, "mxm: B must be n2*n3");
    assert_eq!(c.len(), n1 * n3, "mxm: C must be n1*n3");
}

/// `C = A·B` with the default (Auto) kernel.
///
/// `A` is `n1 × n2`, `B` is `n2 × n3`, `C` is `n1 × n3`, all row-major.
///
/// # Panics
/// Panics if slice lengths do not match the given dimensions.
#[inline]
pub fn mxm(a: &[f64], n1: usize, n2: usize, b: &[f64], n3: usize, c: &mut [f64]) {
    mxm_with(MxmKernel::Auto, a, n1, n2, b, n3, c);
}

/// `C = A·B` with an explicitly chosen kernel.
pub fn mxm_with(
    kernel: MxmKernel,
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    check_dims(a, n1, n2, b, n3, c);
    // All mxm entry points funnel through here or `mxm_acc_with` (mxm()
    // and the tensor contractions call one of the two), so these are the
    // metering points of the one flop account — the concrete kernels
    // below are deliberately not instrumented to avoid double counting.
    sem_obs::counters::add(sem_obs::Counter::MxmFlops, mxm_flops(n1, n2, n3));
    sem_obs::counters::add(sem_obs::Counter::MxmCalls, 1);
    dispatch::<false>(kernel, a, n1, n2, b, n3, c);
}

/// `C += A·B` with an explicitly chosen kernel.
///
/// Each output element gets the product dot-sum in the same order as
/// [`mxm_with`] would produce it, followed by one add onto the existing
/// entry — so `mxm_acc_with(k, …)` is bitwise-equal to `mxm_with(k, …)`
/// into scratch plus an elementwise `c[i] += scratch[i]`. Metered like
/// [`mxm_with`], at `2·n₁·n₂·n₃`: the `n₁·n₃` accumulation adds are
/// pointwise work, which the one flop account leaves out.
pub fn mxm_acc_with(
    kernel: MxmKernel,
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    check_dims(a, n1, n2, b, n3, c);
    sem_obs::counters::add(sem_obs::Counter::MxmFlops, mxm_flops(n1, n2, n3));
    sem_obs::counters::add(sem_obs::Counter::MxmCalls, 1);
    dispatch::<true>(kernel, a, n1, n2, b, n3, c);
}

fn dispatch<const ACC: bool>(
    kernel: MxmKernel,
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    match kernel {
        MxmKernel::Naive => mxm_naive_impl::<ACC>(a, n1, n2, b, n3, c),
        MxmKernel::F2 => mxm_f2_impl::<ACC>(a, n1, n2, b, n3, c),
        MxmKernel::F3 => mxm_f3_impl::<ACC>(a, n1, n2, b, n3, c),
        MxmKernel::Unroll4 => mxm_unroll4_impl::<ACC>(a, n1, n2, b, n3, c),
        MxmKernel::Blocked => mxm_blocked_impl::<ACC>(a, n1, n2, b, n3, c),
        MxmKernel::Simd => crate::simd::mxm_simd_impl::<ACC>(a, n1, n2, b, n3, c),
        MxmKernel::Auto => {
            let k = select_kernel(detected_isa(), n1, n2, n3);
            dispatch::<ACC>(k, a, n1, n2, b, n3, c)
        }
    }
}

// ---------------------------------------------------------------------
// Per-shape kernel selection (the paper's "perf." dispatch).
//
// Regenerate with `table3_mxm --emit-table`: it benches the whole menu
// on the Table 3 shape family and prints these match arms from
// measurement. Last regenerated on an AVX2 x86_64 host (see
// results/BENCH_mxm.json for the numbers behind it).
//
// Only order-preserving kernels (ascending-i dot accumulation: naive,
// blocked, f2, f3, simd) appear here, so Auto's results are bitwise
// independent of the ISA; unroll4 reorders the reduction and is
// reachable only by explicit request.
// ---------------------------------------------------------------------

/// The per-shape dispatch of [`MxmKernel::Auto`]: the measured winner
/// for this shape on a host with vector ISA `isa`. Never returns `Auto`
/// or a kernel that reorders the reduction.
pub fn select_kernel(isa: SimdIsa, n1: usize, n2: usize, n3: usize) -> MxmKernel {
    if isa != SimdIsa::None {
        // Measured winner on every Table 3 shape, including the tiny
        // coarse shape (2,14,2): 3.0–18.6 GFLOPS, 1.3–2.5× the best
        // scalar kernel per shape.
        MxmKernel::Simd
    } else if n1 <= 4 && n3 <= 4 {
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

/// Straightforward triple loop, dot-product form (`lkm` stand-in).
pub fn mxm_naive(a: &[f64], n1: usize, n2: usize, b: &[f64], n3: usize, c: &mut [f64]) {
    check_dims(a, n1, n2, b, n3, c);
    mxm_naive_impl::<false>(a, n1, n2, b, n3, c);
}

pub(crate) fn mxm_naive_impl<const ACC: bool>(
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    for l in 0..n1 {
        for m in 0..n3 {
            let mut acc = 0.0;
            for i in 0..n2 {
                acc += a[l * n2 + i] * b[i * n3 + m];
            }
            if ACC {
                c[l * n3 + m] += acc;
            } else {
                c[l * n3 + m] = acc;
            }
        }
    }
}

/// SAXPY (`l-i-m`) form with 4-way unrolling over the reduction index
/// (`csm` stand-in). Streams rows of `B` and `C`; strong when `n3` is large.
pub fn mxm_unroll4(a: &[f64], n1: usize, n2: usize, b: &[f64], n3: usize, c: &mut [f64]) {
    check_dims(a, n1, n2, b, n3, c);
    mxm_unroll4_impl::<false>(a, n1, n2, b, n3, c);
}

fn mxm_unroll4_impl<const ACC: bool>(
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    if ACC {
        // The SAXPY form accumulates k-blocks directly into C, which
        // would interleave the reduction with the existing entries and
        // break the dot-then-one-add contract of `mxm_acc_with`; form
        // the product separately, then add. (Never on a fused hot path:
        // the Auto table excludes this reordering kernel.)
        let mut tmp = vec![0.0; n1 * n3];
        mxm_unroll4_impl::<false>(a, n1, n2, b, n3, &mut tmp);
        for (cv, tv) in c.iter_mut().zip(tmp) {
            *cv += tv;
        }
        return;
    }
    c.fill(0.0);
    for l in 0..n1 {
        let crow = &mut c[l * n3..(l + 1) * n3];
        let arow = &a[l * n2..(l + 1) * n2];
        let mut i = 0;
        while i + 4 <= n2 {
            let (a0, a1, a2, a3) = (arow[i], arow[i + 1], arow[i + 2], arow[i + 3]);
            let b0 = &b[i * n3..(i + 1) * n3];
            let b1 = &b[(i + 1) * n3..(i + 2) * n3];
            let b2 = &b[(i + 2) * n3..(i + 3) * n3];
            let b3 = &b[(i + 3) * n3..(i + 4) * n3];
            for m in 0..n3 {
                crow[m] += a0 * b0[m] + a1 * b1[m] + a2 * b2[m] + a3 * b3[m];
            }
            i += 4;
        }
        while i < n2 {
            let ai = arow[i];
            let brow = &b[i * n3..(i + 1) * n3];
            for m in 0..n3 {
                crow[m] += ai * brow[m];
            }
            i += 1;
        }
    }
}

/// Cache/register blocked kernel (`ghm` stand-in): 2×2 register tiles of `C`.
pub fn mxm_blocked(a: &[f64], n1: usize, n2: usize, b: &[f64], n3: usize, c: &mut [f64]) {
    check_dims(a, n1, n2, b, n3, c);
    mxm_blocked_impl::<false>(a, n1, n2, b, n3, c);
}

fn mxm_blocked_impl<const ACC: bool>(
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    // Each tile entry is a complete dot product held in a register, so
    // the ACC variant is a single add onto the existing C entry.
    #[inline(always)]
    fn store<const ACC: bool>(slot: &mut f64, dot: f64) {
        if ACC {
            *slot += dot;
        } else {
            *slot = dot;
        }
    }
    let l2 = n1 / 2 * 2;
    let m2 = n3 / 2 * 2;
    let mut l = 0;
    while l < l2 {
        let mut m = 0;
        while m < m2 {
            let (mut c00, mut c01, mut c10, mut c11) = (0.0, 0.0, 0.0, 0.0);
            for i in 0..n2 {
                let a0 = a[l * n2 + i];
                let a1 = a[(l + 1) * n2 + i];
                let b0 = b[i * n3 + m];
                let b1 = b[i * n3 + m + 1];
                c00 += a0 * b0;
                c01 += a0 * b1;
                c10 += a1 * b0;
                c11 += a1 * b1;
            }
            store::<ACC>(&mut c[l * n3 + m], c00);
            store::<ACC>(&mut c[l * n3 + m + 1], c01);
            store::<ACC>(&mut c[(l + 1) * n3 + m], c10);
            store::<ACC>(&mut c[(l + 1) * n3 + m + 1], c11);
            m += 2;
        }
        // Remainder column.
        if m < n3 {
            let (mut c0, mut c1) = (0.0, 0.0);
            for i in 0..n2 {
                let bv = b[i * n3 + m];
                c0 += a[l * n2 + i] * bv;
                c1 += a[(l + 1) * n2 + i] * bv;
            }
            store::<ACC>(&mut c[l * n3 + m], c0);
            store::<ACC>(&mut c[(l + 1) * n3 + m], c1);
        }
        l += 2;
    }
    // Remainder row.
    if l < n1 {
        for m in 0..n3 {
            let mut acc = 0.0;
            for i in 0..n2 {
                acc += a[l * n2 + i] * b[i * n3 + m];
            }
            store::<ACC>(&mut c[l * n3 + m], acc);
        }
    }
}

/// Fully-unrolled inner loop via const generics: the reduction length `n₂`
/// is a compile-time constant so the optimizer unrolls it completely,
/// mirroring the paper's hand-unrolled Fortran.
#[inline]
fn mxm_f2_const<const N2: usize, const ACC: bool>(
    a: &[f64],
    n1: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    // f2: n3 controls the outer loop.
    for m in 0..n3 {
        for l in 0..n1 {
            let arow = &a[l * N2..(l + 1) * N2];
            let mut acc = 0.0;
            for i in 0..N2 {
                acc += arow[i] * b[i * n3 + m];
            }
            if ACC {
                c[l * n3 + m] += acc;
            } else {
                c[l * n3 + m] = acc;
            }
        }
    }
}

#[inline]
fn mxm_f3_const<const N2: usize, const ACC: bool>(
    a: &[f64],
    n1: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    // f3: n1 controls the outer loop.
    for l in 0..n1 {
        let arow = &a[l * N2..(l + 1) * N2];
        for m in 0..n3 {
            let mut acc = 0.0;
            for i in 0..N2 {
                acc += arow[i] * b[i * n3 + m];
            }
            if ACC {
                c[l * n3 + m] += acc;
            } else {
                c[l * n3 + m] = acc;
            }
        }
    }
}

macro_rules! dispatch_const_n2 {
    ($func:ident, $n2:expr, $a:expr, $n1:expr, $b:expr, $n3:expr, $c:expr, $fallback:expr) => {
        match $n2 {
            1 => $func::<1, ACC>($a, $n1, $b, $n3, $c),
            2 => $func::<2, ACC>($a, $n1, $b, $n3, $c),
            3 => $func::<3, ACC>($a, $n1, $b, $n3, $c),
            4 => $func::<4, ACC>($a, $n1, $b, $n3, $c),
            5 => $func::<5, ACC>($a, $n1, $b, $n3, $c),
            6 => $func::<6, ACC>($a, $n1, $b, $n3, $c),
            7 => $func::<7, ACC>($a, $n1, $b, $n3, $c),
            8 => $func::<8, ACC>($a, $n1, $b, $n3, $c),
            9 => $func::<9, ACC>($a, $n1, $b, $n3, $c),
            10 => $func::<10, ACC>($a, $n1, $b, $n3, $c),
            11 => $func::<11, ACC>($a, $n1, $b, $n3, $c),
            12 => $func::<12, ACC>($a, $n1, $b, $n3, $c),
            13 => $func::<13, ACC>($a, $n1, $b, $n3, $c),
            14 => $func::<14, ACC>($a, $n1, $b, $n3, $c),
            15 => $func::<15, ACC>($a, $n1, $b, $n3, $c),
            16 => $func::<16, ACC>($a, $n1, $b, $n3, $c),
            17 => $func::<17, ACC>($a, $n1, $b, $n3, $c),
            18 => $func::<18, ACC>($a, $n1, $b, $n3, $c),
            19 => $func::<19, ACC>($a, $n1, $b, $n3, $c),
            20 => $func::<20, ACC>($a, $n1, $b, $n3, $c),
            _ => $fallback,
        }
    };
}

/// Paper's `f2`: completely unrolls the `n₂` loop, `n₃` controls the outer
/// loop. Falls back to the naive kernel for `n₂ > 20` (the paper's `ghm`
/// library had the same `n₂ ≤ 20` restriction).
pub fn mxm_f2(a: &[f64], n1: usize, n2: usize, b: &[f64], n3: usize, c: &mut [f64]) {
    check_dims(a, n1, n2, b, n3, c);
    mxm_f2_impl::<false>(a, n1, n2, b, n3, c);
}

fn mxm_f2_impl<const ACC: bool>(
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    dispatch_const_n2!(
        mxm_f2_const,
        n2,
        a,
        n1,
        b,
        n3,
        c,
        mxm_naive_impl::<ACC>(a, n1, n2, b, n3, c)
    );
}

/// Paper's `f3`: completely unrolls the `n₂` loop, `n₁` controls the outer
/// loop. Falls back to the naive kernel for `n₂ > 20`.
pub fn mxm_f3(a: &[f64], n1: usize, n2: usize, b: &[f64], n3: usize, c: &mut [f64]) {
    check_dims(a, n1, n2, b, n3, c);
    mxm_f3_impl::<false>(a, n1, n2, b, n3, c);
}

fn mxm_f3_impl<const ACC: bool>(
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    dispatch_const_n2!(
        mxm_f3_const,
        n2,
        a,
        n1,
        b,
        n3,
        c,
        mxm_naive_impl::<ACC>(a, n1, n2, b, n3, c)
    );
}

/// Flop count of one `(n1×n2)·(n2×n3)` product (multiply+add counted
/// separately, as in the paper's perfmon accounting).
#[inline]
pub fn mxm_flops(n1: usize, n2: usize, n3: usize) -> u64 {
    2 * (n1 as u64) * (n2 as u64) * (n3 as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &[f64], n1: usize, n2: usize, b: &[f64], n3: usize) -> Vec<f64> {
        let mut c = vec![0.0; n1 * n3];
        for l in 0..n1 {
            for m in 0..n3 {
                let mut acc = 0.0;
                for i in 0..n2 {
                    acc += a[l * n2 + i] * b[i * n3 + m];
                }
                c[l * n3 + m] = acc;
            }
        }
        c
    }

    fn fill(n: usize, seed: u64) -> Vec<f64> {
        // Simple LCG so tests are deterministic without pulling in rand here.
        let mut x = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as f64) / (u32::MAX as f64) - 0.5
            })
            .collect()
    }

    fn check_all_kernels(n1: usize, n2: usize, n3: usize) {
        let a = fill(n1 * n2, 7 + n1 as u64);
        let b = fill(n2 * n3, 13 + n3 as u64);
        let want = reference(&a, n1, n2, &b, n3);
        for k in MxmKernel::ALL.iter().copied().chain([MxmKernel::Auto]) {
            let mut c = vec![f64::NAN; n1 * n3];
            mxm_with(k, &a, n1, n2, &b, n3, &mut c);
            for (i, (&got, &w)) in c.iter().zip(want.iter()).enumerate() {
                assert!(
                    (got - w).abs() <= 1e-12 * (1.0 + w.abs()),
                    "kernel {:?} shape ({},{},{}) entry {} got {} want {}",
                    k,
                    n1,
                    n2,
                    n3,
                    i,
                    got,
                    w
                );
            }
        }
    }

    #[test]
    fn all_kernels_match_reference_on_table3_shapes() {
        // The ten (n1, n2, n3) configurations of the paper's Table 3 (N=15).
        for &(n1, n2, n3) in &[
            (14, 2, 14),
            (2, 14, 2),
            (16, 14, 16),
            (16, 14, 196),
            (256, 14, 16),
            (14, 16, 14),
            (16, 16, 16),
            (16, 16, 256),
            (196, 16, 14),
            (256, 16, 16),
        ] {
            check_all_kernels(n1, n2, n3);
        }
    }

    #[test]
    fn all_kernels_match_reference_on_odd_shapes() {
        for &(n1, n2, n3) in &[
            (1, 1, 1),
            (3, 5, 7),
            (5, 3, 1),
            (7, 21, 9), // n2 > 20 exercises the unrolled-kernel fallback
            (9, 4, 81),
            (2, 2, 2),
            (17, 17, 17),
        ] {
            check_all_kernels(n1, n2, n3);
        }
    }

    #[test]
    fn identity_passthrough() {
        let n = 6;
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let b = fill(n * n, 3);
        for k in MxmKernel::ALL {
            let mut c = vec![0.0; n * n];
            mxm_with(k, &eye, n, n, &b, n, &mut c);
            assert_eq!(c, b, "kernel {:?}", k);
        }
    }

    #[test]
    fn select_kernel_never_returns_auto_or_reordering_kernels() {
        for isa in [SimdIsa::Avx2, SimdIsa::Sse2, SimdIsa::Neon, SimdIsa::None] {
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
                let k = select_kernel(isa, n1, n2, n3);
                assert!(k != MxmKernel::Auto, "{isa:?} ({n1},{n2},{n3})");
                assert!(
                    k != MxmKernel::Unroll4,
                    "Auto must stay order-preserving: {isa:?} ({n1},{n2},{n3})"
                );
            }
        }
    }

    #[test]
    fn flops_formula() {
        assert_eq!(mxm_flops(16, 14, 16), 2 * 16 * 14 * 16);
    }

    #[test]
    #[should_panic(expected = "mxm: A must be")]
    fn dimension_mismatch_panics() {
        let a = vec![0.0; 5];
        let b = vec![0.0; 4];
        let mut c = vec![0.0; 4];
        mxm(&a, 2, 2, &b, 2, &mut c);
    }
}
