//! Explicit-SIMD `mxm` kernels (`std::arch` intrinsics, zero-dependency).
//!
//! The paper's Table 3 point is that the right `mxm` kernel per shape is
//! worth most of the flops in an SEM code; the modern corollary (NekRS)
//! is that the same algorithm re-kerneled for the vector units is worth
//! another large factor. This module supplies that family:
//!
//! * **AVX2** (4 × f64) and **SSE2** (2 × f64) on `x86_64`,
//! * **NEON** (2 × f64) on `aarch64`,
//! * a **guaranteed-identical scalar fallback** everywhere else.
//!
//! The ISA is picked once per process by runtime feature detection
//! ([`detected_isa`]); the per-shape selection of
//! [`crate::mxm::select_kernel`] and the dispatch below both follow it.
//!
//! ## Bitwise determinism
//!
//! Every variant vectorizes over the *columns* of `C` and accumulates
//! over the reduction index `i = 0..n₂` in ascending order with separate
//! multiply and add (no FMA contraction). Each output element therefore
//! sees exactly the arithmetic sequence
//!
//! ```text
//! c[l][m] = ((a[l][0]·b[0][m] + a[l][1]·b[1][m]) + …) + a[l][n₂−1]·b[n₂−1][m]
//! ```
//!
//! — the same sequence the scalar fallback ([`crate::mxm::mxm_naive`])
//! performs. SIMD lanes are independent IEEE-754 operations, so the AVX2,
//! SSE2, NEON and scalar variants are **bitwise identical** on every
//! input, including remainder lanes and unaligned sizes (all loads are
//! unaligned loads). This is pinned by `tests/simd_bitwise.rs`, and it
//! is why solver results do not depend on the host's ISA.
//!
//! ## Row blocking for narrow `C`
//!
//! Walking `C` one row at a time leaves a narrow product (`n₃ < 8`,
//! e.g. the `(36,6,6)` x-contraction at `N = 5`) with one or two
//! 4-lane accumulators per row: each row is a single dependent add
//! chain, and the adder's latency, not its throughput, sets the rate.
//! The AVX2 kernel therefore runs four rows of `A` per step on narrow
//! `C`, reusing each loaded row of `B` across them, so 4–12 independent
//! chains are in flight. Blocking changes which elements are computed
//! together, never the arithmetic of any one element, so the sequence
//! above — and bitwise identity with the scalar fallback — holds on
//! this path too. SSE2 and NEON keep the per-row loop.

use std::sync::OnceLock;

/// The SIMD instruction set the kernel family can run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdIsa {
    /// x86_64 AVX2: 4 lanes of f64.
    Avx2,
    /// x86_64 SSE2: 2 lanes of f64.
    Sse2,
    /// aarch64 NEON: 2 lanes of f64.
    Neon,
    /// No vector unit: the identical scalar fallback.
    None,
}

impl SimdIsa {
    /// Short display name (`avx2`, `sse2`, `neon`, `scalar`).
    pub fn name(self) -> &'static str {
        match self {
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Sse2 => "sse2",
            SimdIsa::Neon => "neon",
            SimdIsa::None => "scalar",
        }
    }
}

/// The vector ISA runtime feature detection finds on this host, probed
/// once per process.
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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mxm_avx2<const ACC: bool>(
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    use std::arch::x86_64::*;
    let bp = b.as_ptr();
    for l in 0..n1 {
        let arow = &a[l * n2..(l + 1) * n2];
        let crow = &mut c[l * n3..(l + 1) * n3];
        let cp = crow.as_mut_ptr();
        let mut m = 0;
        // 8 columns per step: two independent 4-lane accumulators.
        while m + 8 <= n3 {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            for (i, &ai) in arow.iter().enumerate() {
                let av = _mm256_set1_pd(ai);
                let brow = bp.add(i * n3 + m);
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(av, _mm256_loadu_pd(brow)));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(av, _mm256_loadu_pd(brow.add(4))));
            }
            if ACC {
                acc0 = _mm256_add_pd(_mm256_loadu_pd(cp.add(m)), acc0);
                acc1 = _mm256_add_pd(_mm256_loadu_pd(cp.add(m + 4)), acc1);
            }
            _mm256_storeu_pd(cp.add(m), acc0);
            _mm256_storeu_pd(cp.add(m + 4), acc1);
            m += 8;
        }
        if m + 4 <= n3 {
            let mut acc = _mm256_setzero_pd();
            for (i, &ai) in arow.iter().enumerate() {
                let av = _mm256_set1_pd(ai);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(av, _mm256_loadu_pd(bp.add(i * n3 + m))));
            }
            if ACC {
                acc = _mm256_add_pd(_mm256_loadu_pd(cp.add(m)), acc);
            }
            _mm256_storeu_pd(cp.add(m), acc);
            m += 4;
        }
        if m + 2 <= n3 {
            let mut acc = _mm_setzero_pd();
            for (i, &ai) in arow.iter().enumerate() {
                let av = _mm_set1_pd(ai);
                acc = _mm_add_pd(acc, _mm_mul_pd(av, _mm_loadu_pd(bp.add(i * n3 + m))));
            }
            if ACC {
                acc = _mm_add_pd(_mm_loadu_pd(cp.add(m)), acc);
            }
            _mm_storeu_pd(cp.add(m), acc);
            m += 2;
        }
        // Remainder column: scalar, same ascending-i order.
        while m < n3 {
            let mut acc = 0.0;
            for (i, &ai) in arow.iter().enumerate() {
                acc += ai * b[i * n3 + m];
            }
            if ACC {
                crow[m] += acc;
            } else {
                crow[m] = acc;
            }
            m += 1;
        }
    }
}

/// [`mxm_avx2`] for a narrow `C` (`n₃ < 8`): whole 4-row blocks
/// through [`mxm_avx2_rows4`], then the leftover rows through the
/// per-row loop. A separate entry, so that wider products run the
/// per-row kernel with nothing in front of it.
///
/// # Safety
/// As [`mxm_avx2_rows4`], with `N3 = n3`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mxm_avx2_narrow<const ACC: bool>(
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    let done = match n3 {
        1 => mxm_avx2_rows4::<ACC, 1>(a, n1, n2, b, c),
        2 => mxm_avx2_rows4::<ACC, 2>(a, n1, n2, b, c),
        3 => mxm_avx2_rows4::<ACC, 3>(a, n1, n2, b, c),
        4 => mxm_avx2_rows4::<ACC, 4>(a, n1, n2, b, c),
        5 => mxm_avx2_rows4::<ACC, 5>(a, n1, n2, b, c),
        6 => mxm_avx2_rows4::<ACC, 6>(a, n1, n2, b, c),
        7 => mxm_avx2_rows4::<ACC, 7>(a, n1, n2, b, c),
        _ => 0,
    };
    mxm_avx2::<ACC>(&a[done * n2..], n1 - done, n2, b, n3, &mut c[done * n3..]);
}

/// The row-blocked path of [`mxm_avx2`] for a narrow `C` of `N3 < 8`
/// columns: rows `l..l + 4` per step, each loaded row of `B` reused
/// across the four rows of `A`. A row of `C` splits into a 4-lane
/// block (`N3 ≥ 4`), a 2-lane block and a scalar column (odd `N3`), so
/// `4 × (1 to 3)` accumulators run side by side; each still sums its
/// element's products in ascending `i` from zero, multiply then add,
/// with `ACC`'s one add onto `C` last. Returns the first row not done
/// (`n₁` rounded down to a multiple of 4).
///
/// # Safety
/// The host must support AVX2, and `a`, `b` and `c` must hold at least
/// `n1·n2`, `n2·N3` and `n1·N3` values ([`crate::mxm::mxm_with`]'s
/// dimension check guarantees both lengths).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn mxm_avx2_rows4<const ACC: bool, const N3: usize>(
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    c: &mut [f64],
) -> usize {
    use std::arch::x86_64::*;
    // Column split, fixed per instantiation: [0, m2) in 4 lanes,
    // [m2, m2 + 2) in 2 lanes, column N3 − 1 in a scalar.
    let w4 = N3 >= 4;
    let m2 = if w4 { 4 } else { 0 };
    let w2 = N3 - m2 >= 2;
    let w1 = N3 % 2 == 1;
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let mut l = 0;
    while l + 4 <= n1 {
        let mut v4 = [_mm256_setzero_pd(); 4];
        let mut v2 = [_mm_setzero_pd(); 4];
        let mut v1 = [0.0f64; 4];
        for i in 0..n2 {
            let brow = bp.add(i * N3);
            let b4 = if w4 {
                _mm256_loadu_pd(brow)
            } else {
                _mm256_setzero_pd()
            };
            let b2 = if w2 {
                _mm_loadu_pd(brow.add(m2))
            } else {
                _mm_setzero_pd()
            };
            let b1 = if w1 { *brow.add(N3 - 1) } else { 0.0 };
            for r in 0..4 {
                let ai = *ap.add((l + r) * n2 + i);
                if w4 {
                    v4[r] = _mm256_add_pd(v4[r], _mm256_mul_pd(_mm256_set1_pd(ai), b4));
                }
                if w2 {
                    v2[r] = _mm_add_pd(v2[r], _mm_mul_pd(_mm_set1_pd(ai), b2));
                }
                if w1 {
                    v1[r] += ai * b1;
                }
            }
        }
        for r in 0..4 {
            let crow = cp.add((l + r) * N3);
            if w4 {
                let mut acc = v4[r];
                if ACC {
                    acc = _mm256_add_pd(_mm256_loadu_pd(crow), acc);
                }
                _mm256_storeu_pd(crow, acc);
            }
            if w2 {
                let mut acc = v2[r];
                if ACC {
                    acc = _mm_add_pd(_mm_loadu_pd(crow.add(m2)), acc);
                }
                _mm_storeu_pd(crow.add(m2), acc);
            }
            if w1 {
                let slot = crow.add(N3 - 1);
                if ACC {
                    *slot += v1[r];
                } else {
                    *slot = v1[r];
                }
            }
        }
        l += 4;
    }
    l
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn mxm_sse2<const ACC: bool>(
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    use std::arch::x86_64::*;
    let bp = b.as_ptr();
    for l in 0..n1 {
        let arow = &a[l * n2..(l + 1) * n2];
        let crow = &mut c[l * n3..(l + 1) * n3];
        let cp = crow.as_mut_ptr();
        let mut m = 0;
        // 4 columns per step: two independent 2-lane accumulators.
        while m + 4 <= n3 {
            let mut acc0 = _mm_setzero_pd();
            let mut acc1 = _mm_setzero_pd();
            for (i, &ai) in arow.iter().enumerate() {
                let av = _mm_set1_pd(ai);
                let brow = bp.add(i * n3 + m);
                acc0 = _mm_add_pd(acc0, _mm_mul_pd(av, _mm_loadu_pd(brow)));
                acc1 = _mm_add_pd(acc1, _mm_mul_pd(av, _mm_loadu_pd(brow.add(2))));
            }
            if ACC {
                acc0 = _mm_add_pd(_mm_loadu_pd(cp.add(m)), acc0);
                acc1 = _mm_add_pd(_mm_loadu_pd(cp.add(m + 2)), acc1);
            }
            _mm_storeu_pd(cp.add(m), acc0);
            _mm_storeu_pd(cp.add(m + 2), acc1);
            m += 4;
        }
        if m + 2 <= n3 {
            let mut acc = _mm_setzero_pd();
            for (i, &ai) in arow.iter().enumerate() {
                let av = _mm_set1_pd(ai);
                acc = _mm_add_pd(acc, _mm_mul_pd(av, _mm_loadu_pd(bp.add(i * n3 + m))));
            }
            if ACC {
                acc = _mm_add_pd(_mm_loadu_pd(cp.add(m)), acc);
            }
            _mm_storeu_pd(cp.add(m), acc);
            m += 2;
        }
        while m < n3 {
            let mut acc = 0.0;
            for (i, &ai) in arow.iter().enumerate() {
                acc += ai * b[i * n3 + m];
            }
            if ACC {
                crow[m] += acc;
            } else {
                crow[m] = acc;
            }
            m += 1;
        }
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn mxm_neon<const ACC: bool>(
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    use std::arch::aarch64::*;
    let bp = b.as_ptr();
    for l in 0..n1 {
        let arow = &a[l * n2..(l + 1) * n2];
        let crow = &mut c[l * n3..(l + 1) * n3];
        let cp = crow.as_mut_ptr();
        let mut m = 0;
        // 4 columns per step: two independent 2-lane accumulators.
        while m + 4 <= n3 {
            let mut acc0 = vdupq_n_f64(0.0);
            let mut acc1 = vdupq_n_f64(0.0);
            for (i, &ai) in arow.iter().enumerate() {
                let av = vdupq_n_f64(ai);
                let brow = bp.add(i * n3 + m);
                acc0 = vaddq_f64(acc0, vmulq_f64(av, vld1q_f64(brow)));
                acc1 = vaddq_f64(acc1, vmulq_f64(av, vld1q_f64(brow.add(2))));
            }
            if ACC {
                acc0 = vaddq_f64(vld1q_f64(cp.add(m)), acc0);
                acc1 = vaddq_f64(vld1q_f64(cp.add(m + 2)), acc1);
            }
            vst1q_f64(cp.add(m), acc0);
            vst1q_f64(cp.add(m + 2), acc1);
            m += 4;
        }
        if m + 2 <= n3 {
            let mut acc = vdupq_n_f64(0.0);
            for (i, &ai) in arow.iter().enumerate() {
                let av = vdupq_n_f64(ai);
                acc = vaddq_f64(acc, vmulq_f64(av, vld1q_f64(bp.add(i * n3 + m))));
            }
            if ACC {
                acc = vaddq_f64(vld1q_f64(cp.add(m)), acc);
            }
            vst1q_f64(cp.add(m), acc);
            m += 2;
        }
        while m < n3 {
            let mut acc = 0.0;
            for (i, &ai) in arow.iter().enumerate() {
                acc += ai * b[i * n3 + m];
            }
            if ACC {
                crow[m] += acc;
            } else {
                crow[m] = acc;
            }
            m += 1;
        }
    }
}

/// `C = A·B` (or `C += A·B` with `ACC`) through the host's vector unit.
/// Dimensions must already be validated by the caller
/// ([`crate::mxm::mxm_with`] does).
pub(crate) fn mxm_simd_impl<const ACC: bool>(
    a: &[f64],
    n1: usize,
    n2: usize,
    b: &[f64],
    n3: usize,
    c: &mut [f64],
) {
    match detected_isa() {
        // SAFETY: detected_isa() only reports an ISA after runtime
        // feature detection confirmed the host supports it; slice bounds
        // are checked by the caller's check_dims.
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx2 if n3 < 8 && n1 >= 4 => unsafe {
            mxm_avx2_narrow::<ACC>(a, n1, n2, b, n3, c)
        },
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx2 => unsafe { mxm_avx2::<ACC>(a, n1, n2, b, n3, c) },
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Sse2 => unsafe { mxm_sse2::<ACC>(a, n1, n2, b, n3, c) },
        #[cfg(target_arch = "aarch64")]
        SimdIsa::Neon => unsafe { mxm_neon::<ACC>(a, n1, n2, b, n3, c) },
        _ => crate::mxm::mxm_naive_impl::<ACC>(a, n1, n2, b, n3, c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mxm::mxm_naive;
    use crate::rng::SplitMix64;

    fn check_bitwise(n1: usize, n2: usize, n3: usize, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let a = rng.vec(n1 * n2, -1.0, 1.0);
        let b = rng.vec(n2 * n3, -1.0, 1.0);
        let mut want = vec![0.0; n1 * n3];
        mxm_naive(&a, n1, n2, &b, n3, &mut want);
        let mut got = vec![f64::NAN; n1 * n3];
        mxm_simd_impl::<false>(&a, n1, n2, &b, n3, &mut got);
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "({n1},{n2},{n3}) entry {i}: simd {g} != scalar {w}"
            );
        }
    }

    #[test]
    fn dispatched_kernel_is_bitwise_identical_to_reference() {
        // Cover every remainder-lane path: n3 mod 8 in 0..=7.
        for n3 in 1..=17 {
            check_bitwise(5, 7, n3, 42 + n3 as u64);
        }
        check_bitwise(16, 16, 16, 1);
        check_bitwise(256, 16, 16, 2);
        check_bitwise(16, 14, 196, 3);
        check_bitwise(2, 14, 2, 4);
    }

    #[test]
    fn acc_adds_onto_existing_c() {
        let (n1, n2, n3) = (6, 5, 11);
        let mut rng = SplitMix64::new(7);
        let a = rng.vec(n1 * n2, -1.0, 1.0);
        let b = rng.vec(n2 * n3, -1.0, 1.0);
        let c0 = rng.vec(n1 * n3, -1.0, 1.0);
        let mut prod = vec![0.0; n1 * n3];
        mxm_naive(&a, n1, n2, &b, n3, &mut prod);
        let mut got = c0.clone();
        mxm_simd_impl::<true>(&a, n1, n2, &b, n3, &mut got);
        for i in 0..n1 * n3 {
            let want = c0[i] + prod[i];
            assert_eq!(got[i].to_bits(), want.to_bits(), "entry {i}");
        }
    }

    #[test]
    fn isa_names() {
        assert_eq!(SimdIsa::Avx2.name(), "avx2");
        assert_eq!(SimdIsa::None.name(), "scalar");
    }
}
