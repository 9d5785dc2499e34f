//! Seeded property tests pinning the mxm dispatch's core guarantee: every
//! kernel in the order-preserving family — `blocked`, `f2`, `f3`, and
//! every SIMD variant the host can run — is **bitwise identical** to the
//! scalar `naive` kernel, over the paper's Table 3 shape menu
//! (`n ∈ {2, N₂, N₁, N₂², N₁²}` for `N = 15`), remainder-lane widths,
//! the AVX2 kernel's four-row blocks for narrow `C`, and unaligned
//! (offset) slices. The accumulating entry point
//! `mxm_acc_with` is likewise pinned to "full dot, then one add".
//!
//! `unroll4` is deliberately absent: it reorders the reduction, which is
//! why the `Auto` selection table never picks it.

use sem_linalg::mxm::{mxm_acc_with, mxm_naive, mxm_with, select_kernel, MxmKernel};
use sem_linalg::rng::{forall, SplitMix64};
use sem_linalg::simd::{detected_isa, SimdIsa};

/// The order-preserving kernel menu (everything `Auto` may select).
const ORDER_PRESERVING: [MxmKernel; 5] = [
    MxmKernel::Naive,
    MxmKernel::Blocked,
    MxmKernel::F3,
    MxmKernel::F2,
    MxmKernel::Simd,
];

/// Paper shape menu for N = 15: N₁ = 16, N₂ = 14.
const PAPER_DIMS: [usize; 5] = [2, 14, 16, 196, 256];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check_shape(rng: &mut SplitMix64, n1: usize, n2: usize, n3: usize) {
    let a = rng.vec(n1 * n2, -1.0, 1.0);
    let b = rng.vec(n2 * n3, -1.0, 1.0);
    let mut want = vec![0.0; n1 * n3];
    mxm_naive(&a, n1, n2, &b, n3, &mut want);
    for k in ORDER_PRESERVING {
        let mut got = vec![f64::NAN; n1 * n3];
        mxm_with(k, &a, n1, n2, &b, n3, &mut got);
        assert_eq!(
            got,
            want,
            "kernel {} differs from naive on ({n1},{n2},{n3})",
            k.name()
        );
        // Accumulate: C += A·B must equal dot-then-one-add.
        let base = rng.vec(n1 * n3, -1.0, 1.0);
        let acc_want: Vec<f64> = base.iter().zip(&want).map(|(c, d)| c + d).collect();
        let mut acc_got = base.clone();
        mxm_acc_with(k, &a, n1, n2, &b, n3, &mut acc_got);
        assert_eq!(
            acc_got,
            acc_want,
            "kernel {} acc differs on ({n1},{n2},{n3})",
            k.name()
        );
    }
}

#[test]
fn paper_shape_menu_is_bitwise_identical_across_kernels() {
    forall("paper_shapes", 0x7ab1e3, 4, |rng| {
        // The Table 3 menu: interpolation, derivative, and coarse shapes.
        for &n2 in &PAPER_DIMS[..3] {
            for &n1 in &PAPER_DIMS {
                for &n3 in &PAPER_DIMS[..3] {
                    check_shape(rng, n1, n2, n3);
                }
            }
        }
        // The two wide-C shapes of Table 3.
        check_shape(rng, 16, 14, 196);
        check_shape(rng, 16, 16, 256);
    });
}

#[test]
fn remainder_lanes_are_bitwise_identical() {
    // n3 sweeps across every SIMD block-width boundary (8/4/2/1 lanes on
    // AVX2, 2/1 on SSE2/NEON), so each remainder path is exercised.
    forall("remainder_lanes", 0x5eed1a, 2, |rng| {
        for n3 in 1..=17 {
            for &(n1, n2) in &[(5, 7), (16, 14), (3, 20), (1, 1), (2, 21)] {
                check_shape(rng, n1, n2, n3);
            }
        }
    });
}

#[test]
fn unaligned_slices_are_bitwise_identical() {
    // Offset every operand off the allocation start so SIMD loads hit
    // unaligned addresses (loadu paths); results must not change.
    forall("unaligned", 0xa11b47, 8, |rng| {
        let (n1, n2, n3) = (rng.range(1, 24), rng.range(1, 24), rng.range(1, 24));
        let (oa, ob, oc) = (rng.range(1, 4), rng.range(1, 4), rng.range(1, 4));
        let a = rng.vec(oa + n1 * n2, -1.0, 1.0);
        let b = rng.vec(ob + n2 * n3, -1.0, 1.0);
        let mut want = vec![0.0; n1 * n3];
        mxm_naive(&a[oa..], n1, n2, &b[ob..], n3, &mut want);
        for k in ORDER_PRESERVING {
            let mut got = vec![0.0; oc + n1 * n3];
            mxm_with(k, &a[oa..], n1, n2, &b[ob..], n3, &mut got[oc..]);
            assert_eq!(
                &got[oc..],
                &want[..],
                "kernel {} differs on unaligned ({n1},{n2},{n3})+({oa},{ob},{oc})",
                k.name()
            );
        }
    });
}

#[test]
fn narrow_row_blocks_are_bitwise_identical() {
    // Narrow C (n3 < 8) runs four rows of A per step on AVX2: n1 sweeps
    // whole blocks, every leftover-row count and the (36,·,·) shapes of
    // the N = 5 operators; n3 sweeps every lane split of a narrow row;
    // every operand sits at an unaligned offset, and both the
    // overwriting and the accumulating entry point are pinned.
    forall("narrow_row_blocks", 0x40b10c, 2, |rng| {
        for n1 in (1..=9).chain([36]) {
            for n2 in [4, 6] {
                for n3 in 1..=7 {
                    let (oa, ob, oc) = (rng.range(1, 4), rng.range(1, 4), rng.range(1, 4));
                    let a = rng.vec(oa + n1 * n2, -1.0, 1.0);
                    let b = rng.vec(ob + n2 * n3, -1.0, 1.0);
                    let (a, b) = (&a[oa..], &b[ob..]);
                    let mut want = vec![0.0; n1 * n3];
                    mxm_naive(a, n1, n2, b, n3, &mut want);
                    let base = rng.vec(oc + n1 * n3, -1.0, 1.0);
                    let acc_want: Vec<f64> =
                        base[oc..].iter().zip(&want).map(|(c, d)| c + d).collect();
                    for k in [MxmKernel::Simd, MxmKernel::Auto] {
                        let what = format!("{} ({n1},{n2},{n3})+({oa},{ob},{oc})", k.name());
                        let mut got = vec![f64::NAN; oc + n1 * n3];
                        mxm_with(k, a, n1, n2, b, n3, &mut got[oc..]);
                        assert_eq!(bits(&got[oc..]), bits(&want), "{what}");
                        let mut acc_got = base.clone();
                        mxm_acc_with(k, a, n1, n2, b, n3, &mut acc_got[oc..]);
                        assert_eq!(bits(&acc_got[oc..]), bits(&acc_want), "{what} acc");
                    }
                }
            }
        }
    });
}

#[test]
fn auto_dispatch_is_bitwise_identical_on_every_isa() {
    // `Auto` selects from a different table on a host without a vector
    // unit, but the result must be bitwise the same.
    forall("auto_isas", 0xba5eba11, 16, |rng| {
        let (n1, n2, n3) = (rng.range(1, 32), rng.range(1, 32), rng.range(1, 32));
        let a = rng.vec(n1 * n2, -1.0, 1.0);
        let b = rng.vec(n2 * n3, -1.0, 1.0);
        let run = |kernel| {
            let mut c = vec![0.0; n1 * n3];
            mxm_with(kernel, &a, n1, n2, &b, n3, &mut c);
            c
        };
        let scalar = run(select_kernel(SimdIsa::None, n1, n2, n3));
        let host = run(select_kernel(detected_isa(), n1, n2, n3));
        let auto = run(MxmKernel::Auto);
        assert_eq!(
            scalar,
            host,
            "({n1},{n2},{n3}) on {}",
            detected_isa().name()
        );
        assert_eq!(scalar, auto, "({n1},{n2},{n3})");
    });
}
