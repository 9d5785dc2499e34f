//! Determinism of the parallel element loops: every operator routed
//! through `sem_comm::par` must produce *bitwise identical* results for
//! any thread count. The loops only ever write disjoint per-element (or
//! per-point) ranges, and reductions combine fixed-size chunks in index
//! order, so the floating-point result is independent of how the work is
//! split across workers — this test pins that contract.

use sem_comm::par::with_threads;
use sem_linalg::rng::SplitMix64;
use sem_mesh::generators::{box2d, box3d};
use sem_ops::convect::{convect, gradient};
use sem_ops::fields::dot_weighted;
use sem_ops::filter::ElementFilter;
use sem_ops::laplace::{helmholtz_local, stiffness_local};
use sem_ops::pressure::{divergence, gradient_weak};
use sem_ops::SemOps;

const THREADS: [usize; 3] = [1, 2, 8];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Run `f` under each thread count and assert all results are bitwise
/// identical to the single-threaded one.
fn assert_bitwise_identical(label: &str, f: impl Fn() -> Vec<f64>) {
    let want = with_threads(1, &f);
    for nt in THREADS {
        let got = with_threads(nt, &f);
        assert_eq!(
            bits(&want),
            bits(&got),
            "{label}: thread count {nt} changed the result"
        );
    }
}

fn test_ops_2d() -> (SemOps, Vec<f64>) {
    let ops = SemOps::new(box2d(3, 4, [0.0, 1.0], [0.0, 2.0], false, false), 6);
    let u = SplitMix64::new(0xdef0_0001).vec(ops.n_velocity(), -1.0, 1.0);
    (ops, u)
}

#[test]
fn stiffness_bitwise_identical_across_thread_counts() {
    let (ops, u) = test_ops_2d();
    assert_bitwise_identical("stiffness_local 2d", || {
        let mut out = vec![0.0; ops.n_velocity()];
        stiffness_local(&ops, &u, &mut out);
        out
    });
    // And in 3D, where the scratch layout differs.
    let ops3 = SemOps::new(
        box3d(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [false; 3]),
        4,
    );
    let u3 = SplitMix64::new(0xdef0_0002).vec(ops3.n_velocity(), -1.0, 1.0);
    assert_bitwise_identical("stiffness_local 3d", || {
        let mut out = vec![0.0; ops3.n_velocity()];
        stiffness_local(&ops3, &u3, &mut out);
        out
    });
}

#[test]
fn helmholtz_bitwise_identical_across_thread_counts() {
    let (ops, u) = test_ops_2d();
    assert_bitwise_identical("helmholtz_local", || {
        let mut out = vec![0.0; ops.n_velocity()];
        helmholtz_local(&ops, &u, &mut out, 0.37, 2.11);
        out
    });
}

#[test]
fn filter_bitwise_identical_across_thread_counts() {
    let (ops, u) = test_ops_2d();
    let filt = ElementFilter::new(&ops, 0.25);
    assert_bitwise_identical("ElementFilter::apply", || {
        let mut v = u.clone();
        filt.apply(&ops, &mut v);
        v
    });
}

#[test]
fn gradient_and_pressure_ops_bitwise_identical() {
    let (ops, u) = test_ops_2d();
    assert_bitwise_identical("gradient", || {
        let mut g = vec![vec![0.0; ops.n_velocity()]; 2];
        gradient(&ops, &u, &mut g);
        let mut flat = g.remove(0);
        flat.extend(g.remove(0));
        flat
    });
    let v = SplitMix64::new(0xdef0_0003).vec(ops.n_velocity(), -1.0, 1.0);
    let convected = || {
        let mut out = vec![0.0; ops.n_velocity()];
        let mut work = vec![vec![0.0; ops.n_velocity()]; 2];
        convect(&ops, &[&u, &v], &v, &mut out, &mut work);
        out
    };
    let want = with_threads(1, convected);
    for nt in [2, 3] {
        assert_eq!(
            bits(&want),
            bits(&with_threads(nt, convected)),
            "convect: thread count {nt} changed the result"
        );
    }
    assert_bitwise_identical("divergence", || {
        let mut d = vec![0.0; ops.n_pressure()];
        divergence(&ops, &[&u, &v], &mut d);
        d
    });
    let p = SplitMix64::new(0xdef0_0004).vec(ops.n_pressure(), -1.0, 1.0);
    assert_bitwise_identical("gradient_weak", || {
        let mut dtp = vec![vec![0.0; ops.n_velocity()]; 2];
        gradient_weak(&ops, &p, &mut dtp);
        let mut flat = dtp.remove(0);
        flat.extend(dtp.remove(0));
        flat
    });
}

#[test]
fn reductions_bitwise_identical_across_thread_counts() {
    let (ops, u) = test_ops_2d();
    let v = SplitMix64::new(0xdef0_0005).vec(ops.n_velocity(), -1.0, 1.0);
    assert_bitwise_identical("dot_weighted", || vec![dot_weighted(&ops, &u, &v)]);
}
