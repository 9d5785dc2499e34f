//! Property-based tests of the solver layer: CG correctness on random
//! SPD systems, XXᵀ exactness under arbitrary elimination orders, and
//! projection-history algebra.
//!
//! Properties run as explicit seeded loops over [`sem_linalg::rng`]'s
//! SplitMix64 generator; a failure message prints the exact case seed.

use sem_linalg::chol::Cholesky;
use sem_linalg::rng::forall;
use sem_linalg::Matrix;
use sem_solvers::cg::{pcg, CgOptions, Precond};
use sem_solvers::projection::RhsProjection;
use sem_solvers::sparse::Csr;
use sem_solvers::xxt::{nested_dissection, XxtSolver};

const CASES: usize = 100;

fn spd_from(data: &[f64], n: usize) -> Matrix {
    let r = Matrix::from_fn(n, n, |i, j| data[(i * n + j) % data.len()] / 10.0);
    let mut a = r.transpose().matmul(&r);
    for i in 0..n {
        a[(i, i)] += 1.0;
    }
    a
}

/// CG solves arbitrary SPD systems to tolerance within n iterations
/// (exact-arithmetic bound, with slack for roundoff).
#[test]
fn cg_converges_on_spd() {
    forall("cg_converges_on_spd", 0x501e_0001, CASES, |rng| {
        let n = rng.range(2, 16);
        let data = rng.vec(64, -5.0, 5.0);
        let a = spd_from(&data, n);
        let b: Vec<f64> = (0..n).map(|i| data[i % data.len()]).collect();
        let mut x = vec![0.0; n];
        let res = pcg(
            &mut x,
            &b,
            |p, ap| a.matvec_into(p, ap),
            Precond::Apply(&mut |r, z| z.copy_from_slice(r)),
            None,
            None,
            &CgOptions {
                tol: 1e-10,
                max_iter: 10 * n + 20,
            },
        );
        assert!(res.converged);
        let ax = a.matvec(&x);
        for (g, w) in ax.iter().zip(b.iter()) {
            assert!((g - w).abs() < 1e-7 * (1.0 + w.abs()));
        }
    });
}

/// XXᵀ is an exact factorization for *any* elimination order (the
/// order only affects sparsity, never correctness).
#[test]
fn xxt_exact_for_any_order() {
    forall("xxt_exact_for_any_order", 0x501e_0002, CASES, |rng| {
        let m = rng.range(3, 8);
        let a = Csr::laplacian_5pt(m);
        let n = m * m;
        // Seeded pseudo-random permutation.
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let xxt = XxtSolver::new(&a, &order);
        let chol = Cholesky::new(&a.to_dense()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin()).collect();
        let x = xxt.solve(&b);
        let want = chol.solve(&b);
        for (g, w) in x.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-7 * (1.0 + w.abs()));
        }
    });
}

/// Nested dissection never *increases* factor nonzeros vs natural
/// order on grid graphs (the sparsity rationale of ref [24]).
#[test]
fn nd_no_denser_than_natural() {
    forall("nd_no_denser_than_natural", 0x501e_0003, CASES, |rng| {
        let m = rng.range(4, 12);
        let a = Csr::laplacian_5pt(m);
        let nat = XxtSolver::new(&a, &(0..m * m).collect::<Vec<_>>());
        let order = nested_dissection(&a.adjacency());
        let nd = XxtSolver::new(&a, &order);
        assert!(
            nd.nnz() <= nat.nnz(),
            "m={}: nd {} vs natural {}",
            m,
            nd.nnz(),
            nat.nnz()
        );
    });
}

/// Projection: after updating with (x, Ax), projecting the same RHS
/// recovers the solution with (numerically) zero residual; the stored
/// basis stays E-orthonormal under arbitrary update sequences.
#[test]
fn projection_algebra() {
    forall("projection_algebra", 0x501e_0005, CASES, |rng| {
        let n = rng.range(4, 16);
        let rounds = rng.range(1, 6);
        let data = rng.vec(96, -3.0, 3.0);
        let a = spd_from(&data, n);
        let mut proj = RhsProjection::new(n, 8);
        for r in 0..rounds {
            let x: Vec<f64> = (0..n)
                .map(|i| data[(i * 7 + r * 13) % data.len()] + (r as f64))
                .collect();
            let ax = a.matvec(&x);
            proj.update(&x, &ax);
        }
        // Basis E-orthonormality.
        // (No public accessor: verify through behaviour — project a known
        // combination and check the residual annihilates it.)
        let coeffs: Vec<f64> = (0..rounds).map(|r| 1.0 + r as f64 * 0.5).collect();
        // Build b = A(Σ c_r x_r) indirectly by re-generating the x's.
        let mut target = vec![0.0; n];
        for (r, c) in coeffs.iter().enumerate() {
            for i in 0..n {
                target[i] += c * (data[(i * 7 + r * 13) % data.len()] + r as f64);
            }
        }
        let mut b = a.matvec(&target);
        let xbar = proj.project(&mut b);
        // The perturbation residual must be (near) zero: target ∈ span.
        let rnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let scale: f64 = target.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rnorm < 1e-6 * (1.0 + scale), "residual {rnorm}");
        // And xbar solves the system.
        let ax = a.matvec(&xbar);
        let want = a.matvec(&target);
        for (g, w) in ax.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-5 * (1.0 + w.abs()));
        }
    });
}
