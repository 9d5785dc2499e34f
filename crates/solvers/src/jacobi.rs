//! Jacobi preconditioning and the packaged Helmholtz velocity solver.
//!
//! The Helmholtz operator `H = ν A + (β₀/Δt) B` of the momentum
//! subproblems is diagonally dominant (the mass term scales as `Δt⁻¹`),
//! so Jacobi-preconditioned CG is the paper's solver of choice (§4). The
//! exact operator diagonal is assembled analytically from the geometric
//! factors, including the `G_rs` cross terms of deformed elements.

use crate::cg::{pcg, CgOptions, CgResult, Precond};
use sem_mesh::geom::split_index;
use sem_ops::laplace::helmholtz;
use sem_ops::SemOps;

/// Exact diagonal of the (unassembled) stiffness operator, element-local.
///
/// For the 2D tensor form `A = Σ_ab D_aᵀ G_ab D_b`, the diagonal entry at
/// node `(i, j)` is
/// `Σ_p G_rr(p,j) D²(p,i) + Σ_q G_ss(i,q) D²(q,j) + 2 G_rs(i,j) D(i,i) D(j,j)`
/// (3D: three squared sums plus three cross terms).
pub fn stiffness_diagonal(ops: &SemOps) -> Vec<f64> {
    let geo = &ops.geo;
    let nx = geo.nx;
    let npts = geo.npts;
    let d = &geo.d1;
    let mut diag = vec![0.0; ops.n_velocity()];
    if geo.dim == 2 {
        for e in 0..geo.k {
            let g = &geo.g[e * npts * 3..(e + 1) * npts * 3];
            for idx in 0..npts {
                let (i, j, _) = split_index(idx, nx, 2);
                let mut v = 0.0;
                for p in 0..nx {
                    let gp = g[3 * (j * nx + p)]; // G_rr at (p, j)
                    v += gp * d[(p, i)] * d[(p, i)];
                }
                for q in 0..nx {
                    let gq = g[3 * (q * nx + i) + 2]; // G_ss at (i, q)
                    v += gq * d[(q, j)] * d[(q, j)];
                }
                v += 2.0 * g[3 * idx + 1] * d[(i, i)] * d[(j, j)];
                diag[e * npts + idx] = v;
            }
        }
    } else {
        for e in 0..geo.k {
            let g = &geo.g[e * npts * 6..(e + 1) * npts * 6];
            for idx in 0..npts {
                let (i, j, k) = split_index(idx, nx, 3);
                let mut v = 0.0;
                for p in 0..nx {
                    let node = (k * nx + j) * nx + p;
                    v += g[6 * node] * d[(p, i)] * d[(p, i)]; // G_rr
                }
                for q in 0..nx {
                    let node = (k * nx + q) * nx + i;
                    v += g[6 * node + 3] * d[(q, j)] * d[(q, j)]; // G_ss
                }
                for w in 0..nx {
                    let node = (w * nx + j) * nx + i;
                    v += g[6 * node + 5] * d[(w, k)] * d[(w, k)]; // G_tt
                }
                let dii = d[(i, i)];
                let djj = d[(j, j)];
                let dkk = d[(k, k)];
                v += 2.0 * g[6 * idx + 1] * dii * djj; // G_rs
                v += 2.0 * g[6 * idx + 2] * dii * dkk; // G_rt
                v += 2.0 * g[6 * idx + 4] * djj * dkk; // G_st
                diag[e * npts + idx] = v;
            }
        }
    }
    diag
}

/// Jacobi-preconditioned CG solver for `H u = f` with fixed coefficients.
pub struct HelmholtzSolver {
    /// Assembled operator diagonal (consistent across copies).
    diag: Vec<f64>,
    h1: f64,
    h2: f64,
    /// CG options.
    pub opts: CgOptions,
}

impl HelmholtzSolver {
    /// Build for `H = h1·A + h2·B`.
    pub fn new(ops: &SemOps, h1: f64, h2: f64, opts: CgOptions) -> Self {
        let mut diag = stiffness_diagonal(ops);
        for (dv, &b) in diag.iter_mut().zip(ops.geo.bm.iter()) {
            *dv = h1 * *dv + h2 * b;
        }
        ops.dssum(&mut diag);
        // Masked (Dirichlet) rows act as identity in the preconditioner.
        for (dv, &m) in diag.iter_mut().zip(ops.mask.iter()) {
            if m == 0.0 {
                *dv = 1.0;
            }
        }
        HelmholtzSolver { diag, h1, h2, opts }
    }

    /// Coefficients `(h1, h2)` this solver was built for.
    pub fn coefficients(&self) -> (f64, f64) {
        (self.h1, self.h2)
    }

    /// Solve `H x = b` (homogeneous-Dirichlet form: `b` must already be
    /// masked/assembled, `x` holds the initial guess). The inner product
    /// is the multiplicity-weighted one (`ops.wt`), and the Jacobi sweep
    /// runs fused into CG's vector pass.
    pub fn solve(&self, ops: &SemOps, x: &mut [f64], b: &[f64]) -> CgResult {
        let (h1, h2) = (self.h1, self.h2);
        pcg(
            x,
            b,
            |p, ap| helmholtz(ops, p, ap, h1, h2),
            Precond::Diagonal(&self.diag),
            Some(&ops.wt),
            None,
            &self.opts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_gs::GsOp;
    use sem_mesh::generators::box2d;
    use sem_ops::fields::{dot_weighted, eval_on_nodes};
    use sem_ops::laplace::helmholtz_local;

    fn ops2d(k: usize, n: usize) -> SemOps {
        SemOps::new(box2d(k, k, [0.0, 1.0], [0.0, 1.0], false, false), n)
    }

    /// Extract the true assembled diagonal by applying H to unit basis
    /// vectors of a few global dofs and compare with the analytic one.
    #[test]
    fn analytic_diagonal_matches_operator() {
        let ops = ops2d(2, 4);
        let n = ops.n_velocity();
        let (h1, h2) = (1.3, 0.7);
        let solver = HelmholtzSolver::new(&ops, h1, h2, CgOptions::default());
        // Pick a handful of interior global dofs.
        let mut checked = 0;
        for gid in 0..ops.num.n_global {
            // Build the consistent unit vector for this global dof.
            let mut e: Vec<f64> = ops
                .num
                .ids
                .iter()
                .map(|&id| if id == gid { 1.0 } else { 0.0 })
                .collect();
            // Skip masked dofs (preconditioner stores 1.0 there).
            let local0 = ops.num.ids.iter().position(|&id| id == gid).unwrap();
            if ops.mask[local0] == 0.0 {
                continue;
            }
            let mut he = vec![0.0; n];
            helmholtz(&ops, &e, &mut he, h1, h2);
            // Diagonal = eᵀ H e under the weighted dot.
            let d = dot_weighted(&ops, &e, &he);
            assert!(
                (d - solver.diag[local0]).abs() < 1e-9 * (1.0 + d.abs()),
                "gid {gid}: analytic {} vs applied {d}",
                solver.diag[local0]
            );
            checked += 1;
            e.clear();
            if checked > 20 {
                break;
            }
        }
        assert!(checked > 5);
    }

    #[test]
    fn solves_poisson_with_manufactured_solution() {
        // −Δu = f on [0,1]², u = sin(πx)sin(πy), f = 2π²u, homogeneous
        // Dirichlet. H with h1=1, h2=0 is the (assembled) stiffness.
        let ops = ops2d(3, 8);
        let n = ops.n_velocity();
        let pi = std::f64::consts::PI;
        let u_exact = eval_on_nodes(&ops, |x, y, _| (pi * x).sin() * (pi * y).sin());
        // Weak RHS: B f, assembled and masked.
        let f = eval_on_nodes(&ops, |x, y, _| {
            2.0 * pi * pi * (pi * x).sin() * (pi * y).sin()
        });
        let mut bf = vec![0.0; n];
        sem_ops::laplace::mass_local(&ops, &f, &mut bf);
        ops.dssum_mask(&mut bf);
        let solver = HelmholtzSolver::new(
            &ops,
            1.0,
            0.0,
            CgOptions {
                tol: 1e-12,
                max_iter: 3000,
            },
        );
        let mut x = vec![0.0; n];
        let res = solver.solve(&ops, &mut x, &bf);
        assert!(res.converged, "{res:?}");
        let err = x
            .iter()
            .zip(u_exact.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(err < 1e-7, "max error {err}");
    }

    #[test]
    fn jacobi_beats_identity_on_helmholtz() {
        let ops = ops2d(3, 6);
        let n = ops.n_velocity();
        let (h1, h2) = (0.01, 30.0); // diffusive + strong mass shift
        let f = eval_on_nodes(&ops, |x, y, _| (3.0 * x + y).sin());
        let mut b = vec![0.0; n];
        sem_ops::laplace::mass_local(&ops, &f, &mut b);
        ops.dssum_mask(&mut b);
        let opts = CgOptions {
            tol: 1e-11,
            max_iter: 5000,
        };
        let solver = HelmholtzSolver::new(&ops, h1, h2, opts);
        let mut x1 = vec![0.0; n];
        let res_jac = solver.solve(&ops, &mut x1, &b);
        // Identity preconditioner run.
        let mut x2 = vec![0.0; n];
        let res_id = pcg(
            &mut x2,
            &b,
            |p, ap| helmholtz(&ops, p, ap, h1, h2),
            Precond::Apply(&mut |r, z| z.copy_from_slice(r)),
            Some(&ops.wt),
            None,
            &opts,
        );
        assert!(res_jac.converged && res_id.converged);
        assert!(
            res_jac.iterations <= res_id.iterations,
            "jacobi {} vs identity {}",
            res_jac.iterations,
            res_id.iterations
        );
    }

    #[test]
    fn local_and_global_helmholtz_consistency() {
        // The assembled operator is gs(local) with mask: verify on a
        // consistent field.
        let ops = ops2d(2, 4);
        let n = ops.n_velocity();
        let mut u: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) / 3.0).collect();
        ops.gs.gs(&mut u, GsOp::Add);
        let mut h_local = vec![0.0; n];
        helmholtz_local(&ops, &u, &mut h_local, 2.0, 5.0);
        ops.dssum_mask(&mut h_local);
        let mut h_global = vec![0.0; n];
        helmholtz(&ops, &u, &mut h_global, 2.0, 5.0);
        for (a, b) in h_local.iter().zip(h_global.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
