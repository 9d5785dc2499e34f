//! Preconditioned conjugate gradient iteration.
//!
//! Generic over the operator, preconditioner, and inner product so the
//! same driver serves the Jacobi-preconditioned Helmholtz solves (velocity
//! space, multiplicity-weighted dot products) and the Schwarz-
//! preconditioned consistent-Poisson solves (pressure space, plain dot
//! products, constant nullspace projected out each iteration).

use sem_linalg::vector::{axpy, xpby};

/// CG stopping/behaviour options.
#[derive(Clone, Copy, Debug)]
pub struct CgOptions {
    /// Absolute tolerance on the (preconditioned) residual norm √(rᵀz).
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tol: 1e-12,
            max_iter: 2000,
        }
    }
}

/// Cause of a PCG breakdown termination, with the offending quantity.
///
/// PCG's convergence theory requires `A` SPD (w.r.t. the chosen inner
/// product) and `M⁻¹` SPD. A non-positive curvature `pᵀAp` or a negative
/// preconditioned product `rᵀz` means one of those assumptions failed —
/// typically a NaN-contaminated field, a sign error in an assembled
/// operator, or an indefinite preconditioner — and continuing would
/// divide by (near-)zero and flood the iterate with garbage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CgBreakdown {
    /// `pᵀAp ≤ 0`: operator not positive definite on the search
    /// direction. Carries the offending `pᵀAp` value.
    IndefiniteOperator(f64),
    /// `rᵀz < 0`: preconditioner not positive definite. Carries the
    /// offending `rᵀz` value.
    IndefinitePreconditioner(f64),
}

/// CG outcome.
#[derive(Clone, Debug)]
pub struct CgResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norm √(rᵀz).
    pub residual: f64,
    /// Initial residual norm.
    pub initial_residual: f64,
    /// True if a tolerance was met (false = iteration cap or breakdown).
    pub converged: bool,
    /// Set when the iteration terminated on a breakdown guard
    /// (`converged` is always false in that case).
    pub breakdown: Option<CgBreakdown>,
}

/// Solve `A x = b` by PCG.
///
/// # Examples
///
/// Unpreconditioned CG on a small SPD tridiagonal system:
///
/// ```
/// use sem_solvers::cg::{pcg, CgOptions};
/// let n = 8;
/// let apply = |p: &[f64], ap: &mut [f64]| {
///     for i in 0..n {
///         ap[i] = 2.5 * p[i]
///             - if i > 0 { p[i - 1] } else { 0.0 }
///             - if i + 1 < n { p[i + 1] } else { 0.0 };
///     }
/// };
/// let b = vec![1.0; n];
/// let mut x = vec![0.0; n];
/// let res = pcg(
///     &mut x,
///     &b,
///     apply,
///     |r, z| z.copy_from_slice(r),                       // no preconditioner
///     |u, v| u.iter().zip(v).map(|(a, b)| a * b).sum(),  // plain dot
///     |_| {},                                            // no nullspace
///     &CgOptions { tol: 1e-12, ..Default::default() },
/// );
/// assert!(res.converged && res.iterations <= n);
/// ```
///
/// * `apply_a(p, ap)` — operator application `ap = A p`.
/// * `precond(r, z)` — preconditioner application `z = M⁻¹ r`
///   (copy for no preconditioning).
/// * `dot(u, v)` — the inner product (must make `A` self-adjoint).
/// * `project(v)` — nullspace handling hook, applied to `b`-residual and
///   iterates (e.g. mean removal for the consistent Poisson operator);
///   pass a no-op when the operator is definite.
///
/// `x` holds the initial guess on entry and the solution on exit.
#[allow(clippy::too_many_arguments)]
pub fn pcg(
    x: &mut [f64],
    b: &[f64],
    mut apply_a: impl FnMut(&[f64], &mut [f64]),
    mut precond: impl FnMut(&[f64], &mut [f64]),
    mut dot: impl FnMut(&[f64], &[f64]) -> f64,
    mut project: impl FnMut(&mut [f64]),
    opts: &CgOptions,
) -> CgResult {
    let n = x.len();
    assert_eq!(b.len(), n, "pcg: rhs length");
    let mut r = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut ap = vec![0.0; n];

    // r = b − A x.
    apply_a(x, &mut ap);
    sem_obs::counters::add(sem_obs::Counter::OperatorApplications, 1);
    for i in 0..n {
        r[i] = b[i] - ap[i];
    }
    project(&mut r);
    precond(&r, &mut z);
    project(&mut z);
    let mut rz = dot(&r, &z);
    let initial_residual = rz.abs().sqrt();
    let target = opts.tol;
    if initial_residual <= target {
        return CgResult {
            iterations: 0,
            residual: initial_residual,
            initial_residual,
            converged: true,
            breakdown: None,
        };
    }
    if rz < 0.0 || rz.is_nan() {
        // z = M⁻¹r with M⁻¹ SPD must give rᵀz ≥ 0; a negative (or NaN)
        // value on entry means the preconditioner or the residual is
        // already broken — iterating would only amplify it.
        sem_obs::counters::add(sem_obs::Counter::CgBreakdowns, 1);
        return CgResult {
            iterations: 0,
            residual: initial_residual,
            initial_residual,
            converged: false,
            breakdown: Some(CgBreakdown::IndefinitePreconditioner(rz)),
        };
    }
    p.copy_from_slice(&z);
    let mut iterations = 0;
    let mut converged = false;
    let mut breakdown = None;
    let mut residual = initial_residual;
    for it in 1..=opts.max_iter {
        apply_a(&p, &mut ap);
        sem_obs::counters::add(sem_obs::Counter::OperatorApplications, 1);
        let pap = dot(&p, &ap);
        if pap <= 0.0 || pap.is_nan() {
            // Operator not positive on this direction (indefinite
            // operator, NaN contamination, or roundoff at the nullspace
            // boundary) — stop with what we have, recording the value.
            iterations = it - 1;
            breakdown = Some(CgBreakdown::IndefiniteOperator(pap));
            sem_obs::counters::add(sem_obs::Counter::CgBreakdowns, 1);
            break;
        }
        let alpha = rz / pap;
        axpy(alpha, &p, x);
        axpy(-alpha, &ap, &mut r);
        project(&mut r);
        precond(&r, &mut z);
        project(&mut z);
        let rz_new = dot(&r, &z);
        residual = rz_new.abs().sqrt();
        iterations = it;
        // Convergence is checked before the indefiniteness guard so a
        // tiny negative rᵀz from roundoff at the tolerance floor still
        // counts as convergence, not breakdown.
        if residual <= target {
            converged = true;
            break;
        }
        if rz_new < 0.0 || rz_new.is_nan() {
            breakdown = Some(CgBreakdown::IndefinitePreconditioner(rz_new));
            sem_obs::counters::add(sem_obs::Counter::CgBreakdowns, 1);
            break;
        }
        let beta = rz_new / rz;
        rz = rz_new;
        xpby(&z, beta, &mut p);
    }
    CgResult {
        iterations,
        residual,
        initial_residual,
        converged,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_linalg::Matrix;

    fn laplacian(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        })
    }

    fn plain_dot(u: &[f64], v: &[f64]) -> f64 {
        u.iter().zip(v.iter()).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn solves_spd_system_unpreconditioned() {
        let n = 20;
        let a = laplacian(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
        let b = a.matvec(&x_true);
        let mut x = vec![0.0; n];
        let res = pcg(
            &mut x,
            &b,
            |p, ap| a.matvec_into(p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            |_| {},
            &CgOptions {
                tol: 1e-12,
                ..Default::default()
            },
        );
        assert!(res.converged);
        // CG on an n-dim SPD system converges in ≤ n steps exactly.
        assert!(res.iterations <= n);
        for (g, w) in x.iter().zip(x_true.iter()) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn jacobi_preconditioning_reduces_iterations_on_scaled_system() {
        // Badly scaled diagonal + Laplacian: Jacobi helps a lot.
        let n = 40;
        let mut a = laplacian(n);
        for i in 0..n {
            let s = 1.0 + 100.0 * (i as f64 / n as f64);
            a[(i, i)] += s;
        }
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        let b = vec![1.0; n];
        let run = |precond: bool| {
            let mut x = vec![0.0; n];
            let res = pcg(
                &mut x,
                &b,
                |p, ap| a.matvec_into(p, ap),
                |r, z| {
                    if precond {
                        for i in 0..n {
                            z[i] = r[i] / diag[i];
                        }
                    } else {
                        z.copy_from_slice(r);
                    }
                },
                plain_dot,
                |_| {},
                &CgOptions {
                    tol: 1e-10,
                    ..Default::default()
                },
            );
            assert!(res.converged);
            res.iterations
        };
        let it_plain = run(false);
        let it_jac = run(true);
        assert!(it_jac <= it_plain, "jacobi {it_jac} vs plain {it_plain}");
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian(5);
        let mut x = vec![0.0; 5];
        let res = pcg(
            &mut x,
            &[0.0; 5],
            |p, ap| a.matvec_into(p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            |_| {},
            &CgOptions::default(),
        );
        assert_eq!(res.iterations, 0);
        assert!(res.converged);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 30;
        let a = laplacian(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
        let b = a.matvec(&x_true);
        let opts = CgOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let mut cold = vec![0.0; n];
        let res_cold = pcg(
            &mut cold,
            &b,
            |p, ap| a.matvec_into(p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            |_| {},
            &opts,
        );
        // Warm start very close to the solution.
        let mut warm: Vec<f64> = x_true.iter().map(|v| v + 1e-8).collect();
        let res_warm = pcg(
            &mut warm,
            &b,
            |p, ap| a.matvec_into(p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            |_| {},
            &opts,
        );
        assert!(res_warm.iterations < res_cold.iterations);
    }

    #[test]
    fn singular_system_with_projection() {
        // Periodic 1D Laplacian: nullspace = constants. Project means.
        let n = 16;
        let mut a = laplacian(n);
        a[(0, n - 1)] = -1.0;
        a[(n - 1, 0)] = -1.0;
        // RHS orthogonal to constants.
        let b: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / n as f64).sin())
            .collect();
        let project = |v: &mut [f64]| {
            let m: f64 = v.iter().sum::<f64>() / v.len() as f64;
            v.iter_mut().for_each(|x| *x -= m);
        };
        let mut x = vec![0.0; n];
        let res = pcg(
            &mut x,
            &b,
            |p, ap| a.matvec_into(p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            project,
            &CgOptions {
                tol: 1e-11,
                ..Default::default()
            },
        );
        assert!(res.converged, "res {res:?}");
        // Verify A x = b on the mean-free complement.
        let ax = a.matvec(&x);
        for (g, w) in ax.iter().zip(b.iter()) {
            assert!((g - w).abs() < 1e-8);
        }
    }

    #[test]
    fn final_residual_is_below_the_initial_one() {
        let n = 25;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = pcg(
            &mut x,
            &b,
            |p, ap| a.matvec_into(p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            |_| {},
            &CgOptions {
                tol: 1e-10,
                ..Default::default()
            },
        );
        assert!(res.converged, "res {res:?}");
        assert!(res.residual < res.initial_residual, "res {res:?}");
    }

    #[test]
    fn indefinite_operator_breaks_down_with_recorded_pap() {
        // A = −Laplacian is negative definite: pᵀAp < 0 on the first
        // search direction. The guard must stop the iteration, leave
        // converged = false and record the offending pᵀAp.
        let n = 10;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = pcg(
            &mut x,
            &b,
            |p, ap| {
                a.matvec_into(p, ap);
                ap.iter_mut().for_each(|v| *v = -*v);
            },
            |r, z| z.copy_from_slice(r),
            plain_dot,
            |_| {},
            &CgOptions {
                tol: 1e-12,
                ..Default::default()
            },
        );
        assert!(!res.converged);
        match res.breakdown {
            Some(CgBreakdown::IndefiniteOperator(pap)) => {
                assert!(pap < 0.0, "recorded pap {pap}");
            }
            other => panic!("expected IndefiniteOperator, got {other:?}"),
        }
        // The iterate must not have been polluted by a step against
        // negative curvature.
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn indefinite_preconditioner_breaks_down_with_recorded_rz() {
        // M⁻¹ = −I gives rᵀz = −rᵀr < 0 at entry: terminate immediately
        // with the value recorded rather than iterating on garbage.
        let n = 10;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = pcg(
            &mut x,
            &b,
            |p, ap| a.matvec_into(p, ap),
            |r, z| {
                for (zi, ri) in z.iter_mut().zip(r) {
                    *zi = -ri;
                }
            },
            plain_dot,
            |_| {},
            &CgOptions {
                tol: 1e-12,
                ..Default::default()
            },
        );
        assert!(!res.converged);
        assert_eq!(res.iterations, 0);
        match res.breakdown {
            Some(CgBreakdown::IndefinitePreconditioner(rz)) => {
                assert!(rz < 0.0, "recorded rz {rz}");
            }
            other => panic!("expected IndefinitePreconditioner, got {other:?}"),
        }
    }

    #[test]
    fn nan_rhs_terminates_as_breakdown_not_iteration_cap() {
        // A NaN anywhere in the RHS floods r and z: the guards must stop
        // at once instead of spinning max_iter times on NaN arithmetic.
        let n = 8;
        let a = laplacian(n);
        let mut b = vec![1.0; n];
        b[3] = f64::NAN;
        let mut x = vec![0.0; n];
        let res = pcg(
            &mut x,
            &b,
            |p, ap| a.matvec_into(p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            |_| {},
            &CgOptions {
                tol: 1e-12,
                max_iter: 500,
            },
        );
        assert!(!res.converged);
        assert!(res.breakdown.is_some(), "NaN must trip a breakdown guard");
        assert!(res.iterations <= 1, "stopped at iteration {}", res.iterations);
    }

    #[test]
    fn successful_solves_report_no_breakdown() {
        let n = 12;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = pcg(
            &mut x,
            &b,
            |p, ap| a.matvec_into(p, ap),
            |r, z| z.copy_from_slice(r),
            plain_dot,
            |_| {},
            &CgOptions::default(),
        );
        assert!(res.converged);
        assert_eq!(res.breakdown, None);
    }
}
