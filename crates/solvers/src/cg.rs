//! Preconditioned conjugate gradient iteration.
//!
//! One solver serves the Jacobi-preconditioned Helmholtz solves
//! (velocity space, multiplicity-weighted dot products) and the Schwarz-
//! preconditioned consistent-Poisson solves (pressure space, plain dot
//! products, constant nullspace projected out each iteration).
//!
//! The vector work of an iteration runs on the threads of
//! `sem_comm::par` as chunked passes ([`par::par_chunked`]): every dot
//! product sums fixed 4096-term chunks in index order, so its bits do
//! not depend on the thread count, and the updates that feed a dot share
//! its pass, chunk by chunk. An iteration is three passes when the
//! preconditioner is diagonal and there is no nullspace hook — `pᵀAp`;
//! `x += αp`, `r −= αAp`, `z = r/d` and `rᵀz`; `p = z + βp` — and
//! otherwise the middle pass splits around the hook and the
//! preconditioner, which run on the caller in their own order.

use sem_comm::par;

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

/// The preconditioner `z = M⁻¹ r` of [`pcg`].
pub enum Precond<'a> {
    /// Diagonal (Jacobi): `z = r / d` pointwise, fused into the pass
    /// that updates `r`.
    Diagonal(&'a [f64]),
    /// A general apply `(r, z)`, run on the caller between passes.
    Apply(&'a mut dyn FnMut(&[f64], &mut [f64])),
}

/// `Σ w·u·v` (or `Σ u·v` without weights) over one chunk, in index order.
#[inline]
fn chunk_dot(w: Option<&[f64]>, u: &[f64], v: &[f64]) -> f64 {
    let mut acc = 0.0;
    match w {
        Some(w) => {
            for ((wi, ui), vi) in w.iter().zip(u).zip(v) {
                acc += wi * ui * vi;
            }
        }
        None => {
            for (ui, vi) in u.iter().zip(v) {
                acc += ui * vi;
            }
        }
    }
    acc
}

/// The inner product `Σ w·u·v` as a chunked parallel reduction: the bits
/// of `sem_ops::fields::dot_weighted` with weights, of
/// `sem_ops::fields::dot_pressure` without.
fn dot(w: Option<&[f64]>, u: &[f64], v: &[f64]) -> f64 {
    par::par_chunked(u.len(), [], |c, []| {
        chunk_dot(w.map(|w| &w[c.clone()]), &u[c.clone()], &v[c])
    })
}

/// `x += αp` and `r −= αAp` over one chunk (the CG step).
#[inline]
fn step_chunk(alpha: f64, p: &[f64], ap: &[f64], x: &mut [f64], r: &mut [f64]) {
    for (xi, pi) in x.iter_mut().zip(p) {
        *xi += alpha * pi;
    }
    for (ri, api) in r.iter_mut().zip(ap) {
        *ri += -alpha * api;
    }
}

/// Solve `A x = b` by PCG.
///
/// # Examples
///
/// Unpreconditioned CG on a small SPD tridiagonal system:
///
/// ```
/// use sem_solvers::cg::{pcg, CgOptions, Precond};
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
///     Precond::Diagonal(&vec![1.0; n]), // no preconditioning
///     None,                             // plain dot product
///     None,                             // no nullspace
///     &CgOptions { tol: 1e-12, ..Default::default() },
/// );
/// assert!(res.converged && res.iterations <= n);
/// ```
///
/// * `apply_a(p, ap)` — operator application `ap = A p`.
/// * `precond` — the preconditioner `z = M⁻¹ r` ([`Precond`]).
/// * `weight` — the inner product `Σ w·u·v`, which must make `A`
///   self-adjoint (`None`: the plain `Σ u·v`).
/// * `project(v)` — nullspace handling hook, applied to the residual and
///   the preconditioned residual (e.g. mean removal for the consistent
///   Poisson operator); `None` when the operator is definite.
///
/// `x` holds the initial guess on entry and the solution on exit. An
/// all-zero guess starts from `r = b` without applying `A`.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn pcg(
    x: &mut [f64],
    b: &[f64],
    mut apply_a: impl FnMut(&[f64], &mut [f64]),
    mut precond: Precond<'_>,
    weight: Option<&[f64]>,
    mut project: Option<&mut dyn FnMut(&mut [f64])>,
    opts: &CgOptions,
) -> CgResult {
    let n = x.len();
    assert_eq!(b.len(), n, "pcg: rhs length");
    if let Some(w) = weight {
        assert_eq!(w.len(), n, "pcg: weight length");
    }
    if let Precond::Diagonal(d) = precond {
        assert_eq!(d.len(), n, "pcg: diagonal length");
    }
    let mut r = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut ap = vec![0.0; n];

    // r = b − A x; A·0 = 0, so a zero start needs no apply.
    if x.iter().all(|&v| v == 0.0) {
        r.copy_from_slice(b);
    } else {
        apply_a(x, &mut ap);
        sem_obs::counters::add(sem_obs::Counter::OperatorApplications, 1);
        for i in 0..n {
            r[i] = b[i] - ap[i];
        }
    }
    // The diagonal's `z = r/d` joins the step's pass when no hook has to
    // run between them.
    let fused = match (&precond, &project) {
        (Precond::Diagonal(d), None) => Some(*d),
        _ => None,
    };
    // The hook, the preconditioner and the hook again: z = P M⁻¹ P r.
    let mut precondition = |r: &mut [f64], z: &mut [f64]| {
        if let Some(project) = project.as_mut() {
            project(r);
        }
        match &mut precond {
            Precond::Diagonal(d) => {
                par::par_chunked(n, [z], |c, [zc]| {
                    for ((zi, ri), di) in zc.iter_mut().zip(&r[c.clone()]).zip(&d[c]) {
                        *zi = ri / di;
                    }
                    0.0
                });
            }
            Precond::Apply(apply) => apply(r, z),
        }
        if let Some(project) = project.as_mut() {
            project(z);
        }
    };
    precondition(&mut r, &mut z);
    let mut rz = dot(weight, &r, &z);
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
        let pap = dot(weight, &p, &ap);
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
        let rz_new = match fused {
            Some(d) => par::par_chunked(n, [&mut *x, &mut r, &mut z], |c, [xc, rc, zc]| {
                step_chunk(alpha, &p[c.clone()], &ap[c.clone()], xc, rc);
                for ((zi, ri), di) in zc.iter_mut().zip(&*rc).zip(&d[c.clone()]) {
                    *zi = ri / di;
                }
                chunk_dot(weight.map(|w| &w[c]), rc, zc)
            }),
            None => {
                par::par_chunked(n, [&mut *x, &mut r], |c, [xc, rc]| {
                    step_chunk(alpha, &p[c.clone()], &ap[c], xc, rc);
                    0.0
                });
                precondition(&mut r, &mut z);
                dot(weight, &r, &z)
            }
        };
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
        par::par_chunked(n, [&mut p], |c, [pc]| {
            for (pi, zi) in pc.iter_mut().zip(&z[c]) {
                *pi = zi + beta * *pi;
            }
            0.0
        });
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
            Precond::Apply(&mut |r, z| z.copy_from_slice(r)),
            None,
            None,
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
        let ones = vec![1.0; n];
        let run = |precond: bool| {
            let mut x = vec![0.0; n];
            let res = pcg(
                &mut x,
                &b,
                |p, ap| a.matvec_into(p, ap),
                Precond::Diagonal(if precond { &diag } else { &ones }),
                None,
                None,
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
            Precond::Apply(&mut |r, z| z.copy_from_slice(r)),
            None,
            None,
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
            Precond::Apply(&mut |r, z| z.copy_from_slice(r)),
            None,
            None,
            &opts,
        );
        // Warm start very close to the solution.
        let mut warm: Vec<f64> = x_true.iter().map(|v| v + 1e-8).collect();
        let res_warm = pcg(
            &mut warm,
            &b,
            |p, ap| a.matvec_into(p, ap),
            Precond::Apply(&mut |r, z| z.copy_from_slice(r)),
            None,
            None,
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
        let mut project = |v: &mut [f64]| {
            let m: f64 = v.iter().sum::<f64>() / v.len() as f64;
            v.iter_mut().for_each(|x| *x -= m);
        };
        let mut x = vec![0.0; n];
        let res = pcg(
            &mut x,
            &b,
            |p, ap| a.matvec_into(p, ap),
            Precond::Apply(&mut |r, z| z.copy_from_slice(r)),
            None,
            Some(&mut project),
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
            Precond::Apply(&mut |r, z| z.copy_from_slice(r)),
            None,
            None,
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
            Precond::Apply(&mut |r, z| z.copy_from_slice(r)),
            None,
            None,
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
            Precond::Apply(&mut |r, z| {
                for (zi, ri) in z.iter_mut().zip(r) {
                    *zi = -ri;
                }
            }),
            None,
            None,
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
            Precond::Apply(&mut |r, z| z.copy_from_slice(r)),
            None,
            None,
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
            Precond::Apply(&mut |r, z| z.copy_from_slice(r)),
            None,
            None,
            &CgOptions::default(),
        );
        assert!(res.converged);
        assert_eq!(res.breakdown, None);
    }
}
