//! `pcg` runs its vector work as chunked parallel passes, the Jacobi
//! sweep and `rᵀz` fused into the pass that updates `x` and `r`. This
//! test keeps the staged PCG loop it replaced — every update a separate
//! serial sweep, the dot products through `sem_ops::fields`, and
//! `r = b − A x` formed by an apply even from a zero start — as its
//! oracle, and pins the new loop bitwise to it at 1, 2, 3 and 5
//! threads: the Helmholtz solve, the pressure solve with the Schwarz
//! method and mean removal, and the pressure solve's Jacobi rung.

use sem_comm::par::with_threads;
use sem_linalg::rng::SplitMix64;
use sem_mesh::generators::box2d;
use sem_ops::fields::{dot_pressure, dot_weighted};
use sem_ops::laplace::{helmholtz, mass_local};
use sem_ops::pressure::EOperator;
use sem_ops::SemOps;
use sem_solvers::cg::{pcg, CgBreakdown, CgOptions, CgResult, Precond};
use sem_solvers::jacobi::{stiffness_diagonal, HelmholtzSolver};
use sem_solvers::schwarz::{SchwarzConfig, SchwarzPrecond};

const THREADS: [usize; 4] = [1, 2, 3, 5];

/// The staged PCG loop the fused one replaced.
fn staged_pcg(
    x: &mut [f64],
    b: &[f64],
    mut apply_a: impl FnMut(&[f64], &mut [f64]),
    mut precond: impl FnMut(&[f64], &mut [f64]),
    mut dot: impl FnMut(&[f64], &[f64]) -> f64,
    mut project: impl FnMut(&mut [f64]),
    opts: &CgOptions,
) -> CgResult {
    let n = x.len();
    let (mut r, mut z, mut p, mut ap) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    apply_a(x, &mut ap);
    for i in 0..n {
        r[i] = b[i] - ap[i];
    }
    project(&mut r);
    precond(&r, &mut z);
    project(&mut z);
    let mut rz = dot(&r, &z);
    let initial_residual = rz.abs().sqrt();
    let mut res = CgResult {
        iterations: 0,
        residual: initial_residual,
        initial_residual,
        converged: initial_residual <= opts.tol,
        breakdown: None,
    };
    if res.converged {
        return res;
    }
    if rz < 0.0 || rz.is_nan() {
        res.breakdown = Some(CgBreakdown::IndefinitePreconditioner(rz));
        return res;
    }
    p.copy_from_slice(&z);
    for it in 1..=opts.max_iter {
        apply_a(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 || pap.is_nan() {
            res.iterations = it - 1;
            res.breakdown = Some(CgBreakdown::IndefiniteOperator(pap));
            break;
        }
        let alpha = rz / pap;
        for (xi, pi) in x.iter_mut().zip(&p) {
            *xi += alpha * pi;
        }
        for (ri, api) in r.iter_mut().zip(&ap) {
            *ri += -alpha * api;
        }
        project(&mut r);
        precond(&r, &mut z);
        project(&mut z);
        let rz_new = dot(&r, &z);
        res.residual = rz_new.abs().sqrt();
        res.iterations = it;
        if res.residual <= opts.tol {
            res.converged = true;
            break;
        }
        if rz_new < 0.0 || rz_new.is_nan() {
            res.breakdown = Some(CgBreakdown::IndefinitePreconditioner(rz_new));
            break;
        }
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }
    res
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The two results agree bit for bit.
fn assert_same(label: &str, got: (&[f64], &CgResult), want: (&[f64], &CgResult)) {
    let (gx, g) = got;
    let (wx, w) = want;
    assert!(w.converged && w.iterations > 2, "{label}: oracle {w:?}");
    assert_eq!(g.iterations, w.iterations, "{label}: iterations");
    assert_eq!(
        g.residual.to_bits(),
        w.residual.to_bits(),
        "{label}: residual"
    );
    assert_eq!(
        g.initial_residual.to_bits(),
        w.initial_residual.to_bits(),
        "{label}: initial residual"
    );
    assert_eq!(
        (g.converged, g.breakdown),
        (w.converged, w.breakdown),
        "{label}"
    );
    assert_eq!(bits(gx), bits(wx), "{label}: solution");
}

/// 143 elements of order 7: velocity vectors span three 4096-term
/// chunks and pressure vectors two, and neither the element count nor
/// the chunk count divides by every thread count.
fn ops() -> SemOps {
    SemOps::new(box2d(13, 11, [0.0, 2.0], [0.0, 1.0], true, false), 7)
}

fn mean_free(v: &mut [f64]) {
    let m: f64 = v.iter().sum::<f64>() / v.len() as f64;
    v.iter_mut().for_each(|x| *x -= m);
}

#[test]
fn helmholtz_solve_matches_the_staged_loop() {
    let ops = ops();
    let n = ops.n_velocity();
    let (h1, h2) = (0.05, 20.0);
    let opts = CgOptions {
        tol: 1e-10,
        max_iter: 1000,
    };
    let solver = HelmholtzSolver::new(&ops, h1, h2, opts);
    // The solver's Jacobi diagonal, built as `HelmholtzSolver::new` does.
    let mut diag = stiffness_diagonal(&ops);
    for (d, &bm) in diag.iter_mut().zip(&ops.geo.bm) {
        *d = h1 * *d + h2 * bm;
    }
    ops.dssum(&mut diag);
    for (d, &m) in diag.iter_mut().zip(&ops.mask) {
        if m == 0.0 {
            *d = 1.0;
        }
    }
    let mut rng = SplitMix64::new(0xc6_0001);
    let f = rng.vec(n, -1.0, 1.0);
    let mut b = vec![0.0; n];
    mass_local(&ops, &f, &mut b);
    ops.dssum_mask(&mut b);
    // A warm start (as the velocity solves take) and a zero start.
    let mut warm = rng.vec(n, -0.1, 0.1);
    ops.dssum_mask(&mut warm);
    ops.gs.gs_avg(&mut warm);
    for (start, x0) in [("warm", warm), ("zero", vec![0.0; n])] {
        let mut want_x = x0.clone();
        let want = with_threads(1, || {
            staged_pcg(
                &mut want_x,
                &b,
                |p, ap| helmholtz(&ops, p, ap, h1, h2),
                |r, z| {
                    for ((zi, ri), di) in z.iter_mut().zip(r).zip(&diag) {
                        *zi = ri / di;
                    }
                },
                |u, v| dot_weighted(&ops, u, v),
                |_| {},
                &opts,
            )
        });
        for nt in THREADS {
            let mut x = x0.clone();
            let got = with_threads(nt, || solver.solve(&ops, &mut x, &b));
            let label = format!("helmholtz {start} start, {nt} threads");
            assert_same(&label, (&x, &got), (&want_x, &want));
        }
    }
}

/// The pressure system of the solver's second stage: a mean-free
/// right-hand side, a zero start, `E`, and the plain dot product.
fn pressure_case(ops: &SemOps) -> (EOperator, Vec<f64>, CgOptions) {
    let mut g = SplitMix64::new(0xc6_0002).vec(ops.n_pressure(), -1.0, 1.0);
    mean_free(&mut g);
    let opts = CgOptions {
        tol: 1e-8,
        max_iter: 2000,
    };
    (EOperator::new(ops), g, opts)
}

#[test]
fn schwarz_pressure_solve_with_mean_removal_matches_the_staged_loop() {
    let ops = ops();
    let schwarz = SchwarzPrecond::new(&ops, SchwarzConfig::default());
    let (mut e, g, opts) = pressure_case(&ops);
    let np = ops.n_pressure();
    let mut want_x = vec![0.0; np];
    let want = with_threads(1, || {
        staged_pcg(
            &mut want_x,
            &g,
            |q, eq| e.apply(&ops, q, eq),
            |r, z| schwarz.apply(r, z),
            |u, v| dot_pressure(&ops, u, v),
            mean_free,
            &opts,
        )
    });
    for nt in THREADS {
        let mut x = vec![0.0; np];
        let got = with_threads(nt, || {
            pcg(
                &mut x,
                &g,
                |q, eq| e.apply(&ops, q, eq),
                Precond::Apply(&mut |r, z| schwarz.apply(r, z)),
                None,
                Some(&mut mean_free),
                &opts,
            )
        });
        let label = format!("schwarz pressure, {nt} threads");
        assert_same(&label, (&x, &got), (&want_x, &want));
    }
}

#[test]
fn jacobi_rung_pressure_solve_matches_the_staged_loop() {
    // The rung is a diagonal preconditioner beside the mean-removal hook,
    // so its sweep runs between the hook's calls, not fused. Any positive
    // diagonal exercises that path; this one scales like `diag(E)`
    // (inverse pressure mass) without probing `E` once per node.
    let ops = ops();
    let (mut e, g, opts) = pressure_case(&ops);
    let np = ops.n_pressure();
    let diag: Vec<f64> = ops.jw_gauss.iter().map(|w| 1.0 / w).collect();
    let mut want_x = vec![0.0; np];
    let want = with_threads(1, || {
        staged_pcg(
            &mut want_x,
            &g,
            |q, eq| e.apply(&ops, q, eq),
            |r, z| {
                for i in 0..r.len() {
                    z[i] = r[i] / diag[i];
                }
            },
            |u, v| dot_pressure(&ops, u, v),
            mean_free,
            &opts,
        )
    });
    for nt in THREADS {
        let mut x = vec![0.0; np];
        let got = with_threads(nt, || {
            pcg(
                &mut x,
                &g,
                |q, eq| e.apply(&ops, q, eq),
                Precond::Diagonal(&diag),
                None,
                Some(&mut mean_free),
                &opts,
            )
        });
        let label = format!("jacobi rung, {nt} threads");
        assert_same(&label, (&x, &got), (&want_x, &want));
    }
}
