//! Cross-crate integration: elliptic solves through the `terasem` facade
//! on straight and curved meshes — poly + mesh + gs + ops + solvers
//! working together.

use terasem::linalg::rng::SplitMix64;
use terasem::mesh::generators::{annulus, box2d, AnnulusParams};
use terasem::ops::fields::{dot_pressure, eval_on_nodes};
use terasem::ops::laplace::mass_local;
use terasem::ops::pressure::EOperator;
use terasem::ops::SemOps;
use terasem::solvers::cg::{CgOptions, Precond};
use terasem::solvers::jacobi::HelmholtzSolver;
use terasem::solvers::schwarz::{LocalKind, SchwarzConfig, SchwarzPrecond};
use terasem::solvers::PressureSolver;

/// Manufactured Poisson solution with spectral accuracy on a box.
#[test]
fn poisson_spectral_convergence_under_p_refinement() {
    let pi = std::f64::consts::PI;
    let mut errs = Vec::new();
    for n in [4usize, 6, 8] {
        let mesh = box2d(2, 2, [0.0, 1.0], [0.0, 1.0], false, false);
        let ops = SemOps::new(mesh, n);
        let u_exact = eval_on_nodes(&ops, |x, y, _| (pi * x).sin() * (pi * y).sin());
        let f = eval_on_nodes(&ops, |x, y, _| {
            2.0 * pi * pi * (pi * x).sin() * (pi * y).sin()
        });
        let mut b = vec![0.0; ops.n_velocity()];
        mass_local(&ops, &f, &mut b);
        ops.dssum_mask(&mut b);
        let solver = HelmholtzSolver::new(
            &ops,
            1.0,
            0.0,
            CgOptions {
                tol: 1e-13,
                max_iter: 4000,
            },
        );
        let mut u = vec![0.0; ops.n_velocity()];
        let res = solver.solve(&ops, &mut u, &b);
        assert!(res.converged);
        let err = u
            .iter()
            .zip(u_exact.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        errs.push(err);
    }
    // Exponential convergence: each +2 in order slashes the error.
    assert!(errs[1] < errs[0] * 0.05, "{errs:?}");
    assert!(errs[2] < errs[1] * 0.05, "{errs:?}");
    assert!(errs[2] < 1e-8, "{errs:?}");
}

/// Helmholtz solve on the curved annulus mesh (deformed geometric
/// factors): manufactured solution u = x²+y² with -Δu + u = f.
#[test]
fn helmholtz_on_curved_annulus() {
    let params = AnnulusParams {
        n_theta: 12,
        n_r: 3,
        r_inner: 1.0,
        r_outer: 2.0,
        growth: 1.0,
    };
    let (mesh, geo) = annulus(params, 8);
    let ops = SemOps::with_geometry(mesh, geo);
    // u = r² = x² + y²: Δu = 4, so f = −4 + u for (−Δ + I)u = f.
    let u_exact = eval_on_nodes(&ops, |x, y, _| x * x + y * y);
    let f = eval_on_nodes(&ops, |x, y, _| -4.0 + x * x + y * y);
    let mut b = vec![0.0; ops.n_velocity()];
    mass_local(&ops, &f, &mut b);
    ops.dssum_mask(&mut b);
    // Lift the inhomogeneous boundary data.
    let mut ub = vec![0.0; ops.n_velocity()];
    terasem::ops::fields::set_dirichlet(&ops, &mut ub, |x, y, _| x * x + y * y);
    let mut hub = vec![0.0; ops.n_velocity()];
    terasem::ops::laplace::helmholtz_local(&ops, &ub, &mut hub, 1.0, 1.0);
    ops.dssum_mask(&mut hub);
    for (bi, &h) in b.iter_mut().zip(hub.iter()) {
        *bi -= h;
    }
    let solver = HelmholtzSolver::new(
        &ops,
        1.0,
        1.0,
        CgOptions {
            tol: 1e-12,
            max_iter: 4000,
        },
    );
    let mut u0 = vec![0.0; ops.n_velocity()];
    let res = solver.solve(&ops, &mut u0, &b);
    assert!(res.converged);
    let mut err = 0.0_f64;
    for i in 0..ops.n_velocity() {
        err = err.max((u0[i] + ub[i] - u_exact[i]).abs());
    }
    assert!(err < 1e-6, "max error on curved mesh: {err}");
}

/// The full pressure stack on the annulus: E + Schwarz(FDM) + coarse +
/// projection, exercised together.
#[test]
fn pressure_solver_on_annulus_with_all_components() {
    let params = AnnulusParams {
        n_theta: 12,
        n_r: 2,
        r_inner: 0.5,
        r_outer: 3.0,
        growth: 1.5,
    };
    let (mesh, geo) = annulus(params, 6);
    let ops = SemOps::with_geometry(mesh, geo);
    let np = ops.n_pressure();
    // Seeded random phases; the RHS varies slowly with t so the
    // successive-RHS projection has history to exploit.
    let phases = SplitMix64::new(0x1ea7_0003).vec(np, 0.0, std::f64::consts::TAU);
    let mk_rhs = |t: f64| -> Vec<f64> {
        let mut g: Vec<f64> = phases.iter().map(|&ph| (ph + t).sin()).collect();
        let m = g.iter().sum::<f64>() / np as f64;
        g.iter_mut().for_each(|v| *v -= m);
        g
    };
    let mut solver = PressureSolver::new(
        &ops,
        10,
        CgOptions {
            tol: 1e-8,
            max_iter: 5000,
        },
    );
    let mut iters = Vec::new();
    for step in 0..5 {
        let mut g = mk_rhs(step as f64 * 0.01);
        let g_orig = g.clone();
        let mut p = vec![0.0; np];
        let stats = solver.solve(&ops, &mut p, &mut g);
        iters.push(stats.iterations);
        // Verify the residual of the combined solution.
        let mut e = EOperator::new(&ops);
        let mut ep = vec![0.0; np];
        e.apply(&ops, &p, &mut ep);
        let resid = dot_pressure(
            &ops,
            &{
                let d: Vec<f64> = ep.iter().zip(g_orig.iter()).map(|(a, b)| a - b).collect();
                d
            },
            &{
                let d: Vec<f64> = ep.iter().zip(g_orig.iter()).map(|(a, b)| a - b).collect();
                d
            },
        )
        .sqrt();
        // The solver's CG tolerance (1e-8) is relative, so judge the
        // assembled residual relative to the RHS norm too, with slack
        // for roundoff through the Schwarz/coarse/projection stack.
        let gnorm = dot_pressure(&ops, &g_orig, &g_orig).sqrt();
        assert!(
            resid < 1e-6 * gnorm,
            "step {step}: residual {resid} (|g| = {gnorm})"
        );
    }
    // Projection benefit on the slowly varying sequence.
    assert!(
        *iters.last().unwrap() < iters[0],
        "projection not reducing iterations: {iters:?}"
    );
}

/// Schwarz preconditioner variants all solve the same system to the same
/// answer on a refined mesh family.
#[test]
fn schwarz_variants_agree_on_solution() {
    let mesh = box2d(4, 4, [0.0, 1.0], [0.0, 1.0], false, false);
    let ops = SemOps::new(mesh, 5);
    let np = ops.n_pressure();
    let mut g = SplitMix64::new(0x1ea7_0004).vec(np, -1.0, 1.0);
    let m = g.iter().sum::<f64>() / np as f64;
    g.iter_mut().for_each(|v| *v -= m);
    let mut solutions = Vec::new();
    for (overlap, local) in [
        (0usize, LocalKind::Fdm),
        (1, LocalKind::Fdm),
        (1, LocalKind::Fem),
        (2, LocalKind::Fem),
    ] {
        let cfg = SchwarzConfig {
            overlap,
            local,
            use_coarse: true,
        };
        let precond = SchwarzPrecond::new(&ops, cfg);
        let mut e = EOperator::new(&ops);
        let mut p = vec![0.0; np];
        let res = terasem::solvers::cg::pcg(
            &mut p,
            &g,
            |q, eq| e.apply(&ops, q, eq),
            Precond::Apply(&mut |r, z| precond.apply(r, z)),
            None,
            Some(&mut |v| {
                let m: f64 = v.iter().sum::<f64>() / v.len() as f64;
                v.iter_mut().for_each(|x| *x -= m);
            }),
            &CgOptions {
                tol: 1e-10,
                max_iter: 5000,
            },
        );
        assert!(res.converged, "({overlap}, {local:?})");
        solutions.push(p);
    }
    for s in &solutions[1..] {
        for (a, b) in s.iter().zip(solutions[0].iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
