//! Quickstart: the spectral element method in five acts.
//!
//! 1. build a mesh and a discretization,
//! 2. solve a Poisson problem with Jacobi-PCG (exponential convergence),
//! 3. solve the consistent-Poisson pressure operator with the full
//!    Schwarz/FDM + coarse-grid machinery,
//! 4. run a few steps of the Navier–Stokes solver on a decaying
//!    Taylor–Green vortex and check the analytic decay,
//! 5. print the instrumented flop count: the sum of the NS steps'
//!    `StepStats::flops`, the one flop account (the `mxm` products, as
//!    metered by `sem_obs::Counter::MxmFlops`; pointwise work is not in
//!    it). The account counts only while metrics are on.
//!
//! Run with: `cargo run --release --example quickstart`

use terasem::mesh::generators::box2d;
use terasem::ns::{ConvectionScheme, NsConfig, NsSolver};
use terasem::ops::fields::{eval_on_nodes, norm_l2};
use terasem::ops::laplace::mass_local;
use terasem::ops::SemOps;
use terasem::solvers::cg::CgOptions;
use terasem::solvers::jacobi::HelmholtzSolver;
use terasem::solvers::PressureSolver;

fn main() {
    let pi = std::f64::consts::PI;

    // --- 1. discretize [0,1]² with 4×4 elements of order N = 8 ---------
    let mesh = box2d(4, 4, [0.0, 1.0], [0.0, 1.0], false, false);
    let ops = SemOps::new(mesh, 8);
    println!(
        "discretization: K = {} elements, N = {}, {} unique velocity dofs",
        ops.k(),
        ops.geo.n,
        ops.num.n_global
    );

    // --- 2. Poisson: −Δu = f, u = sin(πx)sin(πy) ------------------------
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
            tol: 1e-12,
            ..Default::default()
        },
    );
    let mut u = vec![0.0; ops.n_velocity()];
    let res = solver.solve(&ops, &mut u, &b);
    let err = u
        .iter()
        .zip(u_exact.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    println!(
        "Poisson solve: {} CG iterations, max error {err:.2e} (spectral accuracy)",
        res.iterations
    );

    // --- 3. the pressure operator with the production preconditioner ----
    let mut psolver = PressureSolver::new(
        &ops,
        8,
        CgOptions {
            tol: 1e-9,
            ..Default::default()
        },
    );
    let mut g: Vec<f64> = (0..ops.n_pressure())
        .map(|i| (i as f64 * 0.13).sin())
        .collect();
    let m = g.iter().sum::<f64>() / g.len() as f64;
    g.iter_mut().for_each(|v| *v -= m);
    let mut p = vec![0.0; ops.n_pressure()];
    let stats = psolver.solve(&ops, &mut p, &mut g);
    println!(
        "consistent-Poisson solve (Schwarz/FDM + coarse grid): {} iterations",
        stats.iterations
    );

    // --- 4. Navier–Stokes: decaying Taylor–Green vortex -----------------
    let nu = 0.05;
    let mesh = box2d(2, 2, [0.0, 2.0 * pi], [0.0, 2.0 * pi], true, true);
    let ops = SemOps::new(mesh, 8);
    let cfg = NsConfig {
        dt: 2e-3,
        nu,
        convection: ConvectionScheme::Oifs,
        pressure_lmax: 8,
        ..Default::default()
    };
    let mut ns = NsSolver::new(ops, cfg);
    ns.set_velocity(|x, y, _| [x.sin() * y.cos(), -x.cos() * y.sin(), 0.0]);
    sem_obs::set_enabled(true);
    let mut flops = 0;
    for _ in 0..25 {
        flops += ns.step().unwrap().flops;
    }
    let decay = (-2.0 * nu * ns.time).exp();
    let mut du = ns.vel[0].clone();
    for i in 0..ns.ops.n_velocity() {
        du[i] -= ns.ops.geo.x[i].sin() * ns.ops.geo.y[i].cos() * decay;
    }
    println!(
        "Taylor–Green after {} steps (t = {:.3}): analytic-decay error {:.2e}",
        ns.step_index,
        ns.time,
        norm_l2(&ns.ops, &du)
    );

    // --- 5. instrumentation ---------------------------------------------
    println!(
        "instrumented flop count for the NS run: {:.1} Mflop",
        flops as f64 / 1e6
    );
}
