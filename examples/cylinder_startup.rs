//! Impulsively started flow past a cylinder (the Table 2 flow) on the
//! curved annulus mesh — deformed spectral elements, OIFS convection, and
//! the full Schwarz/FDM pressure solve in one production-style run.
//!
//! Prints per-step solver statistics and the evolving vorticity extrema
//! at the cylinder surface (the growing boundary layer / separation).
//!
//! Run with: `cargo run --release --example cylinder_startup`

use terasem::mesh::generators::{annulus, AnnulusParams};
use terasem::ns::{ConvectionScheme, NsConfig, NsSolver};
use terasem::ops::convect::vorticity_2d;
use terasem::ops::SemOps;
use terasem::solvers::cg::CgOptions;

fn main() {
    let params = AnnulusParams {
        n_theta: 24,
        n_r: 4,
        r_inner: 0.5,
        r_outer: 10.0,
        growth: 1.8,
    };
    let n = 7;
    let (mesh, geo) = annulus(params, n);
    let ops = SemOps::with_geometry(mesh, geo);
    let re_d = 5000.0;
    let nu = 2.0 * params.r_inner / re_d;
    println!(
        "cylinder startup: Re_D = {re_d}, K = {} curved elements, N = {n}, {} pressure dofs",
        ops.k(),
        ops.n_pressure()
    );
    let cfg = NsConfig {
        dt: 2e-3,
        nu,
        convection: ConvectionScheme::Oifs,
        filter_alpha: 0.1,
        pressure_lmax: 20,
        pressure_cg: CgOptions {
            tol: 1e-5,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut s = NsSolver::new(ops, cfg);
    let ri = params.r_inner;
    s.set_velocity(move |x, y, _| {
        let r = (x * x + y * y).sqrt();
        if r < ri * 1.05 {
            [0.0, 0.0, 0.0]
        } else {
            [1.0, 0.0, 0.0]
        }
    });
    s.set_bc(Box::new(move |x, y, _, _| {
        let r = (x * x + y * y).sqrt();
        if r < 2.0 * ri {
            [0.0, 0.0, 0.0]
        } else {
            [1.0, 0.0, 0.0]
        }
    }));

    println!(
        "{:>5} {:>8} {:>9} {:>9} {:>10} {:>10}",
        "step", "time", "CFL", "p-iters", "w_min", "w_max"
    );
    for step in 1..=30 {
        let st = s.step().unwrap();
        if step % 3 == 0 || step == 1 {
            let w = vorticity_2d(&s.ops, &s.vel[0], &s.vel[1]);
            // Surface vorticity: nodes on the cylinder.
            let mut wmin = f64::INFINITY;
            let mut wmax = f64::NEG_INFINITY;
            for i in 0..s.ops.n_velocity() {
                let r = (s.ops.geo.x[i].powi(2) + s.ops.geo.y[i].powi(2)).sqrt();
                if (r - ri).abs() < 1e-9 {
                    wmin = wmin.min(w[i]);
                    wmax = wmax.max(w[i]);
                }
            }
            println!(
                "{:>5} {:>8.4} {:>9.2} {:>9} {:>10.1} {:>10.1}",
                step, s.time, st.cfl, st.pressure_iters, wmin, wmax
            );
        }
    }
    println!();
    println!("the boundary layer sharpens (growing |w| at the surface) as the impulsive");
    println!("start develops — the high-aspect wall elements are exactly why Table 2's");
    println!("iteration counts grow under refinement.");
}
