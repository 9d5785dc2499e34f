//! 3D boundary layer over a wall bump — the laptop-scale stand-in for the
//! paper's hairpin-vortex production run (Figs. 1, 7, 8), demonstrating
//! deformed hexahedral elements, the 3D solver stack, and VTK output for
//! visualization.
//!
//! Run with: `cargo run --release --example hairpin_bump`
//! Then open `hairpin_bump.vtk` in ParaView and look at the spanwise
//! vorticity sheet wrapping over the bump.

use terasem::mesh::generators::{bump_channel3d, BumpChannelParams};
use terasem::ns::output::write_solution_vtk;
use terasem::ns::{ConvectionScheme, NsConfig, NsSolver};
use terasem::ops::SemOps;
use terasem::solvers::cg::CgOptions;
use terasem::solvers::schwarz::SchwarzConfig;

fn main() {
    let params = BumpChannelParams {
        k: [10, 3, 4],
        l: [8.0, 2.0, 4.0],
        bump_height: 0.25,
        bump_center: [2.0, 2.0],
        bump_radius: 0.6,
        wall_growth: 0.75,
    };
    let n = 5;
    let (mesh, geo) = bump_channel3d(params, n);
    let ops = SemOps::with_geometry(mesh, geo);
    println!(
        "bump channel: K = {} deformed hexes, N = {n}, {} velocity dofs/component",
        ops.k(),
        ops.num.n_global
    );
    let cfg = NsConfig {
        dt: 4e-3,
        nu: 1.0 / 1600.0,
        convection: ConvectionScheme::Oifs,
        filter_alpha: 0.1,
        pressure_lmax: 25,
        pressure_cg: CgOptions {
            tol: 1e-6,
            ..Default::default()
        },
        schwarz: SchwarzConfig {
            overlap: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    let delta = 0.5;
    let amp = params.bump_height * params.l[1];
    let (cx, cz) = (params.bump_center[0], params.bump_center[1]);
    let rad2 = params.bump_radius * params.bump_radius;
    let wall = move |x: f64, z: f64| amp * (-((x - cx).powi(2) + (z - cz).powi(2)) / rad2).exp();
    let profile = move |y: f64| (1.0 - (-y / delta).exp()).clamp(0.0, 1.0);
    let mut s = NsSolver::new(ops, cfg);
    s.set_velocity(move |x, y, z| [profile((y - wall(x, z)).max(0.0)), 0.0, 0.0]);
    s.set_bc(Box::new(move |x, y, z, _| {
        if y <= wall(x, z) + 1e-9 {
            [0.0, 0.0, 0.0]
        } else {
            [profile((y - wall(x, z)).max(0.0)), 0.0, 0.0]
        }
    }));

    // Counters on, so each step's flops read the mxm flop account.
    sem_obs::set_enabled(true);
    for step in 1..=20 {
        let st = s.step().unwrap();
        if step % 4 == 0 || step == 1 {
            println!(
                "step {:>3}: t = {:.3}, CFL = {:.2}, pressure iters = {:>3}, {:.0} Mflop",
                step,
                s.time,
                st.cfl,
                st.pressure_iters,
                st.flops as f64 / 1e6
            );
        }
    }
    let path = "hairpin_bump.vtk";
    write_solution_vtk(&s, path).expect("write vtk");
    println!("wrote {path}");
}
