//! High-Reynolds-number shear layer roll-up (the Fig. 3 flow), with a
//! vorticity field dump for plotting.
//!
//! Demonstrates the filter-based stabilization: run once with
//! `--alpha 0.0` to watch the unfiltered scheme blow up, and with the
//! default `--alpha 0.3` for a clean roll-up. Writes
//! `shear_layer_vorticity.csv` (`x,y,omega` per node).
//!
//! Run with: `cargo run --release --example shear_layer [-- --alpha 0.3]`

use std::io::Write;
use terasem::mesh::generators::box2d;
use terasem::ns::diagnostics::kinetic_energy;
use terasem::ns::{ConvectionScheme, NsConfig, NsSolver};
use terasem::ops::convect::vorticity_2d;
use terasem::ops::SemOps;
use terasem::solvers::cg::CgOptions;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let alpha = args
        .iter()
        .position(|a| a == "--alpha")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.3);
    let rho = 30.0;
    let re = 1e5;
    let (kelem, n) = (8, 8); // n = 64 grid; bump for higher fidelity
    println!("shear layer: rho = {rho}, Re = {re:.0e}, {kelem}x{kelem} elements N = {n}, filter alpha = {alpha}");

    let mesh = box2d(kelem, kelem, [0.0, 1.0], [0.0, 1.0], true, true);
    let ops = SemOps::new(mesh, n);
    let cfg = NsConfig {
        dt: 0.002,
        nu: 1.0 / re,
        convection: ConvectionScheme::Oifs,
        filter_alpha: alpha,
        pressure_lmax: 20,
        pressure_cg: CgOptions {
            tol: 1e-8,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut s = NsSolver::new(ops, cfg);
    s.set_velocity(|x, y, _| {
        let u = if y <= 0.5 {
            (rho * (y - 0.25)).tanh()
        } else {
            (rho * (0.75 - y)).tanh()
        };
        [u, 0.05 * (2.0 * std::f64::consts::PI * x).sin(), 0.0]
    });

    let t_final = 1.0;
    let steps = (t_final / s.cfg.dt).round() as usize;
    for step in 0..steps {
        let st = s.step().unwrap();
        let ke = kinetic_energy(&s.ops, &s.vel);
        if step % 50 == 0 {
            println!(
                "t = {:.3}: KE = {ke:.5}, CFL = {:.2}, pressure iters = {}",
                s.time, st.cfl, st.pressure_iters
            );
        }
        if !ke.is_finite() || ke > 10.0 {
            println!(
                "*** BLOW-UP at t = {:.3} (run with --alpha 0.3 to stabilize) ***",
                s.time
            );
            return;
        }
    }

    let w = vorticity_2d(&s.ops, &s.vel[0], &s.vel[1]);
    let (wmin, wmax) = w
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    println!("final vorticity range: [{wmin:.2}, {wmax:.2}] (paper plots contours of ±70)");

    let path = "shear_layer_vorticity.csv";
    let mut f = std::fs::File::create(path).expect("create csv");
    writeln!(f, "x,y,omega").unwrap();
    for i in 0..s.ops.n_velocity() {
        writeln!(f, "{},{},{}", s.ops.geo.x[i], s.ops.geo.y[i], w[i]).unwrap();
    }
    println!("wrote {path} ({} nodes)", s.ops.n_velocity());
}
