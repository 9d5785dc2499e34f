//! Microbench of the full Navier–Stokes step, with the DESIGN.md
//! ablations:
//!
//! * `ablation_convection`: EXT2 vs OIFS cost per step (OIFS pays
//!   subintegration to buy CFL 1–5, i.e. fewer Stokes solves per unit
//!   time);
//! * `ablation_pressure`: the Schwarz+coarse pressure solve with and
//!   without successive-RHS projection (`L = 10` vs `L = 0`) inside a
//!   real step sequence.
//!
//! Runs on the in-repo harness ([`sem_bench::timing`]).

use sem_bench::timing::BenchGroup;
use sem_mesh::generators::box2d;
use sem_ns::{ConvectionScheme, NsConfig, NsSolver};
use sem_ops::SemOps;
use sem_solvers::cg::CgOptions;

fn taylor_green(scheme: ConvectionScheme, dt: f64) -> NsSolver {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mesh = box2d(4, 4, [0.0, two_pi], [0.0, two_pi], true, true);
    let ops = SemOps::new(mesh, 8);
    let cfg = NsConfig {
        dt,
        nu: 0.01,
        convection: scheme,
        pressure_lmax: 10,
        pressure_cg: CgOptions {
            tol: 1e-7,
            max_iter: 4000,
        },
        ..Default::default()
    };
    let mut s = NsSolver::new(ops, cfg);
    s.set_velocity(|x, y, _| [x.sin() * y.cos(), -x.cos() * y.sin(), 0.0]);
    // Warm the projection history.
    for _ in 0..3 {
        s.step().unwrap();
    }
    s
}

fn main() {
    let mut group = BenchGroup::new("ns_step");
    group.sample_size(10);
    // EXT2 at a CFL-safe dt vs OIFS at 4x that dt: same simulated time
    // per step-quad, which is the paper's actual trade.
    let mut s_ext = taylor_green(ConvectionScheme::Ext, 2e-3);
    group.bench("ablation_convection_ext2_dt", || {
        std::hint::black_box(s_ext.step().unwrap());
    });
    let mut s_oifs = taylor_green(ConvectionScheme::Oifs, 8e-3);
    group.bench("ablation_convection_oifs_4dt", || {
        std::hint::black_box(s_oifs.step().unwrap());
    });

    // Pressure preconditioning ablation inside real steps.
    let mut group = BenchGroup::new("ablation_pressure");
    group.sample_size(10);
    let mut s_full = taylor_green(ConvectionScheme::Ext, 2e-3);
    group.bench("schwarz_coarse_projection", || {
        std::hint::black_box(s_full.step().unwrap());
    });
    let two_pi = 2.0 * std::f64::consts::PI;
    let mesh = box2d(4, 4, [0.0, two_pi], [0.0, two_pi], true, true);
    let ops = SemOps::new(mesh, 8);
    let cfg = NsConfig {
        dt: 2e-3,
        nu: 0.01,
        convection: ConvectionScheme::Ext,
        pressure_lmax: 0, // no projection
        pressure_cg: CgOptions {
            tol: 1e-7,
            max_iter: 4000,
        },
        ..Default::default()
    };
    let mut s_noproj = NsSolver::new(ops, cfg);
    s_noproj.set_velocity(|x, y, _| [x.sin() * y.cos(), -x.cos() * y.sin(), 0.0]);
    for _ in 0..3 {
        s_noproj.step().unwrap();
    }
    group.bench("schwarz_coarse_no_projection", || {
        std::hint::black_box(s_noproj.step().unwrap());
    });

    // Observability overhead: the same step with the sem_obs registries
    // disabled (each probe is one relaxed atomic load — the default) vs
    // enabled (counters increment, spans read the clock). JSON emission
    // is left off in both so the comparison isolates the probe cost;
    // "off" must stay within noise of the ablation baselines above.
    let mut group = BenchGroup::new("ablation_metrics");
    group.sample_size(10);
    let mut s_off = taylor_green(ConvectionScheme::Ext, 2e-3);
    sem_obs::set_enabled(false);
    group.bench("metrics_off", || {
        std::hint::black_box(s_off.step().unwrap());
    });
    let mut s_on = taylor_green(ConvectionScheme::Ext, 2e-3);
    sem_obs::set_enabled(true);
    group.bench("metrics_on", || {
        std::hint::black_box(s_on.step().unwrap());
    });
    sem_obs::set_enabled(false);
}
