//! Shared workload builders: the flow configurations behind the paper's
//! tables and figures, reused by the report binaries, the examples, and
//! the integration tests.

use sem_mesh::generators::{annulus, box2d, bump_channel3d, AnnulusParams, BumpChannelParams};
use sem_ns::config::Boussinesq;
use sem_ns::{ConvectionScheme, NsConfig, NsSolver};
use sem_ops::fields::norm_l2;
use sem_ops::SemOps;
use sem_solvers::cg::CgOptions;
use sem_solvers::schwarz::SchwarzConfig;
use sem_stability::OrrSommerfeld;

/// Pressure/velocity tolerances used across the experiments (absolute,
/// like the paper's ε).
pub fn solver_tolerances(eps: f64) -> (CgOptions, CgOptions) {
    (
        CgOptions {
            tol: eps,
            max_iter: 4000,
        },
        CgOptions {
            tol: eps * 1e-2,
            max_iter: 4000,
        },
    )
}

/// The Table 1 channel: plane Poiseuille flow at `Re = 7500` on
/// `[0, 2π] × [−1, 1]` with `K = 15` elements (5 × 3), periodic in x,
/// with a Tollmien–Schlichting wave of amplitude `eps_ts` superimposed.
pub fn orr_sommerfeld_channel(
    os: &OrrSommerfeld,
    n: usize,
    dt: f64,
    torder: usize,
    filter_alpha: f64,
    eps_ts: f64,
) -> NsSolver {
    let lx = 2.0 * std::f64::consts::PI / os.alpha;
    let mesh = box2d(5, 3, [0.0, lx], [-1.0, 1.0], true, false);
    let ops = SemOps::new(mesh, n);
    let (pressure_cg, helmholtz_cg) = solver_tolerances(1e-10);
    let cfg = NsConfig {
        dt,
        nu: 1.0 / os.re,
        torder,
        convection: ConvectionScheme::Oifs,
        filter_alpha,
        pressure_lmax: 20,
        pressure_cg,
        helmholtz_cg,
        schwarz: SchwarzConfig::default(),
        boussinesq: None,
        metrics: false,
        sink: None,
        rank: None,
        faults: None,
        recovery: sem_ns::RecoveryPolicy::default(),
        run: sem_ns::RunPolicy::default(),
    };
    let mut s = NsSolver::new(ops, cfg);
    // Base flow plus scaled TS eigenfunction, sampled per node through the
    // eigenfunction's barycentric interpolation.
    let geo_x: Vec<f64> = s.ops.geo.x.clone();
    let geo_y: Vec<f64> = s.ops.geo.y.clone();
    for i in 0..s.ops.n_velocity() {
        let (up, vp) = os.velocity_at(geo_x[i], geo_y[i], 0.0);
        s.vel[0][i] = sem_stability::poiseuille(geo_y[i]) + eps_ts * up;
        s.vel[1][i] = eps_ts * vp;
    }
    // No-slip walls; body force maintaining the base flow.
    let nu = 1.0 / os.re;
    s.set_forcing(Box::new(move |_, _, _, _| [2.0 * nu, 0.0, 0.0]));
    s
}

/// Perturbation amplitude of the Orr–Sommerfeld run: L² norm of
/// `u − U_base` (both components).
pub fn perturbation_amplitude(s: &NsSolver) -> f64 {
    let n = s.ops.n_velocity();
    let mut du = vec![0.0; n];
    for i in 0..n {
        du[i] = s.vel[0][i] - sem_stability::poiseuille(s.ops.geo.y[i]);
    }
    let eu = norm_l2(&s.ops, &du);
    let ev = norm_l2(&s.ops, &s.vel[1]);
    (eu * eu + ev * ev).sqrt()
}

/// The Fig. 3 shear layer: doubly periodic `[0,1]²`,
/// `u = tanh(ρ(y−¼))` / `tanh(ρ(¾−y))`, `v = 0.05 sin(2πx)`.
pub fn shear_layer(
    kelem: usize,
    n: usize,
    rho: f64,
    re: f64,
    filter_alpha: f64,
    dt: f64,
) -> NsSolver {
    let mesh = box2d(kelem, kelem, [0.0, 1.0], [0.0, 1.0], true, true);
    let ops = SemOps::new(mesh, n);
    let (pressure_cg, helmholtz_cg) = solver_tolerances(1e-8);
    let cfg = NsConfig {
        dt,
        nu: 1.0 / re,
        torder: 2,
        convection: ConvectionScheme::Oifs,
        filter_alpha,
        pressure_lmax: 20,
        pressure_cg,
        helmholtz_cg,
        schwarz: SchwarzConfig::default(),
        boussinesq: None,
        metrics: false,
        sink: None,
        rank: None,
        faults: None,
        recovery: sem_ns::RecoveryPolicy::default(),
        run: sem_ns::RunPolicy::default(),
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
    s
}

/// The Fig. 4 substitute: 2D Rayleigh–Bénard convection in a 2:1 box,
/// periodic in x, no-slip isothermal walls, nondimensionalized so
/// `ν = Pr`, `κ = 1`, buoyancy `Ra·Pr·T ŷ`.
pub fn rayleigh_benard(
    kx: usize,
    ky: usize,
    n: usize,
    ra: f64,
    pr: f64,
    lmax: usize,
    dt: f64,
    pressure_tol: f64,
) -> NsSolver {
    let mesh = box2d(kx, ky, [0.0, 2.0], [0.0, 1.0], true, false);
    let ops = SemOps::new(mesh, n);
    let (_, helmholtz_cg) = solver_tolerances(1e-9);
    let cfg = NsConfig {
        dt,
        nu: pr,
        torder: 2,
        convection: ConvectionScheme::Ext,
        filter_alpha: 0.05,
        pressure_lmax: lmax,
        pressure_cg: CgOptions {
            tol: pressure_tol,
            max_iter: 4000,
        },
        helmholtz_cg,
        schwarz: SchwarzConfig::default(),
        boussinesq: Some(Boussinesq {
            g_beta: [0.0, ra * pr, 0.0],
            kappa: 1.0,
        }),
        metrics: false,
        sink: None,
        rank: None,
        faults: None,
        recovery: sem_ns::RecoveryPolicy::default(),
        run: sem_ns::RunPolicy::default(),
    };
    let mut s = NsSolver::new(ops, cfg);
    // Conduction profile + small perturbation to trigger convection.
    s.set_temperature(|x, y, _| {
        (1.0 - y) + 0.01 * (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin()
    });
    s.set_temp_bc(Box::new(|_, y, _, _| if y > 0.5 { 0.0 } else { 1.0 }));
    s
}

/// The Table 2 problem: impulsively started flow past a cylinder at
/// `Re_D = 5000` on the annulus mesh family.
pub fn cylinder_startup(
    params: AnnulusParams,
    n: usize,
    schwarz: SchwarzConfig,
    dt: f64,
    eps: f64,
) -> NsSolver {
    let (mesh, geo) = annulus(params, n);
    let ops = SemOps::with_geometry(mesh, geo);
    let d = 2.0 * params.r_inner;
    let nu = d / 5000.0; // U = 1, Re_D = 5000
    let (_, helmholtz_cg) = solver_tolerances(1e-8);
    let cfg = NsConfig {
        dt,
        nu,
        torder: 2,
        convection: ConvectionScheme::Oifs,
        filter_alpha: 0.1,
        pressure_lmax: 0, // Table 2 isolates the preconditioner
        pressure_cg: CgOptions {
            tol: eps,
            max_iter: 8000,
        },
        helmholtz_cg,
        schwarz,
        boussinesq: None,
        metrics: false,
        sink: None,
        rank: None,
        faults: None,
        recovery: sem_ns::RecoveryPolicy::default(),
        run: sem_ns::RunPolicy::default(),
    };
    let mut s = NsSolver::new(ops, cfg);
    let ri = params.r_inner;
    // Impulsive start: uniform stream, zero on the cylinder.
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
            [0.0, 0.0, 0.0] // cylinder wall
        } else {
            [1.0, 0.0, 0.0] // far field
        }
    }));
    s
}

/// The Fig. 8 substitute: 3D boundary-layer channel with a Gaussian bump
/// (deformed hexes), impulsively started Blasius-like profile.
pub fn hairpin_channel(k: [usize; 3], n: usize, dt: f64, lmax: usize) -> NsSolver {
    let params = BumpChannelParams {
        k,
        l: [8.0, 2.0, 4.0],
        bump_height: 0.25,
        bump_center: [2.0, 2.0],
        bump_radius: 0.6,
        wall_growth: 0.75,
    };
    let (mesh, geo) = bump_channel3d(params, n);
    let ops = SemOps::with_geometry(mesh, geo);
    let (pressure_cg, helmholtz_cg) = solver_tolerances(1e-6);
    let cfg = NsConfig {
        dt,
        nu: 1.0 / 1600.0, // the paper's benchmark Re
        torder: 2,
        convection: ConvectionScheme::Oifs,
        filter_alpha: 0.1,
        pressure_lmax: lmax,
        pressure_cg,
        helmholtz_cg,
        schwarz: SchwarzConfig {
            overlap: 0, // 3D exchange substitution (DESIGN.md)
            ..Default::default()
        },
        boussinesq: None,
        metrics: false,
        sink: None,
        rank: None,
        faults: None,
        recovery: sem_ns::RecoveryPolicy::default(),
        run: sem_ns::RunPolicy::default(),
    };
    let delta = 0.5;
    let profile = move |y: f64| (1.0 - (-y / delta).exp()).clamp(0.0, 1.0);
    // Wall surface height (the Gaussian bump lifts the bottom wall).
    let amp = params.bump_height * params.l[1];
    let (cx, cz) = (params.bump_center[0], params.bump_center[1]);
    let rad2 = params.bump_radius * params.bump_radius;
    let wall_height =
        move |x: f64, z: f64| amp * (-((x - cx).powi(2) + (z - cz).powi(2)) / rad2).exp();
    let mut s = NsSolver::new(ops, cfg);
    s.set_velocity(move |x, y, z| {
        let yw = wall_height(x, z);
        [profile((y - yw).max(0.0)), 0.0, 0.0]
    });
    s.set_bc(Box::new(move |x, y, z, _| {
        if y <= wall_height(x, z) + 1e-9 {
            [0.0, 0.0, 0.0] // bottom wall, bump surface included
        } else {
            [profile((y - wall_height(x, z)).max(0.0)), 0.0, 0.0]
        }
    }));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shear_layer_initial_condition_matches_paper() {
        let s = shear_layer(4, 5, 30.0, 1e4, 0.3, 0.002);
        // Check u at a node with y < 0.5.
        for i in 0..s.ops.n_velocity() {
            let (x, y) = (s.ops.geo.x[i], s.ops.geo.y[i]);
            let want_u = if y <= 0.5 {
                (30.0 * (y - 0.25)).tanh()
            } else {
                (30.0 * (0.75 - y)).tanh()
            };
            assert!((s.vel[0][i] - want_u).abs() < 1e-12);
            let want_v = 0.05 * (2.0 * std::f64::consts::PI * x).sin();
            assert!((s.vel[1][i] - want_v).abs() < 1e-12);
        }
    }

    #[test]
    fn rayleigh_benard_builds_and_steps() {
        let mut s = rayleigh_benard(4, 2, 4, 5e4, 0.71, 8, 2e-4, 1e-7);
        let st = s.step().unwrap();
        assert!(st.pressure_iters > 0);
        assert!(st.temp_iters > 0);
    }

    #[test]
    fn cylinder_startup_builds() {
        let p = AnnulusParams {
            n_theta: 12,
            n_r: 2,
            r_inner: 0.5,
            r_outer: 10.0,
            growth: 2.0,
        };
        let mut s = cylinder_startup(p, 4, SchwarzConfig::default(), 2e-3, 1e-5);
        let st = s.step().unwrap();
        assert!(st.pressure_iters > 0);
        assert!(st.cfl.is_finite());
    }

    #[test]
    fn hairpin_channel_builds_3d() {
        let mut s = hairpin_channel([4, 2, 2], 3, 2e-3, 5);
        assert_eq!(s.ops.geo.dim, 3);
        let st = s.step().unwrap();
        assert!(st.pressure_iters > 0);
        assert!(st.helmholtz_iters.len() == 3);
    }
}
