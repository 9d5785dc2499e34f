//! The fused consistent-Poisson apply (`EOperator::apply`: one `Dᵀ`
//! element pass, one multi-field exchange, one pass forming
//! `(w·mask)/B̄` on the fly before `D`) must be **bitwise identical** to
//! the staged sequence — `Dᵀ`, then per component `dssum_mask` and a
//! `/B̄` sweep, then `D` — on deformed multi-element meshes in 2D and
//! 3D, at every thread count. The oracle stages `Dᵀ` and `D` element by
//! element through separate buffers (each directional term on its own,
//! summed as `(x + y) + z`), so it pins `gradient_weak` and
//! `divergence` too; `gradient_assembled` is pinned against
//! `gradient_weak` plus a per-component `dssum`.

use sem_comm::par;
use sem_linalg::tensor::{apply_x, apply_y_2d, apply_y_3d, apply_z_3d};
use sem_mesh::generators::{annulus, bump_channel3d, AnnulusParams, BumpChannelParams};
use sem_ops::pressure::{divergence, gradient_assembled, gradient_weak, EOperator};
use sem_ops::space::{interp_from_gauss, interp_to_gauss};
use sem_ops::SemOps;

/// Graded annulus around a cylinder: curved 2D elements with Dirichlet
/// walls and a mesh that closes on itself in θ.
fn annulus_2d(n: usize) -> SemOps {
    let params = AnnulusParams {
        n_theta: 6,
        n_r: 2,
        r_inner: 1.0,
        r_outer: 2.5,
        growth: 1.3,
    };
    let (mesh, geo) = annulus(params, n);
    SemOps::with_geometry(mesh, geo)
}

/// The hairpin's bump channel at laptop size: deformed hexes, Dirichlet
/// walls and inflow, periodic in z.
fn bump_channel_3d(n: usize) -> SemOps {
    let params = BumpChannelParams {
        k: [3, 2, 2],
        l: [8.0, 2.0, 4.0],
        bump_height: 0.25,
        bump_center: [2.0, 2.0],
        bump_radius: 0.6,
        wall_growth: 0.75,
    };
    let (mesh, geo) = bump_channel3d(params, n);
    SemOps::with_geometry(mesh, geo)
}

/// `Dᵀ p` staged: per element and component, the three directional
/// terms through separate buffers, then `(x + y) + z`.
fn gradient_oracle(ops: &SemOps, p: &[f64]) -> Vec<Vec<f64>> {
    let geo = &ops.geo;
    let (dim, npts, nptsp, nx) = (geo.dim, geo.npts, ops.npts_p, geo.nx);
    let dd = dim * dim;
    let mut out = vec![vec![0.0; ops.n_velocity()]; dim];
    let (mut q, mut tjw, mut work) = (vec![0.0; npts], vec![0.0; nptsp], vec![0.0; 4 * npts]);
    let mut w = vec![vec![0.0; npts]; dim];
    let mut t = vec![vec![0.0; npts]; dim];
    for e in 0..geo.k {
        for i in 0..nptsp {
            tjw[i] = ops.jw_gauss[e * nptsp + i] * p[e * nptsp + i];
        }
        interp_from_gauss(
            dim,
            &ops.interp_vp,
            &ops.interp_vp_t,
            &tjw,
            &mut q,
            &mut work,
        );
        for (c, oc) in out.iter_mut().enumerate() {
            for i in 0..npts {
                let d = &geo.drdx[(e * npts + i) * dd..(e * npts + i + 1) * dd];
                for a in 0..dim {
                    w[a][i] = d[a * dim + c] * q[i];
                }
            }
            let oe = &mut oc[e * npts..(e + 1) * npts];
            if dim == 2 {
                apply_x(&geo.d1, nx, &w[0], &mut t[0]);
                apply_y_2d(&geo.d1t, nx, &w[1], &mut t[1]);
                for i in 0..npts {
                    oe[i] = t[0][i] + t[1][i];
                }
            } else {
                apply_x(&geo.d1, nx * nx, &w[0], &mut t[0]);
                apply_y_3d(&geo.d1t, nx, nx, &w[1], &mut t[1]);
                apply_z_3d(&geo.d1t, nx * nx, &w[2], &mut t[2]);
                for i in 0..npts {
                    oe[i] = t[0][i] + t[1][i] + t[2][i];
                }
            }
        }
    }
    out
}

/// `D u` staged: per element, each component's directional
/// derivatives through separate buffers, `Σ_c ∂u_c/∂x_c` node by node,
/// then interpolation to the Gauss grid and the `w J` weights.
fn divergence_oracle(ops: &SemOps, vel: &[Vec<f64>]) -> Vec<f64> {
    let geo = &ops.geo;
    let (dim, npts, nptsp, nx) = (geo.dim, geo.npts, ops.npts_p, geo.nx);
    let dd = dim * dim;
    let mut out = vec![0.0; ops.n_pressure()];
    let (mut divu, mut work) = (vec![0.0; npts], vec![0.0; 4 * npts]);
    let mut g = vec![vec![0.0; npts]; dim];
    for e in 0..geo.k {
        divu.fill(0.0);
        for (c, comp) in vel.iter().enumerate() {
            let ue = &comp[e * npts..(e + 1) * npts];
            if dim == 2 {
                apply_x(&geo.d1t, nx, ue, &mut g[0]);
                apply_y_2d(&geo.d1, nx, ue, &mut g[1]);
            } else {
                apply_x(&geo.d1t, nx * nx, ue, &mut g[0]);
                apply_y_3d(&geo.d1, nx, nx, ue, &mut g[1]);
                apply_z_3d(&geo.d1, nx * nx, ue, &mut g[2]);
            }
            for i in 0..npts {
                let d = &geo.drdx[(e * npts + i) * dd..(e * npts + i + 1) * dd];
                let mut acc = d[c] * g[0][i] + d[dim + c] * g[1][i];
                if dim == 3 {
                    acc += d[2 * dim + c] * g[2][i];
                }
                divu[i] += acc;
            }
        }
        let oe = &mut out[e * nptsp..(e + 1) * nptsp];
        interp_to_gauss(dim, &ops.interp_vp, &ops.interp_vp_t, &divu, oe, &mut work);
        for (o, &w) in oe.iter_mut().zip(&ops.jw_gauss[e * nptsp..(e + 1) * nptsp]) {
            *o *= w;
        }
    }
    out
}

/// The staged oracle: `E p = D B̄⁻¹ mask Σ Dᵀ p` through separate
/// passes, one exchange per component.
fn e_oracle(ops: &SemOps, p: &[f64]) -> Vec<f64> {
    let mut w = gradient_oracle(ops, p);
    for comp in w.iter_mut() {
        ops.dssum_mask(comp);
        for (v, &b) in comp.iter_mut().zip(&ops.bm_assembled) {
            *v /= b;
        }
    }
    divergence_oracle(ops, &w)
}

fn pin_bitwise(ops: &SemOps, what: &str) {
    let mut rng = sem_linalg::rng::SplitMix64::new(0xe0e0);
    let p = rng.vec(ops.n_pressure(), -1.0, 1.0);
    let vel: Vec<Vec<f64>> = (0..ops.geo.dim)
        .map(|_| rng.vec(ops.n_velocity(), -1.0, 1.0))
        .collect();
    let want = e_oracle(ops, &p);
    let want_grad = gradient_oracle(ops, &p);
    let want_div = divergence_oracle(ops, &vel);
    let mut assembled_want = want_grad.clone();
    for comp in assembled_want.iter_mut() {
        ops.dssum(comp);
    }
    let mut e = EOperator::new(ops);
    let refs: Vec<&[f64]> = vel.iter().map(Vec::as_slice).collect();
    for threads in [1usize, 2, 3] {
        let mut got = vec![f64::NAN; ops.n_pressure()];
        let mut grad = vec![vec![f64::NAN; ops.n_velocity()]; ops.geo.dim];
        let mut div = vec![f64::NAN; ops.n_pressure()];
        let mut assembled = vec![f64::NAN; ops.geo.dim * ops.n_velocity()];
        par::with_threads(threads, || {
            e.apply(ops, &p, &mut got);
            gradient_weak(ops, &p, &mut grad);
            divergence(ops, &refs, &mut div);
            gradient_assembled(ops, &p, &mut assembled);
        });
        let at = format!("{what}, {threads} threads");
        assert_eq!(want, got, "{at}: E apply vs staged oracle");
        assert_eq!(want_grad, grad, "{at}: gradient_weak vs staged Dᵀ");
        assert_eq!(want_div, div, "{at}: divergence vs staged D");
        assert_eq!(
            assembled_want.concat(),
            assembled,
            "{at}: gradient_assembled vs Dᵀ + dssum"
        );
    }
}

#[test]
fn fused_e_matches_staged_oracle_on_deformed_2d() {
    pin_bitwise(&annulus_2d(7), "annulus N=7");
    // Even order hits other remainder lanes and row blocks in mxm.
    pin_bitwise(&annulus_2d(8), "annulus N=8");
}

#[test]
fn fused_e_matches_staged_oracle_on_bump_channel_3d() {
    // N = 5 is the hairpin's order: the narrow (36,6,6) and (16,4,6)
    // products take the row-blocked mxm path on AVX2 hosts.
    pin_bitwise(&bump_channel_3d(5), "bump channel N=5");
    pin_bitwise(&bump_channel_3d(4), "bump channel N=4");
}
