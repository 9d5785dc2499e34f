//! The fused element-resident Helmholtz/Laplacian must be **bitwise
//! identical** to the staged `Dᵀ G D` oracle below — on genuinely
//! deformed geometry (non-constant `G_ij` with nonzero cross terms), in
//! 2D and 3D, and at every thread count. What it meters is pinned in
//! `flop_account.rs`.

use sem_comm::par;
use sem_linalg::tensor::{apply_x, apply_y_2d, apply_y_3d, apply_z_3d};
use sem_mesh::{BcTag, Geometry, Mesh};
use sem_ops::laplace::{helmholtz_local, stiffness_local};
use sem_ops::SemOps;

/// Quarter annulus 1 ≤ ρ ≤ 2 at order `n`: curved 2D geometry with full
/// cross-term metrics.
fn deformed_2d(n: usize) -> SemOps {
    let mesh = Mesh {
        dim: 2,
        verts: vec![[1., 0., 0.], [2., 0., 0.], [0., 1., 0.], [0., 2., 0.]],
        elems: vec![vec![0, 1, 2, 3]],
        face_bc: vec![[BcTag::Dirichlet; 6]],
        periodic: [None; 3],
    };
    let geo = Geometry::with_mapping(&mesh, n, |_, rst| {
        let rho = 1.5 + 0.5 * rst[0];
        let th = std::f64::consts::FRAC_PI_4 * (rst[1] + 1.0);
        [rho * th.cos(), rho * th.sin(), 0.0]
    });
    SemOps::with_geometry(mesh, geo)
}

/// Cylindrical-shell wedge at order `n`: a 3D deformed element
/// (radius–angle bend in x/y, linear sheared z), all six `G_ij`
/// components nonzero.
fn deformed_3d(n: usize) -> SemOps {
    let mesh = Mesh {
        dim: 3,
        verts: vec![
            [1., 0., 0.],
            [2., 0., 0.],
            [0., 1., 0.],
            [0., 2., 0.],
            [1., 0., 1.],
            [2., 0., 1.],
            [0., 1., 1.],
            [0., 2., 1.],
        ],
        elems: vec![vec![0, 1, 2, 3, 4, 5, 6, 7]],
        face_bc: vec![[BcTag::Dirichlet; 6]],
        periodic: [None; 3],
    };
    let geo = Geometry::with_mapping(&mesh, n, |_, rst| {
        let rho = 1.5 + 0.5 * rst[0];
        let th = std::f64::consts::FRAC_PI_4 * (rst[1] + 1.0);
        // Shear z by the angle so the z-metrics pick up cross terms.
        let z = 0.5 * (rst[2] + 1.0) + 0.1 * th;
        [rho * th.cos(), rho * th.sin(), z]
    });
    SemOps::with_geometry(mesh, geo)
}

fn test_field(ops: &SemOps, seed: u64) -> Vec<f64> {
    let mut rng = sem_linalg::rng::SplitMix64::new(seed);
    rng.vec(ops.n_velocity(), -1.0, 1.0)
}

/// The oracle: `A u = Dᵀ G D u` staged element by element through
/// separate buffers — `D u` per direction, `G D u` per direction, each
/// `Dᵀ` term on its own — and summed as `(x + y) + z`.
fn stiffness_oracle(ops: &SemOps, u: &[f64]) -> Vec<f64> {
    let geo = &ops.geo;
    let (npts, nx, dim) = (geo.npts, geo.nx, geo.dim);
    let ng = dim * (dim + 1) / 2;
    let mut out = vec![0.0; u.len()];
    let mut d = vec![vec![0.0; npts]; dim];
    let mut w = vec![vec![0.0; npts]; dim];
    for e in 0..geo.k {
        let ue = &u[e * npts..(e + 1) * npts];
        let g = &geo.g[e * npts * ng..(e + 1) * npts * ng];
        let oe = &mut out[e * npts..(e + 1) * npts];
        if dim == 2 {
            apply_x(&geo.d1t, nx, ue, &mut d[0]);
            apply_y_2d(&geo.d1, nx, ue, &mut d[1]);
            for i in 0..npts {
                let (grr, grs, gss) = (g[3 * i], g[3 * i + 1], g[3 * i + 2]);
                w[0][i] = grr * d[0][i] + grs * d[1][i];
                w[1][i] = grs * d[0][i] + gss * d[1][i];
            }
            // Dᵀ along x: pass the untransposed D as "axt".
            apply_x(&geo.d1, nx, &w[0], &mut d[0]);
            apply_y_2d(&geo.d1t, nx, &w[1], &mut d[1]);
            for i in 0..npts {
                oe[i] = d[0][i] + d[1][i];
            }
        } else {
            apply_x(&geo.d1t, nx * nx, ue, &mut d[0]);
            apply_y_3d(&geo.d1, nx, nx, ue, &mut d[1]);
            apply_z_3d(&geo.d1, nx * nx, ue, &mut d[2]);
            for i in 0..npts {
                let (grr, grs, grt) = (g[6 * i], g[6 * i + 1], g[6 * i + 2]);
                let (gss, gst, gtt) = (g[6 * i + 3], g[6 * i + 4], g[6 * i + 5]);
                let (a, b, c) = (d[0][i], d[1][i], d[2][i]);
                w[0][i] = grr * a + grs * b + grt * c;
                w[1][i] = grs * a + gss * b + gst * c;
                w[2][i] = grt * a + gst * b + gtt * c;
            }
            apply_x(&geo.d1, nx * nx, &w[0], &mut d[0]);
            apply_y_3d(&geo.d1t, nx, nx, &w[1], &mut d[1]);
            apply_z_3d(&geo.d1t, nx * nx, &w[2], &mut d[2]);
            for i in 0..npts {
                oe[i] = d[0][i] + d[1][i] + d[2][i];
            }
        }
    }
    out
}

fn pin_bitwise(ops: &SemOps, h1: f64, h2: f64, what: &str) {
    let u = test_field(ops, 0xf05ed);
    let n = ops.n_velocity();
    let oracle = stiffness_oracle(ops, &u);
    let mut got = vec![f64::NAN; n];
    stiffness_local(ops, &u, &mut got);
    assert_eq!(oracle, got, "{what}: stiffness vs oracle");
    let want: Vec<f64> = (0..n)
        .map(|i| h1 * oracle[i] + h2 * ops.geo.bm[i] * u[i])
        .collect();
    helmholtz_local(ops, &u, &mut got, h1, h2);
    assert_eq!(want, got, "{what}: helmholtz vs h1·A u + h2·B u");
}

#[test]
fn fused_matches_reference_on_deformed_2d() {
    pin_bitwise(&deformed_2d(9), 0.31, 17.0, "annulus N=9");
    // Even order hits different remainder lanes in the SIMD kernels.
    pin_bitwise(&deformed_2d(8), 1.0, 0.0, "annulus N=8");
}

#[test]
fn fused_matches_reference_on_deformed_3d() {
    pin_bitwise(&deformed_3d(5), 0.31, 17.0, "shell N=5");
    pin_bitwise(&deformed_3d(4), 1e-3, 250.0, "shell N=4");
}

#[test]
fn helmholtz_bitwise_stable_across_threads() {
    let ops = deformed_3d(4);
    let u = test_field(&ops, 0xdef0);
    let n = ops.n_velocity();
    let (h1, h2) = (0.02, 150.0);
    let run = |threads| {
        let mut out = vec![f64::NAN; n];
        par::with_threads(threads, || helmholtz_local(&ops, &u, &mut out, h1, h2));
        out
    };
    let baseline = run(1);
    for threads in [2usize, 3, 5] {
        assert_eq!(
            baseline,
            run(threads),
            "threads={threads} must be bitwise stable"
        );
    }
}
