//! The fused element-resident Helmholtz/Laplacian must be **bitwise
//! identical** to the unfused reference path — on genuinely deformed
//! geometry (non-constant `G_ij` with nonzero cross terms), in 2D and
//! 3D, at every thread count, on every backend. That both meter the same
//! flops is pinned in `flop_account.rs`.

use sem_comm::par;
use sem_linalg::backend::{with_backend, Backend};
use sem_ops::laplace::{
    helmholtz_local, helmholtz_local_fused, helmholtz_local_reference, stiffness_local_fused,
    stiffness_local_reference,
};
use sem_ops::SemOps;
use sem_mesh::{BcTag, Geometry, Mesh};

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

fn pin_bitwise(ops: &SemOps, h1: f64, h2: f64, what: &str) {
    let u = test_field(ops, 0xf05ed);
    let n = ops.n_velocity();
    let mut reference = vec![0.0; n];
    let mut fused = vec![f64::NAN; n];
    stiffness_local_reference(ops, &u, &mut reference);
    stiffness_local_fused(ops, &u, &mut fused);
    assert_eq!(reference, fused, "{what}: stiffness fused vs reference");
    helmholtz_local_reference(ops, &u, &mut reference, h1, h2);
    helmholtz_local_fused(ops, &u, &mut fused, h1, h2);
    assert_eq!(reference, fused, "{what}: helmholtz fused vs reference");
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
fn helmholtz_bitwise_stable_across_threads_and_backends() {
    let ops = deformed_3d(4);
    let u = test_field(&ops, 0xdef0);
    let n = ops.n_velocity();
    let (h1, h2) = (0.02, 150.0);
    let baseline = {
        let mut out = vec![0.0; n];
        par::with_threads(1, || {
            with_backend(Backend::Scalar, || {
                helmholtz_local(&ops, &u, &mut out, h1, h2);
            })
        });
        out
    };
    for threads in [2usize, 3, 5] {
        for backend in [Backend::Scalar, Backend::Simd, Backend::Auto] {
            let mut out = vec![f64::NAN; n];
            par::with_threads(threads, || {
                with_backend(backend, || {
                    helmholtz_local(&ops, &u, &mut out, h1, h2);
                })
            });
            assert_eq!(
                baseline, out,
                "threads={threads} backend={backend:?} must be bitwise stable"
            );
        }
    }
}
