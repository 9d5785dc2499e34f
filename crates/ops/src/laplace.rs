//! Mass, stiffness and Helmholtz operators (Eq. 4).
//!
//! The deformed-element Laplacian is applied as
//! `A u = Dᵀ G D u`: differentiate along each reference axis
//! (tensor contractions), combine with the diagonal geometric factors
//! `G_ij`, and apply the transposed derivatives. Work per 3D element is
//! `12(N+1)⁴ + 15(N+1)³` flops with `7(N+1)³` memory references — the
//! counts of §3. All element loops run through the deterministic
//! [`sem_comm::par`] parallel-for (the paper's dual-processor intranode
//! mode generalized to many cores; `TERASEM_THREADS` controls the count,
//! and results are bitwise identical at every thread count).
//!
//! The element kernel is element-resident: the `G` contraction runs in
//! place over the derivative buffers, and the `Dᵀ` pass writes the `x`
//! term into the output and accumulates `y` (and `z`) onto it (`dim`
//! scratch fields per worker). The Helmholtz `h1·A + h2·B` diagonal
//! shift is folded into the same per-element closure, not a second
//! whole-field sweep. Every product goes through the per-shape
//! [`sem_linalg::MxmKernel::Auto`] selection, and each accumulating
//! product adds one full dot per output element
//! (`sem_linalg::mxm::mxm_acc_with`), so the directional sums associate
//! as `(x + y) + z`: the result is bitwise equal to staging `D u`, `G D u`
//! and each `Dᵀ` term through separate buffers, the oracle that
//! `tests/fused_helmholtz.rs` keeps. The one flop account
//! (`sem_obs::Counter::MxmFlops`, metered at the `mxm` dispatch) counts
//! the products; the pointwise `G` and Helmholtz-shift work is not in it.

use crate::space::SemOps;
use sem_comm::par;
use sem_linalg::tensor::{
    apply_x, apply_y_2d, apply_y_2d_acc, apply_y_3d, apply_y_3d_acc, apply_z_3d, apply_z_3d_acc,
};
use sem_mesh::Geometry;

/// Apply the (diagonal) velocity mass matrix: `out = B u` (local,
/// unassembled).
pub fn mass_local(ops: &SemOps, u: &[f64], out: &mut [f64]) {
    assert_eq!(u.len(), ops.n_velocity(), "mass: u length");
    assert_eq!(out.len(), ops.n_velocity(), "mass: out length");
    let bm = &ops.geo.bm;
    par::par_fill(out, |i| bm[i] * u[i]);
}

/// Per-worker scratch length of the element kernel: the `G` contraction
/// runs in place and `Dᵀ` accumulates into the output, so only the
/// derivative buffers remain (2·npts in 2D, 3·npts in 3D).
fn scratch_len(geo: &Geometry) -> usize {
    geo.dim * geo.npts
}

/// Per-element Laplacian: `oe = A ue` in a single element-resident
/// pass. The `G` contraction overwrites the derivative buffers and the
/// `Dᵀ` stage writes `x` then *accumulates* `y` (and `z`) straight into
/// `oe`. `scratch` of [`scratch_len`].
fn laplace_elem(geo: &Geometry, e: usize, ue: &[f64], oe: &mut [f64], scratch: &mut [f64]) {
    let npts = geo.npts;
    let nx = geo.nx;
    if geo.dim == 2 {
        let (ur, us_) = scratch.split_at_mut(npts);
        let us = &mut us_[..npts];
        apply_x(&geo.d1t, nx, ue, ur);
        apply_y_2d(&geo.d1, nx, ue, us);
        let g = &geo.g[e * npts * 3..(e + 1) * npts * 3];
        for i in 0..npts {
            let (grr, grs, gss) = (g[3 * i], g[3 * i + 1], g[3 * i + 2]);
            let (a, b) = (ur[i], us[i]);
            ur[i] = grr * a + grs * b;
            us[i] = grs * a + gss * b;
        }
        apply_x(&geo.d1, nx, ur, oe);
        apply_y_2d_acc(&geo.d1t, nx, us, oe);
    } else {
        let (ur, rest) = scratch.split_at_mut(npts);
        let (us, ut_) = rest.split_at_mut(npts);
        let ut = &mut ut_[..npts];
        apply_x(&geo.d1t, nx * nx, ue, ur);
        apply_y_3d(&geo.d1, nx, nx, ue, us);
        apply_z_3d(&geo.d1, nx * nx, ue, ut);
        let g = &geo.g[e * npts * 6..(e + 1) * npts * 6];
        for i in 0..npts {
            let (grr, grs, grt) = (g[6 * i], g[6 * i + 1], g[6 * i + 2]);
            let (gss, gst, gtt) = (g[6 * i + 3], g[6 * i + 4], g[6 * i + 5]);
            let (a, b, c) = (ur[i], us[i], ut[i]);
            ur[i] = grr * a + grs * b + grt * c;
            us[i] = grs * a + gss * b + gst * c;
            ut[i] = grt * a + gst * b + gtt * c;
        }
        apply_x(&geo.d1, nx * nx, ur, oe);
        apply_y_3d_acc(&geo.d1t, nx, nx, us, oe);
        apply_z_3d_acc(&geo.d1t, nx * nx, ut, oe);
    }
}

fn check_field_lens(ops: &SemOps, u: &[f64], out: &[f64], what: &str) {
    assert_eq!(u.len(), ops.n_velocity(), "{what}: u length");
    assert_eq!(out.len(), ops.n_velocity(), "{what}: out length");
}

/// Apply the stiffness (Laplacian) operator: `out = A u`, local
/// (unassembled). Follow with [`SemOps::dssum_mask`] for the global
/// operator.
pub fn stiffness_local(ops: &SemOps, u: &[f64], out: &mut [f64]) {
    check_field_lens(ops, u, out, "stiffness");
    let geo = &ops.geo;
    let npts = geo.npts;
    par::par_chunks_init(
        out,
        npts,
        || vec![0.0; scratch_len(geo)],
        |scratch, e, oe| {
            laplace_elem(geo, e, &u[e * npts..(e + 1) * npts], oe, scratch);
        },
    );
}

/// Apply the Helmholtz operator `out = h1·A u + h2·B u` (local).
///
/// `h1 = ν` (viscosity), `h2 = β₀/Δt` (the BDF diagonal shift) in the
/// momentum solves of §4. The mass term is folded into the per-element
/// closure — there is no second whole-field sweep.
pub fn helmholtz_local(ops: &SemOps, u: &[f64], out: &mut [f64], h1: f64, h2: f64) {
    check_field_lens(ops, u, out, "helmholtz");
    let geo = &ops.geo;
    let npts = geo.npts;
    par::par_chunks_init(
        out,
        npts,
        || vec![0.0; scratch_len(geo)],
        |scratch, e, oe| {
            let ue = &u[e * npts..(e + 1) * npts];
            laplace_elem(geo, e, ue, oe, scratch);
            let bm = &geo.bm[e * npts..(e + 1) * npts];
            for i in 0..npts {
                oe[i] = h1 * oe[i] + h2 * bm[i] * ue[i];
            }
        },
    );
}

/// Assembled global Helmholtz: local apply + direct stiffness summation +
/// Dirichlet mask. This is the `H` of the velocity subproblems.
pub fn helmholtz(ops: &SemOps, u: &[f64], out: &mut [f64], h1: f64, h2: f64) {
    helmholtz_local(ops, u, out, h1, h2);
    ops.dssum_mask(out);
}

/// Assembled global stiffness: `A u` + dssum + mask.
pub fn stiffness(ops: &SemOps, u: &[f64], out: &mut [f64]) {
    stiffness_local(ops, u, out);
    ops.dssum_mask(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::dot_weighted;
    use sem_mesh::generators::{box2d, box3d};
    use sem_mesh::Geometry;
    use sem_mesh::Mesh;

    fn ops_2d(k: usize, n: usize) -> SemOps {
        SemOps::new(box2d(k, k, [0.0, 1.0], [0.0, 1.0], false, false), n)
    }

    #[test]
    fn stiffness_annihilates_constants_locally() {
        let ops = ops_2d(2, 6);
        let u = vec![3.5; ops.n_velocity()];
        let mut out = vec![0.0; ops.n_velocity()];
        stiffness_local(&ops, &u, &mut out);
        for v in out {
            assert!(v.abs() < 1e-9, "{v}");
        }
    }

    #[test]
    fn stiffness_energy_of_linear_field_2d() {
        // u = x on [0,1]²: ∫|∇u|² = 1. Energy = Σ wt·u·(A u assembled).
        let ops = ops_2d(3, 5);
        let u: Vec<f64> = ops.geo.x.clone();
        let mut au = vec![0.0; u.len()];
        stiffness_local(&ops, &u, &mut au);
        ops.dssum(&mut au); // no mask: u=x is not homogeneous on boundary
        let energy = dot_weighted(&ops, &u, &au);
        assert!((energy - 1.0).abs() < 1e-10, "energy {energy}");
    }

    #[test]
    fn stiffness_energy_of_product_field_2d() {
        // u = x·y: |∇u|² = x² + y², ∫ over [0,1]² = 2/3.
        let ops = ops_2d(2, 7);
        let u: Vec<f64> = ops
            .geo
            .x
            .iter()
            .zip(ops.geo.y.iter())
            .map(|(&x, &y)| x * y)
            .collect();
        let mut au = vec![0.0; u.len()];
        stiffness_local(&ops, &u, &mut au);
        ops.dssum(&mut au);
        let energy = dot_weighted(&ops, &u, &au);
        assert!((energy - 2.0 / 3.0).abs() < 1e-10, "energy {energy}");
    }

    #[test]
    fn stiffness_energy_3d() {
        // u = x + 2y + 3z on unit cube: ∫|∇u|² = 1 + 4 + 9 = 14.
        let mesh = box3d(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [false; 3]);
        let ops = SemOps::new(mesh, 4);
        let u: Vec<f64> = (0..ops.n_velocity())
            .map(|i| ops.geo.x[i] + 2.0 * ops.geo.y[i] + 3.0 * ops.geo.z[i])
            .collect();
        let mut au = vec![0.0; u.len()];
        stiffness_local(&ops, &u, &mut au);
        ops.dssum(&mut au);
        let energy = dot_weighted(&ops, &u, &au);
        assert!((energy - 14.0).abs() < 1e-9, "energy {energy}");
    }

    #[test]
    fn stiffness_energy_on_curved_element() {
        // Quarter annulus 1 ≤ ρ ≤ 2: u = x ⇒ ∫|∇u|² = area = 3π/4.
        let mesh = Mesh {
            dim: 2,
            verts: vec![[1., 0., 0.], [2., 0., 0.], [0., 1., 0.], [0., 2., 0.]],
            elems: vec![vec![0, 1, 2, 3]],
            face_bc: vec![[sem_mesh::BcTag::Dirichlet; 6]],
            periodic: [None; 3],
        };
        let geo = Geometry::with_mapping(&mesh, 10, |_, rst| {
            let rho = 1.5 + 0.5 * rst[0];
            let th = std::f64::consts::FRAC_PI_4 * (rst[1] + 1.0);
            [rho * th.cos(), rho * th.sin(), 0.0]
        });
        let ops = SemOps::with_geometry(mesh, geo);
        let u = ops.geo.x.clone();
        let mut au = vec![0.0; u.len()];
        stiffness_local(&ops, &u, &mut au);
        let energy = dot_weighted(&ops, &u, &au);
        let want = 3.0 * std::f64::consts::PI / 4.0;
        assert!((energy - want).abs() < 1e-6, "energy {energy} want {want}");
    }

    #[test]
    fn assembled_operator_is_symmetric() {
        let ops = ops_2d(2, 4);
        let n = ops.n_velocity();
        // ⟨A u, v⟩_wt = ⟨u, A v⟩_wt for masked consistent fields.
        let mk = |seed: usize| -> Vec<f64> {
            let mut v: Vec<f64> = (0..n)
                .map(|i| (((i * 31 + seed * 17) % 101) as f64 - 50.0) / 50.0)
                .collect();
            // Make consistent across copies and masked.
            ops.gs.gs(&mut v, sem_gs::GsOp::Add);
            for (x, m) in v.iter_mut().zip(ops.mask.iter()) {
                *x *= m;
            }
            v
        };
        let u = mk(1);
        let v = mk(2);
        let mut au = vec![0.0; n];
        let mut av = vec![0.0; n];
        stiffness(&ops, &u, &mut au);
        stiffness(&ops, &v, &mut av);
        let lhs = dot_weighted(&ops, &au, &v);
        let rhs = dot_weighted(&ops, &u, &av);
        assert!(
            (lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn helmholtz_reduces_to_mass_plus_stiffness() {
        let ops = ops_2d(2, 5);
        let n = ops.n_velocity();
        let u: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) / 6.0).collect();
        let (h1, h2) = (0.7, 3.0);
        let mut h = vec![0.0; n];
        helmholtz_local(&ops, &u, &mut h, h1, h2);
        let mut a = vec![0.0; n];
        stiffness_local(&ops, &u, &mut a);
        let mut b = vec![0.0; n];
        mass_local(&ops, &u, &mut b);
        for i in 0..n {
            assert!((h[i] - (h1 * a[i] + h2 * b[i])).abs() < 1e-11);
        }
    }

    #[test]
    fn mass_is_positive_diagonal() {
        let ops = ops_2d(2, 4);
        let u = vec![1.0; ops.n_velocity()];
        let mut out = vec![0.0; ops.n_velocity()];
        mass_local(&ops, &u, &mut out);
        assert!(out.iter().all(|&v| v > 0.0));
        // Total mass = area.
        let total = dot_weighted(&ops, &u, &{
            let mut o = out.clone();
            ops.dssum(&mut o);
            o
        });
        assert!((total - 1.0).abs() < 1e-10);
    }
}
