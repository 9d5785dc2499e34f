//! Physical-space gradients and the convection operator.
//!
//! The convective term is evaluated in nonconservative (advective) form
//! `(c·∇)u` pointwise on the GLL grid — this is the operator the OIFS
//! subintegration (§4) applies repeatedly inside its explicit RK stages.
//! It is split in two: [`contravariant`] folds the geometric factors into
//! the advecting field once (`C_d = Σ_c c_c ∂r_d/∂x_c`), and
//! [`convect_contravariant`] dots `C` with the reference derivatives of
//! each convected field, so fields sharing an advecting velocity share
//! the `drdx` pass. Stabilization against the aliasing this introduces
//! at high Reynolds number is exactly the job of the §2 filter.

use crate::space::SemOps;
use sem_comm::par;
use sem_linalg::tensor::{apply_x, apply_y_2d, apply_y_3d, apply_z_3d};

/// Split flat fields into per-element groups holding each field's
/// `npts`-node chunk of that element.
fn per_element(fields: &mut [Vec<f64>], npts: usize, k: usize) -> Vec<Vec<&mut [f64]>> {
    let mut per_elem: Vec<Vec<&mut [f64]>> =
        (0..k).map(|_| Vec::with_capacity(fields.len())).collect();
    for field in fields.iter_mut() {
        for (e, ch) in field.chunks_mut(npts).enumerate() {
            per_elem[e].push(ch);
        }
    }
    per_elem
}

/// The reference derivatives of element `ue` into `dr`, `ds` and (3D)
/// `dt`, the consecutive `npts`-node parts of `scratch`.
fn ref_derivatives(ops: &SemOps, ue: &[f64], scratch: &mut [f64]) {
    let (geo, nx, npts) = (&ops.geo, ops.geo.nx, ops.geo.npts);
    let (dr, rest) = scratch.split_at_mut(npts);
    let (ds, dt) = rest.split_at_mut(npts);
    if geo.dim == 2 {
        apply_x(&geo.d1t, nx, ue, dr);
        apply_y_2d(&geo.d1, nx, ue, ds);
    } else {
        apply_x(&geo.d1t, nx * nx, ue, dr);
        apply_y_3d(&geo.d1, nx, nx, ue, ds);
        apply_z_3d(&geo.d1, nx * nx, ue, dt);
    }
}

/// Physical gradient: `out[c] = ∂u/∂x_c` at every GLL node.
///
/// # Panics
/// Panics on length mismatches.
pub fn gradient(ops: &SemOps, u: &[f64], out: &mut [Vec<f64>]) {
    let dim = ops.geo.dim;
    assert_eq!(u.len(), ops.n_velocity(), "gradient: u length");
    assert_eq!(out.len(), dim, "gradient: one output per dimension");
    for c in out.iter() {
        assert_eq!(c.len(), ops.n_velocity(), "gradient: component length");
    }
    let npts = ops.geo.npts;
    let geo = &ops.geo;
    let mut per_elem = per_element(out, npts, ops.k());
    par::par_for_each_init(
        &mut per_elem,
        // One derivative buffer per direction (dt is empty in 2D).
        || vec![0.0; dim * npts],
        |scratch, e, comps| {
            ref_derivatives(ops, &u[e * npts..(e + 1) * npts], scratch);
            let (dr, rest) = scratch.split_at(npts);
            let (ds, dt) = rest.split_at(npts);
            let dd = dim * dim;
            let base = e * npts * dd;
            for (c, oc) in comps.iter_mut().enumerate() {
                for i in 0..npts {
                    let d = &geo.drdx[base + i * dd..base + (i + 1) * dd];
                    let mut acc = d[c] * dr[i] + d[dim + c] * ds[i];
                    if dim == 3 {
                        acc += d[2 * dim + c] * dt[i];
                    }
                    oc[i] = acc;
                }
            }
        },
    );
}

/// Turn an advecting field `c = [cx, cy(, cz)]` into its contravariant
/// form in place: `c_d ← C_d = Σ_c c_c ∂r_d/∂x_c` at every node, so that
/// `(c·∇)u = Σ_d C_d ∂u/∂r_d`. One pass over the geometric factors,
/// shared by every field convected with `c`.
///
/// # Panics
/// Panics on length mismatches.
pub fn contravariant(ops: &SemOps, c: &mut [Vec<f64>]) {
    let dim = ops.geo.dim;
    let n = ops.n_velocity();
    assert_eq!(c.len(), dim, "contravariant: one component per dim");
    for v in c.iter() {
        assert_eq!(v.len(), n, "contravariant: component length");
    }
    let npts = ops.geo.npts;
    let dd = dim * dim;
    let mut per_elem = per_element(c, npts, ops.k());
    par::par_for_each_init(
        &mut per_elem,
        || (),
        |_, e, comps| {
            let d = &ops.geo.drdx[e * npts * dd..(e + 1) * npts * dd];
            // Each node's components are read before any is written.
            match &mut comps[..] {
                [c0, c1] => {
                    for (i, d) in d.chunks_exact(4).enumerate() {
                        let (x, y) = (c0[i], c1[i]);
                        c0[i] = x * d[0] + y * d[1];
                        c1[i] = x * d[2] + y * d[3];
                    }
                }
                [c0, c1, c2] => {
                    for (i, d) in d.chunks_exact(9).enumerate() {
                        let (x, y, z) = (c0[i], c1[i], c2[i]);
                        c0[i] = x * d[0] + y * d[1] + z * d[2];
                        c1[i] = x * d[3] + y * d[4] + z * d[5];
                        c2[i] = x * d[6] + y * d[7] + z * d[8];
                    }
                }
                _ => unreachable!("2D or 3D"),
            }
        },
    );
}

/// Convection in contravariant form: `out = Σ_d C_d ∂u/∂r_d`, i.e.
/// `(c·∇)u` for `C` the [`contravariant`] form of `c`. Element by
/// element, the reference derivatives stay in per-element scratch and
/// are dotted with `C` directly; no physical-gradient arrays are
/// written.
///
/// # Panics
/// Panics on length mismatches.
pub fn convect_contravariant(ops: &SemOps, cc: &[Vec<f64>], u: &[f64], out: &mut [f64]) {
    let dim = ops.geo.dim;
    let n = ops.n_velocity();
    assert_eq!(
        cc.len(),
        dim,
        "convect_contravariant: one C component per dim"
    );
    assert_eq!(u.len(), n, "convect_contravariant: u length");
    assert_eq!(out.len(), n, "convect_contravariant: out length");
    let npts = ops.geo.npts;
    par::par_chunks_init(
        out,
        npts,
        || vec![0.0; dim * npts],
        |scratch, e, oe| {
            ref_derivatives(ops, &u[e * npts..(e + 1) * npts], scratch);
            let (dr, rest) = scratch.split_at(npts);
            let (ds, dt) = rest.split_at(npts);
            let nodes = e * npts..(e + 1) * npts;
            let (c0, c1) = (&cc[0][nodes.clone()], &cc[1][nodes.clone()]);
            if dim == 2 {
                for i in 0..npts {
                    oe[i] = c0[i] * dr[i] + c1[i] * ds[i];
                }
            } else {
                let c2 = &cc[2][nodes];
                for i in 0..npts {
                    oe[i] = c0[i] * dr[i] + c1[i] * ds[i] + c2[i] * dt[i];
                }
            }
        },
    );
}

/// Convection `out = (c·∇)u` with advecting field `c = [cx, cy(, cz)]`:
/// [`contravariant`] then [`convect_contravariant`].
///
/// `work` must hold `dim` velocity-space vectors (it receives `C`).
pub fn convect(ops: &SemOps, c: &[&[f64]], u: &[f64], out: &mut [f64], work: &mut [Vec<f64>]) {
    assert_eq!(
        c.len(),
        work.len(),
        "convect: one work vector per component"
    );
    for (w, ci) in work.iter_mut().zip(c) {
        w.copy_from_slice(ci);
    }
    contravariant(ops, work);
    convect_contravariant(ops, work, u, out);
}

/// Pointwise vorticity ω = ∂v/∂x − ∂u/∂y of a 2D velocity field
/// (diagnostic for the shear-layer experiment, Fig. 3).
pub fn vorticity_2d(ops: &SemOps, u: &[f64], v: &[f64]) -> Vec<f64> {
    assert_eq!(ops.geo.dim, 2, "vorticity_2d needs a 2D discretization");
    let n = ops.n_velocity();
    let mut gu = vec![vec![0.0; n]; 2];
    let mut gv = vec![vec![0.0; n]; 2];
    gradient(ops, u, &mut gu);
    gradient(ops, v, &mut gv);
    (0..n).map(|i| gv[0][i] - gu[1][i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::eval_on_nodes;
    use sem_mesh::generators::{box2d, box3d};

    fn ops2d(n: usize) -> SemOps {
        SemOps::new(box2d(2, 2, [0.0, 1.0], [0.0, 1.0], false, false), n)
    }

    #[test]
    fn gradient_of_polynomial_is_exact() {
        let ops = ops2d(6);
        // u = x³y²: ∂x = 3x²y², ∂y = 2x³y (degrees ≤ 6, exact).
        let u = eval_on_nodes(&ops, |x, y, _| x.powi(3) * y * y);
        let mut g = vec![vec![0.0; ops.n_velocity()]; 2];
        gradient(&ops, &u, &mut g);
        for i in 0..ops.n_velocity() {
            let (x, y) = (ops.geo.x[i], ops.geo.y[i]);
            assert!((g[0][i] - 3.0 * x * x * y * y).abs() < 1e-10);
            assert!((g[1][i] - 2.0 * x.powi(3) * y).abs() < 1e-10);
        }
    }

    #[test]
    fn gradient_3d_exact_on_trilinear() {
        let mesh = box3d(1, 2, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [false; 3]);
        let ops = SemOps::new(mesh, 3);
        let u = eval_on_nodes(&ops, |x, y, z| x * y * z);
        let mut g = vec![vec![0.0; ops.n_velocity()]; 3];
        gradient(&ops, &u, &mut g);
        for i in 0..ops.n_velocity() {
            let (x, y, z) = (ops.geo.x[i], ops.geo.y[i], ops.geo.z[i]);
            assert!((g[0][i] - y * z).abs() < 1e-10);
            assert!((g[1][i] - x * z).abs() < 1e-10);
            assert!((g[2][i] - x * y).abs() < 1e-10);
        }
    }

    #[test]
    fn convection_of_linear_by_constant() {
        let ops = ops2d(4);
        let n = ops.n_velocity();
        // c = (2, 3), u = 5x − 7y: (c·∇)u = 10 − 21 = −11.
        let cx = vec![2.0; n];
        let cy = vec![3.0; n];
        let u = eval_on_nodes(&ops, |x, y, _| 5.0 * x - 7.0 * y);
        let mut out = vec![0.0; n];
        let mut work = vec![vec![0.0; n]; 2];
        convect(&ops, &[&cx, &cy], &u, &mut out, &mut work);
        for &v in &out {
            assert!((v + 11.0).abs() < 1e-10, "{v}");
        }
    }

    #[test]
    fn convect_equals_velocity_dot_physical_gradient() {
        // Deformed 3D box: the contravariant form agrees with c·∇u from
        // the physical gradient up to rounding.
        use sem_mesh::generators::{bump_channel3d, BumpChannelParams};
        let params = BumpChannelParams {
            k: [2, 2, 2],
            l: [2.0, 1.0, 1.0],
            bump_height: 0.3,
            bump_center: [1.0, 0.5],
            bump_radius: 0.4,
            wall_growth: 0.8,
        };
        let (mesh, geo) = bump_channel3d(params, 4);
        let ops = SemOps::with_geometry(mesh, geo);
        let n = ops.n_velocity();
        let u = eval_on_nodes(&ops, |x, y, z| (x + 0.3 * y).sin() * (z - y).cos());
        let c: Vec<Vec<f64>> = (0..3)
            .map(|k| eval_on_nodes(&ops, |x, y, z| (k as f64 + 1.0) * (x * y + 0.2 * z).cos()))
            .collect();
        let refs: Vec<&[f64]> = c.iter().map(Vec::as_slice).collect();
        let mut out = vec![0.0; n];
        let mut work = vec![vec![0.0; n]; 3];
        convect(&ops, &refs, &u, &mut out, &mut work);
        let mut g = vec![vec![0.0; n]; 3];
        gradient(&ops, &u, &mut g);
        for i in 0..n {
            let want = c[0][i] * g[0][i] + c[1][i] * g[1][i] + c[2][i] * g[2][i];
            assert!(
                (out[i] - want).abs() < 1e-11 * (1.0 + want.abs()),
                "{i}: {} vs {want}",
                out[i]
            );
        }
    }

    #[test]
    fn vorticity_of_rigid_rotation() {
        let ops = ops2d(4);
        // (u, v) = (−y, x): ω = 2 everywhere.
        let u = eval_on_nodes(&ops, |_, y, _| -y);
        let v = eval_on_nodes(&ops, |x, _, _| x);
        let w = vorticity_2d(&ops, &u, &v);
        for &x in &w {
            assert!((x - 2.0).abs() < 1e-10);
        }
    }

    #[test]
    fn gradient_on_curved_geometry() {
        // Quarter annulus: gradient of u = x² should be (2x, 0).
        use sem_mesh::{Geometry, Mesh};
        let mesh = Mesh {
            dim: 2,
            verts: vec![[1., 0., 0.], [2., 0., 0.], [0., 1., 0.], [0., 2., 0.]],
            elems: vec![vec![0, 1, 2, 3]],
            face_bc: vec![[sem_mesh::BcTag::Dirichlet; 6]],
            periodic: [None; 3],
        };
        let geo = Geometry::with_mapping(&mesh, 14, |_, rst| {
            let rho = 1.5 + 0.5 * rst[0];
            let th = std::f64::consts::FRAC_PI_4 * (rst[1] + 1.0);
            [rho * th.cos(), rho * th.sin(), 0.0]
        });
        let ops = SemOps::with_geometry(mesh, geo);
        let u = eval_on_nodes(&ops, |x, _, _| x * x);
        let mut g = vec![vec![0.0; ops.n_velocity()]; 2];
        gradient(&ops, &u, &mut g);
        // u = x² is not a polynomial in (r, s) on the curved element, so
        // expect spectral (not exact) accuracy.
        for i in 0..ops.n_velocity() {
            let x = ops.geo.x[i];
            assert!(
                (g[0][i] - 2.0 * x).abs() < 1e-6,
                "i={i}: {} vs {}",
                g[0][i],
                2.0 * x
            );
            assert!(g[1][i].abs() < 1e-6);
        }
    }
}
