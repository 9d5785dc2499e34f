//! The pressure operators of the `P_N × P_{N−2}` discretization (§4).
//!
//! * `D` ([`divergence`]): weak divergence, velocity (GLL) → pressure
//!   (interior Gauss). Pressure test functions are Lagrange cardinals on
//!   the Gauss grid, so `(D u)_g = (w J)_g (∇·u)(ξ_g)` with the physical
//!   divergence interpolated from the GLL grid.
//! * `Dᵀ` ([`gradient_weak`]): the exact discrete transpose (weak
//!   gradient), pressure → velocity.
//! * `E = D B̄⁻¹ Dᵀ` ([`EOperator`]): the Stokes Schur complement
//!   ("consistent Poisson") governing the pressure, applied matrix-free
//!   with the assembled velocity mass `B̄` and the velocity Dirichlet mask
//!   folded in. `E` is symmetric positive semidefinite with the constant
//!   nullspace on enclosed flows; the solvers pin it by mean removal.

use crate::space::{interp_from_gauss, interp_to_gauss, SemOps};
use sem_comm::par;
use sem_linalg::tensor::{apply_x, apply_y_2d, apply_y_3d, apply_z_3d};

/// Weak divergence `out = D u` for velocity components
/// `vel = [u, v(, w)]` (each `K (N+1)^d`), producing a pressure-space
/// field (`K (N−1)^d`).
pub fn divergence(ops: &SemOps, vel: &[&[f64]], out: &mut [f64]) {
    let dim = ops.geo.dim;
    assert_eq!(vel.len(), dim, "divergence: one component per dimension");
    for c in vel {
        assert_eq!(c.len(), ops.n_velocity(), "divergence: component length");
    }
    assert_eq!(out.len(), ops.n_pressure(), "divergence: out length");
    let npts = ops.geo.npts;
    let nptsp = ops.npts_p;
    let nx = ops.geo.nx;
    let geo = &ops.geo;
    par::par_chunks_init(
        out,
        nptsp,
        || vec![0.0; 7 * npts],
        |scratch, e, oe| {
            let (dr, rest) = scratch.split_at_mut(npts);
            let (ds, rest) = rest.split_at_mut(npts);
            let (dt, rest) = rest.split_at_mut(npts);
            let (divu, work) = rest.split_at_mut(npts);
            divu.fill(0.0);
            let dd = dim * dim;
            for (c, comp) in vel.iter().enumerate() {
                let ue = &comp[e * npts..(e + 1) * npts];
                if dim == 2 {
                    apply_x(&geo.d1t, nx, ue, dr);
                    apply_y_2d(&geo.d1, nx, ue, ds);
                } else {
                    apply_x(&geo.d1t, nx * nx, ue, dr);
                    apply_y_3d(&geo.d1, nx, nx, ue, ds);
                    apply_z_3d(&geo.d1, nx * nx, ue, dt);
                }
                let base = e * npts * dd;
                for i in 0..npts {
                    // ∂u_c/∂x_c = Σ_a (∂r_a/∂x_c) ∂u_c/∂r_a.
                    let d = &geo.drdx[base + i * dd..base + (i + 1) * dd];
                    let mut acc = d[c] * dr[i] + d[dim + c] * ds[i];
                    if dim == 3 {
                        acc += d[2 * dim + c] * dt[i];
                    }
                    divu[i] += acc;
                }
            }
            interp_to_gauss(dim, &ops.interp_vp, &ops.interp_vp_t, divu, oe, work);
            let jw = &ops.jw_gauss[e * nptsp..(e + 1) * nptsp];
            for (o, &w) in oe.iter_mut().zip(jw.iter()) {
                *o *= w;
            }
        },
    );
}

/// Weak gradient `out = Dᵀ p`: the exact transpose of [`divergence`].
/// `out` must hold `dim` velocity-space components.
pub fn gradient_weak(ops: &SemOps, p: &[f64], out: &mut [Vec<f64>]) {
    let dim = ops.geo.dim;
    assert_eq!(p.len(), ops.n_pressure(), "gradient_weak: p length");
    assert_eq!(out.len(), dim, "gradient_weak: one component per dimension");
    for c in out.iter() {
        assert_eq!(c.len(), ops.n_velocity(), "gradient_weak: component length");
    }
    let npts = ops.geo.npts;
    let nptsp = ops.npts_p;
    let nx = ops.geo.nx;
    let geo = &ops.geo;
    let k = ops.k();
    // Split the output components so each element writes its own chunks.
    let mut outs: Vec<_> = out.iter_mut().map(|c| c.chunks_mut(npts)).collect();
    // Collect per-element mutable slices component-major.
    let mut per_elem: Vec<Vec<&mut [f64]>> = (0..k).map(|_| Vec::with_capacity(dim)).collect();
    for chunks in outs.iter_mut() {
        for (e, ch) in chunks.by_ref().enumerate() {
            per_elem[e].push(ch);
        }
    }
    par::par_for_each_init(
        &mut per_elem,
        || vec![0.0; 8 * npts],
        |scratch, e, comps| {
            let (q, rest) = scratch.split_at_mut(npts);
            let (tjw, rest) = rest.split_at_mut(nptsp);
            let (wr, rest) = rest.split_at_mut(npts);
            let (ws, rest) = rest.split_at_mut(npts);
            let (wt, rest) = rest.split_at_mut(npts);
            let (tmp, work) = rest.split_at_mut(npts);
            let pe = &p[e * nptsp..(e + 1) * nptsp];
            let jw = &ops.jw_gauss[e * nptsp..(e + 1) * nptsp];
            for i in 0..nptsp {
                tjw[i] = jw[i] * pe[i];
            }
            interp_from_gauss(ops.geo.dim, &ops.interp_vp, &ops.interp_vp_t, tjw, q, work);
            let dd = ops.geo.dim * ops.geo.dim;
            let base = e * npts * dd;
            for (c, oc) in comps.iter_mut().enumerate() {
                // wr = (∂r/∂x_c)∘q, ws = (∂s/∂x_c)∘q, wt = (∂t/∂x_c)∘q.
                for i in 0..npts {
                    let d = &geo.drdx[base + i * dd..base + (i + 1) * dd];
                    wr[i] = d[c] * q[i];
                    ws[i] = d[ops.geo.dim + c] * q[i];
                    if ops.geo.dim == 3 {
                        wt[i] = d[2 * ops.geo.dim + c] * q[i];
                    }
                }
                if ops.geo.dim == 2 {
                    apply_x(&geo.d1, nx, wr, oc);
                    apply_y_2d(&geo.d1t, nx, ws, tmp);
                    for i in 0..npts {
                        oc[i] += tmp[i];
                    }
                } else {
                    apply_x(&geo.d1, nx * nx, wr, oc);
                    apply_y_3d(&geo.d1t, nx, nx, ws, tmp);
                    for i in 0..npts {
                        oc[i] += tmp[i];
                    }
                    apply_z_3d(&geo.d1t, nx * nx, wt, tmp);
                    for i in 0..npts {
                        oc[i] += tmp[i];
                    }
                }
            }
        },
    );
}

/// The consistent Poisson operator `E = D B̄⁻¹ Dᵀ` with reusable work
/// storage (one velocity-space vector per component).
pub struct EOperator {
    work: Vec<Vec<f64>>,
}

impl EOperator {
    /// Allocate work storage for `ops`.
    pub fn new(ops: &SemOps) -> Self {
        EOperator {
            work: vec![vec![0.0; ops.n_velocity()]; ops.geo.dim],
        }
    }

    /// `out = E p`. Sequence: `w = Dᵀ p` → direct-stiffness + velocity
    /// mask per component → `w /= B̄` → `out = D w`.
    pub fn apply(&mut self, ops: &SemOps, p: &[f64], out: &mut [f64]) {
        gradient_weak(ops, p, &mut self.work);
        let bm = &ops.bm_assembled;
        for comp in self.work.iter_mut() {
            ops.dssum_mask(comp);
            par::par_map_inplace(comp, |i, v| *v /= bm[i]);
        }
        let refs: Vec<&[f64]> = self.work.iter().map(|c| c.as_slice()).collect();
        divergence(ops, &refs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{dot_pressure, eval_on_nodes};
    use sem_mesh::generators::{box2d, box3d};

    fn ops2d(k: usize, n: usize) -> SemOps {
        SemOps::new(box2d(k, k, [0.0, 1.0], [0.0, 1.0], false, false), n)
    }

    #[test]
    fn divergence_of_divergence_free_field() {
        // u = (y, -x) is divergence-free (and linear, so exact).
        let ops = ops2d(2, 5);
        let u = eval_on_nodes(&ops, |_, y, _| y);
        let v = eval_on_nodes(&ops, |x, _, _| -x);
        let mut d = vec![0.0; ops.n_pressure()];
        divergence(&ops, &[&u, &v], &mut d);
        for &x in &d {
            assert!(x.abs() < 1e-11, "{x}");
        }
    }

    #[test]
    fn divergence_of_linear_field_integrates_correctly() {
        // u = (x, 0): ∇·u = 1; D u integrates test functions: Σ (D u) = ∫ 1 = area.
        let ops = ops2d(2, 5);
        let u = eval_on_nodes(&ops, |x, _, _| x);
        let v = vec![0.0; ops.n_velocity()];
        let mut d = vec![0.0; ops.n_pressure()];
        divergence(&ops, &[&u, &v], &mut d);
        let total: f64 = d.iter().sum();
        assert!((total - 1.0).abs() < 1e-10, "{total}");
    }

    #[test]
    fn transpose_adjoint_identity() {
        // ⟨D u, p⟩_P = ⟨u, Dᵀ p⟩ for arbitrary u, p (the defining property).
        let ops = ops2d(2, 4);
        let nv = ops.n_velocity();
        let np = ops.n_pressure();
        let u: Vec<f64> = (0..nv).map(|i| ((i * 7 % 13) as f64 - 6.0) / 6.0).collect();
        let v: Vec<f64> = (0..nv)
            .map(|i| ((i * 11 % 17) as f64 - 8.0) / 8.0)
            .collect();
        let p: Vec<f64> = (0..np).map(|i| ((i * 3 % 19) as f64 - 9.0) / 9.0).collect();
        let mut du = vec![0.0; np];
        divergence(&ops, &[&u, &v], &mut du);
        let mut dtp = vec![vec![0.0; nv]; 2];
        gradient_weak(&ops, &p, &mut dtp);
        let lhs = dot_pressure(&ops, &du, &p);
        let rhs: f64 = u.iter().zip(dtp[0].iter()).map(|(a, b)| a * b).sum::<f64>()
            + v.iter().zip(dtp[1].iter()).map(|(a, b)| a * b).sum::<f64>();
        assert!(
            (lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn e_is_symmetric_positive_semidefinite() {
        let ops = ops2d(2, 4);
        let np = ops.n_pressure();
        let mut e = EOperator::new(&ops);
        let p: Vec<f64> = (0..np)
            .map(|i| ((i * 7 % 23) as f64 - 11.0) / 11.0)
            .collect();
        let q: Vec<f64> = (0..np)
            .map(|i| ((i * 13 % 29) as f64 - 14.0) / 14.0)
            .collect();
        let mut ep = vec![0.0; np];
        let mut eq = vec![0.0; np];
        e.apply(&ops, &p, &mut ep);
        e.apply(&ops, &q, &mut eq);
        let lhs = dot_pressure(&ops, &ep, &q);
        let rhs = dot_pressure(&ops, &p, &eq);
        assert!(
            (lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()),
            "symmetry: {lhs} vs {rhs}"
        );
        let pep = dot_pressure(&ops, &p, &ep);
        assert!(pep > -1e-10, "PSD: {pep}");
        let qeq = dot_pressure(&ops, &q, &eq);
        assert!(qeq > -1e-10, "PSD: {qeq}");
    }

    #[test]
    fn e_annihilates_constants_on_enclosed_flow() {
        let ops = ops2d(2, 5);
        let np = ops.n_pressure();
        let mut e = EOperator::new(&ops);
        let p = vec![1.0; np];
        let mut ep = vec![0.0; np];
        e.apply(&ops, &p, &mut ep);
        let norm: f64 = ep.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm < 1e-9, "E·1 norm {norm}");
    }

    #[test]
    fn divergence_3d_of_linear_field() {
        let mesh = box3d(2, 1, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [false; 3]);
        let ops = SemOps::new(mesh, 4);
        // u = (x, y, z): ∇·u = 3.
        let u = eval_on_nodes(&ops, |x, _, _| x);
        let v = eval_on_nodes(&ops, |_, y, _| y);
        let w = eval_on_nodes(&ops, |_, _, z| z);
        let mut d = vec![0.0; ops.n_pressure()];
        divergence(&ops, &[&u, &v, &w], &mut d);
        let total: f64 = d.iter().sum();
        assert!((total - 3.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn e_symmetric_3d() {
        let mesh = box3d(1, 1, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 2.0], [false; 3]);
        let ops = SemOps::new(mesh, 3);
        let np = ops.n_pressure();
        let mut e = EOperator::new(&ops);
        let p: Vec<f64> = (0..np).map(|i| (i as f64 * 0.37).sin()).collect();
        let q: Vec<f64> = (0..np).map(|i| (i as f64 * 0.71).cos()).collect();
        let mut ep = vec![0.0; np];
        let mut eq = vec![0.0; np];
        e.apply(&ops, &p, &mut ep);
        e.apply(&ops, &q, &mut eq);
        let lhs = dot_pressure(&ops, &ep, &q);
        let rhs = dot_pressure(&ops, &p, &eq);
        assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }
}
