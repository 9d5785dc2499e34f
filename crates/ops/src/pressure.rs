//! The pressure operators of the `P_N × P_{N−2}` discretization (§4).
//!
//! * `D` ([`divergence`]): weak divergence, velocity (GLL) → pressure
//!   (interior Gauss). Pressure test functions are Lagrange cardinals on
//!   the Gauss grid, so `(D u)_g = (w J)_g (∇·u)(ξ_g)` with the physical
//!   divergence interpolated from the GLL grid.
//! * `Dᵀ` ([`gradient_weak`]): the exact discrete transpose (weak
//!   gradient), pressure → velocity; [`gradient_assembled`] also
//!   direct-stiffness sums all its components in one exchange.
//! * `E = D B̄⁻¹ Dᵀ` ([`EOperator`]): the Stokes Schur complement
//!   ("consistent Poisson") governing the pressure, applied matrix-free
//!   with the assembled velocity mass `B̄` and the velocity Dirichlet mask
//!   folded in. `E` is symmetric positive semidefinite with the constant
//!   nullspace on enclosed flows; the solvers pin it by mean removal.
//!
//! `D` and `Dᵀ` each have one element kernel, which every entry point
//! here calls. The `Dᵀ` kernel writes the `x` term of each component
//! and accumulates `y` (and `z`) onto it through the `_acc` tensor
//! applies, one full dot then one add per output element, so its sums
//! associate as `(x + y) + z` exactly as staging each term through a
//! scratch buffer would.

use crate::space::{interp_from_gauss, interp_to_gauss, SemOps};
use sem_comm::par;
use sem_gs::GsOp;
use sem_linalg::tensor::{
    apply_x, apply_y_2d, apply_y_2d_acc, apply_y_3d, apply_y_3d_acc, apply_z_3d, apply_z_3d_acc,
};

/// Per-worker scratch of either element kernel, in velocity-element
/// fields: four nodal buffers plus the tensor interpolation's work.
const ELEM_SCRATCH: usize = 7;

/// `oe = D u` on element `e`, where `ue[c]` is the element's slice of
/// velocity component `c`.
fn div_elem(ops: &SemOps, e: usize, ue: &[&[f64]], oe: &mut [f64], scratch: &mut [f64]) {
    let geo = &ops.geo;
    let (dim, npts, nptsp, nx) = (geo.dim, geo.npts, ops.npts_p, geo.nx);
    let (dr, rest) = scratch.split_at_mut(npts);
    let (ds, rest) = rest.split_at_mut(npts);
    let (dt, rest) = rest.split_at_mut(npts);
    let (divu, work) = rest.split_at_mut(npts);
    divu.fill(0.0);
    let dd = dim * dim;
    let drdx = geo.drdx[e * npts * dd..(e + 1) * npts * dd].chunks_exact(dd);
    for (c, uc) in ue.iter().enumerate() {
        // ∂u_c/∂x_c = Σ_a (∂r_a/∂x_c) ∂u_c/∂r_a.
        if dim == 2 {
            apply_x(&geo.d1t, nx, uc, dr);
            apply_y_2d(&geo.d1, nx, uc, ds);
            for (((dv, d), &r), &s) in divu.iter_mut().zip(drdx.clone()).zip(&*dr).zip(&*ds) {
                *dv += d[c] * r + d[2 + c] * s;
            }
        } else {
            apply_x(&geo.d1t, nx * nx, uc, dr);
            apply_y_3d(&geo.d1, nx, nx, uc, ds);
            apply_z_3d(&geo.d1, nx * nx, uc, dt);
            let drst = dr.iter().zip(&*ds).zip(&*dt);
            for ((dv, d), ((&r, &s), &t)) in divu.iter_mut().zip(drdx.clone()).zip(drst) {
                *dv += d[c] * r + d[3 + c] * s + d[6 + c] * t;
            }
        }
    }
    interp_to_gauss(dim, &ops.interp_vp, &ops.interp_vp_t, divu, oe, work);
    let jw = &ops.jw_gauss[e * nptsp..(e + 1) * nptsp];
    for (o, &w) in oe.iter_mut().zip(jw) {
        *o *= w;
    }
}

/// `out[c] = (Dᵀ p)_c` on element `e` for every component `c`, where
/// `pe` is the element's pressure and `out[c]` the element's slice of
/// component `c`. `q = Iᵀ (w J p)` is formed once for all components.
fn grad_elem(ops: &SemOps, e: usize, pe: &[f64], out: &mut [&mut [f64]], scratch: &mut [f64]) {
    let geo = &ops.geo;
    let (dim, npts, nptsp, nx) = (geo.dim, geo.npts, ops.npts_p, geo.nx);
    let (q, rest) = scratch.split_at_mut(npts);
    let (tjw, rest) = rest.split_at_mut(nptsp);
    let (wr, rest) = rest.split_at_mut(npts);
    let (ws, rest) = rest.split_at_mut(npts);
    let (wt, work) = rest.split_at_mut(npts);
    let jw = &ops.jw_gauss[e * nptsp..(e + 1) * nptsp];
    for ((t, &w), &p) in tjw.iter_mut().zip(jw).zip(pe) {
        *t = w * p;
    }
    interp_from_gauss(dim, &ops.interp_vp, &ops.interp_vp_t, tjw, q, work);
    let dd = dim * dim;
    let drdx = geo.drdx[e * npts * dd..(e + 1) * npts * dd].chunks_exact(dd);
    for (c, oc) in out.iter_mut().enumerate() {
        // wr = (∂r/∂x_c)∘q, ws = (∂s/∂x_c)∘q, wt = (∂t/∂x_c)∘q.
        if dim == 2 {
            let wrs = wr.iter_mut().zip(ws.iter_mut());
            for ((d, &qi), (r, s)) in drdx.clone().zip(&*q).zip(wrs) {
                *r = d[c] * qi;
                *s = d[2 + c] * qi;
            }
            apply_x(&geo.d1, nx, wr, oc);
            apply_y_2d_acc(&geo.d1t, nx, ws, oc);
        } else {
            let wrst = wr.iter_mut().zip(ws.iter_mut()).zip(wt.iter_mut());
            for ((d, &qi), ((r, s), t)) in drdx.clone().zip(&*q).zip(wrst) {
                *r = d[c] * qi;
                *s = d[3 + c] * qi;
                *t = d[6 + c] * qi;
            }
            apply_x(&geo.d1, nx * nx, wr, oc);
            apply_y_3d_acc(&geo.d1t, nx, nx, ws, oc);
            apply_z_3d_acc(&geo.d1t, nx * nx, wt, oc);
        }
    }
}

/// `Dᵀ p` into the velocity fields `comps` (one per dimension): one
/// element pass over all components.
fn grad_into<'a>(ops: &SemOps, p: &[f64], comps: impl Iterator<Item = &'a mut [f64]>) {
    let (dim, npts, nptsp) = (ops.geo.dim, ops.geo.npts, ops.npts_p);
    // Element-major views: entry e holds element e's slice of each
    // component (unused slots stay empty in 2D).
    let mut per_elem: Vec<[&mut [f64]; 3]> = (0..ops.k()).map(|_| Default::default()).collect();
    for (c, comp) in comps.enumerate() {
        for (slots, chunk) in per_elem.iter_mut().zip(comp.chunks_exact_mut(npts)) {
            slots[c] = chunk;
        }
    }
    par::par_for_each_init(
        &mut per_elem,
        || vec![0.0; ELEM_SCRATCH * npts],
        |scratch, e, slots| {
            let pe = &p[e * nptsp..(e + 1) * nptsp];
            grad_elem(ops, e, pe, &mut slots[..dim], scratch);
        },
    );
}

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
    par::par_chunks_init(
        out,
        ops.npts_p,
        || vec![0.0; ELEM_SCRATCH * npts],
        |scratch, e, oe| {
            let mut ue: [&[f64]; 3] = [&[]; 3];
            for (u, comp) in ue.iter_mut().zip(vel) {
                *u = &comp[e * npts..(e + 1) * npts];
            }
            div_elem(ops, e, &ue[..dim], oe, scratch);
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
    grad_into(ops, p, out.iter_mut().map(Vec::as_mut_slice));
}

/// `w = Σ Dᵀ p`: the weak gradient with its `dim` components
/// direct-stiffness summed by one multi-field exchange (no mask),
/// stored component-major — component `c` is `w[c·n..(c + 1)·n]`,
/// `n` = [`SemOps::n_velocity`]. Bitwise-equal to [`gradient_weak`]
/// followed by [`SemOps::dssum`] per component.
pub fn gradient_assembled(ops: &SemOps, p: &[f64], w: &mut [f64]) {
    let (dim, n) = (ops.geo.dim, ops.n_velocity());
    assert_eq!(p.len(), ops.n_pressure(), "gradient_assembled: p length");
    assert_eq!(w.len(), dim * n, "gradient_assembled: w length");
    grad_into(ops, p, w.chunks_exact_mut(n));
    ops.gs.gs_fields(w, dim, GsOp::Add);
}

/// The consistent Poisson operator `E = D B̄⁻¹ Dᵀ` with reusable work
/// storage (one velocity-space field per component, component-major).
pub struct EOperator {
    work: Vec<f64>,
}

impl EOperator {
    /// Allocate work storage for `ops`.
    pub fn new(ops: &SemOps) -> Self {
        EOperator {
            work: vec![0.0; ops.geo.dim * ops.n_velocity()],
        }
    }

    /// `out = E p` in three steps: one element pass for `w = Dᵀ p` over
    /// all components, one gather-scatter exchange for all of them
    /// ([`gradient_assembled`]), and one element pass that forms
    /// `(w·mask)/B̄` per node on the fly and applies `D` to it.
    /// Bitwise-equal to the staged sequence [`gradient_weak`] →
    /// [`SemOps::dssum_mask`] per component → `/B̄` → [`divergence`].
    pub fn apply(&mut self, ops: &SemOps, p: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), ops.n_pressure(), "E apply: out length");
        gradient_assembled(ops, p, &mut self.work);
        let (dim, npts, n) = (ops.geo.dim, ops.geo.npts, ops.n_velocity());
        let (w, mask, bm) = (&self.work, &ops.mask, &ops.bm_assembled);
        par::par_chunks_init(
            out,
            ops.npts_p,
            || vec![0.0; (dim + ELEM_SCRATCH) * npts],
            |scratch, e, oe| {
                let (v, rest) = scratch.split_at_mut(dim * npts);
                let nodes = e * npts..(e + 1) * npts;
                let mb = mask[nodes.clone()].iter().zip(&bm[nodes.clone()]);
                for (c, vc) in v.chunks_exact_mut(npts).enumerate() {
                    let wc = &w[c * n + nodes.start..c * n + nodes.end];
                    for ((x, &wi), (&m, &b)) in vc.iter_mut().zip(wc).zip(mb.clone()) {
                        // The mask of dssum_mask, then the B̄⁻¹ sweep.
                        *x = wi * m / b;
                    }
                }
                let mut ue: [&[f64]; 3] = [&[]; 3];
                for (u, vc) in ue.iter_mut().zip(v.chunks_exact(npts)) {
                    *u = vc;
                }
                div_elem(ops, e, &ue[..dim], oe, rest);
            },
        );
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
