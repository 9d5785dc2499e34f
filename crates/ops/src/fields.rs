//! Field utilities for the redundant element-storage representation.
//!
//! Consistent fields store the same value in every copy of a shared node;
//! inner products therefore weight each local entry by `1/multiplicity`
//! so global dofs count once (`wt` in [`crate::space::SemOps`]).

use crate::space::SemOps;
use sem_comm::par;

/// Weighted (global) inner product `Σ wt·u·v` over velocity-space fields.
pub fn dot_weighted(ops: &SemOps, u: &[f64], v: &[f64]) -> f64 {
    assert_eq!(u.len(), ops.n_velocity(), "dot: u length");
    assert_eq!(v.len(), ops.n_velocity(), "dot: v length");
    let wt = &ops.wt;
    par::par_sum(u.len(), |i| wt[i] * u[i] * v[i])
}

/// Weighted L² norm of a velocity-space field under the assembled mass:
/// `√(Σ wt·B̄·u²)` — the discrete `‖u‖_{L²}`.
pub fn norm_l2(ops: &SemOps, u: &[f64]) -> f64 {
    assert_eq!(u.len(), ops.n_velocity(), "norm: u length");
    let (bm, wt) = (&ops.bm_assembled, &ops.wt);
    par::par_sum(u.len(), |i| wt[i] * bm[i] * u[i] * u[i]).sqrt()
}

/// Plain dot product over pressure-space fields (pressure dofs are
/// element-interior and never shared, so no weighting is needed).
pub fn dot_pressure(ops: &SemOps, p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), ops.n_pressure(), "dot_pressure: p length");
    assert_eq!(q.len(), ops.n_pressure(), "dot_pressure: q length");
    par::par_sum(p.len(), |i| p[i] * q[i])
}

/// Mean of a pressure field under the pressure quadrature
/// (`Σ jw·p / Σ jw`) — used to pin the hydrostatic pressure mode.
pub fn pressure_mean(ops: &SemOps, p: &[f64]) -> f64 {
    assert_eq!(p.len(), ops.n_pressure(), "pressure_mean: p length");
    let jw = &ops.jw_gauss;
    let num: f64 = par::par_sum(p.len(), |i| p[i] * jw[i]);
    let den: f64 = ops.jw_gauss.iter().sum();
    num / den
}

/// Remove the quadrature-weighted mean from a pressure field in place.
pub fn remove_pressure_mean(ops: &SemOps, p: &mut [f64]) {
    let m = pressure_mean(ops, p);
    par::par_map_inplace(p, |_, v| *v -= m);
}

/// Impose a Dirichlet boundary function on a velocity-space field:
/// `u = mask·u + (1−mask)·g(x,y,z)`.
pub fn set_dirichlet(ops: &SemOps, u: &mut [f64], g: impl Fn(f64, f64, f64) -> f64 + Sync) {
    assert_eq!(u.len(), ops.n_velocity(), "set_dirichlet: u length");
    par::par_map_inplace(u, |i, v| {
        if ops.mask[i] == 0.0 {
            *v = g(ops.geo.x[i], ops.geo.y[i], ops.geo.z[i]);
        }
    });
}

/// Evaluate a function at every velocity node.
pub fn eval_on_nodes(ops: &SemOps, g: impl Fn(f64, f64, f64) -> f64 + Sync) -> Vec<f64> {
    let mut out = vec![0.0; ops.n_velocity()];
    par::par_fill(&mut out, |i| g(ops.geo.x[i], ops.geo.y[i], ops.geo.z[i]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_mesh::generators::box2d;

    fn ops2d() -> SemOps {
        SemOps::new(box2d(2, 2, [0.0, 1.0], [0.0, 1.0], false, false), 4)
    }

    #[test]
    fn weighted_dot_counts_shared_once() {
        let ops = ops2d();
        let ones = vec![1.0; ops.n_velocity()];
        let d = dot_weighted(&ops, &ones, &ones);
        assert!((d - ops.num.n_global as f64).abs() < 1e-10);
    }

    #[test]
    fn l2_norm_of_one_is_sqrt_area() {
        let ops = ops2d();
        let ones = vec![1.0; ops.n_velocity()];
        assert!((norm_l2(&ops, &ones) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn l2_norm_of_sine() {
        // ∫∫ sin²(πx) dx dy over [0,1]² = 1/2.
        let ops = SemOps::new(box2d(3, 3, [0.0, 1.0], [0.0, 1.0], false, false), 8);
        let u = eval_on_nodes(&ops, |x, _, _| (std::f64::consts::PI * x).sin());
        let n = norm_l2(&ops, &u);
        assert!((n - (0.5_f64).sqrt()).abs() < 1e-8, "{n}");
    }

    #[test]
    fn pressure_mean_removal() {
        let ops = ops2d();
        let mut p: Vec<f64> = (0..ops.n_pressure()).map(|i| i as f64).collect();
        remove_pressure_mean(&ops, &mut p);
        assert!(pressure_mean(&ops, &p).abs() < 1e-10);
    }

    #[test]
    fn set_dirichlet_only_touches_boundary() {
        let ops = ops2d();
        let mut u = vec![5.0; ops.n_velocity()];
        set_dirichlet(&ops, &mut u, |_, _, _| -1.0);
        for i in 0..u.len() {
            if ops.mask[i] == 0.0 {
                assert_eq!(u[i], -1.0);
            } else {
                assert_eq!(u[i], 5.0);
            }
        }
    }

    #[test]
    fn dot_pressure_is_plain() {
        let ops = ops2d();
        let p = vec![2.0; ops.n_pressure()];
        let q = vec![3.0; ops.n_pressure()];
        assert!((dot_pressure(&ops, &p, &q) - 6.0 * ops.n_pressure() as f64).abs() < 1e-10);
    }
}
