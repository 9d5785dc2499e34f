//! Convection treatment: explicit evaluation and OIFS subintegration.
//!
//! The OIFS (operator-integration-factor splitting / characteristics)
//! scheme of §4 expresses the convective term as a material derivative:
//! each BDF history field `u^{n−j}` is replaced by `ũ^{n−j}`, the
//! solution at `tⁿ` of the pure advection problem
//!
//! `∂ũ/∂s = −(w(s)·∇) ũ,   ũ(t^{n−j}) = u^{n−j}`
//!
//! where `w(s)` is the (extrapolated/interpolated) velocity field at time
//! `s`. Subintegration uses RK4 with a substep chosen so its *advective*
//! CFL stays small even when the overall Δt corresponds to CFL 1–5 —
//! "significantly reducing the number of (expensive) Stokes solves".

use crate::checkpoint::Level;
use crate::config::ext_coeffs;
use sem_ops::convect::convect;
use sem_ops::SemOps;

/// Reusable OIFS scratch storage.
pub struct OifsScratch {
    k: [Vec<f64>; 4],
    tmp: Vec<f64>,
    wvel: Vec<Vec<f64>>,
    grad: Vec<Vec<f64>>,
}

impl OifsScratch {
    /// Allocate for a discretization.
    pub fn new(ops: &SemOps) -> Self {
        let n = ops.n_velocity();
        let dim = ops.geo.dim;
        OifsScratch {
            k: [vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]],
            tmp: vec![0.0; n],
            wvel: vec![vec![0.0; n]; dim],
            grad: vec![vec![0.0; n]; dim],
        }
    }
}

/// Evaluate the advecting velocity at time `s` by polynomial
/// extrapolation/interpolation from the ring's levels (velocity is the
/// first `out.len()` fields of each level).
fn interp_velocity(levels: &[Level], s: f64, out: &mut [Vec<f64>]) {
    let m = levels.len();
    assert!(m >= 1, "need at least one stored level");
    let mut w = vec![1.0; m];
    for (i, wi) in w.iter_mut().enumerate() {
        for j in 0..m {
            if i != j {
                *wi *= (s - levels[j].time) / (levels[i].time - levels[j].time);
            }
        }
    }
    for (c, oc) in out.iter_mut().enumerate() {
        oc.fill(0.0);
        for (i, &wi) in w.iter().enumerate() {
            for (o, &v) in oc.iter_mut().zip(levels[i].values[c].iter()) {
                *o += wi * v;
            }
        }
    }
}

/// One advection rate evaluation: `rate = −(w(at)·∇)u`, averaged across
/// shared nodes to stay in the C⁰ space.
fn advection_rate(
    ops: &SemOps,
    u: &[f64],
    at: f64,
    levels: &[Level],
    rate: &mut Vec<f64>,
    wvel: &mut [Vec<f64>],
    grad: &mut [Vec<f64>],
) {
    interp_velocity(levels, at, wvel);
    let refs: Vec<&[f64]> = wvel.iter().map(|c| c.as_slice()).collect();
    convect(ops, &refs, u, rate, grad);
    for v in rate.iter_mut() {
        *v = -*v;
    }
    ops.gs.gs_avg(rate);
}

/// Advect `field` from `t0` to `t1` by RK4 subintegration with `steps`
/// stages; the advecting velocity is interpolated in time from the
/// ring's `levels`.
pub fn advect_field(
    ops: &SemOps,
    field: &mut [f64],
    t0: f64,
    t1: f64,
    levels: &[Level],
    steps: usize,
    scratch: &mut OifsScratch,
) {
    assert!(steps >= 1, "need at least one RK substep");
    let n = field.len();
    let h = (t1 - t0) / steps as f64;
    let OifsScratch { k, tmp, wvel, grad } = scratch;
    let [k1, k2, k3, k4] = k;
    for step in 0..steps {
        let s = t0 + h * step as f64;
        advection_rate(ops, field, s, levels, k1, wvel, grad);
        for i in 0..n {
            tmp[i] = field[i] + 0.5 * h * k1[i];
        }
        advection_rate(ops, tmp, s + 0.5 * h, levels, k2, wvel, grad);
        for i in 0..n {
            tmp[i] = field[i] + 0.5 * h * k2[i];
        }
        advection_rate(ops, tmp, s + 0.5 * h, levels, k3, wvel, grad);
        for i in 0..n {
            tmp[i] = field[i] + h * k3[i];
        }
        advection_rate(ops, tmp, s + h, levels, k4, wvel, grad);
        for i in 0..n {
            field[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }
}

/// Extrapolated convection term `−EXTk[(u·∇)φ]` of field `f` for the
/// EXT scheme: `levels[j].conv[f]` holds the `(u·∇)φ` evaluation at
/// level `n−1−j` (every level passed must hold one).
pub fn ext_convection(order: usize, levels: &[Level], f: usize, out: &mut [f64]) {
    let c = ext_coeffs(order.min(levels.len()));
    out.fill(0.0);
    for (j, cj) in c.iter().enumerate() {
        for (o, &v) in out.iter_mut().zip(levels[j].conv[f].iter()) {
            *o -= cj * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_mesh::generators::box2d;
    use sem_ops::fields::eval_on_nodes;

    fn ops_periodic(k: usize, n: usize) -> SemOps {
        SemOps::new(box2d(k, k, [0.0, 1.0], [0.0, 1.0], true, true), n)
    }

    /// A ring level holding only the velocity (and its convection).
    fn level(time: f64, values: Vec<Vec<f64>>, conv: Vec<Vec<f64>>) -> Level {
        Level { time, values, conv }
    }

    #[test]
    fn interp_velocity_linear_exact() {
        let ops = ops_periodic(2, 4);
        let n = ops.n_velocity();
        let levels = [
            level(0.0, vec![vec![1.0; n], vec![0.0; n]], vec![]),
            level(1.0, vec![vec![3.0; n], vec![0.0; n]], vec![]),
        ];
        let mut out = vec![vec![0.0; n]; 2];
        interp_velocity(&levels, 0.25, &mut out);
        for &v in &out[0] {
            assert!((v - 1.5).abs() < 1e-13);
        }
        // Extrapolation beyond the last level.
        interp_velocity(&levels, 1.5, &mut out);
        for &v in &out[0] {
            assert!((v - 4.0).abs() < 1e-13);
        }
    }

    #[test]
    fn advection_of_constant_is_invariant() {
        let ops = ops_periodic(2, 5);
        let n = ops.n_velocity();
        let vel = [level(0.0, vec![vec![0.7; n], vec![-0.3; n]], vec![])];
        let mut field = vec![2.5; n];
        let mut scratch = OifsScratch::new(&ops);
        advect_field(&ops, &mut field, 0.0, 0.1, &vel, 4, &mut scratch);
        for &v in &field {
            assert!((v - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn advection_translates_smooth_profile() {
        // Periodic box, uniform velocity (1, 0): after time T the profile
        // shifts by T.
        let ops = ops_periodic(4, 8);
        let n = ops.n_velocity();
        let two_pi = 2.0 * std::f64::consts::PI;
        let mut field = eval_on_nodes(&ops, |x, _, _| (two_pi * x).sin());
        let vel = [level(0.0, vec![vec![1.0; n], vec![0.0; n]], vec![])];
        let t = 0.25;
        let mut scratch = OifsScratch::new(&ops);
        advect_field(&ops, &mut field, 0.0, t, &vel, 40, &mut scratch);
        let want = eval_on_nodes(&ops, |x, _, _| (two_pi * (x - t)).sin());
        let err = field
            .iter()
            .zip(want.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(err < 2e-4, "max advection error {err}");
    }

    #[test]
    fn rk4_substep_convergence() {
        // Error should drop rapidly with substep count.
        let ops = ops_periodic(3, 7);
        let n = ops.n_velocity();
        let two_pi = 2.0 * std::f64::consts::PI;
        let vel = [level(0.0, vec![vec![1.0; n], vec![0.0; n]], vec![])];
        let t = 0.2;
        let want = eval_on_nodes(&ops, |x, _, _| (two_pi * (x - t)).sin());
        let mut errs = Vec::new();
        for steps in [5, 10, 20] {
            let mut field = eval_on_nodes(&ops, |x, _, _| (two_pi * x).sin());
            let mut scratch = OifsScratch::new(&ops);
            advect_field(&ops, &mut field, 0.0, t, &vel, steps, &mut scratch);
            let err = field
                .iter()
                .zip(want.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            errs.push(err);
        }
        assert!(errs[1] < errs[0] && errs[2] < errs[1], "{errs:?}");
    }

    #[test]
    fn ext_convection_orders() {
        // Field 1's convection at two levels (field 0 is a bystander).
        let h1 = [
            level(1.0, vec![], vec![vec![], vec![2.0; 4]]),
            level(0.0, vec![], vec![vec![], vec![1.0; 4]]),
        ];
        let mut out = vec![0.0; 4];
        ext_convection(2, &h1, 1, &mut out);
        // −(2·2 − 1·1) = −3.
        for &v in &out {
            assert!((v + 3.0).abs() < 1e-14);
        }
        // With only one history level available, falls back to EXT1.
        ext_convection(2, &h1[..1], 1, &mut out);
        for &v in &out {
            assert!((v + 2.0).abs() < 1e-14);
        }
    }
}
