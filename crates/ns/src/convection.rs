//! Convection treatment: explicit evaluation and OIFS subintegration.
//!
//! The OIFS (operator-integration-factor splitting / characteristics)
//! scheme of §4 expresses the convective term as a material derivative:
//! each BDF history field `φ^{n+1−j}` is replaced by `φ̃^{n+1−j}`, the
//! solution at `t^{n+1}` of the pure advection problem
//!
//! `∂φ̃/∂s = −(w(s)·∇) φ̃,   φ̃(t^{n+1−j}) = φ^{n+1−j}`
//!
//! where `w(s)` is the velocity interpolated (or extrapolated) in time
//! from the ring's levels. Subintegration uses RK4 with a substep chosen
//! so its *advective* CFL stays small even when the overall Δt
//! corresponds to CFL 1–5 — "significantly reducing the number of
//! (expensive) Stokes solves". The substep count follows the step's
//! convective CFL ([`oifs_substeps`]): about [`OIFS_SUBSTEP_CFL`] per
//! substep, so a step at CFL 0.035 takes one RK4 substep per Δt and a
//! step at CFL 5 takes ten.
//!
//! The BDF right-hand side needs only the weighted sum
//! `Σ_j b_j S(t^{n+1}←t^{n+1−j}) φ^{n+1−j}`, and the advection operator
//! `S` is linear in the advected field, so [`oifs_sweep`] builds the sum
//! in Horner form with one nested sweep: start from `b_k φ^{n+1−k}`,
//! advect it one Δt, add `b_{k−1} φ^{n+2−k}`, and so on up to `t^{n+1}`.
//! Each field is subintegrated over `kΔt` rather than `k(k+1)/2·Δt`, on
//! the same substep grid. Every OIFS-transported field — the velocity
//! components, the temperature and the species — advances together in
//! each RK4 stage, so the advecting velocity is interpolated and put in
//! contravariant form once per distinct stage time.

use crate::checkpoint::Level;
use crate::config::ext_coeffs;
use sem_ops::convect::{contravariant, convect_contravariant};
use sem_ops::SemOps;

/// The convective CFL one RK4 substep of the subintegration aims at:
/// half of the smallest grid spacing per substep. The explicit
/// subintegration must stay inside classical RK4's stability interval
/// (`|λh| ≤ 2√2` on the imaginary axis), and its time error must stay
/// small next to the splitting error of the step. At this target a
/// resolved profile swept at CFL 2 and 5 lands within 1e-8 of a
/// 64-substep sweep, below the spatial error of the converged sweep
/// itself (`sized_sweep_tracks_a_converged_sweep`), and OIFS steps at
/// CFL 1.2–2.3 stay bounded (`oifs_stable_at_cfl_above_one`,
/// `oifs_scalar_stays_bounded_above_cfl_one`).
pub const OIFS_SUBSTEP_CFL: f64 = 0.5;

/// The most RK4 substeps one Δt takes. The paper runs OIFS at
/// convective CFL 1–5, i.e. at most ten substeps; the cap sits well
/// above that and only bounds the work of a runaway CFL. An infinite
/// velocity node reads as CFL +∞, which would otherwise ask for
/// `usize::MAX` substeps and hang the step instead of letting the
/// health check reject it.
pub const OIFS_MAX_SUBSTEPS: usize = 64;

/// RK4 substeps per Δt for a step at convective CFL `cfl`:
/// `⌈cfl / OIFS_SUBSTEP_CFL⌉`, clamped to `[1, OIFS_MAX_SUBSTEPS]`. A
/// NaN CFL takes one substep (the step's health check rejects the
/// fields that produced it).
pub fn oifs_substeps(cfl: f64) -> usize {
    // `as` saturates: +∞ → usize::MAX, NaN → 0.
    ((cfl / OIFS_SUBSTEP_CFL).ceil() as usize).clamp(1, OIFS_MAX_SUBSTEPS)
}

/// Reusable OIFS sweep storage, sized by the first sweep (a solver that
/// never runs OIFS allocates none).
#[derive(Default)]
pub struct OifsScratch {
    /// Per swept field: the RK stage argument.
    stage: Vec<Vec<f64>>,
    /// Per swept field: the substep's accumulated update.
    acc: Vec<Vec<f64>>,
    /// The advecting velocity at the current stage time, in
    /// contravariant form.
    cc: Vec<Vec<f64>>,
    /// One field's rate at one stage.
    rate: Vec<f64>,
}

/// Make `bufs` hold `count` vectors of length `n`.
fn fit(bufs: &mut Vec<Vec<f64>>, count: usize, n: usize) {
    bufs.resize_with(count, Vec::new);
    for b in bufs.iter_mut() {
        b.resize(n, 0.0);
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

/// The advecting velocity at time `s`, in contravariant form.
fn advecting_field(ops: &SemOps, levels: &[Level], s: f64, cc: &mut [Vec<f64>]) {
    #[cfg(test)]
    tally::add(1, 0);
    interp_velocity(levels, s, cc);
    contravariant(ops, cc);
}

/// `out = (w·∇)φ` for the advecting field `cc`, averaged across shared
/// nodes to stay in the C⁰ space (the RK rate is its negative).
fn rate(ops: &SemOps, cc: &[Vec<f64>], phi: &[f64], out: &mut [f64]) {
    #[cfg(test)]
    tally::add(0, 1);
    convect_contravariant(ops, cc, phi, out);
    ops.gs.gs_avg(out);
}

/// The OIFS history sum of every field in the ring: on return
/// `out[f] = Σ_j coeffs[j]·S(t_new←levels[j].time) levels[j].values[f]`,
/// where `S` advects along the velocity interpolated from all `levels`
/// (newest first; the velocity is their first fields).
///
/// One nested sweep builds the sum in Horner form from the oldest
/// weighted level up to `t_new`, adding each level's term as it passes
/// the level's time; each interval between consecutive times gets
/// `rk_steps` classical RK4 steps (the solver sizes them from the
/// step's CFL with [`oifs_substeps`]). All fields advance together, so
/// the velocity is interpolated once per distinct stage time:
/// `1 + 2·rk_steps·coeffs.len()` times per sweep.
///
/// # Panics
/// Panics without coefficients, with more coefficients than levels, on
/// zero `rk_steps`, or when `out` does not hold one vector per field.
pub fn oifs_sweep(
    ops: &SemOps,
    levels: &[Level],
    coeffs: &[f64],
    t_new: f64,
    rk_steps: usize,
    scratch: &mut OifsScratch,
    out: &mut [Vec<f64>],
) {
    let m = coeffs.len();
    assert!(
        (1..=levels.len()).contains(&m),
        "need 1..=levels coefficients"
    );
    assert!(rk_steps >= 1, "need at least one RK substep");
    assert_eq!(out.len(), levels[0].values.len(), "one output per field");
    let n = ops.n_velocity();
    let OifsScratch {
        stage,
        acc,
        cc,
        rate: k,
    } = scratch;
    fit(stage, out.len(), n);
    fit(acc, out.len(), n);
    fit(cc, ops.geo.dim, n);
    k.resize(n, 0.0);
    for (o, phi) in out.iter_mut().zip(&levels[m - 1].values) {
        o.clear();
        o.extend(phi.iter().map(|&v| coeffs[m - 1] * v));
    }
    advecting_field(ops, levels, levels[m - 1].time, cc);
    for j in (0..m).rev() {
        let t0 = levels[j].time;
        let t1 = if j == 0 { t_new } else { levels[j - 1].time };
        let h = (t1 - t0) / rk_steps as f64;
        for step in 0..rk_steps {
            let s = t0 + h * step as f64;
            let s1 = if step + 1 == rk_steps {
                t1
            } else {
                t0 + h * (step + 1) as f64
            };
            // `cc` holds the advecting field at `s`.
            for ((u, a), t) in out.iter().zip(acc.iter_mut()).zip(stage.iter_mut()) {
                rate(ops, cc, u, k);
                for i in 0..n {
                    a[i] = u[i] - h / 6.0 * k[i];
                    t[i] = u[i] - 0.5 * h * k[i];
                }
            }
            advecting_field(ops, levels, s + 0.5 * h, cc);
            for ((u, a), t) in out.iter().zip(acc.iter_mut()).zip(stage.iter_mut()) {
                rate(ops, cc, t, k);
                for i in 0..n {
                    a[i] -= h / 3.0 * k[i];
                    t[i] = u[i] - 0.5 * h * k[i];
                }
                rate(ops, cc, t, k);
                for i in 0..n {
                    a[i] -= h / 3.0 * k[i];
                    t[i] = u[i] - h * k[i];
                }
            }
            advecting_field(ops, levels, s1, cc);
            for ((u, a), t) in out.iter_mut().zip(acc.iter()).zip(stage.iter()) {
                rate(ops, cc, t, k);
                for i in 0..n {
                    u[i] = a[i] - h / 6.0 * k[i];
                }
            }
        }
        if j > 0 {
            for (o, phi) in out.iter_mut().zip(&levels[j - 1].values) {
                for (ov, &v) in o.iter_mut().zip(phi) {
                    *ov += coeffs[j - 1] * v;
                }
            }
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

/// Test-only tally of the sweep's work on the calling thread: velocity
/// evaluations ([`advecting_field`]) and field stages ([`rate`]). A
/// velocity evaluation runs no `mxm`, so the flop account cannot see
/// it; being thread-local, the tally is not disturbed by tests running
/// in parallel.
#[cfg(test)]
pub(crate) mod tally {
    use std::cell::Cell;

    thread_local! {
        static TALLY: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    /// Count `evals` velocity evaluations and `stages` field stages.
    pub(crate) fn add(evals: usize, stages: usize) {
        TALLY.with(|t| {
            let (e, s) = t.get();
            t.set((e + evals, s + stages));
        });
    }

    /// `(velocity evaluations, field stages)` since the last call.
    pub(crate) fn take() -> (usize, usize) {
        TALLY.with(|t| t.replace((0, 0)))
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

    /// Sweep the fields of `levels` (velocity first) to `t_new`.
    fn sweep(
        ops: &SemOps,
        levels: &[Level],
        coeffs: &[f64],
        t_new: f64,
        rk_steps: usize,
    ) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); levels[0].values.len()];
        let mut scratch = OifsScratch::default();
        oifs_sweep(ops, levels, coeffs, t_new, rk_steps, &mut scratch, &mut out);
        out
    }

    #[test]
    fn advection_of_constant_is_invariant() {
        let ops = ops_periodic(2, 5);
        let n = ops.n_velocity();
        let vel = [level(
            0.0,
            vec![vec![0.7; n], vec![-0.3; n], vec![2.5; n]],
            vec![],
        )];
        let field = &sweep(&ops, &vel, &[1.0], 0.1, 4)[2];
        for &v in field {
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
        let field = eval_on_nodes(&ops, |x, _, _| (two_pi * x).sin());
        let vel = [level(0.0, vec![vec![1.0; n], vec![0.0; n], field], vec![])];
        let t = 0.25;
        let field = &sweep(&ops, &vel, &[1.0], t, 40)[2];
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
        let field = eval_on_nodes(&ops, |x, _, _| (two_pi * x).sin());
        let vel = [level(0.0, vec![vec![1.0; n], vec![0.0; n], field], vec![])];
        let t = 0.2;
        let want = eval_on_nodes(&ops, |x, _, _| (two_pi * (x - t)).sin());
        let mut errs = Vec::new();
        for steps in [5, 10, 20] {
            let field = &sweep(&ops, &vel, &[1.0], t, steps)[2];
            let err = field
                .iter()
                .zip(want.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            errs.push(err);
        }
        assert!(errs[1] < errs[0] && errs[2] < errs[1], "{errs:?}");
    }

    /// `k` uniformly spaced levels (newest first, Δt = 0.05) of a
    /// time-varying velocity and one scalar.
    fn moving_levels(ops: &SemOps, k: usize) -> Vec<Level> {
        let two_pi = 2.0 * std::f64::consts::PI;
        (0..k)
            .map(|j| {
                let a = 1.0 + 0.3 * j as f64;
                let values = vec![
                    eval_on_nodes(ops, |_, y, _| a * (two_pi * y).sin() + 0.5),
                    eval_on_nodes(ops, |x, _, _| (2.0 - a) * (two_pi * x).cos()),
                    eval_on_nodes(ops, |x, y, _| {
                        (two_pi * (x + 0.1 * j as f64)).sin() * (two_pi * y).cos()
                    }),
                ];
                level(1.0 - 0.05 * j as f64, values, vec![])
            })
            .collect()
    }

    #[test]
    fn nested_sweep_equals_the_weighted_single_level_sweeps() {
        let ops = ops_periodic(3, 6);
        for k in [2, 3] {
            let levels = moving_levels(&ops, k);
            let b = crate::config::bdf_coeffs(k).1;
            let t_new = 1.05;
            let nested = sweep(&ops, &levels, &b, t_new, 3);
            // Level j alone: coefficient 1 on it, 0 on the newer levels.
            let mut summed = vec![vec![0.0; ops.n_velocity()]; 3];
            for (j, bj) in b.iter().enumerate() {
                let mut unit = vec![0.0; j + 1];
                unit[j] = 1.0;
                let single = sweep(&ops, &levels, &unit, t_new, 3);
                for (s, f) in summed.iter_mut().zip(&single) {
                    for (sv, &v) in s.iter_mut().zip(f) {
                        *sv += bj * v;
                    }
                }
            }
            for (f, (a, b)) in nested.iter().zip(&summed).enumerate() {
                let scale = a.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                let diff = a
                    .iter()
                    .zip(b)
                    .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()));
                assert!(
                    diff <= 1e-12 * scale,
                    "BDF{k} field {f}: {diff:e} of {scale:e}"
                );
            }
        }
    }

    #[test]
    fn sweep_evaluates_the_velocity_once_per_stage_time() {
        // BDF2 with 4 substeps makes 1 + 2·4·2 = 17 velocity evaluations
        // and 4·4·2 stages for each of the 3 fields.
        let ops = ops_periodic(2, 4);
        let levels = moving_levels(&ops, 2);
        let b = crate::config::bdf_coeffs(2).1;
        tally::take();
        sweep(&ops, &levels, &b, 1.05, 4);
        assert_eq!(tally::take(), (17, 3 * 32));
    }

    #[test]
    fn substeps_follow_the_cfl_within_their_bounds() {
        let cases = [
            (0.0, 1),
            (0.035, 1),
            (0.5, 1),
            (0.64, 2),
            (1.7, 4),
            (3.4, 7),
            (5.0, 10),
            (f64::NAN, 1),
            (f64::INFINITY, OIFS_MAX_SUBSTEPS),
        ];
        for (cfl, want) in cases {
            assert_eq!(oifs_substeps(cfl), want, "CFL {cfl}");
        }
        // The paper's regime stays far below the cap.
        assert!(oifs_substeps(5.0) * 4 <= OIFS_MAX_SUBSTEPS);
    }

    #[test]
    fn sized_sweep_tracks_a_converged_sweep() {
        // A sin(2πx) profile translated by a uniform velocity over one
        // Δt at convective CFL ≈ 2 and ≈ 5: the CFL-sized sweep against
        // a 64-substep one. The bound writes down what the 0.5 target
        // costs in accuracy across the paper's CFL 1–5 range: measured
        // 3.1e-9 (4 substeps) and 7.7e-9 (10), each below the converged
        // sweep's own distance from the exact translate (8.6e-9, 1.0e-8).
        let ops = ops_periodic(4, 8);
        let n = ops.n_velocity();
        let two_pi = 2.0 * std::f64::consts::PI;
        let profile = eval_on_nodes(&ops, |x, _, _| (two_pi * x).sin());
        let vel = vec![vec![1.0; n], vec![0.0; n]];
        let values = vec![vel[0].clone(), vel[1].clone(), profile];
        let levels = [level(0.0, values, vec![])];
        let max_diff = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
        };
        for (dt, want) in [(0.025, 4), (0.0625, 10)] {
            let cfl = crate::diagnostics::cfl(&ops, &vel, dt);
            let sized = oifs_substeps(cfl);
            assert_eq!(sized, want, "CFL {cfl}");
            let coarse = &sweep(&ops, &levels, &[1.0], dt, sized)[2];
            let fine = &sweep(&ops, &levels, &[1.0], dt, 64)[2];
            let exact = eval_on_nodes(&ops, |x, _, _| (two_pi * (x - dt)).sin());
            let cost = max_diff(coarse, fine);
            let floor = max_diff(fine, &exact);
            assert!(
                cost < 1e-8 && cost < floor,
                "CFL {cfl}: sized sweep {cost:e} off the converged one (floor {floor:e})"
            );
        }
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
