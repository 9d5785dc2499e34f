//! Per-step diagnostics: the quantities the paper's instrumented code
//! reports (iteration counts, timings, flops) plus physical monitors
//! (CFL, kinetic energy, divergence).

use sem_ops::convect::gradient;
use sem_ops::fields::norm_l2;
use sem_ops::SemOps;

/// Statistics of one timestep.
#[derive(Clone, Debug, Default)]
pub struct StepStats {
    /// Step index (1-based after the first call to `step`).
    pub step: usize,
    /// Simulation time after the step.
    pub time: f64,
    /// Pressure CG iterations.
    pub pressure_iters: usize,
    /// Pressure residual before iterating (shows the projection gain).
    pub pressure_initial_residual: f64,
    /// Pressure residual at CG exit.
    pub pressure_final_residual: f64,
    /// Projection history depth `l` used for this solve.
    pub pressure_history_len: usize,
    /// Did the pressure CG meet its tolerance?
    pub pressure_converged: bool,
    /// Helmholtz iterations per velocity component.
    pub helmholtz_iters: Vec<usize>,
    /// Temperature solve iterations (0 when no scalar is active).
    pub temp_iters: usize,
    /// Convective CFL number of the step.
    pub cfl: f64,
    /// RK4 substeps per Δt the OIFS sweep ran, sized from `cfl` (0
    /// under EXT).
    pub oifs_substeps: usize,
    /// Flops spent in this step: the step's increment of the one flop
    /// account, `sem_obs::Counter::MxmFlops` (the `mxm` products; the
    /// pointwise work is not in it), so it equals the step record's
    /// `counters_delta.mxm_flops`. Like every counter it is process-wide,
    /// and it reads 0 while metrics are off (`sem_obs::set_enabled`).
    pub flops: u64,
    /// Wall-clock seconds for the step.
    pub seconds: f64,
    /// Rollback/retry attempts the recovery ladder needed before this
    /// step committed (0 on a clean step).
    pub recoveries: usize,
    /// The recovery trail of this step: what failed and how each retry
    /// escalated (empty on a clean step).
    pub recovery_trail: Vec<crate::recovery::RecoveryAttempt>,
}

impl StepStats {
    /// Bridge to a `sem_obs` per-timestep record. `dt` is the step size
    /// and `scalar_active` says whether a temperature/species solve ran
    /// this step (so `temp_iters = 0` can be told apart from "no scalar
    /// equation"). Registry snapshots are *not* filled here — call
    /// `StepRecord::capture_registries` with step-entry snapshots.
    pub fn to_record(&self, dt: f64, scalar_active: bool) -> sem_obs::StepRecord {
        sem_obs::StepRecord {
            step: self.step as u64,
            time: self.time,
            dt,
            cfl: self.cfl,
            oifs_substeps: self.oifs_substeps as u64,
            pressure_iterations: self.pressure_iters as u64,
            pressure_initial_residual: self.pressure_initial_residual,
            pressure_final_residual: self.pressure_final_residual,
            projection_depth: self.pressure_history_len as u64,
            pressure_converged: self.pressure_converged,
            helmholtz_iterations: self.helmholtz_iters.iter().map(|&i| i as u64).collect(),
            scalar_iterations: scalar_active.then_some(self.temp_iters as u64),
            seconds: self.seconds,
            recoveries: self.recoveries as u64,
            recovery_trail: self
                .recovery_trail
                .iter()
                .map(|a| a.stage_label().to_string())
                .collect(),
            ..sem_obs::StepRecord::default()
        }
    }
}

/// A failed field-health check (see [`field_health`] and the energy
/// watchdog in `NsSolver::step`).
#[derive(Clone, Debug)]
pub enum HealthViolation {
    /// A field contains NaN or Inf.
    NonFinite {
        /// Which field ("u", "v", "w", "p", "T", or a scalar name).
        field: String,
    },
    /// Kinetic energy grew past
    /// [`MAX_ENERGY_GROWTH`](crate::recovery::MAX_ENERGY_GROWTH) times
    /// its entry value in one step while staying finite.
    EnergyBlowup {
        /// Kinetic energy at step entry.
        before: f64,
        /// Kinetic energy after the attempted step.
        after: f64,
        /// `after / before`.
        factor: f64,
    },
}

impl std::fmt::Display for HealthViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthViolation::NonFinite { field } => {
                write!(f, "non-finite values in field `{field}`")
            }
            HealthViolation::EnergyBlowup {
                before,
                after,
                factor,
            } => write!(
                f,
                "kinetic energy blow-up: {before:.3e} -> {after:.3e} (x{factor:.1})"
            ),
        }
    }
}

/// Scan named fields for NaN/Inf; returns the first offender. Fields
/// are `(name, data)` pairs so velocity components, pressure,
/// temperature, and passive scalars can all be fed through one call.
pub fn field_health<'a, I>(fields: I) -> Option<HealthViolation>
where
    I: IntoIterator<Item = (&'a str, &'a [f64])>,
{
    for (name, data) in fields {
        if data.iter().any(|v| !v.is_finite()) {
            return Some(HealthViolation::NonFinite {
                field: name.to_string(),
            });
        }
    }
    None
}

/// Convective CFL: `max |C_a| Δt / Δξ_min` over all nodes and reference
/// directions `a`, where `C_a = Σ_c (∂r_a/∂x_c) u_c` is the velocity in
/// reference units (the transform [`sem_ops::convect::contravariant`]
/// applies) and `Δξ_min` the smallest GLL spacing on `[−1, 1]`. On an
/// axis-aligned element this is `max |u_d| Δt / (h_d Δξ_min / 2)`; on a
/// curved or rotated one it follows the element's own directions.
pub fn cfl(ops: &SemOps, vel: &[Vec<f64>], dt: f64) -> f64 {
    let geo = &ops.geo;
    let dim = geo.dim;
    let dref = geo.gll.points[1] - geo.gll.points[0];
    let mut worst = 0.0_f64;
    for (i, d) in geo.drdx.chunks_exact(dim * dim).enumerate() {
        for row in d.chunks_exact(dim) {
            let c: f64 = row.iter().zip(vel).map(|(g, u)| g * u[i]).sum();
            worst = worst.max(c.abs());
        }
    }
    worst * dt / dref
}

/// Total kinetic energy `½ ∫ |u|²`.
pub fn kinetic_energy(ops: &SemOps, vel: &[Vec<f64>]) -> f64 {
    vel.iter()
        .map(|c| {
            let n = norm_l2(ops, c);
            0.5 * n * n
        })
        .sum()
}

/// L² norm of the pointwise divergence (a physical-space diagnostic; the
/// discrete constraint `D u = 0` is enforced in the weak sense).
pub fn divergence_norm(ops: &SemOps, vel: &[Vec<f64>]) -> f64 {
    let n = ops.n_velocity();
    let dim = ops.geo.dim;
    let mut g = vec![vec![0.0; n]; dim];
    let mut div = vec![0.0; n];
    for (c, comp) in vel.iter().enumerate() {
        gradient(ops, comp, &mut g);
        for (dv, &gv) in div.iter_mut().zip(g[c].iter()) {
            *dv += gv;
        }
    }
    norm_l2(ops, &div)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_mesh::generators::box2d;
    use sem_ops::fields::eval_on_nodes;

    fn ops2d() -> SemOps {
        SemOps::new(box2d(2, 2, [0.0, 1.0], [0.0, 1.0], true, true), 6)
    }

    #[test]
    fn cfl_scales_linearly_with_dt_and_velocity() {
        let ops = ops2d();
        let n = ops.n_velocity();
        let vel = vec![vec![2.0; n], vec![0.0; n]];
        let c1 = cfl(&ops, &vel, 0.1);
        let c2 = cfl(&ops, &vel, 0.2);
        assert!((c2 - 2.0 * c1).abs() < 1e-12);
        let vel2 = vec![vec![4.0; n], vec![0.0; n]];
        let c3 = cfl(&ops, &vel2, 0.1);
        assert!((c3 - 2.0 * c1).abs() < 1e-12);
    }

    /// The bounding-box CFL: `max |u_d| Δt / (extent_d · Δξ_min / 2)`
    /// per element, exact only on axis-aligned elements.
    fn bounding_box_cfl(ops: &SemOps, vel: &[Vec<f64>], dt: f64) -> f64 {
        let geo = &ops.geo;
        let dref = geo.gll.points[1] - geo.gll.points[0];
        let mut worst = 0.0_f64;
        for e in 0..geo.k {
            let ext = geo.element_extents(e);
            for (d, comp) in vel.iter().enumerate() {
                let part = &comp[e * geo.npts..(e + 1) * geo.npts];
                let vmax = part.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                worst = worst.max(vmax * dt / (ext[d] * dref / 2.0));
            }
        }
        worst
    }

    #[test]
    fn cfl_is_invariant_under_rotating_mesh_and_velocity_together() {
        // A stretched 3×2 box and a sheared velocity, then both turned
        // by 45°: node i of the rotated mesh is node i of the original.
        let flow = |x: f64, y: f64| [1.0 + x * y, 0.5 - y * y];
        let mesh = box2d(3, 2, [0.0, 2.0], [0.0, 1.0], false, false);
        // cos 45° = sin 45°.
        let r = std::f64::consts::FRAC_1_SQRT_2;
        let mut turned = mesh.clone();
        for v in &mut turned.verts {
            *v = [r * (v[0] - v[1]), r * (v[0] + v[1]), v[2]];
        }
        let ops = SemOps::new(mesh, 6);
        let rot = SemOps::new(turned, 6);
        let n = ops.n_velocity();
        let mut vel = vec![vec![0.0; n]; 2];
        let mut vel_rot = vec![vec![0.0; n]; 2];
        for i in 0..n {
            let [u, v] = flow(ops.geo.x[i], ops.geo.y[i]);
            vel[0][i] = u;
            vel[1][i] = v;
            vel_rot[0][i] = r * (u - v);
            vel_rot[1][i] = r * (u + v);
        }
        let dt = 0.01;
        let straight = cfl(&ops, &vel, dt);
        let turned = cfl(&rot, &vel_rot, dt);
        assert!(
            (turned - straight).abs() <= 1e-12 * straight,
            "rotation moved the CFL: {straight} -> {turned}"
        );
        // On the axis-aligned box the element-extent measure agrees;
        // on the turned one it reads half.
        let boxed = bounding_box_cfl(&ops, &vel, dt);
        assert!(
            (boxed - straight).abs() <= 1e-12 * straight,
            "{boxed} vs {straight}"
        );
        let boxed_turned = bounding_box_cfl(&rot, &vel_rot, dt);
        assert!(boxed_turned < 0.75 * turned, "{boxed_turned} vs {turned}");
    }

    #[test]
    fn kinetic_energy_of_uniform_flow() {
        let ops = ops2d();
        let n = ops.n_velocity();
        let vel = vec![vec![3.0; n], vec![4.0; n]];
        // ½(9 + 16)·area = 12.5.
        let ke = kinetic_energy(&ops, &vel);
        assert!((ke - 12.5).abs() < 1e-9, "{ke}");
    }

    #[test]
    fn divergence_norm_of_solenoidal_field() {
        let ops = ops2d();
        let u = eval_on_nodes(&ops, |_, y, _| y);
        let v = eval_on_nodes(&ops, |x, _, _| x);
        let d = divergence_norm(&ops, &[u, v]);
        assert!(d < 1e-10, "{d}");
        let u2 = eval_on_nodes(&ops, |x, _, _| x);
        let d2 = divergence_norm(&ops, &[u2, eval_on_nodes(&ops, |_, _, _| 0.0)]);
        assert!((d2 - 1.0).abs() < 1e-9, "{d2}");
    }

    #[test]
    fn field_health_finds_first_nonfinite_field() {
        let clean = vec![1.0, 2.0, 3.0];
        let poisoned = vec![1.0, f64::NAN, 3.0];
        let inf = vec![f64::INFINITY];
        assert!(field_health([("u", clean.as_slice())]).is_none());
        match field_health([("u", clean.as_slice()), ("p", poisoned.as_slice())]) {
            Some(HealthViolation::NonFinite { field }) => assert_eq!(field, "p"),
            other => panic!("unexpected: {other:?}"),
        }
        match field_health([("T", inf.as_slice())]) {
            Some(HealthViolation::NonFinite { field }) => assert_eq!(field, "T"),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
