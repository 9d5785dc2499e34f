//! The time stepper: BDFk / EXTk–OIFS incremental pressure-correction
//! splitting (§4).
//!
//! Every transported field — the velocity components, the Boussinesq
//! temperature and each passive species — keeps its past values in one
//! ring of time levels ([`Level`]; under EXT every field also keeps its
//! past `(u·∇)φ` there), every field is convected by the scheme
//! `cfg.convection` names, and every field advances through one
//! transport routine: explicit BDF/EXT right-hand side, Dirichlet lift,
//! a Jacobi-PCG Helmholtz solve `H = κA + (β₀/Δt)B` (one cached solver
//! per diffusivity κ), unlift, filter. Each step performs, in order:
//!
//! 1. the ring push: the current fields become the newest level;
//! 2. the BDF history terms of every field — under OIFS advected to
//!    `t^{n+1}` by characteristics in one nested sweep over all fields
//!    ([`crate::convection::oifs_sweep`]), under EXT plus the
//!    extrapolated convection;
//! 3. the velocity's own terms — forcing, Boussinesq buoyancy, and the
//!    previous pressure gradient (incremental form) — and one Helmholtz
//!    solve per component;
//! 4. the pressure-increment solve `E δp = −(β₀/Δt) D u*` through the
//!    projection + Schwarz-PCG pressure solver, followed by the velocity
//!    correction `uⁿ = u* + (Δt/β₀) B̄⁻¹ Dᵀ δp`;
//! 5. the velocity filter;
//! 6. the temperature, then each species, through the same routine.
//!
//! Under OIFS the temperature and the species ride the velocity's
//! characteristics, so they stay stable at the convective CFL of 1–5
//! the velocity is run at.
//!
//! The guarded step's rollback snapshot is the [`Checkpoint`] value the
//! run supervisor writes: [`NsSolver::checkpoint`] is the one capture,
//! and one assignment serves both [`NsSolver::restore_checkpoint`] and
//! the rollback.

use crate::checkpoint::{Checkpoint, Level, Slot, Species};
use crate::config::{bdf_coeffs, ext_coeffs, Boussinesq, ConvectionScheme, NsConfig};
use crate::convection::{ext_convection, oifs_substeps, oifs_sweep, OifsScratch};
use crate::diagnostics::{cfl, field_health, kinetic_energy, HealthViolation, StepStats};
use crate::fault::{FaultKind, FieldTarget};
use crate::recovery::{
    RecoveryAttempt, RecoveryStage, SolveKind, StepError, StepFailure, DT_RECOVERY_STEPS,
    MAX_DT_HALVINGS, MAX_ENERGY_GROWTH,
};
use sem_obs::fault::{self as obs_fault, FaultSite};
use sem_obs::{Counter, Phase};
use sem_ops::convect::{contravariant, convect_contravariant};
use sem_ops::filter::ElementFilter;
use sem_ops::laplace::helmholtz_local;
use sem_ops::pressure::{divergence, gradient_assembled, gradient_weak};
use sem_ops::SemOps;
use sem_solvers::jacobi::HelmholtzSolver;
use sem_solvers::pressure_solver::PressureSolveStats;
use sem_solvers::{CgResult, PressureSolver};
use std::ops::Range;
use std::time::Instant;

/// Velocity boundary-value function: `(x, y, z, t) → [u, v, w]`.
pub type BcFn = Box<dyn Fn(f64, f64, f64, f64) -> [f64; 3] + Sync + Send>;
/// Body-force function: `(x, y, z, t) → [fx, fy, fz]`.
pub type ForceFn = Box<dyn Fn(f64, f64, f64, f64) -> [f64; 3] + Sync + Send>;
/// Scalar boundary/initial value function: `(x, y, z, t) → T`.
pub type ScalarFn = Box<dyn Fn(f64, f64, f64, f64) -> f64 + Sync + Send>;

/// The incompressible Navier–Stokes solver.
///
/// # Examples
///
/// A few steps of a decaying Taylor–Green vortex:
///
/// ```
/// use sem_mesh::generators::box2d;
/// use sem_ns::{NsConfig, NsSolver};
/// use sem_ops::SemOps;
/// let l = 2.0 * std::f64::consts::PI;
/// let mesh = box2d(2, 2, [0.0, l], [0.0, l], true, true);
/// let ops = SemOps::new(mesh, 6);
/// let mut solver = NsSolver::new(ops, NsConfig { dt: 5e-3, nu: 0.05, ..Default::default() });
/// solver.set_velocity(|x, y, _| [x.sin() * y.cos(), -x.cos() * y.sin(), 0.0]);
/// for _ in 0..3 {
///     let stats = solver.step().expect("no faults configured, step cannot fail");
///     assert!(stats.pressure_iters > 0);
/// }
/// assert!(solver.time > 0.0);
/// ```
pub struct NsSolver {
    /// The discretization bundle.
    pub ops: SemOps,
    /// Configuration.
    pub cfg: NsConfig,
    /// Current velocity components.
    pub vel: Vec<Vec<f64>>,
    /// Current pressure (on the `P_{N−2}` Gauss grid).
    pub pressure: Vec<f64>,
    /// Current temperature (when Boussinesq coupling is active).
    pub temp: Option<Vec<f64>>,
    /// Simulation time.
    pub time: f64,
    /// Steps taken.
    pub step_index: usize,
    /// Passive species, in registration order.
    scalars: Vec<Species>,
    /// Past levels of every transported field, newest first.
    ring: Vec<Level>,
    /// Helmholtz solvers keyed by diffusivity, with the `h2` each was
    /// built for.
    helmholtz: Vec<(f64, f64, HelmholtzSolver)>,
    pressure_solver: PressureSolver,
    filter: Option<ElementFilter>,
    bc: Option<BcFn>,
    force: Option<ForceFn>,
    temp_bc: Option<ScalarFn>,
    /// Dirichlet data of each species (`set_scalar_bc`).
    scalar_bc: Vec<Option<ScalarFn>>,
    oifs_scratch: OifsScratch,
    /// Pending Δt restoration after a stage-3 (Δt-halving) recovery.
    dt_restore: Option<DtRestore>,
}

/// Bookkeeping for restoring the original Δt after a halving recovery.
#[derive(Clone, Copy, Debug)]
struct DtRestore {
    /// The Δt to return to.
    original_dt: f64,
    /// Clean steps still required before restoring.
    clean_steps_left: usize,
}

/// Transported field `f`, borrowed apart from the rest of the solver.
fn field_mut<'a>(
    vel: &'a mut [Vec<f64>],
    temp: &'a mut Option<Vec<f64>>,
    scalars: &'a mut [Species],
    f: usize,
) -> &'a mut Vec<f64> {
    match Slot::of(f, vel.len(), temp.is_some()) {
        Slot::Vel(c) => &mut vel[c],
        Slot::Temp => temp.as_mut().expect("the temperature slot"),
        Slot::Species(s) => &mut scalars[s].values,
    }
}

impl NsSolver {
    /// Create a solver at rest on `ops`.
    pub fn new(ops: SemOps, cfg: NsConfig) -> Self {
        if cfg.metrics {
            sem_obs::set_enabled(true);
        }
        let n = ops.n_velocity();
        let np = ops.n_pressure();
        let dim = ops.geo.dim;
        let pressure_solver =
            PressureSolver::with_schwarz(&ops, cfg.schwarz, cfg.pressure_lmax, cfg.pressure_cg);
        let filter = (cfg.filter_alpha > 0.0).then(|| ElementFilter::new(&ops, cfg.filter_alpha));
        let temp = cfg.boussinesq.map(|_| vec![0.0; n]);
        NsSolver {
            vel: vec![vec![0.0; n]; dim],
            pressure: vec![0.0; np],
            temp,
            time: 0.0,
            step_index: 0,
            scalars: Vec::new(),
            ring: Vec::new(),
            helmholtz: Vec::new(),
            pressure_solver,
            filter,
            bc: None,
            force: None,
            temp_bc: None,
            scalar_bc: Vec::new(),
            oifs_scratch: OifsScratch::default(),
            dt_restore: None,
            ops,
            cfg,
        }
    }

    /// Set the initial velocity from a function.
    pub fn set_velocity(&mut self, f: impl Fn(f64, f64, f64) -> [f64; 3] + Sync) {
        let dim = self.ops.geo.dim;
        for i in 0..self.ops.n_velocity() {
            let v = f(self.ops.geo.x[i], self.ops.geo.y[i], self.ops.geo.z[i]);
            for c in 0..dim {
                self.vel[c][i] = v[c];
            }
        }
    }

    /// Set the initial temperature from a function.
    ///
    /// # Panics
    /// Panics unless Boussinesq coupling is configured.
    pub fn set_temperature(&mut self, f: impl Fn(f64, f64, f64) -> f64 + Sync) {
        let t = self
            .temp
            .as_mut()
            .expect("set_temperature requires Boussinesq coupling");
        for i in 0..self.ops.n_velocity() {
            t[i] = f(self.ops.geo.x[i], self.ops.geo.y[i], self.ops.geo.z[i]);
        }
    }

    /// Set the (time-dependent) velocity Dirichlet boundary values.
    pub fn set_bc(&mut self, f: BcFn) {
        self.bc = Some(f);
    }

    /// Set the body force.
    pub fn set_forcing(&mut self, f: ForceFn) {
        self.force = Some(f);
    }

    /// Set the temperature Dirichlet boundary values.
    pub fn set_temp_bc(&mut self, f: ScalarFn) {
        self.temp_bc = Some(f);
    }

    /// Every transported field's current values, in ring order (see
    /// [`Slot`]).
    fn fields(&self) -> impl Iterator<Item = &Vec<f64>> {
        let species = self.scalars.iter().map(|sc| &sc.values);
        self.vel.iter().chain(&self.temp).chain(species)
    }

    /// Index of the cached Helmholtz solver for diffusivity `kappa`,
    /// (re)built when `h2` moved.
    fn helmholtz_for(&mut self, kappa: f64, h2: f64) -> usize {
        let current = |&(k, h, _): &(f64, f64, _)| k == kappa && (h - h2).abs() <= 1e-14 * h2.abs();
        if let Some(s) = self.helmholtz.iter().position(current) {
            return s;
        }
        self.helmholtz.retain(|&(k, ..)| k != kappa);
        let solver = HelmholtzSolver::new(&self.ops, kappa, h2, self.cfg.helmholtz_cg);
        self.helmholtz.push((kappa, h2, solver));
        self.helmholtz.len() - 1
    }

    /// Advance one timestep; returns the step's statistics.
    ///
    /// With `cfg.metrics` on, additionally emits one
    /// [`sem_obs::StepRecord`] to the metrics sink (stdout `JSON `-
    /// prefixed lines by default; see `sem_obs::sink` and the schema in
    /// `crates/obs/src/record.rs`).
    ///
    /// # Errors
    ///
    /// Without a fault plan and with recovery disabled (the defaults)
    /// this never fails: the step body is the pre-`sem-guard` fast path
    /// — no snapshot, bitwise-identical results. When
    /// [`crate::NsConfig::faults`] or [`crate::NsConfig::recovery`] is
    /// active, a failed step (CG breakdown, non-finite field, energy
    /// blow-up, dropped gather-scatter exchange) is rolled back and
    /// retried through the escalation ladder of [`crate::recovery`];
    /// when the ladder is exhausted (or recovery is disabled) a
    /// [`StepError`] is returned with the solver left at the pre-step
    /// state.
    pub fn step(&mut self) -> Result<StepStats, StepError> {
        let wall = Instant::now();
        let counters0 = sem_obs::counters::snapshot();
        let spans0 = sem_obs::spans::span_snapshot();
        let hist0 = sem_obs::hist::hist_snapshot();
        let step_span = sem_obs::span(Phase::Step);
        let guarded = self.cfg.recovery.enabled || self.cfg.faults.is_some();
        let mut stats = if guarded {
            self.guarded_step()?
        } else {
            self.attempt_step().0
        };
        drop(step_span);
        stats.flops = sem_obs::counters::get(Counter::MxmFlops) - counters0.get(Counter::MxmFlops);
        stats.seconds = wall.elapsed().as_secs_f64();
        if self.cfg.metrics {
            let scalar_active = self.cfg.boussinesq.is_some() || !self.scalars.is_empty();
            let mut rec = stats.to_record(self.cfg.dt, scalar_active);
            rec.capture_registries((&counters0, &spans0, &hist0));
            // Per-solver attribution: a solver carrying its own rank
            // stamp / sink routes records there even when several
            // solvers share one process (sem-serve supervisors), so
            // streams stay separable without touching the globals.
            if self.cfg.rank.is_some() {
                rec.rank = self.cfg.rank;
            }
            match &self.cfg.sink {
                Some(h) => h.0.emit(&rec.to_json_body()),
                None => rec.emit(),
            }
        }
        Ok(stats)
    }

    /// One attempt of the step body (the pre-`sem-guard` `step`).
    /// Returns the stats (with `flops`/`seconds` left at zero for the
    /// caller to fill) and the first failure observed, if any. The
    /// attempt always runs to completion — a breakdown leaves garbage
    /// in the fields, which the caller rolls back.
    fn attempt_step(&mut self) -> (StepStats, Option<StepFailure>) {
        let mut failure: Option<StepFailure> = None;
        let dim = self.vel.len();
        let t_new = self.time + self.cfg.dt;
        self.step_index += 1;
        self.push_level();
        // Effective BDF order: limited by the levels available, so the
        // first step runs BDF1, the second BDF2, ….
        let k = self.cfg.torder.min(self.ring.len()).max(1);
        let cfl_now = cfl(&self.ops, &self.vel, self.cfg.dt);
        let (mut rhs, oifs_substeps) = self.history_rhs(k, t_new, cfl_now);
        let scalars = rhs.split_off(dim);
        let (helm_iters, pstats) = self.transport(0..dim, rhs, k, t_new, &mut failure);
        let mut temp_iters = 0;
        for (f, r) in (dim..).zip(scalars) {
            temp_iters += self.transport(f..f + 1, vec![r], k, t_new, &mut failure).0[0];
        }
        let pstats = pstats.expect("the velocity transport runs the pressure correction");
        self.time = t_new;
        let stats = StepStats {
            step: self.step_index,
            time: self.time,
            pressure_iters: pstats.iterations,
            pressure_initial_residual: pstats.initial_residual,
            pressure_final_residual: pstats.residual,
            pressure_history_len: pstats.history_len,
            pressure_converged: pstats.converged,
            helmholtz_iters: helm_iters,
            temp_iters,
            cfl: cfl_now,
            oifs_substeps,
            ..StepStats::default()
        };
        (stats, failure)
    }

    /// Push the current fields as the ring's newest level (recycling the
    /// oldest level's buffers once the ring is `torder` deep). Under EXT
    /// every field stores its `(u·∇)φ`, from one contravariant velocity;
    /// under any other scheme no field keeps convective history, stale
    /// entries of older levels included.
    fn push_level(&mut self) {
        let n = self.ops.n_velocity();
        let depth = self.cfg.torder;
        let mut level = if self.ring.len() >= depth {
            self.ring.pop().unwrap_or_default()
        } else {
            Level::default()
        };
        let fields: Vec<&Vec<f64>> = self.fields().collect();
        level.time = self.time;
        level.values.resize(fields.len(), Vec::new());
        level.conv.resize(fields.len(), Vec::new());
        for (values, phi) in level.values.iter_mut().zip(&fields) {
            values.clone_from(phi);
        }
        if matches!(self.cfg.convection, ConvectionScheme::Ext) {
            let dim = self.vel.len();
            // The Convection span times the velocity's convection; the
            // scalars' convection is step self-time.
            let mut conv_span = Some(sem_obs::span(Phase::Convection));
            let mut cc = self.vel.clone();
            contravariant(&self.ops, &mut cc);
            for (f, (conv, phi)) in level.conv.iter_mut().zip(fields).enumerate() {
                conv_span = conv_span.filter(|_| f < dim);
                conv.resize(n, 0.0);
                convect_contravariant(&self.ops, &cc, phi, conv);
            }
        } else {
            for conv in self
                .ring
                .iter_mut()
                .chain([&mut level])
                .flat_map(|l| &mut l.conv)
            {
                *conv = Vec::new();
            }
        }
        self.ring.insert(0, level);
        self.ring.truncate(depth);
    }

    /// Advance the fields `fs` (the velocity components, or one scalar)
    /// one step from their explicit history right-hand side `rhs`:
    /// Dirichlet lift → Helmholtz solve → unlift → filter. The velocity
    /// adds its forcing, buoyancy and pressure-gradient terms before the
    /// solves and runs the pressure correction between its solves and
    /// its filter. The first breakdown is recorded in `failure`. Returns
    /// the Helmholtz iterations per field, and the pressure statistics
    /// for the velocity.
    fn transport(
        &mut self,
        fs: Range<usize>,
        mut rhs: Vec<Vec<f64>>,
        k: usize,
        t_new: f64,
        failure: &mut Option<StepFailure>,
    ) -> (Vec<usize>, Option<PressureSolveStats>) {
        let velocity = fs.start == 0;
        let h2 = bdf_coeffs(k).0 / self.cfg.dt;
        if velocity {
            self.momentum_terms(&mut rhs, k, t_new);
        }
        for r in rhs.iter_mut() {
            self.ops.dssum_mask(r);
        }
        // The velocity's solves are one Helmholtz span, lifts and solver
        // builds included; a scalar's span times its CG solve only.
        let helm_span = velocity.then(|| sem_obs::span(Phase::Helmholtz));
        let mut iters = Vec::with_capacity(fs.len());
        for (f, b) in fs.clone().zip(rhs.iter_mut()) {
            let res = self.helmholtz_solve(f, b, h2, t_new);
            if let (None, Some(breakdown)) = (&failure, res.breakdown) {
                let solve = if velocity {
                    SolveKind::Helmholtz(f)
                } else {
                    SolveKind::Scalar
                };
                *failure = Some(StepFailure::Breakdown { solve, breakdown });
            }
            iters.push(res.iterations);
        }
        drop(helm_span);
        let pstats = velocity.then(|| self.correct_pressure(h2, failure));
        if let Some(filter) = &self.filter {
            let _filter_span = sem_obs::span(Phase::Filter);
            for f in fs {
                let phi = field_mut(&mut self.vel, &mut self.temp, &mut self.scalars, f);
                filter.apply(&self.ops, phi);
            }
        }
        (iters, pstats)
    }

    /// Explicit BDF/EXT right-hand side of every transported field from
    /// the ring: `Σ_j (b_j/Δt) B φ^{n−j}` — under OIFS with every level
    /// advected to `t_new` along characteristics by one nested sweep of
    /// [`oifs_substeps`]`(cfl)` RK4 substeps per Δt — plus
    /// `B · EXTk[−(u·∇)φ]` for an EXT-convected field. Also returns the
    /// sweep's substeps per Δt (0 under EXT).
    fn history_rhs(&mut self, k: usize, t_new: f64, cfl: f64) -> (Vec<Vec<f64>>, usize) {
        let bj = bdf_coeffs(k).1;
        let n = self.ops.n_velocity();
        let dt = self.cfg.dt;
        let bm = &self.ops.geo.bm;
        let mut rhs = vec![vec![0.0; n]; self.ring[0].values.len()];
        if self.cfg.convection == ConvectionScheme::Oifs {
            let _conv_span = sem_obs::span(Phase::Convection);
            let _oifs_span = sem_obs::span(Phase::Oifs);
            let substeps = oifs_substeps(cfl);
            let scratch = &mut self.oifs_scratch;
            oifs_sweep(
                &self.ops, &self.ring, &bj, t_new, substeps, scratch, &mut rhs,
            );
            for r in rhs.iter_mut() {
                for i in 0..n {
                    r[i] *= bm[i] / dt;
                }
            }
            return (rhs, substeps);
        }
        for (coeff, level) in bj.iter().zip(&self.ring) {
            for (r, past) in rhs.iter_mut().zip(&level.values) {
                for i in 0..n {
                    r[i] += (coeff / dt) * bm[i] * past[i];
                }
            }
        }
        let mut cx = vec![0.0; n];
        for (f, r) in rhs.iter_mut().enumerate() {
            let m = self
                .ring
                .iter()
                .take_while(|l| !l.conv[f].is_empty())
                .count();
            if m > 0 {
                ext_convection(k, &self.ring[..m], f, &mut cx);
                for i in 0..n {
                    r[i] += bm[i] * cx[i];
                }
            }
        }
        (rhs, 0)
    }

    /// The velocity's own right-hand-side terms: the body force, the
    /// Boussinesq buoyancy of the extrapolated temperature, and the
    /// previous pressure gradient (incremental form).
    fn momentum_terms(&self, rhs: &mut [Vec<f64>], k: usize, t_new: f64) {
        let n = self.ops.n_velocity();
        let geo = &self.ops.geo;
        let bm = &geo.bm;
        if let Some(f) = &self.force {
            for i in 0..n {
                let fv = f(geo.x[i], geo.y[i], geo.z[i], t_new);
                for (c, r) in rhs.iter_mut().enumerate() {
                    r[i] += bm[i] * fv[c];
                }
            }
        }
        if let Some(Boussinesq { g_beta, .. }) = self.cfg.boussinesq {
            let mut text = vec![0.0; n];
            let c = ext_coeffs(k.min(self.ring.len()));
            for (cj, level) in c.iter().zip(&self.ring) {
                for (tv, &hv) in text.iter_mut().zip(&level.values[rhs.len()]) {
                    *tv += cj * hv;
                }
            }
            for (c, r) in rhs.iter_mut().enumerate() {
                if g_beta[c] != 0.0 {
                    for i in 0..n {
                        r[i] += bm[i] * g_beta[c] * text[i];
                    }
                }
            }
        }
        let mut gp = vec![vec![0.0; n]; rhs.len()];
        gradient_weak(&self.ops, &self.pressure, &mut gp);
        for (r, g) in rhs.iter_mut().zip(&gp) {
            for i in 0..n {
                r[i] += g[i];
            }
        }
    }

    /// Lift → solve → unlift for field `f`: impose its Dirichlet data at
    /// `t_new` on a copy of its values — the velocity BC (zero without
    /// one), the temperature's or the species' BC (without one, the
    /// boundary values are kept) — solve for the homogeneous part (`rhs`
    /// loses the lift's Helmholtz image) from the cached solver for its
    /// diffusivity, and store the sum.
    fn helmholtz_solve(&mut self, f: usize, rhs: &mut [f64], h2: f64, t_new: f64) -> CgResult {
        let slot = Slot::of(f, self.vel.len(), self.temp.is_some());
        let (kappa, scalar_bc) = match slot {
            Slot::Vel(_) => (self.cfg.nu, None),
            Slot::Temp => (
                self.cfg.boussinesq.expect("the temperature slot").kappa,
                self.temp_bc.as_ref(),
            ),
            Slot::Species(s) => (self.scalars[s].kappa, self.scalar_bc[s].as_ref()),
        };
        let phi = self.fields().nth(f).expect("transported field index");
        let mut lift = phi.clone();
        let geo = &self.ops.geo;
        for i in (0..lift.len()).filter(|&i| self.ops.mask[i] == 0.0) {
            let (x, y, z) = (geo.x[i], geo.y[i], geo.z[i]);
            if let Slot::Vel(c) = slot {
                lift[i] = self.bc.as_ref().map_or(0.0, |bc| bc(x, y, z, t_new)[c]);
            } else if let Some(bc) = scalar_bc {
                lift[i] = bc(x, y, z, t_new);
            }
        }
        let mut h_lift = vec![0.0; lift.len()];
        helmholtz_local(&self.ops, &lift, &mut h_lift, kappa, h2);
        self.ops.dssum_mask(&mut h_lift);
        for (b, h) in rhs.iter_mut().zip(&h_lift) {
            *b -= h;
        }
        // Initial guess: the previous homogeneous part.
        let mut u0: Vec<f64> = phi
            .iter()
            .zip(&lift)
            .zip(&self.ops.mask)
            .map(|((&u, &l), &m)| (u - l) * m)
            .collect();
        let s = self.helmholtz_for(kappa, h2);
        let helm_span = (f >= self.vel.len()).then(|| sem_obs::span(Phase::Helmholtz));
        let res = self.helmholtz[s].2.solve(&self.ops, &mut u0, rhs);
        drop(helm_span);
        for (u, l) in u0.iter_mut().zip(&lift) {
            *u += l;
        }
        *field_mut(&mut self.vel, &mut self.temp, &mut self.scalars, f) = u0;
        res
    }

    /// The pressure increment `E δp = −(β₀/Δt) D u*` and the velocity
    /// correction `uⁿ = u* + (Δt/β₀) B̄⁻¹ Dᵀ δp`.
    fn correct_pressure(
        &mut self,
        h2: f64,
        failure: &mut Option<StepFailure>,
    ) -> PressureSolveStats {
        let n = self.ops.n_velocity();
        let np = self.ops.n_pressure();
        let mut g = vec![0.0; np];
        let refs: Vec<&[f64]> = self.vel.iter().map(Vec::as_slice).collect();
        divergence(&self.ops, &refs, &mut g);
        for v in g.iter_mut() {
            *v *= -h2;
        }
        let mut dp = vec![0.0; np];
        let pstats = self.pressure_solver.solve(&self.ops, &mut dp, &mut g);
        if let (None, Some(breakdown)) = (&failure, pstats.breakdown) {
            *failure = Some(StepFailure::Breakdown {
                solve: SolveKind::Pressure,
                breakdown,
            });
        }
        for (p, &d) in self.pressure.iter_mut().zip(dp.iter()) {
            *p += d;
        }
        // u += (1/h2)·B̄⁻¹·mask·Σ Dᵀ δp, every component assembled by one
        // exchange; the mask (dssum_mask's) comes before the update.
        let mut w = vec![0.0; self.vel.len() * n];
        gradient_assembled(&self.ops, &dp, &mut w);
        let (mask, bm) = (&self.ops.mask, &self.ops.bm_assembled);
        for (u, wc) in self.vel.iter_mut().zip(w.chunks_exact(n)) {
            for i in 0..n {
                let wm = wc[i] * mask[i];
                u[i] += (1.0 / h2) * wm / bm[i];
            }
        }
        pstats
    }

    /// The guarded step: snapshot, inject scheduled faults, attempt,
    /// and walk the recovery ladder on failure (see
    /// [`crate::recovery`]). The snapshot is [`NsSolver::checkpoint`];
    /// a rollback assigns it back but keeps the pending Δt restoration.
    fn guarded_step(&mut self) -> Result<StepStats, StepError> {
        let kinetic = kinetic_energy(&self.ops, &self.vel);
        let snap = self.checkpoint();
        let (step_idx, original_dt) = (self.step_index + 1, snap.dt);
        let mut trail: Vec<RecoveryAttempt> = Vec::new();
        let mut halvings = 0usize;
        let mut attempt = 0usize;
        loop {
            self.inject_faults(step_idx, attempt);
            let (mut stats, mut failure) = self.attempt_step();

            // Drain the process-global fault letterbox. A dropped
            // gather-scatter exchange leaves fields finite but
            // inconsistent across element boundaries, so the sticky
            // fired flag is the only way to learn about it; the other
            // sites surface through CG breakdowns or the health scan.
            if obs_fault::drain().contains(FaultSite::GsExchange) && failure.is_none() {
                failure = Some(StepFailure::ExchangeDropped);
            }

            if failure.is_none() {
                failure = self.health_failure(kinetic);
            }

            let Some(cause) = failure else {
                // Committed. The Jacobi fallback is per-step; a halved
                // Δt persists until enough clean steps have passed.
                self.pressure_solver.set_jacobi_fallback(false);
                stats.recoveries = trail.len();
                stats.recovery_trail = trail;
                self.settle_dt_restore(original_dt, stats.recoveries);
                return Ok(stats);
            };

            // Roll back to step entry (Δt included) before deciding what
            // to do next.
            self.assign(&snap);
            self.pressure_solver.set_jacobi_fallback(false);

            let rollbacks = trail.len();
            let stage = if !self.cfg.recovery.enabled {
                None
            } else if rollbacks == 0 {
                Some(RecoveryStage::ClearProjection)
            } else if rollbacks == 1 {
                Some(RecoveryStage::JacobiFallback)
            } else if halvings < MAX_DT_HALVINGS {
                halvings += 1;
                Some(RecoveryStage::HalveDt(
                    original_dt / f64::powi(2.0, halvings as i32),
                ))
            } else {
                None
            };

            let Some(stage) = stage else {
                trail.push(RecoveryAttempt {
                    cause: cause.clone(),
                    stage: None,
                });
                return Err(StepError {
                    step: step_idx,
                    time: snap.time,
                    cause,
                    trail,
                });
            };

            sem_obs::counters::add(sem_obs::Counter::Recoveries, 1);
            sem_obs::trace::note("recovery_rollback", (rollbacks + 1) as f64);
            trail.push(RecoveryAttempt {
                cause,
                stage: Some(stage),
            });

            // Stages are cumulative; re-apply them all after the
            // rollback (restoring the snapshot also restored the
            // projection basis and Δt).
            self.pressure_solver.clear_history();
            self.pressure_solver.set_jacobi_fallback(trail.len() >= 2);
            if halvings > 0 {
                self.cfg.dt = original_dt / f64::powi(2.0, halvings as i32);
                // A changed Δt invalidates the uniform-spacing multistep
                // history: restart at BDF1/EXT1.
                self.ring.clear();
            }
            attempt += 1;
        }
    }

    /// Inject the fault plan's events scheduled for `attempt` of
    /// (1-based) `step`: field faults are applied directly (at a
    /// seed-chosen node), the rest are armed in the `sem_obs::fault`
    /// letterbox for their in-solver injection sites.
    fn inject_faults(&mut self, step: usize, attempt: usize) {
        let Some(plan) = self.cfg.faults.clone() else {
            return;
        };
        for ev in plan.events_for(step, attempt) {
            match ev.kind {
                FaultKind::FieldNan | FaultKind::FieldInf => {
                    let val = if ev.kind == FaultKind::FieldNan {
                        f64::NAN
                    } else {
                        f64::INFINITY
                    };
                    let target = ev.field.expect("field faults carry a target");
                    let dim = self.vel.len();
                    let data = match target {
                        FieldTarget::Pressure => &mut self.pressure,
                        FieldTarget::W if dim < 3 => {
                            eprintln!("terasem: ignoring w-field fault on a 2D run");
                            continue;
                        }
                        FieldTarget::Temperature if self.fields().count() == dim => {
                            eprintln!(
                                "terasem: ignoring temperature fault without Boussinesq or passive scalars"
                            );
                            continue;
                        }
                        // `t` poisons the active scalar transport, the
                        // ring's first scalar field: the Boussinesq
                        // temperature when coupled, else the first
                        // registered passive scalar (its Helmholtz solve
                        // and health scan see the NaN/Inf).
                        _ => {
                            let f = match target {
                                FieldTarget::U => 0,
                                FieldTarget::V => 1,
                                FieldTarget::W => 2,
                                _ => dim,
                            };
                            field_mut(&mut self.vel, &mut self.temp, &mut self.scalars, f)
                        }
                    };
                    let idx = plan.node_index(step, target, data.len());
                    data[idx] = val;
                    sem_obs::counters::add(sem_obs::Counter::FaultsInjected, 1);
                    sem_obs::trace::note("fault_injected_field", idx as f64);
                }
                FaultKind::Site(site) => obs_fault::arm(site),
            }
        }
    }

    /// Post-attempt field-health check: NaN/Inf scan over every evolved
    /// field plus the kinetic-energy watchdog ([`MAX_ENERGY_GROWTH`]
    /// over the step's entry energy `ke0`).
    fn health_failure(&self, ke0: f64) -> Option<StepFailure> {
        let names = ["u", "v", "w"][..self.vel.len()].iter().copied();
        let names = names.chain(self.temp.as_ref().map(|_| "T"));
        let names = names.chain(self.scalars.iter().map(|sc| sc.name.as_str()));
        let mut fields: Vec<(&str, &[f64])> = names.zip(self.fields().map(Vec::as_slice)).collect();
        fields.insert(self.vel.len(), ("p", &self.pressure));
        if let Some(v) = field_health(fields) {
            return Some(StepFailure::FieldHealth(v));
        }
        if ke0 > 0.0 {
            let ke = kinetic_energy(&self.ops, &self.vel);
            if ke > MAX_ENERGY_GROWTH * ke0 {
                return Some(StepFailure::FieldHealth(HealthViolation::EnergyBlowup {
                    before: ke0,
                    after: ke,
                    factor: ke / ke0,
                }));
            }
        }
        None
    }

    /// Post-commit Δt bookkeeping: schedule a restoration after a
    /// halving, count clean steps, and restore the original Δt once
    /// enough have passed.
    fn settle_dt_restore(&mut self, entry_dt: f64, recoveries: usize) {
        if self.cfg.dt < entry_dt {
            // This step committed at a freshly halved Δt.
            let original_dt = self.dt_restore.map_or(entry_dt, |r| r.original_dt);
            self.dt_restore = Some(DtRestore {
                original_dt,
                clean_steps_left: DT_RECOVERY_STEPS,
            });
        } else if let Some(r) = &mut self.dt_restore {
            if recoveries > 0 {
                r.clean_steps_left = DT_RECOVERY_STEPS;
            } else {
                r.clean_steps_left -= 1;
                if r.clean_steps_left == 0 {
                    self.cfg.dt = r.original_dt;
                    self.dt_restore = None;
                    // The BDF/EXT coefficients assume uniform spacing:
                    // restart at BDF1/EXT1.
                    self.ring.clear();
                    sem_obs::trace::note("recovery_dt_restored", self.cfg.dt);
                }
            }
        }
    }

    /// Capture the full time-loop state as a [`Checkpoint`] (see
    /// [`crate::checkpoint`] for what is and is not included). The
    /// guarded step's rollback snapshot is this same value.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            dim: self.ops.geo.dim as u32,
            n: self.ops.n_velocity() as u64,
            np: self.ops.n_pressure() as u64,
            dt: self.cfg.dt,
            time: self.time,
            step_index: self.step_index as u64,
            vel: self.vel.clone(),
            pressure: self.pressure.clone(),
            temp: self.temp.clone(),
            scalars: self.scalars.clone(),
            levels: self.ring.clone(),
            projection: self.pressure_solver.projection().basis().to_vec(),
        }
    }

    /// Assign a checkpoint's state: the one restore path, shared by
    /// [`NsSolver::restore_checkpoint`] (after validation) and the
    /// guarded step's rollback. The projection basis goes back into the
    /// live projection.
    fn assign(&mut self, ck: &Checkpoint) {
        self.vel.clone_from(&ck.vel);
        self.pressure.clone_from(&ck.pressure);
        self.temp.clone_from(&ck.temp);
        self.scalars.clone_from(&ck.scalars);
        self.ring.clone_from(&ck.levels);
        self.time = ck.time;
        self.step_index = ck.step_index as usize;
        self.cfg.dt = ck.dt;
        self.pressure_solver.restore_projection(&ck.projection);
    }

    /// Restore the time-loop state from a checkpoint taken on an
    /// identically built solver (same mesh, order, and configuration).
    /// Continuing the run is bitwise-identical to never having stopped.
    /// The recovery ladder's transients (Jacobi fallback, pending Δt
    /// restoration) are deliberately dropped.
    ///
    /// # Errors
    ///
    /// Fails when the checkpoint's grid sizes or field inventory do not
    /// match this solver; the solver is left unmodified in that case.
    pub fn restore_checkpoint(&mut self, ck: &Checkpoint) -> Result<(), String> {
        let dim = self.ops.geo.dim;
        let n = self.ops.n_velocity();
        let np = self.ops.n_pressure();
        if ck.dim as usize != dim || ck.n as usize != n || ck.np as usize != np {
            return Err(format!(
                "checkpoint grid mismatch: dim/n/np {}x{}x{} vs solver {}x{}x{}",
                ck.dim, ck.n, ck.np, dim, n, np
            ));
        }
        if ck.vel.len() != dim || ck.temp.is_some() != self.temp.is_some() {
            return Err("checkpoint field inventory mismatch".into());
        }
        if ck.scalars.len() != self.scalars.len() {
            return Err(format!(
                "checkpoint has {} passive scalar(s), solver has {}",
                ck.scalars.len(),
                self.scalars.len()
            ));
        }
        // Every ring level must hold every transported field.
        let fields = self.fields().count();
        if ck
            .levels
            .iter()
            .any(|l| l.values.len() != fields || l.conv.len() != fields)
        {
            return Err("checkpoint history does not hold every transported field".into());
        }
        if ck.projection.len() > self.cfg.pressure_lmax {
            return Err(format!(
                "checkpoint projection basis ({}) exceeds pressure_lmax ({})",
                ck.projection.len(),
                self.cfg.pressure_lmax
            ));
        }
        self.assign(ck);
        self.pressure_solver.set_jacobi_fallback(false);
        self.dt_restore = None;
        Ok(())
    }

    /// Write a checkpoint file (see [`crate::checkpoint`]).
    pub fn write_checkpoint(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.checkpoint().save(path)
    }

    /// Restore from a checkpoint file written by an identically built
    /// solver.
    pub fn read_checkpoint(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let ck = Checkpoint::load(path)?;
        self.restore_checkpoint(&ck)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Register an additional passively transported species (the paper's
    /// "multiple-species transport"): advected by the velocity, diffused
    /// with diffusivity `kappa`, no back-coupling to the momentum
    /// equations. Returns the scalar's index.
    ///
    /// The species joins the ring every transported field shares, so a
    /// registration after the first step restarts the multistep history:
    /// the next step runs BDF1/EXT1, as after a Δt change.
    pub fn add_scalar(
        &mut self,
        name: impl Into<String>,
        kappa: f64,
        init: impl Fn(f64, f64, f64) -> f64 + Sync,
    ) -> usize {
        let n = self.ops.n_velocity();
        let values: Vec<f64> = (0..n)
            .map(|i| init(self.ops.geo.x[i], self.ops.geo.y[i], self.ops.geo.z[i]))
            .collect();
        self.scalars.push(Species {
            name: name.into(),
            kappa,
            values,
        });
        self.scalar_bc.push(None);
        self.ring.clear();
        self.scalars.len() - 1
    }

    /// Set the Dirichlet boundary values of passive scalar `idx`.
    pub fn set_scalar_bc(&mut self, idx: usize, f: ScalarFn) {
        self.scalar_bc[idx] = Some(f);
    }

    /// Read access to passive scalar `idx`.
    pub fn scalar(&self, idx: usize) -> &[f64] {
        &self.scalars[idx].values
    }

    /// Name of passive scalar `idx`.
    pub fn scalar_name(&self, idx: usize) -> &str {
        &self.scalars[idx].name
    }

    /// Number of registered passive scalars.
    pub fn num_scalars(&self) -> usize {
        self.scalars.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::{divergence_norm, kinetic_energy};
    use sem_mesh::generators::box2d;
    use sem_solvers::cg::CgOptions;

    const TWO_PI: f64 = 2.0 * std::f64::consts::PI;

    fn taylor_green_cfg(dt: f64) -> NsConfig {
        NsConfig {
            dt,
            nu: 0.05,
            torder: 2,
            convection: ConvectionScheme::Ext,
            filter_alpha: 0.0,
            pressure_lmax: 8,
            pressure_cg: CgOptions {
                tol: 1e-10,
                max_iter: 4000,
            },
            helmholtz_cg: CgOptions {
                tol: 1e-12,
                max_iter: 4000,
            },
            ..Default::default()
        }
    }

    fn taylor_green_solver(kelem: usize, order: usize, dt: f64) -> NsSolver {
        let mesh = box2d(kelem, kelem, [0.0, TWO_PI], [0.0, TWO_PI], true, true);
        let ops = SemOps::new(mesh, order);
        let mut s = NsSolver::new(ops, taylor_green_cfg(dt));
        s.set_velocity(|x, y, _| [(x).sin() * (y).cos(), -(x).cos() * (y).sin(), 0.0]);
        s
    }

    fn taylor_green_error(s: &NsSolver) -> f64 {
        let decay = (-2.0 * s.cfg.nu * s.time).exp();
        let mut err = 0.0_f64;
        for i in 0..s.ops.n_velocity() {
            let (x, y) = (s.ops.geo.x[i], s.ops.geo.y[i]);
            let ue = x.sin() * y.cos() * decay;
            let ve = -x.cos() * y.sin() * decay;
            err = err.max((s.vel[0][i] - ue).abs().max((s.vel[1][i] - ve).abs()));
        }
        err
    }

    /// The energy health check fails a step whose kinetic energy grew by
    /// more than `MAX_ENERGY_GROWTH` (100) over the step, and never one
    /// that started at rest.
    #[test]
    fn energy_watchdog_trips_above_a_hundredfold_growth() {
        let mut s = taylor_green_solver(2, 4, 1e-2);
        let base = s.vel.clone();
        let ke0 = kinetic_energy(&s.ops, &s.vel);
        assert!(ke0 > 0.0);
        let scale_energy = |s: &mut NsSolver, growth: f64| {
            for (u, u0) in s.vel.iter_mut().zip(&base) {
                for (v, v0) in u.iter_mut().zip(u0) {
                    *v = growth.sqrt() * v0;
                }
            }
        };
        scale_energy(&mut s, 99.0);
        assert!(s.health_failure(ke0).is_none(), "99-fold growth is healthy");
        scale_energy(&mut s, 101.0);
        match s.health_failure(ke0) {
            Some(StepFailure::FieldHealth(HealthViolation::EnergyBlowup { factor, .. })) => {
                assert!((factor - 101.0).abs() < 1e-9, "factor {factor}")
            }
            other => panic!("101-fold growth must trip the energy check: {other:?}"),
        }
        assert!(
            s.health_failure(0.0).is_none(),
            "a step from rest never trips"
        );
    }

    #[test]
    fn taylor_green_vortex_decays_correctly() {
        let mut s = taylor_green_solver(2, 8, 2e-3);
        for _ in 0..25 {
            let st = s.step().unwrap();
            assert!(st.pressure_iters < 500);
        }
        let err = taylor_green_error(&s);
        assert!(err < 2e-4, "Taylor–Green error {err}");
        // Divergence stays small.
        let div = divergence_norm(&s.ops, &s.vel);
        assert!(div < 1e-2, "divergence {div}");
    }

    #[test]
    fn temporal_convergence_is_second_order() {
        // Richardson-style: successive solution differences cancel the
        // (dt-independent) spatial floor, isolating the O(Δt²) term.
        let run = |dt: f64, steps: usize| -> Vec<f64> {
            let mut s = taylor_green_solver(2, 9, dt);
            for _ in 0..steps {
                s.step().unwrap();
            }
            s.vel[0].clone()
        };
        let base = 16;
        let u1 = run(16e-3, base);
        let u2 = run(8e-3, 2 * base);
        let u4 = run(4e-3, 4 * base);
        let dmax = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0_f64, f64::max)
        };
        let d12 = dmax(&u1, &u2);
        let d24 = dmax(&u2, &u4);
        let ratio = d12 / d24;
        assert!(
            ratio > 3.0,
            "not second order: |u(dt)−u(dt/2)| = {d12}, |u(dt/2)−u(dt/4)| = {d24}, ratio {ratio}"
        );
    }

    #[test]
    fn oifs_matches_ext_at_small_cfl() {
        let mut s1 = taylor_green_solver(2, 7, 2e-3);
        let mut s2 = taylor_green_solver(2, 7, 2e-3);
        s2.cfg.convection = ConvectionScheme::Oifs;
        for _ in 0..10 {
            s1.step().unwrap();
            s2.step().unwrap();
        }
        let mut diff = 0.0_f64;
        for i in 0..s1.ops.n_velocity() {
            diff = diff.max((s1.vel[0][i] - s2.vel[0][i]).abs());
        }
        assert!(diff < 5e-5, "EXT vs OIFS difference {diff}");
    }

    #[test]
    fn oifs_stable_at_cfl_above_one() {
        // Δt chosen so the convective CFL exceeds 1 (EXT would blow up).
        let mut s = taylor_green_solver(2, 8, 0.2);
        s.cfg.convection = ConvectionScheme::Oifs;
        let mut max_cfl = 0.0_f64;
        for _ in 0..6 {
            let st = s.step().unwrap();
            max_cfl = max_cfl.max(st.cfl);
            assert!(
                kinetic_energy(&s.ops, &s.vel).is_finite(),
                "blow-up at step {}",
                st.step
            );
        }
        assert!(max_cfl > 1.0, "test did not reach CFL > 1: {max_cfl}");
        // Energy must not grow (decaying vortex).
        let ke = kinetic_energy(&s.ops, &s.vel);
        let ke0 = 0.5 * (TWO_PI * TWO_PI) / 2.0; // ½∫|u|² = (2π)²/2 at t=0
        assert!(ke < ke0 * 1.01, "energy grew: {ke} vs {ke0}");
    }

    #[test]
    fn oifs_scalar_stays_bounded_above_cfl_one() {
        // The dye rides the velocity's characteristics sweep, so at CFL
        // ≈ 1.2 and 2.3 its L² norm only decays (advection conserves it,
        // diffusion and the BDF damping shrink it).
        for dt in [0.1, 0.2] {
            let mut s = taylor_green_solver(4, 8, dt);
            s.cfg.nu = 0.01;
            s.cfg.convection = ConvectionScheme::Oifs;
            let dye = s.add_scalar("dye", 1e-3, |x, y, _| (x + 0.3).sin() * (2.0 * y).cos());
            let l2 = |s: &NsSolver| sem_ops::fields::norm_l2(&s.ops, s.scalar(dye));
            let initial = l2(&s);
            let mut max_cfl = 0.0_f64;
            for _ in 0..23 {
                max_cfl = max_cfl.max(s.step().unwrap().cfl);
            }
            assert!(max_cfl > 1.0, "Δt = {dt}: CFL only {max_cfl}");
            let last = l2(&s);
            assert!(last <= initial, "Δt = {dt}: dye L² grew {initial} → {last}");
        }
    }

    #[test]
    fn oifs_substeps_follow_the_cfl() {
        // CFL ≈ 6.35·Δt on this vortex: Δt = 0.05 runs below 0.5 (one
        // RK4 substep per Δt), Δt = 0.2 in (1, 1.5] (three).
        for (dt, cfls, want) in [(0.05, 0.0..0.5, 1), (0.2, 1.0..1.5, 3)] {
            let mut s = taylor_green_solver(2, 8, dt);
            s.cfg.convection = ConvectionScheme::Oifs;
            for _ in 0..4 {
                let st = s.step().unwrap();
                assert!(cfls.contains(&st.cfl), "Δt = {dt}: CFL {}", st.cfl);
                assert_eq!(st.oifs_substeps, want, "Δt = {dt}, CFL {}", st.cfl);
            }
            // The next step's history sweep: velocity evaluations and
            // stages of the 2 velocity fields (see the convection tests).
            let cfl_now = cfl(&s.ops, &s.vel, s.cfg.dt);
            s.push_level();
            let m = s.cfg.torder;
            crate::convection::tally::take();
            let (_, subs) = s.history_rhs(m, s.time + s.cfg.dt, cfl_now);
            assert_eq!(subs, want);
            let tally = crate::convection::tally::take();
            assert_eq!(tally, (1 + 2 * want * m, 8 * want * m));
        }
    }

    #[test]
    fn poiseuille_steady_state_with_forcing() {
        // Channel [0,1]×[−1,1], periodic in x, no-slip walls, fx = 2ν:
        // steady solution u = 1 − y².
        let mesh = box2d(2, 3, [0.0, 1.0], [-1.0, 1.0], true, false);
        let ops = SemOps::new(mesh, 7);
        let nu = 0.5; // fast relaxation
        let cfg = NsConfig {
            dt: 0.05,
            nu,
            torder: 2,
            convection: ConvectionScheme::Ext,
            pressure_lmax: 8,
            ..taylor_green_cfg(0.05)
        };
        let mut s = NsSolver::new(ops, NsConfig { nu, ..cfg });
        s.set_forcing(Box::new(move |_, _, _, _| [2.0 * nu, 0.0, 0.0]));
        for _ in 0..120 {
            s.step().unwrap();
        }
        let mut err = 0.0_f64;
        for i in 0..s.ops.n_velocity() {
            let y = s.ops.geo.y[i];
            err = err.max((s.vel[0][i] - (1.0 - y * y)).abs());
            err = err.max(s.vel[1][i].abs());
        }
        assert!(err < 1e-3, "Poiseuille error {err}");
    }

    #[test]
    fn filter_preserves_smooth_taylor_green() {
        let mut s0 = taylor_green_solver(2, 8, 2e-3);
        let mut s1 = taylor_green_solver(2, 8, 2e-3);
        s1.cfg.filter_alpha = 0.2;
        s1.filter = Some(ElementFilter::new(&s1.ops, 0.2));
        for _ in 0..10 {
            s0.step().unwrap();
            s1.step().unwrap();
        }
        let e0 = taylor_green_error(&s0);
        let e1 = taylor_green_error(&s1);
        // Table 1's observation: the filter *slightly* degrades spatial
        // accuracy (it removes the top mode's real content) while the
        // error stays small.
        assert!(e1 >= e0, "filter should not improve: {e1} vs {e0}");
        assert!(e1 < 1e-4, "filtered error too large: {e1}");
    }

    #[test]
    fn boussinesq_temperature_diffuses() {
        // No gravity: pure advection-diffusion of T on a periodic box at
        // rest → T = sin(x) e^{−κt}.
        let mesh = box2d(2, 2, [0.0, TWO_PI], [0.0, TWO_PI], true, true);
        let ops = SemOps::new(mesh, 8);
        let kappa = 0.1;
        let cfg = NsConfig {
            boussinesq: Some(Boussinesq {
                g_beta: [0.0, 0.0, 0.0],
                kappa,
            }),
            ..taylor_green_cfg(5e-3)
        };
        let mut s = NsSolver::new(ops, cfg);
        s.set_temperature(|x, _, _| x.sin());
        for _ in 0..20 {
            s.step().unwrap();
        }
        let decay = (-kappa * s.time).exp();
        let t = s.temp.as_ref().unwrap();
        let mut err = 0.0_f64;
        for i in 0..s.ops.n_velocity() {
            err = err.max((t[i] - s.ops.geo.x[i].sin() * decay).abs());
        }
        assert!(err < 1e-4, "temperature decay error {err}");
    }

    #[test]
    fn buoyancy_induces_motion() {
        // Unstable stratification with gravity: flow must start moving.
        let mesh = box2d(2, 2, [0.0, 2.0], [0.0, 1.0], true, false);
        let ops = SemOps::new(mesh, 6);
        let cfg = NsConfig {
            boussinesq: Some(Boussinesq {
                g_beta: [0.0, 100.0, 0.0],
                kappa: 0.01,
            }),
            nu: 0.01,
            ..taylor_green_cfg(1e-2)
        };
        let mut s = NsSolver::new(ops, cfg);
        s.set_temperature(|x, y, _| (1.0 - y) + 0.01 * (TWO_PI * x / 2.0).sin());
        s.set_temp_bc(Box::new(|_, y, _, _| if y > 0.5 { 0.0 } else { 1.0 }));
        for _ in 0..20 {
            s.step().unwrap();
        }
        let ke = kinetic_energy(&s.ops, &s.vel);
        assert!(ke > 1e-12, "no convective motion: KE = {ke}");
        assert!(ke.is_finite());
    }

    #[test]
    fn passive_scalars_diffuse_independently() {
        // Two species with different diffusivities on a quiescent periodic
        // box: each decays at its own rate e^{−κt}.
        let mesh = box2d(2, 2, [0.0, TWO_PI], [0.0, TWO_PI], true, true);
        let ops = SemOps::new(mesh, 8);
        let cfg = taylor_green_cfg(5e-3);
        let mut s = NsSolver::new(ops, cfg);
        let k_a = 0.05;
        let k_b = 0.4;
        let ia = s.add_scalar("species_a", k_a, |x, _, _| x.sin());
        let ib = s.add_scalar("species_b", k_b, |x, _, _| x.sin());
        assert_eq!(s.num_scalars(), 2);
        assert_eq!(s.scalar_name(ia), "species_a");
        for _ in 0..20 {
            s.step().unwrap();
        }
        for (idx, kappa) in [(ia, k_a), (ib, k_b)] {
            let decay = (-kappa * s.time).exp();
            let f = s.scalar(idx);
            let mut err = 0.0_f64;
            for i in 0..s.ops.n_velocity() {
                err = err.max((f[i] - s.ops.geo.x[i].sin() * decay).abs());
            }
            assert!(err < 1e-4, "scalar {idx} decay error {err}");
        }
    }

    #[test]
    fn scalar_registered_after_the_first_step_restarts_the_history() {
        // A constant species on a periodic box at rest stays constant.
        // Registered after two BDF2 steps, it has no past levels in the
        // ring, so the next step must restart at BDF1 (BDF2 weights over
        // one level would grow it 1.0 → 1.333 → 1.444 → …).
        let mesh = box2d(2, 2, [0.0, TWO_PI], [0.0, TWO_PI], true, true);
        let mut s = NsSolver::new(SemOps::new(mesh, 6), taylor_green_cfg(1e-2));
        for _ in 0..2 {
            s.step().unwrap();
        }
        let idx = s.add_scalar("late", 0.1, |_, _, _| 1.0);
        for _ in 0..4 {
            s.step().unwrap();
            let drift = s
                .scalar(idx)
                .iter()
                .fold(0.0_f64, |m, v| m.max((v - 1.0).abs()));
            assert!(drift < 1e-12, "step {}: drift {drift}", s.step_index);
        }
    }

    #[test]
    fn scalar_dirichlet_data_is_imposed_on_the_boundary() {
        // Walls at y = 0 and y = 1: a species that starts at zero takes
        // its boundary values from `set_scalar_bc` at the first step,
        // while a twin without boundary data keeps its own.
        let mesh = box2d(2, 2, [0.0, 1.0], [0.0, 1.0], true, false);
        let mut s = NsSolver::new(SemOps::new(mesh, 5), taylor_green_cfg(1e-2));
        let held = s.add_scalar("held", 0.1, |_, _, _| 0.0);
        let free = s.add_scalar("free", 0.1, |_, _, _| 0.0);
        s.set_scalar_bc(held, Box::new(|_, y, _, _| 1.0 + y));
        s.step().unwrap();
        let walls: Vec<usize> = (0..s.ops.n_velocity())
            .filter(|&i| s.ops.mask[i] == 0.0)
            .collect();
        assert!(!walls.is_empty());
        for &i in &walls {
            assert_eq!(s.scalar(held)[i], 1.0 + s.ops.geo.y[i]);
            assert_eq!(s.scalar(free)[i], 0.0);
        }
    }

    #[test]
    fn restore_rejects_a_ring_level_missing_a_field() {
        let mut s = taylor_green_solver(2, 4, 1e-2);
        s.add_scalar("dye", 0.1, |x, _, _| x.sin());
        s.step().unwrap();
        let before = s.checkpoint();
        let mut ck = before.clone();
        ck.levels[0].values.pop();
        let err = s.restore_checkpoint(&ck).unwrap_err();
        assert!(err.contains("history"), "{err}");
        assert_eq!(
            s.checkpoint(),
            before,
            "a rejected restore leaves the solver as it was"
        );
    }

    #[test]
    fn passive_scalar_advected_by_flow() {
        // Uniform flow (1, 0) on a periodic box: the species profile
        // translates (checked against the advected-diffused analytic
        // solution with tiny diffusivity).
        let mesh = box2d(2, 2, [0.0, TWO_PI], [0.0, TWO_PI], true, true);
        let ops = SemOps::new(mesh, 8);
        let mut cfg = taylor_green_cfg(2e-3);
        cfg.nu = 1e-8; // keep the carrier flow uniform
        let mut s = NsSolver::new(ops, cfg);
        s.set_velocity(|_, _, _| [1.0, 0.0, 0.0]);
        let kappa = 1e-6;
        let idx = s.add_scalar("dye", kappa, |x, _, _| x.sin());
        for _ in 0..50 {
            s.step().unwrap();
        }
        let t = s.time;
        let f = s.scalar(idx);
        let mut err = 0.0_f64;
        for i in 0..s.ops.n_velocity() {
            err = err.max((f[i] - (s.ops.geo.x[i] - t).sin()).abs());
        }
        assert!(err < 5e-3, "advection error {err}");
    }

    #[test]
    fn pressure_projection_reduces_initial_residual_over_steps() {
        let mut s = taylor_green_solver(2, 7, 2e-3);
        let mut first = None;
        let mut last = f64::INFINITY;
        for i in 0..10 {
            let st = s.step().unwrap();
            if i == 1 {
                first = Some(st.pressure_initial_residual);
            }
            last = st.pressure_initial_residual;
        }
        // By the 10th step the projected initial residual should be well
        // below the early-step value.
        assert!(
            last < first.unwrap(),
            "projection not helping: {first:?} -> {last}"
        );
    }
}
