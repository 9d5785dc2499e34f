//! The packaged two-stage pressure solve of §5.
//!
//! Stage 1: project the right-hand side onto the span of previous
//! solutions ([`crate::projection`]). Stage 2: Schwarz-preconditioned
//! conjugate gradients on the consistent Poisson operator `E`, with the
//! constant nullspace removed by (plain) mean projection inside the
//! iteration.

use crate::cg::{pcg, CgBreakdown, CgOptions, CgResult};
use crate::projection::RhsProjection;
use crate::schwarz::{SchwarzConfig, SchwarzPrecond};
use sem_obs::fault::{self, FaultSite};
use sem_ops::fields::dot_pressure;
use sem_ops::pressure::EOperator;
use sem_ops::SemOps;

/// Statistics of one pressure solve.
#[derive(Clone, Debug)]
pub struct PressureSolveStats {
    /// CG iterations for the perturbation.
    pub iterations: usize,
    /// Residual norm before iterating (after projection).
    pub initial_residual: f64,
    /// Final residual norm.
    pub residual: f64,
    /// Projection history depth used.
    pub history_len: usize,
    /// Did CG meet its tolerance?
    pub converged: bool,
    /// Breakdown cause if CG terminated on a guard (see
    /// [`crate::cg::CgBreakdown`]).
    pub breakdown: Option<CgBreakdown>,
}

/// The pressure solver: `E`, Schwarz preconditioner, projection history.
pub struct PressureSolver {
    e: EOperator,
    precond: SchwarzPrecond,
    projection: RhsProjection,
    /// CG options for the perturbation solve.
    pub opts: CgOptions,
    /// Scratch for the update's `E x` application.
    ex_scratch: Vec<f64>,
    /// Recovery mode: replace the Schwarz preconditioner with Jacobi on
    /// `diag(E)` for subsequent solves (stage 2 of the `sem-guard`
    /// escalation ladder).
    jacobi_fallback: bool,
    /// Lazily probed `diag(E)` (computed on first fallback use, cached).
    jacobi_diag: Option<Vec<f64>>,
}

impl PressureSolver {
    /// Build with the default Schwarz configuration and history depth
    /// `lmax` (`lmax = 0` disables projection, the paper's `L = 0` case).
    pub fn new(ops: &SemOps, lmax: usize, opts: CgOptions) -> Self {
        Self::with_schwarz(ops, SchwarzConfig::default(), lmax, opts)
    }

    /// Build with an explicit Schwarz configuration.
    pub fn with_schwarz(ops: &SemOps, cfg: SchwarzConfig, lmax: usize, opts: CgOptions) -> Self {
        // The preconditioner is built before `E`: allocation order shapes
        // the heap, and building `E` first raised perfbench's
        // `rayleigh-benard` peak resident memory by ~0.25 MB (2.6%).
        let precond = SchwarzPrecond::new(ops, cfg);
        PressureSolver {
            e: EOperator::new(ops),
            precond,
            projection: RhsProjection::new(ops.n_pressure(), lmax),
            opts,
            ex_scratch: vec![0.0; ops.n_pressure()],
            jacobi_fallback: false,
            jacobi_diag: None,
        }
    }

    /// Reset the projection history (e.g. after a Δt change).
    pub fn clear_history(&mut self) {
        self.projection.clear();
    }

    /// Replace the projection basis with stored `(x, E x)` pairs
    /// (checkpoint restore and step rollback; see
    /// [`RhsProjection::restore`]).
    pub fn restore_projection(&mut self, basis: &[(Vec<f64>, Vec<f64>)]) {
        self.projection.restore(basis);
    }

    /// Read access to the projection history.
    pub fn projection(&self) -> &RhsProjection {
        &self.projection
    }

    /// Switch the preconditioner between the configured Schwarz method
    /// and a Jacobi sweep on the exact `diag(E)` (probed with canonical
    /// unit vectors on first use — `n_pressure` operator applications,
    /// paid once and cached; acceptable as a recovery-only cost). Stage 2
    /// of the recovery ladder turns this on for the retried step and
    /// back off afterwards.
    pub fn set_jacobi_fallback(&mut self, on: bool) {
        self.jacobi_fallback = on;
    }

    /// Is the Jacobi fallback currently selected?
    pub fn jacobi_fallback(&self) -> bool {
        self.jacobi_fallback
    }

    fn ensure_jacobi_diag(&mut self, ops: &SemOps) {
        if self.jacobi_diag.is_some() {
            return;
        }
        let n = ops.n_pressure();
        let mut diag = vec![0.0; n];
        let mut unit = vec![0.0; n];
        let mut out = vec![0.0; n];
        for i in 0..n {
            unit[i] = 1.0;
            self.e.apply(ops, &unit, &mut out);
            // Guard degenerate rows (diag(E) is positive away from the
            // constant nullspace, but stay safe).
            diag[i] = if out[i] > 0.0 { out[i] } else { 1.0 };
            unit[i] = 0.0;
        }
        self.jacobi_diag = Some(diag);
    }

    /// Solve `E p = g`, writing the solution into `p`.
    ///
    /// `g` is consumed (overwritten by the perturbation residual). The
    /// solution is mean-free.
    pub fn solve(&mut self, ops: &SemOps, p: &mut [f64], g: &mut [f64]) -> PressureSolveStats {
        // E is symmetric in the plain (unweighted) pressure dot product,
        // so its nullspace is the plain constant vector: project with the
        // arithmetic mean inside the iteration. (The physically weighted
        // mean is only used to normalize the reported pressure.)
        let project_mean = |v: &mut [f64]| {
            let m: f64 = v.iter().sum::<f64>() / v.len() as f64;
            v.iter_mut().for_each(|x| *x -= m);
        };
        project_mean(g);
        let history_len = self.projection.len();
        // Stage 1: best guess from history; g becomes the perturbation RHS.
        let xbar = {
            let _span = sem_obs::span(sem_obs::Phase::PressureProjection);
            self.projection.project(g)
        };
        // Stage 2: PCG for the perturbation.
        // Armed faults are consumed here, once per solve: the corruption
        // then applies to every closure call of this solve (a transient
        // operator/preconditioner sign flip), which deterministically
        // trips the corresponding CG breakdown guard.
        let op_fault = fault::fire(FaultSite::PressureOperator);
        let pc_fault = fault::fire(FaultSite::PressurePrecond);
        if self.jacobi_fallback {
            self.ensure_jacobi_diag(ops);
        }
        let jacobi = if self.jacobi_fallback {
            self.jacobi_diag.as_deref()
        } else {
            None
        };
        let cg_span = sem_obs::span(sem_obs::Phase::PressureCg);
        let mut dp = vec![0.0; p.len()];
        let e = &mut self.e;
        let precond = &self.precond;
        let res: CgResult = pcg(
            &mut dp,
            g,
            |q, eq| {
                e.apply(ops, q, eq);
                if op_fault {
                    eq.iter_mut().for_each(|v| *v = -*v);
                }
            },
            |r, z| {
                match jacobi {
                    Some(d) => {
                        for i in 0..r.len() {
                            z[i] = r[i] / d[i];
                        }
                    }
                    None => precond.apply(r, z),
                }
                if pc_fault {
                    z.iter_mut().for_each(|v| *v = -*v);
                }
            },
            |u, v| dot_pressure(ops, u, v),
            project_mean,
            &self.opts,
        );
        drop(cg_span);
        // Per-solve trace annotations (no-ops unless tracing is on).
        sem_obs::trace::note("pressure_cg_iterations", res.iterations as f64);
        sem_obs::trace::note("pressure_cg_residual", res.residual);
        sem_obs::trace::note("projection_depth", history_len as f64);
        for i in 0..p.len() {
            p[i] = xbar[i] + dp[i];
        }
        sem_ops::fields::remove_pressure_mean(ops, p);
        // Update history with the combined solution (one extra E apply —
        // together with the projection's residual this is the paper's
        // "two matrix-vector products in E per timestep" overhead).
        let _span = sem_obs::span(sem_obs::Phase::PressureProjection);
        self.e.apply(ops, p, &mut self.ex_scratch);
        let ex = std::mem::take(&mut self.ex_scratch);
        self.projection.update(p, &ex);
        self.ex_scratch = ex;
        if fault::fire(FaultSite::ProjectionUpdate) {
            // Poison the stored basis behind the update guards: the
            // *next* solve starts from a NaN guess and breaks down.
            self.projection.corrupt_latest();
        }
        PressureSolveStats {
            iterations: res.iterations,
            initial_residual: res.initial_residual,
            residual: res.residual,
            history_len,
            converged: res.converged,
            breakdown: res.breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_mesh::generators::box2d;

    fn ops2d(k: usize, n: usize) -> SemOps {
        SemOps::new(box2d(k, k, [0.0, 1.0], [0.0, 1.0], false, false), n)
    }

    fn manufactured_rhs(ops: &SemOps, t: f64) -> Vec<f64> {
        // Plain-mean-free: consistent with E's nullspace.
        let mut g: Vec<f64> = (0..ops.n_pressure())
            .map(|i| ((i as f64 * 0.17) + t).sin())
            .collect();
        let m: f64 = g.iter().sum::<f64>() / g.len() as f64;
        g.iter_mut().for_each(|x| *x -= m);
        g
    }

    #[test]
    fn solves_consistent_poisson() {
        let ops = ops2d(3, 5);
        let mut solver = PressureSolver::new(
            &ops,
            0,
            CgOptions {
                tol: 1e-11,
                max_iter: 1000,
            },
        );
        let mut g = manufactured_rhs(&ops, 0.0);
        let g_orig = g.clone();
        let mut p = vec![0.0; ops.n_pressure()];
        let stats = solver.solve(&ops, &mut p, &mut g);
        assert!(stats.iterations > 0);
        // Residual check: E p ≈ g (mean-free parts).
        let mut e = sem_ops::pressure::EOperator::new(&ops);
        let mut ep = vec![0.0; ops.n_pressure()];
        e.apply(&ops, &p, &mut ep);
        let err: f64 = ep
            .iter()
            .zip(g_orig.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let scale: f64 = g_orig.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < 1e-6 * scale, "residual {err} vs scale {scale}");
    }

    #[test]
    fn projection_cuts_iterations_on_repeated_solves() {
        let ops = ops2d(3, 5);
        // Absolute tolerance (the paper's ε): with a *relative* tolerance
        // the perturbation system would be re-converged to the same
        // relative depth and projection would not change the count.
        let opts = CgOptions {
            tol: 1e-7,
            max_iter: 1000,
        };
        // Without projection.
        let mut s0 = PressureSolver::new(&ops, 0, opts);
        // With projection (L = 8).
        let mut s1 = PressureSolver::new(&ops, 8, opts);
        let mut iters0 = Vec::new();
        let mut iters1 = Vec::new();
        for step in 0..6 {
            let t = step as f64 * 0.02; // slowly varying RHS
            let mut p = vec![0.0; ops.n_pressure()];
            let mut g = manufactured_rhs(&ops, t);
            iters0.push(s0.solve(&ops, &mut p, &mut g).iterations);
            let mut p2 = vec![0.0; ops.n_pressure()];
            let mut g2 = manufactured_rhs(&ops, t);
            iters1.push(s1.solve(&ops, &mut p2, &mut g2).iterations);
        }
        let last0 = *iters0.last().unwrap();
        let last1 = *iters1.last().unwrap();
        assert!(last1 < last0, "projection {iters1:?} vs none {iters0:?}");
    }

    #[test]
    fn initial_residual_drops_with_history() {
        let ops = ops2d(2, 5);
        let opts = CgOptions {
            tol: 1e-11,
            max_iter: 1000,
        };
        let mut s = PressureSolver::new(&ops, 10, opts);
        let mut first_resid = None;
        let mut last_resid = 0.0;
        for step in 0..5 {
            let t = step as f64 * 0.01;
            let mut p = vec![0.0; ops.n_pressure()];
            let mut g = manufactured_rhs(&ops, t);
            let stats = s.solve(&ops, &mut p, &mut g);
            if first_resid.is_none() {
                first_resid = Some(stats.initial_residual);
            }
            last_resid = stats.initial_residual;
        }
        assert!(
            last_resid < 0.1 * first_resid.unwrap(),
            "pre-iteration residual did not drop: {} -> {last_resid}",
            first_resid.unwrap()
        );
    }
}
