//! Staged step recovery (`sem-guard`): rollback/retry policy, the
//! escalation ladder, and the structured error a step returns when the
//! ladder is exhausted.
//!
//! A failed step (CG breakdown, non-finite field, energy blow-up, or a
//! dropped gather-scatter exchange) is rolled back to the snapshot
//! taken at step entry and retried through an escalating ladder:
//!
//! 1. **Clear the projection history** — a corrupted successive-RHS
//!    basis is the cheapest thing to discard.
//! 2. **Swap the pressure preconditioner to Jacobi** for this step —
//!    sidesteps a poisoned Schwarz preconditioner.
//! 3. **Halve Δt** (up to [`MAX_DT_HALVINGS`] times), restarting the
//!    multistep history at BDF1; the original Δt is restored after
//!    [`DT_RECOVERY_STEPS`] clean steps.
//! 4. **Give up** with a [`StepError`] carrying the full recovery
//!    trail. The solver is left at the pre-step state — never
//!    silently corrupted, never a panic.
//!
//! Stages are cumulative: a Δt-halving retry also runs with the
//! projection cleared and the Jacobi fallback. The ladder therefore
//! takes at most four rollbacks per step. Besides NaN/Inf, the health
//! check fails a step whose kinetic energy grows by more than
//! [`MAX_ENERGY_GROWTH`].

use crate::diagnostics::HealthViolation;
use sem_solvers::cg::CgBreakdown;

/// How many times stage 3 may halve Δt for one step.
pub const MAX_DT_HALVINGS: usize = 2;

/// Clean steps after a Δt-halving recovery before the original Δt is
/// restored.
pub const DT_RECOVERY_STEPS: usize = 4;

/// Energy health check: a step is failed when kinetic energy grows by
/// more than this factor over the step (guards blow-ups that stay
/// finite). A step that starts at rest is never failed by it.
pub const MAX_ENERGY_GROWTH: f64 = 100.0;

/// Per-solver recovery configuration. `enabled: false` (the default)
/// turns the whole machinery off: no snapshots are taken and `step()`
/// is bitwise-identical to the pre-recovery solver.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryPolicy {
    /// Master switch. When off, a configured fault plan still injects
    /// (and `step()` reports the failure as `Err`), but nothing is
    /// retried.
    pub enabled: bool,
}

impl RecoveryPolicy {
    /// A policy with recovery switched on.
    pub fn enabled() -> Self {
        RecoveryPolicy { enabled: true }
    }
}

/// Which linear solve broke down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveKind {
    /// The consistent-Poisson pressure solve.
    Pressure,
    /// The Helmholtz solve of velocity component `c`.
    Helmholtz(usize),
    /// A temperature / passive-scalar Helmholtz solve.
    Scalar,
}

/// Why an attempt of a step was rejected.
#[derive(Clone, Debug)]
pub enum StepFailure {
    /// A PCG solve reported an indefinite operator or preconditioner.
    Breakdown {
        /// Which solve.
        solve: SolveKind,
        /// The PCG diagnosis.
        breakdown: CgBreakdown,
    },
    /// The post-step field-health check failed (NaN/Inf or energy
    /// blow-up).
    FieldHealth(HealthViolation),
    /// A gather-scatter exchange was dropped during the attempt
    /// (reported through `sem_obs::fault::take_fired` — the fields are
    /// finite but inconsistent across element boundaries).
    ExchangeDropped,
}

impl std::fmt::Display for StepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepFailure::Breakdown { solve, breakdown } => {
                write!(f, "CG breakdown in {solve:?} solve: {breakdown:?}")
            }
            StepFailure::FieldHealth(v) => write!(f, "field health violation: {v}"),
            StepFailure::ExchangeDropped => write!(f, "gather-scatter exchange dropped"),
        }
    }
}

/// The escalation stage a retry ran under.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecoveryStage {
    /// Stage 1: retry with the successive-RHS projection history
    /// cleared.
    ClearProjection,
    /// Stage 2: additionally swap the pressure preconditioner to
    /// Jacobi for this step.
    JacobiFallback,
    /// Stage 3: additionally halve Δt (the payload is the Δt the retry
    /// ran with).
    HalveDt(f64),
}

impl RecoveryStage {
    /// Stable snake_case name (the `recovery_trail` entries of schema-v4
    /// step records and the `recov` column of `sem-report`).
    pub fn name(self) -> &'static str {
        match self {
            RecoveryStage::ClearProjection => "clear_projection",
            RecoveryStage::JacobiFallback => "jacobi_fallback",
            RecoveryStage::HalveDt(_) => "halve_dt",
        }
    }
}

/// One rung of the recovery trail: what failed, and what the ladder
/// did about it.
#[derive(Clone, Debug)]
pub struct RecoveryAttempt {
    /// The failure that triggered this rollback.
    pub cause: StepFailure,
    /// The stage the subsequent retry ran under (`None` when the
    /// ladder was already exhausted and no retry followed).
    pub stage: Option<RecoveryStage>,
}

impl RecoveryAttempt {
    /// The stage name, or `"give_up"` for the terminal no-retry rung.
    pub fn stage_label(&self) -> &'static str {
        self.stage.map_or("give_up", RecoveryStage::name)
    }
}

/// A step that could not be completed. The solver state has been
/// rolled back to the snapshot taken at step entry (with the original
/// Δt and preconditioner), so the caller may checkpoint, change the
/// configuration, or abort cleanly.
#[derive(Clone, Debug)]
pub struct StepError {
    /// 1-based index of the failed step.
    pub step: usize,
    /// Simulation time at step entry (the state the solver was rolled
    /// back to).
    pub time: f64,
    /// The failure of the final attempt.
    pub cause: StepFailure,
    /// Every rollback taken before giving up, in order.
    pub trail: Vec<RecoveryAttempt>,
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {} failed after {} recovery attempt(s): {}",
            self.step,
            self.trail.len(),
            self.cause
        )
    }
}

impl std::error::Error for StepError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_disabled() {
        let p = RecoveryPolicy::default();
        assert!(!p.enabled);
        assert!(RecoveryPolicy::enabled().enabled);
    }

    #[test]
    fn stage_labels_are_stable() {
        assert_eq!(RecoveryStage::ClearProjection.name(), "clear_projection");
        assert_eq!(RecoveryStage::JacobiFallback.name(), "jacobi_fallback");
        assert_eq!(RecoveryStage::HalveDt(1e-3).name(), "halve_dt");
        let gave_up = RecoveryAttempt {
            cause: StepFailure::ExchangeDropped,
            stage: None,
        };
        assert_eq!(gave_up.stage_label(), "give_up");
        let retried = RecoveryAttempt {
            cause: StepFailure::ExchangeDropped,
            stage: Some(RecoveryStage::JacobiFallback),
        };
        assert_eq!(retried.stage_label(), "jacobi_fallback");
    }

    #[test]
    fn step_error_formats_cause_and_trail() {
        let err = StepError {
            step: 7,
            time: 0.35,
            cause: StepFailure::ExchangeDropped,
            trail: vec![RecoveryAttempt {
                cause: StepFailure::ExchangeDropped,
                stage: Some(RecoveryStage::ClearProjection),
            }],
        };
        let msg = format!("{err}");
        assert!(msg.contains("step 7"), "{msg}");
        assert!(msg.contains("1 recovery attempt"), "{msg}");
        assert!(msg.contains("exchange dropped"), "{msg}");
    }
}
