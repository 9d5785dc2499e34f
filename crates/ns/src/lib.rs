//! # sem-ns
//!
//! The paper's production code: a spectral element solver for the
//! unsteady incompressible Navier–Stokes equations
//!
//! ```text
//! ∂u/∂t + u·∇u = −∇p + (1/Re)∇²u + f,     ∇·u = 0
//! ```
//!
//! on general 2D/3D deformed-element meshes, integrating every component
//! built in this workspace: matrix-free tensor operators (`sem-ops`),
//! Jacobi-PCG Helmholtz solves and the Schwarz/FDM + coarse-grid +
//! successive-RHS-projection pressure solve (`sem-solvers`), filter-based
//! stabilization (`sem-poly`), and the gather-scatter assembly (`sem-gs`).
//!
//! Time advancement follows §4: BDF2 (optionally BDF3) with the
//! convective term treated either by standard 2nd-order extrapolation
//! (EXT2, CFL-limited) or as a material derivative subintegrated
//! explicitly along characteristics (OIFS, refs [2, 19]) permitting
//! convective CFL 1–5. The implicit Stokes problem is split into one
//! Jacobi-PCG Helmholtz solve per velocity component plus one consistent
//! Poisson solve for the pressure increment (incremental
//! pressure-correction, 2nd order).
//!
//! Optional Boussinesq buoyancy with a transported temperature field
//! covers the paper's "multiple-species transport" and the convection
//! benchmarks (Fig. 4's substitute).

//!
//! The `sem-guard` robustness layer rides on top of the time loop:
//! deterministic fault injection ([`fault`], `TERASEM_FAULT`), staged
//! rollback/retry recovery ([`recovery`]), and on-disk checkpointing
//! ([`checkpoint`]). The `sem-run` crash-only supervisor
//! ([`supervisor`]) drives the loop for long runs: step-interval
//! auto-checkpointing with retention, resume-from-latest, and a give-up
//! at the first unrecovered step that exits through a checkpoint.

pub mod checkpoint;
pub mod config;
pub mod convection;
pub mod diagnostics;
pub mod fault;
pub mod output;
pub mod recovery;
pub mod solver;
pub mod supervisor;

pub use config::{ConvectionScheme, NsConfig};
pub use diagnostics::{HealthViolation, StepStats};
pub use fault::{FaultKind, FaultPlan, FieldTarget};
pub use recovery::{RecoveryPolicy, RecoveryStage, StepError, StepFailure};
pub use solver::NsSolver;
pub use supervisor::{
    valid_generations, GiveUpReason, RunError, RunPolicy, RunReport, RunSupervisor,
};
