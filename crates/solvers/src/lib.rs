//! # sem-solvers
//!
//! Scalable elliptic solvers (§5 of Tufo & Fischer SC'99).
//!
//! * [`cg`] — preconditioned conjugate gradients with pluggable operator,
//!   preconditioner, inner product, and nullspace handling.
//! * [`jacobi`] — the Jacobi (diagonal) preconditioner and the packaged
//!   Helmholtz velocity solver of §4.
//! * [`fdm`] — fast diagonalization method local solves on one-point
//!   extended tensor subdomains (Lynch–Rice–Thomas; §5).
//! * [`schwarz`] — the additive overlapping Schwarz pressure
//!   preconditioner `M₀⁻¹ = R₀ᵀA₀⁻¹R₀ + Σ RkᵀÃk⁻¹Rk`, with FDM and FEM
//!   local solves at overlap 0/1/3 and an optional coarse component
//!   (Table 2's comparison matrix).
//! * [`coarse`] — the element-vertex coarse space: bilinear restriction
//!   `R₀`, the assembled coarse operator `A₀`, and direct solves.
//! * [`projection`] — successive right-hand-side projection (ref \[7\]):
//!   solve only for the perturbation from the span of previous solutions.
//! * [`sparse`] — CSR symmetric sparse matrices for coarse operators.
//! * [`xxt`] — the XXᵀ sparse-inverse coarse-grid solver (ref \[24\]) with
//!   nested-dissection ordering and the Fig. 6 communication model,
//!   plus closed-form cost models of the Fig. 6 baselines (redundant
//!   banded LU, row-distributed inverse).
//! * [`pressure_solver`] — the packaged two-stage pressure solve:
//!   projection + Schwarz-preconditioned CG on `E`.

pub mod cg;
pub mod coarse;
pub mod fdm;
pub mod jacobi;
pub mod pressure_solver;
pub mod projection;
pub mod schwarz;
pub mod sparse;
pub mod xxt;

pub use cg::{pcg, CgOptions, CgResult};
pub use pressure_solver::PressureSolver;
