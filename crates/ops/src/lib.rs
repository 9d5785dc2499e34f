//! # sem-ops
//!
//! Matrix-free spectral element operators (§3–§4 of Tufo & Fischer SC'99).
//!
//! All operators are applied element-by-element as tensor contractions
//! (small matrix–matrix products) — the stiffness matrix of Eq. 4 is never
//! formed. Fields live in the paper's nonoverlapping element storage:
//! `K · (N+1)^d` values for velocity-space (`P_N`, GLL) fields and
//! `K · (N−1)^d` values for pressure-space (`P_{N−2}`, interior Gauss)
//! fields. The only cross-element coupling is the gather-scatter
//! (direct-stiffness) summation.
//!
//! * [`space::SemOps`] — the discretization bundle: geometry, numbering,
//!   gather-scatter handle, Dirichlet mask, assembled mass, and the
//!   velocity↔pressure interpolation machinery. The operators keep no
//!   flop count of their own: every contraction runs through `mxm`,
//!   which meters the one flop account (`sem_obs::Counter::MxmFlops`).
//! * [`laplace`] — mass, stiffness (Eq. 4) and Helmholtz application.
//! * [`pressure`] — the discrete divergence `D`, its transpose (weak
//!   gradient), and the consistent Poisson operator `E = D B⁻¹ Dᵀ`.
//! * [`convect`] — gradients and the convection operator `(c·∇)u`.
//! * [`filter`] — the element-local tensor filter application.
//! * [`fields`] — masked/weighted inner products and field utilities for
//!   the redundant-storage vector representation.

pub mod convect;
pub mod fields;
pub mod filter;
pub mod laplace;
pub mod pressure;
pub mod space;

pub use space::SemOps;
