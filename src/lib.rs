//! # terasem
//!
//! A Rust reproduction of the spectral element system described in
//! Tufo & Fischer, *"Terascale Spectral Element Algorithms and
//! Implementations"* (SC 1999) — the algorithmic core of what became
//! Nek5000: tensor-product spectral element discretization of the unsteady
//! incompressible Navier–Stokes equations, matrix-free operator
//! evaluation, filter-based stabilization, operator-splitting time
//! advancement, overlapping additive Schwarz pressure preconditioning with
//! fast-diagonalization local solves, successive-RHS projection, and the
//! XXᵀ parallel coarse-grid solver.
//!
//! This façade crate re-exports the workspace crates under stable names:
//!
//! * [`poly`] — orthogonal polynomials, quadrature, interpolation, filters
//! * [`linalg`] — dense kernels (mxm family), factorizations, eigensolvers
//! * [`mesh`] — spectral element meshes, geometry, partitioning
//! * [`gs`] — the gather-scatter (direct stiffness summation) library,
//!   serial and per-rank distributed
//! * [`comm`] — the α–β machine cost model and deterministic
//!   element-parallel loops
//! * [`ops`] — matrix-free spectral element operators
//! * [`solvers`] — CG, Schwarz/FDM preconditioning, XXᵀ, projection
//! * [`ns`] — the incompressible Navier–Stokes solver (the paper's code)
//! * [`stability`] — Orr–Sommerfeld linear-theory reference solutions
//! * [`net`] — rank-parallel scale-out: Unix-socket transport, the
//!   distributed gather-scatter's exchange, and the `terasem-launch`
//!   supervisor
//!
//! See `README.md` for a quickstart and `DESIGN.md`/`EXPERIMENTS.md` for
//! the paper-experiment index.

pub use sem_comm as comm;
pub use sem_gs as gs;
pub use sem_net as net;
pub use sem_linalg as linalg;
pub use sem_mesh as mesh;
pub use sem_ns as ns;
pub use sem_ops as ops;
pub use sem_poly as poly;
pub use sem_solvers as solvers;
pub use sem_stability as stability;
