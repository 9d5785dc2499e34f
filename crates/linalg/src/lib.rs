//! # sem-linalg
//!
//! Dense linear algebra substrate for the `terasem` spectral element
//! workspace, reproducing the numerical kernels that Tufo & Fischer (SC'99)
//! obtained from vendor BLAS and hand-tuned Fortran:
//!
//! * [`Matrix`] — a small, row-major dense matrix used for the 1D operators
//!   (stiffness, mass, derivative, interpolation) of the tensor-product
//!   spectral element bases.
//! * [`mxm`](mod@mxm) — the matrix–matrix product kernel family of the paper's
//!   Table 3 (`lkm`/`ghm`/`csm`/`f3`/`f2` become `naive`/`blocked`/
//!   `unroll4`/`f3`/`f2`), plus the per-shape dispatcher
//!   [`MxmKernel::Auto`] mirroring the paper's "perf." kernel selection,
//!   with one measured table per host ISA.
//! * [`simd`] — explicit-SIMD `mxm` variants (AVX2/SSE2 on x86_64, NEON on
//!   aarch64) that are bitwise-identical to the scalar kernels, with a
//!   guaranteed scalar fallback on hosts without a vector unit, and the
//!   runtime ISA detection both follow.
//! * [`tensor`] — application of tensor-product operators
//!   `(A_z ⊗ A_y ⊗ A_x) u` as sequences of mxm calls (Eq. 3 of the paper).
//! * [`chol`], [`lu`] — dense direct factorizations used by the Schwarz
//!   local solves, the vertex coarse grid, and setup phases.
//! * [`eig`] — cyclic-Jacobi symmetric eigensolver and the generalized
//!   symmetric eigenproblem `A z = λ B z` required by the fast
//!   diagonalization method (FDM).
//! * [`complex`] — complex arithmetic, complex LU, and inverse iteration for
//!   the Orr–Sommerfeld reference eigenproblem of Table 1.
//! * [`vector`] — level-1 helpers (dot, axpy, norms) shared by the
//!   iterative solvers.
//! * [`rng`] — a seeded SplitMix64 generator and the explicit seeded-loop
//!   property-test harness used across the workspace (no external
//!   `rand`/`proptest` dependency), and the one FNV-1a hash.

pub mod chol;
pub mod complex;
pub mod eig;
pub mod lu;
pub mod matrix;
pub mod mxm;
pub mod rng;
pub mod simd;
pub mod tensor;
pub mod vector;

pub use complex::Complex;
pub use matrix::Matrix;
pub use mxm::{mxm, MxmKernel};
