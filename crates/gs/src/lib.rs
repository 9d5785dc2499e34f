//! # sem-gs
//!
//! The gather-scatter library (§6 of Tufo & Fischer SC'99; ref \[27\]).
//!
//! Spectral element data is stored element-by-element with no overlap, so
//! residual assembly (direct stiffness summation) needs nodal values
//! shared by adjacent elements to be exchanged and combined. The paper
//! packages this as a stand-alone utility with exactly two calls:
//!
//! ```text
//! handle = gs_init(global_node_numbers, n)
//! ierr   = gs_op(u, op, handle)
//! ```
//!
//! [`GsHandle`] reproduces that interface for one address space (element
//! loops run through `sem_comm::par`), including the **vector mode** for
//! multiple degrees of freedom per node ([`GsHandle::gs_fields`]: several
//! component-major fields in one exchange) and the general set of
//! commutative/associative reduction operations.
//!
//! [`RankGs`] is the distributed form: one rank's local node array, one
//! aggregated message per neighbouring rank per `gs_op`, split into
//! [`RankGs::pack`] and [`RankGs::fold`] so the caller owns the
//! transport (`sem-net`'s sockets, or [`exchange_in_process`] when all
//! ranks share one process). It folds every shared node's copies in
//! serial order through [`GsHandle`]'s own loop, so its results are
//! bitwise-equal to [`GsHandle::gs`] at any rank count.

pub mod local;
pub mod rank;

pub use local::{GsHandle, GsOp};
pub use rank::{exchange_in_process, RankGs};
