//! # sem-net
//!
//! Rank-parallel scale-out: the workspace's algorithms running as real
//! cooperating *processes*, not simulated ranks. The paper's machine was
//! a distributed-memory MPP driven by MPI/NX; this crate reproduces that
//! execution shape on one machine with a hand-rolled, zero-dependency
//! transport — Unix-domain sockets between locally spawned rank
//! processes ([`transport`]) — and a `terasem-launch` binary that
//! spawns, supervises, and respawns the ranks ([`launch`]).
//!
//! The execution model is **replicated compute, distributed exchange**:
//!
//! * Every rank advances the full Navier–Stokes solve. The workspace's
//!   determinism guarantee (bitwise-identical steps at any
//!   `TERASEM_THREADS`, any host ISA, across checkpoint/resume) makes the
//!   ranks bitwise replicas — which is both the simplest correct SPMD
//!   decomposition of a solver whose data distribution is still
//!   simulated, and a continuously-checked invariant: ranks cross-check
//!   field hashes every validation interval.
//! * The gather-scatter really is distributed: [`layout::RankLayout`]
//!   partitions the element set with RSB, and each rank runs its
//!   `sem_gs::RankGs` pattern as `pack` → [`NetComm::exchange`] → `fold`,
//!   sending shared dof copies over the sockets and folding them in
//!   canonical order, so the result is bitwise-identical to the serial
//!   `GsHandle` — validated against the live solver fields every
//!   interval.
//! * Rank death is a *recoverable fault*: each rank checkpoints
//!   independently ([`sem_ns::supervisor`]); when ranks die the launcher
//!   respawns them into the next epoch, the survivors join it in place,
//!   and every rank resumes the newest checkpoint generation all ranks
//!   hold ([`sem_ns::valid_generations`], allgathered) and replays from
//!   there ([`rank`]). The recovered run is bitwise-identical to an
//!   uninterrupted one.
//! * The α–β machine model is wired to *measured* exchange times:
//!   [`comm::NetComm`] records per-op timing samples,
//!   `terasem-launch --bench-comm` fits `sem_comm::fit_alpha_beta` from
//!   ping-pongs and compares measured neighbor-exchange and allreduce
//!   times against the fitted model and the ASCI-Red preset, reported
//!   as `sem_comm::CostBreakdown`s.

/// `eprintln!` in one `write` call. Rank processes share the launcher's
/// stderr, and a line written in pieces interleaves with the lines of
/// other processes.
macro_rules! log_line {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let line = format!("{}\n", format_args!($($arg)*));
        let _ = std::io::stderr().write_all(line.as_bytes());
    }};
}

pub mod comm;
pub mod fault;
pub mod launch;
pub mod layout;
pub mod rank;
pub mod telemetry;
pub mod transport;

pub use comm::{CommTimings, NetComm};
pub use fault::{NetFaultKind, NetFaultPlan};
pub use launch::LaunchOpts;
pub use layout::{EmptyRankError, RankLayout};
pub use transport::{NetError, NetTuning, Transport};
