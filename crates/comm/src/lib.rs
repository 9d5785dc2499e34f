//! # sem-comm
//!
//! The parallel substrate: what the paper's machine provided besides the
//! gather-scatter exchange itself (that lives in `sem-gs`, and its socket
//! transport in `sem-net`).
//!
//! * [`MachineModel`] converts message counts, bytes and flops into
//!   predicted wall-clock using the standard α–β (latency/bandwidth)
//!   model plus a sustained flop rate, with an ASCI-Red-333 preset
//!   calibrated to the paper's §6–§7 numbers; [`CostBreakdown`] splits a
//!   prediction into its compute, latency and bandwidth terms, and
//!   [`fit_alpha_beta`] fits α and β to measured ping-pong timings. This
//!   is what regenerates the *shape* of Fig. 6 and Table 4 at up to 2048
//!   nodes on a laptop.
//! * [`par`] is the intranode half: a deterministic chunked parallel-for
//!   over elements on one persistent pool of std threads
//!   (`TERASEM_THREADS` override) — the modern form of the paper's
//!   dual-processor `-Mconcur` mode.

pub mod model;
pub mod par;

pub use model::{fit_alpha_beta, CostBreakdown, MachineModel};
