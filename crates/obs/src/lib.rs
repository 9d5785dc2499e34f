//! # sem-obs
//!
//! Solver observability: the per-solve counters and per-phase timers the
//! paper's scaling story is told through (pressure iteration counts under
//! projection — Fig. 4, coarse-grid solve times — Fig. 6, per-kernel
//! MFLOPS — Tables 3–4), available from a *running* solve instead of
//! ad-hoc locals in each experiment binary.
//!
//! Six facilities, all zero-dependency and safe to leave compiled into
//! production binaries:
//!
//! * [`counters`] — monotonically aggregated global counters (mxm flops,
//!   gather-scatter exchanged words, operator applications, …) backed by
//!   relaxed atomics, so `sem_comm::par` element-loop workers aggregate
//!   into the same totals without synchronization.
//! * [`spans`] — scoped wall-time spans over a fixed set of solver
//!   phases (convection subintegration, Helmholtz solves, pressure
//!   projection, Schwarz preconditioner, coarse solve, …). A span is a
//!   guard value: created at phase entry, it accumulates the elapsed
//!   time into the thread-safe registry when dropped, nesting freely.
//! * [`record`] — per-timestep structured records (CG iterations,
//!   initial/final residuals, projection history depth `l`, CFL, span
//!   and counter snapshots) emitted as JSON lines with the same `JSON `
//!   prefix convention as `sem_bench::timing`, so one
//!   `grep '^JSON '` harvests both bench summaries and solver
//!   trajectories.
//! * [`hist`] — log-bucketed latency histograms per phase, feeding the
//!   per-step `latency` quantiles (p50/p90/p99/max) in records.
//! * [`sink`] — pluggable record destinations (stdout, file, null,
//!   in-memory), selected via `TERASEM_METRICS_SINK` or `NsConfig`.
//! * [`trace`] — per-thread timestamped begin/end event log with
//!   Chrome trace-event export (`TERASEM_TRACE`), off by default even
//!   when metrics are on.
//!
//! Span totals are *inclusive* (a parent phase's time contains its
//! nested children); `sem-report` derives exclusive (self) times from
//! the static [`spans::Phase::parent`] nesting tree.
//!
//! ## Cost when disabled
//!
//! All instrumentation is gated on a single global [`enabled`] flag
//! (default **off**). The disabled path is one relaxed atomic load and a
//! predictable branch per probe — measured < 1% overhead on the
//! `ns_step` bench — and none of the probes touch the numerics, so
//! solver results are bitwise identical with metrics on or off (pinned
//! by `crates/ns/tests/metrics_determinism.rs`).
//!
//! ## Enabling
//!
//! Programmatic: [`set_enabled`]`(true)` (the `NsConfig::metrics` toggle
//! does this for you). Environment: `TERASEM_METRICS=1` +
//! [`init_from_env`] (called by the experiment binaries).

pub mod counters;
pub mod exit;
pub mod fault;
pub mod hist;
pub mod json;
pub mod record;
pub mod sink;
pub mod spans;
pub mod trace;
pub mod warn;

pub use counters::Counter;
pub use fault::FaultSite;
pub use record::StepRecord;
pub use sink::{Sink, SinkHandle};
pub use spans::{span, Phase, SpanGuard};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Rank id of this process in a multi-rank job, or the sentinel for
/// "not part of one". Stored as `rank + 1` so the zero initializer means
/// unset without a second flag.
static RANK_PLUS_ONE: AtomicU64 = AtomicU64::new(0);

/// Is metric collection currently on?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn metric collection on or off (process-global).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Stamp this process with a rank id (process-global). Every step
/// record, run record, and trace export produced afterwards carries it,
/// so multi-rank telemetry streams stay attributable after merging.
/// `None` clears the stamp (single-process default).
pub fn set_rank(rank: Option<u32>) {
    RANK_PLUS_ONE.store(rank.map_or(0, |r| r as u64 + 1), Ordering::Relaxed);
}

/// The rank id stamped on this process, if any.
pub fn rank() -> Option<u32> {
    match RANK_PLUS_ONE.load(Ordering::Relaxed) {
        0 => None,
        r => Some((r - 1) as u32),
    }
}

/// Enable metrics if the `TERASEM_METRICS` environment variable is set
/// to `1` or `true`, and apply the sink selector `TERASEM_METRICS_SINK`
/// (see [`sink::init_sink_from_env`]). Returns the resulting enabled
/// state.
/// (`TERASEM_TRACE` is handled separately by [`trace::init_from_env`],
/// since the caller owns writing the export file at run end.)
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("TERASEM_METRICS") {
        let v = v.trim();
        if v == "1" || v.eq_ignore_ascii_case("true") {
            set_enabled(true);
        }
    }
    sink::init_sink_from_env();
    enabled()
}

/// Reset all counters, span accumulators, and latency histograms to zero
/// (the enabled flag, sink, and trace log are left
/// unchanged). Intended for experiment binaries that measure deltas
/// between workload sections.
pub fn reset() {
    counters::reset_counters();
    spans::reset_spans();
    hist::reset_hist();
}

/// Serializes unit tests that mutate the process-global enabled flag or
/// the counter/span registries (the registries are global by design).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_flag_roundtrip() {
        let _g = test_guard();
        let prev = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(prev);
    }

    #[test]
    fn rank_stamp_roundtrip_including_rank_zero() {
        let _g = test_guard();
        assert_eq!(rank(), None, "unset by default");
        set_rank(Some(0));
        assert_eq!(rank(), Some(0), "rank 0 must be distinguishable from unset");
        set_rank(Some(31));
        assert_eq!(rank(), Some(31));
        set_rank(None);
        assert_eq!(rank(), None);
    }
}
