//! Monotonically aggregated global counters.
//!
//! A fixed menu of named `u64` counters backed by relaxed atomics: every
//! probe site does `add(Counter::X, v)`, which is a no-op (one relaxed
//! bool load) while metrics are disabled. Because the cells are plain
//! atomics, the element-loop workers of `sem_comm::par` aggregate into
//! the same totals with no extra synchronization, and totals are
//! monotone: they only ever grow, so deltas between two [`snapshot`]s
//! are always well-defined.

use std::sync::atomic::{AtomicU64, Ordering};

/// The instrumented quantities (the paper's perfmon-style menu).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Floating-point operations executed by the `mxm` kernel family
    /// (2·n₁·n₂·n₃ per product — the paper's Table 3/4 accounting; mxm
    /// is > 90% of all flops in a spectral element solve). This is the
    /// one flop account: step records, `StepStats::flops` and every
    /// GFLOPS figure read it, and only `mxm_with` and `mxm_acc_with`
    /// add to it. Pointwise work (dot products, geometric-factor
    /// contractions, diagonal shifts) is not in it.
    MxmFlops,
    /// Number of `mxm` products dispatched.
    MxmCalls,
    /// Words (f64 values) read+combined by gather-scatter exchanges —
    /// the shared-node traffic RSB partitioning minimizes (§6).
    GsWords,
    /// Number of `gs_op` calls.
    GsCalls,
    /// Operator applications (`A p` matvecs) inside CG iterations.
    OperatorApplications,
    /// Projection-history updates dropped as numerically linearly
    /// dependent on the stored basis.
    ProjectionDropped,
    /// PCG terminations due to an indefinite operator or preconditioner
    /// (breakdown guards in `sem_solvers::cg`).
    CgBreakdowns,
    /// Faults fired by the deterministic injection layer
    /// (`sem_obs::fault` — armed by `TERASEM_FAULT` plans).
    FaultsInjected,
    /// Step rollback/retry attempts taken by the `NsSolver` recovery
    /// ladder (`sem_ns::recovery`).
    Recoveries,
    /// Checkpoints committed to disk by the run supervisor
    /// (`sem_ns::supervisor` — atomic tmp+rename writes only).
    CheckpointsWritten,
    /// Runs resumed from an on-disk checkpoint via
    /// `resume_from_latest`.
    Resumes,
    /// Trace events dropped because a thread's trace buffer was full
    /// (`sem_obs::trace` drop-newest overflow) — nonzero means Chrome
    /// exports and merged multi-rank traces are incomplete.
    TraceDropped,
    /// Network faults fired by the seeded injection shim in the
    /// `sem-net` transport (armed by `TERASEM_NET_FAULT` plans).
    NetFaultsInjected,
    /// Frames rejected by the CRC32 integrity check in the `sem-net`
    /// frame codec (corruption detected structurally, never misparsed).
    NetFramesCorrupt,
    /// Frames replayed from a link's retransmit buffer during a resume
    /// handshake after a link heal.
    NetRetries,
    /// Severed links successfully re-established (redial or re-accept
    /// plus resume handshake) by the self-healing transport.
    NetReconnects,
    /// Heartbeat probes that went unanswered past their deadline while
    /// a receive was blocked on a peer.
    HeartbeatsMissed,
    /// Duplicate (already-delivered) frames discarded by the reader
    /// after a link heal replayed more than the receiver was missing.
    NetFramesStale,
    /// Jobs accepted into the `sem-serve` queue by admission control.
    JobsAdmitted,
    /// Jobs refused by `sem-serve` admission control with a structured
    /// `overloaded` rejection (queue at capacity or daemon draining).
    JobsRejected,
    /// Jobs that ran to their step target and committed results.
    JobsCompleted,
    /// Job attempts relaunched after a worker died mid-run (crash,
    /// chaos kill, injected fault) — each retry resumes from the job's
    /// newest checkpoint.
    JobsRetried,
    /// Jobs preempted by a drain request: checkpointed and parked
    /// resumable rather than run to completion.
    JobsPreempted,
}

/// Number of counters.
pub const NUM_COUNTERS: usize = 23;

impl Counter {
    /// All counters, in declaration order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::MxmFlops,
        Counter::MxmCalls,
        Counter::GsWords,
        Counter::GsCalls,
        Counter::OperatorApplications,
        Counter::ProjectionDropped,
        Counter::CgBreakdowns,
        Counter::FaultsInjected,
        Counter::Recoveries,
        Counter::CheckpointsWritten,
        Counter::Resumes,
        Counter::TraceDropped,
        Counter::NetFaultsInjected,
        Counter::NetFramesCorrupt,
        Counter::NetRetries,
        Counter::NetReconnects,
        Counter::HeartbeatsMissed,
        Counter::NetFramesStale,
        Counter::JobsAdmitted,
        Counter::JobsRejected,
        Counter::JobsCompleted,
        Counter::JobsRetried,
        Counter::JobsPreempted,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::MxmFlops => "mxm_flops",
            Counter::MxmCalls => "mxm_calls",
            Counter::GsWords => "gs_words",
            Counter::GsCalls => "gs_calls",
            Counter::OperatorApplications => "operator_applications",
            Counter::ProjectionDropped => "projection_dropped",
            Counter::CgBreakdowns => "cg_breakdowns",
            Counter::FaultsInjected => "faults_injected",
            Counter::Recoveries => "recoveries",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::Resumes => "resumes",
            Counter::TraceDropped => "trace_dropped",
            Counter::NetFaultsInjected => "net_faults_injected",
            Counter::NetFramesCorrupt => "net_frames_corrupt",
            Counter::NetRetries => "net_retries",
            Counter::NetReconnects => "net_reconnects",
            Counter::HeartbeatsMissed => "heartbeats_missed",
            Counter::NetFramesStale => "net_frames_stale",
            Counter::JobsAdmitted => "jobs_admitted",
            Counter::JobsRejected => "jobs_rejected",
            Counter::JobsCompleted => "jobs_completed",
            Counter::JobsRetried => "jobs_retried",
            Counter::JobsPreempted => "jobs_preempted",
        }
    }

    /// Inverse of [`Counter::name`] (used when rebuilding snapshots from
    /// serialized records).
    pub fn parse(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static CELLS: [AtomicU64; NUM_COUNTERS] = [ZERO; NUM_COUNTERS];

/// Add `v` to counter `c` (no-op while metrics are disabled).
#[inline]
pub fn add(c: Counter, v: u64) {
    if crate::enabled() {
        CELLS[c as usize].fetch_add(v, Ordering::Relaxed);
    }
}

/// Current value of counter `c`.
pub fn get(c: Counter) -> u64 {
    CELLS[c as usize].load(Ordering::Relaxed)
}

/// Zero every counter.
pub fn reset_counters() {
    for cell in &CELLS {
        cell.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of every counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; NUM_COUNTERS],
}

impl CounterSnapshot {
    /// Value of `c` in this snapshot.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Per-counter difference `self − earlier` (saturating, though the
    /// counters are monotone unless reset in between).
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut values = [0u64; NUM_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        CounterSnapshot { values }
    }

    /// Set the value of `c` (used when rebuilding a snapshot from a
    /// serialized record — the live registry is never written this way).
    pub fn set(&mut self, c: Counter, v: u64) {
        self.values[c as usize] = v;
    }

    /// Merge another snapshot into this one by element-wise saturating
    /// addition — the per-rank aggregation used to fold a multi-rank
    /// job's counters into machine-wide totals. Because every counter is
    /// a plain sum of events, merging per-rank snapshots is exact: it
    /// equals the snapshot a single process counting all ranks' events
    /// would have produced (pinned by the seeded merge proptest).
    pub fn merge(&mut self, other: &CounterSnapshot) {
        for (v, o) in self.values.iter_mut().zip(other.values.iter()) {
            *v = v.saturating_add(*o);
        }
    }
}

/// Snapshot every counter.
pub fn snapshot() -> CounterSnapshot {
    let mut values = [0u64; NUM_COUNTERS];
    for (v, cell) in values.iter_mut().zip(CELLS.iter()) {
        *v = cell.load(Ordering::Relaxed);
    }
    CounterSnapshot { values }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_adds_are_noops_and_enabled_adds_accumulate() {
        let _g = crate::test_guard();
        let prev = crate::enabled();
        crate::set_enabled(false);
        reset_counters();
        add(Counter::MxmFlops, 100);
        assert_eq!(get(Counter::MxmFlops), 0);
        crate::set_enabled(true);
        add(Counter::MxmFlops, 100);
        add(Counter::MxmFlops, 23);
        assert_eq!(get(Counter::MxmFlops), 123);
        let snap = snapshot();
        assert_eq!(snap.get(Counter::MxmFlops), 123);
        add(Counter::MxmFlops, 7);
        assert_eq!(snapshot().delta(&snap).get(Counter::MxmFlops), 7);
        reset_counters();
        assert_eq!(get(Counter::MxmFlops), 0);
        crate::set_enabled(prev);
    }

    #[test]
    fn snapshot_merge_is_elementwise_and_set_roundtrips() {
        let mut a = CounterSnapshot::default();
        let mut b = CounterSnapshot::default();
        a.set(Counter::GsWords, 40);
        a.set(Counter::TraceDropped, u64::MAX);
        b.set(Counter::GsWords, 2);
        b.set(Counter::MxmCalls, 7);
        b.set(Counter::TraceDropped, 9);
        a.merge(&b);
        assert_eq!(a.get(Counter::GsWords), 42);
        assert_eq!(a.get(Counter::MxmCalls), 7);
        assert_eq!(a.get(Counter::TraceDropped), u64::MAX, "merge saturates");
        assert_eq!(a.get(Counter::Resumes), 0);
    }

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            let n = c.name();
            assert!(seen.insert(n), "duplicate counter name {n}");
            assert!(n
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch == '_' || ch.is_ascii_digit()));
            assert_eq!(Counter::parse(n), Some(c), "parse must invert name");
        }
        assert_eq!(Counter::parse("not_a_counter"), None);
    }
}
