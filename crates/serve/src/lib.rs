//! # sem-serve
//!
//! The solver as a long-lived service: a crash-only daemon that accepts
//! simulation jobs over a hand-rolled line-protocol-over-TCP API, runs
//! each one under its own [`sem_ns::RunSupervisor`] in a worker
//! *subprocess*, and survives everything the soak harness throws at a
//! single run — at fleet scale.
//!
//! The operational contract, in order of importance:
//!
//! - **Admission control, never a hang.** The job queue is bounded. A
//!   `submit` against a full queue gets a structured
//!   `err overloaded retry-after-ms=…` response immediately; the
//!   bundled client turns that hint into seeded-jitter backoff
//!   ([`client::Client::submit_with_backoff`]).
//! - **Crash-only jobs.** Each job runs in a subprocess with periodic
//!   compressed checkpoints. A worker that dies — panic, chaos kill,
//!   injected fault storm, OOM — is relaunched (up to a retry budget)
//!   and *resumes from its newest checkpoint*; the finished output is
//!   bitwise-identical to an uncontended, uninterrupted run. Retry
//!   exhaustion is a structured `failed` state, never a wedged queue.
//! - **Graceful drain.** SIGTERM (or the `drain` admin request) stops
//!   admission, SIGTERMs every in-flight worker, and each worker exits
//!   *through a checkpoint* with the structured
//!   [`sem_obs::exit::JOB_DRAINED`] code. The daemon waits for every
//!   child, marks queued jobs drained-resumable, and exits 0 — no
//!   straggler processes, no torn files.
//! - **Live observability.** Workers write schema-v6 step records to a
//!   per-job `metrics.jsonl` (append mode, so attempts accumulate);
//!   `watch <id>` streams those lines live over the same TCP
//!   connection — the "socket sink" idea from the roadmap. The daemon
//!   journals every admission/completion/retry to `serve.jsonl`
//!   (`terasem.serve` records with a queue-depth gauge) and bumps the
//!   `jobs_*` counters; `sem-report` renders the service summary.
//!
//! Protocol reference lives in [`proto`]; the wire format is plain
//! `\n`-terminated UTF-8 lines, zero dependencies end to end.

pub mod client;
pub mod daemon;
pub mod job;
pub mod proto;
pub mod signal;
pub mod worker;

/// Hash used to fingerprint result artifacts in `result` responses:
/// FNV-1a 64, rendered as 16 hex digits. Stable across platforms, and
/// cheap enough to run on every fetch.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
