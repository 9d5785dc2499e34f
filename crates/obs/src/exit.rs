//! The workspace-wide structured exit-code registry.
//!
//! Before this module, the meaningful exit codes were scattered across
//! binaries — `terasem-launch` owned 2/3/7/8/9, `sem-report --strict`
//! owned 4/5/6, the `soak` harness reused 2 and 9 — and a new binary
//! (like `sem-serve`) could only extend the set by grepping for
//! collisions. Every binary now draws from this one table; the
//! per-crate `EXIT_*` constants that predate it are re-exports.
//!
//! The full table (also in the README):
//!
//! | code | name                 | emitted by        | meaning |
//! |------|----------------------|-------------------|---------|
//! | 0    | `OK`                 | everyone          | success |
//! | 1    | `FAILURE`            | everyone          | unstructured failure (I/O, spawn, missing artifact) |
//! | 2    | `USAGE`              | everyone          | configuration rejected (bad flags, over-decomposed partition, bad resume generation) |
//! | 3    | `RESTARTS_EXHAUSTED` | `terasem-launch`  | recovery budget (`--max-restarts`) ran out |
//! | 4    | `REPORT_UNHEALTHY`   | `sem-report`      | `--strict`: run survived but shows breakdowns / drops / recoveries |
//! | 5    | `REPORT_GAVE_UP`     | `sem-report`      | `--strict`: a `terasem.run` record says the run ended in an unrecovered error |
//! | 6    | `REPORT_IMBALANCE`   | `sem-report`      | `--strict --ranks`: step-phase imbalance factor exceeds `--max-imbalance` |
//! | 7    | `NET_DIVERGED`       | rank processes    | cross-rank divergence (hash or gather-scatter mismatch) |
//! | 8    | `NET_PEER_LOST`      | rank processes    | a peer died or the transport failed past healing |
//! | 9    | `CHAOS_KILL`         | chaos harnesses   | deterministic self-kill (`--kill`, `kill_at=`) |
//! | 10   | `JOB_DRAINED`        | `sem-serve` worker| job preempted by drain: checkpointed, resumable, not failed |
//! | 11   | `JOB_BUDGET`         | `sem-serve` worker| per-job wall-clock budget exhausted (checkpointed) |
//! | 12   | `JOB_GAVE_UP`        | `sem-serve` worker| the supervised solve gave up (a step failed after the recovery ladder) |

/// Success.
pub const OK: i32 = 0;
/// Unstructured failure: I/O errors, spawn failures, missing artifacts.
pub const FAILURE: i32 = 1;
/// Configuration rejected before any work started (bad flags, an
/// over-decomposed partition, a bad resume generation).
pub const USAGE: i32 = 2;
/// `terasem-launch`: the recovery budget (`--max-restarts`) ran out.
pub const RESTARTS_EXHAUSTED: i32 = 3;
/// `sem-report --strict`: the run survived, but shows CG breakdowns,
/// dropped projection updates, or recovery rollbacks.
pub const REPORT_UNHEALTHY: i32 = 4;
/// `sem-report --strict`: a `terasem.run` record says the run *ended*
/// in an unrecovered error (gave up).
pub const REPORT_GAVE_UP: i32 = 5;
/// `sem-report --strict --ranks`: load imbalance exceeds the gate.
pub const REPORT_IMBALANCE: i32 = 6;
/// Rank process: cross-rank divergence detected (hash or
/// gather-scatter mismatch). Never recoverable by restart.
pub const NET_DIVERGED: i32 = 7;
/// Rank process: a peer died or the transport failed past healing.
pub const NET_PEER_LOST: i32 = 8;
/// Deterministic chaos self-kill (the soak harness's `--kill-at`, the
/// launcher's `--kill`, `sem-serve`'s `kill_at=` job spec).
pub const CHAOS_KILL: i32 = 9;
/// `sem-serve` worker: the job was preempted by a drain request — its
/// state is checkpointed and resumable; the job did not fail.
pub const JOB_DRAINED: i32 = 10;
/// `sem-serve` worker: the per-job wall-clock budget was exhausted.
/// The job exits through a checkpoint (a bigger budget could resume it).
pub const JOB_BUDGET: i32 = 11;
/// `sem-serve` worker: the supervised solve gave up — a step failed
/// after the recovery ladder (`sem_ns::GiveUpReason::StepFailed`), and
/// the run exited through a checkpoint of the last committed step.
pub const JOB_GAVE_UP: i32 = 12;

/// The full registry: `(code, name, one-line meaning)`, sorted by code.
/// New binaries must extend this table (and the README copy) rather
/// than minting codes locally — the uniqueness test below is the
/// collision guard.
pub const REGISTRY: &[(i32, &str, &str)] = &[
    (OK, "OK", "success"),
    (FAILURE, "FAILURE", "unstructured failure (I/O, spawn, missing artifact)"),
    (USAGE, "USAGE", "configuration rejected before any work started"),
    (
        RESTARTS_EXHAUSTED,
        "RESTARTS_EXHAUSTED",
        "recovery budget (--max-restarts) ran out",
    ),
    (
        REPORT_UNHEALTHY,
        "REPORT_UNHEALTHY",
        "strict report gate: survived, but breakdowns/drops/recoveries on record",
    ),
    (
        REPORT_GAVE_UP,
        "REPORT_GAVE_UP",
        "strict report gate: the run ended in an unrecovered error",
    ),
    (
        REPORT_IMBALANCE,
        "REPORT_IMBALANCE",
        "strict report gate: cross-rank imbalance exceeds --max-imbalance",
    ),
    (
        NET_DIVERGED,
        "NET_DIVERGED",
        "cross-rank divergence (hash or gather-scatter mismatch)",
    ),
    (
        NET_PEER_LOST,
        "NET_PEER_LOST",
        "a peer died or the transport failed past healing",
    ),
    (CHAOS_KILL, "CHAOS_KILL", "deterministic chaos self-kill"),
    (
        JOB_DRAINED,
        "JOB_DRAINED",
        "sem-serve job preempted by drain: checkpointed and resumable",
    ),
    (
        JOB_BUDGET,
        "JOB_BUDGET",
        "sem-serve per-job wall-clock budget exhausted (checkpointed)",
    ),
    (
        JOB_GAVE_UP,
        "JOB_GAVE_UP",
        "sem-serve job's supervised solve gave up",
    ),
];

/// Human-readable name of a registered exit code, or `None` for codes
/// outside the registry (a signal death's shell code, for instance).
pub fn name(code: i32) -> Option<&'static str> {
    REGISTRY.iter().find(|(c, _, _)| *c == code).map(|(_, n, _)| *n)
}

/// One-line meaning of a registered exit code.
pub fn describe(code: i32) -> Option<&'static str> {
    REGISTRY.iter().find(|(c, _, _)| *c == code).map(|(_, _, d)| *d)
}

/// Exit with [`FAILURE`] once stdin reaches EOF, watched from a thread of
/// its own. For a child whose stdin is a pipe only its parent holds (a
/// rank and its launcher, a worker and its daemon), EOF means the parent
/// is gone, and a child waiting on it would otherwise outlive it. The
/// stderr line, prefixed by `label`, is one `write`, so lines of
/// concurrent children cannot interleave.
pub fn exit_when_parent_dies(label: &str) {
    use std::io::{Read, Write};
    let line = format!("{label}: parent gone (stdin closed), exiting\n");
    std::thread::spawn(move || {
        let mut buf = [0u8; 64];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut buf) {
                Ok(0) => break,
                Err(e) if e.kind() != std::io::ErrorKind::Interrupted => break,
                _ => {}
            }
        }
        let _ = std::io::stderr().write_all(line.as_bytes());
        std::process::exit(FAILURE);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_unique_and_dense_from_zero() {
        let mut prev: Option<i32> = None;
        for (code, name, desc) in REGISTRY {
            if let Some(p) = prev {
                assert!(
                    *code == p + 1,
                    "registry must be dense and sorted: {p} then {code}"
                );
            } else {
                assert_eq!(*code, 0, "registry starts at 0");
            }
            prev = Some(*code);
            assert!(!name.is_empty() && !desc.is_empty());
            assert!(
                name.chars().all(|c| c.is_ascii_uppercase() || c == '_'),
                "{name} must be SCREAMING_SNAKE_CASE"
            );
        }
    }

    #[test]
    fn lookups_resolve_registered_codes_only() {
        assert_eq!(name(OK), Some("OK"));
        assert_eq!(name(RESTARTS_EXHAUSTED), Some("RESTARTS_EXHAUSTED"));
        assert_eq!(name(JOB_GAVE_UP), Some("JOB_GAVE_UP"));
        assert!(describe(CHAOS_KILL).unwrap().contains("chaos"));
        assert_eq!(name(99), None);
        assert_eq!(describe(-1), None);
    }

    #[test]
    fn constants_match_the_historical_scattered_values() {
        // These values shipped in earlier PRs and are asserted by shell
        // smokes and launch tests; the registry must never renumber them.
        assert_eq!(USAGE, 2);
        assert_eq!(RESTARTS_EXHAUSTED, 3);
        assert_eq!(REPORT_UNHEALTHY, 4);
        assert_eq!(REPORT_GAVE_UP, 5);
        assert_eq!(REPORT_IMBALANCE, 6);
        assert_eq!(NET_DIVERGED, 7);
        assert_eq!(NET_PEER_LOST, 8);
        assert_eq!(CHAOS_KILL, 9);
    }
}
