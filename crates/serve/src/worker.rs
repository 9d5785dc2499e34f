//! The worker subprocess: one job, one supervised solve, one process.
//!
//! The daemon re-execs its own binary with `TERASEM_SERVE_WORKER=1`
//! plus the job parameters in the environment (the same
//! parent-is-child pattern `terasem-launch` uses for rank processes).
//! Process isolation is what makes the service crash-only for free: a
//! worker can panic, be chaos-killed mid-checkpoint, or be OOM-killed,
//! and the damage is bounded to its job directory — which the next
//! attempt resumes from, skipping torn files.
//!
//! Exit codes are the job's structured verdict (see `sem_obs::exit`):
//! `OK` ran to target, `JOB_DRAINED` preempted-through-a-checkpoint,
//! `JOB_BUDGET` wall-budget-exhausted-through-a-checkpoint,
//! `JOB_GAVE_UP` the solve itself gave up, `CHAOS_KILL` the scripted
//! first-attempt crash. Anything else is an unstructured death the
//! daemon counts against the retry budget.

use crate::job::JobSpec;
use crate::signal;
use sem_bench::workloads::{chaos_kill, shear_dye_job};
use sem_ns::supervisor::checkpoint_path;
use sem_ns::{NsSolver, RunSupervisor};
use sem_obs::exit;
use sem_obs::sink::{FileSink, SinkHandle};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Marker env var: set (to anything) in worker children.
pub const ENV_WORKER: &str = "TERASEM_SERVE_WORKER";
/// The job directory (checkpoints + metrics live under it).
pub const ENV_DIR: &str = "TERASEM_SERVE_DIR";
/// The canonical spec line.
pub const ENV_SPEC: &str = "TERASEM_SERVE_SPEC";
/// The daemon-assigned job id (stamped on every record as the rank).
pub const ENV_JOB: &str = "TERASEM_SERVE_JOB";
/// Zero-based attempt number (the chaos `kill_at` only fires on 0).
pub const ENV_ATTEMPT: &str = "TERASEM_SERVE_ATTEMPT";
/// Per-job wall-clock budget in seconds (fractional ok).
pub const ENV_WALL_SECS: &str = "TERASEM_SERVE_WALL_SECS";

/// Checkpoint subdirectory of a job directory.
pub fn ckpt_dir(job_dir: &Path) -> PathBuf {
    job_dir.join("ckpt")
}

/// The job's step-record log (append across attempts).
pub fn metrics_path(job_dir: &Path) -> PathBuf {
    job_dir.join("metrics.jsonl")
}

/// Path of the result artifact: the final checkpoint at `steps`.
pub fn result_path(job_dir: &Path, steps: u64) -> PathBuf {
    checkpoint_path(&ckpt_dir(job_dir), steps)
}

/// Build the job's solver: the shared shear-layer-plus-dye job
/// (`sem_bench::workloads::shear_dye_job`) at the spec's size, with
/// compressed checkpoints and per-job metrics routed to the job
/// directory. Shared with the e2e tests, which run the identical
/// configuration in-process to produce the uncontended byte-compare
/// reference.
pub fn build_solver(spec: &JobSpec, job_dir: &Path, job_id: u64, metrics: bool) -> NsSolver {
    let fault = spec.fault.as_deref();
    let mut s = shear_dye_job(spec.elems, spec.order, fault, &ckpt_dir(job_dir), spec.every)
        .unwrap_or_else(|e| {
            // Validated at admission; a parse failure here means the
            // spec file was hand-edited — treat as usage error, not a
            // crash.
            eprintln!("sem-serve worker: bad fault spec {fault:?}: {e}");
            std::process::exit(exit::USAGE);
        });
    s.cfg.run.compress = true;
    if metrics {
        s.cfg.metrics = true;
        s.cfg.rank = Some(job_id as u32);
        let path = metrics_path(job_dir);
        match FileSink::append(path.to_str().unwrap_or_default()) {
            Ok(sink) => s.cfg.sink = Some(SinkHandle::new(sink)),
            Err(e) => eprintln!("sem-serve worker: cannot open {}: {e}", path.display()),
        }
    }
    s
}

fn env(var: &str) -> Option<String> {
    std::env::var(var).ok()
}

/// Is this process a worker child? (Mirrors `rank_env()` in sem-net.)
pub fn worker_env() -> bool {
    env(ENV_WORKER).is_some()
}

/// Worker entry point; never returns. All failure paths are structured
/// exits — a worker must never leave the daemon guessing.
pub fn worker_main() -> ! {
    let die = |msg: String| -> ! {
        eprintln!("sem-serve worker: {msg}");
        std::process::exit(exit::USAGE);
    };
    let job_dir = PathBuf::from(env(ENV_DIR).unwrap_or_else(|| die(format!("{ENV_DIR} unset"))));
    let spec_line = env(ENV_SPEC).unwrap_or_else(|| die(format!("{ENV_SPEC} unset")));
    let tokens: Vec<&str> = spec_line.split_whitespace().collect();
    let spec = JobSpec::parse(&tokens).unwrap_or_else(|e| die(format!("bad spec: {e}")));
    let job_id: u64 = env(ENV_JOB)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(format!("{ENV_JOB} unset or not a number")));
    let attempt: u32 = env(ENV_ATTEMPT).and_then(|v| v.parse().ok()).unwrap_or(0);
    let wall_secs: f64 = env(ENV_WALL_SECS)
        .and_then(|v| v.parse().ok())
        .unwrap_or(600.0);

    signal::install_term_handler();
    // Crash-only: a checkpoint write cut short by the daemon's death is
    // a `.tmp` file the next attempt skips.
    exit::exit_when_parent_dies("sem-serve worker");
    // Counters/spans are process-global and gated on this flag; the
    // solver's per-record sink/rank routing handles attribution.
    sem_obs::set_enabled(true);
    let started = Instant::now();

    let mut sup = RunSupervisor::new(build_solver(&spec, &job_dir, job_id, true));
    match sup.resume_from_latest() {
        Ok(Some(at)) => eprintln!("sem-serve worker: job {job_id} attempt {attempt} resumed from step {at}"),
        Ok(None) => {}
        Err(e) => die(format!("checkpoint scan failed: {e}")),
    }

    // Scripted chaos: die hard after kill_at commits, first attempt
    // only, leaving the soak harness's crash signature for the retry.
    if let (Some(k), 0) = (spec.kill_at, attempt) {
        if (sup.solver().step_index as u64) < k {
            if let Err(e) = sup.run_to(k) {
                eprintln!("sem-serve worker: job {job_id} gave up before its kill point: {e}");
                std::process::exit(exit::JOB_GAVE_UP);
            }
            let line = format!("sem-serve worker: job {job_id} chaos-killed at step {k}");
            chaos_kill(&ckpt_dir(&job_dir), k, &line);
        }
    }

    let verdict = sup.run_to_with(spec.steps, |_, _| {
        if signal::term_requested() {
            return Err("drain requested".to_string());
        }
        if started.elapsed().as_secs_f64() > wall_secs {
            return Err("wall budget exhausted".to_string());
        }
        Ok(())
    });

    match verdict {
        Ok(report) => {
            eprintln!(
                "sem-serve worker: job {job_id} completed at step {} ({} checkpoint(s))",
                spec.steps, report.checkpoints_written
            );
            std::process::exit(exit::OK);
        }
        Err(err) => {
            if let sem_ns::GiveUpReason::Aborted(why) = &err.reason {
                let budget = why.contains("wall budget");
                // The observer fires after a step *commits*, so the
                // solver sits at a valid committed state — safe to
                // persist, unlike the divergence aborts the skip-exit-
                // checkpoint rule in run_to_with exists for.
                match sup.write_checkpoint_now() {
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("sem-serve worker: preemption checkpoint failed: {e}");
                        std::process::exit(exit::FAILURE);
                    }
                }
                eprintln!(
                    "sem-serve worker: job {job_id} preempted at step {} ({})",
                    sup.solver().step_index,
                    if budget { "wall budget" } else { "drain" }
                );
                std::process::exit(if budget { exit::JOB_BUDGET } else { exit::JOB_DRAINED });
            }
            eprintln!("sem-serve worker: job {job_id} gave up: {err}");
            std::process::exit(exit::JOB_GAVE_UP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_dir_layout_paths() {
        let d = Path::new("/tmp/j");
        assert_eq!(ckpt_dir(d), Path::new("/tmp/j/ckpt"));
        assert_eq!(metrics_path(d), Path::new("/tmp/j/metrics.jsonl"));
        assert_eq!(
            result_path(d, 12),
            Path::new("/tmp/j/ckpt/ckpt_00000012.ckpt")
        );
    }

    #[test]
    fn built_solver_matches_spec_and_compresses_checkpoints() {
        let spec = JobSpec {
            steps: 6,
            elems: 3,
            order: 4,
            every: 2,
            fault: Some("nan:u@3;seed=5".to_string()),
            kill_at: None,
            name: "t".to_string(),
        };
        let dir = std::env::temp_dir().join(format!("terasem_worker_build_{}", std::process::id()));
        let s = build_solver(&spec, &dir, 7, false);
        assert!(s.cfg.run.compress, "service checkpoints are compressed");
        assert_eq!(s.cfg.run.checkpoint_every_steps, Some(2));
        assert_eq!(s.cfg.run.checkpoint_dir.as_deref(), Some(ckpt_dir(&dir).as_path()));
        assert!(s.cfg.faults.is_some());
        assert!(!s.cfg.metrics);
    }
}
