//! Crash-only run supervision (`sem-run`).
//!
//! A [`RunSupervisor`] owns an [`NsSolver`] and drives it to a target
//! step with *crash-only* semantics: the run may be killed at any
//! instant — mid-step, mid-checkpoint — and restarting the same binary
//! resumes from the newest valid checkpoint and produces final fields
//! bitwise-identical to the uninterrupted run, at any `TERASEM_THREADS`
//! setting.
//!
//! The machinery, driven by [`RunPolicy`] (carried in `NsConfig::run`,
//! checkpointing off by default):
//!
//! - **Auto-checkpointing** on a step interval, written atomically
//!   (`<name>.tmp` + `rename`) so a kill can never leave a torn file
//!   under a valid checkpoint name, with `keep_last` retention pruning
//!   the oldest files.
//! - **[`RunSupervisor::resume_from_latest`]**: scan the checkpoint
//!   directory newest-first, skip torn/corrupt candidates (the
//!   structural validation of [`crate::checkpoint`] rejects them), and
//!   restore the first one that both parses and matches the solver's
//!   discretization.
//! - **Give-up at the first [`StepError`]**: the failed step has
//!   already walked the whole recovery ladder from its rolled-back
//!   state, so a retry would fail the same way. The run exits through a
//!   final checkpoint of the last committed step and a structured
//!   [`RunError`] carrying the error — never a panic, never a
//!   half-written state.
//!
//! Checkpoints fall on step boundaries only, never on wall-clock time,
//! so every rank of a `sem-net` job writes the same generations and a
//! resumed run is bitwise reproducible.

use crate::checkpoint::Checkpoint;
use crate::diagnostics::StepStats;
use crate::recovery::StepError;
use crate::solver::NsSolver;
use sem_obs::counters::{self, Counter};
use sem_obs::json::JsonObj;
use std::io;
use std::path::{Path, PathBuf};

/// The `"type"` tag of the end-of-run summary record emitted to the
/// metrics sink (when `NsConfig::metrics` is on).
pub const RUN_RECORD_TYPE: &str = "terasem.run";

/// Run-supervision policy (carried as `NsConfig::run`). The default
/// disables checkpointing: a supervised run with the default policy is
/// bitwise-identical to calling `NsSolver::step` in a loop.
#[derive(Clone, Debug)]
pub struct RunPolicy {
    /// Directory for auto-checkpoints. `None` disables checkpointing
    /// (including the final exit checkpoint). Created on first write.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every `n` committed steps.
    pub checkpoint_every_steps: Option<u64>,
    /// How many checkpoint files to retain; older ones are pruned after
    /// each successful write. Clamped to at least 1.
    pub keep_last: usize,
    /// Write checkpoints in the RLE-compressed container format
    /// ([`crate::checkpoint::Z_MAGIC`]). Resume paths sniff the magic,
    /// so raw and compressed files interoperate freely; off by default
    /// to keep existing byte-compare harnesses exact.
    pub compress: bool,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            checkpoint_dir: None,
            checkpoint_every_steps: None,
            keep_last: 3,
            compress: false,
        }
    }
}

impl RunPolicy {
    /// Step-interval checkpointing into `dir` — the deterministic
    /// configuration the soak harness uses.
    pub fn checkpointing(dir: impl Into<PathBuf>, every_steps: u64, keep_last: usize) -> Self {
        RunPolicy {
            checkpoint_dir: Some(dir.into()),
            checkpoint_every_steps: Some(every_steps.max(1)),
            keep_last,
            ..RunPolicy::default()
        }
    }

    /// Layer the operator environment over this policy:
    /// `TERASEM_CHECKPOINT_DIR` enables checkpointing into that
    /// directory (every 5 steps when no interval is configured).
    pub fn from_env(mut self) -> Self {
        if let Ok(dir) = std::env::var("TERASEM_CHECKPOINT_DIR") {
            if !dir.trim().is_empty() {
                self.checkpoint_dir = Some(PathBuf::from(dir));
                if self.checkpoint_every_steps.is_none() {
                    self.checkpoint_every_steps = Some(5);
                }
            }
        }
        self
    }
}

/// Why a supervised run gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GiveUpReason {
    /// A step failed after the recovery ladder (or, with recovery off,
    /// on its first attempt); [`RunError::error`] holds its
    /// [`StepError`].
    StepFailed,
    /// The caller's per-step observer ([`RunSupervisor::run_to_with`])
    /// aborted the run — e.g. `sem-net` detected cross-rank divergence.
    /// Unlike a step failure, the run does *not* exit through a
    /// checkpoint: an externally-detected inconsistency must never be
    /// persisted as a resumable generation.
    Aborted(String),
}

impl std::fmt::Display for GiveUpReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GiveUpReason::StepFailed => write!(f, "step failed"),
            GiveUpReason::Aborted(why) => write!(f, "aborted by the step observer: {why}"),
        }
    }
}

/// Summary of a completed (or given-up) supervised run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Per-step statistics of every committed step, in order.
    pub steps: Vec<StepStats>,
    /// Step the run was resumed from, when `resume_from_latest` found a
    /// valid checkpoint.
    pub resumed_from: Option<u64>,
    /// Checkpoints committed to disk (atomic renames that completed).
    pub checkpoints_written: usize,
    /// The final checkpoint written on exit, if checkpointing is on.
    pub final_checkpoint: Option<PathBuf>,
}

/// A supervised run that gave up. The solver was left in a valid
/// rolled-back state and, after a step failure (when checkpointing is
/// on), a final checkpoint was written before returning.
#[derive(Debug)]
pub struct RunError {
    /// Why the run stopped.
    pub reason: GiveUpReason,
    /// The step error that ended the run (`None` for an observer abort).
    pub error: Option<StepError>,
    /// Everything the run did before giving up.
    pub report: RunReport,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let steps = self.report.steps.len();
        write!(f, "run gave up after {steps} committed step(s): ")?;
        match &self.error {
            Some(e) => write!(f, "{e}"),
            None => write!(f, "{}", self.reason),
        }
    }
}

impl std::error::Error for RunError {}

/// Extract the step index from a checkpoint file name of the form
/// `ckpt_NNNNNNNN.ckpt`. Anything else — including the `.tmp` staging
/// names of in-flight writes — is not a checkpoint candidate.
fn checkpoint_step_of(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt_")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

/// The checkpoint of `step` in `dir`: `ckpt_NNNNNNNN.ckpt`.
pub fn checkpoint_path(dir: &Path, step: u64) -> PathBuf {
    dir.join(format!("ckpt_{step:08}.ckpt"))
}

/// List `(step, path)` of every well-named checkpoint in `dir`, sorted
/// ascending by step. Missing directory reads as empty.
fn list_checkpoints(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if let Some(step) = name.to_str().and_then(checkpoint_step_of) {
            out.push((step, entry.path()));
        }
    }
    out.sort_by_key(|(s, _)| *s);
    out
}

/// The steps of every checkpoint in `dir` that loads and validates
/// structurally, ascending. Torn or corrupt files count as absent,
/// exactly as in [`RunSupervisor::resume_from_latest`]; a missing
/// directory reads as empty. `sem-net`'s rank recovery allgathers these
/// lists and resumes every rank at the newest step they all hold.
pub fn valid_generations(dir: &Path) -> Vec<u64> {
    list_checkpoints(dir)
        .into_iter()
        .filter(|(_, path)| Checkpoint::load(path).is_ok())
        .map(|(step, _)| step)
        .collect()
}

/// Drives an [`NsSolver`] with crash-only semantics. See the module
/// docs for the full contract.
pub struct RunSupervisor {
    solver: NsSolver,
    policy: RunPolicy,
    resumed_from: Option<u64>,
    last_ckpt_step: u64,
}

impl RunSupervisor {
    /// Wrap `solver`; the policy is taken from `solver.cfg.run`.
    pub fn new(solver: NsSolver) -> Self {
        let policy = solver.cfg.run.clone();
        let start_step = solver.step_index as u64;
        RunSupervisor {
            solver,
            policy,
            resumed_from: None,
            last_ckpt_step: start_step,
        }
    }

    /// The supervised solver.
    pub fn solver(&self) -> &NsSolver {
        &self.solver
    }

    /// Mutable access (for initial conditions, BCs, scalars — set these
    /// *before* `resume_from_latest`, exactly as for a fresh run).
    pub fn solver_mut(&mut self) -> &mut NsSolver {
        &mut self.solver
    }

    /// Unwrap the solver.
    pub fn into_solver(self) -> NsSolver {
        self.solver
    }

    /// Scan the policy's checkpoint directory for the newest *valid*
    /// checkpoint and restore it. Torn or corrupt files (bad magic,
    /// truncated payload, wrong discretization) are skipped with a
    /// warning — an interrupted retention prune or a partial write must
    /// never block a restart. Returns the restored step index, or
    /// `Ok(None)` when there is nothing to resume from (no directory,
    /// no candidates, or no valid candidate).
    pub fn resume_from_latest(&mut self) -> io::Result<Option<u64>> {
        let Some(dir) = self.policy.checkpoint_dir.clone() else {
            return Ok(None);
        };
        let mut candidates = list_checkpoints(&dir);
        candidates.reverse(); // newest first
        for (step, path) in candidates {
            let ck = match Checkpoint::load(&path) {
                Ok(ck) => ck,
                Err(e) => {
                    eprintln!(
                        "terasem: skipping torn/invalid checkpoint {}: {e}",
                        path.display()
                    );
                    continue;
                }
            };
            if let Err(e) = self.solver.restore_checkpoint(&ck) {
                eprintln!(
                    "terasem: skipping incompatible checkpoint {}: {e}",
                    path.display()
                );
                continue;
            }
            counters::add(Counter::Resumes, 1);
            sem_obs::trace::note("run_resumed", step as f64);
            self.resumed_from = Some(step);
            self.last_ckpt_step = step;
            return Ok(Some(step));
        }
        Ok(None)
    }

    /// Restore the checkpoint of a *specific* generation from the
    /// policy's checkpoint directory — `sem-net`'s recovery path, where
    /// the ranks have agreed on the newest generation all of them hold
    /// (from their [`valid_generations`]) and every rank must resume
    /// from exactly that step, not from whatever newer file its own
    /// directory happens to hold. Errors if checkpointing is off, the
    /// file is missing/torn, or it does not match the solver's
    /// discretization.
    pub fn resume_from_step(&mut self, step: u64) -> io::Result<u64> {
        let Some(dir) = self.policy.checkpoint_dir.clone() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "resume_from_step needs a checkpoint directory",
            ));
        };
        let path = checkpoint_path(&dir, step);
        let ck = Checkpoint::load(&path)?;
        self.solver
            .restore_checkpoint(&ck)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        counters::add(Counter::Resumes, 1);
        sem_obs::trace::note("run_resumed", step as f64);
        self.resumed_from = Some(step);
        self.last_ckpt_step = step;
        Ok(step)
    }

    /// Atomically write a checkpoint of the current solver state and
    /// prune retention. Public so callers can force a checkpoint at
    /// phase boundaries.
    pub fn write_checkpoint_now(&mut self) -> io::Result<Option<PathBuf>> {
        let Some(dir) = self.policy.checkpoint_dir.clone() else {
            return Ok(None);
        };
        std::fs::create_dir_all(&dir)?;
        let step = self.solver.step_index as u64;
        let path = checkpoint_path(&dir, step);
        let tmp = path.with_extension("ckpt.tmp");
        self.solver
            .checkpoint()
            .save_with(&tmp, self.policy.compress)?;
        std::fs::rename(&tmp, &path)?;
        counters::add(Counter::CheckpointsWritten, 1);
        sem_obs::trace::note("checkpoint_written", step as f64);
        self.last_ckpt_step = step;
        self.prune_retention(&dir);
        Ok(Some(path))
    }

    fn prune_retention(&self, dir: &Path) {
        let keep = self.policy.keep_last.max(1);
        let files = list_checkpoints(dir);
        if files.len() <= keep {
            return;
        }
        for (_, path) in &files[..files.len() - keep] {
            if let Err(e) = std::fs::remove_file(path) {
                eprintln!(
                    "terasem: could not prune old checkpoint {}: {e}",
                    path.display()
                );
            }
        }
    }

    fn checkpoint_due(&self) -> bool {
        let step = self.solver.step_index as u64;
        self.policy.checkpoint_dir.is_some()
            && self
                .policy
                .checkpoint_every_steps
                .is_some_and(|every| step.saturating_sub(self.last_ckpt_step) >= every.max(1))
    }

    fn emit_run_record(&self, report: &RunReport, outcome: &str, errors: usize) {
        if !self.solver.cfg.metrics {
            return;
        }
        let mut o = JsonObj::new();
        o.str("type", RUN_RECORD_TYPE)
            .u64("schema", sem_obs::record::SCHEMA_VERSION);
        match self.solver.cfg.rank.or_else(sem_obs::rank) {
            Some(r) => o.u64("rank", r as u64),
            None => o.raw("rank", "null"),
        };
        o.str("outcome", outcome)
            .u64("steps", self.solver.step_index as u64)
            .u64("steps_this_run", report.steps.len() as u64)
            .u64("step_errors", errors as u64)
            .u64("checkpoints_written", report.checkpoints_written as u64)
            .bool("resumed", report.resumed_from.is_some())
            .u64("resumed_from", report.resumed_from.unwrap_or(0));
        match &self.solver.cfg.sink {
            Some(h) => h.0.emit(&o.finish()),
            None => sem_obs::sink::emit(&o.finish()),
        }
    }

    /// Final-checkpoint-then-return helper shared by the success and
    /// give-up exits ("the run always exits through a checkpoint").
    fn exit_checkpoint(&mut self, report: &mut RunReport) {
        match self.write_checkpoint_now() {
            Ok(Some(path)) => {
                report.checkpoints_written += 1;
                report.final_checkpoint = Some(path);
            }
            Ok(None) => {}
            Err(e) => eprintln!("terasem: final checkpoint failed: {e}"),
        }
    }

    /// Drive the solver until `step_index == target_step` (run-until-
    /// target semantics, so a resumed run finishes at exactly the same
    /// step as an uninterrupted one). Already past the target is a
    /// no-op success.
    pub fn run_to(&mut self, target_step: u64) -> Result<RunReport, RunError> {
        self.run_to_with(target_step, |_, _| Ok(()))
    }

    /// [`Self::run_to`] with a per-step observer, called after every
    /// *committed* step and before that step's periodic checkpoint.
    /// `sem-net` hangs its distributed consistency machinery here: the
    /// cross-rank exchange validation and field-hash comparison run in
    /// the hook, so a generation is only ever checkpointed after it
    /// validated. An `Err` from the hook aborts the run with
    /// [`GiveUpReason::Aborted`] — deliberately *without* the final exit
    /// checkpoint, so an inconsistent state can never become a resumable
    /// generation.
    pub fn run_to_with(
        &mut self,
        target_step: u64,
        mut observe: impl FnMut(&NsSolver, &StepStats) -> Result<(), String>,
    ) -> Result<RunReport, RunError> {
        let mut report = RunReport {
            resumed_from: self.resumed_from,
            ..RunReport::default()
        };
        while (self.solver.step_index as u64) < target_step {
            let stats = match self.solver.step() {
                Ok(stats) => stats,
                Err(e) => {
                    // The solver is rolled back to its pre-step state,
                    // which the exit checkpoint persists.
                    self.exit_checkpoint(&mut report);
                    self.emit_run_record(&report, "failed", 1);
                    return Err(RunError {
                        reason: GiveUpReason::StepFailed,
                        error: Some(e),
                        report,
                    });
                }
            };
            if let Err(why) = observe(&self.solver, &stats) {
                report.steps.push(stats);
                self.emit_run_record(&report, "aborted", 0);
                // No exit checkpoint: see run_to_with docs.
                return Err(RunError {
                    reason: GiveUpReason::Aborted(why),
                    error: None,
                    report,
                });
            }
            report.steps.push(stats);
            if self.checkpoint_due() {
                match self.write_checkpoint_now() {
                    Ok(Some(_)) => report.checkpoints_written += 1,
                    Ok(None) => {}
                    Err(e) => eprintln!("terasem: periodic checkpoint failed: {e}"),
                }
            }
        }
        self.exit_checkpoint(&mut report);
        self.emit_run_record(&report, "completed", 0);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_disables_everything() {
        let p = RunPolicy::default();
        assert!(p.checkpoint_dir.is_none());
        assert!(p.checkpoint_every_steps.is_none());
        assert_eq!(p.keep_last, 3);
    }

    #[test]
    fn checkpoint_names_round_trip_and_reject_staging_files() {
        assert_eq!(checkpoint_step_of("ckpt_00000017.ckpt"), Some(17));
        assert_eq!(checkpoint_step_of("ckpt_00000017.ckpt.tmp"), None);
        assert_eq!(checkpoint_step_of("ckpt_.ckpt"), None);
        assert_eq!(checkpoint_step_of("other_00000017.ckpt"), None);
        let p = checkpoint_path(Path::new("/tmp/x"), 17);
        assert_eq!(
            checkpoint_step_of(p.file_name().unwrap().to_str().unwrap()),
            Some(17)
        );
    }

    #[test]
    fn listing_a_missing_directory_is_empty() {
        assert!(list_checkpoints(Path::new("/nonexistent/terasem-ckpt-dir")).is_empty());
    }

    #[test]
    fn give_up_reason_formats() {
        let s = format!("{}", GiveUpReason::Aborted("divergence".into()));
        assert!(s.contains("divergence"), "{s}");
    }
}
