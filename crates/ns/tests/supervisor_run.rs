//! sem-run end-to-end: the crash-only contract of the run supervisor.
//!
//! - A supervised run with the default (all-off) policy is
//!   bitwise-identical to a plain `step()` loop.
//! - A run resumed from the newest checkpoint finishes bitwise-identical
//!   to the uninterrupted run, at any thread count, including when a
//!   fault storm straddles the kill point.
//! - A torn newest checkpoint (truncated at any offset, or scribbled
//!   over) is skipped and the previous valid file is used.
//! - Retention keeps exactly `keep_last` files over a long run.
//! - A step error ends the run at once, through a final checkpoint and
//!   a structured `RunError` carrying the error.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use sem_mesh::generators::box2d;
use sem_ns::{
    ConvectionScheme, FaultPlan, GiveUpReason, NsConfig, NsSolver, RecoveryPolicy, RunPolicy,
    RunSupervisor,
};
use sem_ops::SemOps;

fn lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terasem_sup_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fault-recovery Taylor–Green workload, with a run policy.
fn taylor_green(spec: &str, recovery: RecoveryPolicy, run: RunPolicy) -> NsSolver {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mesh = box2d(3, 3, [0.0, two_pi], [0.0, two_pi], true, true);
    let ops = SemOps::new(mesh, 6);
    let cfg = NsConfig {
        dt: 2e-3,
        nu: 0.01,
        convection: ConvectionScheme::Ext,
        pressure_lmax: 8,
        faults: if spec.is_empty() {
            None
        } else {
            Some(FaultPlan::parse(spec).expect("test fault spec must parse"))
        },
        recovery,
        run,
        ..Default::default()
    };
    let mut s = NsSolver::new(ops, cfg);
    s.set_velocity(|x, y, _| [x.sin() * y.cos(), -x.cos() * y.sin(), 0.0]);
    s
}

fn assert_fields_bitwise_equal(a: &NsSolver, b: &NsSolver, what: &str) {
    for (c, (x, y)) in a.vel.iter().zip(b.vel.iter()).enumerate() {
        for (i, (p, q)) in x.iter().zip(y.iter()).enumerate() {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{what}: velocity component {c} node {i} diverged"
            );
        }
    }
    for (i, (p, q)) in a.pressure.iter().zip(b.pressure.iter()).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "{what}: pressure node {i}");
    }
    assert_eq!(a.time.to_bits(), b.time.to_bits(), "{what}: time");
}

fn ckpt_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.file_name().to_str().map(String::from))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

#[test]
fn default_policy_supervised_run_matches_plain_loop_bitwise() {
    let _g = lock();
    let mut plain = taylor_green("", RecoveryPolicy::default(), RunPolicy::default());
    for _ in 0..5 {
        plain.step().unwrap();
    }
    let mut sup = RunSupervisor::new(taylor_green(
        "",
        RecoveryPolicy::default(),
        RunPolicy::default(),
    ));
    assert_eq!(sup.resume_from_latest().unwrap(), None, "no dir configured");
    let report = sup.run_to(5).expect("unfaulted run completes");
    assert_eq!(report.steps.len(), 5);
    assert_eq!(report.checkpoints_written, 0);
    assert!(report.final_checkpoint.is_none());
    assert_fields_bitwise_equal(&plain, sup.solver(), "supervised vs plain");
}

#[test]
fn resumed_run_is_bitwise_identical_to_uninterrupted_run() {
    let _g = lock();
    // A fault storm straddling the kill point: nan:u@3 lands before the
    // kill, coarse@6 after the resume — the plan is step-indexed, so the
    // resumed process re-arms it deterministically.
    let spec = "nan:u@3;coarse@6;seed=9";
    for threads in [1usize, 3] {
        let (resumed, uninterrupted) = sem_comm::par::with_threads(threads, || {
            let dir = scratch(&format!("resume_t{threads}"));
            // "Crashed" first process: runs to step 4, exits through a
            // checkpoint (the supervisor's always-exit-through-a-
            // checkpoint guarantee stands in for an arbitrary kill point
            // at the last committed checkpoint).
            let mut first = RunSupervisor::new(taylor_green(
                spec,
                RecoveryPolicy::enabled(),
                RunPolicy::checkpointing(&dir, 3, 3),
            ));
            first.run_to(4).expect("first leg completes");
            drop(first);
            // Restarted process: same construction, resume, finish.
            let mut second = RunSupervisor::new(taylor_green(
                spec,
                RecoveryPolicy::enabled(),
                RunPolicy::checkpointing(&dir, 3, 3),
            ));
            let at = second.resume_from_latest().expect("scan ok");
            assert_eq!(at, Some(4), "resumes from the exit checkpoint");
            let report = second.run_to(10).expect("second leg completes");
            assert_eq!(report.resumed_from, Some(4));
            assert_eq!(second.solver().step_index, 10);
            // Uninterrupted reference in its own directory.
            let dir2 = scratch(&format!("resume_ref_t{threads}"));
            let mut reference = RunSupervisor::new(taylor_green(
                spec,
                RecoveryPolicy::enabled(),
                RunPolicy::checkpointing(&dir2, 3, 3),
            ));
            reference.run_to(10).expect("reference run completes");
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&dir2);
            (second.into_solver(), reference.into_solver())
        });
        assert_fields_bitwise_equal(
            &resumed,
            &uninterrupted,
            &format!("{threads} thread(s), resumed vs uninterrupted"),
        );
    }
}

#[test]
fn torn_newest_checkpoint_falls_back_to_previous_valid_file() {
    let _g = lock();
    let dir = scratch("torn");
    let mut sup = RunSupervisor::new(taylor_green(
        "",
        RecoveryPolicy::default(),
        RunPolicy::checkpointing(&dir, 3, 3),
    ));
    sup.run_to(6).expect("run completes");
    let newest = dir.join("ckpt_00000006.ckpt");
    let prev = dir.join("ckpt_00000003.ckpt");
    assert!(newest.is_file() && prev.is_file());
    let intact = std::fs::read(&newest).unwrap();
    // Truncate the newest file at several offsets: mid-header, mid-
    // payload, and one byte short — every cut must fall back to step 3.
    for cut in [10usize, intact.len() / 3, intact.len() - 7] {
        std::fs::write(&newest, &intact[..cut]).unwrap();
        let mut s = RunSupervisor::new(taylor_green(
            "",
            RecoveryPolicy::default(),
            RunPolicy::checkpointing(&dir, 3, 3),
        ));
        assert_eq!(
            s.resume_from_latest().unwrap(),
            Some(3),
            "cut at {cut} bytes must fall back"
        );
    }
    // Scribbled magic: also skipped.
    let mut junk = intact.clone();
    junk[0] ^= 0xff;
    std::fs::write(&newest, &junk).unwrap();
    let mut s = RunSupervisor::new(taylor_green(
        "",
        RecoveryPolicy::default(),
        RunPolicy::checkpointing(&dir, 3, 3),
    ));
    assert_eq!(s.resume_from_latest().unwrap(), Some(3));
    // A stray staging file must never be picked up, even when "newer".
    std::fs::write(dir.join("ckpt_00000099.ckpt.tmp"), b"partial").unwrap();
    std::fs::write(&newest, &intact).unwrap();
    let mut s = RunSupervisor::new(taylor_green(
        "",
        RecoveryPolicy::default(),
        RunPolicy::checkpointing(&dir, 3, 3),
    ));
    assert_eq!(s.resume_from_latest().unwrap(), Some(6));
    // Every checkpoint torn: nothing to resume from, fresh start.
    for name in ["ckpt_00000003.ckpt", "ckpt_00000006.ckpt"] {
        std::fs::write(dir.join(name), b"TERASEM").unwrap();
    }
    let mut s = RunSupervisor::new(taylor_green(
        "",
        RecoveryPolicy::default(),
        RunPolicy::checkpointing(&dir, 3, 3),
    ));
    assert_eq!(s.resume_from_latest().unwrap(), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retention_keeps_exactly_k_checkpoints_over_a_long_run() {
    let _g = lock();
    let dir = scratch("retain");
    let mut sup = RunSupervisor::new(taylor_green(
        "",
        RecoveryPolicy::default(),
        RunPolicy::checkpointing(&dir, 1, 2),
    ));
    let report = sup.run_to(8).expect("run completes");
    // Every step checkpointed; the exit finds step 8 already written.
    assert_eq!(report.checkpoints_written, 8);
    assert_eq!(
        report.final_checkpoint,
        Some(dir.join("ckpt_00000008.ckpt")),
        "the final checkpoint is the periodic one of step 8"
    );
    assert_eq!(
        ckpt_files(&dir),
        vec!["ckpt_00000007.ckpt", "ckpt_00000008.ckpt"],
        "exactly keep_last files survive, the newest ones"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn give_up_exits_through_a_final_checkpoint_with_the_step_error() {
    let _g = lock();
    let dir = scratch("giveup");
    // Recovery disabled: every attempt of step 3 fails, and the first
    // step error ends the run.
    let run = RunPolicy::checkpointing(&dir, 100, 3);
    let mut sup = RunSupervisor::new(taylor_green("nan:u@3x99", RecoveryPolicy::default(), run));
    let err = sup
        .run_to(6)
        .expect_err("persistent fault must end the run");
    assert_eq!(err.reason, GiveUpReason::StepFailed);
    assert_eq!(err.error.as_ref().expect("the step error").step, 3);
    assert_eq!(err.report.steps.len(), 2, "steps 1 and 2 committed");
    // The solver sits at the rolled-back pre-step state, healthy.
    assert_eq!(sup.solver().step_index, 2);
    assert!(sup.solver().vel[0].iter().all(|v| v.is_finite()));
    // And the run exited through a checkpoint of that state.
    let final_ck = err.report.final_checkpoint.as_ref().expect("final checkpoint");
    let ck = sem_ns::checkpoint::Checkpoint::load(final_ck).expect("final checkpoint loads");
    assert_eq!(ck.step_index, 2);
    let msg = format!("{err}");
    assert!(msg.contains("gave up"), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A step that fails right after its predecessor's periodic checkpoint
/// rolls back to exactly that state: the run exits through that file
/// instead of writing it again.
#[test]
fn give_up_after_a_periodic_checkpoint_exits_through_that_file() {
    let _g = lock();
    let dir = scratch("giveup_periodic");
    let run = RunPolicy::checkpointing(&dir, 2, 3);
    let mut sup = RunSupervisor::new(taylor_green("nan:u@3x99", RecoveryPolicy::default(), run));
    let err = sup
        .run_to(6)
        .expect_err("persistent fault must end the run");
    assert_eq!(err.error.as_ref().expect("the step error").step, 3);
    assert_eq!(
        err.report.checkpoints_written, 1,
        "only step 2's periodic write"
    );
    let final_ck = err
        .report
        .final_checkpoint
        .as_ref()
        .expect("final checkpoint");
    assert_eq!(final_ck, &dir.join("ckpt_00000002.ckpt"));
    let ck = sem_ns::checkpoint::Checkpoint::load(final_ck).expect("final checkpoint loads");
    let bytes = |ck: &sem_ns::checkpoint::Checkpoint| {
        let mut b = Vec::new();
        ck.write_to(&mut b).unwrap();
        b
    };
    assert!(
        bytes(&ck) == bytes(&sup.solver().checkpoint()),
        "the file holds the rolled-back state"
    );
    assert_eq!(ckpt_files(&dir), vec!["ckpt_00000002.ckpt"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_record_is_emitted_to_the_metrics_sink() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let mem = Arc::new(sem_obs::sink::MemorySink::new());
    let dir = scratch("runrec");
    let mut solver = taylor_green(
        "",
        RecoveryPolicy::default(),
        RunPolicy::checkpointing(&dir, 2, 3),
    );
    solver.cfg.metrics = true;
    sem_obs::sink::set_sink(Some(mem.clone()));
    let mut sup = RunSupervisor::new(solver);
    sup.run_to(4).expect("run completes");
    sem_obs::sink::set_sink(None);
    let runs: Vec<String> = mem
        .lines()
        .into_iter()
        .filter(|l| l.contains("\"type\":\"terasem.run\""))
        .collect();
    assert_eq!(runs.len(), 1, "exactly one run record per run_to");
    let rec = sem_obs::json::Json::parse(&runs[0]).expect("run record is valid JSON");
    assert_eq!(rec.get("outcome").and_then(|v| v.as_str()), Some("completed"));
    assert_eq!(rec.get("steps").and_then(|v| v.as_u64()), Some(4));
    assert_eq!(rec.get("resumed").and_then(|v| v.as_bool()), Some(false));
    assert!(rec.get("checkpoints_written").and_then(|v| v.as_u64()).unwrap() >= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `resume_from_step` restores exactly the requested generation, not the
/// newest one — the sem-net recovery path, where all ranks must
/// rendezvous on the newest generation *every rank holds*.
#[test]
fn resume_from_step_restores_the_requested_generation() {
    let _g = lock();
    let dir = scratch("resume_step");
    let mut first = RunSupervisor::new(taylor_green(
        "",
        RecoveryPolicy::default(),
        RunPolicy::checkpointing(&dir, 2, 10),
    ));
    first.run_to(6).expect("first leg completes");
    // Generations 2, 4, 6 exist; resume from 4 even though 6 is newer.
    let mut second = RunSupervisor::new(taylor_green(
        "",
        RecoveryPolicy::default(),
        RunPolicy::checkpointing(&dir, 2, 10),
    ));
    assert_eq!(second.resume_from_step(4).expect("generation 4 loads"), 4);
    assert_eq!(second.solver().step_index, 4);
    second.run_to(6).expect("second leg completes");
    assert_fields_bitwise_equal(
        first.solver(),
        second.solver(),
        "rewind to generation 4 and replay",
    );
    // A missing generation is a structured error, never a panic.
    let mut third = RunSupervisor::new(taylor_green(
        "",
        RecoveryPolicy::default(),
        RunPolicy::checkpointing(&dir, 2, 10),
    ));
    assert!(third.resume_from_step(5).is_err(), "no generation 5 exists");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-step observer sees every committed step in order, and an
/// observer abort stops the run *without* writing an exit checkpoint —
/// an externally-detected inconsistency must not become resumable.
#[test]
fn run_to_with_observer_abort_leaves_no_exit_checkpoint() {
    let _g = lock();
    let dir = scratch("observer");
    let mut sup = RunSupervisor::new(taylor_green(
        "",
        RecoveryPolicy::default(),
        RunPolicy::checkpointing(&dir, 2, 10),
    ));
    let mut seen = Vec::new();
    let err = sup
        .run_to_with(10, |solver, stats| {
            seen.push(solver.step_index);
            assert!(stats.cfl.is_finite());
            if solver.step_index == 3 {
                Err("simulated cross-rank divergence".into())
            } else {
                Ok(())
            }
        })
        .expect_err("observer abort at step 3");
    assert_eq!(seen, vec![1, 2, 3]);
    match &err.reason {
        GiveUpReason::Aborted(why) => assert!(why.contains("divergence"), "{why}"),
        other => panic!("wrong reason: {other:?}"),
    }
    assert_eq!(err.report.steps.len(), 3, "all committed steps reported");
    // Generation 2 was checkpointed before the abort; step 3 must not be.
    assert_eq!(ckpt_files(&dir), vec!["ckpt_00000002.ckpt".to_string()]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `valid_generations` lists the steps of one directory's checkpoints
/// that load, ascending: a torn file counts as absent and a missing
/// directory reads as empty. (`sem-net` allgathers these lists and
/// resumes every rank at the newest step all of them hold.)
#[test]
fn valid_generations_skip_torn_files_and_missing_directories() {
    let _g = lock();
    use sem_ns::valid_generations;
    let dir = scratch("generations");
    let mut sup = RunSupervisor::new(taylor_green(
        "",
        RecoveryPolicy::default(),
        RunPolicy::checkpointing(&dir, 2, 10),
    ));
    sup.run_to(6).expect("leg completes");
    // Generations 2, 4, 6 (the final checkpoint rewrites 6).
    assert_eq!(valid_generations(&dir), vec![2, 4, 6]);
    // Tear generation 4: it drops out of the list.
    let torn = dir.join("ckpt_00000004.ckpt");
    let bytes = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(valid_generations(&dir), vec![2, 6]);
    // A directory that was never created holds nothing.
    assert!(valid_generations(&dir.join("missing")).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
