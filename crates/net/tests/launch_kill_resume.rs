//! End-to-end `terasem-launch` acceptance: a 4-rank shear-layer run is
//! bitwise-identical to the single-process run; ranks killed mid-run
//! are recovered by one tier — the dead ranks are respawned into the
//! next epoch, survivor processes are preserved, and every rank rewinds
//! to the newest checkpoint generation all ranks hold — and the
//! recovered run is bitwise-identical too, whether one rank or two die,
//! before the first generation or in two separate losses, and in a job
//! directory holding an earlier job's checkpoints; an exhausted
//! `--max-restarts` budget exits with the structured code and leaves no
//! straggler processes, and so does a killed launcher;
//! over-decomposition is rejected with a clean error, never a hang.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_terasem-launch");

/// `rank -> pids` from the launcher's "terasem-launch: rank R pid P"
/// stdout lines, in spawn order.
fn pid_lines(stdout: &str) -> Vec<(usize, u32)> {
    stdout
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("terasem-launch: rank ")?;
            let (r, p) = rest.split_once(" pid ")?;
            Some((r.parse().ok()?, p.trim().parse().ok()?))
        })
        .collect()
}

/// How many times the launcher spawned rank `r`.
fn spawns(stdout: &str, r: usize) -> usize {
    pid_lines(stdout).iter().filter(|&&(pr, _)| pr == r).count()
}

/// Whether `pid` is still a `terasem-launch` process (a reused PID runs
/// another command line; an exited one has none).
fn is_launch_process(pid: u32) -> bool {
    let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
    String::from_utf8_lossy(&cmdline).contains("terasem-launch")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsn_l_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn launch(dir: &Path, extra: &[&str]) -> std::process::Output {
    let base = [
        "--steps",
        "10",
        "--elems",
        "3",
        "--order",
        "4",
        "--ckpt-every",
        "3",
        "--timeout",
        "120",
        "--dir",
    ];
    Command::new(EXE)
        .args(base)
        .arg(dir)
        .args(extra)
        .env("TERASEM_THREADS", "1")
        .output()
        .expect("spawn terasem-launch")
}

fn final_ckpt(dir: &Path, rank: usize) -> Vec<u8> {
    let path = dir.join(format!("rank_{rank}/ckpt_00000010.ckpt"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The final checkpoint of an uninterrupted single-process run.
fn reference(root: &Path) -> Vec<u8> {
    let ref_dir = root.join("ref");
    let out = launch(&ref_dir, &["--ranks", "1"]);
    assert!(
        out.status.success(),
        "single-rank run failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    final_ckpt(&ref_dir, 0)
}

/// A 4-rank run with the chaos spec `kill`: it must succeed, every rank's
/// final checkpoint must equal `want` byte for byte, every rank named in
/// `respawned` must be spawned exactly twice, and every other rank must
/// keep its PID. Returns `(stdout, stderr)`.
fn recovered_run(dir: &Path, kill: &str, respawned: &[usize], want: &[u8]) -> (String, String) {
    let out = launch(dir, &["--ranks", "4", "--kill", kill, "--max-restarts", "3"]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "--kill {kill} run failed:\n{stdout}\n{stderr}");
    assert!(stderr.contains("chaos kill"), "the kill must have fired:\n{stderr}");
    assert!(
        stdout.contains("byte-identical"),
        "cross-rank final-checkpoint check must run:\n{stdout}"
    );
    for r in 0..4 {
        let lives = if respawned.contains(&r) { 2 } else { 1 };
        assert_eq!(spawns(&stdout, r), lives, "rank {r} spawn count:\n{stdout}");
        assert_eq!(
            final_ckpt(dir, r),
            want,
            "rank {r} final checkpoint differs from the single-process run"
        );
    }
    (stdout, stderr)
}

#[test]
fn four_ranks_with_chaos_kill_match_single_process_bitwise() {
    let root = scratch("kr");
    let want = reference(&root);
    // 4 ranks, rank 2 chaos-killed after step 7 (between checkpoint
    // generations 6 and 9): the launcher must detect the death, respawn
    // rank 2 into epoch 1, and every rank must rewind to generation 6 —
    // the newest one all ranks hold — and finish.
    let (_, stderr) = recovered_run(&root.join("par"), "2@7", &[2], &want);
    assert!(
        stderr.contains("recovery 1/3: respawning rank(s) 2 into epoch 1"),
        "the launcher must have recovered the job:\n{stderr}"
    );
    for r in 0..4 {
        assert!(
            stderr.contains(&format!("rank {r}: epoch 1: resumed from generation 6")),
            "rank {r} must resume from the newest common generation:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A single chaos-killed rank in a 4-rank job: survivors keep running
/// (their PIDs never change), only the dead rank is respawned, and the
/// finished run is bitwise-identical to the uninterrupted
/// single-process reference.
#[test]
fn single_rank_rejoin_preserves_survivors_and_matches_reference() {
    let root = scratch("rj");
    let want = reference(&root);
    // Ranks 0, 1, 3 are spawned exactly once; rank 2 exactly twice
    // (first life + respawn).
    let (_, stderr) = recovered_run(&root.join("par"), "2@7", &[2], &want);
    assert!(
        stderr.contains("recovery 1/3: respawning rank(s) 2 into epoch 1"),
        "only rank 2 must be respawned:\n{stderr}"
    );
    assert!(!stderr.contains("recovery 2/"), "one recovery only:\n{stderr}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Losing *two* ranks at once is the same case as losing one: one
/// recovery respawns both into epoch 1, the other two keep their PIDs,
/// and every final checkpoint equals the single-process reference.
#[test]
fn multi_rank_loss_respawns_only_the_dead_ranks() {
    let root = scratch("mk");
    let want = reference(&root);
    let (_, stderr) = recovered_run(&root.join("par"), "2@7,3@7", &[2, 3], &want);
    assert!(
        stderr.contains("rank 2 exited") && stderr.contains("rank 3 exited"),
        "both kills must be seen:\n{stderr}"
    );
    assert!(
        stderr.contains("recovery 1/3: respawning rank(s) 2, 3 into epoch 1"),
        "one recovery must respawn both dead ranks:\n{stderr}"
    );
    assert!(!stderr.contains("recovery 2/"), "one recovery only:\n{stderr}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A loss before the first checkpoint generation: no generation is
/// common to all ranks, so every rank restarts from scratch.
#[test]
fn loss_before_the_first_generation_restarts_every_rank_from_scratch() {
    let root = scratch("scr");
    let want = reference(&root);
    let (_, stderr) = recovered_run(&root.join("par"), "1@2", &[1], &want);
    for r in 0..4 {
        assert!(
            stderr.contains(&format!("rank {r}: epoch 1: restarting from scratch")),
            "rank {r} must restart from scratch:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Two separate losses: rank 2 dies at step 4, and rank 0's first-life
/// kill at step 8 fires while it is a survivor replaying in epoch 1, so
/// the run takes two recoveries. Ranks 1 and 3 keep their PIDs through
/// both.
#[test]
fn a_survivor_lost_while_replaying_takes_a_second_recovery() {
    let root = scratch("two");
    let want = reference(&root);
    let (_, stderr) = recovered_run(&root.join("par"), "2@4,0@8", &[2, 0], &want);
    assert!(
        stderr.contains("recovery 1/3: respawning rank(s) 2 into epoch 1")
            && stderr.contains("recovery 2/3: respawning rank(s) 0 into epoch 2"),
        "two recoveries, one per loss:\n{stderr}"
    );
    for r in 0..4 {
        assert!(
            stderr.contains(&format!("rank {r}: epoch 1: resumed from generation 3"))
                && stderr.contains(&format!("rank {r}: epoch 2: resumed from generation 6")),
            "rank {r} must rewind to generation 3, then to 6:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A job launched into a `--dir` that holds a longer earlier job's
/// checkpoints (generations 3 to 13) must never resume one of them: the
/// recovery rewinds every rank to this job's generation 6.
#[test]
fn a_recovery_never_resumes_an_earlier_jobs_checkpoints() {
    let root = scratch("old");
    let want = reference(&root);
    let dir = root.join("par");
    let earlier = launch(&dir, &["--ranks", "4", "--steps", "13"]);
    assert!(
        earlier.status.success(),
        "earlier job failed:\n{}",
        String::from_utf8_lossy(&earlier.stderr)
    );
    let (_, stderr) = recovered_run(&dir, "2@7", &[2], &want);
    for r in 0..4 {
        assert!(
            stderr.contains(&format!("rank {r}: epoch 1: resumed from generation 6")),
            "rank {r} must resume from this job's generation 6:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Satellite: an exhausted `--max-restarts` budget is a structured
/// failure — exit code 3, a message naming the budget, and no rank
/// process left running.
#[test]
fn exhausted_restart_budget_is_structured_and_leaves_no_stragglers() {
    let root = scratch("ex");
    let out = launch(
        &root,
        &["--ranks", "4", "--kill", "1@3", "--max-restarts", "0"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(3),
        "want the structured exhaustion exit:\n{stdout}\n{stderr}"
    );
    assert!(
        stderr.contains("--max-restarts 0"),
        "the message must name the budget:\n{stderr}"
    );
    // No stragglers: every PID the launcher printed is gone (or reused
    // by an unrelated process — check the command line to be sure).
    for (r, pid) in pid_lines(&stdout) {
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        assert!(
            !String::from_utf8_lossy(&cmdline).contains("terasem-launch"),
            "rank {r} (pid {pid}) is still running after budget exhaustion"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A launcher killed by SIGKILL leaves no rank running. Each
/// rank's stdin is a pipe only the launcher writes to, so its death is
/// EOF there. The deadline only guards against a hang.
#[test]
fn sigkilled_launcher_leaves_no_rank_behind() {
    let root = scratch("orphan");
    let mut launcher = Command::new(EXE)
        .args(["--ranks", "2", "--steps", "100000", "--elems", "3", "--order", "4"])
        .args(["--ckpt-every", "50", "--timeout", "10", "--dir"])
        .arg(&root)
        .env("TERASEM_THREADS", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn terasem-launch");
    let mut lines = BufReader::new(launcher.stdout.take().unwrap()).lines();
    let mut pids = Vec::new();
    while pids.len() < 2 {
        let line = lines.next().expect("launcher exited before spawning both ranks");
        pids.extend(pid_lines(&line.unwrap()));
    }
    // The ranks share the launcher's stdout: keep draining it.
    std::thread::spawn(move || lines.for_each(drop));
    let deadline = Instant::now() + Duration::from_secs(60);
    // Mid-run: the ranks have validated and checkpointed step 50.
    let first = root.join("rank_0/ckpt_00000050.ckpt");
    while !first.exists() {
        assert!(Instant::now() < deadline, "no checkpoint at step 50 (hang)");
        std::thread::sleep(Duration::from_millis(20));
    }
    launcher.kill().expect("SIGKILL the launcher");
    launcher.wait().unwrap();
    while pids.iter().any(|&(_, pid)| is_launch_process(pid)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let left: Vec<(usize, u32)> = pids
        .into_iter()
        .filter(|&(_, pid)| is_launch_process(pid))
        .collect();
    for (_, pid) in &left {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
    assert!(left.is_empty(), "ranks outlived the SIGKILLed launcher: {left:?}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Satellite: more ranks than elements — the launcher must reject the
/// partition with the structured empty-rank error before spawning
/// anything, exit code 2, no hang.
#[test]
fn more_ranks_than_elements_is_a_clean_configuration_error() {
    let root = scratch("empty");
    let out = Command::new(EXE)
        .args(["--ranks", "5", "--elems", "2", "--steps", "4", "--order", "3", "--dir"])
        .arg(&root)
        .output()
        .expect("spawn terasem-launch");
    assert_eq!(out.status.code(), Some(2), "want usage exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("empty"), "{stderr}");
    assert!(stderr.contains("at most 4 ranks"), "{stderr}");
    // Nothing was spawned: no rank directories appeared.
    assert!(
        !root.join("rank_0").exists(),
        "launcher must fail before spawning ranks"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bench_comm_reports_fitted_alpha_beta_against_the_model() {
    let root = scratch("bench");
    let out = Command::new(EXE)
        .args(["--ranks", "2", "--elems", "3", "--order", "4", "--bench-comm", "--dir"])
        .arg(&root)
        .output()
        .expect("spawn terasem-launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("ping-pong fit: alpha ="), "{stdout}");
    assert!(stdout.contains("ASCI-Red-333 preset"), "{stdout}");
    assert!(stdout.contains("neighbor exchange"), "{stdout}");
    assert!(stdout.contains("measured mean"), "{stdout}");
    assert!(stdout.contains("model [measured (local)]"), "{stdout}");
    assert!(stdout.contains("allreduce"), "{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}
