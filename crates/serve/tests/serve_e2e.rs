//! End-to-end tests for the `sem-serve` service: real daemon processes,
//! real worker subprocesses, real TCP — the acceptance criteria of the
//! service PR, executable.
//!
//! Every test runs its own daemon on an ephemeral port with its own
//! scratch state directory, so the tests parallelize freely. All waits
//! are bounded: a hang is a failure, per the service's own contract.

use sem_ns::checkpoint::Checkpoint;
use sem_ns::RunSupervisor;
use sem_serve::client::{resolve_addr, Client, Submit};
use sem_serve::job::JobSpec;
use sem_serve::{fnv1a64, signal, worker};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("terasem_serve_e2e_{tag}_{}", std::process::id()))
}

/// A daemon under test. Dropping it kills the process (cleanup for
/// failing tests); passing tests drain it and assert on the exit code.
struct Daemon {
    child: Child,
    dir: PathBuf,
}

impl Daemon {
    fn start(tag: &str, extra: &[&str]) -> Daemon {
        let dir = scratch(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let child = Command::new(env!("CARGO_BIN_EXE_sem-serve"))
            .arg("--dir")
            .arg(&dir)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sem-serve");
        let t0 = Instant::now();
        while !dir.join("serve.addr").exists() {
            assert!(
                t0.elapsed() < Duration::from_secs(20),
                "daemon did not write serve.addr"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        Daemon { child, dir }
    }

    fn connect(&self) -> Client {
        let addr = resolve_addr(&format!("@{}", self.dir.display())).expect("serve.addr");
        let t0 = Instant::now();
        loop {
            match Client::connect(&addr, Duration::from_secs(60)) {
                Ok(c) => return c,
                Err(e) => {
                    assert!(
                        t0.elapsed() < Duration::from_secs(20),
                        "cannot connect to {addr}: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Bounded wait for daemon exit; panics on timeout (a drain that
    /// does not finish is exactly the bug the tests exist to catch).
    fn wait_exit(&mut self, deadline: Duration) -> i32 {
        let t0 = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status.code().unwrap_or(-1);
            }
            assert!(
                t0.elapsed() < deadline,
                "daemon still running after {deadline:?}"
            );
            std::thread::sleep(Duration::from_millis(30));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn spec(line: &str) -> JobSpec {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    JobSpec::parse(&tokens).expect("test spec")
}

/// Run the same workload uncontended, in-process, and return the bytes
/// of its final checkpoint — the byte-equality reference for service
/// jobs (crash-retried or not).
fn reference_bytes(job: &JobSpec, tag: &str) -> Vec<u8> {
    let dir = scratch(&format!("ref_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(worker::ckpt_dir(&dir)).expect("ref dir");
    let mut uncontended = job.clone();
    uncontended.kill_at = None;
    let mut sup = RunSupervisor::new(worker::build_solver(&uncontended, &dir, 0, false));
    sup.run_to(uncontended.steps).expect("reference run");
    let bytes = std::fs::read(worker::result_path(&dir, uncontended.steps)).expect("ref ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn stat_u64(kv: &[(String, String)], key: &str) -> u64 {
    kv.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("stats missing {key}: {kv:?}"))
}

fn poll_running(client: &mut Client, want: u64, deadline: Duration) {
    let t0 = Instant::now();
    loop {
        let kv = client.stats().expect("stats");
        if stat_u64(&kv, "running") >= want {
            return;
        }
        assert!(
            t0.elapsed() < deadline,
            "never reached running={want}: {kv:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Walk a job's checkpoint dir: every `.ckpt` must load, and no `.tmp`
/// staging file may survive (`allow_decoy` excuses the chaos kill's
/// deliberately planted stray — spelled `ckpt_99999999.ckpt.tmp`).
fn assert_ckpt_dir_clean(job_dir: &Path, allow_decoy: bool) -> usize {
    let dir = worker::ckpt_dir(job_dir);
    let mut valid = 0;
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(_) => return 0, // job never started; nothing to be torn
    };
    for entry in entries {
        let path = entry.expect("read_dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if name.ends_with(".tmp") {
            assert!(
                allow_decoy && name == "ckpt_99999999.ckpt.tmp",
                "torn staging file survived: {}",
                path.display()
            );
            continue;
        }
        match Checkpoint::load(&path) {
            Ok(_) => valid += 1,
            Err(e) => {
                // The chaos kill plants one torn `.ckpt` decoy too; it
                // must never be the *only* file, and resume must have
                // skipped it — which the byte-equality tests prove.
                assert!(allow_decoy, "unloadable checkpoint {}: {e}", path.display());
            }
        }
    }
    valid
}

#[test]
fn protocol_basics_and_drain_request_exits_clean() {
    let mut d = Daemon::start("proto", &["--workers", "1", "--queue", "2"]);
    let mut c = d.connect();
    assert_eq!(c.request("ping").unwrap(), "ok pong");
    assert_eq!(c.request("status 999").unwrap(), "err not-found job=999");
    assert_eq!(c.request("result 999").unwrap(), "err not-found job=999");
    let bad = c.request("frobnicate").unwrap();
    assert!(bad.starts_with("err bad-request"), "{bad}");
    let bad = c.request("submit steps=0").unwrap();
    assert!(bad.starts_with("err bad-request"), "{bad}");
    // A spec over the service step cap is refused at admission.
    let mut d2 = Daemon::start("proto_cap", &["--max-steps", "10"]);
    let mut c2 = d2.connect();
    match c2.submit(&spec("steps=11")).unwrap() {
        Submit::Rejected(reason) => assert!(reason.contains("cap"), "{reason}"),
        other => panic!("expected rejection, got {other:?}"),
    }
    let kv = c.stats().unwrap();
    assert_eq!(stat_u64(&kv, "running"), 0);
    assert_eq!(stat_u64(&kv, "admitted"), 0);
    // The drain protocol request is the SIGTERM path without a signal.
    assert_eq!(c.request("drain").unwrap(), "ok draining");
    assert_eq!(d.wait_exit(Duration::from_secs(30)), 0, "clean drain exit");
    assert_eq!(c2.request("drain").unwrap(), "ok draining");
    assert_eq!(d2.wait_exit(Duration::from_secs(30)), 0);
}

#[test]
fn overload_is_a_structured_rejection_and_backoff_eventually_admits() {
    // Every job's wall budget: a long job ends through a checkpoint
    // (terminal `failed`) after at most this long, whatever the host's
    // step rate, so the queue opens within a known bound.
    const JOB_SECS: u64 = 5;
    let mut d = Daemon::start(
        "overload",
        &[
            "--workers",
            "2",
            "--queue",
            "2",
            "--retries",
            "0",
            "--job-secs",
            &JOB_SECS.to_string(),
        ],
    );
    let mut c = d.connect();
    // Two long jobs occupy both workers...
    for name in ["long_a", "long_b"] {
        match c.submit(&spec(&format!("steps=4000 every=500 name={name}"))).unwrap() {
            Submit::Admitted(_) => {}
            other => panic!("expected admission, got {other:?}"),
        }
    }
    poll_running(&mut c, 2, Duration::from_secs(30));
    // ...two short jobs fill the queue...
    for name in ["fill_a", "fill_b"] {
        match c.submit(&spec(&format!("steps=4 name={name}"))).unwrap() {
            Submit::Admitted(_) => {}
            other => panic!("expected admission, got {other:?}"),
        }
    }
    // ...and the next submit gets the structured overload answer —
    // immediately, with a usable retry hint. Never a hang.
    let t0 = Instant::now();
    match c.submit(&spec("steps=4 name=reject_me")).unwrap() {
        Submit::Overloaded { retry_after_ms } => {
            assert!(retry_after_ms >= 25, "hint too small: {retry_after_ms}");
            assert!(retry_after_ms <= 2000, "hint unbounded: {retry_after_ms}");
        }
        other => panic!("expected overload, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "rejection was not prompt"
    );
    let kv = c.stats().unwrap();
    assert!(stat_u64(&kv, "rejected") >= 1);
    // Honoring the hint with jittered backoff eventually admits: the
    // long jobs finish or exhaust their budget, the queue opens. Every
    // attempt waits at least the 25 ms minimum hint, so this many
    // attempts outlast four job budgets.
    let attempts = (4 * JOB_SECS * 1000 / 25) as u32;
    let id = match c
        .submit_with_backoff(&spec("steps=4 name=patient"), attempts, 42)
        .unwrap()
    {
        Ok(id) => id,
        Err(other) => panic!("backoff should end in admission, got {other:?}"),
    };
    assert_eq!(c.wait_terminal(id, Duration::from_secs(120)).unwrap(), "completed");
    c.request("drain").unwrap();
    assert_eq!(d.wait_exit(Duration::from_secs(60)), 0);
}

#[test]
fn chaos_killed_job_resumes_and_matches_uncontended_reference() {
    let mut d = Daemon::start("chaos", &["--workers", "1", "--retries", "2"]);
    let mut c = d.connect();
    let job = spec("steps=10 every=3 kill_at=5 name=chaos");
    let id = match c.submit(&job).unwrap() {
        Submit::Admitted(id) => id,
        other => panic!("expected admission, got {other:?}"),
    };
    assert_eq!(c.wait_terminal(id, Duration::from_secs(120)).unwrap(), "completed");
    let (state, attempts) = c.status(id).unwrap();
    assert_eq!(state, "completed");
    assert_eq!(attempts, 2, "one crash, one successful resume");
    let kv = c.stats().unwrap();
    assert_eq!(stat_u64(&kv, "retried"), 1);
    assert_eq!(stat_u64(&kv, "completed"), 1);
    // The result artifact: hash matches the bytes, bytes match an
    // uncontended in-process run of the identical workload.
    let (path, hash) = c.result(id).unwrap();
    let served = std::fs::read(&path).expect("result artifact");
    assert_eq!(fnv1a64(&served), hash, "advertised hash must match bytes");
    let reference = reference_bytes(&job, "chaos");
    assert_eq!(
        served, reference,
        "crash-resumed result must be byte-equal to the uncontended run"
    );
    // The job's metrics stream is attributed to its job id.
    let metrics =
        std::fs::read_to_string(worker::metrics_path(&d.dir.join(format!("job_{id:06}")))).unwrap();
    assert!(
        metrics.contains(&format!("\"rank\":{id}")),
        "step records must carry the job-id rank stamp"
    );
    c.request("drain").unwrap();
    assert_eq!(d.wait_exit(Duration::from_secs(60)), 0);
}

#[test]
fn sigterm_drain_checkpoints_in_flight_jobs_and_exits_zero() {
    let mut d = Daemon::start(
        "drain",
        &["--workers", "2", "--queue", "8", "--retries", "0"],
    );
    let mut c = d.connect();
    let mut ids = Vec::new();
    for i in 0..4 {
        match c.submit(&spec(&format!("steps=50000 every=5 name=drain_{i}"))).unwrap() {
            Submit::Admitted(id) => ids.push(id),
            other => panic!("expected admission, got {other:?}"),
        }
    }
    poll_running(&mut c, 2, Duration::from_secs(30));
    // Give the running jobs a beat to commit some steps, then SIGTERM.
    std::thread::sleep(Duration::from_millis(400));
    let pid = d.child.id();
    assert!(signal::send_term(pid), "SIGTERM delivery");
    assert_eq!(d.wait_exit(Duration::from_secs(60)), 0, "drain must exit 0");
    // During drain no new admissions; after it, the journal closes the
    // story: drain_begin … drain_end, every job accounted for.
    let journal = std::fs::read_to_string(d.dir.join("serve.jsonl")).unwrap();
    assert!(journal.contains("\"event\":\"drain_begin\""));
    assert!(journal.contains("\"event\":\"drain_end\""));
    // Filesystem invariants: zero torn staging files anywhere, every
    // surviving checkpoint loads, and every job that got to run has at
    // least one resumable checkpoint.
    let mut jobs_with_ckpts = 0;
    for id in &ids {
        let job_dir = d.dir.join(format!("job_{id:06}"));
        if assert_ckpt_dir_clean(&job_dir, false) > 0 {
            jobs_with_ckpts += 1;
        }
    }
    assert!(
        jobs_with_ckpts >= 2,
        "both running jobs must have checkpointed through the drain"
    );
}

/// Pids of the live processes whose environment holds `entry`
/// (`NAME=value`); processes this user cannot inspect are skipped.
fn pids_with_env(entry: &str) -> Vec<u32> {
    let mut pids = Vec::new();
    for proc_entry in std::fs::read_dir("/proc").expect("/proc") {
        let path = proc_entry.expect("/proc entry").path();
        let Some(pid) = path.file_name().and_then(|n| n.to_str()?.parse().ok()) else {
            continue;
        };
        if let Ok(env) = std::fs::read(path.join("environ")) {
            if env.split(|&b| b == 0).any(|kv| kv == entry.as_bytes()) {
                pids.push(pid);
            }
        }
    }
    pids
}

#[cfg(target_os = "linux")]
#[test]
fn sigkilled_daemon_leaves_no_worker_behind() {
    let mut d = Daemon::start("orphans", &["--workers", "1", "--retries", "0"]);
    let mut c = d.connect();
    let id = match c.submit(&spec("steps=50000 every=1000 name=orphan")).unwrap() {
        Submit::Admitted(id) => id,
        other => panic!("expected admission, got {other:?}"),
    };
    poll_running(&mut c, 1, Duration::from_secs(30));
    // The daemon canonicalizes its state directory; the worker's
    // environment names the job directory under it.
    let job_dir = d.dir.canonicalize().unwrap().join(format!("job_{id:06}"));
    let entry = format!("{}={}", worker::ENV_DIR, job_dir.display());
    assert!(!pids_with_env(&entry).is_empty(), "the worker is not running");
    d.child.kill().expect("SIGKILL the daemon");
    d.child.wait().expect("reap the daemon");
    // The deadline only detects a hang: an orphan would run for hours.
    let t0 = Instant::now();
    loop {
        let left = pids_with_env(&entry);
        if left.is_empty() {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "worker(s) {left:?} outlived the SIGKILLed daemon"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn seeded_chaos_soak_completes_all_jobs_byte_equal() {
    let mut d = Daemon::start(
        "soak",
        &["--workers", "2", "--queue", "8", "--retries", "2"],
    );
    let mut c = d.connect();
    // A seeded mix: plain jobs, chaos kills, fault storms with
    // recovery, and one job combining both. Deterministic workloads, so
    // every completed output has an uncontended reference to compare
    // against.
    let soak: Vec<JobSpec> = [
        "steps=10 every=3 name=s1_plain",
        "steps=12 every=3 kill_at=6 name=s2_kill",
        "steps=9 every=3 fault=nan:u@4;seed=11 name=s3_fault",
        "steps=10 every=3 kill_at=3 fault=nan:u@5;seed=7 name=s4_both",
        "steps=8 every=2 name=s5_plain",
        "steps=11 every=4 kill_at=8 name=s6_kill",
    ]
    .iter()
    .map(|line| spec(line))
    .collect();
    let mut ids = Vec::new();
    for (i, job) in soak.iter().enumerate() {
        match c.submit_with_backoff(job, 200, i as u64).unwrap() {
            Ok(id) => ids.push(id),
            Err(other) => panic!("soak submit {i} not admitted: {other:?}"),
        }
    }
    for (job, id) in soak.iter().zip(&ids) {
        assert_eq!(
            c.wait_terminal(*id, Duration::from_secs(180)).unwrap(),
            "completed",
            "soak job {} must complete",
            job.name
        );
    }
    let kv = c.stats().unwrap();
    assert_eq!(stat_u64(&kv, "completed"), soak.len() as u64);
    assert_eq!(
        stat_u64(&kv, "retried"),
        3,
        "each kill_at job crashes exactly once"
    );
    for (job, id) in soak.iter().zip(&ids) {
        let (path, hash) = c.result(*id).unwrap();
        let served = std::fs::read(&path).expect("soak artifact");
        assert_eq!(fnv1a64(&served), hash, "{}", job.name);
        let reference = reference_bytes(job, &job.name);
        assert_eq!(
            served, reference,
            "{}: contended service output must be byte-equal to the uncontended reference",
            job.name
        );
        // Chaos jobs leave their planted decoys behind; everything else
        // must be pristine — and all real checkpoints load either way.
        assert!(assert_ckpt_dir_clean(&d.dir.join(format!("job_{id:06}")), job.kill_at.is_some()) > 0);
    }
    // `watch` on a terminal job replays its records and ends cleanly.
    let mut streamed = 0usize;
    let state = c.watch(ids[0], |line| {
        assert!(line.starts_with('{'), "watch streams raw JSON: {line}");
        streamed += 1;
    });
    assert_eq!(state.unwrap(), "completed");
    assert!(streamed >= soak[0].steps as usize, "streamed {streamed}");
    c.request("drain").unwrap();
    assert_eq!(d.wait_exit(Duration::from_secs(60)), 0);
}
