//! The daemon: bounded queue, worker pool, admission control, drain.
//!
//! Concurrency layout:
//!
//! - the **main thread** owns the TCP listener (non-blocking accept
//!   poll, so it can watch the termination flag) and runs the drain
//!   sequence;
//! - `workers` **scheduler threads** each loop {pop job, spawn worker
//!   subprocess, wait, classify exit} — the pool bound *is* the
//!   concurrency bound, and FIFO pop order is the fairness policy
//!   (retries rejoin at the back, so one crashy job cannot starve the
//!   queue);
//! - one **connection thread** per accepted client (clients are few;
//!   jobs are the scarce resource, and those are bounded).
//!
//! All shared state lives in one `Mutex<Inner>` + condvars. The daemon
//! journals every transition as a `terasem.serve` JSON record (with
//! queue-depth gauge) to `<dir>/serve.jsonl` and mirrors them into the
//! `jobs_*` counters.

use crate::job::{JobSpec, JobState};
use crate::proto::{self, Request};
use crate::signal;
use crate::worker;
use sem_obs::counters::{self, Counter};
use sem_obs::exit;
use sem_obs::json::JsonObj;
use sem_obs::record::SERVE_RECORD_TYPE;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service configuration (all flags have production-ish defaults).
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// TCP port (0 = ephemeral; the bound address is written to
    /// `<dir>/serve.addr` either way).
    pub port: u16,
    /// Worker pool size = max concurrently running jobs.
    pub workers: usize,
    /// Queue capacity (queued, not counting running). Admission beyond
    /// it is a structured `overloaded` rejection.
    pub queue_cap: usize,
    /// State directory: job dirs, `serve.addr`, `serve.jsonl`.
    pub dir: PathBuf,
    /// Crash-retry budget per job (attempts = retries + 1).
    pub retries: u32,
    /// Per-job wall-clock budget handed to workers, seconds.
    pub job_secs: f64,
    /// Admission cap on a spec's step count.
    pub max_steps: u64,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            port: 0,
            workers: 2,
            queue_cap: 8,
            dir: PathBuf::from("serve-state"),
            retries: 2,
            job_secs: 600.0,
            max_steps: 100_000,
        }
    }
}

const USAGE: &str = "usage: sem-serve [--port P] [--workers N] [--queue N] [--dir D] \
[--retries N] [--job-secs S] [--max-steps N]";

impl ServeOpts {
    /// Parse command-line flags (the launch-opts `k v` pattern).
    pub fn parse_args(args: &[String]) -> Result<ServeOpts, String> {
        let mut o = ServeOpts::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut val = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} wants a value\n{USAGE}"))
            };
            match flag.as_str() {
                "--port" => o.port = num(flag, val()?)? as u16,
                "--workers" => o.workers = num(flag, val()?)?.max(1) as usize,
                "--queue" => o.queue_cap = num(flag, val()?)?.max(1) as usize,
                "--dir" => o.dir = PathBuf::from(val()?),
                "--retries" => o.retries = num(flag, val()?)? as u32,
                "--job-secs" => {
                    let v = val()?;
                    o.job_secs = v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("{flag} wants a positive number, got {v:?}"))?;
                }
                "--max-steps" => o.max_steps = num(flag, val()?)?.max(1),
                other => return Err(format!("unknown flag {other}\n{USAGE}")),
            }
        }
        Ok(o)
    }
}

fn num(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} wants an integer, got {v:?}"))
}

struct Job {
    spec: JobSpec,
    state: JobState,
    /// Completed attempts (the next attempt index handed to a worker).
    attempts: u32,
    dir: PathBuf,
}

struct Inner {
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, Job>,
    draining: bool,
    running: usize,
    /// Signals scheduler threads to exit once the queue is empty.
    shutdown: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Wakes scheduler threads when work arrives or drain begins.
    work: Condvar,
    /// Wakes the drain loop when `running` drops.
    idle: Condvar,
    opts: ServeOpts,
    journal: Mutex<std::fs::File>,
}

impl Shared {
    /// Append one `terasem.serve` record: event + live gauges. This is
    /// the service's run-record stream — `sem-report` aggregates it.
    fn journal(&self, event: &str, job: Option<u64>, inner: &Inner) {
        let mut o = JsonObj::new();
        o.str("type", SERVE_RECORD_TYPE)
            .u64("schema", sem_obs::record::SCHEMA_VERSION)
            .str("event", event);
        match job {
            Some(id) => o.u64("job", id),
            None => o.raw("job", "null"),
        };
        o.u64("queue_depth", inner.queue.len() as u64)
            .u64("queue_cap", self.opts.queue_cap as u64)
            .u64("running", inner.running as u64)
            .u64("workers", self.opts.workers as u64)
            .bool("draining", inner.draining)
            .u64("jobs_admitted", counters::get(Counter::JobsAdmitted))
            .u64("jobs_rejected", counters::get(Counter::JobsRejected))
            .u64("jobs_completed", counters::get(Counter::JobsCompleted))
            .u64("jobs_retried", counters::get(Counter::JobsRetried))
            .u64("jobs_preempted", counters::get(Counter::JobsPreempted));
        let line = o.finish();
        let mut f = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(f, "{line}");
        let _ = f.flush();
    }

    /// Admission: the one place jobs enter the system.
    fn admit(&self, spec: JobSpec) -> Result<u64, String> {
        if spec.steps > self.opts.max_steps {
            return Err(format!(
                "err bad-request reason={}",
                proto::reason_token(&format!("steps exceeds service cap {}", self.opts.max_steps))
            ));
        }
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if g.draining {
            counters::add(Counter::JobsRejected, 1);
            self.journal("rejected_draining", None, &g);
            return Err("err draining".to_string());
        }
        if g.queue.len() >= self.opts.queue_cap {
            counters::add(Counter::JobsRejected, 1);
            // Retry hint: scale with how much work is ahead of the
            // caller. A hint, not a promise — clients add jitter.
            let backlog = (g.queue.len() + g.running) as u64;
            let hint = (25 * backlog).clamp(25, 2000);
            let line = format!(
                "err overloaded retry-after-ms={hint} queue={}/{}",
                g.queue.len(),
                self.opts.queue_cap
            );
            self.journal("rejected_overloaded", None, &g);
            return Err(line);
        }
        let id = g.next_id;
        g.next_id += 1;
        let dir = self.opts.dir.join(format!("job_{id:06}"));
        if let Err(e) = std::fs::create_dir_all(worker::ckpt_dir(&dir)) {
            return Err(format!(
                "err internal reason={}",
                proto::reason_token(&format!("cannot create job dir: {e}"))
            ));
        }
        let _ = std::fs::write(dir.join("spec"), format!("{}\n", spec.to_line()));
        g.jobs.insert(
            id,
            Job {
                spec,
                state: JobState::Queued,
                attempts: 0,
                dir,
            },
        );
        g.queue.push_back(id);
        counters::add(Counter::JobsAdmitted, 1);
        self.journal("admitted", Some(id), &g);
        self.work.notify_one();
        Ok(id)
    }
}

/// Spawn the worker subprocess for one attempt of `job`. Its stdin is a
/// pipe whose write end only this process holds (std opens it
/// close-on-exec, so no other worker inherits it): the worker exits when
/// the pipe reaches EOF, so a daemon that dies, however it dies, leaves
/// no worker behind.
fn spawn_worker(opts: &ServeOpts, id: u64, job: &Job) -> std::io::Result<Child> {
    let exe = std::env::current_exe()?;
    Command::new(exe)
        .stdin(Stdio::piped())
        .env(worker::ENV_WORKER, "1")
        .env(worker::ENV_DIR, &job.dir)
        .env(worker::ENV_SPEC, job.spec.to_line())
        .env(worker::ENV_JOB, id.to_string())
        .env(worker::ENV_ATTEMPT, job.attempts.to_string())
        .env(worker::ENV_WALL_SECS, opts.job_secs.to_string())
        .spawn()
}

/// One scheduler thread: pop → spawn → wait → classify, forever.
fn scheduler_loop(shared: &Shared) {
    loop {
        // Pop the next job (or exit on shutdown / drain-with-empty-queue).
        let id = {
            let mut g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if g.shutdown {
                    return;
                }
                if g.draining {
                    // Queued jobs are not started during drain; the
                    // drain sequence marks them. This thread is done.
                    return;
                }
                if let Some(id) = g.queue.pop_front() {
                    break id;
                }
                g = shared.work.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Spawn under the lock so drain can never miss a pid: either
        // the drain loop sees `Running{pid}` and signals it, or this
        // thread sees `draining` first and parks the job unstarted.
        let child = {
            let mut g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            if g.draining {
                if let Some(job) = g.jobs.get_mut(&id) {
                    job.state = JobState::Drained;
                }
                counters::add(Counter::JobsPreempted, 1);
                self_journal_preempt(shared, id, &g);
                shared.idle.notify_all();
                return;
            }
            let job = g.jobs.get(&id).expect("queued job exists");
            match spawn_worker(&shared.opts, id, job) {
                Ok(child) => {
                    let pid = child.id();
                    g.running += 1;
                    let job = g.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running { pid };
                    shared.journal("started", Some(id), &g);
                    child
                }
                Err(e) => {
                    let job = g.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Failed {
                        code: exit::FAILURE,
                        reason: format!("spawn failed: {e}"),
                    };
                    shared.journal("failed", Some(id), &g);
                    continue;
                }
            }
        };
        let status = wait_child(child);
        // Classify.
        let mut g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.running -= 1;
        let draining = g.draining;
        let retries = shared.opts.retries;
        if let Some(job) = g.jobs.get_mut(&id) {
            job.attempts += 1;
            let (state, event) = match status {
                Some(code) if code == exit::OK => {
                    counters::add(Counter::JobsCompleted, 1);
                    (JobState::Completed, "completed")
                }
                Some(code) if code == exit::JOB_DRAINED => {
                    counters::add(Counter::JobsPreempted, 1);
                    (JobState::Drained, "preempted")
                }
                Some(code) if code == exit::JOB_BUDGET => (
                    JobState::Failed {
                        code,
                        reason: "wall budget exhausted (checkpointed)".to_string(),
                    },
                    "failed",
                ),
                Some(code) if code == exit::JOB_GAVE_UP || code == exit::USAGE => (
                    JobState::Failed {
                        code,
                        reason: exit::describe(code).unwrap_or("gave up").to_string(),
                    },
                    "failed",
                ),
                // Unstructured death (chaos kill, panic, signal):
                // crash-only semantics say retry from the newest
                // checkpoint — unless we're draining, in which case the
                // job parks resumable.
                other => {
                    if draining {
                        counters::add(Counter::JobsPreempted, 1);
                        (JobState::Drained, "preempted")
                    } else if job.attempts <= retries {
                        counters::add(Counter::JobsRetried, 1);
                        (JobState::Queued, "retried")
                    } else {
                        (
                            JobState::Failed {
                                code: other.unwrap_or(-1),
                                reason: format!(
                                    "crashed on all {} attempt(s) (last code {:?})",
                                    job.attempts, other
                                ),
                            },
                            "failed",
                        )
                    }
                }
            };
            let requeue = state == JobState::Queued;
            job.state = state;
            if requeue {
                g.queue.push_back(id);
                shared.work.notify_one();
            }
            shared.journal(event, Some(id), &g);
        }
        shared.idle.notify_all();
    }
}

fn self_journal_preempt(shared: &Shared, id: u64, g: &Inner) {
    shared.journal("preempted", Some(id), g);
}

/// Wait for a child; `Some(code)` for a normal exit, `None` for a
/// signal death. The child's stdin pipe stays open until it has exited
/// (`Child::wait` would close it first, which a worker reads as the
/// daemon's death).
fn wait_child(mut child: Child) -> Option<i32> {
    let lifeline = child.stdin.take();
    let status = child.wait();
    drop(lifeline);
    match status {
        Ok(status) => status.code(),
        Err(_) => None,
    }
}

/// Handle one client connection until EOF.
fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(300)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let reply = match proto::parse_request(&line) {
            Err(reason) => format!("err bad-request reason={}", proto::reason_token(&reason)),
            Ok(Request::Ping) => "ok pong".to_string(),
            Ok(Request::Drain) => {
                signal::request_term();
                "ok draining".to_string()
            }
            Ok(Request::Stats) => {
                let g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                format!(
                    "ok queue={}/{} running={} workers={} draining={} admitted={} rejected={} \
                     completed={} retried={} preempted={}",
                    g.queue.len(),
                    shared.opts.queue_cap,
                    g.running,
                    shared.opts.workers,
                    g.draining as u8,
                    counters::get(Counter::JobsAdmitted),
                    counters::get(Counter::JobsRejected),
                    counters::get(Counter::JobsCompleted),
                    counters::get(Counter::JobsRetried),
                    counters::get(Counter::JobsPreempted),
                )
            }
            Ok(Request::Submit(spec)) => match shared.admit(spec) {
                Ok(id) => format!("ok job={id}"),
                Err(line) => line,
            },
            Ok(Request::Status(id)) => {
                let g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                match g.jobs.get(&id) {
                    None => format!("err not-found job={id}"),
                    Some(job) => {
                        let mut s = format!(
                            "ok job={id} state={} attempts={} name={}",
                            job.state.wire_name(),
                            job.attempts,
                            job.spec.name
                        );
                        if let JobState::Failed { code, reason } = &job.state {
                            s.push_str(&format!(
                                " code={code} reason={}",
                                proto::reason_token(reason)
                            ));
                        }
                        s
                    }
                }
            }
            Ok(Request::Result(id)) => {
                let g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                match g.jobs.get(&id) {
                    None => format!("err not-found job={id}"),
                    Some(job) if job.state == JobState::Completed => {
                        let path = worker::result_path(&job.dir, job.spec.steps);
                        match std::fs::read(&path) {
                            Ok(bytes) => format!(
                                "ok job={id} checkpoint={} bytes={} hash={:016x}",
                                path.display(),
                                bytes.len(),
                                sem_linalg::rng::fnv1a64(&bytes)
                            ),
                            Err(e) => format!(
                                "err internal reason={}",
                                proto::reason_token(&format!("artifact unreadable: {e}"))
                            ),
                        }
                    }
                    Some(job) => format!(
                        "err not-ready job={id} state={}",
                        job.state.wire_name()
                    ),
                }
            }
            Ok(Request::Watch(id)) => {
                match stream_watch(&mut writer, shared, id) {
                    Ok(()) => continue, // stream_watch wrote everything
                    Err(_) => return,
                }
            }
        };
        if writer.write_all(reply.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            return;
        }
        let _ = writer.flush();
    }
}

/// Stream a job's metrics.jsonl (tail -f style) until the job is
/// terminal, then send the `end` line.
fn stream_watch(writer: &mut TcpStream, shared: &Arc<Shared>, id: u64) -> std::io::Result<()> {
    let (path, mut known) = {
        let g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        match g.jobs.get(&id) {
            None => {
                writeln!(writer, "err not-found job={id}")?;
                return Ok(());
            }
            Some(job) => (worker::metrics_path(&job.dir), job.state.is_terminal()),
        }
    };
    writeln!(writer, "ok watching job={id}")?;
    writer.flush()?;
    let mut offset: u64 = 0;
    let mut partial = String::new();
    loop {
        // Forward any new complete lines.
        if let Ok(mut f) = std::fs::File::open(&path) {
            f.seek(SeekFrom::Start(offset))?;
            let mut chunk = String::new();
            f.read_to_string(&mut chunk)?;
            offset += chunk.len() as u64;
            partial.push_str(&chunk);
            while let Some(nl) = partial.find('\n') {
                let line: String = partial.drain(..=nl).collect();
                writer.write_all(line.as_bytes())?;
            }
            writer.flush()?;
        }
        if known {
            // Terminal before this pass started, so the log is final.
            let state = {
                let g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                g.jobs.get(&id).map_or("unknown".to_string(), |j| {
                    j.state.wire_name().to_string()
                })
            };
            writeln!(writer, "end job={id} state={state}")?;
            writer.flush()?;
            return Ok(());
        }
        known = {
            let g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            g.jobs.get(&id).map_or(true, |j| j.state.is_terminal())
        };
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Write `contents` to `path` so that it appears whole: into a temporary
/// file in the same directory, then renamed over `path`. A reader that
/// finds `path` never sees it empty or half written.
fn publish(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Run the daemon until drain completes. Returns the process exit code
/// (0 on a clean drain).
pub fn daemon_main(opts: ServeOpts) -> i32 {
    let mut opts = opts;
    sem_obs::set_enabled(true);
    signal::install_term_handler();
    if let Err(e) = std::fs::create_dir_all(&opts.dir) {
        eprintln!("sem-serve: cannot create state dir {}: {e}", opts.dir.display());
        return exit::FAILURE;
    }
    // Absolutize: `result` hands checkpoint paths to clients that may
    // run in a different working directory.
    match opts.dir.canonicalize() {
        Ok(abs) => opts.dir = abs,
        Err(e) => {
            eprintln!("sem-serve: cannot canonicalize {}: {e}", opts.dir.display());
            return exit::FAILURE;
        }
    }
    let listener = match TcpListener::bind(("127.0.0.1", opts.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sem-serve: cannot bind 127.0.0.1:{}: {e}", opts.port);
            return exit::FAILURE;
        }
    };
    let addr = match listener.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => {
            eprintln!("sem-serve: local_addr failed: {e}");
            return exit::FAILURE;
        }
    };
    if listener.set_nonblocking(true).is_err() {
        eprintln!("sem-serve: cannot set the listener non-blocking");
        return exit::FAILURE;
    }
    // Discovery files: pid (drain via `kill -TERM $(cat serve.pid)`),
    // then address (ephemeral ports!). Each appears whole, and the
    // address last, so a reader that finds `serve.addr` finds both.
    let discovery = [
        ("serve.pid", format!("{}\n", std::process::id())),
        ("serve.addr", format!("{addr}\n")),
    ];
    for (name, contents) in discovery {
        if let Err(e) = publish(&opts.dir.join(name), &contents) {
            eprintln!("sem-serve: cannot publish {name}: {e}");
            return exit::FAILURE;
        }
    }
    let journal = match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(opts.dir.join("serve.jsonl"))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sem-serve: cannot open journal: {e}");
            return exit::FAILURE;
        }
    };
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            next_id: 1,
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            draining: false,
            running: 0,
            shutdown: false,
        }),
        work: Condvar::new(),
        idle: Condvar::new(),
        opts: opts.clone(),
        journal: Mutex::new(journal),
    });
    {
        let g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        shared.journal("listening", None, &g);
    }
    eprintln!(
        "sem-serve: listening on {addr} ({} worker(s), queue {}, state {})",
        opts.workers,
        opts.queue_cap,
        opts.dir.display()
    );
    let mut scheds = Vec::new();
    for i in 0..opts.workers {
        let s = Arc::clone(&shared);
        scheds.push(
            std::thread::Builder::new()
                .name(format!("sched-{i}"))
                .spawn(move || scheduler_loop(&s))
                .expect("spawn scheduler"),
        );
    }
    // Accept loop. Connection threads are detached: they die with the
    // process, and the only state they hold is the TCP stream.
    while !signal::term_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                let s = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("conn".to_string())
                    .spawn(move || handle_conn(stream, &s));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                eprintln!("sem-serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    drain(&shared, &mut scheds)
}

/// The drain sequence: stop admitting, preempt everything, wait for
/// every child, exit clean.
fn drain(shared: &Arc<Shared>, scheds: &mut Vec<std::thread::JoinHandle<()>>) -> i32 {
    let t0 = Instant::now();
    {
        let mut g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.draining = true;
        shared.journal("drain_begin", None, &g);
    }
    eprintln!("sem-serve: drain requested — no longer admitting");
    shared.work.notify_all();
    // Keep signaling running workers until all have exited: a worker
    // that spawned concurrently with the flag flip gets caught by a
    // later round. Workers checkpoint and exit JOB_DRAINED; the
    // scheduler threads reap and classify them.
    loop {
        let (running, pids) = {
            let g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            let pids: Vec<u32> = g
                .jobs
                .values()
                .filter_map(|j| match j.state {
                    JobState::Running { pid } => Some(pid),
                    _ => None,
                })
                .collect();
            (g.running, pids)
        };
        if running == 0 {
            break;
        }
        for pid in pids {
            signal::send_term(pid);
        }
        let g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        let _ = shared
            .idle
            .wait_timeout(g, Duration::from_millis(100))
            .map(|(g, _)| drop(g));
    }
    // Park never-started queued jobs as drained-resumable.
    {
        let mut g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.shutdown = true;
        while let Some(id) = g.queue.pop_front() {
            if let Some(job) = g.jobs.get_mut(&id) {
                if !job.state.is_terminal() {
                    job.state = JobState::Drained;
                    counters::add(Counter::JobsPreempted, 1);
                }
            }
            let id_copy = id;
            shared.journal("preempted", Some(id_copy), &g);
        }
    }
    shared.work.notify_all();
    for handle in scheds.drain(..) {
        let _ = handle.join();
    }
    let drain_ms = t0.elapsed().as_millis() as u64;
    {
        let mut g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Every job must be terminal now; anything else is a bug.
        let stuck: Vec<u64> = g
            .jobs
            .iter()
            .filter(|(_, j)| !j.state.is_terminal())
            .map(|(id, _)| *id)
            .collect();
        for id in &stuck {
            if let Some(job) = g.jobs.get_mut(id) {
                job.state = JobState::Drained;
            }
        }
        shared.journal("drain_end", None, &g);
        if !stuck.is_empty() {
            eprintln!("sem-serve: BUG — jobs not terminal after drain: {stuck:?}");
            return exit::FAILURE;
        }
    }
    eprintln!("sem-serve: drained clean in {drain_ms} ms");
    println!("sem-serve: drain complete ({drain_ms} ms)");
    exit::OK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_parse_flags_and_reject_junk() {
        let ok = ServeOpts::parse_args(&[
            "--port".into(), "0".into(),
            "--workers".into(), "3".into(),
            "--queue".into(), "5".into(),
            "--dir".into(), "/tmp/x".into(),
            "--retries".into(), "1".into(),
            "--job-secs".into(), "2.5".into(),
            "--max-steps".into(), "50".into(),
        ])
        .unwrap();
        assert_eq!(ok.workers, 3);
        assert_eq!(ok.queue_cap, 5);
        assert_eq!(ok.retries, 1);
        assert!((ok.job_secs - 2.5).abs() < 1e-12);
        assert_eq!(ok.max_steps, 50);
        assert!(ServeOpts::parse_args(&["--bogus".into()]).is_err());
        assert!(ServeOpts::parse_args(&["--workers".into()]).is_err());
        assert!(ServeOpts::parse_args(&["--workers".into(), "x".into()]).is_err());
        assert!(ServeOpts::parse_args(&["--job-secs".into(), "-1".into()]).is_err());
        // Worker/queue floors: 0 would deadlock the service.
        let floored =
            ServeOpts::parse_args(&["--workers".into(), "0".into(), "--queue".into(), "0".into()])
                .unwrap();
        assert_eq!(floored.workers, 1);
        assert_eq!(floored.queue_cap, 1);
    }

    #[test]
    fn publish_leaves_whole_files_and_no_temporaries() {
        let dir = std::env::temp_dir().join(format!("terasem_publish_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.addr");
        publish(&path, "127.0.0.1:4242\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "127.0.0.1:4242\n");
        // An existing file (a previous daemon's) is replaced whole.
        publish(&path, "127.0.0.1:7\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "127.0.0.1:7\n");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["serve.addr"], "a temporary file was left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
