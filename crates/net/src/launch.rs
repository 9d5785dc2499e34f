//! The `terasem-launch` parent: spawn N rank processes, supervise them,
//! and turn a rank death into a recoverable fault.
//!
//! The launcher validates the RSB partition *before* spawning anything
//! (an empty rank is a configuration error with a clean message, never a
//! hung job), then runs a generation loop with two recovery tiers:
//!
//! * **Single-rank rejoin** (the default): when exactly one rank dies
//!   while every other rank is still running, only the dead rank is
//!   respawned — into a *rejoin epoch* the survivors are already
//!   re-bootstrapping toward ([`crate::rank`]). The newcomer resumes
//!   from the newest consistent checkpoint generation
//!   ([`sem_ns::consistent_generation`]) and deterministically replays
//!   up to the survivors' step; survivor processes, and their in-memory
//!   state, are preserved.
//! * **Restart-all** (fallback, or `--no-rejoin`): multi-rank loss, a
//!   failed rejoin, or an exhausted budget kills the stragglers and
//!   respawns every rank pinned to the newest consistent generation.
//!
//! A chaos `--kill` spec is only passed to the first life, mirroring
//! the soak harness, so recovered jobs run clean. Both tiers draw on
//! one `--max-restarts` budget; exhausting it exits with
//! [`EXIT_RESTARTS_EXHAUSTED`].
//!
//! On success the launcher additionally proves the replicated-compute
//! invariant end-to-end: the final checkpoint files of all ranks must be
//! byte-identical.

use crate::layout::{rank_ckpt_dir, RankLayout};
use crate::rank::{
    ENV_EPOCH, ENV_KILL, ENV_RANK, ENV_RESUME_STEP, ENV_SIZE, ENV_SOCK_DIR, EXIT_CHAOS_KILL,
};
use sem_mesh::generators::box2d;
use sem_mesh::partition::{cut_edges, partition_rsb, part_sizes, shared_vertices};
use sem_ns::consistent_generation;
use sem_ops::SemOps;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::Duration;

/// Parsed `terasem-launch` command line (shared verbatim by the rank
/// children, which re-parse the same argv and read their role from the
/// environment).
#[derive(Clone, Debug)]
pub struct LaunchOpts {
    /// `--ranks N`: rank processes to spawn.
    pub ranks: usize,
    /// `--steps S`: target step of the run.
    pub steps: u64,
    /// `--elems K`: the shear-layer mesh is `K × K` elements.
    pub kelem: usize,
    /// `--order N`: polynomial order.
    pub order: usize,
    /// `--ckpt-every C`: checkpoint (and validation) interval in steps.
    pub ckpt_every: u64,
    /// `--keep-last M`: checkpoint retention per rank. Generous by
    /// default so pruning can never outrun the consistent-generation
    /// intersection.
    pub keep_last: usize,
    /// `--dir D`: job directory (per-rank checkpoints, sockets).
    pub dir: PathBuf,
    /// `--kill R@S[,R@S..]`: chaos spec — each listed rank self-kills
    /// after committing the named step (first life only).
    pub kill: Vec<(usize, u64)>,
    /// `--threads a,b,..`: per-rank `TERASEM_THREADS`, cycled. Empty
    /// leaves the children inheriting the launcher's environment.
    pub threads: Vec<usize>,
    /// `--max-restarts R`: bounded recovery attempts (shared budget for
    /// single-rank rejoins and restart-all generations).
    pub max_restarts: usize,
    /// `--no-rejoin`: disable single-rank rejoin recovery — any rank
    /// death puts the whole generation down and restarts every rank.
    pub no_rejoin: bool,
    /// `--bench-comm`: measure the transport instead of running a solve.
    pub bench_comm: bool,
    /// `--telemetry`: rank-aware observability — every rank records
    /// metrics/traces/comm samples and ships them to rank 0 at the end
    /// of the run, producing `terasem.ranks` and a merged Chrome trace
    /// in the job directory (see [`crate::telemetry`]).
    pub telemetry: bool,
    /// `--timeout T`: transport receive/bootstrap timeout, seconds.
    pub timeout_secs: f64,
}

impl Default for LaunchOpts {
    fn default() -> Self {
        LaunchOpts {
            ranks: 2,
            steps: 12,
            kelem: 4,
            order: 5,
            ckpt_every: 3,
            keep_last: 64,
            dir: PathBuf::from("target/terasem-net"),
            kill: Vec::new(),
            threads: Vec::new(),
            max_restarts: 3,
            no_rejoin: false,
            bench_comm: false,
            telemetry: false,
            timeout_secs: 60.0,
        }
    }
}

impl LaunchOpts {
    /// Small configuration for unit tests.
    #[cfg(test)]
    pub fn for_tests() -> Self {
        LaunchOpts {
            kelem: 3,
            order: 4,
            ..LaunchOpts::default()
        }
    }
}

/// Usage text for `--help` and parse errors.
pub const USAGE: &str = "\
terasem-launch: rank-parallel shear-layer runner (sem-net)

  terasem-launch --ranks N --steps S --dir DIR [options]

options:
  --ranks N        rank processes to spawn           (default 2)
  --steps S        run to step S                     (default 12)
  --elems K        K x K element shear-layer mesh    (default 4)
  --order N        polynomial order                  (default 5)
  --ckpt-every C   checkpoint + validation interval  (default 3)
  --keep-last M    checkpoints retained per rank     (default 64)
  --dir D          job directory                     (default target/terasem-net)
  --kill R@S[,R@S..] chaos: each listed rank exits after the named step
                   (first life only)
  --threads a,b,.. per-rank TERASEM_THREADS, cycled
  --max-restarts R recovery budget: single-rank rejoins plus
                   restart-all generations               (default 3)
  --no-rejoin      disable single-rank rejoin; any death restarts all
  --timeout T      transport timeout, seconds        (default 60)
  --bench-comm     measure alpha-beta transport model instead of solving
  --telemetry      per-rank metrics + merged rank-lane Chrome trace:
                   writes DIR/terasem.ranks and DIR/trace_merged.json
";

/// Parse an argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<LaunchOpts, String> {
    let mut o = LaunchOpts::default();
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ranks" => o.ranks = num(&value(a, &mut it)?, a)?,
            "--steps" => o.steps = num(&value(a, &mut it)?, a)?,
            "--elems" => o.kelem = num(&value(a, &mut it)?, a)?,
            "--order" => o.order = num(&value(a, &mut it)?, a)?,
            "--ckpt-every" => o.ckpt_every = num(&value(a, &mut it)?, a)?,
            "--keep-last" => o.keep_last = num(&value(a, &mut it)?, a)?,
            "--dir" => o.dir = PathBuf::from(value(a, &mut it)?),
            "--max-restarts" => o.max_restarts = num(&value(a, &mut it)?, a)?,
            "--timeout" => {
                let v = value(a, &mut it)?;
                o.timeout_secs = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| *t > 0.0)
                    .ok_or_else(|| format!("--timeout: bad value {v:?}"))?;
            }
            "--kill" => {
                let v = value(a, &mut it)?;
                for part in v.split(',') {
                    let (r, s) = part.split_once('@').ok_or_else(|| {
                        format!("--kill: expected RANK@STEP[,RANK@STEP..], got {v:?}")
                    })?;
                    o.kill.push((num(r, a)?, num(s, a)?));
                }
            }
            "--no-rejoin" => o.no_rejoin = true,
            "--threads" => {
                let v = value(a, &mut it)?;
                o.threads = v
                    .split(',')
                    .map(|t| num(t, a))
                    .collect::<Result<Vec<usize>, String>>()?;
            }
            "--bench-comm" => o.bench_comm = true,
            "--telemetry" => o.telemetry = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    if o.ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    if o.steps == 0 || o.kelem == 0 || o.order == 0 {
        return Err("--steps, --elems, and --order must be positive".into());
    }
    Ok(o)
}

fn num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.trim()
        .parse()
        .map_err(|_| format!("{flag}: bad value {v:?}"))
}

/// Validate the partition the ranks will use and print the job banner.
/// This is where an over-decomposed job (more ranks than elements) is
/// rejected, with the structured [`crate::layout::EmptyRankError`].
fn validate_partition(opts: &LaunchOpts) -> Result<RankLayout, String> {
    let mesh = box2d(
        opts.kelem,
        opts.kelem,
        [0.0, 1.0],
        [0.0, 1.0],
        true,
        true,
    );
    let part = partition_rsb(&mesh, opts.ranks);
    let ops = SemOps::new(mesh, opts.order);
    let layout = RankLayout::new(&ops.num.ids, ops.geo.npts, &part, opts.ranks)
        .map_err(|e| e.to_string())?;
    let adj = ops.mesh.adjacency();
    let traffic: Vec<(u64, u64)> = (0..opts.ranks)
        .map(|r| layout.gs(r).traffic_per_call())
        .collect();
    println!(
        "terasem-launch: K={} elements over {} rank(s) (RSB): sizes {:?}, \
         {} cut faces, {} shared vertices",
        ops.k(),
        opts.ranks,
        part_sizes(&part, opts.ranks),
        cut_edges(&adj, &part),
        shared_vertices(&ops.mesh, &part),
    );
    println!(
        "terasem-launch: gather-scatter traffic per call per rank: {:?} (msgs, words)",
        traffic
    );
    Ok(layout)
}

/// Spawn one rank process. `with_kill` arms the chaos spec (first life
/// of the first generation only); `epoch > 0` drops the child into a
/// rejoin epoch on the same socket-directory base as the survivors.
fn spawn_rank(
    opts: &LaunchOpts,
    exe: &std::path::Path,
    argv: &[String],
    sock_dir: &std::path::Path,
    r: usize,
    resume: Option<u64>,
    epoch: u64,
    with_kill: bool,
) -> std::io::Result<Child> {
    let mut cmd = Command::new(exe);
    cmd.args(argv)
        .env(ENV_RANK, r.to_string())
        .env(ENV_SIZE, opts.ranks.to_string())
        .env(ENV_SOCK_DIR, sock_dir);
    match resume {
        Some(g) => {
            cmd.env(ENV_RESUME_STEP, g.to_string());
        }
        None => {
            cmd.env_remove(ENV_RESUME_STEP);
        }
    }
    if epoch > 0 {
        cmd.env(ENV_EPOCH, epoch.to_string());
    } else {
        cmd.env_remove(ENV_EPOCH);
    }
    if with_kill && !opts.kill.is_empty() {
        let spec: Vec<String> = opts.kill.iter().map(|(kr, ks)| format!("{kr}@{ks}")).collect();
        cmd.env(ENV_KILL, spec.join(","));
    } else {
        cmd.env_remove(ENV_KILL);
    }
    if !opts.threads.is_empty() {
        let t = opts.threads[r % opts.threads.len()];
        cmd.env("TERASEM_THREADS", t.to_string());
    }
    let child = cmd.spawn()?;
    // PID lines let tests (and operators) verify which processes a
    // recovery preserved: rejoin keeps every survivor PID, restart-all
    // replaces them all.
    println!("terasem-launch: rank {r} pid {}", child.id());
    Ok(child)
}

fn spawn_ranks(
    opts: &LaunchOpts,
    exe: &std::path::Path,
    argv: &[String],
    attempt: usize,
    resume: Option<u64>,
) -> std::io::Result<(Vec<Child>, PathBuf)> {
    // A fresh socket directory per generation: no stale-socket races.
    let sock_dir = opts.dir.join(format!("sock_{attempt}"));
    let _ = std::fs::remove_dir_all(&sock_dir);
    std::fs::create_dir_all(&sock_dir)?;
    let mut children = Vec::with_capacity(opts.ranks);
    for r in 0..opts.ranks {
        // Chaos kill only in the first life, like the soak harness.
        children.push(spawn_rank(opts, exe, argv, &sock_dir, r, resume, 0, attempt == 0)?);
    }
    Ok((children, sock_dir))
}

/// Wait until every child has exited cleanly or at least one has
/// failed. On a failure, keep polling through a short grace window so
/// near-simultaneous deaths (multi-rank chaos kills) are reported as
/// one event — the rejoin-vs-restart-all decision hinges on the count.
/// No child is killed here; the caller owns that policy. Returns the
/// failed `(rank, code)` list and how many children are still running.
fn supervise(children: &mut [Child]) -> (Vec<(usize, i32)>, usize) {
    const GRACE: Duration = Duration::from_millis(300);
    let mut grace_until: Option<std::time::Instant> = None;
    loop {
        let mut failed: Vec<(usize, i32)> = Vec::new();
        let mut running = 0usize;
        for (r, child) in children.iter_mut().enumerate() {
            match child.try_wait() {
                Ok(Some(st)) => {
                    let code = st.code().unwrap_or(-1);
                    if code != 0 {
                        failed.push((r, code));
                    }
                }
                Ok(None) => running += 1,
                Err(_) => failed.push((r, -1)),
            }
        }
        if running == 0 {
            return (failed, running);
        }
        if !failed.is_empty() {
            match grace_until {
                None => grace_until = Some(std::time::Instant::now() + GRACE),
                Some(t) if std::time::Instant::now() >= t => return (failed, running),
                Some(_) => {}
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Put a generation down: kill and reap every child still running.
fn kill_all(children: &mut [Child]) {
    for child in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Compare the final checkpoint files of all ranks byte-for-byte.
fn final_checkpoints_identical(opts: &LaunchOpts) -> Result<(), String> {
    let name = format!("ckpt_{:08}.ckpt", opts.steps);
    let mut reference: Option<Vec<u8>> = None;
    for r in 0..opts.ranks {
        let path = rank_ckpt_dir(&opts.dir, r).join(&name);
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("missing final checkpoint {}: {e}", path.display()))?;
        match &reference {
            None => reference = Some(bytes),
            Some(want) if *want == bytes => {}
            Some(_) => {
                return Err(format!(
                    "final checkpoint of rank {r} differs from rank 0 ({name})"
                ));
            }
        }
    }
    Ok(())
}

/// Launcher exit code: the recovery budget (`--max-restarts`) ran out.
/// (Alias into the shared registry, [`sem_obs::exit`].)
pub const EXIT_RESTARTS_EXHAUSTED: i32 = sem_obs::exit::RESTARTS_EXHAUSTED;

/// Launcher entry point. Returns the process exit code.
pub fn launch_main(opts: &LaunchOpts, argv: &[String]) -> i32 {
    if let Err(e) = validate_partition(opts) {
        eprintln!("terasem-launch: {e}");
        return sem_obs::exit::USAGE;
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("terasem-launch: cannot locate own binary: {e}");
            return sem_obs::exit::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.dir) {
        eprintln!("terasem-launch: cannot create {}: {e}", opts.dir.display());
        return sem_obs::exit::FAILURE;
    }
    let rank_dirs: Vec<PathBuf> = (0..opts.ranks).map(|r| rank_ckpt_dir(&opts.dir, r)).collect();
    let mut restarts = 0usize;
    for attempt in 0.. {
        let resume = if attempt == 0 {
            None
        } else {
            let gen = consistent_generation(&rank_dirs);
            if gen.is_none() {
                // Nothing consistent on disk: restart from scratch, and
                // clear any partial generations so no rank resumes ahead
                // of the others.
                for d in &rank_dirs {
                    let _ = std::fs::remove_dir_all(d);
                }
            }
            gen
        };
        if attempt > 0 {
            eprintln!(
                "terasem-launch: restart {attempt}/{}: resuming all ranks from {}",
                opts.max_restarts,
                resume
                    .map(|g| format!("generation {g}"))
                    .unwrap_or_else(|| "scratch".into())
            );
        }
        let (mut children, sock_dir) = match spawn_ranks(opts, &exe, argv, attempt, resume) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("terasem-launch: spawn failed: {e}");
                return sem_obs::exit::FAILURE;
            }
        };
        // Supervise the generation. A single dead rank is healed *in
        // place*: only the dead rank is respawned, into a rejoin epoch
        // the survivors are already re-bootstrapping toward — their
        // PIDs, sockets-in-flight state, and in-memory solver state all
        // survive. Multi-rank loss (or an exhausted budget, or
        // --no-rejoin) falls back to the restart-all path below.
        let mut epoch = 0u64;
        let failed = loop {
            let (failed, running) = supervise(&mut children);
            if failed.is_empty() {
                break failed;
            }
            for (r, code) in &failed {
                let kind = match *code {
                    EXIT_CHAOS_KILL => "chaos kill",
                    7 => "divergence abort",
                    8 => "peer lost",
                    _ => "failure",
                };
                eprintln!("terasem-launch: rank {r} exited with code {code} ({kind})");
            }
            let survivors = opts.ranks - failed.len();
            let rejoin = failed.len() == 1
                && running == survivors
                && !opts.no_rejoin
                && !opts.bench_comm
                && restarts < opts.max_restarts;
            if !rejoin {
                break failed;
            }
            restarts += 1;
            epoch += 1;
            let (r, _) = failed[0];
            // The newest generation every rank (including the dead one)
            // holds a valid checkpoint for: the newcomer resumes there
            // and replays deterministically up to the survivors' step.
            let gen = consistent_generation(&rank_dirs);
            eprintln!(
                "terasem-launch: rejoin {restarts}/{}: restarting rank {r} \
                 (epoch {epoch}, resume from {})",
                opts.max_restarts,
                gen.map(|g| format!("generation {g}"))
                    .unwrap_or_else(|| "scratch".into())
            );
            match spawn_rank(opts, &exe, argv, &sock_dir, r, gen, epoch, false) {
                Ok(child) => children[r] = child,
                Err(e) => {
                    eprintln!("terasem-launch: rejoin spawn failed: {e}");
                    break failed;
                }
            }
        };
        if failed.is_empty() {
            if !opts.bench_comm {
                if let Err(e) = final_checkpoints_identical(opts) {
                    eprintln!("terasem-launch: {e}");
                    return sem_obs::exit::FAILURE;
                }
                println!(
                    "terasem-launch: final checkpoints byte-identical across {} rank(s)",
                    opts.ranks
                );
            }
            if opts.telemetry {
                // Rank 0 wrote the merged artifacts into the job dir;
                // their absence after a clean run is a launcher bug.
                for name in [crate::telemetry::RANKS_FILE, crate::telemetry::MERGED_TRACE_FILE] {
                    let path = opts.dir.join(name);
                    if !path.is_file() {
                        eprintln!(
                            "terasem-launch: telemetry artifact missing: {}",
                            path.display()
                        );
                        return sem_obs::exit::FAILURE;
                    }
                    println!("terasem-launch: telemetry artifact: {}", path.display());
                }
            }
            println!(
                "terasem-launch: OK ({} rank(s), {} restart(s))",
                opts.ranks, restarts
            );
            return sem_obs::exit::OK;
        }
        // Restart-all fallback: a dead rank stalls every peer at its
        // next collective, so put the generation down before deciding
        // whether any recovery budget remains.
        kill_all(&mut children);
        if opts.bench_comm {
            eprintln!("terasem-launch: bench run failed");
            return sem_obs::exit::FAILURE;
        }
        restarts += 1;
        if restarts > opts.max_restarts {
            eprintln!(
                "terasem-launch: giving up: recovery budget exhausted \
                 (--max-restarts {}, {} attempt(s) used)",
                opts.max_restarts, restarts
            );
            return EXIT_RESTARTS_EXHAUSTED;
        }
    }
    unreachable!("the generation loop always returns");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_round_trip() {
        let o = parse_args(&strs(&[
            "--ranks", "4", "--steps", "10", "--elems", "3", "--order", "6", "--ckpt-every",
            "2", "--keep-last", "9", "--dir", "/tmp/x", "--kill", "2@7,3@8", "--threads", "1,2",
            "--max-restarts", "5", "--timeout", "12.5", "--telemetry", "--no-rejoin",
        ]))
        .unwrap();
        assert_eq!(o.ranks, 4);
        assert_eq!(o.steps, 10);
        assert_eq!(o.kelem, 3);
        assert_eq!(o.order, 6);
        assert_eq!(o.ckpt_every, 2);
        assert_eq!(o.keep_last, 9);
        assert_eq!(o.dir, PathBuf::from("/tmp/x"));
        assert_eq!(o.kill, vec![(2, 7), (3, 8)]);
        assert_eq!(o.threads, vec![1, 2]);
        assert_eq!(o.max_restarts, 5);
        assert!((o.timeout_secs - 12.5).abs() < 1e-12);
        assert!(!o.bench_comm);
        assert!(o.telemetry);
        assert!(o.no_rejoin);
        let o = parse_args(&strs(&["--kill", "1@4"])).unwrap();
        assert_eq!(o.kill, vec![(1, 4)]);
        assert!(!o.no_rejoin, "rejoin is the default");
    }

    #[test]
    fn bad_args_are_rejected_with_messages() {
        assert!(parse_args(&strs(&["--ranks"])).unwrap_err().contains("value"));
        assert!(parse_args(&strs(&["--ranks", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_args(&strs(&["--kill", "3"]))
            .unwrap_err()
            .contains("RANK@STEP"));
        assert!(parse_args(&strs(&["--kill", "2@7,3"]))
            .unwrap_err()
            .contains("RANK@STEP"));
        assert!(parse_args(&strs(&["--wat"])).unwrap_err().contains("unknown"));
        assert!(parse_args(&strs(&["--help"])).unwrap_err().contains("terasem-launch"));
    }

    /// The satellite guarantee at the launcher level: a partition that
    /// would leave ranks empty is rejected before any process spawns.
    #[test]
    fn over_decomposed_partition_is_rejected_cleanly() {
        let opts = LaunchOpts {
            kelem: 2, // 4 elements
            ranks: 5,
            ..LaunchOpts::default()
        };
        let err = validate_partition(&opts).unwrap_err();
        assert!(err.contains("empty"), "{err}");
        assert!(err.contains("at most 4 ranks"), "{err}");
    }
}
