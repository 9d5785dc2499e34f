//! The `terasem-launch` parent: spawn N rank processes, supervise them,
//! and turn rank deaths into a recoverable fault.
//!
//! The launcher validates the RSB partition *before* spawning anything
//! (an empty rank is a configuration error with a clean message, never a
//! hung job), then supervises one recovery tier. When ranks die, every
//! rank that is no longer running is respawned into the next *epoch*.
//! Survivors enter that epoch in place, so their PIDs are preserved, and
//! every rank of the epoch rewinds to the newest checkpoint generation
//! all ranks hold and replays from there ([`crate::rank`]). Losing one
//! rank or several is the same case.
//!
//! A chaos `--kill` spec is only passed to the first life, mirroring
//! the soak harness, so respawned ranks run clean. The epoch number is
//! the recovery counter: once it reaches `--max-restarts`, the next
//! loss puts every rank down and exits with [`EXIT_RESTARTS_EXHAUSTED`].
//!
//! On success the launcher additionally proves the replicated-compute
//! invariant end-to-end: the final checkpoint files of all ranks must be
//! byte-identical.

use crate::layout::{rank_ckpt_dir, RankLayout};
use crate::rank::{ENV_EPOCH, ENV_KILL, ENV_RANK, ENV_SIZE, ENV_SOCK_DIR, EXIT_CHAOS_KILL};
use sem_mesh::generators::box2d;
use sem_mesh::partition::{cut_edges, partition_rsb, part_sizes, shared_vertices};
use sem_ops::SemOps;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

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
    /// default so pruning can never outrun the newest generation common
    /// to all ranks.
    pub keep_last: usize,
    /// `--dir D`: job directory (per-rank checkpoints, sockets).
    pub dir: PathBuf,
    /// `--kill R@S[,R@S..]`: chaos spec — each listed rank self-kills
    /// after committing the named step (first life only).
    pub kill: Vec<(usize, u64)>,
    /// `--threads a,b,..`: per-rank `TERASEM_THREADS`, cycled. Empty
    /// leaves the children inheriting the launcher's environment.
    pub threads: Vec<usize>,
    /// `--max-restarts R`: recovery budget, counted in epochs (one per
    /// recovery, however many ranks it respawns).
    pub max_restarts: usize,
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
  --max-restarts R recoveries (epochs) allowed       (default 3)
                   each respawns the dead ranks
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

/// Spawn rank `r` into `epoch` on the job's socket directory. The chaos
/// spec is armed only in the launch (epoch 0). The rank's stdin is a
/// pipe whose write end only this process holds: the rank exits when it
/// reads EOF, so no rank outlives the launcher.
fn spawn_rank(
    opts: &LaunchOpts,
    exe: &Path,
    argv: &[String],
    sock_dir: &Path,
    r: usize,
    epoch: u64,
) -> std::io::Result<Child> {
    let mut cmd = Command::new(exe);
    cmd.args(argv)
        .stdin(Stdio::piped())
        .env(ENV_RANK, r.to_string())
        .env(ENV_SIZE, opts.ranks.to_string())
        .env(ENV_SOCK_DIR, sock_dir)
        .env(ENV_EPOCH, epoch.to_string());
    if epoch == 0 && !opts.kill.is_empty() {
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
    // recovery preserved: survivors keep their PIDs.
    println!("terasem-launch: rank {r} pid {}", child.id());
    Ok(child)
}

/// Wait until every child has exited cleanly (`None`) or at least one
/// has failed. After a failure, keep polling through a short grace
/// window so near-simultaneous deaths land in one epoch, then return
/// the `(rank, code)` of every child no longer running. No child is
/// killed or waited on here: `Child::wait` would close the lifeline.
fn supervise(children: &mut [Child]) -> Option<Vec<(usize, i32)>> {
    const GRACE: Duration = Duration::from_millis(300);
    let mut grace_until: Option<Instant> = None;
    loop {
        let exited: Vec<(usize, i32)> = children
            .iter_mut()
            .enumerate()
            .filter_map(|(r, child)| match child.try_wait() {
                Ok(None) => None,
                Ok(Some(st)) => Some((r, st.code().unwrap_or(-1))),
                Err(_) => Some((r, -1)),
            })
            .collect();
        let all_exited = exited.len() == children.len();
        if exited.iter().any(|&(_, code)| code != 0) {
            let until = *grace_until.get_or_insert_with(|| Instant::now() + GRACE);
            if all_exited || Instant::now() >= until {
                return Some(exited);
            }
        } else if all_exited {
            return None;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Put the job down: kill and reap every child still running. The only
/// place a child is waited on, and only after it was killed.
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
        log_line!("terasem-launch: {e}");
        return sem_obs::exit::USAGE;
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            log_line!("terasem-launch: cannot locate own binary: {e}");
            return sem_obs::exit::FAILURE;
        }
    };
    // Every epoch's socket namespace lives under one directory, cleared
    // here so no stale socket file of an earlier job is in the way. So
    // are the rank directories: a recovery resumes the newest generation
    // all ranks hold, which must never be an earlier job's checkpoint.
    let sock_dir = opts.dir.join("sock");
    let _ = std::fs::remove_dir_all(&sock_dir);
    for r in 0..opts.ranks {
        let _ = std::fs::remove_dir_all(rank_ckpt_dir(&opts.dir, r));
    }
    if let Err(e) = std::fs::create_dir_all(&sock_dir) {
        log_line!("terasem-launch: cannot create {}: {e}", sock_dir.display());
        return sem_obs::exit::FAILURE;
    }
    let mut children: Vec<Child> = Vec::with_capacity(opts.ranks);
    let mut epoch = 0u64;
    let mut to_spawn: Vec<usize> = (0..opts.ranks).collect();
    loop {
        for &r in &to_spawn {
            match spawn_rank(opts, &exe, argv, &sock_dir, r, epoch) {
                Ok(child) if r < children.len() => children[r] = child,
                Ok(child) => children.push(child),
                Err(e) => {
                    log_line!("terasem-launch: spawn of rank {r} failed: {e}");
                    kill_all(&mut children);
                    return sem_obs::exit::FAILURE;
                }
            }
        }
        let Some(exited) = supervise(&mut children) else {
            break;
        };
        for &(r, code) in exited.iter().filter(|&&(_, code)| code != 0) {
            let kind = match code {
                EXIT_CHAOS_KILL => "chaos kill",
                7 => "divergence abort",
                8 => "peer lost",
                _ => "failure",
            };
            log_line!("terasem-launch: rank {r} exited with code {code} ({kind})");
        }
        // A dead rank stalls every peer at its next collective: without
        // a recovery the job is over, so put the survivors down too.
        if opts.bench_comm {
            kill_all(&mut children);
            log_line!("terasem-launch: bench run failed");
            return sem_obs::exit::FAILURE;
        }
        if epoch >= opts.max_restarts as u64 {
            kill_all(&mut children);
            log_line!(
                "terasem-launch: giving up: recovery budget exhausted \
                 (--max-restarts {}, {epoch} recovery epoch(s) used)",
                opts.max_restarts
            );
            return EXIT_RESTARTS_EXHAUSTED;
        }
        epoch += 1;
        to_spawn = exited.into_iter().map(|(r, _)| r).collect();
        let list: Vec<String> = to_spawn.iter().map(|r| r.to_string()).collect();
        log_line!(
            "terasem-launch: recovery {epoch}/{}: respawning rank(s) {} into epoch {epoch}",
            opts.max_restarts,
            list.join(", ")
        );
    }
    if !opts.bench_comm {
        if let Err(e) = final_checkpoints_identical(opts) {
            log_line!("terasem-launch: {e}");
            return sem_obs::exit::FAILURE;
        }
        println!(
            "terasem-launch: final checkpoints byte-identical across {} rank(s)",
            opts.ranks
        );
    }
    if opts.telemetry {
        // Rank 0 wrote the merged artifacts into the job dir; their
        // absence after a clean run is a launcher bug.
        for name in [crate::telemetry::RANKS_FILE, crate::telemetry::MERGED_TRACE_FILE] {
            let path = opts.dir.join(name);
            if !path.is_file() {
                log_line!("terasem-launch: telemetry artifact missing: {}", path.display());
                return sem_obs::exit::FAILURE;
            }
            println!("terasem-launch: telemetry artifact: {}", path.display());
        }
    }
    println!(
        "terasem-launch: OK ({} rank(s), {epoch} recovery epoch(s))",
        opts.ranks
    );
    sem_obs::exit::OK
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
            "--max-restarts", "5", "--timeout", "12.5", "--telemetry",
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
        let o = parse_args(&strs(&["--kill", "1@4"])).unwrap();
        assert_eq!(o.kill, vec![(1, 4)]);
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
