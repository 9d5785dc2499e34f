//! `soak`: the sem-run chaos harness — seeded fault storms over the
//! Fig. 3 shear-layer workload, driven through the crash-only run
//! supervisor, asserting the crash-only invariant:
//!
//! > killing a supervised run at any point and restarting it produces
//! > final fields bitwise-identical to the uninterrupted run, at any
//! > `TERASEM_THREADS` setting, and no storm ever leaves a torn
//! > checkpoint or an unusable solver.
//!
//! Three subcommands:
//!
//! * `soak plan --seed S --steps N` — print a randomized-but-seeded
//!   `TERASEM_FAULT` storm covering every fault kind (including the
//!   scalar-targeted and coarse-solve kinds) to stdout.
//! * `soak run --dir D --steps N [--spec PLAN] [--every E]
//!   [--kill-at K]` — one supervised leg: resume from `D` if possible,
//!   run to step N. With `--kill-at K` the process dies (exit 9)
//!   right after step K commits, leaving a deliberately torn
//!   checkpoint and a stray `.tmp` behind — the restart must skip
//!   both. Used by `scripts/soak_smoke.sh` for true cross-process
//!   kill/resume.
//! * `soak auto [--rounds R] [--seed S] [--steps N]` — self-contained
//!   in-process rounds: for each round, run a fresh storm
//!   uninterrupted and killed+resumed — each leg at its own seeded
//!   random `TERASEM_THREADS` override, the resume leg forced onto a
//!   different count than the kill leg — compare the final checkpoints
//!   byte-for-byte, and structurally validate every file the storm
//!   left on disk.

use sem_bench::workloads::{chaos_kill, shear_dye_job};
use sem_linalg::rng::SplitMix64;
use sem_ns::supervisor::checkpoint_path;
use sem_ns::{NsSolver, RunSupervisor};
use sem_obs::exit;
use sem_obs::fault::FaultSite;
use std::path::{Path, PathBuf};

/// A randomized-but-seeded storm: one event per fault kind (every kind
/// in the grammar, the scalar-targeted and coarse kinds included), each
/// on its own random step in `2..=steps`, indefinite kinds occasionally
/// doubled (`x2`) so the ladder must escalate past its first rung.
fn storm_plan(seed: u64, steps: u64) -> String {
    assert!(steps >= 10, "storm needs at least 10 steps to spread over");
    let mut rng = SplitMix64::new(seed ^ 0x5eed_5eed_5eed_5eed);
    let fields = ["nan:u", "inf:v", "nan:p", "nan:t"];
    let kinds = fields.into_iter().chain(FaultSite::ALL.map(FaultSite::name));
    // Sample distinct steps without replacement so at most one event
    // lands per step (keeps every storm ladder-recoverable).
    let mut free: Vec<u64> = (2..=steps).collect();
    let mut events = Vec::new();
    for kind in kinds {
        let at = free.remove((rng.next_u64() as usize) % free.len());
        let reps = if kind.starts_with("indef") && rng.next_u64().is_multiple_of(2) {
            "x2"
        } else {
            ""
        };
        events.push(format!("{kind}@{at}{reps}"));
    }
    events.push(format!("seed={}", rng.next_u64() % 1_000_000));
    events.join(";")
}

/// The soak workload: the shared shear-layer-plus-dye job at smoke
/// scale (4 × 4 elements, N = 6).
fn build_solver(spec: Option<&str>, dir: &Path, every: u64) -> NsSolver {
    shear_dye_job(4, 6, spec, dir, every).unwrap_or_else(|e| {
        eprintln!("soak: {e}");
        std::process::exit(exit::USAGE);
    })
}

/// Structural validation: every `.ckpt` file in `dir` must parse. A
/// storm (or a kill) must never leave a torn file under a valid
/// checkpoint name — torn files may only exist as `.tmp` staging names.
fn assert_no_torn_checkpoints(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("ckpt") {
            continue;
        }
        if let Err(e) = sem_ns::checkpoint::Checkpoint::load(&path) {
            eprintln!(
                "soak: FAIL — torn checkpoint under a valid name: {}: {e}",
                path.display()
            );
            std::process::exit(exit::FAILURE);
        }
    }
}

/// One supervised leg: resume if `dir` has a valid checkpoint, run to
/// `steps`. `kill_at` dies hard (exit 9) after that step commits,
/// leaving a torn decoy checkpoint + a stray staging file behind.
fn run_leg(spec: Option<&str>, dir: &Path, steps: u64, every: u64, kill_at: Option<u64>) {
    let mut sup = RunSupervisor::new(build_solver(spec, dir, every));
    match sup.resume_from_latest() {
        Ok(Some(at)) => eprintln!("soak: resumed from checkpoint at step {at}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("soak: checkpoint scan failed: {e}");
            std::process::exit(exit::FAILURE);
        }
    }
    if let Some(k) = kill_at {
        if (sup.solver().step_index as u64) < k {
            if let Err(e) = sup.run_to(k) {
                eprintln!("soak: FAIL — storm not recovered before the kill point: {e}");
                std::process::exit(exit::FAILURE);
            }
            let line = format!("soak: killed at step {k} (torn decoy + stray .tmp left behind)");
            chaos_kill(dir, k, &line);
        }
    }
    match sup.run_to(steps) {
        Ok(report) => {
            let recovered = report.steps.iter().filter(|st| st.recoveries > 0).count();
            eprintln!(
                "soak: leg complete at step {} ({} recovered step(s), {} checkpoint(s))",
                steps, recovered, report.checkpoints_written
            );
            println!(
                "soak: final checkpoint {}",
                checkpoint_path(dir, steps).display()
            );
        }
        Err(e) => {
            eprintln!("soak: FAIL — run gave up: {e}");
            std::process::exit(exit::FAILURE);
        }
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terasem_soak_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Self-contained chaos rounds: storm, kill mid-run, resume, compare
/// against the uninterrupted run byte-for-byte.
fn run_auto(rounds: u64, seed: u64, steps: u64) {
    for round in 0..rounds {
        let plan = storm_plan(seed.wrapping_add(round), steps);
        let mut rng = SplitMix64::new(seed.wrapping_add(round) ^ 0xc4a0_5c4a_05c4_a05c);
        let every = 2 + rng.next_u64() % 3;
        let kill = 2 + rng.next_u64() % (steps - 3);
        // Randomize parallelism per leg (ROADMAP carry-over): every leg
        // runs at its own seeded TERASEM_THREADS override, and the
        // resume leg is forced onto a *different* count than the kill
        // leg — the crash-only byte-compare below then also pins that
        // results are thread-count independent across a restart.
        let t_ref = 1 + (rng.next_u64() % 4) as usize;
        let t_kill = 1 + (rng.next_u64() % 4) as usize;
        let mut t_resume = 1 + (rng.next_u64() % 4) as usize;
        if t_resume == t_kill {
            t_resume = t_kill % 4 + 1;
        }
        eprintln!(
            "soak: round {round}: storm {plan:?}, checkpoint every {every}, kill at {kill}, \
             threads ref/kill/resume = {t_ref}/{t_kill}/{t_resume}"
        );
        let ref_dir = scratch(&format!("ref_{round}"));
        let chaos_dir = scratch(&format!("chaos_{round}"));
        // Uninterrupted reference.
        sem_comm::par::with_threads(t_ref, || {
            let mut reference = RunSupervisor::new(build_solver(Some(&plan), &ref_dir, every));
            reference
                .run_to(steps)
                .unwrap_or_else(|e| panic!("round {round}: reference run gave up: {e}"));
        });
        // Killed + resumed chaos leg.
        sem_comm::par::with_threads(t_kill, || {
            let mut first = RunSupervisor::new(build_solver(Some(&plan), &chaos_dir, every));
            first
                .run_to(kill)
                .unwrap_or_else(|e| panic!("round {round}: pre-kill leg gave up: {e}"));
        });
        let intact = std::fs::read(checkpoint_path(&chaos_dir, kill)).unwrap();
        std::fs::write(
            checkpoint_path(&chaos_dir, kill + 1),
            &intact[..intact.len() / 3],
        )
        .unwrap();
        sem_comm::par::with_threads(t_resume, || {
            let mut second = RunSupervisor::new(build_solver(Some(&plan), &chaos_dir, every));
            let at = second.resume_from_latest().expect("scan ok");
            assert_eq!(at, Some(kill), "round {round}: must skip the torn decoy");
            second
                .run_to(steps)
                .unwrap_or_else(|e| panic!("round {round}: resumed leg gave up: {e}"));
        });
        // The crash-only invariant, byte for byte.
        let a = std::fs::read(checkpoint_path(&ref_dir, steps)).unwrap();
        let b = std::fs::read(checkpoint_path(&chaos_dir, steps)).unwrap();
        assert_eq!(
            a, b,
            "round {round}: resumed final checkpoint differs from the uninterrupted run"
        );
        assert_no_torn_checkpoints(&ref_dir);
        // The decoy was pruned or skipped; every surviving real file must load.
        let _ = std::fs::remove_file(checkpoint_path(&chaos_dir, kill + 1));
        assert_no_torn_checkpoints(&chaos_dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&chaos_dir);
        eprintln!("soak: round {round}: OK (bitwise-identical resume)");
    }
    println!("soak: OK — {rounds} round(s), crash-only invariant held");
}

fn usage() -> ! {
    eprintln!("usage: soak plan --seed S --steps N");
    eprintln!("       soak run  --dir D --steps N [--spec PLAN] [--every E] [--kill-at K]");
    eprintln!("       soak auto [--rounds R] [--seed S] [--steps N]");
    std::process::exit(exit::USAGE);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("auto");
    let get = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let num = |flag: &str, default: u64| -> u64 {
        get(flag).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("soak: {flag} wants an integer, got {v:?}");
                std::process::exit(exit::USAGE);
            })
        })
    };
    match mode {
        "plan" => println!("{}", storm_plan(num("--seed", 42), num("--steps", 14))),
        "run" => {
            let Some(dir) = get("--dir") else { usage() };
            let steps = num("--steps", 14);
            let every = num("--every", 3);
            let kill_at = get("--kill-at").map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("soak: --kill-at wants an integer, got {v:?}");
                    std::process::exit(exit::USAGE);
                })
            });
            run_leg(get("--spec"), Path::new(dir), steps, every, kill_at);
        }
        "auto" => run_auto(num("--rounds", 3), num("--seed", 42), num("--steps", 14)),
        _ => usage(),
    }
}
