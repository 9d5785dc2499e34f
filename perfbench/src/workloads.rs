//! The benchmark's workloads: their inputs, the seeded initial
//! conditions, and one closed-loop repetition (build → fixed step count
//! → final state), each step starting when the previous one returned.

use crate::gate;
use sem_bench::workloads::{hairpin_channel, rayleigh_benard, shear_layer};
use sem_linalg::rng::SplitMix64;
use sem_mesh::generators::BumpChannelParams;
use sem_ns::{NsSolver, RecoveryPolicy, RunPolicy, RunSupervisor, StepStats};
use sem_obs::counters::{self, CounterSnapshot};
use sem_obs::sink::{FileSink, SinkHandle};
use sem_obs::spans::{self, Phase, NUM_PHASES};
use std::collections::BTreeMap;
use std::f64::consts::PI;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A named workload. Each runs in its own process, because `sem_obs`
/// enablement and the thread count are process-global.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 8 substitute: a 3D OIFS step on deformed hexes, 1 thread.
    Hairpin,
    /// The Fig. 4 substitute: 2D EXT + Boussinesq, 2 threads.
    RayleighBenard,
    /// A Fig. 3 shear-layer job configured as `sem-serve` runs one.
    ShearService,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Hairpin,
        Workload::RayleighBenard,
        Workload::ShearService,
    ];

    /// The name the benchmark command takes (`--workload <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hairpin => "hairpin",
            Workload::RayleighBenard => "rayleigh-benard",
            Workload::ShearService => "shear-service",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads for the whole process. Rayleigh–Bénard runs on two
    /// so that `comm::par` fork/join is on its path; the other two take
    /// the serial fast path (the paper's single-processor mode).
    pub fn threads(self) -> usize {
        match self {
            Workload::RayleighBenard => 2,
            Workload::Hairpin | Workload::ShearService => 1,
        }
    }

    /// Steps of one repetition: a run to a fixed step count from the
    /// initial condition (Table 4's time to solution; the hairpin's 26
    /// are Fig. 8's). Rayleigh–Bénard accelerates and diverges near step
    /// 205, so its window ends at 50.
    pub fn steps(self) -> u64 {
        match self {
            Workload::Hairpin => 26,
            Workload::RayleighBenard => 50,
            Workload::ShearService => 30,
        }
    }
}

/// The hairpin mesh parameters, as `sem_bench::workloads::hairpin_channel`
/// fixes them (the per-layer mesh build replays the generator with them;
/// a self-test pins the two against each other).
pub const HAIRPIN_MESH: BumpChannelParams = BumpChannelParams {
    k: [8, 3, 4],
    l: [8.0, 2.0, 4.0],
    bump_height: 0.25,
    bump_center: [2.0, 2.0],
    bump_radius: 0.6,
    wall_growth: 0.75,
};
/// Hairpin polynomial order.
pub const HAIRPIN_N: usize = 5;
/// Rayleigh–Bénard elements (x, y).
pub const RB_ELEMS: [usize; 2] = [16, 8];
/// Rayleigh–Bénard polynomial order.
pub const RB_N: usize = 7;

/// The `shear-service` job, in the terms of a `sem-submit` spec.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Elements per side of the periodic square.
    pub elems: usize,
    /// Polynomial order.
    pub order: usize,
    /// Checkpoint every this many committed steps.
    pub every: u64,
    /// Checkpoints retained.
    pub keep: usize,
}

/// The benchmarked job: Fig. 3's 16×16, N = 8 shear layer.
pub const SERVICE_JOB: Job = Job {
    elems: 16,
    order: 8,
    every: 3,
    keep: 3,
};

/// Amplitude of the seeded velocity perturbation (flow scale 1).
const VEL_EPS: f64 = 1e-3;
/// Amplitude of the seeded Rayleigh–Bénard velocity and temperature
/// perturbations: 1% of the workload's own 0.01 convection trigger, as
/// the convective instability amplifies whatever it is seeded with.
const RB_EPS: f64 = 1e-4;

/// A smooth seeded perturbation: per channel (u, v, w, T) three Fourier
/// modes with small integer wavenumbers, so it is periodic wherever the
/// domain is. Values lie in [−1, 1].
pub struct Perturbation {
    modes: [[[f64; 5]; 3]; 4],
}

impl Perturbation {
    /// The perturbation of `seed`; equal seeds give equal fields.
    pub fn new(seed: u64) -> Perturbation {
        let mut rng = SplitMix64::new(seed);
        let mut modes = [[[0.0; 5]; 3]; 4];
        for channel in modes.iter_mut() {
            for m in channel.iter_mut() {
                let mut k = [0.0; 3];
                for kd in k.iter_mut() {
                    *kd = rng.range(0, 3) as f64;
                }
                if k == [0.0; 3] {
                    k[0] = 1.0;
                }
                let phase = rng.uniform(0.0, 2.0 * PI);
                let amp = rng.uniform(-1.0, 1.0) / 3.0;
                *m = [k[0], k[1], k[2], phase, amp];
            }
        }
        Perturbation { modes }
    }

    /// Channel `ch` at coordinates `q` scaled to the periodic unit box.
    pub fn at(&self, ch: usize, q: [f64; 3]) -> f64 {
        self.modes[ch]
            .iter()
            .map(|[kx, ky, kz, phase, amp]| {
                amp * (2.0 * PI * (kx * q[0] + ky * q[1] + kz * q[2]) + phase).sin()
            })
            .sum()
    }
}

/// Height of the hairpin channel's bottom wall (the Gaussian bump).
fn hairpin_wall(x: f64, z: f64) -> f64 {
    let p = HAIRPIN_MESH;
    let rad2 = p.bump_radius * p.bump_radius;
    let (cx, cz) = (p.bump_center[0], p.bump_center[1]);
    p.bump_height * p.l[1] * (-((x - cx).powi(2) + (z - cz).powi(2)) / rad2).exp()
}

/// The hairpin initial velocity (impulsively started boundary layer),
/// as `hairpin_channel` sets it.
pub fn hairpin_velocity(x: f64, y: f64, z: f64) -> [f64; 3] {
    let eta = (y - hairpin_wall(x, z)).max(0.0);
    [(1.0 - (-eta / 0.5).exp()).clamp(0.0, 1.0), 0.0, 0.0]
}

/// The Fig. 3 shear-layer initial velocity, as `shear_layer` sets it.
pub fn shear_velocity(x: f64, y: f64) -> [f64; 3] {
    let rho = 30.0;
    let u = if y <= 0.5 {
        (rho * (y - 0.25)).tanh()
    } else {
        (rho * (0.75 - y)).tanh()
    };
    [u, 0.05 * (2.0 * PI * x).sin(), 0.0]
}

/// The Rayleigh–Bénard initial temperature, as `rayleigh_benard` sets it.
pub fn rb_temperature(x: f64, y: f64) -> f64 {
    (1.0 - y) + 0.01 * (PI * x).sin() * (PI * y).sin()
}

/// A workload's solver, ready to step.
pub enum Runner {
    /// A plain `NsSolver::step` loop.
    Loop(Box<NsSolver>),
    /// A supervised service job.
    Service(Box<RunSupervisor>),
}

impl Runner {
    /// The solver (its live fields are what the gate and replays read).
    pub fn solver(&self) -> &NsSolver {
        match self {
            Runner::Loop(s) => s,
            Runner::Service(sup) => sup.solver(),
        }
    }
}

/// Checkpoint directory of a service job directory.
pub fn ckpt_dir(job_dir: &Path) -> PathBuf {
    job_dir.join("ckpt")
}

/// Step-record log of a service job directory.
pub fn records_path(job_dir: &Path) -> PathBuf {
    job_dir.join("metrics.jsonl")
}

/// Build the workload's solver from its generated inputs: mesh,
/// `SemOps`, `NsSolver::new`, initial fields and (for the service) the
/// supervisor. This is what `setup_s` times. `dir` is the job directory
/// of the service and unused otherwise.
pub fn build(w: Workload, p: &Perturbation, dir: &Path) -> io::Result<Runner> {
    match w {
        Workload::Hairpin => {
            let mut s = hairpin_channel(HAIRPIN_MESH.k, HAIRPIN_N, 4e-3, 25);
            let [lx, ly, lz] = HAIRPIN_MESH.l;
            s.set_velocity(|x, y, z| {
                // Vanishes on the Dirichlet faces (inflow, outflow, bump
                // wall, top); periodic in z.
                let yw = hairpin_wall(x, z);
                let env =
                    VEL_EPS * (PI * x / lx).sin() * (PI * (y - yw).max(0.0) / (ly - yw)).sin();
                let q = [x / lx, y / ly, z / lz];
                let base = hairpin_velocity(x, y, z);
                [
                    base[0] + env * p.at(0, q),
                    env * p.at(1, q),
                    env * p.at(2, q),
                ]
            });
            Ok(Runner::Loop(Box::new(s)))
        }
        Workload::RayleighBenard => {
            let [kx, ky] = RB_ELEMS;
            let mut s = rayleigh_benard(kx, ky, RB_N, 1e5, 0.71, 26, 2e-4, 1e-7);
            // x ∈ [0, 2] periodic, no-slip isothermal walls at y = 0, 1.
            s.set_velocity(|x, y, _| {
                let env = RB_EPS * (PI * y).sin();
                let q = [x / 2.0, y, 0.0];
                [env * p.at(0, q), env * p.at(1, q), 0.0]
            });
            s.set_temperature(|x, y, _| {
                let q = [x / 2.0, y, 0.0];
                rb_temperature(x, y) + RB_EPS * (PI * y).sin() * p.at(3, q)
            });
            Ok(Runner::Loop(Box::new(s)))
        }
        Workload::ShearService => Ok(Runner::Service(Box::new(service(SERVICE_JOB, p, dir)?))),
    }
}

/// A shear-layer job configured the way `sem_serve::worker` builds and
/// starts one (`build_solver`, then `RunSupervisor::new` and
/// `resume_from_latest`), plus the arms a production job keeps on: the
/// recovery ladder (with no faults planned), compressed checkpoints with
/// retention, and step records to a file sink. `sem-serve` depends on
/// `sem-bench`, so this mirrors the worker instead of calling it.
pub fn service(job: Job, p: &Perturbation, dir: &Path) -> io::Result<RunSupervisor> {
    std::fs::create_dir_all(dir)?;
    let mut s = shear_layer(job.elems, job.order, 30.0, 1e5, 0.3, 0.002);
    s.set_velocity(|x, y, _| {
        let base = shear_velocity(x, y);
        let q = [x, y, 0.0];
        [
            base[0] + VEL_EPS * p.at(0, q),
            base[1] + VEL_EPS * p.at(1, q),
            0.0,
        ]
    });
    s.add_scalar("dye", 1e-3, |x, y, _| {
        (2.0 * PI * x).sin() * (2.0 * PI * y).cos()
    });
    s.cfg.recovery = RecoveryPolicy::enabled();
    s.cfg.run = RunPolicy {
        compress: true,
        ..RunPolicy::checkpointing(ckpt_dir(dir), job.every, job.keep)
    };
    s.cfg.metrics = true;
    s.cfg.rank = Some(1);
    let records = records_path(dir);
    let sink = FileSink::append(records.to_str().expect("job directory paths are UTF-8"))?;
    s.cfg.sink = Some(SinkHandle::new(sink));
    // A worker switches the process-global counters and spans on.
    sem_obs::set_enabled(true);
    let mut sup = RunSupervisor::new(s);
    sup.resume_from_latest()?;
    Ok(sup)
}

/// Everything one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// Seconds to build the solver (a `setup_s` sample).
    pub setup_s: f64,
    /// Seconds from the first step call to the return of the last step
    /// (for the service: of `run_to_with`, exit checkpoint included).
    pub run_s: f64,
    /// Per-step wall seconds as the caller sees them (for the service,
    /// the gap between observer calls).
    pub step_s: Vec<f64>,
    /// The solver's statistics of every committed step.
    pub stats: Vec<StepStats>,
    /// Steps attempted.
    pub attempted: u64,
    /// Steps that errored, did not commit, or did not converge — or all
    /// of them when the final state failed the gate.
    pub failed: u64,
    /// Supervisor seconds: `run_to_with` wall − Σ `StepStats.seconds`.
    pub supervisor_s: f64,
    /// `(step, bytes)` of every checkpoint committed.
    pub checkpoints: Vec<(u64, u64)>,
    /// `.tmp` staging files left in the checkpoint directory.
    pub stray_tmp: usize,
    /// Bytes of step records written.
    pub record_bytes: u64,
    /// Inclusive `sem_obs` phase seconds over the stepping window.
    pub phase_s: [f64; NUM_PHASES],
    /// `sem_obs` phase call counts over the stepping window.
    pub phase_calls: [u64; NUM_PHASES],
    /// `sem_obs` counter deltas over the stepping window.
    pub counters: CounterSnapshot,
    /// The final state the gate measured.
    pub state: gate::FinalState,
    /// Why the gate rejected the final state (`None`: accepted).
    pub rejected: Option<String>,
}

/// Record every well-named checkpoint of `dir` not seen before; returns
/// the number of `.tmp` staging files present.
fn scan_checkpoints(dir: &Path, seen: &mut BTreeMap<u64, u64>) -> usize {
    let mut tmp = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tmp") {
            tmp += 1;
        }
        let step = name
            .strip_prefix("ckpt_")
            .and_then(|r| r.strip_suffix(".ckpt"))
            .and_then(|d| d.parse::<u64>().ok());
        if let (Some(step), Ok(meta)) = (step, entry.metadata()) {
            seen.entry(step).or_insert(meta.len());
        }
    }
    tmp
}

/// Step the runner to `steps` committed steps, timing each step.
pub fn drive(runner: &mut Runner, steps: u64, dir: &Path) -> Rep {
    let mut rep = Rep {
        attempted: steps,
        ..Rep::default()
    };
    let c0 = counters::snapshot();
    let s0 = spans::span_snapshot();
    let t0 = Instant::now();
    match runner {
        Runner::Loop(s) => {
            for _ in 0..steps {
                let t = Instant::now();
                match s.step() {
                    Ok(st) => {
                        rep.step_s.push(t.elapsed().as_secs_f64());
                        rep.stats.push(st);
                    }
                    Err(e) => {
                        eprintln!("perfbench: step failed: {e}");
                        break;
                    }
                }
            }
            rep.run_s = t0.elapsed().as_secs_f64();
        }
        Runner::Service(sup) => {
            let ck = ckpt_dir(dir);
            let mut seen = BTreeMap::new();
            let mut last = t0;
            let step_s = &mut rep.step_s;
            let verdict = sup.run_to_with(steps, |_, _| {
                let now = Instant::now();
                step_s.push((now - last).as_secs_f64());
                last = now;
                scan_checkpoints(&ck, &mut seen);
                Ok(())
            });
            rep.run_s = t0.elapsed().as_secs_f64();
            rep.stray_tmp = scan_checkpoints(&ck, &mut seen);
            rep.checkpoints = seen.into_iter().collect();
            rep.stats = match verdict {
                Ok(report) => report.steps,
                Err(e) => {
                    eprintln!("perfbench: service run gave up: {e}");
                    e.report.steps
                }
            };
            let solver_s: f64 = rep.stats.iter().map(|st| st.seconds).sum();
            rep.supervisor_s = rep.run_s - solver_s;
            rep.record_bytes = std::fs::metadata(records_path(dir)).map_or(0, |m| m.len());
        }
    }
    let dspans = spans::span_snapshot().delta(&s0);
    for p in Phase::ALL {
        rep.phase_s[p as usize] = dspans.seconds(p);
        rep.phase_calls[p as usize] = dspans.calls(p);
    }
    rep.counters = counters::snapshot().delta(&c0);
    let cfg = &runner.solver().cfg;
    let unconverged = rep
        .stats
        .iter()
        .filter(|st| !gate::solves_converged(st, cfg))
        .count() as u64;
    rep.failed = steps.saturating_sub(rep.stats.len() as u64) + unconverged;
    rep
}

/// One repetition in job directory `dir`: build (timed), drive, gate.
/// Returns the runner too, so a traced run can replay kernels on its
/// live fields.
pub fn run_rep(w: Workload, seed: u64, dir: &Path) -> io::Result<(Rep, Runner)> {
    let p = Perturbation::new(seed);
    let t = Instant::now();
    let mut runner = build(w, &p, dir)?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut rep = drive(&mut runner, w.steps(), dir);
    rep.setup_s = setup_s;
    let (state, verdict) = gate::check(w, &runner, &rep, dir, || {
        service(SERVICE_JOB, &p, &dir.join("restore"))
    });
    rep.state = state;
    if let Err(why) = verdict {
        rep.rejected = Some(why);
        rep.failed = rep.attempted;
    }
    Ok((rep, runner))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh scratch directory inside the benchmark's work area.
    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("selftest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn workload_names_round_trip_and_are_well_formed() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::well_formed_name(w.name()), "{}", w.name());
        }
        assert_eq!(Workload::parse("fig8"), None);
    }

    #[test]
    fn mirrored_inputs_match_the_shared_builders() {
        let s = hairpin_channel(HAIRPIN_MESH.k, HAIRPIN_N, 4e-3, 25);
        let (_, geo) = sem_mesh::generators::bump_channel3d(HAIRPIN_MESH, HAIRPIN_N);
        assert_eq!(geo.y, s.ops.geo.y, "hairpin mesh parameters drifted");
        let g = &s.ops.geo;
        for i in 0..s.ops.n_velocity() {
            assert_eq!(hairpin_velocity(g.x[i], g.y[i], g.z[i])[0], s.vel[0][i]);
        }
        let s = shear_layer(4, 5, 30.0, 1e5, 0.3, 0.002);
        let g = &s.ops.geo;
        for i in 0..s.ops.n_velocity() {
            let v = shear_velocity(g.x[i], g.y[i]);
            assert_eq!((v[0], v[1]), (s.vel[0][i], s.vel[1][i]));
        }
        let s = rayleigh_benard(4, 2, 4, 1e5, 0.71, 26, 2e-4, 1e-7);
        let g = &s.ops.geo;
        for ((&x, &y), &t) in g.x.iter().zip(&g.y).zip(s.temp.as_ref().unwrap()) {
            assert_eq!(rb_temperature(x, y), t);
        }
    }

    #[test]
    fn a_seed_reproduces_its_iteration_counts() {
        let dir = scratch("seed");
        let run = |seed| {
            let mut r = build(Workload::RayleighBenard, &Perturbation::new(seed), &dir).unwrap();
            let rep = drive(&mut r, 3, &dir);
            let iters: Vec<(usize, Vec<usize>, usize)> = rep
                .stats
                .iter()
                .map(|st| (st.pressure_iters, st.helmholtz_iters.clone(), st.temp_iters))
                .collect();
            (iters, r.solver().temp.clone().unwrap())
        };
        let (a, ta) = run(7);
        let (b, tb) = run(7);
        assert_eq!(a, b, "same seed, different iteration counts");
        assert_eq!(ta, tb, "same seed, different temperature");
        let (_, tc) = run(8);
        assert_ne!(ta, tc, "the seed does not reach the inputs");
    }

    #[test]
    fn the_service_checkpoints_only_at_its_cadence() {
        let dir = scratch("cadence");
        let job = Job {
            elems: 3,
            order: 4,
            every: 3,
            keep: 3,
        };
        let sup = service(job, &Perturbation::new(1), &dir).unwrap();
        let mut r = Runner::Service(Box::new(sup));
        let rep = drive(&mut r, 7, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(rep.stats.len(), 7);
        let steps: Vec<u64> = rep.checkpoints.iter().map(|&(s, _)| s).collect();
        // Periodic at 3 and 6, then the exit checkpoint at 7.
        assert_eq!(steps, vec![3, 6, 7]);
        assert!(rep.checkpoints.iter().all(|&(_, bytes)| bytes > 0));
        assert_eq!(rep.stray_tmp, 0);
        assert_eq!(rep.step_s.len(), 7);
        assert!(rep.record_bytes > 0, "a service job writes step records");
    }
}
