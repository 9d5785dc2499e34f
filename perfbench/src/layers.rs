//! The traced run: per-layer metrics. Untraced and traced repetitions
//! alternate (pairs share host conditions); the traced ones run with the
//! `sem_obs` counters and phase spans on and are read through their
//! phase self times and counter deltas. The benchmark also times its own
//! calls into each layer's builders and, after the timed steps, replays
//! single calls of the hot kernels on the last run's live fields.

use crate::stats::{mean, median};
use crate::workloads::{self, Rep, Runner, Workload, HAIRPIN_MESH, HAIRPIN_N};
use crate::{metric, Metric};
use sem_bench::timing::BenchGroup;
use sem_comm::par::par_for_each_init;
use sem_linalg::mxm::{mxm, mxm_flops};
use sem_linalg::rng::SplitMix64;
use sem_mesh::generators::{box2d, bump_channel3d};
use sem_mesh::Geometry;
use sem_ns::NsSolver;
use sem_obs::counters::{Counter, CounterSnapshot};
use sem_obs::spans::{Phase, NUM_PHASES};
use sem_ops::convect::convect;
use sem_ops::laplace::helmholtz_local;
use sem_ops::pressure::EOperator;
use sem_ops::SemOps;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Builder timings taken per traced run (the medians are reported).
const BUILD_SAMPLES: usize = 5;
/// Checkpoint writes replayed per traced run.
const CHECKPOINT_SAMPLES: usize = 5;

/// Single-call replays on the live fields, seconds per call.
#[derive(Default)]
pub struct Replays {
    pub e_apply_s: f64,
    pub helmholtz_s: f64,
    pub convect_s: f64,
    pub dssum_s: f64,
    pub mxm_gflops: f64,
    /// Empty fork/join region at the workload's thread count (0 at one
    /// thread: the serial fast path opens no region).
    pub fork_join_s: f64,
    /// Checkpoint capture + compressed write (service only).
    pub checkpoint_write_s: f64,
}

/// Everything a traced run measured.
#[derive(Default)]
pub struct Traced {
    /// Mesh generator + geometry, `SemOps`, `NsSolver::new` seconds.
    pub builds: [Vec<f64>; 3],
    /// Repetitions with the probes off (the service keeps its records).
    pub untraced: Vec<Rep>,
    /// Repetitions with the `sem_obs` counters and spans on.
    pub traced: Vec<Rep>,
    pub replays: Replays,
    /// `mxm` rate on the Table-3 16×14×16 shape, before the workload.
    pub host_ref_gflops: f64,
    /// The workload runs under a supervisor (its own step timings then
    /// include checkpoint work between steps).
    pub supervised: bool,
}

/// GFLOPS of `mxm` on an `n1×n2` by `n2×n3` product.
fn mxm_gflops(g: &mut BenchGroup, n1: usize, n2: usize, n3: usize) -> f64 {
    let mut rng = SplitMix64::new(0x5eed);
    let a = rng.vec(n1 * n2, -1.0, 1.0);
    let b = rng.vec(n2 * n3, -1.0, 1.0);
    let mut c = vec![0.0; n1 * n3];
    let flops = mxm_flops(n1, n2, n3);
    let s = g.throughput(&format!("mxm_{n1}x{n2}x{n3}"), flops, || {
        mxm(black_box(&a), n1, n2, black_box(&b), n3, &mut c);
        black_box(&mut c);
    });
    flops as f64 / s.median / 1e9
}

/// Time the three layer builders on the workload's inputs: mesh
/// generator + geometry, `SemOps::with_geometry`, `NsSolver::new`.
fn build_layers(w: Workload, like: &NsSolver) -> [f64; 3] {
    let mut cfg = like.cfg.clone();
    // Records and their sink are the service's business, not the build's.
    cfg.metrics = false;
    cfg.sink = None;
    let t = Instant::now();
    let (mesh, geo) = match w {
        Workload::Hairpin => bump_channel3d(HAIRPIN_MESH, HAIRPIN_N),
        Workload::RayleighBenard => {
            let [kx, ky] = workloads::RB_ELEMS;
            let mesh = box2d(kx, ky, [0.0, 2.0], [0.0, 1.0], true, false);
            let geo = Geometry::new(&mesh, workloads::RB_N);
            (mesh, geo)
        }
        Workload::ShearService => {
            let k = workloads::SERVICE_JOB.elems;
            let mesh = box2d(k, k, [0.0, 1.0], [0.0, 1.0], true, true);
            let geo = Geometry::new(&mesh, workloads::SERVICE_JOB.order);
            (mesh, geo)
        }
    };
    let mesh_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ops = SemOps::with_geometry(mesh, geo);
    let ops_s = t.elapsed().as_secs_f64();
    assert_eq!(
        ops.geo.x, like.ops.geo.x,
        "the per-layer build diverged from the workload's mesh"
    );
    let t = Instant::now();
    let s = NsSolver::new(ops, cfg);
    let ns_s = t.elapsed().as_secs_f64();
    drop(black_box(s));
    [mesh_s, ops_s, ns_s]
}

/// Replay single calls of the hot kernels on the live fields of `s`.
fn replay(s: &NsSolver, threads: usize, checkpoint_to: Option<&Path>) -> io::Result<Replays> {
    let ops = &s.ops;
    let n = ops.n_velocity();
    let dim = ops.geo.dim;
    let mut g = BenchGroup::new("perfbench");
    let mut r = Replays::default();

    let mut e = EOperator::new(ops);
    let mut ep = vec![0.0; ops.n_pressure()];
    r.e_apply_s = g
        .bench("e_apply", || e.apply(ops, black_box(&s.pressure), &mut ep))
        .median;

    // The velocity Helmholtz operator at the BDF2 shift.
    let h2 = 1.5 / s.cfg.dt;
    let mut out = vec![0.0; n];
    r.helmholtz_s = g
        .bench("helmholtz_local", || {
            helmholtz_local(ops, black_box(&s.vel[0]), &mut out, s.cfg.nu, h2)
        })
        .median;

    let refs: Vec<&[f64]> = s.vel.iter().map(|c| c.as_slice()).collect();
    let mut grad = vec![vec![0.0; n]; dim];
    r.convect_s = g
        .bench("convect", || {
            convect(ops, &refs, black_box(&s.vel[0]), &mut out, &mut grad)
        })
        .median;

    // dssum multiplies shared nodes by their multiplicity; refresh the
    // field every 64 calls, long before repeated sums could overflow.
    let mut field = s.vel[0].clone();
    let mut calls = 0u32;
    r.dssum_s = g
        .bench("dssum_mask", || {
            if calls.is_multiple_of(64) {
                field.copy_from_slice(&s.vel[0]);
            }
            calls += 1;
            ops.dssum_mask(black_box(&mut field));
        })
        .median;

    // The element tensor contraction shape: (N+1) × (N+1) × (N+1)^{d−1}.
    let nx = ops.geo.nx;
    r.mxm_gflops = mxm_gflops(&mut g, nx, nx, nx.pow(dim as u32 - 1));

    if threads > 1 {
        let mut items = vec![0u8; ops.k()];
        r.fork_join_s = g
            .bench("fork_join", || {
                par_for_each_init(
                    &mut items,
                    || (),
                    |_, _, item| {
                        black_box(item);
                    },
                )
            })
            .median;
    }

    if let Some(dir) = checkpoint_to {
        let path = dir.join("replay.ckpt");
        let mut times = Vec::with_capacity(CHECKPOINT_SAMPLES);
        for _ in 0..CHECKPOINT_SAMPLES {
            let t = Instant::now();
            s.checkpoint().save_with(&path, true)?;
            times.push(t.elapsed().as_secs_f64());
        }
        r.checkpoint_write_s = median(&times);
    }
    Ok(r)
}

/// The traced run: at least two untraced/traced pairs and `seconds` of
/// them, then builder timings and replays. Job directories live in `dir`.
pub fn run(w: Workload, seed: u64, seconds: f64, dir: &Path) -> io::Result<Traced> {
    let mut g = BenchGroup::new("perfbench");
    let mut t = Traced {
        host_ref_gflops: mxm_gflops(&mut g, 16, 14, 16),
        supervised: w == Workload::ShearService,
        ..Traced::default()
    };
    let t0 = Instant::now();
    let mut last: Option<Runner> = None;
    let mut n = 0;
    while t.traced.len() < 2 || (t0.elapsed().as_secs_f64() < seconds && !crate::overdue(t0)) {
        for traced in [false, true] {
            sem_obs::set_enabled(traced);
            let job = dir.join(format!("rep{n}"));
            n += 1;
            let (rep, runner) = workloads::run_rep(w, seed, &job)?;
            let _ = std::fs::remove_dir_all(&job);
            if traced {
                t.traced.push(rep);
                last = Some(runner);
            } else {
                t.untraced.push(rep);
            }
        }
    }
    // Builders and kernels are timed as production runs them.
    sem_obs::set_enabled(false);
    let runner = last.expect("at least two traced repetitions ran");
    let s = runner.solver();
    for _ in 0..BUILD_SAMPLES {
        for (samples, v) in t.builds.iter_mut().zip(build_layers(w, s)) {
            samples.push(v);
        }
    }
    t.replays = replay(s, w.threads(), t.supervised.then_some(dir))?;
    Ok(t)
}

fn med(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// `100·(a/b − 1)`, or 0 without a base.
fn pct(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        100.0 * (a / b - 1.0)
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run ("/step" is the mean over the
/// traced repetitions' steps).
pub fn metrics(t: &Traced) -> Vec<Metric> {
    let reps = &t.traced;
    let stats: Vec<_> = reps.iter().flat_map(|r| r.stats.iter()).collect();
    let steps = stats.len().max(1) as f64;
    let mut incl = [0.0; NUM_PHASES];
    let mut counters = CounterSnapshot::default();
    for r in reps {
        for (acc, v) in incl.iter_mut().zip(r.phase_s) {
            *acc += v;
        }
        counters.merge(&r.counters);
    }
    // Self time: inclusive minus the phases nested directly inside.
    let own = |p: Phase| {
        let children: f64 = Phase::ALL
            .iter()
            .filter(|c| c.parent() == Some(p))
            .map(|&c| incl[c as usize])
            .sum();
        incl[p as usize] - children
    };
    let ms = |secs: f64| 1e3 * secs / steps;
    let per_step = |c: Counter| counters.get(c) as f64 / steps;
    let avg =
        |f: &dyn Fn(&sem_ns::StepStats) -> f64| stats.iter().map(|s| f(s)).sum::<f64>() / steps;
    let caller_step_s: f64 = reps.iter().flat_map(|r| r.step_s.iter()).sum();
    let solver_step_s: f64 = stats.iter().map(|s| s.seconds).sum();
    let pressure_solves: u64 = reps
        .iter()
        .map(|r| r.phase_calls[Phase::PressureCg as usize])
        .sum();
    let kept = if pressure_solves > 0 {
        1.0 - counters.get(Counter::ProjectionDropped) as f64 / pressure_solves as f64
    } else {
        0.0
    };
    let ckpt_bytes: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.checkpoints.iter().map(|&(_, b)| b as f64))
        .collect();
    let run_s = |reps: &[Rep]| med(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    // On the service the caller's step timings also hold the checkpoint
    // work between steps (ns.supervisor_ms), which no phase span covers.
    let timed_steps_s = if t.supervised {
        solver_step_s
    } else {
        caller_step_s
    };
    let gflops = if caller_step_s > 0.0 {
        counters.get(Counter::MxmFlops) as f64 / caller_step_s / 1e9
    } else {
        0.0
    };
    let r = &t.replays;
    vec![
        metric("mesh.build_ms", "ms", 1e3 * med(&t.builds[0])),
        metric("ops.build_ms", "ms", 1e3 * med(&t.builds[1])),
        metric("ns.build_ms", "ms", 1e3 * med(&t.builds[2])),
        metric("ns.oifs_ms", "ms/step", ms(own(Phase::Oifs))),
        metric("ns.convection_ms", "ms/step", ms(own(Phase::Convection))),
        metric("ns.filter_ms", "ms/step", ms(own(Phase::Filter))),
        metric("ns.step_self_ms", "ms/step", ms(own(Phase::Step))),
        metric(
            "ns.supervisor_ms",
            "ms/step",
            ms(reps.iter().map(|r| r.supervisor_s).sum()),
        ),
        metric("ns.checkpoint_bytes", "bytes", mean(&ckpt_bytes)),
        metric("ns.checkpoint_write_ms", "ms", 1e3 * r.checkpoint_write_s),
        metric(
            "ns.recoveries",
            "count",
            counters.get(Counter::Recoveries) as f64,
        ),
        metric("ns.cfl", "1", avg(&|s| s.cfl)),
        metric(
            "solvers.pressure_iters",
            "iters/step",
            avg(&|s| s.pressure_iters as f64),
        ),
        metric(
            "solvers.pressure_cg_ms",
            "ms/step",
            ms(own(Phase::PressureCg)),
        ),
        metric(
            "solvers.projection_ms",
            "ms/step",
            ms(own(Phase::PressureProjection)),
        ),
        metric(
            "solvers.projection_depth",
            "vectors",
            avg(&|s| s.pressure_history_len as f64),
        ),
        metric("solvers.projection_kept", "ratio", kept),
        metric("solvers.schwarz_ms", "ms/step", ms(own(Phase::Schwarz))),
        metric("solvers.coarse_ms", "ms/step", ms(own(Phase::CoarseSolve))),
        metric(
            "solvers.helmholtz_iters",
            "iters/step",
            avg(&|s| (s.helmholtz_iters.iter().sum::<usize>() + s.temp_iters) as f64),
        ),
        metric("solvers.helmholtz_ms", "ms/step", ms(own(Phase::Helmholtz))),
        metric(
            "solvers.cg_breakdowns",
            "count",
            counters.get(Counter::CgBreakdowns) as f64,
        ),
        metric("ops.e_apply_us", "us/call", 1e6 * r.e_apply_s),
        metric("ops.helmholtz_apply_us", "us/call", 1e6 * r.helmholtz_s),
        metric("ops.convect_us", "us/call", 1e6 * r.convect_s),
        metric(
            "ops.applications",
            "1/step",
            per_step(Counter::OperatorApplications),
        ),
        metric("ops.flops", "flop/step", avg(&|s| s.flops as f64)),
        metric("linalg.mxm_flops", "flop/step", per_step(Counter::MxmFlops)),
        metric("linalg.mxm_gflops", "GFLOPS", r.mxm_gflops),
        metric("linalg.step_gflops", "GFLOPS", gflops),
        metric("gs.words", "words/step", per_step(Counter::GsWords)),
        metric("gs.calls", "calls/step", per_step(Counter::GsCalls)),
        metric("gs.dssum_us", "us/call", 1e6 * r.dssum_s),
        metric("comm.fork_join_us", "us/region", 1e6 * r.fork_join_s),
        metric(
            "obs.record_bytes",
            "bytes/step",
            reps.iter().map(|r| r.record_bytes as f64).sum::<f64>() / steps,
        ),
        metric(
            "trace.overhead_pct",
            "%",
            pct(run_s(&t.traced), run_s(&t.untraced)),
        ),
        metric(
            "trace.step_span_gap_pct",
            "%",
            pct(timed_steps_s, incl[Phase::Step as usize]),
        ),
        metric("host.mxm_ref_gflops", "GFLOPS", t.host_ref_gflops),
    ]
}
