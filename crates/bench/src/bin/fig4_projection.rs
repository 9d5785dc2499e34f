//! Fig. 4 reproduction: pressure iteration count (left) and pre-iteration
//! residual (right) versus timestep, with (`L = 26`) and without (`L = 0`)
//! successive-RHS projection.
//!
//! Workload substitution (DESIGN.md): the paper's spherical convection
//! run (`K = 7680`, `N = 7`, 1.66M pressure dof) becomes a laptop-scale
//! 2D Rayleigh–Bénard convection box — any smoothly evolving buoyancy-
//! driven flow exercises the projection identically. The claims to
//! reproduce: a 2.5–5× iteration reduction and a pre-iteration residual
//! down ~2.5 orders of magnitude.

use sem_bench::workloads::rayleigh_benard;
use sem_bench::{fmt_secs, header, parse_scale, timed, Scale};

fn main() {
    let scale = parse_scale();
    // `TERASEM_METRICS=1` (with `_SINK`/`TERASEM_RANK`) turns
    // on one step record per step from every solver below.
    let metrics = sem_obs::init_from_env();
    let (kx, ky, n, steps) = match scale {
        Scale::Quick => (8, 4, 5, 60),
        Scale::Full => (16, 8, 7, 200),
    };
    let dt = 2e-4;
    let ra = 1e5;
    let pr = 0.71;
    let tol = 1e-7;
    header(&format!(
        "Fig. 4: pressure projection study — Rayleigh–Bénard {kx}x{ky} elements, N = {n}, Ra = {ra:.0e}, {steps} steps"
    ));
    // Per-run work and time come from the sem_obs registries: counter
    // deltas give operator applications and dropped projection updates,
    // span deltas give where the pressure wall-time went. `TERASEM_TRACE`
    // additionally captures a chrome trace of the whole comparison.
    sem_obs::set_enabled(true);
    let trace_path = sem_obs::trace::init_from_env();
    let mut runs = Vec::new();
    for lmax in [26usize, 0] {
        let mut s = rayleigh_benard(kx, ky, n, ra, pr, lmax, dt, tol);
        s.cfg.metrics = metrics;
        let c0 = sem_obs::counters::snapshot();
        let sp0 = sem_obs::spans::span_snapshot();
        let (series, secs) = timed(|| {
            let mut out = Vec::with_capacity(steps);
            for _ in 0..steps {
                let st = s.step().unwrap();
                out.push((st.pressure_iters, st.pressure_initial_residual));
            }
            out
        });
        let dc = sem_obs::counters::snapshot().delta(&c0);
        let dsp = sem_obs::spans::span_snapshot().delta(&sp0);
        println!(
            "L = {lmax:>2}: total pressure iterations {}, wall {}",
            series.iter().map(|&(i, _)| i).sum::<usize>(),
            fmt_secs(secs)
        );
        println!(
            "        {} operator applications, {} near-dependent updates dropped, \
             {} CG breakdowns, pressure CG {} / projection {}",
            dc.get(sem_obs::Counter::OperatorApplications),
            dc.get(sem_obs::Counter::ProjectionDropped),
            dc.get(sem_obs::Counter::CgBreakdowns),
            fmt_secs(dsp.seconds(sem_obs::Phase::PressureCg)),
            fmt_secs(dsp.seconds(sem_obs::Phase::PressureProjection)),
        );
        runs.push((lmax, series));
    }
    println!();
    println!(
        "{:>5} | {:>9} {:>12} | {:>9} {:>12}",
        "step", "iter L=26", "resid L=26", "iter L=0", "resid L=0"
    );
    let stride = (steps / 30).max(1);
    for i in (0..steps).step_by(stride) {
        let (i26, r26) = runs[0].1[i];
        let (i0, r0) = runs[1].1[i];
        println!(
            "{:>5} | {:>9} {:>12.3e} | {:>9} {:>12.3e}",
            i + 1,
            i26,
            r26,
            i0,
            r0
        );
    }
    // Steady-state comparison over the last quarter of the run.
    let tail = steps / 4;
    let avg = |series: &[(usize, f64)]| {
        let s = &series[series.len() - tail..];
        let it: f64 = s.iter().map(|&(i, _)| i as f64).sum::<f64>() / tail as f64;
        let re: f64 = s.iter().map(|&(_, r)| r).sum::<f64>() / tail as f64;
        (it, re)
    };
    let (it26, r26) = avg(&runs[0].1);
    let (it0, r0) = avg(&runs[1].1);
    println!();
    println!("late-time averages (last {tail} steps):");
    println!("  L=26: {it26:.1} iters/step, initial residual {r26:.3e}");
    println!("  L=0 : {it0:.1} iters/step, initial residual {r0:.3e}");
    println!(
        "  iteration reduction {:.1}x (paper: 2.5–5x); residual reduction {:.1} orders (paper: ~2.5)",
        it0 / it26.max(1e-9),
        (r0 / r26.max(1e-300)).log10()
    );
    if let Some(path) = trace_path {
        match sem_obs::trace::write_chrome(&path) {
            Ok(threads) => eprintln!("chrome trace ({threads} thread(s)) -> {path}"),
            Err(e) => eprintln!("cannot write chrome trace {path}: {e}"),
        }
    }
}
