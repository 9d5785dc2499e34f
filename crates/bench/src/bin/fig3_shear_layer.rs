//! Fig. 3 reproduction: high Reynolds number shear layer roll-up — the
//! filter-stabilization showcase.
//!
//! Doubly periodic `[0,1]²`, initial tanh shear layers + sinusoidal
//! perturbation, `Δt = 0.002` (convective CFL 1–5 via OIFS). The paper's
//! panels become rows of a stability/diagnostics table:
//!
//! * (a) unfiltered, thick layer (ρ=30, Re=1e5), n=256 → **blows up**;
//! * (b) α=0.3, n=256 → stable roll-up;
//! * (c) α=1.0 (full projection) → stable but over-dissipative;
//! * (d) α=0.3, n=128 → stable;
//! * (e) thin layer (ρ=100, Re=4e4), α=0.3, N=8 at n=256 → spurious
//!   vortices (under-resolved);
//! * (f) same resolution with N=16 → clean.
//!
//! We report blow-up times, vorticity extrema (paper contours span
//! ±70/±36), enstrophy, and a spurious-vortex indicator (count of local
//! vorticity minima along the layer).

use sem_bench::workloads::shear_layer;
use sem_bench::{fmt_secs, header, parse_scale, Scale};
use sem_ns::NsSolver;
use sem_ops::convect::vorticity_2d;

struct Outcome {
    blowup_time: Option<f64>,
    w_min: f64,
    w_max: f64,
    enstrophy: f64,
    cores: usize,
}

/// Count distinct vortex cores: clusters of strong same-sign vorticity in
/// the band around each shear layer. The physical roll-up produces one
/// core per layer per fundamental wavelength; under-resolved runs (the
/// paper's panel (e)) show extra "spurious vortices" as additional
/// clusters.
fn count_cores(s: &NsSolver, w: &[f64]) -> usize {
    let mut total = 0;
    for (yc, sign) in [(0.25_f64, 1.0_f64), (0.75, -1.0)] {
        // Strong vorticity samples near this layer, projected onto x.
        let wmax = w
            .iter()
            .zip(s.ops.geo.y.iter())
            .filter(|(_, &y)| (y - yc).abs() < 0.1)
            .map(|(&v, _)| (v * sign).max(0.0))
            .fold(0.0_f64, f64::max);
        if wmax <= 0.0 {
            continue;
        }
        let mut xs: Vec<f64> = (0..w.len())
            .filter(|&i| (s.ops.geo.y[i] - yc).abs() < 0.1 && w[i] * sign > 0.6 * wmax)
            .map(|i| s.ops.geo.x[i])
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Cluster by gaps (periodic in x with period 1).
        let mut clusters = 0;
        let mut last = f64::NEG_INFINITY;
        for &x in &xs {
            if x - last > 0.08 {
                clusters += 1;
            }
            last = x;
        }
        // Merge the periodic wrap-around cluster.
        if clusters > 1 {
            if let (Some(&first), Some(&end)) = (xs.first(), xs.last()) {
                if first + 1.0 - end < 0.08 {
                    clusters -= 1;
                }
            }
        }
        total += clusters;
    }
    total
}

fn run_case(s: &mut NsSolver, t_final: f64) -> Outcome {
    let dt = s.cfg.dt;
    let steps = (t_final / dt).round() as usize;
    for _ in 0..steps {
        let st = match s.step() {
            Ok(st) => st,
            Err(e) => {
                eprintln!("step failed: {e}");
                return Outcome {
                    blowup_time: Some(s.time),
                    w_min: f64::NAN,
                    w_max: f64::NAN,
                    enstrophy: f64::NAN,
                    cores: 0,
                };
            }
        };
        let ke = sem_ns::diagnostics::kinetic_energy(&s.ops, &s.vel);
        if !ke.is_finite() || ke > 10.0 || !st.cfl.is_finite() {
            return Outcome {
                blowup_time: Some(s.time),
                w_min: f64::NAN,
                w_max: f64::NAN,
                enstrophy: f64::NAN,
                cores: 0,
            };
        }
    }
    let w = vorticity_2d(&s.ops, &s.vel[0], &s.vel[1]);
    let w_min = w.iter().cloned().fold(f64::INFINITY, f64::min);
    let w_max = w.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let enstrophy = {
        let nw = sem_ops::fields::norm_l2(&s.ops, &w);
        0.5 * nw * nw
    };
    let cores = count_cores(s, &w);
    Outcome {
        blowup_time: None,
        w_min,
        w_max,
        enstrophy,
        cores,
    }
}

/// `--smoke`: a seconds-long metrics exercise for `scripts/metrics_smoke.sh`
/// — a tiny shear-layer solve with `sem_obs` enabled, emitting one
/// per-timestep record per step to the metrics sink (stdout `JSON `
/// lines by default; `TERASEM_METRICS_SINK`/`TERASEM_TRACE` are
/// honored). The run is driven through the sem-run supervisor, so
/// `TERASEM_CHECKPOINT_DIR` additionally turns on auto-checkpointing
/// with resume-from-latest.
fn run_smoke() {
    sem_obs::init_from_env();
    let trace_path = sem_obs::trace::init_from_env();
    let steps = 20u64;
    let mut s = shear_layer(4, 6, 30.0, 1e5, 0.3, 0.002);
    s.cfg.metrics = true;
    // Fault-injection smoke (scripts/fault_smoke.sh): a `TERASEM_FAULT`
    // plan arms the sem-guard layer; recovery is switched on so every
    // injected fault must be rolled back and retried, not survived by
    // luck.
    s.cfg.faults = sem_ns::FaultPlan::from_env();
    if let Some(plan) = &s.cfg.faults {
        s.cfg.recovery = sem_ns::RecoveryPolicy::enabled();
        eprintln!(
            "smoke: fault plan active ({} event(s), seed {})",
            plan.events.len(),
            plan.seed
        );
    }
    s.cfg.run = sem_ns::RunPolicy::default().from_env();
    sem_obs::set_enabled(true);
    eprintln!("smoke: shear layer 4x4 elements, N = 6, {steps} steps, metrics on");
    let mut sup = sem_ns::RunSupervisor::new(s);
    match sup.resume_from_latest() {
        Ok(Some(at)) => eprintln!("smoke: resumed from checkpoint at step {at}"),
        Ok(None) => {}
        Err(e) => eprintln!("smoke: checkpoint scan failed: {e}"),
    }
    let recovered_steps = match sup.run_to(steps) {
        Ok(report) => report.steps.iter().filter(|st| st.recoveries > 0).count() as u64,
        Err(e) => {
            eprintln!("smoke: FATAL unrecovered step failure: {e}");
            std::process::exit(3);
        }
    };
    let counters = sem_obs::counters::snapshot();
    eprintln!(
        "smoke: {} mxm calls, {} gather-scatter words, {} operator applications, \
         {} cg breakdowns, {} projection updates dropped",
        counters.get(sem_obs::Counter::MxmCalls),
        counters.get(sem_obs::Counter::GsWords),
        counters.get(sem_obs::Counter::OperatorApplications),
        counters.get(sem_obs::Counter::CgBreakdowns),
        counters.get(sem_obs::Counter::ProjectionDropped),
    );
    eprintln!(
        "smoke: {} faults injected, {} recovery rollbacks, {} step(s) recovered",
        counters.get(sem_obs::Counter::FaultsInjected),
        counters.get(sem_obs::Counter::Recoveries),
        recovered_steps,
    );
    if let Some(path) = trace_path {
        match sem_obs::trace::write_chrome(&path) {
            Ok(threads) => eprintln!("smoke: chrome trace ({threads} thread(s)) -> {path}"),
            Err(e) => eprintln!("smoke: cannot write chrome trace {path}: {e}"),
        }
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
        return;
    }
    let scale = parse_scale();
    let dt = 0.002;
    let t_final = 1.2;
    header(&format!(
        "Fig. 3: shear layer roll-up, dt = {dt}, T = {t_final} (panels a-f)"
    ));
    // (label, K, N, rho, Re, alpha). Quick scale runs the thick-layer
    // panels at n = 128 (paper's (d) resolution); --full runs the paper's
    // n = 256 panels plus the thin-layer pair.
    let cases: Vec<(&str, usize, usize, f64, f64, f64)> = match scale {
        Scale::Quick => vec![
            ("(a) unfiltered n=128", 16, 8, 30.0, 1e5, 0.0),
            ("(b) alpha=0.3 n=128", 16, 8, 30.0, 1e5, 0.3),
            ("(c) alpha=1.0 n=128", 16, 8, 30.0, 1e5, 1.0),
            ("(d) alpha=0.3 n=64", 8, 8, 30.0, 1e5, 0.3),
        ],
        Scale::Full => vec![
            ("(a) unfiltered n=256", 16, 16, 30.0, 1e5, 0.0),
            ("(b) alpha=0.3 n=256", 16, 16, 30.0, 1e5, 0.3),
            ("(c) alpha=1.0 n=256", 16, 16, 30.0, 1e5, 1.0),
            ("(d) alpha=0.3 n=128", 16, 8, 30.0, 1e5, 0.3),
            ("(e) thin N=8 n=256", 32, 8, 100.0, 4e4, 0.3),
            ("(f) thin N=16 n=256", 16, 16, 100.0, 4e4, 0.3),
        ],
    };
    // Counters on (records stay off: cfg.metrics is false) so the table
    // can surface per-case CG breakdowns and dropped projection updates —
    // the silent-failure telemetry behind a "blows up" verdict.
    sem_obs::set_enabled(true);
    let trace_path = sem_obs::trace::init_from_env();
    println!(
        "{:<22} | {:>9} | {:>9} {:>9} {:>11} {:>6} | {:>6} {:>8} | {:>8}",
        "case", "blowup@t", "w_min", "w_max", "enstrophy", "cores", "brkdwn", "projdrop", "wall"
    );
    for (label, k, n, rho, re, alpha) in cases {
        let mut s = shear_layer(k, n, rho, re, alpha, dt);
        let c0 = sem_obs::counters::snapshot();
        let t0 = std::time::Instant::now();
        let out = run_case(&mut s, t_final);
        let wall = t0.elapsed().as_secs_f64();
        let dc = sem_obs::counters::snapshot().delta(&c0);
        let breakdowns = dc.get(sem_obs::Counter::CgBreakdowns);
        let dropped = dc.get(sem_obs::Counter::ProjectionDropped);
        match out.blowup_time {
            Some(t) => println!(
                "{label:<22} | {:>9.3} | {:>9} {:>9} {:>11} {:>6} | {:>6} {:>8} | {:>8}",
                t,
                "-",
                "-",
                "-",
                "-",
                breakdowns,
                dropped,
                fmt_secs(wall)
            ),
            None => println!(
                "{label:<22} | {:>9} | {:>9.2} {:>9.2} {:>11.2} {:>6} | {:>6} {:>8} | {:>8}",
                "stable",
                out.w_min,
                out.w_max,
                out.enstrophy,
                out.cores,
                breakdowns,
                dropped,
                fmt_secs(wall)
            ),
        }
    }
    if let Some(path) = trace_path {
        match sem_obs::trace::write_chrome(&path) {
            Ok(threads) => eprintln!("chrome trace ({threads} thread(s)) -> {path}"),
            Err(e) => eprintln!("cannot write chrome trace {path}: {e}"),
        }
    }
    println!();
    println!("claims: (a) unfiltered blows up at any resolution; filtering (alpha=0.3)");
    println!("stabilizes both n=128 and n=256; alpha=1.0 is stable but loses enstrophy");
    println!("relative to alpha=0.3 (over-dissipation: compare panel (c) vs (b));");
    println!("the thin layer needs higher N at fixed resolution (spurious vortices at");
    println!("low N show up as extra vorticity extrema / inflated |w| range).");
}
