//! Fig. 8 reproduction: per-step solve time and pressure/Helmholtz
//! iteration counts for the first 26 timesteps of the (substituted)
//! hairpin-vortex benchmark.
//!
//! Workload substitution (DESIGN.md): the paper's `(K,N) = (8168,15)`
//! oct-refined hemisphere mesh on 2048 ASCI-Red nodes becomes a 3D
//! boundary-layer channel with a Gaussian wall bump (deformed hexes) at
//! laptop scale. The claims to reproduce: (i) pressure iterations start
//! high on the impulsive-start transient and fall steeply as the
//! successive-RHS projection history builds (settling in the 30–50 range
//! in production), while Helmholtz iterations stay low and flat; (ii)
//! time-per-step tracks the pressure iteration count.

use sem_bench::workloads::hairpin_channel;
use sem_bench::{fmt_secs, header, parse_scale, Scale};

fn main() {
    let scale = parse_scale();
    // `TERASEM_METRICS=1` (with `_SINK`/`TERASEM_RANK`) turns
    // on one step record per step from every solver below.
    let metrics = sem_obs::init_from_env();
    // Counters on either way: each step's flops are its increment of the
    // one flop account (the mxm counter), which Table 4 reads too.
    sem_obs::set_enabled(true);
    let trace_path = sem_obs::trace::init_from_env();
    let (k, n, dt) = match scale {
        Scale::Quick => ([8usize, 3, 4], 5, 4e-3),
        Scale::Full => ([12, 4, 6], 7, 2e-3),
    };
    let kelem = k[0] * k[1] * k[2];
    header(&format!(
        "Fig. 8: first 26 steps of the hairpin benchmark substitute (K = {kelem}, N = {n})"
    ));
    let mut s = hairpin_channel(k, n, dt, 25);
    s.cfg.metrics = metrics;
    // Long-run operation: the 26-step trajectory is driven through the
    // sem-run supervisor, so `TERASEM_CHECKPOINT_DIR` turns on
    // auto-checkpointing and a killed run resumes where it left off.
    s.cfg.run = sem_ns::RunPolicy::default().from_env();
    println!(
        "mesh: {}x{}x{} deformed hexes, {} velocity dofs/component, {} pressure dofs",
        k[0],
        k[1],
        k[2],
        s.ops.num.n_global,
        s.ops.n_pressure()
    );
    println!();
    let mut sup = sem_ns::RunSupervisor::new(s);
    match sup.resume_from_latest() {
        Ok(Some(at)) => println!("resumed from checkpoint at step {at}"),
        Ok(None) => {}
        Err(e) => eprintln!("checkpoint scan failed: {e}"),
    }
    let report = match sup.run_to(26) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fig8: run gave up: {e}");
            std::process::exit(3);
        }
    };
    println!(
        "{:>4} | {:>10} | {:>7} {:>9} | {:>7} | {:>12}",
        "step", "time/step", "p-iter", "p-resid0", "Hx-iter", "Mflops/step"
    );
    let mut total_flops = 0u64;
    let mut total_secs = 0.0;
    let mut last5 = Vec::new();
    for st in &report.steps {
        total_flops += st.flops;
        total_secs += st.seconds;
        println!(
            "{:>4} | {:>10} | {:>7} {:>9.2e} | {:>7} | {:>12.1}",
            st.step,
            fmt_secs(st.seconds),
            st.pressure_iters,
            st.pressure_initial_residual,
            st.helmholtz_iters[0],
            st.flops as f64 / 1e6
        );
        last5.push(st.seconds);
        if last5.len() > 5 {
            last5.remove(0);
        }
    }
    println!();
    println!(
        "totals: {} for 26 steps, {:.1} Mflop, host rate {:.2} GFLOPS",
        fmt_secs(total_secs),
        total_flops as f64 / 1e6,
        total_flops as f64 / total_secs / 1e9
    );
    println!(
        "average time/step over last 5 steps: {} (paper: 17.5 s at 319 GF on 2048 dual nodes)",
        fmt_secs(last5.iter().sum::<f64>() / last5.len().max(1) as f64)
    );
    println!();
    println!("claims: pressure iterations fall from the impulsive-start transient as the");
    println!("projection history builds; Helmholtz iterations stay low and flat; step time");
    println!("tracks the pressure iteration count. Table 4 scales this run's measured flops");
    println!("through the ASCI-Red machine model.");
    if let Some(path) = trace_path {
        match sem_obs::trace::write_chrome(&path) {
            Ok(threads) => eprintln!("chrome trace ({threads} thread(s)) -> {path}"),
            Err(e) => eprintln!("cannot write chrome trace {path}: {e}"),
        }
    }
}
