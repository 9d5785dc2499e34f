//! Table 1 reproduction: spatial and temporal convergence on the
//! Orr–Sommerfeld problem, `K = 15`, `Re = 7500`.
//!
//! A Tollmien–Schlichting wave of amplitude `10⁻⁵` rides on plane
//! Poiseuille flow; the measured growth rate of the perturbation
//! amplitude is compared against linear theory (computed from scratch by
//! `sem-stability`; σ_ref = α·Im(c) ≈ 0.00223497). The table reports the
//! relative growth-rate error:
//!
//! * **left block**: error vs polynomial order `N` at `Δt = 0.003125`,
//!   filter `α ∈ {0, 0.2}` — exponential convergence, slight filter
//!   degradation;
//! * **right block**: error vs `Δt` at fixed `N`, 2nd and 3rd order
//!   time integration, `α ∈ {0, 0.2}` — O(Δt²)/O(Δt³) convergence, with
//!   the *unfiltered 3rd-order scheme unstable* at larger Δt (the
//!   paper's 171.370 entries).

use sem_bench::workloads::{orr_sommerfeld_channel, perturbation_amplitude};
use sem_bench::{fmt, header, log_slope, parse_scale, timed, Scale};
use sem_stability::table1_reference;

/// Run one configuration to `t_final`; return the relative growth-rate
/// error, or `f64::INFINITY` on blow-up.
fn growth_error(
    os: &sem_stability::OrrSommerfeld,
    n: usize,
    dt: f64,
    torder: usize,
    alpha: f64,
    t_final: f64,
) -> f64 {
    let sigma_ref = os.growth_rate();
    let mut s = orr_sommerfeld_channel(os, n, dt, torder, alpha, 1e-5);
    let steps = (t_final / dt).round() as usize;
    let mut ts = Vec::new();
    let mut es = Vec::new();
    // Skip an initial transient (the projection of the discrete IC onto
    // the discrete eigenmode), then sample the amplitude.
    let settle = steps / 5;
    for step in 0..steps {
        let st = s.step().unwrap();
        if !st.cfl.is_finite() {
            return f64::INFINITY;
        }
        let amp = perturbation_amplitude(&s);
        if !amp.is_finite() || amp > 1.0 {
            return f64::INFINITY; // blow-up (paper's 171.370-style entries)
        }
        if step >= settle {
            ts.push(s.time);
            es.push(amp);
        }
    }
    let sigma = log_slope(&ts, &es);
    ((sigma - sigma_ref) / sigma_ref).abs()
}

fn main() {
    let scale = parse_scale();
    header("Table 1: Orr-Sommerfeld convergence, K = 15, Re = 7500 (relative growth-rate error)");
    let (os, t_ref) = timed(table1_reference);
    println!(
        "linear theory (sem-stability): c = {:.8} + {:.8}i, growth rate = {:.8} ({} setup)",
        os.c.re,
        os.c.im,
        os.growth_rate(),
        sem_bench::fmt_secs(t_ref)
    );
    let (spatial_ns, t_final_sp, dt_sp): (&[usize], f64, f64) = match scale {
        Scale::Quick => (&[7, 9, 11], 5.0, 0.0125),
        Scale::Full => (&[7, 9, 11, 13, 15], 10.0, 0.003125),
    };
    println!();
    println!("spatial convergence (dt = {dt_sp}, T = {t_final_sp}):");
    println!("{:>4} | {:>10} {:>10}", "N", "alpha=0.0", "alpha=0.2");
    for &n in spatial_ns {
        let e0 = growth_error(&os, n, dt_sp, 2, 0.0, t_final_sp);
        let e2 = growth_error(&os, n, dt_sp, 2, 0.2, t_final_sp);
        println!("{n:>4} | {} {}", fmt(e0), fmt(e2));
    }
    println!("(paper: errors fall from ~0.24 at N=7 to ~1e-4 at N=13; filter slightly degrades)");

    let (n_t, t_final_t, dts): (usize, f64, &[f64]) = match scale {
        Scale::Quick => (11, 5.0, &[0.2, 0.1, 0.05]),
        Scale::Full => (17, 10.0, &[0.2, 0.1, 0.05, 0.025, 0.0125]),
    };
    println!();
    println!("temporal convergence (N = {n_t}, T = {t_final_t}, OIFS):");
    println!(
        "{:>8} | {:>10} {:>10} | {:>10} {:>10}",
        "dt", "2nd a=0.0", "2nd a=0.2", "3rd a=0.0", "3rd a=0.2"
    );
    let mut table = Vec::new();
    for &dt in dts {
        let row = [
            growth_error(&os, n_t, dt, 2, 0.0, t_final_t),
            growth_error(&os, n_t, dt, 2, 0.2, t_final_t),
            growth_error(&os, n_t, dt, 3, 0.0, t_final_t),
            growth_error(&os, n_t, dt, 3, 0.2, t_final_t),
        ];
        println!(
            "{:>8} | {} {} | {} {}",
            dt,
            fmt(row[0]),
            fmt(row[1]),
            fmt(row[2]),
            fmt(row[3])
        );
        table.push((dt, row));
    }
    println!("(paper: O(dt^2)/O(dt^3) convergence for the filtered runs;");
    println!(" the 3rd-order alpha=0 column is erratic/unstable — its stability");
    println!(" is exactly what the filter provides)");
    if table.len() >= 2 {
        let a = table[0];
        let b = table[1];
        let order2 = (a.1[1] / b.1[1]).log2() / (a.0 / b.0).log2();
        println!();
        println!("measured 2nd-order (filtered) convergence rate: {order2:.2}");
    }
}
