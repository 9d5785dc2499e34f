//! Table 2 reproduction: additive Schwarz preconditioner comparison on
//! the start-up cylinder problem, `N = 7`, `ε = 10⁻⁵`.
//!
//! Columns: FDM (one-point tensor extension, fast diagonalization), FEM
//! at overlaps `N_o = 0/1/3` (same local operators, direct Cholesky
//! solves), and `A₀ = 0` (no coarse grid). Mesh family: annulus around a
//! cylinder, `K = 96 → 384 → 1536` by parametric quad-refinement
//! (substitute for the paper's `93 → 372 → 1488` unstructured family —
//! DESIGN.md). Claims to reproduce: the coarse grid is essential
//! (several-fold iteration growth without it, worsening with K); FDM
//! matches FEM iterations at minimal overlap while being faster; overlap
//! reduces iterations vs block-Jacobi.

use sem_bench::workloads::cylinder_startup;
use sem_bench::{fmt_secs, header, parse_scale, Scale};
use sem_mesh::generators::AnnulusParams;
use sem_solvers::schwarz::{LocalKind, SchwarzConfig};

struct Row {
    label: &'static str,
    cfg: SchwarzConfig,
}

fn main() {
    let scale = parse_scale();
    // `TERASEM_METRICS=1` (with `_SINK`/`TERASEM_RANK`) turns
    // on one step record per step from every solver below.
    let metrics = sem_obs::init_from_env();
    let n = 7;
    let eps = 1e-5;
    let steps = match scale {
        Scale::Quick => 4,
        Scale::Full => 10,
    };
    let refinements = match scale {
        Scale::Quick => 2usize,
        Scale::Full => 3,
    };
    header(&format!(
        "Table 2: additive Schwarz for the cylinder problem, N = {n}, eps = {eps:.0e} ({steps} startup steps)"
    ));
    let rows = [
        Row {
            label: "FDM (N_o=1)",
            cfg: SchwarzConfig {
                overlap: 1,
                local: LocalKind::Fdm,
                use_coarse: true,
            },
        },
        Row {
            label: "FEM N_o=0",
            cfg: SchwarzConfig {
                overlap: 0,
                local: LocalKind::Fem,
                use_coarse: true,
            },
        },
        Row {
            label: "FEM N_o=1",
            cfg: SchwarzConfig {
                overlap: 1,
                local: LocalKind::Fem,
                use_coarse: true,
            },
        },
        Row {
            label: "FEM N_o=3",
            cfg: SchwarzConfig {
                overlap: 3,
                local: LocalKind::Fem,
                use_coarse: true,
            },
        },
        Row {
            label: "A0=0 (no coarse)",
            cfg: SchwarzConfig {
                overlap: 1,
                local: LocalKind::Fdm,
                use_coarse: false,
            },
        },
    ];
    // Counters on so each row can surface CG breakdowns / dropped
    // projection updates (silent robustness telemetry, ROADMAP item).
    sem_obs::set_enabled(true);
    let trace_path = sem_obs::trace::init_from_env();
    println!(
        "{:>6} | {:>18} | {:>8} {:>10} | {:>6} {:>8}",
        "K", "preconditioner", "iter/stp", "cpu", "brkdwn", "projdrop"
    );
    let mut params = AnnulusParams {
        n_theta: 24,
        n_r: 4,
        r_inner: 0.5,
        r_outer: 10.0,
        growth: 1.8,
    };
    for level in 0..refinements {
        if level > 0 {
            params = params.refined();
        }
        let k = params.n_theta * params.n_r;
        // Timestep shrinks with refinement (CFL).
        let dt = 2e-3 / (1 << level) as f64;
        for row in &rows {
            let mut s = cylinder_startup(params, n, row.cfg, dt, eps);
            s.cfg.metrics = metrics;
            let c0 = sem_obs::counters::snapshot();
            let t0 = std::time::Instant::now();
            let mut iters = 0usize;
            for _ in 0..steps {
                let st = s.step().unwrap();
                iters += st.pressure_iters;
            }
            let total = t0.elapsed().as_secs_f64();
            let dc = sem_obs::counters::snapshot().delta(&c0);
            println!(
                "{:>6} | {:>18} | {:>8.1} {:>10} | {:>6} {:>8}",
                k,
                row.label,
                iters as f64 / steps as f64,
                fmt_secs(total),
                dc.get(sem_obs::Counter::CgBreakdowns),
                dc.get(sem_obs::Counter::ProjectionDropped),
            );
        }
        println!();
    }
    if let Some(path) = trace_path {
        match sem_obs::trace::write_chrome(&path) {
            Ok(threads) => eprintln!("chrome trace ({threads} thread(s)) -> {path}"),
            Err(e) => eprintln!("cannot write chrome trace {path}: {e}"),
        }
    }
    println!("notes:");
    println!(" * FDM and FEM share the tensor local operator here, so their iteration");
    println!("   counts coincide at equal overlap; the paper's unstructured FEM differed");
    println!("   slightly (67 vs 64 at K=93). CPU separates them (direct vs FDM solves).");
    println!(" * Our N_o=3 zeroes corner extensions (Fig. 5 right); the paper's FEM");
    println!("   subdomains include corners, which is where its N_o=3 gains come from.");
}
