//! Table 4 reproduction: total time and sustained GFLOPS for the 26-step
//! hairpin benchmark at `P = 512/1024/2048` ASCI-Red nodes, in single-
//! and dual-processor mode, for the "std." and "perf." builds.
//!
//! Method (DESIGN.md substitution — we do not have ASCI-Red): the
//! benchmark's flops/step are *measured* on the laptop-scale hairpin
//! substitute and scaled to the paper's `(K,N) = (8168,15)` problem by
//! the `K(N+1)⁴` operator-work law; communication is derived from an RSB
//! partition of an 8192-element mesh (gather-scatter faces, CG
//! all-reduces, and the XXᵀ coarse solve on the ~10k-dof vertex grid) and
//! priced by the ASCI-Red α–β model. Dual-processor mode uses the paper's
//! measured 82% intranode efficiency; "std." costs ~8% of the sustained
//! rate (fixed mxm kernel instead of per-shape dispatch).
//!
//! Additionally, a host-thread scaling section measures real speedup of
//! the `sem_comm::par` element loops (the modern analogue of the paper's
//! `-Mconcur` dual mode).

use sem_bench::workloads::hairpin_channel;
use sem_bench::{fmt_secs, header, parse_scale, Scale};
use sem_comm::MachineModel;
use sem_mesh::generators::box3d;
use sem_mesh::partition::{cut_edges, partition_rsb};
use sem_solvers::sparse::Csr;
use sem_solvers::xxt::{nested_dissection, XxtSolver};

/// 7-point vertex-grid Laplacian of an `(a×b×c)`-vertex box (the
/// structural coarse operator of the 8192-element mesh).
fn vertex_laplacian(a: usize, b: usize, c: usize) -> Csr {
    let n = a * b * c;
    let idx = |i: usize, j: usize, k: usize| (k * b + j) * a + i;
    let mut t = Vec::with_capacity(7 * n);
    for k in 0..c {
        for j in 0..b {
            for i in 0..a {
                let p = idx(i, j, k);
                let mut deg = 0.0;
                let mut push = |q: usize| {
                    t.push((p, q, -1.0));
                };
                if i > 0 {
                    push(idx(i - 1, j, k));
                    deg += 1.0;
                }
                if i + 1 < a {
                    push(idx(i + 1, j, k));
                    deg += 1.0;
                }
                if j > 0 {
                    push(idx(i, j - 1, k));
                    deg += 1.0;
                }
                if j + 1 < b {
                    push(idx(i, j + 1, k));
                    deg += 1.0;
                }
                if k > 0 {
                    push(idx(i, j, k - 1));
                    deg += 1.0;
                }
                if k + 1 < c {
                    push(idx(i, j, k + 1));
                    deg += 1.0;
                }
                t.push((p, p, deg + 0.01)); // slight shift: SPD without pinning
            }
        }
    }
    Csr::from_triplets(n, &t)
}

struct StepProfile {
    flops: f64,
    press_iters: f64,
    helm_iters: f64,
    /// Gather-scatter calls per step: each pays the message latencies.
    gs_ops: f64,
    /// Scalar fields exchanged per step: each moves one field's shared
    /// copies (a multi-field call counts once per field).
    gs_fields: f64,
    cg_allreduce: f64,
}

fn main() {
    let scale = parse_scale();
    // `TERASEM_METRICS=1` (with `_SINK`/`TERASEM_RANK`) turns
    // on one step record per step from every solver below.
    let metrics = sem_obs::init_from_env();
    header("Table 4: ASCI-Red-333 total time and GFLOPS, K = 8168, N = 15, 26 steps");

    // --- measure the benchmark at laptop scale -------------------------
    let (ksmall, nsmall, steps) = match scale {
        Scale::Quick => ([8usize, 3, 4], 5, 8usize),
        Scale::Full => ([12, 4, 6], 7, 26),
    };
    println!(
        "measuring flops/step on the {}x{}x{} N={} substitute ({} steps)…",
        ksmall[0], ksmall[1], ksmall[2], nsmall, steps
    );
    let mut s = hairpin_channel(ksmall, nsmall, 4e-3, 25);
    s.cfg.metrics = metrics;
    let mut prof = StepProfile {
        flops: 0.0,
        press_iters: 0.0,
        helm_iters: 0.0,
        gs_ops: 0.0,
        gs_fields: 0.0,
        cg_allreduce: 0.0,
    };
    // Flops and gather-scatter counts come from the sem_obs registries
    // (mxm is the paper's >90%-of-flops kernel, metered at the single
    // mxm dispatch point; gs calls are counted where the exchange runs)
    // instead of the old per-step estimates.
    sem_obs::set_enabled(true);
    let trace_path = sem_obs::trace::init_from_env();
    let c0 = sem_obs::counters::snapshot();
    for _ in 0..steps {
        let st = s.step().unwrap();
        prof.press_iters += st.pressure_iters as f64;
        let h: usize = st.helmholtz_iters.iter().sum();
        prof.helm_iters += h as f64;
        // Two inner products per CG iteration.
        prof.cg_allreduce += 2.0 * (h + st.pressure_iters) as f64;
    }
    let dc = sem_obs::counters::snapshot().delta(&c0);
    prof.flops = dc.get(sem_obs::Counter::MxmFlops) as f64;
    prof.gs_ops = dc.get(sem_obs::Counter::GsCalls) as f64;
    // One scalar field's shared copies: the words one field moves.
    let num = &s.ops.num;
    let field_words = num
        .ids
        .iter()
        .filter(|&&g| num.multiplicity[g] >= 2)
        .count();
    prof.gs_fields = dc.get(sem_obs::Counter::GsWords) as f64 / field_words as f64;
    let inv = 1.0 / steps as f64;
    prof.flops *= inv;
    prof.press_iters *= inv;
    prof.helm_iters *= inv;
    prof.gs_ops *= inv;
    prof.gs_fields *= inv;
    prof.cg_allreduce *= inv;
    println!(
        "  measured: {:.1} Mflop/step (mxm), {:.1} pressure + {:.1} Helmholtz iters/step, \
         {:.0} gather-scatters/step moving {:.0} fields",
        prof.flops / 1e6,
        prof.press_iters,
        prof.helm_iters,
        prof.gs_ops,
        prof.gs_fields
    );

    // --- scale to the paper's problem -----------------------------------
    let k_big = 8168.0_f64;
    let n_big = 15.0_f64;
    let k_small = (ksmall[0] * ksmall[1] * ksmall[2]) as f64;
    let work_ratio = (k_big * (n_big + 1.0).powi(4)) / (k_small * (nsmall as f64 + 1.0).powi(4));
    let flops_step_big = prof.flops * work_ratio;
    println!(
        "  scaled to (K,N) = (8168,15): {:.2} Gflop/step (work ratio {:.0})",
        flops_step_big / 1e9,
        work_ratio
    );

    // --- communication structure of the big problem ---------------------
    let mesh = box3d(
        32,
        16,
        16,
        [0.0, 8.0],
        [0.0, 2.0],
        [0.0, 4.0],
        [false, false, true],
    );
    let adj = mesh.adjacency();
    let nodes_per_face = ((n_big as usize) + 1).pow(2);
    // Coarse grid: the paper quotes 10,142 distributed coarse dofs; the
    // 33x17x17 vertex grid gives 9537.
    println!(
        "  building XXT coarse solver on the {} vertex grid…",
        33 * 17 * 17
    );
    let a0 = vertex_laplacian(33, 17, 17);
    let order = nested_dissection(&a0.adjacency());
    let xxt = XxtSolver::new(&a0, &order);

    println!();
    println!(
        "{:>5} | {:>10} {:>8} | {:>10} {:>8} | {:>10} {:>8} | {:>10} {:>8} | {:>7}",
        "P",
        "single/std",
        "GFLOPS",
        "dual/std",
        "GFLOPS",
        "single/prf",
        "GFLOPS",
        "dual/prf",
        "GFLOPS",
        "coarse%"
    );
    for p in [512usize, 1024, 2048] {
        let part = partition_rsb(&mesh, p);
        // Cut faces → message volume; neighbour count → message count.
        let cut = cut_edges(&adj, &part);
        // Average per-rank: each cut face contributes to two ranks.
        let faces_per_rank = 2.0 * cut as f64 / p as f64;
        // Rough neighbour count per rank in 3D RSB partitions.
        let nbrs_per_rank = 6.0_f64.min(faces_per_rank);
        let bytes_per_gs = faces_per_rank * nodes_per_face as f64 * 8.0;
        let models = [
            ("single/std", MachineModel::asci_red_333_single_std()),
            ("dual/std", MachineModel::asci_red_333_dual_std()),
            ("single/perf", MachineModel::asci_red_333_single()),
            ("dual/perf", MachineModel::asci_red_333_dual()),
        ];
        let mut cells = Vec::new();
        let mut coarse_frac = 0.0;
        for (_, m) in &models {
            let t_compute = flops_step_big / (p as f64 * m.flop_rate);
            // Latency per call, bandwidth per field exchanged.
            let t_gs = prof.gs_ops * nbrs_per_rank * m.latency
                + prof.gs_fields * bytes_per_gs * m.inv_bandwidth;
            let t_allreduce = prof.cg_allreduce * m.allreduce_time(p, 8);
            let t_coarse = prof.press_iters * xxt.parallel_cost(p, m).total();
            let t_step = t_compute + t_gs + t_allreduce + t_coarse;
            let total = 26.0 * t_step;
            let gflops = 26.0 * flops_step_big / total / 1e9;
            cells.push((total, gflops));
            coarse_frac = t_coarse / t_step * 100.0;
        }
        println!(
            "{:>5} | {:>10} {:>8.0} | {:>10} {:>8.0} | {:>10} {:>8.0} | {:>10} {:>8.0} | {:>6.1}%",
            p,
            fmt_secs(cells[0].0),
            cells[0].1,
            fmt_secs(cells[1].0),
            cells[1].1,
            fmt_secs(cells[2].0),
            cells[2].1,
            fmt_secs(cells[3].0),
            cells[3].1,
            coarse_frac
        );
    }
    println!();
    println!("paper's Table 4:   512: 6361s/47GF  4410s/67GF  5969s/50GF  3646s/81GF");
    println!("                  1024: 3163s/93GF  2183s/135GF 2945s/100GF 1816s/163GF");
    println!("                  2048: 1617s/183GF 1106s/267GF 1521s/194GF  927s/319GF");
    println!("paper: coarse grid = 4.0% of solution time at 2048 dual.");

    // --- real host-thread scaling (the modern dual-processor mode) ------
    println!();
    println!("host thread scaling (measured, sem_comm::par element loops):");
    let max_t = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4);
    let threads: Vec<usize> = [1usize, 2, 4, 8, max_t]
        .into_iter()
        .filter(|&t| t <= max_t)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut t1 = None;
    for t in threads {
        let secs = sem_comm::par::with_threads(t, || {
            let mut s = hairpin_channel(ksmall, nsmall, 4e-3, 25);
            s.cfg.metrics = metrics;
            let t0 = std::time::Instant::now();
            for _ in 0..4 {
                s.step().unwrap();
            }
            t0.elapsed().as_secs_f64()
        });
        if t == 1 {
            t1 = Some(secs);
        }
        let eff = t1
            .map(|base| base / secs / t as f64 * 100.0)
            .unwrap_or(100.0);
        println!(
            "  {t:>3} threads: {} ({eff:.0}% efficiency; paper's dual mode: 82%)",
            fmt_secs(secs)
        );
    }
    if let Some(path) = trace_path {
        match sem_obs::trace::write_chrome(&path) {
            Ok(threads) => eprintln!("chrome trace ({threads} thread(s)) -> {path}"),
            Err(e) => eprintln!("cannot write chrome trace {path}: {e}"),
        }
    }
}
