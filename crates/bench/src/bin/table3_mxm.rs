//! Table 3 reproduction: MFLOPS of the `(n₁×n₂)·(n₂×n₃)` matrix–matrix
//! product kernels on the shapes of an order `N = 15` simulation.
//!
//! Paper columns `lkm / ghm / csm / f3 / f2` map to our kernel menu
//! `naive / blocked / unroll4 / f3 / f2` (see `sem-linalg::mxm`), plus
//! the explicit-SIMD kernel (`sem-linalg::simd`). The paper's
//! finding to reproduce: **no single kernel wins across shapes**,
//! motivating the per-shape "perf." dispatch.
//!
//! Flags beyond the usual `--full`:
//!
//! * `--smoke` — minimal timing budget; for CI schema checks, numbers
//!   are not meaningful.
//! * `--json <path>` — write a `terasem-bench-v1` snapshot (the
//!   committed `results/BENCH_mxm.json`).
//! * `--emit-table` — print the measured per-shape winners for
//!   `sem_linalg::mxm::select_kernel`, one table for a host without a
//!   vector unit and one for the host's ISA (order-preserving kernels
//!   only, so the host's ISA never changes results bitwise).

use sem_bench::snapshot::Snapshot;
use sem_bench::{fmt_secs, header, parse_scale, Scale};
use sem_linalg::mxm::{mxm_flops, mxm_with, MxmKernel};
use sem_linalg::simd::detected_isa;
use std::time::Instant;

fn bench_kernel(k: MxmKernel, n1: usize, n2: usize, n3: usize, min_time: f64) -> f64 {
    // Deterministic data; fresh C each call like the paper's noncached runs.
    let a: Vec<f64> = (0..n1 * n2)
        .map(|i| ((i * 37 % 101) as f64 - 50.0) / 50.0)
        .collect();
    let b: Vec<f64> = (0..n2 * n3)
        .map(|i| ((i * 73 % 97) as f64 - 48.0) / 48.0)
        .collect();
    let mut c = vec![0.0; n1 * n3];
    // Warmup.
    for _ in 0..4 {
        mxm_with(k, &a, n1, n2, &b, n3, &mut c);
    }
    let mut iters = 16u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            mxm_with(k, &a, n1, n2, &b, n3, &mut c);
            std::hint::black_box(&mut c);
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= min_time {
            return (iters * mxm_flops(n1, n2, n3)) as f64 / dt / 1e6;
        }
        iters *= 4;
    }
}

/// The order-preserving menu the `Auto` dispatch may select from (no
/// `unroll4`: it reorders the reduction). `with_simd = false` restricts
/// further to the scalar family.
fn dispatchable(with_simd: bool) -> Vec<MxmKernel> {
    let mut v = vec![
        MxmKernel::Naive,
        MxmKernel::Blocked,
        MxmKernel::F3,
        MxmKernel::F2,
    ];
    if with_simd {
        v.push(MxmKernel::Simd);
    }
    v
}

fn winner(row: &[(MxmKernel, f64)], candidates: &[MxmKernel]) -> (MxmKernel, f64) {
    let mut best = (candidates[0], f64::MIN);
    for &(k, mf) in row {
        if candidates.contains(&k) && mf > best.1 {
            best = (k, mf);
        }
    }
    best
}

fn variant_name(k: MxmKernel) -> &'static str {
    match k {
        MxmKernel::Naive => "Naive",
        MxmKernel::Blocked => "Blocked",
        MxmKernel::Unroll4 => "Unroll4",
        MxmKernel::F3 => "F3",
        MxmKernel::F2 => "F2",
        MxmKernel::Simd => "Simd",
        MxmKernel::Auto => "Auto",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale();
    let smoke = args.iter().any(|a| a == "--smoke");
    let emit_table = args.iter().any(|a| a == "--emit-table");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());
    let min_time = if smoke {
        0.001
    } else {
        match scale {
            Scale::Quick => 0.02,
            Scale::Full => 0.25,
        }
    };
    header("Table 3: MFLOPS for (n1 x n2) x (n2 x n3) mxm kernels (N = 15 shapes)");
    println!("isa: {}", detected_isa().name());
    let shapes = [
        (14usize, 2usize, 14usize),
        (2, 14, 2),
        (16, 14, 16),
        (16, 14, 196),
        (256, 14, 16),
        (14, 16, 14),
        (16, 16, 16),
        (16, 16, 256),
        (196, 16, 14),
        (256, 16, 16),
    ];
    let kernels = [
        MxmKernel::Naive,
        MxmKernel::Blocked,
        MxmKernel::Unroll4,
        MxmKernel::F3,
        MxmKernel::F2,
        MxmKernel::Simd,
        MxmKernel::Auto,
    ];
    print!("{:>5} {:>5} {:>5} |", "n1", "n2", "n3");
    for k in kernels {
        print!("{:>9}", k.name());
    }
    println!("  | winner");
    let mut winner_counts = std::collections::HashMap::new();
    let mut rows: Vec<((usize, usize, usize), Vec<(MxmKernel, f64)>)> = Vec::new();
    let t0 = Instant::now();
    for (n1, n2, n3) in shapes {
        print!("{n1:>5} {n2:>5} {n3:>5} |");
        let mut row = Vec::new();
        for k in kernels {
            let mf = bench_kernel(k, n1, n2, n3, min_time);
            print!("{mf:>9.0}");
            row.push((k, mf));
        }
        let best = winner(
            &row,
            &kernels[..kernels.len() - 1], // all explicit kernels, not Auto
        );
        println!("  | {}", best.0.name());
        *winner_counts.entry(best.0.name()).or_insert(0) += 1;
        rows.push(((n1, n2, n3), row));
    }
    println!();
    println!("winners by shape: {winner_counts:?}");
    println!(
        "paper's finding reproduced: {} distinct winners across shapes \
         (paper: no single method superior)",
        winner_counts.len()
    );

    if emit_table {
        // Measured selection arms for `select_kernel` — restricted to
        // the order-preserving family so `Auto` stays bitwise
        // independent of the host's ISA.
        println!();
        println!("// --- measured selection table (paste into crates/linalg/src/mxm.rs) ---");
        let host = detected_isa().name();
        for (with_simd, isa) in [(false, "scalar"), (true, host)] {
            println!("// isa {isa}:");
            for ((n1, n2, n3), row) in &rows {
                let (k, mf) = winner(row, &dispatchable(with_simd));
                println!(
                    "//   ({n1:>3}, {n2:>2}, {n3:>3}) => MxmKernel::{:<7} // {mf:>6.0} MFLOPS",
                    variant_name(k),
                );
            }
        }
    }

    if let Some(path) = json_path {
        let mut snap = Snapshot::new("mxm");
        snap.threads(1);
        for ((n1, n2, n3), row) in &rows {
            let e = snap.entry(&format!("{n1}x{n2}x{n3}"));
            for (k, mf) in row {
                e.num(k.name(), *mf);
            }
            let best = winner(row, &kernels[..kernels.len() - 1]);
            e.label(best.0.name());
        }
        let path = std::path::PathBuf::from(path);
        snap.write(&path).expect("write snapshot");
        println!("snapshot: {}", path.display());
    }
    println!("elapsed: {}", fmt_secs(t0.elapsed().as_secs_f64()));
}
