//! Microbench of the matrix-free operator evaluations (§3): the
//! deformed-element Laplacian (Eq. 4 — `12N⁴ + 15N³` work per element),
//! the Helmholtz operator, the consistent Poisson operator `E`, and the
//! convection operator — whole (`convect`) and its per-field kernel
//! against a precomputed contravariant velocity
//! (`convect_contravariant`, what each OIFS stage applies).
//! Runs on the in-repo harness ([`sem_bench::timing`]).
//!
//! Each operator is measured under both operator backends — `scalar`
//! (the paper's "std.": reference kernels, unfused Helmholtz) and `simd`
//! (the "perf.": explicit-SIMD mxm + fused element-resident kernels) —
//! the two produce bitwise-identical fields, so the delta is pure speed.
//! Set `TERASEM_BENCH_JSON=<path>` to also write a `terasem-bench-v1`
//! snapshot (the committed `results/BENCH_operators.json`).

use sem_bench::snapshot::Snapshot;
use sem_bench::timing::BenchGroup;
use sem_linalg::backend::{set_backend, Backend};
use sem_mesh::generators::{box2d, box3d};
use sem_obs::counters::{self, Counter};
use sem_ops::convect::{contravariant, convect, convect_contravariant};
use sem_ops::laplace::{helmholtz_local, stiffness_local};
use sem_ops::pressure::EOperator;
use sem_ops::SemOps;

fn main() {
    // 2D: K = 64, N = 8.
    let ops2 = SemOps::new(box2d(8, 8, [0.0, 1.0], [0.0, 1.0], false, false), 8);
    // 3D: K = 27, N = 7 (deformed counts identical for the box).
    let ops3 = SemOps::new(
        box3d(3, 3, 3, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [false; 3]),
        7,
    );
    let mut snap = Snapshot::new("operators");
    snap.threads(sem_comm::par::current_threads() as u64);
    for (label, ops) in [("2d_k64_n8", &ops2), ("3d_k27_n7", &ops3)] {
        let n = ops.n_velocity();
        let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut out = vec![0.0; n];
        // Throughput flops: the mxm flop account of one stiffness call
        // (Helmholtz runs the same products), metered with the counters
        // on; they go off again so the timed loops count nothing.
        sem_obs::set_enabled(true);
        let flops0 = counters::get(Counter::MxmFlops);
        stiffness_local(ops, &u, &mut out);
        let flops = counters::get(Counter::MxmFlops) - flops0;
        sem_obs::set_enabled(false);
        // std. = scalar backend (reference kernels), perf. = simd backend
        // (explicit-SIMD mxm + fused Helmholtz). set_backend is process-
        // wide, so the choice reaches the par worker threads too.
        let mut medians: Vec<(&str, &str, f64)> = Vec::new();
        for (bname, b) in [("std", Backend::Scalar), ("perf", Backend::Simd)] {
            set_backend(b);
            let mut group = BenchGroup::new(&format!("operators_{label}_{bname}"));
            group.sample_size(20);
            let s = group.throughput("stiffness", flops, || {
                stiffness_local(ops, &u, &mut out);
                std::hint::black_box(&mut out);
            });
            medians.push(("stiffness", bname, s.median));
            let s = group.throughput("helmholtz", flops, || {
                helmholtz_local(ops, &u, &mut out, 0.01, 100.0);
                std::hint::black_box(&mut out);
            });
            medians.push(("helmholtz", bname, s.median));
            let np = ops.n_pressure();
            let p: Vec<f64> = (0..np).map(|i| (i as f64 * 0.29).cos()).collect();
            let mut ep = vec![0.0; np];
            let mut e = EOperator::new(ops);
            let s = group.bench("consistent_poisson_e", || {
                e.apply(ops, &p, &mut ep);
                std::hint::black_box(&mut ep);
            });
            medians.push(("consistent_poisson_e", bname, s.median));
            let c: Vec<Vec<f64>> = (0..ops.geo.dim)
                .map(|d| (0..n).map(|i| (i as f64 * 0.07 + d as f64).cos()).collect())
                .collect();
            let refs: Vec<&[f64]> = c.iter().map(Vec::as_slice).collect();
            let mut work = vec![vec![0.0; n]; ops.geo.dim];
            let s = group.bench("convect", || {
                convect(ops, &refs, &u, &mut out, &mut work);
                std::hint::black_box(&mut out);
            });
            medians.push(("convect", bname, s.median));
            work.clone_from(&c);
            contravariant(ops, &mut work);
            let s = group.bench("convect_contravariant", || {
                convect_contravariant(ops, &work, &u, &mut out);
                std::hint::black_box(&mut out);
            });
            medians.push(("convect_contravariant", bname, s.median));
        }
        set_backend(Backend::Auto);
        for op in [
            "stiffness",
            "helmholtz",
            "consistent_poisson_e",
            "convect",
            "convect_contravariant",
        ] {
            let get = |bname: &str| {
                medians
                    .iter()
                    .find(|(o, b, _)| *o == op && *b == bname)
                    .map(|(_, _, m)| *m)
                    .unwrap()
            };
            let (std_s, perf_s) = (get("std"), get("perf"));
            let e = snap.entry(&format!("{label}/{op}"));
            e.num("std_median_s", std_s).num("perf_median_s", perf_s);
            e.num("speedup", std_s / perf_s);
            if op == "stiffness" || op == "helmholtz" {
                e.num("std_gflops", flops as f64 / std_s / 1e9);
                e.num("perf_gflops", flops as f64 / perf_s / 1e9);
            }
            println!(
                "{label}/{op}: perf/std speedup {:.2}x",
                std_s / perf_s
            );
        }
    }
    if let Ok(path) = std::env::var("TERASEM_BENCH_JSON") {
        let path = std::path::PathBuf::from(path);
        snap.write(&path).expect("write snapshot");
        println!("snapshot: {}", path.display());
    }
}
