//! Microbench of the matrix-free operator evaluations (§3): the
//! deformed-element Laplacian (Eq. 4 — `12N⁴ + 15N³` work per element),
//! the Helmholtz operator, the consistent Poisson operator `E`, and the
//! convection operator — whole (`convect`) and its per-field kernel
//! against a precomputed contravariant velocity
//! (`convect_contravariant`, what each OIFS stage applies).
//! Runs on the in-repo harness ([`sem_bench::timing`]).
//!
//! Each entry carries the operator's median time per call
//! (`median_s`), plus `gflops` for stiffness, Helmholtz and `E`: one
//! call's metered `mxm` flops over its median.
//! Set `TERASEM_BENCH_JSON=<path>` to also write a `terasem-bench-v1`
//! snapshot (the committed `results/BENCH_operators.json`).

use sem_bench::snapshot::Snapshot;
use sem_bench::timing::BenchGroup;
use sem_mesh::generators::{box2d, box3d};
use sem_obs::counters::{self, Counter};
use sem_ops::convect::{contravariant, convect, convect_contravariant};
use sem_ops::laplace::{helmholtz_local, stiffness_local};
use sem_ops::pressure::EOperator;
use sem_ops::SemOps;

/// The `mxm` flops `apply` meters (the counters must be on).
fn metered_flops(apply: impl FnOnce()) -> u64 {
    let flops0 = counters::get(Counter::MxmFlops);
    apply();
    counters::get(Counter::MxmFlops) - flops0
}

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
        let np = ops.n_pressure();
        let p: Vec<f64> = (0..np).map(|i| (i as f64 * 0.29).cos()).collect();
        let mut ep = vec![0.0; np];
        let mut e = EOperator::new(ops);
        // Throughput flops: the mxm flop account of one stiffness call
        // (Helmholtz runs the same products) and of one E call, metered
        // with the counters on; they go off again so the timed loops
        // count nothing.
        sem_obs::set_enabled(true);
        let flops = metered_flops(|| stiffness_local(ops, &u, &mut out));
        let e_flops = metered_flops(|| e.apply(ops, &p, &mut ep));
        sem_obs::set_enabled(false);
        let mut group = BenchGroup::new(&format!("operators_{label}"));
        group.sample_size(20);
        let mut medians: Vec<(&str, f64)> = Vec::new();
        let s = group.throughput("stiffness", flops, || {
            stiffness_local(ops, &u, &mut out);
            std::hint::black_box(&mut out);
        });
        medians.push(("stiffness", s.median));
        let s = group.throughput("helmholtz", flops, || {
            helmholtz_local(ops, &u, &mut out, 0.01, 100.0);
            std::hint::black_box(&mut out);
        });
        medians.push(("helmholtz", s.median));
        let s = group.throughput("consistent_poisson_e", e_flops, || {
            e.apply(ops, &p, &mut ep);
            std::hint::black_box(&mut ep);
        });
        medians.push(("consistent_poisson_e", s.median));
        let c: Vec<Vec<f64>> = (0..ops.geo.dim)
            .map(|d| (0..n).map(|i| (i as f64 * 0.07 + d as f64).cos()).collect())
            .collect();
        let refs: Vec<&[f64]> = c.iter().map(Vec::as_slice).collect();
        let mut work = vec![vec![0.0; n]; ops.geo.dim];
        let s = group.bench("convect", || {
            convect(ops, &refs, &u, &mut out, &mut work);
            std::hint::black_box(&mut out);
        });
        medians.push(("convect", s.median));
        work.clone_from(&c);
        contravariant(ops, &mut work);
        let s = group.bench("convect_contravariant", || {
            convect_contravariant(ops, &work, &u, &mut out);
            std::hint::black_box(&mut out);
        });
        medians.push(("convect_contravariant", s.median));
        for (op, median) in medians {
            let e = snap.entry(&format!("{label}/{op}"));
            e.num("median_s", median);
            let op_flops = match op {
                "stiffness" | "helmholtz" => Some(flops),
                "consistent_poisson_e" => Some(e_flops),
                _ => None,
            };
            if let Some(f) = op_flops {
                e.num("gflops", f as f64 / median / 1e9);
            }
        }
    }
    if let Ok(path) = std::env::var("TERASEM_BENCH_JSON") {
        let path = std::path::PathBuf::from(path);
        snap.write(&path).expect("write snapshot");
        println!("snapshot: {}", path.display());
    }
}
