//! Microbench behind Table 3: the mxm kernel family on representative
//! SEM shapes (square operator, long-C, coarse mapping), plus the
//! narrow products of the `E = D B̄⁻¹ Dᵀ` apply at the hairpin's
//! `N = 5`. Runs on the in-repo harness ([`sem_bench::timing`]).

use sem_bench::timing::BenchGroup;
use sem_linalg::mxm::{mxm_flops, mxm_with, MxmKernel};

fn main() {
    let shapes = [
        (16usize, 16usize, 16usize), // D u along x (N = 15)
        (16, 14, 196),               // pressure interpolation, long C
        (2, 14, 2),                  // coarse mapping (2 × N₂)·(N₂ × 2)
        (256, 16, 16),               // z-direction 3D contraction
        (36, 6, 6),                  // N = 5: x-direction derivative
        (6, 6, 6),                   // N = 5: y-slab derivative
        (16, 4, 6),                  // N = 5: Gauss → GLL, x stage
        (36, 6, 4),                  // N = 5: GLL → Gauss, x stage
        (4, 6, 4),                   // N = 5: GLL → Gauss, y slab
    ];
    for (n1, n2, n3) in shapes {
        let mut group = BenchGroup::new(&format!("mxm_{n1}x{n2}x{n3}"));
        group.sample_size(20);
        let a: Vec<f64> = (0..n1 * n2).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n2 * n3).map(|i| (i as f64 * 0.73).cos()).collect();
        let mut out = vec![0.0; n1 * n3];
        for kernel in MxmKernel::ALL.iter().copied().chain([MxmKernel::Auto]) {
            group.throughput(kernel.name(), mxm_flops(n1, n2, n3), || {
                mxm_with(kernel, &a, n1, n2, &b, n3, &mut out);
                std::hint::black_box(&mut out);
            });
        }
    }
}
