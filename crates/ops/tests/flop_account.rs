//! The one flop account, `Counter::MxmFlops`, metered at the `mxm`
//! dispatch: the Helmholtz and stiffness kernels run the same products,
//! so they meter the same flops in the same number of calls, in 2D and
//! 3D. A binary of its own, because the `sem_obs` counters are
//! process-global.

use sem_mesh::generators::{box2d, box3d};
use sem_obs::counters::{self, Counter};
use sem_ops::laplace::{helmholtz_local, stiffness_local};
use sem_ops::SemOps;

/// `(MxmFlops, MxmCalls)` metered by `apply`.
fn metered(apply: impl FnOnce()) -> (u64, u64) {
    let c0 = counters::snapshot();
    apply();
    let d = counters::snapshot().delta(&c0);
    (d.get(Counter::MxmFlops), d.get(Counter::MxmCalls))
}

#[test]
fn stiffness_and_helmholtz_meter_the_pinned_mxm_work() {
    sem_obs::set_enabled(true);
    // 3×2 box at N = 7: per element, D and Dᵀ take 2 products each of
    // 8×8 by 8×8 (1024 flops), so 6 × 4096 flops in 24 calls. 2×2×2 box
    // at N = 4: per element, D and Dᵀ each take 1 x product, 5 y slabs
    // and 1 z product, 1250 flops per direction, so 8 × 7500 flops in
    // 112 calls.
    let cases = [
        (
            SemOps::new(box2d(3, 2, [0.0, 1.0], [0.0, 1.0], false, false), 7),
            (24576, 24),
        ),
        (
            SemOps::new(
                box3d(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [false; 3]),
                4,
            ),
            (60000, 112),
        ),
    ];
    for (ops, want) in cases {
        let dim = ops.geo.dim;
        let u: Vec<f64> = (0..ops.n_velocity())
            .map(|i| (i % 7) as f64 - 3.0)
            .collect();
        let mut out = vec![0.0; u.len()];
        let runs = [
            metered(|| stiffness_local(&ops, &u, &mut out)),
            metered(|| helmholtz_local(&ops, &u, &mut out, 0.5, 2.0)),
        ];
        for got in runs {
            assert_eq!(got, want, "{dim}D: (mxm flops, mxm calls)");
        }
    }
}
