//! One flop account for the convection kernels: on a 3D box, the
//! `SemOps` charge of one `convect` call, less its pointwise terms, is
//! exactly the `mxm` flop count the same call meters. A binary of its
//! own, because the `sem_obs` counters are process-global.

use sem_mesh::generators::box3d;
use sem_obs::counters::{self, Counter};
use sem_ops::convect::convect;
use sem_ops::fields::eval_on_nodes;
use sem_ops::SemOps;

#[test]
fn convect_semops_charge_less_pointwise_terms_equals_mxm_flops() {
    let mesh = box3d(2, 3, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [false; 3]);
    let ops = SemOps::new(mesh, 5);
    let n = ops.n_velocity();
    let u = eval_on_nodes(&ops, |x, y, z| (x * y).sin() + z);
    let c: Vec<Vec<f64>> = (0..3)
        .map(|d| eval_on_nodes(&ops, |x, y, z| (x + d as f64 * y - z).cos()))
        .collect();
    let refs: Vec<&[f64]> = c.iter().map(Vec::as_slice).collect();
    let mut out = vec![0.0; n];
    let mut work = vec![vec![0.0; n]; 3];
    sem_obs::set_enabled(true);
    let mxm0 = counters::get(Counter::MxmFlops);
    let ops0 = ops.flops_so_far();
    convect(&ops, &refs, &u, &mut out, &mut work);
    let mxm = counters::get(Counter::MxmFlops) - mxm0;
    let charged = ops.flops_so_far() - ops0;
    // Per node: C = c·∂r/∂x is 3 components of 3 products and 2 sums,
    // and the dot of C with the reference derivatives 3 products and 2
    // sums.
    let pointwise = (3 * 5 + 5) * n as u64;
    assert!(mxm > 0, "the reference derivatives run through mxm");
    assert_eq!(charged - pointwise, mxm);
}
