//! Microbench of the gather-scatter kernel (§6): scalar vs vector mode
//! (three component-major fields in one exchange),
//! and the distributed form's per-op cost with all ranks in one process
//! (pack, in-process delivery, fold).
//! Runs on the in-repo harness ([`sem_bench::timing`]).

use sem_bench::timing::BenchGroup;
use sem_gs::{exchange_in_process, GsHandle, GsOp, RankGs};
use sem_mesh::generators::box2d;
use sem_mesh::partition::partition_rsb;
use sem_mesh::{Geometry, GlobalNumbering};

fn main() {
    let mesh = box2d(16, 16, [0.0, 1.0], [0.0, 1.0], false, false);
    let n = 8;
    let geo = Geometry::new(&mesh, n);
    let num = GlobalNumbering::new(&mesh, &geo);
    let gs = GsHandle::for_elements(&num.ids, geo.npts);
    let nl = num.ids.len();
    let mut u: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut group = BenchGroup::new("gather_scatter");
    group.sample_size(30);
    group.bench("scalar_add", || {
        gs.gs(&mut u, GsOp::Add);
        std::hint::black_box(&mut u);
    });
    let mut uv: Vec<f64> = (0..nl * 3).map(|i| (i as f64 * 0.17).cos()).collect();
    group.bench("vector3_add", || {
        gs.gs_fields(&mut uv, 3, GsOp::Add);
        std::hint::black_box(&mut uv);
    });
    // Distributed over 8 ranks in one process (RSB partition).
    let p = 8;
    let part = partition_rsb(&mesh, p);
    let npts = geo.npts;
    let mut ids_per_rank: Vec<Vec<usize>> = vec![Vec::new(); p];
    let mut canon_per_rank: Vec<Vec<u64>> = vec![Vec::new(); p];
    for (e, &r) in part.iter().enumerate() {
        ids_per_rank[r].extend_from_slice(&num.ids[e * npts..(e + 1) * npts]);
        canon_per_rank[r].extend((e * npts..(e + 1) * npts).map(|c| c as u64));
    }
    let pats: Vec<RankGs> = (0..p)
        .map(|r| RankGs::new(&ids_per_rank, &canon_per_rank, r))
        .collect();
    let mut fields: Vec<Vec<f64>> = ids_per_rank
        .iter()
        .map(|ids| ids.iter().map(|&g| g as f64).collect())
        .collect();
    group.bench("distributed_add_p8", || {
        let outboxes = pats.iter().zip(&fields).map(|(g, u)| g.pack(u)).collect();
        let inboxes = exchange_in_process(outboxes);
        for ((g, u), inbox) in pats.iter().zip(fields.iter_mut()).zip(&inboxes) {
            g.fold(u, inbox, GsOp::Add);
        }
        std::hint::black_box(&mut fields);
    });
}
