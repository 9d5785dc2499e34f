//! Cross-crate integration: the distributed pieces — RSB partitioning,
//! the distributed gather-scatter with all ranks in one process, and the
//! XXᵀ coarse solver on a coarse operator assembled from a real mesh.

use terasem::gs::{exchange_in_process, GsHandle, GsOp};
use terasem::linalg::rng::SplitMix64;
use terasem::mesh::generators::{box2d, box3d};
use terasem::mesh::partition::{cut_edges, partition_linear, partition_rsb, shared_vertices};
use terasem::mesh::{Geometry, GlobalNumbering, VertexNumbering};
use terasem::net::RankLayout;
use terasem::ops::SemOps;
use terasem::solvers::coarse::assemble_vertex_laplacian;
use terasem::solvers::sparse::Csr;
use terasem::solvers::xxt::{nested_dissection, XxtSolver};

/// Distributed gather-scatter over an RSB partition reproduces the serial
/// direct-stiffness summation bit for bit, on real-valued data.
#[test]
fn distributed_gs_matches_serial_on_partitioned_mesh() {
    let mesh = box2d(6, 4, [0.0, 3.0], [0.0, 2.0], false, false);
    let n = 4;
    let geo = Geometry::new(&mesh, n);
    let num = GlobalNumbering::new(&mesh, &geo);
    let p = 4;
    let part = partition_rsb(&mesh, p);
    let layout = RankLayout::new(&num.ids, geo.npts, &part, p).unwrap();
    let serial_field = SplitMix64::new(0x1ea7_0001).vec(num.ids.len(), -11.0, 11.0);
    // Serial reference.
    let mut want = serial_field.clone();
    GsHandle::new(&num.ids).gs(&mut want, GsOp::Add);
    // Distributed: pack, deliver, fold.
    let pats: Vec<_> = (0..p).map(|r| layout.gs(r)).collect();
    let mut fields: Vec<Vec<f64>> = (0..p).map(|r| layout.extract(r, &serial_field)).collect();
    let outboxes = pats.iter().zip(&fields).map(|(g, u)| g.pack(u)).collect();
    let inboxes = exchange_in_process(outboxes);
    for ((g, u), inbox) in pats.iter().zip(fields.iter_mut()).zip(&inboxes) {
        g.fold(u, inbox, GsOp::Add);
    }
    let bits = |u: &[f64]| -> Vec<u64> { u.iter().map(|v| v.to_bits()).collect() };
    for (r, u) in fields.iter().enumerate() {
        assert_eq!(bits(u), bits(&layout.extract(r, &want)), "rank {r}");
    }
    // Communication actually happened, through aggregated messages: one
    // per neighbour per rank.
    let delivered: usize = inboxes.iter().map(Vec::len).sum();
    assert!(delivered > 0);
    let msgs: u64 = pats.iter().map(|g| g.traffic_per_call().0).sum();
    assert_eq!(delivered as u64, msgs);
}

/// RSB communication quality: fewer shared vertices than a naive linear
/// split on a 3D mesh (the paper's reason for using it).
#[test]
fn rsb_reduces_shared_vertices_in_3d() {
    let mesh = box3d(4, 4, 4, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [false; 3]);
    let p = 8;
    let rsb = partition_rsb(&mesh, p);
    let lin = partition_linear(mesh.num_elems(), p);
    let sv_rsb = shared_vertices(&mesh, &rsb);
    let sv_lin = shared_vertices(&mesh, &lin);
    assert!(
        sv_rsb <= sv_lin,
        "RSB {sv_rsb} shared vertices vs linear {sv_lin}"
    );
    let adj = mesh.adjacency();
    assert!(cut_edges(&adj, &rsb) <= cut_edges(&adj, &lin));
}

/// XXᵀ on the *actual* coarse operator of a spectral element mesh (the
/// element-vertex Laplacian), compared against a dense direct solve.
#[test]
fn xxt_solves_real_coarse_operator() {
    let mesh = box2d(8, 8, [0.0, 1.0], [0.0, 1.0], false, false);
    let ops = SemOps::new(mesh, 4);
    let vn = VertexNumbering::new(&ops.mesh);
    let mut triplets = assemble_vertex_laplacian(&ops, &vn);
    // Pin vertex 0 (same regularization as the coarse solver).
    triplets.retain(|&(i, j, _)| i != 0 && j != 0);
    triplets.push((0, 0, 1.0));
    let a0 = Csr::from_triplets(vn.n_global, &triplets);
    let order = nested_dissection(&a0.adjacency());
    let xxt = XxtSolver::new(&a0, &order);
    let n = a0.dim();
    let b = SplitMix64::new(0x1ea7_0002).vec(n, -1.0, 1.0);
    let x = xxt.solve(&b);
    let ax = a0.matvec(&x);
    let resid: f64 = ax
        .iter()
        .zip(b.iter())
        .map(|(g, w)| (g - w) * (g - w))
        .sum::<f64>()
        .sqrt();
    assert!(
        resid < 1e-9,
        "XXT residual on real coarse operator: {resid}"
    );
    // Sparsity: far below dense.
    assert!(
        xxt.nnz() < n * n / 2,
        "factor not sparse: {} of {}",
        xxt.nnz(),
        n * n
    );
}

/// The gather-scatter message volume scales with the partition's shared
/// faces — the quantity RSB minimizes (§6).
#[test]
fn gs_volume_tracks_partition_quality() {
    let mesh = box2d(8, 8, [0.0, 1.0], [0.0, 1.0], false, false);
    let n = 3;
    let geo = Geometry::new(&mesh, n);
    let num = GlobalNumbering::new(&mesh, &geo);
    let build = |part: &[usize], p: usize| -> u64 {
        let layout = RankLayout::new(&num.ids, geo.npts, part, p).unwrap();
        (0..p).map(|r| layout.gs(r).traffic_per_call().1).sum()
    };
    let p = 4;
    let rsb_words = build(&partition_rsb(&mesh, p), p);
    let lin_words = build(&partition_linear(mesh.num_elems(), p), p);
    assert!(
        rsb_words <= lin_words,
        "RSB {rsb_words} words vs linear {lin_words}"
    );
}
