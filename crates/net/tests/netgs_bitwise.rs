//! The central `sem-net` correctness property: the distributed
//! gather-scatter over real Unix-socket transports is *bitwise*
//! identical to the serial `GsHandle` — for every reduction op, every
//! random partition (empty ranks included at this level), every rank
//! count. Ranks run as threads, each with its own `Transport` over a
//! shared socket directory, exactly as the spawned processes do.

use sem_gs::{GsHandle, GsOp, RankGs};
use sem_linalg::rng::{forall, SplitMix64};
use sem_net::{NetComm, Transport};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const CASES: usize = 20;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsn_gs_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run one distributed gs on `p` rank-threads; return per-rank result
/// bits in rank order.
fn run_distributed(
    dir: &Path,
    ids_per_rank: &[Vec<usize>],
    canon_per_rank: &[Vec<u64>],
    fields: &[Vec<f64>],
    op: GsOp,
) -> Vec<Vec<u64>> {
    let p = ids_per_rank.len();
    let ids = Arc::new(ids_per_rank.to_vec());
    let canon = Arc::new(canon_per_rank.to_vec());
    let fields = Arc::new(fields.to_vec());
    let handles: Vec<_> = (0..p)
        .map(|r| {
            let (dir, ids, canon, fields) =
                (dir.to_path_buf(), ids.clone(), canon.clone(), fields.clone());
            std::thread::spawn(move || {
                let t = Transport::bootstrap(&dir, r, p, Duration::from_secs(20))
                    .unwrap_or_else(|e| panic!("rank {r}: {e}"));
                let mut comm = NetComm::new(t);
                let gs = RankGs::new(&ids, &canon, r);
                let mut u = fields[r].clone();
                let inbox = comm.exchange(&gs.pack(&u)).unwrap();
                gs.fold(&mut u, &inbox, op);
                u.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Random serial layout scattered over `p` ranks. Returns
/// `(serial_ids, slot_of, ids_per_rank, canon_per_rank)` where
/// `slot_of[i] = (rank, local_slot)` of serial position `i`.
#[allow(clippy::type_complexity)]
fn random_partition(
    rng: &mut SplitMix64,
    p: usize,
) -> (
    Vec<usize>,
    Vec<(usize, usize)>,
    Vec<Vec<usize>>,
    Vec<Vec<u64>>,
) {
    let n = rng.range(1, 50);
    let ids: Vec<usize> = (0..n).map(|_| rng.index(12)).collect();
    let mut ids_per_rank: Vec<Vec<usize>> = vec![Vec::new(); p];
    let mut canon_per_rank: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut slot_of = Vec::with_capacity(n);
    for (i, &g) in ids.iter().enumerate() {
        // Random rank per serial slot: canon stays ascending per rank
        // because i is. Some ranks may end up empty — RankGs tolerates
        // that (the launcher-level layout is the one that rejects it).
        let r = rng.index(p);
        slot_of.push((r, ids_per_rank[r].len()));
        ids_per_rank[r].push(g);
        canon_per_rank[r].push(i as u64);
    }
    (ids, slot_of, ids_per_rank, canon_per_rank)
}

#[test]
fn netgs_matches_serial_gs_bitwise_over_real_sockets() {
    let root = scratch("prop");
    let mut case = 0usize;
    forall(
        "netgs_matches_serial_gs_bitwise",
        0x65c0_0007,
        CASES,
        |rng| {
            let p = rng.range(1, 5);
            let (ids, slot_of, ids_per_rank, canon_per_rank) = random_partition(rng, p);
            let u0 = rng.vec(ids.len(), -5.0, 5.0);
            let fields: Vec<Vec<f64>> = (0..p)
                .map(|r| {
                    slot_of
                        .iter()
                        .enumerate()
                        .filter(|(_, &(rr, _))| rr == r)
                        .map(|(i, _)| u0[i])
                        .collect()
                })
                .collect();
            for (oi, op) in [GsOp::Add, GsOp::Min, GsOp::Max, GsOp::Mul]
                .into_iter()
                .enumerate()
            {
                // Serial reference.
                let h = GsHandle::new(&ids);
                let mut want = u0.clone();
                h.gs(&mut want, op);
                // Distributed, over real sockets.
                let dir = root.join(format!("c{case}_{oi}"));
                std::fs::create_dir_all(&dir).unwrap();
                let got = run_distributed(&dir, &ids_per_rank, &canon_per_rank, &fields, op);
                for (i, &(r, slot)) in slot_of.iter().enumerate() {
                    assert_eq!(
                        got[r][slot],
                        want[i].to_bits(),
                        "op {op:?}, serial slot {i} on rank {r}"
                    );
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
            case += 1;
        },
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Same property on the real solver layout: RSB-partitioned shear-layer
/// numbering with live-ish data, across rank counts.
#[test]
fn netgs_matches_serial_on_rsb_partitioned_mesh() {
    use sem_mesh::generators::box2d;
    use sem_mesh::partition::partition_rsb;
    use sem_net::RankLayout;
    use sem_ops::SemOps;

    let root = scratch("rsb");
    let mesh = box2d(3, 3, [0.0, 1.0], [0.0, 1.0], true, true);
    let ops = SemOps::new(mesh, 4);
    let full: Vec<f64> = (0..ops.n_velocity())
        .map(|i| (i as f64 * 0.37).sin() * 3.0)
        .collect();
    for p in [1usize, 2, 3, 4] {
        let part = partition_rsb(&ops.mesh, p);
        let layout = RankLayout::new(&ops.num.ids, ops.geo.npts, &part, p).unwrap();
        let fields: Vec<Vec<f64>> = (0..p).map(|r| layout.extract(r, &full)).collect();
        let mut want = full.clone();
        ops.gs.gs(&mut want, GsOp::Add);
        let dir = root.join(format!("p{p}"));
        std::fs::create_dir_all(&dir).unwrap();
        let got = run_distributed(
            &dir,
            &layout.ids_per_rank,
            &layout.canon_per_rank,
            &fields,
            GsOp::Add,
        );
        for r in 0..p {
            let want_bits: Vec<u64> = layout
                .extract(r, &want)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got[r], want_bits, "P={p}, rank {r}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
