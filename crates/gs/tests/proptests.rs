//! Property-based tests of the gather-scatter library: algebraic laws of
//! `gs_op` on arbitrary id maps, bitwise equivalence of the distributed
//! form with the serial one under arbitrary partitions, and conservation
//! laws.
//!
//! Properties run as explicit seeded loops over [`sem_linalg::rng`]'s
//! SplitMix64 generator; a failure message prints the exact case seed.

use sem_gs::{exchange_in_process, GsHandle, GsOp, RankGs};
use sem_linalg::rng::{forall, SplitMix64};

const CASES: usize = 100;

/// Random local→global id maps with controlled sharing.
fn random_ids(rng: &mut SplitMix64) -> Vec<usize> {
    let len = rng.range(1, 60);
    (0..len).map(|_| rng.index(20)).collect()
}

/// After one gs(Add), all copies of a global id hold the same value,
/// and the shared total is conserved (sum over unique ids unchanged).
#[test]
fn gs_add_consistency_and_conservation() {
    forall(
        "gs_add_consistency_and_conservation",
        0x65c0_0001,
        CASES,
        |rng| {
            let ids = random_ids(rng);
            let u0 = rng.vec(ids.len(), -5.0, 5.0);
            let h = GsHandle::new(&ids);
            let mut u = u0.clone();
            h.gs(&mut u, GsOp::Add);
            // Consistency.
            for (a, &ida) in ids.iter().enumerate() {
                for (b, &idb) in ids.iter().enumerate() {
                    if ida == idb {
                        assert!((u[a] - u[b]).abs() < 1e-12);
                    }
                }
            }
            // Each copy equals the sum of the original copies.
            let n_global = ids.iter().max().unwrap() + 1;
            let mut sums = vec![0.0; n_global];
            for (i, &g) in ids.iter().enumerate() {
                sums[g] += u0[i];
            }
            for (i, &g) in ids.iter().enumerate() {
                assert!((u[i] - sums[g]).abs() < 1e-10);
            }
        },
    );
}

/// gs is idempotent for Min/Max after the first application.
#[test]
fn gs_minmax_idempotent() {
    forall("gs_minmax_idempotent", 0x65c0_0002, CASES, |rng| {
        let ids = random_ids(rng);
        let data = rng.vec(ids.len(), -5.0, 5.0);
        let h = GsHandle::new(&ids);
        for op in [GsOp::Min, GsOp::Max] {
            let mut u = data.clone();
            h.gs(&mut u, op);
            let snapshot = u.clone();
            h.gs(&mut u, op);
            assert_eq!(&u, &snapshot);
        }
    });
}

/// Vector mode (`gs_fields` over component-major fields) equals
/// per-field scalar application bit for bit, for every reduction op.
#[test]
fn gs_vector_mode_equivalence() {
    forall("gs_vector_mode_equivalence", 0x65c0_0003, CASES, |rng| {
        let ids = random_ids(rng);
        let fields = rng.range(1, 4);
        let h = GsHandle::new(&ids);
        let n = ids.len();
        let data = rng.vec(n * fields, -5.0, 5.0);
        for op in [GsOp::Add, GsOp::Mul, GsOp::Min, GsOp::Max] {
            let mut uv = data.clone();
            h.gs_fields(&mut uv, fields, op);
            let mut per: Vec<Vec<f64>> = data.chunks(n).map(<[f64]>::to_vec).collect();
            for field in per.iter_mut() {
                h.gs(field, op);
            }
            let want: Vec<u64> = per.concat().iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = uv.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{op:?}, {fields} fields");
        }
    });
}

/// Distributed gs over an arbitrary slot partition (1–5 ranks, empty
/// ranks allowed), run with all ranks in one process, matches the serial
/// gs *bit for bit* on real-valued data for every reduction op; and a
/// rebuilt pattern gives identical bits (no map iteration order leaks
/// into the combine order).
#[test]
fn distributed_matches_serial_bitwise() {
    let name = "distributed_matches_serial_bitwise";
    forall(name, 0x65c0_0004, CASES, |rng| {
        let ids = random_ids(rng);
        let p = rng.range(1, 6);
        let data = rng.vec(ids.len(), -5.0, 5.0);
        // Scatter the serial slots over ranks; a slot's canonical
        // position is its serial index, ascending within each rank.
        let mut ids_per_rank: Vec<Vec<usize>> = vec![Vec::new(); p];
        let mut canon_per_rank: Vec<Vec<u64>> = vec![Vec::new(); p];
        let mut fields: Vec<Vec<f64>> = vec![Vec::new(); p];
        let mut slot_of: Vec<(usize, usize)> = Vec::with_capacity(ids.len());
        for (i, &g) in ids.iter().enumerate() {
            let r = rng.index(p);
            slot_of.push((r, ids_per_rank[r].len()));
            ids_per_rank[r].push(g);
            canon_per_rank[r].push(i as u64);
            fields[r].push(data[i]);
        }
        // Build every rank's pattern, pack, deliver, fold.
        let distributed = |op: GsOp| -> Vec<Vec<f64>> {
            let pats: Vec<RankGs> = (0..p)
                .map(|r| RankGs::new(&ids_per_rank, &canon_per_rank, r))
                .collect();
            let mut u = fields.clone();
            let outboxes = pats.iter().zip(&u).map(|(g, f)| g.pack(f)).collect();
            let inboxes = exchange_in_process(outboxes);
            for ((g, f), inbox) in pats.iter().zip(u.iter_mut()).zip(&inboxes) {
                g.fold(f, inbox, op);
            }
            u
        };
        let bits =
            |u: &[Vec<f64>]| -> Vec<u64> { u.concat().iter().map(|v| v.to_bits()).collect() };
        for op in [GsOp::Add, GsOp::Min, GsOp::Max, GsOp::Mul] {
            let mut want = data.clone();
            GsHandle::new(&ids).gs(&mut want, op);
            let got = distributed(op);
            for (i, &(r, off)) in slot_of.iter().enumerate() {
                assert_eq!(
                    got[r][off].to_bits(),
                    want[i].to_bits(),
                    "op {op:?} slot {i}"
                );
            }
            let again = distributed(op);
            assert_eq!(bits(&again), bits(&got), "op {op:?}: rebuild changed bits");
        }
    });
}

/// gs_avg produces a consistent field whose per-id value is the mean.
#[test]
fn gs_avg_is_mean() {
    forall("gs_avg_is_mean", 0x65c0_0005, CASES, |rng| {
        let ids = random_ids(rng);
        let u0 = rng.vec(ids.len(), -5.0, 5.0);
        let h = GsHandle::new(&ids);
        let mut u = u0.clone();
        h.gs_avg(&mut u);
        let n_global = ids.iter().max().unwrap() + 1;
        let mut sums = vec![0.0; n_global];
        let mut counts = vec![0usize; n_global];
        for (i, &g) in ids.iter().enumerate() {
            sums[g] += u0[i];
            counts[g] += 1;
        }
        for (i, &g) in ids.iter().enumerate() {
            assert!((u[i] - sums[g] / counts[g] as f64).abs() < 1e-10);
        }
    });
}
