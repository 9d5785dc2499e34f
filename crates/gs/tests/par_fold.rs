//! The parallel fold of [`GsHandle::gs_fields`] is bitwise-equal to a
//! serial fold at every thread count: each group is folded by the one
//! thread whose element block holds its lowest copy, copy by copy in
//! ascending local order. The meshes have element counts that the thread
//! counts do not divide, so groups straddle block boundaries, and some
//! have fewer elements than threads.

use sem_comm::par::with_threads;
use sem_gs::{GsHandle, GsOp};
use sem_linalg::rng::SplitMix64;

const THREADS: [usize; 4] = [1, 2, 3, 5];
const OPS: [GsOp; 4] = [GsOp::Add, GsOp::Mul, GsOp::Min, GsOp::Max];

/// Element-major global ids of a `kx × ky` box of order-`p` quads
/// (`(p+1)²` slots per element), periodic in x when asked.
fn box_ids(kx: usize, ky: usize, p: usize, periodic_x: bool) -> Vec<usize> {
    let nxg = if periodic_x { kx * p } else { kx * p + 1 };
    let mut ids = Vec::with_capacity(kx * ky * (p + 1) * (p + 1));
    for ey in 0..ky {
        for ex in 0..kx {
            for j in 0..=p {
                for i in 0..=p {
                    let gx = (ex * p + i) % nxg;
                    ids.push((ey * p + j) * nxg + gx);
                }
            }
        }
    }
    ids
}

/// The reference: group the copies of every shared id in ascending local
/// order and fold each field from the op's identity, one group at a time.
fn serial_fold(ids: &[usize], u: &mut [f64], fields: usize, op: GsOp) {
    let n = ids.len();
    let n_global = ids.iter().max().map_or(0, |m| m + 1);
    let mut copies = vec![Vec::new(); n_global];
    for (i, &g) in ids.iter().enumerate() {
        copies[g].push(i);
    }
    for c in copies.iter().filter(|c| c.len() >= 2) {
        for f in 0..fields {
            let mut acc = op.identity();
            for &i in c {
                acc = op.combine(acc, u[f * n + i]);
            }
            for &i in c {
                u[f * n + i] = acc;
            }
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn parallel_fold_matches_serial_fold_for_every_op_and_field_count() {
    // (kx, ky, p, periodic_x): K = 3, 7, 9 and 14 elements.
    let meshes = [
        (3, 1, 2, false),
        (7, 1, 3, true),
        (3, 3, 4, false),
        (7, 2, 3, true),
    ];
    let mut rng = SplitMix64::new(0x9f01_0001);
    for (kx, ky, p, periodic) in meshes {
        let ids = box_ids(kx, ky, p, periodic);
        let elem_len = (p + 1) * (p + 1);
        let h = GsHandle::for_elements(&ids, elem_len);
        let n = ids.len();
        for op in OPS {
            for fields in 1..=3 {
                // Mul needs values near 1 so products of four copies stay
                // well inside the range of f64.
                let u0 = match op {
                    GsOp::Mul => rng.vec(n * fields, 0.5, 1.5),
                    _ => rng.vec(n * fields, -1.0, 1.0),
                };
                let mut want = u0.clone();
                serial_fold(&ids, &mut want, fields, op);
                for nt in THREADS {
                    let mut got = u0.clone();
                    with_threads(nt, || h.gs_fields(&mut got, fields, op));
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{kx}x{ky} p={p} periodic={periodic} {op:?} fields={fields} threads={nt}"
                    );
                }
            }
        }
    }
}

#[test]
fn one_slot_elements_fold_like_the_serial_fold() {
    // `GsHandle::new`: each slot its own element, ids in no mesh order.
    let ids = vec![4, 0, 2, 4, 1, 2, 2, 3, 0, 4, 5, 1, 6];
    let h = GsHandle::new(&ids);
    let u0 = SplitMix64::new(0x9f01_0002).vec(ids.len() * 2, -1.0, 1.0);
    let mut want = u0.clone();
    serial_fold(&ids, &mut want, 2, GsOp::Add);
    for nt in THREADS {
        let mut got = u0.clone();
        with_threads(nt, || h.gs_fields(&mut got, 2, GsOp::Add));
        assert_eq!(bits(&got), bits(&want), "threads={nt}");
    }
}

#[test]
fn masked_fold_matches_fold_then_mask() {
    // A 5 × 2 box, Dirichlet on its left and right edges: the masked
    // slots of shared nodes get `sum·mask` in the fold, the unshared
    // ones are masked by the block that holds them.
    let (kx, ky, p) = (5, 2, 3);
    let ids = box_ids(kx, ky, p, false);
    let nxg = kx * p + 1;
    let mask: Vec<f64> = ids
        .iter()
        .map(|&g| {
            if g % nxg == 0 || g % nxg == nxg - 1 {
                0.0
            } else {
                1.0
            }
        })
        .collect();
    let h = GsHandle::for_elements(&ids, (p + 1) * (p + 1));
    let mut mult = vec![0usize; ids.iter().max().unwrap() + 1];
    for &g in &ids {
        mult[g] += 1;
    }
    let unshared: Vec<u32> = (0..ids.len())
        .filter(|&i| mult[ids[i]] < 2 && mask[i] != 1.0)
        .map(|i| i as u32)
        .collect();
    assert!(
        !unshared.is_empty(),
        "the mesh must have unshared masked slots"
    );
    let u0 = SplitMix64::new(0x9f01_0003).vec(ids.len(), -1.0, 1.0);
    let mut want = u0.clone();
    serial_fold(&ids, &mut want, 1, GsOp::Add);
    for (v, m) in want.iter_mut().zip(&mask) {
        *v *= m;
    }
    for nt in THREADS {
        let mut got = u0.clone();
        with_threads(nt, || h.gs_masked(&mut got, &mask, &unshared));
        assert_eq!(bits(&got), bits(&want), "threads={nt}");
    }
}

#[test]
#[should_panic(expected = "ungrouped slots")]
fn masked_fold_rejects_a_grouped_slot_in_the_unshared_list() {
    let ids = vec![0, 1, 2, 2, 3, 4];
    let h = GsHandle::for_elements(&ids, 3);
    let mut u = vec![1.0; 6];
    h.gs_masked(&mut u, &[0.0; 6], &[0, 2]);
}
