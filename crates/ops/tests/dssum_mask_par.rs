//! `SemOps::dssum_mask` is one parallel region — the fold writes
//! `sum·mask` to every copy of a shared node and each block masks its
//! own unshared Dirichlet nodes — and it stays bitwise-equal to the
//! staged sequence (a serial fold by global id, then a mask sweep over
//! every node) at every thread count. An injected exchange drop skips
//! the fold, still applies the mask, and fires once per call.
//!
//! The fault letterbox is process-wide, so the tests of this file run one
//! at a time.

use sem_comm::par::with_threads;
use sem_linalg::rng::SplitMix64;
use sem_mesh::generators::{box2d, box3d};
use sem_obs::fault::{self, FaultSite};
use sem_ops::SemOps;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

const THREADS: [usize; 4] = [1, 2, 3, 5];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The staged oracle: fold every shared node's copies in ascending local
/// order, then multiply every node by its mask.
fn staged(ops: &SemOps, u: &[f64]) -> Vec<f64> {
    let ids = &ops.num.ids;
    let mut copies = vec![Vec::new(); ops.num.n_global];
    for (i, &g) in ids.iter().enumerate() {
        copies[g].push(i);
    }
    let mut out = u.to_vec();
    for c in copies.iter().filter(|c| c.len() >= 2) {
        let mut acc = 0.0;
        for &i in c {
            acc += out[i];
        }
        for &i in c {
            out[i] = acc;
        }
    }
    for (v, m) in out.iter_mut().zip(&ops.mask) {
        *v *= m;
    }
    out
}

/// Nodes in one element only whose mask is 0.
fn unshared_masked(ops: &SemOps) -> usize {
    (0..ops.n_velocity())
        .filter(|&i| ops.num.multiplicity[ops.num.ids[i]] == 1 && ops.mask[i] == 0.0)
        .count()
}

#[test]
fn dssum_mask_matches_the_staged_sequence_at_every_thread_count() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cases = [
        // 3, 14 and 15 elements: not divisible by 2, 3 or 5 throughout.
        SemOps::new(box2d(3, 1, [0.0, 3.0], [0.0, 1.0], false, false), 5),
        SemOps::new(box2d(7, 2, [0.0, 2.0], [0.0, 1.0], true, false), 4),
        SemOps::new(box2d(5, 3, [0.0, 1.0], [0.0, 1.0], false, false), 3),
        SemOps::new(
            box3d(
                3,
                1,
                2,
                [0.0, 1.0],
                [0.0, 1.0],
                [0.0, 1.0],
                [false, false, true],
            ),
            3,
        ),
    ];
    for (c, ops) in cases.iter().enumerate() {
        assert!(
            unshared_masked(ops) > 0,
            "case {c}: no unshared masked nodes"
        );
        let u = SplitMix64::new(0xd55_0001 + c as u64).vec(ops.n_velocity(), -1.0, 1.0);
        let want = staged(ops, &u);
        for nt in THREADS {
            let mut got = u.clone();
            with_threads(nt, || ops.dssum_mask(&mut got));
            assert_eq!(bits(&got), bits(&want), "case {c}, threads {nt}");
        }
    }
}

#[test]
fn an_injected_drop_skips_the_fold_keeps_the_mask_and_fires_once_per_call() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ops = SemOps::new(box2d(5, 3, [0.0, 1.0], [0.0, 1.0], false, false), 4);
    let u = SplitMix64::new(0xd55_0002).vec(ops.n_velocity(), -1.0, 1.0);
    let masked_only: Vec<f64> = u.iter().zip(&ops.mask).map(|(v, m)| v * m).collect();
    let folded = staged(&ops, &u);
    for nt in THREADS {
        fault::drain();
        // Two armings: each call consumes exactly one, whatever the
        // number of blocks its region runs.
        fault::arm(FaultSite::GsExchange);
        fault::arm(FaultSite::GsExchange);
        for call in 0..3 {
            let mut got = u.clone();
            with_threads(nt, || ops.dssum_mask(&mut got));
            let want = if call < 2 { &masked_only } else { &folded };
            assert_eq!(bits(&got), bits(want), "threads {nt}, call {call}");
        }
        assert!(
            fault::drain().contains(FaultSite::GsExchange),
            "threads {nt}"
        );
    }
}
