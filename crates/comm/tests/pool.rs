//! The worker-pool contract of `sem_comm::par`: regions reuse the same
//! parked workers, a panic reaches the caller only after every block has
//! finished, a region that finds the pool busy runs inline, and many
//! short regions stay bitwise equal to one thread.
//!
//! The pool is process-wide, so every test takes `SERIAL` first: a test
//! that checks which thread ran a block must not meet another test's
//! region.

use sem_comm::par::{par_for_each_init, par_map_inplace, par_sum, with_threads};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failing test poisons the lock; the others still run.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The thread that ran each item of a `with_threads(nt)` loop over `n`
/// items.
fn item_threads(nt: usize, n: usize) -> Vec<ThreadId> {
    let mut ids: Vec<Option<ThreadId>> = vec![None; n];
    with_threads(nt, || {
        par_for_each_init(
            &mut ids,
            || (),
            |(), _, id| *id = Some(thread::current().id()),
        );
    });
    ids.into_iter()
        .map(|id| id.expect("every item runs"))
        .collect()
}

/// A term whose value depends on the region, so a block that ran a stale
/// region's body would change the result.
fn term(region: usize, i: usize) -> f64 {
    ((i * 7 + region) as f64).sqrt() * if i.is_multiple_of(3) { 1e6 } else { 1e-3 }
}

#[derive(Debug, PartialEq)]
struct Boom(usize);

/// How long a block keeps running after the region's panic. It only
/// widens the window in which a caller that unwound early would be
/// seen; a correct pool passes whatever the host's speed.
const HOLD: Duration = Duration::from_millis(100);

#[test]
fn successive_regions_reuse_the_same_workers() {
    let _serial = serial();
    let me = thread::current().id();
    let first = item_threads(3, 3);
    assert_eq!(first[0], me, "block 0 runs on the caller");
    assert!(
        first[1] != me && first[2] != me,
        "blocks 1 and 2 run on workers"
    );
    assert_ne!(first[1], first[2], "one worker per block");
    for _ in 0..50 {
        assert_eq!(item_threads(3, 3), first, "a region on new threads");
    }
}

#[test]
fn worker_panic_reaches_the_caller_after_every_block() {
    let _serial = serial();
    let caller_done = AtomicBool::new(false);
    let panicking = AtomicBool::new(false);
    let last_done = AtomicBool::new(false);
    let mut items = [0u8; 3];
    let err = panic::catch_unwind(AssertUnwindSafe(|| {
        with_threads(3, || {
            par_for_each_init(
                &mut items,
                || (),
                |(), b, _| match b {
                    0 => caller_done.store(true, Ordering::SeqCst),
                    1 => {
                        panicking.store(true, Ordering::SeqCst);
                        panic::panic_any(Boom(1));
                    }
                    _ => {
                        // Still running after the panic and the caller's
                        // own block, and for long enough that a caller
                        // that did not wait would be seen to return.
                        while !(panicking.load(Ordering::SeqCst)
                            && caller_done.load(Ordering::SeqCst))
                        {
                            thread::yield_now();
                        }
                        thread::sleep(HOLD);
                        last_done.store(true, Ordering::SeqCst);
                    }
                },
            );
        })
    }))
    .expect_err("the worker's panic reaches the caller");
    assert!(
        last_done.load(Ordering::SeqCst),
        "caller unwound before block 2 finished"
    );
    assert_eq!(
        *err.downcast::<Boom>().expect("the block's own payload"),
        Boom(1)
    );

    // The caller's own panic waits for the workers as well.
    panicking.store(false, Ordering::SeqCst);
    let worker_done = AtomicBool::new(false);
    let mut items = [0u8; 2];
    let err = panic::catch_unwind(AssertUnwindSafe(|| {
        with_threads(2, || {
            par_for_each_init(
                &mut items,
                || (),
                |(), b, _| {
                    if b == 0 {
                        panicking.store(true, Ordering::SeqCst);
                        panic::panic_any(Boom(0));
                    }
                    while !panicking.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    thread::sleep(HOLD);
                    worker_done.store(true, Ordering::SeqCst);
                },
            );
        })
    }))
    .expect_err("the caller's panic resumes");
    assert!(
        worker_done.load(Ordering::SeqCst),
        "caller unwound before block 1 finished"
    );
    assert_eq!(
        *err.downcast::<Boom>().expect("the block's own payload"),
        Boom(0)
    );

    // The next region on the same pool is sound.
    let n = 4 * 4096 + 5;
    let want = with_threads(1, || par_sum(n, |i| term(7, i)));
    let got = with_threads(3, || par_sum(n, |i| term(7, i)));
    assert_eq!(got.to_bits(), want.to_bits());
    let ids = item_threads(3, 3);
    assert_ne!(ids[1], ids[0]);
    assert_ne!(ids[2], ids[0]);
}

#[test]
fn nested_regions_run_inline_with_correct_results() {
    let _serial = serial();
    let n = 3 * 4096 + 11;
    let want = with_threads(1, || par_sum(n, |i| term(3, i)));
    let mut outer: Vec<(f64, Vec<ThreadId>, Option<ThreadId>)> = vec![(0.0, Vec::new(), None); 3];
    with_threads(3, || {
        par_for_each_init(
            &mut outer,
            || (),
            |(), _, (sum, inner, me)| {
                *me = Some(thread::current().id());
                *sum = with_threads(3, || par_sum(n, |i| term(3, i)));
                *inner = item_threads(3, 3);
            },
        );
    });
    for (sum, inner, me) in &outer {
        assert_eq!(sum.to_bits(), want.to_bits());
        assert!(
            inner.iter().all(|id| Some(*id) == *me),
            "a nested region left its thread"
        );
    }
}

#[test]
fn a_second_caller_runs_inline_while_the_pool_is_busy() {
    let _serial = serial();
    let holding = Barrier::new(2);
    let checked = Barrier::new(2);
    let mut items = [0u8; 2];
    thread::scope(|s| {
        s.spawn(|| {
            holding.wait();
            let ids = item_threads(3, 3);
            let n = 2 * 4096 + 1;
            let want = with_threads(1, || par_sum(n, |i| term(5, i)));
            let got = with_threads(2, || par_sum(n, |i| term(5, i)));
            // Release the holder before asserting, so a failure fails
            // the test instead of hanging it.
            checked.wait();
            let me = thread::current().id();
            assert!(
                ids.iter().all(|&id| id == me),
                "a busy pool ran a block elsewhere"
            );
            assert_eq!(got.to_bits(), want.to_bits());
        });
        with_threads(2, || {
            par_for_each_init(
                &mut items,
                || (),
                |(), b, _| {
                    if b == 0 {
                        // The pool is held until this block returns.
                        holding.wait();
                        checked.wait();
                    }
                },
            );
        });
    });
}

#[test]
fn simultaneous_callers_agree_with_one_thread() {
    let _serial = serial();
    let n = 5 * 4096 + 3;
    let want = with_threads(1, || par_sum(n, |i| term(11, i)));
    let start = Barrier::new(4);
    thread::scope(|s| {
        for c in 0..4 {
            let (start, want) = (&start, want);
            s.spawn(move || {
                start.wait();
                for _ in 0..200 {
                    let got = with_threads(2 + c % 3, || par_sum(n, |i| term(11, i)));
                    assert_eq!(got.to_bits(), want.to_bits(), "caller {c}");
                }
            });
        }
    });
}

#[test]
fn many_short_regions_match_one_thread() {
    let _serial = serial();
    const REGIONS: usize = 10_000;
    let n = 4 * 4096;
    let sums: Vec<f64> = (0..REGIONS)
        .map(|r| with_threads(1, || par_sum(n, |i| term(r, i))))
        .collect();
    let mut v = vec![0.0; 64];
    for nt in [2usize, 3, 4] {
        for (r, want) in sums.iter().enumerate() {
            with_threads(nt, || par_map_inplace(&mut v, |i, x| *x = term(r, i)));
            assert!(
                v.iter()
                    .enumerate()
                    .all(|(i, x)| x.to_bits() == term(r, i).to_bits()),
                "map region {r} at {nt} threads"
            );
            let got = with_threads(nt, || par_sum(n, |i| term(r, i)));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "sum region {r} at {nt} threads"
            );
        }
    }
}
