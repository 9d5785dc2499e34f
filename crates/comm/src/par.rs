//! Deterministic chunked parallel-for over elements (the "sem-par"
//! utility).
//!
//! The paper's intranode parallelism was the ASCI-Red dual-processor
//! `-Mconcur` mode; the modern analogue here is a handful of host threads
//! sweeping the element loops. This module provides that on `std` alone
//! (`std::thread::scope`), with three properties the numerical layers
//! rely on:
//!
//! 1. **Determinism across thread counts.** Every element's work is
//!    independent and writes to disjoint storage, and reductions
//!    ([`par_sum`]) accumulate over *fixed-size* chunks combined in index
//!    order — so results are bitwise identical whether the loop runs on
//!    1, 2, or 64 threads.
//! 2. **A serial fast path.** At 1 thread (or trivially small loops) no
//!    threads are spawned at all.
//! 3. **Runtime thread-count control.** `TERASEM_THREADS` overrides the
//!    default (`std::thread::available_parallelism`), and
//!    [`with_threads`] scopes an override for benchmarks and tests.
//!
//! ## `TERASEM_THREADS` caching
//!
//! The environment variable is read **once per process** (cached in a
//! `OnceLock` on the first parallel loop or [`current_threads`] call);
//! changing it afterwards — including via `std::env::set_var` in tests —
//! has no effect. Use [`with_threads`] for runtime control. Invalid
//! values (`0`, negative, non-numeric) are rejected with a warning on
//! stderr naming the variable, and the machine's available parallelism
//! is used instead.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

/// Chunk length (in scalar indices) used by the deterministic reduction
/// [`par_sum`]. Fixed — never derived from the thread count — so the
/// grouping of partial sums is identical for every parallel
/// configuration.
const SUM_CHUNK: usize = 4096;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Parse a `TERASEM_THREADS` value: `Some(n)` for a positive integer
/// (surrounding whitespace tolerated), `None` for everything else
/// (`0`, negative, non-numeric, empty).
fn parse_thread_count(s: &str) -> Option<usize> {
    match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        let available = || {
            std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(1)
        };
        match std::env::var("TERASEM_THREADS") {
            Ok(s) => parse_thread_count(&s).unwrap_or_else(|| {
                // Don't silently serialize a production run over a typo:
                // warn, naming the variable, and use the machine default.
                let n = available();
                eprintln!(
                    "warning: TERASEM_THREADS={s:?} is not a positive integer; \
                     using available parallelism ({n} thread(s)) instead"
                );
                n
            }),
            Err(_) => available(),
        }
    })
}

/// The number of worker threads parallel loops will use right now:
/// the innermost [`with_threads`] override, else `TERASEM_THREADS`, else
/// the machine's available parallelism.
pub fn current_threads() -> usize {
    THREAD_OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(env_threads)
        .max(1)
}

/// Run `f` with parallel loops limited to `n` threads (1 = fully serial).
///
/// The override is scoped to the calling thread and restored on exit
/// (including on panic), so nested overrides behave like a stack.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Parallel mutable for-each over `items` with per-thread scratch state.
///
/// `init` builds one scratch value per worker; `f(scratch, i, item)` runs
/// once per item, where `i` is the item's index in `items`. Items are
/// block-partitioned contiguously across workers, so each item is
/// processed exactly once regardless of the thread count.
pub fn par_for_each_init<T, S>(
    items: &mut [T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut T) + Sync,
) where
    T: Send,
{
    let n = items.len();
    let nt = current_threads().min(n);
    if nt <= 1 {
        let mut s = init();
        for (i, item) in items.iter_mut().enumerate() {
            f(&mut s, i, item);
        }
        return;
    }
    let block = n.div_ceil(nt);
    std::thread::scope(|scope| {
        for (b, chunk) in items.chunks_mut(block).enumerate() {
            let (f, init) = (&f, &init);
            scope.spawn(move || {
                let mut s = init();
                for (j, item) in chunk.iter_mut().enumerate() {
                    f(&mut s, b * block + j, item);
                }
                // Hand any trace events recorded by this worker to the
                // global registry before the scope joins (the TLS drop
                // would also do it; this makes the flush deterministic).
                sem_obs::trace::flush_thread();
            });
        }
    });
}

/// Parallel for-each over the element-chunks of a flat field: `data` is
/// split into consecutive `chunk_len`-sized element blocks and
/// `f(scratch, e, block)` runs once per element `e`.
///
/// `data.len()` must be a multiple of `chunk_len` (the redundant
/// element-storage layout guarantees this); an empty `data` is a no-op.
pub fn par_chunks_init<S>(
    data: &mut [f64],
    chunk_len: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [f64]) + Sync,
) {
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "par_chunks_init: zero chunk length");
    assert_eq!(
        data.len() % chunk_len,
        0,
        "par_chunks_init: data not a whole number of chunks"
    );
    let mut chunks: Vec<&mut [f64]> = data.chunks_mut(chunk_len).collect();
    par_for_each_init(&mut chunks, init, |s, e, ch| f(s, e, ch));
}

/// Parallel index-range sweep: `f(range)` is called on disjoint subranges
/// covering `0..n` exactly once. Used by the pointwise wrappers below.
fn par_ranges(n: usize, f: impl Fn(Range<usize>) + Sync) {
    let nt = current_threads().min(n);
    if nt <= 1 {
        if n > 0 {
            f(0..n);
        }
        return;
    }
    let block = n.div_ceil(nt);
    std::thread::scope(|scope| {
        let f = &f;
        let mut start = 0;
        while start < n {
            let end = (start + block).min(n);
            scope.spawn(move || {
                f(start..end);
                sem_obs::trace::flush_thread();
            });
            start = end;
        }
    });
}

/// Parallel in-place pointwise update: `f(i, &mut out[i])` for every `i`.
pub fn par_map_inplace(out: &mut [f64], f: impl Fn(usize, &mut f64) + Sync) {
    let n = out.len();
    if n == 0 {
        return;
    }
    let base = out.as_mut_ptr() as usize;
    par_ranges(n, move |r| {
        // SAFETY: par_ranges hands out disjoint subranges of 0..n, so each
        // element is mutated by exactly one worker; the slice outlives the
        // scoped threads.
        let slice =
            unsafe { std::slice::from_raw_parts_mut((base as *mut f64).add(r.start), r.len()) };
        for (j, v) in slice.iter_mut().enumerate() {
            f(r.start + j, v);
        }
    });
}

/// Parallel fill: `out[i] = f(i)`.
pub fn par_fill(out: &mut [f64], f: impl Fn(usize) -> f64 + Sync) {
    par_map_inplace(out, |i, v| *v = f(i));
}

/// Deterministic parallel reduction `Σ_{i<n} f(i)`.
///
/// Partial sums are taken over fixed-size chunks (`SUM_CHUNK` = 4096 terms) and
/// combined sequentially in chunk order, so the floating-point result is
/// bitwise identical for every thread count (including 1).
pub fn par_sum(n: usize, f: impl Fn(usize) -> f64 + Sync) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n_chunks = n.div_ceil(SUM_CHUNK);
    let mut partials = vec![0.0f64; n_chunks];
    {
        let f = &f;
        par_for_each_init(
            &mut partials,
            || (),
            move |(), c, slot| {
                let lo = c * SUM_CHUNK;
                let hi = (lo + SUM_CHUNK).min(n);
                let mut acc = 0.0;
                for i in lo..hi {
                    acc += f(i);
                }
                *slot = acc;
            },
        );
    }
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_loops_are_noops() {
        let mut v: Vec<f64> = Vec::new();
        par_map_inplace(&mut v, |_, _| unreachable!());
        par_chunks_init(&mut v, 5, || (), |_, _, _| unreachable!());
        let mut none: Vec<Vec<f64>> = Vec::new();
        par_for_each_init(&mut none, || (), |_, _, _: &mut Vec<f64>| unreachable!());
        assert_eq!(par_sum(0, |_| unreachable!()), 0.0);
    }

    #[test]
    fn fill_and_map_cover_every_index() {
        for len in [1usize, 2, 7, 64, 1001] {
            for nt in [1usize, 2, 3, 8] {
                let mut v = vec![0.0; len];
                with_threads(nt, || par_fill(&mut v, |i| i as f64 + 1.0));
                for (i, &x) in v.iter().enumerate() {
                    assert_eq!(x, i as f64 + 1.0, "len {len} nt {nt}");
                }
            }
        }
    }

    #[test]
    fn chunked_loop_indices_match_elements() {
        // 5 chunks of 3 — and a thread count that doesn't divide 5.
        let mut v = vec![0.0; 15];
        with_threads(4, || {
            par_chunks_init(
                &mut v,
                3,
                || (),
                |(), e, ch| {
                    for x in ch.iter_mut() {
                        *x = e as f64;
                    }
                },
            );
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / 3) as f64);
        }
    }

    #[test]
    fn sum_is_bitwise_identical_across_thread_counts() {
        // Values spanning magnitudes so any reordering would change the
        // rounding; chunk grouping must keep the result stable.
        let n = 3 * SUM_CHUNK + 17;
        let f = |i: usize| ((i as f64) * 0.37).sin() * 1e6f64.powf((i % 5) as f64 / 4.0 - 0.5);
        let want = with_threads(1, || par_sum(n, f));
        for nt in [2usize, 3, 8, 19] {
            let got = with_threads(nt, || par_sum(n, f));
            assert_eq!(got.to_bits(), want.to_bits(), "nt {nt}");
        }
    }

    #[test]
    fn scratch_init_runs_per_worker_and_items_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counted = AtomicUsize::new(0);
        let mut items: Vec<f64> = vec![0.0; 100];
        with_threads(8, || {
            par_for_each_init(
                &mut items,
                || Vec::<f64>::with_capacity(4),
                |_s, i, item| {
                    *item += i as f64;
                    counted.fetch_add(1, Ordering::Relaxed);
                },
            );
        });
        assert_eq!(counted.load(Ordering::Relaxed), 100);
        assert!(items.iter().enumerate().all(|(i, &v)| v == i as f64));
    }

    #[test]
    fn thread_count_parsing_rejects_zero_and_garbage() {
        // Valid positive integers, with whitespace tolerated.
        assert_eq!(parse_thread_count("4"), Some(4));
        assert_eq!(parse_thread_count(" 8 "), Some(8));
        assert_eq!(parse_thread_count("1"), Some(1));
        // Zero threads is meaningless; never silently serialize to it.
        assert_eq!(parse_thread_count("0"), None);
        // Garbage of the kinds a shell typo produces.
        assert_eq!(parse_thread_count(""), None);
        assert_eq!(parse_thread_count("-2"), None);
        assert_eq!(parse_thread_count("four"), None);
        assert_eq!(parse_thread_count("4.0"), None);
        assert_eq!(parse_thread_count("0x4"), None);
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let outer = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outer);
    }
}
