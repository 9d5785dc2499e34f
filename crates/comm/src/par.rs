//! Deterministic chunked parallel-for over elements (the "sem-par"
//! utility).
//!
//! The paper's intranode parallelism was the ASCI-Red dual-processor
//! `-Mconcur` mode; the modern analogue here is a handful of host threads
//! sweeping the element loops. This module provides that on `std` alone,
//! with one persistent pool of worker threads, and with three properties
//! the numerical layers rely on:
//!
//! 1. **Determinism across thread counts.** Every element's work is
//!    independent and writes to disjoint storage, and reductions
//!    ([`par_chunked`], [`par_sum`]) accumulate over *fixed-size* chunks
//!    combined in index order — so results are bitwise identical whether
//!    the loop runs on 1, 2, or 64 threads.
//! 2. **A serial fast path.** At 1 thread (or a loop of one item) the
//!    loop runs on the calling thread and the pool is not touched; a
//!    process whose loops all run at 1 thread never starts a worker.
//! 3. **Runtime thread-count control.** `TERASEM_THREADS` overrides the
//!    default (`std::thread::available_parallelism`), and
//!    [`with_threads`] scopes an override for benchmarks and tests.
//!
//! ## The worker pool
//!
//! Every loop splits its `n` items into contiguous blocks of
//! `n.div_ceil(nt)` items, `nt` = [`current_threads`], and runs them as
//! one *region*: the calling thread runs block 0 and pool worker `w`
//! runs block `w + 1`. [`par_ranges`] exposes that partition, so work
//! that is not an element loop (the gather-scatter fold) can run on the
//! thread that owns the elements it touches. The pool is process-wide.
//! The first region of more than one block starts it, and it grows to
//! the largest block count any region runs; its workers live as long as
//! the process and wait between regions.
//!
//! One region owns the pool at a time. A region started while the pool
//! is busy — from inside a region body, or by a second caller thread —
//! runs all its blocks inline on the calling thread, in block order, so
//! nesting cannot deadlock and the partition (hence the result) is the
//! same.
//!
//! A waiting thread (a worker between regions, or the caller waiting for
//! the workers' blocks) spins for a fixed short time and then parks. It
//! spins only while the region's thread count fits the host's cores
//! (`available_parallelism`, read once per process): an oversubscribed
//! region parks at once, since a spinning thread would then hold a core
//! that a thread with work needs.
//!
//! A panic in a block is caught; the caller waits until every other
//! block of the region has finished and then resumes the panic with its
//! payload (its own block's first). The caller never returns or unwinds
//! while a block of its region is running, which is what lets the
//! workers borrow the caller's data.
//!
//! Workers are plain threads: they inherit no thread-local state of the
//! caller (a [`with_threads`] override), and each flushes its `sem_obs`
//! trace events at the end of every block.
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

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, TryLockError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Chunk length (in scalar indices) of the deterministic reductions
/// [`par_chunked`] and [`par_sum`]. Fixed — never derived from the
/// thread count — so the grouping of partial sums is identical for every
/// parallel configuration.
const SUM_CHUNK: usize = 4096;

/// How long a waiting thread spins before it parks. Long enough to span
/// the serial gaps between the regions of a solver iteration (a
/// gather-scatter, a vector update), short enough that an idle pool
/// gives its cores back at once on the scale of a time step.
const SPIN: Duration = Duration::from_micros(100);

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

/// The host's available parallelism, read once per process: each
/// `available_parallelism` call re-reads the cgroup files.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    })
}

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("TERASEM_THREADS") {
        Ok(s) => parse_thread_count(&s).unwrap_or_else(|| {
            // Don't silently serialize a production run over a typo:
            // warn, naming the variable, and use the machine default.
            let n = cores();
            eprintln!(
                "warning: TERASEM_THREADS={s:?} is not a positive integer; \
                 using available parallelism ({n} thread(s)) instead"
            );
            n
        }),
        Err(_) => cores(),
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

/// One parallel region. It lives on the caller's stack, and workers
/// reach it through their mailboxes until they finish their blocks.
struct Region<'a> {
    body: &'a (dyn Fn(usize) + Sync),
    /// Worker blocks not yet finished. Each worker's `Release` decrement
    /// pairs with the caller's `Acquire` load that reads zero, so every
    /// write of every block is visible to the caller when it returns.
    pending: AtomicUsize,
    /// Whether waiting threads spin before they park.
    spin: bool,
    caller: Thread,
    /// The first panic payload of a worker block.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A pool worker as its caller sees it.
struct Worker {
    thread: Thread,
    /// The region whose block the worker runs next; null while idle. The
    /// caller's `Release` store pairs with the worker's `Acquire` load,
    /// so the worker sees the region fully built.
    mailbox: Arc<AtomicPtr<Region<'static>>>,
}

/// The pool. Holding this lock is owning the pool for one region, and
/// the lock is held until every block of the region has finished.
static POOL: Mutex<Vec<Worker>> = Mutex::new(Vec::new());

impl Worker {
    /// Start the worker that runs block `block` of every region. It
    /// catches every panic of its blocks and never exits, so its handle
    /// is not kept for a join.
    fn spawn(block: usize) -> Worker {
        let mailbox = Arc::new(AtomicPtr::new(ptr::null_mut()));
        let inbox = Arc::clone(&mailbox);
        let handle = thread::Builder::new()
            .name(format!("sem-par-{block}"))
            .spawn(move || work(block, &inbox))
            .expect("sem_comm::par: cannot spawn a pool worker thread");
        Worker {
            thread: handle.thread().clone(),
            mailbox,
        }
    }
}

/// A pool worker's loop: wait for a region, run block `block` of it,
/// report back, repeat.
fn work(block: usize, mailbox: &AtomicPtr<Region<'static>>) {
    let mut spin = false;
    loop {
        let job = wait(spin, || {
            let job = mailbox.load(Ordering::Acquire);
            (!job.is_null()).then_some(job)
        });
        // The caller stores the next region only after this worker's
        // decrement below, which follows this store.
        mailbox.store(ptr::null_mut(), Ordering::Relaxed);
        // SAFETY: `run` built the region before its `Release` store of
        // this pointer and keeps it alive — it neither returns nor
        // unwinds — until `pending` reads zero, which is after this
        // worker's decrement. The region is not touched after that
        // decrement.
        let region = unsafe { &*job };
        let result = panic::catch_unwind(AssertUnwindSafe(|| (region.body)(block)));
        sem_obs::trace::flush_thread();
        if let Err(payload) = result {
            // Recovering a poisoned lock is sound: the slot is only ever
            // filled once, in a single assignment.
            let mut first = region.panic.lock().unwrap_or_else(|e| e.into_inner());
            first.get_or_insert(payload);
        }
        spin = region.spin;
        let caller = region.caller.clone();
        region.pending.fetch_sub(1, Ordering::Release);
        caller.unpark();
    }
}

/// Wait until `ready` yields a value: spin for [`SPIN`] if `spin`, then
/// park until unparked. Spurious wake-ups just test `ready` again.
fn wait<T>(spin: bool, mut ready: impl FnMut() -> Option<T>) -> T {
    if let Some(v) = ready() {
        return v;
    }
    if spin {
        let start = Instant::now();
        while start.elapsed() < SPIN {
            for _ in 0..64 {
                std::hint::spin_loop();
                if let Some(v) = ready() {
                    return v;
                }
            }
        }
    }
    loop {
        if let Some(v) = ready() {
            return v;
        }
        thread::park();
    }
}

/// Run `body(b)` once for every block `b < blocks`: block 0 on the
/// calling thread, block `w + 1` on pool worker `w`, or every block
/// inline when the pool is busy. Returns once all blocks have finished;
/// a panic in any block is resumed here after that.
fn run(blocks: usize, body: &(dyn Fn(usize) + Sync)) {
    if blocks <= 1 {
        (0..blocks).for_each(body);
        return;
    }
    let mut workers = match POOL.try_lock() {
        Ok(workers) => workers,
        // A spawn failure panics with the lock held; the workers
        // already pushed are complete, so the pool stays usable.
        Err(TryLockError::Poisoned(e)) => e.into_inner(),
        Err(TryLockError::WouldBlock) => {
            (0..blocks).for_each(body);
            return;
        }
    };
    while workers.len() < blocks - 1 {
        let block = workers.len() + 1;
        workers.push(Worker::spawn(block));
    }
    let region = Region {
        body,
        pending: AtomicUsize::new(blocks - 1),
        spin: blocks <= cores(),
        caller: thread::current(),
        panic: Mutex::new(None),
    };
    let job = &region as *const Region<'_> as *mut Region<'static>;
    for w in &workers[..blocks - 1] {
        w.mailbox.store(job, Ordering::Release);
        w.thread.unpark();
    }
    let mine = panic::catch_unwind(AssertUnwindSafe(|| body(0)));
    wait(region.spin, || {
        (region.pending.load(Ordering::Acquire) == 0).then_some(())
    });
    drop(workers);
    if let Err(payload) = mine {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = region.panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic::resume_unwind(payload);
    }
}

/// A mutable slice lent to the blocks of one region, each block
/// touching indices that no other block touches. The loops of this
/// module cut it into disjoint blocks; the gather-scatter fold touches
/// the scattered copies of the node groups its block owns.
pub struct SharedSlice<'a, T> {
    base: *mut T,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: the wrapper holds the slice's exclusive borrow for `'a`; its
// users touch disjoint indices from different threads, and `T: Send`
// lets those items be mutated (and their contents moved) on the thread
// that touches them.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Lend `items` to the blocks of a region.
    pub fn new(items: &'a mut [T]) -> Self {
        SharedSlice {
            base: items.as_mut_ptr(),
            len: items.len(),
            _borrow: PhantomData,
        }
    }

    /// Base pointer of the lent slice (a method, so a closure captures
    /// the whole `Sync` wrapper and not the bare pointer).
    pub fn as_ptr(&self) -> *mut T {
        self.base
    }

    /// The items `range` as a slice of their own.
    ///
    /// # Safety
    /// `range` lies inside the slice, and no other thread touches those
    /// items while the returned slice lives.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.base.add(range.start), range.len())
    }
}

/// Run `f(lo..hi)` once per block of the partition every loop over `n`
/// items uses: contiguous blocks of `n.div_ceil(nt)` items, `nt` =
/// [`current_threads`], the first on the calling thread. Returns once
/// every block has finished; `n = 0` runs nothing.
pub fn par_ranges(n: usize, f: impl Fn(Range<usize>) + Sync) {
    if n == 0 {
        return;
    }
    let per = n.div_ceil(current_threads().min(n));
    run(n.div_ceil(per), &|b| {
        let lo = b * per;
        f(lo..(lo + per).min(n));
    });
}

/// The dispatch of the slice loops: split `items` into `n` groups of
/// `unit` items and run `f(first_group, block_items)` once per block of
/// [`par_ranges`]' partition of the groups.
fn par_blocks<T: Send>(items: &mut [T], unit: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let n = items.len() / unit;
    let shared = SharedSlice::new(items);
    par_ranges(n, |groups| {
        // SAFETY: the block covers items `lo * unit .. hi * unit` of the
        // groups `lo..hi <= n`, inside `items`, and `par_ranges` hands
        // out each group range exactly once, so the blocks are disjoint.
        let block = unsafe { shared.range_mut(groups.start * unit..groups.end * unit) };
        f(groups.start, block);
    });
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
    par_blocks(items, 1, |first, block| {
        let mut s = init();
        for (j, item) in block.iter_mut().enumerate() {
            f(&mut s, first + j, item);
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
    par_blocks(data, chunk_len, |first, block| {
        let mut s = init();
        for (j, chunk) in block.chunks_mut(chunk_len).enumerate() {
            f(&mut s, first + j, chunk);
        }
    });
}

/// Parallel in-place pointwise update: `f(i, &mut out[i])` for every `i`.
pub fn par_map_inplace(out: &mut [f64], f: impl Fn(usize, &mut f64) + Sync) {
    par_blocks(out, 1, |first, block| {
        for (j, v) in block.iter_mut().enumerate() {
            f(first + j, v);
        }
    });
}

/// Parallel fill: `out[i] = f(i)`.
pub fn par_fill(out: &mut [f64], f: impl Fn(usize) -> f64 + Sync) {
    par_map_inplace(out, |i, v| *v = f(i));
}

/// Deterministic chunked pass over the indices `0..n`, with mutable
/// access to `outs` (each of length `n`): `f(lo..hi, [out[lo..hi], …])`
/// runs once per fixed `SUM_CHUNK` (4096-index) chunk, the chunks
/// partitioned over the threads like any loop's items, and the chunks'
/// returns are summed in chunk order. A pass with nothing to reduce
/// returns 0 from every chunk.
///
/// The chunk boundaries never depend on the thread count, so a chunk
/// that accumulates its terms in index order gives a bitwise-identical
/// sum for every thread count (including 1). Several vector updates and
/// the reduction that reads them can share one pass, chunk by chunk, so
/// each chunk's data is still in cache when the sum reads it.
///
/// # Panics
/// Panics if an `outs` slice is not `n` long.
pub fn par_chunked<const M: usize>(
    n: usize,
    outs: [&mut [f64]; M],
    f: impl Fn(Range<usize>, [&mut [f64]; M]) -> f64 + Sync,
) -> f64 {
    for out in &outs {
        assert_eq!(out.len(), n, "par_chunked: output length");
    }
    if n == 0 {
        return 0.0;
    }
    let shared = outs.map(SharedSlice::new);
    let mut partials = vec![0.0f64; n.div_ceil(SUM_CHUNK)];
    par_map_inplace(&mut partials, |c, slot| {
        let chunk = c * SUM_CHUNK..((c + 1) * SUM_CHUNK).min(n);
        // SAFETY: the chunk lies inside every output (each is `n` long),
        // and `par_map_inplace` visits every chunk exactly once, so no
        // two threads touch the same items.
        let outs = std::array::from_fn(|k| unsafe { shared[k].range_mut(chunk.clone()) });
        *slot = f(chunk, outs);
    });
    partials.iter().sum()
}

/// Deterministic parallel reduction `Σ_{i<n} f(i)`: [`par_chunked`]
/// with no outputs, each chunk accumulating its terms in index order.
pub fn par_sum(n: usize, f: impl Fn(usize) -> f64 + Sync) -> f64 {
    par_chunked(n, [], |chunk, []| {
        let mut acc = 0.0;
        for i in chunk {
            acc += f(i);
        }
        acc
    })
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
    fn chunked_pass_writes_and_sums_bitwise_across_thread_counts() {
        let n = 3 * SUM_CHUNK + 17;
        let f = |i: usize| ((i as f64) * 0.37).sin() * 1e6f64.powf((i % 5) as f64 / 4.0 - 0.5);
        let pass = |nt: usize| {
            let (mut a, mut b) = (vec![0.0; n], vec![1.0; n]);
            let sum = with_threads(nt, || {
                par_chunked(n, [&mut a, &mut b], |c, [ac, bc]| {
                    let mut acc = 0.0;
                    for ((i, x), y) in c.zip(ac.iter_mut()).zip(bc.iter_mut()) {
                        *x = f(i);
                        *y += *x;
                        acc += *x;
                    }
                    acc
                })
            });
            (sum, a, b)
        };
        let (want, a1, b1) = pass(1);
        assert_eq!(want.to_bits(), par_sum(n, f).to_bits());
        assert!(a1.iter().enumerate().all(|(i, &x)| x == f(i)));
        assert!(b1.iter().enumerate().all(|(i, &y)| y == 1.0 + f(i)));
        for nt in [2usize, 3, 5, 8] {
            let (got, a, b) = pass(nt);
            assert_eq!(got.to_bits(), want.to_bits(), "nt {nt}");
            assert_eq!((a, b), (a1.clone(), b1.clone()), "nt {nt}");
        }
    }

    #[test]
    fn ranges_follow_the_loop_partition() {
        let seen = Mutex::new(Vec::new());
        with_threads(3, || par_ranges(10, |r| seen.lock().unwrap().push(r)));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|r| r.start);
        assert_eq!(seen, vec![0..4, 4..8, 8..10]);
        with_threads(3, || par_ranges(0, |_| unreachable!()));
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
