//! `sem-trace`: per-thread event tracing with Chrome trace-event export.
//!
//! The [`crate::spans`] registry answers "how much time did phase X take
//! in total"; this module answers "*when* did each phase run, on which
//! thread, and what happened inside it" — the per-step, per-solve
//! timeline the paper's Fig. 8 iteration-decay story and every modern
//! scaling postmortem are built from.
//!
//! Every thread records into its **own** fixed-capacity buffer (a plain
//! `Vec` behind a `thread_local`, no locks or atomics on the record
//! path), so `sem_comm::par` element-loop workers can trace without
//! synchronizing. When a buffer fills, new events are dropped and
//! counted (never silently). Buffers are flushed into a process-global
//! registry when a thread exits (TLS destructor), at the end of every
//! block a `sem_comm::par` pool worker runs (its workers live as long as
//! the process, so they flush explicitly), or on
//! [`flush_thread`]/[`drain`].
//!
//! Three event kinds:
//! * `Begin`/`End` — phase boundaries, recorded by [`crate::spans`]
//!   guards whenever tracing is on;
//! * `Note` — point annotations with a value (CG iteration count, final
//!   residual, projection depth), recorded by the solvers.
//!
//! [`chrome_json`] renders the drained log as Chrome trace-event JSON
//! (`chrome://tracing` / Perfetto / `about:tracing`): `"B"`/`"E"` pairs
//! per phase (matched per thread; orphans from buffer overflow are
//! omitted so the export is always balanced) and `"I"` instants for
//! notes.
//!
//! Tracing is **off** by default and gated separately from the metrics
//! switch: [`set_trace_enabled`]`(true)` or `TERASEM_TRACE=<path>|1` +
//! [`init_from_env`]. Span guards only consult the trace flag when
//! metrics are already on, so the disabled-path contract (one relaxed
//! load per probe) is unchanged.

use crate::counters::{self, Counter};
use crate::json::{escape, fmt_f64};
use crate::spans::Phase;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One trace event. Timestamps are nanoseconds since the process-local
/// trace epoch (first event wins).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// Phase entry.
    Begin {
        /// The phase being entered.
        phase: Phase,
        /// Nanoseconds since the trace epoch.
        t_ns: u64,
    },
    /// Phase exit.
    End {
        /// The phase being left.
        phase: Phase,
        /// Nanoseconds since the trace epoch.
        t_ns: u64,
    },
    /// Point annotation (per-solve iteration counts, residuals, …).
    Note {
        /// Annotation name (static: annotation sites are compiled in).
        name: &'static str,
        /// Annotation value.
        value: f64,
        /// Nanoseconds since the trace epoch.
        t_ns: u64,
    },
}

impl TraceEvent {
    /// The event's timestamp (ns since the trace epoch).
    pub fn t_ns(&self) -> u64 {
        match *self {
            TraceEvent::Begin { t_ns, .. }
            | TraceEvent::End { t_ns, .. }
            | TraceEvent::Note { t_ns, .. } => t_ns,
        }
    }
}

/// All events recorded by one thread, in record order.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    /// Dense per-process thread id (assignment order, not OS id).
    pub tid: u32,
    /// The events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events dropped because the thread's buffer was full.
    pub dropped: u64,
}

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
/// Per-thread buffer capacity (events). Default 64Ki ≈ 1.5 MiB/thread.
static CAPACITY: AtomicUsize = AtomicUsize::new(64 * 1024);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Is event tracing currently on?
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Turn event tracing on or off (process-global). Tracing only records
/// when the metrics switch ([`crate::enabled`]) is *also* on, since the
/// span guards are the begin/end sources.
pub fn set_trace_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Set the per-thread buffer capacity, in events. Applies to buffers
/// created after the call (existing thread buffers keep their size).
pub fn set_capacity(events: usize) {
    CAPACITY.store(events.max(16), Ordering::Relaxed);
}

/// Enable tracing from the `TERASEM_TRACE` environment variable.
/// `TERASEM_TRACE=1|true` enables recording; any other non-empty,
/// non-`0` value enables recording *and* is returned as the path the
/// caller should pass to [`write_chrome`] when the run ends. Returns
/// `None` when tracing was not enabled or no path was given.
pub fn init_from_env() -> Option<String> {
    let v = std::env::var("TERASEM_TRACE").ok()?;
    let v = v.trim();
    if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false") {
        return None;
    }
    set_trace_enabled(true);
    if v == "1" || v.eq_ignore_ascii_case("true") {
        None
    } else {
        Some(v.to_string())
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (the first trace call in the
/// process).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Flushed thread segments, in flush order. Segments from one thread
/// stay ordered because a thread's flushes are sequential.
static GLOBAL: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

struct LocalBuf {
    trace: ThreadTrace,
    capacity: usize,
}

/// One warning per process on the first dropped trace event, so a
/// quietly truncated export is never mistaken for a complete one.
static DROP_WARNED: AtomicBool = AtomicBool::new(false);

impl LocalBuf {
    fn push(&mut self, ev: TraceEvent) {
        if self.trace.events.len() < self.capacity {
            self.trace.events.push(ev);
        } else {
            self.trace.dropped += 1;
            counters::add(Counter::TraceDropped, 1);
            if !DROP_WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: trace buffer full ({} events on thread {}): dropping newest \
                     events; exports will be incomplete (raise sem_obs::trace::set_capacity)",
                    self.capacity, self.trace.tid
                );
            }
        }
    }

    fn flush(&mut self) {
        if self.trace.events.is_empty() && self.trace.dropped == 0 {
            return;
        }
        let seg = ThreadTrace {
            tid: self.trace.tid,
            events: std::mem::take(&mut self.trace.events),
            dropped: std::mem::replace(&mut self.trace.dropped, 0),
        };
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).push(seg);
    }
}

/// Flushes the thread's remaining events when the thread exits (test
/// threads, rank and service threads, …).
impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        trace: ThreadTrace {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Vec::new(),
            dropped: 0,
        },
        capacity: CAPACITY.load(Ordering::Relaxed),
    });
}

#[inline]
fn push(ev: TraceEvent) {
    // Lock-free: the buffer is thread-local; the only synchronization is
    // the flush into GLOBAL, which never happens on this path.
    let _ = BUF.try_with(|b| b.borrow_mut().push(ev));
}

/// Record a phase-entry event (called by [`crate::spans::span`] for
/// active guards; no-op while tracing is off).
#[inline]
pub fn begin(phase: Phase) {
    if trace_enabled() {
        push(TraceEvent::Begin {
            phase,
            t_ns: now_ns(),
        });
    }
}

/// Record a phase-exit event (called by the span guard's drop).
#[inline]
pub fn end(phase: Phase) {
    if trace_enabled() {
        push(TraceEvent::End {
            phase,
            t_ns: now_ns(),
        });
    }
}

/// Record a point annotation (per-solve iteration count, residual,
/// projection depth, …). No-op unless both metrics and tracing are on.
#[inline]
pub fn note(name: &'static str, value: f64) {
    if crate::enabled() && trace_enabled() {
        push(TraceEvent::Note {
            name,
            value,
            t_ns: now_ns(),
        });
    }
}

/// Flush the calling thread's buffer into the global registry.
/// `sem_comm::par` pool workers call this at the end of every block, so
/// their events are handed over before the loop returns to its caller.
pub fn flush_thread() {
    let _ = BUF.try_with(|b| b.borrow_mut().flush());
}

/// Drain every flushed segment (plus the calling thread's buffer) into
/// one list of per-thread traces, merged by thread id in record order.
/// The global registry is left empty.
pub fn drain() -> Vec<ThreadTrace> {
    flush_thread();
    let segments = std::mem::take(&mut *GLOBAL.lock().unwrap_or_else(|e| e.into_inner()));
    let mut by_tid: Vec<ThreadTrace> = Vec::new();
    for seg in segments {
        match by_tid.iter_mut().find(|t| t.tid == seg.tid) {
            Some(t) => {
                t.events.extend(seg.events);
                t.dropped += seg.dropped;
            }
            None => by_tid.push(seg),
        }
    }
    by_tid.sort_by_key(|t| t.tid);
    by_tid
}

/// Discard all recorded events (global segments and the calling
/// thread's buffer).
pub fn reset_trace() {
    drop(drain());
}

/// Total events dropped (buffer overflow) across the given traces.
pub fn total_dropped(traces: &[ThreadTrace]) -> u64 {
    traces.iter().map(|t| t.dropped).sum()
}

/// Render traces as Chrome trace-event JSON (the object form:
/// `{"traceEvents":[...]}`), loadable by `chrome://tracing` and
/// Perfetto. Single-process form of [`chrome_events`]: process lane 0,
/// no clock shift.
pub fn chrome_json(traces: &[ThreadTrace]) -> String {
    chrome_wrap(&[chrome_events(traces, 0, 0, None)])
}

/// Wrap pre-rendered event fragments (from [`chrome_events`] — e.g. one
/// per rank of a multi-rank job) into one complete Chrome trace-event
/// JSON document.
pub fn chrome_wrap(fragments: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for f in fragments {
        if f.is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        out.push_str(f);
        first = false;
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Render `traces` as a comma-joined run of Chrome trace-event objects
/// (no surrounding array — [`chrome_wrap`] assembles fragments into a
/// document), with every event in process lane `pid` and all timestamps
/// shifted forward by `shift_ns` nanoseconds. The shift is the
/// cross-rank clock-alignment hook: each rank's trace clock starts at
/// its own process-local epoch, so shifting rank r's events by
/// `max_barrier_ns − barrier_ns[r]` (barrier timestamps gathered at a
/// known collective) puts every rank's lane on one shared time axis.
/// When `label` is given, a `process_name` metadata event naming the
/// lane is emitted first. Begin/End pairs are matched per thread and
/// unmatched orphans (from buffer overflow or mid-span enabling) are
/// omitted, so the output always carries balanced `"B"`/`"E"` pairs.
/// Timestamps are microseconds (the trace-event unit).
pub fn chrome_events(
    traces: &[ThreadTrace],
    pid: u32,
    shift_ns: u64,
    label: Option<&str>,
) -> String {
    let mut out = String::new();
    let mut first = true;
    let mut emit = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        out.push_str(&s);
        *first = false;
    };
    if let Some(name) = label {
        emit(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            ),
            &mut first,
        );
    }
    for t in traces {
        // Match Begin/End pairs: stack of indices of open Begins.
        let mut matched = vec![false; t.events.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, ev) in t.events.iter().enumerate() {
            match ev {
                TraceEvent::Begin { .. } => stack.push(i),
                TraceEvent::End { phase, .. } => {
                    if let Some(&j) = stack.last() {
                        if matches!(t.events[j], TraceEvent::Begin { phase: p, .. } if p == *phase)
                        {
                            stack.pop();
                            matched[j] = true;
                            matched[i] = true;
                        }
                    }
                }
                TraceEvent::Note { .. } => matched[i] = true,
            }
        }
        for (i, ev) in t.events.iter().enumerate() {
            if !matched[i] {
                continue;
            }
            let ts = ev.t_ns().saturating_add(shift_ns) as f64 / 1e3;
            let line = match ev {
                TraceEvent::Begin { phase, .. } => format!(
                    "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"B\",\"ts\":{},\"pid\":{pid},\"tid\":{}}}",
                    phase.name(),
                    fmt_f64(ts),
                    t.tid
                ),
                TraceEvent::End { phase, .. } => format!(
                    "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"E\",\"ts\":{},\"pid\":{pid},\"tid\":{}}}",
                    phase.name(),
                    fmt_f64(ts),
                    t.tid
                ),
                TraceEvent::Note { name, value, .. } => format!(
                    "{{\"name\":\"{}\",\"cat\":\"note\",\"ph\":\"I\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"value\":{}}}}}",
                    escape(name),
                    fmt_f64(ts),
                    t.tid,
                    fmt_f64(*value)
                ),
            };
            emit(line, &mut first);
        }
    }
    out
}

/// Drain the trace log and write it as Chrome trace-event JSON to
/// `path`. Returns the number of threads that contributed events.
pub fn write_chrome(path: &str) -> std::io::Result<usize> {
    let traces = drain();
    std::fs::write(path, chrome_json(&traces))?;
    Ok(traces.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = crate::test_guard();
        reset_trace();
        set_trace_enabled(false);
        begin(Phase::Step);
        end(Phase::Step);
        assert!(drain().is_empty());
    }

    #[test]
    fn events_record_and_drain_in_order() {
        let _g = crate::test_guard();
        let prev = crate::enabled();
        crate::set_enabled(true);
        reset_trace();
        set_trace_enabled(true);
        begin(Phase::PressureCg);
        note("iterations", 17.0);
        end(Phase::PressureCg);
        set_trace_enabled(false);
        let traces = drain();
        let all: Vec<&TraceEvent> = traces.iter().flat_map(|t| t.events.iter()).collect();
        assert_eq!(all.len(), 3);
        assert!(matches!(all[0], TraceEvent::Begin { phase: Phase::PressureCg, .. }));
        assert!(
            matches!(all[1], TraceEvent::Note { name: "iterations", value, .. } if *value == 17.0)
        );
        assert!(matches!(all[2], TraceEvent::End { phase: Phase::PressureCg, .. }));
        // Monotone timestamps within a thread.
        assert!(all[0].t_ns() <= all[1].t_ns() && all[1].t_ns() <= all[2].t_ns());
        crate::set_enabled(prev);
    }

    #[test]
    fn overflow_drops_and_counts_instead_of_blocking() {
        let _g = crate::test_guard();
        let prev_cap = CAPACITY.load(Ordering::Relaxed);
        reset_trace();
        set_trace_enabled(true);
        // A fresh thread picks up the small capacity.
        set_capacity(16);
        let handle = std::thread::spawn(|| {
            for _ in 0..40 {
                begin(Phase::Step);
                end(Phase::Step);
            }
        });
        handle.join().unwrap();
        set_trace_enabled(false);
        set_capacity(prev_cap);
        let traces = drain();
        let worker = traces
            .iter()
            .find(|t| !t.events.is_empty() || t.dropped > 0)
            .expect("worker events");
        assert_eq!(worker.events.len(), 16);
        assert_eq!(worker.dropped, 64);
    }

    #[test]
    fn overflow_is_surfaced_as_a_counter() {
        let _g = crate::test_guard();
        let prev = crate::enabled();
        crate::set_enabled(true);
        counters::reset_counters();
        reset_trace();
        set_trace_enabled(true);
        let prev_cap = CAPACITY.load(Ordering::Relaxed);
        set_capacity(16);
        let handle = std::thread::spawn(|| {
            for _ in 0..20 {
                begin(Phase::Step);
                end(Phase::Step);
            }
        });
        handle.join().unwrap();
        set_trace_enabled(false);
        set_capacity(prev_cap);
        let traces = drain();
        let dropped = total_dropped(&traces);
        assert_eq!(dropped, 24, "16-slot buffer over 40 events");
        assert_eq!(
            counters::get(Counter::TraceDropped),
            dropped,
            "every dropped event must be counted"
        );
        counters::reset_counters();
        crate::set_enabled(prev);
    }

    #[test]
    fn chrome_events_places_lane_shift_and_label() {
        let traces = vec![ThreadTrace {
            tid: 2,
            events: vec![
                TraceEvent::Begin {
                    phase: Phase::Step,
                    t_ns: 1_000,
                },
                TraceEvent::End {
                    phase: Phase::Step,
                    t_ns: 3_000,
                },
            ],
            dropped: 0,
        }];
        let frag = chrome_events(&traces, 7, 2_000, Some("rank 7"));
        assert!(frag.contains("\"pid\":7"), "{frag}");
        assert!(!frag.contains("\"pid\":0,"), "{frag}");
        assert!(frag.contains("\"process_name\""), "{frag}");
        assert!(frag.contains("\"ts\":3"), "shifted begin ts: {frag}");
        assert!(frag.contains("\"ts\":5"), "shifted end ts: {frag}");
        // Two lanes merged into one document stay valid JSON, and an
        // empty lane contributes nothing (no stray commas).
        let merged = chrome_wrap(&[frag, String::new(), chrome_events(&traces, 8, 0, None)]);
        assert!(
            Json::parse(&merged).is_some(),
            "invalid merged JSON: {merged}"
        );
        assert!(merged.contains("\"pid\":7") && merged.contains("\"pid\":8"));
        assert_eq!(merged.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(merged.matches("\"ph\":\"E\"").count(), 2);
    }

    #[test]
    fn chrome_export_is_valid_and_balanced_despite_orphans() {
        // An End without a Begin (overflow artifact) must be omitted.
        let traces = vec![ThreadTrace {
            tid: 3,
            events: vec![
                TraceEvent::End {
                    phase: Phase::Schwarz,
                    t_ns: 5,
                },
                TraceEvent::Begin {
                    phase: Phase::Step,
                    t_ns: 10,
                },
                TraceEvent::Begin {
                    phase: Phase::PressureCg,
                    t_ns: 20,
                },
                TraceEvent::Note {
                    name: "iterations",
                    value: 12.0,
                    t_ns: 25,
                },
                TraceEvent::End {
                    phase: Phase::PressureCg,
                    t_ns: 30,
                },
                TraceEvent::End {
                    phase: Phase::Step,
                    t_ns: 40,
                },
                TraceEvent::Begin {
                    phase: Phase::Helmholtz,
                    t_ns: 50,
                }, // unclosed
            ],
            dropped: 1,
        }];
        let json = chrome_json(&traces);
        assert!(Json::parse(&json).is_some(), "invalid chrome JSON: {json}");
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"I\"").count(), 1);
        assert!(!json.contains("helmholtz"), "unclosed Begin leaked");
        assert!(!json.contains("schwarz"), "orphan End leaked");
    }
}
