//! Integration tests for the sem-trace layer: histogram determinism
//! across thread counts, file-sink write/replay round-trips, and the
//! Chrome trace export contract.
//!
//! These run in their own test binary (one process) and serialize on a
//! local mutex, since the registries under test are process-global.

use sem_linalg::rng::SplitMix64;
use sem_obs::hist::{self, bucket_index, HistSnapshot};
use sem_obs::json::Json;
use sem_obs::sink::{self, FileSink, MemorySink, SinkHandle};
use sem_obs::spans::Phase;
use sem_obs::trace::{self, TraceEvent};
use std::sync::Arc;

fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The synthetic per-element durations: a deterministic spread over
/// many orders of magnitude, independent of which worker records them.
fn synthetic_ns(i: usize) -> u64 {
    100 + SplitMix64::new(0xD00D_F00Du64 ^ (i as u64)).next_u64() % 10_000_000
}

#[test]
fn histogram_buckets_are_identical_across_thread_counts() {
    let _g = guard();
    sem_obs::set_enabled(true);

    let n_items = 257usize; // not a multiple of any tested thread count
    let mut reference: Option<HistSnapshot> = None;
    for nt in [1usize, 2, 8] {
        sem_obs::reset();
        let mut items: Vec<u64> = (0..n_items as u64).collect();
        sem_comm::par::with_threads(nt, || {
            sem_comm::par::par_for_each_init(
                &mut items,
                || (),
                |(), i, _item| {
                    hist::record(Phase::Schwarz, synthetic_ns(i));
                    hist::record(Phase::PressureCg, synthetic_ns(i) / 3);
                },
            );
        });
        let snap = hist::hist_snapshot();
        assert_eq!(snap.count(Phase::Schwarz), n_items as u64, "nt {nt}");
        match &reference {
            None => reference = Some(snap),
            Some(want) => {
                for phase in [Phase::Schwarz, Phase::PressureCg] {
                    assert_eq!(
                        snap.buckets(phase),
                        want.buckets(phase),
                        "phase {} differs at nt {nt}",
                        phase.name()
                    );
                    assert_eq!(
                        snap.quantile_seconds(phase, 0.99),
                        want.quantile_seconds(phase, 0.99),
                        "p99 differs at nt {nt}"
                    );
                }
            }
        }
    }

    // The bucket of each sample is a pure function of the duration.
    for i in 0..n_items {
        let ns = synthetic_ns(i);
        assert_eq!(bucket_index(ns), bucket_index(ns));
    }
    sem_obs::set_enabled(false);
    sem_obs::reset();
}

/// Emit records through a file sink, then replay the file through the
/// JSON parser the way `sem-report` does.
#[test]
fn file_sink_roundtrips_step_records() {
    let _g = guard();
    sem_obs::set_enabled(true);
    sem_obs::reset();

    let path = std::env::temp_dir().join("sem_obs_trace_sink_roundtrip.jsonl");
    let path = path.to_str().unwrap().to_string();
    let handle = SinkHandle::new(FileSink::create(&path).unwrap());
    sink::set_sink(Some(handle.0.clone()));

    let steps = 5u64;
    for step in 1..=steps {
        let c0 = sem_obs::counters::snapshot();
        let s0 = sem_obs::spans::span_snapshot();
        let h0 = hist::hist_snapshot();
        sem_obs::counters::add(sem_obs::Counter::OperatorApplications, step);
        {
            let _sp = sem_obs::span(Phase::PressureCg);
        }
        let mut rec = sem_obs::StepRecord {
            step,
            time: step as f64 * 0.002,
            dt: 0.002,
            cfl: 0.3,
            pressure_iterations: 10 + step,
            projection_depth: step.min(3),
            pressure_converged: true,
            helmholtz_iterations: vec![5, 6],
            seconds: 0.01,
            ..Default::default()
        };
        rec.capture_registries((&c0, &s0, &h0));
        rec.emit();
    }
    sink::set_sink(None);

    let body = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), steps as usize);
    for (i, line) in lines.iter().enumerate() {
        // File-sink lines are bare JSON (no "JSON " prefix).
        assert!(line.starts_with('{'), "line {i} not bare JSON: {line}");
        let v = Json::parse(line).unwrap_or_else(|| panic!("unparsable line {i}: {line}"));
        assert_eq!(
            v.get("type").and_then(Json::as_str),
            Some(sem_obs::record::STEP_RECORD_TYPE)
        );
        assert_eq!(
            v.get("schema").and_then(Json::as_u64),
            Some(sem_obs::record::SCHEMA_VERSION)
        );
        assert_eq!(v.get("step").and_then(Json::as_u64), Some(i as u64 + 1));
        for field in sem_obs::record::REQUIRED_FIELDS {
            assert!(v.get(field).is_some(), "line {i} missing {field}");
        }
        // The per-step latency delta carries exactly this step's span.
        let lat = v
            .get("latency")
            .and_then(|l| l.get("pressure_cg"))
            .unwrap_or_else(|| panic!("line {i} lacks pressure_cg latency"));
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(1));
        // Counter delta is per-step, cumulative is monotone.
        let delta = v
            .get("counters_delta")
            .and_then(|c| c.get("operator_applications"))
            .and_then(Json::as_u64);
        assert_eq!(delta, Some(i as u64 + 1));
    }

    let _ = std::fs::remove_file(&path);
    sem_obs::set_enabled(false);
    sem_obs::reset();
}

#[test]
fn memory_sink_captures_records_for_tests() {
    let _g = guard();
    sem_obs::set_enabled(true);
    sem_obs::reset();
    let mem = Arc::new(MemorySink::new());
    sink::set_sink(Some(mem.clone()));
    sem_obs::StepRecord {
        step: 1,
        ..Default::default()
    }
    .emit();
    sink::set_sink(None);
    let lines = mem.take();
    assert_eq!(lines.len(), 1);
    assert!(Json::parse(&lines[0]).is_some());
    sem_obs::set_enabled(false);
    sem_obs::reset();
}

/// Seeded end-to-end trace: nested spans recorded from `par` workers
/// across several thread counts must export as valid Chrome trace JSON
/// with balanced begin/end pairs.
#[test]
fn seeded_chrome_export_is_valid_and_balanced() {
    let _g = guard();
    sem_obs::set_enabled(true);
    sem_obs::reset();
    trace::reset_trace();
    trace::set_trace_enabled(true);

    let mut rng = SplitMix64::new(0xC0FFEE);
    for nt in [1usize, 3, 4] {
        let mut items: Vec<u64> = (0..40).map(|_| rng.next_u64() % 3).collect();
        sem_comm::par::with_threads(nt, || {
            sem_comm::par::par_for_each_init(
                &mut items,
                || (),
                |(), _i, depth| {
                    // Seeded nesting depth 1..=3.
                    let _outer = sem_obs::span(Phase::PressureCg);
                    if *depth >= 1 {
                        let _mid = sem_obs::span(Phase::Schwarz);
                        if *depth >= 2 {
                            let _inner = sem_obs::span(Phase::CoarseSolve);
                            sem_obs::trace::note("coarse_dof", *depth as f64);
                        }
                    }
                },
            );
        });
    }
    trace::set_trace_enabled(false);

    let traces = trace::drain();
    assert!(trace::total_dropped(&traces) == 0, "buffer overflow");
    let mut begins = 0u64;
    let mut ends = 0u64;
    for t in &traces {
        // Per-thread event streams are properly nested, so a stack
        // replay must match every end to the innermost open begin.
        let mut stack: Vec<Phase> = Vec::new();
        for ev in &t.events {
            match ev {
                TraceEvent::Begin { phase, .. } => {
                    stack.push(*phase);
                    begins += 1;
                }
                TraceEvent::End { phase, .. } => {
                    assert_eq!(stack.pop(), Some(*phase), "mismatched nesting");
                    ends += 1;
                }
                TraceEvent::Note { name, .. } => assert_eq!(*name, "coarse_dof"),
            }
        }
        assert!(stack.is_empty(), "unclosed spans on tid {}", t.tid);
    }
    assert_eq!(begins, ends);
    assert!(begins > 0, "no events recorded");

    let json = trace::chrome_json(&traces);
    let parsed = Json::parse(&json).expect("chrome JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count() as u64
    };
    assert_eq!(count("B"), begins);
    assert_eq!(count("E"), ends);
    assert!(count("I") > 0);
    // Every B/E is per-thread balanced *in order*: replay each tid.
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(&str, &str)>> = Default::default();
    for e in events {
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        let ph = e.get("ph").and_then(Json::as_str).unwrap();
        let name = e.get("name").and_then(Json::as_str).unwrap();
        if ph != "I" {
            by_tid.entry(tid).or_default().push((ph, name));
        }
    }
    for (tid, evs) in by_tid {
        let mut stack = Vec::new();
        for (ph, name) in evs {
            match ph {
                "B" => stack.push(name),
                "E" => assert_eq!(stack.pop(), Some(name), "tid {tid} unbalanced"),
                _ => unreachable!(),
            }
        }
        assert!(stack.is_empty(), "tid {tid} left open spans");
    }

    sem_obs::set_enabled(false);
    sem_obs::reset();
}
