//! Integration tests: counter aggregation across `sem_comm::par`
//! workers, span nesting under concurrency, and the JSON-line schema.
//!
//! These run in their own test binary (one process), so toggling the
//! process-global enabled flag here cannot race with sem-obs unit tests.
//! Within the binary the tests still serialize on a local mutex.

use sem_obs::counters::{self, Counter};
use sem_obs::record::{StepRecord, REQUIRED_FIELDS};
use sem_obs::spans::{self, Phase};

fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn counters_aggregate_across_par_workers() {
    let _g = guard();
    sem_obs::set_enabled(true);
    sem_obs::reset();

    // Mimic an instrumented element loop: each of 64 "elements" charges
    // a per-element flop count from whatever worker thread runs it.
    let n_elem = 64usize;
    let flops_per_elem = 2 * 8 * 8 * 8u64;
    let mut elems: Vec<u64> = vec![0; n_elem];
    sem_comm::par::with_threads(4, || {
        sem_comm::par::par_for_each_init(
            &mut elems,
            || (),
            |(), _i, e| {
                counters::add(Counter::MxmFlops, flops_per_elem);
                counters::add(Counter::MxmCalls, 1);
                *e += 1;
            },
        );
    });
    assert!(elems.iter().all(|&e| e == 1));

    assert_eq!(
        counters::get(Counter::MxmFlops),
        n_elem as u64 * flops_per_elem
    );
    assert_eq!(counters::get(Counter::MxmCalls), n_elem as u64);

    sem_obs::set_enabled(false);
    sem_obs::reset();
}

#[test]
fn spans_aggregate_across_par_workers_and_nest() {
    let _g = guard();
    sem_obs::set_enabled(true);
    sem_obs::reset();

    let mut items: Vec<u64> = vec![0; 16];
    sem_comm::par::with_threads(4, || {
        sem_comm::par::par_for_each_init(
            &mut items,
            || (),
            |(), _i, _item| {
                let _outer = spans::span(Phase::Schwarz);
                {
                    let _inner = spans::span(Phase::CoarseSolve);
                    std::hint::black_box((0..1000u64).sum::<u64>());
                }
            },
        );
    });

    assert_eq!(spans::phase_calls(Phase::Schwarz), 16);
    assert_eq!(spans::phase_calls(Phase::CoarseSolve), 16);
    // Inclusive accumulation: each outer span contains its inner span.
    assert!(spans::phase_seconds(Phase::Schwarz) >= spans::phase_seconds(Phase::CoarseSolve));

    sem_obs::set_enabled(false);
    sem_obs::reset();
}

#[test]
fn step_record_schema_roundtrips_through_validator() {
    let _g = guard();
    sem_obs::set_enabled(true);
    sem_obs::reset();

    let c0 = counters::snapshot();
    let s0 = spans::span_snapshot();
    let h0 = sem_obs::hist::hist_snapshot();
    counters::add(Counter::GsWords, 4096);
    counters::add(Counter::OperatorApplications, 17);
    {
        let _sp = spans::span(Phase::PressureCg);
    }

    let mut rec = StepRecord {
        step: 1,
        time: 0.002,
        dt: 0.002,
        cfl: 0.3,
        pressure_iterations: 17,
        pressure_initial_residual: 1e-2,
        pressure_final_residual: 1e-9,
        projection_depth: 1,
        pressure_converged: true,
        helmholtz_iterations: vec![5, 5],
        scalar_iterations: Some(3),
        seconds: 0.01,
        ..StepRecord::default()
    };
    rec.capture_registries((&c0, &s0, &h0));
    let line = rec.to_json_line();

    assert!(line.starts_with("JSON {"));
    let body = &line["JSON ".len()..];
    assert!(
        sem_obs::json::Json::parse(body).is_some(),
        "invalid JSON: {body}"
    );
    for field in REQUIRED_FIELDS {
        assert!(body.contains(&format!("\"{field}\":")), "missing {field}");
    }
    assert!(body.contains("\"gs_words\":4096"));
    assert!(body.contains("\"operator_applications\":17"));
    // Per-phase span objects keyed by phase name, with seconds + calls.
    assert!(body.contains("\"pressure_cg\":{\"seconds\":"));

    sem_obs::set_enabled(false);
    sem_obs::reset();
}
