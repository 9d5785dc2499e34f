//! Per-timestep structured records.
//!
//! A [`StepRecord`] captures the solver-trajectory quantities the paper
//! reports per step (pressure CG iterations and residuals — Fig. 4,
//! projection history depth `l`, CFL) together with snapshots of the
//! global [`crate::counters`] and [`crate::spans`] registries, and
//! serializes to a single JSON line via [`StepRecord::to_json_line`].
//!
//! Lines carry the same `JSON ` prefix as `sem_bench::timing` output, so
//! one `grep '^JSON '` over a run's stdout harvests both bench summaries
//! and per-step solver trajectories; the two are distinguished by the
//! `"type"` field (`"terasem.step"` here, bench lines have `"group"`).

use crate::counters::{self, Counter, CounterSnapshot};
use crate::hist::{self, quantile_from_buckets, HistSnapshot};
use crate::json::JsonObj;
use crate::spans::{self, Phase, SpanSnapshot};

/// Schema version stamped into every record as `"schema"`.
/// v1: counters + cumulative/delta span totals (PR 2).
/// v2: adds per-step `latency` quantiles and `latency_hist` buckets.
/// v3: adds the per-step `recoveries` rollback-attempt count and the
///     `faults_injected`/`recoveries` counters.
/// v4: adds the per-step `recovery_trail` ladder-stage list and the
///     `checkpoints_written`/`watchdog_trips`/`resumes` counters.
/// v5: adds the `rank` stamp (`null` outside multi-rank jobs — see
///     [`crate::set_rank`]), the `trace_dropped` counter, and the
///     per-rank `terasem.rank` telemetry record family (sem-net).
/// v6: adds the per-step `oifs_substeps` count (RK4 substeps per Δt the
///     OIFS sweep ran, sized from the step's CFL; 0 under EXT).
/// v7: drops the `watchdog_trips` counter and the `terasem.run` field of
///     the same name (the run supervisor has no wall-clock watchdogs).
pub const SCHEMA_VERSION: u64 = 7;

/// The `"type"` tag of a per-timestep record.
pub const STEP_RECORD_TYPE: &str = "terasem.step";

/// One timestep's worth of solver observability data.
#[derive(Clone, Debug, Default)]
pub struct StepRecord {
    /// Rank id of the emitting process in a multi-rank job (`None` in
    /// single-process runs). [`capture_registries`] stamps it from the
    /// process-global [`crate::rank`].
    ///
    /// [`capture_registries`]: StepRecord::capture_registries
    pub rank: Option<u32>,
    /// Timestep index (1-based, matching `StepStats::step`).
    pub step: u64,
    /// Simulation time after the step.
    pub time: f64,
    /// Timestep size.
    pub dt: f64,
    /// Convective CFL number of the step.
    pub cfl: f64,
    /// RK4 substeps per Δt the OIFS sweep ran (0 under EXT).
    pub oifs_substeps: u64,
    /// Pressure CG iterations this step.
    pub pressure_iterations: u64,
    /// Pressure residual before CG (after projection, if enabled).
    pub pressure_initial_residual: f64,
    /// Pressure residual at CG exit.
    pub pressure_final_residual: f64,
    /// Successive-RHS projection basis depth `l` after the step.
    pub projection_depth: u64,
    /// Did the pressure solve reach its tolerance?
    pub pressure_converged: bool,
    /// Helmholtz CG iterations per velocity component.
    pub helmholtz_iterations: Vec<u64>,
    /// Scalar (temperature) Helmholtz iterations, if a scalar is active.
    pub scalar_iterations: Option<u64>,
    /// Wall time of the step, in seconds.
    pub seconds: f64,
    /// Rollback/retry attempts the recovery ladder needed before this
    /// step committed (0 on a clean step).
    pub recoveries: u64,
    /// Ladder stages taken by those attempts, in order (e.g.
    /// `["clear_projection", "jacobi_fallback"]`; `"give_up"` closes a
    /// failed trail). Empty on a clean step.
    pub recovery_trail: Vec<String>,
    /// Counter totals at the end of the step (cumulative since process
    /// start or the last [`crate::reset`]).
    pub counters: CounterSnapshot,
    /// Counter increments attributable to this step alone.
    pub counters_delta: CounterSnapshot,
    /// Span totals at the end of the step (cumulative).
    pub spans: SpanSnapshot,
    /// Span increments attributable to this step alone.
    pub spans_delta: SpanSnapshot,
    /// Per-phase latency histogram increments for this step alone
    /// (quantiles derive from these — see [`crate::hist`]).
    pub latency: HistSnapshot,
}

impl StepRecord {
    /// Fill the cumulative-registry fields from the live global state and
    /// derive the per-step deltas against `since` (snapshots taken at
    /// step entry).
    pub fn capture_registries(
        &mut self,
        since: (&CounterSnapshot, &SpanSnapshot, &HistSnapshot),
    ) {
        self.rank = crate::rank();
        self.counters = counters::snapshot();
        self.spans = spans::span_snapshot();
        self.counters_delta = self.counters.delta(since.0);
        self.spans_delta = self.spans.delta(since.1);
        self.latency = hist::hist_snapshot().delta(since.2);
    }

    /// Serialize as one `JSON `-prefixed line (no trailing newline) —
    /// the stdout convention shared with `sem_bench::timing`.
    pub fn to_json_line(&self) -> String {
        format!("JSON {}", self.to_json_body())
    }

    /// Deliver this record to the process-global metrics sink (see
    /// [`crate::sink`]).
    pub fn emit(&self) {
        crate::sink::emit(&self.to_json_body());
    }

    /// Serialize as one bare JSON object (what sinks receive).
    pub fn to_json_body(&self) -> String {
        let mut o = JsonObj::new();
        o.str("type", STEP_RECORD_TYPE).u64("schema", SCHEMA_VERSION);
        match self.rank {
            Some(r) => o.u64("rank", r as u64),
            None => o.raw("rank", "null"),
        };
        o.u64("step", self.step)
            .f64("time", self.time)
            .f64("dt", self.dt)
            .f64("cfl", self.cfl)
            .u64("oifs_substeps", self.oifs_substeps)
            .u64("pressure_iterations", self.pressure_iterations)
            .f64("pressure_initial_residual", self.pressure_initial_residual)
            .f64("pressure_final_residual", self.pressure_final_residual)
            .u64("projection_depth", self.projection_depth)
            .bool("pressure_converged", self.pressure_converged)
            .arr_u64("helmholtz_iterations", &self.helmholtz_iterations);
        match self.scalar_iterations {
            Some(n) => o.u64("scalar_iterations", n),
            None => o.raw("scalar_iterations", "null"),
        };
        o.f64("seconds", self.seconds)
            .u64("recoveries", self.recoveries)
            .arr_str("recovery_trail", &self.recovery_trail)
            .obj("counters", counters_obj(&self.counters))
            .obj("counters_delta", counters_obj(&self.counters_delta))
            .obj("spans", spans_obj(&self.spans))
            .obj("spans_delta", spans_obj(&self.spans_delta))
            .obj("latency", latency_obj(&self.latency))
            .obj("latency_hist", latency_hist_obj(&self.latency));
        o.finish()
    }
}

/// `{counter_name: value}` for every counter — public because the
/// sem-net per-rank telemetry record serializes snapshots the same way.
pub fn counters_obj(snap: &CounterSnapshot) -> JsonObj {
    let mut o = JsonObj::new();
    for c in Counter::ALL {
        o.u64(c.name(), snap.get(c));
    }
    o
}

/// `{phase: {seconds, calls}}` for every phase (public for the sem-net
/// per-rank telemetry record).
pub fn spans_obj(snap: &SpanSnapshot) -> JsonObj {
    let mut o = JsonObj::new();
    for p in Phase::ALL {
        let mut entry = JsonObj::new();
        entry
            .f64("seconds", snap.seconds(p))
            .u64("calls", snap.calls(p));
        o.obj(p.name(), entry);
    }
    o
}

/// Per-phase `{count, p50, p90, p99, max}` (seconds) for every phase
/// that recorded samples this step. Quantiles come from bucket upper
/// bounds, so they are deterministic given the bucket counts.
fn latency_obj(hist: &HistSnapshot) -> JsonObj {
    let mut o = JsonObj::new();
    for p in Phase::ALL {
        let buckets = hist.buckets(p);
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            continue;
        }
        let q = |q: f64| quantile_from_buckets(buckets, q).unwrap_or(0.0);
        let mut entry = JsonObj::new();
        entry
            .u64("count", count)
            .f64("p50", q(0.50))
            .f64("p90", q(0.90))
            .f64("p99", q(0.99))
            .f64("max", q(1.0));
        o.obj(p.name(), entry);
    }
    o
}

/// Compact raw buckets: per phase, an array of `[bucket_index, count]`
/// pairs for the nonzero buckets — enough for `sem-report` to rebuild
/// and merge exact histograms across steps (and, via
/// [`HistSnapshot::merge`], across ranks).
pub fn latency_hist_obj(hist: &HistSnapshot) -> JsonObj {
    let mut o = JsonObj::new();
    for p in Phase::ALL {
        let buckets = hist.buckets(p);
        if buckets.iter().all(|&c| c == 0) {
            continue;
        }
        let pairs = buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| format!("[{i},{c}]"))
            .collect::<Vec<_>>()
            .join(",");
        o.raw(p.name(), &format!("[{pairs}]"));
    }
    o
}

/// Field names every `terasem.step` record must carry (schema v7). Used
/// by the schema tests and mirrored by `scripts/metrics_smoke.sh`.
pub const REQUIRED_FIELDS: &[&str] = &[
    "type",
    "schema",
    "rank",
    "step",
    "time",
    "dt",
    "cfl",
    "oifs_substeps",
    "pressure_iterations",
    "pressure_initial_residual",
    "pressure_final_residual",
    "projection_depth",
    "pressure_converged",
    "helmholtz_iterations",
    "scalar_iterations",
    "seconds",
    "recoveries",
    "recovery_trail",
    "counters",
    "counters_delta",
    "spans",
    "spans_delta",
    "latency",
    "latency_hist",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample() -> StepRecord {
        StepRecord {
            step: 3,
            time: 0.006,
            dt: 0.002,
            cfl: 0.41,
            oifs_substeps: 1,
            pressure_iterations: 17,
            pressure_initial_residual: 3.2e-3,
            pressure_final_residual: 8.9e-9,
            projection_depth: 2,
            pressure_converged: true,
            helmholtz_iterations: vec![6, 7],
            scalar_iterations: None,
            seconds: 0.0123,
            ..StepRecord::default()
        }
    }

    #[test]
    fn json_line_is_valid_and_prefixed() {
        let line = sample().to_json_line();
        assert!(line.starts_with("JSON {"), "{line}");
        assert!(Json::parse(&line["JSON ".len()..]).is_some(), "{line}");
    }

    #[test]
    fn json_line_has_all_required_fields() {
        let line = sample().to_json_line();
        for field in REQUIRED_FIELDS {
            assert!(
                line.contains(&format!("\"{field}\":")),
                "missing {field} in {line}"
            );
        }
        assert!(line.contains("\"scalar_iterations\":null"));
        assert!(line.contains("\"oifs_substeps\":1"));
        assert!(line.contains("\"recovery_trail\":[]"));
        assert!(line.contains("\"rank\":null"), "single-process rank stamp");
        let mut with_scalar = sample();
        with_scalar.scalar_iterations = Some(4);
        with_scalar.recovery_trail =
            vec!["clear_projection".to_string(), "jacobi_fallback".to_string()];
        let line = with_scalar.to_json_line();
        assert!(line.contains("\"scalar_iterations\":4"));
        assert!(line
            .contains("\"recovery_trail\":[\"clear_projection\",\"jacobi_fallback\"]"));
        assert!(Json::parse(&line["JSON ".len()..]).is_some());
    }

    #[test]
    fn capture_registries_fills_deltas() {
        let _g = crate::test_guard();
        let prev = crate::enabled();
        crate::set_enabled(true);
        crate::reset();
        let c0 = counters::snapshot();
        let s0 = spans::span_snapshot();
        let h0 = crate::hist::hist_snapshot();
        counters::add(Counter::MxmFlops, 1000);
        {
            let _sp = spans::span(Phase::PressureCg);
        }
        crate::set_rank(Some(3));
        let mut rec = sample();
        rec.capture_registries((&c0, &s0, &h0));
        crate::set_rank(None);
        assert_eq!(rec.rank, Some(3), "capture must stamp the process rank");
        assert_eq!(rec.counters_delta.get(Counter::MxmFlops), 1000);
        assert_eq!(rec.spans_delta.calls(Phase::PressureCg), 1);
        assert_eq!(rec.latency.count(Phase::PressureCg), 1);
        let line = rec.to_json_line();
        assert!(line.contains("\"rank\":3"));
        assert!(line.contains("\"mxm_flops\":1000"));
        assert!(Json::parse(&line["JSON ".len()..]).is_some());
        crate::set_enabled(prev);
        crate::reset();
    }

    #[test]
    fn latency_fields_roundtrip_through_parser() {
        let mut rec = sample();
        rec.latency.add_bucket(Phase::PressureCg, 10, 90); // ~1 µs
        rec.latency.add_bucket(Phase::PressureCg, 20, 10); // ~1 ms
        let body = rec.to_json_body();
        let v = Json::parse(&body).expect("parse");
        assert_eq!(v.get("schema").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        let lat = v.get("latency").and_then(|l| l.get("pressure_cg")).unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(100));
        let p50 = lat.get("p50").and_then(Json::as_f64).unwrap();
        let p99 = lat.get("p99").and_then(Json::as_f64).unwrap();
        let max = lat.get("max").and_then(Json::as_f64).unwrap();
        assert!(p50 < 1e-5 && p99 > 1e-4 && p99 == max, "{p50} {p99} {max}");
        // Raw buckets rebuild the exact histogram.
        let pairs = v
            .get("latency_hist")
            .and_then(|h| h.get("pressure_cg"))
            .and_then(Json::as_arr)
            .unwrap();
        let mut rebuilt = HistSnapshot::default();
        for pair in pairs {
            let p = pair.as_arr().unwrap();
            rebuilt.add_bucket(
                Phase::PressureCg,
                p[0].as_u64().unwrap() as usize,
                p[1].as_u64().unwrap(),
            );
        }
        assert_eq!(
            rebuilt.buckets(Phase::PressureCg),
            rec.latency.buckets(Phase::PressureCg)
        );
        // Phases with no samples are omitted from both objects.
        assert!(v.get("latency").and_then(|l| l.get("schwarz")).is_none());
    }
}
