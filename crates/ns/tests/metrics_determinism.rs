//! Observability must be *observation only*: enabling `sem_obs`
//! counters, spans, and per-step JSON emission must not perturb a single
//! bit of the solver state. This runs the same small Taylor–Green decay
//! twice — metrics off, then metrics on — and compares every field
//! bitwise. It also pins the one flop account: each step's
//! `StepStats::flops` is the `counters_delta.mxm_flops` of the record
//! that step emitted, and 0 while metrics are off.
//!
//! Lives in its own integration-test binary because the metrics switch
//! is process-global state.

use sem_mesh::generators::box2d;
use sem_ns::{ConvectionScheme, NsConfig, NsSolver};
use sem_obs::json::Json;
use sem_obs::sink::MemorySink;
use sem_obs::SinkHandle;
use sem_ops::SemOps;
use std::sync::Arc;

fn taylor_green(metrics: bool, sink: Option<SinkHandle>) -> NsSolver {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mesh = box2d(3, 3, [0.0, two_pi], [0.0, two_pi], true, true);
    let ops = SemOps::new(mesh, 6);
    let cfg = NsConfig {
        dt: 2e-3,
        nu: 0.01,
        convection: ConvectionScheme::Ext,
        pressure_lmax: 8,
        metrics,
        sink,
        ..Default::default()
    };
    let mut s = NsSolver::new(ops, cfg);
    s.set_velocity(|x, y, _| [x.sin() * y.cos(), -x.cos() * y.sin(), 0.0]);
    s
}

/// The final velocity and pressure, and every step's `StepStats::flops`.
fn run(
    metrics: bool,
    steps: usize,
    sink: Option<SinkHandle>,
) -> (Vec<Vec<f64>>, Vec<f64>, Vec<u64>) {
    let mut s = taylor_green(metrics, sink);
    let flops = (0..steps).map(|_| s.step().unwrap().flops).collect();
    (s.vel.clone(), s.pressure.clone(), flops)
}

#[test]
fn metrics_do_not_change_solver_results_bitwise() {
    sem_obs::set_enabled(false);
    sem_obs::reset();
    let (vel_off, p_off, flops_off) = run(false, 6, None);
    assert_eq!(flops_off, [0; 6], "metrics off: no flops are counted");

    // The metrics run emits one step record per step into `mem` and
    // leaves the registries enabled.
    let mem = Arc::new(MemorySink::new());
    let (vel_on, p_on, flops_on) = run(true, 6, Some(SinkHandle(mem.clone())));
    assert!(
        sem_obs::enabled(),
        "cfg.metrics should have enabled the registries"
    );
    assert!(
        sem_obs::counters::get(sem_obs::Counter::MxmCalls) > 0,
        "instrumented run should have counted mxm calls"
    );
    let recorded: Vec<u64> = mem
        .lines()
        .iter()
        .map(|l| {
            let delta =
                Json::parse(l).and_then(|r| r.get("counters_delta")?.get("mxm_flops")?.as_u64());
            delta.unwrap_or_else(|| panic!("no counters_delta.mxm_flops in {l}"))
        })
        .collect();
    assert!(flops_on.iter().all(|&f| f > 0), "{flops_on:?}");
    assert_eq!(flops_on, recorded, "StepStats::flops vs the step records");

    for (c, (a, b)) in vel_off.iter().zip(vel_on.iter()).enumerate() {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "velocity component {c} node {i}: {x:e} vs {y:e}"
            );
        }
    }
    for (i, (x, y)) in p_off.iter().zip(p_on.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "pressure node {i}: {x:e} vs {y:e}");
    }

    sem_obs::set_enabled(false);
    sem_obs::reset();
}
