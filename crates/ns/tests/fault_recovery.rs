//! sem-guard end-to-end: every fault kind in the `TERASEM_FAULT`
//! grammar (a) demonstrably fires, (b) produces the expected recovery
//! trail through the escalation ladder, and (c) leaves the solver in a
//! healthy, deterministic state — including bitwise determinism of the
//! recovered run across host thread counts.
//!
//! The fault letterbox and the `sem_obs` counters are process-global,
//! so every test that injects serializes on a local mutex.

use std::sync::{mpsc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use sem_mesh::generators::box2d;
use sem_ns::convection::oifs_substeps;
use sem_ns::diagnostics::{cfl, kinetic_energy};
use sem_ns::{
    ConvectionScheme, FaultPlan, NsConfig, NsSolver, RecoveryPolicy, RecoveryStage, StepFailure,
    StepStats,
};
use sem_ops::SemOps;
use sem_solvers::cg::CgBreakdown;

fn lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The metrics-determinism Taylor–Green workload with a fault plan and
/// a recovery policy bolted on.
fn taylor_green(spec: &str, recovery: RecoveryPolicy) -> NsSolver {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mesh = box2d(3, 3, [0.0, two_pi], [0.0, two_pi], true, true);
    let ops = SemOps::new(mesh, 6);
    let cfg = NsConfig {
        dt: 2e-3,
        nu: 0.01,
        convection: ConvectionScheme::Ext,
        pressure_lmax: 8,
        faults: if spec.is_empty() {
            None
        } else {
            Some(FaultPlan::parse(spec).expect("test fault spec must parse"))
        },
        recovery,
        ..Default::default()
    };
    let mut s = NsSolver::new(ops, cfg);
    s.set_velocity(|x, y, _| [x.sin() * y.cos(), -x.cos() * y.sin(), 0.0]);
    s
}

/// The same vortex under OIFS at step size `dt` (CFL ≈ 5.6·Δt).
fn taylor_green_oifs(spec: &str, recovery: RecoveryPolicy, dt: f64) -> NsSolver {
    let mut s = taylor_green(spec, recovery);
    s.cfg.convection = ConvectionScheme::Oifs;
    s.cfg.dt = dt;
    s
}

fn run(s: &mut NsSolver, steps: usize) -> Vec<StepStats> {
    (0..steps)
        .map(|_| s.step().expect("step should recover"))
        .collect()
}

fn faults_injected_since(c0: &sem_obs::counters::CounterSnapshot) -> u64 {
    sem_obs::counters::snapshot()
        .delta(c0)
        .get(sem_obs::Counter::FaultsInjected)
}

fn assert_healthy(s: &NsSolver) {
    for (c, comp) in s.vel.iter().enumerate() {
        assert!(
            comp.iter().all(|v| v.is_finite()),
            "velocity component {c} non-finite after recovery"
        );
    }
    assert!(s.pressure.iter().all(|v| v.is_finite()));
    assert!(kinetic_energy(&s.ops, &s.vel).is_finite());
}

#[test]
fn field_nan_fault_fires_and_recovers_at_stage_one() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let c0 = sem_obs::counters::snapshot();
    let mut s = taylor_green("nan:u@3", RecoveryPolicy::enabled());
    let stats = run(&mut s, 5);
    assert_eq!(
        faults_injected_since(&c0),
        1,
        "exactly one NaN should have been injected"
    );
    for (i, st) in stats.iter().enumerate() {
        let want = if i == 2 { 1 } else { 0 };
        assert_eq!(st.recoveries, want, "step {} recoveries", i + 1);
    }
    let trail = &stats[2].recovery_trail;
    assert_eq!(trail.len(), 1);
    assert_eq!(trail[0].stage, Some(RecoveryStage::ClearProjection));
    assert_healthy(&s);
}

#[test]
fn field_inf_fault_fires_and_recovers_at_stage_one() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let c0 = sem_obs::counters::snapshot();
    let mut s = taylor_green("inf:v@2;seed=7", RecoveryPolicy::enabled());
    let stats = run(&mut s, 4);
    assert_eq!(faults_injected_since(&c0), 1);
    assert_eq!(stats[1].recoveries, 1);
    assert_eq!(
        stats[1].recovery_trail[0].stage,
        Some(RecoveryStage::ClearProjection)
    );
    assert_healthy(&s);
}

#[test]
fn indefinite_operator_fault_recovers_and_reports_the_breakdown() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let c0 = sem_obs::counters::snapshot();
    let mut s = taylor_green("indef_op@2", RecoveryPolicy::enabled());
    let stats = run(&mut s, 3);
    assert_eq!(faults_injected_since(&c0), 1);
    assert_eq!(stats[1].recoveries, 1);
    let trail = &stats[1].recovery_trail;
    assert_eq!(trail[0].stage, Some(RecoveryStage::ClearProjection));
    match &trail[0].cause {
        StepFailure::Breakdown { breakdown, .. } => {
            assert!(matches!(breakdown, CgBreakdown::IndefiniteOperator(_)))
        }
        other => panic!("expected an operator breakdown, got {other:?}"),
    }
    assert_healthy(&s);
}

#[test]
fn repeated_operator_fault_escalates_to_dt_halving_and_restores_dt() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let c0 = sem_obs::counters::snapshot();
    // x3: the fault fires on attempts 0, 1, and 2 of step 2, so the
    // step only commits once the ladder reaches the Δt-halving rung.
    let mut s = taylor_green("indef_op@2x3", RecoveryPolicy::enabled());
    let dt0 = s.cfg.dt;
    let stats = run(&mut s, 2);
    assert_eq!(faults_injected_since(&c0), 3, "one firing per attempt");
    assert_eq!(stats[1].recoveries, 3);
    let stages: Vec<_> = stats[1].recovery_trail.iter().map(|a| a.stage).collect();
    assert_eq!(
        stages,
        vec![
            Some(RecoveryStage::ClearProjection),
            Some(RecoveryStage::JacobiFallback),
            Some(RecoveryStage::HalveDt(dt0 / 2.0)),
        ]
    );
    assert_eq!(s.cfg.dt, dt0 / 2.0, "committed at the halved dt");
    // The default policy restores the original Δt after 4 clean steps.
    run(&mut s, 4);
    assert_eq!(s.cfg.dt, dt0, "dt restored after the clean-step window");
    assert_healthy(&s);
}

#[test]
fn oifs_dt_halving_halves_the_sweep_and_restores_dt() {
    let _g = lock();
    sem_obs::set_enabled(true);
    // Δt = 0.14 runs the vortex at CFL ≈ 0.79: two RK4 substeps per Δt,
    // and one once the ladder halves Δt.
    let mut s = taylor_green_oifs("indef_op@2x3", RecoveryPolicy::enabled(), 0.14);
    let dt0 = s.cfg.dt;
    let first = run(&mut s, 1).remove(0);
    assert_eq!(first.oifs_substeps, 2, "CFL {}", first.cfl);
    // Step 2's first attempt sizes its sweep from the entry state.
    let entry_cfl = cfl(&s.ops, &s.vel, dt0);
    assert!((0.5..1.0).contains(&entry_cfl), "CFL {entry_cfl}");
    assert_eq!(oifs_substeps(entry_cfl), 2);
    let second = run(&mut s, 1).remove(0);
    let stages: Vec<_> = second.recovery_trail.iter().map(|a| a.stage).collect();
    assert_eq!(
        stages,
        vec![
            Some(RecoveryStage::ClearProjection),
            Some(RecoveryStage::JacobiFallback),
            Some(RecoveryStage::HalveDt(dt0 / 2.0)),
        ]
    );
    assert_eq!(s.cfg.dt, dt0 / 2.0, "committed at the halved dt");
    assert_eq!(second.oifs_substeps, 1, "CFL {}", second.cfl);
    assert!((second.cfl - entry_cfl / 2.0).abs() <= 1e-12 * entry_cfl);
    let window = run(&mut s, 4);
    assert!(window.iter().all(|st| st.oifs_substeps == 1));
    assert_eq!(s.cfg.dt, dt0, "dt restored after the clean-step window");
    let restored = run(&mut s, 1).remove(0);
    assert_eq!(restored.oifs_substeps, 2, "the full Δt sizes 2 again");
    assert_healthy(&s);
}

#[test]
fn oifs_step_with_an_infinite_velocity_node_fails_instead_of_hanging() {
    let _g = lock();
    sem_obs::set_enabled(true);
    // An infinite node reads as CFL +∞; the sweep runs its capped
    // substep count and the step reports the poisoned fields. The
    // deadline only detects a hang.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut s = taylor_green_oifs("inf:u@2", RecoveryPolicy::default(), 2e-3);
        s.step().expect("step 1 has no fault");
        tx.send(s.step().map(|st| st.step)).unwrap();
    });
    let err = rx
        .recv_timeout(Duration::from_secs(300))
        .expect("the step hung")
        .expect_err("an infinite velocity node with recovery off");
    assert_eq!(err.step, 2);
    assert_eq!(err.trail.len(), 1);
    assert!(err.trail[0].stage.is_none(), "no retry may have run");
    assert!(matches!(
        err.cause,
        StepFailure::Breakdown { .. } | StepFailure::FieldHealth(_)
    ));
}

#[test]
fn indefinite_preconditioner_fault_escalates_to_jacobi() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let c0 = sem_obs::counters::snapshot();
    // x2: attempts 0 and 1 both see the poisoned preconditioner; the
    // Jacobi-fallback retry is the first one that can commit.
    let mut s = taylor_green("indef_pc@2x2", RecoveryPolicy::enabled());
    let stats = run(&mut s, 3);
    assert_eq!(faults_injected_since(&c0), 2);
    assert_eq!(stats[1].recoveries, 2);
    let trail = &stats[1].recovery_trail;
    assert_eq!(trail[0].stage, Some(RecoveryStage::ClearProjection));
    assert_eq!(trail[1].stage, Some(RecoveryStage::JacobiFallback));
    match &trail[0].cause {
        StepFailure::Breakdown { breakdown, .. } => {
            assert!(matches!(breakdown, CgBreakdown::IndefinitePreconditioner(_)))
        }
        other => panic!("expected a preconditioner breakdown, got {other:?}"),
    }
    assert_healthy(&s);
}

#[test]
fn projection_corruption_manifests_next_step_and_is_cleared() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let c0 = sem_obs::counters::snapshot();
    // The corruption poisons the successive-RHS basis *after* step 2's
    // solve commits; it is step 3's projected initial guess that goes
    // NaN — stage 1 (clear the projection history) is the designed cure.
    let mut s = taylor_green("proj@2", RecoveryPolicy::enabled());
    let stats = run(&mut s, 5);
    assert_eq!(faults_injected_since(&c0), 1);
    assert_eq!(stats[1].recoveries, 0, "the corrupted step itself commits");
    assert_eq!(stats[2].recoveries, 1, "the following step hits the corruption");
    assert_eq!(
        stats[2].recovery_trail[0].stage,
        Some(RecoveryStage::ClearProjection)
    );
    assert_healthy(&s);
}

#[test]
fn gs_drop_is_detected_via_the_letterbox_and_recovered() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let c0 = sem_obs::counters::snapshot();
    let mut s = taylor_green("gs@2", RecoveryPolicy::enabled());
    let stats = run(&mut s, 3);
    assert_eq!(faults_injected_since(&c0), 1, "the drop must have fired");
    assert_eq!(stats[1].recoveries, 1);
    let trail = &stats[1].recovery_trail;
    // The inconsistent post-drop fields usually trip a CG breakdown or
    // the health scan on their own; the sticky fired flag
    // (`ExchangeDropped`) is the backstop for when the attempt survives
    // numerically. Any of the three is a correct detection.
    assert!(matches!(
        trail[0].cause,
        StepFailure::ExchangeDropped
            | StepFailure::Breakdown { .. }
            | StepFailure::FieldHealth(_)
    ));
    assert_eq!(trail[0].stage, Some(RecoveryStage::ClearProjection));
    assert_healthy(&s);
}

#[test]
fn scalar_targeted_fault_poisons_the_passive_scalar_and_recovers() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let c0 = sem_obs::counters::snapshot();
    // No Boussinesq coupling here, so `nan:t` must route to the first
    // registered passive scalar — the species Helmholtz solve is what
    // sees the poison.
    let mut s = taylor_green("nan:t@3", RecoveryPolicy::enabled());
    s.add_scalar("dye", 1e-3, |x, _, _| x.sin());
    let stats = run(&mut s, 5);
    assert_eq!(faults_injected_since(&c0), 1, "the scalar NaN must fire");
    assert_eq!(stats[2].recoveries, 1);
    assert_eq!(
        stats[2].recovery_trail[0].stage,
        Some(RecoveryStage::ClearProjection)
    );
    assert!(
        s.scalar(0).iter().all(|v| v.is_finite()),
        "passive scalar non-finite after recovery"
    );
    assert_healthy(&s);
}

#[test]
fn scalar_targeted_fault_without_any_scalar_is_a_noop() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let c0 = sem_obs::counters::snapshot();
    // Neither Boussinesq nor a passive scalar: the plan has nothing to
    // poison; the run must proceed clean (with a stderr notice).
    let mut s = taylor_green("nan:t@2", RecoveryPolicy::enabled());
    let stats = run(&mut s, 3);
    assert_eq!(faults_injected_since(&c0), 0);
    assert!(stats.iter().all(|st| st.recoveries == 0));
    assert_healthy(&s);
}

#[test]
fn coarse_rhs_corruption_breaks_the_preconditioner_and_recovers() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let c0 = sem_obs::counters::snapshot();
    // `coarse` poisons the restricted coarse-grid RHS inside the additive
    // Schwarz preconditioner: the NaN rides through the Cholesky solve
    // into the preconditioned residual and trips CG's r·z guard.
    let mut s = taylor_green("coarse@2", RecoveryPolicy::enabled());
    let stats = run(&mut s, 4);
    assert_eq!(faults_injected_since(&c0), 1, "the coarse fault must fire");
    assert_eq!(stats[1].recoveries, 1);
    let trail = &stats[1].recovery_trail;
    assert_eq!(trail[0].stage, Some(RecoveryStage::ClearProjection));
    assert!(matches!(
        trail[0].cause,
        StepFailure::Breakdown { .. } | StepFailure::FieldHealth(_)
    ));
    assert_healthy(&s);
}

#[test]
fn recovery_disabled_returns_structured_error_and_rolls_back() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let mut s = taylor_green("nan:u@2x99", RecoveryPolicy::default());
    assert!(!s.cfg.recovery.enabled);
    s.step().expect("step 1 has no fault");
    let vel0 = s.vel.clone();
    let p0 = s.pressure.clone();
    let t0 = s.time;
    let err = s.step().expect_err("injected fault with recovery off");
    assert_eq!(err.step, 2);
    assert_eq!(err.trail.len(), 1);
    assert!(err.trail[0].stage.is_none(), "no retry may have run");
    assert!(matches!(
        err.cause,
        StepFailure::Breakdown { .. } | StepFailure::FieldHealth(_)
    ));
    // The Err contract: the solver is at the pre-step state, bitwise.
    assert_eq!(s.time, t0);
    for (a, b) in s.vel.iter().zip(vel0.iter()) {
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    for (x, y) in s.pressure.iter().zip(p0.iter()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn ladder_exhaustion_reports_the_full_trail() {
    let _g = lock();
    sem_obs::set_enabled(true);
    // x99 out-fires every rung: clear, jacobi, two Δt halvings, then
    // give up with the whole history attached.
    let mut s = taylor_green("indef_op@1x99", RecoveryPolicy::enabled());
    let dt0 = s.cfg.dt;
    let err = s.step().expect_err("persistent fault must exhaust the ladder");
    let stages: Vec<_> = err.trail.iter().map(|a| a.stage).collect();
    assert_eq!(
        stages,
        vec![
            Some(RecoveryStage::ClearProjection),
            Some(RecoveryStage::JacobiFallback),
            Some(RecoveryStage::HalveDt(dt0 / 2.0)),
            Some(RecoveryStage::HalveDt(dt0 / 4.0)),
            None,
        ]
    );
    assert_eq!(s.cfg.dt, dt0, "dt rolled back with the state");
    assert_eq!(s.time, 0.0);
}

#[test]
fn recovered_run_is_bitwise_deterministic_across_thread_counts() {
    let _g = lock();
    sem_obs::set_enabled(true);
    let run_faulted = || {
        let mut s = taylor_green("nan:u@3;indef_op@4x2;gs@5", RecoveryPolicy::enabled());
        let stats = run(&mut s, 6);
        let recoveries: usize = stats.iter().map(|st| st.recoveries).sum();
        assert_eq!(recoveries, 4, "1 (nan) + 2 (indef_op x2) + 1 (gs)");
        (s.vel.clone(), s.pressure.clone())
    };
    let (vel1, p1) = sem_comm::par::with_threads(1, run_faulted);
    for t in [2usize, 4] {
        let (velt, pt) = sem_comm::par::with_threads(t, run_faulted);
        for (c, (a, b)) in vel1.iter().zip(velt.iter()).enumerate() {
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{t} threads: velocity component {c} node {i} diverged"
                );
            }
        }
        for (i, (x, y)) in p1.iter().zip(pt.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{t} threads: pressure node {i}");
        }
    }
}

#[test]
fn unfaulted_guarded_run_matches_unguarded_run_bitwise() {
    let _g = lock();
    // Recovery on, no faults: the snapshot machinery must observe, not
    // perturb — same bits as the plain fast path.
    let mut plain = taylor_green("", RecoveryPolicy::default());
    let mut guarded = taylor_green("", RecoveryPolicy::enabled());
    for _ in 0..5 {
        plain.step().unwrap();
        let st = guarded.step().unwrap();
        assert_eq!(st.recoveries, 0);
    }
    for (a, b) in plain.vel.iter().zip(guarded.vel.iter()) {
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    for (x, y) in plain.pressure.iter().zip(guarded.pressure.iter()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
