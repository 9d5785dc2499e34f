//! Checkpoint/restart contract: resuming from an on-disk checkpoint is
//! bitwise-identical to never having stopped, the file format
//! round-trips exactly, the written bytes are pinned across host thread
//! counts, and mismatched solvers are rejected instead of corrupted.

use std::path::PathBuf;

use sem_mesh::generators::box2d;
use sem_ns::checkpoint::Checkpoint;
use sem_ns::config::Boussinesq;
use sem_ns::{ConvectionScheme, NsConfig, NsSolver};
use sem_ops::SemOps;
use sem_solvers::cg::CgOptions;

fn taylor_green(order: usize) -> NsSolver {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mesh = box2d(3, 3, [0.0, two_pi], [0.0, two_pi], true, true);
    let ops = SemOps::new(mesh, order);
    let cfg = NsConfig {
        dt: 2e-3,
        nu: 0.01,
        torder: 3,
        convection: ConvectionScheme::Ext,
        pressure_lmax: 8,
        pressure_cg: CgOptions {
            tol: 1e-9,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut s = NsSolver::new(ops, cfg);
    s.set_velocity(|x, y, _| [x.sin() * y.cos(), -x.cos() * y.sin(), 0.0]);
    s
}

/// The same vortex under OIFS BDF2 with a buoyant temperature and one
/// dye: every field rides the characteristics sweep.
fn taylor_green_oifs_boussinesq_dye(order: usize) -> NsSolver {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mesh = box2d(3, 3, [0.0, two_pi], [0.0, two_pi], true, true);
    let ops = SemOps::new(mesh, order);
    let cfg = NsConfig {
        dt: 2e-3,
        nu: 0.01,
        torder: 2,
        convection: ConvectionScheme::Oifs,
        boussinesq: Some(Boussinesq {
            g_beta: [0.0, 0.5, 0.0],
            kappa: 0.02,
        }),
        pressure_lmax: 8,
        pressure_cg: CgOptions {
            tol: 1e-9,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut s = NsSolver::new(ops, cfg);
    s.set_velocity(|x, y, _| [x.sin() * y.cos(), -x.cos() * y.sin(), 0.0]);
    s.set_temperature(|x, y, _| 0.5 * x.cos() * y.sin());
    s.add_scalar("dye", 1e-3, |x, y, _| x.sin() * y.cos());
    s
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("terasem_ckpt_{}_{name}", std::process::id()))
}

fn assert_fields_bitwise(a: &NsSolver, b: &NsSolver, label: &str) {
    assert_eq!(a.time.to_bits(), b.time.to_bits(), "{label}: time");
    for (c, (x, y)) in a.vel.iter().zip(b.vel.iter()).enumerate() {
        for (i, (p, q)) in x.iter().zip(y.iter()).enumerate() {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{label}: velocity component {c} node {i}: {p:e} vs {q:e}"
            );
        }
    }
    for (i, (p, q)) in a.pressure.iter().zip(b.pressure.iter()).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "{label}: pressure node {i}");
    }
    let scalars = |s: &NsSolver| -> Vec<u64> {
        let temp = s.temp.iter().flatten();
        let species = (0..s.num_scalars()).flat_map(|k| s.scalar(k));
        temp.chain(species).map(|v| v.to_bits()).collect()
    };
    assert!(scalars(a) == scalars(b), "{label}: temperature or species");
}

/// The headline contract: run 4 steps, checkpoint, run 4 more; a fresh
/// solver resumed from the file and stepped 4 times must match the
/// uninterrupted run bit for bit (multistep history, projection basis,
/// and Δt all ride along in the checkpoint).
#[test]
fn resume_is_bitwise_identical_to_uninterrupted_run() {
    let path = tmp("resume");
    let mut full = taylor_green(6);
    for _ in 0..4 {
        full.step().unwrap();
    }
    full.write_checkpoint(&path).unwrap();
    for _ in 0..4 {
        full.step().unwrap();
    }

    let mut resumed = taylor_green(6);
    resumed.read_checkpoint(&path).unwrap();
    assert_eq!(resumed.step_index, 4);
    for _ in 0..4 {
        resumed.step().unwrap();
    }
    assert_eq!(resumed.step_index, full.step_index);
    assert_fields_bitwise(&full, &resumed, "resumed vs uninterrupted");
    let _ = std::fs::remove_file(&path);
}

/// Thread-count pinning: the checkpoint bytes written under different
/// `TERASEM_THREADS`-style overrides are identical, and a resume at any
/// thread count reproduces the single-thread continuation bitwise.
#[test]
fn checkpoint_and_resume_are_pinned_across_thread_counts() {
    pinned_across_thread_counts("ext", taylor_green);
    pinned_across_thread_counts("oifs_boussinesq_dye", taylor_green_oifs_boussinesq_dye);
}

fn pinned_across_thread_counts(input: &str, build: fn(usize) -> NsSolver) {
    let reference_path = tmp(&format!("{input}_threads_ref"));
    let full = sem_comm::par::with_threads(1, || {
        let mut s = build(6);
        for _ in 0..3 {
            s.step().unwrap();
        }
        s.write_checkpoint(&reference_path).unwrap();
        for _ in 0..3 {
            s.step().unwrap();
        }
        s
    });
    let reference_bytes = std::fs::read(&reference_path).unwrap();

    for t in [2usize, 4] {
        let path = tmp(&format!("{input}_threads_{t}"));
        let resumed = sem_comm::par::with_threads(t, || {
            let mut s = build(6);
            for _ in 0..3 {
                s.step().unwrap();
            }
            s.write_checkpoint(&path).unwrap();
            let mut r = build(6);
            r.read_checkpoint(&reference_path).unwrap();
            for _ in 0..3 {
                r.step().unwrap();
            }
            r
        });
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reference_bytes,
            "{input}: {t}-thread checkpoint bytes differ from the 1-thread file"
        );
        assert_fields_bitwise(&full, &resumed, &format!("{input}: {t}-thread resume"));
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&reference_path);
}

/// The serialized form loads back to an equal in-memory checkpoint
/// (`Checkpoint` is `PartialEq`; f64 equality here is exact because the
/// codec is bit-preserving).
#[test]
fn file_round_trip_preserves_every_field() {
    let path = tmp("roundtrip");
    let mut s = taylor_green(6);
    for _ in 0..5 {
        s.step().unwrap();
    }
    let ck = s.checkpoint();
    assert!(!ck.levels.is_empty(), "history must be exercised");
    assert!(!ck.projection.is_empty(), "projection basis must be exercised");
    ck.save(&path).unwrap();
    let loaded = Checkpoint::load(&path).unwrap();
    assert_eq!(ck, loaded);
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint from a differently built solver is rejected with a
/// structured error and the target solver is left untouched.
#[test]
fn mismatched_solver_is_rejected_unmodified() {
    let path = tmp("mismatch");
    let mut s6 = taylor_green(6);
    for _ in 0..2 {
        s6.step().unwrap();
    }
    s6.write_checkpoint(&path).unwrap();

    let mut s5 = taylor_green(5);
    let err = s5
        .restore_checkpoint(&Checkpoint::load(&path).unwrap())
        .expect_err("order-5 solver must reject an order-6 checkpoint");
    assert!(err.contains("mismatch"), "unexpected error: {err}");
    assert_eq!(s5.time, 0.0, "rejected restore must not modify the solver");
    assert_eq!(s5.step_index, 0);

    let io_err = s5.read_checkpoint(&path).unwrap_err();
    assert_eq!(io_err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_file(&path);
}

/// Corrupt or missing files surface as errors, never panics.
#[test]
fn unreadable_checkpoint_files_are_io_errors() {
    let mut s = taylor_green(6);
    assert!(s.read_checkpoint(tmp("does_not_exist")).is_err());

    let path = tmp("garbage");
    std::fs::write(&path, b"not a checkpoint at all").unwrap();
    assert!(s.read_checkpoint(&path).is_err());
    assert_eq!(s.step_index, 0);
    let _ = std::fs::remove_file(&path);
}
