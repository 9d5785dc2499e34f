//! Property-based tests of the mesh substrate: geometric invariants
//! (measure, Jacobian positivity) under random box shapes and orders,
//! numbering counts, and partition balance.
//!
//! Properties run as explicit seeded loops over [`sem_linalg::rng`]'s
//! SplitMix64 generator; a failure message prints the exact case seed.

use sem_linalg::rng::forall;
use sem_mesh::generators::{box2d, box3d, AnnulusParams};
use sem_mesh::partition::{part_sizes, partition_rcb, partition_rsb};
use sem_mesh::{Geometry, GlobalNumbering};

const CASES: usize = 100;

/// Total measure equals the analytic area for arbitrary boxes,
/// element counts, and polynomial orders.
#[test]
fn box2d_measure() {
    forall("box2d_measure", 0x3e50_0001, CASES, |rng| {
        let (kx, ky) = (rng.range(1, 6), rng.range(1, 6));
        let n = rng.range(2, 9);
        let (lx, ly) = (rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0));
        let mesh = box2d(kx, ky, [0.0, lx], [-ly, ly], false, false);
        let geo = Geometry::new(&mesh, n);
        assert!(geo.jac.iter().all(|&j| j > 0.0));
        let want = lx * 2.0 * ly;
        assert!((geo.total_measure() - want).abs() < 1e-9 * want);
    });
}

/// 3D volume and global dof counts.
#[test]
fn box3d_measure_and_dofs() {
    forall("box3d_measure_and_dofs", 0x3e50_0002, 40, |rng| {
        let (kx, ky, kz) = (rng.range(1, 4), rng.range(1, 4), rng.range(1, 4));
        let n = rng.range(2, 5);
        let mesh = box3d(kx, ky, kz, [0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [false; 3]);
        let geo = Geometry::new(&mesh, n);
        assert!((geo.total_measure() - 6.0).abs() < 1e-9);
        let num = GlobalNumbering::new(&mesh, &geo);
        let want = (kx * n + 1) * (ky * n + 1) * (kz * n + 1);
        assert_eq!(num.n_global, want);
        // Multiplicity-weighted count equals the local total.
        let total: usize = num.multiplicity.iter().sum();
        assert_eq!(total, mesh.num_elems() * geo.npts);
    });
}

/// Periodic numbering removes exactly one plane of dofs per axis.
#[test]
fn periodic_dof_counts() {
    forall("periodic_dof_counts", 0x3e50_0003, CASES, |rng| {
        let (kx, ky) = (rng.range(2, 6), rng.range(2, 6));
        let n = rng.range(2, 6);
        let m_none = box2d(kx, ky, [0.0, 1.0], [0.0, 1.0], false, false);
        let m_px = box2d(kx, ky, [0.0, 1.0], [0.0, 1.0], true, false);
        let g_none = Geometry::new(&m_none, n);
        let g_px = Geometry::new(&m_px, n);
        let n_none = GlobalNumbering::new(&m_none, &g_none).n_global;
        let n_px = GlobalNumbering::new(&m_px, &g_px).n_global;
        assert_eq!(n_none, (kx * n + 1) * (ky * n + 1));
        assert_eq!(n_px, (kx * n) * (ky * n + 1));
    });
}

/// Partitions are balanced (sizes differ by ≤ ceiling) and complete.
#[test]
fn partitions_balanced() {
    forall("partitions_balanced", 0x3e50_0005, CASES, |rng| {
        let (kx, ky) = (rng.range(2, 7), rng.range(2, 7));
        let mesh = box2d(kx, ky, [0.0, 1.0], [0.0, 1.0], false, false);
        let k = mesh.num_elems();
        let p = rng.range(1, 9.min(k) + 1);
        for part in [partition_rsb(&mesh, p), partition_rcb(&mesh, p)] {
            let sizes = part_sizes(&part, p);
            assert_eq!(sizes.iter().sum::<usize>(), k);
            let lo = *sizes.iter().min().unwrap();
            let hi = *sizes.iter().max().unwrap();
            assert!(hi - lo <= k.div_ceil(p), "sizes {sizes:?}");
            assert!(lo > 0, "empty part: {sizes:?}");
        }
    });
}

/// Annulus radial grading: endpoints exact, strictly increasing, and
/// refinement squares into the same interval.
#[test]
fn annulus_grading() {
    forall("annulus_grading", 0x3e50_0006, CASES, |rng| {
        let n_r = rng.range(1, 7);
        let growth = rng.uniform(0.5, 3.0);
        let ri = rng.uniform(0.1, 2.0);
        let span = rng.uniform(0.5, 10.0);
        let p = AnnulusParams {
            n_theta: 8,
            n_r,
            r_inner: ri,
            r_outer: ri + span,
            growth,
        };
        for params in [p, p.refined()] {
            let radii = params.radii();
            assert_eq!(radii.len(), params.n_r + 1);
            assert!((radii[0] - ri).abs() < 1e-12);
            assert!((radii.last().unwrap() - (ri + span)).abs() < 1e-9);
            for w in radii.windows(2) {
                assert!(w[1] > w[0]);
            }
        }
    });
}
