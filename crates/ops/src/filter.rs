//! Element-local tensor application of the stabilization filter (§2).
//!
//! The 1D filter matrix `F_α` (from [`sem_poly::filter`]) is applied
//! tensorially, `u ← (F ⊗ F (⊗ F)) u`, once per timestep on each velocity
//! component. The cost is that of one interpolation per element —
//! "inexpensive local interpolation" in the paper's words.

use crate::space::SemOps;
use sem_comm::par;
use sem_linalg::tensor::{kron2_apply, kron3_apply};
use sem_linalg::Matrix;

/// Precomputed tensor filter for one discretization.
pub struct ElementFilter {
    f: Matrix,
    ft: Matrix,
    /// Filter strength α used to build this filter.
    pub alpha: f64,
}

impl ElementFilter {
    /// Build the filter of strength `alpha` for `ops`, using the
    /// **interpolation-based** construction `(1−α)I + αΠ_{N−1}` of ref
    /// \[11\]. This form preserves element-boundary values exactly (its
    /// endpoint rows are unit vectors), so filtering keeps fields in the
    /// C⁰ space — pure modal truncation would introduce interface jumps
    /// every step and destabilize exactly the flows the filter is meant
    /// to save.
    pub fn new(ops: &SemOps, alpha: f64) -> Self {
        let f = sem_poly::filter::filter_matrix_interp(ops.geo.nx, alpha);
        let ft = f.transpose();
        ElementFilter { f, ft, alpha }
    }

    /// Apply the filter in place to a velocity-space field.
    pub fn apply(&self, ops: &SemOps, u: &mut [f64]) {
        assert_eq!(u.len(), ops.n_velocity(), "filter: u length");
        let npts = ops.geo.npts;
        let dim = ops.geo.dim;
        par::par_chunks_init(
            u,
            npts,
            || (vec![0.0; npts], vec![0.0; 2 * npts]),
            |(out, work), _e, ue| {
                if dim == 2 {
                    kron2_apply(&self.f, &self.ft, ue, out, work);
                } else {
                    kron3_apply(&self.f, &self.f, &self.ft, ue, out, work);
                }
                ue.copy_from_slice(out);
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::eval_on_nodes;
    use sem_mesh::generators::{box2d, box3d};

    fn ops2d(n: usize) -> SemOps {
        SemOps::new(box2d(2, 2, [0.0, 1.0], [0.0, 1.0], false, false), n)
    }

    #[test]
    fn alpha_zero_is_identity() {
        let ops = ops2d(6);
        let filt = ElementFilter::new(&ops, 0.0);
        let mut u = eval_on_nodes(&ops, |x, y, _| (3.0 * x).sin() + y);
        let orig = u.clone();
        filt.apply(&ops, &mut u);
        for (g, w) in u.iter().zip(orig.iter()) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn preserves_low_degree_polynomials() {
        let ops = ops2d(6);
        let filt = ElementFilter::new(&ops, 0.5);
        // Degree ≤ N−1 in each variable: untouched.
        let mut u = eval_on_nodes(&ops, |x, y, _| x.powi(5) * y.powi(4) + x);
        let orig = u.clone();
        filt.apply(&ops, &mut u);
        for (g, w) in u.iter().zip(orig.iter()) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn damps_oscillatory_content() {
        let ops = ops2d(8);
        let filt = ElementFilter::new(&ops, 1.0);
        // A rough field loses energy under full projection. Modal
        // truncation is orthogonal in the GLL-weighted inner product, so
        // measure with the discrete L² norm.
        let mut u = eval_on_nodes(&ops, |x, y, _| (40.0 * x).sin() * (35.0 * y).cos());
        let e0 = crate::fields::norm_l2(&ops, &u);
        filt.apply(&ops, &mut u);
        let e1 = crate::fields::norm_l2(&ops, &u);
        assert!(e1 < e0, "energy {e0} -> {e1}");
    }

    #[test]
    fn filter_3d_preserves_constants() {
        let mesh = box3d(1, 1, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [false; 3]);
        let ops = SemOps::new(mesh, 4);
        let filt = ElementFilter::new(&ops, 0.3);
        let mut u = vec![2.5; ops.n_velocity()];
        filt.apply(&ops, &mut u);
        for &v in &u {
            assert!((v - 2.5).abs() < 1e-11);
        }
    }

    #[test]
    fn filter_preserves_c0_continuity() {
        // The interpolation-based construction keeps element-face values
        // unchanged up to the tangential filter, so shared nodes stay
        // consistent: apply to a consistent field and check all copies of
        // each global dof still agree.
        let ops = ops2d(7);
        let filt = ElementFilter::new(&ops, 1.0);
        let mut u = eval_on_nodes(&ops, |x, y, _| (5.0 * x).sin() * (4.0 * y).cos() + x * y);
        filt.apply(&ops, &mut u);
        for (a, &ida) in ops.num.ids.iter().enumerate() {
            for (b, &idb) in ops.num.ids.iter().enumerate().skip(a + 1) {
                if ida == idb {
                    assert!(
                        (u[a] - u[b]).abs() < 1e-10,
                        "filter broke continuity at shared dof {ida}: {} vs {}",
                        u[a],
                        u[b]
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_filtering_converges_not_to_zero() {
        // Partial filtering is contractive only on the top mode; smooth
        // content survives arbitrarily many applications.
        let ops = ops2d(6);
        let filt = ElementFilter::new(&ops, 0.3);
        let mut u = eval_on_nodes(&ops, |x, _, _| x);
        for _ in 0..50 {
            filt.apply(&ops, &mut u);
        }
        // u = x is degree 1 ⟹ exactly preserved.
        for (i, &v) in u.iter().enumerate() {
            assert!((v - ops.geo.x[i]).abs() < 1e-8);
        }
    }
}
