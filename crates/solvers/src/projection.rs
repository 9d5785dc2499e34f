//! Successive right-hand-side projection (Fischer 1998; §5, ref \[7\]).
//!
//! Unsteady flows solve a sequence of closely related systems
//! `E pⁿ = gⁿ`. Before iterating, project the answer onto the span of up
//! to `L ≈ 25` previous solutions — the best approximation in the
//! `E`-norm — and solve only for the (small) perturbation:
//!
//! `p̄ⁿ = arg min_{q ∈ V} ‖p − q‖_E,  V = span{pⁿ⁻¹, …, pⁿ⁻ˡ}`
//!
//! The perturbation magnitude is `O(Δtˡ) + O(ε)`, and the paper's Fig. 4
//! shows a 2.5–5× iteration reduction with the pre-iteration residual
//! down two-and-a-half orders of magnitude. The implementation keeps an
//! `E`-orthonormal basis with stored `E`-images, so the whole procedure
//! costs two operator applications per timestep (one to form the
//! perturbation residual, one to orthonormalize the update).

/// Relative dependence tolerance for [`RhsProjection::update`]: a
/// candidate direction that retains less than this fraction of its
/// E-norm-squared after Gram–Schmidt (E-norm ratio `1e-6`) is treated as
/// numerically linearly dependent on the stored basis and dropped.
///
/// The previous implicit threshold (`1e-16` on the squared norm) only
/// rejected directions that had lost *all* significant digits; a
/// near-duplicate solution that kept `1e-14` of its E-energy slipped
/// through, got normalized by a factor of `~1e7`, and filled the history
/// with amplified roundoff — visibly degrading subsequent projections.
pub const DEPENDENCE_RTOL: f64 = 1e-12;

/// E-orthonormal history of previous solutions.
#[derive(Clone)]
pub struct RhsProjection {
    lmax: usize,
    /// Pairs `(x_i, E x_i)` with `x_iᵀ E x_j = δ_ij`.
    basis: Vec<(Vec<f64>, Vec<f64>)>,
    n: usize,
}

impl RhsProjection {
    /// History capacity `L` (`lmax = 0` disables projection entirely),
    /// with the [`DEPENDENCE_RTOL`] dependence threshold.
    pub fn new(n: usize, lmax: usize) -> Self {
        RhsProjection {
            lmax,
            basis: Vec::new(),
            n,
        }
    }

    /// Current history depth `l`.
    pub fn len(&self) -> usize {
        self.basis.len()
    }

    /// True if no history is stored yet.
    pub fn is_empty(&self) -> bool {
        self.basis.is_empty()
    }

    /// Project the new right-hand side: returns the best initial guess
    /// `x̄ = Σ (x_iᵀ b) x_i` and overwrites `b` with the perturbation
    /// residual `b − E x̄` (no operator application needed — `E x_i` is
    /// stored).
    pub fn project(&self, b: &mut [f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "project: rhs length");
        let mut xbar = vec![0.0; self.n];
        for (x, ex) in &self.basis {
            let alpha: f64 = x.iter().zip(b.iter()).map(|(a, c)| a * c).sum();
            for i in 0..self.n {
                xbar[i] += alpha * x[i];
            }
            // Deferred: accumulate E x̄ increment immediately.
            for i in 0..self.n {
                b[i] -= alpha * ex[i];
            }
        }
        xbar
    }

    /// Fold the newly computed total solution `x` (with its image
    /// `ex = E x`) into the basis: Gram–Schmidt against the stored
    /// directions in the `E` inner product, normalize, append. When the
    /// history is full, it is restarted from the current solution alone
    /// (the standard restart policy of ref \[7\]).
    pub fn update(&mut self, x: &[f64], ex: &[f64]) {
        assert_eq!(x.len(), self.n, "update: x length");
        assert_eq!(ex.len(), self.n, "update: ex length");
        if self.lmax == 0 {
            return;
        }
        if self.basis.len() >= self.lmax {
            self.basis.clear();
        }
        let norm0: f64 = x.iter().zip(ex.iter()).map(|(a, c)| a * c).sum();
        if !(norm0 > 0.0) {
            // Zero, numerically indefinite, or NaN update.
            sem_obs::counters::add(sem_obs::Counter::ProjectionDropped, 1);
            return;
        }
        let mut xn = x.to_vec();
        let mut exn = ex.to_vec();
        // Modified Gram–Schmidt in the E inner product:
        // α_i = x_iᵀ E x_new = (E x_i)ᵀ x_new (symmetry).
        for (xi, exi) in &self.basis {
            let alpha: f64 = exi.iter().zip(xn.iter()).map(|(a, c)| a * c).sum();
            for i in 0..self.n {
                xn[i] -= alpha * xi[i];
                exn[i] -= alpha * exi[i];
            }
        }
        let norm2: f64 = xn.iter().zip(exn.iter()).map(|(a, c)| a * c).sum();
        // Relative dependence test: a direction that lost (almost) all of
        // its E-energy to the existing basis is numerically dependent;
        // storing it (normalized by a huge factor) would fill the history
        // with roundoff noise.
        if !(norm2 > DEPENDENCE_RTOL * norm0) {
            sem_obs::counters::add(sem_obs::Counter::ProjectionDropped, 1);
            return;
        }
        let inv = 1.0 / norm2.sqrt();
        for i in 0..self.n {
            xn[i] *= inv;
            exn[i] *= inv;
        }
        self.basis.push((xn, exn));
    }

    /// Drop all history (e.g. when Δt or the operator changes).
    pub fn clear(&mut self) {
        self.basis.clear();
    }

    /// The stored E-orthonormal basis pairs `(x_i, E x_i)` (checkpoint
    /// serialization; the basis feeds CG initial guesses, so a
    /// bitwise-identical restart must carry it).
    pub fn basis(&self) -> &[(Vec<f64>, Vec<f64>)] {
        &self.basis
    }

    /// Replace the basis with stored pairs verbatim, skipping
    /// orthonormalization — for checkpoint restore and step rollback,
    /// where the pairs come from an already-orthonormal basis. Panics on
    /// length mismatch or capacity overflow.
    pub fn restore(&mut self, basis: &[(Vec<f64>, Vec<f64>)]) {
        assert!(basis.len() <= self.lmax, "restore: capacity");
        for (x, ex) in basis {
            assert_eq!(x.len(), self.n, "restore: x length");
            assert_eq!(ex.len(), self.n, "restore: ex length");
        }
        self.basis = basis.to_vec();
    }

    /// Fault-injection hook
    /// ([`sem_obs::fault::FaultSite::ProjectionUpdate`]): overwrite the
    /// most recently stored basis direction with NaN, bypassing the
    /// update guards — the next [`RhsProjection::project`] then poisons
    /// its initial guess, which the recovery ladder must detect and cure
    /// by clearing the history. Returns false when there is no stored
    /// basis to corrupt.
    pub fn corrupt_latest(&mut self) -> bool {
        match self.basis.last_mut() {
            Some((x, ex)) => {
                x.fill(f64::NAN);
                ex.fill(f64::NAN);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{pcg, CgOptions, Precond};
    use sem_linalg::Matrix;

    fn spd(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.4
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        })
    }

    fn dot(u: &[f64], v: &[f64]) -> f64 {
        u.iter().zip(v.iter()).map(|(a, b)| a * b).sum()
    }

    fn solve(a: &Matrix, b: &[f64], x0: Vec<f64>) -> (Vec<f64>, usize) {
        let mut x = x0;
        let res = pcg(
            &mut x,
            b,
            |p, ap| a.matvec_into(p, ap),
            Precond::Apply(&mut |r, z| z.copy_from_slice(r)),
            None,
            None,
            &CgOptions {
                tol: 1e-12,
                ..Default::default()
            },
        );
        assert!(res.converged);
        (x, res.iterations)
    }

    /// Drive a slowly varying sequence of RHS and verify iteration decay.
    #[test]
    fn projection_reduces_iterations_on_slowly_varying_sequence() {
        let n = 60;
        let a = spd(n);
        let mut proj = RhsProjection::new(n, 8);
        let rhs_at = |t: f64| -> Vec<f64> {
            (0..n)
                .map(|i| (i as f64 * 0.2 + 0.3 * t).sin() + 0.05 * (i as f64 * 0.7 + t).cos())
                .collect()
        };
        let mut iters = Vec::new();
        for step in 0..10 {
            let t = step as f64 * 0.01;
            let mut b = rhs_at(t);
            let xbar = proj.project(&mut b);
            let (dx, it) = solve(&a, &b, vec![0.0; n]);
            let x: Vec<f64> = xbar.iter().zip(dx.iter()).map(|(a, c)| a + c).collect();
            let ex = a.matvec(&x);
            // Verify the combined solution actually solves the original system.
            let orig = rhs_at(t);
            for (g, w) in ex.iter().zip(orig.iter()) {
                assert!((g - w).abs() < 1e-8, "step {step}");
            }
            proj.update(&x, &ex);
            iters.push(it);
        }
        // After history builds up, iterations should drop well below the
        // cold-start count. (The RHS family here spans a ~4-dimensional
        // space, so once the history captures it the perturbation solves
        // are nearly free.)
        let cold = iters[0];
        let warm = *iters.last().unwrap();
        assert!(
            warm * 2 < cold,
            "no projection benefit: cold {cold}, warm {warm} ({iters:?})"
        );
    }

    #[test]
    fn basis_is_e_orthonormal() {
        let n = 30;
        let a = spd(n);
        let mut proj = RhsProjection::new(n, 5);
        for s in 0..5 {
            // Genuinely independent directions (distinct frequencies).
            let x: Vec<f64> = (0..n)
                .map(|i| ((i as f64 + 1.0) * (s as f64 + 1.0) * 0.31).sin())
                .collect();
            let ex = a.matvec(&x);
            proj.update(&x, &ex);
        }
        assert_eq!(proj.len(), 5);
        for (i, (xi, _)) in proj.basis.iter().enumerate() {
            for (j, (_, exj)) in proj.basis.iter().enumerate() {
                let d = dot(xi, exj);
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((d - want).abs() < 1e-8, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn exact_repeat_rhs_needs_zero_iterations() {
        let n = 40;
        let a = spd(n);
        let mut proj = RhsProjection::new(n, 4);
        let b0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos()).collect();
        let (x0, _) = solve(&a, &b0, vec![0.0; n]);
        proj.update(&x0, &a.matvec(&x0));
        // Same RHS again: projection alone must solve it.
        let mut b = b0.clone();
        let xbar = proj.project(&mut b);
        let rnorm = dot(&b, &b).sqrt();
        assert!(rnorm < 1e-10, "residual after projection {rnorm}");
        let ax = a.matvec(&xbar);
        for (g, w) in ax.iter().zip(b0.iter()) {
            assert!((g - w).abs() < 1e-8);
        }
    }

    #[test]
    fn history_restarts_at_capacity() {
        let n = 10;
        let a = spd(n);
        let mut proj = RhsProjection::new(n, 3);
        for s in 0..3 {
            let x: Vec<f64> = (0..n).map(|i| ((i * (s + 1)) as f64).sin()).collect();
            proj.update(&x, &a.matvec(&x));
        }
        assert_eq!(proj.len(), 3);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7).cos()).collect();
        proj.update(&x, &a.matvec(&x));
        assert_eq!(proj.len(), 1); // restarted
    }

    #[test]
    fn lmax_zero_disables() {
        let n = 10;
        let a = spd(n);
        let mut proj = RhsProjection::new(n, 0);
        let x = vec![1.0; n];
        proj.update(&x, &a.matvec(&x));
        assert!(proj.is_empty());
        let mut b = vec![1.0; n];
        let xbar = proj.project(&mut b);
        assert!(xbar.iter().all(|&v| v == 0.0));
        assert!(b.iter().all(|&v| v == 1.0));
    }

    /// Regression for the dependence tolerance: feeding near-duplicate
    /// solutions (randomly scaled copies plus perturbations far below
    /// [`DEPENDENCE_RTOL`]'s E-norm threshold) must not grow the basis
    /// beyond the first entry, and the basis must stay E-orthonormal —
    /// under the old `1e-16` squared-norm test these slipped through,
    /// were renormalized by huge factors, and wrecked orthonormality.
    #[test]
    fn near_duplicate_updates_are_dropped() {
        sem_linalg::rng::forall("near_duplicate_updates", 0x5eed_9e3d, 25, |rng| {
            let n = 24;
            let a = spd(n);
            let mut proj = RhsProjection::new(n, 8);
            let x: Vec<f64> = rng.vec(n, -1.0, 1.0);
            proj.update(&x, &a.matvec(&x));
            assert_eq!(proj.len(), 1);
            for _ in 0..6 {
                // Scaled copy with a relative perturbation of ~1e-8: its
                // post-orthogonalization E-energy fraction is ~1e-16,
                // far below DEPENDENCE_RTOL = 1e-12.
                let scale = rng.uniform(0.5, 2.0);
                let x2: Vec<f64> = x
                    .iter()
                    .map(|&v| scale * (v + 1e-8 * rng.uniform(-1.0, 1.0)))
                    .collect();
                proj.update(&x2, &a.matvec(&x2));
            }
            assert_eq!(proj.len(), 1, "near-duplicates must be dropped");
            // A genuinely new direction must still be accepted, and the
            // basis must remain E-orthonormal to working precision.
            let y: Vec<f64> = rng.vec(n, -1.0, 1.0);
            proj.update(&y, &a.matvec(&y));
            assert_eq!(proj.len(), 2);
            for (i, (xi, _)) in proj.basis.iter().enumerate() {
                for (j, (_, exj)) in proj.basis.iter().enumerate() {
                    let d = dot(xi, exj);
                    let want = if i == j { 1.0 } else { 0.0 };
                    assert!((d - want).abs() < 1e-8, "({i},{j}): {d}");
                }
            }
        });
    }

    /// A marginal direction (post-orthogonalization E-energy fraction
    /// ~1e-8) is well above the `1e-12` [`DEPENDENCE_RTOL`] threshold,
    /// so it is kept.
    #[test]
    fn marginal_directions_are_kept_at_the_default_threshold() {
        let n = 24;
        let a = spd(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        // Scaled copy plus a ~1e-4 relative perturbation: keeps ~1e-8 of
        // its E-energy after Gram–Schmidt against x.
        let x2: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| 1.5 * (v + 1e-4 * (i as f64 * 0.7).cos()))
            .collect();
        let mut default = RhsProjection::new(n, 8);
        default.update(&x, &a.matvec(&x));
        default.update(&x2, &a.matvec(&x2));
        assert_eq!(default.len(), 2, "default threshold must accept it");
    }

    #[test]
    fn corrupt_latest_poisons_projection() {
        let n = 8;
        let a = spd(n);
        let mut proj = RhsProjection::new(n, 4);
        assert!(!proj.corrupt_latest(), "empty basis: nothing to corrupt");
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos()).collect();
        proj.update(&x, &a.matvec(&x));
        assert!(proj.corrupt_latest());
        assert_eq!(proj.len(), 1, "corruption bypasses the drop guards");
        let mut b = vec![1.0; n];
        let xbar = proj.project(&mut b);
        assert!(xbar.iter().any(|v| v.is_nan()), "guess must be poisoned");
        proj.clear();
        let mut b2 = vec![1.0; n];
        let clean = proj.project(&mut b2);
        assert!(clean.iter().all(|&v| v == 0.0), "clear() cures it");
    }

    #[test]
    fn nan_update_is_dropped() {
        let n = 8;
        let a = spd(n);
        let mut proj = RhsProjection::new(n, 4);
        let mut x = vec![1.0; n];
        x[2] = f64::NAN;
        proj.update(&x, &a.matvec(&x));
        assert!(proj.is_empty(), "NaN update must not enter the basis");
    }

    #[test]
    fn dependent_update_is_skipped() {
        let n = 10;
        let a = spd(n);
        let mut proj = RhsProjection::new(n, 5);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        proj.update(&x, &a.matvec(&x));
        // The same direction again contributes nothing.
        let x2: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        proj.update(&x2, &a.matvec(&x2));
        assert_eq!(proj.len(), 1);
    }
}
