//! Filter-based stabilization (Fischer & Mullen 1999; paper §2).
//!
//! The filter is applied once per timestep and acts element-locally in the
//! Legendre modal basis: the `N`-th mode is attenuated by `(1 − α)` while
//! all lower modes pass unchanged. `α = 0` means no filtering, `α = 1`
//! suppresses the top mode completely (full projection onto `P_{N−1}`).
//! Table 1 shows that `α = 0.2` preserves exponential convergence while
//! stabilizing the 3rd-order time integrator; Fig. 3 shows `α = 0.3`
//! stabilizing high-Re shear layer roll-up where the unfiltered method
//! blows up.
//!
//! The filter matrix is `F_α = Φ diag(σ) Φ⁻¹` with `σ = (1, …, 1, 1−α)`,
//! equivalent to the paper's "local interpolation" construction
//! `(1−α) I + α Π_{N−1}` where `Π` interpolates to the degree-`N−1` GLL
//! grid and back. In `d` dimensions the filter applies tensorially,
//! `F ⊗ F (⊗ F)`, through [`sem_linalg::tensor`].

use crate::lagrange::interp_matrix;
use crate::modal::{forward_transform, vandermonde};
use crate::quad::gauss_lobatto;
use sem_linalg::Matrix;

/// The 1D modal filter matrix `F_α` on the `(N+1)`-point GLL grid, with a
/// general per-mode transfer function `σ(n)`.
pub fn filter_matrix_with(n_points: usize, sigma: impl Fn(usize) -> f64) -> Matrix {
    let phi = vandermonde(n_points);
    let inv = forward_transform(n_points);
    // F = Φ diag(σ) Φ⁻¹, built without a general matmul by scaling rows of Φ⁻¹.
    let mut scaled = inv.clone();
    for n in 0..n_points {
        let s = sigma(n);
        for v in scaled.row_mut(n) {
            *v *= s;
        }
    }
    phi.matmul(&scaled)
}

/// The paper's single-mode filter: attenuate only the top mode `N` by
/// `(1 − α)`.
///
/// # Examples
///
/// ```
/// use sem_poly::filter::filter_matrix;
/// use sem_poly::legendre::legendre;
/// use sem_poly::quad::gauss_lobatto;
/// let np = 9; // N = 8
/// let f = filter_matrix(np, 0.3);
/// // Low modes pass unchanged; the top mode loses 30%.
/// let nodes = gauss_lobatto(np).points;
/// let top: Vec<f64> = nodes.iter().map(|&x| legendre(8, x)).collect();
/// let filtered = f.matvec(&top);
/// assert!((filtered[4] - 0.7 * top[4]).abs() < 1e-10);
/// ```
///
/// # Panics
/// Panics unless `0 ≤ α ≤ 1`.
pub fn filter_matrix(n_points: usize, alpha: f64) -> Matrix {
    assert!(
        (0.0..=1.0).contains(&alpha),
        "filter strength must be in [0,1]"
    );
    let top = n_points - 1;
    filter_matrix_with(n_points, |n| if n == top { 1.0 - alpha } else { 1.0 })
}

/// The interpolation-based construction `(1−α) I + α Π_{N−1}` of ref \[11\]:
/// interpolate to the `N`-point (degree `N−1`) GLL grid and back, blended
/// with the identity. Not identical to [`filter_matrix`]: interpolation at
/// `N` points maps `P_N` to its degree-`N−1` interpolant rather than to
/// zero, so the interpolating filter redistributes an `O(α û_N)` remainder
/// into the low modes. Both constructions reproduce `P_{N−1}` exactly and
/// attenuate the `N`-th modal coefficient by exactly `(1−α)`, which is the
/// stabilization mechanism.
pub fn filter_matrix_interp(n_points: usize, alpha: f64) -> Matrix {
    assert!(n_points >= 3, "interpolation filter needs N ≥ 2");
    assert!(
        (0.0..=1.0).contains(&alpha),
        "filter strength must be in [0,1]"
    );
    let fine = gauss_lobatto(n_points).points;
    let coarse = gauss_lobatto(n_points - 1).points;
    let down = interp_matrix(&fine, &coarse);
    let up = interp_matrix(&coarse, &fine);
    let mut pi = up.matmul(&down);
    pi.scale(alpha);
    let mut f = Matrix::identity(n_points);
    f.scale(1.0 - alpha);
    f.axpy(1.0, &pi);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legendre::legendre;
    use crate::modal::to_modal;

    #[test]
    fn alpha_zero_is_identity() {
        let f = filter_matrix(9, 0.0);
        let eye = Matrix::identity(9);
        for i in 0..9 {
            for j in 0..9 {
                assert!((f[(i, j)] - eye[(i, j)]).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn filter_preserves_low_modes_exactly() {
        let np = 10;
        let rule = gauss_lobatto(np);
        let f = filter_matrix(np, 0.7);
        for n in 0..np - 1 {
            let u: Vec<f64> = rule.points.iter().map(|&x| legendre(n, x)).collect();
            let fu = f.matvec(&u);
            for (g, w) in fu.iter().zip(u.iter()) {
                assert!((g - w).abs() < 1e-11, "mode {n} altered");
            }
        }
    }

    #[test]
    fn filter_attenuates_top_mode_by_alpha() {
        let np = 10;
        let alpha = 0.3;
        let rule = gauss_lobatto(np);
        let f = filter_matrix(np, alpha);
        let u: Vec<f64> = rule.points.iter().map(|&x| legendre(np - 1, x)).collect();
        let fu = f.matvec(&u);
        for (g, w) in fu.iter().zip(u.iter()) {
            assert!((g - (1.0 - alpha) * w).abs() < 1e-11);
        }
    }

    #[test]
    fn full_projection_removes_top_mode() {
        let np = 8;
        let f = filter_matrix(np, 1.0);
        let rule = gauss_lobatto(np);
        // Arbitrary field: after filtering, modal coefficient N must vanish.
        let u: Vec<f64> = rule.points.iter().map(|&x| (3.0 * x).cos() + x).collect();
        let fu = f.matvec(&u);
        let uhat = to_modal(&fu);
        assert!(uhat[np - 1].abs() < 1e-11);
    }

    #[test]
    fn interpolation_filter_preserves_low_modes_and_attenuates_top_coefficient() {
        for np in [4, 7, 12] {
            for &alpha in &[0.1, 0.3, 1.0] {
                let fi = filter_matrix_interp(np, alpha);
                let rule = gauss_lobatto(np);
                // Exact on P_{N-1} (interpolation down/up is exact there).
                for n in 0..np - 1 {
                    let u: Vec<f64> = rule.points.iter().map(|&x| legendre(n, x)).collect();
                    let fu = fi.matvec(&u);
                    for (g, w) in fu.iter().zip(u.iter()) {
                        assert!((g - w).abs() < 1e-10, "np={np} alpha={alpha} mode {n}");
                    }
                }
                // The N-th modal coefficient of F·P_N is exactly (1-α):
                // the interpolated remainder lives entirely in P_{N-1}.
                let top: Vec<f64> = rule.points.iter().map(|&x| legendre(np - 1, x)).collect();
                let ftop = fi.matvec(&top);
                let coeffs = to_modal(&ftop);
                assert!(
                    (coeffs[np - 1] - (1.0 - alpha)).abs() < 1e-10,
                    "np={np} alpha={alpha}: top coefficient {}",
                    coeffs[np - 1]
                );
            }
        }
    }

    #[test]
    fn filter_is_idempotent_only_at_full_strength() {
        let np = 9;
        let f1 = filter_matrix(np, 1.0);
        let f1f1 = f1.matmul(&f1);
        for i in 0..np {
            for j in 0..np {
                assert!((f1f1[(i, j)] - f1[(i, j)]).abs() < 1e-10);
            }
        }
        // Partial filter applied twice attenuates twice.
        let a = 0.4;
        let f = filter_matrix(np, a);
        let ff = f.matmul(&f);
        let rule = gauss_lobatto(np);
        let top: Vec<f64> = rule.points.iter().map(|&x| legendre(np - 1, x)).collect();
        let out = ff.matvec(&top);
        for (g, w) in out.iter().zip(top.iter()) {
            assert!((g - (1.0 - a) * (1.0 - a) * w).abs() < 1e-10);
        }
    }

    #[test]
    fn general_transfer_function() {
        // Exponential-style decay over the top two modes.
        let np = 8;
        let f = filter_matrix_with(np, |n| {
            if n >= np - 2 {
                0.5_f64.powi((n + 3 - np) as i32)
            } else {
                1.0
            }
        });
        let rule = gauss_lobatto(np);
        let u: Vec<f64> = rule.points.iter().map(|&x| legendre(np - 2, x)).collect();
        let fu = f.matvec(&u);
        for (g, w) in fu.iter().zip(u.iter()) {
            assert!((g - 0.5 * w).abs() < 1e-11);
        }
    }
}
