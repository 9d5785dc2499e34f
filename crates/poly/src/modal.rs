//! Legendre modal transforms on the GLL grid.
//!
//! The nodal coefficients `u_i = u(ξ_i)` and the Legendre modal
//! coefficients `û_n` (with `u(x) = Σ_n û_n P_n(x)`) are related by the
//! Vandermonde matrix `Φ_{in} = P_n(ξ_i)`. Discrete GLL orthogonality
//! yields the exact inverse without solving a system:
//! `û_n = (1/γ̃_n) Σ_i w_i P_n(ξ_i) u_i`, where `γ̃_n` is the *discrete*
//! norm ([`crate::legendre::legendre_norm_gll`]) that differs from the
//! continuous one only in the top mode. The stabilization filter (§2,
//! ref \[11\]) acts in this modal basis.

use crate::legendre::{legendre, legendre_norm_gll};
use crate::quad::gauss_lobatto;
use sem_linalg::Matrix;

/// The Legendre Vandermonde `Φ` on the `(N+1)`-point GLL grid:
/// `Φ_{in} = P_n(ξ_i)`, mapping modal → nodal.
pub fn vandermonde(n_points: usize) -> Matrix {
    let rule = gauss_lobatto(n_points);
    Matrix::from_fn(n_points, n_points, |i, n| legendre(n, rule.points[i]))
}

/// The forward (nodal → modal) transform `Φ⁻¹` via discrete GLL
/// orthogonality: `(Φ⁻¹)_{ni} = w_i P_n(ξ_i) / γ̃_n`.
pub fn forward_transform(n_points: usize) -> Matrix {
    let rule = gauss_lobatto(n_points);
    let big_n = n_points - 1;
    Matrix::from_fn(n_points, n_points, |n, i| {
        rule.weights[i] * legendre(n, rule.points[i]) / legendre_norm_gll(n, big_n)
    })
}

/// Convert a nodal vector to modal coefficients.
pub fn to_modal(u: &[f64]) -> Vec<f64> {
    forward_transform(u.len()).matvec(u)
}

/// Convert modal coefficients to a nodal vector.
pub fn to_nodal(uhat: &[f64]) -> Vec<f64> {
    vandermonde(uhat.len()).matvec(uhat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_is_exact_inverse_of_vandermonde() {
        for np in [3, 5, 8, 16] {
            let phi = vandermonde(np);
            let inv = forward_transform(np);
            let prod = inv.matmul(&phi);
            for i in 0..np {
                for j in 0..np {
                    let want = if i == j { 1.0 } else { 0.0 };
                    assert!(
                        (prod[(i, j)] - want).abs() < 1e-11,
                        "np={np} ({i},{j}): {}",
                        prod[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn pure_mode_roundtrip() {
        // A field that is exactly P_3 on the grid has modal vector e₃.
        let np = 8;
        let rule = gauss_lobatto(np);
        let u: Vec<f64> = rule.points.iter().map(|&x| legendre(3, x)).collect();
        let uhat = to_modal(&u);
        for (n, &c) in uhat.iter().enumerate() {
            let want = if n == 3 { 1.0 } else { 0.0 };
            assert!((c - want).abs() < 1e-12, "mode {n}: {c}");
        }
        let back = to_nodal(&uhat);
        for (g, w) in back.iter().zip(u.iter()) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_maps_to_mode_zero() {
        let uhat = to_modal(&vec![4.2; 9]);
        assert!((uhat[0] - 4.2).abs() < 1e-12);
        for &c in &uhat[1..] {
            assert!(c.abs() < 1e-12);
        }
    }

    #[test]
    fn modal_coefficients_of_smooth_function_decay() {
        let np = 16;
        let rule = gauss_lobatto(np);
        let u: Vec<f64> = rule.points.iter().map(|&x| (2.0 * x).sin()).collect();
        let uhat = to_modal(&u);
        // Spectral decay: the tail is tiny compared with the head.
        let head = uhat[..4].iter().map(|c| c.abs()).fold(0.0_f64, f64::max);
        let tail = uhat[12..].iter().map(|c| c.abs()).fold(0.0_f64, f64::max);
        assert!(tail < 1e-9 * head.max(1.0), "head {head} tail {tail}");
    }
}
