//! One-dimensional reference operators.
//!
//! Tensor products of these build every multidimensional operator in the
//! code (Eq. 2 of the paper): the GLL spectral stiffness `Â` on
//! `[-1, 1]` (the diagonal mass `B̂` is the GLL weights,
//! `gauss_lobatto(n).weights`), and the low-order piecewise-linear
//! finite element stiffness/mass pairs used by the overlapping Schwarz
//! preconditioner's local problems (§5, Fig. 5) — including the
//! one-point-extended subdomains of the FDM construction.

use crate::lagrange::deriv_matrix;
use crate::quad::gauss_lobatto;
use sem_linalg::Matrix;

/// GLL spectral stiffness matrix
/// `Â_ij = Σ_k w_k D_ki D_kj = ∫ h'_i h'_j dx` (exact: integrand degree
/// `2N−2 < 2N−1`). Symmetric positive semidefinite with nullspace =
/// constants.
pub fn gll_stiffness(n_points: usize) -> Matrix {
    let rule = gauss_lobatto(n_points);
    let d = deriv_matrix(&rule.points);
    let n = n_points;
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = 0.0;
            for k in 0..n {
                sum += rule.weights[k] * d[(k, i)] * d[(k, j)];
            }
            a[(i, j)] = sum;
            a[(j, i)] = sum;
        }
    }
    a
}

/// Piecewise-linear FE stiffness matrix on an arbitrary 1D node set
/// (tridiagonal): `A_ii = 1/h_{i−1} + 1/h_i`, `A_{i,i+1} = −1/h_i`.
///
/// This is the `Ã` of the Schwarz local problems: the paper builds the
/// low-order Laplacian on the (extended) tensor grid rather than the
/// spectral operator because it preconditions equally well at far lower
/// setup cost and admits fast diagonalization.
///
/// # Panics
/// Panics if nodes are not strictly increasing or fewer than 2.
pub fn fe_stiffness(nodes: &[f64]) -> Matrix {
    let n = nodes.len();
    assert!(n >= 2, "FE stiffness needs at least 2 nodes");
    let mut a = Matrix::zeros(n, n);
    for e in 0..n - 1 {
        let h = nodes[e + 1] - nodes[e];
        assert!(h > 0.0, "FE nodes must be strictly increasing");
        let k = 1.0 / h;
        a[(e, e)] += k;
        a[(e + 1, e + 1)] += k;
        a[(e, e + 1)] -= k;
        a[(e + 1, e)] -= k;
    }
    a
}

/// Consistent piecewise-linear FE mass matrix (tridiagonal):
/// element contribution `h/6 · [[2,1],[1,2]]`.
pub fn fe_mass_consistent(nodes: &[f64]) -> Matrix {
    let n = nodes.len();
    assert!(n >= 2, "FE mass needs at least 2 nodes");
    let mut b = Matrix::zeros(n, n);
    for e in 0..n - 1 {
        let h = nodes[e + 1] - nodes[e];
        assert!(h > 0.0, "FE nodes must be strictly increasing");
        b[(e, e)] += h / 3.0;
        b[(e + 1, e + 1)] += h / 3.0;
        b[(e, e + 1)] += h / 6.0;
        b[(e + 1, e)] += h / 6.0;
    }
    b
}

/// Lumped (diagonal) piecewise-linear FE mass: row sums of the consistent
/// mass, i.e. half the adjacent interval lengths.
pub fn fe_mass_lumped(nodes: &[f64]) -> Vec<f64> {
    let n = nodes.len();
    assert!(n >= 2, "FE mass needs at least 2 nodes");
    let mut b = vec![0.0; n];
    for e in 0..n - 1 {
        let h = nodes[e + 1] - nodes[e];
        assert!(h > 0.0, "FE nodes must be strictly increasing");
        b[e] += 0.5 * h;
        b[e + 1] += 0.5 * h;
    }
    b
}

/// Restrict a square operator to interior rows/columns `lo..n-hi`
/// (imposing homogeneous Dirichlet conditions by elimination).
pub fn dirichlet_interior(a: &Matrix, lo: usize, hi: usize) -> Matrix {
    let n = a.rows();
    assert!(lo + hi < n, "no interior nodes remain");
    let m = n - lo - hi;
    Matrix::from_fn(m, m, |i, j| a[(i + lo, j + lo)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gll_stiffness_annihilates_constants() {
        let a = gll_stiffness(9);
        let ones = vec![1.0; 9];
        let au = a.matvec(&ones);
        for v in au {
            assert!(v.abs() < 1e-11);
        }
    }

    #[test]
    fn gll_stiffness_is_symmetric_psd() {
        let a = gll_stiffness(8);
        assert!(a.symmetry_defect() < 1e-13);
        // PSD: xᵀAx ≥ 0 for a few test vectors.
        for seed in 0..5 {
            let x: Vec<f64> = (0..8)
                .map(|i| ((i * 7 + seed * 3) as f64 * 0.61).sin())
                .collect();
            let ax = a.matvec(&x);
            let q: f64 = x.iter().zip(ax.iter()).map(|(a, b)| a * b).sum();
            assert!(q >= -1e-12);
        }
    }

    #[test]
    fn gll_stiffness_energy_of_linear_function() {
        // u = x ⇒ ∫ (u')² = 2.
        let rule = gauss_lobatto(7);
        let a = gll_stiffness(7);
        let u = rule.points.clone();
        let au = a.matvec(&u);
        let energy: f64 = u.iter().zip(au.iter()).map(|(a, b)| a * b).sum();
        assert!((energy - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gll_stiffness_energy_of_quadratic() {
        // u = x² ⇒ ∫ (2x)² dx = 8/3.
        let rule = gauss_lobatto(9);
        let a = gll_stiffness(9);
        let u: Vec<f64> = rule.points.iter().map(|&x| x * x).collect();
        let au = a.matvec(&u);
        let energy: f64 = u.iter().zip(au.iter()).map(|(a, b)| a * b).sum();
        assert!((energy - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fe_stiffness_uniform_grid() {
        // Uniform h: classic tridiag(−1, 2, −1)/h.
        let nodes: Vec<f64> = (0..5).map(|i| i as f64 * 0.25).collect();
        let a = fe_stiffness(&nodes);
        assert!((a[(1, 1)] - 8.0).abs() < 1e-13);
        assert!((a[(1, 2)] + 4.0).abs() < 1e-13);
        assert!((a[(0, 0)] - 4.0).abs() < 1e-13);
        let ones = vec![1.0; 5];
        for v in a.matvec(&ones) {
            assert!(v.abs() < 1e-13);
        }
    }

    #[test]
    fn fe_mass_total_equals_interval_length() {
        let nodes = gauss_lobatto(9).points;
        let bc = fe_mass_consistent(&nodes);
        let ones = vec![1.0; 9];
        let bu = bc.matvec(&ones);
        let total: f64 = bu.iter().sum();
        assert!((total - 2.0).abs() < 1e-13);
        let bl = fe_mass_lumped(&nodes);
        let total_l: f64 = bl.iter().sum();
        assert!((total_l - 2.0).abs() < 1e-13);
    }

    #[test]
    fn lumped_is_row_sum_of_consistent() {
        let nodes = [0.0, 0.1, 0.35, 0.9, 1.0];
        let bc = fe_mass_consistent(&nodes);
        let bl = fe_mass_lumped(&nodes);
        for i in 0..nodes.len() {
            let row_sum: f64 = bc.row(i).iter().sum();
            assert!((row_sum - bl[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn dirichlet_interior_extracts_block() {
        let a = gll_stiffness(6);
        let ai = dirichlet_interior(&a, 1, 1);
        assert_eq!(ai.rows(), 4);
        assert!((ai[(0, 0)] - a[(1, 1)]).abs() < 1e-15);
        assert!((ai[(3, 2)] - a[(4, 3)]).abs() < 1e-15);
    }

    #[test]
    fn interior_gll_stiffness_is_spd() {
        use sem_linalg::chol::Cholesky;
        let a = dirichlet_interior(&gll_stiffness(10), 1, 1);
        assert!(Cholesky::new(&a).is_ok());
    }
}
