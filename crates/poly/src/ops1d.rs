//! One-dimensional low-order operators: the piecewise-linear finite
//! element stiffness/mass pairs whose tensor products are the
//! overlapping Schwarz preconditioner's local problems (§5, Fig. 5) —
//! including the one-point-extended subdomains of the FDM construction.

use sem_linalg::Matrix;

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

/// Lumped (diagonal) piecewise-linear FE mass: row sums of the consistent
/// mass `h/6 · [[2,1],[1,2]]`, i.e. half the adjacent interval lengths.
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
    use crate::quad::gauss_lobatto;

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
        let bl = fe_mass_lumped(&nodes);
        let total_l: f64 = bl.iter().sum();
        assert!((total_l - 2.0).abs() < 1e-13);
    }

    #[test]
    fn dirichlet_interior_extracts_block() {
        let a = fe_stiffness(&gauss_lobatto(6).points);
        let ai = dirichlet_interior(&a, 1, 1);
        assert_eq!(ai.rows(), 4);
        assert!((ai[(0, 0)] - a[(1, 1)]).abs() < 1e-15);
        assert!((ai[(3, 2)] - a[(4, 3)]).abs() < 1e-15);
    }
}
