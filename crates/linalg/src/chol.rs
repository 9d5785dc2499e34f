//! Cholesky factorization for symmetric positive definite systems.
//!
//! Used for the setup-phase solves of the Schwarz preconditioner (FEM local
//! problems), the coarse-grid operator `A₀`, and the normalization steps of
//! the XXᵀ factorization.

use crate::matrix::Matrix;

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive definite
/// matrix, with solve and inverse helpers.
#[derive(Clone, Debug)]
pub struct Cholesky {
    /// Lower-triangular factor (strict upper part is zero).
    l: Matrix,
}

/// Error raised when the matrix is not positive definite (or not symmetric
/// enough for the factorization to proceed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Pivot index at which a non-positive diagonal was encountered.
    pub pivot: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite (pivot {})", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefinite {}

impl Cholesky {
    /// Factor a symmetric positive definite matrix.
    ///
    /// Only the lower triangle of `a` is referenced.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn new(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        assert!(a.is_square(), "Cholesky requires a square matrix");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b`, overwriting `x` (initially `b`).
    pub fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "Cholesky solve: dimension mismatch");
        // Forward: L y = b
        for i in 0..n {
            let mut sum = x[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
    }

    /// Solve `A x = b` into a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Explicit inverse `A⁻¹` (used by the row-distributed-inverse
    /// coarse-grid baseline of Fig. 6).
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e.fill(0.0);
            e[j] = 1.0;
            self.solve_in_place(&mut e);
            for i in 0..n {
                inv[(i, j)] = e[i];
            }
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_test_matrix(n: usize) -> Matrix {
        // 1D Laplacian + identity: tridiagonal SPD.
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.5
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn factor_and_solve_tridiagonal() {
        let n = 12;
        let a = spd_test_matrix(n);
        let ch = Cholesky::new(&a).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&x_true);
        let x = ch.solve(&b);
        for (g, w) in x.iter().zip(x_true.iter()) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn l_times_lt_reconstructs() {
        let a = spd_test_matrix(6);
        let ch = Cholesky::new(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose());
        for i in 0..6 {
            for j in 0..6 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn inverse_times_a_is_identity() {
        let a = spd_test_matrix(8);
        let inv = Cholesky::new(&a).unwrap().inverse();
        let prod = inv.matmul(&a);
        for i in 0..8 {
            for j in 0..8 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        let err = Cholesky::new(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
    }
}
