//! Banded Cholesky factorization.
//!
//! This is the "redundant banded-LU" baseline of the paper's Fig. 6: every
//! processor redundantly factors and solves the (banded, SPD) coarse-grid
//! operator. For an `n`-point grid problem with bandwidth `m`, the factor
//! costs `O(n m²)` and each solve `O(n m)` — work that the XXᵀ scheme
//! avoids distributing redundantly.

use crate::matrix::Matrix;

/// Symmetric positive definite banded matrix factored as `A = L Lᵀ`, with
/// `L` of lower bandwidth `kd`.
///
/// Storage is row-wise by diagonal: entry `A[i, i-d]` for `d ∈ 0..=kd`
/// lives at `band[i*(kd+1) + d]`.
#[derive(Clone, Debug)]
pub struct BandedCholesky {
    n: usize,
    kd: usize,
    /// Factored band of `L` in the same layout.
    band: Vec<f64>,
}

impl BandedCholesky {
    /// Factor a symmetric banded SPD matrix given its dense form.
    ///
    /// `kd` is the number of sub-diagonals (half-bandwidth). Entries of `a`
    /// outside the band are ignored; only the lower triangle is read.
    ///
    /// # Panics
    /// Panics if `a` is not square or if a non-positive pivot appears
    /// (matrix not SPD within the band).
    pub fn from_dense(a: &Matrix, kd: usize) -> Self {
        assert!(a.is_square(), "banded Cholesky requires square matrix");
        let n = a.rows();
        let mut band = vec![0.0; n * (kd + 1)];
        for i in 0..n {
            for d in 0..=kd.min(i) {
                band[i * (kd + 1) + d] = a[(i, i - d)];
            }
        }
        Self::factor(n, kd, band)
    }

    fn factor(n: usize, kd: usize, mut band: Vec<f64>) -> Self {
        let w = kd + 1;
        for j in 0..n {
            // Diagonal update: A[j,j] -= sum_k L[j,k]^2 over band.
            let mut diag = band[j * w];
            let kmin = j.saturating_sub(kd);
            for k in kmin..j {
                let l_jk = band[j * w + (j - k)];
                diag -= l_jk * l_jk;
            }
            assert!(diag > 0.0, "banded Cholesky: non-positive pivot at {j}");
            let ljj = diag.sqrt();
            band[j * w] = ljj;
            // Column below diagonal.
            for i in (j + 1)..n.min(j + kd + 1) {
                let mut v = band[i * w + (i - j)];
                let kmin = i.saturating_sub(kd).max(j.saturating_sub(kd));
                for k in kmin..j {
                    v -= band[i * w + (i - k)] * band[j * w + (j - k)];
                }
                band[i * w + (i - j)] = v / ljj;
            }
        }
        BandedCholesky { n, kd, band }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Half bandwidth.
    pub fn bandwidth(&self) -> usize {
        self.kd
    }

    /// Solve `A x = b`, overwriting `x` (initially `b`).
    pub fn solve_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "banded solve: dimension mismatch");
        let w = self.kd + 1;
        // Forward: L y = b.
        for i in 0..self.n {
            let mut sum = x[i];
            let kmin = i.saturating_sub(self.kd);
            for k in kmin..i {
                sum -= self.band[i * w + (i - k)] * x[k];
            }
            x[i] = sum / self.band[i * w];
        }
        // Backward: Lᵀ x = y.
        for i in (0..self.n).rev() {
            let mut sum = x[i];
            for k in (i + 1)..self.n.min(i + self.kd + 1) {
                sum -= self.band[k * w + (k - i)] * x[k];
            }
            x[i] = sum / self.band[i * w];
        }
    }

    /// Solve into a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Flop count of one solve (`≈ 2·n·kd` multiply-adds ×2).
    pub fn solve_flops(n: usize, kd: usize) -> u64 {
        4 * (n as u64) * (kd as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chol::Cholesky;

    /// 2D 5-point Laplacian on an m×m grid (the Fig. 6 coarse problem),
    /// bandwidth m.
    fn laplacian_2d(m: usize) -> Matrix {
        let n = m * m;
        Matrix::from_fn(n, n, |p, q| {
            let (pi, pj) = (p / m, p % m);
            let (qi, qj) = (q / m, q % m);
            if p == q {
                4.0
            } else if (pi == qi && pj.abs_diff(qj) == 1) || (pj == qj && pi.abs_diff(qi) == 1) {
                -1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn matches_dense_cholesky_on_poisson() {
        let m = 7;
        let a = laplacian_2d(m);
        let banded = BandedCholesky::from_dense(&a, m);
        let dense = Cholesky::new(&a).unwrap();
        let b: Vec<f64> = (0..m * m).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let xb = banded.solve(&b);
        let xd = dense.solve(&b);
        for (g, w) in xb.iter().zip(xd.iter()) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn tridiagonal_case() {
        let n = 20;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let banded = BandedCholesky::from_dense(&a, 1);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let b = a.matvec(&x_true);
        let x = banded.solve(&b);
        for (g, w) in x.iter().zip(x_true.iter()) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn residual_is_small() {
        let m = 9;
        let a = laplacian_2d(m);
        let banded = BandedCholesky::from_dense(&a, m);
        let b = vec![1.0; m * m];
        let x = banded.solve(&b);
        let r = a.matvec(&x);
        for (g, w) in r.iter().zip(b.iter()) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "non-positive pivot")]
    fn indefinite_panics() {
        let a = Matrix::from_rows(&[&[1., 2.], &[2., 1.]]);
        let _ = BandedCholesky::from_dense(&a, 1);
    }

    #[test]
    fn flop_models() {
        assert_eq!(BandedCholesky::solve_flops(100, 10), 4000);
    }
}
