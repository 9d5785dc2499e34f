//! Tensor-product operator application (Eq. 3 of the paper).
//!
//! Spectral element fields on one element are logically `d`-dimensional
//! arrays `u[k][j][i]` (the `x` index `i` fastest). A separable operator
//! `A_z ⊗ A_y ⊗ A_x` is applied as a short sequence of small dense
//! matrix–matrix products through the [`crate::mxm`](mod@crate::mxm) kernels — this is the
//! transformation that recasts `O(N^{2d})` mat-vecs as `O(N^{d+1})` mat-mats
//! and is "central to the efficiency of spectral element methods".
//!
//! Conventions: all fields are stored row-major with `x` fastest, i.e. the
//! 2D field value at `(i, j)` lives at `u[j * nx + i]` and the 3D value at
//! `(i, j, k)` lives at `u[(k * ny + j) * nx + i]`.
//!
//! To avoid transposing the `x` operator inside hot loops, every function
//! takes the **transposed** `x` operator `axt` (shape `nx_in × nx_out`);
//! the `y`/`z` operators are passed untransposed. Operator caches in
//! `sem-ops` precompute both orientations once.

use crate::matrix::Matrix;
use crate::mxm::{mxm, mxm_acc_with, MxmKernel};

/// `out = (A_y ⊗ A_x) u` for a 2D field.
///
/// * `ay`: `ny_out × ny_in`
/// * `axt`: `nx_in × nx_out` (transpose of the x operator)
/// * `u`: `ny_in * nx_in` values, x fastest
/// * `out`: `ny_out * nx_out` values
/// * `work`: scratch of at least `ny_in * nx_out`
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn kron2_apply(ay: &Matrix, axt: &Matrix, u: &[f64], out: &mut [f64], work: &mut [f64]) {
    let (ny_in, ny_out) = (ay.cols(), ay.rows());
    let (nx_in, nx_out) = (axt.rows(), axt.cols());
    assert_eq!(u.len(), ny_in * nx_in, "kron2: u length");
    assert_eq!(out.len(), ny_out * nx_out, "kron2: out length");
    assert!(work.len() >= ny_in * nx_out, "kron2: work too small");
    let w = &mut work[..ny_in * nx_out];
    // W = U · Axᵀ  (contract over i)
    mxm(u, ny_in, nx_in, axt.as_slice(), nx_out, w);
    // OUT = Ay · W (contract over j)
    mxm(ay.as_slice(), ny_out, ny_in, w, nx_out, out);
}

/// `out = (A_z ⊗ A_y ⊗ A_x) u` for a 3D field.
///
/// * `az`: `nz_out × nz_in`
/// * `ay`: `ny_out × ny_in`
/// * `axt`: `nx_in × nx_out`
/// * `u`: `nz_in * ny_in * nx_in`, x fastest
/// * `out`: `nz_out * ny_out * nx_out`
/// * `work`: scratch of at least
///   `nz_in*ny_in*nx_out + nz_in*ny_out*nx_out`
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn kron3_apply(
    az: &Matrix,
    ay: &Matrix,
    axt: &Matrix,
    u: &[f64],
    out: &mut [f64],
    work: &mut [f64],
) {
    let (nz_in, nz_out) = (az.cols(), az.rows());
    let (ny_in, ny_out) = (ay.cols(), ay.rows());
    let (nx_in, nx_out) = (axt.rows(), axt.cols());
    assert_eq!(u.len(), nz_in * ny_in * nx_in, "kron3: u length");
    assert_eq!(out.len(), nz_out * ny_out * nx_out, "kron3: out length");
    let w1_len = nz_in * ny_in * nx_out;
    let w2_len = nz_in * ny_out * nx_out;
    assert!(work.len() >= w1_len + w2_len, "kron3: work too small");
    let (w1, rest) = work.split_at_mut(w1_len);
    let w2 = &mut rest[..w2_len];
    // Stage 1 (x): one big product over all (k, j) planes.
    mxm(u, nz_in * ny_in, nx_in, axt.as_slice(), nx_out, w1);
    // Stage 2 (y): one product per z slab.
    for k in 0..nz_in {
        let src = &w1[k * ny_in * nx_out..(k + 1) * ny_in * nx_out];
        let dst = &mut w2[k * ny_out * nx_out..(k + 1) * ny_out * nx_out];
        mxm(ay.as_slice(), ny_out, ny_in, src, nx_out, dst);
    }
    // Stage 3 (z): one big product over the (j, i) plane.
    mxm(az.as_slice(), nz_out, nz_in, w2, ny_out * nx_out, out);
}

/// `out = (I ⊗ … ⊗ A_x) u`: apply an operator along `x` only.
///
/// Works for any dimension: `planes` is the product of the trailing extents
/// (`ny` in 2D, `ny*nz` in 3D). `axt` is the transposed x operator.
pub fn apply_x(axt: &Matrix, planes: usize, u: &[f64], out: &mut [f64]) {
    let (nx_in, nx_out) = (axt.rows(), axt.cols());
    assert_eq!(u.len(), planes * nx_in, "apply_x: u length");
    assert_eq!(out.len(), planes * nx_out, "apply_x: out length");
    mxm(u, planes, nx_in, axt.as_slice(), nx_out, out);
}

/// `out = (A_y ⊗ I) u` for a 2D field with row length `nx`.
pub fn apply_y_2d(ay: &Matrix, nx: usize, u: &[f64], out: &mut [f64]) {
    let (ny_in, ny_out) = (ay.cols(), ay.rows());
    assert_eq!(u.len(), ny_in * nx, "apply_y_2d: u length");
    assert_eq!(out.len(), ny_out * nx, "apply_y_2d: out length");
    mxm(ay.as_slice(), ny_out, ny_in, u, nx, out);
}

/// `out += (A_y ⊗ I) u`: accumulating form of [`apply_y_2d`].
pub fn apply_y_2d_acc(ay: &Matrix, nx: usize, u: &[f64], out: &mut [f64]) {
    let (ny_in, ny_out) = (ay.cols(), ay.rows());
    assert_eq!(u.len(), ny_in * nx, "apply_y_2d_acc: u length");
    assert_eq!(out.len(), ny_out * nx, "apply_y_2d_acc: out length");
    mxm_acc_with(MxmKernel::Auto, ay.as_slice(), ny_out, ny_in, u, nx, out);
}

/// `out = (I ⊗ A_y ⊗ I) u` for a 3D field (`nz` slabs of `ny_in × nx`).
pub fn apply_y_3d(ay: &Matrix, nx: usize, nz: usize, u: &[f64], out: &mut [f64]) {
    let (ny_in, ny_out) = (ay.cols(), ay.rows());
    assert_eq!(u.len(), nz * ny_in * nx, "apply_y_3d: u length");
    assert_eq!(out.len(), nz * ny_out * nx, "apply_y_3d: out length");
    for k in 0..nz {
        let src = &u[k * ny_in * nx..(k + 1) * ny_in * nx];
        let dst = &mut out[k * ny_out * nx..(k + 1) * ny_out * nx];
        mxm(ay.as_slice(), ny_out, ny_in, src, nx, dst);
    }
}

/// `out += (I ⊗ A_y ⊗ I) u`: accumulating form of [`apply_y_3d`].
pub fn apply_y_3d_acc(ay: &Matrix, nx: usize, nz: usize, u: &[f64], out: &mut [f64]) {
    let (ny_in, ny_out) = (ay.cols(), ay.rows());
    assert_eq!(u.len(), nz * ny_in * nx, "apply_y_3d_acc: u length");
    assert_eq!(out.len(), nz * ny_out * nx, "apply_y_3d_acc: out length");
    for k in 0..nz {
        let src = &u[k * ny_in * nx..(k + 1) * ny_in * nx];
        let dst = &mut out[k * ny_out * nx..(k + 1) * ny_out * nx];
        mxm_acc_with(MxmKernel::Auto, ay.as_slice(), ny_out, ny_in, src, nx, dst);
    }
}

/// `out = (A_z ⊗ I ⊗ I) u` for a 3D field with plane size `nx*ny`.
pub fn apply_z_3d(az: &Matrix, plane: usize, u: &[f64], out: &mut [f64]) {
    let (nz_in, nz_out) = (az.cols(), az.rows());
    assert_eq!(u.len(), nz_in * plane, "apply_z_3d: u length");
    assert_eq!(out.len(), nz_out * plane, "apply_z_3d: out length");
    mxm(az.as_slice(), nz_out, nz_in, u, plane, out);
}

/// `out += (A_z ⊗ I ⊗ I) u`: accumulating form of [`apply_z_3d`].
pub fn apply_z_3d_acc(az: &Matrix, plane: usize, u: &[f64], out: &mut [f64]) {
    let (nz_in, nz_out) = (az.cols(), az.rows());
    assert_eq!(u.len(), nz_in * plane, "apply_z_3d_acc: u length");
    assert_eq!(out.len(), nz_out * plane, "apply_z_3d_acc: out length");
    mxm_acc_with(MxmKernel::Auto, az.as_slice(), nz_out, nz_in, u, plane, out);
}

/// Explicitly form the Kronecker product `A ⊗ B` (test/setup use only —
/// production code applies tensor operators matrix-free).
pub fn kron(a: &Matrix, b: &Matrix) -> Matrix {
    let mut k = Matrix::zeros(a.rows() * b.rows(), a.cols() * b.cols());
    for ia in 0..a.rows() {
        for ja in 0..a.cols() {
            let av = a[(ia, ja)];
            for ib in 0..b.rows() {
                for jb in 0..b.cols() {
                    k[(ia * b.rows() + ib, ja * b.cols() + jb)] = av * b[(ib, jb)];
                }
            }
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn randomish(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as f64) / (u32::MAX as f64) - 0.5
            })
            .collect()
    }

    fn randmat(r: usize, c: usize, seed: u64) -> Matrix {
        Matrix::from_vec(r, c, randomish(r * c, seed))
    }

    #[test]
    fn kron2_matches_explicit_kron() {
        // (Ay ⊗ Ax) with x fastest means the explicit matrix is kron(Ay, Ax).
        for &(ny, nx, my, mx) in &[(4, 5, 4, 5), (3, 3, 2, 3), (5, 2, 5, 4)] {
            let ay = randmat(my, ny, 1);
            let ax = randmat(mx, nx, 2);
            let u = randomish(ny * nx, 3);
            let big = kron(&ay, &ax);
            let want = big.matvec(&u);
            let axt = ax.transpose();
            let mut out = vec![0.0; my * mx];
            let mut work = vec![0.0; ny * mx];
            kron2_apply(&ay, &axt, &u, &mut out, &mut work);
            for (g, w) in out.iter().zip(want.iter()) {
                assert!((g - w).abs() < 1e-12, "({ny},{nx})->({my},{mx})");
            }
        }
    }

    #[test]
    fn kron3_matches_explicit_kron() {
        let (nz, ny, nx) = (3, 4, 2);
        let (mz, my, mx) = (2, 3, 5);
        let az = randmat(mz, nz, 4);
        let ay = randmat(my, ny, 5);
        let ax = randmat(mx, nx, 6);
        let u = randomish(nz * ny * nx, 7);
        let big = kron(&az, &kron(&ay, &ax));
        let want = big.matvec(&u);
        let axt = ax.transpose();
        let mut out = vec![0.0; mz * my * mx];
        let mut work = vec![0.0; nz * ny * mx + nz * my * mx];
        kron3_apply(&az, &ay, &axt, &u, &mut out, &mut work);
        for (g, w) in out.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn axis_applies_match_kron_with_identity() {
        let (nz, ny, nx) = (3, 4, 5);
        let d = randmat(nx, nx, 8);
        let u = randomish(nz * ny * nx, 9);
        // x only
        let dt = d.transpose();
        let mut out = vec![0.0; nz * ny * nx];
        apply_x(&dt, nz * ny, &u, &mut out);
        let big = kron(&Matrix::identity(nz), &kron(&Matrix::identity(ny), &d));
        let want = big.matvec(&u);
        for (g, w) in out.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-12);
        }
        // y only
        let dy = randmat(ny, ny, 10);
        let mut outy = vec![0.0; nz * ny * nx];
        apply_y_3d(&dy, nx, nz, &u, &mut outy);
        let bigy = kron(&Matrix::identity(nz), &kron(&dy, &Matrix::identity(nx)));
        let wanty = bigy.matvec(&u);
        for (g, w) in outy.iter().zip(wanty.iter()) {
            assert!((g - w).abs() < 1e-12);
        }
        // z only
        let dz = randmat(nz, nz, 11);
        let mut outz = vec![0.0; nz * ny * nx];
        apply_z_3d(&dz, ny * nx, &u, &mut outz);
        let bigz = kron(&dz, &Matrix::identity(ny * nx));
        let wantz = bigz.matvec(&u);
        for (g, w) in outz.iter().zip(wantz.iter()) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_y_2d_matches() {
        let (ny, nx) = (4, 3);
        let ay = randmat(ny, ny, 12);
        let u = randomish(ny * nx, 13);
        let mut out = vec![0.0; ny * nx];
        apply_y_2d(&ay, nx, &u, &mut out);
        let big = kron(&ay, &Matrix::identity(nx));
        let want = big.matvec(&u);
        for (g, w) in out.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn rectangular_interpolation_shapes() {
        // GLL (N+1 pts) -> Gauss (N-1 pts) style shape change in 2D.
        let (n_in, n_out) = (8, 6);
        let j = randmat(n_out, n_in, 14);
        let u = randomish(n_in * n_in, 15);
        let jt = j.transpose();
        let mut out = vec![0.0; n_out * n_out];
        let mut work = vec![0.0; n_in * n_out];
        kron2_apply(&j, &jt, &u, &mut out, &mut work);
        let big = kron(&j, &j);
        let want = big.matvec(&u);
        for (g, w) in out.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn acc_applies_match_overwrite_plus_add() {
        let (nz, ny, nx) = (3, 4, 5);
        let u = randomish(nz * ny * nx, 16);
        let base = randomish(nz * ny * nx, 17);
        let mut scratch = vec![0.0; nz * ny * nx];
        // y (3D)
        let dy = randmat(ny, ny, 19);
        apply_y_3d(&dy, nx, nz, &u, &mut scratch);
        let want: Vec<f64> = base.iter().zip(&scratch).map(|(b, s)| b + s).collect();
        let mut got = base.clone();
        apply_y_3d_acc(&dy, nx, nz, &u, &mut got);
        assert_eq!(got, want, "apply_y_3d_acc bitwise");
        // z
        let dz = randmat(nz, nz, 20);
        apply_z_3d(&dz, ny * nx, &u, &mut scratch);
        let want: Vec<f64> = base.iter().zip(&scratch).map(|(b, s)| b + s).collect();
        let mut got = base.clone();
        apply_z_3d_acc(&dz, ny * nx, &u, &mut got);
        assert_eq!(got, want, "apply_z_3d_acc bitwise");
        // y (2D): one slab.
        let u2 = &u[..ny * nx];
        let mut s2 = vec![0.0; ny * nx];
        apply_y_2d(&dy, nx, u2, &mut s2);
        let want: Vec<f64> = base[..ny * nx]
            .iter()
            .zip(&s2)
            .map(|(b, s)| b + s)
            .collect();
        let mut got = base[..ny * nx].to_vec();
        apply_y_2d_acc(&dy, nx, u2, &mut got);
        assert_eq!(got, want, "apply_y_2d_acc bitwise");
    }
}
