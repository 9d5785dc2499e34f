//! Level-1 vector helpers shared by the iterative solvers.
//!
//! These are deliberately simple, allocation-free loops; the optimizer
//! vectorizes them well. Their work is pointwise, so it is not in the
//! `mxm` flop account (`sem_obs::Counter::MxmFlops`).

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        acc += a * b;
    }
    acc
}

/// `y += a * x`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// `y = x + b * y` (the CG search-direction update).
#[inline]
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi = xi + b * *yi;
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `z = x - y` into a preallocated output.
#[inline]
pub fn sub_into(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "sub_into: length mismatch");
    assert_eq!(x.len(), z.len(), "sub_into: length mismatch");
    for ((zi, xi), yi) in z.iter_mut().zip(x.iter()).zip(y.iter()) {
        *zi = xi - yi;
    }
}

/// Scale in place: `x *= a`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_orthogonal() {
        assert_eq!(dot(&[1., 0.], &[0., 1.]), 0.0);
        assert_eq!(dot(&[1., 2., 3.], &[4., 5., 6.]), 32.0);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1., 1.];
        axpy(2.0, &[3., 4.], &mut y);
        assert_eq!(y, vec![7., 9.]);
    }

    #[test]
    fn xpby_is_cg_direction_update() {
        let mut p = vec![1., 2.];
        xpby(&[10., 10.], 0.5, &mut p);
        assert_eq!(p, vec![10.5, 11.0]);
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3., 4.]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn sub_into_writes_the_difference() {
        let mut z = vec![0.0; 2];
        sub_into(&[5., 6.], &[1., 2.], &mut z);
        assert_eq!(z, vec![4., 4.]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
