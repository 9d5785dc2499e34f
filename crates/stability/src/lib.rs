//! # sem-stability
//!
//! Orr–Sommerfeld linear stability solver for plane Poiseuille flow.
//!
//! Table 1 of Tufo & Fischer SC'99 measures the error of the spectral
//! element Navier–Stokes solver against linear theory: a small-amplitude
//! Tollmien–Schlichting wave superimposed on channel flow at `Re = 7500`
//! grows at the rate given by the leading Orr–Sommerfeld eigenvalue. This
//! crate computes that reference eigenpair from scratch: spectral
//! collocation of the Orr–Sommerfeld equation on Gauss–Lobatto points,
//! clamped boundary conditions imposed by row replacement, and the
//! physically relevant ("wall mode") eigenvalue extracted by complex
//! shifted inverse iteration.
//!
//! For the perturbation streamfunction `ψ = φ(y)·e^{iα(x − ct)}` on the
//! base flow `U(y) = 1 − y²`:
//!
//! `(U − c)(φ'' − α²φ) − U''φ = (iαRe)⁻¹ (φ'''' − 2α²φ'' + α⁴φ)`
//!
//! with `φ(±1) = φ'(±1) = 0`. The perturbation velocity follows as
//! `u = ∂ψ/∂y`, `v = −∂ψ/∂x`, and the amplitude growth rate is
//! `ω_i = α·Im(c)` (energy grows at `2ω_i`).

use sem_linalg::complex::{inverse_iteration, CMatrix, Complex};
use sem_poly::lagrange::{barycentric_weights, deriv_matrix, lagrange_eval};
use sem_poly::quad::gauss_lobatto;

/// A converged Orr–Sommerfeld eigenpair for plane Poiseuille flow.
#[derive(Clone, Debug)]
pub struct OrrSommerfeld {
    /// Streamwise wavenumber α.
    pub alpha: f64,
    /// Reynolds number (centerline velocity and channel half-width).
    pub re: f64,
    /// Complex phase speed `c`; `Im(c) > 0` means instability.
    pub c: Complex,
    /// Collocation points in `[-1, 1]` (ascending).
    pub y: Vec<f64>,
    /// Eigenfunction φ at the collocation points.
    pub phi: Vec<Complex>,
    /// φ' at the collocation points.
    pub dphi: Vec<Complex>,
    /// Inverse-iteration steps taken.
    pub iterations: usize,
}

impl OrrSommerfeld {
    /// Amplitude growth rate `ω_i = α·Im(c)` of the TS wave.
    pub fn growth_rate(&self) -> f64 {
        self.alpha * self.c.im
    }

    /// Angular frequency `ω_r = α·Re(c)`.
    pub fn frequency(&self) -> f64 {
        self.alpha * self.c.re
    }

    /// Evaluate the perturbation velocity `(u', v')` of the TS wave of
    /// unit amplitude at `(x, y)` and time `t`:
    /// `u' = Re{φ'(y) E}`, `v' = Re{−iα φ(y) E}`, `E = e^{iα(x−ct)}`.
    pub fn velocity_at(&self, x: f64, y: f64, t: f64) -> (f64, f64) {
        let (phi, dphi) = self.sample(y);
        let arg = Complex::new(0.0, self.alpha * x) + (-Complex::I * self.c).scale(self.alpha * t);
        let e = arg.exp();
        let u = (dphi * e).re;
        let v = ((-Complex::I).scale(self.alpha) * phi * e).re;
        (u, v)
    }

    /// Interpolate `(φ, φ')` to an arbitrary `y ∈ [-1, 1]`.
    pub fn sample(&self, y: f64) -> (Complex, Complex) {
        let bary = barycentric_weights(&self.y);
        let h = lagrange_eval(&self.y, &bary, y);
        let mut phi = Complex::ZERO;
        let mut dphi = Complex::ZERO;
        for (k, &hk) in h.iter().enumerate() {
            phi += self.phi[k].scale(hk);
            dphi += self.dphi[k].scale(hk);
        }
        (phi, dphi)
    }
}

/// A reasonable inverse-iteration shift for the wall (TS) mode of plane
/// Poiseuille flow at moderate `Re` (the branch the paper's Table 1
/// tracks).
pub fn wall_mode_shift(_re: f64, _alpha: f64) -> Complex {
    Complex::new(0.25, 0.0)
}

/// Solve the Orr–Sommerfeld problem at `(re, alpha)` with `n+1`
/// collocation points, targeting the eigenvalue nearest `shift`.
///
/// # Panics
/// Panics if inverse iteration fails to converge (bad shift) or `n < 8`.
pub fn solve_orr_sommerfeld(re: f64, alpha: f64, n: usize, shift: Complex) -> OrrSommerfeld {
    assert!(n >= 8, "need at least 9 collocation points");
    let rule = gauss_lobatto(n + 1);
    let y = rule.points;
    let np = n + 1;
    let d1 = deriv_matrix(&y);
    let d2 = d1.matmul(&d1);
    let d4 = d2.matmul(&d2);

    // Base flow U = 1 − y², U'' = −2.
    let u: Vec<f64> = y.iter().map(|&v| 1.0 - v * v).collect();
    let upp = -2.0;

    // A φ = c B φ with
    // A = U∘(D2 − α²I) − U''·I − (iαRe)⁻¹ (D4 − 2α²D2 + α⁴I),
    // B = D2 − α²I.
    let inv_iare = Complex::new(0.0, -1.0 / (alpha * re)); // 1/(iαRe) = −i/(αRe)
    let a2 = alpha * alpha;
    let mut a = CMatrix::zeros(np, np);
    let mut b = CMatrix::zeros(np, np);
    for i in 0..np {
        for j in 0..np {
            let eye = if i == j { 1.0 } else { 0.0 };
            let lap = d2[(i, j)] - a2 * eye;
            let visc = d4[(i, j)] - 2.0 * a2 * d2[(i, j)] + a2 * a2 * eye;
            let a_ij = Complex::from(u[i] * lap - upp * eye) - inv_iare.scale(visc);
            *a.get_mut(i, j) = a_ij;
            *b.get_mut(i, j) = Complex::from(lap);
        }
    }
    // Boundary conditions by row replacement: φ(±1) = 0 and φ'(±1) = 0.
    // Rows 0 and n: φ; rows 1 and n−1: φ' (evaluated at the boundaries).
    for j in 0..np {
        *a.get_mut(0, j) = Complex::from(if j == 0 { 1.0 } else { 0.0 });
        *a.get_mut(n, j) = Complex::from(if j == n { 1.0 } else { 0.0 });
        *a.get_mut(1, j) = Complex::from(d1[(0, j)]);
        *a.get_mut(n - 1, j) = Complex::from(d1[(n, j)]);
        *b.get_mut(0, j) = Complex::ZERO;
        *b.get_mut(n, j) = Complex::ZERO;
        *b.get_mut(1, j) = Complex::ZERO;
        *b.get_mut(n - 1, j) = Complex::ZERO;
    }
    let res = inverse_iteration(&a, &b, shift, 1e-13, 200)
        .expect("Orr–Sommerfeld inverse iteration failed to converge");
    let phi = res.vector;
    // φ' by differentiating real and imaginary parts.
    let re_part: Vec<f64> = phi.iter().map(|z| z.re).collect();
    let im_part: Vec<f64> = phi.iter().map(|z| z.im).collect();
    let dre = d1.matvec(&re_part);
    let dim = d1.matvec(&im_part);
    let dphi: Vec<Complex> = dre
        .iter()
        .zip(dim.iter())
        .map(|(&r, &i)| Complex::new(r, i))
        .collect();
    // Normalize to unit peak streamwise velocity |φ'|.
    let peak = dphi.iter().map(|z| z.abs()).fold(0.0_f64, f64::max);
    let scale = if peak > 0.0 { 1.0 / peak } else { 1.0 };
    let phi: Vec<Complex> = phi.iter().map(|z| z.scale(scale)).collect();
    let dphi: Vec<Complex> = dphi.iter().map(|z| z.scale(scale)).collect();
    OrrSommerfeld {
        alpha,
        re,
        c: res.lambda,
        y,
        phi,
        dphi,
        iterations: res.iterations,
    }
}

/// The Table 1 reference: leading TS eigenpair at `Re = 7500`, `α = 1`
/// (resolution chosen for ~9-digit eigenvalue accuracy).
pub fn table1_reference() -> OrrSommerfeld {
    solve_orr_sommerfeld(7500.0, 1.0, 96, wall_mode_shift(7500.0, 1.0))
}

/// Evaluate the parabolic base flow `U(y) = 1 − y²`.
pub fn poiseuille(y: f64) -> f64 {
    1.0 - y * y
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Orszag (1971): at Re = 10000, α = 1 the leading eigenvalue is
    /// c = 0.23752649 + 0.00373967i.
    #[test]
    fn orszag_benchmark_eigenvalue() {
        let os = solve_orr_sommerfeld(10000.0, 1.0, 96, Complex::new(0.237, 0.0037));
        assert!((os.c.re - 0.23752649).abs() < 1e-6, "c_r = {}", os.c.re);
        assert!((os.c.im - 0.00373967).abs() < 1e-6, "c_i = {}", os.c.im);
    }

    #[test]
    fn re7500_wall_mode_is_unstable() {
        let os = table1_reference();
        // Fischer (JCP 1997) quotes growth rate 0.00223497 for this case.
        assert!(
            (os.growth_rate() - 0.00223497).abs() < 2e-6,
            "growth rate {}",
            os.growth_rate()
        );
        assert!((os.c.re - 0.2499).abs() < 1e-3, "c_r = {}", os.c.re);
    }

    #[test]
    fn low_re_is_stable() {
        let os = solve_orr_sommerfeld(2000.0, 1.0, 80, Complex::new(0.3, -0.02));
        assert!(os.c.im < 0.0, "c = {:?}", os.c);
    }

    #[test]
    fn eigenfunction_satisfies_clamped_bcs() {
        let os = table1_reference();
        let n = os.y.len() - 1;
        assert!(os.phi[0].abs() < 1e-8);
        assert!(os.phi[n].abs() < 1e-8);
        assert!(os.dphi[0].abs() < 1e-7);
        assert!(os.dphi[n].abs() < 1e-7);
    }

    #[test]
    fn eigenvalue_converged_in_resolution() {
        let c1 = solve_orr_sommerfeld(7500.0, 1.0, 80, wall_mode_shift(7500.0, 1.0)).c;
        let c2 = solve_orr_sommerfeld(7500.0, 1.0, 110, wall_mode_shift(7500.0, 1.0)).c;
        assert!((c1 - c2).abs() < 1e-7, "{c1:?} vs {c2:?}");
    }

    #[test]
    fn velocity_field_is_divergence_free_analytically() {
        // u = ∂ψ/∂y, v = −∂ψ/∂x ⇒ ∇·u = 0 by construction; check
        // numerically with finite differences of velocity_at.
        let os = table1_reference();
        let h = 1e-5;
        for &(x, y) in &[(0.3, 0.2), (0.7, -0.5), (0.1, 0.8)] {
            let (u_xp, _) = os.velocity_at(x + h, y, 0.0);
            let (u_xm, _) = os.velocity_at(x - h, y, 0.0);
            let (_, v_yp) = os.velocity_at(x, y + h, 0.0);
            let (_, v_ym) = os.velocity_at(x, y - h, 0.0);
            let div = (u_xp - u_xm) / (2.0 * h) + (v_yp - v_ym) / (2.0 * h);
            assert!(div.abs() < 1e-5, "div at ({x},{y}) = {div}");
        }
    }

    #[test]
    fn wave_is_periodic_in_x_with_wavelength_2pi_over_alpha() {
        let os = table1_reference();
        let lx = 2.0 * std::f64::consts::PI / os.alpha;
        let (u1, v1) = os.velocity_at(0.4, 0.3, 0.0);
        let (u2, v2) = os.velocity_at(0.4 + lx, 0.3, 0.0);
        assert!((u1 - u2).abs() < 1e-10);
        assert!((v1 - v2).abs() < 1e-10);
    }

    #[test]
    fn normalization_peak_unit_u() {
        let os = table1_reference();
        let peak = os.dphi.iter().map(|z| z.abs()).fold(0.0_f64, f64::max);
        assert!((peak - 1.0).abs() < 1e-12);
    }
}
