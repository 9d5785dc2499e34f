//! Element geometry: GLL nodal coordinates, Jacobians, and the geometric
//! factors of Eq. 4.
//!
//! Each element carries an isoparametric coordinate mapping
//! `x^k(r,s[,t])` from the reference cube `[-1,1]^d`. By default the
//! mapping is multilinear in the element's vertices; generators of curved
//! meshes (the annulus, the bump channel) supply an analytic mapping
//! closure instead. All metric quantities are evaluated by spectral
//! differentiation of the nodal coordinates — the standard SEM
//! isoparametric treatment, valid for deformed elements.
//!
//! Stored per GLL node:
//! * `jac` — the Jacobian determinant `J` (positive for well-oriented
//!   elements);
//! * `bm` — the diagonal mass factor `w_i w_j (w_k) · J` (the matrix `B`);
//! * `g` — the symmetric geometric factor matrix `G_ij` of Eq. 4
//!   (3 entries in 2D: `G_rr, G_rs, G_ss`; 6 in 3D:
//!   `G_rr, G_rs, G_rt, G_ss, G_st, G_tt`) with quadrature weights
//!   folded in;
//! * `drdx` — the inverse mapping derivatives `∂r_i/∂x_j` used by the
//!   gradient and convection operators.

use crate::topology::Mesh;
use sem_linalg::tensor::{apply_x, apply_y_2d, apply_y_3d, apply_z_3d};
use sem_linalg::Matrix;
use sem_poly::lagrange::deriv_matrix;
use sem_poly::quad::{gauss_lobatto, QuadRule};

/// Geometry of a mesh at a fixed polynomial order `N`.
#[derive(Clone, Debug)]
pub struct Geometry {
    /// Spatial dimension (2 or 3).
    pub dim: usize,
    /// Polynomial order `N`.
    pub n: usize,
    /// Points per direction, `N+1`.
    pub nx: usize,
    /// Points per element, `(N+1)^d`.
    pub npts: usize,
    /// Number of elements.
    pub k: usize,
    /// GLL nodal x coordinates, `k * npts`, x index fastest.
    pub x: Vec<f64>,
    /// GLL nodal y coordinates.
    pub y: Vec<f64>,
    /// GLL nodal z coordinates (zeros in 2D).
    pub z: Vec<f64>,
    /// Jacobian determinant per node.
    pub jac: Vec<f64>,
    /// Diagonal mass factor per node (weights × J).
    pub bm: Vec<f64>,
    /// Geometric factors per node: 3 components in 2D, 6 in 3D,
    /// node-major (`[elem][node][comp]`).
    pub g: Vec<f64>,
    /// Inverse map derivatives per node: `d²` components
    /// (`∂r/∂x, ∂r/∂y, …` row-major), node-major.
    pub drdx: Vec<f64>,
    /// The 1D GLL rule.
    pub gll: QuadRule,
    /// 1D spectral differentiation matrix `D̂` on the GLL points.
    pub d1: Matrix,
    /// Transpose of `D̂` (precomputed for the tensor kernels).
    pub d1t: Matrix,
}

impl Geometry {
    /// Isoparametric geometry with the default multilinear vertex mapping.
    pub fn new(mesh: &Mesh, n: usize) -> Self {
        let verts = mesh.verts.clone();
        let elems = mesh.elems.clone();
        let dim = mesh.dim;
        Self::with_mapping(mesh, n, move |e, rst| {
            multilinear(dim, &verts, &elems[e], rst)
        })
    }

    /// Isoparametric geometry with a custom mapping
    /// `f(element, &[r,s,t]) -> [x,y,z]` (curved elements).
    ///
    /// # Panics
    /// Panics if `n < 1` or any element has non-positive Jacobian.
    pub fn with_mapping(mesh: &Mesh, n: usize, f: impl Fn(usize, &[f64; 3]) -> [f64; 3]) -> Self {
        assert!(n >= 1, "polynomial order must be at least 1");
        let dim = mesh.dim;
        let nx = n + 1;
        let npts = nx.pow(dim as u32);
        let k = mesh.num_elems();
        let gll = gauss_lobatto(nx);
        let d1 = deriv_matrix(&gll.points);
        let d1t = d1.transpose();

        let mut x = vec![0.0; k * npts];
        let mut y = vec![0.0; k * npts];
        let mut z = vec![0.0; k * npts];
        for e in 0..k {
            for idx in 0..npts {
                let (i, j, kk) = split_index(idx, nx, dim);
                let rst = [
                    gll.points[i],
                    gll.points[j],
                    if dim == 3 { gll.points[kk] } else { 0.0 },
                ];
                let p = f(e, &rst);
                x[e * npts + idx] = p[0];
                y[e * npts + idx] = p[1];
                z[e * npts + idx] = p[2];
            }
        }

        let mut geo = Geometry {
            dim,
            n,
            nx,
            npts,
            k,
            x,
            y,
            z,
            jac: vec![0.0; k * npts],
            bm: vec![0.0; k * npts],
            g: vec![0.0; k * npts * if dim == 2 { 3 } else { 6 }],
            drdx: vec![0.0; k * npts * dim * dim],
            gll,
            d1,
            d1t,
        };
        geo.compute_metrics();
        geo
    }

    /// Differentiate an element-local field along each reference axis.
    fn local_grad(&self, u: &[f64], dr: &mut [f64], ds: &mut [f64], dt: &mut [f64]) {
        let nx = self.nx;
        if self.dim == 2 {
            apply_x(&self.d1t, nx, u, dr);
            apply_y_2d(&self.d1, nx, u, ds);
        } else {
            apply_x(&self.d1t, nx * nx, u, dr);
            apply_y_3d(&self.d1, nx, nx, u, ds);
            apply_z_3d(&self.d1, nx * nx, u, dt);
        }
    }

    fn compute_metrics(&mut self) {
        let npts = self.npts;
        let dim = self.dim;
        let nx = self.nx;
        let mut xr = vec![0.0; npts];
        let mut xs = vec![0.0; npts];
        let mut xt = vec![0.0; npts];
        let mut yr = vec![0.0; npts];
        let mut ys = vec![0.0; npts];
        let mut yt = vec![0.0; npts];
        let mut zr = vec![0.0; npts];
        let mut zs = vec![0.0; npts];
        let mut zt = vec![0.0; npts];
        for e in 0..self.k {
            let xe = &self.x[e * npts..(e + 1) * npts].to_vec();
            let ye = &self.y[e * npts..(e + 1) * npts].to_vec();
            self.local_grad(xe, &mut xr, &mut xs, &mut xt);
            self.local_grad(ye, &mut yr, &mut ys, &mut yt);
            if dim == 3 {
                let ze = &self.z[e * npts..(e + 1) * npts].to_vec();
                self.local_grad(ze, &mut zr, &mut zs, &mut zt);
            }
            for idx in 0..npts {
                let (i, j, kk) = split_index(idx, nx, dim);
                let w = if dim == 2 {
                    self.gll.weights[i] * self.gll.weights[j]
                } else {
                    self.gll.weights[i] * self.gll.weights[j] * self.gll.weights[kk]
                };
                let node = e * npts + idx;
                if dim == 2 {
                    let jdet = xr[idx] * ys[idx] - xs[idx] * yr[idx];
                    assert!(
                        jdet > 0.0,
                        "non-positive Jacobian {jdet} in element {e} node {idx}"
                    );
                    let rx = ys[idx] / jdet;
                    let ry = -xs[idx] / jdet;
                    let sx = -yr[idx] / jdet;
                    let sy = xr[idx] / jdet;
                    self.jac[node] = jdet;
                    self.bm[node] = w * jdet;
                    let wj = w * jdet;
                    let gbase = node * 3;
                    self.g[gbase] = wj * (rx * rx + ry * ry);
                    self.g[gbase + 1] = wj * (rx * sx + ry * sy);
                    self.g[gbase + 2] = wj * (sx * sx + sy * sy);
                    let dbase = node * 4;
                    self.drdx[dbase] = rx;
                    self.drdx[dbase + 1] = ry;
                    self.drdx[dbase + 2] = sx;
                    self.drdx[dbase + 3] = sy;
                } else {
                    // Cofactor inverse of the 3×3 Jacobian matrix.
                    let a = [
                        [xr[idx], xs[idx], xt[idx]],
                        [yr[idx], ys[idx], yt[idx]],
                        [zr[idx], zs[idx], zt[idx]],
                    ];
                    let jdet = a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
                    assert!(
                        jdet > 0.0,
                        "non-positive Jacobian {jdet} in element {e} node {idx}"
                    );
                    // dr_i/dx_j = cofactor(a)_ji / det.
                    let rx = (a[1][1] * a[2][2] - a[1][2] * a[2][1]) / jdet;
                    let ry = -(a[0][1] * a[2][2] - a[0][2] * a[2][1]) / jdet;
                    let rz = (a[0][1] * a[1][2] - a[0][2] * a[1][1]) / jdet;
                    let sx = -(a[1][0] * a[2][2] - a[1][2] * a[2][0]) / jdet;
                    let sy = (a[0][0] * a[2][2] - a[0][2] * a[2][0]) / jdet;
                    let sz = -(a[0][0] * a[1][2] - a[0][2] * a[1][0]) / jdet;
                    let tx = (a[1][0] * a[2][1] - a[1][1] * a[2][0]) / jdet;
                    let ty = -(a[0][0] * a[2][1] - a[0][1] * a[2][0]) / jdet;
                    let tz = (a[0][0] * a[1][1] - a[0][1] * a[1][0]) / jdet;
                    self.jac[node] = jdet;
                    self.bm[node] = w * jdet;
                    let wj = w * jdet;
                    let gbase = node * 6;
                    self.g[gbase] = wj * (rx * rx + ry * ry + rz * rz); // G_rr
                    self.g[gbase + 1] = wj * (rx * sx + ry * sy + rz * sz); // G_rs
                    self.g[gbase + 2] = wj * (rx * tx + ry * ty + rz * tz); // G_rt
                    self.g[gbase + 3] = wj * (sx * sx + sy * sy + sz * sz); // G_ss
                    self.g[gbase + 4] = wj * (sx * tx + sy * ty + sz * tz); // G_st
                    self.g[gbase + 5] = wj * (tx * tx + ty * ty + tz * tz); // G_tt
                    let dbase = node * 9;
                    let d = [rx, ry, rz, sx, sy, sz, tx, ty, tz];
                    self.drdx[dbase..dbase + 9].copy_from_slice(&d);
                }
            }
        }
    }

    /// Total measure (area/volume) of the mesh: `Σ bm`.
    pub fn total_measure(&self) -> f64 {
        self.bm.iter().sum()
    }

    /// Approximate per-element extents `(Lx, Ly, Lz)` — side lengths of
    /// the element's bounding box. Used by the Schwarz local solves to
    /// build rectilinear surrogates for deformed elements (§5).
    pub fn element_extents(&self, e: usize) -> [f64; 3] {
        let lo_hi = |c: &[f64]| {
            let s = &c[e * self.npts..(e + 1) * self.npts];
            let lo = s.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        };
        [
            lo_hi(&self.x),
            lo_hi(&self.y),
            if self.dim == 3 { lo_hi(&self.z) } else { 0.0 },
        ]
    }
}

/// Split a flat node index into `(i, j, k)` with x fastest.
#[inline]
pub fn split_index(idx: usize, nx: usize, dim: usize) -> (usize, usize, usize) {
    let i = idx % nx;
    let j = (idx / nx) % nx;
    let k = if dim == 3 { idx / (nx * nx) } else { 0 };
    (i, j, k)
}

/// Multilinear (bilinear/trilinear) mapping from element vertices.
pub fn multilinear(dim: usize, verts: &[[f64; 3]], elem: &[usize], rst: &[f64; 3]) -> [f64; 3] {
    let nv = 1 << dim;
    debug_assert_eq!(elem.len(), nv);
    let mut p = [0.0; 3];
    for (v, &vid) in elem.iter().enumerate() {
        let mut w = 1.0;
        for axis in 0..dim {
            let side = (v >> axis) & 1;
            let t = rst[axis];
            w *= if side == 0 {
                (1.0 - t) / 2.0
            } else {
                (1.0 + t) / 2.0
            };
        }
        for d in 0..3 {
            p[d] += w * verts[vid][d];
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::BcTag;

    fn unit_square() -> Mesh {
        Mesh {
            dim: 2,
            verts: vec![[0., 0., 0.], [1., 0., 0.], [0., 1., 0.], [1., 1., 0.]],
            elems: vec![vec![0, 1, 2, 3]],
            face_bc: vec![[BcTag::Dirichlet; 6]],
            periodic: [None; 3],
        }
    }

    fn unit_cube() -> Mesh {
        let mut verts = Vec::new();
        for k in 0..2 {
            for j in 0..2 {
                for i in 0..2 {
                    verts.push([i as f64, j as f64, k as f64]);
                }
            }
        }
        Mesh {
            dim: 3,
            verts,
            elems: vec![(0..8).collect()],
            face_bc: vec![[BcTag::Dirichlet; 6]],
            periodic: [None; 3],
        }
    }

    #[test]
    fn unit_square_metrics() {
        let geo = Geometry::new(&unit_square(), 4);
        // Affine map [-1,1]² → [0,1]²: J = 1/4 everywhere.
        for &j in &geo.jac {
            assert!((j - 0.25).abs() < 1e-12);
        }
        assert!((geo.total_measure() - 1.0).abs() < 1e-12);
        // dr/dx = 2, dr/dy = 0, ds/dx = 0, ds/dy = 2.
        for node in 0..geo.npts {
            let d = &geo.drdx[node * 4..node * 4 + 4];
            assert!((d[0] - 2.0).abs() < 1e-12);
            assert!(d[1].abs() < 1e-12);
            assert!(d[2].abs() < 1e-12);
            assert!((d[3] - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_cube_metrics() {
        let geo = Geometry::new(&unit_cube(), 3);
        for &j in &geo.jac {
            assert!((j - 0.125).abs() < 1e-12);
        }
        assert!((geo.total_measure() - 1.0).abs() < 1e-12);
        // G_rr = w·J·(2²) etc.; off-diagonal G vanish for the affine box.
        for node in 0..geo.npts {
            let g = &geo.g[node * 6..node * 6 + 6];
            assert!(g[1].abs() < 1e-12 && g[2].abs() < 1e-12 && g[4].abs() < 1e-12);
            assert!(g[0] > 0.0 && g[3] > 0.0 && g[5] > 0.0);
        }
    }

    #[test]
    fn stretched_element_jacobian() {
        // Map to [0,2]×[0,0.5]: J = (2/2)·(0.5/2) = 0.25... actually
        // x_r = 1, y_s = 0.25 ⇒ J = 0.25; area 1.
        let mut m = unit_square();
        m.verts = vec![[0., 0., 0.], [2., 0., 0.], [0., 0.5, 0.], [2., 0.5, 0.]];
        let geo = Geometry::new(&m, 3);
        for &j in &geo.jac {
            assert!((j - 0.25).abs() < 1e-12);
        }
        assert!((geo.total_measure() - 1.0).abs() < 1e-12);
        let ext = geo.element_extents(0);
        assert!((ext[0] - 2.0).abs() < 1e-12);
        assert!((ext[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn curved_quarter_annulus_area() {
        // One element mapped onto the quarter annulus 1 ≤ ρ ≤ 2,
        // 0 ≤ θ ≤ π/2: area = π(4−1)/4.
        let m = unit_square();
        let geo = Geometry::with_mapping(&m, 12, |_, rst| {
            let rho = 1.5 + 0.5 * rst[0];
            let th = std::f64::consts::FRAC_PI_4 * (rst[1] + 1.0);
            [rho * th.cos(), rho * th.sin(), 0.0]
        });
        let want = std::f64::consts::PI * 3.0 / 4.0;
        assert!(
            (geo.total_measure() - want).abs() < 1e-8,
            "area {} want {want}",
            geo.total_measure()
        );
    }

    #[test]
    fn drdx_is_inverse_of_dxdr() {
        // For the curved mapping, check (∂r/∂x)·(∂x/∂r) = I at every node
        // by differentiating the coordinate fields numerically through the
        // stored factors: apply chain rule to the linear field u = x.
        let m = unit_square();
        let geo = Geometry::with_mapping(&m, 8, |_, rst| {
            let rho = 1.5 + 0.5 * rst[0];
            let th = std::f64::consts::FRAC_PI_4 * (rst[1] + 1.0);
            [rho * th.cos(), rho * th.sin(), 0.0]
        });
        // du/dx where u = x should be 1; where u = y should be 0.
        let nx = geo.nx;
        let npts = geo.npts;
        let mut xr = vec![0.0; npts];
        let mut xs = vec![0.0; npts];
        apply_x(&geo.d1t, nx, &geo.x[..npts], &mut xr);
        apply_y_2d(&geo.d1, nx, &geo.x[..npts], &mut xs);
        for node in 0..npts {
            let d = &geo.drdx[node * 4..node * 4 + 4];
            let dxdx = d[0] * xr[node] + d[2] * xs[node];
            let dxdy = d[1] * xr[node] + d[3] * xs[node];
            assert!((dxdx - 1.0).abs() < 1e-9, "node {node}: {dxdx}");
            assert!(dxdy.abs() < 1e-9, "node {node}: {dxdy}");
        }
    }

    #[test]
    #[should_panic(expected = "non-positive Jacobian")]
    fn inverted_element_panics() {
        let mut m = unit_square();
        // Swap two vertices to invert orientation.
        m.elems[0] = vec![1, 0, 3, 2];
        let _ = Geometry::new(&m, 2);
    }

    #[test]
    fn split_index_roundtrip() {
        let nx = 5;
        for idx in 0..125 {
            let (i, j, k) = split_index(idx, nx, 3);
            assert_eq!((k * nx + j) * nx + i, idx);
        }
        let (i, j, k) = split_index(17, 5, 2);
        assert_eq!((i, j, k), (2, 3, 0));
    }
}
