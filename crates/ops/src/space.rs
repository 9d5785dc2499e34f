//! The discretization bundle.

use sem_gs::{GsHandle, GsOp};
use sem_linalg::Matrix;
use sem_mesh::numbering::dirichlet_mask;
use sem_mesh::{Geometry, GlobalNumbering, Mesh};
use sem_poly::lagrange::interp_matrix;
use sem_poly::quad::gauss;

/// Everything needed to apply spectral element operators on one mesh at
/// one polynomial order: geometry and metric factors, global numbering,
/// the gather-scatter handle, the unified Dirichlet mask, the assembled
/// mass diagonal, and the `P_N ↔ P_{N−2}` pressure-grid machinery.
///
/// # Examples
///
/// ```
/// use sem_mesh::generators::box2d;
/// use sem_ops::SemOps;
/// let mesh = box2d(4, 4, [0.0, 1.0], [0.0, 1.0], false, false);
/// let ops = SemOps::new(mesh, 8); // K = 16 elements, order N = 8
/// assert_eq!(ops.k(), 16);
/// assert_eq!(ops.num.n_global, 33 * 33); // unique C⁰ dofs
/// assert_eq!(ops.n_pressure(), 16 * 7 * 7); // interior Gauss grid
/// ```
pub struct SemOps {
    /// The mesh topology.
    pub mesh: Mesh,
    /// Geometry and metric factors at order `N`.
    pub geo: Geometry,
    /// Global numbering of velocity (GLL) dofs.
    pub num: GlobalNumbering,
    /// Gather-scatter handle over the velocity dofs, its fold split over
    /// the element blocks of the element loops.
    pub gs: GsHandle,
    /// Unified Dirichlet mask: 0.0 on Dirichlet nodes (consistent across
    /// all element copies), 1.0 elsewhere.
    pub mask: Vec<f64>,
    /// Quadrature weight per local node for global inner products:
    /// `1/multiplicity`, so redundant copies count once.
    pub wt: Vec<f64>,
    /// Assembled (gather-scattered) mass diagonal, consistent across
    /// copies — the invertible `B` of `E = D B⁻¹ Dᵀ`.
    pub bm_assembled: Vec<f64>,
    /// Pressure points per direction, `N−1`.
    pub ngp: usize,
    /// Pressure points per element, `(N−1)^d`.
    pub npts_p: usize,
    /// Interpolation from the GLL grid to the interior Gauss grid
    /// (`ngp × (N+1)`).
    pub interp_vp: Matrix,
    /// Its transpose.
    pub interp_vp_t: Matrix,
    /// Gauss-grid quadrature weights × interpolated Jacobian, per
    /// pressure node (the pressure-space mass diagonal).
    pub jw_gauss: Vec<f64>,
    /// The Dirichlet nodes that belong to no gather-scatter group,
    /// ascending: [`SemOps::dssum_mask`] masks them beside the fold.
    unshared_masked: Vec<u32>,
}

impl SemOps {
    /// Build the discretization for `mesh` with precomputed `geo`
    /// (curved meshes) at geometry order `N ≥ 2` (pressure space needs
    /// `N−1 ≥ 1`).
    pub fn with_geometry(mesh: Mesh, geo: Geometry) -> Self {
        assert!(
            geo.n >= 2,
            "SemOps requires N ≥ 2 for the P_{{N-2}} pressure space"
        );
        let num = GlobalNumbering::new(&mesh, &geo);
        let gs = GsHandle::for_elements(&num.ids, geo.npts);
        // Unify the element-local Dirichlet mask across shared nodes.
        let mut mask = dirichlet_mask(&mesh, &geo);
        gs.gs(&mut mask, GsOp::Min);
        let unshared_masked = (0..mask.len())
            .filter(|&i| num.multiplicity[num.ids[i]] < 2 && mask[i] != 1.0)
            .map(|i| i as u32)
            .collect();
        let wt: Vec<f64> = num
            .ids
            .iter()
            .map(|&id| 1.0 / num.multiplicity[id] as f64)
            .collect();
        let mut bm_assembled = geo.bm.clone();
        gs.gs(&mut bm_assembled, GsOp::Add);

        // Pressure (interior Gauss) machinery.
        let ngp = geo.n - 1;
        let npts_p = ngp.pow(geo.dim as u32);
        let gauss_rule = gauss(ngp);
        let interp_vp = interp_matrix(&geo.gll.points, &gauss_rule.points);
        let interp_vp_t = interp_vp.transpose();
        // J at Gauss points: interpolate the GLL jacobian elementwise.
        let k = geo.k;
        let mut jw_gauss = vec![0.0; k * npts_p];
        let nx = geo.nx;
        let mut work = vec![0.0; nx.max(ngp).pow(3) * 2 + 16];
        for e in 0..k {
            let jac_e = &geo.jac[e * geo.npts..(e + 1) * geo.npts];
            let out = &mut jw_gauss[e * npts_p..(e + 1) * npts_p];
            interp_to_gauss(geo.dim, &interp_vp, &interp_vp_t, jac_e, out, &mut work);
            // Multiply by Gauss weights.
            for (idx, v) in out.iter_mut().enumerate() {
                let (i, j, kk) = sem_mesh::geom::split_index(idx, ngp, geo.dim);
                let w = if geo.dim == 2 {
                    gauss_rule.weights[i] * gauss_rule.weights[j]
                } else {
                    gauss_rule.weights[i] * gauss_rule.weights[j] * gauss_rule.weights[kk]
                };
                *v *= w;
            }
        }

        SemOps {
            mesh,
            geo,
            num,
            gs,
            mask,
            wt,
            bm_assembled,
            ngp,
            npts_p,
            interp_vp,
            interp_vp_t,
            jw_gauss,
            unshared_masked,
        }
    }

    /// Build with the default multilinear (straight-sided) geometry.
    pub fn new(mesh: Mesh, n: usize) -> Self {
        let geo = Geometry::new(&mesh, n);
        Self::with_geometry(mesh, geo)
    }

    /// Number of elements.
    pub fn k(&self) -> usize {
        self.geo.k
    }

    /// Velocity-space local vector length (`K (N+1)^d`).
    pub fn n_velocity(&self) -> usize {
        self.geo.k * self.geo.npts
    }

    /// Pressure-space vector length (`K (N−1)^d`).
    pub fn n_pressure(&self) -> usize {
        self.geo.k * self.npts_p
    }

    /// Direct-stiffness assembly: gather-scatter `Add` then apply the
    /// Dirichlet mask (the standard post-matvec step of every solve).
    /// One parallel region: the fold writes `sum·mask` to every copy of
    /// a shared node, and each block masks its own unshared Dirichlet
    /// nodes ([`GsHandle::gs_masked`]).
    pub fn dssum_mask(&self, u: &mut [f64]) {
        self.gs.gs_masked(u, &self.mask, &self.unshared_masked);
    }

    /// Gather-scatter `Add` without masking (e.g. for Neumann problems).
    pub fn dssum(&self, u: &mut [f64]) {
        self.gs.gs(u, GsOp::Add);
    }
}

/// Interpolate an element-local velocity-grid field to the Gauss grid
/// (tensor application of the rectangular interpolation matrix).
pub fn interp_to_gauss(
    dim: usize,
    interp: &Matrix,
    interp_t: &Matrix,
    u: &[f64],
    out: &mut [f64],
    work: &mut [f64],
) {
    if dim == 2 {
        sem_linalg::tensor::kron2_apply(interp, interp_t, u, out, work);
    } else {
        sem_linalg::tensor::kron3_apply(interp, interp, interp_t, u, out, work);
    }
}

/// Interpolate (transpose) from the Gauss grid back to the velocity grid.
pub fn interp_from_gauss(
    dim: usize,
    interp: &Matrix,
    interp_t: &Matrix,
    p: &[f64],
    out: &mut [f64],
    work: &mut [f64],
) {
    // The transpose of (J ⊗ J): apply Jᵀ along each direction, i.e. swap
    // the roles of interp and interp_t.
    if dim == 2 {
        sem_linalg::tensor::kron2_apply(interp_t, interp, p, out, work);
    } else {
        sem_linalg::tensor::kron3_apply(interp_t, interp_t, interp, p, out, work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_mesh::generators::box2d;

    fn ops2d() -> SemOps {
        let mesh = box2d(2, 2, [0.0, 1.0], [0.0, 1.0], false, false);
        SemOps::new(mesh, 5)
    }

    #[test]
    fn sizes_are_consistent() {
        let ops = ops2d();
        assert_eq!(ops.k(), 4);
        assert_eq!(ops.n_velocity(), 4 * 36);
        assert_eq!(ops.n_pressure(), 4 * 16);
        assert_eq!(ops.ngp, 4);
    }

    #[test]
    fn mask_is_consistent_across_copies() {
        let ops = ops2d();
        // After unification, copies of the same global dof agree.
        for (local, &id) in ops.num.ids.iter().enumerate() {
            for (other, &id2) in ops.num.ids.iter().enumerate() {
                if id == id2 {
                    assert_eq!(ops.mask[local], ops.mask[other]);
                }
            }
        }
        // All four outer boundaries Dirichlet: boundary global dofs = (every
        // node on the outline). Interior corner node at (0.5, 0.5) is free.
        let n_masked_globals: usize = {
            let mut seen = vec![false; ops.num.n_global];
            let mut cnt = 0;
            for (local, &id) in ops.num.ids.iter().enumerate() {
                if !seen[id] {
                    seen[id] = true;
                    if ops.mask[local] == 0.0 {
                        cnt += 1;
                    }
                }
            }
            cnt
        };
        // Boundary of an 11×11 global grid: 4·10 = 40.
        assert_eq!(n_masked_globals, 40);
    }

    #[test]
    fn wt_sums_to_global_count() {
        let ops = ops2d();
        let total: f64 = ops.wt.iter().sum();
        assert!((total - ops.num.n_global as f64).abs() < 1e-9);
    }

    #[test]
    fn assembled_mass_sums_measure_once() {
        let ops = ops2d();
        // Σ wt · bm_assembled = Σ_global bm = area.
        let s: f64 = ops
            .wt
            .iter()
            .zip(ops.bm_assembled.iter())
            .map(|(w, b)| w * b)
            .sum();
        assert!((s - 1.0).abs() < 1e-12, "area {s}");
    }

    #[test]
    fn jw_gauss_sums_to_measure() {
        let ops = ops2d();
        // Gauss quadrature of 1 over the domain = area.
        let s: f64 = ops.jw_gauss.iter().sum();
        assert!((s - 1.0).abs() < 1e-10, "area {s}");
    }

    #[test]
    fn interp_roundtrip_transpose_identity() {
        // ⟨I u, p⟩_gauss = ⟨u, Iᵀ p⟩_gll for arbitrary vectors.
        let ops = ops2d();
        let nv = ops.geo.npts;
        let np = ops.npts_p;
        let u: Vec<f64> = (0..nv).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let p: Vec<f64> = (0..np).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
        let mut work = vec![0.0; 4 * nv];
        let mut iu = vec![0.0; np];
        interp_to_gauss(2, &ops.interp_vp, &ops.interp_vp_t, &u, &mut iu, &mut work);
        let mut itp = vec![0.0; nv];
        interp_from_gauss(2, &ops.interp_vp, &ops.interp_vp_t, &p, &mut itp, &mut work);
        let lhs: f64 = iu.iter().zip(p.iter()).map(|(a, b)| a * b).sum();
        let rhs: f64 = u.iter().zip(itp.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()));
    }
}
