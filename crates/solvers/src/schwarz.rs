//! Additive overlapping Schwarz preconditioner for the pressure operator
//! (§5; Dryja–Widlund, spectral element form of refs [9, 10]).
//!
//! `M₀⁻¹ = R₀ᵀ A₀⁻¹ R₀ + Σ_k Rkᵀ Ãk⁻¹ Rk`
//!
//! Local problems live on each element's interior Gauss (pressure) grid
//! extended by `overlap` gridpoints through every interior face (Fig. 5,
//! right): extension values come from the neighbouring element's first
//! interior layers, corner extensions are set to zero by `Rk`, and
//! homogeneous Dirichlet conditions are applied one node beyond the
//! extension. Local operators are low-order FE Laplacians in Kronecker-sum
//! form on a rectilinear surrogate of the (possibly deformed) element —
//! "it suffices for preconditioning purposes" (§5) — solved either by
//! fast diagonalization ([`crate::fdm`]) or by a direct Cholesky
//! factorization (the "FEM" organization of Table 2).
//!
//! Overlapping exchange is implemented for 2D (the Table 2 study);
//! 3D discretizations use non-overlapping local solves plus the coarse
//! grid (documented substitution — see DESIGN.md).

use crate::coarse::CoarseSolver;
use crate::fdm::{extended_nodes_1d, Fdm1d, FdmElement};
use sem_linalg::chol::Cholesky;
use sem_linalg::Matrix;
use sem_ops::SemOps;
use sem_poly::ops1d::{dirichlet_interior, fe_mass_lumped, fe_stiffness};
use sem_poly::quad::gauss;
use std::collections::HashMap;

/// How each element's local problem is solved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalKind {
    /// Fast diagonalization (tensor eigenbases) — the paper's FDM column.
    Fdm,
    /// Direct Cholesky factorization of the assembled local operator —
    /// stands in for the unstructured-FEM local solves of ref \[9\].
    Fem,
}

/// Schwarz preconditioner configuration (one Table 2 column).
#[derive(Clone, Copy, Debug)]
pub struct SchwarzConfig {
    /// Overlap `N_o` in gridpoints (0 = block Jacobi, 1 = minimal
    /// one-point extension, 3 = generous overlap).
    pub overlap: usize,
    /// Local solver organization.
    pub local: LocalKind,
    /// Include the coarse-grid component (`A₀ = 0` in Table 2 when
    /// false).
    pub use_coarse: bool,
}

impl Default for SchwarzConfig {
    fn default() -> Self {
        SchwarzConfig {
            overlap: 1,
            local: LocalKind::Fdm,
            use_coarse: true,
        }
    }
}

/// Link from one element face to its conforming neighbour.
#[derive(Clone, Copy, Debug)]
struct FaceLink {
    nbr: usize,
    /// Tangential orientation reversed relative to ours.
    reversed: bool,
}

enum LocalSolver {
    Fdm(FdmElement),
    Fem(Cholesky),
}

/// The assembled preconditioner.
pub struct SchwarzPrecond {
    cfg: SchwarzConfig,
    dim: usize,
    ngp: usize,
    ext: usize,
    npts_p: usize,
    links: Vec<[Option<FaceLink>; 6]>,
    locals: Vec<LocalSolver>,
    coarse: Option<CoarseSolver>,
}

impl SchwarzPrecond {
    /// Build the preconditioner for `ops` under `cfg`.
    ///
    /// # Panics
    /// Panics if `overlap > 0` on a 3D mesh (2D-only exchange), if the
    /// overlap exceeds the pressure grid, or if the mesh has
    /// non-opposite-face adjacency (not produced by our generators).
    pub fn new(ops: &SemOps, cfg: SchwarzConfig) -> Self {
        let dim = ops.geo.dim;
        assert!(
            dim == 2 || cfg.overlap == 0,
            "overlapping exchange is implemented for 2D only (see DESIGN.md)"
        );
        let ngp = ops.ngp;
        assert!(
            cfg.overlap + 1 <= ngp,
            "overlap {} too large for {} pressure points",
            cfg.overlap,
            ngp
        );
        let ext = ngp + 2 * cfg.overlap;
        let links = build_links(ops);
        let gr = gauss(ngp);
        let mut locals = Vec::with_capacity(ops.k());
        for e in 0..ops.k() {
            let extents = ops.geo.element_extents(e);
            match cfg.local {
                LocalKind::Fdm => {
                    let dirs: Vec<Fdm1d> = (0..dim)
                        .map(|d| Fdm1d::new(&gr.points, cfg.overlap, extents[d]))
                        .collect();
                    locals.push(LocalSolver::Fdm(FdmElement::new(dirs)));
                }
                LocalKind::Fem => {
                    let ops1d: Vec<(Matrix, Vec<f64>)> = (0..dim)
                        .map(|d| {
                            let nodes = extended_nodes_1d(&gr.points, cfg.overlap);
                            let phys: Vec<f64> =
                                nodes.iter().map(|&x| x * extents[d] / 2.0).collect();
                            let a = dirichlet_interior(&fe_stiffness(&phys), 1, 1);
                            let b_full = fe_mass_lumped(&phys);
                            let b = b_full[1..b_full.len() - 1].to_vec();
                            (a, b)
                        })
                        .collect();
                    let big = if dim == 2 {
                        kron_sum_2d(&ops1d[0].0, &ops1d[0].1, &ops1d[1].0, &ops1d[1].1)
                    } else {
                        // 3D Kronecker sum via the 2D helper twice.
                        kron_sum_3d(
                            &ops1d[0].0,
                            &ops1d[0].1,
                            &ops1d[1].0,
                            &ops1d[1].1,
                            &ops1d[2].0,
                            &ops1d[2].1,
                        )
                    };
                    locals.push(LocalSolver::Fem(
                        Cholesky::new(&big).expect("local FE operator must be SPD"),
                    ));
                }
            }
        }
        let coarse = cfg.use_coarse.then(|| CoarseSolver::new(ops));
        SchwarzPrecond {
            cfg,
            dim,
            ngp,
            ext,
            npts_p: ops.npts_p,
            links,
            locals,
            coarse,
        }
    }

    /// The configuration this preconditioner was built with.
    pub fn config(&self) -> SchwarzConfig {
        self.cfg
    }

    /// Apply `z = M⁻¹ r` on pressure-space vectors.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        let _span = sem_obs::span(sem_obs::Phase::Schwarz);
        let k = self.locals.len();
        assert_eq!(r.len(), k * self.npts_p, "schwarz: r length");
        assert_eq!(z.len(), k * self.npts_p, "schwarz: z length");
        z.fill(0.0);
        if let Some(coarse) = &self.coarse {
            let _coarse_span = sem_obs::span(sem_obs::Phase::CoarseSolve);
            coarse.apply(r, z);
        }
        let extd = self.ext.pow(self.dim as u32);
        let mut loc = vec![0.0; extd];
        let mut sol = vec![0.0; extd];
        let mut work = vec![0.0; 3 * extd];
        for e in 0..k {
            self.gather(e, r, &mut loc);
            match &self.locals[e] {
                LocalSolver::Fdm(f) => f.solve(&loc, &mut sol, &mut work),
                LocalSolver::Fem(c) => {
                    sol.copy_from_slice(&loc);
                    c.solve_in_place(&mut sol);
                }
            }
            self.scatter_add(e, &sol, z);
        }
    }

    /// Gather the extended local vector for element `e` from `r`:
    /// interior block from own dofs, face extensions from neighbours,
    /// corners zero.
    fn gather(&self, e: usize, r: &[f64], loc: &mut [f64]) {
        loc.fill(0.0);
        let (ngp, ov, ext) = (self.ngp, self.cfg.overlap, self.ext);
        let re = &r[e * self.npts_p..(e + 1) * self.npts_p];
        if self.dim == 2 {
            for j in 0..ngp {
                for i in 0..ngp {
                    loc[(j + ov) * ext + (i + ov)] = re[j * ngp + i];
                }
            }
            for l in 0..ov {
                for face in 0..4 {
                    if let Some(link) = self.links[e][face] {
                        let rn = &r[link.nbr * self.npts_p..(link.nbr + 1) * self.npts_p];
                        for t in 0..ngp {
                            let tn = if link.reversed { ngp - 1 - t } else { t };
                            let (li, lj, ni, nj) = match face {
                                0 => (ov - 1 - l, ov + t, ngp - 1 - l, tn),
                                1 => (ov + ngp + l, ov + t, l, tn),
                                2 => (ov + t, ov - 1 - l, tn, ngp - 1 - l),
                                _ => (ov + t, ov + ngp + l, tn, l),
                            };
                            loc[lj * ext + li] = rn[nj * ngp + ni];
                        }
                    }
                }
            }
        } else {
            // 3D: overlap 0 only (asserted at build).
            loc.copy_from_slice(re);
        }
    }

    /// Transpose of [`Self::gather`]: add the local solution back into the
    /// global vector (interior to own element, extensions to neighbours).
    fn scatter_add(&self, e: usize, sol: &[f64], z: &mut [f64]) {
        let (ngp, ov, ext) = (self.ngp, self.cfg.overlap, self.ext);
        if self.dim == 2 {
            for j in 0..ngp {
                for i in 0..ngp {
                    z[e * self.npts_p + j * ngp + i] += sol[(j + ov) * ext + (i + ov)];
                }
            }
            for l in 0..ov {
                for face in 0..4 {
                    if let Some(link) = self.links[e][face] {
                        for t in 0..ngp {
                            let tn = if link.reversed { ngp - 1 - t } else { t };
                            let (li, lj, ni, nj) = match face {
                                0 => (ov - 1 - l, ov + t, ngp - 1 - l, tn),
                                1 => (ov + ngp + l, ov + t, l, tn),
                                2 => (ov + t, ov - 1 - l, tn, ngp - 1 - l),
                                _ => (ov + t, ov + ngp + l, tn, l),
                            };
                            z[link.nbr * self.npts_p + nj * ngp + ni] += sol[lj * ext + li];
                        }
                    }
                }
            }
        } else {
            for (i, &v) in sol.iter().enumerate() {
                z[e * self.npts_p + i] += v;
            }
        }
    }
}

/// 2D Kronecker sum `By⊗Ax + Ay⊗Bx` with diagonal (lumped) mass vectors.
fn kron_sum_2d(ax: &Matrix, bx: &[f64], ay: &Matrix, by: &[f64]) -> Matrix {
    use sem_linalg::tensor::kron;
    let bxm = Matrix::from_diag(bx);
    let bym = Matrix::from_diag(by);
    let mut big = kron(&bym, ax);
    big.axpy(1.0, &kron(ay, &bxm));
    big
}

/// 3D Kronecker sum `Bz⊗By⊗Ax + Bz⊗Ay⊗Bx + Az⊗By⊗Bx` with diagonal
/// (lumped) mass vectors.
fn kron_sum_3d(
    ax: &Matrix,
    bx: &[f64],
    ay: &Matrix,
    by: &[f64],
    az: &Matrix,
    bz: &[f64],
) -> Matrix {
    use sem_linalg::tensor::kron;
    let bxm = Matrix::from_diag(bx);
    let bym = Matrix::from_diag(by);
    let bzm = Matrix::from_diag(bz);
    let mut big = kron(&bzm, &kron(&bym, ax));
    big.axpy(1.0, &kron(&bzm, &kron(ay, &bxm)));
    big.axpy(1.0, &kron(az, &kron(&bym, &bxm)));
    big
}

/// Face adjacency with orientation, assuming opposite-face conformity
/// (all our generators produce it).
fn build_links(ops: &SemOps) -> Vec<[Option<FaceLink>; 6]> {
    let mesh = &ops.mesh;
    let dim = mesh.dim;
    let mut map: HashMap<Vec<usize>, Vec<(usize, usize)>> = HashMap::new();
    for e in 0..mesh.num_elems() {
        for f in 0..mesh.faces_per_elem() {
            let slots = sem_mesh::Mesh::face_corner_slots(dim, f);
            let mut key: Vec<usize> = slots.iter().map(|&s| mesh.elems[e][s]).collect();
            key.sort_unstable();
            map.entry(key).or_default().push((e, f));
        }
    }
    let mut links = vec![[None; 6]; mesh.num_elems()];
    for (_, tagged) in map {
        if tagged.len() != 2 {
            continue;
        }
        let (e1, f1) = tagged[0];
        let (e2, f2) = tagged[1];
        assert_eq!(
            f1 ^ 1,
            f2,
            "non-opposite-face adjacency (e{e1}f{f1} vs e{e2}f{f2}): unsupported mesh"
        );
        // Orientation: compare first tangential corner vertices.
        let reversed = if dim == 2 {
            let s1 = sem_mesh::Mesh::face_corner_slots(2, f1);
            let s2 = sem_mesh::Mesh::face_corner_slots(2, f2);
            mesh.elems[e1][s1[0]] != mesh.elems[e2][s2[0]]
        } else {
            false // 3D: overlap 0 only, orientation unused
        };
        links[e1][f1] = Some(FaceLink { nbr: e2, reversed });
        links[e2][f2] = Some(FaceLink { nbr: e1, reversed });
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{pcg, CgOptions, Precond};
    use sem_mesh::generators::box2d;
    use sem_ops::pressure::EOperator;

    fn ops2d(k: usize, n: usize) -> SemOps {
        SemOps::new(box2d(k, k, [0.0, 1.0], [0.0, 1.0], false, false), n)
    }

    fn precond_apply_symmetric(cfg: SchwarzConfig) {
        let ops = ops2d(3, 5);
        let m = SchwarzPrecond::new(&ops, cfg);
        let np = ops.n_pressure();
        let r: Vec<f64> = (0..np).map(|i| (i as f64 * 0.37).sin()).collect();
        let s: Vec<f64> = (0..np).map(|i| (i as f64 * 0.73).cos()).collect();
        let mut zr = vec![0.0; np];
        let mut zs = vec![0.0; np];
        m.apply(&r, &mut zr);
        m.apply(&s, &mut zs);
        let lhs: f64 = zr.iter().zip(s.iter()).map(|(a, b)| a * b).sum();
        let rhs: f64 = r.iter().zip(zs.iter()).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()),
            "{cfg:?}: {lhs} vs {rhs}"
        );
        let quad: f64 = r.iter().zip(zr.iter()).map(|(a, b)| a * b).sum();
        assert!(quad > 0.0, "{cfg:?}: not positive");
    }

    #[test]
    fn preconditioner_is_spd_all_configs() {
        for overlap in [0, 1, 2] {
            for local in [LocalKind::Fdm, LocalKind::Fem] {
                for use_coarse in [false, true] {
                    precond_apply_symmetric(SchwarzConfig {
                        overlap,
                        local,
                        use_coarse,
                    });
                }
            }
        }
    }

    #[test]
    fn fdm_and_fem_agree() {
        // Same local operator, different solve path: identical results.
        let ops = ops2d(2, 6);
        let np = ops.n_pressure();
        let r: Vec<f64> = (0..np)
            .map(|i| ((i * 13 % 31) as f64 - 15.0) / 15.0)
            .collect();
        for overlap in [0, 1, 3] {
            let mf = SchwarzPrecond::new(
                &ops,
                SchwarzConfig {
                    overlap,
                    local: LocalKind::Fdm,
                    use_coarse: false,
                },
            );
            let me = SchwarzPrecond::new(
                &ops,
                SchwarzConfig {
                    overlap,
                    local: LocalKind::Fem,
                    use_coarse: false,
                },
            );
            let mut zf = vec![0.0; np];
            let mut ze = vec![0.0; np];
            mf.apply(&r, &mut zf);
            me.apply(&r, &mut ze);
            for (a, b) in zf.iter().zip(ze.iter()) {
                assert!((a - b).abs() < 1e-8, "overlap {overlap}: {a} vs {b}");
            }
        }
    }

    /// Solve an E system with different preconditioners and compare
    /// iteration counts: Schwarz+coarse ≤ Schwarz ≤ none.
    fn solve_e(ops: &SemOps, precond: Option<&SchwarzPrecond>) -> usize {
        let np = ops.n_pressure();
        let mut e = EOperator::new(ops);
        // Manufactured RHS, plain-mean-free (consistent with E's range).
        let mut b: Vec<f64> = (0..np).map(|i| (i as f64 * 0.29).sin()).collect();
        let m: f64 = b.iter().sum::<f64>() / b.len() as f64;
        b.iter_mut().for_each(|x| *x -= m);
        let mut x = vec![0.0; np];
        let res = pcg(
            &mut x,
            &b,
            |p, ep| e.apply(ops, p, ep),
            Precond::Apply(&mut |r, z| match precond {
                Some(m) => m.apply(r, z),
                None => z.copy_from_slice(r),
            }),
            None,
            Some(&mut |v| {
                // E's nullspace under the plain dot: plain mean removal.
                let m: f64 = v.iter().sum::<f64>() / v.len() as f64;
                v.iter_mut().for_each(|x| *x -= m);
            }),
            &CgOptions {
                tol: 1e-10,
                max_iter: 3000,
            },
        );
        assert!(res.converged, "E solve did not converge: {res:?}");
        res.iterations
    }

    #[test]
    fn schwarz_accelerates_consistent_poisson() {
        let ops = ops2d(4, 5);
        let none = solve_e(&ops, None);
        let m1 = SchwarzPrecond::new(&ops, SchwarzConfig::default());
        let with_schwarz = solve_e(&ops, Some(&m1));
        assert!(with_schwarz < none, "schwarz {with_schwarz} vs none {none}");
    }

    #[test]
    fn coarse_grid_helps_at_larger_k() {
        let ops = ops2d(6, 4);
        let no_coarse = SchwarzPrecond::new(
            &ops,
            SchwarzConfig {
                use_coarse: false,
                ..Default::default()
            },
        );
        let with_coarse = SchwarzPrecond::new(&ops, SchwarzConfig::default());
        let it_nc = solve_e(&ops, Some(&no_coarse));
        let it_c = solve_e(&ops, Some(&with_coarse));
        assert!(it_c < it_nc, "coarse {it_c} vs no-coarse {it_nc}");
    }

    #[test]
    fn one_point_overlap_beats_block_jacobi() {
        // The paper's N_o=0 → N_o=1 improvement. (Our N_o=3 tensor
        // construction zeroes corner extensions — Fig. 5 right — which at
        // generous overlap gives up part of the gain Fischer's
        // corner-including unstructured FEM subdomains get; Table 2's
        // bench reports the measured numbers and notes this.)
        let ops = ops2d(4, 6);
        let iters: Vec<usize> = [0usize, 1, 3]
            .iter()
            .map(|&ov| {
                let m = SchwarzPrecond::new(
                    &ops,
                    SchwarzConfig {
                        overlap: ov,
                        local: LocalKind::Fdm,
                        use_coarse: true,
                    },
                );
                solve_e(&ops, Some(&m))
            })
            .collect();
        assert!(
            iters[1] <= iters[0],
            "overlap 1 did not beat block Jacobi: {iters:?}"
        );
        assert!(
            iters[2] < 2 * iters[0],
            "overlap 3 unreasonably bad: {iters:?}"
        );
    }

    #[test]
    fn links_of_2x2_box() {
        let ops = ops2d(2, 4);
        let links = build_links(&ops);
        // Element 0 (lower-left) has neighbours to the right (face 1) and
        // above (face 3), none on faces 0/2.
        assert!(links[0][0].is_none());
        assert!(links[0][2].is_none());
        assert_eq!(links[0][1].unwrap().nbr, 1);
        assert_eq!(links[0][3].unwrap().nbr, 2);
        // Structured box: orientations aligned.
        assert!(!links[0][1].unwrap().reversed);
    }

    #[test]
    fn annulus_links_close_the_ring() {
        use sem_mesh::generators::{annulus, AnnulusParams};
        let (mesh, geo) = annulus(
            AnnulusParams {
                n_theta: 8,
                n_r: 2,
                r_inner: 1.0,
                r_outer: 2.0,
                growth: 1.0,
            },
            5,
        );
        let ops = SemOps::with_geometry(mesh, geo);
        let links = build_links(&ops);
        // Every element has θ-neighbours on faces 0 and 1.
        for e in 0..ops.k() {
            assert!(links[e][0].is_some(), "element {e} face 0");
            assert!(links[e][1].is_some(), "element {e} face 1");
        }
        // And the preconditioner applies without panicking.
        let m = SchwarzPrecond::new(&ops, SchwarzConfig::default());
        let np = ops.n_pressure();
        let r = vec![1.0; np];
        let mut z = vec![0.0; np];
        m.apply(&r, &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
    }
}
