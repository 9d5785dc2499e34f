//! Global degree-of-freedom numbering.
//!
//! The C⁰ spectral element space identifies coincident GLL nodes on
//! element interfaces. We recover the identification geometrically:
//! quantized spatial hashing with a neighbour-cell search merges nodes
//! closer than a mesh-scaled tolerance, and periodic axes are handled by
//! wrapping coordinates into the fundamental domain first. The result is
//! the `global-node-numbers` array that seeds the gather-scatter handle
//! (§6 of the paper), plus the element-vertex (coarse grid) numbering used
//! by the Schwarz coarse solve.

use crate::geom::Geometry;
use crate::topology::{BcTag, Mesh};
use std::collections::HashMap;

/// Global numbering of the fine (GLL) degrees of freedom.
#[derive(Clone, Debug)]
pub struct GlobalNumbering {
    /// Global id per local node (`k * npts` entries).
    pub ids: Vec<usize>,
    /// Number of distinct global dofs.
    pub n_global: usize,
    /// Copies of each global dof across elements (≥ 1).
    pub multiplicity: Vec<usize>,
}

/// Global numbering of element vertices (the coarse grid).
#[derive(Clone, Debug)]
pub struct VertexNumbering {
    /// Global vertex id per element corner (`k * 2^d` entries,
    /// lexicographic corner order).
    pub ids: Vec<usize>,
    /// Number of distinct global vertices after periodic identification.
    pub n_global: usize,
}

/// Cluster a point cloud by proximity: points within `tol` (Euclidean,
/// checked per axis via the hash cells) share an id. Returns (ids, count).
fn cluster_points(points: &[[f64; 3]], tol: f64) -> (Vec<usize>, usize) {
    assert!(tol > 0.0, "clustering tolerance must be positive");
    let inv = 1.0 / tol;
    let mut cells: HashMap<(i64, i64, i64), Vec<usize>> = HashMap::new();
    let mut ids = vec![usize::MAX; points.len()];
    let mut next_id = 0usize;
    let mut reps: Vec<usize> = Vec::new(); // representative point per id
    for (p, pt) in points.iter().enumerate() {
        let key = (
            (pt[0] * inv).round() as i64,
            (pt[1] * inv).round() as i64,
            (pt[2] * inv).round() as i64,
        );
        // Search own and neighbouring cells for a matching representative.
        let mut found = None;
        'search: for dx in -1..=1i64 {
            for dy in -1..=1i64 {
                for dz in -1..=1i64 {
                    if let Some(cands) = cells.get(&(key.0 + dx, key.1 + dy, key.2 + dz)) {
                        for &q in cands {
                            let r = points[q];
                            let d2 = (pt[0] - r[0]).powi(2)
                                + (pt[1] - r[1]).powi(2)
                                + (pt[2] - r[2]).powi(2);
                            if d2 <= tol * tol {
                                found = Some(ids[q]);
                                break 'search;
                            }
                        }
                    }
                }
            }
        }
        let id = match found {
            Some(id) => id,
            None => {
                let id = next_id;
                next_id += 1;
                reps.push(p);
                id
            }
        };
        ids[p] = id;
        cells.entry(key).or_default().push(p);
    }
    let _ = reps;
    (ids, next_id)
}

/// Wrap a coordinate into `[lo, lo + period)` with snapping of the upper
/// boundary onto the lower one.
fn wrap(x: f64, lo: f64, period: f64, tol: f64) -> f64 {
    let mut t = (x - lo) / period;
    t -= t.floor();
    if (1.0 - t) * period <= tol {
        t = 0.0;
    }
    lo + t * period
}

/// Numbering tolerance for a mesh/geometry pair: a small fraction of the
/// smallest GLL node spacing, estimated from element extents.
fn numbering_tol(geo: &Geometry) -> f64 {
    // Minimal GLL spacing on [-1,1] is points[1] - points[0].
    let gll_min = geo.gll.points[1] - geo.gll.points[0];
    let mut min_ext = f64::INFINITY;
    for e in 0..geo.k {
        let ext = geo.element_extents(e);
        for d in 0..geo.dim {
            min_ext = min_ext.min(ext[d]);
        }
    }
    // Physical minimal spacing ≈ min_ext/2 · gll_min; take 1% of it.
    (0.5 * min_ext * gll_min * 0.01).max(1e-14)
}

impl GlobalNumbering {
    /// Number the GLL nodes of `geo` over `mesh`, identifying shared and
    /// periodic nodes.
    pub fn new(mesh: &Mesh, geo: &Geometry) -> Self {
        let tol = numbering_tol(geo);
        let (lo, _) = mesh.bbox();
        let total = geo.k * geo.npts;
        let mut pts = Vec::with_capacity(total);
        for node in 0..total {
            let mut p = [geo.x[node], geo.y[node], geo.z[node]];
            for d in 0..3 {
                if let Some(period) = mesh.periodic[d] {
                    p[d] = wrap(p[d], lo[d], period, tol);
                }
            }
            pts.push(p);
        }
        let (ids, n_global) = cluster_points(&pts, tol);
        let mut multiplicity = vec![0usize; n_global];
        for &id in &ids {
            multiplicity[id] += 1;
        }
        GlobalNumbering {
            ids,
            n_global,
            multiplicity,
        }
    }
}

impl VertexNumbering {
    /// Number the element corners (coarse grid), identifying shared and
    /// periodic vertices.
    pub fn new(mesh: &Mesh) -> Self {
        let (lo, hi) = mesh.bbox();
        let diag = ((hi[0] - lo[0]).powi(2) + (hi[1] - lo[1]).powi(2) + (hi[2] - lo[2]).powi(2))
            .sqrt()
            .max(1e-300);
        let tol = diag * 1e-9;
        let nv = mesh.verts_per_elem();
        let mut pts = Vec::with_capacity(mesh.num_elems() * nv);
        for elem in &mesh.elems {
            for &v in elem {
                let mut p = mesh.verts[v];
                for d in 0..3 {
                    if let Some(period) = mesh.periodic[d] {
                        p[d] = wrap(p[d], lo[d], period, tol);
                    }
                }
                pts.push(p);
            }
        }
        let (ids, n_global) = cluster_points(&pts, tol);
        VertexNumbering { ids, n_global }
    }
}

/// Per-node Dirichlet mask from face tags: 0.0 on nodes of Dirichlet
/// faces, 1.0 elsewhere. **Element-local**: a node that is on the domain
/// boundary but interior to this element's faces keeps 1.0 here — callers
/// must unify the mask across shared nodes with a gather-scatter `min`
/// (or multiply) reduction before use.
pub fn dirichlet_mask(mesh: &Mesh, geo: &Geometry) -> Vec<f64> {
    let mut mask = vec![1.0; geo.k * geo.npts];
    let nx = geo.nx;
    for e in 0..geo.k {
        for f in 0..mesh.faces_per_elem() {
            if mesh.face_bc[e][f] != BcTag::Dirichlet {
                continue;
            }
            let axis = f / 2;
            let side = f % 2;
            let fixed = if side == 0 { 0 } else { nx - 1 };
            for idx in 0..geo.npts {
                let (i, j, k) = crate::geom::split_index(idx, nx, geo.dim);
                let c = [i, j, k][axis];
                if c == fixed {
                    mask[e * geo.npts + idx] = 0.0;
                }
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::box2d;
    use crate::geom::Geometry;

    #[test]
    fn two_by_one_box_counts() {
        // 2×1 elements, order N: global dofs = (2N+1)(N+1).
        let mesh = box2d(2, 1, [0.0, 2.0], [0.0, 1.0], false, false);
        let n = 4;
        let geo = Geometry::new(&mesh, n);
        let num = GlobalNumbering::new(&mesh, &geo);
        assert_eq!(num.n_global, (2 * n + 1) * (n + 1));
        // Shared edge nodes have multiplicity 2.
        let shared = num.multiplicity.iter().filter(|&&m| m == 2).count();
        assert_eq!(shared, n + 1);
    }

    #[test]
    fn periodic_box_counts() {
        // 4×3 elements, periodic in x: (4N)(3N+1) dofs.
        let mesh = box2d(4, 3, [0.0, 1.0], [0.0, 1.0], true, false);
        let n = 3;
        let geo = Geometry::new(&mesh, n);
        let num = GlobalNumbering::new(&mesh, &geo);
        assert_eq!(num.n_global, (4 * n) * (3 * n + 1));
    }

    #[test]
    fn fully_periodic_counts() {
        let mesh = box2d(3, 3, [0.0, 1.0], [0.0, 1.0], true, true);
        let n = 5;
        let geo = Geometry::new(&mesh, n);
        let num = GlobalNumbering::new(&mesh, &geo);
        assert_eq!(num.n_global, (3 * n) * (3 * n));
    }

    #[test]
    fn vertex_numbering_of_box() {
        let mesh = box2d(3, 2, [0.0, 3.0], [0.0, 2.0], false, false);
        let vn = VertexNumbering::new(&mesh);
        assert_eq!(vn.n_global, 4 * 3);
        // Periodic in x merges the two end columns.
        let meshp = box2d(3, 2, [0.0, 3.0], [0.0, 2.0], true, false);
        let vnp = VertexNumbering::new(&meshp);
        assert_eq!(vnp.n_global, 3 * 3);
    }

    #[test]
    fn dirichlet_mask_marks_boundary_faces() {
        let mesh = box2d(2, 2, [0.0, 1.0], [0.0, 1.0], false, false);
        let n = 3;
        let geo = Geometry::new(&mesh, n);
        let mask = dirichlet_mask(&mesh, &geo);
        // Element 0 (lower-left): faces r=-1 (x=0) and s=-1 (y=0) are
        // Dirichlet; node (0,0) masked, interior node free.
        assert_eq!(mask[0], 0.0);
        let interior = 1 * geo.nx + 1;
        assert_eq!(mask[interior], 1.0);
        // Count: each element has 2 Dirichlet faces in this mesh → 2(N+1)-1
        // masked nodes (corner shared).
        let masked0 = mask[..geo.npts].iter().filter(|&&m| m == 0.0).count();
        assert_eq!(masked0, 2 * (n + 1) - 1);
    }

    #[test]
    fn cluster_merges_within_tol_only() {
        let pts = vec![[0.0, 0.0, 0.0], [1e-12, 0.0, 0.0], [0.5, 0.0, 0.0]];
        let (ids, n) = cluster_points(&pts, 1e-9);
        assert_eq!(n, 2);
        assert_eq!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2]);
    }

    #[test]
    fn wrap_snaps_upper_boundary() {
        let w = wrap(1.0, 0.0, 1.0, 1e-9);
        assert_eq!(w, 0.0);
        let w2 = wrap(0.75, 0.0, 1.0, 1e-9);
        assert!((w2 - 0.75).abs() < 1e-15);
        let w3 = wrap(-0.25, 0.0, 1.0, 1e-9);
        assert!((w3 - 0.75).abs() < 1e-15);
    }
}
