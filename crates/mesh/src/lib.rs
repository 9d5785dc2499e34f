//! # sem-mesh
//!
//! Spectral element meshes (§2 of Tufo & Fischer SC'99): globally
//! unstructured arrays of deformed quadrilateral/hexahedral elements, each
//! carrying a locally structured `(N+1)^d` GLL grid.
//!
//! * [`topology`] — element/vertex connectivity, face boundary tags,
//!   periodic axes.
//! * [`geom`] — GLL nodal coordinates per element (isoparametric bilinear /
//!   trilinear maps or user closures for curved elements), Jacobians,
//!   the diagonal geometric factor matrices `G_ij` of Eq. 4, and the mass
//!   diagonal.
//! * [`numbering`] — C⁰ global degree-of-freedom numbering by coordinate
//!   clustering (tolerance-robust, periodicity-aware), plus the coarse
//!   (element-vertex) numbering used by the Schwarz coarse grid.
//! * [`generators`] — tensor boxes in 2D/3D, the annulus-around-cylinder
//!   mesh (Table 2's substitute for the cylinder start-up problem), and a
//!   bump-deformed channel (Fig. 8's substitute for the hemisphere
//!   roughness element).
//! * [`partition`] — element partitioners: linear, recursive coordinate
//!   bisection, and recursive spectral bisection (Pothen–Simon–Liou), the
//!   scheme the paper uses to minimize shared vertices between processors.

pub mod generators;
pub mod geom;
pub mod numbering;
pub mod partition;
pub mod topology;

pub use geom::Geometry;
pub use numbering::{GlobalNumbering, VertexNumbering};
pub use topology::{BcTag, Mesh};
