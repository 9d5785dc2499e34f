//! Field output: legacy VTK (unstructured quad/hex) writers for
//! post-processing the simulations (the paper's production runs fed an
//! immersive visualization pipeline, ref \[26\]; we emit a standard format).

use crate::solver::NsSolver;
use sem_ops::SemOps;
use std::io::{self, Write};

/// Write a set of named nodal scalar fields as legacy VTK
/// (`DATASET UNSTRUCTURED_GRID`): each element's GLL grid is subdivided
/// into `N^d` straight-sided cells, so curved elements render faithfully
/// at nodal resolution.
///
/// # Panics
/// Panics if a field's length differs from the velocity-space size.
pub fn write_vtk(ops: &SemOps, fields: &[(&str, &[f64])], mut w: impl Write) -> io::Result<()> {
    let dim = ops.geo.dim;
    let nx = ops.geo.nx;
    let npts = ops.geo.npts;
    let k = ops.k();
    let n_nodes = k * npts;
    for (name, f) in fields {
        assert_eq!(f.len(), n_nodes, "field '{name}' length");
    }
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "terasem spectral element field")?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET UNSTRUCTURED_GRID")?;
    writeln!(w, "POINTS {n_nodes} double")?;
    for i in 0..n_nodes {
        writeln!(w, "{} {} {}", ops.geo.x[i], ops.geo.y[i], ops.geo.z[i])?;
    }
    let cells_per_elem = (nx - 1).pow(dim as u32);
    let n_cells = k * cells_per_elem;
    let corners = 1 << dim;
    writeln!(w, "CELLS {n_cells} {}", n_cells * (corners + 1))?;
    for e in 0..k {
        let base = e * npts;
        if dim == 2 {
            for j in 0..nx - 1 {
                for i in 0..nx - 1 {
                    let v = |ii: usize, jj: usize| base + jj * nx + ii;
                    writeln!(
                        w,
                        "4 {} {} {} {}",
                        v(i, j),
                        v(i + 1, j),
                        v(i + 1, j + 1),
                        v(i, j + 1)
                    )?;
                }
            }
        } else {
            for kk in 0..nx - 1 {
                for j in 0..nx - 1 {
                    for i in 0..nx - 1 {
                        let v = |ii: usize, jj: usize, kz: usize| base + (kz * nx + jj) * nx + ii;
                        writeln!(
                            w,
                            "8 {} {} {} {} {} {} {} {}",
                            v(i, j, kk),
                            v(i + 1, j, kk),
                            v(i + 1, j + 1, kk),
                            v(i, j + 1, kk),
                            v(i, j, kk + 1),
                            v(i + 1, j, kk + 1),
                            v(i + 1, j + 1, kk + 1),
                            v(i, j + 1, kk + 1)
                        )?;
                    }
                }
            }
        }
    }
    // VTK_QUAD = 9, VTK_HEXAHEDRON = 12.
    let cell_type = if dim == 2 { 9 } else { 12 };
    writeln!(w, "CELL_TYPES {n_cells}")?;
    for _ in 0..n_cells {
        writeln!(w, "{cell_type}")?;
    }
    writeln!(w, "POINT_DATA {n_nodes}")?;
    for (name, f) in fields {
        writeln!(w, "SCALARS {name} double 1")?;
        writeln!(w, "LOOKUP_TABLE default")?;
        for v in f.iter() {
            writeln!(w, "{v}")?;
        }
    }
    Ok(())
}

/// Write the solver's current velocity (and temperature, if present) to a
/// VTK file at `path`.
pub fn write_solution_vtk(s: &NsSolver, path: &str) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut buf = io::BufWriter::new(f);
    let mut fields: Vec<(&str, &[f64])> = vec![("u", &s.vel[0]), ("v", &s.vel[1])];
    if s.ops.geo.dim == 3 {
        fields.push(("w", &s.vel[2]));
    }
    if let Some(t) = &s.temp {
        fields.push(("temperature", t));
    }
    write_vtk(&s.ops, &fields, &mut buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_mesh::generators::{box2d, box3d};

    #[test]
    fn vtk_2d_structure() {
        let ops = SemOps::new(box2d(2, 1, [0.0, 2.0], [0.0, 1.0], false, false), 3);
        let f: Vec<f64> = (0..ops.n_velocity()).map(|i| i as f64).collect();
        let mut out = Vec::new();
        write_vtk(&ops, &[("field", &f)], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("POINTS 32 double"));
        // 2 elements × 3×3 cells.
        assert!(text.contains("CELLS 18 90"));
        assert!(text.contains("SCALARS field double 1"));
        // All cell types are quads (18 lines of "9" between CELL_TYPES and
        // POINT_DATA — the field data itself also contains a literal 9).
        let after = text.split("CELL_TYPES 18").nth(1).unwrap();
        let section = after.split("POINT_DATA").next().unwrap();
        let quad_lines = section.lines().filter(|l| l.trim() == "9").count();
        assert_eq!(quad_lines, 18);
    }

    #[test]
    fn vtk_3d_structure() {
        let ops = SemOps::new(
            box3d(1, 1, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [false; 3]),
            2,
        );
        let f = vec![1.0; ops.n_velocity()];
        let mut out = Vec::new();
        write_vtk(&ops, &[("one", &f)], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("POINTS 27 double"));
        assert!(text.contains("CELLS 8 72"));
        assert!(text.contains("CELL_TYPES 8"));
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_field_length_panics() {
        let ops = SemOps::new(box2d(1, 1, [0.0, 1.0], [0.0, 1.0], false, false), 2);
        let f = vec![0.0; 3];
        let mut out = Vec::new();
        let _ = write_vtk(&ops, &[("bad", &f)], &mut out);
    }
}
