//! Rank data layout: how the single-process field layout decomposes
//! into per-rank element blocks.
//!
//! `sem-net` runs replicated-compute SPMD ranks (every rank advances the
//! full deterministic solve), while the *distributed* gather-scatter
//! exchanges genuinely partitioned data. [`RankLayout`] is the bridge:
//! it takes the serial global numbering (`SemOps::num.ids`, `k·npts`
//! entries, element-major) and an element partition (`partition_rsb`),
//! and derives per-rank local→global id maps plus each local slot's
//! *canonical position* — its flat index in the serial layout. Canonical
//! positions are the total order the distributed combine folds in (see
//! [`RankGs`]), which is what makes the distributed result
//! bitwise-identical to the serial `GsHandle`.
//!
//! Each rank owns its elements in ascending element order, so canonical
//! positions are strictly increasing within a rank by construction.

use sem_gs::RankGs;
use std::path::Path;

/// A partition assigned some rank zero elements. The launcher treats
/// this as a configuration error (fewer ranks, or more elements), never
/// a panic: an empty rank would idle in every exchange yet still hold a
/// vote in every collective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmptyRankError {
    /// The (first) rank with no elements.
    pub rank: usize,
    /// Elements in the mesh.
    pub elements: usize,
    /// Ranks requested.
    pub ranks: usize,
}

impl std::fmt::Display for EmptyRankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "partition left rank {} empty ({} elements over {} ranks); \
             use at most {} ranks for this mesh",
            self.rank, self.elements, self.ranks, self.elements
        )
    }
}

impl std::error::Error for EmptyRankError {}

/// Per-rank decomposition of the serial element-major field layout.
#[derive(Clone, Debug)]
pub struct RankLayout {
    /// Ranks.
    pub size: usize,
    /// Nodes per element.
    pub npts: usize,
    /// Element → rank.
    pub part: Vec<usize>,
    /// Rank → owned elements, ascending.
    pub elems_of: Vec<Vec<usize>>,
    /// Rank → local slot → global dof id.
    pub ids_per_rank: Vec<Vec<usize>>,
    /// Rank → local slot → canonical (serial flat) position; strictly
    /// increasing within each rank.
    pub canon_per_rank: Vec<Vec<u64>>,
}

impl RankLayout {
    /// Build from the serial id map (`k·npts` entries) and an element
    /// partition over `p` ranks. Rejects partitions with empty ranks.
    pub fn new(
        ids: &[usize],
        npts: usize,
        part: &[usize],
        p: usize,
    ) -> Result<RankLayout, EmptyRankError> {
        let k = part.len();
        assert_eq!(ids.len(), k * npts, "id map must be k*npts long");
        assert!(p >= 1, "need at least one rank");
        let mut elems_of: Vec<Vec<usize>> = vec![Vec::new(); p];
        for (e, &r) in part.iter().enumerate() {
            assert!(r < p, "partition rank {r} out of range");
            elems_of[r].push(e); // ascending: e iterates in order
        }
        if let Some(rank) = elems_of.iter().position(|v| v.is_empty()) {
            return Err(EmptyRankError {
                rank,
                elements: k,
                ranks: p,
            });
        }
        let mut ids_per_rank: Vec<Vec<usize>> = Vec::with_capacity(p);
        let mut canon_per_rank: Vec<Vec<u64>> = Vec::with_capacity(p);
        for r in 0..p {
            let mut rids = Vec::with_capacity(elems_of[r].len() * npts);
            let mut canon = Vec::with_capacity(elems_of[r].len() * npts);
            for &e in &elems_of[r] {
                for j in 0..npts {
                    rids.push(ids[e * npts + j]);
                    canon.push((e * npts + j) as u64);
                }
            }
            ids_per_rank.push(rids);
            canon_per_rank.push(canon);
        }
        Ok(RankLayout {
            size: p,
            npts,
            part: part.to_vec(),
            elems_of,
            ids_per_rank,
            canon_per_rank,
        })
    }

    /// `rank`'s gather-scatter exchange pattern.
    pub fn gs(&self, rank: usize) -> RankGs {
        RankGs::new(&self.ids_per_rank, &self.canon_per_rank, rank)
    }

    /// Gather `rank`'s owned-element block out of a serial field.
    pub fn extract(&self, rank: usize, full: &[f64]) -> Vec<f64> {
        self.canon_per_rank[rank]
            .iter()
            .map(|&c| full[c as usize])
            .collect()
    }
}

/// Rank-local checkpoint directory under the job directory (each rank
/// checkpoints independently; the launcher intersects the generations).
pub fn rank_ckpt_dir(job_dir: &Path, rank: usize) -> std::path::PathBuf {
    job_dir.join(format!("rank_{rank}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_blocks_are_ascending_and_cover_the_field() {
        // 4 elements, 3 nodes each; interleaved partition over 2 ranks.
        let ids: Vec<usize> = (0..12).map(|i| i / 2).collect();
        let part = vec![0, 1, 0, 1];
        let l = RankLayout::new(&ids, 3, &part, 2).unwrap();
        assert_eq!(l.elems_of[0], vec![0, 2]);
        assert_eq!(l.elems_of[1], vec![1, 3]);
        for r in 0..2 {
            assert!(l.canon_per_rank[r].windows(2).all(|w| w[0] < w[1]));
            assert_eq!(l.ids_per_rank[r].len(), 6);
            for (slot, &c) in l.canon_per_rank[r].iter().enumerate() {
                assert_eq!(l.ids_per_rank[r][slot], ids[c as usize]);
            }
        }
        // Every serial position appears exactly once across ranks.
        let mut seen: Vec<u64> = l.canon_per_rank.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<u64>>());
        // extract pulls the canonical values.
        let full: Vec<f64> = (0..12).map(|i| i as f64).collect();
        assert_eq!(l.extract(0, &full), vec![0.0, 1.0, 2.0, 6.0, 7.0, 8.0]);
    }

    /// The satellite case: more ranks than elements must surface as a
    /// structured error naming the empty rank — never a panic, and never
    /// a silently idle rank.
    #[test]
    fn empty_ranks_are_rejected_with_a_structured_error() {
        let ids = vec![0, 1, 1, 2];
        let part = vec![0, 2]; // rank 1 of 3 gets nothing
        let err = RankLayout::new(&ids, 2, &part, 3).unwrap_err();
        assert_eq!(
            err,
            EmptyRankError {
                rank: 1,
                elements: 2,
                ranks: 3
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("rank 1 empty"), "{msg}");
        assert!(msg.contains("at most 2 ranks"), "{msg}");
    }
}
