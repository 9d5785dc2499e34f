//! Shared-memory gather-scatter.

use sem_comm::par;
use std::ops::Range;

/// Commutative/associative reduction operations supported by `gs_op`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GsOp {
    /// Sum shared copies (direct stiffness summation).
    Add,
    /// Multiply shared copies (used to unify masks).
    Mul,
    /// Minimum over shared copies.
    Min,
    /// Maximum over shared copies.
    Max,
}

impl GsOp {
    /// Identity element of the reduction.
    pub fn identity(self) -> f64 {
        match self {
            GsOp::Add => 0.0,
            GsOp::Mul => 1.0,
            GsOp::Min => f64::INFINITY,
            GsOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Combine two values.
    #[inline]
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            GsOp::Add => a + b,
            GsOp::Mul => a * b,
            GsOp::Min => a.min(b),
            GsOp::Max => a.max(b),
        }
    }
}

/// Gather-scatter handle: the preprocessed exchange pattern for one
/// global numbering (`gs_init`).
///
/// Only nodes with multiplicity ≥ 2 participate; the groups are stored as
/// flat index lists for cache-friendly traversal, in order of their
/// lowest local copy.
///
/// The fold runs on the threads of `sem_comm::par`, over the partition
/// its element loops use: each block folds the groups whose lowest copy
/// lies in its element block, so a thread combines the values its own
/// element loop wrote. Each group is folded by one thread, copy by copy
/// in ascending local order, so the bits do not depend on the thread
/// count.
///
/// # Examples
///
/// Two 1D elements sharing their interface node (global id 2):
///
/// ```
/// use sem_gs::{GsHandle, GsOp};
/// let handle = GsHandle::new(&[0, 1, 2, 2, 3, 4]); // gs_init
/// let mut u = vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0];
/// handle.gs(&mut u, GsOp::Add);                    // gs_op: direct stiffness
/// assert_eq!(u, vec![1.0, 2.0, 13.0, 13.0, 20.0, 30.0]);
/// ```
#[derive(Clone, Debug)]
pub struct GsHandle {
    /// Local length the handle was built for.
    n_local: usize,
    /// Local slots per element: the unit of the partition the fold
    /// shares with the element loops.
    elem_len: usize,
    /// Concatenated local indices of all shared groups.
    pub(crate) idx: Vec<u32>,
    /// Group boundaries into `idx` (CSR-style offsets).
    offsets: Vec<u32>,
    /// Whether each local slot belongs to a group.
    grouped: Vec<bool>,
}

impl GsHandle {
    /// Build the exchange pattern from the local→global id map
    /// (the paper's `gs_init(global_node_numbers, n)`), each slot an
    /// element of its own.
    pub fn new(global_ids: &[usize]) -> Self {
        Self::for_elements(global_ids, 1)
    }

    /// [`GsHandle::new`] for element-major storage of `elem_len` slots per
    /// element: the fold then splits its groups over the threads as the
    /// element loops split the elements.
    ///
    /// # Panics
    /// Panics if `elem_len` is 0 or does not divide `global_ids.len()`.
    pub fn for_elements(global_ids: &[usize], elem_len: usize) -> Self {
        let n_local = global_ids.len();
        assert!(
            elem_len > 0 && n_local.is_multiple_of(elem_len),
            "gs_init: {n_local} slots are not whole elements of {elem_len}"
        );
        let n_global = global_ids.iter().copied().max().map_or(0, |m| m + 1);
        // Count copies per global id.
        let mut counts = vec![0u32; n_global];
        for &g in global_ids {
            counts[g] += 1;
        }
        // CSR over *shared* ids only, numbered as a sweep over the local
        // slots first meets them: in order of their lowest copy.
        let mut group_of = vec![u32::MAX; n_global];
        let mut sizes: Vec<u32> = Vec::new();
        for &g in global_ids {
            if counts[g] >= 2 && group_of[g] == u32::MAX {
                group_of[g] = sizes.len() as u32;
                sizes.push(counts[g]);
            }
        }
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &s in &sizes {
            acc += s;
            offsets.push(acc);
        }
        let mut idx = vec![0u32; acc as usize];
        let mut cursor: Vec<u32> = offsets[..sizes.len()].to_vec();
        for (local, &g) in global_ids.iter().enumerate() {
            let grp = group_of[g];
            if grp != u32::MAX {
                let c = &mut cursor[grp as usize];
                idx[*c as usize] = local as u32;
                *c += 1;
            }
        }
        let grouped = global_ids.iter().map(|&g| counts[g] >= 2).collect();
        GsHandle {
            n_local,
            elem_len,
            idx,
            offsets,
            grouped,
        }
    }

    /// Handle over `n_local` slots with explicit groups, each listed in
    /// fold order. The slots form one element, so its fold runs on one
    /// thread whatever order the groups come in.
    pub(crate) fn from_groups(n_local: usize, groups: &[Vec<u32>]) -> Self {
        let mut offsets = vec![0u32];
        let mut acc = 0u32;
        let mut grouped = vec![false; n_local];
        for g in groups {
            acc += g.len() as u32;
            offsets.push(acc);
            for &i in g {
                grouped[i as usize] = true;
            }
        }
        GsHandle {
            n_local,
            elem_len: n_local.max(1),
            idx: groups.concat(),
            offsets,
            grouped,
        }
    }

    /// Local vector length this handle serves.
    pub fn n_local(&self) -> usize {
        self.n_local
    }

    /// Number of shared-node groups.
    pub fn num_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `gs_op(u, op)`: combine all copies of each shared node with `op`
    /// and write the result back to every copy.
    ///
    /// # Panics
    /// Panics if `u.len()` differs from the init length.
    pub fn gs(&self, u: &mut [f64], op: GsOp) {
        assert_eq!(u.len(), self.n_local, "gs_op: vector length mismatch");
        self.gs_fields(u, 1, op);
    }

    /// Vector mode (the paper's multi-dof-per-node `gs_op`): `u` holds
    /// `fields` scalar fields component-major — field `f` is
    /// `u[f·n..(f + 1)·n]`, `n` = [`GsHandle::n_local`] — and all of
    /// them are exchanged in one sweep over the groups. Each field's
    /// copies fold exactly as [`GsHandle::gs`] folds them, so the result
    /// is bitwise-equal to `fields` separate `gs` calls. It is metered as
    /// one call moving `fields` words per shared copy, and an injected
    /// exchange drop skips it whole, leaving every field untouched.
    ///
    /// # Panics
    /// Panics if `u.len() != n_local * fields`.
    pub fn gs_fields(&self, u: &mut [f64], fields: usize, op: GsOp) {
        assert_eq!(
            u.len(),
            self.n_local * fields,
            "gs_fields: vector length mismatch"
        );
        if self.dropped(fields) {
            return;
        }
        self.fold_par(u, fields, op, None);
    }

    /// Direct stiffness summation under a mask: [`GsHandle::gs`] with
    /// [`GsOp::Add`], then `u[i] *= mask[i]` for every slot, in one
    /// parallel region. `unshared` lists, ascending, the slots in no
    /// group whose mask is not 1; the other unshared slots are left as
    /// they are (`v·1 = v`), and every copy of a group gets
    /// `sum·mask[copy]` inside the fold. An injected exchange drop skips
    /// the sum but still applies the mask to every slot.
    ///
    /// # Panics
    /// Panics if `u` or `mask` is not [`GsHandle::n_local`] long, or if
    /// `unshared` is not strictly ascending or names a grouped slot.
    pub fn gs_masked(&self, u: &mut [f64], mask: &[f64], unshared: &[u32]) {
        assert_eq!(u.len(), self.n_local, "gs_masked: vector length mismatch");
        assert_eq!(mask.len(), self.n_local, "gs_masked: mask length mismatch");
        // Each block masks the listed slots of its own range, so a
        // repeated or grouped slot would be touched by two threads.
        assert!(
            unshared.windows(2).all(|w| w[0] < w[1])
                && unshared.iter().all(|&i| !self.grouped[i as usize]),
            "gs_masked: `unshared` must list ungrouped slots, ascending"
        );
        if self.dropped(1) {
            for (v, m) in u.iter_mut().zip(mask) {
                *v *= m;
            }
            return;
        }
        self.fold_par(u, 1, GsOp::Add, Some((mask, unshared)));
    }

    /// The caller's half of an exchange: an injected exchange drop
    /// (one probe per call) reports `true`; otherwise the exchange is
    /// charged to the counters.
    fn dropped(&self, fields: usize) -> bool {
        if sem_obs::fault::fire(sem_obs::fault::FaultSite::GsExchange) {
            // Injected exchange drop: the caller skips the combine,
            // leaving every shared copy stale — finite but wrong,
            // detectable only through the fired flag the comm layer
            // reports upward (`sem_obs::fault::drain`).
            return true;
        }
        self.charge_exchange(fields);
        false
    }

    /// The parallel fold: one `sem_comm::par` region over the element
    /// blocks; block `lo..hi` folds the groups whose lowest copy lies in
    /// its slots and, under a mask, masks its `unshared` slots.
    fn fold_par(&self, u: &mut [f64], fields: usize, op: GsOp, mask: Option<(&[f64], &[u32])>) {
        let u = par::SharedSlice::new(u);
        par::par_ranges(self.n_local / self.elem_len, |elems| {
            let (lo, hi) = (elems.start * self.elem_len, elems.end * self.elem_len);
            let groups = self.groups_from(lo)..self.groups_from(hi);
            // SAFETY: `u` holds `fields · n_local` values. A handle of
            // more than one element comes from `for_elements`: its groups
            // are stored in order of their lowest copy and no slot is in
            // two of them, so every group is folded by the one block
            // holding its lowest copy, and every `unshared` slot is in no
            // group and lies in one block — no two threads touch a slot.
            // A `from_groups` handle is one element: one block, one
            // thread.
            unsafe {
                self.fold_groups(u.as_ptr(), groups, fields, op, mask.map(|(m, _)| m));
                if let Some((mask, unshared)) = mask {
                    let from = |s: usize| unshared.partition_point(|&i| (i as usize) < s);
                    for &i in &unshared[from(lo)..from(hi)] {
                        *u.as_ptr().add(i as usize) *= mask[i as usize];
                    }
                }
            }
        });
    }

    /// The first group whose lowest copy is at or past `slot` (groups are
    /// stored in order of their lowest copy).
    fn groups_from(&self, slot: usize) -> usize {
        self.offsets[..self.num_groups()]
            .partition_point(|&o| (self.idx[o as usize] as usize) < slot)
    }

    /// The gather-scatter fold loop of `groups`, shared by
    /// [`GsHandle::gs_fields`], [`GsHandle::gs_masked`] and
    /// [`crate::RankGs::fold`]: `u` holds `fields` fields of `n_local`
    /// slots, component-major. Each group's copies are combined with `op`
    /// from its identity in stored order, field by field, and the result
    /// (times the copy's `mask` entry, under a mask) is written back to
    /// every copy. Both store a group's copies in ascending canonical
    /// (serial) position, which is what makes a distributed fold
    /// bitwise-equal to the serial one.
    ///
    /// # Safety
    /// `u` points to `fields · n_local` values, and no other thread
    /// touches the copies of `groups` while this runs.
    unsafe fn fold_groups(
        &self,
        u: *mut f64,
        groups: Range<usize>,
        fields: usize,
        op: GsOp,
        mask: Option<&[f64]>,
    ) {
        for g in groups {
            let copies = &self.idx[self.offsets[g] as usize..self.offsets[g + 1] as usize];
            for f in 0..fields {
                let uf = u.add(f * self.n_local);
                let mut acc = op.identity();
                for &i in copies {
                    acc = op.combine(acc, *uf.add(i as usize));
                }
                match mask {
                    None => {
                        for &i in copies {
                            *uf.add(i as usize) = acc;
                        }
                    }
                    Some(mask) => {
                        for &i in copies {
                            *uf.add(i as usize) = acc * mask[i as usize];
                        }
                    }
                }
            }
        }
    }

    /// The serial fold of every group, for [`crate::RankGs::fold`].
    pub(crate) fn fold(&self, u: &mut [f64], fields: usize, op: GsOp) {
        assert_eq!(
            u.len(),
            self.n_local * fields,
            "fold: vector length mismatch"
        );
        // SAFETY: `u` is exclusively borrowed and `n_local · fields` long.
        unsafe { self.fold_groups(u.as_mut_ptr(), 0..self.num_groups(), fields, op, None) }
    }

    /// Charge one exchange to the sem-obs counters: every shared-node
    /// copy touched is one word read+combined per field — the
    /// communication volume the paper's RSB partitioning minimizes.
    #[inline]
    pub(crate) fn charge_exchange(&self, fields: usize) {
        sem_obs::counters::add(sem_obs::Counter::GsWords, (self.idx.len() * fields) as u64);
        sem_obs::counters::add(sem_obs::Counter::GsCalls, 1);
    }

    /// Assemble-and-average: `gs(Add)` then divide each shared copy by its
    /// multiplicity — turns a redundant nodal field into a consistent one
    /// (used for diagnostics/output, not for residual assembly).
    pub fn gs_avg(&self, u: &mut [f64]) {
        assert_eq!(u.len(), self.n_local, "gs_avg: vector length mismatch");
        self.charge_exchange(1);
        for g in 0..self.num_groups() {
            let lo = self.offsets[g] as usize;
            let hi = self.offsets[g + 1] as usize;
            let m = (hi - lo) as f64;
            let mut acc = 0.0;
            for &i in &self.idx[lo..hi] {
                acc += u[i as usize];
            }
            acc /= m;
            for &i in &self.idx[lo..hi] {
                u[i as usize] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 3-node "elements" sharing their middle node:
    /// local [0,1,2 | 3,4,5], global [0,1,2 | 2,3,4].
    fn simple_ids() -> Vec<usize> {
        vec![0, 1, 2, 2, 3, 4]
    }

    #[test]
    fn add_combines_shared_copies() {
        let h = GsHandle::new(&simple_ids());
        assert_eq!(h.num_groups(), 1);
        let mut u = vec![1., 2., 3., 10., 20., 30.];
        h.gs(&mut u, GsOp::Add);
        assert_eq!(u, vec![1., 2., 13., 13., 20., 30.]);
    }

    #[test]
    fn min_max_mul() {
        let h = GsHandle::new(&simple_ids());
        let mut u = vec![1., 2., 3., 10., 20., 30.];
        h.gs(&mut u, GsOp::Min);
        assert_eq!(u[2], 3.0);
        assert_eq!(u[3], 3.0);
        let mut v = vec![1., 2., 3., 10., 20., 30.];
        h.gs(&mut v, GsOp::Max);
        assert_eq!(v[2], 10.0);
        let mut w = vec![1., 2., 0.5, 4., 20., 30.];
        h.gs(&mut w, GsOp::Mul);
        assert_eq!(w[2], 2.0);
        assert_eq!(w[3], 2.0);
    }

    #[test]
    fn idempotent_after_first_application() {
        // After one gs(Add), all copies are equal; Min/Max then fix them.
        let h = GsHandle::new(&simple_ids());
        let mut u = vec![1., 2., 3., 10., 20., 30.];
        h.gs(&mut u, GsOp::Add);
        let snapshot = u.clone();
        h.gs(&mut u, GsOp::Max);
        assert_eq!(u, snapshot);
    }

    #[test]
    fn vector_mode_matches_scalar_per_component() {
        let ids = simple_ids();
        let h = GsHandle::new(&ids);
        let (n, fields) = (ids.len(), 3);
        let mut uv: Vec<f64> = (0..n * fields).map(|i| i as f64).collect();
        let mut scalars: Vec<Vec<f64>> = uv.chunks(n).map(<[f64]>::to_vec).collect();
        h.gs_fields(&mut uv, fields, GsOp::Add);
        for s in scalars.iter_mut() {
            h.gs(s, GsOp::Add);
        }
        assert_eq!(uv, scalars.concat());
    }

    #[test]
    fn gs_avg_produces_consistent_field() {
        let h = GsHandle::new(&simple_ids());
        let mut u = vec![0., 0., 4., 8., 0., 0.];
        h.gs_avg(&mut u);
        assert_eq!(u[2], 6.0);
        assert_eq!(u[3], 6.0);
    }

    #[test]
    fn high_multiplicity_group() {
        // A "corner" shared by four elements.
        let ids = vec![7, 7, 7, 7, 1, 2];
        let h = GsHandle::new(&ids);
        let mut u = vec![1., 2., 3., 4., 9., 9.];
        h.gs(&mut u, GsOp::Add);
        for i in 0..4 {
            assert_eq!(u[i], 10.0);
        }
        assert_eq!(u[4], 9.0);
    }

    #[test]
    fn no_shared_nodes_is_noop() {
        let h = GsHandle::new(&[0, 1, 2, 3]);
        assert_eq!(h.num_groups(), 0);
        let mut u = vec![5., 6., 7., 8.];
        h.gs(&mut u, GsOp::Add);
        assert_eq!(u, vec![5., 6., 7., 8.]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let h = GsHandle::new(&simple_ids());
        let mut u = vec![0.0; 3];
        h.gs(&mut u, GsOp::Add);
    }
}
