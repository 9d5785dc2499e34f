//! Distributed gather-scatter, bitwise-equal to the serial [`GsHandle`].
//!
//! Each rank holds the element blocks a partitioner gave it. One `gs_op`
//! is one exchange round: every rank sends one message to each
//! neighbouring rank, then folds — "a single local-to-local
//! transformation, rather than separate gather and scatter phases".
//!
//! The subtlety is floating-point combine order. Exchanging per-rank
//! *partial* sums would reassociate the serial sum and drift from it by
//! rounding. [`RankGs`] therefore exchanges the *individual copy values*
//! of each shared dof and folds **all** copies — local and remote alike
//! — in ascending canonical position (the copy's flat index in the
//! serial layout). That is the order [`GsHandle::gs`] folds its groups
//! in, and both run the same loop ([`GsHandle`]'s fold), so the two give
//! identical bits for every op, every partition, every rank count.
//!
//! Message contents follow a canonical order both sides derive
//! independently from the replicated id maps (shared dofs ascending by
//! global id, copies ascending by canonical position within a dof), so
//! no negotiation traffic is needed. A [`RankGs`] holds no communicator:
//! [`RankGs::pack`] builds the messages, the caller delivers them (over
//! sockets in `sem-net`, or within one process by
//! [`exchange_in_process`]), and [`RankGs::fold`] combines.

use crate::local::{GsHandle, GsOp};
use std::collections::BTreeMap;

/// One rank's preprocessed distributed exchange pattern (the distributed
/// `gs_init`).
#[derive(Clone, Debug)]
pub struct RankGs {
    n_local: usize,
    /// Neighbour ranks, ascending.
    nbrs: Vec<usize>,
    /// Per neighbour: this rank's slots in outgoing-message word order.
    send_slots: Vec<Vec<u32>>,
    /// Per neighbour: words of its message to this rank.
    recv_len: Vec<usize>,
    /// Every dof this rank shares, locally or across ranks, as a group
    /// over an extended vector: the local slots, then the received
    /// messages concatenated in neighbour order. Copies are listed in
    /// ascending canonical position.
    groups: GsHandle,
}

impl RankGs {
    /// Build `rank`'s pattern from every rank's local→global id map and
    /// canonical positions. Canonical positions must be strictly
    /// increasing within each rank and globally unique (each serial slot
    /// lives on exactly one rank). Ranks may be empty.
    pub fn new(ids_per_rank: &[Vec<usize>], canon_per_rank: &[Vec<u64>], rank: usize) -> Self {
        let p = ids_per_rank.len();
        assert_eq!(canon_per_rank.len(), p, "one canon map per rank");
        assert!(rank < p, "rank out of range");
        for r in 0..p {
            assert_eq!(ids_per_rank[r].len(), canon_per_rank[r].len());
            assert!(
                canon_per_rank[r].windows(2).all(|w| w[0] < w[1]),
                "canonical positions must be strictly increasing per rank"
            );
        }
        // gid -> all copies (canon, rank, slot); BTreeMap gives ascending
        // gid iteration, and per-rank canon lists are already sorted so a
        // merge by canon is a sort of ≤ p runs — just sort, sizes are tiny.
        let mut copies: BTreeMap<usize, Vec<(u64, usize, u32)>> = BTreeMap::new();
        for (r, ids) in ids_per_rank.iter().enumerate() {
            for (slot, &g) in ids.iter().enumerate() {
                copies
                    .entry(g)
                    .or_default()
                    .push((canon_per_rank[r][slot], r, slot as u32));
            }
        }
        let mut groups: Vec<Vec<u32>> = Vec::new();
        let mut ext_gids: Vec<usize> = Vec::new();
        for (&g, list) in copies.iter_mut() {
            list.sort_unstable_by_key(|&(c, _, _)| c);
            debug_assert!(
                list.windows(2).all(|w| w[0].0 < w[1].0),
                "canonical positions must be globally unique"
            );
            if list.len() < 2 {
                continue;
            }
            let holders_me = list.iter().filter(|&&(_, r, _)| r == rank).count();
            if holders_me == list.len() {
                groups.push(list.iter().map(|&(_, _, s)| s).collect());
            } else if holders_me > 0 {
                ext_gids.push(g);
            }
        }
        // Neighbor set: ranks sharing at least one ext dof with us.
        let mut nbrs: Vec<usize> = Vec::new();
        for &g in &ext_gids {
            for &(_, r, _) in &copies[&g] {
                if r != rank && !nbrs.contains(&r) {
                    nbrs.push(r);
                }
            }
        }
        nbrs.sort_unstable();
        // Message layout for the pair (rank, nbr): dofs shared by both,
        // ascending gid; within a dof the sender's copies in canon order.
        // Both sides derive this independently from the replicated map.
        let mut send_slots: Vec<Vec<u32>> = vec![Vec::new(); nbrs.len()];
        let mut recv_len = vec![0usize; nbrs.len()];
        // (nbr index, gid, copy index within nbr's copies) -> word offset
        // in the message nbr sends us.
        let mut recv_off: BTreeMap<(usize, usize, usize), u32> = BTreeMap::new();
        for (ni, &nbr) in nbrs.iter().enumerate() {
            let mut off = 0u32;
            for &g in &ext_gids {
                let list = &copies[&g];
                if !list.iter().any(|&(_, r, _)| r == nbr) {
                    continue;
                }
                // Our copies go into our message to nbr...
                for &(_, r, s) in list.iter() {
                    if r == rank {
                        send_slots[ni].push(s);
                    }
                }
                // ...and nbr's copies occupy its message to us, in the
                // same canonical order.
                for (ci, _) in list.iter().filter(|&&(_, r, _)| r == nbr).enumerate() {
                    recv_off.insert((ni, g, ci), off);
                    off += 1;
                }
            }
            recv_len[ni] = off as usize;
        }
        // Fold groups: all copies in canonical order, local slots read
        // directly, remote copies read out of the neighbour's message,
        // which starts at `recv_base` in the extended vector.
        let n_local = ids_per_rank[rank].len();
        let mut recv_base = Vec::with_capacity(nbrs.len());
        let mut n_ext = n_local;
        for &len in &recv_len {
            recv_base.push(n_ext as u32);
            n_ext += len;
        }
        let nbr_index: BTreeMap<usize, usize> =
            nbrs.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        for &g in &ext_gids {
            let mut per_nbr_seen: BTreeMap<usize, usize> = BTreeMap::new();
            let fold = copies[&g]
                .iter()
                .map(|&(_, r, s)| {
                    if r == rank {
                        return s;
                    }
                    let ci = per_nbr_seen.entry(r).or_insert(0);
                    let ni = nbr_index[&r];
                    let off = recv_off[&(ni, g, *ci)];
                    *ci += 1;
                    recv_base[ni] + off
                })
                .collect();
            groups.push(fold);
        }
        RankGs {
            n_local,
            nbrs,
            send_slots,
            recv_len,
            groups: GsHandle::from_groups(n_ext, &groups),
        }
    }

    /// Neighbour ranks, ascending.
    pub fn neighbors(&self) -> &[usize] {
        &self.nbrs
    }

    /// `(messages, words)` this rank sends per `gs_op` — the traffic RSB
    /// partitioning minimizes.
    pub fn traffic_per_call(&self) -> (u64, u64) {
        (
            self.nbrs.len() as u64,
            self.send_slots.iter().map(|s| s.len() as u64).sum(),
        )
    }

    /// This rank's outgoing messages: one `(neighbour, payload)` per
    /// neighbour, ascending by rank.
    ///
    /// # Panics
    /// Panics if `u.len()` differs from the init length.
    pub fn pack(&self, u: &[f64]) -> Vec<(usize, Vec<f64>)> {
        assert_eq!(u.len(), self.n_local, "RankGs: vector length mismatch");
        self.nbrs
            .iter()
            .zip(&self.send_slots)
            .map(|(&nbr, slots)| (nbr, slots.iter().map(|&s| u[s as usize]).collect()))
            .collect()
    }

    /// Distributed `gs_op`: combine all copies of every shared dof with
    /// `op` and write the result back to every local copy. `inbox[i]` is
    /// the message received from `neighbors()[i]`. Bitwise-identical to
    /// [`GsHandle::gs`] on the serial layout.
    ///
    /// # Panics
    /// Panics if `u` or a message does not match the pattern.
    pub fn fold(&self, u: &mut [f64], inbox: &[Vec<f64>], op: GsOp) {
        assert_eq!(u.len(), self.n_local, "RankGs: vector length mismatch");
        assert!(
            inbox.len() == self.recv_len.len()
                && inbox.iter().zip(&self.recv_len).all(|(m, &n)| m.len() == n),
            "RankGs: inbox does not match the exchange pattern"
        );
        let mut ext: Vec<f64> = u.iter().chain(inbox.iter().flatten()).copied().collect();
        self.groups.charge_exchange(1);
        self.groups.fold(&mut ext, 1, op);
        u.copy_from_slice(&ext[..self.n_local]);
    }
}

/// Deliver every rank's packed messages within one process — the
/// stand-in for `sem-net`'s `NetComm::exchange` when all ranks live in
/// one address space. `outboxes[r]` is rank `r`'s [`RankGs::pack`]
/// output; entry `r` of the result is rank `r`'s inbox for
/// [`RankGs::fold`]: the payloads addressed to it, ascending by sender
/// (the pattern is symmetric, so the senders are its neighbours).
pub fn exchange_in_process(outboxes: Vec<Vec<(usize, Vec<f64>)>>) -> Vec<Vec<Vec<f64>>> {
    let mut inboxes = vec![Vec::new(); outboxes.len()];
    for outbox in outboxes {
        for (dst, payload) in outbox {
            inboxes[dst].push(payload);
        }
    }
    inboxes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical positions of rank-major concatenation: rank 0's slots
    /// first, then rank 1's, and so on.
    fn concat_canon(ids_per_rank: &[Vec<usize>]) -> Vec<Vec<u64>> {
        let mut next = 0u64;
        ids_per_rank
            .iter()
            .map(|ids| {
                let canon = (next..next + ids.len() as u64).collect();
                next += ids.len() as u64;
                canon
            })
            .collect()
    }

    fn patterns(ids_per_rank: &[Vec<usize>]) -> Vec<RankGs> {
        let canon = concat_canon(ids_per_rank);
        (0..ids_per_rank.len())
            .map(|r| RankGs::new(ids_per_rank, &canon, r))
            .collect()
    }

    /// One distributed `gs_op` over all ranks in this process.
    fn gs_all(pats: &[RankGs], fields: &mut [Vec<f64>], op: GsOp) {
        let outboxes = pats
            .iter()
            .zip(fields.iter())
            .map(|(g, u)| g.pack(u))
            .collect();
        let inboxes = exchange_in_process(outboxes);
        for ((g, u), inbox) in pats.iter().zip(fields.iter_mut()).zip(&inboxes) {
            g.fold(u, inbox, op);
        }
    }

    /// Total `(messages, words)` per `gs_op` over all ranks.
    fn totals(pats: &[RankGs]) -> (u64, u64) {
        pats.iter()
            .map(RankGs::traffic_per_call)
            .fold((0, 0), |(m, w), (pm, pw)| (m + pm, w + pw))
    }

    /// 1D chain of 3 ranks, 2 "elements" each of 2 nodes; global line
    /// 0-1-2-3-4-5-6 with interfaces shared across ranks.
    /// Rank r holds global ids [2r, 2r+1, 2r+1, 2r+2].
    fn chain_ids() -> Vec<Vec<usize>> {
        (0..3)
            .map(|r| vec![2 * r, 2 * r + 1, 2 * r + 1, 2 * r + 2])
            .collect()
    }

    #[test]
    fn matches_sequential_gs() {
        let ids = chain_ids();
        let flat_ids: Vec<usize> = ids.concat();
        let mut flat: Vec<f64> = (0..flat_ids.len())
            .map(|i| 0.1 * (i * i) as f64 + 1.0)
            .collect();
        let mut fields: Vec<Vec<f64>> = flat.chunks(4).map(<[f64]>::to_vec).collect();
        GsHandle::new(&flat_ids).gs(&mut flat, GsOp::Add);
        gs_all(&patterns(&ids), &mut fields, GsOp::Add);
        let got: Vec<u64> = fields.concat().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = flat.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn message_pattern_of_chain() {
        // Rank 0↔1 and 1↔2 share one id each: 4 directed messages of one
        // word.
        let pats = patterns(&chain_ids());
        assert_eq!(totals(&pats), (4, 4));
        assert_eq!(pats[1].neighbors(), &[0, 2]);
    }

    #[test]
    fn cross_rank_sum_is_correct() {
        let ids = vec![vec![0, 1], vec![1, 2], vec![2, 0]]; // ring
        let mut fields = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        gs_all(&patterns(&ids), &mut fields, GsOp::Add);
        // gid 0: 1 + 6 = 7; gid 1: 2 + 3 = 5; gid 2: 4 + 5 = 9.
        assert_eq!(fields[0], vec![7.0, 5.0]);
        assert_eq!(fields[1], vec![5.0, 9.0]);
        assert_eq!(fields[2], vec![9.0, 7.0]);
    }

    #[test]
    fn min_across_ranks() {
        let ids = vec![vec![0, 5], vec![5, 9]];
        let mut fields = vec![vec![3.0, 8.0], vec![2.0, 1.0]];
        gs_all(&patterns(&ids), &mut fields, GsOp::Min);
        assert_eq!(fields[0][1], 2.0);
        assert_eq!(fields[1][0], 2.0);
        assert_eq!(fields[0][0], 3.0); // unshared untouched
    }

    #[test]
    fn multiplicity_three_across_ranks() {
        // One gid on all three ranks (a "corner" of the partition).
        let ids = vec![vec![42, 0], vec![42, 1], vec![42, 2]];
        let pats = patterns(&ids);
        let mut fields = vec![vec![1.0, 0.0], vec![2.0, 0.0], vec![4.0, 0.0]];
        gs_all(&pats, &mut fields, GsOp::Add);
        for f in &fields {
            assert_eq!(f[0], 7.0);
        }
        // Corner sharing costs each rank 2 messages.
        assert_eq!(totals(&pats), (6, 6));
    }

    #[test]
    fn intra_rank_duplicates_combined_without_messages() {
        let ids = vec![vec![0, 0, 1], vec![2, 3, 4]];
        let pats = patterns(&ids);
        assert_eq!(totals(&pats), (0, 0));
        let mut fields = vec![vec![1.0, 2.0, 3.0], vec![0.0; 3]];
        gs_all(&pats, &mut fields, GsOp::Add);
        assert_eq!(fields[0], vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn single_rank_reduces_to_local() {
        let ids = vec![vec![0, 1, 1, 2]];
        let mut fields = vec![vec![1.0, 2.0, 3.0, 4.0]];
        gs_all(&patterns(&ids), &mut fields, GsOp::Add);
        assert_eq!(fields[0], vec![1.0, 5.0, 5.0, 4.0]);
    }

    /// Pattern construction on a hand-checkable map: two ranks share
    /// gid 2; gid 5 is shared within rank 1 only.
    #[test]
    fn pattern_shapes_are_canonical() {
        let ids = vec![vec![0, 1, 2], vec![2, 5, 5]];
        let canon = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let g0 = RankGs::new(&ids, &canon, 0);
        let g1 = RankGs::new(&ids, &canon, 1);
        assert_eq!(g0.neighbors(), &[1]);
        assert_eq!(g1.neighbors(), &[0]);
        assert_eq!(g0.traffic_per_call(), (1, 1)); // one copy of gid 2
        assert_eq!(g1.traffic_per_call(), (1, 1));
        assert_eq!(g0.groups.num_groups(), 1);
        assert_eq!(g1.groups.num_groups(), 2); // gid 5 (local), gid 2 (shared)
                                               // Rank 0's fold for gid 2: its own slot 2 (canon 2) before rank
                                               // 1's copy (canon 3), which is word 0 of the inbox, read from
                                               // extended slot n_local + 0 = 3.
        assert_eq!(g0.groups.idx, vec![2, 3]);
        // Rank 1: gid 5's local copies, then gid 2 with rank 0's copy
        // (extended slot 3) before its own slot 0.
        assert_eq!(g1.groups.idx, vec![1, 2, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_canonical_positions_are_rejected() {
        let ids = vec![vec![0, 1]];
        let canon = vec![vec![1, 0]];
        RankGs::new(&ids, &canon, 0);
    }
}
