//! Rank-level communication built on the [`Transport`] mesh.
//!
//! [`NetComm`] provides the three patterns the solver stack needs —
//! symmetric neighbor exchange (gather-scatter), binary-tree allgather
//! (and the allreduce/barrier built on it) — and accounts for them:
//! messages and bytes actually sent by this rank, and `2·⌈log₂ P⌉`
//! critical-path rounds per tree collective with a single-rank machine
//! charged nothing ([`NetComm::global_stats`]). It additionally records
//! `(bytes, seconds)` timing samples per operation class, which is what
//! the α–β machine model is fitted against (`terasem-launch
//! --bench-comm`).
//!
//! Collective results are combined in ascending rank order on every
//! rank, so reductions are bitwise-identical everywhere regardless of
//! message arrival order.

use crate::transport::{
    bytes_to_f64s, bytes_to_u64s, f64s_to_bytes, u64s_to_bytes, NetError, Transport,
};
use std::time::Instant;

/// Protocol classes (folded into frame tags with per-pair sequencing).
pub const CLASS_EXCHANGE: u8 = 1;
pub const CLASS_GATHER: u8 = 2;
pub const CLASS_BCAST: u8 = 3;
pub const CLASS_PING: u8 = 4;
/// End-of-run telemetry shipping (rank records + trace fragments to
/// rank 0 — see [`NetComm::gather_telemetry`]).
pub const CLASS_TELEMETRY: u8 = 5;

/// Measured `(bytes_sent, seconds)` samples per operation class.
#[derive(Clone, Debug, Default)]
pub struct CommTimings {
    /// Neighbor-exchange calls.
    pub exchange: Vec<(u64, f64)>,
    /// Allgather calls (barriers included: zero-byte gathers).
    pub allgather: Vec<(u64, f64)>,
    /// Allreduce calls.
    pub allreduce: Vec<(u64, f64)>,
}

impl CommTimings {
    /// Mean seconds of a sample class (`None` when empty).
    pub fn mean_secs(samples: &[(u64, f64)]) -> Option<f64> {
        if samples.is_empty() {
            return None;
        }
        Some(samples.iter().map(|&(_, t)| t).sum::<f64>() / samples.len() as f64)
    }
}

/// Machine-wide communication statistics ([`NetComm::global_stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Exchange rounds on the critical path (maximum over ranks).
    pub rounds: u64,
    /// Maximum messages sent by any single rank.
    pub max_msgs_per_rank: u64,
    /// Maximum bytes sent by any single rank.
    pub max_bytes_per_rank: u64,
}

/// A `P`-rank communicator over real sockets.
pub struct NetComm {
    t: Transport,
    msgs: u64,
    bytes: u64,
    rounds: u64,
    /// Timing samples, drained by the reporting layer.
    pub timings: CommTimings,
}

fn tree_parent(r: usize) -> usize {
    (r - 1) / 2
}

fn tree_children(r: usize, p: usize) -> impl Iterator<Item = usize> {
    [2 * r + 1, 2 * r + 2].into_iter().filter(move |&c| c < p)
}

fn tree_stages(p: usize) -> u64 {
    if p > 1 {
        (p as f64).log2().ceil() as u64
    } else {
        0
    }
}

impl NetComm {
    /// Wrap an established transport.
    pub fn new(t: Transport) -> Self {
        NetComm {
            t,
            msgs: 0,
            bytes: 0,
            rounds: 0,
            timings: CommTimings::default(),
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.t.rank()
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.t.size()
    }

    /// Direct access to the transport (calibration ping-pongs).
    pub fn transport(&mut self) -> &mut Transport {
        &mut self.t
    }

    fn charge(&mut self, msgs: u64, bytes: u64) {
        self.msgs += msgs;
        self.bytes += bytes;
    }

    /// Symmetric neighbor exchange: send `outbox[i].1` to peer
    /// `outbox[i].0` and return the payloads received from the same
    /// peers, in the same order. Destinations must be strictly
    /// ascending (the neighbor order `sem_gs::RankGs::pack` produces) and
    /// the pattern must be symmetric — every addressed peer is
    /// simultaneously sending to us. All sends complete before any
    /// receive, which cannot deadlock because every link has a reader
    /// thread draining its socket.
    pub fn exchange(&mut self, outbox: &[(usize, Vec<f64>)]) -> Result<Vec<Vec<f64>>, NetError> {
        debug_assert!(
            outbox.windows(2).all(|w| w[0].0 < w[1].0),
            "exchange destinations must be ascending"
        );
        let t0 = Instant::now();
        let mut sent_bytes = 0u64;
        for (peer, payload) in outbox {
            self.t.send_f64s(*peer, CLASS_EXCHANGE, payload)?;
            sent_bytes += 8 * payload.len() as u64;
        }
        let mut inbox = Vec::with_capacity(outbox.len());
        for (peer, _) in outbox {
            inbox.push(self.t.recv_f64s(*peer, CLASS_EXCHANGE)?);
        }
        self.charge(outbox.len() as u64, sent_bytes);
        self.rounds += 1;
        self.timings
            .exchange
            .push((sent_bytes, t0.elapsed().as_secs_f64()));
        Ok(inbox)
    }

    /// Gather every rank's byte payload to every rank: binary-tree
    /// fan-in to rank 0, fan-out of the full set. Returns the payloads
    /// indexed by rank. Charged `2·⌈log₂ P⌉` rounds (critical path);
    /// a single rank exchanges nothing and is charged nothing.
    pub fn allgather_bytes(&mut self, mine: &[u8]) -> Result<Vec<Vec<u8>>, NetError> {
        let (r, p) = (self.t.rank(), self.t.size());
        if p == 1 {
            return Ok(vec![mine.to_vec()]);
        }
        let t0 = Instant::now();
        let mut sent = 0u64;
        let mut nmsgs = 0u64;
        // Fan-in: collect (rank, payload) pairs from the subtree.
        let mut have: Vec<(u32, Vec<u8>)> = vec![(r as u32, mine.to_vec())];
        for c in tree_children(r, p) {
            let blob = self.t.recv(c, CLASS_GATHER)?;
            have.extend(decode_pairs(&blob)?);
        }
        if r > 0 {
            let blob = encode_pairs(&have);
            sent += blob.len() as u64;
            nmsgs += 1;
            self.t.send(tree_parent(r), CLASS_GATHER, &blob)?;
        }
        // Fan-out: the root broadcasts the complete set down the tree.
        let full = if r == 0 {
            have
        } else {
            decode_pairs(&self.t.recv(tree_parent(r), CLASS_BCAST)?)?
        };
        let blob = encode_pairs(&full);
        for c in tree_children(r, p) {
            sent += blob.len() as u64;
            nmsgs += 1;
            self.t.send(c, CLASS_BCAST, &blob)?;
        }
        // Index by rank.
        let mut out: Vec<Option<Vec<u8>>> = vec![None; p];
        for (rank, payload) in full {
            let slot = rank as usize;
            if slot >= p || out[slot].is_some() {
                return Err(NetError::Protocol(format!(
                    "allgather produced duplicate or out-of-range rank {rank}"
                )));
            }
            out[slot] = Some(payload);
        }
        self.charge(nmsgs, sent);
        self.rounds += 2 * tree_stages(p);
        self.timings
            .allgather
            .push((sent, t0.elapsed().as_secs_f64()));
        out.into_iter()
            .map(|o| o.ok_or_else(|| NetError::Protocol("allgather missing a rank".into())))
            .collect()
    }

    /// Allgather of `f64` vectors.
    pub fn allgather_f64s(&mut self, mine: &[f64]) -> Result<Vec<Vec<f64>>, NetError> {
        self.allgather_bytes(&f64s_to_bytes(mine))?
            .iter()
            .map(|b| bytes_to_f64s(b))
            .collect()
    }

    /// Allgather of `u64` vectors (field hashes, counters).
    pub fn allgather_u64s(&mut self, mine: &[u64]) -> Result<Vec<Vec<u64>>, NetError> {
        self.allgather_bytes(&u64s_to_bytes(mine))?
            .iter()
            .map(|b| bytes_to_u64s(b))
            .collect()
    }

    /// Global sum, folded in ascending rank order on every rank — the
    /// canonical order, so the result is bitwise-identical everywhere.
    pub fn allreduce_sum(&mut self, x: f64) -> Result<f64, NetError> {
        let t0 = Instant::now();
        let all = self.allgather_f64s(&[x])?;
        let mut acc = 0.0;
        for v in &all {
            acc += v[0];
        }
        self.timings.allreduce.push((8, t0.elapsed().as_secs_f64()));
        Ok(acc)
    }

    /// Block until every rank arrives (a zero-byte allgather).
    pub fn barrier(&mut self) -> Result<(), NetError> {
        self.allgather_bytes(&[])?;
        Ok(())
    }

    /// This rank's local accounting `(messages, bytes, rounds)`.
    pub fn local_counts(&self) -> (u64, u64, u64) {
        (self.msgs, self.bytes, self.rounds)
    }

    /// Telemetry channel: collect every rank's end-of-run telemetry
    /// blob at rank 0 (direct point-to-point sends on
    /// [`CLASS_TELEMETRY`], no tree). Returns `Some(blobs)` indexed by
    /// rank on rank 0, `None` elsewhere. Collective — every rank must
    /// call it.
    ///
    /// Deliberately *out of band*: nothing is charged to the
    /// msgs/bytes/rounds accounting or the timing samples, so shipping
    /// the telemetry does not perturb the communication statistics it
    /// reports.
    pub fn gather_telemetry(&mut self, mine: &[u8]) -> Result<Option<Vec<Vec<u8>>>, NetError> {
        let (r, p) = (self.t.rank(), self.t.size());
        if r != 0 {
            self.t.send(0, CLASS_TELEMETRY, mine)?;
            return Ok(None);
        }
        let mut blobs = Vec::with_capacity(p);
        blobs.push(mine.to_vec());
        for peer in 1..p {
            blobs.push(self.t.recv(peer, CLASS_TELEMETRY)?);
        }
        Ok(Some(blobs))
    }

    /// Aggregate machine-wide statistics: totals across ranks plus
    /// per-rank maxima. Collective — every rank must call it; the gather it performs is
    /// excluded from the snapshot it returns.
    pub fn global_stats(&mut self) -> Result<CommStats, NetError> {
        let (m, b, r) = self.local_counts();
        let all = self.allgather_u64s(&[m, b, r])?;
        let mut stats = CommStats::default();
        for v in &all {
            stats.messages += v[0];
            stats.bytes += v[1];
            stats.rounds = stats.rounds.max(v[2]);
            stats.max_msgs_per_rank = stats.max_msgs_per_rank.max(v[0]);
            stats.max_bytes_per_rank = stats.max_bytes_per_rank.max(v[1]);
        }
        Ok(stats)
    }
}

/// Serialize `(rank, payload)` pairs: `[u64 count]` then per pair
/// `[u32 rank][u64 len][bytes]`.
fn encode_pairs(pairs: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for (rank, payload) in pairs {
        out.extend_from_slice(&rank.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

fn decode_pairs(blob: &[u8]) -> Result<Vec<(u32, Vec<u8>)>, NetError> {
    let bad = || NetError::Protocol("malformed allgather blob".into());
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Result<&[u8], NetError> {
        let end = at.checked_add(n).ok_or_else(bad)?;
        if end > blob.len() {
            return Err(bad());
        }
        let s = &blob[*at..end];
        *at = end;
        Ok(s)
    };
    let count = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let rank = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
        let len = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap()) as usize;
        out.push((rank, take(&mut at, len)?.to_vec()));
    }
    if at != blob.len() {
        return Err(bad());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::testutil::{run_ranks, scratch};

    #[test]
    fn allgather_orders_by_rank_and_allreduce_is_canonical() {
        let dir = scratch("ag");
        for p in [2usize, 3, 5] {
            let d = dir.join(format!("p{p}"));
            std::fs::create_dir_all(&d).unwrap();
            let got = run_ranks(&d, p, move |r, t| {
                let mut c = NetComm::new(t);
                let mine: Vec<f64> = vec![r as f64; r + 1]; // ragged payloads
                let all = c.allgather_f64s(&mine).unwrap();
                let sum = c.allreduce_sum(0.1 * (r as f64 + 1.0)).unwrap();
                c.barrier().unwrap();
                (all, sum)
            });
            let want_sum: f64 = (0..p).map(|r| 0.1 * (r as f64 + 1.0)).sum();
            for (r, (all, sum)) in got.iter().enumerate() {
                assert_eq!(all.len(), p, "rank {r}");
                for (src, v) in all.iter().enumerate() {
                    assert_eq!(v.len(), src + 1);
                    assert!(v.iter().all(|&x| x == src as f64));
                }
                // Bitwise-identical reduction on every rank.
                assert_eq!(sum.to_bits(), want_sum.to_bits(), "rank {r}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-rank machine exchanges nothing and is charged nothing —
    /// zero messages, zero bytes, zero rounds — while multi-rank
    /// collectives charge `2·⌈log₂ P⌉` rounds.
    #[test]
    fn single_rank_is_silent_and_trees_charge_stage_rounds() {
        let dir = scratch("acct");
        let single = run_ranks(&dir.join("p1"), 1, |_, t| {
            let mut c = NetComm::new(t);
            let all = c.allgather_f64s(&[4.0]).unwrap();
            assert_eq!(all, vec![vec![4.0]]);
            assert_eq!(c.allreduce_sum(2.5).unwrap(), 2.5);
            c.barrier().unwrap();
            c.local_counts()
        });
        assert_eq!(single[0], (0, 0, 0), "P=1 must be silent");
        let quad = run_ranks(&dir.join("p4"), 4, |_, t| {
            let mut c = NetComm::new(t);
            c.barrier().unwrap();
            let (_, _, rounds) = c.local_counts();
            let stats = c.global_stats().unwrap();
            (rounds, stats)
        });
        for (rounds, stats) in &quad {
            assert_eq!(*rounds, 4, "one barrier = 2*ceil(log2 4) rounds");
            // global_stats agrees across ranks and covers the barrier only.
            assert_eq!(stats, &quad[0].1);
            assert_eq!(stats.rounds, 4);
            assert!(stats.messages > 0 && stats.bytes > 0);
            assert!(stats.max_msgs_per_rank <= stats.messages);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exchange_is_pairwise_and_times_are_recorded() {
        let dir = scratch("ex");
        let got = run_ranks(&dir, 3, |r, t| {
            let mut c = NetComm::new(t);
            // Ring-ish symmetric pattern: everyone exchanges with everyone.
            let outbox: Vec<(usize, Vec<f64>)> = (0..3)
                .filter(|&peer| peer != r)
                .map(|peer| (peer, vec![(10 * r + peer) as f64]))
                .collect();
            let inbox = c.exchange(&outbox).unwrap();
            let (msgs, bytes, rounds) = c.local_counts();
            assert_eq!((msgs, bytes, rounds), (2, 16, 1));
            assert_eq!(c.timings.exchange.len(), 1);
            inbox
        });
        for (r, inbox) in got.iter().enumerate() {
            let peers: Vec<usize> = (0..3).filter(|&p| p != r).collect();
            for (i, &peer) in peers.iter().enumerate() {
                assert_eq!(inbox[i], vec![(10 * peer + r) as f64]);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_gather_collects_at_rank_zero_without_accounting() {
        let dir = scratch("telemetry");
        let got = run_ranks(&dir, 4, |r, t| {
            let mut c = NetComm::new(t);
            let mine = vec![r as u8; r * 3]; // ragged, rank 0 empty
            let gathered = c.gather_telemetry(&mine).unwrap();
            (gathered, c.local_counts(), c.timings.clone())
        });
        for (r, (gathered, counts, timings)) in got.iter().enumerate() {
            // Out-of-band: no accounting, no timing samples.
            assert_eq!(*counts, (0, 0, 0), "rank {r} charged for telemetry");
            assert!(
                timings.exchange.is_empty()
                    && timings.allgather.is_empty()
                    && timings.allreduce.is_empty()
            );
            match gathered {
                Some(blobs) => {
                    assert_eq!(r, 0, "only rank 0 collects");
                    assert_eq!(blobs.len(), 4);
                    for (src, blob) in blobs.iter().enumerate() {
                        assert_eq!(blob, &vec![src as u8; src * 3]);
                    }
                }
                None => assert_ne!(r, 0),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pair_blob_round_trip_rejects_corruption() {
        let pairs = vec![(0u32, vec![1u8, 2, 3]), (7, vec![]), (2, vec![9; 100])];
        let blob = encode_pairs(&pairs);
        assert_eq!(decode_pairs(&blob).unwrap(), pairs);
        assert!(decode_pairs(&blob[..blob.len() - 1]).is_err());
        let mut extra = blob.clone();
        extra.push(0);
        assert!(decode_pairs(&extra).is_err());
    }
}
