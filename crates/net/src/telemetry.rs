//! Rank-aware telemetry collection: one artifact per job, not one
//! stream per process.
//!
//! A multi-rank run without this module emits N disjoint metric streams
//! with no way to see load imbalance or the measured comm fraction —
//! the quantities the paper's Table 2 and its 87%-parallel-efficiency
//! claim are made of. With `terasem-launch --telemetry`, each rank
//! captures its end-of-run observability state (counter snapshot,
//! per-phase span totals, exact log2 latency histograms, and the
//! per-op-class `(bytes, secs)` comm samples `NetComm` records on every
//! exchange/allgather/allreduce) and ships it to rank 0 over the
//! transport's out-of-band telemetry channel
//! ([`crate::comm::NetComm::gather_telemetry`]). Rank 0 writes, into
//! the job directory the launcher owns:
//!
//! * **`terasem.ranks`** — JSON lines, one `terasem.rank` record per
//!   rank (schema shared with `sem_obs::record`), consumed by
//!   `sem-report --ranks`;
//! * **`trace_merged.json`** — a single Chrome trace with one *process
//!   lane per rank*, clock-aligned by shifting each rank's events so
//!   the start-barrier instants coincide (each rank's trace clock is
//!   process-local, so the shared barrier is the common reference
//!   point).
//!
//! Everything here is out of band: the telemetry shipping itself is
//! never charged to the comm accounting it reports, and a run without
//! `--telemetry` takes none of these paths.

use crate::comm::{CommTimings, NetComm, CLASS_TELEMETRY};
use crate::transport::{bytes_to_u64s, NetError};
use sem_gs::RankGs;
use sem_obs::counters::{self, CounterSnapshot};
use sem_obs::hist::{self, HistSnapshot};
use sem_obs::json::{fmt_f64, Json, JsonObj};
use sem_obs::record::{counters_obj, latency_hist_obj, spans_obj, RANK_RECORD_TYPE, SCHEMA_VERSION};
use sem_obs::spans::{self, SpanSnapshot};
use sem_obs::trace;
use std::path::{Path, PathBuf};

/// Artifact file name: JSON-lines of `terasem.rank` records.
pub const RANKS_FILE: &str = "terasem.ranks";
/// Artifact file name: the merged per-rank-lane Chrome trace.
pub const MERGED_TRACE_FILE: &str = "trace_merged.json";

/// One rank's end-of-run telemetry, captured *before* the end-of-run
/// collectives so the comm samples describe the solve, not the
/// shutdown.
#[derive(Clone, Debug)]
pub struct RankTelemetry {
    /// This rank.
    pub rank: usize,
    /// Total ranks in the job.
    pub size: usize,
    /// Target step the run reached.
    pub steps: u64,
    /// Steps advanced by this process life (differs from `steps` after
    /// a checkpoint resume).
    pub steps_this_life: u64,
    /// Trace-clock timestamp taken right after the start barrier
    /// returned — the cross-rank clock-alignment reference.
    pub barrier_ns: u64,
    /// End-of-run counter totals (this life).
    pub counters: CounterSnapshot,
    /// End-of-run inclusive span totals (this life).
    pub spans: SpanSnapshot,
    /// End-of-run per-phase latency histograms (exact buckets).
    pub hist: HistSnapshot,
    /// Per-op-class `(bytes, secs)` samples — the data `--bench-comm`
    /// fits α–β against, drained into the record on every telemetry
    /// run instead of being discarded.
    pub timings: CommTimings,
    /// This rank's comm accounting `(msgs, bytes, rounds)`.
    pub comm_counts: (u64, u64, u64),
    /// Neighbor-exchange pattern: messages per gather-scatter call.
    pub gs_msgs_per_call: u64,
    /// Neighbor-exchange pattern: words exchanged per call.
    pub gs_words_per_call: u64,
}

impl RankTelemetry {
    /// Snapshot the process-global observability registries and the
    /// communicator's solve-time accounting. Call this before
    /// `global_stats()` or any other end-of-run collective.
    pub fn capture(
        comm: &NetComm,
        gs: &RankGs,
        steps: u64,
        steps_this_life: u64,
        barrier_ns: u64,
    ) -> RankTelemetry {
        let (gs_msgs, gs_words) = gs.traffic_per_call();
        RankTelemetry {
            rank: comm.rank(),
            size: comm.size(),
            steps,
            steps_this_life,
            barrier_ns,
            counters: counters::snapshot(),
            spans: spans::span_snapshot(),
            hist: hist::hist_snapshot(),
            timings: comm.timings.clone(),
            comm_counts: comm.local_counts(),
            gs_msgs_per_call: gs_msgs,
            gs_words_per_call: gs_words,
        }
    }

    /// Serialize as one bare JSON object (one line of `terasem.ranks`).
    /// `clock_shift_ns` is the alignment shift applied to this rank's
    /// trace events in the merged export, recorded so the artifact is
    /// self-describing.
    pub fn to_json_body(&self, clock_shift_ns: u64) -> String {
        let mut o = JsonObj::new();
        o.str("type", RANK_RECORD_TYPE)
            .u64("schema", SCHEMA_VERSION)
            .u64("rank", self.rank as u64)
            .u64("ranks", self.size as u64)
            .u64("steps", self.steps)
            .u64("steps_this_life", self.steps_this_life)
            .u64("barrier_ns", self.barrier_ns)
            .u64("clock_shift_ns", clock_shift_ns)
            .obj("counters", counters_obj(&self.counters))
            .obj("spans", spans_obj(&self.spans))
            .obj("latency_hist", latency_hist_obj(&self.hist));
        let mut comm = JsonObj::new();
        comm.u64("msgs", self.comm_counts.0)
            .u64("bytes", self.comm_counts.1)
            .u64("rounds", self.comm_counts.2)
            .u64("gs_msgs_per_call", self.gs_msgs_per_call)
            .u64("gs_words_per_call", self.gs_words_per_call)
            .raw("exchange", &samples_arr(&self.timings.exchange))
            .raw("allgather", &samples_arr(&self.timings.allgather))
            .raw("allreduce", &samples_arr(&self.timings.allreduce));
        o.obj("comm", comm);
        o.finish()
    }
}

/// `[[bytes, secs], ...]` — the serialized form of one op class's
/// timing samples.
fn samples_arr(samples: &[(u64, f64)]) -> String {
    let mut out = String::from("[");
    for (i, &(bytes, secs)) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{bytes},{}]", fmt_f64(secs)));
    }
    out.push(']');
    out
}

/// Out-of-band barrier-timestamp exchange on the telemetry channel:
/// every rank sends its barrier stamp to rank 0, rank 0 replies with
/// the maximum. Returns this rank's alignment shift
/// `max_barrier − barrier_ns`, which is ≥ 0 — shifting every rank
/// forward to the latest barrier observation puts the common barrier
/// instant at the same merged-trace timestamp on every lane.
fn align_shift(comm: &mut NetComm, barrier_ns: u64) -> Result<u64, NetError> {
    let (r, p) = (comm.rank(), comm.size());
    if p == 1 {
        return Ok(0);
    }
    let t = comm.transport();
    let max_b = if r == 0 {
        let mut max_b = barrier_ns;
        for peer in 1..p {
            let stamps = bytes_to_u64s(&t.recv(peer, CLASS_TELEMETRY)?)?;
            max_b = max_b.max(*stamps.first().ok_or_else(|| {
                NetError::Protocol("empty barrier-stamp payload".into())
            })?);
        }
        for peer in 1..p {
            t.send(peer, CLASS_TELEMETRY, &max_b.to_le_bytes())?;
        }
        max_b
    } else {
        t.send(0, CLASS_TELEMETRY, &barrier_ns.to_le_bytes())?;
        let reply = bytes_to_u64s(&t.recv(0, CLASS_TELEMETRY)?)?;
        *reply
            .first()
            .ok_or_else(|| NetError::Protocol("empty barrier-max payload".into()))?
    };
    Ok(max_b.saturating_sub(barrier_ns))
}

/// Ship this rank's telemetry to rank 0 and, on rank 0, write the two
/// artifacts into `dir`. Collective — every rank must call it, after
/// any other end-of-run collectives. Returns the artifact paths on
/// rank 0, `None` elsewhere.
pub fn ship_and_write(
    comm: &mut NetComm,
    tel: &RankTelemetry,
    dir: &Path,
) -> Result<Option<(PathBuf, PathBuf)>, String> {
    let shift_ns = align_shift(comm, tel.barrier_ns).map_err(|e| format!("clock align: {e}"))?;
    let traces = trace::drain();
    let fragment = trace::chrome_events(
        &traces,
        tel.rank as u32,
        shift_ns,
        Some(&format!("rank {}", tel.rank)),
    );
    // One blob per rank: the record line, a newline, then the
    // pre-rendered trace fragment (neither contains a newline).
    let blob = format!("{}\n{fragment}", tel.to_json_body(shift_ns));
    let gathered = comm
        .gather_telemetry(blob.as_bytes())
        .map_err(|e| format!("telemetry gather: {e}"))?;
    let Some(blobs) = gathered else {
        return Ok(None);
    };
    let mut records = String::new();
    let mut fragments = Vec::with_capacity(blobs.len());
    for (r, blob) in blobs.iter().enumerate() {
        let text = std::str::from_utf8(blob)
            .map_err(|e| format!("rank {r} telemetry blob is not UTF-8: {e}"))?;
        let (record, fragment) = text
            .split_once('\n')
            .ok_or_else(|| format!("rank {r} telemetry blob has no record/trace separator"))?;
        let parsed = Json::parse(record)
            .ok_or_else(|| format!("rank {r} telemetry record is not valid JSON"))?;
        if parsed.get("rank").and_then(Json::as_u64) != Some(r as u64) {
            return Err(format!("rank {r} telemetry record carries the wrong rank id"));
        }
        records.push_str(record);
        records.push('\n');
        fragments.push(fragment.to_string());
    }
    let ranks_path = dir.join(RANKS_FILE);
    std::fs::write(&ranks_path, records)
        .map_err(|e| format!("write {}: {e}", ranks_path.display()))?;
    let trace_path = dir.join(MERGED_TRACE_FILE);
    std::fs::write(&trace_path, trace::chrome_wrap(&fragments))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    Ok(Some((ranks_path, trace_path)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RankLayout;
    use crate::transport::testutil::{run_ranks, scratch};
    use sem_mesh::generators::box2d;
    use sem_mesh::partition::partition_rsb;
    use sem_obs::spans::Phase;

    fn sample_tel(rank: usize, size: usize) -> RankTelemetry {
        let mut hist = HistSnapshot::default();
        hist.add_bucket(Phase::Step, 20, 3);
        let mut counters = CounterSnapshot::default();
        counters.set(sem_obs::Counter::GsWords, 100 + rank as u64);
        RankTelemetry {
            rank,
            size,
            steps: 10,
            steps_this_life: 10,
            barrier_ns: 1_000 * (rank as u64 + 1),
            counters,
            spans: SpanSnapshot::default(),
            hist,
            timings: CommTimings {
                exchange: vec![(256, 1.5e-5), (256, 2.0e-5)],
                allgather: vec![(64, 4.0e-5)],
                allreduce: vec![],
            },
            comm_counts: (12, 4096, 8),
            gs_msgs_per_call: 2,
            gs_words_per_call: 32,
        }
    }

    #[test]
    fn rank_record_serializes_round_trippable_json() {
        let body = sample_tel(2, 4).to_json_body(555);
        assert!(Json::parse(&body).is_some(), "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some(RANK_RECORD_TYPE));
        assert_eq!(v.get("schema").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        assert_eq!(v.get("rank").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("ranks").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("clock_shift_ns").and_then(Json::as_u64), Some(555));
        let comm = v.get("comm").unwrap();
        assert_eq!(comm.get("msgs").and_then(Json::as_u64), Some(12));
        assert_eq!(comm.get("gs_words_per_call").and_then(Json::as_u64), Some(32));
        let ex = comm.get("exchange").and_then(Json::as_arr).unwrap();
        assert_eq!(ex.len(), 2);
        let s0 = ex[0].as_arr().unwrap();
        assert_eq!(s0[0].as_u64(), Some(256));
        assert!((s0[1].as_f64().unwrap() - 1.5e-5).abs() < 1e-12);
        assert_eq!(
            comm.get("allreduce").and_then(Json::as_arr).map(|a| a.len()),
            Some(0)
        );
        // The exact hist buckets survive.
        let pairs = v
            .get("latency_hist")
            .and_then(|h| h.get("step"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].as_arr().unwrap()[0].as_u64(), Some(20));
        assert_eq!(pairs[0].as_arr().unwrap()[1].as_u64(), Some(3));
    }

    /// End-to-end over a real socket mesh: clock alignment, gather at
    /// rank 0, and both artifacts written and well-formed.
    #[test]
    fn ship_and_write_produces_both_artifacts() {
        let dir = scratch("telemetry_write");
        let job = dir.join("job");
        std::fs::create_dir_all(&job).unwrap();
        let jobdir = job.clone();
        let mesh_dir = dir.join("mesh");
        std::fs::create_dir_all(&mesh_dir).unwrap();
        let size = 3;
        let got = run_ranks(&mesh_dir, size, move |r, t| {
            let mut comm = NetComm::new(t);
            // A real layout so traffic_per_call is meaningful.
            let mesh = box2d(3, 3, [0.0, 1.0], [0.0, 1.0], true, true);
            let part = partition_rsb(&mesh, size);
            let ops = sem_ops::SemOps::new(mesh, 3);
            let layout = RankLayout::new(&ops.num.ids, ops.geo.npts, &part, size).unwrap();
            let tel = RankTelemetry::capture(&comm, &layout.gs(r), 7, 7, 1_000 * (r as u64 + 1));
            ship_and_write(&mut comm, &tel, &jobdir).unwrap()
        });
        for (r, res) in got.iter().enumerate() {
            assert_eq!(res.is_some(), r == 0, "only rank 0 returns paths");
        }
        let ranks = std::fs::read_to_string(job.join(RANKS_FILE)).unwrap();
        let lines: Vec<&str> = ranks.lines().collect();
        assert_eq!(lines.len(), size);
        let mut max_barrier = 0u64;
        for (r, line) in lines.iter().enumerate() {
            let v = Json::parse(line).expect("rank record parses");
            assert_eq!(v.get("rank").and_then(Json::as_u64), Some(r as u64));
            assert_eq!(v.get("ranks").and_then(Json::as_u64), Some(size as u64));
            let b = v.get("barrier_ns").and_then(Json::as_u64).unwrap();
            let s = v.get("clock_shift_ns").and_then(Json::as_u64).unwrap();
            max_barrier = max_barrier.max(b + s);
        }
        // Every rank's shifted barrier lands on the same aligned instant.
        for line in &lines {
            let v = Json::parse(line).unwrap();
            let b = v.get("barrier_ns").and_then(Json::as_u64).unwrap();
            let s = v.get("clock_shift_ns").and_then(Json::as_u64).unwrap();
            assert_eq!(b + s, max_barrier, "clock alignment must agree");
        }
        let merged = std::fs::read_to_string(job.join(MERGED_TRACE_FILE)).unwrap();
        assert!(
            Json::parse(&merged).is_some(),
            "merged trace invalid: {merged}"
        );
        for r in 0..size {
            assert!(
                merged.contains(&format!("\"rank {r}\"")),
                "lane label for rank {r} missing: {merged}"
            );
            assert!(merged.contains(&format!("\"pid\":{r}")));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
