//! Unix-domain-socket rank mesh: the zero-dependency, self-healing
//! transport under `sem-net`.
//!
//! Every rank of a `P`-rank job owns a listening socket
//! `<dir>/rank_<r>.sock`. Bootstrap builds the full pairwise mesh with a
//! deterministic handshake: each rank binds its own listener *first*,
//! then dials every lower rank (retrying with jittered exponential
//! backoff until that rank's listener appears) and sends a 12-byte
//! hello, while accepting hellos from every higher rank. The result is
//! one duplex stream per peer; after bootstrap the listener is handed
//! to a background acceptor thread that serves *resume* handshakes for
//! the life of the transport.
//!
//! Framing is `[u32 tag][u64 len][u32 crc][len bytes]`, little-endian,
//! where the CRC32 covers the tag, length, and payload. Tags carry a
//! protocol class plus a per-pair 24-bit sequence number. Any header or
//! payload corruption — a flipped byte, a truncated write, an absurd
//! length — surfaces as a structured error ([`NetError::Corrupt`]),
//! never a panic, hang, or misparse (pinned by a seeded byte-flip
//! proptest in `tests/frame_proptest.rs`).
//!
//! Each peer stream gets a reader thread that drains the socket into an
//! in-memory inbox (`Mutex<VecDeque>` + `Condvar`), validating arrival
//! sequence numbers as it goes: stale duplicates are discarded
//! ([`sem_obs::Counter::NetFramesStale`]), sequence gaps and integrity
//! failures *break the link*. A broken link is healed transparently:
//! the higher rank of the pair redials (jittered exponential backoff
//! within a bounded heal window), both sides exchange the sequence
//! numbers they expect next, and each replays the missing tail of its
//! bounded per-link retransmit buffer
//! ([`sem_obs::Counter::NetRetries`], [`sem_obs::Counter::NetReconnects`]).
//! While a receive is blocked, heartbeat probes on a dedicated control
//! class distinguish a *dead* peer (escalate to [`NetError::PeerDead`])
//! from a *slow* one (extend the deadline, warn once per link). With
//! healing disabled ([`NetTuning::no_heal`]) every damage kind maps to
//! its structured error instead, which is how the fault-injection unit
//! tests pin detection.
//!
//! Deterministic link faults (drops, corruption, truncation,
//! duplication, stalls, severs — see [`crate::fault::NetFaultPlan`])
//! are injected by a shim inside [`Transport::send`], armed via
//! [`NetTuning`] or the `TERASEM_NET_FAULT` environment variable.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fault::{NetFaultKind, NetFaultPlan};
use sem_linalg::rng::SplitMix64;
use sem_obs::{counters, trace, Counter};

/// Largest accepted frame payload (1 GiB): anything bigger is treated as
/// a corrupt header rather than an allocation request.
const MAX_FRAME: u64 = 1 << 30;

/// Frame header bytes: `[u32 tag][u64 len][u32 crc]`.
const HEADER: usize = 16;

/// Sequence numbers are 24 bits (wrapping); distances of half the space
/// or more are interpreted as "behind" (stale) rather than "ahead".
const SEQ_MASK: u32 = 0x00ff_ffff;
const SEQ_HALF: u32 = 0x0080_0000;

/// Control protocol classes (reader-intercepted, never inboxed, always
/// sequence number 0). Data classes must stay below this range.
const CLASS_PROBE: u8 = 0xF0;
const CLASS_PROBE_ACK: u8 = 0xF1;
const CLASS_RESYNC: u8 = 0xF2;

// ---------------------------------------------------------------------
// CRC32 (IEEE polynomial, table-driven, hand-rolled — zero deps).
// Detects every burst error of ≤ 32 bits, so any single flipped byte
// anywhere in a frame is guaranteed to be caught.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 over the concatenation of `parts`.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
    }
    !c
}

// ---------------------------------------------------------------------
// Frame codec: encode, and one streaming reader (proptested on byte
// slices, run on sockets).

/// Structured frame-decode failure: every way a frame can be damaged on
/// the wire maps to exactly one of these — never a panic or misparse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header + declared payload length.
    Truncated {
        /// Bytes the frame declared it needs.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Declared payload length exceeds `MAX_FRAME` (1 GiB) — a corrupt
    /// header, not an allocation request.
    Oversize {
        /// The absurd declared length.
        len: u64,
    },
    /// CRC32 over tag‖len‖payload does not match the header.
    Crc {
        /// CRC carried by the header.
        want: u32,
        /// CRC recomputed over the received bytes.
        got: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            FrameError::Oversize { len } => write!(f, "frame length {len} exceeds limit"),
            FrameError::Crc { want, got } => {
                write!(f, "frame CRC mismatch: header says {want:#010x}, data is {got:#010x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode one frame: `[u32 tag][u64 len][u32 crc][payload]`.
pub fn encode_frame(tag: u32, payload: &[u8]) -> Vec<u8> {
    assert!((payload.len() as u64) < MAX_FRAME, "payload exceeds MAX_FRAME");
    let len = (payload.len() as u64).to_le_bytes();
    let tag_b = tag.to_le_bytes();
    let crc = crc32(&[&tag_b, &len, payload]);
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&tag_b);
    out.extend_from_slice(&len);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Read one frame off `stream` — a socket in the reader threads, a
/// byte slice in the codec's tests — returning its tag and payload.
/// Inverse of [`encode_frame`]. The outer `Err` is a failed read; every
/// damaged frame is an inner [`FrameError`], never a panic or a
/// misparse. A stream that ends cleanly at a frame boundary reads as
/// `Truncated { have: 0, .. }`.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Result<(u32, Vec<u8>), FrameError>> {
    let mut header = Vec::with_capacity(HEADER);
    stream.by_ref().take(HEADER as u64).read_to_end(&mut header)?;
    if header.len() < HEADER {
        let have = header.len();
        return Ok(Err(FrameError::Truncated { need: HEADER, have }));
    }
    let tag_b: [u8; 4] = header[0..4].try_into().unwrap();
    let len_b: [u8; 8] = header[4..12].try_into().unwrap();
    let want = u32::from_le_bytes(header[12..16].try_into().unwrap());
    let len = u64::from_le_bytes(len_b);
    if len > MAX_FRAME {
        return Ok(Err(FrameError::Oversize { len }));
    }
    // The payload grows as bytes arrive, so a corrupt length allocates
    // only what the stream actually holds.
    let mut payload = Vec::new();
    stream.take(len).read_to_end(&mut payload)?;
    let need = HEADER + len as usize;
    if payload.len() < len as usize {
        let have = HEADER + payload.len();
        return Ok(Err(FrameError::Truncated { need, have }));
    }
    let got = crc32(&[&tag_b, &len_b, &payload]);
    if got != want {
        return Ok(Err(FrameError::Crc { want, got }));
    }
    Ok(Ok((u32::from_le_bytes(tag_b), payload)))
}

// ---------------------------------------------------------------------
// Errors.

/// Transport failure, always attributed to a peer where one is known.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error outside an established link.
    Io(io::Error),
    /// The peer is gone: its stream closed and (when healing is on) it
    /// could not be re-established within the heal window.
    PeerDead { peer: usize },
    /// No frame (or no connection) from `peer` within the timeout.
    Timeout { peer: usize, waited: Duration },
    /// A frame from `peer` failed its integrity check — CRC mismatch,
    /// truncation mid-frame, or an absurd header length.
    Corrupt { peer: usize },
    /// A frame from `peer` skipped ahead of the expected sequence
    /// number: an earlier frame was lost on the wire.
    Dropped { peer: usize },
    /// A peer announced a mesh resynchronization at this epoch: the
    /// current transport generation is being abandoned (a peer was lost
    /// and the ranks are entering the next epoch) and the caller should
    /// re-bootstrap.
    Resync { epoch: u64 },
    /// A frame arrived whose tag does not match the deterministic
    /// per-pair protocol — a sequencing bug, never a recoverable fault.
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport i/o error: {e}"),
            NetError::PeerDead { peer } => write!(f, "rank {peer} is dead (socket closed)"),
            NetError::Timeout { peer, waited } => {
                write!(f, "timed out waiting {waited:?} for rank {peer}")
            }
            NetError::Corrupt { peer } => {
                write!(f, "frame from rank {peer} failed its integrity check")
            }
            NetError::Dropped { peer } => {
                write!(f, "frame from rank {peer} was lost (sequence gap)")
            }
            NetError::Resync { epoch } => {
                write!(f, "mesh resynchronization announced (epoch {epoch})")
            }
            NetError::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl FrameError {
    /// The transport-level error a damaged frame from `peer` maps to.
    pub fn into_net_error(self, peer: usize) -> NetError {
        NetError::Corrupt { peer }
    }
}

/// Socket path of rank `r` under `dir`.
pub fn sock_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank_{rank}.sock"))
}

// ---------------------------------------------------------------------
// Tuning.

/// Frames retained per link for replay after a heal.
const RETRANSMIT_FRAMES: usize = 256;

/// Resilience knobs for the transport, normally read from the
/// environment (`TERASEM_NET_HB_MS`, `TERASEM_NET_MISS_BUDGET`,
/// `TERASEM_NET_HEAL_MS`, `TERASEM_NET_FAULT`) but settable
/// programmatically for tests via [`Transport::bootstrap_tuned`].
#[derive(Clone, Debug)]
pub struct NetTuning {
    /// Interval between heartbeat probes while a receive is blocked.
    pub heartbeat: Duration,
    /// Consecutive unanswered probes tolerated before the link is
    /// declared unresponsive and broken (heal or escalate).
    pub miss_budget: u32,
    /// How long a broken link may take to heal before the peer is
    /// declared dead. Zero disables healing entirely: every damage
    /// kind surfaces as its structured [`NetError`] instead.
    pub heal_window: Duration,
    /// Seeded fault-injection plan (the shim is inert when `None`).
    pub fault: Option<NetFaultPlan>,
}

impl Default for NetTuning {
    fn default() -> Self {
        NetTuning {
            heartbeat: Duration::from_millis(250),
            miss_budget: 4,
            heal_window: Duration::from_secs(2),
            fault: None,
        }
    }
}

/// Domain-validated tuning knob. Parse failures *and* out-of-domain
/// values (below `min`) warn once per process, naming the variable, and
/// fall back to `default` — a knob must never silently produce a
/// transport that busy-spins (`TERASEM_NET_HB_MS=0`) or declares peers
/// dead instantly (`TERASEM_NET_MISS_BUDGET=0`).
fn knob_u64(var: &'static str, raw: Option<String>, min: u64, default: u64) -> u64 {
    let Some(v) = raw else { return default };
    match v.trim().parse::<u64>() {
        Ok(n) if n >= min => n,
        Ok(n) => {
            sem_obs::warn::invalid_env(
                var,
                &v,
                &format!("must be at least {min} (got {n}); using default {default}"),
            );
            default
        }
        Err(_) => {
            sem_obs::warn::invalid_env(
                var,
                &v,
                &format!("not a non-negative integer; using default {default}"),
            );
            default
        }
    }
}

impl NetTuning {
    /// Read the knobs (and the fault plan for `rank`) from the
    /// environment; malformed or out-of-domain values warn once and
    /// fall back to defaults.
    pub fn from_env(rank: usize) -> NetTuning {
        NetTuning::from_lookup(rank, |var| std::env::var(var).ok())
    }

    /// [`NetTuning::from_env`] with an injectable variable source, so
    /// the malformed-value handling is testable in-process without
    /// mutating the real environment. Domain rules: `HB_MS` and
    /// `MISS_BUDGET` must be ≥ 1 (zero would busy-spin or insta-kill
    /// links); `HEAL_MS=0` is *valid* — it is the documented switch that
    /// disables healing.
    pub fn from_lookup(rank: usize, lookup: impl Fn(&str) -> Option<String>) -> NetTuning {
        let d = NetTuning::default();
        NetTuning {
            heartbeat: Duration::from_millis(knob_u64(
                "TERASEM_NET_HB_MS",
                lookup("TERASEM_NET_HB_MS"),
                1,
                d.heartbeat.as_millis() as u64,
            )),
            miss_budget: knob_u64(
                "TERASEM_NET_MISS_BUDGET",
                lookup("TERASEM_NET_MISS_BUDGET"),
                1,
                d.miss_budget as u64,
            ) as u32,
            heal_window: Duration::from_millis(knob_u64(
                "TERASEM_NET_HEAL_MS",
                lookup("TERASEM_NET_HEAL_MS"),
                0,
                d.heal_window.as_millis() as u64,
            )),
            fault: NetFaultPlan::from_env(rank),
        }
    }

    /// Healing disabled: damage escalates as structured errors
    /// immediately (strict mode; used by detection unit tests).
    pub fn no_heal() -> NetTuning {
        NetTuning {
            heal_window: Duration::ZERO,
            ..NetTuning::default()
        }
    }

    fn healing(&self) -> bool {
        !self.heal_window.is_zero()
    }
}

// ---------------------------------------------------------------------
// Link state.

/// Why a link broke (reader-side diagnosis).
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Integrity failure: CRC mismatch, mid-frame truncation, or an
    /// oversize header.
    Corrupt,
    /// A data frame skipped ahead: something was dropped on the wire.
    Gap,
    /// Clean EOF or socket error: the stream is gone.
    Closed,
    /// The peer stopped answering heartbeat probes.
    Unresponsive,
}

impl Damage {
    fn to_net_error(self, peer: usize) -> NetError {
        match self {
            Damage::Corrupt => NetError::Corrupt { peer },
            Damage::Gap => NetError::Dropped { peer },
            Damage::Closed | Damage::Unresponsive => NetError::PeerDead { peer },
        }
    }
}

struct LinkState {
    frames: VecDeque<(u32, Vec<u8>)>,
    broken: Option<Damage>,
    broken_at: Option<Instant>,
    /// Bumped on every (re)connect; readers from older connections see
    /// a mismatch and exit without touching the state.
    conn_id: u64,
    /// Reader-side: sequence number the next data frame must carry.
    arrival_seq: u32,
    /// Sender-side: sequence number the next outbound frame gets.
    send_seq: u32,
    /// Bounded ring of recently sent encoded frames, for replay.
    sent: VecDeque<(u32, Vec<u8>)>,
    /// Latest heartbeat ack: (nonce, peer's send_seq claim).
    last_ack: Option<(u64, u32)>,
    readers: Vec<JoinHandle<()>>,
    warned_slow: bool,
}

struct LinkShared {
    state: Mutex<LinkState>,
    cv: Condvar,
    writer: Mutex<Option<UnixStream>>,
}

impl LinkShared {
    fn new() -> LinkShared {
        LinkShared {
            state: Mutex::new(LinkState {
                frames: VecDeque::new(),
                broken: None,
                broken_at: None,
                conn_id: 0,
                arrival_seq: 0,
                send_seq: 0,
                sent: VecDeque::new(),
                last_ack: None,
                readers: Vec::new(),
                warned_slow: false,
            }),
            cv: Condvar::new(),
            writer: Mutex::new(None),
        }
    }

    /// Write raw bytes through the writer slot. `Err` means the link is
    /// (now) broken.
    fn write_bytes(&self, bytes: &[u8]) -> Result<(), ()> {
        let mut w = self.writer.lock().unwrap();
        let Some(stream) = w.as_mut() else {
            return Err(());
        };
        if stream.write_all(bytes).is_ok() {
            return Ok(());
        }
        if let Some(stream) = w.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        Err(())
    }

    /// Mark the link broken (idempotent) and wake every waiter. Also
    /// drops the writer so the peer notices promptly.
    fn break_link(&self, st: &mut LinkState, why: Damage) {
        if st.broken.is_none() {
            st.broken = Some(why);
            st.broken_at = Some(Instant::now());
        }
        if let Ok(mut w) = self.writer.try_lock() {
            if let Some(stream) = w.take() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        self.cv.notify_all();
    }
}

/// State shared between the main thread, the reader threads, and the
/// acceptor thread.
struct Mesh {
    rank: usize,
    size: usize,
    dir: PathBuf,
    /// `links[peer]` is `None` only for `peer == rank`.
    links: Vec<Option<LinkShared>>,
    /// `0` = no resync announced; otherwise `epoch + 1`.
    resync: AtomicU64,
    stop: AtomicBool,
}

impl Mesh {
    fn link(&self, peer: usize) -> &LinkShared {
        self.links[peer].as_ref().expect("mesh link exists")
    }

    fn wake_all(&self) {
        for link in self.links.iter().flatten() {
            link.cv.notify_all();
        }
    }
}

/// Compose a frame tag from a protocol class and a per-pair sequence
/// number (24 bits, wrapping — both sides wrap together).
fn tag_of(class: u8, seq: u32) -> u32 {
    (class as u32) | ((seq & SEQ_MASK) << 8)
}

/// Wrap-aware distance `a − b` in sequence space.
fn seq_ahead(a: u32, b: u32) -> u32 {
    a.wrapping_sub(b) & SEQ_MASK
}

/// Jittered exponential backoff for attempt `attempt` (0-based): base
/// 2 ms doubling to a 100 ms cap, scaled by a seeded factor in
/// [0.5, 1.5) so concurrent dialers don't thunder in lockstep.
fn backoff_delay(seed: u64, attempt: u32) -> Duration {
    let exp_ms = (2u64 << attempt.min(6)).min(100);
    let jitter = SplitMix64::new(seed ^ (attempt as u64) << 17).next_u64() % 1000;
    Duration::from_micros(exp_ms * (500 + jitter))
}

/// The reader thread: drains one connection into the link inbox,
/// answering control frames and validating data-frame sequencing.
fn reader_loop(mesh: Arc<Mesh>, peer: usize, mut stream: UnixStream, conn_id: u64) {
    let lk = mesh.link(peer);
    loop {
        match read_frame(&mut stream) {
            Ok(Ok((tag, payload))) => {
                let class = (tag & 0xff) as u8;
                if class >= CLASS_PROBE {
                    match class {
                        CLASS_PROBE => {
                            // Answer with our data-frame claim so the
                            // prober can tell "slow" from "lossy".
                            let (stale, claim) = {
                                let st = lk.state.lock().unwrap();
                                (st.conn_id != conn_id, st.send_seq)
                            };
                            if stale {
                                return;
                            }
                            let mut ack = payload.clone();
                            ack.extend_from_slice(&claim.to_le_bytes());
                            let _ = lk.write_bytes(&encode_frame(tag_of(CLASS_PROBE_ACK, 0), &ack));
                        }
                        CLASS_PROBE_ACK => {
                            if payload.len() == 12 {
                                let nonce = u64::from_le_bytes(payload[0..8].try_into().unwrap());
                                let claim = u32::from_le_bytes(payload[8..12].try_into().unwrap());
                                let mut st = lk.state.lock().unwrap();
                                if st.conn_id != conn_id {
                                    return;
                                }
                                st.last_ack = Some((nonce, claim));
                                lk.cv.notify_all();
                            }
                        }
                        CLASS_RESYNC => {
                            if payload.len() == 8 {
                                let epoch = u64::from_le_bytes(payload[0..8].try_into().unwrap());
                                mesh.resync.store(epoch + 1, Ordering::SeqCst);
                                mesh.wake_all();
                            }
                        }
                        _ => {} // unknown control frame: ignore
                    }
                    continue;
                }
                let seq = (tag >> 8) & SEQ_MASK;
                let mut st = lk.state.lock().unwrap();
                if st.conn_id != conn_id {
                    return;
                }
                let ahead = seq_ahead(seq, st.arrival_seq);
                if ahead == 0 {
                    st.arrival_seq = st.arrival_seq.wrapping_add(1) & SEQ_MASK;
                    st.frames.push_back((tag, payload));
                    lk.cv.notify_all();
                } else if ahead >= SEQ_HALF {
                    // Replayed frame we already delivered: discard.
                    counters::add(Counter::NetFramesStale, 1);
                } else {
                    // A frame went missing on the wire.
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    lk.break_link(&mut st, Damage::Gap);
                    return;
                }
            }
            failed => {
                let damage = match failed {
                    Err(_) | Ok(Err(FrameError::Truncated { have: 0, .. })) => Damage::Closed,
                    _ => {
                        counters::add(Counter::NetFramesCorrupt, 1);
                        Damage::Corrupt
                    }
                };
                let mut st = lk.state.lock().unwrap();
                if st.conn_id != conn_id {
                    return;
                }
                let _ = stream.shutdown(std::net::Shutdown::Both);
                lk.break_link(&mut st, damage);
                return;
            }
        }
    }
}

/// Install a fresh connection on `lk` (under its state lock): bump the
/// connection id, set the writer, spawn a reader, and clear damage.
/// Returns the encoded frames to replay (those the peer still expects).
fn install_connection(
    mesh: &Arc<Mesh>,
    peer: usize,
    st: &mut LinkState,
    stream: UnixStream,
    peer_expect: u32,
) -> Result<Vec<Vec<u8>>, ()> {
    // Can we cover everything the peer is missing from the ring?
    if seq_ahead(st.send_seq, peer_expect) != 0 {
        match st.sent.front() {
            Some(&(oldest, _)) if seq_ahead(peer_expect, oldest) < SEQ_HALF => {}
            _ => return Err(()), // retransmit window overrun
        }
    }
    let writer = stream.try_clone().map_err(|_| ())?;
    st.conn_id += 1;
    st.broken = None;
    st.broken_at = None;
    st.last_ack = None;
    let lk = mesh.link(peer);
    *lk.writer.lock().unwrap() = Some(writer);
    let mesh2 = Arc::clone(mesh);
    let conn_id = st.conn_id;
    st.readers
        .push(std::thread::spawn(move || reader_loop(mesh2, peer, stream, conn_id)));
    let replay: Vec<Vec<u8>> = st
        .sent
        .iter()
        .filter(|(seq, _)| seq_ahead(*seq, peer_expect) < SEQ_HALF)
        .map(|(_, frame)| frame.clone())
        .collect();
    Ok(replay)
}

/// Send the replayed tail after a heal (bypasses the fault shim — a
/// storm must not re-fire on its own recovery traffic).
fn write_replay(lk: &LinkShared, replay: &[Vec<u8>]) {
    if !replay.is_empty() {
        counters::add(Counter::NetRetries, replay.len() as u64);
        trace::note("net_retry", replay.len() as f64);
        for frame in replay {
            if lk.write_bytes(frame).is_err() {
                break; // link broke again; the next heal replays
            }
        }
    }
    counters::add(Counter::NetReconnects, 1);
    trace::note("net_reconnect", 1.0);
}

/// Resume hello: `[u32 rank][u32 kind][u32 expect]` (kind 0 =
/// bootstrap, 1 = resume).
fn write_hello(stream: &mut UnixStream, rank: usize, kind: u32, expect: u32) -> io::Result<()> {
    let mut hello = [0u8; 12];
    hello[0..4].copy_from_slice(&(rank as u32).to_le_bytes());
    hello[4..8].copy_from_slice(&kind.to_le_bytes());
    hello[8..12].copy_from_slice(&expect.to_le_bytes());
    stream.write_all(&hello)
}

fn read_hello(stream: &mut UnixStream) -> io::Result<(usize, u32, u32)> {
    let mut hello = [0u8; 12];
    stream.read_exact(&mut hello)?;
    Ok((
        u32::from_le_bytes(hello[0..4].try_into().unwrap()) as usize,
        u32::from_le_bytes(hello[4..8].try_into().unwrap()),
        u32::from_le_bytes(hello[8..12].try_into().unwrap()),
    ))
}

/// The background acceptor: serves resume handshakes from higher ranks
/// for the life of the transport, so a severed link can be
/// re-established even while this rank is deep in a compute phase.
fn acceptor_loop(mesh: Arc<Mesh>, listener: UnixListener) {
    loop {
        if mesh.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
                let Ok((peer, kind, peer_expect)) = read_hello(&mut stream) else {
                    continue;
                };
                let _ = stream.set_read_timeout(None);
                if kind != 1 || peer <= mesh.rank || peer >= mesh.size {
                    continue; // not a resume from a valid higher rank
                }
                let lk = mesh.link(peer);
                let mut st = lk.state.lock().unwrap();
                // Reply with what our reader expects next, then install.
                if stream.write_all(&st.arrival_seq.to_le_bytes()).is_err() {
                    continue;
                }
                match install_connection(&mesh, peer, &mut st, stream, peer_expect) {
                    Ok(replay) => {
                        drop(st);
                        write_replay(lk, &replay);
                        lk.cv.notify_all();
                    }
                    Err(()) => {} // uncoverable: drop the connection
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

// ---------------------------------------------------------------------
// Transport.

/// One rank's view of the fully-connected, self-healing rank mesh.
pub struct Transport {
    mesh: Arc<Mesh>,
    timeout: Duration,
    tuning: NetTuning,
    /// Pop-side per-peer expected sequence (main thread only).
    recv_seq: Vec<u32>,
    /// Cumulative outbound data frames (1-based fault-plan indexing).
    frames_sent: u64,
    /// Monotonic heartbeat nonce source.
    probe_nonce: u64,
    acceptor: Option<JoinHandle<()>>,
}

fn dial_with_retry(
    path: &Path,
    deadline: Instant,
    peer: usize,
    seed: u64,
) -> Result<UnixStream, NetError> {
    let mut attempt = 0u32;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(_) if Instant::now() < deadline => {
                // Jittered exponential backoff: don't burn a core (or
                // thunder in lockstep with sibling dialers) while the
                // peer's listener comes up.
                std::thread::sleep(backoff_delay(seed.wrapping_add(peer as u64), attempt));
                attempt += 1;
            }
            Err(_) => {
                return Err(NetError::Timeout {
                    peer,
                    waited: Duration::from_secs(0),
                })
            }
        }
    }
}

impl Transport {
    /// Build the pairwise mesh for `rank` of a `size`-rank job rooted at
    /// `dir`, with tuning read from the environment. Blocks until every
    /// peer link is up or `timeout` passes.
    pub fn bootstrap(
        dir: &Path,
        rank: usize,
        size: usize,
        timeout: Duration,
    ) -> Result<Transport, NetError> {
        Transport::bootstrap_tuned(dir, rank, size, timeout, NetTuning::from_env(rank))
    }

    /// [`Transport::bootstrap`] with explicit tuning (no environment
    /// reads — unit tests arm fault plans this way).
    pub fn bootstrap_tuned(
        dir: &Path,
        rank: usize,
        size: usize,
        timeout: Duration,
        tuning: NetTuning,
    ) -> Result<Transport, NetError> {
        assert!(size >= 1, "need at least one rank");
        assert!(rank < size, "rank {rank} out of range for size {size}");
        std::fs::create_dir_all(dir)?;
        let my_path = sock_path(dir, rank);
        // A stale socket file from a previous life would make bind fail.
        let _ = std::fs::remove_file(&my_path);
        let listener = UnixListener::bind(&my_path)?;
        listener.set_nonblocking(true)?;
        let deadline = Instant::now() + timeout;
        let mesh = Arc::new(Mesh {
            rank,
            size,
            dir: dir.to_path_buf(),
            links: (0..size)
                .map(|p| (p != rank).then(LinkShared::new))
                .collect(),
            resync: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        // Dial every lower rank; their listeners may not exist yet.
        for peer in 0..rank {
            let mut stream = dial_with_retry(&sock_path(dir, peer), deadline, peer, rank as u64)?;
            write_hello(&mut stream, rank, 0, 0)?;
            let lk = mesh.link(peer);
            let mut st = lk.state.lock().unwrap();
            install_connection(&mesh, peer, &mut st, stream, 0)
                .map_err(|_| NetError::Protocol(format!("rank {rank}: dial of {peer} failed")))?;
        }
        // Accept (and identify) every higher rank.
        let mut missing = size - rank - 1;
        while missing > 0 {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(timeout))?;
                    let (peer, kind, _) = read_hello(&mut stream)?;
                    stream.set_read_timeout(None)?;
                    if kind != 0 || peer <= rank || peer >= size {
                        return Err(NetError::Protocol(format!(
                            "rank {rank} accepted an invalid hello (rank {peer}, kind {kind})"
                        )));
                    }
                    let lk = mesh.link(peer);
                    let mut st = lk.state.lock().unwrap();
                    if st.conn_id != 0 {
                        return Err(NetError::Protocol(format!(
                            "rank {peer} connected to rank {rank} twice"
                        )));
                    }
                    install_connection(&mesh, peer, &mut st, stream, 0).map_err(|_| {
                        NetError::Protocol(format!("rank {rank}: accept of {peer} failed"))
                    })?;
                    missing -= 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Timeout {
                            peer: usize::MAX,
                            waited: timeout,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e.into()),
            }
        }
        // Hand the listener to the background acceptor so severed links
        // can resume for the life of the transport.
        let acceptor = {
            let mesh = Arc::clone(&mesh);
            Some(std::thread::spawn(move || acceptor_loop(mesh, listener)))
        };
        Ok(Transport {
            mesh,
            timeout,
            tuning,
            recv_seq: vec![0; size],
            frames_sent: 0,
            probe_nonce: (rank as u64) << 32,
            acceptor,
        })
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.mesh.rank
    }

    /// Total ranks in the job.
    pub fn size(&self) -> usize {
        self.mesh.size
    }

    /// The active tuning (fault plan, heartbeat/heal knobs).
    pub fn tuning(&self) -> &NetTuning {
        &self.tuning
    }

    /// The resync epoch a peer announced, if any.
    pub fn resync_epoch(&self) -> Option<u64> {
        match self.mesh.resync.load(Ordering::SeqCst) {
            0 => None,
            e => Some(e - 1),
        }
    }

    fn check_peer(&self, peer: usize) -> Result<(), NetError> {
        if peer == self.mesh.rank || peer >= self.mesh.size {
            return Err(NetError::Protocol(format!(
                "rank {} addressed invalid peer {peer}",
                self.mesh.rank
            )));
        }
        if let Some(epoch) = self.resync_epoch() {
            return Err(NetError::Resync { epoch });
        }
        Ok(())
    }

    /// Am I the dialing side of the link to `peer`? (Higher rank dials
    /// lower, mirroring bootstrap.)
    fn is_dialer(&self, peer: usize) -> bool {
        self.mesh.rank > peer
    }

    /// Redial `peer` and run the resume handshake. Called with no locks
    /// held; on success the link is healed and the missing tail has
    /// been replayed.
    fn heal_dialing(&mut self, peer: usize) -> Result<(), NetError> {
        let mesh = Arc::clone(&self.mesh);
        let lk = mesh.link(peer);
        let deadline = {
            let st = lk.state.lock().unwrap();
            if st.broken.is_none() {
                return Ok(()); // healed concurrently
            }
            st.broken_at.unwrap_or_else(Instant::now) + self.tuning.heal_window
        };
        let seed = SplitMix64::new((self.mesh.rank as u64) << 20 | peer as u64).next_u64();
        let mut attempt = 0u32;
        loop {
            if self.resync_epoch().is_some() {
                return Err(NetError::Resync {
                    epoch: self.resync_epoch().unwrap(),
                });
            }
            match UnixStream::connect(sock_path(&self.mesh.dir, peer)) {
                Ok(mut stream) => {
                    let expect = lk.state.lock().unwrap().arrival_seq;
                    let handshake = (|| -> io::Result<u32> {
                        write_hello(&mut stream, self.mesh.rank, 1, expect)?;
                        stream.set_read_timeout(Some(Duration::from_secs(1)))?;
                        let mut reply = [0u8; 4];
                        stream.read_exact(&mut reply)?;
                        stream.set_read_timeout(None)?;
                        Ok(u32::from_le_bytes(reply))
                    })();
                    match handshake {
                        Ok(peer_expect) => {
                            let mut st = lk.state.lock().unwrap();
                            match install_connection(&mesh, peer, &mut st, stream, peer_expect) {
                                Ok(replay) => {
                                    drop(st);
                                    write_replay(lk, &replay);
                                    lk.cv.notify_all();
                                    return Ok(());
                                }
                                Err(()) => return Err(NetError::PeerDead { peer }),
                            }
                        }
                        Err(_) => {} // fall through to backoff
                    }
                }
                Err(_) => {}
            }
            if Instant::now() >= deadline {
                return Err(NetError::PeerDead { peer });
            }
            std::thread::sleep(backoff_delay(seed, attempt));
            attempt += 1;
        }
    }

    /// Wait (acceptor side) for the peer to redial within the heal
    /// window. Returns `Ok` once healed.
    fn wait_for_heal(&self, peer: usize) -> Result<(), NetError> {
        let lk = self.mesh.link(peer);
        let mut st = lk.state.lock().unwrap();
        loop {
            if st.broken.is_none() {
                return Ok(());
            }
            if self.resync_epoch().is_some() {
                return Err(NetError::Resync {
                    epoch: self.resync_epoch().unwrap(),
                });
            }
            let deadline = st.broken_at.unwrap_or_else(Instant::now) + self.tuning.heal_window;
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::PeerDead { peer });
            }
            let (guard, _) = lk.cv.wait_timeout(st, (deadline - now).min(Duration::from_millis(50))).unwrap();
            st = guard;
        }
    }

    /// Heal a broken link from whichever side we are, or surface the
    /// structured damage when healing is disabled.
    fn heal_or_escalate(&mut self, peer: usize, damage: Damage) -> Result<(), NetError> {
        if !self.tuning.healing() {
            return Err(damage.to_net_error(peer));
        }
        if self.is_dialer(peer) {
            self.heal_dialing(peer)
        } else {
            self.wait_for_heal(peer)
        }
    }

    /// Send one framed message of protocol class `class` to `peer`.
    pub fn send(&mut self, peer: usize, class: u8, payload: &[u8]) -> Result<(), NetError> {
        assert!(class < CLASS_PROBE, "data class collides with control range");
        self.check_peer(peer)?;
        self.frames_sent += 1;
        let frame_idx = self.frames_sent;
        let fault = self
            .tuning
            .fault
            .as_ref()
            .and_then(|p| p.event_for(frame_idx, class));
        let lk = self.mesh.link(peer);
        let (frame, broken) = {
            let mut st = lk.state.lock().unwrap();
            let seq = st.send_seq;
            st.send_seq = st.send_seq.wrapping_add(1) & SEQ_MASK;
            let frame = encode_frame(tag_of(class, seq), payload);
            st.sent.push_back((seq, frame.clone()));
            while st.sent.len() > RETRANSMIT_FRAMES {
                st.sent.pop_front();
            }
            (frame, st.broken)
        };
        if let Some(damage) = broken {
            // The frame is buffered; healing replays it. On the
            // acceptor side the peer drives the heal, so buffering is
            // enough. Either way we still fall through to the normal
            // write path — a frame delivered twice (replay + write) is
            // discarded as stale by the receiver — so the fault shim
            // stays frame-accurate across heals.
            if !self.tuning.healing() {
                return Err(damage.to_net_error(peer));
            }
            if self.is_dialer(peer) {
                self.heal_dialing(peer)?;
            }
        }
        if let Some(kind) = fault {
            return self.send_faulted(peer, kind, frame_idx, frame);
        }
        if self.mesh.link(peer).write_bytes(&frame).is_err() {
            let lk = self.mesh.link(peer);
            let mut st = lk.state.lock().unwrap();
            lk.break_link(&mut st, Damage::Closed);
            drop(st);
            if !self.tuning.healing() {
                return Err(NetError::PeerDead { peer });
            }
            if self.is_dialer(peer) {
                self.heal_dialing(peer)?;
            }
        }
        Ok(())
    }

    /// The fault-injection shim: the frame is already buffered for
    /// retransmit, so every kind below is recoverable by the heal path.
    fn send_faulted(
        &mut self,
        peer: usize,
        kind: NetFaultKind,
        frame_idx: u64,
        frame: Vec<u8>,
    ) -> Result<(), NetError> {
        counters::add(Counter::NetFaultsInjected, 1);
        let note = match kind {
            NetFaultKind::Drop => "net_fault_drop",
            NetFaultKind::Delay { .. } => "net_fault_delay",
            NetFaultKind::Corrupt { .. } => "net_fault_corrupt",
            NetFaultKind::Truncate => "net_fault_truncate",
            NetFaultKind::Duplicate => "net_fault_dup",
            NetFaultKind::Stall { .. } => "net_fault_stall",
            NetFaultKind::Sever => "net_fault_sever",
        };
        trace::note(note, frame_idx as f64);
        let lk = self.mesh.link(peer);
        match kind {
            NetFaultKind::Drop => {} // buffered, never written
            NetFaultKind::Delay { .. } | NetFaultKind::Stall { .. } => {
                // Sleep *before* the write (not holding the writer
                // lock) so our reader keeps answering probes: the peer
                // must see us as slow, not lossy.
                std::thread::sleep(NetFaultPlan::hold_of(kind).unwrap());
                let _ = lk.write_bytes(&frame);
            }
            NetFaultKind::Corrupt { .. } => {
                let mut wire = frame;
                let seed_plan = self.tuning.fault.as_ref().unwrap();
                let idx = HEADER + seed_plan.corrupt_byte(frame_idx, wire.len() - HEADER);
                wire[idx] ^= 0x40;
                let _ = lk.write_bytes(&wire);
            }
            NetFaultKind::Truncate => {
                let cut = (frame.len() / 2).max(1);
                let _ = lk.write_bytes(&frame[..cut]);
                let mut st = lk.state.lock().unwrap();
                lk.break_link(&mut st, Damage::Closed);
            }
            NetFaultKind::Duplicate => {
                let _ = lk.write_bytes(&frame);
                let _ = lk.write_bytes(&frame);
            }
            NetFaultKind::Sever => {
                let mut st = lk.state.lock().unwrap();
                lk.break_link(&mut st, Damage::Closed);
            }
        }
        Ok(())
    }

    /// Receive the next frame from `peer`, which the deterministic
    /// per-pair protocol says must carry class `class` at this point.
    ///
    /// While blocked, heartbeat probes run every
    /// [`NetTuning::heartbeat`]: an answered probe proves the peer
    /// alive (a *slow* peer extends the deadline, warning once per
    /// link); an answer whose send claim is ahead of what we received
    /// reveals a lost frame (heal + replay); unanswered probes past the
    /// miss budget break the link.
    pub fn recv(&mut self, peer: usize, class: u8) -> Result<Vec<u8>, NetError> {
        self.check_peer(peer)?;
        let my_rank = self.mesh.rank;
        let timeout = self.timeout;
        let mut deadline = Instant::now() + timeout;
        let mut next_probe = Instant::now() + self.tuning.heartbeat;
        let mut last_nonce: Option<u64> = None;
        let mut misses = 0u32;
        let mut claim_ahead_since: Option<Instant> = None;
        let claim_grace = self.tuning.heartbeat * self.tuning.miss_budget.max(1) * 2;
        let mesh = Arc::clone(&self.mesh);
        let lk = mesh.link(peer);
        let mut st = lk.state.lock().unwrap();
        loop {
            if let Some(epoch) = self.resync_epoch() {
                return Err(NetError::Resync { epoch });
            }
            if let Some((tag, payload)) = st.frames.pop_front() {
                let want = tag_of(class, self.recv_seq[peer]);
                if tag != want {
                    return Err(NetError::Protocol(format!(
                        "rank {my_rank} expected tag {want:#x} from rank {peer}, got {tag:#x}"
                    )));
                }
                self.recv_seq[peer] = self.recv_seq[peer].wrapping_add(1) & SEQ_MASK;
                return Ok(payload);
            }
            if let Some(damage) = st.broken {
                drop(st);
                self.heal_or_escalate(peer, damage)?;
                deadline = deadline.max(Instant::now() + self.tuning.heartbeat);
                st = lk.state.lock().unwrap();
                continue;
            }
            let now = Instant::now();
            if now >= next_probe {
                if last_nonce.is_some() && st.last_ack.map(|(n, _)| Some(n) != last_nonce).unwrap_or(true) {
                    misses += 1;
                    counters::add(Counter::HeartbeatsMissed, 1);
                    if misses > self.tuning.miss_budget {
                        lk.break_link(&mut st, Damage::Unresponsive);
                        continue;
                    }
                }
                self.probe_nonce += 1;
                let nonce = self.probe_nonce;
                last_nonce = Some(nonce);
                let probe = encode_frame(tag_of(CLASS_PROBE, 0), &nonce.to_le_bytes());
                if lk.write_bytes(&probe).is_err() {
                    lk.break_link(&mut st, Damage::Closed);
                    continue;
                }
                next_probe = now + self.tuning.heartbeat;
            }
            if let Some((nonce, claim)) = st.last_ack {
                if Some(nonce) == last_nonce {
                    misses = 0;
                    let pending = seq_ahead(claim, st.arrival_seq);
                    if pending > 0 && pending < SEQ_HALF {
                        // Peer claims frames we never got. Give them a
                        // grace period to arrive, then treat as lost.
                        let since = *claim_ahead_since.get_or_insert(now);
                        if now - since > claim_grace {
                            lk.break_link(&mut st, Damage::Gap);
                            continue;
                        }
                    } else {
                        claim_ahead_since = None;
                        // Alive but idle: slow, not dead. Extend.
                        if deadline.saturating_duration_since(now) < self.tuning.heartbeat * 2 {
                            if !st.warned_slow {
                                st.warned_slow = true;
                                eprintln!(
                                    "warning: rank {my_rank}: rank {peer} is alive but slow \
                                     (heartbeats answered, no data); extending deadline"
                                );
                            }
                            deadline = now + timeout;
                        }
                    }
                }
            }
            if now >= deadline {
                return Err(NetError::Timeout {
                    peer,
                    waited: timeout,
                });
            }
            let wait = deadline.min(next_probe).saturating_duration_since(now);
            let (guard, _) = lk
                .cv
                .wait_timeout(st, wait.max(Duration::from_millis(1)))
                .unwrap();
            st = guard;
        }
    }

    /// Announce (best-effort) to every peer that this mesh generation
    /// is being abandoned at `epoch`: their pending sends/receives fail
    /// fast with [`NetError::Resync`] instead of timing out.
    pub fn announce_resync(&mut self, epoch: u64) {
        for peer in 0..self.mesh.size {
            if peer == self.mesh.rank {
                continue;
            }
            let frame = encode_frame(tag_of(CLASS_RESYNC, 0), &epoch.to_le_bytes());
            let _ = self.mesh.link(peer).write_bytes(&frame);
        }
    }

    /// [`Self::send`] for an `f64` slice (little-endian words).
    pub fn send_f64s(&mut self, peer: usize, class: u8, data: &[f64]) -> Result<(), NetError> {
        self.send(peer, class, &f64s_to_bytes(data))
    }

    /// [`Self::recv`] decoding an `f64` slice.
    pub fn recv_f64s(&mut self, peer: usize, class: u8) -> Result<Vec<f64>, NetError> {
        bytes_to_f64s(&self.recv(peer, class)?)
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        // Stop the acceptor first so no new connections install.
        self.mesh.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Shut down every link and join every reader it ever spawned,
        // so rank exits and tests never leak threads.
        for link in self.mesh.links.iter().flatten() {
            let readers = {
                let mut st = link.state.lock().unwrap();
                if let Some(stream) = link.writer.lock().unwrap().take() {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
                st.conn_id += 1; // strand any reader mid-read
                std::mem::take(&mut st.readers)
            };
            link.cv.notify_all();
            for handle in readers {
                let _ = handle.join();
            }
        }
        let _ = std::fs::remove_file(sock_path(&self.mesh.dir, self.mesh.rank));
    }
}

/// Encode `f64`s as little-endian bytes.
pub fn f64s_to_bytes(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * data.len());
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode little-endian bytes as `f64`s (bit-exact round trip).
pub fn bytes_to_f64s(bytes: &[u8]) -> Result<Vec<f64>, NetError> {
    if bytes.len() % 8 != 0 {
        return Err(NetError::Protocol(format!(
            "f64 payload of {} bytes is not word-aligned",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Encode `u64`s as little-endian bytes.
pub fn u64s_to_bytes(data: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * data.len());
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode little-endian bytes as `u64`s.
pub fn bytes_to_u64s(bytes: &[u8]) -> Result<Vec<u64>, NetError> {
    if bytes.len() % 8 != 0 {
        return Err(NetError::Protocol(format!(
            "u64 payload of {} bytes is not word-aligned",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A scratch directory unique to this test invocation. Socket paths
    /// have a ~100-byte kernel limit, so keep names short.
    pub fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsn_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Run `f(rank, transport)` on `p` threads over a real socket mesh
    /// (default tuning, no environment reads — deterministic even when
    /// sibling tests mutate `TERASEM_NET_*`) and return the per-rank
    /// results in rank order.
    pub fn run_ranks<R: Send + 'static>(
        dir: &Path,
        p: usize,
        f: impl Fn(usize, Transport) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        run_ranks_tuned(dir, p, |_| NetTuning::default(), f)
    }

    /// [`run_ranks`] with per-rank tuning (programmatic fault plans).
    pub fn run_ranks_tuned<R: Send + 'static>(
        dir: &Path,
        p: usize,
        tuning: impl Fn(usize) -> NetTuning + Send + Sync + 'static,
        f: impl Fn(usize, Transport) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = Arc::new(f);
        let tuning = Arc::new(tuning);
        let handles: Vec<_> = (0..p)
            .map(|r| {
                let dir = dir.to_path_buf();
                let f = Arc::clone(&f);
                let tuning = Arc::clone(&tuning);
                std::thread::spawn(move || {
                    let t = Transport::bootstrap_tuned(
                        &dir,
                        r,
                        p,
                        Duration::from_secs(20),
                        tuning(r),
                    )
                    .unwrap_or_else(|e| panic!("rank {r} bootstrap: {e}"));
                    f(r, t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn net_tuning_rejects_out_of_domain_knobs_with_defaults() {
        let d = NetTuning::default();
        // Malformed values: fall back, never panic.
        let vars = [
            ("TERASEM_NET_HB_MS", "abc"),
            ("TERASEM_NET_MISS_BUDGET", "-3"),
        ];
        let t = NetTuning::from_lookup(0, |var| {
            vars.iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| v.to_string())
        });
        assert_eq!(t.heartbeat, d.heartbeat);
        assert_eq!(t.miss_budget, d.miss_budget);
        // Zero is out-of-domain for HB_MS / MISS_BUDGET (busy-spin,
        // insta-dead links) — defaults.
        let t = NetTuning::from_lookup(0, |var| {
            matches!(var, "TERASEM_NET_HB_MS" | "TERASEM_NET_MISS_BUDGET").then(|| "0".to_string())
        });
        assert_eq!(t.heartbeat, d.heartbeat);
        assert_eq!(t.miss_budget, d.miss_budget);
        // HEAL_MS=0 is the documented healing-off switch, not an error.
        let t = NetTuning::from_lookup(0, |var| {
            (var == "TERASEM_NET_HEAL_MS").then(|| "0".to_string())
        });
        assert_eq!(t.heal_window, Duration::ZERO);
        assert!(!t.healing());
        // Well-formed values pass through untouched.
        let vals = [
            ("TERASEM_NET_HB_MS", "75"),
            ("TERASEM_NET_MISS_BUDGET", "9"),
            ("TERASEM_NET_HEAL_MS", "1250"),
        ];
        let t = NetTuning::from_lookup(0, |var| {
            vals.iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| v.to_string())
        });
        assert_eq!(t.heartbeat, Duration::from_millis(75));
        assert_eq!(t.miss_budget, 9);
        assert_eq!(t.heal_window, Duration::from_millis(1250));
        // Unset everything: pure defaults.
        let t = NetTuning::from_lookup(0, |_| None);
        assert_eq!(t.heartbeat, d.heartbeat);
        assert_eq!(t.heal_window, d.heal_window);
    }

    /// [`read_frame`] over an in-memory frame.
    fn decode_frame(buf: &[u8]) -> Result<(u32, Vec<u8>), FrameError> {
        read_frame(&mut &buf[..]).expect("reading a byte slice cannot fail")
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_damage() {
        let payload = b"hello spectral world".to_vec();
        let frame = encode_frame(tag_of(7, 42), &payload);
        let (tag, back) = decode_frame(&frame).unwrap();
        assert_eq!(tag, tag_of(7, 42));
        assert_eq!(back, payload);
        // Truncation, oversize, and byte flips all surface structurally.
        assert!(matches!(
            decode_frame(&frame[..HEADER - 1]),
            Err(FrameError::Truncated { .. })
        ));
        assert!(matches!(
            decode_frame(&frame[..frame.len() - 1]),
            Err(FrameError::Truncated { .. })
        ));
        let mut oversize = frame.clone();
        oversize[4..12].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(decode_frame(&oversize), Err(FrameError::Oversize { .. })));
        let mut flipped = frame.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        let err = decode_frame(&flipped).unwrap_err();
        assert!(matches!(err, FrameError::Crc { .. }), "{err}");
        assert!(matches!(err.into_net_error(3), NetError::Corrupt { peer: 3 }));
    }

    #[test]
    fn backoff_delay_is_bounded_and_seed_jittered() {
        for attempt in 0..32 {
            let d = backoff_delay(123, attempt);
            assert!(d >= Duration::from_millis(1), "floor at attempt {attempt}");
            assert!(d <= Duration::from_millis(150), "cap at attempt {attempt}");
        }
        assert_ne!(backoff_delay(1, 3), backoff_delay(2, 3), "seeded jitter");
    }

    #[test]
    fn two_ranks_exchange_frames_bitwise() {
        let dir = scratch("t2");
        let got = run_ranks(&dir, 2, |r, mut t| {
            let peer = 1 - r;
            let mine: Vec<f64> = (0..64).map(|i| (r as f64 + 1.0) * (i as f64).sin()).collect();
            t.send_f64s(peer, 1, &mine).unwrap();
            t.recv_f64s(peer, 1).unwrap()
        });
        let want0: Vec<f64> = (0..64).map(|i| 2.0 * (i as f64).sin()).collect();
        let want1: Vec<f64> = (0..64).map(|i| 1.0 * (i as f64).sin()).collect();
        assert_eq!(
            got[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want0.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            got[1].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want1.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mesh_of_four_sends_pairwise_with_sequenced_tags() {
        let dir = scratch("t4");
        let sums = run_ranks(&dir, 4, |r, mut t| {
            // Everyone sends two frames to everyone (exercises per-pair
            // sequencing), then receives in ascending peer order.
            for peer in 0..4 {
                if peer != r {
                    t.send(peer, 7, &[r as u8]).unwrap();
                    t.send(peer, 7, &[r as u8 * 10]).unwrap();
                }
            }
            let mut sum = 0u32;
            for peer in 0..4 {
                if peer != r {
                    sum += t.recv(peer, 7).unwrap()[0] as u32;
                    sum += t.recv(peer, 7).unwrap()[0] as u32;
                }
            }
            sum
        });
        for (r, s) in sums.iter().enumerate() {
            let want: u32 = (0..4u32).filter(|&p| p != r as u32).map(|p| p + p * 10).sum();
            assert_eq!(*s, want, "rank {r}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_peer_fails_receives_with_peer_dead() {
        let dir = scratch("dead");
        let results = run_ranks_tuned(
            &dir,
            2,
            |_| NetTuning {
                heal_window: Duration::from_millis(200),
                ..NetTuning::default()
            },
            |r, mut t| {
                if r == 1 {
                    return true; // exit at once: transport drops, sockets close
                }
                // Rank 0: the EOF must surface as PeerDead (after the heal
                // window expires un-redialed), not Timeout.
                matches!(t.recv(1, 3), Err(NetError::PeerDead { peer: 1 }))
            },
        );
        assert!(results[0], "expected PeerDead");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tag_mismatch_is_a_protocol_error() {
        let dir = scratch("tag");
        let ok = run_ranks(&dir, 2, |r, mut t| {
            if r == 0 {
                t.send(1, 5, &[1, 2, 3]).unwrap();
                true
            } else {
                matches!(t.recv(0, 6), Err(NetError::Protocol(_)))
            }
        });
        assert!(ok[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn f64_bytes_round_trip_bitwise() {
        let vals = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-308];
        let back = bytes_to_f64s(&f64s_to_bytes(&vals)).unwrap();
        for (a, b) in vals.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(bytes_to_f64s(&[1, 2, 3]).is_err());
    }

    /// Tuning for strict-detection tests: healing off, fault plan on
    /// one chosen rank.
    fn no_heal_with_fault(on_rank: usize, spec: &'static str) -> impl Fn(usize) -> NetTuning {
        move |r| {
            let mut t = NetTuning::no_heal();
            if r == on_rank {
                t.fault = Some(NetFaultPlan::parse(spec).unwrap());
            }
            t
        }
    }

    #[test]
    fn corrupt_fault_surfaces_structurally_without_healing() {
        sem_obs::set_enabled(true);
        let before = counters::snapshot();
        let dir = scratch("fcor");
        let got = run_ranks_tuned(&dir, 2, no_heal_with_fault(1, "corrupt@1"), |r, mut t| {
            if r == 1 {
                t.send(0, 2, &[9u8; 32]).unwrap();
                true
            } else {
                matches!(t.recv(1, 2), Err(NetError::Corrupt { peer: 1 }))
            }
        });
        assert!(got[0], "flipped byte must surface as NetError::Corrupt");
        let delta = counters::snapshot().delta(&before);
        assert!(delta.get(Counter::NetFaultsInjected) >= 1);
        assert!(delta.get(Counter::NetFramesCorrupt) >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_fault_surfaces_as_sequence_gap_without_healing() {
        let dir = scratch("fdrop");
        let got = run_ranks_tuned(&dir, 2, no_heal_with_fault(1, "drop@1"), |r, mut t| {
            if r == 1 {
                t.send(0, 2, b"lost").unwrap(); // swallowed by the shim
                t.send(0, 2, b"arrives").unwrap(); // reveals the gap
                true
            } else {
                matches!(t.recv(1, 2), Err(NetError::Dropped { peer: 1 }))
            }
        });
        assert!(got[0], "dropped frame must surface as NetError::Dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sever_fault_surfaces_as_peer_dead_without_healing() {
        let dir = scratch("fsev");
        let got = run_ranks_tuned(&dir, 2, no_heal_with_fault(1, "sever@1"), |r, mut t| {
            if r == 1 {
                t.send(0, 2, b"severed").unwrap();
                true
            } else {
                matches!(t.recv(1, 2), Err(NetError::PeerDead { peer: 1 }))
            }
        });
        assert!(got[0], "severed link must surface as NetError::PeerDead");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fast-heal tuning for the storm tests.
    fn storm_tuning(on_rank: usize, spec: &'static str) -> impl Fn(usize) -> NetTuning {
        move |r| NetTuning {
            heartbeat: Duration::from_millis(25),
            miss_budget: 3,
            heal_window: Duration::from_secs(5),
            fault: (r == on_rank).then(|| NetFaultPlan::parse(spec).unwrap()),
        }
    }

    /// One of every recoverable fault kind, fired from rank `faulty`
    /// toward the other rank; every payload must still arrive in order,
    /// bitwise intact.
    fn storm_case(tag: &str, faulty: usize) {
        sem_obs::set_enabled(true);
        let before = counters::snapshot();
        let dir = scratch(tag);
        // The kinds whose counters need the receiver to *read* the
        // damaged bytes — `dup` (a stale copy) and `corrupt` (a CRC
        // failure) — go first, and the receiver acknowledges them before
        // the faulty rank sends the frames that lose data or break the
        // link (`drop`, `truncate`, `sever`). Without that round trip a
        // link-breaking fault and the immediate redial could replace the
        // connection while the receiver's reader still had the damaged
        // frames unread, and their clean replays would leave nothing to
        // count.
        const SPEC: &str = "seed=3,delay:5@1,dup@2,corrupt@3,drop@4,truncate@5,sever@6";
        const LIVE_LINK_FRAMES: u8 = 3;
        let ok = run_ranks_tuned(&dir, 2, storm_tuning(faulty, SPEC), move |r, mut t| {
            let peer = 1 - r;
            let payload = |i: u8| -> Vec<u8> { (0..64).map(|j| i ^ j).collect() };
            if r == faulty {
                for i in 0..8u8 {
                    if i == LIVE_LINK_FRAMES {
                        assert_eq!(t.recv(peer, 4).unwrap(), b"damaged frames read");
                    }
                    t.send(peer, 2, &payload(i)).unwrap();
                }
                // Round-trip an ack so this rank keeps driving (or
                // serving) heals until the receiver has everything.
                t.recv(peer, 3).unwrap() == b"all received"
            } else {
                for i in 0..8u8 {
                    if i == LIVE_LINK_FRAMES {
                        t.send(peer, 4, b"damaged frames read").unwrap();
                    }
                    let got = t.recv(peer, 2).unwrap_or_else(|e| {
                        panic!("rank {r}: frame {i} not recovered: {e}")
                    });
                    assert_eq!(got, payload(i), "frame {i} damaged end-to-end");
                }
                t.send(peer, 3, b"all received").unwrap();
                true
            }
        });
        assert!(ok[0] && ok[1]);
        let d = counters::snapshot().delta(&before);
        assert!(d.get(Counter::NetFaultsInjected) >= 6, "all faults fired");
        assert!(d.get(Counter::NetReconnects) >= 1, "link healed");
        assert!(d.get(Counter::NetRetries) >= 1, "frames replayed");
        assert!(d.get(Counter::NetFramesCorrupt) >= 1, "corruption detected");
        assert!(d.get(Counter::NetFramesStale) >= 1, "duplicate discarded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_storm_heals_transparently_when_dialer_side_faults() {
        storm_case("sd", 1); // rank 1 dials rank 0
    }

    #[test]
    fn fault_storm_heals_transparently_when_acceptor_side_faults() {
        storm_case("sa", 0); // rank 0 accepts from rank 1
    }

    #[test]
    fn stall_fault_is_slow_not_dead() {
        sem_obs::set_enabled(true);
        let before = counters::snapshot();
        let dir = scratch("fstl");
        let tuning = |r: usize| NetTuning {
            heartbeat: Duration::from_millis(400),
            miss_budget: 4,
            fault: (r == 1).then(|| NetFaultPlan::parse("stall:1@1").unwrap()),
            ..NetTuning::default()
        };
        let ok = run_ranks_tuned(&dir, 2, tuning, |r, mut t| {
            if r == 1 {
                t.send(0, 2, b"late but intact").unwrap();
                true
            } else {
                t.recv(1, 2).unwrap() == b"late but intact"
            }
        });
        assert!(ok[0], "stalled frame must arrive intact");
        assert!(counters::snapshot().delta(&before).get(Counter::NetFaultsInjected) >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_peer_extends_deadline_past_the_recv_timeout() {
        let dir = scratch("slow");
        let dir2 = dir.clone();
        // Hand-rolled two ranks: the recv timeout (600 ms) is shorter
        // than the sender's think time (1.5 s), so only the
        // heartbeat-backed deadline extension lets this succeed.
        let t0 = std::thread::spawn(move || {
            let mut t = Transport::bootstrap_tuned(
                &dir2,
                0,
                2,
                Duration::from_secs(10),
                NetTuning {
                    heartbeat: Duration::from_millis(50),
                    ..NetTuning::default()
                },
            )
            .unwrap();
            std::thread::sleep(Duration::from_millis(1500));
            t.send(1, 2, b"worth the wait").unwrap();
            t.recv(1, 2).unwrap() // hold the link until rank 1 is done
        });
        let got = {
            let mut t = Transport::bootstrap_tuned(
                &dir,
                1,
                2,
                Duration::from_millis(600),
                NetTuning {
                    heartbeat: Duration::from_millis(50),
                    ..NetTuning::default()
                },
            )
            .unwrap();
            let got = t.recv(0, 2).unwrap();
            t.send(0, 2, b"done").unwrap();
            got
        };
        assert_eq!(got, b"worth the wait");
        assert_eq!(t0.join().unwrap(), b"done");
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join(format!(
            "tsn_{}_slow",
            std::process::id()
        )));
    }

    #[test]
    fn resync_announcement_fails_pending_receives_fast() {
        let dir = scratch("rsy");
        let got = run_ranks(&dir, 2, |r, mut t| {
            if r == 0 {
                t.announce_resync(7);
                std::thread::sleep(Duration::from_millis(300));
                0
            } else {
                match t.recv(0, 2) {
                    Err(NetError::Resync { epoch }) => epoch,
                    other => panic!("wanted Resync, got {other:?}"),
                }
            }
        });
        assert_eq!(got[1], 7);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
