//! Deterministic seeded network fault injection for the `sem-net`
//! transport.
//!
//! A [`NetFaultPlan`] is a reproducible schedule of link-level faults —
//! dropped, delayed, corrupted, truncated, or duplicated frames, plus
//! whole-link stalls and severs — fired from a shim inside
//! [`crate::Transport::send`]. Plans are parsed from the
//! `TERASEM_NET_FAULT` environment variable with the grammar of
//! `TERASEM_FAULT`, one tokenizer in [`sem_obs::fault`] (see
//! [`NetFaultPlan::parse`] for the kinds), or built programmatically for
//! tests.
//!
//! Faults are indexed by the rank's 1-based cumulative *outbound data
//! frame* count, not by wall clock, so a plan fires at exactly the same
//! protocol point on every run regardless of thread counts or host
//! speed. A `rank=R` item restricts the whole plan to one rank of a
//! multi-rank job (the variable is inherited by every spawned rank).
//! Every firing increments [`sem_obs::Counter::NetFaultsInjected`] and
//! leaves a trace note, so smoke tests can assert the storm actually
//! happened.

use sem_linalg::rng::SplitMix64;
use sem_obs::fault::{self, FaultSpecError, SpecVar};
use std::time::Duration;

/// What to do to an outbound frame (or its link).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Swallow the frame: buffer it for retransmit but never write it.
    /// The receiver sees a sequence gap (or a missed heartbeat claim)
    /// and heals the link, replaying the frame.
    Drop,
    /// Sleep `millis` before writing the frame (late but intact).
    Delay {
        /// Added latency in milliseconds (default 25).
        millis: u64,
    },
    /// Flip one seed-chosen payload byte after the CRC is computed, so
    /// the receiver's integrity check must catch it.
    Corrupt {
        /// Restrict to one protocol class (`None` = any data frame).
        class: Option<u8>,
    },
    /// Write only a prefix of the frame, then sever the link — the
    /// receiver sees a short read mid-frame.
    Truncate,
    /// Write the frame twice; the receiver must discard the stale copy.
    Duplicate,
    /// Hold the link's writer for `secs` — long enough to trip
    /// heartbeat probes, short enough that the peer is *slow*, not
    /// dead.
    Stall {
        /// Stall duration in seconds (default 1).
        secs: u64,
    },
    /// Shut the socket down after buffering the frame, forcing a full
    /// reconnect + resume handshake.
    Sever,
}

impl NetFaultKind {
    /// Spec-grammar name (also used in trace notes and error messages).
    pub fn name(self) -> &'static str {
        match self {
            NetFaultKind::Drop => "drop",
            NetFaultKind::Delay { .. } => "delay",
            NetFaultKind::Corrupt { .. } => "corrupt",
            NetFaultKind::Truncate => "truncate",
            NetFaultKind::Duplicate => "dup",
            NetFaultKind::Stall { .. } => "stall",
            NetFaultKind::Sever => "sever",
        }
    }
}

/// One scheduled network fault.
#[derive(Clone, Copy, Debug)]
pub struct NetFaultEvent {
    /// What to inject.
    pub kind: NetFaultKind,
    /// 1-based outbound data-frame index at which the fault fires.
    pub frame: u64,
    /// How many consecutive frames starting at `frame` are hit (`xN`
    /// in the spec, default 1).
    pub count: u64,
}

/// A deterministic, seeded schedule of network faults.
#[derive(Clone, Debug, Default)]
pub struct NetFaultPlan {
    /// Seed for the corrupt-byte choice (`seed=N`, default 0).
    pub seed: u64,
    /// Restrict the plan to this rank (`rank=R`); `None` hits every
    /// rank that reads the variable.
    pub rank: Option<usize>,
    /// Scheduled faults.
    pub events: Vec<NetFaultEvent>,
}

/// The `TERASEM_NET_FAULT` variable: items are indexed by outbound data
/// frame, and `rank=R` pins the plan to one rank.
const VAR: SpecVar = SpecVar {
    name: "TERASEM_NET_FAULT",
    index: "frame",
    ranked: true,
};

/// The protocol class a `corrupt:` qualifier names (`any` is `None`).
fn class_of(name: &str) -> Option<Option<u8>> {
    Some(match name {
        "exchange" => Some(crate::comm::CLASS_EXCHANGE),
        "gather" => Some(crate::comm::CLASS_GATHER),
        "bcast" => Some(crate::comm::CLASS_BCAST),
        "ping" => Some(crate::comm::CLASS_PING),
        "telemetry" => Some(crate::comm::CLASS_TELEMETRY),
        "any" => None,
        _ => return None,
    })
}

/// The kind table: `kind(:qual)?` of one spec item.
fn event_kind(name: &str, qual: Option<&str>) -> Result<NetFaultKind, String> {
    // A positive numeric qualifier, or `default` when there is none.
    let positive = |what: &str, default: u64| match qual {
        Some(q) => q.parse::<u64>().ok().filter(|&v| v >= 1).ok_or_else(|| format!("bad {what}")),
        None => Ok(default),
    };
    Ok(match (name, qual) {
        ("drop", None) => NetFaultKind::Drop,
        ("delay", _) => NetFaultKind::Delay {
            millis: positive("delay millis", 25)?,
        },
        ("corrupt", None) => NetFaultKind::Corrupt { class: None },
        ("corrupt", Some(q)) => NetFaultKind::Corrupt {
            class: class_of(q).ok_or_else(|| format!("unknown protocol class `{q}`"))?,
        },
        ("truncate", None) => NetFaultKind::Truncate,
        ("dup", None) => NetFaultKind::Duplicate,
        ("stall", _) => NetFaultKind::Stall {
            secs: positive("stall seconds", 1)?,
        },
        ("sever", None) => NetFaultKind::Sever,
        ("drop" | "truncate" | "dup" | "sever", Some(_)) => {
            return Err(format!("`{name}` takes no qualifier"));
        }
        (other, _) => return Err(format!("unknown fault kind `{other}`")),
    })
}

impl NetFaultPlan {
    /// Parse a net-fault spec: the shared grammar of [`sem_obs::fault`]
    /// (`rank=R` included), with
    ///
    /// ```text
    /// item  := 'seed=' N
    ///        | 'rank=' R
    ///        | kind (':' qual)? '@' frame ('x' count)?
    /// kind  := 'drop' | 'delay' | 'corrupt' | 'truncate' | 'dup'
    ///        | 'stall' | 'sever'
    /// qual  := millis (delay) | secs (stall)
    ///        | 'exchange'|'gather'|'bcast'|'ping'|'telemetry'|'any' (corrupt)
    /// ```
    ///
    /// `frame` is the rank's 1-based cumulative outbound data-frame
    /// index. Examples: `drop@12x3`, `corrupt:exchange@5`, `stall:2@8`,
    /// `sever@20`, `seed=7,rank=1,delay:50@3`.
    pub fn parse(spec: &str) -> Result<NetFaultPlan, FaultSpecError> {
        let spec = fault::parse_spec(&VAR, spec, event_kind)?;
        let events = spec.events.into_iter().map(|e| NetFaultEvent {
            kind: e.kind,
            frame: e.index,
            count: e.count,
        });
        Ok(NetFaultPlan {
            seed: spec.seed,
            rank: spec.rank,
            events: events.collect(),
        })
    }

    /// Read the plan from `TERASEM_NET_FAULT` for `rank` (see
    /// [`sem_obs::fault::plan_from_env`]: unset or blank is `None`, a
    /// malformed spec warns once and is ignored). A plan pinned to a
    /// different rank is `None` too.
    pub fn from_env(rank: usize) -> Option<NetFaultPlan> {
        fault::plan_from_env(&VAR, NetFaultPlan::parse).filter(|p| p.rank.is_none_or(|r| r == rank))
    }

    /// The fault scheduled for the 1-based outbound data frame `frame`
    /// of class `class`, if any (first match wins).
    pub fn event_for(&self, frame: u64, class: u8) -> Option<NetFaultKind> {
        self.events
            .iter()
            .find(|e| {
                if frame < e.frame || frame >= e.frame + e.count {
                    return false;
                }
                match e.kind {
                    NetFaultKind::Corrupt { class: Some(c) } => c == class,
                    _ => true,
                }
            })
            .map(|e| e.kind)
    }

    /// Deterministic payload byte index in `[0, n)` for a corrupt
    /// fault: the first SplitMix64 draw seeded from the plan seed and
    /// frame index, matching `sem_ns::FaultPlan::node_index`.
    pub fn corrupt_byte(&self, frame: u64, n: usize) -> usize {
        assert!(n > 0, "corrupt_byte on empty frame");
        let s = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(frame));
        (SplitMix64::new(s).next_u64() % n as u64) as usize
    }

    /// The added latency of a [`NetFaultKind::Delay`] / stall duration
    /// of a [`NetFaultKind::Stall`] as a `Duration`.
    pub fn hold_of(kind: NetFaultKind) -> Option<Duration> {
        match kind {
            NetFaultKind::Delay { millis } => Some(Duration::from_millis(millis)),
            NetFaultKind::Stall { secs } => Some(Duration::from_secs(secs)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let p = NetFaultPlan::parse("seed=7, rank=1, drop@12x3 ; corrupt:exchange@5, stall:2@8, sever@20")
            .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.rank, Some(1));
        assert_eq!(p.events.len(), 4);
        assert_eq!(p.events[0].kind, NetFaultKind::Drop);
        assert_eq!(p.events[0].frame, 12);
        assert_eq!(p.events[0].count, 3);
        assert_eq!(
            p.events[1].kind,
            NetFaultKind::Corrupt {
                class: Some(crate::comm::CLASS_EXCHANGE)
            }
        );
        assert_eq!(p.events[2].kind, NetFaultKind::Stall { secs: 2 });
        assert_eq!(p.events[3].kind, NetFaultKind::Sever);
        assert_eq!(p.events[3].frame, 20);
    }

    #[test]
    fn parse_defaults_for_delay_and_stall() {
        let p = NetFaultPlan::parse("delay@3,stall@9").unwrap();
        assert_eq!(p.events[0].kind, NetFaultKind::Delay { millis: 25 });
        assert_eq!(p.events[1].kind, NetFaultKind::Stall { secs: 1 });
        assert_eq!(
            NetFaultPlan::hold_of(p.events[0].kind),
            Some(Duration::from_millis(25))
        );
        assert_eq!(
            NetFaultPlan::hold_of(p.events[1].kind),
            Some(Duration::from_secs(1))
        );
        assert_eq!(NetFaultPlan::hold_of(NetFaultKind::Drop), None);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(NetFaultPlan::parse("frobnicate@3").is_err()); // unknown kind
        assert!(NetFaultPlan::parse("drop@0").is_err()); // frames are 1-based
        assert!(NetFaultPlan::parse("drop").is_err()); // missing frame
        assert!(NetFaultPlan::parse("drop:x@3").is_err()); // spurious qualifier
        assert!(NetFaultPlan::parse("corrupt:bogus@3").is_err()); // unknown class
        assert!(NetFaultPlan::parse("delay:zero@3").is_err()); // bad millis
        assert!(NetFaultPlan::parse("stall:0@3").is_err()); // zero secs
        assert!(NetFaultPlan::parse("drop@2x0").is_err()); // zero repeat
        assert!(NetFaultPlan::parse("seed=minus").is_err());
        assert!(NetFaultPlan::parse("rank=minus").is_err());
    }

    #[test]
    fn event_for_matches_frame_ranges_and_class_filters() {
        let p = NetFaultPlan::parse("drop@5x2,corrupt:gather@9").unwrap();
        assert!(p.event_for(4, 1).is_none());
        assert_eq!(p.event_for(5, 1), Some(NetFaultKind::Drop));
        assert_eq!(p.event_for(6, 1), Some(NetFaultKind::Drop));
        assert!(p.event_for(7, 1).is_none());
        // Class-filtered corrupt only fires on its class.
        assert!(p.event_for(9, crate::comm::CLASS_EXCHANGE).is_none());
        assert_eq!(
            p.event_for(9, crate::comm::CLASS_GATHER),
            Some(NetFaultKind::Corrupt {
                class: Some(crate::comm::CLASS_GATHER)
            })
        );
    }

    #[test]
    fn corrupt_byte_is_deterministic_and_in_range() {
        let a = NetFaultPlan::parse("seed=1,corrupt@3").unwrap();
        let b = NetFaultPlan::parse("seed=1,corrupt@3").unwrap();
        let c = NetFaultPlan::parse("seed=2,corrupt@3").unwrap();
        let n = 4096;
        let ia = a.corrupt_byte(3, n);
        assert_eq!(ia, b.corrupt_byte(3, n));
        assert!(ia < n);
        assert_ne!(ia, c.corrupt_byte(3, n));
        assert_ne!(ia, a.corrupt_byte(4, n));
    }

    #[test]
    fn from_env_respects_rank_pin_and_warns_on_garbage() {
        std::env::set_var("TERASEM_NET_FAULT", "rank=2,drop@3");
        assert!(NetFaultPlan::from_env(1).is_none());
        assert!(NetFaultPlan::from_env(2).is_some());
        std::env::set_var("TERASEM_NET_FAULT", "frobnicate@3");
        assert!(NetFaultPlan::from_env(0).is_none());
        assert!(NetFaultPlan::from_env(0).is_none(), "second read also ignored");
        std::env::remove_var("TERASEM_NET_FAULT");
        assert!(NetFaultPlan::from_env(0).is_none());
    }
}
