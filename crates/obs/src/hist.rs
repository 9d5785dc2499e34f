//! Log-bucketed latency histograms per solver phase.
//!
//! Cumulative span totals say where the time went *overall*; the paper's
//! scaling analysis (and every follow-on strong-scaling study) also needs
//! the *distribution* — did the coarse solve get slow on a few steps, or
//! uniformly? Each completed span deposits its duration here, into one of
//! [`NUM_BUCKETS`] logarithmic (power-of-two nanosecond) buckets per
//! phase, and quantiles (p50/p90/p99/max) are derived from the bucket
//! counts.
//!
//! Determinism: the bucket index of a duration is a pure function of the
//! duration ([`bucket_index`]), and the cells are relaxed atomics, so the
//! bucket *counts* for a given set of recorded durations are identical
//! regardless of which `sem_comm::par` worker (or thread count) recorded
//! them — pinned by `crates/obs/tests/trace_sink.rs`. Quantiles are
//! reported as the upper bound of the selected bucket (also
//! deterministic), so two runs that land the same buckets report the
//! same quantiles even though raw wall times always jitter.

use crate::spans::{Phase, NUM_PHASES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of logarithmic buckets: bucket `i` holds durations in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also holds 0 ns). 64 covers
/// every representable u64 duration.
pub const NUM_BUCKETS: usize = 64;

/// Bucket index of a duration: `floor(log2(ns))`, with 0 and 1 ns both
/// in bucket 0. Pure, total, deterministic.
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    63 - (ns | 1).leading_zeros() as usize
}

/// Upper bound (inclusive, in ns) of bucket `i` — the value quantile
/// queries report for a sample that landed in the bucket.
#[inline]
pub fn bucket_upper_ns(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ROW: [AtomicU64; NUM_BUCKETS] = [ZERO; NUM_BUCKETS];
static CELLS: [[AtomicU64; NUM_BUCKETS]; NUM_PHASES] = [ROW; NUM_PHASES];

/// Record one `ns`-long sample for `phase`. Called from the span guard's
/// drop (already gated on the enabled flag).
#[inline]
pub fn record(phase: Phase, ns: u64) {
    CELLS[phase as usize][bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
}

/// Zero every histogram cell.
pub fn reset_hist() {
    for row in &CELLS {
        for cell in row {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of every phase histogram.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    counts: [[u64; NUM_BUCKETS]; NUM_PHASES],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            counts: [[0; NUM_BUCKETS]; NUM_PHASES],
        }
    }
}

impl HistSnapshot {
    /// Bucket counts of `phase`.
    pub fn buckets(&self, phase: Phase) -> &[u64; NUM_BUCKETS] {
        &self.counts[phase as usize]
    }

    /// Total number of samples recorded for `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase as usize].iter().sum()
    }

    /// Quantile estimate for `phase` in seconds: the upper bound of the
    /// bucket containing the `q`-quantile sample (`q` in [0, 1]; `q = 1`
    /// gives the highest occupied bucket). `None` when no samples.
    pub fn quantile_seconds(&self, phase: Phase, q: f64) -> Option<f64> {
        quantile_from_buckets(&self.counts[phase as usize], q)
    }

    /// Per-bucket difference `self − earlier` (saturating; counts are
    /// monotone unless reset in between).
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for p in 0..NUM_PHASES {
            for b in 0..NUM_BUCKETS {
                out.counts[p][b] = self.counts[p][b].saturating_sub(earlier.counts[p][b]);
            }
        }
        out
    }

    /// Merge another snapshot's counts into this one (used by
    /// `sem-report` to aggregate per-step deltas back into a run total).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for p in 0..NUM_PHASES {
            for b in 0..NUM_BUCKETS {
                self.counts[p][b] = self.counts[p][b].saturating_add(other.counts[p][b]);
            }
        }
    }

    /// Add `count` samples to `phase`'s bucket `bucket` (used when
    /// rebuilding a snapshot from a serialized record).
    pub fn add_bucket(&mut self, phase: Phase, bucket: usize, count: u64) {
        assert!(bucket < NUM_BUCKETS, "bucket {bucket} out of range");
        self.counts[phase as usize][bucket] =
            self.counts[phase as usize][bucket].saturating_add(count);
    }
}

/// Quantile from raw bucket counts, as seconds (`None` for an empty
/// histogram): walk buckets in order until the cumulative count reaches
/// `ceil(q·total)` and report that bucket's upper bound.
pub fn quantile_from_buckets(buckets: &[u64; NUM_BUCKETS], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(bucket_upper_ns(i) as f64 * 1e-9);
        }
    }
    None
}

/// Snapshot every phase histogram.
pub fn hist_snapshot() -> HistSnapshot {
    let mut out = HistSnapshot::default();
    for p in 0..NUM_PHASES {
        for b in 0..NUM_BUCKETS {
            out.counts[p][b] = CELLS[p][b].load(Ordering::Relaxed);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        // Every sample falls in a bucket whose bounds contain it.
        for ns in [0u64, 1, 5, 999, 1_000_000, 123_456_789_012] {
            let i = bucket_index(ns);
            assert!(ns <= bucket_upper_ns(i), "{ns} above bucket {i} upper");
            if i > 0 {
                assert!(ns >= 1u64 << i, "{ns} below bucket {i} lower");
            }
        }
    }

    #[test]
    fn record_and_quantiles() {
        let _g = crate::test_guard();
        reset_hist();
        // 90 fast samples (~1 µs) and 10 slow (~1 ms).
        for _ in 0..90 {
            record(Phase::PressureCg, 1_000);
        }
        for _ in 0..10 {
            record(Phase::PressureCg, 1_000_000);
        }
        let snap = hist_snapshot();
        assert_eq!(snap.count(Phase::PressureCg), 100);
        let p50 = snap.quantile_seconds(Phase::PressureCg, 0.50).unwrap();
        let p99 = snap.quantile_seconds(Phase::PressureCg, 0.99).unwrap();
        let max = snap.quantile_seconds(Phase::PressureCg, 1.0).unwrap();
        // p50 lands in the 1 µs bucket; p99 and max in the 1 ms bucket.
        assert!(p50 < 1e-5, "p50 {p50}");
        assert!(p99 > 1e-4, "p99 {p99}");
        assert_eq!(p99, max);
        // Other phases untouched.
        assert_eq!(snap.count(Phase::Schwarz), 0);
        assert!(snap.quantile_seconds(Phase::Schwarz, 0.5).is_none());
        reset_hist();
    }

    #[test]
    fn delta_and_merge_roundtrip() {
        let _g = crate::test_guard();
        reset_hist();
        record(Phase::Helmholtz, 500);
        let a = hist_snapshot();
        record(Phase::Helmholtz, 500);
        record(Phase::Helmholtz, 2_000_000);
        let b = hist_snapshot();
        let d = b.delta(&a);
        assert_eq!(d.count(Phase::Helmholtz), 2);
        let mut merged = a.clone();
        merged.merge(&d);
        assert_eq!(merged.count(Phase::Helmholtz), b.count(Phase::Helmholtz));
        assert_eq!(merged.buckets(Phase::Helmholtz), b.buckets(Phase::Helmholtz));
        reset_hist();
    }
}
