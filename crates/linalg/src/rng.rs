//! Deterministic seeded pseudo-randomness for tests and experiments.
//!
//! The workspace builds from `std` alone, so the property-test suites
//! cannot lean on `rand`/`proptest`. This module supplies the two pieces
//! they actually need:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixing generator:
//!   tiny, fast, full-period, and completely reproducible from a seed.
//! * [`forall`] — an explicit seeded-loop property harness: run a check
//!   over `cases` independently-seeded inputs, and on failure report the
//!   per-case seed so the exact counterexample can be replayed with
//!   `SplitMix64::new(seed)`.
//!
//! Beside them sits the workspace's one deterministic hash, FNV-1a
//! ([`Fnv1a64`], [`fnv1a64`]): `sem-serve`'s result fingerprint and
//! `sem-net`'s cross-rank solution hash.

/// SplitMix64 pseudo-random generator (public-domain algorithm).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Equal seeds give equal streams on
    /// every platform.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform index in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo, "range: empty range [{lo}, {hi})");
        lo + self.index(hi - lo)
    }

    /// A vector of `len` uniform values in `[lo, hi)`.
    pub fn vec(&mut self, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..len).map(|_| self.uniform(lo, hi)).collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

/// FNV-1a, 64-bit: stable across platforms and cheap. Feed bytes with
/// [`Fnv1a64::write`], read the hash with [`Fnv1a64::finish`].
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The hash of every byte written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write(bytes);
    h.finish()
}

/// Run a property over `cases` independently-seeded inputs.
///
/// Each case `i` gets its own generator seeded with
/// `base_seed + i·0x9e3779b97f4a7c15` (distinct full streams). If the
/// property panics, the failure is re-raised after printing the case
/// index and the exact per-case seed, so the counterexample replays as
/// `f(&mut SplitMix64::new(case_seed))`.
pub fn forall(name: &str, base_seed: u64, cases: usize, mut f: impl FnMut(&mut SplitMix64)) {
    for i in 0..cases {
        let case_seed = base_seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut rng = SplitMix64::new(case_seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(payload) = result {
            eprintln!(
                "property '{name}' failed at case {i}/{cases}: replay with \
                 SplitMix64::new({case_seed:#x}) (base seed {base_seed:#x})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Known first output of SplitMix64(0) from the reference
        // implementation.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220a8397b1dcdaf);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        let mut h = Fnv1a64::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"), "split writes hash as one");
    }

    #[test]
    fn uniform_in_bounds_and_covers() {
        let mut rng = SplitMix64::new(7);
        let mut below_half = 0;
        for _ in 0..1000 {
            let v = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
            if v < 0.5 {
                below_half += 1;
            }
        }
        assert!((300..700).contains(&below_half), "{below_half}");
    }

    #[test]
    fn index_and_shuffle_are_permutations() {
        let mut rng = SplitMix64::new(11);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn forall_runs_every_case_with_distinct_seeds() {
        let mut firsts = Vec::new();
        forall("collect", 1234, 20, |rng| firsts.push(rng.next_u64()));
        assert_eq!(firsts.len(), 20);
        let mut uniq = firsts.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 20, "case streams must differ");
    }
}
