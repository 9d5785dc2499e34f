//! One-shot environment-variable diagnostics.
//!
//! The `TERASEM_*` knobs are read from hot-ish paths (fault plans are
//! re-read per solver construction, the sink per binary init), so
//! a malformed value must not spam stderr on every read — but silently
//! ignoring it hides typos. [`invalid_env`] follows the
//! `TERASEM_THREADS` convention from `sem_comm::par`: exactly one
//! warning per variable per process, naming the variable and the bad
//! token.

use std::collections::BTreeSet;
use std::sync::Mutex;

static WARNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Warn (once per process per `var`) that the environment variable
/// `var` carries the malformed value `value`, with `detail` explaining
/// what was wrong and what the process falls back to. Returns whether
/// this call actually emitted the warning (`false` once `var` has
/// already been reported) — callers and tests can use this to assert
/// the once-only contract.
pub fn invalid_env(var: &'static str, value: &str, detail: &str) -> bool {
    let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    if !warned.insert(var) {
        return false;
    }
    eprintln!("warning: {var}={value:?}: {detail}");
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warns_exactly_once_per_variable() {
        assert!(invalid_env("TERASEM_TEST_WARN_A", "bogus", "unit test"));
        assert!(!invalid_env("TERASEM_TEST_WARN_A", "bogus2", "unit test"));
        assert!(invalid_env("TERASEM_TEST_WARN_B", "bogus", "unit test"));
        assert!(!invalid_env("TERASEM_TEST_WARN_B", "bogus", "unit test"));
    }
}
