//! Minimal POSIX signal plumbing, zero-dependency.
//!
//! std links libc on every Unix target, so the `signal(2)` / `kill(2)`
//! symbols are already in the process — declaring them is enough; no
//! crate needed. The handler does the only thing that is
//! async-signal-safe here: set an atomic flag. The daemon's accept loop
//! and every worker's per-step observer poll [`term_requested`] at
//! their natural cadence, which is what turns SIGTERM into *graceful*
//! drain instead of sudden death.
//!
//! On non-Unix targets the module compiles to inert stubs (no handler,
//! `term_requested` always false, `send_term` always fails): the
//! service still runs, drain just requires the `drain` protocol request
//! instead of a signal.

use std::sync::atomic::{AtomicBool, Ordering};

/// SIGTERM's number (POSIX-fixed).
pub const SIGTERM: i32 = 15;
/// SIGINT's number (POSIX-fixed).
pub const SIGINT: i32 = 2;

static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    extern "C" {
        pub fn signal(signum: i32, handler: usize) -> usize;
        pub fn kill(pid: i32, sig: i32) -> i32;
    }

    pub extern "C" fn on_term(_sig: i32) {
        super::TERM.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

/// Route SIGTERM and SIGINT to the termination flag. Idempotent.
pub fn install_term_handler() {
    #[cfg(unix)]
    unsafe {
        let h = imp::on_term as extern "C" fn(i32) as usize;
        imp::signal(SIGTERM, h);
        imp::signal(SIGINT, h);
    }
}

/// Has a termination signal (or [`request_term`]) arrived?
pub fn term_requested() -> bool {
    TERM.load(Ordering::SeqCst)
}

/// Trip the termination flag programmatically — the `drain` protocol
/// request funnels into the same path as SIGTERM, so there is exactly
/// one drain implementation.
pub fn request_term() {
    TERM.store(true, Ordering::SeqCst);
}

/// Send SIGTERM to `pid`. Returns whether the signal was delivered
/// (false when the process is already gone, or on non-Unix).
pub fn send_term(pid: u32) -> bool {
    #[cfg(unix)]
    unsafe {
        return imp::kill(pid as i32, SIGTERM) == 0;
    }
    #[cfg(not(unix))]
    {
        let _ = pid;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The flag is process-global; serialize the tests that touch it.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Reset the flag (a real drain never un-drains).
    fn clear_term() {
        TERM.store(false, Ordering::SeqCst);
    }

    #[test]
    fn flag_round_trips_and_request_matches_signal_path() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_term();
        assert!(!term_requested());
        request_term();
        assert!(term_requested());
        clear_term();
        assert!(!term_requested());
    }

    #[cfg(unix)]
    #[test]
    fn sigterm_to_self_sets_the_flag() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_term();
        install_term_handler();
        assert!(send_term(std::process::id()));
        // Delivery is asynchronous; give the kernel a beat.
        for _ in 0..200 {
            if term_requested() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(term_requested(), "SIGTERM handler must set the flag");
        clear_term();
    }
}
