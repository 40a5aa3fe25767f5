//! Process signals: SIGINT/SIGTERM capture for graceful drains.
//!
//! [`signal`] declares `signal(2)` against the platform libc that
//! `std` already links, so the crate stays zero-dependency; it is the
//! crate's one `unsafe` site.

/// Process-level shutdown flag raised by SIGINT/SIGTERM once
/// [`install_shutdown_handler`](signal::install_shutdown_handler)
/// has run.
#[allow(unsafe_code)]
pub mod signal {
    use std::os::raw::c_int;
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_sig: c_int) {
        // async-signal-safe: a single relaxed store
        SHUTDOWN.store(true, Ordering::Relaxed);
    }

    /// Routes SIGINT and SIGTERM to a flag the serve loop polls, so a
    /// Ctrl-C turns into a graceful drain instead of process death.
    pub fn install_shutdown_handler() {
        // SAFETY: `on_signal` is a 'static extern "C" fn(c_int), the
        // handler type signal(2) expects, passed by address as a
        // sighandler_t; its body is one relaxed atomic store, which is
        // async-signal-safe. The previous handlers are discarded.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn shutdown_requested() -> bool {
        SHUTDOWN.load(Ordering::Relaxed)
    }

    /// Raises the flag programmatically (tests; also lets an in-process
    /// controller request the same drain path as a signal).
    pub fn request_shutdown() {
        SHUTDOWN.store(true, Ordering::Relaxed);
    }

    /// Clears the flag (tests only — the serve loop runs once).
    pub fn reset() {
        SHUTDOWN.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_flag_roundtrip() {
        signal::reset();
        assert!(!signal::shutdown_requested());
        signal::request_shutdown();
        assert!(signal::shutdown_requested());
        signal::reset();
    }
}
