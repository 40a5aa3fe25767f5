//! Online segment-store scrubbing with in-place repair.
//!
//! A [`Scrubber`] owns an open [`store::Store`] and re-verifies every
//! page of its file on a fixed cadence ([`store::Store::scrub`] —
//! positioned re-reads, so damage written to the file *after* open is
//! caught). The served index never reads the file again after open:
//! it was decoded from the store's verified copy, so rot on disk
//! leaves every answer bit-identical and no shard is quarantined. The
//! lifecycle concerns the durable copy only:
//!
//! 1. **detect** — a page no longer matches the copy verified at open;
//! 2. **repair** — the file reads `repairing` on `/healthz` while
//!    [`store::Store::rewrite`] writes the verified copy back through
//!    the crash-safe [`store::write`] protocol (temp + fsync + rename)
//!    and reopens it, verifying every page. The file is byte for byte
//!    what it was;
//! 3. **healthy** — only after that verified reopen. A failed rewrite
//!    leaves the file `degraded`, and the next pass tries again.
//!
//! [`StoreStatus`] mirrors the lifecycle as atomics for `/healthz`
//! (see [`crate::telemetry`]).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Store lifecycle state, as exposed on `/healthz`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreState {
    /// Every page verified on the last pass.
    Healthy,
    /// Damage detected in the file and the last rewrite failed; the
    /// next pass tries again.
    Degraded,
    /// A rewrite of the file is in flight.
    Repairing,
}

impl StoreState {
    fn as_str(self) -> &'static str {
        match self {
            StoreState::Healthy => "healthy",
            StoreState::Degraded => "degraded",
            StoreState::Repairing => "repairing",
        }
    }
}

/// Shared, lock-free view of the scrubber's progress for telemetry.
/// [`Scrubber::spawn`] creates one per store; the default (healthy,
/// zero counters) is for tests and custom scrub drivers.
#[derive(Debug, Default)]
pub struct StoreStatus {
    state: AtomicU8,
    passes: AtomicU64,
    pages_scanned: AtomicU64,
    crc_errors: AtomicU64,
    repairs: AtomicU64,
    repair_failures: AtomicU64,
}

impl StoreStatus {
    fn set_state(&self, s: StoreState) {
        self.state.store(s as u8, Ordering::Release);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> StoreState {
        match self.state.load(Ordering::Acquire) {
            0 => StoreState::Healthy,
            1 => StoreState::Degraded,
            _ => StoreState::Repairing,
        }
    }

    /// Completed scrub passes.
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// Cumulative pages verified across all passes.
    pub fn pages_scanned(&self) -> u64 {
        self.pages_scanned.load(Ordering::Relaxed)
    }

    /// Cumulative pages that failed verification.
    pub fn crc_errors(&self) -> u64 {
        self.crc_errors.load(Ordering::Relaxed)
    }

    /// Successful repairs (rewrite + verified reopen).
    pub fn repairs(&self) -> u64 {
        self.repairs.load(Ordering::Relaxed)
    }

    /// Repair attempts that failed (store stays degraded, retried on
    /// the next pass).
    pub fn repair_failures(&self) -> u64 {
        self.repair_failures.load(Ordering::Relaxed)
    }

    /// The `"store"` object for the `/healthz` JSON body.
    pub fn healthz_fragment(&self) -> String {
        format!(
            "{{\"state\":\"{}\",\"passes\":{},\
             \"pages_scanned\":{},\"crc_errors\":{},\"repairs\":{},\
             \"repair_failures\":{}}}",
            self.state().as_str(),
            self.passes(),
            self.pages_scanned(),
            self.crc_errors(),
            self.repairs(),
            self.repair_failures(),
        )
    }
}

/// Outcome of one [`scrub_pass`].
#[derive(Debug, PartialEq, Eq)]
pub enum PassOutcome {
    /// Every page verified.
    Clean,
    /// Damage found and repaired (file rewritten, reopened, verified).
    /// Carries the file pages that were bad.
    Repaired(Vec<u64>),
    /// Damage found and the rewrite failed; the file stays degraded.
    /// Carries the file pages that were bad.
    Degraded(Vec<u64>),
}

/// Runs one detect → repair cycle synchronously. The
/// [`Scrubber`] thread calls this on its cadence; tests call it
/// directly for determinism. On successful repair `store` is replaced
/// by the verified reopen of the rewritten file.
pub fn scrub_pass(
    store: &mut store::Store,
    status: &StoreStatus,
    io: &dyn store::SegmentIo,
) -> std::io::Result<PassOutcome> {
    let report = store.scrub()?;
    status.passes.fetch_add(1, Ordering::Relaxed);
    status
        .pages_scanned
        .fetch_add(report.pages_scanned, Ordering::Relaxed);
    if report.clean() {
        // A clean pass while degraded means the damage went away from
        // outside (e.g. an operator restored the file).
        status.set_state(StoreState::Healthy);
        return Ok(PassOutcome::Clean);
    }

    status
        .crc_errors
        .fetch_add(report.bad_pages.len() as u64, Ordering::Relaxed);
    obs::counter!("svc.scrub.detected").add(report.bad_pages.len() as u64);
    status.set_state(StoreState::Repairing);
    match store.rewrite(io) {
        Ok(reopened) => {
            *store = reopened;
            obs::counter!("svc.scrub.repairs").inc();
            status.repairs.fetch_add(1, Ordering::Relaxed);
            status.set_state(StoreState::Healthy);
            Ok(PassOutcome::Repaired(report.bad_pages))
        }
        Err(_) => {
            obs::counter!("svc.scrub.repair_failures").inc();
            status.repair_failures.fetch_add(1, Ordering::Relaxed);
            status.set_state(StoreState::Degraded);
            Ok(PassOutcome::Degraded(report.bad_pages))
        }
    }
}

/// A background scrub loop: one thread, one pass every `interval`,
/// sharing its [`StoreStatus`] with telemetry. Dropping joins the
/// thread.
pub struct Scrubber {
    stop: Arc<AtomicBool>,
    status: Arc<StoreStatus>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Scrubber {
    /// Takes ownership of the store and starts scrubbing every
    /// `interval`. `io` is the syscall boundary for repair rewrites
    /// (fault-injectable in tests, [`store::RealIo`] in production).
    pub fn spawn(
        store: store::Store,
        interval: Duration,
        io: Arc<dyn store::SegmentIo>,
    ) -> std::io::Result<Scrubber> {
        let stop = Arc::new(AtomicBool::new(false));
        let status = Arc::new(StoreStatus::default());
        let (stop2, status2) = (Arc::clone(&stop), Arc::clone(&status));
        let handle = std::thread::Builder::new()
            .name("abq-scrub".into())
            .spawn(move || {
                let mut store = store;
                while !stop2.load(Ordering::Acquire) {
                    if scrub_pass(&mut store, &status2, io.as_ref()).is_err() {
                        obs::counter!("svc.scrub.pass_errors").inc();
                    }
                    // Sleep in small slices so stop() never waits a
                    // full interval.
                    let mut left = interval;
                    while !stop2.load(Ordering::Acquire) && left > Duration::ZERO {
                        let nap = left.min(Duration::from_millis(20));
                        std::thread::sleep(nap);
                        left = left.saturating_sub(nap);
                    }
                }
            })?;
        Ok(Scrubber {
            stop,
            status,
            handle: Some(handle),
        })
    }

    /// The live status shared with `/healthz`.
    pub fn status(&self) -> Arc<StoreStatus> {
        Arc::clone(&self.status)
    }

    /// Stops the loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.shutdown();
    }
}
