//! Deadlines and cooperative cancellation.
//!
//! A request carries a [`RequestCtx`]: an absolute [`Deadline`] plus a
//! shared [`CancelToken`]. Shard tasks call [`RequestCtx::check`]
//! before every stage of their work — [`crate::service::CHUNK_ROWS`]
//! rows or cells where the AB is hash-probed, one 65 536-row Roaring
//! container where the exact tier answers alone (see
//! [`ab::AbIndex::stages`]) — so an expired or cancelled request stops
//! burning worker time within one stage, a few hundred microseconds at
//! most, instead of running to completion.

use crate::error::SvcError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An absolute expiry time; `Deadline::none()` never expires.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    expires_at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires.
    pub fn none() -> Self {
        Deadline { expires_at: None }
    }

    /// Expires `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline {
            expires_at: Some(Instant::now() + budget),
        }
    }

    /// Expires at the given instant.
    pub fn at(instant: Instant) -> Self {
        Deadline {
            expires_at: Some(instant),
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.expires_at.is_some_and(|t| Instant::now() >= t)
    }

    /// Time left, or `None` for an unbounded deadline. A passed
    /// deadline reports `Some(Duration::ZERO)`.
    pub fn remaining(&self) -> Option<Duration> {
        self.expires_at
            .map(|t| t.saturating_duration_since(Instant::now()))
    }
}

/// A shared cancellation flag; cloning shares the flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`Self::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Everything a shard task needs to decide whether to keep working.
/// Cloning shares the cancellation flag and the trace (the deadline is
/// `Copy`).
#[derive(Clone, Debug)]
pub struct RequestCtx {
    /// The request's absolute deadline.
    pub deadline: Deadline,
    cancel: CancelToken,
    trace: obs::TraceCtx,
}

impl RequestCtx {
    /// A context with the given deadline and a fresh cancel flag.
    pub fn new(deadline: Deadline) -> Self {
        RequestCtx {
            deadline,
            cancel: CancelToken::new(),
            trace: obs::TraceCtx::disabled(),
        }
    }

    /// A context carrying a caller-owned trace: the service records
    /// request spans into it but does **not** finish it — the caller
    /// (the `net` front end, which roots each wire request in it)
    /// decides when the trace is complete and calls
    /// [`crate::Service::finish_trace`]. Without this, the service
    /// starts and finishes one trace per request by itself.
    pub fn traced(deadline: Deadline, trace: obs::TraceCtx) -> Self {
        RequestCtx {
            deadline,
            cancel: CancelToken::new(),
            trace,
        }
    }

    /// The trace this request records into (disabled by default).
    pub fn trace(&self) -> &obs::TraceCtx {
        &self.trace
    }

    /// Cancels every task sharing this context.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Whether the context was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// The between-stages liveness check: `Err(Cancelled)` once the
    /// flag is raised, `Err(DeadlineExceeded)` once the deadline
    /// passes, `Ok(())` otherwise.
    pub fn check(&self) -> Result<(), SvcError> {
        if self.is_cancelled() {
            return Err(SvcError::Cancelled);
        }
        if self.deadline.expired() {
            return Err(SvcError::DeadlineExceeded);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_deadline_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn elapsed_deadline_expires() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        let ctx = RequestCtx::new(d);
        assert_eq!(ctx.check(), Err(SvcError::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_counts_down() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));
        assert_eq!(RequestCtx::new(d).check(), Ok(()));
    }

    #[test]
    fn cancellation_is_shared_and_wins_over_deadline() {
        let ctx = RequestCtx::new(Deadline::at(Instant::now() - Duration::from_millis(1)));
        let clone = ctx.clone();
        clone.cancel();
        assert!(ctx.is_cancelled());
        // Cancelled reported even though the deadline also passed.
        assert_eq!(ctx.check(), Err(SvcError::Cancelled));
    }
}
