//! Typed errors for the query service.

use ab::QueryError;

/// Why the service declined or abandoned a request.
///
/// The admission-control variant [`SvcError::Overloaded`] is the
/// load-shedding contract: a full submission queue rejects new work
/// immediately instead of queueing unboundedly, so callers can back
/// off or retry against another replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvcError {
    /// The bounded submission queue is full; the request was shed
    /// without executing any part of it.
    Overloaded {
        /// Queue depth observed at rejection time.
        depth: usize,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// The request's deadline passed before every shard finished.
    /// Partial results are discarded — the AB's no-false-negative
    /// guarantee only holds for complete merges.
    DeadlineExceeded,
    /// The request was cancelled via its [`crate::CancelToken`].
    Cancelled,
    /// The query itself is invalid for the served index.
    Query(QueryError),
    /// The service is shutting down or lost its worker threads.
    Shutdown,
}

impl SvcError {
    /// Whether a retry could plausibly succeed. Only load shedding
    /// ([`SvcError::Overloaded`]) is transient: the queue drains.
    /// Everything else — invalid queries, expired deadlines,
    /// cancellation, shutdown — will fail identically on the next
    /// attempt.
    pub fn is_transient(&self) -> bool {
        matches!(self, SvcError::Overloaded { .. })
    }
}

impl std::fmt::Display for SvcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcError::Overloaded { depth, capacity } => {
                write!(f, "overloaded: submission queue {depth}/{capacity} full")
            }
            SvcError::DeadlineExceeded => write!(f, "deadline exceeded"),
            SvcError::Cancelled => write!(f, "request cancelled"),
            SvcError::Query(e) => write!(f, "invalid query: {e}"),
            SvcError::Shutdown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for SvcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SvcError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for SvcError {
    fn from(e: QueryError) -> Self {
        SvcError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(SvcError::Overloaded {
            depth: 8,
            capacity: 8
        }
        .to_string()
        .contains("8/8"));
        assert!(SvcError::DeadlineExceeded.to_string().contains("deadline"));
        let q: SvcError = QueryError::RowOutOfRange {
            row: 9,
            num_rows: 4,
        }
        .into();
        assert!(q.to_string().contains("out of range"));
        use std::error::Error;
        assert!(q.source().is_some());
        assert!(SvcError::Cancelled.source().is_none());
    }

    #[test]
    fn only_overload_is_transient() {
        assert!(SvcError::Overloaded {
            depth: 1,
            capacity: 1
        }
        .is_transient());
        for e in [
            SvcError::DeadlineExceeded,
            SvcError::Cancelled,
            SvcError::Shutdown,
        ] {
            assert!(!e.is_transient(), "{e} must not be transient");
        }
    }
}
