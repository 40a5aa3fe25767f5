//! RAII timing spans.
//!
//! # Thread locality
//!
//! The span stack behind [`active_spans`] / [`span_depth`] is
//! **per-thread**: a guard pushed on one thread is invisible to every
//! other, so a request whose work fans out over a pool shows up as
//! disconnected single-thread fragments here. That is by design — this
//! stack exists for cheap ambient context (who is timing right now on
//! *this* thread), not request attribution, and making it global would
//! put a shared lock on every span push.
//!
//! For a request-scoped view that *does* cross threads, use
//! [`crate::trace`]: a [`crate::TraceCtx`] travels with the request,
//! the dispatching side captures a parent span id
//! ([`crate::TraceSpan::id`]) and the worker side reattaches with
//! [`crate::TraceCtx::span_under`] — producing one well-nested span
//! tree per request regardless of which threads ran the pieces.

use crate::Histogram;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Starts a timing span: the returned guard records the elapsed wall
/// time in microseconds into the histogram named `name` when dropped.
/// Spans nest freely; the per-thread stack of open span names is
/// visible via [`active_spans`] / [`span_depth`] (on **this thread
/// only** — see the module docs for the cross-thread story).
///
/// ```
/// {
///     let _outer = obs::span("doc.outer_us");
///     let _inner = obs::span("doc.inner_us");
///     assert_eq!(obs::span_depth(), 2);
/// }
/// assert_eq!(obs::span_depth(), 0);
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::new(name, crate::global().histogram(name))
}

/// A live timing span; see [`span`]. Dropping it stops the clock and
/// records into the associated histogram.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct SpanGuard {
    name: &'static str,
    hist: Arc<Histogram>,
    start: Instant,
}

impl SpanGuard {
    fn new(name: &'static str, hist: Arc<Histogram>) -> Self {
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        SpanGuard {
            name,
            hist,
            start: Instant::now(),
        }
    }

    /// The metric name this span records into.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Microseconds elapsed so far (the span keeps running).
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_micros() as u64);
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards are usually dropped LIFO, but a guard moved out of
            // scope order should remove its own entry, not the top.
            if let Some(pos) = stack.iter().rposition(|&n| n == self.name) {
                stack.remove(pos);
            }
        });
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.name)
            .field("elapsed_us", &self.elapsed_us())
            .finish()
    }
}

/// Number of spans currently open on this thread.
pub fn span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// Names of the spans currently open on this thread, outermost first.
pub fn active_spans() -> Vec<&'static str> {
    SPAN_STACK.with(|s| s.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_unwind() {
        assert_eq!(span_depth(), 0);
        {
            let _a = span("obs.test.span_outer_us");
            assert_eq!(span_depth(), 1);
            {
                let _b = span("obs.test.span_inner_us");
                assert_eq!(
                    active_spans(),
                    vec!["obs.test.span_outer_us", "obs.test.span_inner_us"]
                );
            }
            assert_eq!(span_depth(), 1);
        }
        assert_eq!(span_depth(), 0);
    }

    #[test]
    fn out_of_order_drop_removes_own_entry() {
        let a = span("obs.test.span_a_us");
        let b = span("obs.test.span_b_us");
        drop(a);
        assert_eq!(active_spans(), vec!["obs.test.span_b_us"]);
        drop(b);
        assert_eq!(span_depth(), 0);
    }

    #[test]
    fn span_records_into_histogram() {
        {
            let g = span("obs.test.span_records_us");
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(g.elapsed_us() >= 1_000);
        }
        let h = crate::global().histogram("obs.test.span_records_us");
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1_000);
    }

    #[test]
    fn span_stacks_are_per_thread() {
        let _a = span("obs.test.span_thread_us");
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(span_depth(), 0);
                let _b = span("obs.test.span_thread2_us");
                assert_eq!(span_depth(), 1);
            });
        });
        assert_eq!(span_depth(), 1);
    }
}
