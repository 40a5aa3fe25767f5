//! Zero-dependency observability for the AB reproduction.
//!
//! The paper's entire argument is quantitative — O(c·k) probe counts vs
//! O(N) WAH scans, FP(k, α) precision, the Figure 14 crossover — and
//! this crate is the substrate that makes those quantities observable
//! at runtime instead of re-derivable only by hand:
//!
//! * [`Counter`] — lock-free sharded atomic counters;
//! * [`Histogram`] — fixed power-of-two-bucket histograms (64 buckets,
//!   values are `u64`, typically microseconds or counts);
//! * [`span`] — RAII timing spans, nestable, with a thread-local span
//!   stack; each span records its wall time (µs) into the histogram of
//!   the same name on drop;
//! * [`QuantileSketch`] — log-linear (HDR-style) sketches with ~1.6%
//!   relative error, for latency quantiles where pow2 histogram buckets
//!   are too coarse near p99;
//! * [`trace`] — request-scoped span trees ([`TraceCtx`]) and the
//!   global [`FlightRecorder`] keeping the last N completed traces;
//! * [`Registry`] — a global registry keyed by `&'static str` metric
//!   names, snapshottable;
//! * [`Snapshot`] — exported in Prometheus text exposition format
//!   ([`Snapshot::to_prometheus`]).
//!
//! Built intentionally with **no dependencies beyond `std` and the
//! workspace-pinned `serde`** (the build environment has no crates.io
//! access). The trace dump's JSON is hand-rolled for the same reason;
//! the serde derives on snapshot types keep them consumable by
//! downstream serde tooling when it exists.
//!
//! # Conventions
//!
//! Metric names are dotted lowercase paths: `ab.query.cells_probed`,
//! `wah.ops.words_scanned`, `planner.descent.hier`. The segment before the
//! first dot is the *family* (crate or subsystem). Histograms that hold
//! microseconds end in `_us`.
//!
//! # Example
//!
//! ```
//! let c = obs::global().counter("example.requests");
//! c.inc();
//! {
//!     let _t = obs::span("example.work_us");
//!     // … timed work …
//! }
//! let snap = obs::global().snapshot();
//! assert_eq!(snap.counter("example.requests"), 1);
//! assert!(snap.to_prometheus().contains("example_requests 1"));
//! ```

#![warn(missing_docs)]

mod counter;
mod export;
mod histogram;
mod registry;
mod sketch;
mod span;
pub mod trace;

pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{global, Registry, Snapshot};
pub use sketch::{QuantileSketch, SketchSnapshot, SketchTimer, SKETCH_BUCKETS};
pub use span::{active_spans, span, span_depth, SpanGuard};
pub use trace::{
    parse_dump, recorder, span_current, AnnValue, FlightRecorder, SpanRecord, Trace, TraceCtx,
    TraceSpan,
};

/// Caches the [`Counter`] lookup for a call site: expands to an
/// expression of type `&'static Counter` resolved from the global
/// registry once and memoized in a per-call-site `OnceLock`.
///
/// ```
/// obs::counter!("doc.example.hits").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**SITE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Caches the [`Histogram`] lookup for a call site (see [`counter!`]).
///
/// ```
/// obs::histogram!("doc.example.latency_us").record(42);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**SITE.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// Caches the [`QuantileSketch`] lookup for a call site (see
/// [`counter!`]). Use a sketch instead of a histogram when the tail
/// matters: pow2 histogram buckets are ~2× wide near p99, a sketch is
/// accurate to ~1.6%.
///
/// ```
/// obs::sketch!("doc.example.lat_sketch_us").record(42);
/// ```
#[macro_export]
macro_rules! sketch {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::QuantileSketch>> =
            ::std::sync::OnceLock::new();
        &**SITE.get_or_init(|| $crate::global().sketch($name))
    }};
}
