//! # Sharded concurrent query service
//!
//! Serving layer over the AB index (see the `ab` crate): the row space
//! is partitioned into contiguous **shards**, each with its own
//! [`AbIndex`](ab::AbIndex), and every request kind — a rectangle, a
//! batch of rectangles, a cell list — is fanned out across a fixed
//! worker pool and merged by one request path ([`service`]) —
//! bit-identical to single-threaded execution.
//!
//! Everything is `std`-only:
//!
//! * [`pool`] — own-rolled worker pool with a bounded queue; full
//!   queues **shed** requests with [`SvcError::Overloaded`]
//!   (admission control) instead of queueing unboundedly;
//! * [`shard`] — row-range partitioning, set-up with every shard built
//!   side by side on its own thread, query splitting, and the `ABSH`
//!   persistence envelope;
//! * [`batch`] — grouping a request's probes by owning shard so each
//!   shard gets one pool job, not one per probe;
//! * [`deadline`] — per-request deadlines and cooperative cancellation,
//!   checked before every stage of a shard job — a bounded amount of
//!   work: [`CHUNK_ROWS`] hash-probed rows or cells, or one Roaring
//!   container of rows the exact tier answers alone;
//! * [`service`] — the [`Service`] and its one request path
//!   (partition → fan out → collect → merge), one entry point per
//!   query kind under the caller's [`RequestCtx`]:
//!   [`Service::try_query_rect_ctx`], [`Service::try_retrieve_cells_ctx`]
//!   and [`Service::try_query_batch_ctx`] (the first two also without
//!   a ctx, under the service's default deadline);
//! * [`chaos`] — seeded, deterministic fault injection behind named
//!   points, disarmed unless a [`FaultPlan`] is attached;
//! * [`degrade`] — shard quarantine and the typed [`Degraded`] response
//!   marker for conservative (*maybe present*) answers;
//! * [`mod@scrub`] — the online segment-store scrubber: periodic page
//!   re-verification of a [`store::Store`]'s file, and byte-for-byte
//!   repair from the store's verified copy through the crash-safe
//!   write protocol;
//! * [`telemetry`] — a zero-dependency HTTP endpoint serving
//!   `/metrics` (Prometheus), `/healthz`, and `/debug/traces` (the
//!   request-trace flight recorder).
//!
//! Every request is traced end-to-end by default (see
//! [`SvcConfig::trace_requests`]): one span tree per request — request
//! root, admission, per-shard jobs (across worker threads), kernel
//! stages, merge — lands in the global [`obs::recorder`] flight
//! recorder, with requests slower than [`SvcConfig::slow_query`]
//! pinned as a slow-query log.
//!
//! ## Quick start
//!
//! ```
//! use ab::{AbConfig, Level};
//! use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
//! use svc::{Service, SvcConfig};
//!
//! let table = BinnedTable::new(vec![BinnedColumn::new(
//!     "temp",
//!     (0..1000).map(|i| (i % 8) as u32).collect(),
//!     8,
//! )]);
//! let svc = Service::build(
//!     &table,
//!     &AbConfig::new(Level::PerAttribute).with_alpha(16),
//!     &SvcConfig { threads: 2, shards: 4, ..SvcConfig::default() },
//! );
//! let answer = svc
//!     .try_query_rect(&RectQuery::new(vec![AttrRange::new(0, 6, 7)], 0, 999))
//!     .unwrap();
//! // A superset of the true matches (100% recall), from healthy shards.
//! assert!((0..1000).filter(|r| r % 8 >= 6).all(|r| answer.value.contains(&r)));
//! assert!(!answer.is_degraded());
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod chaos;
pub mod deadline;
pub mod degrade;
pub mod error;
pub mod pool;
pub mod scrub;
pub mod service;
pub mod shard;
pub mod telemetry;

pub use batch::{group_cells_by_shard, ShardCells};
pub use chaos::{ChaosSegmentIo, Fault, FaultPlan, FaultRule};
pub use deadline::{CancelToken, Deadline, RequestCtx};
pub use degrade::{Degraded, Response, ShardHealth};
pub use error::SvcError;
pub use pool::WorkerPool;
pub use scrub::{scrub_pass, PassOutcome, Scrubber, StoreState, StoreStatus};
pub use service::{Service, SvcConfig, CHUNK_ROWS};
pub use shard::{Shard, ShardedIndex};
pub use telemetry::{HybridStatus, TelemetryServer};
