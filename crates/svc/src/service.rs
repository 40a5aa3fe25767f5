//! The concurrent query service.
//!
//! A [`Service`] owns a [`ShardedIndex`] (behind an `Arc`) and a
//! [`WorkerPool`]. Each request is validated once against the global
//! schema, split into per-shard parts, and fanned out as **one pool
//! job per shard** (batching — see [`crate::batch`]). Shard jobs
//! execute their rows in [`CHUNK_ROWS`]-sized chunks, calling
//! [`RequestCtx::check`] between chunks so deadlines and cancellation
//! take effect mid-query. The collector waits with the request's
//! remaining deadline budget; a miss cancels the in-flight shard work
//! and discards partial results (a partial merge would break the AB's
//! no-false-negative contract).
//!
//! Admission control happens at submission: a full pool queue sheds
//! the whole request with [`SvcError::Overloaded`] before any shard
//! runs.
//!
//! ## Graceful degradation
//!
//! A shard job that **panics** (a bug, bit-rot, or an injected
//! [`crate::chaos`] fault) does not fail the request: the shard is
//! quarantined in a [`ShardHealth`] ledger and its slice of the query
//! is answered *conservatively* — every row it covers is reported as
//! a candidate. The AB's contract is no false negatives with a
//! controlled false-positive rate, so a conservative slice (FP rate
//! 1.0 for those rows) stays inside the contract; the response
//! carries a typed [`crate::Degraded`] marker naming the shards involved so
//! callers can decide whether the lost precision matters. Later
//! requests skip quarantined shards up front instead of panicking
//! again. Exact (WAH) answers cannot be conservative, so that path
//! fails with [`SvcError::ShardQuarantined`] instead.

use crate::batch::{group_rects_by_shard, partition_cells};
use crate::chaos::{self, points};
use crate::deadline::{Deadline, RequestCtx};
use crate::degrade::{degraded_marker, Response, ShardHealth};
use crate::error::SvcError;
use crate::pool::WorkerPool;
use crate::shard::{Shard, ShardedIndex};
use ab::{
    AbConfig, BatchRows, Cell, HierConfig, HierMode, HybridConfig, HybridMode, KernelKind,
    KernelOpts,
};
use bitmap::{BinnedTable, RectQuery};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Rows a shard job processes between two [`RequestCtx::check`]
/// calls. Small enough that cancellation latency stays in the tens of
/// microseconds, large enough that the atomic load is noise.
pub const CHUNK_ROWS: usize = 512;

/// Service construction parameters.
#[derive(Clone, Debug)]
pub struct SvcConfig {
    /// Worker threads; `0` means `std::thread::available_parallelism()`.
    pub threads: usize,
    /// Shard count; `0` derives it from the thread count (clamped to
    /// the row count either way).
    pub shards: usize,
    /// Bounded submission-queue capacity; admission control sheds
    /// beyond this depth.
    pub queue_capacity: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Also build a WAH index per shard for exact answers.
    pub with_wah: bool,
    /// Probe engine shard jobs run on (results are identical either
    /// way; see [`ab::KernelKind`]).
    pub kernel: KernelKind,
    /// Batch-depth policy for the batched/simd kernels
    /// ([`ab::BatchRows::Adaptive`] sizes per query from the cache
    /// hierarchy).
    pub batch_rows: BatchRows,
    /// Start a request-scoped trace for every request that doesn't
    /// carry its own (see [`RequestCtx::traced`]); completed traces
    /// land in the global [`obs::recorder`]. Tracing costs one small
    /// allocation per span, so latency benchmarks may turn it off.
    pub trace_requests: bool,
    /// Requests at least this slow are **pinned** in the flight
    /// recorder (the slow-query log) instead of rotating out of the
    /// ring, and counted in `svc.slow_queries`.
    pub slow_query: Option<Duration>,
    /// Hierarchical pruning policy for rect queries
    /// ([`ab::HierMode::Off`] by default). Anything other than `Off`
    /// attaches a [`ab::HierAb`] pyramid to every shard at build (or
    /// load) time; shard jobs then prune whole row spans before the
    /// chunked kernel runs. Results stay bit-identical either way.
    pub hier: HierMode,
    /// Pyramid geometry used when [`Self::hier`] is not `Off`.
    pub hier_config: HierConfig,
    /// Exact-tier policy for rect and cell queries
    /// ([`ab::HybridMode::Off`] by default). Anything other than `Off`
    /// builds a [`ab::HybridAb`] per shard at build time (loaded
    /// segments that already carry a tier serve it as-is); exact-backed
    /// bins then answer straight from Roaring containers — zero hash
    /// probes, zero false positives for those bins.
    pub hybrid: HybridMode,
    /// Split-decision calibration used when [`Self::hybrid`] is not
    /// `Off`.
    pub hybrid_config: HybridConfig,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            threads: 0,
            shards: 0,
            queue_capacity: 256,
            default_deadline: None,
            with_wah: false,
            kernel: KernelKind::default(),
            batch_rows: BatchRows::default(),
            trace_requests: true,
            slow_query: None,
            hier: HierMode::Off,
            hier_config: HierConfig::default(),
            hybrid: HybridMode::Off,
            hybrid_config: HybridConfig::default(),
        }
    }
}

impl SvcConfig {
    /// The thread count after resolving `0` to the machine's
    /// available parallelism.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The shard count for a table of `num_rows` rows: explicit, or
    /// derived from the thread count; always clamped to `1..=num_rows`.
    pub fn resolved_shards(&self, num_rows: usize) -> usize {
        let want = if self.shards > 0 {
            self.shards
        } else {
            self.resolved_threads()
        };
        want.clamp(1, num_rows.max(1))
    }
}

/// What one shard job reports back to the request's collector.
enum ShardOutcome<T> {
    /// The job ran to completion (successfully or with a typed error).
    Done(Result<T, SvcError>),
    /// The job panicked; the shard must be quarantined and its slice
    /// answered conservatively.
    Panicked,
}

/// Runs a shard job body, converting a panic into
/// [`ShardOutcome::Panicked`] so the collector hears about it instead
/// of waiting on a message that will never arrive.
fn shard_outcome<T>(body: impl FnOnce() -> Result<T, SvcError>) -> ShardOutcome<T> {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(res) => ShardOutcome::Done(res),
        Err(_) => ShardOutcome::Panicked,
    }
}

/// Stamps a shard job's trace span with how the job ended.
fn annotate_shard_outcome<T>(span: &mut obs::TraceSpan, outcome: &ShardOutcome<T>) {
    if !span.enabled() {
        return;
    }
    match outcome {
        ShardOutcome::Done(Ok(_)) => span.annotate("outcome", "ok"),
        ShardOutcome::Done(Err(e)) => {
            span.annotate("outcome", "error");
            span.annotate("error", error_code(e));
        }
        ShardOutcome::Panicked => span.annotate("outcome", "panicked"),
    }
}

/// Every global row a shard-local query part covers — the
/// conservative ("maybe present") answer for a quarantined shard.
fn conservative_rows(shard_start: usize, local: &RectQuery) -> Vec<usize> {
    (shard_start + local.row_lo..=shard_start + local.row_hi).collect()
}

/// A sharded, concurrent query service over an AB index.
pub struct Service {
    index: Arc<ShardedIndex>,
    pool: WorkerPool,
    default_deadline: Option<Duration>,
    health: Arc<ShardHealth>,
    chaos: Option<Arc<chaos::FaultPlan>>,
    kernel: KernelOpts,
    trace_requests: bool,
    slow_query: Option<Duration>,
}

/// The per-kind request-latency sketch (`svc.latency_us.<kind>`) —
/// accurate p50/p95/p99 where the pow2 `svc.request_us` histogram
/// buckets are ~2× wide.
fn latency_sketch(kind: &'static str) -> &'static obs::QuantileSketch {
    match kind {
        "rect" => obs::sketch!("svc.latency_us.rect"),
        "rect_wah" => obs::sketch!("svc.latency_us.rect_wah"),
        "cells" => obs::sketch!("svc.latency_us.cells"),
        "batch" => obs::sketch!("svc.latency_us.batch"),
        _ => obs::sketch!("svc.latency_us.other"),
    }
}

/// Short stable code for trace annotations.
fn error_code(e: &SvcError) -> &'static str {
    match e {
        SvcError::Overloaded { .. } => "overloaded",
        SvcError::DeadlineExceeded => "deadline_exceeded",
        SvcError::Cancelled => "cancelled",
        SvcError::Query(_) => "invalid_query",
        SvcError::Shutdown => "shutdown",
        SvcError::WahUnavailable => "wah_unavailable",
        SvcError::RetriesExhausted { .. } => "retries_exhausted",
        SvcError::ShardQuarantined { .. } => "shard_quarantined",
    }
}

impl Service {
    /// Builds the sharded index (in parallel, on the service's own
    /// pool) and starts the workers.
    pub fn build(table: &BinnedTable, ab: &AbConfig, cfg: &SvcConfig) -> Self {
        let pool = WorkerPool::new(cfg.resolved_threads(), cfg.queue_capacity);
        let shards = cfg.resolved_shards(table.num_rows());
        let mut index = ShardedIndex::build_parallel(table, ab, shards, cfg.with_wah, &pool);
        if cfg.hier != HierMode::Off {
            index.ensure_hier(&cfg.hier_config);
        }
        if cfg.hybrid != HybridMode::Off {
            index.ensure_hybrid(table, &cfg.hybrid_config);
        }
        let health = Arc::new(ShardHealth::new(index.num_shards()));
        Service {
            index: Arc::new(index),
            pool,
            default_deadline: cfg.default_deadline,
            health,
            chaos: None,
            kernel: KernelOpts::new(cfg.kernel)
                .with_batch_rows(cfg.batch_rows)
                .with_hier(cfg.hier)
                .with_hybrid(cfg.hybrid),
            trace_requests: cfg.trace_requests,
            slow_query: cfg.slow_query,
        }
    }

    /// Wraps an already-built index (e.g. one loaded with
    /// [`ShardedIndex::from_bytes`]); `cfg.shards` is ignored.
    pub fn from_index(mut index: ShardedIndex, cfg: &SvcConfig) -> Self {
        if cfg.hier != HierMode::Off {
            // Old segments carry no pyramid; rebuild one so loaded
            // and freshly built services behave identically.
            index.ensure_hier(&cfg.hier_config);
        }
        if cfg.hybrid != HybridMode::Off {
            // The exact tier cannot be rebuilt here — it holds the
            // truth, which needs the source table (`Service::build`
            // or `abq store build --hybrid`). Loaded v4 segments that
            // carry one are served as-is; replay their split decisions
            // into the planner counters so `/metrics` reports the
            // exact/ab split even though no build ran in-process.
            index.record_hybrid_split_counters();
        }
        let health = Arc::new(ShardHealth::new(index.num_shards()));
        Service {
            index: Arc::new(index),
            pool: WorkerPool::new(cfg.resolved_threads(), cfg.queue_capacity),
            default_deadline: cfg.default_deadline,
            health,
            chaos: None,
            kernel: KernelOpts::new(cfg.kernel)
                .with_batch_rows(cfg.batch_rows)
                .with_hier(cfg.hier)
                .with_hybrid(cfg.hybrid),
            trace_requests: cfg.trace_requests,
            slow_query: cfg.slow_query,
        }
    }

    /// Attaches a fault plan driving this service's injection points
    /// ([`points::POOL_SUBMIT`], [`points::SHARD_QUERY`]) — tests and
    /// chaos drills only.
    pub fn with_fault_plan(mut self, plan: Arc<chaos::FaultPlan>) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// The served index.
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// The quarantine ledger (shards currently answered
    /// conservatively). [`ShardHealth::clear`] returns a repaired
    /// shard to service.
    pub fn health(&self) -> &ShardHealth {
        &self.health
    }

    /// The probe engine this service's shard jobs run on.
    pub fn kernel(&self) -> KernelKind {
        self.kernel.kernel
    }

    /// The full kernel options (engine + batch-depth policy).
    pub fn kernel_opts(&self) -> KernelOpts {
        self.kernel
    }

    /// Worker threads serving requests.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Whether this service starts a request-scoped trace for
    /// requests that don't carry their own (see
    /// [`SvcConfig::trace_requests`]). Front ends that open
    /// caller-owned traces check this so tracing stays a single knob.
    pub fn tracing_enabled(&self) -> bool {
        self.trace_requests
    }

    /// Jobs currently queued for admission.
    pub fn queue_depth(&self) -> usize {
        self.pool.queue_depth()
    }

    /// The quarantine ledger behind its `Arc` — for telemetry servers
    /// that outlive borrows of the service.
    pub fn health_arc(&self) -> Arc<ShardHealth> {
        Arc::clone(&self.health)
    }

    fn ctx_with_default(&self) -> RequestCtx {
        RequestCtx::new(match self.default_deadline {
            Some(budget) => Deadline::within(budget),
            None => Deadline::none(),
        })
    }

    /// Wraps one request: opens its `svc.request` root span (on the
    /// caller's trace if the ctx carries one, on a fresh service-owned
    /// trace otherwise), annotates the outcome, records the per-kind
    /// latency sketch, and — for service-owned traces — finishes the
    /// trace into the global flight recorder.
    fn traced_request<T>(
        &self,
        kind: &'static str,
        ctx: &RequestCtx,
        run: impl FnOnce(&obs::TraceCtx, u64) -> Result<T, SvcError>,
    ) -> Result<T, SvcError> {
        let _timer = obs::span("svc.request_us");
        obs::counter!("svc.requests").inc();
        let start = std::time::Instant::now();
        let (trace, owned) = if ctx.trace().enabled() {
            (ctx.trace().clone(), false)
        } else if self.trace_requests {
            (obs::TraceCtx::start(kind), true)
        } else {
            (obs::TraceCtx::disabled(), false)
        };
        let mut root = trace.span_under(0, "svc.request");
        root.annotate("kind", kind);
        let root_id = root.id();
        let result = run(&trace, root_id);
        match &result {
            Ok(_) => root.annotate("outcome", "ok"),
            Err(e) => {
                root.annotate("outcome", "error");
                root.annotate("error", error_code(e));
            }
        }
        drop(root);
        latency_sketch(kind).record(start.elapsed().as_micros() as u64);
        if owned {
            self.record_trace(&trace);
        }
        result
    }

    /// Finishes a trace and files it in the global [`obs::recorder`],
    /// pinning it as a slow query when it crossed
    /// [`SvcConfig::slow_query`].
    fn record_trace(&self, trace: &obs::TraceCtx) {
        if let Some(t) = trace.finish() {
            let pin = self
                .slow_query
                .is_some_and(|thr| u128::from(t.duration_us) >= thr.as_micros());
            if pin {
                obs::counter!("svc.slow_queries").inc();
            }
            obs::recorder().record(t, pin);
        }
    }

    /// Finishes a **caller-owned** trace (see [`RequestCtx::traced`])
    /// and files it in the global flight recorder, applying the
    /// service's slow-query pinning policy. Call once, after the last
    /// request (e.g. the last retry attempt) recorded into it; each
    /// attempt appears as its own `svc.request` root span.
    pub fn finish_trace(&self, trace: &obs::TraceCtx) {
        self.record_trace(trace);
    }

    /// Rectangular AB query under the service's default deadline.
    /// Returns globally sorted row ids, bit-identical to
    /// [`ShardedIndex::execute_rect_sequential`] while every shard is
    /// healthy. The degradation marker is discarded; use
    /// [`Self::try_query_rect`] to observe it.
    pub fn query_rect(&self, query: &RectQuery) -> Result<Vec<usize>, SvcError> {
        self.try_query_rect(query).map(Response::into_value)
    }

    /// Rectangular query returning the answer together with its
    /// [`crate::Degraded`] status.
    pub fn try_query_rect(&self, query: &RectQuery) -> Result<Response<Vec<usize>>, SvcError> {
        self.try_query_rect_ctx(query, &self.ctx_with_default())
    }

    /// Rectangular query with an explicit per-request deadline.
    pub fn query_rect_within(
        &self,
        query: &RectQuery,
        budget: Duration,
    ) -> Result<Vec<usize>, SvcError> {
        self.query_rect_ctx(query, &RequestCtx::new(Deadline::within(budget)))
    }

    /// Rectangular query under a caller-owned [`RequestCtx`] — the
    /// caller keeps a clone and may cancel mid-flight. The degradation
    /// marker is discarded; use [`Self::try_query_rect_ctx`] to
    /// observe it.
    pub fn query_rect_ctx(
        &self,
        query: &RectQuery,
        ctx: &RequestCtx,
    ) -> Result<Vec<usize>, SvcError> {
        self.try_query_rect_ctx(query, ctx)
            .map(Response::into_value)
    }

    /// Rectangular query under a caller-owned [`RequestCtx`],
    /// reporting degradation: quarantined (or newly panicking) shards
    /// contribute every row of their slice as a candidate instead of
    /// failing the request, and the response's `degraded` marker
    /// names them.
    pub fn try_query_rect_ctx(
        &self,
        query: &RectQuery,
        ctx: &RequestCtx,
    ) -> Result<Response<Vec<usize>>, SvcError> {
        self.traced_request("rect", ctx, |trace, root_id| {
            self.rect_ctx_traced(query, ctx, trace, root_id)
        })
    }

    fn rect_ctx_traced(
        &self,
        query: &RectQuery,
        ctx: &RequestCtx,
        trace: &obs::TraceCtx,
        root_id: u64,
    ) -> Result<Response<Vec<usize>>, SvcError> {
        let mut admit = trace.span_under(root_id, "svc.admit");
        self.index.validate_rect(query)?;
        ctx.check()?;
        let parts = self.index.split_rect(query);
        obs::histogram!("svc.fanout").record(parts.len() as u64);
        admit.annotate("fanout", parts.len());
        // Remember each slot's row interval so a panicking shard's
        // slice can be re-answered conservatively after the fact.
        let slot_spans: Vec<(usize, RectQuery)> = parts.clone();
        let (tx, rx) = mpsc::channel();
        let mut merged: Vec<Option<Vec<usize>>> = (0..parts.len()).map(|_| None).collect();
        let mut degraded = Vec::new();
        let mut expected = 0usize;
        for (slot, (sid, local)) in parts.into_iter().enumerate() {
            let start = self.index.shards()[sid].start();
            if self.health.is_quarantined(sid) {
                trace
                    .span_under(root_id, "svc.quarantined")
                    .annotate("shard", sid);
                merged[slot] = Some(conservative_rows(start, &local));
                degraded.push(sid);
                continue;
            }
            if let Err(e) = chaos::inject(self.chaos.as_deref(), points::POOL_SUBMIT, Some(sid)) {
                ctx.cancel();
                obs::counter!("svc.shed").inc();
                return Err(e);
            }
            let index = Arc::clone(&self.index);
            let job_ctx = ctx.clone();
            let plan = self.chaos.clone();
            let kernel = self.kernel;
            let tx = tx.clone();
            let job_trace = trace.clone();
            if let Err(e) = self.pool.try_execute(move || {
                let mut tspan = job_trace.span_under(root_id, "svc.shard");
                tspan.annotate("shard", sid);
                let enter = tspan.enter();
                let outcome = shard_outcome(|| {
                    chaos::inject(plan.as_deref(), points::SHARD_QUERY, Some(sid))?;
                    run_shard_chunked(&index.shards()[sid], &local, &job_ctx, kernel)
                });
                drop(enter);
                annotate_shard_outcome(&mut tspan, &outcome);
                drop(tspan);
                let _ = tx.send((slot, sid, outcome));
            }) {
                // Shed: abandon the whole request and stop any parts
                // already admitted.
                ctx.cancel();
                obs::counter!("svc.shed").inc();
                return Err(e);
            }
            expected += 1;
        }
        drop(tx);
        drop(admit);
        let mut merge = trace.span_under(root_id, "svc.merge");
        for _ in 0..expected {
            match self.collect(&rx, ctx)? {
                (slot, _, ShardOutcome::Done(Ok(rows))) => merged[slot] = Some(rows),
                (_, _, ShardOutcome::Done(Err(e))) => return Err(self.abandon(ctx, e)),
                (slot, sid, ShardOutcome::Panicked) => {
                    self.health.quarantine(sid);
                    degraded.push(sid);
                    let (_, local) = &slot_spans[slot];
                    let start = self.index.shards()[sid].start();
                    merged[slot] = Some(conservative_rows(start, local));
                }
            }
        }
        if !degraded.is_empty() {
            merge.annotate("degraded_shards", degraded.len());
        }
        // Shard parts were issued in row order, so flattening by slot
        // yields globally sorted rows.
        Ok(Response {
            value: merged.into_iter().flatten().flatten().collect(),
            degraded: degraded_marker(degraded),
        })
    }

    /// Exact rectangular query over the per-shard WAH indexes (the
    /// paper's verbatim/compressed baseline). Requires
    /// [`SvcConfig::with_wah`] at build time. Exact answers cannot be
    /// conservative, so a quarantined (or newly panicking) shard
    /// fails the request with [`SvcError::ShardQuarantined`].
    pub fn query_rect_wah(&self, query: &RectQuery) -> Result<Vec<usize>, SvcError> {
        self.query_rect_wah_ctx(query, &self.ctx_with_default())
    }

    /// [`Self::query_rect_wah`] under a caller-owned [`RequestCtx`]
    /// (deadline, cancellation, and optionally a caller-owned trace —
    /// see [`RequestCtx::traced`]).
    pub fn query_rect_wah_ctx(
        &self,
        query: &RectQuery,
        ctx: &RequestCtx,
    ) -> Result<Vec<usize>, SvcError> {
        self.traced_request("rect_wah", ctx, |trace, root_id| {
            self.rect_wah_traced(query, ctx, trace, root_id)
        })
    }

    fn rect_wah_traced(
        &self,
        query: &RectQuery,
        ctx: &RequestCtx,
        trace: &obs::TraceCtx,
        root_id: u64,
    ) -> Result<Vec<usize>, SvcError> {
        let mut admit = trace.span_under(root_id, "svc.admit");
        self.index.validate_rect(query)?;
        if self.index.shards().iter().any(|s| s.wah().is_none()) {
            return Err(SvcError::WahUnavailable);
        }
        ctx.check()?;
        let parts = self.index.split_rect(query);
        obs::histogram!("svc.fanout").record(parts.len() as u64);
        admit.annotate("fanout", parts.len());
        if let Some(&(sid, _)) = parts
            .iter()
            .find(|(sid, _)| self.health.is_quarantined(*sid))
        {
            trace
                .span_under(root_id, "svc.quarantined")
                .annotate("shard", sid);
            return Err(SvcError::ShardQuarantined { shard: sid });
        }
        let (tx, rx) = mpsc::channel();
        let expected = parts.len();
        for (slot, (sid, local)) in parts.into_iter().enumerate() {
            let index = Arc::clone(&self.index);
            let job_ctx = ctx.clone();
            let plan = self.chaos.clone();
            let tx = tx.clone();
            let job_trace = trace.clone();
            if let Err(e) = self.pool.try_execute(move || {
                let mut tspan = job_trace.span_under(root_id, "svc.shard");
                tspan.annotate("shard", sid);
                let enter = tspan.enter();
                let outcome = shard_outcome(|| {
                    job_ctx.check()?;
                    chaos::inject(plan.as_deref(), points::SHARD_QUERY, Some(sid))?;
                    let shard = &index.shards()[sid];
                    Ok(shard
                        .wah()
                        .expect("checked above")
                        .evaluate_rows(&local)
                        .into_iter()
                        .map(|r| r + shard.start())
                        .collect::<Vec<usize>>())
                });
                drop(enter);
                annotate_shard_outcome(&mut tspan, &outcome);
                drop(tspan);
                let _ = tx.send((slot, sid, outcome));
            }) {
                ctx.cancel();
                obs::counter!("svc.shed").inc();
                return Err(e);
            }
        }
        drop(tx);
        drop(admit);
        let _merge = trace.span_under(root_id, "svc.merge");
        let mut merged: Vec<Option<Vec<usize>>> = (0..expected).map(|_| None).collect();
        for _ in 0..expected {
            match self.collect(&rx, ctx)? {
                (slot, _, ShardOutcome::Done(Ok(rows))) => merged[slot] = Some(rows),
                (_, _, ShardOutcome::Done(Err(e))) => return Err(self.abandon(ctx, e)),
                (_, sid, ShardOutcome::Panicked) => {
                    self.health.quarantine(sid);
                    return Err(self.abandon(ctx, SvcError::ShardQuarantined { shard: sid }));
                }
            }
        }
        Ok(merged.into_iter().flatten().flatten().collect())
    }

    /// Cell-subset retrieval (paper Figure 5) under the default
    /// deadline: one boolean per cell, in request order. Probes are
    /// batched per owning shard — one pool job per shard touched. The
    /// degradation marker is discarded; use
    /// [`Self::try_retrieve_cells`] to observe it.
    pub fn retrieve_cells(&self, cells: &[Cell]) -> Result<Vec<bool>, SvcError> {
        self.try_retrieve_cells(cells).map(Response::into_value)
    }

    /// Cell-subset retrieval reporting degradation: cells owned by a
    /// quarantined (or newly panicking) shard answer `true` — *maybe
    /// present*, the conservative AB answer — and the response's
    /// `degraded` marker names those shards.
    pub fn try_retrieve_cells(&self, cells: &[Cell]) -> Result<Response<Vec<bool>>, SvcError> {
        self.try_retrieve_cells_ctx(cells, &self.ctx_with_default())
    }

    /// [`Self::try_retrieve_cells`] under a caller-owned
    /// [`RequestCtx`] (deadline, cancellation, and optionally a
    /// caller-owned trace — see [`RequestCtx::traced`]).
    pub fn try_retrieve_cells_ctx(
        &self,
        cells: &[Cell],
        ctx: &RequestCtx,
    ) -> Result<Response<Vec<bool>>, SvcError> {
        self.traced_request("cells", ctx, |trace, root_id| {
            self.retrieve_cells_traced(cells, ctx, trace, root_id)
        })
    }

    fn retrieve_cells_traced(
        &self,
        cells: &[Cell],
        ctx: &RequestCtx,
        trace: &obs::TraceCtx,
        root_id: u64,
    ) -> Result<Response<Vec<bool>>, SvcError> {
        let mut admit = trace.span_under(root_id, "svc.admit");
        obs::histogram!("svc.batch.size").record(cells.len() as u64);
        let parts = partition_cells(&self.index, cells)?;
        if cells.is_empty() {
            return Ok(Response::healthy(Vec::new()));
        }
        ctx.check()?;
        obs::histogram!("svc.fanout").record(parts.len() as u64);
        admit.annotate("fanout", parts.len());
        admit.annotate("cells", cells.len());
        // Each part's cells go to its shard job; its positions stay
        // here, where its answers are written: the job's hits, or
        // `true` — maybe present — for a shard that cannot answer.
        let mut slot_positions: Vec<Vec<usize>> = Vec::with_capacity(parts.len());
        let mut answers = vec![false; cells.len()];
        let mut degraded = Vec::new();
        let (tx, rx) = mpsc::channel();
        let mut expected = 0usize;
        for (slot, part) in parts.into_iter().enumerate() {
            let sid = part.shard;
            slot_positions.push(part.positions);
            let local = part.cells;
            if self.health.is_quarantined(sid) {
                trace
                    .span_under(root_id, "svc.quarantined")
                    .annotate("shard", sid);
                for &pos in &slot_positions[slot] {
                    answers[pos] = true;
                }
                degraded.push(sid);
                continue;
            }
            if let Err(e) = chaos::inject(self.chaos.as_deref(), points::POOL_SUBMIT, Some(sid)) {
                ctx.cancel();
                obs::counter!("svc.shed").inc();
                return Err(e);
            }
            let index = Arc::clone(&self.index);
            let job_ctx = ctx.clone();
            let plan = self.chaos.clone();
            let kernel = self.kernel;
            let tx = tx.clone();
            let job_trace = trace.clone();
            if let Err(e) = self.pool.try_execute(move || {
                let mut tspan = job_trace.span_under(root_id, "svc.shard");
                tspan.annotate("shard", sid);
                let enter = tspan.enter();
                let outcome = shard_outcome(|| {
                    chaos::inject(plan.as_deref(), points::SHARD_QUERY, Some(sid))?;
                    let shard = &index.shards()[sid];
                    let mut hits = Vec::with_capacity(local.len());
                    for chunk in local.chunks(CHUNK_ROWS) {
                        job_ctx.check()?;
                        hits.extend(shard.index().retrieve_cells_with_opts(chunk, kernel));
                    }
                    Ok(hits)
                });
                drop(enter);
                annotate_shard_outcome(&mut tspan, &outcome);
                drop(tspan);
                let _ = tx.send((slot, sid, outcome));
            }) {
                ctx.cancel();
                obs::counter!("svc.shed").inc();
                return Err(e);
            }
            expected += 1;
        }
        drop(tx);
        drop(admit);
        let mut merge = trace.span_under(root_id, "svc.merge");
        for _ in 0..expected {
            match self.collect(&rx, ctx)? {
                (slot, _, ShardOutcome::Done(Ok(hits))) => {
                    for (&pos, hit) in slot_positions[slot].iter().zip(hits) {
                        answers[pos] = hit;
                    }
                }
                (_, _, ShardOutcome::Done(Err(e))) => return Err(self.abandon(ctx, e)),
                (slot, sid, ShardOutcome::Panicked) => {
                    self.health.quarantine(sid);
                    degraded.push(sid);
                    for &pos in &slot_positions[slot] {
                        answers[pos] = true;
                    }
                }
            }
        }
        if !degraded.is_empty() {
            merge.annotate("degraded_shards", degraded.len());
        }
        Ok(Response {
            value: answers,
            degraded: degraded_marker(degraded),
        })
    }

    /// A batch of rectangular queries under one deadline: all shard
    /// parts of all queries are grouped so each touched shard gets a
    /// single pool job. Returns one (globally sorted) row list per
    /// query, each bit-identical to running the query alone while
    /// every shard is healthy. The degradation marker is discarded;
    /// use [`Self::try_query_batch`] to observe it.
    pub fn query_batch(&self, queries: &[RectQuery]) -> Result<Vec<Vec<usize>>, SvcError> {
        self.try_query_batch(queries).map(Response::into_value)
    }

    /// Batched rectangular queries reporting degradation: quarantined
    /// (or newly panicking) shards contribute every covered row to
    /// each affected query, and the response's `degraded` marker names
    /// them.
    pub fn try_query_batch(
        &self,
        queries: &[RectQuery],
    ) -> Result<Response<Vec<Vec<usize>>>, SvcError> {
        self.try_query_batch_ctx(queries, &self.ctx_with_default())
    }

    /// [`Self::try_query_batch`] under a caller-owned [`RequestCtx`]
    /// (deadline, cancellation, and optionally a caller-owned trace —
    /// see [`RequestCtx::traced`]).
    pub fn try_query_batch_ctx(
        &self,
        queries: &[RectQuery],
        ctx: &RequestCtx,
    ) -> Result<Response<Vec<Vec<usize>>>, SvcError> {
        self.traced_request("batch", ctx, |trace, root_id| {
            self.query_batch_traced(queries, ctx, trace, root_id)
        })
    }

    fn query_batch_traced(
        &self,
        queries: &[RectQuery],
        ctx: &RequestCtx,
        trace: &obs::TraceCtx,
        root_id: u64,
    ) -> Result<Response<Vec<Vec<usize>>>, SvcError> {
        let mut admit = trace.span_under(root_id, "svc.admit");
        obs::histogram!("svc.batch.size").record(queries.len() as u64);
        for q in queries {
            self.index.validate_rect(q)?;
        }
        if queries.is_empty() {
            return Ok(Response::healthy(Vec::new()));
        }
        ctx.check()?;
        let groups = group_rects_by_shard(&self.index, queries);
        obs::histogram!("svc.fanout").record(groups.len() as u64);
        admit.annotate("fanout", groups.len());
        admit.annotate("queries", queries.len());
        // Remember each group's parts so a panicking shard's slices
        // can be re-answered conservatively after the fact.
        let group_parts: Vec<Vec<(usize, RectQuery)>> =
            groups.iter().map(|g| g.queries.clone()).collect();
        let mut per_query: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); queries.len()];
        let mut degraded = Vec::new();
        let conservative_group =
            |per_query: &mut Vec<Vec<(usize, Vec<usize>)>>, slot: usize, sid: usize| {
                let start = self.index.shards()[sid].start();
                for (qidx, local) in &group_parts[slot] {
                    per_query[*qidx].push((sid, conservative_rows(start, local)));
                }
            };
        let (tx, rx) = mpsc::channel();
        let mut expected = 0usize;
        for (slot, group) in groups.into_iter().enumerate() {
            let sid = group.shard;
            if self.health.is_quarantined(sid) {
                trace
                    .span_under(root_id, "svc.quarantined")
                    .annotate("shard", sid);
                conservative_group(&mut per_query, slot, sid);
                degraded.push(sid);
                continue;
            }
            if let Err(e) = chaos::inject(self.chaos.as_deref(), points::POOL_SUBMIT, Some(sid)) {
                ctx.cancel();
                obs::counter!("svc.shed").inc();
                return Err(e);
            }
            let index = Arc::clone(&self.index);
            let job_ctx = ctx.clone();
            let plan = self.chaos.clone();
            let kernel = self.kernel;
            let tx = tx.clone();
            let job_trace = trace.clone();
            if let Err(e) = self.pool.try_execute(move || {
                let mut tspan = job_trace.span_under(root_id, "svc.shard");
                tspan.annotate("shard", sid);
                let enter = tspan.enter();
                let outcome = shard_outcome(|| {
                    chaos::inject(plan.as_deref(), points::SHARD_QUERY, Some(sid))?;
                    let shard = &index.shards()[sid];
                    let mut out = Vec::with_capacity(group.queries.len());
                    for (qidx, local) in &group.queries {
                        out.push((*qidx, run_shard_chunked(shard, local, &job_ctx, kernel)?));
                    }
                    Ok(out)
                });
                drop(enter);
                annotate_shard_outcome(&mut tspan, &outcome);
                drop(tspan);
                let _ = tx.send((slot, sid, outcome));
            }) {
                ctx.cancel();
                obs::counter!("svc.shed").inc();
                return Err(e);
            }
            expected += 1;
        }
        drop(tx);
        drop(admit);
        let mut merge = trace.span_under(root_id, "svc.merge");
        // Parts arrive in shard-completion order; tag each with its
        // shard id and sort per query so the merge stays row-ordered.
        for _ in 0..expected {
            match self.collect(&rx, ctx)? {
                (_, sid, ShardOutcome::Done(Ok(parts))) => {
                    for (qidx, rows) in parts {
                        per_query[qidx].push((sid, rows));
                    }
                }
                (_, _, ShardOutcome::Done(Err(e))) => return Err(self.abandon(ctx, e)),
                (slot, sid, ShardOutcome::Panicked) => {
                    self.health.quarantine(sid);
                    degraded.push(sid);
                    conservative_group(&mut per_query, slot, sid);
                }
            }
        }
        if !degraded.is_empty() {
            merge.annotate("degraded_shards", degraded.len());
        }
        Ok(Response {
            value: per_query
                .into_iter()
                .map(|mut parts| {
                    parts.sort_unstable_by_key(|(sid, _)| *sid);
                    parts.into_iter().flat_map(|(_, rows)| rows).collect()
                })
                .collect(),
            degraded: degraded_marker(degraded),
        })
    }

    /// Waits for one shard message, charging the wait against the
    /// request's deadline. A timeout cancels the remaining shard work.
    fn collect<M>(&self, rx: &mpsc::Receiver<M>, ctx: &RequestCtx) -> Result<M, SvcError> {
        let received = match ctx.deadline.remaining() {
            None => rx.recv().map_err(|_| SvcError::Shutdown),
            Some(budget) => rx.recv_timeout(budget).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => SvcError::DeadlineExceeded,
                mpsc::RecvTimeoutError::Disconnected => SvcError::Shutdown,
            }),
        };
        received.map_err(|e| self.abandon(ctx, e))
    }

    /// Abandons a request: cancels in-flight shard work (partial
    /// results must be discarded — a partial merge would break the no
    /// false-negative contract) and counts deadline misses.
    fn abandon(&self, ctx: &RequestCtx, e: SvcError) -> SvcError {
        ctx.cancel();
        if e == SvcError::DeadlineExceeded {
            obs::counter!("svc.deadline_missed").inc();
        }
        e
    }
}

/// Runs one shard's part of a rectangular query in [`CHUNK_ROWS`]
/// chunks on the configured probe kernel, translating matches back to
/// global row ids.
///
/// Hierarchical pruning (when enabled and the shard carries a
/// pyramid) runs over the *whole* shard part first — pruning inside a
/// 512-row chunk would never see a span-sized region — and only the
/// surviving row intervals are chunked. The per-chunk kernel runs
/// with hier forced off so the core path neither re-prunes nor
/// double-counts the `hier.*` stats emitted here.
fn run_shard_chunked(
    shard: &Shard,
    local: &RectQuery,
    ctx: &RequestCtx,
    kernel: KernelOpts,
) -> Result<Vec<usize>, SvcError> {
    let flat = kernel.with_hier(HierMode::Off);
    let mut out = Vec::new();
    if kernel.hier != HierMode::Off && !local.ranges.is_empty() && local.row_lo <= local.row_hi {
        if let Some(hier) = shard.index().hier() {
            if kernel.hier == HierMode::Force || ab::plan_descent(hier, local) {
                let prune = hier.prune(local);
                obs::counter!("hier.regions_pruned").add(prune.regions_pruned);
                obs::counter!("hier.rows_skipped").add(prune.rows_skipped);
                for (lo, hi) in prune.intervals {
                    let part = RectQuery::new(local.ranges.clone(), lo, hi);
                    run_shard_chunked_flat(shard, &part, ctx, flat, &mut out)?;
                }
                return Ok(out);
            }
        }
    }
    run_shard_chunked_flat(shard, local, ctx, flat, &mut out)?;
    Ok(out)
}

/// The chunked scan itself: [`CHUNK_ROWS`] rows per kernel call with
/// a [`RequestCtx::check`] between chunks.
fn run_shard_chunked_flat(
    shard: &Shard,
    local: &RectQuery,
    ctx: &RequestCtx,
    kernel: KernelOpts,
    out: &mut Vec<usize>,
) -> Result<(), SvcError> {
    let mut lo = local.row_lo;
    loop {
        ctx.check()?;
        let hi = local.row_hi.min(lo + CHUNK_ROWS - 1);
        let chunk = RectQuery::new(local.ranges.clone(), lo, hi);
        out.extend(
            shard
                .index()
                .try_execute_rect_with_opts(&chunk, kernel)?
                .into_iter()
                .map(|r| r + shard.start()),
        );
        if hi == local.row_hi {
            return Ok(());
        }
        lo = hi + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ab::{Level, QueryError};
    use bitmap::{AttrRange, BinnedColumn};

    fn table(n: usize) -> BinnedTable {
        BinnedTable::new(vec![
            BinnedColumn::new(
                "a",
                (0..n)
                    .map(|i| (hashkit::splitmix64(i as u64) % 6) as u32)
                    .collect(),
                6,
            ),
            BinnedColumn::new(
                "b",
                (0..n)
                    .map(|i| (hashkit::splitmix64(!(i as u64)) % 4) as u32)
                    .collect(),
                4,
            ),
        ])
    }

    fn service(n: usize, cfg: SvcConfig) -> Service {
        Service::build(
            &table(n),
            &AbConfig::new(Level::PerAttribute).with_alpha(8),
            &cfg,
        )
    }

    fn small_cfg() -> SvcConfig {
        SvcConfig {
            threads: 2,
            shards: 4,
            ..SvcConfig::default()
        }
    }

    #[test]
    fn concurrent_result_matches_sequential_reference() {
        let svc = service(500, small_cfg());
        for (lo, hi) in [(0, 499), (13, 400), (250, 260)] {
            let q = RectQuery::new(
                vec![AttrRange::new(0, 1, 4), AttrRange::new(1, 0, 2)],
                lo,
                hi,
            );
            assert_eq!(
                svc.query_rect(&q).unwrap(),
                svc.index().execute_rect_sequential(&q).unwrap()
            );
        }
    }

    #[test]
    fn invalid_queries_get_typed_errors() {
        let svc = service(100, small_cfg());
        let bad_row = RectQuery::new(vec![], 0, 100);
        assert!(matches!(
            svc.query_rect(&bad_row),
            Err(SvcError::Query(QueryError::RowOutOfRange { .. }))
        ));
        let bad_bin = RectQuery::new(vec![AttrRange::new(1, 0, 9)], 0, 50);
        assert!(matches!(
            svc.query_rect(&bad_bin),
            Err(SvcError::Query(QueryError::BinOutOfRange { .. }))
        ));
    }

    #[test]
    fn expired_deadline_rejects_before_dispatch() {
        let svc = service(200, small_cfg());
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 5)], 0, 199);
        assert_eq!(
            svc.query_rect_within(&q, Duration::ZERO),
            Err(SvcError::DeadlineExceeded)
        );
    }

    #[test]
    fn cancelled_context_stops_the_request() {
        let svc = service(200, small_cfg());
        let ctx = RequestCtx::new(Deadline::none());
        ctx.cancel();
        let q = RectQuery::new(vec![], 0, 199);
        assert_eq!(svc.query_rect_ctx(&q, &ctx), Err(SvcError::Cancelled));
    }

    #[test]
    fn retrieve_cells_answers_in_request_order() {
        let n = 300;
        let t = table(n);
        let svc = Service::build(
            &t,
            &AbConfig::new(Level::PerAttribute).with_alpha(8),
            &small_cfg(),
        );
        // Query every row's true bin in attribute 0, shuffled across
        // shards: all must come back true (no false negatives).
        let cells: Vec<Cell> = (0..n)
            .map(|i| (i * 7919) % n) // visit rows out of order
            .map(|r| Cell::new(r, 0, t.column(0).bins[r]))
            .collect();
        let got = svc.retrieve_cells(&cells).unwrap();
        assert_eq!(got.len(), n);
        assert!(got.iter().all(|&b| b), "false negative via service");
    }

    #[test]
    fn retrieve_cells_validates_input() {
        let svc = service(50, small_cfg());
        assert!(matches!(
            svc.retrieve_cells(&[Cell::new(50, 0, 0)]),
            Err(SvcError::Query(QueryError::RowOutOfRange { .. }))
        ));
        assert!(matches!(
            svc.retrieve_cells(&[Cell::new(0, 7, 0)]),
            Err(SvcError::Query(QueryError::BinOutOfRange {
                attribute: 7,
                ..
            }))
        ));
        assert_eq!(svc.retrieve_cells(&[]).unwrap(), Vec::<bool>::new());
    }

    #[test]
    fn batch_matches_individual_queries() {
        let svc = service(400, small_cfg());
        let qs = vec![
            RectQuery::new(vec![AttrRange::new(0, 0, 2)], 0, 399),
            RectQuery::new(vec![AttrRange::new(1, 1, 3)], 100, 250),
            RectQuery::new(vec![], 395, 399),
        ];
        let batched = svc.query_batch(&qs).unwrap();
        assert_eq!(batched.len(), 3);
        for (q, rows) in qs.iter().zip(&batched) {
            assert_eq!(rows, &svc.query_rect(q).unwrap());
        }
        assert!(svc.query_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn wah_path_gives_exact_subset_of_ab_answer() {
        let t = table(300);
        let cfg = SvcConfig {
            with_wah: true,
            ..small_cfg()
        };
        let svc = Service::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(8), &cfg);
        let q = RectQuery::new(vec![AttrRange::new(0, 2, 4)], 10, 290);
        let exact = svc.query_rect_wah(&q).unwrap();
        let approx = svc.query_rect(&q).unwrap();
        for r in &exact {
            assert!(approx.contains(r), "AB missed exact row {r}");
        }
        let reference = bitmap::BitmapIndex::build(&t, bitmap::Encoding::Equality);
        assert_eq!(exact, reference.evaluate_rows(&q));
    }

    #[test]
    fn wah_unavailable_without_build_flag() {
        let svc = service(100, small_cfg());
        let q = RectQuery::new(vec![], 0, 99);
        assert_eq!(svc.query_rect_wah(&q), Err(SvcError::WahUnavailable));
    }

    #[test]
    fn config_resolution_clamps_shards() {
        let cfg = SvcConfig {
            threads: 4,
            shards: 0,
            ..SvcConfig::default()
        };
        assert_eq!(cfg.resolved_threads(), 4);
        assert_eq!(cfg.resolved_shards(1000), 4);
        assert_eq!(cfg.resolved_shards(2), 2); // clamped to rows
        let auto = SvcConfig::default();
        assert!(auto.resolved_threads() >= 1);
    }

    #[cfg(not(feature = "chaos-off"))]
    #[test]
    fn panicking_shard_degrades_conservatively_not_fatally() {
        use crate::chaos::{Fault, FaultPlan, FaultRule};
        let plan = Arc::new(
            FaultPlan::new(11).with_rule(
                FaultRule::new(points::SHARD_QUERY, Fault::Panic)
                    .on_shard(1)
                    .max_fires(1),
            ),
        );
        let svc = service(400, small_cfg()).with_fault_plan(Arc::clone(&plan));
        let q = RectQuery::new(vec![AttrRange::new(0, 1, 4)], 0, 399);
        let healthy_rows = svc.index().execute_rect_sequential(&q).unwrap();

        let r = svc.try_query_rect(&q).unwrap();
        assert_eq!(
            r.degraded.as_ref().map(|d| d.shards.clone()),
            Some(vec![1]),
            "shard 1's panic must surface as a Degraded marker"
        );
        // No false negatives: every healthy answer survives, and the
        // quarantined shard's whole slice (rows 100..200 of 4×100-row
        // shards) is present.
        for row in &healthy_rows {
            assert!(r.value.contains(row), "degraded answer lost row {row}");
        }
        let s1 = &svc.index().shards()[1];
        for row in s1.start()..s1.end() {
            assert!(r.value.contains(&row));
        }
        assert!(r.value.windows(2).all(|w| w[0] < w[1]), "merge unsorted");

        // The shard stays quarantined: the next request degrades up
        // front without firing the (spent) fault again.
        assert!(svc.health().is_quarantined(1));
        let again = svc.try_query_rect(&q).unwrap();
        assert!(again.is_degraded());
        assert_eq!(plan.fires(points::SHARD_QUERY), 1);

        // Clearing the quarantine restores bit-identical answers.
        svc.health().clear(1);
        assert_eq!(svc.query_rect(&q).unwrap(), healthy_rows);
    }

    #[cfg(not(feature = "chaos-off"))]
    #[test]
    fn quarantined_cells_answer_maybe_present() {
        use crate::chaos::{Fault, FaultPlan, FaultRule};
        let plan = Arc::new(
            FaultPlan::new(3).with_rule(
                FaultRule::new(points::SHARD_QUERY, Fault::Panic)
                    .on_shard(0)
                    .max_fires(1),
            ),
        );
        let n = 200;
        let t = table(n);
        let svc = Service::build(
            &t,
            &AbConfig::new(Level::PerAttribute).with_alpha(8),
            &small_cfg(),
        )
        .with_fault_plan(plan);
        let cells: Vec<Cell> = (0..n)
            .map(|r| Cell::new(r, 0, t.column(0).bins[r]))
            .collect();
        let r = svc.try_retrieve_cells(&cells).unwrap();
        assert_eq!(r.degraded.as_ref().map(|d| d.shards.clone()), Some(vec![0]));
        assert!(
            r.value.iter().all(|&b| b),
            "true cells must stay true under degradation"
        );
        // Probing a cell that is certainly absent in the quarantined
        // shard still answers true — maybe present, never a false
        // negative elsewhere.
        let absent = Cell::new(0, 0, (t.column(0).bins[0] + 1) % 6);
        let r2 = svc.try_retrieve_cells(&[absent]).unwrap();
        assert!(r2.value[0] && r2.is_degraded());
    }

    /// 600 cells whose rows hop between the three shards of a 3-shard
    /// service in no monotone order (a mixer picks the row), half of
    /// them naming the row's true bin; the answer the shards' own
    /// indexes give for each, in request order; and the shard that
    /// owns each position.
    fn interleaved_cells(svc: &Service, t: &BinnedTable) -> (Vec<Cell>, Vec<bool>, Vec<usize>) {
        let n = t.num_rows();
        let cells: Vec<Cell> = (0..600u64)
            .map(|i| {
                let h = hashkit::splitmix64(i ^ 0x0DD);
                let row = (h % n as u64) as usize;
                let attr = (i % 2) as usize;
                let bin = if i % 2 == 0 {
                    t.column(attr).bins[row]
                } else {
                    ((h >> 32) % u64::from(t.column(attr).cardinality)) as u32
                };
                Cell::new(row, attr, bin)
            })
            .collect();
        let index = svc.index();
        let owners: Vec<usize> = cells.iter().map(|c| index.shard_of_row(c.row)).collect();
        let reference = cells
            .iter()
            .zip(&owners)
            .map(|(c, &sid)| {
                let shard = &index.shards()[sid];
                shard
                    .index()
                    .test_cell(c.row - shard.start(), c.attribute, c.bin)
            })
            .collect();
        // Non-monotone: the owner sequence goes down as well as up,
        // and every shard owns a fair share.
        assert!(owners.windows(2).any(|w| w[0] > w[1]));
        for sid in 0..3 {
            assert!(owners.iter().filter(|&&o| o == sid).count() > 100);
        }
        (cells, reference, owners)
    }

    fn three_shards() -> SvcConfig {
        SvcConfig {
            threads: 2,
            shards: 3,
            ..SvcConfig::default()
        }
    }

    #[test]
    fn interleaved_cells_come_back_in_request_order() {
        let t = table(900);
        let svc = Service::build(
            &t,
            &AbConfig::new(Level::PerAttribute).with_alpha(8),
            &three_shards(),
        );
        let (cells, reference, _) = interleaved_cells(&svc, &t);
        assert!(reference.iter().any(|&b| !b), "all-true cannot show order");
        let r = svc.try_retrieve_cells(&cells).unwrap();
        assert!(!r.is_degraded());
        assert_eq!(r.value, reference);
    }

    /// Exactly the failed shard's positions turn conservative.
    fn assert_only_shard_degraded(
        r: &Response<Vec<bool>>,
        reference: &[bool],
        owners: &[usize],
        failed: usize,
    ) {
        assert_eq!(
            r.degraded.as_ref().map(|d| d.shards.clone()),
            Some(vec![failed])
        );
        for (pos, (&got, &want)) in r.value.iter().zip(reference).enumerate() {
            if owners[pos] == failed {
                assert!(got, "position {pos} of the failed shard must say maybe");
            } else {
                assert_eq!(got, want, "position {pos} of a healthy shard changed");
            }
        }
    }

    #[test]
    fn quarantined_shard_answers_true_at_exactly_its_positions() {
        let t = table(900);
        let svc = Service::build(
            &t,
            &AbConfig::new(Level::PerAttribute).with_alpha(8),
            &three_shards(),
        );
        let (cells, reference, owners) = interleaved_cells(&svc, &t);
        svc.health().quarantine(1);
        let r = svc.try_retrieve_cells(&cells).unwrap();
        assert_only_shard_degraded(&r, &reference, &owners, 1);
        svc.health().clear(1);
        assert_eq!(svc.retrieve_cells(&cells).unwrap(), reference);
    }

    #[cfg(not(feature = "chaos-off"))]
    #[test]
    fn shard_panicking_mid_request_answers_true_at_exactly_its_positions() {
        use crate::chaos::{Fault, FaultPlan, FaultRule};
        let plan = Arc::new(
            FaultPlan::new(17).with_rule(
                FaultRule::new(points::SHARD_QUERY, Fault::Panic)
                    .on_shard(2)
                    .max_fires(1),
            ),
        );
        let t = table(900);
        let svc = Service::build(
            &t,
            &AbConfig::new(Level::PerAttribute).with_alpha(8),
            &three_shards(),
        )
        .with_fault_plan(Arc::clone(&plan));
        let (cells, reference, owners) = interleaved_cells(&svc, &t);
        let r = svc.try_retrieve_cells(&cells).unwrap();
        assert_eq!(plan.fires(points::SHARD_QUERY), 1);
        assert_only_shard_degraded(&r, &reference, &owners, 2);
        // The panic quarantined the shard: the next request degrades
        // up front, with the same answer and no second fault.
        assert!(svc.health().is_quarantined(2));
        let again = svc.try_retrieve_cells(&cells).unwrap();
        assert_only_shard_degraded(&again, &reference, &owners, 2);
        assert_eq!(plan.fires(points::SHARD_QUERY), 1);
    }

    #[cfg(not(feature = "chaos-off"))]
    #[test]
    fn wah_path_fails_typed_on_quarantine() {
        use crate::chaos::{Fault, FaultPlan, FaultRule};
        let plan = Arc::new(
            FaultPlan::new(5).with_rule(
                FaultRule::new(points::SHARD_QUERY, Fault::Panic)
                    .on_shard(2)
                    .max_fires(1),
            ),
        );
        let cfg = SvcConfig {
            with_wah: true,
            ..small_cfg()
        };
        let t = table(200);
        let svc = Service::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(8), &cfg)
            .with_fault_plan(plan);
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 3)], 0, 199);
        assert_eq!(
            svc.query_rect_wah(&q),
            Err(SvcError::ShardQuarantined { shard: 2 })
        );
        // Approximate path still serves (degraded), exact path keeps
        // refusing until the shard is cleared.
        assert!(svc.try_query_rect(&q).unwrap().is_degraded());
        assert_eq!(
            svc.query_rect_wah(&q),
            Err(SvcError::ShardQuarantined { shard: 2 })
        );
        svc.health().clear(2);
        assert!(svc.query_rect_wah(&q).is_ok());
    }

    #[cfg(not(feature = "chaos-off"))]
    #[test]
    fn injected_overload_at_submit_sheds_the_request() {
        use crate::chaos::{Fault, FaultPlan, FaultRule};
        let plan = Arc::new(
            FaultPlan::new(9)
                .with_rule(FaultRule::new(points::POOL_SUBMIT, Fault::Overloaded).max_fires(1)),
        );
        let svc = service(100, small_cfg()).with_fault_plan(plan);
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 3)], 0, 99);
        assert!(matches!(
            svc.query_rect(&q),
            Err(SvcError::Overloaded { .. })
        ));
        // One-shot fault: the next request goes through healthily.
        let r = svc.try_query_rect(&q).unwrap();
        assert!(!r.is_degraded());
    }

    #[test]
    fn hier_service_matches_flat_service_and_prunes() {
        use ab::{HierLevelSpec, KernelKind};
        // Clustered single-attribute table: each 512-row segment holds
        // one bin, so whole 64-row spans miss most bins. α=32 keeps
        // the base AB clean enough for coarse misses to be definite.
        let n = 4096;
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "v",
            (0..n).map(|i| (i / 512) as u32).collect(),
            8,
        )]);
        let ab = AbConfig::new(Level::PerAttribute).with_alpha(32);
        let flat = Service::build(&t, &ab, &small_cfg());
        for kernel in [KernelKind::Scalar, KernelKind::Batched, KernelKind::Simd] {
            let cfg = SvcConfig {
                kernel,
                hier: HierMode::Force,
                hier_config: HierConfig {
                    levels: vec![HierLevelSpec {
                        row_span: 64,
                        bin_group: 2,
                    }],
                },
                ..small_cfg()
            };
            let hier = Service::build(&t, &ab, &cfg);
            assert!(hier
                .index()
                .shards()
                .iter()
                .all(|s| s.index().hier().is_some()));
            #[cfg(not(feature = "obs-off"))]
            let pruned_before = obs::counter!("hier.regions_pruned").get();
            #[cfg(not(feature = "obs-off"))]
            let skipped_before = obs::counter!("hier.rows_skipped").get();
            for q in [
                RectQuery::new(vec![AttrRange::new(0, 2, 2)], 0, n - 1),
                RectQuery::new(vec![AttrRange::new(0, 0, 1)], 100, 3000),
                RectQuery::new(vec![AttrRange::new(0, 7, 7)], 0, 511),
                RectQuery::new(vec![], 0, n - 1),
            ] {
                assert_eq!(
                    hier.query_rect(&q).unwrap(),
                    flat.query_rect(&q).unwrap(),
                    "hier and flat services must answer bit-identically"
                );
            }
            // Counter mutations compile to no-ops under obs-off; the
            // bit-identity loop above is the load-bearing assertion.
            #[cfg(not(feature = "obs-off"))]
            {
                assert!(
                    obs::counter!("hier.regions_pruned").get() > pruned_before,
                    "single-bin rects over clustered data must prune regions"
                );
                assert!(obs::counter!("hier.rows_skipped").get() > skipped_before);
            }
        }
    }

    #[test]
    fn from_index_attaches_pyramid_when_hier_enabled() {
        let t = table(120);
        let idx = crate::ShardedIndex::build(
            &t,
            &AbConfig::new(Level::PerAttribute).with_alpha(8),
            3,
            false,
        );
        let bytes = idx.to_bytes();
        // The serialized index carries no pyramid; a hier-enabled
        // service rebuilds one per shard at load time.
        let cfg = SvcConfig {
            hier: HierMode::Auto,
            hier_config: HierConfig {
                levels: vec![ab::HierLevelSpec {
                    row_span: 8,
                    bin_group: 2,
                }],
            },
            ..small_cfg()
        };
        let svc = Service::from_index(crate::ShardedIndex::from_bytes(&bytes).unwrap(), &cfg);
        assert!(svc
            .index()
            .shards()
            .iter()
            .all(|s| s.index().hier().is_some()));
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 3)], 0, 119);
        assert_eq!(
            svc.query_rect(&q).unwrap(),
            idx.execute_rect_sequential(&q).unwrap()
        );
    }

    #[test]
    fn from_index_serves_deserialized_shards() {
        let t = table(120);
        let idx = crate::ShardedIndex::build(
            &t,
            &AbConfig::new(Level::PerAttribute).with_alpha(8),
            3,
            false,
        );
        let bytes = idx.to_bytes();
        let svc = Service::from_index(
            crate::ShardedIndex::from_bytes(&bytes).unwrap(),
            &small_cfg(),
        );
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 3)], 0, 119);
        assert_eq!(
            svc.query_rect(&q).unwrap(),
            idx.execute_rect_sequential(&q).unwrap()
        );
    }
}
