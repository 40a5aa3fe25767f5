//! The concurrent query service.
//!
//! A [`Service`] owns a [`ShardedIndex`] (behind an `Arc`) and a
//! [`WorkerPool`], and every request kind — a rectangle, a batch of
//! rectangles, a cell list — takes the **one request path**:
//!
//! 1. **partition** — the request is validated once against the global
//!    schema and split into per-shard parts (see [`crate::batch`]);
//! 2. **fan out** — one pool job per shard touched. Admission control
//!    happens at submission: a full pool queue sheds the whole request
//!    with [`SvcError::Overloaded`]. Shard jobs work in **stages** of
//!    bounded work — [`CHUNK_ROWS`] rows (or cells) where the AB is
//!    hash-probed, one Roaring container of rows where the shard's
//!    exact tier answers alone ([`ab::AbIndex::stages`]) — calling
//!    [`RequestCtx::check`] before each so deadlines and cancellation
//!    take effect mid-query;
//! 3. **collect** — the collector waits with the request's remaining
//!    deadline budget; a miss cancels the in-flight shard work and
//!    discards partial results (a partial merge would break the AB's
//!    no-false-negative contract);
//! 4. **merge** — each shard's output is placed into the answer.
//!
//! A kind supplies only what differs — how to partition, the shard job
//! body, where a shard's output goes, the conservative answer for a
//! shard that has none — and a rectangle is served as a batch of one.
//!
//! ## Graceful degradation
//!
//! A shard job that **panics** (a bug, bit-rot, or an injected
//! [`crate::chaos`] fault) does not fail the request: the shard is
//! quarantined in a [`ShardHealth`] ledger and its slice of the
//! request is answered *conservatively* — every row it covers is
//! reported as a candidate, every cell it owns as *maybe present*. The
//! AB's contract is no false negatives with a controlled
//! false-positive rate, so a conservative slice (FP rate 1.0 for those
//! rows) stays inside the contract; the response carries a typed
//! [`crate::Degraded`] marker naming the shards involved so callers
//! can decide whether the lost precision matters. Later requests skip
//! quarantined shards up front instead of panicking again.

use crate::batch::{group_rects_by_shard, partition_cells, Part};
use crate::chaos::{self, points};
use crate::deadline::{Deadline, RequestCtx};
use crate::degrade::{degraded_marker, Degraded, Response, ShardHealth};
use crate::error::SvcError;
use crate::pool::WorkerPool;
use crate::shard::{Shard, ShardedIndex};
use ab::{
    AbConfig, Cell, HierConfig, HierMode, HybridConfig, HybridMode, KernelKind, KernelOpts,
    QueryError,
};
use bitmap::{BinnedTable, RectQuery};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// What a shard job **hash-probes** between two
/// [`RequestCtx::check`] calls: the cells of one slice of a cell job,
/// and the rows of one stage of a rect job wherever any bin of any
/// range is answered by the AB — ≈ 0.2–0.4 ms of probing, so
/// cancellation takes effect within that and the atomic load is noise.
/// It does not govern rect stages the shard's exact tier answers
/// alone: those are one 65 536-row Roaring container each (≈ 10–20 µs
/// of mask work; [`ab::AbIndex::stages`] cuts both kinds).
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
    /// attaches a [`ab::HierAb`] pyramid to every shard at build time
    /// (loaded segments serve the pyramids they carry); shard jobs
    /// then prune whole row spans before the staged kernel runs.
    /// Answers lie between the truth and the flat scan's.
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

/// Runs a shard job body. `None` means the job panicked: the collector
/// hears about it — and quarantines the shard, answering its slice
/// conservatively — instead of waiting on a message that will never
/// arrive.
fn shard_outcome<T>(body: impl FnOnce() -> Result<T, SvcError>) -> Option<Result<T, SvcError>> {
    catch_unwind(AssertUnwindSafe(body)).ok()
}

/// Stamps a span with how its work ended (`None`: it panicked).
fn annotate_outcome<T>(span: &mut obs::TraceSpan, outcome: Option<&Result<T, SvcError>>) {
    if !span.enabled() {
        return;
    }
    match outcome {
        Some(Ok(_)) => span.annotate("outcome", "ok"),
        Some(Err(e)) => {
            span.annotate("outcome", "error");
            span.annotate("error", error_code(e));
        }
        None => span.annotate("outcome", "panicked"),
    }
}

/// Where a request's spans hang: its trace and `svc.request` root.
struct Spans {
    trace: obs::TraceCtx,
    root_id: u64,
}

impl Spans {
    /// A span directly under the request's root.
    fn span(&self, name: &'static str) -> obs::TraceSpan {
        self.trace.span_under(self.root_id, name)
    }
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

/// Short stable code for trace annotations.
fn error_code(e: &SvcError) -> &'static str {
    match e {
        SvcError::Overloaded { .. } => "overloaded",
        SvcError::DeadlineExceeded => "deadline_exceeded",
        SvcError::Cancelled => "cancelled",
        SvcError::Query(_) => "invalid_query",
        SvcError::Shutdown => "shutdown",
    }
}

impl Service {
    /// Builds the sharded index — with [`ShardedIndex::build`], every
    /// shard on its own set-up thread, then the tiers `cfg` asks for the
    /// same way — and starts the workers.
    pub fn build(table: &BinnedTable, ab: &AbConfig, cfg: &SvcConfig) -> Self {
        let shards = cfg.resolved_shards(table.num_rows());
        let mut index = ShardedIndex::build(table, ab, shards, false);
        if cfg.hier != HierMode::Off {
            index.ensure_hier(&cfg.hier_config);
        }
        if cfg.hybrid != HybridMode::Off {
            index.ensure_hybrid(table, &cfg.hybrid_config);
        }
        let pool = WorkerPool::new(cfg.resolved_threads(), cfg.queue_capacity);
        Self::assemble(index, pool, cfg)
    }

    /// Wraps an already-built index (e.g. one loaded with
    /// [`ShardedIndex::from_bytes`]) and serves the tiers it holds: it
    /// builds none, since both are built from the source table
    /// (`Service::build`, or `abq build --hier --hybrid`).
    /// `cfg.shards` and `cfg.hier_config` are ignored.
    pub fn from_index(index: ShardedIndex, cfg: &SvcConfig) -> Self {
        if cfg.hybrid != HybridMode::Off {
            // Replay the loaded tiers' split decisions into the planner
            // counters so `/metrics` reports the exact/ab split even
            // though no build ran in-process.
            index.record_hybrid_split_counters();
        }
        let pool = WorkerPool::new(cfg.resolved_threads(), cfg.queue_capacity);
        Self::assemble(index, pool, cfg)
    }

    /// The constructor tail [`Self::build`] and [`Self::from_index`]
    /// share: a finished index, a running pool, and the rest of `cfg`.
    fn assemble(index: ShardedIndex, pool: WorkerPool, cfg: &SvcConfig) -> Self {
        Service {
            health: Arc::new(ShardHealth::new(index.num_shards())),
            index: Arc::new(index),
            pool,
            default_deadline: cfg.default_deadline,
            chaos: None,
            kernel: KernelOpts::new(KernelKind::Batched)
                .with_hier(cfg.hier)
                .with_hybrid(cfg.hybrid),
            trace_requests: cfg.trace_requests,
            slow_query: cfg.slow_query,
        }
    }

    /// Attaches a fault plan driving this service's injection points
    /// ([`points::POOL_SUBMIT`], [`points::SHARD_QUERY`],
    /// [`points::SHARD_STAGE`]) — tests and chaos drills only.
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

    /// The full kernel options: the batched engine plus the tier
    /// policies.
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
        let deadline = self
            .default_deadline
            .map_or(Deadline::none(), Deadline::within);
        RequestCtx::new(deadline)
    }

    /// Wraps one request: opens its `svc.request` root span (on the
    /// caller's trace if the ctx carries one, on a fresh service-owned
    /// trace otherwise), annotates the outcome, records the latency
    /// into the kind's `svc.latency_us.<kind>` sketch (accurate
    /// p50/p95/p99 where the pow2 `svc.request_us` buckets are ~2×
    /// wide), and — for service-owned traces — finishes the trace into
    /// the global flight recorder.
    fn traced_request<T>(
        &self,
        (kind, latency_us): (&'static str, &obs::QuantileSketch),
        ctx: &RequestCtx,
        run: impl FnOnce(&Spans) -> Result<T, SvcError>,
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
        let spans = Spans { trace, root_id };
        let result = run(&spans);
        annotate_outcome(&mut root, Some(&result));
        drop(root);
        latency_us.record(start.elapsed().as_micros() as u64);
        if owned {
            self.finish_trace(&spans.trace);
        }
        result
    }

    /// Finishes a trace and files it in the global flight recorder
    /// ([`obs::recorder`]), pinned as a slow query when it crossed
    /// [`SvcConfig::slow_query`]. The service calls this for the traces
    /// it owns; the owner of a **caller-owned** trace (see
    /// [`RequestCtx::traced`]) calls it once, after the last request
    /// recorded into it — each request appears as its own
    /// `svc.request` span.
    pub fn finish_trace(&self, trace: &obs::TraceCtx) {
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

    /// Rectangular AB query (paper Figure 7) under the service's
    /// default deadline: globally sorted row ids, bit-identical to
    /// [`ShardedIndex::execute_rect_sequential`] while every shard is
    /// healthy, together with the answer's [`crate::Degraded`] status.
    pub fn try_query_rect(&self, query: &RectQuery) -> Result<Response<Vec<usize>>, SvcError> {
        self.try_query_rect_ctx(query, &self.ctx_with_default())
    }

    /// [`Self::try_query_rect`] under a caller-owned [`RequestCtx`]
    /// (deadline, cancellation — the caller keeps a clone and may
    /// cancel mid-flight — and optionally a caller-owned trace, see
    /// [`RequestCtx::traced`]). Quarantined (or newly panicking) shards
    /// contribute every row of their slice as a candidate instead of
    /// failing the request, and the response's `degraded` marker names
    /// them.
    pub fn try_query_rect_ctx(
        &self,
        query: &RectQuery,
        ctx: &RequestCtx,
    ) -> Result<Response<Vec<usize>>, SvcError> {
        let kind = ("rect", obs::sketch!("svc.latency_us.rect"));
        let Response { value, degraded } = self.rects(kind, std::slice::from_ref(query), ctx)?;
        let value = value.into_iter().next().unwrap_or_default();
        Ok(Response { value, degraded })
    }

    /// Cell-subset retrieval (paper Figure 5) under the default
    /// deadline: one boolean per cell, in request order. Probes are
    /// batched per owning shard — one pool job per shard touched.
    /// Cells owned by a quarantined (or newly panicking) shard answer
    /// `true` — *maybe present*, the conservative AB answer — and the
    /// response's `degraded` marker names those shards.
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
        let kind = ("cells", obs::sketch!("svc.latency_us.cells"));
        self.traced_request(kind, ctx, |spans| {
            if cells.is_empty() {
                return Ok(Response::healthy(Vec::new()));
            }
            let mut answers = vec![false; cells.len()];
            // A part's positions say where its answers go: the job's
            // hits, or `true` — maybe present — for a shard that has
            // none.
            let place = |_, positions: Vec<usize>, hits: Option<Vec<bool>>| {
                let hits = hits.unwrap_or_else(|| vec![true; positions.len()]);
                for (pos, hit) in positions.into_iter().zip(hits) {
                    answers[pos] = hit;
                }
            };
            let partition = || partition_cells(&self.index, cells);
            let (degraded, _merge) =
                self.fan_out(ctx, spans, cells.len(), partition, run_shard_cells, place)?;
            Ok(Response {
                value: answers,
                degraded,
            })
        })
    }

    /// A batch of rectangular queries under the caller's
    /// [`RequestCtx`] (deadline, cancellation, and optionally a
    /// caller-owned trace — see [`RequestCtx::traced`]): all shard
    /// parts of all queries are grouped so each touched shard gets a
    /// single pool job. Returns one (globally sorted) row list per
    /// query, each bit-identical to running the query alone while every
    /// shard is healthy. Quarantined (or newly panicking) shards
    /// contribute every covered row to each affected query, and the
    /// response's `degraded` marker names them.
    pub fn try_query_batch_ctx(
        &self,
        queries: &[RectQuery],
        ctx: &RequestCtx,
    ) -> Result<Response<Vec<Vec<usize>>>, SvcError> {
        self.rects(
            ("batch", obs::sketch!("svc.latency_us.batch")),
            queries,
            ctx,
        )
    }

    /// The rect kinds: `queries` is the batch, or the one rectangle of
    /// a `rect` request.
    fn rects(
        &self,
        kind: (&'static str, &obs::QuantileSketch),
        queries: &[RectQuery],
        ctx: &RequestCtx,
    ) -> Result<Response<Vec<Vec<usize>>>, SvcError> {
        self.traced_request(kind, ctx, |spans| {
            if queries.is_empty() {
                return Ok(Response::healthy(Vec::new()));
            }
            // Parts arrive in shard-completion order; each is tagged
            // with its shard id and sorted per query afterwards, so
            // every row list comes out globally sorted.
            let mut per_query: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); queries.len()];
            let place = |sid, (), rows: Option<Vec<(usize, Vec<usize>)>>| {
                let rows = rows.unwrap_or_else(|| self.conservative_rows(sid, queries));
                for (qidx, rows) in rows {
                    per_query[qidx].push((sid, rows));
                }
            };
            let partition = || {
                for q in queries {
                    self.index.validate_rect(q)?;
                }
                Ok(group_rects_by_shard(&self.index, queries))
            };
            let (degraded, _merge) =
                self.fan_out(ctx, spans, queries.len(), partition, run_shard_rects, place)?;
            let merged = per_query.into_iter().map(|mut parts| {
                parts.sort_unstable_by_key(|(sid, _)| *sid);
                parts.into_iter().flat_map(|(_, rows)| rows).collect()
            });
            let value = merged.collect();
            Ok(Response { value, degraded })
        })
    }

    /// The conservative answer of a shard that cannot run its rect
    /// job, in the job's output shape: every row of every query that
    /// reaches into the shard — the pieces
    /// [`ShardedIndex::split_rect`] cut for it.
    fn conservative_rows(&self, sid: usize, queries: &[RectQuery]) -> Vec<(usize, Vec<usize>)> {
        let shard = &self.index.shards()[sid];
        let mut pieces = Vec::new();
        for (qidx, q) in queries.iter().enumerate() {
            let (lo, hi) = (q.row_lo.max(shard.start()), q.row_hi.min(shard.end() - 1));
            if lo <= hi {
                pieces.push((qidx, (lo..=hi).collect()));
            }
        }
        pieces
    }

    /// The one scatter–gather every request kind goes through (the
    /// module docs' four steps). `items` is the request's size (cells,
    /// or queries); `partition` validates the request and yields its
    /// parts in shard order; `run` is the kind's shard job
    /// body; `place(shard, keep, output)` is its merge step, called
    /// once per part in completion order — with `None` when the part's
    /// answer has to be the conservative one (a shard quarantined
    /// before the request, or one whose job panicked and is
    /// quarantined now). A refused submission — a full queue or an
    /// injected [`points::POOL_SUBMIT`] fault — sheds the whole
    /// request; a job's typed error fails it; both cancel what was
    /// already admitted.
    ///
    /// Returns the response's degradation marker and the still-open
    /// `svc.merge` span, which the caller holds while it assembles the
    /// answer.
    fn fan_out<J: Send + 'static, K, O: Send + 'static>(
        &self,
        ctx: &RequestCtx,
        spans: &Spans,
        items: usize,
        partition: impl FnOnce() -> Result<Vec<Part<J, K>>, QueryError>,
        run: fn(J, ShardJob<'_>) -> Result<O, SvcError>,
        mut place: impl FnMut(usize, K, Option<O>),
    ) -> Result<(Option<Degraded>, obs::TraceSpan), SvcError> {
        let mut admit = spans.span("svc.admit");
        let parts = partition()?;
        ctx.check()?;
        obs::histogram!("svc.fanout").record(parts.len() as u64);
        obs::histogram!("svc.batch.size").record(items as u64);
        admit.annotate("fanout", parts.len());
        admit.annotate("items", items);
        let (tx, rx) = mpsc::channel();
        let mut degraded = Vec::new();
        // What the collector holds for a slot until its outcome arrives.
        let mut waiting: Vec<Option<(usize, K)>> = Vec::with_capacity(parts.len());
        for part in parts {
            let (sid, job, keep) = (part.shard, part.job, part.keep);
            if self.health.is_quarantined(sid) {
                spans.span("svc.quarantined").annotate("shard", sid);
                degraded.push(sid);
                place(sid, keep, None);
                continue;
            }
            let slot = waiting.len();
            let index = Arc::clone(&self.index);
            let job_ctx = ctx.clone();
            let plan = self.chaos.clone();
            let kernel = self.kernel;
            let tx = tx.clone();
            let (job_trace, root_id) = (spans.trace.clone(), spans.root_id);
            let shard_job = move || {
                let mut tspan = job_trace.span_under(root_id, "svc.shard");
                tspan.annotate("shard", sid);
                let enter = tspan.enter();
                let outcome = shard_outcome(|| {
                    chaos::inject(plan.as_deref(), points::SHARD_QUERY, Some(sid))?;
                    let env = ShardJob {
                        shard: &index.shards()[sid],
                        sid,
                        ctx: &job_ctx,
                        kernel,
                        chaos: plan.as_deref(),
                        span: &mut tspan,
                    };
                    run(job, env)
                });
                drop(enter);
                annotate_outcome(&mut tspan, outcome.as_ref());
                drop(tspan);
                let _ = tx.send((slot, outcome));
            };
            if let Err(e) = chaos::inject(self.chaos.as_deref(), points::POOL_SUBMIT, Some(sid))
                .and_then(|()| self.pool.try_execute(shard_job))
            {
                ctx.cancel();
                obs::counter!("svc.shed").inc();
                return Err(e);
            }
            waiting.push(Some((sid, keep)));
        }
        drop(tx);
        drop(admit);
        let mut merge = spans.span("svc.merge");
        for _ in 0..waiting.len() {
            // The wait is charged against the request's deadline.
            let received = match ctx.deadline.remaining() {
                None => rx.recv().map_err(|_| SvcError::Shutdown),
                Some(budget) => rx.recv_timeout(budget).map_err(|e| match e {
                    mpsc::RecvTimeoutError::Timeout => SvcError::DeadlineExceeded,
                    mpsc::RecvTimeoutError::Disconnected => SvcError::Shutdown,
                }),
            };
            let (slot, outcome) = received.map_err(|e| self.abandon(ctx, e))?;
            let (sid, keep) = waiting[slot].take().expect("one outcome per slot");
            match outcome {
                Some(Ok(out)) => place(sid, keep, Some(out)),
                Some(Err(e)) => return Err(self.abandon(ctx, e)),
                None => {
                    self.health.quarantine(sid);
                    degraded.push(sid);
                    place(sid, keep, None);
                }
            }
        }
        if !degraded.is_empty() {
            merge.annotate("degraded_shards", degraded.len());
        }
        Ok((degraded_marker(degraded), merge))
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

/// What a shard job body works with besides its part of the request.
struct ShardJob<'a> {
    shard: &'a Shard,
    sid: usize,
    ctx: &'a RequestCtx,
    kernel: KernelOpts,
    chaos: Option<&'a chaos::FaultPlan>,
    /// The job's `svc.shard` span (disabled on an untraced request).
    span: &'a mut obs::TraceSpan,
}

impl ShardJob<'_> {
    /// The gate before each stage of the job: the
    /// [`points::SHARD_STAGE`] injection point, then the request's
    /// deadline and cancellation.
    fn check(&self) -> Result<(), SvcError> {
        chaos::inject(self.chaos, points::SHARD_STAGE, Some(self.sid))?;
        self.ctx.check()
    }
}

/// The cell kind's shard job: the part's cells in [`CHUNK_ROWS`]-cell
/// slices — a cell is hash-probed unless its own bin is exact-backed,
/// so a slice is sized for probing — with a [`ShardJob::check`] before
/// each, plain hits back.
fn run_shard_cells(cells: Vec<Cell>, job: ShardJob<'_>) -> Result<Vec<bool>, SvcError> {
    let index = job.shard.index();
    let mut hits = Vec::with_capacity(cells.len());
    for chunk in cells.chunks(CHUNK_ROWS) {
        job.check()?;
        hits.extend(index.retrieve_cells_with_opts(chunk, job.kernel));
    }
    Ok(hits)
}

/// The rect kinds' shard job: every query part that landed on the
/// shard, each tagged with its query's index in the batch and run
/// stage by stage ([`run_stages`]). A traced job's `svc.shard` span
/// says how many stages its parts were cut into and which tier
/// answered them (`exact`, `ab`, or `mixed` — also when the parts of a
/// batch disagree).
fn run_shard_rects(
    parts: Vec<(usize, RectQuery)>,
    job: ShardJob<'_>,
) -> Result<Vec<(usize, Vec<usize>)>, SvcError> {
    let mut out = Vec::with_capacity(parts.len());
    let (mut stages, mut tier) = (0, None);
    let mut failed = None;
    for (qidx, local) in parts {
        // Hierarchical pruning has to see the *whole* shard part —
        // inside one stage it would never see a span-sized region —
        // so `stages` prunes once and cuts only what survives.
        let (part_tier, cut) = job.shard.index().stages(&local, job.kernel, CHUNK_ROWS);
        stages += cut.len();
        tier = Some(tier.map_or(part_tier, |t| if t == part_tier { t } else { "mixed" }));
        match run_stages(&job, local, &cut) {
            Ok(rows) => out.push((qidx, rows)),
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    job.span.annotate("stages", stages);
    job.span.annotate("tier", tier.unwrap_or("ab"));
    failed.map_or(Ok(out), Err)
}

/// Runs one shard's part of a rectangular query over the stages it
/// was cut into — a [`ShardJob::check`] before each, hier off (the cut
/// already pruned) — and returns the matches as global row ids.
/// `part` is reused as every stage's query; a part that is one stage
/// hands its rows back without a second buffer.
fn run_stages(
    job: &ShardJob<'_>,
    mut part: RectQuery,
    stages: &[(usize, usize)],
) -> Result<Vec<usize>, SvcError> {
    let (index, start) = (job.shard.index(), job.shard.start());
    let flat = job.kernel.with_hier(HierMode::Off);
    let mut run = |&(lo, hi): &(usize, usize)| {
        job.check()?;
        (part.row_lo, part.row_hi) = (lo, hi);
        Ok::<_, SvcError>(index.try_execute_rect_with_opts(&part, flat)?)
    };
    if let [only] = stages {
        let mut rows = run(only)?;
        rows.iter_mut().for_each(|r| *r += start);
        return Ok(rows);
    }
    let mut out = Vec::new();
    for stage in stages {
        out.extend(run(stage)?.into_iter().map(|r| r + start));
    }
    Ok(out)
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
                svc.try_query_rect(&q).unwrap().value,
                svc.index().execute_rect_sequential(&q).unwrap()
            );
        }
    }

    #[test]
    fn invalid_queries_get_typed_errors() {
        let svc = service(100, small_cfg());
        let bad_row = RectQuery::new(vec![], 0, 100);
        assert!(matches!(
            svc.try_query_rect(&bad_row),
            Err(SvcError::Query(QueryError::RowOutOfRange { .. }))
        ));
        let bad_bin = RectQuery::new(vec![AttrRange::new(1, 0, 9)], 0, 50);
        assert!(matches!(
            svc.try_query_rect(&bad_bin),
            Err(SvcError::Query(QueryError::BinOutOfRange { .. }))
        ));
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
        let got = svc.try_retrieve_cells(&cells).unwrap().value;
        assert_eq!(got.len(), n);
        assert!(got.iter().all(|&b| b), "false negative via service");
    }

    #[test]
    fn retrieve_cells_validates_input() {
        let svc = service(50, small_cfg());
        assert!(matches!(
            svc.try_retrieve_cells(&[Cell::new(50, 0, 0)]),
            Err(SvcError::Query(QueryError::RowOutOfRange { .. }))
        ));
        assert!(matches!(
            svc.try_retrieve_cells(&[Cell::new(0, 7, 0)]),
            Err(SvcError::Query(QueryError::BinOutOfRange {
                attribute: 7,
                ..
            }))
        ));
        assert_eq!(
            svc.try_retrieve_cells(&[]).unwrap().value,
            Vec::<bool>::new()
        );
    }

    #[test]
    fn batch_matches_individual_queries() {
        let svc = service(400, small_cfg());
        let qs = vec![
            RectQuery::new(vec![AttrRange::new(0, 0, 2)], 0, 399),
            RectQuery::new(vec![AttrRange::new(1, 1, 3)], 100, 250),
            RectQuery::new(vec![], 395, 399),
        ];
        let batched = svc
            .try_query_batch_ctx(&qs, &RequestCtx::new(Deadline::none()))
            .unwrap()
            .value;
        assert_eq!(batched.len(), 3);
        for (q, rows) in qs.iter().zip(&batched) {
            assert_eq!(rows, &svc.try_query_rect(q).unwrap().value);
        }
        assert!(svc
            .try_query_batch_ctx(&[], &RequestCtx::new(Deadline::none()))
            .unwrap()
            .value
            .is_empty());
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

    /// The three request kinds behind one face, so the degradation
    /// table can put each of them through every scenario.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Rect,
        Cells,
        Batch,
    }

    /// A kind's answer in one shape: row lists (one per query — a rect
    /// has one) or cell verdicts.
    #[derive(Debug, PartialEq)]
    enum Answer {
        Rows(Vec<Vec<usize>>),
        Hits(Vec<bool>),
    }

    /// What the table asks: `rects[0]` is the rect request, `rects` the
    /// batch (a rectangle over all three shards, one inside the shard
    /// that fails, one that never reaches it), `cells` the cell list.
    struct Asked {
        rects: Vec<RectQuery>,
        cells: Vec<Cell>,
    }

    fn ask(
        svc: &Service,
        asked: &Asked,
        kind: Kind,
        ctx: &RequestCtx,
    ) -> Result<Response<Answer>, SvcError> {
        let (value, degraded) = match kind {
            Kind::Rect => {
                let r = svc.try_query_rect_ctx(&asked.rects[0], ctx)?;
                (Answer::Rows(vec![r.value]), r.degraded)
            }
            Kind::Cells => {
                let r = svc.try_retrieve_cells_ctx(&asked.cells, ctx)?;
                (Answer::Hits(r.value), r.degraded)
            }
            Kind::Batch => {
                let r = svc.try_query_batch_ctx(&asked.rects, ctx)?;
                (Answer::Rows(r.value), r.degraded)
            }
        };
        Ok(Response { value, degraded })
    }

    /// What `kind` must answer while shard `failed` (if any) cannot:
    /// the shards' own sequential answers ([`execute_rect_sequential`],
    /// per-cell `test_cell`) everywhere else, and on the failed shard
    /// the conservative answer — every row of each query's part of it,
    /// `true` at exactly its cell positions.
    ///
    /// [`execute_rect_sequential`]: ShardedIndex::execute_rect_sequential
    fn expected(svc: &Service, asked: &Asked, kind: Kind, failed: Option<usize>) -> Answer {
        let index = svc.index();
        let rows_of = |q: &RectQuery| {
            let healthy = index.execute_rect_sequential(q).unwrap();
            let Some(shard) = failed.map(|sid| &index.shards()[sid]) else {
                return healthy;
            };
            let slice = q.row_lo.max(shard.start())..q.row_hi.min(shard.end() - 1) + 1;
            let mut rows: Vec<usize> = healthy
                .into_iter()
                .filter(|r| !(shard.start()..shard.end()).contains(r))
                .chain(slice)
                .collect();
            rows.sort_unstable();
            rows
        };
        match kind {
            Kind::Rect => Answer::Rows(vec![rows_of(&asked.rects[0])]),
            Kind::Batch => Answer::Rows(asked.rects.iter().map(rows_of).collect()),
            Kind::Cells => Answer::Hits(
                asked
                    .cells
                    .iter()
                    .map(|c| {
                        let sid = index.shard_of_row(c.row);
                        let shard = &index.shards()[sid];
                        failed == Some(sid)
                            || shard
                                .index()
                                .test_cell(c.row - shard.start(), c.attribute, c.bin)
                    })
                    .collect(),
            ),
        }
    }

    /// The shard every failing scenario takes out.
    const FAILED: usize = 1;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Scenario {
        Healthy,
        QuarantinedBeforeTheRequest,
        PanicsMidRequest,
        OverloadAtSubmit,
        ExpiredDeadline,
        CancelledCtx,
    }

    /// One degradation table for every kind: {rect, cells, batch} ×
    /// {healthy, shard quarantined before the request, shard panicking
    /// mid-request, overload at submit, expired deadline, cancelled
    /// ctx}. A degraded answer is the healthy one with the failed
    /// shard's whole slice made conservative — a sorted superset — and
    /// names exactly that shard; a refused request returns its typed
    /// error and leaves no job behind; clearing the quarantine makes
    /// answers bit-identical again.
    #[test]
    fn every_kind_degrades_sheds_and_recovers_alike() {
        use crate::chaos::{Fault, FaultPlan, FaultRule};
        let t = table(900);
        let ab = AbConfig::new(Level::PerAttribute).with_alpha(8);
        let scenarios = [
            Scenario::Healthy,
            Scenario::QuarantinedBeforeTheRequest,
            Scenario::PanicsMidRequest,
            Scenario::OverloadAtSubmit,
            Scenario::ExpiredDeadline,
            Scenario::CancelledCtx,
        ];
        for kind in [Kind::Rect, Kind::Cells, Kind::Batch] {
            for scenario in scenarios {
                // The scenario's fault — or, where it has none, a probe
                // that fires (and sleeps for no time) at the start of
                // every shard job, which makes the jobs countable.
                let rule = match scenario {
                    Scenario::PanicsMidRequest => FaultRule::new(points::SHARD_QUERY, Fault::Panic)
                        .on_shard(FAILED)
                        .max_fires(1),
                    Scenario::OverloadAtSubmit => {
                        FaultRule::new(points::POOL_SUBMIT, Fault::Overloaded)
                            .on_shard(FAILED)
                            .max_fires(1)
                    }
                    _ => FaultRule::new(points::SHARD_QUERY, Fault::Latency(Duration::ZERO)),
                };
                let plan = Arc::new(FaultPlan::new(29).with_rule(rule));
                let svc =
                    Service::build(&t, &ab, &three_shards()).with_fault_plan(Arc::clone(&plan));
                let (cells, _, _) = interleaved_cells(&svc, &t);
                let asked = Asked {
                    rects: vec![
                        RectQuery::new(vec![AttrRange::new(0, 1, 4)], 50, 849),
                        RectQuery::new(vec![AttrRange::new(1, 0, 1)], 310, 590),
                        RectQuery::new(vec![], 20, 290),
                    ],
                    cells,
                };
                let what = format!("{kind:?} / {scenario:?}");
                let healthy = expected(&svc, &asked, kind, None);
                let degraded = expected(&svc, &asked, kind, Some(FAILED));
                assert_ne!(healthy, degraded, "{what}: the slice must show");
                let unbounded = RequestCtx::new(Deadline::none());
                let assert_healthy = || {
                    let r = ask(&svc, &asked, kind, &unbounded).unwrap();
                    assert_eq!(r.degraded, None, "{what}");
                    assert_eq!(r.value, healthy, "{what}");
                };
                let assert_degraded = || {
                    let r = ask(&svc, &asked, kind, &unbounded).unwrap();
                    let named = r.degraded.map(|d| d.shards);
                    assert_eq!(named, Some(vec![FAILED]), "{what}");
                    assert_eq!(r.value, degraded, "{what}");
                    if let Answer::Rows(lists) = &r.value {
                        for rows in lists {
                            assert!(rows.windows(2).all(|w| w[0] < w[1]), "{what}: unsorted");
                        }
                    }
                };
                // Refused before or at submission: the typed error, the
                // ctx cancelled where jobs were already admitted, and
                // nothing left queued behind the request.
                let assert_refused = |ctx: &RequestCtx, want: fn(&SvcError) -> bool| {
                    let e = ask(&svc, &asked, kind, ctx).unwrap_err();
                    assert!(want(&e), "{what}: {e}");
                    let waited = std::time::Instant::now();
                    while svc.queue_depth() > 0 {
                        assert!(waited.elapsed() < Duration::from_secs(5), "{what}: stuck");
                        std::thread::yield_now();
                    }
                };
                match scenario {
                    Scenario::Healthy => assert_healthy(),
                    Scenario::QuarantinedBeforeTheRequest => {
                        svc.health().quarantine(FAILED);
                        assert_degraded();
                        // The quarantined shard got no job at all.
                        assert_eq!(plan.fires(points::SHARD_QUERY), 2, "{what}");
                        svc.health().clear(FAILED);
                        assert_healthy();
                    }
                    Scenario::PanicsMidRequest => {
                        assert_degraded();
                        assert_eq!(plan.fires(points::SHARD_QUERY), 1, "{what}");
                        // The panic quarantined the shard: the next
                        // request degrades up front, with the same
                        // answer and without meeting the fault again.
                        assert!(svc.health().is_quarantined(FAILED), "{what}");
                        assert_degraded();
                        assert_eq!(plan.fires(points::SHARD_QUERY), 1, "{what}");
                        svc.health().clear(FAILED);
                        assert_healthy();
                    }
                    Scenario::OverloadAtSubmit => {
                        // Shard 0's job is in the pool when shard 1's
                        // submission is refused.
                        let ctx = RequestCtx::new(Deadline::none());
                        assert_refused(&ctx, |e| matches!(e, SvcError::Overloaded { .. }));
                        assert!(ctx.is_cancelled(), "{what}: admitted parts must stop");
                        // One-shot fault: the next request is healthy.
                        assert_healthy();
                    }
                    Scenario::ExpiredDeadline | Scenario::CancelledCtx => {
                        let (ctx, want): (_, fn(&SvcError) -> bool) =
                            if scenario == Scenario::ExpiredDeadline {
                                let ctx = RequestCtx::new(Deadline::within(Duration::ZERO));
                                (ctx, |e| *e == SvcError::DeadlineExceeded)
                            } else {
                                let ctx = RequestCtx::new(Deadline::none());
                                ctx.cancel();
                                (ctx, |e| *e == SvcError::Cancelled)
                            };
                        assert_refused(&ctx, want);
                        // Rejected at admission: no shard job started.
                        assert_eq!(plan.fires(points::SHARD_QUERY), 0, "{what}");
                        assert_healthy();
                    }
                }
            }
        }
    }

    #[test]
    fn hier_service_matches_flat_service_and_prunes() {
        use ab::HierLevelSpec;
        // Clustered single-attribute table: each 512-row segment holds
        // one bin, so whole 64-row spans miss most bins. α=32 keeps
        // the base AB clean enough that no pruned region held a false
        // positive, so the answers are equal.
        let n = 4096;
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "v",
            (0..n).map(|i| (i / 512) as u32).collect(),
            8,
        )]);
        let ab = AbConfig::new(Level::PerAttribute).with_alpha(32);
        let flat = Service::build(&t, &ab, &small_cfg());
        let cfg = SvcConfig {
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
        let pruned_before = obs::counter!("hier.regions_pruned").get();
        let skipped_before = obs::counter!("hier.rows_skipped").get();
        for q in [
            RectQuery::new(vec![AttrRange::new(0, 2, 2)], 0, n - 1),
            RectQuery::new(vec![AttrRange::new(0, 0, 1)], 100, 3000),
            RectQuery::new(vec![AttrRange::new(0, 7, 7)], 0, 511),
            RectQuery::new(vec![], 0, n - 1),
        ] {
            assert_eq!(
                hier.try_query_rect(&q).unwrap().value,
                flat.try_query_rect(&q).unwrap().value,
                "hier and flat services must answer bit-identically"
            );
        }
        assert!(
            obs::counter!("hier.regions_pruned").get() > pruned_before,
            "single-bin rects over clustered data must prune regions"
        );
        assert!(obs::counter!("hier.rows_skipped").get() > skipped_before);
    }

    #[test]
    fn from_index_builds_no_tier() {
        let t = table(120);
        let idx = crate::ShardedIndex::build(
            &t,
            &AbConfig::new(Level::PerAttribute).with_alpha(8),
            3,
            false,
        );
        let bytes = idx.to_bytes();
        // The serialized index carries no pyramid, and a hier-enabled
        // service serves it without one: the flat scan's answers.
        let cfg = SvcConfig {
            hier: HierMode::Auto,
            ..small_cfg()
        };
        let svc = Service::from_index(crate::ShardedIndex::from_bytes(&bytes).unwrap(), &cfg);
        assert!(svc
            .index()
            .shards()
            .iter()
            .all(|s| s.index().hier().is_none()));
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 3)], 0, 119);
        assert_eq!(
            svc.try_query_rect(&q).unwrap().value,
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
            svc.try_query_rect(&q).unwrap().value,
            idx.execute_rect_sequential(&q).unwrap()
        );
    }
}
