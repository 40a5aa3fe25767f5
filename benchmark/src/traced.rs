//! `benchmark run --trace 1`: the per-layer run.
//!
//! End-to-end numbers come only from the untraced run. This run
//! replays the request list in-process one layer call at a time —
//! request-frame encode/decode → `Service::try_query_rect` /
//! `try_retrieve_cells` → on each shard's `AbIndex` the planner, the
//! pyramid and the kernel → response-frame encode/decode — recording
//! a span around each call, then times reference variants (flat,
//! scalar, forced pyramid, forced exact tier, WAH, Roaring), the
//! synchronous socket round trip, a short closed loop with and
//! without the program's own request tracing, and two open-loop
//! points. Timings are medians over the list; counts come from
//! `QueryStats` and repeat exactly for a seed.

use crate::contract::PER_LAYER;
use crate::drive::{self, OpenPoint};
use crate::report::Report;
use crate::run::{self, check_guards, descent_frac, RunArgs};
use crate::setup::{self, SetupReport, System};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::workload::Spec;
use ab::{Cell, HierMode, HybridMode, KernelKind, KernelOpts, QueryStats};
use bitmap::RectQuery;
use net::frame::{decode_request, decode_response, encode_request, encode_response};
use net::{Client, FrameReader, Request, Response};
use std::hint::black_box;
use std::time::{Duration, Instant};
use svc::Service;

/// Requests (a prefix of the list) the reference variants and the
/// exact baselines answer; the full-list passes are the served path.
const REFERENCE_REQUESTS: usize = 12;
/// Pings and one-row rects timed for the fixed-path diagnostics.
const FIXED_PATH_SAMPLES: usize = 200;
/// `HashFamily::positions` calls timed for `hashkit.pos_ns`.
const HASH_CALLS: u64 = 200_000;
/// Open-loop points, as shares of the workload's nominal rate.
const OPEN_SHARES: [(f64, &str); 2] = [(0.50, "r50"), (0.75, "r75")];
/// The latency limit of an open-loop point: this multiple of the
/// closed-loop median.
const OPEN_LIMIT_FACTOR: f64 = 4.0;

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-9)
}

/// Sums and per-request times the span replay produces.
#[derive(Default)]
struct Replay {
    tracer: Tracer,
    /// Summed `QueryStats` of the served (auto) path.
    stats: QueryStats,
    /// Rows the requests cover (Σ rect heights over shard parts).
    rows_covered: u64,
    /// Rows the pyramid skipped.
    rows_skipped: u64,
    /// Bins named by the ranges of all shard parts / those that are
    /// exact-backed.
    bins_named: u64,
    bins_backed: u64,
    /// Cells probed by cell batches.
    cells: u64,
    /// Per request, µs: the synchronous socket round trip.
    rtt_us: Vec<f64>,
    /// Round trips that came back with a wrong answer.
    socket_failed: u64,
    /// Per request, µs: the four frame calls together.
    frame_us: Vec<f64>,
    /// Per request, µs: the service call.
    svc_us: Vec<f64>,
    /// Per request: the slowest shard's part, timed directly on its
    /// `AbIndex`.
    budget: Vec<PartTimes>,
    /// Request and response frame sizes.
    req_bytes: Vec<f64>,
    resp_bytes: Vec<f64>,
}

/// The service's answer before the handler puts it on the wire.
enum Served {
    Rows(Vec<usize>),
    Hits(Vec<bool>),
}

/// What one shard part cost, µs: the whole part, and its
/// planner+pyramid, kernel, exact-tier and cell-probe pieces.
#[derive(Clone, Copy, Default)]
struct PartTimes {
    total: f64,
    hier: f64,
    kernel: f64,
    hybrid: f64,
    cells: f64,
}

fn decode_frame<T>(bytes: &[u8], decode: impl FnOnce(&net::Frame) -> T) -> T {
    let mut reader = FrameReader::new();
    reader.push(bytes);
    let frame = reader
        .next_frame()
        .expect("a frame the benchmark just sealed verifies")
        .expect("the frame is complete");
    decode(&frame)
}

impl Replay {
    fn span_us(&self, id: u32) -> f64 {
        let s = &self.tracer.spans()[id as usize];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// One shard's part of a rect, the way `svc` runs it: plan, prune
    /// when the planner says so, then the kernel (or the exact tier)
    /// over each surviving interval.
    fn rect_part(
        &mut self,
        i: usize,
        shard: &svc::Shard,
        local: &RectQuery,
        opts: KernelOpts,
        rows: &mut Vec<u64>,
    ) -> PartTimes {
        let index = shard.index();
        let mut times = PartTimes::default();
        let part_span = self.tracer.enter("ab.shard", i);
        self.rows_covered += local.num_rows() as u64;
        let mut intervals = vec![(local.row_lo, local.row_hi)];
        if let Some(hier) = index.hier().filter(|_| !local.ranges.is_empty()) {
            let id = self.tracer.enter("ab.planner.plan", i);
            let descend = ab::plan_descent(hier, local);
            self.tracer.exit(id);
            times.hier += self.span_us(id);
            if descend {
                let id = self.tracer.enter("ab.hier.prune", i);
                let prune = hier.prune(local);
                self.tracer.exit(id);
                times.hier += self.span_us(id);
                self.rows_skipped += prune.rows_skipped;
                intervals = prune.intervals;
            }
        }
        let exact_tier = index.hybrid().filter(|hy| hy.covers_any(local));
        for r in &local.ranges {
            for bin in r.lo..=r.hi {
                self.bins_named += 1;
                let backed = index
                    .hybrid()
                    .is_some_and(|hy| hy.backing(r.attribute, bin).is_some());
                self.bins_backed += u64::from(backed);
            }
        }
        let name = if exact_tier.is_some() {
            "ab.exec.hybrid"
        } else {
            "ab.exec.kernel"
        };
        for (lo, hi) in intervals {
            let part = RectQuery::new(local.ranges.clone(), lo, hi);
            let id = self.tracer.enter(name, i);
            let (part_rows, s) = index
                .try_execute_rect_with_stats_opts(&part, opts.with_hier(HierMode::Off))
                .expect("generated rects are in range");
            self.tracer.exit(id);
            if exact_tier.is_some() {
                times.hybrid += self.span_us(id);
            } else {
                times.kernel += self.span_us(id);
            }
            self.stats.cells_probed += s.cells_probed;
            self.stats.bits_read += s.bits_read;
            self.stats.fp_rows_eliminated += s.fp_rows_eliminated;
            rows.extend(part_rows.into_iter().map(|r| (r + shard.start()) as u64));
        }
        self.tracer.exit(part_span);
        times.total = self.span_us(part_span);
        times
    }

    /// Replays request `i` layer by layer and checks that the layers,
    /// called one at a time, give the answer the server gave.
    fn request(
        &mut self,
        i: usize,
        client: &mut Client,
        service: &Service,
        req: &Request,
        expected: &Response,
    ) -> Result<(), String> {
        // The synchronous socket round trip first, then the same
        // request layer by layer straight after it: a shared guest
        // changes speed by a quarter from one second to the next, so
        // only measurements taken back to back can be set against
        // each other.
        let id = self.tracer.enter("net.sync_rtt", i);
        client.send(req).map_err(|e| format!("request {i}: {e}"))?;
        let (_, got) = client.recv().map_err(|e| format!("request {i}: {e}"))?;
        self.tracer.exit(id);
        self.rtt_us.push(self.span_us(id));
        self.socket_failed += u64::from(&got != expected);

        let root = self.tracer.enter("request", i);
        let bytes = self
            .tracer
            .time("net.frame.enc_req", i, || encode_request(i as u64 + 1, req));
        let decoded = self.tracer.time("net.frame.dec_req", i, || {
            decode_frame(&bytes, |f| decode_request(f).expect("own frame decodes"))
        });
        let svc_span = self.tracer.enter("svc", i);
        let served = match &decoded {
            Request::Rect { query, .. } => {
                service.try_query_rect(query).map(|r| Served::Rows(r.value))
            }
            Request::Cells { cells, .. } => service
                .try_retrieve_cells(cells)
                .map(|r| Served::Hits(r.value)),
            other => return Err(format!("unexpected request {other:?}")),
        };
        self.tracer.exit(svc_span);
        let served = served.map_err(|e| format!("request {i}: {e}"))?;
        // Answer → wire response → bytes: what the handler thread does
        // with the service's answer.
        let resp_bytes = self.tracer.time("net.frame.enc_resp", i, || {
            let resp = match served {
                Served::Rows(rows) => Response::Rect {
                    degraded: Vec::new(),
                    rows: rows.into_iter().map(|r| r as u64).collect(),
                },
                Served::Hits(hits) => Response::Cells {
                    degraded: Vec::new(),
                    hits,
                },
            };
            encode_response(i as u64 + 1, &resp)
        });
        let got = self.tracer.time("net.frame.dec_resp", i, || {
            decode_frame(&resp_bytes, |f| {
                decode_response(f).expect("own frame decodes")
            })
        });
        self.tracer.exit(root);
        if &got != expected {
            return Err(format!(
                "request {i}: the layered replay differs from the served answer"
            ));
        }
        self.svc_us.push(self.span_us(svc_span));
        // The request span holds the four frame calls and the service
        // call, nothing else.
        let frames = self.span_us(root) - self.span_us(svc_span);
        self.frame_us.push(frames);
        self.req_bytes.push(bytes.len() as f64);
        self.resp_bytes.push(resp_bytes.len() as f64);

        // The same request on each shard's AbIndex, directly.
        let index = service.index();
        let opts = service.kernel_opts();
        let root = self.tracer.enter("ab.request", i);
        let mut slowest = PartTimes::default();
        match req {
            Request::Rect { query, .. } => {
                let mut rows = Vec::new();
                for (sid, local) in index.split_rect(query) {
                    let t = self.rect_part(i, &index.shards()[sid], &local, opts, &mut rows);
                    if t.total > slowest.total {
                        slowest = t;
                    }
                }
                let direct = Response::Rect {
                    degraded: Vec::new(),
                    rows,
                };
                if &direct != expected {
                    return Err(format!(
                        "request {i}: plan/prune/execute replay differs from the served answer"
                    ));
                }
            }
            Request::Cells { cells, .. } => {
                for group in svc::group_cells_by_shard(index, cells) {
                    let local: Vec<Cell> = group.cells.iter().map(|&(_, c)| c).collect();
                    self.cells += local.len() as u64;
                    let id = self.tracer.enter("ab.cells", i);
                    black_box(
                        index.shards()[group.shard]
                            .index()
                            .retrieve_cells_with_opts(&local, opts),
                    );
                    self.tracer.exit(id);
                    let us = self.span_us(id);
                    if us > slowest.total {
                        slowest = PartTimes {
                            total: us,
                            cells: us,
                            ..PartTimes::default()
                        };
                    }
                }
            }
            other => return Err(format!("unexpected request {other:?}")),
        }
        self.tracer.exit(root);
        self.budget.push(slowest);
        Ok(())
    }
}

/// Times `queries` on each shard's `AbIndex` under `opts`: per request
/// the slowest shard's µs, plus the summed stats and the summed µs.
fn time_variant(
    service: &Service,
    queries: &[&RectQuery],
    opts: KernelOpts,
) -> (Vec<f64>, QueryStats, f64) {
    let index = service.index();
    let mut per_request = Vec::with_capacity(queries.len());
    let mut sum = QueryStats::default();
    let mut total_us = 0.0;
    for query in queries {
        let mut slowest = 0.0f64;
        for (sid, local) in index.split_rect(query) {
            let t = Instant::now();
            let (rows, s) = index.shards()[sid]
                .index()
                .try_execute_rect_with_stats_opts(&local, opts)
                .expect("generated rects are in range");
            let us = micros(t);
            black_box(rows);
            slowest = slowest.max(us);
            total_us += us;
            sum.cells_probed += s.cells_probed;
            sum.bits_read += s.bits_read;
        }
        per_request.push(slowest);
    }
    (per_request, sum, total_us)
}

fn record_setup(report: &mut Report, spec: &Spec, s: &SetupReport) {
    report.set("datagen.gen_s", s.gen_s);
    report.set("ab.build.s", s.build_s);
    report.set(
        "ab.build.rows_per_s",
        spec.rows as f64 / s.build_s.max(1e-9),
    );
    report.set("ab.hier.build_s", s.hier_s);
    report.set("ab.hier.bytes", s.hier_bytes as f64);
    report.set("ab.hybrid.build_s", s.hybrid_s);
    report.set("ab.hybrid.bytes", s.hybrid_bytes as f64);
    report.set("ab.hybrid.bins_backed", s.bins_backed as f64);
    report.set(
        "ab.io.to_bytes_mb_s",
        mb_per_s(s.payload_bytes, s.to_bytes_s),
    );
    report.set(
        "ab.io.from_bytes_mb_s",
        mb_per_s(s.payload_bytes, s.from_bytes_s),
    );
    report.set("store.write_mb_s", mb_per_s(s.payload_bytes, s.write_s));
    report.set("store.open_ms", s.open_s * 1e3);
    report.set("store.fsyncs", s.syncs as f64);
}

/// Reference variants and exact baselines over the list's prefix.
fn record_references(
    report: &mut Report,
    sys: &System,
    requests: &[Request],
) -> Result<(), String> {
    let rects: Vec<&RectQuery> = requests
        .iter()
        .take(REFERENCE_REQUESTS)
        .filter_map(|r| match r {
            Request::Rect { query, .. } => Some(query),
            _ => None,
        })
        .collect();
    let service = &sys.service;
    let flat = KernelOpts::new(KernelKind::Batched);
    let (flat_us, flat_stats, flat_total) = time_variant(service, &rects, flat);
    let (scalar_us, _, _) = time_variant(service, &rects, KernelOpts::new(KernelKind::Scalar));
    let (hier_us, _, _) = time_variant(service, &rects, flat.with_hier(HierMode::Force));
    let (mask_us, _, _) = time_variant(service, &rects, flat.with_hybrid(HybridMode::Force));
    report.set("ab.kernel.rect_us", median(&flat_us));
    report.set("ab.kernel.scalar_us", median(&scalar_us));
    report.set(
        "ab.kernel.ns_per_cell",
        flat_total * 1e3 / flat_stats.cells_probed.max(1) as f64,
    );
    report.set("ab.query.hier_us", median(&hier_us));
    report.set("ab.hybrid.mask_us", median(&mask_us));

    let oracle = crate::oracle::Oracle::new(&sys.table);
    let wah = wah::WahIndex::build(&sys.table);
    let roar = roar::RoaringIndex::build(&sys.table);
    let (mut truth_us, mut wah_us, mut roar_us) = (Vec::new(), Vec::new(), Vec::new());
    for query in &rects {
        let t = Instant::now();
        let truth = oracle.rect_truth(query);
        truth_us.push(micros(t));
        let t = Instant::now();
        let w = wah.evaluate_rows(query);
        wah_us.push(micros(t));
        let t = Instant::now();
        let r = roar.evaluate_rows(query);
        roar_us.push(micros(t));
        if w != truth || r != truth {
            return Err("an exact baseline disagrees with the oracle".into());
        }
    }
    for req in requests.iter().take(REFERENCE_REQUESTS) {
        if let Request::Cells { cells, .. } = req {
            let t = Instant::now();
            black_box(oracle.cells_truth(cells));
            truth_us.push(micros(t));
        }
    }
    let rows = sys.table.num_rows() as f64;
    report.set("bitmap.truth_us", median(&truth_us));
    report.set("wah.rect_us", median(&wah_us));
    report.set("roar.rect_us", median(&roar_us));
    report.set("wah.bytes_per_row", wah.size_bytes() as f64 / rows);
    report.set("roar.bytes_per_row", roar.size_bytes() as f64 / rows);

    let ab0 = &service.index().shards()[0].index().abs()[0];
    let (family, mapper, k, n) = (ab0.family(), ab0.mapper(), ab0.k(), ab0.n_bits());
    let bins = u64::from(sys.table.column(0).cardinality);
    let mut out = Vec::with_capacity(k);
    let t = Instant::now();
    for row in 0..HASH_CALLS {
        family.positions(row, row % bins, mapper, k, n, &mut out);
        black_box(&out);
    }
    report.set("hashkit.pos_ns", micros(t) * 1e3 / HASH_CALLS as f64);
    Ok(())
}

fn record_open_point(report: &mut Report, label: &str, p: &OpenPoint) {
    let (q, _) = stats::tail_quantile(p.latencies_us.len());
    report.set(&format!("net.open.{label}.p50_us"), median(&p.latencies_us));
    report.set(
        &format!("net.open.{label}.p99_us"),
        stats::quantile(&p.latencies_us, q),
    );
    report.set(&format!("net.open.{label}.late_us"), median(&p.late_us));
}

/// Runs the per-layer pass and prints the result.
pub fn run(args: RunArgs) -> Result<bool, String> {
    let spec = args.spec;
    let mut sys = setup::set_up(spec, args.seed, 0)?;
    let requests = spec.requests(args.seed, &sys.table);
    let verified = run::verify(&mut sys, &requests)?;
    let expected = &verified.expected;
    let mut attempted = requests.len() as u64;
    let mut failed = verified.failed;
    let mut report = Report::default();
    record_setup(&mut report, spec, &sys.report);

    // --- the span replay: every request, one layer call at a time
    let mut replay = Replay::default();
    for (i, (req, want)) in requests.iter().zip(expected).enumerate() {
        replay.request(i, &mut sys.client, &sys.service, req, want)?;
    }
    let is_rect = matches!(requests[0], Request::Rect { .. });
    let piece = |of: fn(&PartTimes) -> f64| -> Vec<f64> { replay.budget.iter().map(of).collect() };
    let planned = descent_frac(&sys.service, &requests);
    check_guards(spec, planned, sys.report.bins_backed)?;
    let t = &replay.tracer;
    report.set("ab.kernel.cells_probed", replay.stats.cells_probed as f64);
    report.set("ab.kernel.bits_read", replay.stats.bits_read as f64);
    report.set(
        "ab.query.cells_us",
        median(&t.self_us_per_request("ab.cells")),
    );
    report.set(
        "ab.query.cells_ns_per_cell",
        t.self_us_per_request("ab.cells")
            .iter()
            .fold(0.0, |a, b| a + b)
            * 1e3
            / replay.cells.max(1) as f64,
    );
    report.set(
        "ab.hier.prune_us",
        median(&t.self_us_per_request("ab.hier.prune")),
    );
    report.set(
        "ab.hier.rows_skipped_frac",
        replay.rows_skipped as f64 / replay.rows_covered.max(1) as f64,
    );
    let plans: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "ab.planner.plan")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    report.set("ab.planner.plan_ns", median(&plans));
    report.set("ab.planner.descent_frac", planned);
    report.set(
        "ab.hybrid.covered_frac",
        replay.bins_backed as f64 / replay.bins_named.max(1) as f64,
    );
    report.set(
        "ab.hybrid.fp_rows_eliminated",
        replay.stats.fp_rows_eliminated as f64,
    );
    report.set(
        "ab.query.auto_us",
        if is_rect {
            median(&piece(|p| p.total))
        } else {
            0.0
        },
    );
    report.set(
        "svc.rect_us",
        if is_rect { median(&replay.svc_us) } else { 0.0 },
    );
    report.set(
        "svc.cells_us",
        if is_rect { 0.0 } else { median(&replay.svc_us) },
    );
    // What the service adds to its slowest shard's AbIndex time.
    let overhead: Vec<f64> = replay
        .svc_us
        .iter()
        .zip(&replay.budget)
        .map(|(s, part)| s - part.total)
        .collect();
    report.set("svc.overhead_us", median(&overhead).max(0.0));
    report.set(
        "net.frame.enc_req_ns",
        median(&t.self_us_per_request("net.frame.enc_req")) * 1e3,
    );
    report.set(
        "net.frame.dec_req_ns",
        median(&t.self_us_per_request("net.frame.dec_req")) * 1e3,
    );
    report.set("net.frame.req_bytes", median(&replay.req_bytes));
    report.set(
        "net.frame.enc_resp_us",
        median(&t.self_us_per_request("net.frame.enc_resp")),
    );
    report.set(
        "net.frame.dec_resp_us",
        median(&t.self_us_per_request("net.frame.dec_resp")),
    );
    report.set("net.frame.resp_bytes", median(&replay.resp_bytes));
    report.set("trace.spans", t.spans().len() as f64);

    record_references(&mut report, &sys, &requests)?;

    // --- store: one scrub pass over the open segment
    let file_bytes = std::fs::metadata(sys.store.path())
        .map_err(|e| e.to_string())?
        .len() as usize;
    let started = Instant::now();
    let scrub = sys.store.scrub().map_err(|e| format!("scrub: {e}"))?;
    if !scrub.clean() {
        return Err("scrub found damaged pages in a segment just written".into());
    }
    report.set(
        "store.scrub_mb_s",
        mb_per_s(file_bytes, started.elapsed().as_secs_f64()),
    );

    // --- svc: dispatch cost and the price of request tracing
    let one_row = RectQuery::new(Vec::new(), 0, 0);
    let dispatch: Vec<f64> = (0..FIXED_PATH_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            black_box(sys.service.try_query_rect(&one_row).map(|r| r.value.len())).ok();
            micros(t)
        })
        .collect();
    report.set("svc.pool_dispatch_us", median(&dispatch));
    let (traced_service, traced_server, mut traced_client) =
        setup::serve(sys.service.index().clone(), true)?;
    let call = |service: &Service, req: &Request| {
        let t = Instant::now();
        match req {
            Request::Rect { query, .. } => {
                black_box(service.try_query_rect(query).map(|r| r.value.len())).ok()
            }
            Request::Cells { cells, .. } => {
                black_box(service.try_retrieve_cells(cells).map(|r| r.value.len())).ok()
            }
            _ => None,
        };
        micros(t)
    };
    let (mut plain_us, mut traced_us) = (0.0, 0.0);
    for req in &requests {
        plain_us += call(&sys.service, req);
        traced_us += call(&traced_service, req);
    }
    report.set(
        "svc.traced_overhead_pct",
        (traced_us - plain_us) / plain_us * 100.0,
    );

    // --- net: the fixed path and the synchronous round trip
    let pings: Vec<f64> = (0..FIXED_PATH_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            sys.client.ping().map(|()| micros(t))
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("ping: {e}"))?;
    report.set("net.ping_us", median(&pings));
    attempted += requests.len() as u64;
    failed += replay.socket_failed;
    let rtt = &replay.rtt_us;
    let unattributed: Vec<f64> = rtt
        .iter()
        .zip(replay.frame_us.iter().zip(&replay.svc_us))
        .map(|(r, (f, s))| r - f - s)
        .collect();
    report.set("net.sync_rtt_us", median(rtt));
    report.set("net.unattributed_us", median(&unattributed).max(0.0));

    // --- budget: where the synchronous round trip goes. Shares are
    // totals over the list divided by the total round-trip time.
    // Round trip, frames, service call and shard part are four
    // separate timings of the same request; `net.unattributed` and
    // `svc` are what is left of the outer one after the inner, floored
    // at zero. So the shares add up to 1 unless an inner timing
    // exceeds the outer that should contain it — frames plus service
    // call cost more than the served request, or a shard's part more
    // than the service call around it — and then by that excess.
    let total: f64 = rtt.iter().sum();
    let share = |parts: &[f64]| parts.iter().sum::<f64>().max(0.0) / total;
    let shares = [
        ("share.net.frame", share(&replay.frame_us)),
        ("share.net.unattributed", share(&unattributed)),
        ("share.svc", share(&overhead)),
        ("share.ab.kernel", share(&piece(|p| p.kernel))),
        ("share.ab.hier", share(&piece(|p| p.hier))),
        ("share.ab.hybrid", share(&piece(|p| p.hybrid))),
        ("share.ab.cells", share(&piece(|p| p.cells))),
    ];
    for (name, value) in shares {
        report.set(name, value);
    }
    let sum: f64 = shares.iter().map(|&(_, v)| v).sum();
    report.set("share.sum", sum);

    // --- the closed loop, without and with the program's tracing
    let phase = Duration::from_secs_f64(args.seconds / 3.0);
    let warmup = run::WARMUP / 2;
    let cpu_before = crate::env::cpu_seconds().unwrap_or(0.0);
    let plain = drive::closed_loop(
        &mut sys.client,
        &requests,
        expected,
        spec.window,
        warmup,
        phase,
    )
    .map_err(|e| format!("closed loop: {e}"))?;
    let cpu_s = crate::env::cpu_seconds().unwrap_or(0.0) - cpu_before;
    let (qps, p50_us) = run::record_closed_loop(&mut report, &plain, cpu_s);
    let traced = drive::closed_loop(
        &mut traced_client,
        &requests,
        expected,
        spec.window,
        warmup,
        phase,
    )
    .map_err(|e| format!("traced closed loop: {e}"))?;
    let traced_qps = stats::fastest_round(&traced.rounds)
        .expect("a timed phase completes at least one round")
        .qps();
    report.set("obs.trace_overhead_pct", (qps - traced_qps) / qps * 100.0);
    attempted += plain.attempted + traced.attempted;
    failed += plain.failed + traced.failed;
    drop(traced_client);
    traced_server.shutdown(Duration::from_millis(200));

    // --- the open loop at fixed shares of the pinned nominal rate
    let limit_us = OPEN_LIMIT_FACTOR * p50_us;
    let mut max_rate_ok = 0.0;
    for (fraction, label) in OPEN_SHARES {
        let point = drive::open_loop(
            &mut sys.client,
            &requests,
            expected,
            spec.nominal_rate * fraction,
            Duration::from_secs_f64(args.seconds / 6.0),
        )
        .map_err(|e| format!("open loop {label}: {e}"))?;
        record_open_point(&mut report, label, &point);
        attempted += point.outcome.attempted;
        failed += point.outcome.failed;
        let (q, _) = stats::tail_quantile(point.latencies_us.len());
        let meets =
            stats::quantile(&point.latencies_us, q) <= limit_us && point.backlog <= 2 * spec.window;
        if meets {
            max_rate_ok = point.rate;
        }
    }
    report.set("net.open.max_rate_ok", max_rate_ok);

    let trace_path = setup::out_dir().join(format!("trace_{}.json", spec.name));
    std::fs::write(&trace_path, replay.tracer.to_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "# trace: {} spans -> {}",
        replay.tracer.spans().len(),
        trace_path.display()
    );
    report.print_lines();
    // Reported, not enforced: on a host that changes speed between
    // the timings of one request the excess reaches a fifth (1.18 seen
    // on an unchanged build), and a run must not fail on that.
    if !(0.9..=1.1).contains(&sum) {
        println!("# share.sum = {sum}: an inner timing exceeded the outer around it");
    }
    let correct = failed == 0;
    println!(
        "{}",
        report.summary(&PER_LAYER, correct, attempted, failed)?
    );
    Ok(correct)
}
