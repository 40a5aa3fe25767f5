//! The end-to-end load generator behind `abq loadgen`: drives a live
//! server over real sockets with a deterministic rect/cells/batch mix
//! and reports client-observed throughput and latency quantiles.
//!
//! Two driving disciplines:
//!
//! * **closed-loop** — every connection keeps a fixed pipeline window
//!   of requests outstanding (window 1 = classic back-to-back). Rps
//!   is whatever the server sustains; latency is per-request round
//!   trip.
//! * **open-loop** — requests are issued at a fixed arrival rate
//!   split evenly across connections, and latency is measured from
//!   each request's *scheduled* start, not its actual send, so a
//!   stalled server accrues queueing delay instead of quietly
//!   dropping arrivals (the coordinated-omission correction).
//!
//! The workload is synthesized from the server's own [`Schema`]
//! response via [`hashkit::splitmix64`], so it is the same for a
//! given seed against any server over the same table.

use crate::client::{Client, NetError};
use crate::frame::{ErrorCode, Request, Response, Schema};
use crate::reconnect::ReconnectClient;
use bitmap::{AttrRange, RectQuery};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Driving discipline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// Each connection keeps `pipeline` requests outstanding.
    Closed {
        /// Outstanding requests per connection (≥ 1).
        pipeline: usize,
    },
    /// Fixed arrival rate (requests/second) across all connections.
    Open {
        /// Aggregate target arrival rate.
        rps: f64,
    },
}

/// Relative weights of the query kinds in the generated mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Weight of rectangular queries.
    pub rect: u32,
    /// Weight of cell-subset retrievals.
    pub cells: u32,
    /// Weight of batched rectangular queries.
    pub batch: u32,
}

impl Mix {
    /// Rect-only mix.
    pub const RECT: Mix = Mix {
        rect: 1,
        cells: 0,
        batch: 0,
    };
    /// Batch-only mix.
    pub const BATCH: Mix = Mix {
        rect: 0,
        cells: 0,
        batch: 1,
    };

    fn pick(&self, h: u64) -> &'static str {
        let total = self.rect + self.cells + self.batch;
        assert!(total > 0, "mix must have at least one nonzero weight");
        let r = (h % u64::from(total)) as u32;
        if r < self.rect {
            "rect"
        } else if r < self.rect + self.cells {
            "cells"
        } else {
            "batch"
        }
    }
}

/// Load-generation parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent connections.
    pub conns: usize,
    /// How long to drive load.
    pub duration: Duration,
    /// Driving discipline.
    pub mode: Mode,
    /// Query-kind mix.
    pub mix: Mix,
    /// Workload seed (same seed + same schema = same queries).
    pub seed: u64,
    /// Queries per batch request / cells per cells request.
    pub batch_size: usize,
    /// Per-request deadline forwarded on the wire (0 = server
    /// default).
    pub deadline_ms: u32,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            conns: 1,
            duration: Duration::from_secs(5),
            mode: Mode::Closed { pipeline: 1 },
            mix: Mix::RECT,
            seed: 42,
            batch_size: 8,
            deadline_ms: 0,
        }
    }
}

/// Per-kind outcome tallies and latency quantiles (µs).
#[derive(Clone, Debug)]
pub struct KindStats {
    /// `"rect"`, `"cells"`, or `"batch"`.
    pub kind: &'static str,
    /// Successful responses.
    pub ok: u64,
    /// Typed error frames received (sheds included).
    pub errors: u64,
    /// The subset of `errors` that were load sheds
    /// ([`ErrorCode::Overloaded`]) — the retryable kind.
    pub shed: u64,
    /// Client-observed latency quantiles in microseconds.
    pub p50: u64,
    /// 95th percentile (µs).
    pub p95: u64,
    /// 99th percentile (µs).
    pub p99: u64,
    /// 99.9th percentile (µs).
    pub p999: u64,
}

/// What one loadgen run measured.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Per-kind stats, only for kinds with traffic.
    pub kinds: Vec<KindStats>,
    /// All successful responses.
    pub total_ok: u64,
    /// All typed error frames.
    pub total_errors: u64,
    /// All load sheds (subset of `total_errors`).
    pub total_shed: u64,
    /// Transport/protocol failures that ended a connection's run
    /// (after its reconnect budget, if any, ran out).
    pub transport_errors: u64,
    /// Successful client re-dials across all connections (dropped
    /// connections healed by [`ReconnectClient`] mid-run).
    pub reconnects: u64,
    /// Wall-clock duration of the measurement.
    pub elapsed: Duration,
    /// Successful responses per second.
    pub rps: f64,
}

struct KindTally {
    kind: &'static str,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    sketch: obs::QuantileSketch,
}

struct Tallies {
    kinds: [KindTally; 3],
    transport_errors: AtomicU64,
    reconnects: AtomicU64,
}

impl Tallies {
    fn new() -> Tallies {
        let mk = |kind| KindTally {
            kind,
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            sketch: obs::QuantileSketch::new(),
        };
        Tallies {
            kinds: [mk("rect"), mk("cells"), mk("batch")],
            transport_errors: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
        }
    }

    fn tally(&self, kind: &str) -> &KindTally {
        self.kinds
            .iter()
            .find(|t| t.kind == kind)
            .expect("known kind")
    }
}

/// Deterministic request generator seeded from the served schema.
pub struct Workload {
    schema: Schema,
    mix: Mix,
    seed: u64,
    batch_size: usize,
    deadline_ms: u32,
}

impl Workload {
    /// A generator producing the same sequence for the same seed and
    /// schema.
    pub fn new(schema: Schema, cfg: &LoadgenConfig) -> Workload {
        assert!(
            !schema.cardinalities.is_empty() && schema.num_rows > 0,
            "served schema is empty"
        );
        Workload {
            schema,
            mix: cfg.mix,
            seed: cfg.seed,
            batch_size: cfg.batch_size.max(1),
            deadline_ms: cfg.deadline_ms,
        }
    }

    fn rect(&self, i: u64) -> RectQuery {
        let num_rows = self.schema.num_rows as usize;
        let attrs = &self.schema.cardinalities;
        let a = (i % attrs.len() as u64) as usize;
        let card = attrs[a];
        let lo = (hashkit::splitmix64(self.seed ^ i) % u64::from(card)) as u32;
        let hi = (lo + card / 2).min(card - 1);
        let rl = (hashkit::splitmix64(self.seed ^ i ^ 0xBEEF) % num_rows as u64) as usize;
        RectQuery::new(
            vec![AttrRange::new(a, lo, hi)],
            rl.min(num_rows - 1),
            num_rows - 1,
        )
    }

    /// The `i`-th request of the sequence, plus its kind label.
    pub fn request(&self, i: u64) -> (&'static str, Request) {
        let kind = self
            .mix
            .pick(hashkit::splitmix64(self.seed ^ (i << 1) ^ 0xA5));
        match kind {
            "rect" => (
                kind,
                Request::Rect {
                    deadline_ms: self.deadline_ms,
                    query: self.rect(i),
                },
            ),
            "cells" => {
                let num_rows = self.schema.num_rows as usize;
                let attrs = &self.schema.cardinalities;
                let cells = (0..self.batch_size)
                    .map(|j| {
                        let h = hashkit::splitmix64(self.seed ^ i ^ ((j as u64) << 17));
                        let a = (h % attrs.len() as u64) as usize;
                        ab::Cell::new(
                            (h >> 8) as usize % num_rows,
                            a,
                            ((h >> 40) % u64::from(attrs[a])) as u32,
                        )
                    })
                    .collect();
                (
                    kind,
                    Request::Cells {
                        deadline_ms: self.deadline_ms,
                        cells,
                    },
                )
            }
            _ => (
                kind,
                Request::Batch {
                    deadline_ms: self.deadline_ms,
                    queries: (0..self.batch_size)
                        .map(|j| self.rect(i.wrapping_mul(131).wrapping_add(j as u64)))
                        .collect(),
                },
            ),
        }
    }
}

/// Runs one load generation according to `cfg` and reports what the
/// clients observed. Connects `cfg.conns` sockets (plus one up front
/// for the schema fetch).
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, NetError> {
    let schema = Client::connect(&cfg.addr)?.schema()?;
    let workload = Arc::new(Workload::new(schema, cfg));
    let tallies = Arc::new(Tallies::new());
    let started = Instant::now();
    let deadline = started + cfg.duration;

    std::thread::scope(|scope| {
        for conn_id in 0..cfg.conns.max(1) {
            let workload = Arc::clone(&workload);
            let tallies = Arc::clone(&tallies);
            let addr = cfg.addr.clone();
            let mode = cfg.mode;
            let conns = cfg.conns.max(1);
            scope.spawn(move || {
                let outcome = match mode {
                    Mode::Closed { pipeline } => drive_closed(
                        &addr,
                        &workload,
                        &tallies,
                        conn_id as u64,
                        conns,
                        deadline,
                        pipeline,
                    ),
                    Mode::Open { rps } => drive_open(
                        &addr,
                        &workload,
                        &tallies,
                        conn_id as u64,
                        conns,
                        deadline,
                        rps,
                    ),
                };
                if outcome.is_err() {
                    tallies.transport_errors.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let elapsed = started.elapsed();
    let kinds: Vec<KindStats> = tallies
        .kinds
        .iter()
        .filter(|t| t.ok.load(Ordering::Relaxed) + t.errors.load(Ordering::Relaxed) > 0)
        .map(|t| KindStats {
            kind: t.kind,
            ok: t.ok.load(Ordering::Relaxed),
            errors: t.errors.load(Ordering::Relaxed),
            shed: t.shed.load(Ordering::Relaxed),
            p50: t.sketch.quantile(0.50),
            p95: t.sketch.quantile(0.95),
            p99: t.sketch.quantile(0.99),
            p999: t.sketch.quantile(0.999),
        })
        .collect();
    let total_ok: u64 = kinds.iter().map(|k| k.ok).sum();
    let total_errors: u64 = kinds.iter().map(|k| k.errors).sum();
    let total_shed: u64 = kinds.iter().map(|k| k.shed).sum();
    Ok(LoadgenReport {
        kinds,
        total_ok,
        total_errors,
        total_shed,
        transport_errors: tallies.transport_errors.load(Ordering::Relaxed),
        reconnects: tallies.reconnects.load(Ordering::Relaxed),
        elapsed,
        rps: total_ok as f64 / elapsed.as_secs_f64().max(1e-9),
    })
}

/// Records one received response against its kind tally.
fn record(tallies: &Tallies, kind: &'static str, resp: &Response, latency: Duration) {
    let t = tallies.tally(kind);
    match resp {
        Response::Error { code, .. } => {
            t.errors.fetch_add(1, Ordering::Relaxed);
            if *code == ErrorCode::Overloaded {
                t.shed.fetch_add(1, Ordering::Relaxed);
            }
        }
        _ => {
            t.ok.fetch_add(1, Ordering::Relaxed);
            t.sketch.record(latency.as_micros() as u64);
        }
    }
}

/// Dials one load-driving connection: self-healing, so a server
/// restart mid-run costs re-dial latency instead of the connection.
fn dial(addr: &str, conn_id: u64) -> Result<ReconnectClient, NetError> {
    let mut client = ReconnectClient::connect_with(addr, svc::RetryPolicy::default(), conn_id)?;
    client.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(client)
}

/// Closed loop: keep `pipeline` requests outstanding until the
/// deadline, then drain.
fn drive_closed(
    addr: &str,
    workload: &Workload,
    tallies: &Tallies,
    conn_id: u64,
    conns: usize,
    deadline: Instant,
    pipeline: usize,
) -> Result<(), NetError> {
    let mut client = dial(addr, conn_id)?;
    let outcome = drive_closed_on(
        &mut client,
        workload,
        tallies,
        conn_id,
        conns,
        deadline,
        pipeline,
    );
    tallies
        .reconnects
        .fetch_add(client.reconnects(), Ordering::Relaxed);
    outcome
}

fn drive_closed_on(
    client: &mut ReconnectClient,
    workload: &Workload,
    tallies: &Tallies,
    conn_id: u64,
    conns: usize,
    deadline: Instant,
    pipeline: usize,
) -> Result<(), NetError> {
    let pipeline = pipeline.max(1);
    // Interleave the global sequence across connections so each
    // connection's sub-sequence is deterministic and disjoint.
    let mut seq = conn_id;
    // id -> (kind, send instant)
    let mut outstanding: Vec<(u64, &'static str, Instant)> = Vec::with_capacity(pipeline);
    loop {
        while outstanding.len() < pipeline && Instant::now() < deadline {
            let (kind, req) = workload.request(seq);
            seq += conns as u64;
            let id = client.send(&req)?;
            outstanding.push((id, kind, Instant::now()));
        }
        if outstanding.is_empty() {
            return Ok(());
        }
        let (got_id, resp) = client.recv()?;
        let pos = outstanding
            .iter()
            .position(|&(id, _, _)| id == got_id)
            .ok_or(NetError::UnexpectedResponse("unknown response id"))?;
        let (_, kind, sent) = outstanding.swap_remove(pos);
        record(tallies, kind, &resp, sent.elapsed());
    }
}

/// Open loop: issue at `rps / conns` per connection, measuring from
/// the scheduled arrival so server stalls show up as queueing delay.
fn drive_open(
    addr: &str,
    workload: &Workload,
    tallies: &Tallies,
    conn_id: u64,
    conns: usize,
    deadline: Instant,
    rps: f64,
) -> Result<(), NetError> {
    let mut client = dial(addr, conn_id)?;
    let outcome = drive_open_on(
        &mut client,
        workload,
        tallies,
        conn_id,
        conns,
        deadline,
        rps,
    );
    tallies
        .reconnects
        .fetch_add(client.reconnects(), Ordering::Relaxed);
    outcome
}

fn drive_open_on(
    client: &mut ReconnectClient,
    workload: &Workload,
    tallies: &Tallies,
    conn_id: u64,
    conns: usize,
    deadline: Instant,
    rps: f64,
) -> Result<(), NetError> {
    let per_conn = (rps / conns as f64).max(0.001);
    let interval = Duration::from_secs_f64(1.0 / per_conn);
    let mut seq = conn_id;
    // Stagger connection start offsets so arrivals interleave.
    let mut scheduled = Instant::now() + interval.mul_f64(conn_id as f64 / conns as f64);
    loop {
        if scheduled >= deadline {
            return Ok(());
        }
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let (kind, req) = workload.request(seq);
        seq += conns as u64;
        client.send(&req)?;
        let (_, resp) = client.recv()?;
        // Latency from the scheduled start: includes any time we were
        // late issuing because the previous round trip overran.
        record(tallies, kind, &resp, scheduled.elapsed());
        scheduled += interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema {
            num_rows: 1000,
            cardinalities: vec![6, 4],
        }
    }

    fn cfg(mix: Mix) -> LoadgenConfig {
        LoadgenConfig {
            mix,
            batch_size: 3,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn workload_is_deterministic_and_valid() {
        let w1 = Workload::new(
            schema(),
            &cfg(Mix {
                rect: 1,
                cells: 1,
                batch: 1,
            }),
        );
        let w2 = Workload::new(
            schema(),
            &cfg(Mix {
                rect: 1,
                cells: 1,
                batch: 1,
            }),
        );
        let mut kinds_seen = std::collections::HashSet::new();
        for i in 0..200 {
            let (k1, r1) = w1.request(i);
            let (k2, r2) = w2.request(i);
            assert_eq!(k1, k2);
            assert_eq!(r1, r2, "same seed must give same request");
            kinds_seen.insert(k1);
            match r1 {
                Request::Rect { query, .. } => {
                    assert!(query.row_hi < 1000 && query.row_lo <= query.row_hi);
                    for r in &query.ranges {
                        assert!(r.attribute < 2);
                        assert!(r.hi < [6u32, 4][r.attribute] && r.lo <= r.hi);
                    }
                }
                Request::Cells { cells, .. } => {
                    assert_eq!(cells.len(), 3);
                    for c in &cells {
                        assert!(c.row < 1000 && c.attribute < 2);
                        assert!(c.bin < [6u32, 4][c.attribute]);
                    }
                }
                Request::Batch { queries, .. } => assert_eq!(queries.len(), 3),
                other => panic!("unexpected request {other:?}"),
            }
        }
        assert_eq!(kinds_seen.len(), 3, "uniform mix must produce all kinds");
    }

    #[test]
    fn mix_weights_respected() {
        assert_eq!(Mix::RECT.pick(7), "rect");
        assert_eq!(Mix::BATCH.pick(123), "batch");
        let m = Mix {
            rect: 1,
            cells: 1,
            batch: 0,
        };
        for h in 0..10 {
            assert_ne!(m.pick(h), "batch");
        }
    }

    #[test]
    #[should_panic(expected = "nonzero weight")]
    fn zero_mix_panics() {
        Mix {
            rect: 0,
            cells: 0,
            batch: 0,
        }
        .pick(1);
    }
}
