//! Request-scoped tracing under real concurrency: every request must
//! yield exactly one complete, well-nested span tree in the flight
//! recorder — across 8 worker threads, with chaos faults panicking a
//! shard mid-request.

use ab::{AbConfig, Cell, HybridConfig, HybridMode, Level};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
use std::sync::Arc;
use svc::chaos::{points, Fault, FaultPlan, FaultRule};
use svc::{Deadline, RequestCtx, Service, SvcConfig};

const ROWS: usize = 4096;

fn table() -> BinnedTable {
    BinnedTable::new(vec![
        BinnedColumn::new("a", (0..ROWS).map(|i| (i % 8) as u32).collect(), 8),
        BinnedColumn::new("b", (0..ROWS).map(|i| (i / 7 % 5) as u32).collect(), 5),
    ])
}

fn config() -> SvcConfig {
    SvcConfig {
        threads: 8,
        shards: 8,
        ..SvcConfig::default()
    }
}

fn rect(lo: usize, hi: usize) -> RectQuery {
    RectQuery::new(vec![AttrRange::new(0, 2, 6)], lo, hi)
}

/// Walks one trace and checks structural integrity: exactly one root,
/// every parent resolvable, every child's interval inside its
/// parent's.
fn assert_well_formed(t: &obs::Trace) {
    assert_eq!(t.dropped_spans, 0, "trace {} dropped spans", t.trace_id);
    let roots: Vec<_> = t.spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(
        roots.len(),
        1,
        "trace {} must have exactly one root, got {:?}",
        t.trace_id,
        roots.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    assert_eq!(roots[0].name, "svc.request");
    let by_id: std::collections::BTreeMap<u64, &obs::SpanRecord> =
        t.spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), t.spans.len(), "duplicate span ids");
    for s in &t.spans {
        if s.parent == 0 {
            continue;
        }
        let p = by_id.get(&s.parent).unwrap_or_else(|| {
            panic!(
                "span {} ({}) orphaned in trace {}",
                s.id, s.name, t.trace_id
            )
        });
        assert!(
            s.start_us >= p.start_us && s.end_us <= p.end_us,
            "span {} [{}, {}] escapes parent {} [{}, {}] in trace {}",
            s.name,
            s.start_us,
            s.end_us,
            p.name,
            p.start_us,
            p.end_us,
            t.trace_id
        );
    }
}

#[test]
fn one_complete_span_tree_per_request_across_threads_with_chaos() {
    // Shard 3 panics once: that request must still produce a complete
    // trace with the panicked shard job annotated and the request
    // degraded.
    let plan = Arc::new(
        FaultPlan::new(42).with_rule(
            FaultRule::new(points::SHARD_QUERY, Fault::Panic)
                .on_shard(3)
                .max_fires(1),
        ),
    );
    let svc = Service::build(
        &table(),
        &AbConfig::new(Level::PerAttribute).with_alpha(16),
        &config(),
    )
    .with_fault_plan(plan);

    obs::recorder().clear();
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 4;
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let svc = &svc;
            s.spawn(move || {
                for i in 0..PER_CLIENT {
                    let lo = (c * 131 + i * 17) % (ROWS / 2);
                    svc.try_query_rect(&rect(lo, ROWS - 1)).unwrap();
                }
            });
        }
    });

    let traces = obs::recorder().traces();
    assert_eq!(
        obs::recorder().recorded(),
        (CLIENTS * PER_CLIENT) as u64,
        "every request records exactly one trace"
    );
    assert_eq!(traces.len(), CLIENTS * PER_CLIENT);
    let mut saw_panicked = false;
    let mut saw_degraded_merge = false;
    for t in &traces {
        assert_well_formed(t);
        assert_eq!(t.kind, "rect");
        // Cross-thread handoff: shard jobs ran on pool threads yet
        // hang off this trace's root; kernel stages hang off shards.
        let shard_spans: Vec<_> = t.spans.iter().filter(|s| s.name == "svc.shard").collect();
        assert!(
            !shard_spans.is_empty(),
            "trace {} has no shard spans",
            t.trace_id
        );
        let kernel_spans = t
            .spans
            .iter()
            .filter(|s| s.name.starts_with("ab.kernel."))
            .count();
        assert!(kernel_spans > 0, "trace {} has no kernel spans", t.trace_id);
        assert!(t.spans.iter().any(|s| s.name == "svc.admit"));
        assert!(t.spans.iter().any(|s| s.name == "svc.merge"));
        for sp in &shard_spans {
            let outcome = sp
                .annotations
                .iter()
                .find(|(k, _)| k == "outcome")
                .unwrap_or_else(|| panic!("shard span without outcome in {}", t.trace_id));
            if outcome.1 == obs::AnnValue::Str("panicked".into()) {
                saw_panicked = true;
            }
        }
        if t.spans.iter().any(|s| {
            s.name == "svc.merge" && s.annotations.iter().any(|(k, _)| k == "degraded_shards")
        }) {
            saw_degraded_merge = true;
        }
    }
    assert!(saw_panicked, "the injected panic never showed in a trace");
    assert!(
        saw_degraded_merge,
        "no trace recorded a degraded merge despite the quarantine"
    );
}

#[test]
fn caller_owned_trace_collects_every_request_on_it() {
    // With a caller-owned trace, the service records request spans but
    // leaves finishing to the caller — so several requests (here three
    // against an always-overloaded pool) share one trace.
    let svc = Service::build(
        &table(),
        &AbConfig::new(Level::PerAttribute).with_alpha(16),
        &config(),
    )
    .with_fault_plan(Arc::new(
        FaultPlan::new(7).with_rule(FaultRule::new(points::POOL_SUBMIT, Fault::Overloaded)),
    ));
    let trace = obs::TraceCtx::start("rect");
    for _request in 0..3 {
        // A failed request cancels its RequestCtx, so each request
        // gets a fresh ctx carrying the same trace.
        let ctx = RequestCtx::traced(Deadline::none(), trace.clone());
        let out = svc.try_query_rect_ctx(&rect(0, ROWS - 1), &ctx);
        assert!(out.is_err(), "submission is always shed");
    }
    let t = trace.finish().expect("caller finishes the trace");
    let requests = t.spans.iter().filter(|s| s.name == "svc.request").count();
    assert_eq!(requests, 3, "each request is a root-level request span");
    for s in t.spans.iter().filter(|s| s.name == "svc.request") {
        assert!(s
            .annotations
            .contains(&("error".to_string(), obs::AnnValue::Str("overloaded".into()))));
    }
}

/// The three kinds take one request path, so their traces are one
/// shape: `svc.request → svc.admit, svc.shard × fan-out |
/// svc.quarantined, svc.merge`, every child hanging directly off the
/// root, with one shard already quarantined and seven answering.
#[test]
fn every_kind_records_the_same_span_tree() {
    let svc = Service::build(
        &table(),
        &AbConfig::new(Level::PerAttribute).with_alpha(16),
        &SvcConfig {
            trace_requests: false,
            ..config()
        },
    );
    svc.health().quarantine(5);
    let cells: Vec<Cell> = (0..ROWS).step_by(3).map(|r| Cell::new(r, 0, 2)).collect();
    let rects = [rect(0, ROWS - 1), rect(ROWS / 2, ROWS - 1)];
    // Children of the `svc.request` root, by name, in start order of
    // their kind (shard jobs start whenever a worker picks them up).
    let shape = |kind: &'static str, answers_degraded: &dyn Fn(&RequestCtx) -> bool| {
        let trace = obs::TraceCtx::start(kind);
        let ctx = RequestCtx::traced(Deadline::none(), trace.clone());
        assert!(answers_degraded(&ctx), "{kind}: shard 5 is quarantined");
        let t = trace.finish().unwrap();
        let root = t.spans.iter().find(|s| s.parent == 0).unwrap();
        assert_eq!(root.name, "svc.request", "{kind}");
        let mut children: Vec<String> = t
            .spans
            .iter()
            .filter(|s| s.parent == root.id)
            .map(|s| s.name.to_string())
            .collect();
        children.sort_unstable();
        children
    };
    let mut want = vec!["svc.admit", "svc.merge", "svc.quarantined"];
    want.extend(["svc.shard"; 7]);
    type Ask<'a> = &'a dyn Fn(&RequestCtx) -> bool;
    let kinds: [(&'static str, Ask); 3] = [
        ("rect", &|ctx| {
            let r = svc.try_query_rect_ctx(&rects[0], ctx);
            r.unwrap().is_degraded()
        }),
        ("cells", &|ctx| {
            let r = svc.try_retrieve_cells_ctx(&cells, ctx);
            r.unwrap().is_degraded()
        }),
        ("batch", &|ctx| {
            let r = svc.try_query_batch_ctx(&rects, ctx);
            r.unwrap().is_degraded()
        }),
    ];
    for (kind, answers_degraded) in kinds {
        assert_eq!(shape(kind, answers_degraded), want, "{kind}");
    }
}

#[test]
fn service_owned_traces_can_be_disabled() {
    let svc = Service::build(
        &table(),
        &AbConfig::new(Level::PerAttribute).with_alpha(16),
        &SvcConfig {
            trace_requests: false,
            ..config()
        },
    );
    // Caller-owned traces still work even when automatic ones are off.
    let trace = obs::TraceCtx::start("rect");
    let ctx = RequestCtx::traced(Deadline::none(), trace.clone());
    svc.try_query_rect_ctx(&rect(0, ROWS - 1), &ctx).unwrap();
    let t = trace.finish().unwrap();
    assert!(t.spans.iter().any(|s| s.name == "svc.shard"));
}

/// The `stages` and `tier` annotations of a trace's `svc.shard` spans,
/// in span order.
fn staging(t: &obs::Trace) -> Vec<(obs::AnnValue, obs::AnnValue)> {
    let shard_spans = t.spans.iter().filter(|s| s.name == "svc.shard");
    shard_spans
        .map(|s| {
            let ann = |key| s.annotations.iter().find(|(k, _)| k == key);
            let (stages, tier) = (ann("stages").unwrap(), ann("tier").unwrap());
            (stages.1.clone(), tier.1.clone())
        })
        .collect()
}

/// A traced rect job says how its parts were staged: one stage a
/// container where the shard's exact tier answers alone, one per
/// `CHUNK_ROWS` rows where the AB is probed, `mixed` when the parts of
/// a batch disagree. An untraced job builds no annotation at all.
#[test]
fn shard_spans_carry_stages_and_tier() {
    let two_shards = |hybrid| {
        let cfg = SvcConfig {
            threads: 2,
            shards: 2,
            trace_requests: false,
            hybrid,
            hybrid_config: HybridConfig {
                min_density: 0.0,
                ..HybridConfig::default()
            },
            ..SvcConfig::default()
        };
        Service::build(
            &table(),
            &AbConfig::new(Level::PerAttribute).with_alpha(16),
            &cfg,
        )
    };
    let traced = |svc: &Service, queries: &[RectQuery]| {
        let trace = obs::TraceCtx::start("batch");
        let ctx = RequestCtx::traced(Deadline::none(), trace.clone());
        svc.try_query_batch_ctx(queries, &ctx).unwrap();
        staging(&trace.finish().unwrap())
    };
    let per_shard = |stages: u64, tier: &str| {
        let one = (obs::AnnValue::U64(stages), obs::AnnValue::Str(tier.into()));
        vec![one.clone(), one]
    };
    let whole = rect(0, ROWS - 1);
    // 2 048 rows a shard: one container, or four 512-row stages.
    let backed = two_shards(HybridMode::Auto);
    assert_eq!(
        traced(&backed, std::slice::from_ref(&whole)),
        per_shard(1, "exact")
    );
    let probed = two_shards(HybridMode::Off);
    assert_eq!(
        traced(&probed, std::slice::from_ref(&whole)),
        per_shard(4, "ab")
    );
    // A rectangle with no range has nothing for the tier to answer.
    let unconstrained = RectQuery::new(vec![], 0, ROWS - 1);
    assert_eq!(
        traced(&backed, &[whole.clone(), unconstrained]),
        per_shard(5, "mixed")
    );

    // The span an untraced request hands its shard jobs is disabled,
    // and a disabled span drops an annotation without building it.
    struct Tripwire;
    impl From<Tripwire> for obs::AnnValue {
        fn from(_: Tripwire) -> Self {
            panic!("an untraced request built an annotation value")
        }
    }
    let untraced = RequestCtx::new(Deadline::none());
    backed.try_query_rect_ctx(&whole, &untraced).unwrap();
    let mut span = untraced.trace().span_under(0, "svc.shard");
    assert!(!span.enabled());
    span.annotate("tier", Tripwire);
}
