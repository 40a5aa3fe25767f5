//! Concurrency tests for the sharded query service.
//!
//! Run with `RUST_TEST_THREADS=8` in CI (the concurrency smoke step)
//! so the harness itself adds cross-test thread pressure.

use ab::{AbConfig, AbIndex, Level};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, BitmapIndex, Encoding, RectQuery};
use std::sync::Arc;
use std::time::Duration;
use svc::{Deadline, RequestCtx, Service, SvcConfig, SvcError};

fn table(n: usize) -> BinnedTable {
    BinnedTable::new(vec![
        BinnedColumn::new(
            "a",
            (0..n)
                .map(|i| (hashkit::splitmix64(i as u64) % 8) as u32)
                .collect(),
            8,
        ),
        BinnedColumn::new(
            "b",
            (0..n)
                .map(|i| (hashkit::splitmix64(i as u64 ^ 0xABCD) % 5) as u32)
                .collect(),
            5,
        ),
    ])
}

fn ab_cfg() -> AbConfig {
    AbConfig::new(Level::PerAttribute).with_alpha(8)
}

/// The acceptance contract: concurrent sharded execution returns
/// exactly what single-threaded execution over the same shard layout
/// returns, for every query shape — and with one shard, exactly what
/// the monolithic index returns.
#[test]
fn merge_is_bit_identical_to_single_threaded() {
    let t = table(2000);
    for shards in [1usize, 3, 8] {
        let svc = Service::build(
            &t,
            &ab_cfg(),
            &SvcConfig {
                threads: 4,
                shards,
                ..SvcConfig::default()
            },
        );
        let queries = [
            RectQuery::new(vec![AttrRange::new(0, 0, 3)], 0, 1999),
            RectQuery::new(
                vec![AttrRange::new(0, 2, 6), AttrRange::new(1, 1, 3)],
                17,
                1834,
            ),
            RectQuery::new(vec![AttrRange::new(1, 0, 0)], 900, 1100),
            RectQuery::new(vec![], 1999, 1999),
        ];
        for q in &queries {
            let concurrent = svc.try_query_rect(q).unwrap().value;
            let sequential = svc.index().execute_rect_sequential(q).unwrap();
            assert_eq!(concurrent, sequential, "shards={shards}, query={q:?}");
        }
        if shards == 1 {
            let mono = AbIndex::build(&t, &ab_cfg());
            for q in &queries {
                assert_eq!(svc.try_query_rect(q).unwrap().value, mono.execute_rect(q));
            }
        }
    }
}

/// Many threads hammering the same service concurrently must each see
/// the same answer the quiescent service gives.
#[test]
fn parallel_clients_get_identical_answers() {
    let t = table(1500);
    let svc = Arc::new(Service::build(
        &t,
        &ab_cfg(),
        &SvcConfig {
            threads: 4,
            shards: 6,
            queue_capacity: 1024,
            ..SvcConfig::default()
        },
    ));
    let q = RectQuery::new(
        vec![AttrRange::new(0, 1, 5), AttrRange::new(1, 0, 2)],
        50,
        1450,
    );
    let want = svc.try_query_rect(&q).unwrap().value;
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let q = q.clone();
            let want = want.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    assert_eq!(svc.try_query_rect(&q).unwrap().value, want);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// 100% recall through the concurrent path: the merged answer is a
/// superset of the exact bitmap answer.
#[test]
fn service_never_loses_true_matches() {
    let t = table(1200);
    let exact = BitmapIndex::build(&t, Encoding::Equality);
    let svc = Service::build(
        &t,
        &ab_cfg(),
        &SvcConfig {
            threads: 3,
            shards: 5,
            ..SvcConfig::default()
        },
    );
    let q = RectQuery::new(
        vec![AttrRange::new(0, 3, 7), AttrRange::new(1, 2, 4)],
        0,
        1199,
    );
    let got = svc.try_query_rect(&q).unwrap().value;
    for r in exact.evaluate_rows(&q) {
        assert!(got.contains(&r), "concurrent merge lost exact row {r}");
    }
}

/// A saturated single-slot queue sheds with a typed `Overloaded`
/// error instead of queueing unboundedly.
#[test]
fn overload_sheds_with_typed_error() {
    // One worker, one queue slot, and a query fanning out to many
    // shards over enough rows that the first shard job is still
    // running when the third is submitted.
    let svc = Service::build(
        &table(120_000),
        &ab_cfg(),
        &SvcConfig {
            threads: 1,
            shards: 8,
            queue_capacity: 1,
            ..SvcConfig::default()
        },
    );
    let q = RectQuery::new(
        vec![AttrRange::new(0, 0, 6), AttrRange::new(1, 0, 3)],
        0,
        119_999,
    );
    match svc.try_query_rect(&q) {
        Err(SvcError::Overloaded { capacity, .. }) => assert_eq!(capacity, 1),
        other => panic!("expected Overloaded, got {other:?}"),
    }
}

/// An impossible deadline fails with `DeadlineExceeded`, and the
/// service keeps answering afterwards (cancelled work is reaped).
#[test]
fn deadline_miss_then_recovery() {
    let svc = Service::build(
        &table(50_000),
        &ab_cfg(),
        &SvcConfig {
            threads: 2,
            shards: 4,
            ..SvcConfig::default()
        },
    );
    let q = RectQuery::new(vec![AttrRange::new(0, 0, 7)], 0, 49_999);
    assert_eq!(
        svc.try_query_rect_ctx(
            &q,
            &RequestCtx::new(Deadline::within(Duration::from_nanos(1)))
        ),
        Err(SvcError::DeadlineExceeded)
    );
    // Unbounded retry succeeds and still matches the reference.
    assert_eq!(
        svc.try_query_rect(&q).unwrap().value,
        svc.index().execute_rect_sequential(&q).unwrap()
    );
}

/// Mid-flight cancellation from another thread aborts the request.
#[test]
fn cancellation_aborts_in_flight_request() {
    let svc = Arc::new(Service::build(
        &table(100_000),
        &ab_cfg(),
        &SvcConfig {
            threads: 2,
            shards: 4,
            ..SvcConfig::default()
        },
    ));
    let ctx = RequestCtx::new(Deadline::none());
    let canceller = ctx.clone();
    let h = std::thread::spawn(move || canceller.cancel());
    let q = RectQuery::new(
        vec![AttrRange::new(0, 0, 7), AttrRange::new(1, 0, 4)],
        0,
        99_999,
    );
    let res = svc.try_query_rect_ctx(&q, &ctx);
    h.join().unwrap();
    // Depending on timing the request either finished first or was
    // cancelled — both are valid; anything else is a bug.
    match res {
        Ok(r) => assert_eq!(r.value, svc.index().execute_rect_sequential(&q).unwrap()),
        Err(SvcError::Cancelled) => {}
        other => panic!("unexpected result: {other:?}"),
    }
}

/// Batched queries under cross-thread pressure match their solo runs.
#[test]
fn batched_queries_match_solo_under_load() {
    let t = table(800);
    let svc = Arc::new(Service::build(
        &t,
        &ab_cfg(),
        &SvcConfig {
            threads: 4,
            shards: 4,
            queue_capacity: 512,
            ..SvcConfig::default()
        },
    ));
    let batch: Vec<RectQuery> = (0..6)
        .map(|i| RectQuery::new(vec![AttrRange::new(i % 2, 0, 3)], i * 100, 700 + i * 10))
        .collect();
    let solo: Vec<Vec<usize>> = batch
        .iter()
        .map(|q| svc.try_query_rect(q).unwrap().value)
        .collect();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let batch = batch.clone();
            let solo = solo.clone();
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let ctx = RequestCtx::new(Deadline::none());
                    assert_eq!(svc.try_query_batch_ctx(&batch, &ctx).unwrap().value, solo);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
