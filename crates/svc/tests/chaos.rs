//! Fault-injection (chaos) tests for the sharded query service.
//!
//! Every test runs its fault plan under each of a fixed set of seeds
//! ([`SEEDS`]) — the invariants asserted here must hold for *any*
//! seed:
//!
//! * injected shard panics, latency, and spurious overload never
//!   produce a false negative — the service's answers stay supersets
//!   of the exact oracle, degraded or not;
//! * deadline expiry and cancellation racing mid-flight queries
//!   return typed errors, never partial results;
//! * a corrupted index file fails its page checksums and is repaired
//!   shard-by-shard back to the same bytes and bit-identical answers.

use ab::{AbConfig, Level};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, BitmapIndex, Encoding, RectQuery};
use std::sync::Arc;
use std::time::Duration;
use svc::chaos::{points, Fault, FaultPlan, FaultRule};
use svc::{chaos, Service, ShardedIndex, SvcConfig, SvcError};

/// The fault plans' seeds; every test runs under each.
const SEEDS: [u64; 3] = [42, 1337, 99991];

/// How many requests the headline drill's overload rule may shed.
const OVERLOAD_FIRES: u64 = 8;

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

fn svc_cfg() -> SvcConfig {
    SvcConfig {
        threads: 4,
        shards: 6,
        ..SvcConfig::default()
    }
}

fn workload(n: usize) -> Vec<RectQuery> {
    (0..24)
        .map(|i| {
            let lo = (hashkit::splitmix64(i) % (n as u64 / 2)) as usize;
            let hi = n - 1 - (hashkit::splitmix64(i ^ 0xF00) % (n as u64 / 4)) as usize;
            RectQuery::new(
                vec![AttrRange::new(0, (i % 4) as u32, 4 + (i % 4) as u32)],
                lo,
                hi.max(lo),
            )
        })
        .collect()
}

/// The headline chaos drill: panics, latency, and spurious overload
/// injected together, driven by the seed. Whatever fires, every
/// answer the service returns must contain every exact-oracle row —
/// zero false negatives, degraded or not.
#[test]
fn injected_faults_never_cause_false_negatives() {
    for seed in SEEDS {
        let n = 1200;
        let t = table(n);
        let oracle = BitmapIndex::build(&t, Encoding::Equality);
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_rule(
                    FaultRule::new(points::SHARD_QUERY, Fault::Panic)
                        .one_in(5)
                        .max_fires(3),
                )
                .with_rule(
                    FaultRule::new(
                        points::SHARD_QUERY,
                        Fault::Latency(Duration::from_micros(200)),
                    )
                    .one_in(4),
                )
                .with_rule(
                    FaultRule::new(points::POOL_SUBMIT, Fault::Overloaded)
                        .one_in(6)
                        .max_fires(OVERLOAD_FIRES),
                ),
        );
        let svc = Service::build(&t, &ab_cfg(), &svc_cfg()).with_fault_plan(Arc::clone(&plan));
        let mut degraded_seen = 0usize;
        let mut shed = 0u64;
        for (i, q) in workload(n).iter().enumerate() {
            // Spurious overload is transient: the request is re-issued.
            // The rule's max_fires caps the supply, so this ends.
            let resp = loop {
                match svc.try_query_rect(q) {
                    Err(e) if e.is_transient() && shed < OVERLOAD_FIRES => shed += 1,
                    r => break r.expect("only the capped overload injection sheds"),
                }
            };
            if resp.is_degraded() {
                degraded_seen += 1;
            }
            let got = &resp.value;
            assert!(got.windows(2).all(|w| w[0] < w[1]), "merge unsorted");
            for row in oracle.evaluate_rows(q) {
                assert!(
                    got.contains(&row),
                    "false negative: row {row} lost from query {i} \
                 (seed {}, degraded: {:?})",
                    seed,
                    resp.degraded
                );
            }
        }
        // Whether any response degraded depends on the seed; the ledger
        // and the markers must agree either way.
        if svc.health().all_healthy() {
            assert_eq!(degraded_seen, 0);
        } else {
            assert!(degraded_seen > 0, "quarantined shards but no markers");
        }
    }
}

/// Injected latency pushes shard jobs past the request deadline: the
/// request fails typed, and no partial result leaks out.
#[test]
fn deadline_expiry_discards_partial_results_under_latency() {
    for seed in SEEDS {
        let n = 800;
        let t = table(n);
        let plan = Arc::new(FaultPlan::new(seed).with_rule(FaultRule::new(
            points::SHARD_QUERY,
            Fault::Latency(Duration::from_millis(80)),
        )));
        let svc = Service::build(&t, &ab_cfg(), &svc_cfg()).with_fault_plan(plan);
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 6)], 0, n - 1);
        // Every shard job sleeps 80ms; a 10ms deadline cannot be met.
        let ctx = svc::RequestCtx::new(svc::Deadline::within(Duration::from_millis(10)));
        let res = svc.try_query_rect_ctx(&q, &ctx);
        assert_eq!(res, Err(SvcError::DeadlineExceeded));
        // The service stays healthy afterwards: latency is not a panic,
        // nothing is quarantined, and an undeadlined query still answers.
        assert!(svc.health().all_healthy());
        assert!(svc.try_query_rect(&q).is_ok());
    }
}

/// Cancellation racing a mid-flight rect query (slowed by injected
/// latency so the race is deterministic) returns `Cancelled` — the
/// partial work already done is discarded, not merged.
#[test]
fn cancellation_races_mid_flight_queries() {
    for seed in SEEDS {
        let n = 800;
        let t = table(n);
        let plan = Arc::new(FaultPlan::new(seed).with_rule(FaultRule::new(
            points::SHARD_QUERY,
            Fault::Latency(Duration::from_millis(60)),
        )));
        let svc = Service::build(&t, &ab_cfg(), &svc_cfg()).with_fault_plan(plan);
        let ctx = svc::RequestCtx::new(svc::Deadline::none());
        let canceller = {
            let ctx = ctx.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(15));
                ctx.cancel();
            })
        };
        let q = RectQuery::new(vec![AttrRange::new(1, 0, 3)], 0, n - 1);
        let res = svc.try_query_rect_ctx(&q, &ctx);
        canceller.join().unwrap();
        assert_eq!(res, Err(SvcError::Cancelled));
        assert!(svc.health().all_healthy(), "cancellation is not a fault");
    }
}

/// The corruption round trip: seeded byte-flip in a store file →
/// `Store::open` fails with `PageCrc` → the audit implicates only the
/// damaged shard → repair rebuilds it from source data → the file is
/// byte-identical again and answers are bit-identical to the
/// uncorrupted index.
#[test]
fn corruption_detected_then_repaired_bit_identically() {
    const PAGE: usize = 64;
    let dir = std::env::temp_dir().join(format!("svc-chaos-rot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.abpg");
    for seed in SEEDS {
        let n = 900;
        let t = table(n);
        let idx = ShardedIndex::build(&t, &ab_cfg(), 5, false);
        let clean = idx.to_bytes();
        store::write(&path, &clean, PAGE as u32, &store::RealIo).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let at = store::Store::open(&path).unwrap().header().payload_offset() as usize;

        let plan = FaultPlan::new(seed).with_rule(FaultRule::new(
            points::IO_DECODE,
            Fault::FlipByte { xor: 0x10 },
        ));
        // Target the pages that hold segment 0's bytes alone, so the
        // flip is segment-local: the first payload page also holds the
        // envelope header, and the one where segment 0 ends also holds
        // segment 1's header, and damage there implicates every shard
        // after it.
        let e = ab::segment_extents(&clean).unwrap()[0];
        let pages = PAGE..(e.offset + e.len) / PAGE * PAGE;
        let mut bytes = pristine.clone();
        let flipped = chaos::corrupt(
            Some(&plan),
            points::IO_DECODE,
            &mut bytes[at + pages.start..at + pages.end],
        );
        assert!(flipped.is_some(), "corruption fault must fire");
        assert_ne!(bytes, pristine);
        std::fs::write(&path, &bytes).unwrap();

        assert!(matches!(
            store::Store::open(&path),
            Err(store::StoreError::PageCrc { .. })
        ));
        let (_, report, payload) = store::Store::audit(&path).unwrap();
        assert_eq!(
            report.bad_shards,
            vec![0],
            "exactly the corrupted shard rebuilds"
        );
        let repaired =
            ShardedIndex::from_bytes_with_repair(&payload, 5, &report.bad_shards, &t, &ab_cfg())
                .expect("segment-local damage must be repairable");
        for (a, b) in repaired.shards().iter().zip(idx.shards()) {
            for (x, y) in a.index().abs().iter().zip(b.index().abs()) {
                assert_eq!(x.bits(), y.bits(), "repair not bit-identical");
            }
        }
        // And the repaired index re-serializes to the clean bytes, so
        // the rewritten file is the pristine one.
        assert_eq!(repaired.to_bytes(), clean);
        store::write(&path, &repaired.to_bytes(), PAGE as u32, &store::RealIo).unwrap();
        assert!(std::fs::read(&path).unwrap() == pristine);

        for q in workload(n) {
            assert_eq!(
                repaired.execute_rect_sequential(&q).unwrap(),
                idx.execute_rect_sequential(&q).unwrap()
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Quarantine end-to-end: a panicking shard degrades responses until
/// repair (here: `ShardHealth::clear`), after which answers return to
/// bit-identical.
#[test]
fn quarantine_then_repair_restores_exact_answers() {
    for seed in SEEDS {
        let n = 600;
        let t = table(n);
        let plan = Arc::new(
            FaultPlan::new(seed).with_rule(
                FaultRule::new(points::SHARD_QUERY, Fault::Panic)
                    .on_shard(2)
                    .max_fires(1),
            ),
        );
        let svc = Service::build(&t, &ab_cfg(), &svc_cfg()).with_fault_plan(plan);
        let q = RectQuery::new(vec![AttrRange::new(0, 2, 5)], 0, n - 1);
        let reference = svc.index().execute_rect_sequential(&q).unwrap();

        let degraded = svc.try_query_rect(&q).unwrap();
        assert_eq!(
            degraded.degraded.as_ref().map(|d| d.shards.as_slice()),
            Some(&[2usize][..])
        );
        for row in &reference {
            assert!(degraded.value.contains(row));
        }
        assert!(svc.health().is_quarantined(2));

        svc.health().clear(2);
        let healthy = svc.try_query_rect(&q).unwrap();
        assert!(!healthy.is_degraded());
        assert_eq!(healthy.value, reference);
    }
}
