//! End-to-end observability checks: the global registry's `ab.query.*`
//! totals agree exactly with the per-query [`ab::QueryStats`] sums, and
//! the exporters emit every registered metric.
//!
//! The registry is process-global, so the counter-delta test below is
//! the only test in this binary that executes AB queries — keeping the
//! deltas attributable under the parallel test runner.

/// `ab.query.*` counters are flushed once per query from the same
/// computed values that fill `QueryStats`, so registry deltas must
/// equal the summed stats exactly (the ISSUE's acceptance check).
#[test]
fn registry_matches_summed_query_stats() {
    let ds = datagen::small_uniform(2_000, 2, 10, 77);
    let idx = ab::AbIndex::build(
        &ds.binned,
        &ab::AbConfig::new(ab::Level::PerColumn).with_alpha(16),
    );
    let params = datagen::QueryGenParams::paper_default(&ds.binned, 200, 9);
    let queries = datagen::generate(&ds.binned, &params);

    let probes = obs::global().counter("ab.query.cells_probed");
    let bits = obs::global().counter("ab.query.bits_read");
    let rows = obs::global().counter("ab.query.rows_matched");
    let executed = obs::global().counter("ab.query.executed");
    let before = (probes.get(), bits.get(), rows.get(), executed.get());

    let mut sum = ab::QueryStats::default();
    for q in &queries {
        let (_, stats) = idx
            .try_execute_rect_with_stats_opts(q, ab::KernelOpts::default())
            .unwrap();
        sum.cells_probed += stats.cells_probed;
        sum.bits_read += stats.bits_read;
        sum.rows_matched += stats.rows_matched;
    }

    assert_eq!(probes.get() - before.0, sum.cells_probed as u64);
    assert_eq!(bits.get() - before.1, sum.bits_read as u64);
    assert_eq!(rows.get() - before.2, sum.rows_matched as u64);
    assert_eq!(executed.get() - before.3, queries.len() as u64);

    // The snapshot carries the same totals.
    let snap = obs::global().snapshot();
    assert!(snap.counter("ab.query.cells_probed") >= sum.cells_probed as u64);
}

/// The exporter covers counters and histograms.
#[test]
fn exporters_cover_registered_metrics() {
    obs::counter!("obs_it.counter").add(3);
    obs::histogram!("obs_it.latency_us").record(1_000);
    {
        let _g = obs::span("obs_it.span_us");
        assert!(obs::active_spans().contains(&"obs_it.span_us"));
    }
    let prom = obs::global().snapshot().to_prometheus();
    assert!(prom.contains("obs_it_counter"));
    assert!(prom.contains("obs_it_latency_us_bucket"));
    assert!(prom.contains("le=\"+Inf\""));
}

/// Typed rejection: out-of-range queries return `QueryError` through
/// the `try_` API and the panicking wrapper still says "out of range".
#[test]
fn typed_errors_round_trip() {
    let ds = datagen::small_uniform(500, 2, 10, 3);
    let idx = ab::AbIndex::build(
        &ds.binned,
        &ab::AbConfig::new(ab::Level::PerAttribute).with_alpha(8),
    );
    let bad = bitmap::RectQuery::new(vec![bitmap::AttrRange::new(0, 0, 4)], 0, 5_000);
    match idx.try_execute_rect_with_opts(&bad, ab::KernelOpts::default()) {
        Err(ab::QueryError::RowOutOfRange { row, num_rows }) => {
            assert_eq!((row, num_rows), (5_000, 500));
        }
        other => panic!("expected RowOutOfRange, got {other:?}"),
    }
    let err = idx
        .try_execute_rect_with_opts(&bad, ab::KernelOpts::default())
        .unwrap_err();
    assert!(err.to_string().contains("out of range"));
}
