//! End-to-end integration: data generation → binning → exact / WAH /
//! AB indexes → sampled queries → precision and pruning, on reduced-
//! scale versions of all three paper data sets.

use ab::{AbConfig, AbIndex, Level, PrecisionStats};
use bitmap::{BitmapIndex, Encoding};
use datagen::{Dataset, QueryGenParams};
use wah::WahIndex;

fn check_dataset(ds: Dataset, level: Level, alpha: u64) {
    let exact = BitmapIndex::build(&ds.binned, Encoding::Equality);
    let wah = WahIndex::build(&ds.binned);
    let ab_idx = AbIndex::build(&ds.binned, &AbConfig::new(level).with_alpha(alpha));

    let params = QueryGenParams::paper_default(&ds.binned, ds.rows() / 20, 17);
    let queries = datagen::generate(&ds.binned, &params);

    let mut precision_sum = 0.0;
    for q in queries.iter().take(30) {
        let want = exact.evaluate_rows(q);
        assert!(!want.is_empty(), "query generator must anchor a match");

        // WAH agrees with the exact index bit for bit.
        assert_eq!(wah.evaluate_rows(q), want, "WAH diverged from exact");

        // AB: full recall, bounded imprecision.
        let approx = ab_idx.execute_rect(q);
        let stats = PrecisionStats::compare(&approx, &want);
        assert_eq!(stats.false_negatives, 0, "AB false negative on {}", ds.name);
        precision_sum += stats.precision();

        // Second-step pruning restores exactness.
        let pruned = ab::prune_false_positives(&exact, q, &approx);
        assert_eq!(pruned, want, "pruning failed on {}", ds.name);
    }
    let mean = precision_sum / 30.0;
    assert!(
        mean > 0.5,
        "{} at alpha={alpha}, {level}: mean precision {mean:.3} too low",
        ds.name
    );
}

#[test]
fn uniform_per_column_pipeline() {
    check_dataset(datagen::uniform_dataset(0.01, 1), Level::PerColumn, 16);
}

#[test]
fn uniform_per_dataset_pipeline() {
    check_dataset(datagen::uniform_dataset(0.01, 2), Level::PerDataset, 16);
}

#[test]
fn landsat_per_dataset_pipeline() {
    check_dataset(datagen::landsat_like(0.005, 3), Level::PerDataset, 8);
}

#[test]
fn hep_per_attribute_pipeline() {
    check_dataset(datagen::hep_like(0.002, 4), Level::PerAttribute, 8);
}

#[test]
fn precision_improves_with_alpha_across_stack() {
    let ds = datagen::uniform_dataset(0.01, 5);
    let exact = BitmapIndex::build(&ds.binned, Encoding::Equality);
    let params = QueryGenParams::paper_default(&ds.binned, ds.rows() / 10, 6);
    let queries = datagen::generate(&ds.binned, &params);

    let measure = |alpha: u64| {
        let idx = AbIndex::build(
            &ds.binned,
            &AbConfig::new(Level::PerAttribute).with_alpha(alpha),
        );
        let mut total = 0.0;
        for q in queries.iter().take(20) {
            let stats = PrecisionStats::compare(&idx.execute_rect(q), &exact.evaluate_rows(q));
            assert_eq!(stats.false_negatives, 0);
            total += stats.precision();
        }
        total / 20.0
    };
    let (p2, p8, p32) = (measure(2), measure(8), measure(32));
    assert!(p2 <= p8 + 0.05 && p8 <= p32 + 0.05, "{p2} {p8} {p32}");
    assert!(p32 > 0.95, "alpha=32 should be nearly exact, got {p32}");
}

#[test]
fn ab_probe_count_linear_wah_flat() {
    // The Figure 14 cost model, asserted on operation counts instead
    // of wall time: AB probes grow linearly with the rows queried,
    // while the WAH plan's input size (compressed words) is constant.
    let ds = datagen::uniform_dataset(0.02, 7);
    let ab_idx = AbIndex::build(&ds.binned, &AbConfig::new(Level::PerColumn).with_alpha(16));
    let mut probes = Vec::new();
    for rows in [100usize, 200, 400] {
        let params = QueryGenParams::paper_default(&ds.binned, rows, 8);
        let queries = datagen::generate(&ds.binned, &params);
        let total: usize = queries
            .iter()
            .take(20)
            .map(|q| {
                let (_, stats) = ab_idx
                    .try_execute_rect_with_stats_opts(q, ab::KernelOpts::default())
                    .unwrap();
                stats.cells_probed
            })
            .sum();
        probes.push(total);
    }
    // Doubling the rows roughly doubles the probes (within 40%).
    let r1 = probes[1] as f64 / probes[0] as f64;
    let r2 = probes[2] as f64 / probes[1] as f64;
    assert!((1.6..=2.4).contains(&r1), "probe growth {r1}");
    assert!((1.6..=2.4).contains(&r2), "probe growth {r2}");
}

#[test]
fn serialized_index_queries_identically() {
    let ds = datagen::hep_like(0.001, 9);
    let idx = AbIndex::build(&ds.binned, &AbConfig::new(Level::PerDataset).with_alpha(8));
    let restored = ab::from_bytes(&ab::to_bytes(&idx)).expect("roundtrip");
    let params = QueryGenParams::paper_default(&ds.binned, 200, 10);
    for q in datagen::generate(&ds.binned, &params).iter().take(10) {
        assert_eq!(idx.execute_rect(q), restored.execute_rect(q));
    }
}
