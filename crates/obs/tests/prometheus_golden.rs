//! Golden-file test for the Prometheus text exposition.
//!
//! The exact bytes a scraper sees are the contract: HELP/TYPE lines,
//! cumulative `le` buckets, summary quantiles, and deterministic
//! collision suffixes. Run with `UPDATE_GOLDEN=1` to re-bless after an
//! intentional format change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p obs --test prometheus_golden
//! ```

use obs::Registry;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exposition.prom")
}

/// A snapshot with every metric family, chosen so all derived values
/// (bucket uppers, quantiles, means) are exactly reproducible —
/// including the `kernel.batches` vs `kernel_batches` sanitization
/// collision.
fn sample() -> obs::Snapshot {
    let r = Registry::new();
    r.counter("ab.query.cells_probed").add(1234);
    r.counter("kernel.batches").add(7);
    r.counter("kernel_batches").add(8);
    let h = r.histogram("svc.request_us");
    for v in [1, 5, 5, 700, 90_000] {
        h.record(v);
    }
    let s = r.sketch("svc.latency_us.rect");
    for v in 1..=1000u64 {
        s.record(v);
    }
    r.snapshot()
}

#[test]
fn exposition_matches_golden_file() {
    let actual = sample().to_prometheus();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "Prometheus exposition drifted from {} — if intentional, \
         re-bless with UPDATE_GOLDEN=1",
        path.display()
    );
}

#[test]
fn exposition_is_scrapable() {
    // Structural rules a real scraper enforces, independent of the
    // golden bytes: unique series, valid names, cumulative buckets.
    let text = sample().to_prometheus();
    let mut seen = std::collections::BTreeSet::new();
    let mut last_bucket: Option<(String, u64)> = None;
    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition");
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let base = series.split('{').next().unwrap();
        assert!(
            base.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_'),
            "bad metric name start: {base}"
        );
        assert!(
            base.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name char: {base}"
        );
        assert!(
            seen.insert(series.to_string()),
            "duplicate series: {series}"
        );
        if let Some(le) = series.strip_suffix("\"}").and_then(|s| {
            s.split_once("_bucket{le=\"")
                .map(|(n, le)| (n.to_string(), le))
        }) {
            let count: u64 = value.parse().expect("bucket count");
            if let Some((prev_name, prev_count)) = &last_bucket {
                if *prev_name == le.0 {
                    assert!(count >= *prev_count, "non-cumulative buckets for {}", le.0);
                }
            }
            last_bucket = Some((le.0, count));
        }
    }
}
