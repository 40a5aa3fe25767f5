//! Shared experiment harness for the repro binaries.
//!
//! Everything here operationalizes the paper's experimental framework
//! (§5): prepare the three data sets, build the WAH baseline and AB
//! indexes, generate sampled queries, and measure precision and
//! execution time. The per-experiment mapping lives in DESIGN.md; the
//! measured-vs-published record lives in EXPERIMENTS.md.

use ab::{AbConfig, AbIndex, Level, PrecisionStats};
use bitmap::{BitmapIndex, Encoding, RectQuery};
use datagen::{Dataset, QueryGenParams};
use std::time::Instant;
use wah::WahIndex;

pub mod cli;

/// The α at which each data set's AB is "smaller than or comparable to
/// WAH" (paper §6.1): uniform 16 (per column), HEP 8, Landsat 8.
pub fn paper_alpha(name: &str) -> u64 {
    match name {
        "uniform" => 16,
        "landsat" | "hep" => 8,
        _ => 8,
    }
}

/// The level used in each data set's headline experiments, chosen so
/// the AB stays "less than or comparable to" the WAH size (§6.1):
/// per-column for uniform (half of WAH), per-attribute for Landsat
/// (31.4 MB vs WAH's 30.1 MB), per-dataset for HEP ("one third more").
pub fn paper_level(name: &str) -> Level {
    match name {
        "uniform" => Level::PerColumn,
        "landsat" => Level::PerAttribute,
        _ => Level::PerDataset,
    }
}

/// A fully prepared experimental subject: data + both index families.
pub struct Bundle {
    /// The generated data set.
    pub ds: Dataset,
    /// Exact (uncompressed) equality index — ground truth and pruning.
    pub exact: BitmapIndex,
    /// WAH-compressed baseline index.
    pub wah: WahIndex,
}

impl Bundle {
    /// Generates and indexes one data set.
    pub fn new(ds: Dataset) -> Self {
        let exact = BitmapIndex::build(&ds.binned, Encoding::Equality);
        let wah = WahIndex::build(&ds.binned);
        Bundle { ds, exact, wah }
    }

    /// All three paper data sets at `scale`.
    pub fn paper_bundles(scale: f64, seed: u64) -> Vec<Bundle> {
        datagen::paper_datasets(scale, seed)
            .into_iter()
            .map(Bundle::new)
            .collect()
    }

    /// Builds an AB index over this bundle's data.
    pub fn ab(&self, config: &AbConfig) -> AbIndex {
        AbIndex::build(&self.ds.binned, config)
    }

    /// The paper's default AB for this data set.
    pub fn paper_ab(&self) -> AbIndex {
        self.ab(&AbConfig::new(paper_level(&self.ds.name)).with_alpha(paper_alpha(&self.ds.name)))
    }

    /// Sampled queries targeting `rows` rows (§5.4 workhorse shape).
    pub fn queries(&self, rows: usize, seed: u64) -> Vec<RectQuery> {
        let params = QueryGenParams::paper_default(&self.ds.binned, rows.min(self.ds.rows()), seed);
        datagen::generate(&self.ds.binned, &params)
    }
}

/// Mean precision of the AB over a query batch, with recall checked to
/// be exactly 1 (the no-false-negative guarantee).
pub fn mean_precision(ab: &AbIndex, exact: &BitmapIndex, queries: &[RectQuery]) -> f64 {
    assert!(!queries.is_empty());
    let mut total = 0.0;
    for q in queries {
        let approx = ab.execute_rect(q);
        let want = exact.evaluate_rows(q);
        let stats = PrecisionStats::compare(&approx, &want);
        assert_eq!(
            stats.false_negatives, 0,
            "AB produced a false negative — invariant broken"
        );
        total += stats.precision();
    }
    total / queries.len() as f64
}

/// Mean tuples returned per query by the exact index and by the AB —
/// the "WAH returned X tuples, AB returned Y" numbers of §6.2.
pub fn mean_tuples(ab: &AbIndex, exact: &BitmapIndex, queries: &[RectQuery]) -> (f64, f64) {
    let mut ab_total = 0usize;
    let mut exact_total = 0usize;
    for q in queries {
        ab_total += ab.execute_rect(q).len();
        exact_total += exact.evaluate_rows(q).len();
    }
    (
        exact_total as f64 / queries.len() as f64,
        ab_total as f64 / queries.len() as f64,
    )
}

/// Mean per-query AB execution time (ms) over a batch.
pub fn ab_query_time_ms(ab: &AbIndex, queries: &[RectQuery]) -> f64 {
    let start = Instant::now();
    for q in queries {
        std::hint::black_box(ab.execute_rect(q));
    }
    start.elapsed().as_secs_f64() * 1e3 / queries.len() as f64
}

/// Mean per-query WAH execution time (ms). Matches the paper's
/// measurement: "only the time it takes to execute the query without
/// any row filtering" — the OR/AND plan over full columns — which is
/// why WAH time is flat in the number of rows queried.
pub fn wah_query_time_ms(wah: &WahIndex, queries: &[RectQuery]) -> f64 {
    let start = Instant::now();
    for q in queries {
        // Full-column plan: drop the row mask, as the paper measures.
        let full = RectQuery::new(q.ranges.clone(), 0, wah.num_rows() - 1);
        std::hint::black_box(wah.evaluate(&full));
    }
    start.elapsed().as_secs_f64() * 1e3 / queries.len() as f64
}

/// Formats a row-aligned ASCII table (plain `println!` output so the
/// repro binaries' stdout diffs cleanly against EXPERIMENTS.md).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Byte count with thousands separators (paper tables print raw byte
/// counts).
pub fn fmt_bytes(b: u64) -> String {
    let s = b.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_groups_digits() {
        assert_eq!(fmt_bytes(0), "0");
        assert_eq!(fmt_bytes(999), "999");
        assert_eq!(fmt_bytes(1000), "1,000");
        assert_eq!(fmt_bytes(16_527_900), "16,527,900");
    }

    #[test]
    fn bundle_end_to_end_small() {
        let ds = datagen::small_uniform(2000, 2, 10, 7);
        let b = Bundle::new(ds);
        let ab = b.ab(&AbConfig::new(Level::PerAttribute).with_alpha(8));
        let queries = b.queries(200, 3);
        let p = mean_precision(&ab, &b.exact, &queries);
        assert!(p > 0.5 && p <= 1.0, "precision {p}");
        let (exact_t, ab_t) = mean_tuples(&ab, &b.exact, &queries);
        assert!(ab_t >= exact_t, "AB returns a superset on average");
    }

    #[test]
    fn wah_and_exact_agree() {
        let ds = datagen::small_uniform(3000, 2, 8, 9);
        let b = Bundle::new(ds);
        for q in b.queries(300, 4).iter().take(20) {
            assert_eq!(b.wah.evaluate_rows(q), b.exact.evaluate_rows(q));
        }
    }

    #[test]
    fn paper_parameters() {
        assert_eq!(paper_alpha("uniform"), 16);
        assert_eq!(paper_alpha("hep"), 8);
        assert_eq!(paper_level("uniform"), Level::PerColumn);
        assert_eq!(paper_level("landsat"), Level::PerAttribute);
        assert_eq!(paper_level("hep"), Level::PerDataset);
    }

    #[test]
    fn timing_helpers_return_positive() {
        let ds = datagen::small_uniform(1000, 2, 8, 1);
        let b = Bundle::new(ds);
        let ab = b.paper_ab();
        let queries = b.queries(100, 5);
        assert!(ab_query_time_ms(&ab, &queries[..5]) >= 0.0);
        assert!(wah_query_time_ms(&b.wah, &queries[..5]) >= 0.0);
    }
}
