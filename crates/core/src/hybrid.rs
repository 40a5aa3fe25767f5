//! Hybrid exact tier: planner-calibrated Roaring-backed hot bins in
//! front of the AB (DESIGN.md §19).
//!
//! The AB trades false positives for direct access, but §10's cost
//! model already admits that per-(attribute, bin) densities vary
//! wildly. For a hot, low-cardinality bin an *exact* container is both
//! smaller and strictly faster: every false-positive row the AB admits
//! must be verified downstream, while a Roaring container answers the
//! same cell test exactly in O(log) — zero hash probes, zero false
//! positives. [`HybridAb`] holds an optional exact backing per
//! (attribute, bin), chosen by a calibrated split decision:
//!
//! > back the bin exactly iff its observed density ≥ `min_density`
//! > and the AB's expected per-row cost (k probe bits weighted by
//! > density, plus the false-positive rate × downstream verification
//! > cost) exceeds the exact container's lookup cost.
//!
//! Every decision lands in the `planner.split.exact` /
//! `planner.split.ab` counters.
//!
//! A backed bin stores one container, its truth E = {rows whose value
//! falls in the bin}, read straight off the table's column: the build
//! issues no hash call, and a damaged container rebuilds bit-identically
//! from the table alone.

use crate::level::AbIndex;
use bitmap::{BinnedTable, RectQuery};
use roar::RoaringBitmap;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Cost of answering one row from an exact Roaring container,
/// expressed in AB-bit-read equivalents (a container word test plus
/// the chunk binary search).
const EXACT_ROW_COST: f64 = 2.0;

/// Tuning knobs for the split decision.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HybridConfig {
    /// Minimum bin density (bin count / num_rows) for exact backing.
    /// Bins below this are long-tail: their AB probes almost always
    /// short-circuit on the first zero bit, and backing thousands of
    /// ppm-density bins buys nothing. Set to 0.0 to let the cost model
    /// alone decide (differential tests back every bin this way).
    pub min_density: f64,
    /// Relative cost of verifying one false-positive row downstream
    /// (exact second step, network, user time), in AB-bit-read
    /// equivalents — the paper's motivation for precision (§5.3)
    /// turned into a number the planner can weigh.
    pub verify_cost: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            min_density: 1.0 / 64.0,
            verify_cost: 32.0,
        }
    }
}

/// One exactly-backed (attribute, bin) cell column.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HybridBin {
    attribute: u32,
    bin: u32,
    /// The truth: rows whose value falls in this bin.
    exact: RoaringBitmap,
}

impl HybridBin {
    /// Attribute index of the backed cell column.
    pub fn attribute(&self) -> usize {
        self.attribute as usize
    }

    /// Bin within the attribute.
    pub fn bin(&self) -> u32 {
        self.bin
    }

    /// The exact membership container.
    pub fn exact(&self) -> &RoaringBitmap {
        &self.exact
    }

    /// Exact cell test: is `row` truly in this bin? Zero hash probes,
    /// zero false positives.
    #[inline]
    pub fn contains(&self, row: usize) -> bool {
        self.exact.contains(row as u32)
    }
}

/// Per-range masks the query kernels consume, relative to the row
/// interval they were planned for: bit `i` covers row `row_lo + i`.
pub(crate) struct HybridRangePlan {
    /// OR of the backed bins' exact containers — the range's truth
    /// restricted to backed bins.
    pub exact: Vec<u64>,
    /// Bins in the range with no exact backing: the kernel probes the
    /// AB for these.
    pub unbacked: Vec<u32>,
}

/// The hybrid exact tier attached to an [`AbIndex`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HybridAb {
    config: HybridConfig,
    num_rows: usize,
    /// All (attribute, bin) cells the split decision considered —
    /// `total_bins - bins.len()` stayed on the AB.
    total_bins: u32,
    /// Backed cells, sorted by (attribute, bin).
    bins: Vec<HybridBin>,
}

/// The calibrated split decision for one (attribute, bin): observed
/// bin density × AB false-positive rate × verification cost against
/// the exact container's lookup cost.
fn back_exactly(
    index: &AbIndex,
    attribute: usize,
    bin: u32,
    bin_count: usize,
    config: &HybridConfig,
) -> bool {
    let density = bin_count as f64 / index.num_rows() as f64;
    if density < config.min_density {
        return false;
    }
    let (ab, _) = index.cell_plan_target(attribute, bin);
    // Expected per-row AB cost: rows in the bin read all k bits, rows
    // outside it short-circuit after ~2, and every expected false
    // positive costs a downstream verification.
    let ab_row_cost = density * ab.k() as f64
        + (1.0 - density) * 2.0
        + ab.expected_fp_rate() * config.verify_cost;
    ab_row_cost > EXACT_ROW_COST
}

impl HybridAb {
    /// Builds the exact tier for `index` over its source `table`,
    /// running the split decision for every (attribute, bin) and
    /// filling each backed bin's container from the column — no hash
    /// call. Deterministic for a given index + table, so a damaged
    /// container rebuilds bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not match the index's row count or
    /// attribute schema.
    pub fn build(index: &AbIndex, table: &BinnedTable, config: &HybridConfig) -> Self {
        Self::build_row_range(index, table, 0..table.num_rows(), config)
    }

    /// [`Self::build`] for a shard `index` over rows `rows` of `table`
    /// ([`AbIndex::build_row_range`]): reads `&col.bins[rows]` in place
    /// and builds the tier [`Self::build`] makes from
    /// `table.slice_rows(rows)`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not cover the index's row count within
    /// `table`, or `table` does not match its attribute schema.
    pub fn build_row_range(
        index: &AbIndex,
        table: &BinnedTable,
        rows: Range<usize>,
        config: &HybridConfig,
    ) -> Self {
        let t0 = std::time::Instant::now();
        assert_eq!(
            rows.len(),
            index.num_rows(),
            "table/index row count mismatch"
        );
        assert_eq!(
            table.num_attributes(),
            index.num_attributes(),
            "table/index attribute mismatch"
        );
        assert!(
            index.num_rows() <= u32::MAX as usize,
            "exact containers address rows as u32"
        );
        let total_bins: u32 = table.columns().iter().map(|c| c.cardinality).sum();

        let mut bins = Vec::new();
        for (attribute, col) in table.columns().iter().enumerate() {
            let backed: Vec<u32> = (0u32..)
                .zip(col.bin_counts_in(rows.clone()))
                .filter(|&(bin, count)| back_exactly(index, attribute, bin, count, config))
                .map(|(bin, _)| bin)
                .collect();
            let exact = exact_containers(&col.bins[rows.clone()], col.cardinality, &backed);
            for (bin, exact) in backed.into_iter().zip(exact) {
                bins.push(HybridBin {
                    attribute: attribute as u32,
                    bin,
                    exact,
                });
            }
        }

        let hybrid = HybridAb {
            config: *config,
            num_rows: index.num_rows(),
            total_bins,
            bins,
        };
        hybrid.record_split_counters();
        obs::histogram!("hybrid.build.us").record(t0.elapsed().as_micros() as u64);
        hybrid
    }

    /// Flushes this tier's split decisions into the
    /// `planner.split.{exact,ab}` counters. Called once by the build;
    /// services that load a pre-built tier from storage (where no
    /// build ran in-process) call it so `/metrics` still reports the
    /// split.
    pub fn record_split_counters(&self) {
        obs::counter!("planner.split.exact").add(self.bins.len() as u64);
        obs::counter!("planner.split.ab").add(self.total_bins as u64 - self.bins.len() as u64);
    }

    /// The split-decision configuration this tier was built with.
    pub fn config(&self) -> HybridConfig {
        self.config
    }

    /// Rows the tier covers (the index's row count).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// All (attribute, bin) cells the split decision considered.
    pub fn total_bins(&self) -> u32 {
        self.total_bins
    }

    /// The exactly-backed cells, sorted by (attribute, bin).
    pub fn bins(&self) -> &[HybridBin] {
        &self.bins
    }

    /// Serialized container bytes (the container of every backed
    /// bin) — what the ABIX hybrid section stores.
    pub fn size_bytes(&self) -> usize {
        self.bins.iter().map(|b| b.exact.size_bytes()).sum()
    }

    /// The exact backing for (attribute, bin), if the split decision
    /// chose one.
    #[inline]
    pub fn backing(&self, attribute: usize, bin: u32) -> Option<&HybridBin> {
        self.bins
            .binary_search_by_key(&(attribute as u32, bin), |b| (b.attribute, b.bin))
            .ok()
            .map(|i| &self.bins[i])
    }

    /// Whether any bin a query's ranges touch is exactly backed — the
    /// `HybridMode::Auto` engagement test (an unbacked query would pay
    /// planning overhead for nothing).
    pub fn covers_any(&self, query: &RectQuery) -> bool {
        query
            .ranges
            .iter()
            .any(|r| (r.lo..=r.hi).any(|b| self.backing(r.attribute, b).is_some()))
    }

    /// Whether every bin of every range is exactly backed (and there
    /// is at least one range): the query then resolves by container
    /// mask algebra alone — zero hash probes — so its cost is a few
    /// word operations per 64 rows instead of up to k probes per row
    /// ([`AbIndex::stages`] sizes its stages by that).
    pub fn covers_all(&self, query: &RectQuery) -> bool {
        !query.ranges.is_empty()
            && query
                .ranges
                .iter()
                .all(|r| (r.lo..=r.hi).all(|b| self.backing(r.attribute, b).is_some()))
    }

    /// Plans one attribute range over the row interval
    /// `row_lo..=row_hi`: ORs the backed bins' exact containers into
    /// one mask word-at-a-time and lists the bins the kernel still has
    /// to probe the AB for.
    pub(crate) fn plan_range(
        &self,
        attribute: usize,
        lo: u32,
        hi: u32,
        row_lo: usize,
        row_hi: usize,
    ) -> HybridRangePlan {
        let mut exact = vec![0u64; (row_hi - row_lo + 1).div_ceil(64)];
        let mut unbacked = Vec::new();
        for bin in lo..=hi {
            match self.backing(attribute, bin) {
                Some(hb) => hb
                    .exact
                    .or_range_into(row_lo as u32, row_hi as u32, &mut exact),
                None => unbacked.push(bin),
            }
        }
        HybridRangePlan { exact, unbacked }
    }

    /// Reassembles a tier from stored pieces (ABIX deserialization).
    /// `parts` must arrive sorted by (attribute, bin) — the write
    /// order — and is validated.
    ///
    /// # Panics
    ///
    /// Panics if the parts are unsorted or duplicated.
    pub fn from_serialized(
        config: HybridConfig,
        num_rows: usize,
        total_bins: u32,
        parts: Vec<(u32, u32, RoaringBitmap)>,
    ) -> Self {
        for w in parts.windows(2) {
            assert!(
                (w[0].0, w[0].1) < (w[1].0, w[1].1),
                "hybrid bins not sorted by (attribute, bin)"
            );
        }
        HybridAb {
            config,
            num_rows,
            total_bins,
            bins: parts
                .into_iter()
                .map(|(attribute, bin, exact)| HybridBin {
                    attribute,
                    bin,
                    exact,
                })
                .collect(),
        }
    }
}

/// The E containers of one attribute's `backed` bins over its rows
/// `bins`, from one pass that hands each row to its bin's container
/// ([`RoaringBitmap::push`]: rows ascend, so a container grows at its
/// end and is shrunk as soon as the pass leaves its chunk — no rescan
/// of the column per bin, no search per row, and no buffer that grows
/// with the rows; a set-up thread's allocator keeps what it peaks at).
fn exact_containers(bins: &[u32], cardinality: u32, backed: &[u32]) -> Vec<RoaringBitmap> {
    let mut exact = vec![RoaringBitmap::new(); backed.len()];
    if !backed.is_empty() {
        // The container of each backed bin; past the end for the rest.
        let mut slot = vec![usize::MAX; cardinality as usize];
        for (i, &bin) in backed.iter().enumerate() {
            slot[bin as usize] = i;
        }
        for (row, &bin) in (0u32..).zip(bins) {
            if let Some(e) = exact.get_mut(slot[bin as usize]) {
                e.push(row);
            }
        }
    }
    for e in &mut exact {
        e.optimize();
    }
    exact
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Level;
    use crate::config::AbConfig;
    use bitmap::{AttrRange, BinnedColumn, BinnedTable};

    /// Clustered 8-bin column: dense contiguous bins the split
    /// decision should back, over 2048 rows.
    fn clustered() -> BinnedTable {
        BinnedTable::new(vec![BinnedColumn::new(
            "v",
            (0..2048u32).map(|i| i / 256).collect(),
            8,
        )])
    }

    fn index(table: &BinnedTable, alpha: u64) -> AbIndex {
        AbIndex::build(table, &AbConfig::new(Level::PerAttribute).with_alpha(alpha))
    }

    #[test]
    fn cost_model_backs_dense_bins_and_skips_the_tail() {
        // 1 dense bin (99%) + 1023-row tail spread over 63 rare bins.
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "x",
            (0..65536u32)
                .map(|i| if i % 64 == 0 { 1 + (i / 64) % 63 } else { 0 })
                .collect(),
            64,
        )]);
        let idx = index(&t, 8);
        let hy = HybridAb::build(&idx, &t, &HybridConfig::default());
        assert_eq!(hy.total_bins(), 64);
        assert!(hy.backing(0, 0).is_some(), "99% bin must be backed");
        assert!(
            hy.bins().len() < 8,
            "ppm tail bins must stay on the AB, got {}",
            hy.bins().len()
        );
    }

    #[test]
    fn exact_container_is_the_truth() {
        let t = clustered();
        let idx = index(&t, 8);
        let hy = HybridAb::build(
            &idx,
            &t,
            &HybridConfig {
                min_density: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(hy.bins().len(), 8, "min_density 0 backs every bin");
        for hb in hy.bins() {
            for row in 0..t.num_rows() {
                let truth = t.column(0).bins[row] == hb.bin();
                assert_eq!(hb.contains(row), truth, "exact wrong at {row}");
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let t = clustered();
        let idx = index(&t, 8);
        let cfg = HybridConfig {
            min_density: 0.0,
            ..Default::default()
        };
        assert_eq!(
            HybridAb::build(&idx, &t, &cfg),
            HybridAb::build(&idx, &t, &cfg)
        );
    }

    #[test]
    fn row_range_build_reads_the_rows_a_slice_copies() {
        let t = clustered();
        let cfg = HybridConfig {
            min_density: 0.0,
            ..Default::default()
        };
        let ab = AbConfig::new(Level::PerAttribute).with_alpha(8);
        let rows = 300..1500;
        let shard = AbIndex::build_row_range(&t, &ab, rows.clone());
        let slice = t.slice_rows(rows.clone());
        assert_eq!(
            HybridAb::build_row_range(&shard, &t, rows, &cfg),
            HybridAb::build(&shard, &slice, &cfg)
        );
    }

    #[test]
    fn covers_any_and_backing_lookup() {
        let t = clustered();
        let idx = index(&t, 32);
        let hy = HybridAb::build(
            &idx,
            &t,
            &HybridConfig {
                min_density: 0.0,
                ..Default::default()
            },
        );
        assert!(hy.covers_any(&RectQuery::new(vec![AttrRange::new(0, 2, 3)], 0, 100)));
        assert!(!hy.covers_any(&RectQuery::new(vec![], 0, 100)));
        assert!(hy.backing(0, 7).is_some());
        assert!(hy.backing(0, 8).is_none());
    }

    #[test]
    fn covers_all_needs_every_bin_of_every_range() {
        // Geometry only: empty containers back (0, 0), (0, 1), (1, 0).
        let empty = |a, b| (a, b, RoaringBitmap::new());
        let hy = HybridAb::from_serialized(
            HybridConfig::default(),
            100,
            5,
            vec![empty(0, 0), empty(0, 1), empty(1, 0)],
        );
        let q = |ranges| RectQuery::new(ranges, 0, 99);
        let (a01, b0) = (AttrRange::new(0, 0, 1), AttrRange::new(1, 0, 0));
        assert!(hy.covers_all(&q(vec![a01, b0])));
        assert!(hy.covers_all(&q(vec![b0])));
        // One unbacked bin in one range is enough to say no — and
        // still `covers_any`; so is having no range at all.
        for ranges in [
            vec![AttrRange::new(0, 0, 2), b0],
            vec![a01, AttrRange::new(1, 0, 1)],
        ] {
            assert!(!hy.covers_all(&q(ranges.clone())));
            assert!(hy.covers_any(&q(ranges)));
        }
        assert!(!hy.covers_all(&q(vec![])));
    }

    #[test]
    fn plan_range_masks_match_per_row_tests() {
        let t = clustered();
        let idx = index(&t, 8);
        let hy = HybridAb::build(
            &idx,
            &t,
            &HybridConfig {
                min_density: 0.0,
                ..Default::default()
            },
        );
        let (row_lo, row_hi) = (200usize, 900usize);
        let plan = hy.plan_range(0, 0, 2, row_lo, row_hi);
        assert!(plan.unbacked.is_empty());
        for row in row_lo..=row_hi {
            let i = row - row_lo;
            let truth = t.column(0).bins[row] <= 2;
            let got = plan.exact[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(got, truth, "exact mask wrong at row {row}");
        }
    }

    #[test]
    fn from_serialized_roundtrips() {
        let t = clustered();
        let idx = index(&t, 8);
        let hy = HybridAb::build(
            &idx,
            &t,
            &HybridConfig {
                min_density: 0.0,
                ..Default::default()
            },
        );
        let parts: Vec<_> = hy
            .bins()
            .iter()
            .map(|b| (b.attribute() as u32, b.bin(), b.exact().clone()))
            .collect();
        let back = HybridAb::from_serialized(hy.config(), hy.num_rows(), hy.total_bins(), parts);
        assert_eq!(back, hy);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn from_serialized_rejects_unsorted_parts() {
        HybridAb::from_serialized(
            HybridConfig::default(),
            8,
            4,
            vec![(0, 1, RoaringBitmap::new()), (0, 0, RoaringBitmap::new())],
        );
    }

    #[test]
    fn split_counters_account_for_every_bin() {
        let exact = obs::global().counter("planner.split.exact");
        let ab = obs::global().counter("planner.split.ab");
        let (e0, a0) = (exact.get(), ab.get());
        let t = clustered();
        let idx = index(&t, 8);
        let hy = HybridAb::build(&idx, &t, &HybridConfig::default());
        let backed = hy.bins().len() as u64;
        assert!(exact.get() >= e0 + backed);
        assert!(ab.get() >= a0 + (hy.total_bins() as u64 - backed));
    }
}
