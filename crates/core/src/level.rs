//! The three-level AB index over a binned table.
//!
//! [`AbIndex`] realizes paper contribution 4: the AB encoding applied
//! at one of three resolutions —
//!
//! * **per data set** — one AB covers all `d·N` set bits, addressed by
//!   `(row, global column)`;
//! * **per attribute** — `d` ABs, each covering one attribute's `N`
//!   set bits, addressed by `(row, bin)`;
//! * **per column** — `Σ C_i` ABs, each covering one bin's rows,
//!   addressed by `row` alone.
//!
//! All three answer the same cell test: *is bit `(row, bin-of-attr)`
//! set in the equality-encoded bitmap table?*

use crate::analysis::Level;
use crate::config::AbConfig;
use crate::encoding::ApproximateBitmap;
use crate::hier::{BinBlocks, HierAb, HierConfig};
use crate::hybrid::{HybridAb, HybridConfig};
use bitmap::{BinnedColumn, BinnedTable};
use hashkit::{CellMapper, HashFamily};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::time::Instant;

/// Schema metadata for one attribute of the indexed table.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributeMeta {
    /// Attribute name.
    pub name: String,
    /// Number of bins.
    pub cardinality: u32,
    /// Global column id of this attribute's bin 0.
    pub offset: usize,
}

/// A complete approximate bitmap index.
///
/// # Examples
///
/// ```
/// use ab::{AbConfig, AbIndex, Level};
/// use bitmap::{BinnedColumn, BinnedTable};
///
/// let table = BinnedTable::new(vec![
///     BinnedColumn::new("A", vec![0, 1, 2, 0], 3),
///     BinnedColumn::new("B", vec![2, 2, 0, 1], 3),
/// ]);
/// let index = AbIndex::build(&table, &AbConfig::new(Level::PerAttribute).with_alpha(16));
/// // Row 2 has A = bin 2: always found (no false negatives).
/// assert!(index.test_cell(2, 0, 2));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AbIndex {
    level: Level,
    abs: Vec<ApproximateBitmap>,
    attributes: Vec<AttributeMeta>,
    num_rows: usize,
    /// Optional coarse-to-fine pruning pyramid (see [`crate::hier`]).
    /// Not built by default — attach with [`Self::ensure_hier`].
    hier: Option<HierAb>,
    /// The build's row summary for [`Self::ensure_hier`]; never stored.
    #[serde(skip)]
    blocks: Option<BinBlocks>,
    /// Optional exact tier: Roaring-backed hot bins answered without
    /// probing the AB (see [`crate::hybrid`]). Not built by default —
    /// attach with [`Self::ensure_hybrid`].
    hybrid: Option<HybridAb>,
}

impl AbIndex {
    /// Builds the index from a binned table under `config`: the whole
    /// table as one row range ([`Self::build_row_range`]).
    ///
    /// # Panics
    ///
    /// Panics if `config.family` is [`HashFamily::ColumnGroup`] at the
    /// per-column level (the paper restricts that hash to the coarser
    /// levels), or if the table is empty.
    pub fn build(table: &BinnedTable, config: &AbConfig) -> Self {
        Self::build_row_range(table, config, 0..table.num_rows())
    }

    /// Builds an index covering only the contiguous row slice `rows`
    /// of `table`, with rows renumbered from 0 — one shard of a
    /// row-range-partitioned index. A shard's AB is sized for its own
    /// set-bit count, so S shards together use (about) the same space
    /// as one monolithic index, and a cell test inside the shard costs
    /// the same O(k) probes. The rows are read in place
    /// (`&col.bins[rows]`): nothing of the table is copied, and the
    /// index is byte-for-byte the one [`Self::build`] makes of
    /// `table.slice_rows(rows)`.
    ///
    /// It is [`Self::allocate_row_range`] followed by
    /// [`UnfilledIndex::fill`]. A caller that builds many shards on
    /// worker threads (`svc::ShardedIndex::build`) makes the first call
    /// for every shard on its own thread, so every bit array lives in
    /// the caller's allocator arena and the workers only set bits
    /// (DESIGN.md §11, "Set-up").
    ///
    /// Shard-local row ids are `global_row - rows.start`; callers keep
    /// the offset (see `ab::io::shards_to_bytes`).
    ///
    /// # Panics
    ///
    /// As [`Self::allocate_row_range`].
    pub fn build_row_range(table: &BinnedTable, config: &AbConfig, rows: Range<usize>) -> Self {
        Self::allocate_row_range(table, config, rows).fill()
    }

    /// The allocating half of [`Self::build_row_range`]: sizes every AB
    /// of the level for the set bits of rows `rows` and allocates its
    /// bit array, all zero, and an empty [`BinBlocks`] of the rows.
    /// [`UnfilledIndex::fill`] is the other half.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or has no attributes, if `rows` is
    /// empty or extends past the table, or if `config.family` is
    /// [`HashFamily::ColumnGroup`] at the per-column level (the paper
    /// restricts that hash to the coarser levels).
    pub fn allocate_row_range<'t>(
        table: &'t BinnedTable,
        config: &AbConfig,
        rows: Range<usize>,
    ) -> UnfilledIndex<'t> {
        assert!(table.num_rows() > 0, "cannot index an empty table");
        assert!(table.num_attributes() > 0, "table has no attributes");
        assert!(!rows.is_empty(), "empty row slice {rows:?}");
        assert!(
            rows.end <= table.num_rows(),
            "row slice {rows:?} out of range {}",
            table.num_rows()
        );
        assert!(
            config.level != Level::PerColumn
                || !matches!(config.family, HashFamily::ColumnGroup { .. }),
            "the column-group hash is only defined for per-dataset \
             and per-attribute ABs (paper §5.2.2)"
        );

        let columns = table.columns();
        let mut attributes = Vec::with_capacity(columns.len());
        let mut offset = 0usize;
        for col in columns {
            attributes.push(AttributeMeta {
                name: col.name.clone(),
                cardinality: col.cardinality,
                offset,
            });
            offset += col.cardinality as usize;
        }

        let n = rows.len() as u64;
        let abs = match config.level {
            // One AB over every column: `s = d·N` set bits.
            Level::PerDataset => {
                let s = n * columns.len() as u64;
                vec![new_ab(config, s, offset, Level::PerDataset)]
            }
            // One AB per attribute: `s = N` set bits.
            Level::PerAttribute => columns
                .iter()
                .map(|col| new_ab(config, n, col.cardinality as usize, Level::PerAttribute))
                .collect(),
            // One AB per bin, sized by the bin's count in `rows`.
            Level::PerColumn => columns
                .iter()
                .flat_map(|col| col.bin_counts_in(rows.clone()))
                .map(|s| new_ab(config, s.max(1) as u64, 1, Level::PerColumn))
                .collect(),
        };
        UnfilledIndex {
            index: AbIndex {
                level: config.level,
                abs,
                attributes,
                num_rows: rows.len(),
                hier: None,
                blocks: Some(BinBlocks::new(
                    columns.iter().map(|c| c.cardinality),
                    rows.len(),
                )),
                hybrid: None,
            },
            columns,
            rows,
        }
    }

    /// Flushes the `ab.build.*` metrics for one finished build: total
    /// insertions and set bits (summed over the constituent ABs, so the
    /// registry matches what [`ApproximateBitmap::inserted`] reports)
    /// and the wall time, both overall and per level.
    fn record_build_metrics(&self, elapsed_us: u64) {
        obs::counter!("ab.build.indexes").inc();
        let insertions: u64 = self.abs.iter().map(ApproximateBitmap::inserted).sum();
        obs::counter!("ab.build.insertions").add(insertions);
        let bits_set: u64 = self
            .abs
            .iter()
            .map(|ab| ab.bits().count_ones() as u64)
            .sum();
        obs::counter!("ab.build.bits_set").add(bits_set);
        obs::histogram!("ab.build.us").record(elapsed_us);
        match self.level {
            Level::PerDataset => obs::histogram!("ab.build.per_dataset_us").record(elapsed_us),
            Level::PerAttribute => obs::histogram!("ab.build.per_attribute_us").record(elapsed_us),
            Level::PerColumn => obs::histogram!("ab.build.per_column_us").record(elapsed_us),
        }
    }

    /// The encoding level of this index.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Number of rows covered.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of attributes covered.
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Attribute metadata, in global column order.
    pub fn attributes(&self) -> &[AttributeMeta] {
        &self.attributes
    }

    /// The underlying ABs (1, `d`, or `Σ C_i` of them).
    pub fn abs(&self) -> &[ApproximateBitmap] {
        &self.abs
    }

    /// Total AB storage in bytes.
    pub fn size_bytes(&self) -> usize {
        self.abs.iter().map(ApproximateBitmap::size_bytes).sum()
    }

    /// Tests whether row `row` (approximately) falls in `bin` of
    /// `attribute` — the cell test of Figures 5/7. Never returns
    /// `false` for a genuinely set cell; probes short-circuit on the
    /// first zero bit.
    #[inline]
    pub fn test_cell(&self, row: usize, attribute: usize, bin: u32) -> bool {
        self.test_cell_counted(row, attribute, bin).0
    }

    /// [`Self::test_cell`] plus the number of AB bits read before the
    /// verdict (≤ the AB's k; see
    /// [`ApproximateBitmap::contains_counted`]).
    #[inline]
    pub fn test_cell_counted(&self, row: usize, attribute: usize, bin: u32) -> (bool, u32) {
        let meta = &self.attributes[attribute];
        assert!(
            bin < meta.cardinality,
            "bin {bin} out of range for attribute {attribute}"
        );
        assert!(
            row < self.num_rows,
            "row {row} out of range {}",
            self.num_rows
        );
        match self.level {
            Level::PerDataset => {
                self.abs[0].contains_counted(row as u64, (meta.offset + bin as usize) as u64)
            }
            Level::PerAttribute => self.abs[attribute].contains_counted(row as u64, bin as u64),
            Level::PerColumn => {
                self.abs[meta.offset + bin as usize].contains_counted(row as u64, 0)
            }
        }
    }

    /// The (index into [`Self::abs`], column id) a cell of
    /// `attribute`/`bin` addresses, given its global column
    /// `offset + bin` — the row-independent half of
    /// [`Self::test_cell_counted`]'s dispatch, arithmetic on the level
    /// alone, hoisted once per query into the batched kernels' plans.
    #[inline(always)]
    pub(crate) fn cell_plan_slot(&self, attribute: usize, column: usize, bin: u32) -> (usize, u64) {
        match self.level {
            Level::PerDataset => (0, column as u64),
            Level::PerAttribute => (attribute, u64::from(bin)),
            Level::PerColumn => (column, 0),
        }
    }

    /// [`Self::cell_plan_slot`] with the AB itself.
    #[inline]
    pub(crate) fn cell_plan_target(&self, attribute: usize, bin: u32) -> (&ApproximateBitmap, u64) {
        let meta = &self.attributes[attribute];
        debug_assert!(bin < meta.cardinality, "bin {bin} out of range");
        let (ab, col) = self.cell_plan_slot(attribute, meta.offset + bin as usize, bin);
        (&self.abs[ab], col)
    }

    /// Largest k across the constituent ABs — the constant in the
    /// O(c·k) probe bound.
    pub fn max_k(&self) -> usize {
        self.abs.iter().map(ApproximateBitmap::k).max().unwrap_or(0)
    }

    /// Assembles an index from its pieces, taken as given — what
    /// deserialization does, and what a caller that fills its own
    /// [`ApproximateBitmap`]s needs (`tests/build_differential.rs`
    /// compares such an index with a built one byte for byte). `abs`
    /// must hold the 1, `d` or `Σ C_i` ABs `level` implies, in global
    /// column order.
    pub fn from_parts(
        level: Level,
        abs: Vec<ApproximateBitmap>,
        attributes: Vec<AttributeMeta>,
        num_rows: usize,
        hier: Option<HierAb>,
        hybrid: Option<HybridAb>,
    ) -> Self {
        AbIndex {
            level,
            abs,
            attributes,
            num_rows,
            hier,
            blocks: None,
            hybrid,
        }
    }

    /// The attached pruning pyramid, if any.
    pub fn hier(&self) -> Option<&HierAb> {
        self.hier.as_ref()
    }

    /// The row summary [`Self::ensure_hier`] builds from, until it does.
    pub fn bin_blocks(&self) -> Option<&BinBlocks> {
        self.blocks.as_ref()
    }

    /// Builds and attaches a [`HierAb`] pyramid under `config` if one
    /// is not already present, from (and consuming) the [`BinBlocks`]
    /// the build recorded: deterministic for a given table and rows.
    ///
    /// # Panics
    ///
    /// Panics if no pyramid is attached and the index has no summary
    /// (decoded from bytes, assembled by [`Self::from_parts`], or
    /// consumed by an earlier call): build pyramids with the index.
    pub fn ensure_hier(&mut self, config: &HierConfig) {
        if self.hier.is_none() {
            let blocks = self
                .blocks
                .take()
                .expect("no row summary to build a pyramid from");
            self.hier = Some(HierAb::build(&blocks, &self.attributes, config));
        }
    }

    /// Attaches (or replaces) a pre-built pyramid.
    pub fn attach_hier(&mut self, hier: HierAb) {
        self.hier = Some(hier);
    }

    /// The attached exact tier, if any.
    pub fn hybrid(&self) -> Option<&HybridAb> {
        self.hybrid.as_ref()
    }

    /// Builds and attaches a [`HybridAb`] exact tier under `config` if
    /// one is not already present. Unlike [`Self::ensure_hier`] this
    /// needs the source `table` back: exact containers hold the rows
    /// themselves, not a per-block summary. The tier is deterministic
    /// for a given index + table, so a damaged container rebuilds
    /// bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not match the index's row count or
    /// attribute schema.
    pub fn ensure_hybrid(&mut self, table: &BinnedTable, config: &HybridConfig) {
        if self.hybrid.is_none() {
            self.hybrid = Some(HybridAb::build(self, table, config));
        }
    }

    /// Attaches (or replaces) a pre-built exact tier.
    pub fn attach_hybrid(&mut self, hybrid: HybridAb) {
        self.hybrid = Some(hybrid);
    }

    /// Average expected false-positive rate across the constituent
    /// ABs, weighted by nothing (simple mean) — a quick quality probe.
    pub fn expected_fp_rate(&self) -> f64 {
        if self.abs.is_empty() {
            return 0.0;
        }
        self.abs
            .iter()
            .map(ApproximateBitmap::expected_fp_rate)
            .sum::<f64>()
            / self.abs.len() as f64
    }
}

/// Splits `num_rows` rows into `shards` contiguous, near-equal ranges
/// (the first `num_rows % shards` ranges hold one extra row). The
/// canonical shard layout shared by [`AbIndex::build_row_range`]
/// callers, `ab::io`'s `ABSH` segments, and the `svc` service crate.
///
/// # Panics
///
/// Panics if `shards == 0` or `shards > num_rows`.
pub fn shard_ranges(num_rows: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    assert!(shards > 0, "need at least one shard");
    assert!(
        shards <= num_rows,
        "cannot split {num_rows} rows into {shards} shards"
    );
    let base = num_rows / shards;
    let extra = num_rows % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// An [`AbIndex`] whose bit arrays are allocated but still all zero,
/// with the rows of the source table that will fill them: what
/// [`AbIndex::allocate_row_range`] returns. It answers no query;
/// [`Self::fill`] turns it into the index.
#[derive(Debug)]
pub struct UnfilledIndex<'t> {
    index: AbIndex,
    columns: &'t [BinnedColumn],
    rows: Range<usize>,
}

impl UnfilledIndex<'_> {
    /// The filling half of [`AbIndex::build_row_range`]: inserts every
    /// set cell of the rows into the allocated ABs through the batched
    /// insert, records the bins each row block holds, and returns the
    /// index. It allocates nothing that grows with the row count except
    /// at the per-column level, whose counting sort (each bin's rows
    /// grouped so its AB takes them in one batched insert) needs a
    /// row-id scratch the size of the range.
    pub fn fill(self) -> AbIndex {
        let t0 = Instant::now();
        let UnfilledIndex {
            mut index,
            columns,
            rows,
        } = self;
        let slices = columns.iter().map(|col| &col.bins[rows.clone()]);
        if let Some(blocks) = &mut index.blocks {
            for (a, bins) in slices.clone().enumerate() {
                blocks.record(a, bins);
            }
        }
        match index.level {
            Level::PerDataset => index.abs[0].insert_cells(
                slices
                    .zip(&index.attributes)
                    .flat_map(|(bins, meta)| cells(bins, meta.offset as u64)),
            ),
            Level::PerAttribute => {
                for (ab, bins) in index.abs.iter_mut().zip(slices) {
                    ab.insert_cells(cells(bins, 0));
                }
            }
            Level::PerColumn => {
                for (col, meta) in columns.iter().zip(&index.attributes) {
                    let abs = &mut index.abs[meta.offset..][..meta.cardinality as usize];
                    fill_column_abs(abs, col, rows.clone());
                }
            }
        }
        index.record_build_metrics(t0.elapsed().as_micros() as u64);
        index
    }
}

/// The set cells `(row, base + bin)` of one attribute's rows, numbered
/// from 0.
fn cells(bins: &[u32], base: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
    (0u64..)
        .zip(bins)
        .map(move |(row, &bin)| (row, base + u64::from(bin)))
}

/// An empty AB for `s` set bits at `level`: `config`'s sizing and
/// family over the level's `num_columns` columns; a per-column AB
/// addresses rows alone.
fn new_ab(config: &AbConfig, s: u64, num_columns: usize, level: Level) -> ApproximateBitmap {
    let params = config.sizing.params(s, config.k);
    let family = adapt_family(&config.family, num_columns as u64, level);
    let mapper = match level {
        Level::PerColumn => CellMapper::RowOnly,
        _ => CellMapper::for_columns(num_columns),
    };
    ApproximateBitmap::new(params.n_bits, params.k, family, mapper)
}

/// Fills one attribute's per-column ABs (one per bin) from its rows
/// `rows`. The rows are grouped by bin first (a counting sort), so each
/// AB takes its rows in one batched insert.
fn fill_column_abs(abs: &mut [ApproximateBitmap], col: &BinnedColumn, rows: Range<usize>) {
    let counts = col.bin_counts_in(rows.clone());
    let bins = &col.bins[rows];
    let mut next = Vec::with_capacity(counts.len());
    let mut start = 0usize;
    for &count in &counts {
        next.push(start);
        start += count;
    }
    let mut rows = vec![0u64; bins.len()];
    for (row, &bin) in (0u64..).zip(bins) {
        rows[next[bin as usize]] = row;
        next[bin as usize] += 1;
    }
    // After the fill, next[bin] is the end of the bin's rows.
    for ((ab, &s), &end) in abs.iter_mut().zip(&counts).zip(&next) {
        ab.insert_cells(rows[end - s..end].iter().map(|&row| (row, 0)));
    }
}

/// Instantiates the column-group family with the right group count for
/// the level; other families pass through.
fn adapt_family(family: &HashFamily, num_columns: u64, level: Level) -> HashFamily {
    match family {
        HashFamily::ColumnGroup { .. } => {
            assert!(
                level != Level::PerColumn,
                "column-group hash invalid at per-column level"
            );
            HashFamily::ColumnGroup { num_columns }
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitmap::BinnedColumn;

    fn fig6_table() -> BinnedTable {
        BinnedTable::new(vec![
            BinnedColumn::new("A", vec![0, 1, 2, 0, 1, 1, 0, 2], 3),
            BinnedColumn::new("B", vec![2, 0, 1, 1, 0, 1, 0, 2], 3),
            BinnedColumn::new("C", vec![1, 1, 0, 2, 2, 0, 1, 0], 3),
        ])
    }

    fn check_no_false_negatives(index: &AbIndex, table: &BinnedTable) {
        for (a, col) in table.columns().iter().enumerate() {
            for (row, &bin) in col.bins.iter().enumerate() {
                assert!(
                    index.test_cell(row, a, bin),
                    "false negative at row {row}, attr {a}, bin {bin} ({:?})",
                    index.level()
                );
            }
        }
    }

    #[test]
    fn all_levels_have_no_false_negatives() {
        let t = fig6_table();
        for level in [Level::PerDataset, Level::PerAttribute, Level::PerColumn] {
            let idx = AbIndex::build(&t, &AbConfig::new(level).with_alpha(4));
            check_no_false_negatives(&idx, &t);
        }
    }

    #[test]
    fn ab_counts_per_level() {
        let t = fig6_table();
        let d = AbIndex::build(&t, &AbConfig::new(Level::PerDataset));
        let a = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute));
        let c = AbIndex::build(&t, &AbConfig::new(Level::PerColumn));
        assert_eq!(d.abs().len(), 1);
        assert_eq!(a.abs().len(), 3);
        assert_eq!(c.abs().len(), 9);
    }

    #[test]
    fn large_alpha_gives_exact_answers_on_small_table() {
        // With α = 64 on 8 rows, collisions are (almost) impossible;
        // verify both positives and negatives against the table.
        let t = fig6_table();
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(64));
        let mut wrong = 0;
        for (a, col) in t.columns().iter().enumerate() {
            for (row, &bin) in col.bins.iter().enumerate() {
                for b in 0..col.cardinality {
                    let got = idx.test_cell(row, a, b);
                    let want = b == bin;
                    if got != want {
                        assert!(got && !want, "false negative!");
                        wrong += 1;
                    }
                }
            }
        }
        assert!(wrong <= 2, "too many false positives at α=64: {wrong}");
    }

    #[test]
    fn column_group_family_adapts_to_levels() {
        let t = fig6_table();
        let cfg = AbConfig::new(Level::PerDataset)
            .with_alpha(8)
            .with_family(HashFamily::ColumnGroup { num_columns: 0 });
        let idx = AbIndex::build(&t, &cfg);
        check_no_false_negatives(&idx, &t);
    }

    #[test]
    #[should_panic(expected = "per-dataset")]
    fn column_group_rejected_at_per_column_level() {
        let t = fig6_table();
        let cfg =
            AbConfig::new(Level::PerColumn).with_family(HashFamily::ColumnGroup { num_columns: 0 });
        AbIndex::build(&t, &cfg);
    }

    #[test]
    fn per_column_abs_sized_by_bin_counts() {
        // Attribute with a heavily skewed bin: its AB must be larger.
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "x",
            (0..1000).map(|i| if i < 990 { 0 } else { 1 }).collect(),
            2,
        )]);
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerColumn).with_alpha(4));
        assert!(idx.abs()[0].n_bits() > idx.abs()[1].n_bits());
    }

    #[test]
    fn size_bytes_sums_abs() {
        let t = fig6_table();
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(4));
        let total: usize = idx.abs().iter().map(|a| a.size_bytes()).sum();
        assert_eq!(idx.size_bytes(), total);
    }

    #[test]
    #[should_panic(expected = "empty table")]
    fn empty_table_rejected() {
        AbIndex::build(&BinnedTable::new(vec![]), &AbConfig::new(Level::PerDataset));
    }

    #[test]
    fn build_flushes_insertion_metrics() {
        let ins = obs::global().counter("ab.build.insertions");
        let builds = obs::global().counter("ab.build.indexes");
        let (i0, b0) = (ins.get(), builds.get());
        let t = fig6_table();
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(4));
        let inserted: u64 = idx.abs().iter().map(|a| a.inserted()).sum();
        assert_eq!(inserted, 24); // 3 attributes × 8 rows
        assert!(ins.get() >= i0 + inserted);
        assert!(builds.get() > b0);
    }

    #[test]
    fn shard_ranges_cover_rows_exactly() {
        for (n, s) in [(8usize, 3usize), (100, 7), (5, 5), (1, 1), (64, 8)] {
            let ranges = shard_ranges(n, s);
            assert_eq!(ranges.len(), s);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[s - 1].end, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap between shards");
            }
            let (min, max) = (
                ranges.iter().map(|r| r.len()).min().unwrap(),
                ranges.iter().map(|r| r.len()).max().unwrap(),
            );
            assert!(max - min <= 1, "uneven split {n}/{s}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn shard_ranges_rejects_too_many_shards() {
        shard_ranges(3, 4);
    }

    #[test]
    fn build_row_range_matches_slice_build() {
        let t = fig6_table();
        for level in [Level::PerDataset, Level::PerAttribute, Level::PerColumn] {
            let cfg = AbConfig::new(level).with_alpha(8);
            let shard = AbIndex::build_row_range(&t, &cfg, 2..6);
            assert_eq!(shard.num_rows(), 4);
            // Shard-local row r corresponds to global row r + 2: every
            // genuinely set cell must still test positive.
            for (a, col) in t.columns().iter().enumerate() {
                for global in 2..6 {
                    assert!(shard.test_cell(global - 2, a, col.bins[global]));
                }
            }
            // Reading the rows in place builds what a copy of them does.
            let copied = AbIndex::build(&t.slice_rows(2..6), &cfg);
            assert_eq!(crate::to_bytes(&shard), crate::to_bytes(&copied), "{level}");
        }
    }

    #[test]
    fn allocation_sizes_every_ab_and_sets_no_bit() {
        let t = fig6_table();
        for level in [Level::PerDataset, Level::PerAttribute, Level::PerColumn] {
            let cfg = AbConfig::new(level).with_alpha(8);
            let unfilled = AbIndex::allocate_row_range(&t, &cfg, 1..7);
            let sizes: Vec<u64> = unfilled.index.abs.iter().map(|ab| ab.n_bits()).collect();
            assert!(unfilled
                .index
                .abs
                .iter()
                .all(|ab| ab.bits().count_ones() == 0));
            let built = unfilled.fill();
            let built_sizes: Vec<u64> = built.abs().iter().map(|ab| ab.n_bits()).collect();
            assert_eq!(sizes, built_sizes, "{level}");
            assert!(built.abs().iter().any(|ab| ab.bits().count_ones() > 0));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn build_row_range_rejects_rows_past_the_table() {
        AbIndex::build_row_range(&fig6_table(), &AbConfig::new(Level::PerAttribute), 4..9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn test_cell_validates_bin() {
        let t = fig6_table();
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute));
        idx.test_cell(0, 0, 3);
    }
}
