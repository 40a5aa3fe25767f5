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
use crate::hier::{HierAb, HierConfig};
use crate::hybrid::{HybridAb, HybridConfig};
use bitmap::BinnedTable;
use hashkit::{CellMapper, HashFamily};
use serde::{Deserialize, Serialize};

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
    /// Optional exact tier: Roaring-backed hot bins answered without
    /// probing the AB (see [`crate::hybrid`]). Not built by default —
    /// attach with [`Self::ensure_hybrid`].
    hybrid: Option<HybridAb>,
}

impl AbIndex {
    /// Builds the index from a binned table under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.family` is [`HashFamily::ColumnGroup`] at the
    /// per-column level (the paper restricts that hash to the coarser
    /// levels), or if the table is empty.
    pub fn build(table: &BinnedTable, config: &AbConfig) -> Self {
        Self::build_parallel(table, config, 1)
    }

    /// [`Self::build`] using up to `threads` worker threads. The
    /// per-attribute and per-column levels parallelize over their
    /// independent ABs (attributes are dealt to the threads in
    /// contiguous chunks); the per-dataset level has a single AB and
    /// builds on the calling thread, as does any build that comes to
    /// one chunk. The result is bit-identical for every thread count.
    ///
    /// The paper assumes read-only scientific data (§4.1) where the
    /// index is built once over millions of rows — construction is the
    /// one embarrassingly parallel step.
    pub fn build_parallel(table: &BinnedTable, config: &AbConfig, threads: usize) -> Self {
        let t0 = std::time::Instant::now();
        assert!(threads >= 1, "need at least one thread");
        assert!(table.num_rows() > 0, "cannot index an empty table");
        assert!(table.num_attributes() > 0, "table has no attributes");
        assert!(
            config.level != Level::PerColumn
                || !matches!(config.family, HashFamily::ColumnGroup { .. }),
            "the column-group hash is only defined for per-dataset \
             and per-attribute ABs (paper §5.2.2)"
        );

        let mut attributes = Vec::with_capacity(table.num_attributes());
        let mut offset = 0usize;
        for col in table.columns() {
            attributes.push(AttributeMeta {
                name: col.name.clone(),
                cardinality: col.cardinality,
                offset,
            });
            offset += col.cardinality as usize;
        }

        // The ABs of a contiguous chunk of attributes. The per-dataset AB
        // spans every column, so that level is always one chunk.
        let cols = table.columns();
        let build_chunk = |chunk_cols: &[bitmap::BinnedColumn]| -> Vec<ApproximateBitmap> {
            match config.level {
                Level::PerDataset => vec![build_dataset_ab(chunk_cols, &attributes, config)],
                Level::PerAttribute => chunk_cols
                    .iter()
                    .map(|col| build_attribute_ab(col, config))
                    .collect(),
                Level::PerColumn => chunk_cols
                    .iter()
                    .flat_map(|col| build_column_abs(col, config))
                    .collect(),
            }
        };
        let chunk = match config.level {
            Level::PerDataset => cols.len(),
            _ => cols.len().div_ceil(threads),
        };
        let abs = if chunk == cols.len() {
            build_chunk(cols)
        } else {
            let build_chunk = &build_chunk;
            std::thread::scope(|s| {
                let handles: Vec<_> = cols
                    .chunks(chunk)
                    .map(|chunk_cols| s.spawn(move || build_chunk(chunk_cols)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("builder thread panicked"))
                    .collect()
            })
        };

        let index = AbIndex {
            level: config.level,
            abs,
            attributes,
            num_rows: table.num_rows(),
            hier: None,
            hybrid: None,
        };
        index.record_build_metrics(t0.elapsed().as_micros() as u64);
        index
    }

    /// Builds an index covering only the contiguous row slice `rows`
    /// of `table`, with rows renumbered from 0 — one shard of a
    /// row-range-partitioned index. A shard's AB is sized for its own
    /// set-bit count, so S shards together use (about) the same space
    /// as one monolithic index, and a cell test inside the shard costs
    /// the same O(k) probes.
    ///
    /// Shard-local row ids are `global_row - rows.start`; callers keep
    /// the offset (see `ab::io::shards_to_bytes`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or extends past the table, plus
    /// the [`Self::build`] panics.
    pub fn build_row_range(
        table: &BinnedTable,
        config: &AbConfig,
        rows: std::ops::Range<usize>,
    ) -> Self {
        Self::build(&table.slice_rows(rows), config)
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
    /// `attribute`/`bin` addresses — the row-independent half of
    /// [`Self::test_cell_counted`]'s dispatch, hoisted once per query
    /// into the batched kernels' plans.
    #[inline]
    pub(crate) fn cell_plan_slot(&self, attribute: usize, bin: u32) -> (usize, u64) {
        let meta = &self.attributes[attribute];
        debug_assert!(bin < meta.cardinality, "bin {bin} out of range");
        match self.level {
            Level::PerDataset => (0, (meta.offset + bin as usize) as u64),
            Level::PerAttribute => (attribute, bin as u64),
            Level::PerColumn => (meta.offset + bin as usize, 0),
        }
    }

    /// [`Self::cell_plan_slot`] with the AB itself.
    #[inline]
    pub(crate) fn cell_plan_target(&self, attribute: usize, bin: u32) -> (&ApproximateBitmap, u64) {
        let (ab, col) = self.cell_plan_slot(attribute, bin);
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
            hybrid,
        }
    }

    /// The attached pruning pyramid, if any.
    pub fn hier(&self) -> Option<&HierAb> {
        self.hier.as_ref()
    }

    /// Builds and attaches a [`HierAb`] pyramid under `config` if one
    /// is not already present. Building probe-sweeps the base AB (see
    /// [`HierAb::build`]), so the pyramid is deterministic for a given
    /// index regardless of when it is attached — at build time or
    /// rebuilt when an old segment is opened.
    pub fn ensure_hier(&mut self, config: &HierConfig) {
        if self.hier.is_none() {
            let hier = HierAb::build_parallel(
                self,
                config,
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            );
            self.hier = Some(hier);
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
    /// needs the source `table` back: exact containers hold the truth,
    /// which the lossy AB cannot reproduce. The companion
    /// false-positive containers *are* probe-swept from the base AB,
    /// so the whole tier is deterministic for a given index + table
    /// and a damaged container rebuilds bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not match the index's row count or
    /// attribute schema.
    pub fn ensure_hybrid(&mut self, table: &BinnedTable, config: &HybridConfig) {
        if self.hybrid.is_none() {
            let hybrid = HybridAb::build_parallel(
                self,
                table,
                config,
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            );
            self.hybrid = Some(hybrid);
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

/// Builds the one dataset-level AB (`s = d·N` set bits, addressed by
/// global column).
fn build_dataset_ab(
    cols: &[bitmap::BinnedColumn],
    attributes: &[AttributeMeta],
    config: &AbConfig,
) -> ApproximateBitmap {
    let last = attributes.last().expect("table has attributes");
    let total_columns = last.offset + last.cardinality as usize;
    let s = (cols[0].len() * cols.len()) as u64;
    let params = config.sizing.params(s, config.k);
    let family = adapt_family(&config.family, total_columns as u64, Level::PerDataset);
    let mapper = CellMapper::for_columns(total_columns);
    let mut ab = ApproximateBitmap::new(params.n_bits, params.k, family, mapper);
    ab.insert_cells(cols.iter().zip(attributes).flat_map(|(col, meta)| {
        let base = meta.offset as u64;
        col.bins
            .iter()
            .enumerate()
            .map(move |(row, &bin)| (row as u64, base + bin as u64))
    }));
    ab
}

/// Builds one attribute-level AB (`s = N` set bits).
fn build_attribute_ab(col: &bitmap::BinnedColumn, config: &AbConfig) -> ApproximateBitmap {
    let params = config.sizing.params(col.len() as u64, config.k);
    let family = adapt_family(&config.family, col.cardinality as u64, Level::PerAttribute);
    let mapper = CellMapper::for_columns(col.cardinality as usize);
    let mut ab = ApproximateBitmap::new(params.n_bits, params.k, family, mapper);
    ab.insert_cells(
        col.bins
            .iter()
            .enumerate()
            .map(|(row, &bin)| (row as u64, bin as u64)),
    );
    ab
}

/// Builds one attribute's per-column ABs (one per bin, sized by the
/// bin's set-bit count). The rows are grouped by bin first (a counting
/// sort), so each AB takes its rows in one batched insert.
fn build_column_abs(col: &bitmap::BinnedColumn, config: &AbConfig) -> Vec<ApproximateBitmap> {
    let counts = col.bin_counts();
    let mut next = Vec::with_capacity(counts.len());
    let mut start = 0usize;
    for &count in &counts {
        next.push(start);
        start += count;
    }
    let mut rows = vec![0u64; col.len()];
    for (row, &bin) in col.bins.iter().enumerate() {
        rows[next[bin as usize]] = row as u64;
        next[bin as usize] += 1;
    }
    // After the fill, next[bin] is the end of the bin's rows.
    counts
        .iter()
        .zip(&next)
        .map(|(&s, &end)| {
            let params = config.sizing.params(s.max(1) as u64, config.k);
            let mut ab = ApproximateBitmap::new(
                params.n_bits,
                params.k,
                config.family.clone(),
                CellMapper::RowOnly,
            );
            ab.insert_cells(rows[end - s..end].iter().map(|&row| (row, 0)));
            ab
        })
        .collect()
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
    fn parallel_build_is_bit_identical() {
        let t = BinnedTable::new(vec![
            BinnedColumn::new("A", (0..500u32).map(|i| i % 7).collect(), 7),
            BinnedColumn::new("B", (0..500u32).map(|i| (i * 3) % 5).collect(), 5),
            BinnedColumn::new("C", (0..500u32).map(|i| (i * 11) % 4).collect(), 4),
        ]);
        for level in [Level::PerAttribute, Level::PerColumn] {
            let cfg = AbConfig::new(level).with_alpha(8);
            let seq = AbIndex::build(&t, &cfg);
            for threads in [1usize, 2, 3, 8] {
                let par = AbIndex::build_parallel(&t, &cfg, threads);
                assert_eq!(par.abs().len(), seq.abs().len(), "{level} x{threads}");
                for (a, b) in par.abs().iter().zip(seq.abs()) {
                    assert_eq!(a.bits(), b.bits(), "{level} x{threads}");
                }
            }
        }
    }

    #[test]
    fn parallel_per_dataset_falls_back() {
        let t = fig6_table();
        let cfg = AbConfig::new(Level::PerDataset).with_alpha(8);
        let seq = AbIndex::build(&t, &cfg);
        let par = AbIndex::build_parallel(&t, &cfg, 4);
        assert_eq!(par.abs()[0].bits(), seq.abs()[0].bits());
    }

    #[test]
    #[should_panic(expected = "per-dataset")]
    fn parallel_rejects_column_group_at_per_column() {
        let t = fig6_table();
        let cfg =
            AbConfig::new(Level::PerColumn).with_family(HashFamily::ColumnGroup { num_columns: 0 });
        AbIndex::build_parallel(&t, &cfg, 2);
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
        let cfg = AbConfig::new(Level::PerAttribute).with_alpha(8);
        let shard = AbIndex::build_row_range(&t, &cfg, 2..6);
        assert_eq!(shard.num_rows(), 4);
        // Shard-local row r corresponds to global row r + 2: every
        // genuinely set cell must still test positive.
        for (a, col) in t.columns().iter().enumerate() {
            for global in 2..6 {
                assert!(shard.test_cell(global - 2, a, col.bins[global]));
            }
        }
        // And the shard over the full range is the monolithic build.
        let full = AbIndex::build_row_range(&t, &cfg, 0..t.num_rows());
        let mono = AbIndex::build(&t, &cfg);
        for (a, b) in full.abs().iter().zip(mono.abs()) {
            assert_eq!(a.bits(), b.bits());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn test_cell_validates_bin() {
        let t = fig6_table();
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute));
        idx.test_cell(0, 0, 3);
    }
}
