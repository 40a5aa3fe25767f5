//! Hierarchical multi-resolution AB: coarse-to-fine pruning for huge
//! rectangular queries (DESIGN.md §18).
//!
//! The paper's three encoding levels are resolution *choices*; a rect
//! query still pays O(rows × ranges) probes even when whole row regions
//! are provably empty. [`HierAb`] adds a pyramid of L coarse levels
//! over an existing [`AbIndex`]: level ℓ partitions the row space into
//! spans of `row_span[ℓ]` rows and each attribute's bins into groups of
//! `bin_group[ℓ]`, and inserts the super-cell `(span, group)` into a
//! small per-level AB **iff some base cell inside the region tests
//! positive in the base AB**. Two consequences:
//!
//! * **No false negatives by construction** — a coarse *miss* proves
//!   every base cell in the region tests negative, so no flat-scan row
//!   inside it could match; pruning the region cannot change the
//!   result.
//! * **Bit-identical results** — occupancy is derived from the *base
//!   AB's* verdicts (a probe sweep), not from the source table, so a
//!   region containing only base-AB false positives is still kept.
//!   The pruned scan therefore returns exactly the flat scan's rows.
//!
//! Queries walk coarse-to-fine ([`HierAb::prune`]): a span survives a
//! level iff for *every* attribute range at least one overlapping
//! group tests positive (OR over groups, AND over ranges — Figure 7
//! lifted one resolution up). Surviving row intervals then feed the
//! existing scalar and batched kernels unchanged.
//!
//! Per-level AB false positives only *lose pruning* (a dead region
//! survives to the next level); they can never prune a live one.

use crate::analysis::next_pow2;
use crate::encoding::ApproximateBitmap;
use crate::kernel::{ColumnSweeper, MAX_BATCH_ROWS};
use crate::level::{AbIndex, AttributeMeta};
use bitmap::RectQuery;
use hashkit::{CellMapper, HashFamily};
use serde::{Deserialize, Serialize};

/// Per-level AB sizing: bits per occupied super-cell. α = 16 with the
/// matching optimal k ≈ ln2·α keeps a level's false-positive rate
/// (which only costs pruning opportunity, never correctness) around
/// 4·10⁻⁴ while the level AB stays tiny next to the base AB.
const LEVEL_ALPHA: u64 = 16;

/// Hash count for the per-level ABs (optimal for α = 16).
const LEVEL_K: usize = 11;

/// Rows in the first batch the finest-level sweep probes in a region;
/// each later batch is twice as deep, up to [`MAX_BATCH_ROWS`]. An
/// occupied region usually shows a positive within its first rows —
/// on a uniform table every region is occupied, and opening each with
/// a full 256-row batch made the sweep 4× slower than the row-at-a-
/// time loop it replaced (10 → 46 ms over 5 120 regions); an empty
/// region runs 240 of its 4 096 rows in the four shallow batches.
const FIRST_SWEEP_ROWS: usize = 16;

/// Geometry of one pyramid level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierLevelSpec {
    /// Rows per super-cell row span.
    pub row_span: usize,
    /// Bins per super-cell bin group (within one attribute).
    pub bin_group: u32,
}

/// Pyramid build configuration: the level geometries, finest first.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierConfig {
    /// Level specs in ascending `row_span` order (finest first).
    pub levels: Vec<HierLevelSpec>,
}

impl Default for HierConfig {
    /// The default geometry: 4096-row × 4-bin regions under 65536-row
    /// × 16-bin super-regions.
    fn default() -> Self {
        HierConfig {
            levels: vec![
                HierLevelSpec {
                    row_span: 4096,
                    bin_group: 4,
                },
                HierLevelSpec {
                    row_span: 65536,
                    bin_group: 16,
                },
            ],
        }
    }
}

/// One resolution of the pyramid: a small AB over (row span × bin
/// group) super-cells.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HierLevel {
    row_span: usize,
    bin_group: u32,
    /// Global group-column of each attribute's group 0 — the coarse
    /// analogue of [`AttributeMeta::offset`]. Recomputed from the
    /// schema on deserialize, never stored.
    group_offsets: Vec<usize>,
    /// Total group columns across all attributes.
    num_groups: usize,
    /// Row spans covering the indexed rows.
    num_spans: usize,
    ab: ApproximateBitmap,
}

impl HierLevel {
    /// Rows per super-cell row span.
    pub fn row_span(&self) -> usize {
        self.row_span
    }

    /// Bins per super-cell bin group.
    pub fn bin_group(&self) -> u32 {
        self.bin_group
    }

    /// The level's spec (for rebuilding a sibling shard's pyramid).
    pub fn spec(&self) -> HierLevelSpec {
        HierLevelSpec {
            row_span: self.row_span,
            bin_group: self.bin_group,
        }
    }

    /// The level's approximate bitmap (for serialization).
    pub fn ab(&self) -> &ApproximateBitmap {
        &self.ab
    }

    /// Fraction of this level's super-cells that are occupied — the
    /// planner's signal for whether descent can prune anything.
    pub fn occupancy_fraction(&self) -> f64 {
        let cells = (self.num_spans * self.num_groups).max(1);
        self.ab.inserted() as f64 / cells as f64
    }

    /// Whether `span` can contain a row matching every `range`: for
    /// each range, OR over the groups its bins overlap; AND across
    /// ranges. A `false` is definite (every base cell in the region
    /// tests negative for some range), so the span is safely pruned.
    fn span_survives(&self, span: usize, ranges: &[bitmap::AttrRange]) -> bool {
        ranges.iter().all(|r| {
            if r.lo > r.hi {
                return false; // degenerate range: no row can match
            }
            let base = self.group_offsets[r.attribute];
            let g_lo = r.lo / self.bin_group;
            let g_hi = r.hi / self.bin_group;
            (g_lo..=g_hi).any(|g| self.ab.contains(span as u64, (base + g as usize) as u64))
        })
    }
}

/// A coarse-to-fine pyramid over an [`AbIndex`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HierAb {
    /// Levels in ascending `row_span` order (finest first).
    levels: Vec<HierLevel>,
    num_rows: usize,
}

/// Outcome of one coarse-to-fine pruning walk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HierPrune {
    /// Surviving row intervals (inclusive), ascending and disjoint;
    /// adjacent survivors are merged so the kernel sees long runs.
    pub intervals: Vec<(usize, usize)>,
    /// Super-cell regions eliminated across all levels.
    pub regions_pruned: u64,
    /// Rows eliminated before any per-row probe ran.
    pub rows_skipped: u64,
}

impl HierAb {
    /// Builds the pyramid over `index` by probe-sweeping the base AB:
    /// a finest-level region is occupied iff *any* of its cells tests
    /// positive (stopping at the first hit), and coarser levels fold
    /// the finest occupancy upward by region intersection. Sweeping
    /// the base AB — not the source table — is what makes pruned
    /// queries bit-identical to flat ones: base-AB false positives
    /// keep their regions alive.
    ///
    /// # Panics
    ///
    /// Panics if `config.levels` is empty, a `row_span` or `bin_group`
    /// is zero, or the levels are not in ascending `row_span` order.
    pub fn build(index: &AbIndex, config: &HierConfig) -> Self {
        let t0 = std::time::Instant::now();
        assert!(
            !config.levels.is_empty(),
            "pyramid needs at least one level"
        );
        for w in config.levels.windows(2) {
            assert!(
                w[0].row_span < w[1].row_span,
                "pyramid levels must ascend by row_span"
            );
        }
        for spec in &config.levels {
            assert!(spec.row_span > 0, "row_span must be positive");
            assert!(spec.bin_group > 0, "bin_group must be positive");
        }
        let attrs = index.attributes();
        let num_rows = index.num_rows();

        let finest = &config.levels[0];
        let fine_geom = LevelGeometry::new(finest, attrs, num_rows);
        let fine_grid = sweep_finest(index, finest, &fine_geom);

        let mut levels = Vec::with_capacity(config.levels.len());
        levels.push(make_level(finest, &fine_geom, &fine_grid));
        for spec in &config.levels[1..] {
            let geom = LevelGeometry::new(spec, attrs, num_rows);
            let grid = fold_up(finest, &fine_geom, &fine_grid, spec, &geom, attrs, num_rows);
            levels.push(make_level(spec, &geom, &grid));
        }
        let hier = HierAb { levels, num_rows };
        obs::histogram!("hier.build_us").record(t0.elapsed().as_micros() as u64);
        hier
    }

    /// Reassembles a pyramid from stored pieces: group geometry is
    /// recomputed from the schema, only the specs and ABs are taken
    /// from storage.
    pub fn from_serialized(
        num_rows: usize,
        attributes: &[AttributeMeta],
        parts: Vec<(HierLevelSpec, ApproximateBitmap)>,
    ) -> Self {
        let levels = parts
            .into_iter()
            .map(|(spec, ab)| {
                let geom = LevelGeometry::new(&spec, attributes, num_rows);
                HierLevel {
                    row_span: spec.row_span,
                    bin_group: spec.bin_group,
                    group_offsets: geom.group_offsets,
                    num_groups: geom.num_groups,
                    num_spans: geom.num_spans,
                    ab,
                }
            })
            .collect();
        HierAb { levels, num_rows }
    }

    /// Rows the pyramid covers.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The levels, finest first.
    pub fn levels(&self) -> &[HierLevel] {
        &self.levels
    }

    /// The finest (first) level — the planner's descent signal.
    pub fn finest(&self) -> &HierLevel {
        &self.levels[0]
    }

    /// The geometry this pyramid was built with — lets a repair path
    /// rebuild a sibling shard's pyramid identically.
    pub fn config(&self) -> HierConfig {
        HierConfig {
            levels: self.levels.iter().map(HierLevel::spec).collect(),
        }
    }

    /// Walks the pyramid coarsest-to-finest over the query's row
    /// interval, returning the surviving row intervals plus pruning
    /// accounting. Pure — the caller decides which counters to bump.
    ///
    /// An empty `ranges` list (vacuous AND: every row matches) or a
    /// degenerate row interval returns the input interval unpruned.
    pub fn prune(&self, query: &RectQuery) -> HierPrune {
        let mut out = HierPrune::default();
        if query.row_lo > query.row_hi {
            return out;
        }
        if query.ranges.is_empty() {
            out.intervals.push((query.row_lo, query.row_hi));
            return out;
        }
        let mut intervals = vec![(query.row_lo, query.row_hi)];
        // Coarsest level first: one cheap probe can discard a 65536-row
        // region before the finer level spends any work on it.
        for level in self.levels.iter().rev() {
            let mut next: Vec<(usize, usize)> = Vec::new();
            for &(lo, hi) in &intervals {
                for span in (lo / level.row_span)..=(hi / level.row_span) {
                    let s_lo = (span * level.row_span).max(lo);
                    let s_hi = ((span + 1) * level.row_span - 1).min(hi);
                    if level.span_survives(span, &query.ranges) {
                        match next.last_mut() {
                            // Merge adjacent survivors into one run.
                            Some(last) if last.1 + 1 == s_lo => last.1 = s_hi,
                            _ => next.push((s_lo, s_hi)),
                        }
                    } else {
                        out.regions_pruned += 1;
                        out.rows_skipped += (s_hi - s_lo + 1) as u64;
                    }
                }
            }
            intervals = next;
            if intervals.is_empty() {
                break;
            }
        }
        out.intervals = intervals;
        out
    }

    /// Total pyramid storage in bytes (all level ABs).
    pub fn size_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.ab.size_bytes()).sum()
    }
}

/// Derived per-level geometry: span count, per-attribute group
/// offsets, total group columns.
struct LevelGeometry {
    num_spans: usize,
    group_offsets: Vec<usize>,
    num_groups: usize,
}

impl LevelGeometry {
    fn new(spec: &HierLevelSpec, attrs: &[AttributeMeta], num_rows: usize) -> Self {
        let mut group_offsets = Vec::with_capacity(attrs.len());
        let mut total = 0usize;
        for a in attrs {
            group_offsets.push(total);
            total += a.cardinality.div_ceil(spec.bin_group) as usize;
        }
        LevelGeometry {
            num_spans: num_rows.div_ceil(spec.row_span),
            group_offsets,
            num_groups: total,
        }
    }
}

/// Probe-sweeps the base AB for the finest level's occupancy grid
/// (`grid[span * num_groups + group_col]`). The sweep runs the lockstep
/// probe loop ([`ColumnSweeper`]): a batch is up to [`MAX_BATCH_ROWS`]
/// rows of one bin (deepening from [`FIRST_SWEEP_ROWS`]), and a region
/// is occupied at the first batch with a survivor; a clean region costs
/// `rows × bins` short-circuiting probes (≈2 bit reads each at 50%
/// fill).
fn sweep_finest(index: &AbIndex, spec: &HierLevelSpec, geom: &LevelGeometry) -> Vec<bool> {
    let num_rows = index.num_rows();
    let mut sweeper = ColumnSweeper::new(index);
    let mut grid = vec![false; geom.num_spans * geom.num_groups];
    for span in 0..geom.num_spans {
        let row_lo = span * spec.row_span;
        let row_hi = ((span + 1) * spec.row_span).min(num_rows);
        let base = span * geom.num_groups;
        for (a, meta) in index.attributes().iter().enumerate() {
            let groups = meta.cardinality.div_ceil(spec.bin_group);
            for g in 0..groups {
                let bin_lo = g * spec.bin_group;
                let bin_hi = ((g + 1) * spec.bin_group).min(meta.cardinality);
                let cell = base + geom.group_offsets[a] + g as usize;
                let mut lo = row_lo;
                let mut depth = FIRST_SWEEP_ROWS;
                while lo < row_hi && !grid[cell] {
                    let rows = lo..(lo + depth).min(row_hi);
                    grid[cell] = (bin_lo..bin_hi)
                        .any(|bin| !sweeper.positives(a, bin, rows.clone()).is_empty());
                    lo = rows.end;
                    depth = (2 * depth).min(MAX_BATCH_ROWS);
                }
            }
        }
    }
    grid
}

/// Folds the finest level's occupancy upward into a coarser grid: a
/// coarse region is occupied iff it intersects an occupied finest
/// region. Intersection (not containment) handles non-multiple
/// geometries; it can only over-mark, which is the safe direction.
fn fold_up(
    fine_spec: &HierLevelSpec,
    fine_geom: &LevelGeometry,
    fine_grid: &[bool],
    spec: &HierLevelSpec,
    geom: &LevelGeometry,
    attrs: &[AttributeMeta],
    num_rows: usize,
) -> Vec<bool> {
    let mut grid = vec![false; geom.num_spans * geom.num_groups];
    for f_span in 0..fine_geom.num_spans {
        let row_lo = f_span * fine_spec.row_span;
        let row_hi = ((f_span + 1) * fine_spec.row_span).min(num_rows) - 1;
        for (a, meta) in attrs.iter().enumerate() {
            let f_groups = meta.cardinality.div_ceil(fine_spec.bin_group);
            for fg in 0..f_groups {
                if !fine_grid
                    [f_span * fine_geom.num_groups + fine_geom.group_offsets[a] + fg as usize]
                {
                    continue;
                }
                let bin_lo = fg * fine_spec.bin_group;
                let bin_hi = ((fg + 1) * fine_spec.bin_group).min(meta.cardinality) - 1;
                for span in (row_lo / spec.row_span)..=(row_hi / spec.row_span) {
                    for g in (bin_lo / spec.bin_group)..=(bin_hi / spec.bin_group) {
                        grid[span * geom.num_groups + geom.group_offsets[a] + g as usize] = true;
                    }
                }
            }
        }
    }
    grid
}

/// Materializes a level AB from its occupancy grid: sized to the
/// occupied count at α = [`LEVEL_ALPHA`], double hashing, column
/// mapper over the level's group columns.
fn make_level(spec: &HierLevelSpec, geom: &LevelGeometry, grid: &[bool]) -> HierLevel {
    let occupied = grid.iter().filter(|&&b| b).count();
    let n_bits = next_pow2((occupied.max(1) as u64) * LEVEL_ALPHA);
    let mut ab = ApproximateBitmap::new(
        n_bits,
        LEVEL_K,
        HashFamily::DoubleHashing,
        CellMapper::for_columns(geom.num_groups.max(1)),
    );
    // The grid is span-major, `num_groups` columns a span.
    let groups = geom.num_groups as u64;
    ab.insert_cells(
        (0u64..)
            .zip(grid)
            .filter(|&(_, &occupied)| occupied)
            .map(|(cell, _)| (cell / groups, cell % groups)),
    );
    HierLevel {
        row_span: spec.row_span,
        bin_group: spec.bin_group,
        group_offsets: geom.group_offsets.clone(),
        num_groups: geom.num_groups,
        num_spans: geom.num_spans,
        ab,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Level;
    use crate::config::AbConfig;
    use bitmap::{AttrRange, BinnedColumn, BinnedTable};

    /// A clustered table: bin = row / 250 over 8 bins × 2000 rows, so
    /// most (span × group) regions are provably empty at small spans.
    fn clustered_table(rows: usize, card: u32) -> BinnedTable {
        let seg = rows / card as usize;
        BinnedTable::new(vec![BinnedColumn::new(
            "v",
            (0..rows)
                .map(|r| ((r / seg.max(1)) as u32).min(card - 1))
                .collect(),
            card,
        )])
    }

    fn small_config() -> HierConfig {
        HierConfig {
            levels: vec![
                HierLevelSpec {
                    row_span: 64,
                    bin_group: 2,
                },
                HierLevelSpec {
                    row_span: 256,
                    bin_group: 4,
                },
            ],
        }
    }

    #[test]
    fn pruned_rows_equal_flat_rows() {
        let t = clustered_table(2000, 8);
        // α = 32 keeps base-AB false positives rare enough that some
        // regions actually prune; correctness holds at any α.
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(32));
        let hier = HierAb::build(&idx, &small_config());
        for (lo, hi) in [(0u32, 0u32), (2, 3), (7, 7), (0, 7)] {
            let q = RectQuery::new(vec![AttrRange::new(0, lo, hi)], 0, 1999);
            let flat = idx.execute_rect(&q);
            let prune = hier.prune(&q);
            let mut pruned_rows = Vec::new();
            for &(a, b) in &prune.intervals {
                let sub = RectQuery::new(q.ranges.clone(), a, b);
                pruned_rows.extend(idx.execute_rect(&sub));
            }
            assert_eq!(pruned_rows, flat, "bins {lo}..={hi}");
            // Total coverage never exceeds the query interval.
            let kept: usize = prune.intervals.iter().map(|&(a, b)| b - a + 1).sum();
            assert_eq!(kept as u64 + prune.rows_skipped, 2000);
        }
    }

    #[test]
    fn narrow_queries_actually_prune() {
        let t = clustered_table(2000, 8);
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(32));
        let hier = HierAb::build(&idx, &small_config());
        // Bin 0 lives in rows 0..250; spans past ~256 must die. The
        // query range 0..=1 maps entirely into group 0.
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 1)], 0, 1999);
        let prune = hier.prune(&q);
        assert!(
            prune.rows_skipped > 1000,
            "expected most rows pruned, skipped only {}",
            prune.rows_skipped
        );
        assert!(prune.regions_pruned > 0);
    }

    #[test]
    fn empty_ranges_and_degenerate_intervals_do_not_prune() {
        let t = clustered_table(512, 8);
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(16));
        let hier = HierAb::build(&idx, &small_config());
        let vacuous = RectQuery::new(vec![], 10, 100);
        let p = hier.prune(&vacuous);
        assert_eq!(p.intervals, vec![(10, 100)]);
        assert_eq!(p.regions_pruned, 0);
        let degenerate = RectQuery {
            ranges: vec![AttrRange::new(0, 0, 1)],
            row_lo: 100,
            row_hi: 10,
        };
        assert!(hier.prune(&degenerate).intervals.is_empty());
    }

    #[test]
    fn coarse_levels_cover_finest_occupancy() {
        // Any query surviving the finest level alone must also survive
        // the full coarse-to-fine walk (coarser levels only widen).
        let t = clustered_table(2000, 8);
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(32));
        let full = HierAb::build(&idx, &small_config());
        let fine_only = HierAb::build(
            &idx,
            &HierConfig {
                levels: vec![small_config().levels[0]],
            },
        );
        for bin in 0..8u32 {
            let q = RectQuery::new(vec![AttrRange::new(0, bin, bin)], 0, 1999);
            let fine = fine_only.prune(&q);
            let both = full.prune(&q);
            // Every row kept by the fine-only walk is kept by the full
            // walk's finest level too, so coverage can only shrink via
            // *valid* coarse pruning: both must keep the same rows.
            let covers = |p: &HierPrune, row: usize| {
                p.intervals.iter().any(|&(a, b)| (a..=b).contains(&row))
            };
            for &(a, b) in &fine.intervals {
                for row in a..=b {
                    if idx.try_execute_rows(&[row], &q.ranges).unwrap().len() == 1 {
                        assert!(covers(&both, row), "bin {bin} row {row} lost");
                    }
                }
            }
        }
    }

    #[test]
    fn serialization_roundtrip_preserves_pruning() {
        let t = clustered_table(1024, 8);
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(32));
        let hier = HierAb::build(&idx, &small_config());
        let parts: Vec<(HierLevelSpec, ApproximateBitmap)> = hier
            .levels()
            .iter()
            .map(|l| (l.spec(), l.ab().clone()))
            .collect();
        let back = HierAb::from_serialized(idx.num_rows(), idx.attributes(), parts);
        assert_eq!(back.config(), hier.config());
        for bin in 0..8u32 {
            let q = RectQuery::new(vec![AttrRange::new(0, bin, bin)], 0, 1023);
            assert_eq!(back.prune(&q), hier.prune(&q), "bin {bin}");
        }
    }

    #[test]
    fn occupancy_fraction_reflects_clustering() {
        let t = clustered_table(2000, 8);
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(32));
        let hier = HierAb::build(&idx, &small_config());
        // 64-row spans × 2-bin groups over perfectly clustered data:
        // each span holds 1 (occasionally 2) of the 4 groups.
        let f = hier.finest().occupancy_fraction();
        assert!(f > 0.0 && f < 0.7, "implausible occupancy {f}");
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn unordered_levels_rejected() {
        let t = clustered_table(512, 8);
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute));
        HierAb::build(
            &idx,
            &HierConfig {
                levels: vec![
                    HierLevelSpec {
                        row_span: 256,
                        bin_group: 4,
                    },
                    HierLevelSpec {
                        row_span: 64,
                        bin_group: 2,
                    },
                ],
            },
        );
    }
}
