//! Query processing over the AB index.
//!
//! Implements the paper's two retrieval algorithms:
//!
//! * **Figure 5** — arbitrary cell-subset queries
//!   `Q = {(r_1,c_1), …, (r_l,c_l)}` in O(l·k);
//! * **Figure 7** — rectangular bitmap queries
//!   `Q = {(A_1,l_1,u_1), …, (R, r_l..r_x)}`: per row, OR the cells of
//!   each attribute interval (short-circuiting on the first hit) and
//!   AND across attributes (short-circuiting on the first empty
//!   interval).
//!
//! Because the AB has no false negatives, rectangular results have
//! 100% recall; precision is evaluated against the exact index via
//! [`PrecisionStats`].

use crate::hier::HierPrune;
use crate::hybrid::HybridAb;
use crate::kernel::{HierMode, HybridMode, KernelKind, KernelOpts};
use crate::level::{AbIndex, AttributeMeta};
use bitmap::RectQuery;
use serde::{Deserialize, Serialize};

/// A single cell of a cell-subset query: row + attribute + bin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// Row identifier.
    pub row: usize,
    /// Attribute index.
    pub attribute: usize,
    /// Bin within the attribute.
    pub bin: u32,
}

impl Cell {
    /// Convenience constructor.
    pub fn new(row: usize, attribute: usize, bin: u32) -> Self {
        Cell {
            row,
            attribute,
            bin,
        }
    }
}

/// Statistics from one rectangular query execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryStats {
    /// Number of AB cell probes performed (each costs ≤ k bit reads).
    pub cells_probed: usize,
    /// Number of rows reported as (approximate) matches.
    pub rows_matched: usize,
    /// Number of AB bits actually read across all probes. The Figure 5
    /// short-circuit makes this ≤ `cells_probed × k` — the paper's
    /// O(c·k) retrieval bound, observable per query.
    pub bits_read: usize,
    /// Super-cell regions the hierarchical pyramid eliminated before
    /// the per-row kernel ran (0 when pruning was off or didn't fire).
    pub regions_pruned: u64,
    /// Rows the pyramid skipped — rows the flat scan would have
    /// probed but which never reached the kernel.
    pub rows_skipped: u64,
    /// Retired: always 0. The exact tier keeps no record of the AB's
    /// false positives, so it cannot count the ones it removes (the
    /// hybrid answer is still the flat answer minus false positives
    /// only). Kept for readers built against it until they stop.
    pub fp_rows_eliminated: u64,
}

/// A rectangular query that cannot be executed against this index.
///
/// Both variants render with the phrase "out of range", matching the
/// messages the panicking entry points ([`AbIndex::execute_rect`])
/// have always produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryError {
    /// The query's row interval extends past the indexed rows.
    RowOutOfRange {
        /// Offending row id (the query's `row_hi`).
        row: usize,
        /// Number of rows the index covers.
        num_rows: usize,
    },
    /// An attribute range names a bin past the attribute's cardinality.
    BinOutOfRange {
        /// Offending attribute index.
        attribute: usize,
        /// Offending bin (the range's `hi`).
        bin: u32,
        /// The attribute's cardinality.
        cardinality: u32,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            QueryError::RowOutOfRange { row, num_rows } => {
                write!(f, "row {row} out of range {num_rows}")
            }
            QueryError::BinOutOfRange {
                attribute,
                bin,
                cardinality,
            } => {
                write!(
                    f,
                    "bin {bin} out of range {cardinality} for attribute {attribute}"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// The one range check behind every query kind: `row` must be an
/// indexed row and each `(attribute, bin)` of `bins` must name a bin
/// the attribute has (an unknown attribute has none). A rectangle
/// passes its `row_hi` and each range's `hi`; a cell passes itself.
#[inline]
pub fn validate_ranges(
    attributes: &[AttributeMeta],
    num_rows: usize,
    row: usize,
    bins: impl IntoIterator<Item = (usize, u32)>,
) -> Result<(), QueryError> {
    if row >= num_rows {
        return Err(QueryError::RowOutOfRange { row, num_rows });
    }
    for (attribute, bin) in bins {
        let cardinality = attributes.get(attribute).map_or(0, |a| a.cardinality);
        if bin >= cardinality {
            return Err(QueryError::BinOutOfRange {
                attribute,
                bin,
                cardinality,
            });
        }
    }
    Ok(())
}

/// Rows of one Roaring container (chunks are keyed by a row's high 16
/// bits): what one stage of pure mask work spans
/// ([`AbIndex::stages`]) — ≈ 10–20 µs, against ≈ 0.2–0.4 ms for the
/// few hundred rows of a probed stage.
const CONTAINER_ROWS: usize = 1 << 16;

impl AbIndex {
    /// Figure 5: evaluates an arbitrary cell subset, returning one
    /// boolean per cell in query order. O(c·k) where `c = cells.len()`.
    /// Runs with the default [`KernelOpts`] (batched kernel, no tiers).
    pub fn retrieve_cells(&self, cells: &[Cell]) -> Vec<bool> {
        self.retrieve_cells_with_opts(cells, KernelOpts::default())
    }

    /// [`Self::retrieve_cells`] with explicit kernel options (engine,
    /// exact tier; `kernel.into()` for an engine alone). Verdicts for
    /// unbacked cells are identical on every engine; only the memory
    /// schedule differs.
    pub fn retrieve_cells_with_opts(&self, cells: &[Cell], opts: KernelOpts) -> Vec<bool> {
        let mut tspan = obs::span_current(match opts.kernel {
            KernelKind::Scalar => "ab.kernel.scalar",
            KernelKind::Batched => "ab.kernel.batched",
        });
        if tspan.enabled() {
            tspan.annotate("cells_probed", cells.len());
        }
        // Exact-backed cells are answered from their containers (the
        // truth — an AB false positive for such a cell comes back
        // `false` here). A tier that backs nothing has nothing to say.
        let hybrid = match opts.hybrid {
            HybridMode::Off => None,
            HybridMode::Auto | HybridMode::Force => {
                self.hybrid().filter(|hy| !hy.bins().is_empty())
            }
        };
        match opts.kernel {
            // The reference loop every other cell path is checked
            // against: one `test_cell` (or one container lookup) per
            // cell, nothing hoisted.
            KernelKind::Scalar => {
                obs::counter!("kernel.scalar_fallbacks").inc();
                let mut exact_cells = 0u64;
                let out = cells
                    .iter()
                    .map(
                        |c| match hybrid.and_then(|hy| hy.backing(c.attribute, c.bin)) {
                            Some(backing) => {
                                assert!(
                                    c.row < self.num_rows(),
                                    "row {} out of range {}",
                                    c.row,
                                    self.num_rows()
                                );
                                exact_cells += 1;
                                backing.contains(c.row)
                            }
                            None => self.test_cell(c.row, c.attribute, c.bin),
                        },
                    )
                    .collect();
                if exact_cells > 0 {
                    obs::counter!("hybrid.cells_exact").add(exact_cells);
                }
                out
            }
            KernelKind::Batched => crate::kernel::retrieve_cells_waves(self, hybrid, cells),
        }
    }

    /// Figure 7: evaluates a rectangular query over the AB, returning
    /// the row identifiers reported as matches (superset of the exact
    /// answer; never misses a true match). Runs with the default
    /// [`KernelOpts`] (batched kernel, no tiers).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range rows or bins; use
    /// [`Self::try_execute_rect_with_opts`] for a typed error instead.
    pub fn execute_rect(&self, query: &RectQuery) -> Vec<usize> {
        match self.try_execute_rect_with_opts(query, KernelOpts::default()) {
            Ok(rows) => rows,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Self::execute_rect`] with explicit kernel options
    /// (`kernel.into()` for an engine alone): returns a [`QueryError`]
    /// for out-of-range rows or bins instead of panicking.
    pub fn try_execute_rect_with_opts(
        &self,
        query: &RectQuery,
        opts: KernelOpts,
    ) -> Result<Vec<usize>, QueryError> {
        self.try_execute_rect_with_stats_opts(query, opts)
            .map(|(rows, _)| rows)
    }

    /// [`Self::try_execute_rect_with_opts`] plus probe-count
    /// statistics. Rejected queries count into `ab.query.rejected`;
    /// executed ones flush their [`QueryStats`] into the `ab.query.*`
    /// counters once, so the registry totals equal the sum of the
    /// returned stats exactly. Every engine returns bit-identical rows
    /// and [`QueryStats`] (the differential tests in
    /// `tests/kernel_differential.rs` enforce this); only the memory
    /// access schedule differs.
    pub fn try_execute_rect_with_stats_opts(
        &self,
        query: &RectQuery,
        opts: KernelOpts,
    ) -> Result<(Vec<usize>, QueryStats), QueryError> {
        validate_ranges(
            self.attributes(),
            self.num_rows(),
            query.row_hi,
            query.ranges.iter().map(|r| (r.attribute, r.hi)),
        )
        .inspect_err(|_| obs::counter!("ab.query.rejected").inc())?;
        let _timer = obs::span("ab.query.us");
        // Kernel-stage trace span: attaches under whatever request
        // span the caller entered on this thread (no-op otherwise).
        let mut tspan = obs::span_current(match opts.kernel {
            KernelKind::Scalar => "ab.kernel.scalar",
            KernelKind::Batched => "ab.kernel.batched",
        });
        // It composes with hier: pruned intervals dispatch to the
        // hybrid kernel instead of the flat one.
        let hybrid = self.engaged_hybrid(query, opts.hybrid);
        if hybrid.is_some() {
            obs::counter!("hybrid.queries").inc();
        }
        let (rows, stats, short_circuits) = self
            .execute_rect_hier(hybrid, query, opts)
            .unwrap_or_else(|| match hybrid {
                Some(hy) => self.execute_rect_hybrid(hy, query),
                None => self.execute_rect_flat(query, opts),
            });
        if tspan.enabled() {
            tspan.annotate("cells_probed", stats.cells_probed);
            tspan.annotate("bits_read", stats.bits_read);
            tspan.annotate("rows_matched", stats.rows_matched);
            if stats.regions_pruned > 0 {
                tspan.annotate("regions_pruned", stats.regions_pruned as usize);
                tspan.annotate("rows_skipped", stats.rows_skipped as usize);
            }
        }
        obs::counter!("ab.query.executed").inc();
        obs::counter!("ab.query.cells_probed").add(stats.cells_probed as u64);
        obs::counter!("ab.query.bits_read").add(stats.bits_read as u64);
        obs::counter!("ab.query.rows_matched").add(stats.rows_matched as u64);
        obs::counter!("ab.query.short_circuit_hits").add(short_circuits);
        Ok((rows, stats))
    }

    /// One flat (un-pruned) kernel dispatch: the engine match shared
    /// by the direct path and each surviving hier sub-interval (which
    /// must not re-enter the public path — stats and trace counters
    /// flush exactly once per query).
    fn execute_rect_flat(
        &self,
        query: &RectQuery,
        opts: KernelOpts,
    ) -> (Vec<usize>, QueryStats, u64) {
        match opts.kernel {
            KernelKind::Scalar => {
                obs::counter!("kernel.scalar_fallbacks").inc();
                self.execute_rect_scalar(query)
            }
            KernelKind::Batched => crate::kernel::execute_rect_waves(self, query),
        }
    }

    /// The hier gate, in one place for every caller that prunes before
    /// it probes: walks the pyramid coarse-to-fine and returns the
    /// surviving row intervals — when `mode` asks for pruning, a
    /// pyramid is attached, the query constrains at least one
    /// attribute (a vacuous AND matches every row — nothing to prune)
    /// over a non-degenerate row interval, and the planner
    /// ([`crate::planner::plan_descent`]) expects descent to beat a
    /// flat scan (`Auto`; `Force` skips the planner). `None` means
    /// "scan `query` flat". A `Some` has been counted into
    /// `hier.regions_pruned` / `hier.rows_skipped`, so a caller that
    /// executes the intervals itself runs them with [`HierMode::Off`].
    /// `query` must already be valid for this index
    /// ([`validate_ranges`]).
    pub fn hier_prune(&self, query: &RectQuery, mode: HierMode) -> Option<HierPrune> {
        if mode == HierMode::Off || query.ranges.is_empty() || query.row_lo > query.row_hi {
            return None;
        }
        let hier = self.hier()?;
        if mode == HierMode::Auto && !crate::planner::plan_descent(hier, query) {
            return None;
        }
        let prune = hier.prune(query);
        obs::counter!("hier.regions_pruned").add(prune.regions_pruned);
        obs::counter!("hier.rows_skipped").add(prune.rows_skipped);
        Some(prune)
    }

    /// The exact-tier gate: the attached tier when `mode` lets it
    /// answer `query` — the query constrains at least one attribute
    /// over a non-degenerate row interval and the tier backs at least
    /// one bin the query touches (`Auto`) or unconditionally (`Force`).
    fn engaged_hybrid(&self, query: &RectQuery, mode: HybridMode) -> Option<&HybridAb> {
        if mode == HybridMode::Off || query.ranges.is_empty() || query.row_lo > query.row_hi {
            return None;
        }
        self.hybrid()
            .filter(|hy| mode == HybridMode::Force || hy.covers_any(query))
    }

    /// Cuts `query` into **stages**: consecutive row intervals, each a
    /// bounded amount of work, for a caller that has something to do
    /// between them (the service checks the request's deadline and
    /// cancellation). Returns the tier that will answer — `"exact"`
    /// (container masks only), `"mixed"` (masks plus AB probes for the
    /// unbacked bins) or `"ab"` (probes only) — and the stages,
    /// ascending and disjoint. What bounds a stage is what a row costs:
    ///
    /// * wherever any bin of any range is hash-probed, `probe_rows`
    ///   rows, counted from the start of each interval — up to k
    ///   probes per bin per row;
    /// * where the exact tier backs every bin of every range
    ///   ([`HybridAb::covers_all`], under an `opts.hybrid` that is not
    ///   `Off`), one Roaring container (2¹⁶ rows, container-aligned,
    ///   so no stage's mask straddles two containers) — a few word
    ///   operations per 64 rows.
    ///
    /// The stages cover what [`Self::hier_prune`] leaves of the query
    /// under `opts.hier` (everything, when it does not engage); the
    /// pruning is counted here, so the caller executes each stage with
    /// [`HierMode::Off`] — rows, [`QueryStats`] sums and the `hier.*` /
    /// `hybrid.*` row counters are then those of one whole-query call.
    /// `query` must already be valid for this index
    /// ([`validate_ranges`]).
    ///
    /// # Panics
    ///
    /// Panics if `probe_rows` is zero.
    pub fn stages(
        &self,
        query: &RectQuery,
        opts: KernelOpts,
        probe_rows: usize,
    ) -> (&'static str, Vec<(usize, usize)>) {
        assert!(probe_rows > 0, "a stage needs at least one row");
        let (tier, stride) = match self.engaged_hybrid(query, opts.hybrid) {
            Some(hy) if hy.covers_all(query) => ("exact", None),
            Some(_) => ("mixed", Some(probe_rows)),
            None => ("ab", Some(probe_rows)),
        };
        let pruned = self.hier_prune(query, opts.hier);
        let whole = [(query.row_lo, query.row_hi)];
        let intervals = pruned.as_ref().map_or(&whole[..], |p| &p.intervals);
        let mut stages = Vec::new();
        for &(mut lo, hi) in intervals {
            while lo <= hi {
                let end = hi.min(match stride {
                    Some(rows) => lo + rows - 1,
                    None => lo | (CONTAINER_ROWS - 1),
                });
                stages.push((lo, end));
                lo = end + 1;
            }
        }
        (tier, stages)
    }

    /// The pruned execution path, taken when [`Self::hier_prune`]
    /// engages: run the flat (or hybrid) kernel over each surviving
    /// row interval and concatenate (intervals are ascending and
    /// disjoint, so rows come out in the flat scan's order). Level-AB
    /// probes are not counted into `cells_probed` — that field keeps
    /// meaning "base-AB cell probes", so pruning can only decrease it.
    fn execute_rect_hier(
        &self,
        hybrid: Option<&HybridAb>,
        query: &RectQuery,
        opts: KernelOpts,
    ) -> Option<(Vec<usize>, QueryStats, u64)> {
        let prune = self.hier_prune(query, opts.hier)?;
        let mut rows = Vec::new();
        let mut stats = QueryStats {
            regions_pruned: prune.regions_pruned,
            rows_skipped: prune.rows_skipped,
            ..QueryStats::default()
        };
        let mut short_circuits = 0u64;
        for &(lo, hi) in &prune.intervals {
            let sub = RectQuery::new(query.ranges.clone(), lo, hi);
            let (r, s, c) = match hybrid {
                Some(hy) => self.execute_rect_hybrid(hy, &sub),
                None => self.execute_rect_flat(&sub, opts),
            };
            rows.extend(r);
            stats.cells_probed += s.cells_probed;
            stats.bits_read += s.bits_read;
            short_circuits += c;
        }
        stats.rows_matched = rows.len();
        Some((rows, stats, short_circuits))
    }

    /// The exact-tier execution path for one row interval. Backed bins
    /// are answered from their Roaring containers word-at-a-time —
    /// zero hash probes, zero false positives — and merged with AB
    /// probes for the unbacked bins. When every bin of every range is
    /// backed the whole query resolves by word-parallel mask algebra;
    /// otherwise a per-row loop combines container verdicts with
    /// Figure 7 short-circuit probing of the remaining bins.
    /// `cells_probed`/`bits_read` keep meaning "base-AB cell probes":
    /// container lookups count as neither.
    fn execute_rect_hybrid(
        &self,
        hy: &HybridAb,
        query: &RectQuery,
    ) -> (Vec<usize>, QueryStats, u64) {
        let mut stats = QueryStats::default();
        if query.row_lo > query.row_hi {
            return (Vec::new(), stats, 0);
        }
        if query.ranges.is_empty() {
            // Vacuous AND: every row matches, identical to flat.
            let rows: Vec<usize> = (query.row_lo..=query.row_hi).collect();
            stats.rows_matched = rows.len();
            return (rows, stats, 0);
        }
        let (row_lo, row_hi) = (query.row_lo, query.row_hi);
        let mut plans: Vec<_> = query
            .ranges
            .iter()
            .map(|r| hy.plan_range(r.attribute, r.lo, r.hi, row_lo, row_hi))
            .collect();

        if plans.iter().all(|p| p.unbacked.is_empty()) {
            // Fully backed: word-parallel AND across ranges, in place.
            let (first, rest) = plans.split_first_mut().expect("ranges are non-empty");
            for p in rest.iter() {
                for (d, s) in first.exact.iter_mut().zip(&p.exact) {
                    *d &= s;
                }
            }
            let matched: usize = first.exact.iter().map(|w| w.count_ones() as usize).sum();
            let mut rows = Vec::with_capacity(matched);
            for (w, word) in first.exact.iter().enumerate() {
                let mut word = *word;
                while word != 0 {
                    rows.push(row_lo + w * 64 + word.trailing_zeros() as usize);
                    word &= word - 1;
                }
            }
            stats.rows_matched = rows.len();
            return (rows, stats, 0);
        }

        // Mixed: container verdicts for backed bins, Figure 7 probing
        // for the rest, per row.
        let mut rows = Vec::new();
        let mut short_circuits = 0u64;
        for row in row_lo..=row_hi {
            let i = row - row_lo;
            let mut matched = true;
            for (range, plan) in query.ranges.iter().zip(&plans) {
                let mut or = plan.exact[i / 64] >> (i % 64) & 1 == 1;
                if !or {
                    for &bin in &plan.unbacked {
                        stats.cells_probed += 1;
                        let (hit, read) = self.test_cell_counted(row, range.attribute, bin);
                        stats.bits_read += read as usize;
                        if hit {
                            or = true;
                            short_circuits += u64::from(Some(&bin) != plan.unbacked.last());
                            break; // Figure 7 OR short-circuit
                        }
                    }
                }
                if !or {
                    matched = false;
                    break; // AND short-circuit
                }
            }
            if matched {
                rows.push(row);
            }
        }
        stats.rows_matched = rows.len();
        (rows, stats, short_circuits)
    }

    /// The reference row-at-a-time Figure 7 loop, kept verbatim as the
    /// semantic ground truth the batched kernel is differentially
    /// tested against. Returns `(rows, stats, or_short_circuits)`.
    fn execute_rect_scalar(&self, query: &RectQuery) -> (Vec<usize>, QueryStats, u64) {
        let mut rows = Vec::new();
        let mut stats = QueryStats::default();
        let mut short_circuits = 0u64;
        for row in query.row_lo..=query.row_hi {
            let mut andpart = true;
            for range in &query.ranges {
                let mut orpart = false;
                for bin in range.lo..=range.hi {
                    stats.cells_probed += 1;
                    let (hit, read) = self.test_cell_counted(row, range.attribute, bin);
                    stats.bits_read += read as usize;
                    if hit {
                        orpart = true;
                        short_circuits += u64::from(bin < range.hi);
                        break; // Figure 7 line 14-15: OR short-circuit
                    }
                }
                if !orpart {
                    andpart = false;
                    break; // Figure 7 line 17-19: AND short-circuit
                }
            }
            if andpart {
                rows.push(row);
            }
        }
        stats.rows_matched = rows.len();
        (rows, stats, short_circuits)
    }

    /// Figure 7 with an explicit row list: the paper's query definition
    /// gives the `R` component as a list `(R, r_l, …, r_x)` — e.g. the
    /// intro's "every Monday for the last 3 months" — not necessarily a
    /// contiguous range. Returns the subset of `rows` that
    /// (approximately) satisfies every attribute interval, in input
    /// order. Cost is O(|rows| · probes), independent of the table
    /// size. A row past the index, or a range naming a bin (or an
    /// attribute) the index does not have, is a [`QueryError`].
    pub fn try_execute_rows(
        &self,
        rows: &[usize],
        ranges: &[bitmap::AttrRange],
    ) -> Result<Vec<usize>, QueryError> {
        validate_ranges(
            self.attributes(),
            self.num_rows(),
            rows.iter().copied().max().unwrap_or(0),
            ranges.iter().map(|r| (r.attribute, r.hi)),
        )
        .inspect_err(|_| obs::counter!("ab.query.rejected").inc())?;
        Ok(rows
            .iter()
            .copied()
            .filter(|&row| {
                ranges.iter().all(|range| {
                    (range.lo..=range.hi).any(|bin| self.test_cell(row, range.attribute, bin))
                })
            })
            .collect())
    }
}

/// Accuracy of an approximate answer against the exact one.
///
/// The experiments report *precision* = |exact ∩ approx| / |approx|
/// (§5.3: sampled queries guarantee a non-empty exact answer) and the
/// no-false-negative guarantee makes *recall* always 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrecisionStats {
    /// Rows in both answers.
    pub true_positives: usize,
    /// Rows only in the approximate answer.
    pub false_positives: usize,
    /// Rows only in the exact answer (must be 0 for a correct AB).
    pub false_negatives: usize,
}

impl PrecisionStats {
    /// Compares sorted-or-unsorted row lists.
    pub fn compare(approx: &[usize], exact: &[usize]) -> Self {
        use std::collections::HashSet;
        let ea: HashSet<usize> = exact.iter().copied().collect();
        let aa: HashSet<usize> = approx.iter().copied().collect();
        let tp = aa.intersection(&ea).count();
        PrecisionStats {
            true_positives: tp,
            false_positives: aa.len() - tp,
            false_negatives: ea.len() - tp,
        }
    }

    /// Precision = TP / (TP + FP); 0 when the approximate answer is
    /// empty and the exact one is not, 1 when both are empty.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            if self.false_negatives == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall = TP / (TP + FN); 1 when the exact answer is empty.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Level;
    use crate::config::AbConfig;
    use bitmap::{AttrRange, BinnedColumn, BinnedTable, BitmapIndex, Encoding};

    fn table() -> BinnedTable {
        BinnedTable::new(vec![
            BinnedColumn::new("A", vec![0, 1, 2, 0, 1, 1, 0, 2], 3),
            BinnedColumn::new("B", vec![2, 0, 1, 1, 0, 1, 0, 2], 3),
            BinnedColumn::new("C", vec![1, 1, 0, 2, 2, 0, 1, 0], 3),
        ])
    }

    fn big_index(level: Level) -> (BinnedTable, AbIndex) {
        // Deterministic pseudo-random table, large enough for precision
        // statistics.
        let n = 2000usize;
        let mk = |seed: u64, card: u32| -> Vec<u32> {
            (0..n)
                .map(|i| (hashkit::splitmix64(seed ^ i as u64) % card as u64) as u32)
                .collect()
        };
        let t = BinnedTable::new(vec![
            BinnedColumn::new("A", mk(1, 10), 10),
            BinnedColumn::new("B", mk(2, 10), 10),
        ]);
        let idx = AbIndex::build(&t, &AbConfig::new(level).with_alpha(8));
        (t, idx)
    }

    #[test]
    fn retrieve_cells_matches_table_positives() {
        let t = table();
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(16));
        let cells: Vec<Cell> = (0..8)
            .map(|r| Cell::new(r, 0, t.column(0).bins[r]))
            .collect();
        assert!(idx.retrieve_cells(&cells).iter().all(|&b| b));
    }

    #[test]
    fn rect_query_q3_example() {
        // Paper Q3: A ∈ bins {0,1}, rows 3..=7 (0-based of "4..8").
        let t = table();
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(32));
        let exact = BitmapIndex::build(&t, Encoding::Equality);
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 1)], 3, 7);
        let approx = idx.execute_rect(&q);
        let want = exact.evaluate_rows(&q);
        // Superset with no misses.
        for r in &want {
            assert!(approx.contains(r), "missed exact row {r}");
        }
    }

    #[test]
    fn rect_query_recall_is_one_all_levels() {
        for level in [Level::PerDataset, Level::PerAttribute, Level::PerColumn] {
            let (t, idx) = big_index(level);
            let exact = BitmapIndex::build(&t, Encoding::Equality);
            let q = RectQuery::new(
                vec![AttrRange::new(0, 2, 5), AttrRange::new(1, 0, 3)],
                100,
                1500,
            );
            let approx = idx.execute_rect(&q);
            let want = exact.evaluate_rows(&q);
            let stats = PrecisionStats::compare(&approx, &want);
            assert_eq!(stats.false_negatives, 0, "{level:?} missed rows");
            assert_eq!(stats.recall(), 1.0);
            assert!(
                stats.precision() > 0.5,
                "{level:?} precision {:.3} too low",
                stats.precision()
            );
        }
    }

    #[test]
    fn rect_query_precision_grows_with_alpha() {
        let n = 2000usize;
        let mk = |seed: u64| -> Vec<u32> {
            (0..n)
                .map(|i| (hashkit::splitmix64(seed ^ i as u64) % 10) as u32)
                .collect()
        };
        let t = BinnedTable::new(vec![
            BinnedColumn::new("A", mk(11), 10),
            BinnedColumn::new("B", mk(12), 10),
        ]);
        let exact = BitmapIndex::build(&t, Encoding::Equality);
        let q = RectQuery::new(
            vec![AttrRange::new(0, 0, 2), AttrRange::new(1, 4, 6)],
            0,
            1999,
        );
        let want = exact.evaluate_rows(&q);
        let mut prev = 0.0;
        for alpha in [2u64, 8, 32] {
            let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(alpha));
            let approx = idx.execute_rect(&q);
            let p = PrecisionStats::compare(&approx, &want).precision();
            assert!(
                p >= prev - 0.05,
                "precision should not fall as α grows: α={alpha}, {p} < {prev}"
            );
            prev = p;
        }
        assert!(prev > 0.9, "α=32 precision only {prev}");
    }

    #[test]
    fn stats_count_probes_with_short_circuit() {
        let t = table();
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(16));
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 2)], 0, 7);
        let (rows, stats) = idx
            .try_execute_rect_with_stats_opts(&q, KernelOpts::default())
            .unwrap();
        // Every row matches some bin of A (full range): 8 matches.
        assert_eq!(rows.len(), 8);
        assert_eq!(stats.rows_matched, 8);
        // Short-circuiting probes at most 3 bins per row.
        assert!(stats.cells_probed <= 24);
        assert!(stats.cells_probed >= 8);
    }

    #[test]
    fn execute_rows_matches_rect_on_contiguous_lists() {
        let (_, idx) = big_index(Level::PerAttribute);
        let ranges = vec![AttrRange::new(0, 2, 5)];
        let q = RectQuery::new(ranges.clone(), 100, 200);
        let via_rect = idx.execute_rect(&q);
        let list: Vec<usize> = (100..=200).collect();
        assert_eq!(idx.try_execute_rows(&list, &ranges), Ok(via_rect));
    }

    #[test]
    fn execute_rows_handles_scattered_rows() {
        let (t, idx) = big_index(Level::PerColumn);
        let exact = BitmapIndex::build(&t, Encoding::Equality);
        let mondays: Vec<usize> = (0..t.num_rows()).step_by(7).collect();
        let ranges = vec![AttrRange::new(1, 0, 4)];
        let got = idx.try_execute_rows(&mondays, &ranges).unwrap();
        // No false negatives against the exact per-row check.
        for &row in &mondays {
            let truly = (0..=4).contains(&t.column(1).bins[row]);
            if truly {
                assert!(got.contains(&row), "missed true row {row}");
            }
        }
        // And all answers come from the requested list.
        assert!(got.iter().all(|r| mondays.contains(r)));
        let _ = exact;
    }

    #[test]
    fn execute_rows_validates_rows() {
        let (_, idx) = big_index(Level::PerAttribute);
        assert_eq!(
            idx.try_execute_rows(&[3, 2000], &[]),
            Err(QueryError::RowOutOfRange {
                row: 2000,
                num_rows: 2000
            })
        );
        assert_eq!(
            idx.try_execute_rows(&[3], &[AttrRange::new(1, 2, 10)]),
            Err(QueryError::BinOutOfRange {
                attribute: 1,
                bin: 10,
                cardinality: 10
            })
        );
        assert_eq!(
            idx.try_execute_rows(&[3], &[AttrRange::new(2, 0, 0)]),
            Err(QueryError::BinOutOfRange {
                attribute: 2,
                bin: 0,
                cardinality: 0
            })
        );
    }

    #[test]
    fn precision_stats_arithmetic() {
        let s = PrecisionStats::compare(&[1, 2, 3, 4], &[2, 3]);
        assert_eq!(s.true_positives, 2);
        assert_eq!(s.false_positives, 2);
        assert_eq!(s.false_negatives, 0);
        assert!((s.precision() - 0.5).abs() < 1e-12);
        assert_eq!(s.recall(), 1.0);

        let empty = PrecisionStats::compare(&[], &[]);
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);

        let miss = PrecisionStats::compare(&[], &[1]);
        assert_eq!(miss.precision(), 0.0);
        assert_eq!(miss.recall(), 0.0);
    }

    #[test]
    fn try_execute_returns_typed_errors() {
        let t = table();
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute));
        assert_eq!(
            idx.try_execute_rect_with_opts(&RectQuery::new(vec![], 0, 8), KernelOpts::default()),
            Err(QueryError::RowOutOfRange {
                row: 8,
                num_rows: 8
            })
        );
        assert_eq!(
            idx.try_execute_rect_with_opts(
                &RectQuery::new(vec![AttrRange::new(1, 0, 5)], 0, 7),
                KernelOpts::default()
            ),
            Err(QueryError::BinOutOfRange {
                attribute: 1,
                bin: 5,
                cardinality: 3
            })
        );
        // The error messages keep the historical "out of range" phrase.
        for e in [
            QueryError::RowOutOfRange {
                row: 8,
                num_rows: 8,
            },
            QueryError::BinOutOfRange {
                attribute: 1,
                bin: 5,
                cardinality: 3,
            },
        ] {
            assert!(e.to_string().contains("out of range"), "{e}");
        }
        // And a valid query still goes through the fallible path.
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 2)], 0, 7);
        assert_eq!(
            idx.try_execute_rect_with_opts(&q, KernelOpts::default())
                .unwrap(),
            idx.execute_rect(&q)
        );
    }

    #[test]
    fn rejected_queries_are_counted() {
        let t = table();
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute));
        let c = obs::global().counter("ab.query.rejected");
        let before = c.get();
        let _ =
            idx.try_execute_rect_with_opts(&RectQuery::new(vec![], 0, 999), KernelOpts::default());
        let _ = idx.try_execute_rect_with_opts(
            &RectQuery::new(vec![AttrRange::new(0, 0, 9)], 0, 7),
            KernelOpts::default(),
        );
        assert!(c.get() >= before + 2);
    }

    #[test]
    fn stats_bits_read_bounded_by_probes_times_k() {
        let (_, idx) = big_index(Level::PerAttribute);
        let q = RectQuery::new(
            vec![AttrRange::new(0, 2, 5), AttrRange::new(1, 0, 3)],
            0,
            1999,
        );
        let (_, stats) = idx
            .try_execute_rect_with_stats_opts(&q, KernelOpts::default())
            .unwrap();
        assert!(stats.bits_read >= stats.cells_probed, "≥1 bit per probe");
        assert!(
            stats.bits_read <= stats.cells_probed * idx.max_k(),
            "bits_read {} exceeds c·k = {}·{}",
            stats.bits_read,
            stats.cells_probed,
            idx.max_k()
        );
    }

    #[test]
    fn hier_force_returns_identical_rows_with_fewer_probes() {
        use crate::hier::{HierConfig, HierLevelSpec};
        use crate::kernel::{HierMode, KernelOpts};
        // Clustered data so the pyramid actually prunes.
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "v",
            (0..2048u32).map(|i| i / 256).collect(),
            8,
        )]);
        let mut idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(32));
        idx.ensure_hier(&HierConfig {
            levels: vec![HierLevelSpec {
                row_span: 64,
                bin_group: 2,
            }],
        });
        for kernel in [KernelKind::Scalar, KernelKind::Batched] {
            let q = RectQuery::new(vec![AttrRange::new(0, 0, 0)], 0, 2047);
            let flat = idx
                .try_execute_rect_with_stats_opts(&q, KernelOpts::new(kernel))
                .unwrap();
            let hier = idx
                .try_execute_rect_with_stats_opts(
                    &q,
                    KernelOpts::new(kernel).with_hier(HierMode::Force),
                )
                .unwrap();
            assert_eq!(hier.0, flat.0, "{kernel:?} rows differ");
            assert_eq!(flat.1.regions_pruned, 0);
            assert!(hier.1.regions_pruned > 0, "{kernel:?} pruned nothing");
            assert!(
                hier.1.cells_probed < flat.1.cells_probed,
                "{kernel:?} probes not reduced"
            );
        }
        // Off leaves the flat path untouched even with a pyramid.
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 0)], 0, 2047);
        let off = idx
            .try_execute_rect_with_stats_opts(&q, KernelOpts::new(KernelKind::Batched))
            .unwrap();
        assert_eq!(off.1.regions_pruned, 0);
    }

    /// Exact tier over clustered data, alpha low enough (high FP rate)
    /// that the flat scan reports false positives the tier eliminates.
    fn hybrid_fixture() -> (bitmap::BinnedTable, AbIndex) {
        use crate::hybrid::HybridConfig;
        let t = BinnedTable::new(vec![
            BinnedColumn::new("a", (0..2048u32).map(|i| i / 256).collect(), 8),
            BinnedColumn::new("b", (0..2048u32).map(|i| (i / 64) % 8).collect(), 8),
        ]);
        let mut idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(4));
        idx.ensure_hybrid(
            &t,
            &HybridConfig {
                min_density: 0.0,
                ..Default::default()
            },
        );
        (t, idx)
    }

    #[test]
    fn hybrid_rect_is_flat_minus_exactly_the_false_positives() {
        use crate::kernel::{HybridMode, KernelOpts};
        let (t, idx) = hybrid_fixture();
        let mut eliminated_somewhere = false;
        for (lo, hi, row_lo, row_hi) in [(0, 0, 0, 2047), (2, 5, 100, 1900), (7, 7, 512, 2047)] {
            let q = RectQuery::new(vec![AttrRange::new(0, lo, hi)], row_lo, row_hi);
            let flat = idx
                .try_execute_rect_with_stats_opts(&q, KernelOpts::new(KernelKind::Batched))
                .unwrap();
            let hyb = idx
                .try_execute_rect_with_stats_opts(
                    &q,
                    KernelOpts::new(KernelKind::Batched).with_hybrid(HybridMode::Force),
                )
                .unwrap();
            // Fully backed: the hybrid answer is the exact answer.
            let truth: Vec<usize> = (row_lo..=row_hi)
                .filter(|&r| (lo..=hi).contains(&t.column(0).bins[r]))
                .collect();
            assert_eq!(hyb.0, truth, "hybrid answer not exact");
            assert_eq!(hyb.1.fp_rows_eliminated, 0, "the field is retired");
            assert_eq!(hyb.1.cells_probed, 0, "backed bins must not probe the AB");
            // Every true row survives (no false negatives), so the
            // hybrid rows are the flat rows minus false positives only.
            assert!(truth.iter().all(|r| flat.0.contains(r)));
            eliminated_somewhere |= flat.0.len() > hyb.0.len();
        }
        assert!(
            eliminated_somewhere,
            "alpha 4 should produce false positives for the tier to eliminate"
        );
    }

    #[test]
    fn hybrid_mixed_backed_and_unbacked_ranges_agree_with_per_row_truth() {
        use crate::hybrid::HybridConfig;
        use crate::kernel::{HybridMode, KernelOpts};
        // Back only attribute 0 (attribute 1 stays on the AB) by
        // building the tier against a single-column view, then
        // re-attaching: simplest is a config that backs nothing and a
        // manual attach — instead, build with min_density 0 and strip
        // bins of attribute 1.
        let t = BinnedTable::new(vec![
            BinnedColumn::new("a", (0..2048u32).map(|i| i / 256).collect(), 8),
            BinnedColumn::new("b", (0..2048u32).map(|i| (i * 7) % 8).collect(), 8),
        ]);
        let mut idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(4));
        let full = crate::hybrid::HybridAb::build(
            &idx,
            &t,
            &HybridConfig {
                min_density: 0.0,
                ..Default::default()
            },
        );
        let partial: Vec<_> = full
            .bins()
            .iter()
            .filter(|b| b.attribute() == 0)
            .map(|b| (b.attribute() as u32, b.bin(), b.exact().clone()))
            .collect();
        idx.attach_hybrid(crate::hybrid::HybridAb::from_serialized(
            full.config(),
            full.num_rows(),
            full.total_bins(),
            partial,
        ));
        for kernel in [KernelKind::Scalar, KernelKind::Batched] {
            let q = RectQuery::new(
                vec![AttrRange::new(0, 1, 3), AttrRange::new(1, 2, 6)],
                50,
                2000,
            );
            let flat = idx
                .try_execute_rect_with_stats_opts(&q, KernelOpts::new(kernel))
                .unwrap();
            let hyb = idx
                .try_execute_rect_with_stats_opts(
                    &q,
                    KernelOpts::new(kernel).with_hybrid(HybridMode::Auto),
                )
                .unwrap();
            // Attribute 0's verdict is exact, attribute 1's stays the
            // AB's: the hybrid rows are the flat rows minus flat rows
            // whose attribute-0 verdict was a false positive.
            let expect: Vec<usize> = flat
                .0
                .iter()
                .copied()
                .filter(|&r| (1..=3).contains(&t.column(0).bins[r]))
                .collect();
            assert_eq!(hyb.0, expect, "{kernel:?} mixed-path rows wrong");
            assert!(hyb.0.len() < flat.0.len(), "{kernel:?} no false positive");
            assert!(
                hyb.1.cells_probed > 0,
                "{kernel:?} unbacked range must still probe"
            );
            // No true row is ever dropped.
            for &r in &hyb.0 {
                assert!((1..=3).contains(&t.column(0).bins[r]));
            }
        }
    }

    #[test]
    fn hybrid_composes_with_hier_pruning() {
        use crate::hier::{HierConfig, HierLevelSpec};
        use crate::hybrid::HybridConfig;
        use crate::kernel::{HierMode, HybridMode, KernelOpts};
        // Alpha high enough that the pyramid's super-cells actually
        // reject regions (a high-FP base AB saturates the levels).
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "v",
            (0..2048u32).map(|i| i / 256).collect(),
            8,
        )]);
        let mut idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(32));
        idx.ensure_hybrid(
            &t,
            &HybridConfig {
                min_density: 0.0,
                ..Default::default()
            },
        );
        idx.ensure_hier(&HierConfig {
            levels: vec![HierLevelSpec {
                row_span: 64,
                bin_group: 2,
            }],
        });
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 0)], 0, 2047);
        let hyb = idx
            .try_execute_rect_with_stats_opts(
                &q,
                KernelOpts::new(KernelKind::Batched).with_hybrid(HybridMode::Force),
            )
            .unwrap();
        let both = idx
            .try_execute_rect_with_stats_opts(
                &q,
                KernelOpts::new(KernelKind::Batched)
                    .with_hier(HierMode::Force)
                    .with_hybrid(HybridMode::Force),
            )
            .unwrap();
        assert_eq!(both.0, hyb.0, "hier+hybrid rows differ from hybrid");
        assert!(both.1.regions_pruned > 0, "pyramid did not prune");
    }

    /// A probed stage is never longer than the caller's `probe_rows`
    /// and a mask stage never spans two Roaring containers.
    #[test]
    fn stages_cut_probed_parts_by_rows_and_exact_parts_by_containers() {
        use crate::hybrid::HybridConfig;
        use crate::kernel::{HybridMode, KernelOpts};
        use roar::RoaringBitmap;
        let n = 200_000usize;
        let t = BinnedTable::new(vec![
            BinnedColumn::new("a", (0..n).map(|i| (i % 3) as u32).collect(), 3),
            BinnedColumn::new("b", (0..n).map(|i| (i % 2) as u32).collect(), 2),
        ]);
        let mut idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(2));
        let ranges = |a_hi| vec![AttrRange::new(0, 0, a_hi), AttrRange::new(1, 0, 1)];
        let auto = KernelOpts::default().with_hybrid(HybridMode::Auto);
        let untiered = idx.stages(&RectQuery::new(ranges(1), 0, n - 1), auto, 512);
        // Geometry only: empty containers back every bin but (0, 2).
        let backed = [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(a, b)| (a, b, RoaringBitmap::new()));
        idx.attach_hybrid(HybridAb::from_serialized(
            HybridConfig::default(),
            n,
            5,
            backed.to_vec(),
        ));

        // Fully backed: ⌈rows / 65 536⌉ container-aligned stages,
        // wherever the window starts.
        let (tier, stages) = idx.stages(&RectQuery::new(ranges(1), 0, n - 1), auto, 512);
        assert_eq!(tier, "exact");
        assert_eq!(
            stages,
            [
                (0, 65_535),
                (65_536, 131_071),
                (131_072, 196_607),
                (196_608, 199_999)
            ]
        );
        let (_, stages) = idx.stages(&RectQuery::new(ranges(1), 60_000, 140_000), auto, 512);
        assert_eq!(
            stages,
            [(60_000, 65_535), (65_536, 131_071), (131_072, 140_000)]
        );
        let (_, stages) = idx.stages(&RectQuery::new(ranges(1), 65_536, 65_536), auto, 512);
        assert_eq!(stages, [(65_536, 65_536)]);

        // One unbacked bin in one range, the tier switched off, or no
        // tier at all: 512-row stages counted from the window's start.
        let probed = |found: (&'static str, Vec<(usize, usize)>), tier, lo: usize| {
            let what = format!("{tier} from {lo}");
            assert_eq!(found.0, tier, "{what}");
            let stages = found.1;
            assert_eq!(stages.len(), (n - lo).div_ceil(512), "{what}");
            assert_eq!(stages[0], (lo, lo + 511), "{what}");
            assert_eq!(stages.last().unwrap().1, n - 1, "{what}");
            assert!(stages.windows(2).all(|w| w[0].1 + 1 == w[1].0), "{what}");
            assert!(stages.iter().all(|&(lo, hi)| hi - lo < 512), "{what}");
        };
        let mixed = RectQuery::new(ranges(2), 100, n - 1);
        probed(idx.stages(&mixed, auto, 512), "mixed", 100);
        let off = KernelOpts::default();
        probed(
            idx.stages(&RectQuery::new(ranges(1), 7, n - 1), off, 512),
            "ab",
            7,
        );
        probed(untiered, "ab", 0);
        // Only the unbacked bin asked for: the tier does not engage.
        let tail = RectQuery::new(vec![AttrRange::new(0, 2, 2)], 0, n - 1);
        probed(idx.stages(&tail, auto, 512), "ab", 0);
    }

    #[test]
    fn hybrid_off_leaves_stats_untouched_and_cells_exact() {
        use crate::kernel::{HybridMode, KernelOpts};
        let (t, idx) = hybrid_fixture();
        let q = RectQuery::new(vec![AttrRange::new(0, 3, 4)], 0, 2047);
        let off = idx
            .try_execute_rect_with_stats_opts(&q, KernelOpts::new(KernelKind::Batched))
            .unwrap();
        assert_eq!(off.1.fp_rows_eliminated, 0);
        assert!(off.1.cells_probed > 0);
        // Cell-subset path: backed cells come back exact (an AB false
        // positive answers `false`), unbacked behaviour unchanged.
        let cells: Vec<Cell> = (0..2048)
            .map(|r| Cell::new(r, 0, (r / 256) as u32))
            .collect();
        let exact = idx.retrieve_cells_with_opts(
            &cells,
            KernelOpts::new(KernelKind::Batched).with_hybrid(HybridMode::Auto),
        );
        assert!(exact.iter().all(|&v| v), "true cells must stay positive");
        let miss: Vec<Cell> = (0..2048)
            .map(|r| Cell::new(r, 0, ((r / 256) as u32 + 1) % 8))
            .collect();
        let verdicts = idx.retrieve_cells_with_opts(
            &miss,
            KernelOpts::new(KernelKind::Batched).with_hybrid(HybridMode::Auto),
        );
        assert!(
            verdicts.iter().all(|&v| !v),
            "backed cells answer exactly: no false positives"
        );
        let _ = t;
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rect_query_validates_rows() {
        let t = table();
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute));
        idx.execute_rect(&RectQuery::new(vec![], 0, 8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rect_query_validates_bins() {
        let t = table();
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute));
        idx.execute_rect(&RectQuery::new(vec![AttrRange::new(0, 0, 5)], 0, 7));
    }
}
