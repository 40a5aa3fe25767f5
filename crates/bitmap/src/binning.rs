//! Attribute discretization (binning).
//!
//! Bitmap indexes first partition each attribute's domain into bins
//! (paper §1). The experimental framework (§5.1) notes that equi-depth
//! bins — "bins with the same number of points" — are preferred because
//! they give uniform search times, and that any data set can be turned
//! into uniformly distributed bitmaps this way. This module provides:
//!
//! * [`EquiWidth`] — equal-size intervals over `[min, max]`.
//! * [`EquiDepth`] — quantile bins with (roughly) equal point counts.
//! * [`ExplicitEdges`] — caller-supplied bin boundaries.
//!
//! All binners implement the [`Binner`] trait, which maps a column of
//! `f64` values to a [`BinnedColumn`] of bin identifiers.

use crate::table::Column;
use serde::{Deserialize, Serialize};

/// A discretized column: each row mapped to a bin in `0..cardinality`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BinnedColumn {
    /// Attribute name carried over from the source column.
    pub name: String,
    /// Bin id per row; each value is `< cardinality`.
    pub bins: Vec<u32>,
    /// Number of bins for this attribute.
    pub cardinality: u32,
    /// Lower value bound of each bin (ascending, `cardinality`
    /// entries), when the binner can supply them. Enables raw
    /// value-range queries via [`BinnedColumn::bins_covering`].
    pub lower_edges: Option<Vec<f64>>,
}

impl BinnedColumn {
    /// Creates a binned column, validating that every bin id is in range.
    ///
    /// # Panics
    ///
    /// Panics if any bin id is `>= cardinality` or `cardinality == 0`.
    pub fn new(name: impl Into<String>, bins: Vec<u32>, cardinality: u32) -> Self {
        assert!(cardinality > 0, "cardinality must be positive");
        if let Some(&bad) = bins.iter().find(|&&b| b >= cardinality) {
            panic!("bin id {bad} out of range 0..{cardinality}");
        }
        BinnedColumn {
            name: name.into(),
            bins,
            cardinality,
            lower_edges: None,
        }
    }

    /// Attaches the per-bin lower value bounds.
    ///
    /// # Panics
    ///
    /// Panics unless `edges` has `cardinality` non-decreasing entries.
    pub fn with_lower_edges(mut self, edges: Vec<f64>) -> Self {
        assert_eq!(
            edges.len(),
            self.cardinality as usize,
            "need one lower edge per bin"
        );
        assert!(
            edges.windows(2).all(|w| w[0] <= w[1]),
            "edges must be non-decreasing"
        );
        self.lower_edges = Some(edges);
        self
    }

    /// The smallest bin interval covering every value in `[lo, hi]`
    /// (conservative: the covering bins may admit values outside the
    /// range; a second exact step can prune). Returns `None` when the
    /// binner supplied no edges.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn bins_covering(&self, lo: f64, hi: f64) -> Option<(u32, u32)> {
        assert!(lo <= hi, "empty value range {lo}..{hi}");
        let edges = self.lower_edges.as_ref()?;
        // Bin j spans [edges[j], edges[j+1]); the value v lands in the
        // last bin whose lower edge is <= v (bin 0 for out-of-range-low
        // values).
        let bin_of = |v: f64| -> u32 {
            (edges.partition_point(|&e| e <= v).saturating_sub(1) as u32).min(self.cardinality - 1)
        };
        Some((bin_of(lo), bin_of(hi)))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Number of rows falling into each bin (`cardinality` entries).
    pub fn bin_counts(&self) -> Vec<usize> {
        self.bin_counts_in(0..self.len())
    }

    /// Number of the rows `rows` falling into each bin (`cardinality`
    /// entries) — one shard's counts, read in place.
    ///
    /// # Panics
    ///
    /// Panics if `rows` extends past the column.
    pub fn bin_counts_in(&self, rows: std::ops::Range<usize>) -> Vec<usize> {
        let mut counts = vec![0usize; self.cardinality as usize];
        for &b in &self.bins[rows] {
            counts[b as usize] += 1;
        }
        counts
    }
}

/// Maps a raw column to bin identifiers.
pub trait Binner {
    /// Discretizes `column` into a [`BinnedColumn`].
    fn bin(&self, column: &Column) -> BinnedColumn;
}

/// Equal-width bins over the observed `[min, max]` range.
///
/// Values equal to the maximum land in the last bin. A constant column
/// maps every row to bin 0.
#[derive(Clone, Copy, Debug)]
pub struct EquiWidth {
    /// Number of bins to produce.
    pub bins: u32,
}

impl EquiWidth {
    /// Creates an equi-width binner with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn new(bins: u32) -> Self {
        assert!(bins > 0, "bins must be positive");
        EquiWidth { bins }
    }
}

impl Binner for EquiWidth {
    fn bin(&self, column: &Column) -> BinnedColumn {
        let (min, max) = match (column.min(), column.max()) {
            (Some(mn), Some(mx)) => (mn, mx),
            _ => {
                return BinnedColumn::new(column.name.clone(), vec![], self.bins);
            }
        };
        let width = (max - min) / self.bins as f64;
        let ids = column
            .values
            .iter()
            .map(|&v| {
                if width == 0.0 || v.is_nan() {
                    0
                } else {
                    (((v - min) / width) as u32).min(self.bins - 1)
                }
            })
            .collect();
        // Edges are only meaningful for a finite, non-degenerate range
        // (±∞ values make the width infinite and the edges NaN).
        let binned = BinnedColumn::new(column.name.clone(), ids, self.bins);
        if width.is_finite() && width > 0.0 {
            let edges = (0..self.bins).map(|j| min + j as f64 * width).collect();
            binned.with_lower_edges(edges)
        } else {
            binned
        }
    }
}

/// Equi-depth (quantile) bins: each bin receives roughly the same number
/// of rows, which is the paper's preferred discretization (§5.1).
///
/// Ties are broken by value order, so rows with identical values may
/// still split across adjacent bins; this matches the "roughly the same
/// number of data points" formulation and keeps bin occupancies balanced
/// even for highly skewed data.
#[derive(Clone, Copy, Debug)]
pub struct EquiDepth {
    /// Number of bins to produce.
    pub bins: u32,
}

impl EquiDepth {
    /// Creates an equi-depth binner with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn new(bins: u32) -> Self {
        assert!(bins > 0, "bins must be positive");
        EquiDepth { bins }
    }
}

impl Binner for EquiDepth {
    fn bin(&self, column: &Column) -> BinnedColumn {
        let n = column.len();
        if n == 0 {
            return BinnedColumn::new(column.name.clone(), vec![], self.bins);
        }
        // Sort row indices by value; assign bin = floor(rank * bins / n).
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            column.values[a as usize]
                .partial_cmp(&column.values[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut ids = vec![0u32; n];
        for (rank, &row) in order.iter().enumerate() {
            ids[row as usize] = ((rank as u64 * self.bins as u64) / n as u64) as u32;
        }
        // Lower edge of bin j = value at its first rank; bins past the
        // data (more bins than rows) repeat the last edge.
        let mut edges = Vec::with_capacity(self.bins as usize);
        for j in 0..self.bins as u64 {
            let rank = ((j * n as u64).div_ceil(self.bins as u64) as usize).min(n - 1);
            let v = column.values[order[rank] as usize];
            let prev = edges.last().copied().unwrap_or(f64::NEG_INFINITY);
            edges.push(if v.is_nan() { prev } else { v.max(prev) });
        }
        edges[0] = edges[0].min(column.min().unwrap_or(edges[0]));
        let binned = BinnedColumn::new(column.name.clone(), ids, self.bins);
        if edges.windows(2).all(|w| w[0] <= w[1]) {
            binned.with_lower_edges(edges)
        } else {
            binned
        }
    }
}

/// Bins defined by explicit right-open edges: value `v` falls in bin `i`
/// when `edges[i] <= v < edges[i+1]`; values below the first edge go to
/// bin 0 and values at or above the last edge go to the final bin.
#[derive(Clone, Debug)]
pub struct ExplicitEdges {
    /// Strictly increasing interior + outer edges; produces
    /// `edges.len() - 1` bins.
    pub edges: Vec<f64>,
}

impl ExplicitEdges {
    /// Creates an explicit-edge binner.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two edges are given or they are not strictly
    /// increasing.
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least two edges");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly increasing"
        );
        ExplicitEdges { edges }
    }

    /// Number of bins implied by the edges.
    pub fn cardinality(&self) -> u32 {
        (self.edges.len() - 1) as u32
    }
}

impl Binner for ExplicitEdges {
    fn bin(&self, column: &Column) -> BinnedColumn {
        let card = self.cardinality();
        let ids = column
            .values
            .iter()
            .map(|&v| {
                // partition_point returns the count of edges <= v, i.e.
                // the 1-based bin boundary index.
                let p = self.edges.partition_point(|&e| e <= v);
                (p.saturating_sub(1) as u32).min(card - 1)
            })
            .collect();
        BinnedColumn::new(column.name.clone(), ids, card)
            .with_lower_edges(self.edges[..card as usize].to_vec())
    }
}

/// A fully discretized table: one [`BinnedColumn`] per attribute, equal
/// row counts. This is the input the bitmap index and the Approximate
/// Bitmap are built from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BinnedTable {
    columns: Vec<BinnedColumn>,
    num_rows: usize,
}

impl BinnedTable {
    /// Creates a binned table from per-attribute binned columns.
    ///
    /// # Panics
    ///
    /// Panics on row-count mismatch between columns.
    pub fn new(columns: Vec<BinnedColumn>) -> Self {
        let num_rows = columns.first().map_or(0, BinnedColumn::len);
        for c in &columns {
            assert_eq!(
                c.len(),
                num_rows,
                "binned column `{}` length {} != {}",
                c.name,
                c.len(),
                num_rows
            );
        }
        BinnedTable { columns, num_rows }
    }

    /// Discretizes every column of `table` with the same binner.
    pub fn from_table<B: Binner>(table: &crate::table::Table, binner: &B) -> Self {
        Self::new(table.columns().iter().map(|c| binner.bin(c)).collect())
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of attributes.
    #[inline]
    pub fn num_attributes(&self) -> usize {
        self.columns.len()
    }

    /// Per-attribute binned columns.
    pub fn columns(&self) -> &[BinnedColumn] {
        &self.columns
    }

    /// Binned column by attribute index.
    pub fn column(&self, idx: usize) -> &BinnedColumn {
        &self.columns[idx]
    }

    /// Total number of bitmap columns, `Σ cardinality_i`.
    pub fn total_bitmaps(&self) -> usize {
        self.columns.iter().map(|c| c.cardinality as usize).sum()
    }

    /// Total number of set bits in the equality-encoded bitmap table:
    /// exactly one per row per attribute, i.e. `num_rows * num_attributes`.
    pub fn total_set_bits(&self) -> usize {
        self.num_rows * self.columns.len()
    }

    /// Extracts the contiguous row slice `rows` as its own table:
    /// every column keeps its name, cardinality and bin edges, but
    /// holds only the selected rows (renumbered from 0). This is the
    /// row-range partitioning step of a sharded index layout — each
    /// shard indexes its slice independently.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or extends past the table.
    pub fn slice_rows(&self, rows: std::ops::Range<usize>) -> BinnedTable {
        assert!(!rows.is_empty(), "empty row slice {rows:?}");
        assert!(
            rows.end <= self.num_rows,
            "row slice {rows:?} out of range {}",
            self.num_rows
        );
        BinnedTable::new(
            self.columns
                .iter()
                .map(|c| {
                    let mut col = BinnedColumn::new(
                        c.name.clone(),
                        c.bins[rows.clone()].to_vec(),
                        c.cardinality,
                    );
                    if let Some(edges) = &c.lower_edges {
                        col = col.with_lower_edges(edges.clone());
                    }
                    col
                })
                .collect(),
        )
    }

    /// Global column identifier of `(attribute, bin)` under the paper's
    /// column numbering: attributes laid out left to right, bins within
    /// an attribute contiguous (§3.2.1).
    pub fn global_column(&self, attribute: usize, bin: u32) -> usize {
        assert!(
            bin < self.columns[attribute].cardinality,
            "bin {bin} out of range for attribute {attribute}"
        );
        let offset: usize = self.columns[..attribute]
            .iter()
            .map(|c| c.cardinality as usize)
            .sum();
        offset + bin as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn col(vals: &[f64]) -> Column {
        Column::new("x", vals.to_vec())
    }

    #[test]
    fn equi_width_splits_range() {
        let b = EquiWidth::new(4).bin(&col(&[0.0, 1.0, 2.0, 3.0, 4.0]));
        assert_eq!(b.cardinality, 4);
        assert_eq!(b.bins, vec![0, 1, 2, 3, 3]); // max value joins last bin
    }

    #[test]
    fn equi_width_constant_column_all_bin_zero() {
        let b = EquiWidth::new(3).bin(&col(&[5.0, 5.0, 5.0]));
        assert_eq!(b.bins, vec![0, 0, 0]);
    }

    #[test]
    fn equi_depth_balances_counts() {
        let vals: Vec<f64> = (0..100).map(|i| (i * i) as f64).collect(); // skewed
        let b = EquiDepth::new(5).bin(&col(&vals));
        let counts = b.bin_counts();
        assert_eq!(counts, vec![20; 5]);
    }

    #[test]
    fn equi_depth_preserves_order() {
        let b = EquiDepth::new(2).bin(&col(&[9.0, 1.0, 5.0, 3.0]));
        // Sorted order: 1.0, 3.0 -> bin 0; 5.0, 9.0 -> bin 1.
        assert_eq!(b.bins, vec![1, 0, 1, 0]);
    }

    #[test]
    fn explicit_edges_partition() {
        let binner = ExplicitEdges::new(vec![0.0, 1.0, 2.0]);
        let b = binner.bin(&col(&[-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 9.0]));
        assert_eq!(b.bins, vec![0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn explicit_edges_must_increase() {
        ExplicitEdges::new(vec![1.0, 1.0]);
    }

    #[test]
    fn slice_rows_extracts_contiguous_shard() {
        let t = BinnedTable::new(vec![
            BinnedColumn::new("a", vec![0, 1, 2, 0, 1, 2], 3),
            BinnedColumn::new("b", vec![1, 1, 0, 0, 1, 1], 2).with_lower_edges(vec![0.0, 10.0]),
        ]);
        let s = t.slice_rows(2..5);
        assert_eq!(s.num_rows(), 3);
        assert_eq!(s.column(0).bins, vec![2, 0, 1]);
        assert_eq!(s.column(0).cardinality, 3);
        assert_eq!(s.column(1).bins, vec![0, 0, 1]);
        assert_eq!(s.column(1).lower_edges, Some(vec![0.0, 10.0]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_rows_validates_bounds() {
        let t = BinnedTable::new(vec![BinnedColumn::new("a", vec![0, 1], 2)]);
        t.slice_rows(1..3);
    }

    #[test]
    fn binned_table_global_columns() {
        // Figure 6 layout: A (3 bins), B (3 bins), C (3 bins).
        let t = BinnedTable::new(vec![
            BinnedColumn::new("A", vec![0, 1], 3),
            BinnedColumn::new("B", vec![2, 0], 3),
            BinnedColumn::new("C", vec![1, 1], 3),
        ]);
        assert_eq!(t.global_column(0, 0), 0);
        assert_eq!(t.global_column(1, 0), 3);
        assert_eq!(t.global_column(2, 2), 8);
        assert_eq!(t.total_bitmaps(), 9);
        assert_eq!(t.total_set_bits(), 6);
    }

    #[test]
    fn from_table_bins_all_columns() {
        let t = Table::new(vec![
            Column::new("a", vec![0.0, 10.0]),
            Column::new("b", vec![5.0, 5.0]),
        ]);
        let bt = BinnedTable::from_table(&t, &EquiWidth::new(2));
        assert_eq!(bt.num_attributes(), 2);
        assert_eq!(bt.num_rows(), 2);
        assert_eq!(bt.column(0).bins, vec![0, 1]);
    }

    #[test]
    fn bin_counts_sum_to_rows() {
        let b = BinnedColumn::new("x", vec![0, 1, 1, 2, 2, 2], 3);
        assert_eq!(b.bin_counts(), vec![1, 2, 3]);
    }

    #[test]
    fn equiwidth_edges_cover_range() {
        let b = EquiWidth::new(4).bin(&col(&[0.0, 1.0, 2.0, 3.0, 4.0]));
        assert_eq!(b.lower_edges, Some(vec![0.0, 1.0, 2.0, 3.0]));
        assert_eq!(b.bins_covering(0.5, 2.5), Some((0, 2)));
        assert_eq!(b.bins_covering(3.0, 3.9), Some((3, 3)));
        // Out-of-range values clamp conservatively.
        assert_eq!(b.bins_covering(-5.0, 99.0), Some((0, 3)));
    }

    #[test]
    fn equidepth_edges_translate_value_ranges() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = EquiDepth::new(4).bin(&col(&vals));
        // Bins: [0,25), [25,50), [50,75), [75,100).
        assert_eq!(b.lower_edges, Some(vec![0.0, 25.0, 50.0, 75.0]));
        assert_eq!(b.bins_covering(30.0, 60.0), Some((1, 2)));
        assert_eq!(b.bins_covering(75.0, 75.0), Some((3, 3)));
        // The covering bins really contain every matching row.
        let (lo_bin, hi_bin) = b.bins_covering(30.0, 60.0).unwrap();
        for (row, &v) in vals.iter().enumerate() {
            if (30.0..=60.0).contains(&v) {
                let bin = b.bins[row];
                assert!(bin >= lo_bin && bin <= hi_bin, "row {row} escaped cover");
            }
        }
    }

    #[test]
    fn explicit_edges_exposed() {
        let binner = ExplicitEdges::new(vec![0.0, 1.0, 2.0]);
        let b = binner.bin(&col(&[0.5, 1.5]));
        assert_eq!(b.lower_edges, Some(vec![0.0, 1.0]));
        assert_eq!(b.bins_covering(1.1, 1.2), Some((1, 1)));
    }

    #[test]
    fn manual_columns_have_no_edges() {
        let b = BinnedColumn::new("x", vec![0, 1], 2);
        assert_eq!(b.bins_covering(0.0, 1.0), None);
    }

    #[test]
    #[should_panic(expected = "one lower edge per bin")]
    fn with_lower_edges_validates_length() {
        BinnedColumn::new("x", vec![0, 1], 2).with_lower_edges(vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn binned_column_validates_ids() {
        BinnedColumn::new("x", vec![0, 5], 3);
    }
}
