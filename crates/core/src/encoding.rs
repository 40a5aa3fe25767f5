//! The Approximate Bitmap itself: a hash-addressed bit array.
//!
//! [`ApproximateBitmap`] implements the insertion algorithm of Figure 3
//! and the cell test at the heart of the retrieval algorithms of
//! Figures 5 and 7: each set bit of the bitmap matrix is mapped to `k`
//! positions via the configured [`HashFamily`] and [`CellMapper`];
//! membership holds iff all `k` positions are set. No false negatives
//! can occur; false positives occur at the §4.1 rate.

use crate::kernel::LockstepBatch;
use bitmap::{BitVec, BoolMatrix};
use hashkit::{CellMapper, HashFamily};
use serde::{Deserialize, Serialize};

/// A single Bloom-style approximate bitmap over matrix cells.
///
/// # Examples
///
/// ```
/// use ab::ApproximateBitmap;
/// use hashkit::{CellMapper, HashFamily};
///
/// let mut ab = ApproximateBitmap::new(
///     1 << 12, 4, HashFamily::default_independent(), CellMapper::for_columns(10));
/// ab.insert(3, 7);
/// assert!(ab.contains(3, 7));           // never a false negative
/// assert_eq!(ab.inserted(), 1);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ApproximateBitmap {
    bits: BitVec,
    k: usize,
    family: HashFamily,
    mapper: CellMapper,
    inserted: u64,
}

impl ApproximateBitmap {
    /// Creates an empty AB of `n_bits` bits with `k` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits == 0` or `k == 0`.
    pub fn new(n_bits: u64, k: usize, family: HashFamily, mapper: CellMapper) -> Self {
        assert!(n_bits > 0, "AB size must be positive");
        assert!(k > 0, "k must be positive");
        ApproximateBitmap {
            bits: BitVec::zeros(n_bits as usize),
            k,
            family,
            mapper,
            inserted: 0,
        }
    }

    /// AB size in bits (`n`).
    pub fn n_bits(&self) -> u64 {
        self.bits.len() as u64
    }

    /// Number of hash functions (`k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The hash family in use.
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// The cell mapper in use.
    pub fn mapper(&self) -> CellMapper {
        self.mapper
    }

    /// Number of cells inserted so far (`s`).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Storage size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.size_bytes()
    }

    /// Fraction of AB bits set — the load factor driving the FP rate.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.density()
    }

    /// Expected false-positive rate given the current fill ratio:
    /// `(ones/n)^k`. Tracks the §4.1 estimate but uses the observed
    /// load, so it stays accurate for non-ideal hash families.
    pub fn expected_fp_rate(&self) -> f64 {
        self.fill_ratio().powi(self.k as i32)
    }

    /// Inserts cell `(row, col)` (Figure 3, inner loop): all k
    /// positions are computed and set.
    #[inline]
    pub fn insert(&mut self, row: u64, col: u64) {
        let mut prober = self.family.prober(row, col, self.mapper, self.n_bits());
        for _ in 0..self.k {
            let p = prober.next_position();
            self.bits.set(p as usize);
        }
        self.inserted += 1;
    }

    /// Inserts every `(row, col)` cell of `cells` — [`Self::insert`]'s
    /// bits and count, through the lockstep probe loop: the hash state
    /// is hoisted once per call, cells open
    /// [`MAX_BATCH_ROWS`](crate::kernel::MAX_BATCH_ROWS) at a time and
    /// each of the k steps is one hash function over the whole batch.
    /// The insertion count and the `hashkit.hash_calls.*` counter move
    /// once per call. Every build path inserts through here; `insert`
    /// stays as the scalar reference.
    pub fn insert_cells<I: IntoIterator<Item = (u64, u64)>>(&mut self, cells: I) {
        let mut cells = cells.into_iter();
        // Column 0 is in range for every family; the cells bring their own.
        let prober = self.family.col_prober(0, self.mapper, self.n_bits());
        let mut batch = LockstepBatch::new();
        let mut inserted = 0u64;
        loop {
            let opened = batch.open(&prober, cells.by_ref());
            if opened == 0 {
                break;
            }
            for _ in 0..self.k {
                for &p in batch.step(&prober) {
                    self.bits.set(p as usize);
                }
            }
            inserted += opened as u64;
        }
        self.inserted += inserted;
        prober.record_hash_calls(inserted * self.k as u64);
    }

    /// Tests cell `(row, col)`: `true` means "present with high
    /// probability", `false` means "definitely absent".
    ///
    /// Implements Figure 5's inner loop faithfully, including the
    /// `break` on the first zero bit: for a cell that is absent, the
    /// expected number of hash evaluations is ~1/(1 − fill), not k —
    /// this short-circuit is what keeps rectangular queries fast at
    /// large k.
    #[inline]
    pub fn contains(&self, row: u64, col: u64) -> bool {
        self.contains_counted(row, col).0
    }

    /// [`Self::contains`] plus the number of AB bits actually read
    /// before the verdict — at most `k`, and exactly the per-probe term
    /// of the paper's O(c·k) retrieval bound. Feeds
    /// [`crate::QueryStats::bits_read`].
    #[inline]
    pub fn contains_counted(&self, row: u64, col: u64) -> (bool, u32) {
        let mut prober = self.family.prober(row, col, self.mapper, self.n_bits());
        let mut read = 0u32;
        for _ in 0..self.k {
            let p = prober.next_position();
            read += 1;
            if !self.bits.get(p as usize) {
                return (false, read); // Figure 5 line 9: break loop
            }
        }
        (true, read)
    }

    /// Inserts every set cell of a boolean matrix (Figure 3).
    pub fn insert_matrix(&mut self, m: &BoolMatrix) {
        self.insert_cells(m.iter_set().map(|(row, col)| (row as u64, col as u64)));
    }

    /// Retrieves an arbitrary cell subset `Q = {(r_1,c_1), …}` (Figure
    /// 5): returns one bool per queried cell, in order. Cost is O(|Q|·k)
    /// — the paper's O(c) direct access.
    pub fn retrieve<I: IntoIterator<Item = (u64, u64)>>(&self, cells: I) -> Vec<bool> {
        cells
            .into_iter()
            .map(|(r, c)| self.contains(r, c))
            .collect()
    }

    /// Read-only view of the underlying bit array.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Sets a raw AB bit directly — used by [`crate::CountingAb::freeze`]
    /// and the deserializer, where positions are copied rather than
    /// re-hashed.
    pub(crate) fn set_raw_bit(&mut self, i: usize) {
        self.bits.set(i);
    }

    /// Restores the insertion count alongside raw-bit copies.
    pub(crate) fn set_inserted(&mut self, s: u64) {
        self.inserted = s;
    }

    /// Reassembles an AB from its stored pieces (deserialization).
    pub(crate) fn from_parts(
        bits: BitVec,
        k: usize,
        family: HashFamily,
        mapper: CellMapper,
        inserted: u64,
    ) -> Self {
        assert!(!bits.is_empty(), "AB size must be positive");
        assert!(k > 0, "k must be positive");
        ApproximateBitmap {
            bits,
            k,
            family,
            mapper,
            inserted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ab(n: u64, k: usize) -> ApproximateBitmap {
        ApproximateBitmap::new(
            n,
            k,
            HashFamily::default_independent(),
            CellMapper::for_columns(16),
        )
    }

    #[test]
    fn no_false_negatives_ever() {
        // Tiny AB, heavy load: false positives abound, negatives never.
        let mut ab = small_ab(64, 2);
        let cells: Vec<(u64, u64)> = (0..20).map(|i| (i, i % 16)).collect();
        for &(r, c) in &cells {
            ab.insert(r, c);
        }
        for &(r, c) in &cells {
            assert!(ab.contains(r, c), "false negative at ({r},{c})");
        }
    }

    #[test]
    fn empty_ab_contains_nothing() {
        let ab = small_ab(1 << 10, 3);
        assert!(!ab.contains(0, 0));
        assert!(!ab.contains(99, 5));
        assert_eq!(ab.fill_ratio(), 0.0);
    }

    #[test]
    fn insert_tracks_count_and_fill() {
        let mut ab = small_ab(1 << 12, 4);
        for i in 0..100 {
            ab.insert(i, 0);
        }
        assert_eq!(ab.inserted(), 100);
        assert!(ab.fill_ratio() > 0.0 && ab.fill_ratio() < 0.2);
    }

    #[test]
    fn retrieve_orders_results() {
        let mut ab = small_ab(1 << 12, 3);
        ab.insert(1, 2);
        ab.insert(5, 3);
        let t = ab.retrieve([(1, 2), (2, 2), (5, 3)]);
        assert!(t[0]);
        assert!(t[2]);
        // (2,2) is almost certainly absent in a near-empty 4096-bit AB.
        assert!(!t[1]);
    }

    #[test]
    fn insert_matrix_covers_all_cells() {
        let m = BoolMatrix::paper_example();
        let mut ab = small_ab(1 << 10, 3);
        ab.insert_matrix(&m);
        assert_eq!(ab.inserted(), m.count_ones() as u64);
        for (r, c) in m.iter_set() {
            assert!(ab.contains(r as u64, c as u64));
        }
    }

    #[test]
    fn paper_section31_worked_example() {
        // §3.1: F(i,j) = concatenate(i,j) → here the shifted mapper;
        // k = 1, H = x mod 32 → circular hash on a 32-bit AB.
        use hashkit::HashKind;
        let mut ab = ApproximateBitmap::new(
            32,
            1,
            HashFamily::Independent(vec![HashKind::Circular]),
            CellMapper::Shifted { shift: 3 },
        );
        let m = BoolMatrix::paper_example();
        ab.insert_matrix(&m);
        // Q1 (row 3 of the paper, index 2): exact answer all-zero; the
        // AB may report false positives but never misses.
        let t1 = ab.retrieve((0..6).map(|c| (2u64, c)));
        // Guaranteed: no false negatives for genuinely set cells.
        for (r, c) in m.iter_set() {
            assert!(ab.contains(r as u64, c as u64));
        }
        // And Q1's possible positives are false ones (row is empty).
        let fp_count = t1.iter().filter(|&&b| b).count();
        assert!(fp_count <= 6);
    }

    #[test]
    fn measured_fp_rate_tracks_theory() {
        // s = 1000 cells into n = 8s bits, optimal k = 6:
        // theory FP ≈ 0.0216.
        let s = 1000u64;
        let n = 8 * s;
        let mut ab = ApproximateBitmap::new(
            crate::analysis::next_pow2(n),
            6,
            HashFamily::default_independent(),
            CellMapper::RowOnly,
        );
        for r in 0..s {
            ab.insert(r, 0);
        }
        let mut fp = 0u32;
        let probes = 20_000u64;
        for r in s..s + probes {
            if ab.contains(r, 0) {
                fp += 1;
            }
        }
        let rate = f64::from(fp) / probes as f64;
        let alpha = ab.n_bits() as f64 / s as f64;
        let theory = crate::analysis::fp_rate(6, alpha);
        assert!(
            (rate - theory).abs() < theory.max(0.005) * 1.0 + 0.01,
            "measured {rate:.4}, theory {theory:.4}"
        );
    }

    #[test]
    fn expected_fp_rate_uses_fill() {
        let mut ab = small_ab(1 << 10, 2);
        assert_eq!(ab.expected_fp_rate(), 0.0);
        for i in 0..200 {
            ab.insert(i, 1);
        }
        let f = ab.fill_ratio();
        assert!((ab.expected_fp_rate() - f * f).abs() < 1e-12);
    }

    #[test]
    fn contains_counted_bounds_reads_by_k() {
        let mut ab = small_ab(1 << 12, 4);
        ab.insert(1, 2);
        let (hit, read) = ab.contains_counted(1, 2);
        assert!(hit);
        assert_eq!(read, 4, "a present cell reads all k bits");
        let (hit, read) = ab.contains_counted(77, 9);
        assert!(!hit);
        assert!((1..=4).contains(&read), "miss short-circuits within k");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        small_ab(0, 1);
    }
}
