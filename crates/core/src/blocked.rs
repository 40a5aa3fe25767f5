//! Register/cache-blocked Approximate Bitmap.
//!
//! A modern refinement of the paper's structure (motivated by its §7
//! note that "performance can be further improved by incorporating
//! hardware support"): instead of scattering a cell's k probes across
//! the whole AB — k cache misses per membership test — a blocked
//! filter confines all k bits to one 512-bit block (one cache line).
//! One hash selects the block, cheap derived hashes pick the bits
//! inside it. The trade-off is a slightly higher false-positive rate
//! (block loads are binomially uneven), quantified in
//! `benches/ablation.rs` and the tests below.

use bitmap::BitVec;
use hashkit::{splitmix64, CellMapper};
use serde::{Deserialize, Serialize};

/// Bits per block: one x86-64 cache line.
pub const BLOCK_BITS: u64 = 512;

/// Words per block.
const BLOCK_WORDS: u64 = BLOCK_BITS / 64;

/// Largest k the word-parallel path supports: each of the cell's two
/// mask words holds up to 64 distinct bits (the odd stride is a
/// bijection mod 64), so ⌈k/2⌉ ≤ 64. Larger k falls back to the
/// bit-at-a-time loop and counts into `kernel.scalar_fallbacks`.
const WORD_PARALLEL_MAX_K: usize = 128;

/// A blocked approximate bitmap over matrix cells.
///
/// Drop-in alternative to [`crate::ApproximateBitmap`] for the same
/// cell universe, with the same no-false-negative guarantee.
///
/// # Examples
///
/// ```
/// use ab::blocked::BlockedAb;
/// use hashkit::CellMapper;
///
/// let mut ab = BlockedAb::new(1 << 14, 4, CellMapper::for_columns(10));
/// ab.insert(3, 7);
/// assert!(ab.contains(3, 7));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BlockedAb {
    bits: BitVec,
    num_blocks: u64,
    k: usize,
    mapper: CellMapper,
    inserted: u64,
}

impl BlockedAb {
    /// Creates an empty blocked AB of at least `n_bits` bits (rounded
    /// up to a whole number of 512-bit blocks).
    ///
    /// # Panics
    ///
    /// Panics if `n_bits == 0` or `k == 0` or `k > 512`.
    pub fn new(n_bits: u64, k: usize, mapper: CellMapper) -> Self {
        assert!(n_bits > 0, "AB size must be positive");
        assert!(k > 0, "k must be positive");
        assert!(k as u64 <= BLOCK_BITS, "k cannot exceed the block size");
        let num_blocks = n_bits.div_ceil(BLOCK_BITS).max(1);
        BlockedAb {
            bits: BitVec::zeros((num_blocks * BLOCK_BITS) as usize),
            num_blocks,
            k,
            mapper,
            inserted: 0,
        }
    }

    /// Total size in bits (a multiple of 512).
    pub fn n_bits(&self) -> u64 {
        self.bits.len() as u64
    }

    /// Number of hash functions.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of cells inserted.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Storage size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.size_bytes()
    }

    /// Fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.density()
    }

    /// The block base offset and intra-block probe stride for a cell
    /// (the scalar addressing scheme, used when `k > 128`).
    #[inline]
    fn cell_hashes(&self, row: u64, col: u64) -> (u64, u64, u64) {
        let x = self.mapper.map(row, col);
        let h = splitmix64(x);
        let block = (h % self.num_blocks) * BLOCK_BITS;
        let h1 = splitmix64(h ^ 0x9E37_79B9_7F4A_7C15);
        let h2 = splitmix64(x ^ 0x5851_F42D_4C95_7F2D) | 1;
        (block, h1, h2)
    }

    /// Word-parallel addressing (k ≤ 128): the cell's k probe bits are
    /// materialized as two 64-bit masks over two words of its block, so
    /// a whole membership test is ≤ 2 word loads (and an insert is 2
    /// read-modify-write stores) instead of k dependent bit reads.
    /// ⌈k/2⌉ bits go into the first mask and ⌊k/2⌋ into the second; the
    /// odd stride `h2` is a bijection mod 64, so each mask has exactly
    /// that many distinct bits. Insert and test share this derivation,
    /// preserving the no-false-negative guarantee.
    #[inline]
    fn cell_masks(&self, row: u64, col: u64) -> (usize, usize, u64, u64) {
        let x = self.mapper.map(row, col);
        let h = splitmix64(x);
        let block_word = (h % self.num_blocks) * BLOCK_WORDS;
        let g = splitmix64(h ^ 0x9E37_79B9_7F4A_7C15);
        let h2 = splitmix64(x ^ 0x5851_F42D_4C95_7F2D) | 1;
        let w0 = (block_word + (g & 7)) as usize;
        let w1 = (block_word + ((g >> 3) & 7)) as usize;
        let k0 = (self.k as u64).div_ceil(2);
        let k1 = self.k as u64 / 2;
        let b0 = g >> 6;
        let b1 = g >> 35;
        let mut m0 = 0u64;
        for t in 0..k0 {
            m0 |= 1u64 << (b0.wrapping_add(t.wrapping_mul(h2)) % 64);
        }
        let mut m1 = 0u64;
        for t in 0..k1 {
            m1 |= 1u64 << (b1.wrapping_add(t.wrapping_mul(h2)) % 64);
        }
        (w0, w1, m0, m1)
    }

    /// Whether this AB uses the two-mask word-parallel cell layout.
    #[inline]
    fn word_parallel(&self) -> bool {
        self.k <= WORD_PARALLEL_MAX_K
    }

    /// Inserts cell `(row, col)`.
    #[inline]
    pub fn insert(&mut self, row: u64, col: u64) {
        if self.word_parallel() {
            let (w0, w1, m0, m1) = self.cell_masks(row, col);
            self.bits.or_word(w0, m0);
            self.bits.or_word(w1, m1);
        } else {
            let (block, h1, h2) = self.cell_hashes(row, col);
            for t in 0..self.k as u64 {
                let off = h1.wrapping_add(t.wrapping_mul(h2)) % BLOCK_BITS;
                self.bits.set((block + off) as usize);
            }
        }
        self.inserted += 1;
    }

    /// Tests cell `(row, col)`; no false negatives, FP rate slightly
    /// above the unblocked filter's at equal (n, k).
    #[inline]
    pub fn contains(&self, row: u64, col: u64) -> bool {
        if self.word_parallel() {
            let (w0, w1, m0, m1) = self.cell_masks(row, col);
            self.bits.word(w0) & m0 == m0 && self.bits.word(w1) & m1 == m1
        } else {
            obs::counter!("kernel.scalar_fallbacks").inc();
            let (block, h1, h2) = self.cell_hashes(row, col);
            for t in 0..self.k as u64 {
                let off = h1.wrapping_add(t.wrapping_mul(h2)) % BLOCK_BITS;
                if !self.bits.get((block + off) as usize) {
                    return false;
                }
            }
            true
        }
    }

    /// [`Self::contains`] over a batch of cells, verdicts in input
    /// order, bit-identical to per-cell [`Self::contains`]. The
    /// word-parallel layout (k ≤ 128) is two word loads and two mask
    /// compares per cell. Larger k takes the scalar fallback loop
    /// (counted into `kernel.scalar_fallbacks`, once per batch).
    pub fn contains_batch(&self, cells: &[(u64, u64)]) -> Vec<bool> {
        if !self.word_parallel() {
            obs::counter!("kernel.scalar_fallbacks").inc();
            return cells
                .iter()
                .map(|&(r, c)| {
                    let (block, h1, h2) = self.cell_hashes(r, c);
                    (0..self.k as u64).all(|t| {
                        let off = h1.wrapping_add(t.wrapping_mul(h2)) % BLOCK_BITS;
                        self.bits.get((block + off) as usize)
                    })
                })
                .collect();
        }
        let words = self.bits.words();
        cells
            .iter()
            .map(|&(r, c)| {
                let (w0, w1, m0, m1) = self.cell_masks(r, c);
                words[w0] & m0 == m0 && words[w1] & m1 == m1
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(n: u64, k: usize) -> BlockedAb {
        BlockedAb::new(n, k, CellMapper::for_columns(16))
    }

    #[test]
    fn size_rounds_to_blocks() {
        assert_eq!(make(1, 1).n_bits(), 512);
        assert_eq!(make(512, 1).n_bits(), 512);
        assert_eq!(make(513, 1).n_bits(), 1024);
    }

    #[test]
    fn no_false_negatives() {
        let mut ab = make(1 << 12, 5);
        let cells: Vec<(u64, u64)> = (0..300).map(|i| (i, i % 16)).collect();
        for &(r, c) in &cells {
            ab.insert(r, c);
        }
        for &(r, c) in &cells {
            assert!(ab.contains(r, c), "false negative at ({r},{c})");
        }
    }

    #[test]
    fn empty_contains_nothing() {
        let ab = make(1 << 12, 4);
        assert!(!ab.contains(1, 1));
        assert_eq!(ab.fill_ratio(), 0.0);
    }

    #[test]
    fn distinct_probes_within_block() {
        // Scalar path: the odd stride guarantees k distinct offsets for
        // k <= 512.
        let ab = make(1 << 12, 8);
        let (block, h1, h2) = ab.cell_hashes(7, 3);
        let offs: std::collections::HashSet<u64> = (0..8u64)
            .map(|t| block + h1.wrapping_add(t.wrapping_mul(h2)) % BLOCK_BITS)
            .collect();
        assert_eq!(offs.len(), 8);
    }

    #[test]
    fn cell_masks_carry_exactly_k_bits() {
        // Word-parallel path: ⌈k/2⌉ + ⌊k/2⌋ = k distinct bits across
        // the two masks (the odd stride is a bijection mod 64), and
        // both words stay inside the cell's block.
        for k in [1usize, 2, 5, 8, 64, 128] {
            let ab = make(1 << 14, k);
            for cell in 0..200u64 {
                let (w0, w1, m0, m1) = ab.cell_masks(cell, cell % 16);
                assert_eq!(m0.count_ones() as usize, k.div_ceil(2), "k={k} cell={cell}");
                assert_eq!(m1.count_ones() as usize, k / 2, "k={k} cell={cell}");
                assert_eq!(
                    w0 as u64 / BLOCK_WORDS,
                    w1 as u64 / BLOCK_WORDS,
                    "masks escaped the block"
                );
            }
        }
    }

    #[test]
    fn scalar_fallback_above_128_still_has_no_false_negatives() {
        let mut ab = make(1 << 14, 130);
        assert!(!ab.word_parallel());
        let cells: Vec<(u64, u64)> = (0..50).map(|i| (i, i % 16)).collect();
        for &(r, c) in &cells {
            ab.insert(r, c);
        }
        for &(r, c) in &cells {
            assert!(ab.contains(r, c), "false negative at ({r},{c})");
        }
    }

    #[test]
    fn fp_rate_within_2x_of_unblocked_theory() {
        let s = 4000u64;
        let alpha = 8u64;
        let k = 6;
        let mut ab = BlockedAb::new(s * alpha, k, CellMapper::RowOnly);
        for r in 0..s {
            ab.insert(r, 0);
        }
        let probes = 30_000u64;
        let fp = (s..s + probes).filter(|&r| ab.contains(r, 0)).count();
        let measured = fp as f64 / probes as f64;
        let theory = crate::analysis::fp_rate(k, alpha as f64);
        assert!(
            measured < theory * 2.5 + 0.005,
            "measured {measured:.5} vs theory {theory:.5}"
        );
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn k_larger_than_block_rejected() {
        make(1 << 12, 513);
    }

    #[test]
    fn contains_batch_matches_per_cell_contains() {
        // Both layouts: word-parallel (k=5) and the scalar fallback
        // (k=130), over a mix of inserted and absent cells at several
        // batch lengths.
        for k in [5usize, 130] {
            let mut ab = make(1 << 14, k);
            let present: Vec<(u64, u64)> = (0..97).map(|i| (i * 3, i % 16)).collect();
            for &(r, c) in &present {
                ab.insert(r, c);
            }
            let mixed: Vec<(u64, u64)> = (0..500u64).map(|i| (i, (i * 7) % 16)).collect();
            for len in [1usize, 7, 8, 9, 100, mixed.len()] {
                let cells = &mixed[..len];
                let batch = ab.contains_batch(cells);
                let scalar: Vec<bool> = cells.iter().map(|&(r, c)| ab.contains(r, c)).collect();
                assert_eq!(batch, scalar, "k={k} len={len}");
            }
            // Every inserted cell must come back positive through the
            // batch path too.
            assert!(ab.contains_batch(&present).iter().all(|&b| b), "k={k}");
        }
    }
}
