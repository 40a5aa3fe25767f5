//! A compact Roaring-style bitmap.
//!
//! Roaring (Chambi, Lemire, Kaser, Godin, 2014) is where the bitmap
//! field settled after the WAH/BBC era the paper competes in: values
//! are partitioned by their high 16 bits into 65536-value chunks, each
//! stored as a sorted array (sparse) or a verbatim bitset (dense).
//! Unlike run-length codes, Roaring *keeps* O(log) direct access — so
//! it is the natural modern baseline for the Approximate Bitmap's
//! direct-access claim, alongside the paper's WAH comparisons. The
//! `bench` crate races all three.
//!
//! This is a self-contained reimplementation of the core design —
//! array, bitmap, *and* run containers (the Lemire et al. 2016
//! refinement, via [`RoaringBitmap::optimize`]) plus a word-at-a-time
//! batch membership kernel ([`RoaringBitmap::or_range_into`]) and a
//! versioned, checksummed byte format ([`RoaringBitmap::to_bytes`]) —
//! enough both for honest size/speed comparisons and for serving as
//! the exact tier of the hybrid AB index (`ab::HybridAb`).
//!
//! # Examples
//!
//! ```
//! use roar::RoaringBitmap;
//!
//! let mut rb = RoaringBitmap::new();
//! rb.insert(3);
//! rb.insert(1_000_000);
//! assert!(rb.contains(3) && rb.contains(1_000_000));
//! assert_eq!(rb.iter().collect::<Vec<_>>(), vec![3, 1_000_000]);
//! ```

#![warn(missing_docs)]

pub mod bytes;
pub mod container;
pub mod index;

pub use bytes::RoarError;
pub use container::Container;
pub use index::RoaringIndex;

use serde::{Deserialize, Serialize};

/// A set of `u32` values with chunked array/bitmap storage.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoaringBitmap {
    /// `(high 16 bits, container)`, sorted by key.
    chunks: Vec<(u16, Container)>,
}

impl RoaringBitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        RoaringBitmap { chunks: Vec::new() }
    }

    /// Builds from an ascending iterator of values (duplicates allowed),
    /// one [`Self::push`] each.
    ///
    /// # Panics
    ///
    /// Panics if the values descend.
    pub fn from_sorted<I: IntoIterator<Item = u32>>(values: I) -> Self {
        let mut rb = Self::new();
        for v in values {
            rb.push(v);
        }
        rb
    }

    /// Adds `v`, no smaller than any value present: the last container
    /// grows at its end — the container [`Self::insert`] grows, without
    /// a binary search and a shift per value. Adding the maximum again
    /// changes nothing. A `v` in a new chunk completes the last one,
    /// which is then stored in its smallest form (the choice
    /// [`Self::optimize`] makes), so a bitmap built by pushes holds one
    /// container in its growing form at a time.
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the bitmap's maximum.
    pub fn push(&mut self, v: u32) {
        let (key, low) = Self::split(v);
        if let Some((last, c)) = self.chunks.last_mut() {
            if *last == key {
                c.push(low);
                return;
            }
            assert!(*last < key, "values must ascend");
            c.optimize();
        }
        self.chunks.push((key, Container::Array(vec![low])));
    }

    #[inline]
    fn split(v: u32) -> (u16, u16) {
        ((v >> 16) as u16, (v & 0xFFFF) as u16)
    }

    fn chunk_index(&self, key: u16) -> Result<usize, usize> {
        self.chunks.binary_search_by_key(&key, |(k, _)| *k)
    }

    /// Inserts a value; returns `true` if newly added.
    pub fn insert(&mut self, v: u32) -> bool {
        let (key, low) = Self::split(v);
        match self.chunk_index(key) {
            Ok(i) => self.chunks[i].1.insert(low),
            Err(i) => {
                let mut c = Container::new();
                c.insert(low);
                self.chunks.insert(i, (key, c));
                true
            }
        }
    }

    /// Inserts every value in `lo..=hi` — container-level fills, far
    /// cheaper than per-value insertion for dense ranges (used for the
    /// §3.3 row-range masks).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn insert_range(&mut self, lo: u32, hi: u32) {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let (klo, khi) = ((lo >> 16) as u16, (hi >> 16) as u16);
        for key in klo..=khi {
            let from = if key == klo { (lo & 0xFFFF) as u16 } else { 0 };
            let to = if key == khi {
                (hi & 0xFFFF) as u16
            } else {
                0xFFFF
            };
            let i = match self.chunk_index(key) {
                Ok(i) => i,
                Err(i) => {
                    self.chunks.insert(i, (key, Container::new()));
                    i
                }
            };
            self.chunks[i].1.insert_range(from, to);
        }
    }

    /// Removes a value; returns `true` if it was present.
    pub fn remove(&mut self, v: u32) -> bool {
        let (key, low) = Self::split(v);
        if let Ok(i) = self.chunk_index(key) {
            let removed = self.chunks[i].1.remove(low);
            if self.chunks[i].1.is_empty() {
                self.chunks.remove(i);
            }
            removed
        } else {
            false
        }
    }

    /// Membership test: O(log chunks + log container) — direct access.
    pub fn contains(&self, v: u32) -> bool {
        let (key, low) = Self::split(v);
        match self.chunk_index(key) {
            Ok(i) => self.chunks[i].1.contains(low),
            Err(_) => false,
        }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|(_, c)| c.len()).sum()
    }

    /// The largest stored value, if any: O(1) unless trailing
    /// containers are empty.
    pub fn max(&self) -> Option<u32> {
        self.chunks
            .iter()
            .rev()
            .find_map(|(key, c)| c.max().map(|low| (*key as u32) << 16 | low as u32))
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Heap bytes used by containers (plus 2 bytes per chunk key).
    pub fn size_bytes(&self) -> usize {
        self.chunks.iter().map(|(_, c)| c.size_bytes() + 2).sum()
    }

    /// Iterates values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.chunks.iter().flat_map(|(key, c)| {
            let base = (*key as u32) << 16;
            c.iter().map(move |low| base | low as u32)
        })
    }

    /// Converts each container to its smallest physical form — the
    /// `runOptimize` pass that turns clustered chunks into run
    /// containers. Returns how many containers ended up in run form.
    /// Deterministic, so two equal sets optimize to identical
    /// representations (and identical [`Self::to_bytes`] output).
    pub fn optimize(&mut self) -> usize {
        let mut runs = 0;
        for (_, c) in self.chunks.iter_mut() {
            if c.optimize() {
                runs += 1;
            }
        }
        runs
    }

    /// Batch membership over the row interval `lo..=hi`, ORed into a
    /// packed mask: sets bit `i` of `out` wherever
    /// `self.contains(lo + i)`, computed word-at-a-time from the
    /// containers rather than value-at-a-time — the kernel the hybrid
    /// tier plans its rect intervals with. Bits already set stay set,
    /// and no bit past `hi − lo` is touched.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `out` holds fewer than `hi − lo + 1`
    /// bits.
    pub fn or_range_into(&self, lo: u32, hi: u32, out: &mut [u64]) {
        assert!(lo <= hi, "empty interval {lo}..={hi}");
        let n = (hi - lo) as usize + 1;
        assert!(out.len() >= n.div_ceil(64), "mask too short for {n} bits");
        let (klo, khi) = ((lo >> 16) as u16, (hi >> 16) as u16);
        let first = self.chunks.partition_point(|(k, _)| *k < klo);
        for (key, c) in &self.chunks[first..] {
            if *key > khi {
                break;
            }
            let base = (*key as u32) << 16;
            let from = lo.max(base) - base;
            let to = hi.min(base | 0xFFFF) - base;
            let offset = (base + from - lo) as usize;
            c.mask_range(from as u16, to as u16, offset, out);
        }
    }

    /// Merging binary operation over chunk lists.
    fn merge<F>(&self, other: &RoaringBitmap, keep_left: bool, keep_right: bool, op: F) -> Self
    where
        F: Fn(&Container, &Container) -> Container,
    {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ka, ca) = &self.chunks[i];
            let (kb, cb) = &other.chunks[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => {
                    if keep_left {
                        out.push((*ka, ca.clone()));
                    }
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    if keep_right {
                        out.push((*kb, cb.clone()));
                    }
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let c = op(ca, cb);
                    if !c.is_empty() {
                        out.push((*ka, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        if keep_left {
            out.extend_from_slice(&self.chunks[i..]);
        }
        if keep_right {
            out.extend_from_slice(&other.chunks[j..]);
        }
        RoaringBitmap { chunks: out }
    }

    /// Intersection.
    pub fn and(&self, other: &RoaringBitmap) -> RoaringBitmap {
        self.merge(other, false, false, Container::and)
    }

    /// Union.
    pub fn or(&self, other: &RoaringBitmap) -> RoaringBitmap {
        self.merge(other, true, true, Container::or)
    }

    /// Difference (`self \ other`).
    pub fn andnot(&self, other: &RoaringBitmap) -> RoaringBitmap {
        self.merge(other, true, false, Container::andnot)
    }
}

impl FromIterator<u32> for RoaringBitmap {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut rb = RoaringBitmap::new();
        for v in iter {
            rb.insert(v);
        }
        rb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_across_chunks() {
        let mut rb = RoaringBitmap::new();
        for v in [0u32, 65_535, 65_536, 1 << 20, u32::MAX] {
            assert!(rb.insert(v));
            assert!(!rb.insert(v));
        }
        assert_eq!(rb.len(), 5);
        assert!(rb.contains(65_536));
        assert!(!rb.contains(65_537));
    }

    #[test]
    fn remove_prunes_empty_chunks() {
        let mut rb = RoaringBitmap::from_sorted([1, 2, 100_000]);
        assert!(rb.remove(100_000));
        assert!(!rb.remove(100_000));
        assert_eq!(rb.len(), 2);
        // The chunk for key 1 must be gone entirely.
        assert_eq!(rb.chunks.len(), 1);
    }

    /// A bitmap built by ascending pushes, once optimized, is the one
    /// value-by-value inserts build, in every physical form: chunks just
    /// under and over the array limit, a run-shaped chunk, duplicates,
    /// and pushes that continue the last chunk of a bitmap built by
    /// `from_sorted` before opening new ones.
    #[test]
    fn sorted_build_is_the_inserted_bitmap() {
        use container::ARRAY_MAX;
        let mut vals: Vec<u32> = (0..ARRAY_MAX as u32).map(|i| i * 3).collect();
        vals.extend((0..=ARRAY_MAX as u32).map(|i| (1 << 16) + i * 7));
        vals.extend((5u32 << 16)..(5 << 16) + 20_000);
        vals.extend([(7 << 16) + 9, (7 << 16) + 9, u32::MAX]);
        let (head, tail) = vals.split_at(vals.len() - 4_000);
        let mut sorted = RoaringBitmap::from_sorted(head.iter().copied());
        for &v in tail {
            sorted.push(v);
        }
        let mut inserted = RoaringBitmap::new();
        for &v in &vals {
            inserted.insert(v);
        }
        // The chunks the pushes moved past are already in their smallest
        // form; the growing last one is an array, as inserts leave it.
        assert!(matches!(sorted.chunks[0].1, Container::Array(_)));
        assert!(matches!(sorted.chunks[1].1, Container::Bitmap(_)));
        assert!(matches!(sorted.chunks[2].1, Container::Run(_)));
        assert_eq!(sorted.chunks[4], inserted.chunks[4]);
        assert_eq!(sorted.optimize(), inserted.optimize());
        assert_eq!(sorted, inserted);
        assert_eq!(sorted.to_bytes(), inserted.to_bytes());
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn sorted_build_rejects_descending_values() {
        RoaringBitmap::from_sorted([70_000, 5]);
    }

    #[test]
    fn iter_is_sorted_across_chunks() {
        let vals = [5u32, 70_000, 3, 200_000, 70_001];
        let rb: RoaringBitmap = vals.iter().copied().collect();
        assert_eq!(
            rb.iter().collect::<Vec<_>>(),
            vec![3, 5, 70_000, 70_001, 200_000]
        );
    }

    #[test]
    fn set_ops_match_btreeset() {
        use std::collections::BTreeSet;
        let a: Vec<u32> = (0..2000).map(|i| i * 37).collect();
        let b: Vec<u32> = (0..2000).map(|i| i * 53 + 11).collect();
        let (sa, sb): (BTreeSet<u32>, BTreeSet<u32>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        let (ra, rb): (RoaringBitmap, RoaringBitmap) =
            (a.into_iter().collect(), b.into_iter().collect());
        assert_eq!(
            ra.and(&rb).iter().collect::<Vec<_>>(),
            sa.intersection(&sb).copied().collect::<Vec<_>>()
        );
        assert_eq!(
            ra.or(&rb).iter().collect::<Vec<_>>(),
            sa.union(&sb).copied().collect::<Vec<_>>()
        );
        assert_eq!(
            ra.andnot(&rb).iter().collect::<Vec<_>>(),
            sa.difference(&sb).copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn insert_range_matches_per_value() {
        for (lo, hi) in [(0u32, 10), (65_530, 65_540), (100, 200_000), (4_000, 8_200)] {
            let mut fast = RoaringBitmap::new();
            fast.insert_range(lo, hi);
            let slow: RoaringBitmap = (lo..=hi).collect();
            assert_eq!(fast, slow, "range {lo}..={hi}");
            assert_eq!(fast.len(), (hi - lo + 1) as usize);
        }
    }

    #[test]
    fn insert_range_merges_with_existing() {
        let mut rb: RoaringBitmap = [1u32, 5, 100].into_iter().collect();
        rb.insert_range(3, 6);
        assert_eq!(rb.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5, 6, 100]);
    }

    #[test]
    fn sparse_data_stays_compact() {
        // 1000 values spread over 4G space: ~2 bytes each + keys.
        let rb: RoaringBitmap = (0..1000u32).map(|i| i * 4_000_000).collect();
        assert!(rb.size_bytes() < 8_192, "{} bytes", rb.size_bytes());
    }

    #[test]
    fn dense_chunk_uses_bitmap_container() {
        let rb: RoaringBitmap = (0..60_000u32).collect();
        assert_eq!(rb.size_bytes(), 8_192 + 2); // one bitmap container
        assert_eq!(rb.len(), 60_000);
    }

    #[test]
    fn optimize_compresses_clustered_chunks_without_changing_the_set() {
        let mut rb = RoaringBitmap::new();
        rb.insert_range(1000, 80_000); // clustered: spans two chunks
        rb.insert(500_000);
        let before: Vec<u32> = rb.iter().collect();
        let bytes_before = rb.size_bytes();
        let runs = rb.optimize();
        assert_eq!(runs, 2, "both dense chunks should go run");
        assert!(rb.size_bytes() < bytes_before / 100);
        assert_eq!(rb.iter().collect::<Vec<_>>(), before);
        assert_eq!(rb.len(), 79_002);
        assert!(rb.contains(1000) && rb.contains(80_000) && !rb.contains(999));
    }

    /// `max` is the last value `iter` yields, in every container form.
    #[test]
    fn max_is_the_last_value_in_every_form() {
        assert_eq!(RoaringBitmap::new().max(), None);
        let mut rb = RoaringBitmap::from_sorted([3, 70_000]);
        assert_eq!(rb.max(), Some(70_000));
        rb.insert_range(65_536 * 4, 65_536 * 4 + 5_000); // past the array limit
        assert_eq!(rb.max(), Some(65_536 * 4 + 5_000));
        rb.insert(65_536 * 5 + 64); // a lone value in a new array chunk
        rb.insert(u32::MAX);
        for optimize in [false, true] {
            if optimize {
                assert!(rb.optimize() > 0, "no run container");
            }
            assert_eq!(rb.max(), rb.iter().last());
            assert!(rb.remove(u32::MAX));
            assert_eq!(rb.max(), Some(65_536 * 5 + 64));
            assert!(rb.remove(65_536 * 5 + 64));
            assert_eq!(rb.max(), rb.iter().last());
            rb.insert(65_536 * 5 + 64);
            rb.insert(u32::MAX);
        }
    }

    #[test]
    fn contains_batch_matches_contains() {
        let mut rb = RoaringBitmap::new();
        rb.insert_range(60_000, 70_000); // straddles the chunk boundary
        for v in (0..200_000u32).step_by(97) {
            rb.insert(v);
        }
        let mut run = rb.clone();
        run.optimize();
        for bm in [&rb, &run] {
            for (lo, hi) in [
                (0u32, 63),
                (59_990, 70_010),
                (65_530, 65_540),
                (100_000, 100_000),
                (0, 200_064),
            ] {
                // A pattern under the mask: ORed, never cleared.
                let n = (hi - lo) as usize + 1;
                let mut mask = vec![0u64; n.div_ceil(64)];
                mask[0] = 1;
                bm.or_range_into(lo, hi, &mut mask);
                for v in lo..=hi {
                    let i = (v - lo) as usize;
                    assert_eq!(
                        mask[i / 64] >> (i % 64) & 1 == 1,
                        bm.contains(v) || i == 0,
                        "value {v} in {lo}..={hi}"
                    );
                }
                // Tail bits beyond the interval stay zero.
                if !n.is_multiple_of(64) {
                    assert_eq!(mask.last().unwrap() >> (n % 64), 0);
                }
            }
        }
    }
}
