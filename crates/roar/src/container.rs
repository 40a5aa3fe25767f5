//! Roaring containers: the 2^16-bit chunks of a Roaring bitmap.
//!
//! Each container holds the low 16 bits of the values sharing one
//! 16-bit high prefix, in one of three physical forms:
//!
//! * [`Container::Array`] — a sorted `Vec<u16>` (≤ 4096 entries,
//!   2 bytes per value);
//! * [`Container::Bitmap`] — a verbatim 8 KiB bitset (for > 4096
//!   entries, where the array form would exceed the bitset's size);
//! * [`Container::Run`] — sorted disjoint `(start, end)` runs, the
//!   run-container refinement (Lemire, Ssi-Yan-Kai, Kaser, 2016) that
//!   makes clustered chunks nearly free.
//!
//! Containers convert between array and bitmap automatically at the
//! 4096-element threshold, the classic Roaring design point where both
//! forms cost the same space. Run form is produced only by an explicit
//! [`Container::optimize`] pass (mirroring `runOptimize`), which picks
//! whichever of the three serialized forms is smallest; mutating a run
//! container converts it back to the dense form first.

use serde::{Deserialize, Serialize};

/// Array/bitmap conversion threshold (elements).
pub const ARRAY_MAX: usize = 4096;
/// Words in a bitmap container.
const WORDS: usize = 1024;

/// One 65536-value chunk.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Container {
    /// Sorted list of low-16-bit values.
    Array(Vec<u16>),
    /// Verbatim 65536-bit set.
    Bitmap(Box<[u64]>),
    /// Sorted, disjoint, non-adjacent `(start, end)` runs (inclusive).
    Run(Vec<(u16, u16)>),
}

impl Container {
    /// An empty array container.
    pub fn new() -> Self {
        Container::Array(Vec::new())
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap(w) => w.iter().map(|x| x.count_ones() as usize).sum(),
            Container::Run(runs) => runs.iter().map(|&(s, e)| (e - s) as usize + 1).sum(),
        }
    }

    /// The largest value stored, if any.
    pub(crate) fn max(&self) -> Option<u16> {
        match self {
            Container::Array(v) => v.last().copied(),
            Container::Bitmap(w) => w
                .iter()
                .rposition(|&x| x != 0)
                .map(|i| (i * 64 + 63 - w[i].leading_zeros() as usize) as u16),
            Container::Run(runs) => runs.last().map(|&(_, end)| end),
        }
    }

    /// `true` when no values are stored.
    pub fn is_empty(&self) -> bool {
        match self {
            Container::Array(v) => v.is_empty(),
            Container::Bitmap(w) => w.iter().all(|&x| x == 0),
            Container::Run(runs) => runs.is_empty(),
        }
    }

    /// Heap bytes used.
    pub fn size_bytes(&self) -> usize {
        match self {
            Container::Array(v) => v.len() * 2,
            Container::Bitmap(_) => WORDS * 8,
            Container::Run(runs) => runs.len() * 4,
        }
    }

    /// Converts a run container back to its canonical dense form
    /// (array iff ≤ [`ARRAY_MAX`] values); array/bitmap pass through
    /// unchanged. Mutating entry points call this so run form never
    /// has to support in-place edits.
    fn densify(&mut self) {
        if let Container::Run(_) = self {
            let vals: Vec<u16> = self.iter().collect();
            *self = if vals.len() > ARRAY_MAX {
                Self::array_to_bitmap(&vals)
            } else {
                Container::Array(vals)
            };
        }
    }

    /// Picks the smallest physical form for the current value set, the
    /// `runOptimize` decision: serialized run form costs `2 + 4·runs`
    /// bytes versus `2·len` (array) or 8192 (bitmap); ties keep the
    /// non-run form. Returns `true` when the container ends up in run
    /// form.
    pub fn optimize(&mut self) -> bool {
        let runs = self.count_runs();
        let run_bytes = 2 + 4 * runs;
        let dense_bytes = 2 * self.len().min(WORDS * 4); // array capped by bitmap
        if run_bytes < dense_bytes {
            let mut out = Vec::with_capacity(runs);
            for v in self.iter() {
                match out.last_mut() {
                    Some((_, e)) if *e + 1 == v => *e = v,
                    _ => out.push((v, v)),
                }
            }
            *self = Container::Run(out);
            true
        } else {
            self.densify();
            false
        }
    }

    /// Number of maximal runs of consecutive values.
    fn count_runs(&self) -> usize {
        match self {
            Container::Run(runs) => runs.len(),
            Container::Array(vals) => {
                let mut runs = 0usize;
                let mut prev: Option<u16> = None;
                for &v in vals {
                    if prev.is_none() || prev != v.checked_sub(1) {
                        runs += 1;
                    }
                    prev = Some(v);
                }
                runs
            }
            Container::Bitmap(words) => {
                // Run starts = set bits whose predecessor bit is clear:
                // popcount(w & !(w << 1 | carry)) per word.
                let mut runs = 0usize;
                let mut carry = 0u64;
                for &w in words.iter() {
                    runs += (w & !((w << 1) | carry)).count_ones() as usize;
                    carry = w >> 63;
                }
                runs
            }
        }
    }

    /// Inserts a value; returns `true` if it was newly added.
    pub fn insert(&mut self, v: u16) -> bool {
        self.densify();
        match self {
            Container::Array(vals) => match vals.binary_search(&v) {
                Ok(_) => false,
                Err(pos) => {
                    vals.insert(pos, v);
                    if vals.len() > ARRAY_MAX {
                        *self = Self::array_to_bitmap(vals);
                    }
                    true
                }
            },
            Container::Bitmap(words) => {
                let (w, b) = (v as usize / 64, v as usize % 64);
                let was = words[w] >> b & 1 == 1;
                words[w] |= 1 << b;
                !was
            }
            Container::Run(_) => unreachable!("densify above"),
        }
    }

    /// Inserts every value in `lo..=hi` (inclusive), converting to a
    /// bitmap container when the result exceeds the array threshold.
    pub fn insert_range(&mut self, lo: u16, hi: u16) {
        debug_assert!(lo <= hi);
        self.densify();
        let span = (hi - lo) as usize + 1;
        if let Container::Array(vals) = self {
            if vals.len() + span > ARRAY_MAX {
                *self = Self::array_to_bitmap(vals);
            }
        }
        match self {
            Container::Array(vals) => {
                // Small range into a small array: merge.
                let mut merged = Vec::with_capacity(vals.len() + span);
                let mut it = vals.iter().copied().peekable();
                while let Some(&v) = it.peek() {
                    if v >= lo {
                        break;
                    }
                    merged.push(v);
                    it.next();
                }
                merged.extend(lo..=hi);
                for v in it {
                    if v > hi {
                        merged.push(v);
                    }
                }
                *vals = merged;
                if vals.len() > ARRAY_MAX {
                    *self = Self::array_to_bitmap(vals);
                }
            }
            Container::Bitmap(words) => {
                for w in lo as usize / 64..=hi as usize / 64 {
                    let from = (lo as usize).max(w * 64) - w * 64;
                    let to = (hi as usize).min(w * 64 + 63) - w * 64;
                    let mask = if to == 63 {
                        !0u64 << from
                    } else {
                        ((1u64 << (to + 1)) - 1) & (!0u64 << from)
                    };
                    words[w] |= mask;
                }
            }
            Container::Run(_) => unreachable!("densify above"),
        }
    }

    /// Removes a value; returns `true` if it was present. Bitmap
    /// containers demote back to arrays at the threshold.
    pub fn remove(&mut self, v: u16) -> bool {
        self.densify();
        match self {
            Container::Array(vals) => match vals.binary_search(&v) {
                Ok(pos) => {
                    vals.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Container::Bitmap(words) => {
                let (w, b) = (v as usize / 64, v as usize % 64);
                let was = words[w] >> b & 1 == 1;
                words[w] &= !(1u64 << b);
                if was && self.len() <= ARRAY_MAX {
                    *self = Container::Array(self.iter().collect());
                }
                was
            }
            Container::Run(_) => unreachable!("densify above"),
        }
    }

    /// Membership test — O(log n) for arrays and runs, O(1) for
    /// bitmaps. This is the *direct access* run-length codes lack.
    pub fn contains(&self, v: u16) -> bool {
        match self {
            Container::Array(vals) => vals.binary_search(&v).is_ok(),
            Container::Bitmap(words) => words[v as usize / 64] >> (v as usize % 64) & 1 == 1,
            Container::Run(runs) => {
                let i = runs.partition_point(|&(s, _)| s <= v);
                i > 0 && runs[i - 1].1 >= v
            }
        }
    }

    /// Iterates values in ascending order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = u16> + '_> {
        match self {
            Container::Array(vals) => Box::new(vals.iter().copied()),
            Container::Bitmap(words) => {
                Box::new(words.iter().enumerate().flat_map(|(wi, &w)| BitIter {
                    word: w,
                    base: wi * 64,
                }))
            }
            Container::Run(runs) => Box::new(runs.iter().flat_map(|&(s, e)| s..=e)),
        }
    }

    /// Sets `out` bit `offset + (v - from)` for every member `v` of
    /// `from..=hi` — the word-at-a-time membership kernel behind
    /// [`crate::RoaringBitmap::or_range_into`]. Bits beyond `out`'s
    /// length are silently dropped (the caller sizes `out` for its row
    /// interval).
    pub(crate) fn mask_range(&self, from: u16, hi: u16, offset: usize, out: &mut [u64]) {
        debug_assert!(from <= hi);
        match self {
            Container::Array(vals) => {
                let lo_i = vals.partition_point(|&v| v < from);
                for &v in &vals[lo_i..] {
                    if v > hi {
                        break;
                    }
                    set_bit(out, offset + (v - from) as usize);
                }
            }
            Container::Bitmap(words) => {
                let (wf, wt) = (from as usize / 64, hi as usize / 64);
                for wi in wf..=wt {
                    let mut w = words[wi];
                    if wi == wf {
                        w &= !0u64 << (from as usize % 64);
                    }
                    if wi == wt {
                        let t = hi as usize % 64;
                        if t < 63 {
                            w &= (1u64 << (t + 1)) - 1;
                        }
                    }
                    if w != 0 {
                        // Source bit j of w is container value wi·64+j,
                        // landing at out bit offset + wi·64 + j − from.
                        or_shifted(out, w, offset as i64 + wi as i64 * 64 - from as i64);
                    }
                }
            }
            Container::Run(runs) => {
                let start = runs.partition_point(|&(_, e)| e < from);
                for &(s, e) in &runs[start..] {
                    if s > hi {
                        break;
                    }
                    let a = s.max(from);
                    let b = e.min(hi);
                    set_bit_range(
                        out,
                        offset + (a - from) as usize,
                        offset + (b - from) as usize,
                    );
                }
            }
        }
    }

    /// [`Self::insert`] for a `v` no smaller than any value present: an
    /// array appends it (a bitmap above [`ARRAY_MAX`] values, as
    /// `insert` turns it), a bitmap sets its bit.
    ///
    /// # Panics
    ///
    /// Panics if an array's last value is above `v`.
    pub(crate) fn push(&mut self, v: u16) {
        self.densify();
        match self {
            Container::Array(vals) => match vals.last() {
                Some(&last) if last >= v => assert!(last == v, "values must ascend"),
                _ => {
                    vals.push(v);
                    if vals.len() > ARRAY_MAX {
                        *self = Self::array_to_bitmap(vals);
                    }
                }
            },
            Container::Bitmap(words) => words[v as usize / 64] |= 1 << (v as usize % 64),
            Container::Run(_) => unreachable!("densify above"),
        }
    }

    fn array_to_bitmap(vals: &[u16]) -> Container {
        let mut words = vec![0u64; WORDS].into_boxed_slice();
        for &v in vals {
            words[v as usize / 64] |= 1 << (v as usize % 64);
        }
        Container::Bitmap(words)
    }

    /// Normalizes the physical form to match the element count (array
    /// iff ≤ 4096), used after bulk operations.
    fn normalize(self) -> Container {
        let n = self.len();
        match (&self, n) {
            (Container::Bitmap(_), n) if n <= ARRAY_MAX => Container::Array(self.iter().collect()),
            (Container::Array(vals), n) if n > ARRAY_MAX => Self::array_to_bitmap(vals),
            _ => self,
        }
    }

    /// A dense (array/bitmap) clone of a run container, so the binary
    /// ops below only pair array and bitmap forms.
    fn dense_clone(&self) -> Container {
        let mut d = self.clone();
        d.densify();
        d
    }

    /// Intersection.
    pub fn and(&self, other: &Container) -> Container {
        if matches!(self, Container::Run(_)) {
            return self.dense_clone().and(other);
        }
        if matches!(other, Container::Run(_)) {
            return self.and(&other.dense_clone());
        }
        let out = match (self, other) {
            (Container::Array(a), Container::Array(b)) => Container::Array(intersect_sorted(a, b)),
            (Container::Array(a), bm @ Container::Bitmap(_))
            | (bm @ Container::Bitmap(_), Container::Array(a)) => {
                Container::Array(a.iter().copied().filter(|&v| bm.contains(v)).collect())
            }
            (Container::Bitmap(a), Container::Bitmap(b)) => {
                let words: Vec<u64> = a.iter().zip(b.iter()).map(|(x, y)| x & y).collect();
                Container::Bitmap(words.into_boxed_slice())
            }
            _ => unreachable!("run operands densified above"),
        };
        out.normalize()
    }

    /// Union.
    pub fn or(&self, other: &Container) -> Container {
        if matches!(self, Container::Run(_)) {
            return self.dense_clone().or(other);
        }
        if matches!(other, Container::Run(_)) {
            return self.or(&other.dense_clone());
        }
        let out = match (self, other) {
            (Container::Array(a), Container::Array(b)) => Container::Array(union_sorted(a, b)),
            (Container::Array(a), Container::Bitmap(bw))
            | (Container::Bitmap(bw), Container::Array(a)) => {
                let mut words = bw.clone();
                for &v in a {
                    words[v as usize / 64] |= 1 << (v as usize % 64);
                }
                Container::Bitmap(words)
            }
            (Container::Bitmap(a), Container::Bitmap(b)) => {
                let words: Vec<u64> = a.iter().zip(b.iter()).map(|(x, y)| x | y).collect();
                Container::Bitmap(words.into_boxed_slice())
            }
            _ => unreachable!("run operands densified above"),
        };
        out.normalize()
    }

    /// Difference (`self \ other`).
    pub fn andnot(&self, other: &Container) -> Container {
        if matches!(self, Container::Run(_)) {
            return self.dense_clone().andnot(other);
        }
        if matches!(other, Container::Run(_)) {
            return self.andnot(&other.dense_clone());
        }
        let out = match (self, other) {
            (Container::Array(a), _) => {
                Container::Array(a.iter().copied().filter(|&v| !other.contains(v)).collect())
            }
            (Container::Bitmap(aw), Container::Bitmap(bw)) => {
                let words: Vec<u64> = aw.iter().zip(bw.iter()).map(|(x, y)| x & !y).collect();
                Container::Bitmap(words.into_boxed_slice())
            }
            (Container::Bitmap(aw), Container::Array(b)) => {
                let mut words = aw.clone();
                for &v in b {
                    words[v as usize / 64] &= !(1u64 << (v as usize % 64));
                }
                Container::Bitmap(words)
            }
            _ => unreachable!("run operands densified above"),
        };
        out.normalize()
    }
}

impl Default for Container {
    fn default() -> Self {
        Self::new()
    }
}

/// Set-bit iterator over one word.
struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some((self.base + tz) as u16)
    }
}

fn intersect_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn union_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sets bit `i` of `out` when it is in range.
#[inline]
fn set_bit(out: &mut [u64], i: usize) {
    if let Some(w) = out.get_mut(i / 64) {
        *w |= 1u64 << (i % 64);
    }
}

/// Sets bits `a..=b` of `out` (clipped to its length), word-at-a-time.
fn set_bit_range(out: &mut [u64], a: usize, b: usize) {
    debug_assert!(a <= b);
    for wi in a / 64..=b / 64 {
        let Some(w) = out.get_mut(wi) else { break };
        let from = a.max(wi * 64) - wi * 64;
        let to = b.min(wi * 64 + 63) - wi * 64;
        let mask = if to == 63 {
            !0u64 << from
        } else {
            ((1u64 << (to + 1)) - 1) & (!0u64 << from)
        };
        *w |= mask;
    }
}

/// ORs source word `w` into `out` with bit `j` of `w` landing at out
/// bit `shift + j`; bits that fall below zero or past the end are
/// dropped.
fn or_shifted(out: &mut [u64], w: u64, shift: i64) {
    if shift >= 0 {
        let word = (shift / 64) as usize;
        let bit = (shift % 64) as u32;
        if let Some(o) = out.get_mut(word) {
            *o |= w << bit;
        }
        if bit != 0 {
            if let Some(o) = out.get_mut(word + 1) {
                *o |= w >> (64 - bit);
            }
        }
    } else {
        let s = -shift as u32;
        if s < 64 {
            if let Some(o) = out.get_mut(0) {
                *o |= w >> s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_array() {
        let mut c = Container::new();
        assert!(c.insert(5));
        assert!(!c.insert(5));
        assert!(c.insert(3));
        assert!(c.contains(3) && c.contains(5) && !c.contains(4));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn promotes_to_bitmap_past_threshold() {
        let mut c = Container::new();
        for v in 0..=ARRAY_MAX as u16 {
            c.insert(v * 10);
        }
        assert!(matches!(c, Container::Bitmap(_)));
        assert_eq!(c.len(), ARRAY_MAX + 1);
        assert!(c.contains(40960));
        assert!(!c.contains(5));
    }

    #[test]
    fn demotes_on_remove() {
        let mut c = Container::new();
        for v in 0..=(ARRAY_MAX as u16) {
            c.insert(v);
        }
        assert!(matches!(c, Container::Bitmap(_)));
        assert!(c.remove(0));
        assert!(matches!(c, Container::Array(_)));
        assert_eq!(c.len(), ARRAY_MAX);
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut c = Container::new();
        c.insert(1);
        assert!(!c.remove(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn bitmap_iter_is_sorted() {
        let mut c = Container::new();
        let vals: Vec<u16> = (0..5000).map(|i| (i * 13) as u16).collect();
        for &v in &vals {
            c.insert(v);
        }
        let got: Vec<u16> = c.iter().collect();
        let mut want: Vec<u16> = vals.clone();
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
    }

    #[test]
    fn ops_across_forms() {
        // One array, one bitmap container.
        let mut a = Container::new();
        for v in (0..1000u16).step_by(2) {
            a.insert(v);
        }
        let mut b = Container::new();
        for v in 0..5000u16 {
            b.insert(v);
        }
        assert!(matches!(a, Container::Array(_)));
        assert!(matches!(b, Container::Bitmap(_)));
        assert_eq!(a.and(&b).len(), 500);
        assert_eq!(a.or(&b).len(), 5000);
        assert_eq!(a.andnot(&b).len(), 0);
        assert_eq!(b.andnot(&a).len(), 4500);
    }

    #[test]
    fn and_result_normalizes_to_array() {
        let mut a = Container::new();
        let mut b = Container::new();
        for v in 0..5000u16 {
            a.insert(v);
            b.insert(v + 4000);
        }
        let i = a.and(&b); // 1000 common values → array form
        assert!(matches!(i, Container::Array(_)));
        assert_eq!(i.len(), 1000);
    }

    #[test]
    fn size_accounting() {
        let mut c = Container::new();
        c.insert(1);
        c.insert(2);
        assert_eq!(c.size_bytes(), 4);
        for v in 0..5000u16 {
            c.insert(v);
        }
        assert_eq!(c.size_bytes(), 8192);
    }

    #[test]
    fn array_boundary_is_exactly_4096() {
        let mut c = Container::new();
        for v in 0..ARRAY_MAX as u16 {
            c.insert(v * 2);
        }
        assert!(matches!(c, Container::Array(_)), "4096 values stay array");
        c.insert(60_000);
        assert!(matches!(c, Container::Bitmap(_)), "4097th promotes");
        assert!(c.remove(60_000));
        assert!(matches!(c, Container::Array(_)), "back at 4096 demotes");
        assert_eq!(c.len(), ARRAY_MAX);
    }

    #[test]
    fn optimize_picks_run_for_clustered_values() {
        // One solid run of 5000 values: 1 run (6 B) vs bitmap (8 KiB).
        let mut c = Container::new();
        c.insert_range(100, 5099);
        assert!(c.optimize());
        assert_eq!(c, Container::Run(vec![(100, 5099)]));
        assert_eq!(c.len(), 5000);
        assert_eq!(c.size_bytes(), 4);
        assert!(c.contains(100) && c.contains(5099) && !c.contains(5100));
        assert_eq!(c.iter().count(), 5000);
    }

    #[test]
    fn optimize_keeps_sparse_arrays() {
        // Alternating values have no runs worth keeping: 2·len < 2+4·runs.
        let mut c = Container::new();
        for v in (0..2000u16).step_by(2) {
            c.insert(v);
        }
        assert!(!c.optimize());
        assert!(matches!(c, Container::Array(_)));
    }

    #[test]
    fn optimize_run_threshold_matches_serialized_cost() {
        // 10 values in 2 runs: run form 2+8 = 10 B < array 20 B → run.
        let mut c = Container::new();
        c.insert_range(0, 4);
        c.insert_range(100, 104);
        assert!(c.optimize());
        // 4 values in 2 runs: run form 10 B > array 8 B → array.
        let mut c = Container::new();
        c.insert_range(0, 1);
        c.insert_range(100, 101);
        assert!(!c.optimize());
        assert!(matches!(c, Container::Array(_)));
    }

    #[test]
    fn run_mutation_falls_back_densify() {
        let mut c = Container::new();
        c.insert_range(0, 4999);
        c.optimize();
        assert!(matches!(c, Container::Run(_)));
        assert!(c.insert(60_000));
        assert!(
            matches!(c, Container::Bitmap(_)),
            "mutating a run container densifies (5001 values → bitmap)"
        );
        assert!(c.contains(2500) && c.contains(60_000));

        let mut small = Container::Run(vec![(10, 12)]);
        assert!(small.remove(11));
        assert!(matches!(small, Container::Array(_)));
        assert_eq!(small.iter().collect::<Vec<_>>(), vec![10, 12]);
    }

    #[test]
    fn run_ops_match_dense_ops() {
        let mut a = Container::new();
        a.insert_range(0, 4999);
        let dense = a.clone();
        a.optimize();
        let mut b = Container::new();
        for v in (0..10_000u16).step_by(3) {
            b.insert(v);
        }
        assert_eq!(a.and(&b), dense.and(&b));
        assert_eq!(a.or(&b), dense.or(&b));
        assert_eq!(a.andnot(&b), dense.andnot(&b));
        assert_eq!(b.andnot(&a), b.andnot(&dense));
    }

    #[test]
    fn count_runs_agrees_across_forms() {
        let mut arr = Container::new();
        for &(s, e) in &[(0u16, 5), (7, 7), (64, 200), (511, 513)] {
            arr.insert_range(s, e);
        }
        let mut bm = arr.clone();
        for v in 1000..6000u16 {
            bm.insert(v);
        }
        assert_eq!(arr.count_runs(), 4);
        assert!(matches!(bm, Container::Bitmap(_)));
        assert_eq!(bm.count_runs(), 5);
    }

    #[test]
    fn mask_range_matches_contains_per_form() {
        let mut dense = Container::new();
        for &(s, e) in &[(0u16, 3), (60, 80), (127, 129), (1000, 5200)] {
            dense.insert_range(s, e);
        }
        let mut run = dense.clone();
        run.optimize();
        let array = Container::Array(dense.iter().filter(|v| v % 7 == 0).collect());
        for c in [&dense, &run, &array] {
            for (from, hi) in [(0u16, 63), (1, 200), (70, 70), (900, 6000), (120, 1100)] {
                let n = (hi - from) as usize + 1;
                let mut mask = vec![0u64; n.div_ceil(64)];
                c.mask_range(from, hi, 0, &mut mask);
                for v in from..=hi {
                    let i = (v - from) as usize;
                    assert_eq!(
                        mask[i / 64] >> (i % 64) & 1 == 1,
                        c.contains(v),
                        "form {c:?} value {v} over {from}..={hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn mask_range_honors_offset_across_words() {
        let mut c = Container::new();
        c.insert_range(10, 200);
        for offset in [0usize, 1, 63, 64, 65, 130] {
            let mut mask = vec![0u64; 8];
            c.mask_range(5, 250, offset, &mut mask);
            for v in 5u16..=250 {
                let i = offset + (v - 5) as usize;
                if i < 512 {
                    assert_eq!(
                        mask[i / 64] >> (i % 64) & 1 == 1,
                        (10..=200).contains(&v),
                        "offset {offset} value {v}"
                    );
                }
            }
        }
    }
}
