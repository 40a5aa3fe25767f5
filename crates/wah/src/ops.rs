//! Compressed-domain logical operations over WAH bitmaps.
//!
//! The word alignment of WAH fills guarantees that AND/OR/XOR only ever
//! touch whole words (paper §2.2.1): two fills combine into a fill of
//! `min` length, a fill against a literal behaves as an all-zero or
//! all-one literal. The result is built with run coalescing, so the
//! output is itself properly compressed.

use crate::encode::{WahBitmap, WahBuilder, GROUP_BITS, LITERAL_MASK};

/// Cursor over the groups of a WAH word stream. `remaining` counts the
/// groups left in the current run; for literals it is 1.
///
/// Decoded-word counts accumulate in plain fields on the hot loop and
/// are flushed to the `wah.ops.*` counters once per operation
/// ([`Cursor::flush_metrics`]), keeping atomics off the word stream.
struct Cursor<'a> {
    words: &'a [u32],
    idx: usize,
    /// Groups left in the current run (0 = exhausted / before first load).
    remaining: u32,
    /// Group value for the current run (0 / LITERAL_MASK for fills).
    value: u32,
    /// Whether the current run is a fill (multi-group capable).
    is_fill: bool,
    /// Fill words decoded so far.
    fills: u64,
    /// Literal words decoded so far.
    literals: u64,
}

impl<'a> Cursor<'a> {
    fn new(wah: &'a WahBitmap) -> Self {
        let mut c = Cursor {
            words: &wah.words,
            idx: 0,
            remaining: 0,
            value: 0,
            is_fill: false,
            fills: 0,
            literals: 0,
        };
        c.load();
        c
    }

    /// Loads the next word if the current run is exhausted. Returns
    /// `false` at end of stream.
    fn load(&mut self) -> bool {
        while self.remaining == 0 {
            let Some(&w) = self.words.get(self.idx) else {
                return false;
            };
            self.idx += 1;
            if w & 0x8000_0000 != 0 {
                self.is_fill = true;
                self.remaining = w & 0x3FFF_FFFF;
                self.value = if w & 0x4000_0000 != 0 {
                    LITERAL_MASK
                } else {
                    0
                };
                self.fills += 1;
            } else {
                self.is_fill = false;
                self.remaining = 1;
                self.value = w;
                self.literals += 1;
            }
        }
        true
    }

    #[inline]
    fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.remaining);
        self.remaining -= n;
    }

    /// One-shot flush of this cursor's decode counts into the global
    /// registry.
    fn flush_metrics(&self) {
        obs::counter!("wah.ops.words_scanned").add(self.idx as u64);
        obs::counter!("wah.ops.fills_decoded").add(self.fills);
        obs::counter!("wah.ops.literals_decoded").add(self.literals);
    }
}

/// Applies a word-wise binary operation to two WAH bitmaps of equal
/// logical length, producing a compressed result.
///
/// `op` receives 31-bit group payloads and must return a 31-bit payload
/// (e.g. `|a, b| a & b`).
///
/// # Panics
///
/// Panics if the operands have different logical lengths.
pub fn binary_op<F: Fn(u32, u32) -> u32>(a: &WahBitmap, b: &WahBitmap, op: F) -> WahBitmap {
    assert_eq!(
        a.len(),
        b.len(),
        "WAH logical op on different lengths: {} vs {}",
        a.len(),
        b.len()
    );
    let mut x = Cursor::new(a);
    let mut y = Cursor::new(b);
    let mut out = WahBuilder::with_capacity(a.num_words().max(b.num_words()));
    loop {
        let xa = x.load();
        let ya = y.load();
        if !xa || !ya {
            debug_assert_eq!(xa, ya, "operand group counts diverged");
            break;
        }
        if x.is_fill && y.is_fill {
            let n = x.remaining.min(y.remaining);
            out.append_group_n(op(x.value, y.value) & LITERAL_MASK, n);
            x.consume(n);
            y.consume(n);
        } else {
            out.append_group(op(x.value, y.value) & LITERAL_MASK);
            x.consume(1);
            y.consume(1);
        }
    }
    obs::counter!("wah.ops.executed").inc();
    x.flush_metrics();
    y.flush_metrics();
    out.finish(a.len())
}

impl WahBitmap {
    /// Bitwise AND in the compressed domain.
    pub fn and(&self, other: &WahBitmap) -> WahBitmap {
        binary_op(self, other, |a, b| a & b)
    }

    /// Bitwise OR in the compressed domain.
    pub fn or(&self, other: &WahBitmap) -> WahBitmap {
        binary_op(self, other, |a, b| a | b)
    }

    /// Bitwise XOR in the compressed domain.
    pub fn xor(&self, other: &WahBitmap) -> WahBitmap {
        binary_op(self, other, |a, b| a ^ b)
    }

    /// Bitwise AND-NOT (`self & !other`) in the compressed domain.
    pub fn andnot(&self, other: &WahBitmap) -> WahBitmap {
        binary_op(self, other, |a, b| a & !b)
    }

    /// Bitwise NOT in the compressed domain. Bits beyond the logical
    /// length stay zero.
    pub fn not(&self) -> WahBitmap {
        let mut out = WahBuilder::with_capacity(self.num_words());
        let mut c = Cursor::new(self);
        while c.load() {
            let flipped = !c.value & LITERAL_MASK;
            if c.is_fill {
                let n = c.remaining;
                out.append_group_n(flipped, n);
                c.consume(n);
            } else {
                out.append_group(flipped);
                c.consume(1);
            }
        }
        obs::counter!("wah.ops.executed").inc();
        c.flush_metrics();
        let mut res = out.finish(self.len());
        mask_tail(&mut res);
        res
    }

    /// OR of many bitmaps (the per-attribute bin union of a range
    /// query). Returns an all-zero bitmap of length `len` when `maps`
    /// is empty.
    ///
    /// Reduces pairwise as a balanced tree rather than a left fold:
    /// with w bins of compressed size m, the fold costs O(w²·m) because
    /// the accumulator keeps growing, the tree O(w·m·log w).
    pub fn or_many<'a, I: IntoIterator<Item = &'a WahBitmap>>(len: usize, maps: I) -> WahBitmap {
        let mut level: Vec<WahBitmap> = maps.into_iter().cloned().collect();
        if level.is_empty() {
            return WahBitmap::from_bitvec(&bitmap::BitVec::zeros(len));
        }
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.chunks(2);
            for pair in &mut it {
                next.push(match pair {
                    [a, b] => a.or(b),
                    [a] => a.clone(),
                    _ => unreachable!(),
                });
            }
            level = next;
        }
        level.pop().expect("non-empty by construction")
    }
}

/// Clears any set bits in the final (partial) group beyond the logical
/// length — needed after NOT, which flips the padding.
fn mask_tail(wah: &mut WahBitmap) {
    let rem = wah.num_bits % GROUP_BITS;
    if rem == 0 || wah.num_bits == 0 {
        return;
    }
    let mask = (1u32 << rem) - 1;
    // The final group is the last group of the last run. Split it out,
    // mask it, and re-append.
    let Some(&last) = wah.words.last() else {
        return;
    };
    let num_bits = wah.num_bits;
    if last & 0x8000_0000 != 0 {
        let value = last & 0x4000_0000 != 0;
        let groups = last & 0x3FFF_FFFF;
        if !value {
            return; // zero fill already has a clean tail
        }
        wah.words.pop();
        let mut b = WahBuilder::with_capacity(2);
        if groups > 1 {
            b.append_fill(true, groups - 1);
        }
        b.append_group(LITERAL_MASK & mask);
        let tail = b.finish(0);
        wah.words.extend_from_slice(&tail.words);
    } else {
        let masked = last & mask;
        wah.words.pop();
        let mut b = WahBuilder::with_capacity(1);
        b.append_group(masked);
        let tail = b.finish(0);
        // Coalesce with preceding word if the masked literal became a
        // zero fill adjacent to another zero fill.
        if let (Some(&prev), Some(&t)) = (wah.words.last(), tail.words.first()) {
            if prev & 0xC000_0000 == 0x8000_0000 && t & 0xC000_0000 == 0x8000_0000 {
                let combined = (prev & 0x3FFF_FFFF) + (t & 0x3FFF_FFFF);
                if combined <= 0x3FFF_FFFF {
                    *wah.words.last_mut().unwrap() = 0x8000_0000 | combined;
                    wah.num_bits = num_bits;
                    return;
                }
            }
        }
        wah.words.extend_from_slice(&tail.words);
    }
    wah.num_bits = num_bits;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitmap::BitVec;

    fn wah(len: usize, ones: &[usize]) -> WahBitmap {
        WahBitmap::from_ones(len, ones.iter().copied())
    }

    #[test]
    fn and_matches_uncompressed() {
        let a = wah(200, &[1, 40, 100, 150, 199]);
        let b = wah(200, &[1, 41, 100, 199]);
        assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![1, 100, 199]);
    }

    #[test]
    fn or_matches_uncompressed() {
        let a = wah(200, &[1, 40]);
        let b = wah(200, &[41, 199]);
        assert_eq!(
            a.or(&b).iter_ones().collect::<Vec<_>>(),
            vec![1, 40, 41, 199]
        );
    }

    #[test]
    fn xor_and_andnot() {
        let a = wah(100, &[1, 2, 3]);
        let b = wah(100, &[2, 3, 4]);
        assert_eq!(a.xor(&b).iter_ones().collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(a.andnot(&b).iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn ops_on_long_fills() {
        // Two sparse bitmaps with long zero fills between set regions.
        let a = wah(1_000_000, &[0, 500_000]);
        let b = wah(1_000_000, &[500_000, 999_999]);
        let and = a.and(&b);
        assert_eq!(and.iter_ones().collect::<Vec<_>>(), vec![500_000]);
        assert!(and.num_words() < 10);
        let or = a.or(&b);
        assert_eq!(
            or.iter_ones().collect::<Vec<_>>(),
            vec![0, 500_000, 999_999]
        );
    }

    #[test]
    fn op_result_is_coalesced() {
        // a has ones everywhere, b zeros everywhere → AND must be a
        // single zero fill, not a chain of words.
        let a = WahBitmap::from_bitvec(&BitVec::ones(31 * 100));
        let b = WahBitmap::from_bitvec(&BitVec::zeros(31 * 100));
        let and = a.and(&b);
        assert_eq!(and.num_words(), 1);
        assert_eq!(and.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn length_mismatch_panics() {
        wah(10, &[]).and(&wah(11, &[]));
    }

    #[test]
    fn not_flips_and_masks_tail() {
        let a = wah(40, &[0, 39]);
        let n = a.not();
        assert_eq!(n.len(), 40);
        assert_eq!(n.count_ones(), 38);
        let ones: Vec<usize> = n.iter_ones().collect();
        assert!(!ones.contains(&0));
        assert!(!ones.contains(&39));
        assert!(ones.iter().all(|&p| p < 40));
    }

    #[test]
    fn not_of_zeros_is_all_ones() {
        let z = WahBitmap::from_bitvec(&BitVec::zeros(100));
        let n = z.not();
        assert_eq!(n.count_ones(), 100);
        assert_eq!(n.not().count_ones(), 0);
    }

    #[test]
    fn double_not_is_identity() {
        let a = wah(123, &[0, 1, 62, 93, 122]);
        assert_eq!(a.not().not().to_bitvec(), a.to_bitvec());
    }

    #[test]
    fn not_tail_inside_one_fill() {
        // 35 bits of all ones: one full one-group + partial group that
        // the encoder padded; NOT must produce all zeros.
        let a = WahBitmap::from_bitvec(&BitVec::ones(35));
        let n = a.not();
        assert_eq!(n.count_ones(), 0);
        assert_eq!(n.len(), 35);
    }

    #[test]
    fn ops_flush_decode_counters() {
        let words = obs::global().counter("wah.ops.words_scanned");
        let fills = obs::global().counter("wah.ops.fills_decoded");
        let lits = obs::global().counter("wah.ops.literals_decoded");
        let (w0, f0, l0) = (words.get(), fills.get(), lits.get());
        // Sparse megabit bitmaps: mostly fills, a few literals.
        let a = wah(1_000_000, &[0, 500_000]);
        let b = wah(1_000_000, &[500_000, 999_999]);
        let scanned = (a.num_words() + b.num_words()) as u64;
        let _ = a.and(&b);
        // >= not ==: other tests in this binary run ops concurrently.
        assert!(words.get() - w0 >= scanned);
        assert!(fills.get() > f0, "no fill decodes counted");
        assert!(lits.get() > l0, "no literal decodes counted");
    }

    #[test]
    fn or_many_unions_bins() {
        let maps = [wah(50, &[1]), wah(50, &[2]), wah(50, &[3])];
        let u = WahBitmap::or_many(50, maps.iter());
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
        let empty = WahBitmap::or_many(50, []);
        assert_eq!(empty.len(), 50);
        assert_eq!(empty.count_ones(), 0);
    }
}
