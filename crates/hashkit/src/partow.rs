//! General-purpose string hash functions.
//!
//! The paper's *independent hash functions* come "from the General
//! Purpose Hash Function Algorithms Library (Partow) with small
//! variations to account for the size of the AB" (§5.2.2). These are
//! the classic RS, JS, PJW, ELF, BKDR, SDBM, DJB, DEK and AP functions,
//! re-implemented here over byte strings, widened to 64-bit arithmetic
//! (the "small variation": more output bits to index large ABs), plus
//! FNV-1a.
//!
//! All functions are `fn(&[u8]) -> u64` and deterministic; each is
//! defined once, as a stream that can stop after a prefix and resume
//! ([`RosterFn`]), and the `fn` is its fold over the whole string.

/// A roster function stopped between two bytes of its string: the hash
/// so far and what else the function carries from byte to byte — RS its
/// running multiplier, AP the position (it alternates on its parity),
/// the others nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partial {
    hash: u64,
    carry: u64,
}

impl Partial {
    /// The function's value, if the string ends here.
    #[inline(always)]
    pub fn hash(self) -> u64 {
        self.hash
    }
}

/// One roster function as a left-to-right stream over a string: where
/// it starts and what a byte does to it. A state saved after a prefix
/// resumes over any rest, which is how a lockstep batch hashes the
/// digits its re-seeded keys share once ([`crate::ColProber`]).
pub trait RosterFn {
    /// The state before the first byte of a string of `len` bytes. DEK
    /// starts from the length, so a saved prefix state serves strings
    /// of that one total length.
    fn start(len: usize) -> Partial;

    /// The state one byte later.
    fn push(state: Partial, byte: u8) -> Partial;

    /// The state `bytes` later.
    #[inline(always)]
    fn resume(mut state: Partial, bytes: &[u8]) -> Partial {
        for &byte in bytes {
            state = Self::push(state, byte);
        }
        state
    }

    /// The function of a whole string.
    #[inline(always)]
    fn whole(data: &[u8]) -> u64 {
        Self::resume(Self::start(data.len()), data).hash
    }
}

/// Defines each roster function once — `start |len| (hash, carry)` and
/// `push |hash, carry, byte| (hash, carry)` — as a [`RosterFn`] and,
/// under the library's name, as its fold over a whole string.
macro_rules! roster_fns {
    ($($(#[$doc:meta])* $stream:ident / $whole:ident:
        start |$len:ident| $start:expr;
        push |$hash:ident, $carry:pat, $c:ident| $push:expr;)*) => {$(
        $(#[$doc])*
        pub struct $stream;

        impl RosterFn for $stream {
            #[inline(always)]
            fn start($len: usize) -> Partial {
                let (hash, carry) = $start;
                Partial { hash, carry }
            }

            #[inline(always)]
            fn push(state: Partial, byte: u8) -> Partial {
                let ($hash, $carry, $c) = (state.hash, state.carry, byte as u64);
                let (hash, carry) = $push;
                Partial { hash, carry }
            }
        }

        $(#[$doc])*
        pub fn $whole(data: &[u8]) -> u64 {
            $stream::whole(data)
        }
    )*};
}

roster_fns! {
    /// RS hash (Robert Sedgewick's *Algorithms in C*).
    Rs / rs_hash:
        start |_len| (0, 63689);
        push |hash, a, c| (hash.wrapping_mul(a).wrapping_add(c), a.wrapping_mul(378551));

    /// JS hash (Justin Sobel's bitwise hash).
    Js / js_hash:
        start |_len| (1315423911, 0);
        push |hash, _, c| (hash ^ hash.wrapping_shl(5).wrapping_add(c).wrapping_add(hash >> 2), 0);

    /// PJW hash (Peter J. Weinberger, AT&T Bell Labs), 64-bit widened.
    Pjw / pjw_hash:
        start |_len| (0, 0);
        push |hash, _, c| {
            const BITS: u32 = 64;
            const THREE_QUARTERS: u32 = BITS * 3 / 4;
            const ONE_EIGHTH: u32 = BITS / 8;
            const HIGH_BITS: u64 = !0u64 << (BITS - ONE_EIGHTH);
            let hash = (hash << ONE_EIGHTH).wrapping_add(c);
            let test = hash & HIGH_BITS;
            if test != 0 {
                ((hash ^ (test >> THREE_QUARTERS)) & !HIGH_BITS, 0)
            } else {
                (hash, 0)
            }
        };

    /// ELF hash (the Unix ELF object-format hash; a PJW variant).
    Elf / elf_hash:
        start |_len| (0, 0);
        push |hash, _, c| {
            let mut hash = (hash << 4).wrapping_add(c);
            let x = hash & 0xF000_0000_0000_0000;
            if x != 0 {
                hash ^= x >> 56;
            }
            (hash & !x, 0)
        };

    /// BKDR hash (Brian Kernighan & Dennis Ritchie, *The C Programming
    /// Language*), seed 131.
    Bkdr / bkdr_hash:
        start |_len| (0, 0);
        push |hash, _, c| (hash.wrapping_mul(131).wrapping_add(c), 0);

    /// SDBM hash (from the sdbm database library).
    Sdbm / sdbm_hash:
        start |_len| (0, 0);
        push |hash, _, c| (c.wrapping_add(hash << 6).wrapping_add(hash << 16).wrapping_sub(hash), 0);

    /// DJB hash (Daniel J. Bernstein's times-33 hash).
    Djb / djb_hash:
        start |_len| (5381, 0);
        push |hash, _, c| (hash.wrapping_shl(5).wrapping_add(hash).wrapping_add(c), 0);

    /// DEK hash (Donald E. Knuth, *The Art of Computer Programming* vol. 3).
    Dek / dek_hash:
        start |len| (len as u64, 0);
        push |hash, _, c| (hash.wrapping_shl(5) ^ (hash >> 27) ^ c, 0);

    /// AP hash (Arash Partow's own alternating hash).
    Ap / ap_hash:
        start |_len| (0xAAAA_AAAA_AAAA_AAAA, 0);
        push |hash, i, c| if i & 1 == 0 {
            (hash ^ hash.wrapping_shl(7) ^ c.wrapping_mul(hash >> 3), i + 1)
        } else {
            (hash ^ !(hash.wrapping_shl(11).wrapping_add(c ^ (hash >> 5))), i + 1)
        };

    /// FNV-1a, 64-bit.
    Fnv / fnv_hash:
        start |_len| (0xCBF2_9CE4_8422_2325, 0);
        push |hash, _, c| ((hash ^ c).wrapping_mul(0x0000_0100_0000_01B3), 0);
}

/// Encodes an integer hash string as its decimal ASCII digits — the
/// paper's `F(i, j) = concatenate(i, j)` forms literal number strings
/// (§3.1), and that choice matters: the Partow functions accumulate
/// roughly 4–8 bits of state per character, so the longer decimal
/// encoding (up to 20 chars vs 8 bytes) is what lets their outputs
/// cover a large AB uniformly ("small variations to account for the
/// size of the AB", §5.2.2).
///
/// Returns the backing array and the digit count; hash `&buf[..len]`.
#[inline]
pub fn decimal_key_bytes(x: u64) -> ([u8; 20], usize) {
    let mut buf = [0u8; 20];
    if x == 0 {
        buf[0] = b'0';
        return (buf, 1);
    }
    let mut tmp = x;
    let mut len = 0usize;
    while tmp > 0 {
        len += 1;
        tmp /= 10;
    }
    let mut i = len;
    let mut v = x;
    while v > 0 {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    (buf, len)
}

/// Eight digits: the keys split into groups at its multiples.
const GROUP: u64 = 100_000_000;
const ASCII: u64 = 0x3030_3030_3030_3030;

/// [`decimal_key_bytes`] without a division per digit, for the key
/// every lockstep lane starts with ([`crate::ColProber::begin_col`]):
/// same bytes, same count, same zeroed tail. `x` splits into at most
/// three groups of eight digits, each spread over the bytes of a
/// register by `eight_digits`; the leading group loses its leading
/// zeros by a shift, and the groups are stored as whole words. Every
/// probe position in every AB depends on these bytes being exactly
/// `x.to_string()`.
#[inline(always)]
pub fn decimal_key_bytes_swar(x: u64) -> ([u8; 20], usize) {
    let mut buf = [0u8; 20];
    // The leading group, 1–8 digits, then `rest` full groups.
    let (lead, rest) = if x < GROUP {
        (x, 0)
    } else if x < GROUP * GROUP {
        (x / GROUP, 1)
    } else {
        (x / (GROUP * GROUP), 2)
    };
    let digits = eight_digits(lead as u32);
    // The most significant digit is in the lowest byte: leading zeros
    // are trailing zero bytes (all eight of them for x = 0, which keeps
    // one).
    let zeros = (digits.trailing_zeros() as usize / 8).min(7);
    let len = 8 - zeros;
    let text = (digits >> (8 * zeros)) + (ASCII >> (8 * zeros));
    buf[..8].copy_from_slice(&text.to_le_bytes());
    if rest == 2 {
        let mid = eight_digits((x / GROUP % GROUP) as u32) + ASCII;
        buf[len..len + 8].copy_from_slice(&mid.to_le_bytes());
    }
    if rest >= 1 {
        let at = len + 8 * (rest - 1);
        let low = eight_digits((x % GROUP) as u32) + ASCII;
        buf[at..at + 8].copy_from_slice(&low.to_le_bytes());
    }
    (buf, len + 8 * rest)
}

/// The decimal text of every `v < 10⁴` as exactly four digits,
/// leading zeros kept: for any `x ≥ 10⁴`, the last four characters of
/// the decimal string of `x` are `FOUR_DIGITS[x mod 10⁴]` (what precedes
/// them is the string of `x / 10⁴`). Built at compile time, 40 KB.
pub(crate) static FOUR_DIGITS: [[u8; 4]; 10_000] = {
    let mut table = [[0; 4]; 10_000];
    let mut v = 0;
    while v < 10_000 {
        let [.., a, b, c, d] = (eight_digits(v as u32) + ASCII).to_le_bytes();
        table[v] = [a, b, c, d];
        v += 1;
    }
    table
};

/// The eight decimal digits of `v < 10⁸`, one per byte, most
/// significant in the lowest byte (so the little-endian bytes read in
/// print order), leading zeros included. Three rounds of
/// divide-by-a-constant on packed lanes — two 4-digit halves, four
/// 2-digit pairs, eight digits — each a multiply and a shift that is
/// exact over its lane's range.
#[inline(always)]
const fn eight_digits(v: u32) -> u64 {
    debug_assert!(v < 100_000_000);
    let halves = (v / 10_000) as u64 | ((v % 10_000) as u64) << 32;
    // ⌊h / 100⌋ = h · 10486 >> 20 for h < 10⁴.
    let hundreds = ((halves * 10_486) >> 20) & 0x0000_007F_0000_007F;
    let pairs = hundreds | (halves - hundreds * 100) << 16;
    // ⌊p / 10⌋ = p · 103 >> 10 for p < 100.
    let tens = ((pairs * 103) >> 10) & 0x000F_000F_000F_000F;
    tens | (pairs - tens * 10) << 8
}

/// splitmix64 finalizer — a strong integer mixer used for seeding and
/// double hashing; not part of the Partow library but standard in
/// modern Bloom-filter practice.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    type HashFn = fn(&[u8]) -> u64;
    const ALL: &[(&str, HashFn)] = &[
        ("rs", rs_hash),
        ("js", js_hash),
        ("pjw", pjw_hash),
        ("elf", elf_hash),
        ("bkdr", bkdr_hash),
        ("sdbm", sdbm_hash),
        ("djb", djb_hash),
        ("dek", dek_hash),
        ("ap", ap_hash),
        ("fnv", fnv_hash),
    ];

    #[test]
    fn deterministic() {
        for (name, f) in ALL {
            assert_eq!(f(b"hello"), f(b"hello"), "{name}");
        }
    }

    #[test]
    fn distinguishes_nearby_keys() {
        for (name, f) in ALL {
            let a = f(&1u64.to_le_bytes());
            let b = f(&2u64.to_le_bytes());
            assert_ne!(a, b, "{name} collides on adjacent keys");
        }
    }

    #[test]
    fn functions_differ_from_each_other() {
        let key = 123456789u64.to_le_bytes();
        let values: Vec<u64> = ALL.iter().map(|(_, f)| f(&key)).collect();
        for i in 0..values.len() {
            for j in i + 1..values.len() {
                assert_ne!(
                    values[i], values[j],
                    "{} and {} agree on the probe key",
                    ALL[i].0, ALL[j].0
                );
            }
        }
    }

    #[test]
    fn djb_known_value() {
        // djb2 of "a": 5381*33 + 97 = 177670.
        assert_eq!(djb_hash(b"a"), 177670);
    }

    #[test]
    fn bkdr_known_value() {
        // "ab" = (97*131 + 98) = 12805.
        assert_eq!(bkdr_hash(b"ab"), 12805);
    }

    #[test]
    fn fnv_known_value() {
        // FNV-1a 64-bit of empty input is the offset basis.
        assert_eq!(fnv_hash(b""), 0xCBF2_9CE4_8422_2325);
        // Published vector: FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn splitmix_mixes_low_entropy_keys() {
        // Sequential keys must not produce sequential outputs.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert!(a.abs_diff(b) > 1 << 32);
    }

    /// Rough avalanche check: over 4096 sequential integer keys encoded
    /// as the decimal strings the families hash, each function must
    /// fill at least half of 251 buckets. A prime count, the reduction
    /// of an AB that is not a power of two, because it reads the whole
    /// value: the shift-based functions keep the last one or two
    /// characters in the low byte — ten digits' worth of values mod 256
    /// for PJW, 80 for DEK, 100 for ELF — and lean on the width of a
    /// real AB's mask for the rest.
    #[test]
    fn sequential_keys_spread_over_buckets() {
        for (name, f) in ALL {
            let mut seen = [false; 251];
            for x in 0..4096u64 {
                let (bytes, len) = decimal_key_bytes(x);
                seen[(f(&bytes[..len]) % 251) as usize] = true;
            }
            let filled = seen.iter().filter(|&&s| s).count();
            assert!(filled >= 126, "{name} fills only {filled}/251 buckets");
        }
    }

    /// A windowed key's low digits: every entry is `v` as exactly four
    /// digits, leading zeros kept.
    #[test]
    fn four_digit_table_keeps_leading_zeros() {
        for (v, text) in FOUR_DIGITS.iter().enumerate() {
            assert_eq!(*text, *format!("{v:04}").as_bytes(), "{v}");
        }
    }

    /// Hash positions are on disk: the key bytes must stay the decimal
    /// string of `x`, at every digit count and on both sides of every
    /// carry.
    #[test]
    fn decimal_keys_are_the_decimal_string() {
        let mut xs = vec![0u64, u64::MAX];
        let mut p = 1u64;
        for _ in 0..20 {
            // p has 1..=20 digits; so do its neighbours but one.
            xs.extend([p - 1, p, p + 1, p.wrapping_mul(7) / 4, p / 3 * 2 + 5]);
            p = p.saturating_mul(10);
        }
        for len in 1..=20u32 {
            let all_nines = 10u64.checked_pow(len).map_or(u64::MAX, |p| p - 1);
            xs.push(all_nines);
        }
        let mut lens_seen = [false; 21];
        for x in xs {
            for (buf, len) in [decimal_key_bytes(x), decimal_key_bytes_swar(x)] {
                assert_eq!(&buf[..len], x.to_string().as_bytes(), "x = {x}");
                assert!(buf[len..].iter().all(|&b| b == 0), "tail of {x} not zeroed");
                lens_seen[len] = true;
            }
        }
        assert!(lens_seen[1..].iter().all(|&s| s), "{lens_seen:?}");
    }
}
