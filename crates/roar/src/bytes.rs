//! Byte serialization for [`RoaringBitmap`]: one body codec and the
//! versioned, checksummed stream around it.
//!
//! The body (all little-endian) is self-delimiting:
//!
//! ```text
//! chunks  u32                        4 bytes
//! per chunk, ascending by key:
//!   key   u16
//!   kind  u8    0 = array, 1 = bitmap, 2 = run
//!   count u32   elements (array), set bits (bitmap), runs (run)
//!   payload     array: count × u16 ascending
//!               bitmap: 1024 × u64 verbatim
//!               run:    count × (start u16, end u16), ascending,
//!                       disjoint, non-adjacent
//! ```
//!
//! [`RoaringBitmap::write_body`] / [`RoaringBitmap::read_body`] are the
//! body alone, for a container that lives inside a file whose own
//! version and checksums govern it (the `ab` crate's `ABIX` exact
//! tier). The standalone stream ([`RoaringBitmap::to_bytes`] /
//! [`RoaringBitmap::from_bytes`]) prefixes the body with the magic
//! `"ROAR"`, a `u16` version (currently 1) and a CRC-32 of the body.
//!
//! The physical container forms are preserved exactly, so
//! `from_bytes(to_bytes(x)).to_bytes() == to_bytes(x)`. Decoding
//! validates the canonical chunk ordering and every container's
//! invariants before any container is materialized; the stream also
//! refuses bytes past the end of its body.

use crate::container::Container;
use crate::RoaringBitmap;

/// Current serialization format version.
pub const VERSION: u16 = 1;
/// Oldest version [`RoaringBitmap::from_bytes`] still decodes.
pub const MIN_VERSION: u16 = 1;

const MAGIC: &[u8; 4] = b"ROAR";
/// Offset where the body, which the CRC covers, starts.
const CRC_START: usize = 10;
const WORDS: usize = 1024;

/// Decode failures for the `ROAR` byte format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoarError {
    /// The buffer does not start with `ROAR`.
    BadMagic,
    /// The format version is newer than this build understands (or
    /// predates [`MIN_VERSION`]).
    UnsupportedVersion(
        /// The version found in the header.
        u16,
    ),
    /// The payload does not match its stored checksum.
    ChecksumMismatch {
        /// CRC stored in the header.
        expected: u32,
        /// CRC computed over the payload.
        actual: u32,
    },
    /// The buffer ended before the declared content.
    Truncated,
    /// A structural invariant failed (unordered chunks, a bad
    /// container kind, an unsorted array, overlapping runs, …).
    Malformed(
        /// Which invariant failed.
        &'static str,
    ),
}

impl std::fmt::Display for RoarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoarError::BadMagic => write!(f, "not a ROAR byte stream"),
            RoarError::UnsupportedVersion(v) => write!(f, "unsupported ROAR version {v}"),
            RoarError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "ROAR checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )
            }
            RoarError::Truncated => write!(f, "ROAR byte stream truncated"),
            RoarError::Malformed(what) => write!(f, "malformed ROAR stream: {what}"),
        }
    }
}

impl std::error::Error for RoarError {}

/// Slice-by-8 lookup tables for [`crc32`], 8 KiB, built at compile
/// time: `CRC_TABLES[0]` is the classic byte-at-a-time table, and
/// `CRC_TABLES[j][b]` is the CRC of byte `b` followed by `j` zero
/// bytes — so eight table reads fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), slice-by-8:
/// eight bytes per step through eight compile-time tables, then a
/// byte-at-a-time tail. The workspace's only implementation: the
/// `store` pages, the `ROAR` stream and the `net` frames all checksum
/// with this function (re-exported as `ab::crc32`), and all of them
/// are on disk or on the wire — the value for a given input must never
/// change.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

impl RoaringBitmap {
    /// Serializes to the versioned, checksummed `ROAR` stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CRC_START + 4 + self.size_bytes());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // crc placeholder
        self.write_body(&mut out);
        let crc = crc32(&out[CRC_START..]);
        out[6..10].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes [`Self::to_bytes`] output, verifying the checksum and
    /// every structural invariant.
    pub fn from_bytes(data: &[u8]) -> Result<Self, RoarError> {
        if data.len() < CRC_START + 4 {
            return Err(
                if data.starts_with(MAGIC) || MAGIC.starts_with(&data[..data.len().min(4)]) {
                    RoarError::Truncated
                } else {
                    RoarError::BadMagic
                },
            );
        }
        if &data[..4] != MAGIC {
            return Err(RoarError::BadMagic);
        }
        let version = u16::from_le_bytes(data[4..6].try_into().expect("2 bytes"));
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(RoarError::UnsupportedVersion(version));
        }
        let expected = u32::from_le_bytes(data[6..10].try_into().expect("4 bytes"));
        let actual = crc32(&data[CRC_START..]);
        if expected != actual {
            return Err(RoarError::ChecksumMismatch { expected, actual });
        }
        let (rb, used) = Self::read_body(&data[CRC_START..])?;
        if CRC_START + used != data.len() {
            return Err(RoarError::Malformed("bytes past the end of the body"));
        }
        Ok(rb)
    }

    /// Appends the body (no magic, version or checksum) to `out`.
    pub fn write_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for (key, c) in &self.chunks {
            out.extend_from_slice(&key.to_le_bytes());
            match c {
                Container::Array(vals) => {
                    out.push(0);
                    out.extend_from_slice(&(vals.len() as u32).to_le_bytes());
                    for v in vals {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
                Container::Bitmap(words) => {
                    out.push(1);
                    out.extend_from_slice(&(c.len() as u32).to_le_bytes());
                    for w in words.iter() {
                        out.extend_from_slice(&w.to_le_bytes());
                    }
                }
                Container::Run(runs) => {
                    out.push(2);
                    out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
                    for (s, e) in runs {
                        out.extend_from_slice(&s.to_le_bytes());
                        out.extend_from_slice(&e.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Decodes one body written by [`Self::write_body`] from the front
    /// of `data`, validating every structural invariant. Returns the
    /// bitmap and the number of bytes the body took.
    pub fn read_body(data: &[u8]) -> Result<(Self, usize), RoarError> {
        let mut r = Reader { data, pos: 0 };
        let num_chunks = r.u32()? as usize;
        let mut chunks: Vec<(u16, Container)> = Vec::with_capacity(num_chunks.min(1 << 16));
        for _ in 0..num_chunks {
            let key = r.u16()?;
            if let Some((prev, _)) = chunks.last() {
                if *prev >= key {
                    return Err(RoarError::Malformed("chunk keys not strictly ascending"));
                }
            }
            let kind = r.u8()?;
            let count = r.u32()? as usize;
            let container = match kind {
                0 => {
                    let mut vals = Vec::with_capacity(count.min(1 << 16));
                    let mut prev: Option<u16> = None;
                    for _ in 0..count {
                        let v = r.u16()?;
                        if prev.is_some_and(|p| p >= v) {
                            return Err(RoarError::Malformed("array not strictly ascending"));
                        }
                        prev = Some(v);
                        vals.push(v);
                    }
                    Container::Array(vals)
                }
                1 => {
                    let mut words = vec![0u64; WORDS].into_boxed_slice();
                    for w in words.iter_mut() {
                        *w = r.u64()?;
                    }
                    let c = Container::Bitmap(words);
                    if c.len() != count {
                        return Err(RoarError::Malformed("bitmap cardinality mismatch"));
                    }
                    c
                }
                2 => {
                    let mut runs = Vec::with_capacity(count.min(1 << 15));
                    let mut prev_end: Option<u16> = None;
                    for _ in 0..count {
                        let s = r.u16()?;
                        let e = r.u16()?;
                        if s > e {
                            return Err(RoarError::Malformed("run start past end"));
                        }
                        // Adjacent runs must be merged, so require a gap.
                        if prev_end.is_some_and(|p| p == u16::MAX || p + 1 >= s) {
                            return Err(RoarError::Malformed("runs overlap or touch"));
                        }
                        prev_end = Some(e);
                        runs.push((s, e));
                    }
                    Container::Run(runs)
                }
                _ => return Err(RoarError::Malformed("unknown container kind")),
            };
            if container.is_empty() {
                return Err(RoarError::Malformed("empty container"));
            }
            chunks.push((key, container));
        }
        Ok((RoaringBitmap { chunks }, r.pos))
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], RoarError> {
        if self.pos + n > self.data.len() {
            return Err(RoarError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, RoarError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, RoarError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, RoarError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, RoarError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RoaringBitmap {
        let mut rb = RoaringBitmap::new();
        rb.insert_range(1000, 70_000); // bitmap + partial chunk
        for v in (0..500_000u32).step_by(977) {
            rb.insert(v);
        }
        rb
    }

    #[test]
    fn roundtrip_preserves_set_and_forms() {
        for optimized in [false, true] {
            let mut rb = sample();
            if optimized {
                rb.optimize();
            }
            let bytes = rb.to_bytes();
            let back = RoaringBitmap::from_bytes(&bytes).expect("decodes");
            assert_eq!(back, rb, "optimized={optimized}");
            assert_eq!(back.to_bytes(), bytes, "re-serialization byte identity");
            // The stream is the body behind a 10-byte header, and the
            // body alone decodes to the same bitmap, reporting its
            // length even with bytes after it.
            let mut body = Vec::new();
            rb.write_body(&mut body);
            assert_eq!(&bytes[CRC_START..], &body[..]);
            let used = body.len();
            body.extend_from_slice(b"next record");
            assert_eq!(RoaringBitmap::read_body(&body), Ok((rb, used)));
        }
    }

    #[test]
    fn empty_bitmap_roundtrips() {
        let rb = RoaringBitmap::new();
        let bytes = rb.to_bytes();
        assert_eq!(bytes.len(), 14);
        assert_eq!(RoaringBitmap::from_bytes(&bytes).unwrap(), rb);
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(RoaringBitmap::from_bytes(&bytes), Err(RoarError::BadMagic));
        let mut bytes = sample().to_bytes();
        bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert_eq!(
            RoaringBitmap::from_bytes(&bytes),
            Err(RoarError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn corruption_is_caught_by_the_checksum() {
        let bytes = sample().to_bytes();
        for pos in (CRC_START..bytes.len()).step_by(61) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            assert!(
                matches!(
                    RoaringBitmap::from_bytes(&bad),
                    Err(RoarError::ChecksumMismatch { .. })
                ),
                "flip at {pos} undetected"
            );
        }
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = sample().to_bytes();
        for n in 0..bytes.len().min(64) {
            assert!(RoaringBitmap::from_bytes(&bytes[..n]).is_err());
        }
        for n in (0..bytes.len()).step_by(997) {
            assert!(RoaringBitmap::from_bytes(&bytes[..n]).is_err());
        }
    }

    #[test]
    fn structural_invariants_are_validated() {
        // Hand-build a stream with out-of-order array values and a
        // valid checksum: the structural check must still reject it.
        let mut body = Vec::new();
        body.extend_from_slice(&1u32.to_le_bytes()); // one chunk
        body.extend_from_slice(&0u16.to_le_bytes()); // key 0
        body.push(0); // array
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&5u16.to_le_bytes());
        body.extend_from_slice(&3u16.to_le_bytes()); // descends!
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"ROAR");
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        assert_eq!(
            RoaringBitmap::from_bytes(&bytes),
            Err(RoarError::Malformed("array not strictly ascending"))
        );
        // A stream is exactly one body: bytes after it are refused,
        // checksum or not.
        let mut long = sample().to_bytes();
        long.push(0);
        let crc = crc32(&long[CRC_START..]);
        long[6..10].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            RoaringBitmap::from_bytes(&long),
            Err(RoarError::Malformed("bytes past the end of the body"))
        );
    }

    #[test]
    fn crc_is_stable() {
        // Known-answer check so the polynomial can't silently drift.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The textbook bit-at-a-time CRC-32 — no table at all, so it
    /// shares nothing with the implementation it checks.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Checksums are on disk (`ABPG`, `ROAR`) and on
    /// the wire: the sliced loop must agree with the reference for
    /// every tail length and every alignment of the 8-byte steps.
    #[test]
    fn sliced_crc_matches_the_bitwise_reference() {
        let pool: Vec<u8> = (0..(1usize << 20) + 8)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes()[7])
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &pool[offset..offset + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {offset} len {len}");
            }
        }
        let big = &pool[3..3 + (1 << 20)];
        assert_eq!(crc32(big), crc32_bitwise(big));
        // A committed value (zlib's, for the same bytes) too, so the
        // reference and the implementation cannot drift together.
        assert_eq!(crc32(big), 0xCCDD_5283);
    }
}
