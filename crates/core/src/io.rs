//! Persistent binary format for AB indexes.
//!
//! A downstream user builds the AB once over a (read-only, per §4.1)
//! data set and ships it to query nodes — the paper's privacy scenario
//! (§1, contribution 6) even queries the AB *without* database access.
//! The format is a versioned little-endian layout; the `crc32` field
//! covers everything after it, so bit-rot is caught at decode time
//! instead of surfacing as silently wrong answers:
//!
//! ```text
//! magic "ABIX" | version u16 | crc32 u32 | level u8 | num_rows u64 |
//! attr count u32 | { name_len u16, name, cardinality u32, offset u64 }* |
//! ab count u32  | { n_bits u64, k u32, inserted u64, mapper, family,
//!                   word count u64, words u64* }* |
//! hier flag u8  | [ level count u32,
//!                   { row_span u64, bin_group u32, AB record }* ] |
//! hybrid flag u8 | [ min_density f64, verify_cost f64,
//!                    total_bins u32, bin count u32,
//!                    { attribute u32, bin u32,
//!                      exact_len u64, ROAR bytes }* ]
//! ```
//!
//! The trailing `hier` section is the hierarchical-pruning pyramid
//! (flag 1 followed by the per-level geometry + AB records; 0 means no
//! pyramid — callers may rebuild it from the base AB, the probe-sweep
//! construction is deterministic). The `hybrid` section is the exact
//! tier (`crate::hybrid`): per backed (attribute, bin), its exact
//! Roaring container as a length-prefixed self-checking `ROAR` stream
//! (see `roar::bytes` — each carries its own magic, version and
//! CRC-32, so a damaged container is pinpointed by its own checksum).
//! Bins must appear in strictly increasing (attribute, bin) order;
//! callers with source data may rebuild a missing tier
//! (`AbIndex::ensure_hybrid` is deterministic).
//!
//! A row-range-sharded index (see `ab::shard_ranges` and the `svc`
//! crate) persists as an `ABSH` envelope of independent `ABIX`
//! segments, each tagged with its starting global row and its own
//! CRC-32, so one rotted shard is detected — and repairable — without
//! touching the others:
//!
//! ```text
//! magic "ABSH" | version u16 | shard count u32 |
//! { start_row u64, byte_len u64, crc32 u32, ABIX bytes }*
//! ```
//!
//! Segments are length-prefixed so a reader can skip to any shard
//! without decoding the others, and must appear in strictly increasing
//! `start_row` order starting at row 0.
//!
//! Readers accept exactly the version the writer emits (`ABIX` 5,
//! `ABSH` 2); anything else is [`IoError::UnsupportedVersion`] before a
//! single payload byte is parsed.
//!
//! Two readers serve two robustness postures:
//!
//! * [`from_bytes`] / [`shards_from_bytes`] — strict: the first
//!   corrupt byte fails the whole decode with a typed [`IoError`];
//! * [`shards_from_bytes_checked`] — shard-granular: envelope-level
//!   damage is fatal, but each segment decodes independently so a
//!   caller (e.g. `svc::ShardedIndex::from_bytes_with_repair`) can
//!   rebuild only the corrupted shards from source data.

use crate::analysis::Level;
use crate::encoding::ApproximateBitmap;
use crate::hier::{HierAb, HierLevelSpec};
use crate::hybrid::{HybridAb, HybridConfig};
use crate::level::{AbIndex, AttributeMeta};
use bitmap::BitVec;
use hashkit::{CellMapper, HashFamily, HashKind};

/// Errors arising while decoding a serialized AB index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoError {
    /// Input does not start with the `ABIX` magic.
    BadMagic,
    /// Format version not understood by this build.
    UnsupportedVersion(u16),
    /// Input ended before a field completed.
    Truncated,
    /// A tag byte had no defined meaning.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadString,
    /// `ABSH` shard segments were empty, unordered, or overlapping.
    BadShardLayout,
    /// The stored CRC-32 does not match the payload — the bytes were
    /// corrupted after serialization (bit-rot, torn write, tampering).
    ChecksumMismatch {
        /// Checksum recorded at write time.
        stored: u32,
        /// Checksum recomputed over the received payload.
        computed: u32,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::BadMagic => write!(f, "not an AB index (bad magic)"),
            IoError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            IoError::Truncated => write!(f, "truncated input"),
            IoError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            IoError::BadString => write!(f, "invalid UTF-8 in name"),
            IoError::BadShardLayout => write!(f, "shard segments empty or out of order"),
            IoError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for IoError {}

const MAGIC: &[u8; 4] = b"ABIX";
const VERSION: u16 = 5;

pub use roar::bytes::crc32;

/// Verifies a stored checksum, counting failures in
/// `io.checksum_failures`.
fn check_crc(stored: u32, payload: &[u8]) -> Result<(), IoError> {
    let computed = crc32(payload);
    if stored != computed {
        obs::counter!("io.checksum_failures").inc();
        return Err(IoError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// Serializes an [`AbIndex`] to bytes (format version 5: the u32 after
/// the version field is a CRC-32 of everything that follows it,
/// including the trailing hier and hybrid sections).
pub fn to_bytes(index: &AbIndex) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len_bound(index));
    out.extend_from_slice(MAGIC);
    put_u16(&mut out, VERSION);
    put_u32(&mut out, 0); // checksum, patched below
    out.push(level_tag(index.level()));
    put_u64(&mut out, index.num_rows() as u64);
    put_u32(&mut out, index.attributes().len() as u32);
    for a in index.attributes() {
        put_u16(&mut out, a.name.len() as u16);
        out.extend_from_slice(a.name.as_bytes());
        put_u32(&mut out, a.cardinality);
        put_u64(&mut out, a.offset as u64);
    }
    put_u32(&mut out, index.abs().len() as u32);
    for ab in index.abs() {
        write_ab(&mut out, ab);
    }
    match index.hier() {
        None => out.push(0),
        Some(hier) => {
            out.push(1);
            put_u32(&mut out, hier.levels().len() as u32);
            for level in hier.levels() {
                put_u64(&mut out, level.row_span() as u64);
                put_u32(&mut out, level.bin_group());
                write_ab(&mut out, level.ab());
            }
        }
    }
    match index.hybrid() {
        None => out.push(0),
        Some(hy) => {
            out.push(1);
            put_u64(&mut out, hy.config().min_density.to_bits());
            put_u64(&mut out, hy.config().verify_cost.to_bits());
            put_u32(&mut out, hy.total_bins());
            put_u32(&mut out, hy.bins().len() as u32);
            for hb in hy.bins() {
                put_u32(&mut out, hb.attribute() as u32);
                put_u32(&mut out, hb.bin());
                let blob = hb.exact().to_bytes();
                put_u64(&mut out, blob.len() as u64);
                out.extend_from_slice(&blob);
            }
        }
    }
    let crc = crc32(&out[10..]);
    out[6..10].copy_from_slice(&crc.to_le_bytes());
    out
}

/// An upper bound on `to_bytes(index).len()`, a few bytes per record
/// above it, covering every section: [`AbIndex::size_bytes`] counts the
/// base ABs only, and a buffer reserved from that regrows through the
/// whole of the exact tier's containers.
fn encoded_len_bound(index: &AbIndex) -> usize {
    // Fixed fields of an AB record, with the longest mapper and family
    // encodings (the roster's one byte per function comes on top).
    let ab_record = |ab: &ApproximateBitmap| {
        let roster = match ab.family() {
            HashFamily::Independent(kinds) => kinds.len(),
            _ => 0,
        };
        48 + roster + ab.size_bytes()
    };
    let attributes: usize = index.attributes().iter().map(|a| 14 + a.name.len()).sum();
    let abs: usize = index.abs().iter().map(ab_record).sum();
    let hier = index.hier().map_or(0, |hier| {
        let levels = hier.levels().iter();
        4 + levels.map(|l| 12 + ab_record(l.ab())).sum::<usize>()
    });
    let hybrid = index.hybrid().map_or(0, |hy| {
        // A `ROAR` stream adds a 14-byte header and 5 bytes per chunk
        // to `size_bytes`; a container has at most one chunk per 2¹⁶
        // rows.
        let container = 8 + 14 + 5 * hy.num_rows().div_ceil(1 << 16);
        24 + hy.bins().len() * (8 + container) + hy.size_bytes()
    });
    32 + attributes + abs + hier + hybrid
}

/// Writes one AB record (the layout shared by base and hier-level ABs).
fn write_ab(out: &mut Vec<u8>, ab: &ApproximateBitmap) {
    put_u64(out, ab.n_bits());
    put_u32(out, ab.k() as u32);
    put_u64(out, ab.inserted());
    write_mapper(out, ab.mapper());
    write_family(out, ab.family());
    let words = ab.bits().words();
    put_u64(out, words.len() as u64);
    for &w in words {
        put_u64(out, w);
    }
}

/// Reads one AB record written by [`write_ab`].
fn read_ab(r: &mut Reader<'_>) -> Result<ApproximateBitmap, IoError> {
    let n_bits = r.u64()?;
    let k = r.u32()? as usize;
    if k == 0 {
        return Err(IoError::BadTag(0));
    }
    let inserted = r.u64()?;
    let mapper = read_mapper(r)?;
    let family = read_family(r)?;
    let word_count = r.u64()? as usize;
    if word_count > r.remaining() / 8 || word_count != (n_bits as usize).div_ceil(64) {
        return Err(IoError::Truncated);
    }
    let mut words = Vec::with_capacity(word_count);
    for _ in 0..word_count {
        words.push(r.u64()?);
    }
    let bits = BitVec::from_words(words, n_bits as usize);
    if bits.is_empty() {
        return Err(IoError::Truncated);
    }
    Ok(ApproximateBitmap::from_parts(
        bits, k, family, mapper, inserted,
    ))
}

/// Deserializes an [`AbIndex`] from bytes produced by [`to_bytes`].
/// The input is checksum-verified before any field is trusted.
pub fn from_bytes(data: &[u8]) -> Result<AbIndex, IoError> {
    let mut r = Reader { data, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(IoError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(IoError::UnsupportedVersion(version));
    }
    let stored = r.u32()?;
    check_crc(stored, &data[r.pos..])?;
    parse_index_payload(&mut r)
}

/// Parses the post-checksum body.
fn parse_index_payload(r: &mut Reader<'_>) -> Result<AbIndex, IoError> {
    let level = parse_level(r.u8()?)?;
    let num_rows = r.u64()? as usize;
    let attr_count = r.u32()? as usize;
    // Each attribute record is at least 14 bytes; a count beyond the
    // remaining input is corrupt. Checking before the reserve keeps a
    // hostile header from forcing a huge allocation.
    if attr_count > r.remaining() / 14 {
        return Err(IoError::Truncated);
    }
    let mut attributes = Vec::with_capacity(attr_count);
    for _ in 0..attr_count {
        let name_len = r.u16()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| IoError::BadString)?
            .to_owned();
        let cardinality = r.u32()?;
        let offset = r.u64()? as usize;
        attributes.push(AttributeMeta {
            name,
            cardinality,
            offset,
        });
    }
    let ab_count = r.u32()? as usize;
    // Each AB record is at least 33 bytes.
    if ab_count > r.remaining() / 33 {
        return Err(IoError::Truncated);
    }
    let mut abs = Vec::with_capacity(ab_count);
    for _ in 0..ab_count {
        abs.push(read_ab(r)?);
    }
    let hier = match r.u8()? {
        0 => None,
        1 => {
            let level_count = r.u32()? as usize;
            // Each hier level record is at least 45 bytes
            // (geometry + minimal AB record).
            if level_count > r.remaining() / 45 {
                return Err(IoError::Truncated);
            }
            let mut parts = Vec::with_capacity(level_count);
            for _ in 0..level_count {
                let row_span = r.u64()? as usize;
                let bin_group = r.u32()?;
                if row_span == 0 || bin_group == 0 {
                    return Err(IoError::BadTag(0));
                }
                let ab = read_ab(r)?;
                parts.push((
                    HierLevelSpec {
                        row_span,
                        bin_group,
                    },
                    ab,
                ));
            }
            Some(HierAb::from_serialized(num_rows, &attributes, parts))
        }
        t => return Err(IoError::BadTag(t)),
    };
    let hybrid = match r.u8()? {
        0 => None,
        1 => {
            let min_density = f64::from_bits(r.u64()?);
            let verify_cost = f64::from_bits(r.u64()?);
            if !(0.0..=1.0).contains(&min_density) || !verify_cost.is_finite() || verify_cost < 0.0
            {
                return Err(IoError::BadTag(1));
            }
            let total_bins = r.u32()?;
            let count = r.u32()? as usize;
            // Each backed-bin record is at least 30 bytes: ids + one
            // length-prefixed minimal (empty) ROAR stream.
            if count > r.remaining() / 30 || count > total_bins as usize {
                return Err(IoError::Truncated);
            }
            let mut parts = Vec::with_capacity(count);
            let mut prev: Option<(u32, u32)> = None;
            for _ in 0..count {
                let attribute = r.u32()?;
                let bin = r.u32()?;
                if prev.is_some_and(|p| p >= (attribute, bin)) {
                    return Err(IoError::BadShardLayout);
                }
                prev = Some((attribute, bin));
                parts.push((attribute, bin, read_roar(r)?));
            }
            Some(HybridAb::from_serialized(
                HybridConfig {
                    min_density,
                    verify_cost,
                },
                num_rows,
                total_bins,
                parts,
            ))
        }
        t => return Err(IoError::BadTag(t)),
    };
    Ok(AbIndex::from_parts(
        level, abs, attributes, num_rows, hier, hybrid,
    ))
}

/// Reads one length-prefixed, self-checking `ROAR` container stream
/// (see `roar::bytes`), mapping its typed errors onto [`IoError`].
fn read_roar(r: &mut Reader<'_>) -> Result<roar::RoaringBitmap, IoError> {
    let len = r.u64()? as usize;
    let blob = r.take(len)?;
    roar::RoaringBitmap::from_bytes(blob).map_err(|e| match e {
        roar::RoarError::ChecksumMismatch { expected, actual } => IoError::ChecksumMismatch {
            stored: expected,
            computed: actual,
        },
        roar::RoarError::Truncated => IoError::Truncated,
        roar::RoarError::BadMagic => IoError::BadMagic,
        roar::RoarError::UnsupportedVersion(_) | roar::RoarError::Malformed(_) => {
            IoError::BadTag(0)
        }
    })
}

const SHARD_MAGIC: &[u8; 4] = b"ABSH";
const SHARD_VERSION: u16 = 2;

/// Serializes a row-range-sharded index as an `ABSH` envelope.
/// `segments` pairs each shard's starting global row with its index;
/// they must be non-empty and in strictly increasing row order,
/// starting at row 0, with each shard starting exactly where the
/// previous one ended.
///
/// # Panics
///
/// Panics if the segment layout is invalid (this is a programming
/// error on the writer side; readers get [`IoError::BadShardLayout`]).
pub fn shards_to_bytes(segments: &[(u64, &AbIndex)]) -> Vec<u8> {
    assert!(!segments.is_empty(), "no shard segments");
    let mut expected_start = 0u64;
    for (start, index) in segments {
        assert_eq!(
            *start, expected_start,
            "shard at row {start} does not start where the previous ended"
        );
        expected_start = start + index.num_rows() as u64;
    }
    let total: usize = segments.iter().map(|(_, i)| encoded_len_bound(i)).sum();
    let mut out = Vec::with_capacity(32 + total + 20 * segments.len());
    out.extend_from_slice(SHARD_MAGIC);
    put_u16(&mut out, SHARD_VERSION);
    put_u32(&mut out, segments.len() as u32);
    for (start, index) in segments {
        let blob = to_bytes(index);
        put_u64(&mut out, *start);
        put_u64(&mut out, blob.len() as u64);
        put_u32(&mut out, crc32(&blob));
        out.extend_from_slice(&blob);
    }
    out
}

/// Deserializes an `ABSH` envelope produced by [`shards_to_bytes`]
/// back into `(start_row, index)` segments in row order. Strict: the
/// first corrupt segment fails the whole decode — use
/// [`shards_from_bytes_checked`] when partial recovery is wanted.
pub fn shards_from_bytes(data: &[u8]) -> Result<Vec<(u64, AbIndex)>, IoError> {
    let mut segments = Vec::new();
    let mut expected_start = 0u64;
    for (start, res) in shards_from_bytes_checked(data)? {
        if start != expected_start {
            return Err(IoError::BadShardLayout);
        }
        let index = res?;
        if index.num_rows() == 0 {
            return Err(IoError::BadShardLayout);
        }
        expected_start = start + index.num_rows() as u64;
        segments.push((start, index));
    }
    Ok(segments)
}

/// Per-segment decode results from [`shards_from_bytes_checked`]: each
/// entry is `(start_row, Ok(index) | Err(segment-local damage))`.
pub type CheckedSegments = Vec<(u64, Result<AbIndex, IoError>)>;

/// Shard-granular `ABSH` decoding: damage to the envelope itself
/// (magic, version, counts, truncation, unordered starts) is fatal,
/// but each segment's checksum verification and decode happen
/// independently, so a flipped byte inside shard *i* yields
/// `Err(ChecksumMismatch)` in slot *i* while every other shard decodes
/// normally. This is the substrate for shard-granular repair.
pub fn shards_from_bytes_checked(data: &[u8]) -> Result<CheckedSegments, IoError> {
    walk_envelope(data, |seg| {
        let res = check_crc(seg.stored_crc, seg.blob).and_then(|()| from_bytes(seg.blob));
        (seg.start_row, res)
    })
}

/// One `ABSH` segment as [`walk_envelope`] yields it. `blob` borrows
/// the input; nothing in it has been read or checksummed yet.
struct RawSegment<'a> {
    shard: usize,
    start_row: u64,
    /// The envelope's CRC-32 of `blob`.
    stored_crc: u32,
    /// Byte offset of the segment's 20-byte header from the start of
    /// the envelope; `blob` follows it directly.
    offset: usize,
    blob: &'a [u8],
}

/// Bytes of one segment's fixed header: start row, byte length, CRC-32.
const SEGMENT_HEADER_LEN: usize = 20;

/// The one `ABSH` parser: validates magic, version and shard count,
/// then hands `each` every segment in storage order after checking
/// that starts begin at row 0 and strictly increase and that the blob
/// lies inside the input. Every envelope-level error of
/// [`shards_from_bytes_checked`] and [`segment_extents`] comes from
/// here, so the two cannot disagree about whether an envelope is
/// well-formed. Only headers are read — O(shards).
fn walk_envelope<'a, T>(
    data: &'a [u8],
    mut each: impl FnMut(RawSegment<'a>) -> T,
) -> Result<Vec<T>, IoError> {
    let mut r = Reader { data, pos: 0 };
    if r.take(4)? != SHARD_MAGIC {
        return Err(IoError::BadMagic);
    }
    let version = r.u16()?;
    if version != SHARD_VERSION {
        return Err(IoError::UnsupportedVersion(version));
    }
    let count = r.u32()? as usize;
    if count == 0 {
        return Err(IoError::BadShardLayout);
    }
    // Each segment carries a fixed header plus a non-empty blob; a
    // count beyond what could fit in the remaining input is corrupt.
    if count > r.remaining() / (SEGMENT_HEADER_LEN + 1) {
        return Err(IoError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    let mut prev_start: Option<u64> = None;
    for shard in 0..count {
        let offset = r.pos;
        let start_row = r.u64()?;
        let ordered = match prev_start {
            None => start_row == 0,
            Some(p) => start_row > p,
        };
        if !ordered {
            return Err(IoError::BadShardLayout);
        }
        prev_start = Some(start_row);
        let len = r.u64()?;
        let stored_crc = r.u32()?;
        if len > r.remaining() as u64 {
            return Err(IoError::Truncated);
        }
        out.push(each(RawSegment {
            shard,
            start_row,
            stored_crc,
            offset,
            blob: r.take(len as usize)?,
        }));
    }
    Ok(out)
}

/// Byte extent of one `ABSH` segment within the envelope — the
/// substrate for page-granular storage (the `store` crate maps damaged
/// file pages back to the shards whose bytes they cover, and a direct
/// reader can slice one shard out of a file without decoding the
/// others).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentExtent {
    /// Segment position in the envelope.
    pub shard: usize,
    /// First global row the segment covers.
    pub start_row: u64,
    /// Byte offset of the segment (including its per-segment header)
    /// from the start of the envelope.
    pub offset: usize,
    /// Byte length of the segment including its header.
    pub len: usize,
}

/// Walks an `ABSH` envelope and returns each segment's byte extent
/// without decoding (or even checksum-verifying) any segment body —
/// only the envelope header and the fixed per-segment headers are
/// read, so this stays O(shards) on a multi-gigabyte file.
pub fn segment_extents(data: &[u8]) -> Result<Vec<SegmentExtent>, IoError> {
    walk_envelope(data, |seg| SegmentExtent {
        shard: seg.shard,
        start_row: seg.start_row,
        offset: seg.offset,
        len: SEGMENT_HEADER_LEN + seg.blob.len(),
    })
}

fn level_tag(level: Level) -> u8 {
    match level {
        Level::PerDataset => 0,
        Level::PerAttribute => 1,
        Level::PerColumn => 2,
    }
}

fn parse_level(tag: u8) -> Result<Level, IoError> {
    match tag {
        0 => Ok(Level::PerDataset),
        1 => Ok(Level::PerAttribute),
        2 => Ok(Level::PerColumn),
        t => Err(IoError::BadTag(t)),
    }
}

fn kind_tag(kind: HashKind) -> u8 {
    match kind {
        HashKind::Rs => 0,
        HashKind::Js => 1,
        HashKind::Pjw => 2,
        HashKind::Elf => 3,
        HashKind::Bkdr => 4,
        HashKind::Sdbm => 5,
        HashKind::Djb => 6,
        HashKind::Dek => 7,
        HashKind::Ap => 8,
        HashKind::Fnv => 9,
        HashKind::MultiplyShift => 10,
        HashKind::Circular => 11,
    }
}

fn parse_kind(tag: u8) -> Result<HashKind, IoError> {
    Ok(match tag {
        0 => HashKind::Rs,
        1 => HashKind::Js,
        2 => HashKind::Pjw,
        3 => HashKind::Elf,
        4 => HashKind::Bkdr,
        5 => HashKind::Sdbm,
        6 => HashKind::Djb,
        7 => HashKind::Dek,
        8 => HashKind::Ap,
        9 => HashKind::Fnv,
        10 => HashKind::MultiplyShift,
        11 => HashKind::Circular,
        t => return Err(IoError::BadTag(t)),
    })
}

fn write_mapper(out: &mut Vec<u8>, mapper: CellMapper) {
    match mapper {
        CellMapper::Shifted { shift } => {
            out.push(0);
            put_u32(out, shift);
        }
        CellMapper::RowOnly => {
            out.push(1);
            put_u32(out, 0);
        }
    }
}

fn read_mapper(r: &mut Reader<'_>) -> Result<CellMapper, IoError> {
    let tag = r.u8()?;
    let shift = r.u32()?;
    match tag {
        // A shift of 64+ would overflow the `row << shift` cell
        // mapping on first use; reject it at decode time instead.
        0 if shift < 64 => Ok(CellMapper::Shifted { shift }),
        1 => Ok(CellMapper::RowOnly),
        t => Err(IoError::BadTag(t)),
    }
}

fn write_family(out: &mut Vec<u8>, family: &HashFamily) {
    match family {
        HashFamily::Independent(kinds) => {
            out.push(0);
            put_u16(out, kinds.len() as u16);
            for &k in kinds {
                out.push(kind_tag(k));
            }
        }
        HashFamily::Sha1Split => out.push(1),
        HashFamily::DoubleHashing => out.push(2),
        HashFamily::ColumnGroup { num_columns } => {
            out.push(3);
            put_u64(out, *num_columns);
        }
    }
}

fn read_family(r: &mut Reader<'_>) -> Result<HashFamily, IoError> {
    match r.u8()? {
        0 => {
            let count = r.u16()? as usize;
            if count == 0 {
                return Err(IoError::BadTag(0));
            }
            let mut kinds = Vec::with_capacity(count);
            for _ in 0..count {
                kinds.push(parse_kind(r.u8()?)?);
            }
            Ok(HashFamily::Independent(kinds))
        }
        1 => Ok(HashFamily::Sha1Split),
        2 => Ok(HashFamily::DoubleHashing),
        3 => Ok(HashFamily::ColumnGroup {
            num_columns: r.u64()?,
        }),
        t => Err(IoError::BadTag(t)),
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], IoError> {
        if self.pos + n > self.data.len() {
            return Err(IoError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, IoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, IoError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, IoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, IoError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbConfig, Cell};
    use bitmap::{BinnedColumn, BinnedTable};

    fn sample_index(level: Level) -> AbIndex {
        let t = BinnedTable::new(vec![
            BinnedColumn::new("alpha", vec![0, 1, 2, 0, 1, 1, 0, 2], 3),
            BinnedColumn::new("beta", vec![2, 0, 1, 1, 0, 1, 0, 2], 3),
        ]);
        AbIndex::build(&t, &AbConfig::new(level).with_alpha(8))
    }

    #[test]
    fn roundtrip_all_levels() {
        for level in [Level::PerDataset, Level::PerAttribute, Level::PerColumn] {
            let idx = sample_index(level);
            let bytes = to_bytes(&idx);
            let back = from_bytes(&bytes).unwrap();
            assert_eq!(back.level(), idx.level());
            assert_eq!(back.num_rows(), idx.num_rows());
            assert_eq!(back.attributes(), idx.attributes());
            assert_eq!(back.abs().len(), idx.abs().len());
            // Query equivalence on every cell.
            for row in 0..8 {
                for attr in 0..2 {
                    for bin in 0..3 {
                        assert_eq!(
                            back.retrieve_cells(&[Cell::new(row, attr, bin)]),
                            idx.retrieve_cells(&[Cell::new(row, attr, bin)]),
                            "{level:?} cell ({row},{attr},{bin})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn roundtrip_preserves_families() {
        use hashkit::HashFamily;
        let t = BinnedTable::new(vec![BinnedColumn::new("x", vec![0, 1, 0, 1], 2)]);
        for family in [
            HashFamily::Sha1Split,
            HashFamily::DoubleHashing,
            HashFamily::ColumnGroup { num_columns: 0 },
            HashFamily::default_independent(),
        ] {
            let cfg = AbConfig::new(Level::PerAttribute)
                .with_alpha(8)
                .with_family(family.clone());
            let idx = AbIndex::build(&t, &cfg);
            let back = from_bytes(&to_bytes(&idx)).unwrap();
            assert_eq!(back.abs()[0].family(), idx.abs()[0].family());
        }
    }

    /// One seeded index per level, serialized: the CRC of the bytes
    /// pins the hash positions the build set (k = 12 against the
    /// 10-function roster, so the re-seeded probes too), the `ABIX`
    /// layout, and the checksum inside it. Files written by earlier
    /// builds must keep loading and keep answering, so these values
    /// may only change together with a format version.
    #[test]
    fn serialized_index_bytes_are_pinned() {
        let n = 300usize;
        let column = |name: &str, salt: u64, card: u32| {
            BinnedColumn::new(
                name,
                (0..n as u64)
                    .map(|i| (hashkit::splitmix64(i ^ salt) % card as u64) as u32)
                    .collect(),
                card,
            )
        };
        let t = BinnedTable::new(vec![column("a", 0x51, 7), column("b", 0xB0B, 80)]);
        let got: Vec<u32> = [Level::PerDataset, Level::PerAttribute, Level::PerColumn]
            .into_iter()
            .map(|level| {
                let cfg = AbConfig::new(level).with_alpha(16).with_k(12);
                crc32(&to_bytes(&AbIndex::build(&t, &cfg)))
            })
            .collect();
        assert_eq!(
            got,
            [0xDB6F_5210, 0xC27B_EC44, 0xC908_1B18],
            "got {got:#010x?}"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(from_bytes(b"NOPE....."), Err(IoError::BadMagic)));
    }

    #[test]
    fn roundtrip_preserves_hier_pyramid() {
        use crate::hier::{HierConfig, HierLevelSpec};
        use bitmap::{AttrRange, RectQuery};
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "v",
            (0..512u32).map(|i| i / 64).collect(),
            8,
        )]);
        let mut idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(32));
        idx.ensure_hier(&HierConfig {
            levels: vec![
                HierLevelSpec {
                    row_span: 32,
                    bin_group: 2,
                },
                HierLevelSpec {
                    row_span: 128,
                    bin_group: 4,
                },
            ],
        });
        let bytes = to_bytes(&idx);
        let back = from_bytes(&bytes).unwrap();
        let (h0, h1) = (idx.hier().unwrap(), back.hier().unwrap());
        assert_eq!(h0.config(), h1.config());
        for (a, b) in h0.levels().iter().zip(h1.levels()) {
            assert_eq!(a.ab().bits(), b.ab().bits());
            assert_eq!(a.ab().inserted(), b.ab().inserted());
        }
        for bin in 0..8u32 {
            let q = RectQuery::new(vec![AttrRange::new(0, bin, bin)], 0, 511);
            assert_eq!(h1.prune(&q), h0.prune(&q), "bin {bin}");
        }
        // And an index without a pyramid round-trips to None.
        let plain = from_bytes(&to_bytes(&sample_index(Level::PerAttribute))).unwrap();
        assert!(plain.hier().is_none());
    }

    #[test]
    fn corrupt_hier_flag_rejected() {
        let mut idx = sample_index(Level::PerAttribute);
        idx.ensure_hier(&crate::hier::HierConfig::default());
        let mut bytes = to_bytes(&idx);
        // The hier flag is the byte where the trailing sections start:
        // everything after the last base-AB word. Find it by
        // re-encoding without the pyramid — the plain blob ends with
        // the hier flag followed by the hybrid flag, so the hier flag
        // sits 2 bytes before its end.
        let plain = to_bytes(&AbIndex::from_parts(
            idx.level(),
            idx.abs().to_vec(),
            idx.attributes().to_vec(),
            idx.num_rows(),
            None,
            None,
        ));
        let flag_pos = plain.len() - 2;
        assert_eq!(bytes[flag_pos], 1, "hier flag not where expected");
        bytes[flag_pos] = 7;
        let crc = crc32(&bytes[10..]);
        bytes[6..10].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(from_bytes(&bytes), Err(IoError::BadTag(7))));
    }

    fn sample_shards() -> Vec<(u64, AbIndex)> {
        let t = BinnedTable::new(vec![
            BinnedColumn::new("alpha", (0..64u32).map(|i| i % 3).collect(), 3),
            BinnedColumn::new("beta", (0..64u32).map(|i| (i * 7) % 4).collect(), 4),
        ]);
        crate::level::shard_ranges(64, 3)
            .into_iter()
            .map(|r| {
                (
                    r.start as u64,
                    AbIndex::build_row_range(
                        &t,
                        &AbConfig::new(Level::PerAttribute).with_alpha(8),
                        r,
                    ),
                )
            })
            .collect()
    }

    fn encode_shards(segments: &[(u64, AbIndex)]) -> Vec<u8> {
        let refs: Vec<(u64, &AbIndex)> = segments.iter().map(|(s, i)| (*s, i)).collect();
        shards_to_bytes(&refs)
    }

    #[test]
    fn shard_envelope_roundtrip() {
        let shards = sample_shards();
        let back = shards_from_bytes(&encode_shards(&shards)).unwrap();
        assert_eq!(back.len(), shards.len());
        for ((s0, i0), (s1, i1)) in shards.iter().zip(&back) {
            assert_eq!(s0, s1);
            assert_eq!(i0.num_rows(), i1.num_rows());
            assert_eq!(i0.attributes(), i1.attributes());
            for (a, b) in i0.abs().iter().zip(i1.abs()) {
                assert_eq!(a.bits(), b.bits());
            }
        }
    }

    /// A hand-built envelope of the current version over `segments`,
    /// with valid per-segment checksums but no layout validation.
    fn raw_envelope(segments: &[(u64, &AbIndex)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SHARD_MAGIC);
        bytes.extend_from_slice(&SHARD_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(segments.len() as u32).to_le_bytes());
        for (start, index) in segments {
            let blob = to_bytes(index);
            bytes.extend_from_slice(&start.to_le_bytes());
            bytes.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&crc32(&blob).to_le_bytes());
            bytes.extend_from_slice(&blob);
        }
        bytes
    }

    /// The envelope-level verdict of each of the two `ABSH` readers
    /// (per-segment damage is not envelope-level and maps to `Ok`).
    fn envelope_verdicts(bytes: &[u8]) -> [Result<(), IoError>; 2] {
        [
            shards_from_bytes_checked(bytes).map(|_| ()),
            segment_extents(bytes).map(|_| ()),
        ]
    }

    #[test]
    fn shard_envelope_rejects_bad_layouts() {
        let shards = sample_shards();
        // Out-of-order segments.
        let bytes = raw_envelope(&[(shards[1].0, &shards[1].1), (shards[0].0, &shards[0].1)]);
        assert!(matches!(
            shards_from_bytes(&bytes),
            Err(IoError::BadShardLayout)
        ));
        assert_eq!(envelope_verdicts(&bytes), [Err(IoError::BadShardLayout); 2]);
        // Zero segments.
        let empty = raw_envelope(&[]);
        assert!(matches!(
            shards_from_bytes(&empty),
            Err(IoError::BadShardLayout)
        ));
        assert_eq!(envelope_verdicts(&empty), [Err(IoError::BadShardLayout); 2]);
        // Wrong magic.
        assert!(matches!(
            shards_from_bytes(b"ABIXxxxxxx"),
            Err(IoError::BadMagic)
        ));
    }

    #[test]
    fn absh_readers_agree_on_every_envelope_error() {
        let shards = sample_shards();
        let bytes = encode_shards(&shards);
        let extents = segment_extents(&bytes).unwrap();
        assert_eq!(envelope_verdicts(&bytes), [Ok(()); 2]);

        // Every single-byte flip of the envelope header and of each
        // segment's fixed header: one parser, so one verdict.
        let mut header_bytes: Vec<usize> = (0..10).collect();
        for e in &extents {
            header_bytes.extend(e.offset..e.offset + SEGMENT_HEADER_LEN);
        }
        let mut rejected = 0;
        for pos in header_bytes {
            for flip in [0xFFu8, 0x01, 0x80] {
                let mut b = bytes.clone();
                b[pos] ^= flip;
                let [checked, walked] = envelope_verdicts(&b);
                assert_eq!(checked, walked, "flip {flip:#04x} at byte {pos}");
                rejected += usize::from(checked.is_err());
            }
        }
        assert!(rejected > 0, "no header flip was envelope-level");

        // Two segment starts swapped in place (0, s2, s1): the loader
        // refuses the file, so the extent walk must too.
        let mut swapped = bytes.clone();
        let (a, b) = (extents[1].offset, extents[2].offset);
        swapped[a..a + 8].copy_from_slice(&bytes[b..b + 8]);
        swapped[b..b + 8].copy_from_slice(&bytes[a..a + 8]);
        assert_eq!(
            envelope_verdicts(&swapped),
            [Err(IoError::BadShardLayout); 2]
        );
    }

    #[test]
    fn retired_versions_are_unsupported_before_any_payload_byte() {
        // ABIX: 1-4 were once readable (1 without a checksum, 4 with
        // two containers per backed bin); 6 is the future. A valid
        // payload behind the rewritten field must not matter, and
        // neither must a missing one.
        let abix = to_bytes(&sample_index(Level::PerAttribute));
        for v in [0u16, 1, 2, 3, 4, 6] {
            let mut b = abix.clone();
            b[4..6].copy_from_slice(&v.to_le_bytes());
            let want = Err(IoError::UnsupportedVersion(v));
            assert_eq!(from_bytes(&b).map(|_| ()), want);
            assert_eq!(from_bytes(&b[..6]).map(|_| ()), want);
        }
        // ABSH: 1 was the checksum-free envelope.
        let absh = encode_shards(&sample_shards());
        for v in [0u16, 1, 3] {
            let mut b = absh.clone();
            b[4..6].copy_from_slice(&v.to_le_bytes());
            let want = Err(IoError::UnsupportedVersion(v));
            assert_eq!(shards_from_bytes(&b).map(|_| ()), want);
            assert_eq!(envelope_verdicts(&b), [want; 2]);
            assert_eq!(envelope_verdicts(&b[..6]), [want; 2]);
        }
        // A retired version inside one segment (envelope checksum
        // resealed) is that segment's damage, not the envelope's.
        let e = segment_extents(&absh).unwrap()[1];
        let blob = e.offset + SEGMENT_HEADER_LEN..e.offset + e.len;
        let mut b = absh.clone();
        b[blob.start + 4..blob.start + 6].copy_from_slice(&1u16.to_le_bytes());
        let crc = crc32(&b[blob.clone()]);
        b[blob.start - 4..blob.start].copy_from_slice(&crc.to_le_bytes());
        let segs = shards_from_bytes_checked(&b).unwrap();
        assert_eq!(
            segs[1].1.as_ref().map(|_| ()),
            Err(&IoError::UnsupportedVersion(1))
        );
        assert!(segs[0].1.is_ok() && segs[2].1.is_ok());
    }

    /// The satellite hardening sweep: every truncation at 64-byte
    /// strides (plus the final byte) must yield a typed error, and
    /// every single-byte flip must decode cleanly or yield a typed
    /// error — the decoder must never panic on malformed input.
    fn corruption_sweep(bytes: &[u8], decode: fn(&[u8]) -> Result<(), IoError>) {
        let mut cuts: Vec<usize> = (0..bytes.len()).step_by(64).collect();
        cuts.push(bytes.len() - 1);
        for cut in cuts {
            let prefix = bytes[..cut].to_vec();
            match std::panic::catch_unwind(move || decode(&prefix)) {
                Ok(res) => assert!(res.is_err(), "truncation at {cut} decoded successfully"),
                Err(_) => panic!("decoder panicked on truncation at {cut}"),
            }
        }
        for pos in 0..bytes.len() {
            for flip in [0xFFu8, 0x01, 0x80] {
                let mut corrupt = bytes.to_vec();
                corrupt[pos] ^= flip;
                assert!(
                    std::panic::catch_unwind(move || {
                        let _ = decode(&corrupt);
                    })
                    .is_ok(),
                    "decoder panicked on flip {flip:#04x} at byte {pos}"
                );
            }
        }
    }

    #[test]
    fn abix_corruption_sweep_never_panics() {
        for level in [Level::PerDataset, Level::PerAttribute, Level::PerColumn] {
            let bytes = to_bytes(&sample_index(level));
            corruption_sweep(&bytes, |b| from_bytes(b).map(|_| ()));
        }
    }

    #[test]
    fn absh_corruption_sweep_never_panics() {
        let bytes = encode_shards(&sample_shards());
        corruption_sweep(&bytes, |b| shards_from_bytes(b).map(|_| ()));
    }

    /// Recomputes and patches the checksum after a deliberate test
    /// mutation, so the mutated field itself — not the checksum — is
    /// what the decoder trips over.
    fn reseal(bytes: &mut [u8]) {
        let crc = crc32(&bytes[10..]);
        bytes[6..10].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn flipped_header_bytes_give_typed_errors() {
        let bytes = to_bytes(&sample_index(Level::PerColumn));
        for pos in 0..4 {
            let mut b = bytes.clone();
            b[pos] ^= 0xFF;
            assert!(matches!(from_bytes(&b), Err(IoError::BadMagic)), "{pos}");
        }
        for pos in 4..6 {
            let mut b = bytes.clone();
            b[pos] ^= 0xFF;
            assert!(
                matches!(from_bytes(&b), Err(IoError::UnsupportedVersion(_))),
                "{pos}"
            );
        }
        // Any flip past the checksum field is caught by the checksum…
        let mut b = bytes.clone();
        b[10] ^= 0xFF; // level tag
        assert!(matches!(
            from_bytes(&b),
            Err(IoError::ChecksumMismatch { .. })
        ));
        // …and with the checksum resealed, the field's own validation
        // fires.
        reseal(&mut b);
        assert!(matches!(from_bytes(&b), Err(IoError::BadTag(_))));

        let shard_bytes = encode_shards(&sample_shards());
        for pos in 0..4 {
            let mut b = shard_bytes.clone();
            b[pos] ^= 0xFF;
            assert!(
                matches!(shards_from_bytes(&b), Err(IoError::BadMagic)),
                "{pos}"
            );
        }
        for pos in 4..6 {
            let mut b = shard_bytes.clone();
            b[pos] ^= 0xFF;
            assert!(
                matches!(shards_from_bytes(&b), Err(IoError::UnsupportedVersion(_))),
                "{pos}"
            );
        }
    }

    #[test]
    fn oversized_mapper_shift_rejected() {
        // A shift of 64+ would overflow `row << shift` at query time.
        let bytes = to_bytes(&sample_index(Level::PerAttribute));
        let back = from_bytes(&bytes).unwrap();
        assert!(back.abs()[0].mapper() != CellMapper::Shifted { shift: 64 });
        // Hand-craft: find the first mapper tag (right after the fixed
        // AB header fields) and bump its shift to 64.
        // header: 4 magic + 2 version + 4 crc + 1 level + 8 rows +
        // 4 attr count; per attr: 2 + name + 4 + 8; then 4 ab count,
        // then per ab: 8 n_bits + 4 k + 8 inserted, then mapper tag u8
        // + shift u32.
        let mut pos = 4 + 2 + 4 + 1 + 8;
        let attr_count = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        for _ in 0..attr_count {
            let name_len = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize;
            pos += 2 + name_len + 4 + 8;
        }
        pos += 4; // ab count
        pos += 8 + 4 + 8; // first AB's n_bits, k, inserted
        assert_eq!(bytes[pos], 0, "expected a Shifted mapper tag");
        let mut corrupt = bytes.clone();
        corrupt[pos + 1..pos + 5].copy_from_slice(&64u32.to_le_bytes());
        reseal(&mut corrupt);
        assert!(matches!(from_bytes(&corrupt), Err(IoError::BadTag(0))));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = to_bytes(&sample_index(Level::PerAttribute));
        for cut in [3, 7, 20, bytes.len() - 1] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = to_bytes(&sample_index(Level::PerAttribute));
        bytes[4] = 0xFF;
        assert!(matches!(
            from_bytes(&bytes),
            Err(IoError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(IoError::BadMagic.to_string().contains("magic"));
        assert!(IoError::Truncated.to_string().contains("truncated"));
        assert!(IoError::BadTag(7).to_string().contains("0x07"));
        assert!(IoError::BadShardLayout.to_string().contains("shard"));
        assert!(IoError::ChecksumMismatch {
            stored: 0xDEAD_BEEF,
            computed: 1
        }
        .to_string()
        .contains("0xdeadbeef"));
    }

    #[test]
    fn payload_flip_yields_checksum_mismatch() {
        let bytes = to_bytes(&sample_index(Level::PerAttribute));
        // Every byte past the checksum field is covered by it.
        for pos in [10, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut b = bytes.clone();
            b[pos] ^= 0x40;
            assert!(
                matches!(from_bytes(&b), Err(IoError::ChecksumMismatch { .. })),
                "flip at {pos} not caught"
            );
        }
    }

    /// 512 clustered rows in 8 bins, every bin exactly backed.
    fn hybrid_index() -> AbIndex {
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "v",
            (0..512u32).map(|i| i / 64).collect(),
            8,
        )]);
        let mut idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(8));
        idx.ensure_hybrid(
            &t,
            &crate::hybrid::HybridConfig {
                min_density: 0.0,
                ..Default::default()
            },
        );
        idx
    }

    #[test]
    fn roundtrip_preserves_hybrid_tier_bit_identically() {
        let idx = hybrid_index();
        assert!(!idx.hybrid().unwrap().bins().is_empty());
        let bytes = to_bytes(&idx);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.hybrid(), idx.hybrid());
        // Re-serializing the decoded index reproduces the same bytes —
        // the store round trip is bit-identical to in-RAM serving.
        assert_eq!(to_bytes(&back), bytes);
    }

    /// `to_bytes` reserves for every section, not for the base ABs
    /// alone: on an index whose pyramid and exact tier outweigh its AB
    /// the buffer ends within an eighth of its length, which one that
    /// doubled its way up from the AB's size does not.
    #[test]
    fn to_bytes_reserves_for_the_pyramid_and_the_exact_tier() {
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "u",
            (0..20_000u64)
                .map(|i| (hashkit::splitmix64(i) % 4) as u32)
                .collect(),
            4,
        )]);
        let mut idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(8));
        idx.ensure_hier(&crate::hier::HierConfig::default());
        idx.ensure_hybrid(&t, &crate::hybrid::HybridConfig::default());
        let tiers = idx.hier().unwrap().size_bytes() + idx.hybrid().unwrap().size_bytes();
        assert!(tiers > idx.size_bytes(), "{tiers} vs {}", idx.size_bytes());
        let bytes = to_bytes(&idx);
        assert!(
            bytes.capacity() <= bytes.len() + bytes.len() / 8,
            "{} bytes in a buffer of {}",
            bytes.len(),
            bytes.capacity()
        );
        let shards = shards_to_bytes(&[(0, &idx)]);
        assert!(shards.capacity() <= shards.len() + shards.len() / 8);
    }

    /// Where `idx`'s hybrid flag sits: the last byte of its tier-less
    /// encoding.
    fn hybrid_flag_pos(idx: &AbIndex) -> usize {
        let plain = to_bytes(&AbIndex::from_parts(
            idx.level(),
            idx.abs().to_vec(),
            idx.attributes().to_vec(),
            idx.num_rows(),
            None,
            None,
        ));
        plain.len() - 1
    }

    #[test]
    fn corrupt_hybrid_flag_rejected() {
        let idx = hybrid_index();
        let mut bytes = to_bytes(&idx);
        let flag_pos = hybrid_flag_pos(&idx);
        assert_eq!(bytes[flag_pos], 1, "hybrid flag not where expected");
        bytes[flag_pos] = 9;
        reseal(&mut bytes);
        assert!(matches!(from_bytes(&bytes), Err(IoError::BadTag(9))));
    }

    #[test]
    fn damaged_container_is_caught_by_its_own_checksum() {
        let idx = hybrid_index();
        let mut bytes = to_bytes(&idx);
        // Flip a byte inside the first ROAR stream's body and reseal
        // the outer ABIX checksum: the container's own CRC still
        // pinpoints the damage (this is what lets the store scrubber
        // quarantine one container instead of distrusting the blob).
        let pos = bytes
            .windows(4)
            .rposition(|w| w == b"ROAR")
            .expect("no ROAR stream in hybrid section");
        bytes[pos + 12] ^= 0x40;
        reseal(&mut bytes);
        assert!(matches!(
            from_bytes(&bytes),
            Err(IoError::ChecksumMismatch { .. })
        ));
    }

    /// A tier that backs empty bins holds 30-byte records (ids, a
    /// length and a 14-byte empty `ROAR` stream), and the reader's
    /// count guard admits them; a count past what the bytes can hold
    /// is still `Truncated`.
    #[test]
    fn tier_of_empty_bins_roundtrips_and_an_oversized_count_is_truncated() {
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "two",
            (0..4096u32).map(|i| i / 2048).collect(),
            64,
        )]);
        let mut idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(8));
        idx.ensure_hybrid(
            &t,
            &crate::hybrid::HybridConfig {
                min_density: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(idx.hybrid().unwrap().bins().len(), 64, "empty bins backed");
        let bytes = to_bytes(&idx);
        assert_eq!(from_bytes(&bytes).unwrap().hybrid(), idx.hybrid());

        // flag u8, two f64s, total_bins u32, then the count.
        let flag = hybrid_flag_pos(&idx);
        let (total, count) = (flag + 17, flag + 21);
        let mut b = bytes.clone();
        b[total..count].copy_from_slice(&u32::MAX.to_le_bytes());
        let fits = (b.len() - count - 4) / 30;
        b[count..count + 4].copy_from_slice(&(fits as u32 + 1).to_le_bytes());
        reseal(&mut b);
        assert_eq!(from_bytes(&b).map(|_| ()), Err(IoError::Truncated));
    }

    #[test]
    fn hybrid_abix_corruption_sweep_never_panics() {
        let bytes = to_bytes(&hybrid_index());
        corruption_sweep(&bytes, |b| from_bytes(b).map(|_| ()));
    }

    #[test]
    fn checked_reader_isolates_the_corrupt_shard() {
        let shards = sample_shards();
        let bytes = encode_shards(&shards);
        // Flip one byte inside the *last* segment's blob (well past
        // the envelope header and earlier segments).
        let mut corrupt = bytes.clone();
        let pos = bytes.len() - 3;
        corrupt[pos] ^= 0xFF;
        let segs = shards_from_bytes_checked(&corrupt).unwrap();
        assert_eq!(segs.len(), shards.len());
        for (i, (start, res)) in segs.iter().enumerate() {
            assert_eq!(*start, shards[i].0);
            if i == shards.len() - 1 {
                assert!(
                    matches!(res, Err(IoError::ChecksumMismatch { .. })),
                    "corrupt shard not flagged: {res:?}"
                );
            } else {
                assert!(res.is_ok(), "healthy shard {i} failed: {res:?}");
            }
        }
        // The strict reader fails the whole decode on the same input.
        assert!(matches!(
            shards_from_bytes(&corrupt),
            Err(IoError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn segment_extents_tile_the_envelope_exactly() {
        let shards = sample_shards();
        let bytes = encode_shards(&shards);
        let extents = segment_extents(&bytes).unwrap();
        assert_eq!(extents.len(), shards.len());
        // Extents start right after the 10-byte envelope header, are
        // contiguous, and end exactly at the end of the buffer.
        let mut expected_off = 10;
        for (e, (start, index)) in extents.iter().zip(&shards) {
            assert_eq!(e.offset, expected_off);
            assert_eq!(e.start_row, *start);
            // Slicing the extent and skipping its 20-byte header gives
            // back a decodable ABIX blob.
            let blob = &bytes[e.offset + 20..e.offset + e.len];
            let back = from_bytes(blob).unwrap();
            assert_eq!(back.num_rows(), index.num_rows());
            expected_off += e.len;
        }
        assert_eq!(expected_off, bytes.len());

        // Extents never verify checksums: a payload flip inside a
        // segment body leaves the walk intact.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 3;
        corrupt[last] ^= 0xFF;
        assert_eq!(segment_extents(&corrupt).unwrap(), extents);

        // Envelope damage is still typed.
        assert!(matches!(
            segment_extents(b"JUNKjunkjunk"),
            Err(IoError::BadMagic)
        ));
        assert!(matches!(
            segment_extents(&bytes[..bytes.len() - 1]),
            Err(IoError::Truncated)
        ));
    }
}
