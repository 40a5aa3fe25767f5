//! Persistent binary format for AB indexes: the paper's "ship the
//! index without the data" (§1, contribution 6). An index is one
//! versioned little-endian `ABIX` record:
//!
//! ```text
//! magic "ABIX" | version u16 | level u8 | num_rows u64 |
//! attr count u32 | { name_len u16, name, cardinality u32, offset u64 }* |
//! ab count u32  | { n_bits u64, k u32, inserted u64, mapper, family,
//!                   word count u64, words u64* }* |
//! hier flag u8  | [ level count u32,
//!                   { row_span u64, bin_group u32, AB record }* ] |
//! hybrid flag u8 | [ min_density f64, verify_cost f64,
//!                    total_bins u32, bin count u32,
//!                    { attribute u32, bin u32, ROAR body }* ]
//! ```
//!
//! The `hier` section is the pyramid (`crate::hier`), the `hybrid`
//! section the exact tier (`crate::hybrid`): each backed (attribute,
//! bin), in strictly increasing order, with its container's
//! self-delimiting body (`roar::RoaringBitmap::write_body`). A
//! row-range-sharded index (`ab::shard_ranges`, the `svc` crate) is an
//! `ABSH` envelope of length-prefixed `ABIX` segments in strictly
//! increasing `start_row` order from row 0:
//!
//! ```text
//! magic "ABSH" | version u16 | shard count u32 |
//! { start_row u64, byte_len u64, ABIX bytes }*
//! ```
//!
//! Neither carries a checksum: on disk they live only inside the
//! `store` crate's page-checked file, whose CRCs are the one integrity
//! layer (DESIGN §17). The decoders refuse malformed input with a
//! typed [`IoError`] and never panic on it. Readers accept exactly the
//! version the writer emits (`ABIX` 6, `ABSH` 3); anything else is
//! [`IoError::UnsupportedVersion`] before a payload byte is parsed.

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
    /// `ABSH` segments were empty, unordered or did not tile the input.
    BadShardLayout,
    /// The row count disagreed with the cells the ABs hold or the rows
    /// an exact container names.
    BadRowCount,
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
            IoError::BadRowCount => write!(f, "row count disagrees with the encoded bitmaps"),
        }
    }
}

impl std::error::Error for IoError {}

const MAGIC: &[u8; 4] = b"ABIX";
/// The one `ABIX` version readers accept.
const VERSION: u16 = 6;

pub use roar::bytes::crc32;

/// Serializes an [`AbIndex`] to `ABIX` bytes.
pub fn to_bytes(index: &AbIndex) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len_bound(index));
    write_index(&mut out, index);
    out
}

fn write_index(out: &mut Vec<u8>, index: &AbIndex) {
    out.extend_from_slice(MAGIC);
    out.extend(VERSION.to_le_bytes());
    out.push(tag_of(&LEVELS, &index.level()));
    out.extend((index.num_rows() as u64).to_le_bytes());
    out.extend((index.attributes().len() as u32).to_le_bytes());
    for a in index.attributes() {
        out.extend((a.name.len() as u16).to_le_bytes());
        out.extend_from_slice(a.name.as_bytes());
        out.extend(a.cardinality.to_le_bytes());
        out.extend((a.offset as u64).to_le_bytes());
    }
    out.extend((index.abs().len() as u32).to_le_bytes());
    for ab in index.abs() {
        write_ab(out, ab);
    }
    match index.hier() {
        None => out.push(0),
        Some(hier) => {
            out.push(1);
            out.extend((hier.levels().len() as u32).to_le_bytes());
            for level in hier.levels() {
                out.extend((level.row_span() as u64).to_le_bytes());
                out.extend(level.bin_group().to_le_bytes());
                write_ab(out, level.ab());
            }
        }
    }
    match index.hybrid() {
        None => out.push(0),
        Some(hy) => {
            out.push(1);
            out.extend(hy.config().min_density.to_bits().to_le_bytes());
            out.extend(hy.config().verify_cost.to_bits().to_le_bytes());
            out.extend(hy.total_bins().to_le_bytes());
            out.extend((hy.bins().len() as u32).to_le_bytes());
            for hb in hy.bins() {
                out.extend((hb.attribute() as u32).to_le_bytes());
                out.extend(hb.bin().to_le_bytes());
                hb.exact().write_body(out);
            }
        }
    }
}

/// An upper bound on `to_bytes(index).len()`, a few bytes per record
/// above it, covering every section, not just [`AbIndex::size_bytes`].
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
    let hier = index.hier().map_or(0, |h| {
        4 + h
            .levels()
            .iter()
            .map(|l| 12 + ab_record(l.ab()))
            .sum::<usize>()
    });
    // A body adds 4 bytes, and 5 per chunk of 2¹⁶ rows, to `size_bytes`.
    let hybrid = index.hybrid().map_or(0, |hy| {
        let record = 12 + 5 * hy.num_rows().div_ceil(1 << 16);
        24 + hy.bins().len() * record + hy.size_bytes()
    });
    32 + attributes + abs + hier + hybrid
}

/// Writes one AB record (the layout shared by base and hier-level ABs).
fn write_ab(out: &mut Vec<u8>, ab: &ApproximateBitmap) {
    out.extend(ab.n_bits().to_le_bytes());
    out.extend((ab.k() as u32).to_le_bytes());
    out.extend(ab.inserted().to_le_bytes());
    let (tag, shift) = match ab.mapper() {
        CellMapper::Shifted { shift } => (0, shift),
        CellMapper::RowOnly => (1, 0),
    };
    out.push(tag);
    out.extend(shift.to_le_bytes());
    match ab.family() {
        HashFamily::Independent(kinds) => {
            out.push(0);
            out.extend((kinds.len() as u16).to_le_bytes());
            for k in kinds {
                out.push(tag_of(&HASH_KINDS, k));
            }
        }
        HashFamily::Sha1Split => out.push(1),
        HashFamily::DoubleHashing => out.push(2),
        HashFamily::ColumnGroup { num_columns } => {
            out.push(3);
            out.extend(num_columns.to_le_bytes());
        }
    }
    let words = ab.bits().words();
    out.extend((words.len() as u64).to_le_bytes());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
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
    let mapper = match (r.u8()?, r.u32()?) {
        // A shift of 64+ would overflow the `row << shift` cell
        // mapping on first use; reject it at decode time instead.
        (0, shift) if shift < 64 => CellMapper::Shifted { shift },
        (1, _) => CellMapper::RowOnly,
        (t, _) => return Err(IoError::BadTag(t)),
    };
    let family = match r.u8()? {
        0 => {
            let count = r.u16()? as usize;
            if count == 0 {
                return Err(IoError::BadTag(0));
            }
            let kinds = (0..count).map(|_| from_tag(&HASH_KINDS, r.u8()?));
            HashFamily::Independent(kinds.collect::<Result<_, _>>()?)
        }
        1 => HashFamily::Sha1Split,
        2 => HashFamily::DoubleHashing,
        3 => HashFamily::ColumnGroup {
            num_columns: r.u64()?,
        },
        t => return Err(IoError::BadTag(t)),
    };
    let word_count = r.u64()? as usize;
    if word_count > r.remaining() / 8 || word_count as u64 != n_bits.div_ceil(64) {
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
pub fn from_bytes(data: &[u8]) -> Result<AbIndex, IoError> {
    let mut r = Reader::new(data, MAGIC, VERSION)?;
    let level = from_tag(&LEVELS, r.u8()?)?;
    let num_rows = r.u64()? as usize;
    let attr_count = r.u32()? as usize;
    // Each attribute record is at least 14 bytes: a count beyond the
    // input is corrupt, refused before it sizes an allocation.
    if attr_count > r.remaining() / 14 {
        return Err(IoError::Truncated);
    }
    let attributes = (0..attr_count)
        .map(|_| {
            let name_len = r.u16()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?).map_err(|_| IoError::BadString)?;
            Ok(AttributeMeta {
                name: name.to_owned(),
                cardinality: r.u32()?,
                offset: r.u64()? as usize,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let ab_count = r.u32()? as usize;
    // Each AB record is at least 33 bytes.
    if ab_count > r.remaining() / 33 {
        return Err(IoError::Truncated);
    }
    let abs: Vec<ApproximateBitmap> = (0..ab_count)
        .map(|_| read_ab(&mut r))
        .collect::<Result<_, _>>()?;
    // Every row inserts one cell per attribute, whatever the level. A
    // count that disagrees would go on to size the pyramid's geometry
    // and, re-serialized, the output buffer.
    let cells = abs
        .iter()
        .try_fold(0u64, |sum, ab| sum.checked_add(ab.inserted()));
    if cells.is_none() || cells != (num_rows as u64).checked_mul(attributes.len() as u64) {
        return Err(IoError::BadRowCount);
    }
    let hier = match r.u8()? {
        0 => None,
        1 => {
            let level_count = r.u32()? as usize;
            // Each level is at least 45 bytes (geometry + AB record).
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
                let spec = HierLevelSpec {
                    row_span,
                    bin_group,
                };
                parts.push((spec, read_ab(&mut r)?));
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
            // A record is at least 12 bytes: ids and an empty body.
            if count > r.remaining() / 12 || count > total_bins as usize {
                return Err(IoError::Truncated);
            }
            let parts = (0..count)
                .map(|_| {
                    let (attribute, bin) = (r.u32()?, r.u32()?);
                    let body = roar::RoaringBitmap::read_body(&r.data[r.pos..]);
                    let (exact, used) = body.map_err(|e| match e {
                        roar::RoarError::Truncated => IoError::Truncated,
                        _ => IoError::BadTag(0),
                    })?;
                    r.pos += used;
                    Ok((attribute, bin, exact))
                })
                .collect::<Result<Vec<_>, _>>()?;
            if parts
                .windows(2)
                .any(|w| (w[0].0, w[0].1) >= (w[1].0, w[1].1))
            {
                return Err(IoError::BadShardLayout);
            }
            if parts
                .iter()
                .any(|(_, _, exact)| exact.max().is_some_and(|row| row as usize >= num_rows))
            {
                return Err(IoError::BadRowCount);
            }
            let config = HybridConfig {
                min_density,
                verify_cost,
            };
            Some(HybridAb::from_serialized(
                config, num_rows, total_bins, parts,
            ))
        }
        t => return Err(IoError::BadTag(t)),
    };
    Ok(AbIndex::from_parts(
        level, abs, attributes, num_rows, hier, hybrid,
    ))
}

const SHARD_MAGIC: &[u8; 4] = b"ABSH";
/// The one `ABSH` version readers accept.
pub const SHARD_VERSION: u16 = 3;
/// Bytes of one segment's fixed header: start row, byte length.
pub const SEGMENT_HEADER_LEN: usize = 16;

/// Serializes a row-range-sharded index as an `ABSH` envelope of
/// `(start_row, index)` segments.
///
/// # Panics
///
/// Panics unless the segments are non-empty and each starts where the
/// previous one ended, from row 0 (readers get
/// [`IoError::BadShardLayout`]).
pub fn shards_to_bytes(segments: &[(u64, &AbIndex)]) -> Vec<u8> {
    let mut end = 0;
    let tiled = segments.iter().all(|(start, index)| {
        std::mem::replace(&mut end, start + index.num_rows() as u64) == *start
    });
    assert!(tiled && !segments.is_empty(), "shards must tile the rows");
    let total: usize = segments.iter().map(|(_, i)| encoded_len_bound(i)).sum();
    let mut out = Vec::with_capacity(10 + total + SEGMENT_HEADER_LEN * segments.len());
    out.extend_from_slice(SHARD_MAGIC);
    out.extend(SHARD_VERSION.to_le_bytes());
    out.extend((segments.len() as u32).to_le_bytes());
    for (start, index) in segments {
        out.extend(start.to_le_bytes());
        let len_at = out.len();
        out.extend(0u64.to_le_bytes()); // byte length, patched below
        write_index(&mut out, index);
        let len = (out.len() - len_at - 8) as u64;
        out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    }
    out
}

/// Deserializes an `ABSH` envelope produced by [`shards_to_bytes`] into
/// its `(start_row, index)` segments; the first malformed byte fails it.
pub fn shards_from_bytes(data: &[u8]) -> Result<Vec<(u64, AbIndex)>, IoError> {
    let mut expected_start = 0u64;
    segments(data)?
        .1
        .map(|seg| {
            let (extent, blob) = seg?;
            let index = from_bytes(blob)?;
            if extent.start_row != expected_start || index.num_rows() == 0 {
                return Err(IoError::BadShardLayout);
            }
            expected_start += index.num_rows() as u64;
            Ok((extent.start_row, index))
        })
        .collect()
}

/// Byte extent of one `ABSH` segment: what `store` maps bad pages onto.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentExtent {
    /// Segment position in the envelope.
    pub shard: usize,
    /// First global row the segment covers.
    pub start_row: u64,
    /// Byte offset of the segment's header from the envelope's start.
    pub offset: usize,
    /// Byte length of the segment including its header.
    pub len: usize,
}

/// Each segment's byte extent; reads only the fixed headers, O(shards).
pub fn segment_extents(data: &[u8]) -> Result<Vec<SegmentExtent>, IoError> {
    segments(data)?.1.map(|seg| Ok(seg?.0)).collect()
}

/// One `ABSH` segment as [`segments`] yields it: extent and `ABIX` bytes.
pub type Segment<'a> = Result<(SegmentExtent, &'a [u8]), IoError>;

/// The one `ABSH` parser: checks magic, version and shard count, and
/// returns that count and a walk yielding each segment in storage
/// order, reading only its fixed header. A start that does not follow
/// the previous one (from row 0), bytes past the input, or a last
/// segment that does not end the input is an error that ends the walk;
/// the segments before it stay usable.
pub fn segments<'a>(data: &'a [u8]) -> Result<(usize, impl Iterator<Item = Segment<'a>>), IoError> {
    let mut r = Reader::new(data, SHARD_MAGIC, SHARD_VERSION)?;
    let count = r.u32()? as usize;
    if count == 0 {
        return Err(IoError::BadShardLayout);
    }
    // Each segment carries a fixed header plus a non-empty blob; a
    // count beyond what could fit in the remaining input is corrupt.
    if count > r.remaining() / (SEGMENT_HEADER_LEN + 1) {
        return Err(IoError::Truncated);
    }
    let mut prev_start: Option<u64> = None;
    let mut next = move |shard: usize| -> Segment<'a> {
        let offset = r.pos;
        let start_row = r.u64()?;
        if prev_start.map_or(start_row != 0, |p| start_row <= p) {
            return Err(IoError::BadShardLayout);
        }
        prev_start = Some(start_row);
        let len = usize::try_from(r.u64()?).map_err(|_| IoError::Truncated)?;
        let blob = r.take(len)?;
        if shard + 1 == count && r.remaining() != 0 {
            return Err(IoError::BadShardLayout);
        }
        let len = SEGMENT_HEADER_LEN + blob.len();
        let extent = SegmentExtent {
            shard,
            start_row,
            offset,
            len,
        };
        Ok((extent, blob))
    };
    // One error ends the walk: nothing after it can be located.
    let mut failed = false;
    let walk = (0..count).map_while(move |shard| {
        (!failed).then(|| {
            let seg = next(shard);
            failed = seg.is_err();
            seg
        })
    });
    Ok((count, walk))
}

/// Levels and hash kinds by their one-byte tags.
const LEVELS: [Level; 3] = [Level::PerDataset, Level::PerAttribute, Level::PerColumn];
const HASH_KINDS: [HashKind; 12] = [
    HashKind::Rs,
    HashKind::Js,
    HashKind::Pjw,
    HashKind::Elf,
    HashKind::Bkdr,
    HashKind::Sdbm,
    HashKind::Djb,
    HashKind::Dek,
    HashKind::Ap,
    HashKind::Fnv,
    HashKind::MultiplyShift,
    HashKind::Circular,
];

fn tag_of<T: PartialEq>(table: &[T], item: &T) -> u8 {
    let tag = table.iter().position(|x| x == item);
    tag.expect("every variant has a tag") as u8
}

fn from_tag<T: Copy>(table: &[T], tag: u8) -> Result<T, IoError> {
    table.get(tag as usize).copied().ok_or(IoError::BadTag(tag))
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader past `data`'s magic and version, which must match.
    fn new(data: &'a [u8], magic: &[u8; 4], version: u16) -> Result<Self, IoError> {
        let mut r = Reader { data, pos: 0 };
        if r.take(4)? != magic {
            return Err(IoError::BadMagic);
        }
        match r.u16()? {
            v if v == version => Ok(r),
            v => Err(IoError::UnsupportedVersion(v)),
        }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], IoError> {
        if n > self.remaining() {
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
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, IoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, IoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
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
    /// 10-function roster, so the re-seeded probes too) and the `ABIX`
    /// layout. Files written by earlier builds must keep loading and
    /// keep answering, so these values may only change together with a
    /// format version.
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
            [0x49DA_88D9, 0x5DE3_5F2F, 0x9402_CC85],
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
    /// with no layout validation.
    fn raw_envelope(segments: &[(u64, &AbIndex)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SHARD_MAGIC);
        bytes.extend_from_slice(&SHARD_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(segments.len() as u32).to_le_bytes());
        for (start, index) in segments {
            let blob = to_bytes(index);
            bytes.extend_from_slice(&start.to_le_bytes());
            bytes.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&blob);
        }
        bytes
    }

    /// The verdicts of the extent walk and of the strict loader.
    fn envelope_verdicts(bytes: &[u8]) -> [Result<(), IoError>; 2] {
        [
            segment_extents(bytes).map(|_| ()),
            shards_from_bytes(bytes).map(|_| ()),
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
        // segment's fixed header: one parser, so the loader refuses
        // whatever the walk refuses, with the walk's own error for the
        // envelope header.
        let mut header_bytes: Vec<usize> = (0..10).collect();
        for e in &extents {
            header_bytes.extend(e.offset..e.offset + SEGMENT_HEADER_LEN);
        }
        let mut rejected = 0;
        for pos in header_bytes {
            for flip in [0xFFu8, 0x01, 0x80] {
                let mut b = bytes.clone();
                b[pos] ^= flip;
                let [walked, loaded] = envelope_verdicts(&b);
                if walked.is_err() {
                    assert!(loaded.is_err(), "flip {flip:#04x} at byte {pos}");
                }
                if pos < 10 {
                    assert_eq!(walked, loaded, "flip {flip:#04x} at byte {pos}");
                }
                rejected += usize::from(walked.is_err());
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
        // ABIX: 1-5 were once readable (5 with checksums, 4 with two
        // containers per backed bin); 7 is the future. A valid payload
        // behind the rewritten field must not matter, and neither must
        // a missing one.
        let abix = to_bytes(&sample_index(Level::PerAttribute));
        for v in [0u16, 1, 2, 3, 4, 5, 7] {
            let mut b = abix.clone();
            b[4..6].copy_from_slice(&v.to_le_bytes());
            let want = Err(IoError::UnsupportedVersion(v));
            assert_eq!(from_bytes(&b).map(|_| ()), want);
            assert_eq!(from_bytes(&b[..6]).map(|_| ()), want);
        }
        // ABSH: 1 had no segment checksums, 2 had them.
        let absh = encode_shards(&sample_shards());
        for v in [0u16, 1, 2, 4] {
            let mut b = absh.clone();
            b[4..6].copy_from_slice(&v.to_le_bytes());
            let want = Err(IoError::UnsupportedVersion(v));
            assert_eq!(shards_from_bytes(&b).map(|_| ()), want);
            assert_eq!(envelope_verdicts(&b), [want; 2]);
            assert_eq!(envelope_verdicts(&b[..6]), [want; 2]);
        }
        // A retired version inside one segment is that segment's
        // damage, not the envelope's: the walk still locates every
        // segment, and the loader names the version.
        let e = segment_extents(&absh).unwrap()[1];
        let blob = e.offset + SEGMENT_HEADER_LEN;
        let mut b = absh.clone();
        b[blob + 4..blob + 6].copy_from_slice(&5u16.to_le_bytes());
        assert_eq!(segment_extents(&b), segment_extents(&absh));
        assert_eq!(
            shards_from_bytes(&b).map(|_| ()),
            Err(IoError::UnsupportedVersion(5))
        );
    }

    /// The hardening sweep: every truncation at 64-byte strides (plus
    /// the final byte) must yield a typed error, and every single-byte
    /// flip must decode or yield a typed error. No checksum stands in
    /// front of the parsers, so each flip reaches the field it lands
    /// in: the decoder must never panic on malformed input.
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
        // A flip of the level tag is caught by the tag's own
        // validation (in a store file, by the page CRC first: see
        // `svc::shard`'s tests).
        let mut b = bytes.clone();
        b[6] ^= 0xFF;
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
        // header: 4 magic + 2 version + 1 level + 8 rows + 4 attr
        // count; per attr: 2 + name + 4 + 8; then 4 ab count, then per
        // ab: 8 n_bits + 4 k + 8 inserted, then mapper tag u8 + shift
        // u32.
        let mut pos = 4 + 2 + 1 + 8;
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
        assert!(IoError::BadRowCount.to_string().contains("row count"));
        assert!(IoError::UnsupportedVersion(5).to_string().contains('5'));
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

    /// A `num_rows` field that disagrees with what the record decodes
    /// is refused, huge or off by one, at every level and with both
    /// tiers attached; the unpatched record still round-trips. Lowering
    /// the count together with the AB's insert count is caught by the
    /// exact container that names the last row.
    #[test]
    fn a_patched_row_count_is_refused() {
        // Magic, version, level: the count's offset.
        const NUM_ROWS_AT: usize = 7;
        let patched = |bytes: &[u8], at: usize, value: u64| {
            let mut b = bytes.to_vec();
            b[at..at + 8].copy_from_slice(&value.to_le_bytes());
            b
        };
        let t = BinnedTable::new(vec![
            BinnedColumn::new("v", (0..512u32).map(|i| i / 64).collect(), 8),
            BinnedColumn::new("w", (0..512u32).map(|i| i % 3).collect(), 3),
        ]);
        for level in [Level::PerDataset, Level::PerAttribute, Level::PerColumn] {
            let mut idx = AbIndex::build(&t, &AbConfig::new(level).with_alpha(8));
            idx.ensure_hier(&crate::hier::HierConfig::default());
            idx.ensure_hybrid(&t, &HybridConfig::default());
            let bytes = to_bytes(&idx);
            assert_eq!(bytes[NUM_ROWS_AT..NUM_ROWS_AT + 8], 512u64.to_le_bytes());
            assert_eq!(to_bytes(&from_bytes(&bytes).unwrap()), bytes, "{level:?}");
            for value in [u64::MAX, 1 << 40, 513, 511, 0] {
                let got = from_bytes(&patched(&bytes, NUM_ROWS_AT, value)).err();
                assert_eq!(got, Some(IoError::BadRowCount), "{level:?}: {value}");
            }
        }
        // One attribute named "v", one AB: its insert count follows the
        // attribute record, the AB count, `n_bits` and `k`.
        let idx = hybrid_index();
        let bytes = to_bytes(&idx);
        let inserted_at = NUM_ROWS_AT + 8 + 4 + (2 + 1 + 4 + 8) + 4 + 8 + 4;
        assert_eq!(bytes[inserted_at..inserted_at + 8], 512u64.to_le_bytes());
        let both = patched(&patched(&bytes, NUM_ROWS_AT, 511), inserted_at, 511);
        assert_eq!(from_bytes(&both).err(), Some(IoError::BadRowCount));
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
        assert!(matches!(from_bytes(&bytes), Err(IoError::BadTag(9))));
    }

    /// A tier that backs empty bins holds 12-byte records (ids and the
    /// zero chunk count of an empty body), and the reader's count guard
    /// admits them; a count past what the bytes can hold is still
    /// `Truncated`.
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
        let fits = (b.len() - count - 4) / 12;
        b[count..count + 4].copy_from_slice(&(fits as u32 + 1).to_le_bytes());
        assert_eq!(from_bytes(&b).map(|_| ()), Err(IoError::Truncated));
    }

    #[test]
    fn hybrid_abix_corruption_sweep_never_panics() {
        let bytes = to_bytes(&hybrid_index());
        corruption_sweep(&bytes, |b| from_bytes(b).map(|_| ()));
    }

    /// A pyramid and an exact tier together, so the sweep's flips land
    /// in `read_ab`'s level records, `HierAb::from_serialized`,
    /// `HybridAb::from_serialized` and the `ROAR` body decoder.
    #[test]
    fn tiered_abix_corruption_sweep_never_panics() {
        let mut idx = hybrid_index();
        idx.ensure_hier(&crate::hier::HierConfig {
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
        corruption_sweep(&bytes, |b| from_bytes(b).map(|_| ()));
        corruption_sweep(&shards_to_bytes(&[(0, &idx)]), |b| {
            shards_from_bytes(b).map(|_| ())
        });
    }

    /// Bytes past the last segment are refused: a shard count that
    /// lost a segment must not load as a smaller index.
    #[test]
    fn a_dropped_segment_is_refused() {
        let bytes = encode_shards(&sample_shards());
        let mut b = bytes.clone();
        b[6..10].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(segment_extents(&b), Err(IoError::BadShardLayout));
        assert_eq!(
            shards_from_bytes(&b).map(|_| ()),
            Err(IoError::BadShardLayout)
        );
        // The walk still hands a caller the segments before the error.
        let (count, walk) = segments(&b).unwrap();
        let walk: Vec<_> = walk.collect();
        assert_eq!((count, walk.len()), (2, 2));
        assert!(walk[0].is_ok() && walk[1].is_err());
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
            // Slicing the extent and skipping its 16-byte header gives
            // back a decodable ABIX blob.
            let blob = &bytes[e.offset + SEGMENT_HEADER_LEN..e.offset + e.len];
            let back = from_bytes(blob).unwrap();
            assert_eq!(back.num_rows(), index.num_rows());
            expected_off += e.len;
        }
        assert_eq!(expected_off, bytes.len());

        // Extents never read a segment body: a flip inside one leaves
        // the walk intact.
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
