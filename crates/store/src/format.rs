//! The `ABPG` on-disk layout (see DESIGN §17 for the rationale).
//!
//! A segment file is a whole number of fixed-size pages:
//!
//! ```text
//! page 0                meta page:
//!   off  0  magic "ABPG"
//!   off  4  version      u16  (= 3, the only version read)
//!   off  6  page_size    u32  (power of two, 64..=1 MiB)
//!   off 10  payload_len  u64  (exact ABSH byte length)
//!   off 18  payload_crc  u32  (CRC-32 of the whole payload)
//!   off 22  table_crc    u32  (CRC-32 of the page-CRC table bytes)
//!   off 26  shard_count  u32  (cached from the ABSH envelope)
//!   off 30  header_crc   u32  (CRC-32 of bytes [0..30))
//!   ...zero padding to page_size
//! pages 1 .. 1+T        page-CRC table: one little-endian u32 per
//!                       payload page, zero-padded to page boundary
//! pages 1+T ..          payload pages: the raw ABSH bytes, final
//!                       page zero-padded
//! ```
//!
//! Payload pages carry **no** inline metadata — the payload is stored
//! byte-identical and page-aligned, so the file read whole yields the
//! `ABSH` envelope as one contiguous slice (`Store::payload`), and any
//! page can be re-verified independently against its table entry. All integers are little-endian, CRC-32 is
//! [`ab::crc32`] (IEEE), matching the rest of the repo's formats.

use crate::StoreError;

/// Store magic: **A**pproximate **B**itmap **P**a**G**ed.
pub const MAGIC: &[u8; 4] = b"ABPG";
/// The store format version, written and — exclusively — read. Its
/// segments carry `ABIX` v4 payloads whose pages include the hybrid
/// exact tier's Roaring containers (each a self-checking `ROAR`
/// stream, so the scrubber can quarantine one damaged container and
/// the service rebuild it bit-identically).
pub const VERSION: u16 = 3;
/// Fixed byte length of the meaningful meta-page prefix.
pub const HEADER_LEN: usize = 34;

/// Default page size: one common 4 KiB filesystem block.
pub const DEFAULT_PAGE_SIZE: u32 = 4096;
/// Smallest accepted page size (tests use small pages to exercise
/// many-page files on tiny datasets).
pub const MIN_PAGE_SIZE: u32 = 64;
/// Largest accepted page size.
pub const MAX_PAGE_SIZE: u32 = 1 << 20;

/// Whether `page_size` is acceptable for [`encode`]/decode.
pub fn valid_page_size(page_size: u32) -> bool {
    page_size.is_power_of_two() && (MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size)
}

/// The decoded meta page plus the derived page geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreHeader {
    /// Store format version.
    pub version: u16,
    /// Page size in bytes.
    pub page_size: u32,
    /// Exact payload (`ABSH`) byte length.
    pub payload_len: u64,
    /// CRC-32 over the whole payload.
    pub payload_crc: u32,
    /// CRC-32 over the page-CRC table bytes.
    pub table_crc: u32,
    /// Shard count cached from the envelope.
    pub shard_count: u32,
}

impl StoreHeader {
    /// Number of payload pages.
    pub fn payload_pages(&self) -> u64 {
        let ps = self.page_size as u64;
        self.payload_len.div_ceil(ps)
    }

    /// Number of pages holding the page-CRC table.
    pub fn table_pages(&self) -> u64 {
        let ps = self.page_size as u64;
        (self.payload_pages() * 4).div_ceil(ps).max(1)
    }

    /// Zero-based index of the first payload page.
    pub fn first_payload_page(&self) -> u64 {
        1 + self.table_pages()
    }

    /// Total pages in the file: meta + table + payload.
    pub fn total_pages(&self) -> u64 {
        self.first_payload_page() + self.payload_pages()
    }

    /// Exact file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// Byte offset of the first payload byte.
    pub fn payload_offset(&self) -> u64 {
        self.first_payload_page() * self.page_size as u64
    }
}

/// Encodes a complete store image for `payload` in memory. The
/// payload must be a well-formed `ABSH` envelope (the writer refuses
/// to persist garbage) and `page_size` must satisfy
/// [`valid_page_size`]. Returns the image and its header.
pub fn encode(payload: &[u8], page_size: u32) -> Result<(Vec<u8>, StoreHeader), StoreError> {
    if !valid_page_size(page_size) {
        return Err(StoreError::BadPageSize(page_size));
    }
    let extents = ab::segment_extents(payload)?;
    let header = StoreHeader {
        version: VERSION,
        page_size,
        payload_len: payload.len() as u64,
        payload_crc: ab::crc32(payload),
        table_crc: 0, // patched below
        shard_count: extents.len() as u32,
    };
    let ps = page_size as usize;
    let mut image = vec![0u8; header.file_len() as usize];

    // Payload pages (zero padding already in place).
    let payload_off = header.payload_offset() as usize;
    image[payload_off..payload_off + payload.len()].copy_from_slice(payload);

    // Page-CRC table: the CRC of each payload page *including* its
    // zero padding, so verification never needs the exact tail length.
    let table_off = ps;
    let (head, payload_pages) = image.split_at_mut(payload_off);
    for (i, page) in payload_pages.chunks(ps).enumerate() {
        let crc = ab::crc32(page);
        head[table_off + 4 * i..table_off + 4 * i + 4].copy_from_slice(&crc.to_le_bytes());
    }
    let table_len = header.table_pages() as usize * ps;
    let table_crc = ab::crc32(&image[table_off..table_off + table_len]);
    let header = StoreHeader {
        table_crc,
        ..header
    };

    // Meta page last, once every checksum is known.
    image[0..4].copy_from_slice(MAGIC);
    image[4..6].copy_from_slice(&header.version.to_le_bytes());
    image[6..10].copy_from_slice(&header.page_size.to_le_bytes());
    image[10..18].copy_from_slice(&header.payload_len.to_le_bytes());
    image[18..22].copy_from_slice(&header.payload_crc.to_le_bytes());
    image[22..26].copy_from_slice(&header.table_crc.to_le_bytes());
    image[26..30].copy_from_slice(&header.shard_count.to_le_bytes());
    let header_crc = ab::crc32(&image[0..30]);
    image[30..34].copy_from_slice(&header_crc.to_le_bytes());

    Ok((image, header))
}

/// Decodes and validates a meta page. `file_len`, when known, is
/// checked against the length the header implies — a truncated or
/// grown file is typed damage, not a decode surprise.
pub fn decode_header(meta: &[u8], file_len: Option<u64>) -> Result<StoreHeader, StoreError> {
    if meta.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            expected: HEADER_LEN as u64,
            actual: meta.len() as u64,
        });
    }
    if &meta[0..4] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u16::from_le_bytes([meta[4], meta[5]]);
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let stored = u32::from_le_bytes(meta[30..34].try_into().unwrap());
    let computed = ab::crc32(&meta[0..30]);
    if stored != computed {
        obs::counter!("store.header_crc_failures").inc();
        return Err(StoreError::HeaderCrc { stored, computed });
    }
    let page_size = u32::from_le_bytes(meta[6..10].try_into().unwrap());
    if !valid_page_size(page_size) {
        return Err(StoreError::BadPageSize(page_size));
    }
    let header = StoreHeader {
        version,
        page_size,
        payload_len: u64::from_le_bytes(meta[10..18].try_into().unwrap()),
        payload_crc: u32::from_le_bytes(meta[18..22].try_into().unwrap()),
        table_crc: u32::from_le_bytes(meta[22..26].try_into().unwrap()),
        shard_count: u32::from_le_bytes(meta[26..30].try_into().unwrap()),
    };
    if meta.len() < page_size as usize && file_len.is_none() {
        return Err(StoreError::Truncated {
            expected: page_size as u64,
            actual: meta.len() as u64,
        });
    }
    if let Some(actual) = file_len {
        let expected = header.file_len();
        if actual != expected {
            return Err(StoreError::Truncated { expected, actual });
        }
    }
    Ok(header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::sample_payload;

    #[test]
    fn geometry_is_consistent() {
        let payload = sample_payload(200, 3);
        let (image, h) = encode(&payload, 128).unwrap();
        assert_eq!(image.len() as u64, h.file_len());
        assert_eq!(image.len() % 128, 0);
        assert_eq!(h.payload_len as usize, payload.len());
        assert_eq!(h.payload_pages(), (payload.len() as u64).div_ceil(128));
        assert_eq!(
            h.table_pages(),
            (h.payload_pages() * 4).div_ceil(128).max(1)
        );
        assert_eq!(
            &image[h.payload_offset() as usize..h.payload_offset() as usize + payload.len()],
            &payload[..]
        );
        // The decoded header round-trips.
        let back = decode_header(&image[..h.page_size as usize], Some(image.len() as u64)).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn page_sizes_are_validated() {
        let payload = sample_payload(64, 2);
        assert!(matches!(
            encode(&payload, 100),
            Err(StoreError::BadPageSize(100))
        ));
        assert!(matches!(
            encode(&payload, 32),
            Err(StoreError::BadPageSize(32))
        ));
        assert!(encode(&payload, MIN_PAGE_SIZE).is_ok());
        assert!(encode(&payload, DEFAULT_PAGE_SIZE).is_ok());
    }

    #[test]
    fn garbage_payload_refused() {
        assert!(matches!(
            encode(b"this is not an ABSH envelope....", 64),
            Err(StoreError::Payload(_))
        ));
    }

    #[test]
    fn only_the_written_version_decodes() {
        let payload = sample_payload(100, 2);
        let (image, _) = encode(&payload, 64).unwrap();
        let flen = Some(image.len() as u64);
        // 1 (pre-pyramid) and 2 (pre-hybrid) were once readable; 0 and
        // 4 never were. With the header CRC resealed or left stale,
        // the version is refused before anything else is looked at.
        for v in [0u16, 1, 2, VERSION + 1] {
            let mut meta = image[..64].to_vec();
            meta[4..6].copy_from_slice(&v.to_le_bytes());
            assert!(matches!(
                decode_header(&meta, flen),
                Err(StoreError::UnsupportedVersion(got)) if got == v
            ));
            let crc = ab::crc32(&meta[0..30]);
            meta[30..34].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                decode_header(&meta, flen),
                Err(StoreError::UnsupportedVersion(got)) if got == v
            ));
        }
    }

    #[test]
    fn header_damage_is_typed() {
        let payload = sample_payload(100, 2);
        let (image, h) = encode(&payload, 64).unwrap();
        let meta = &image[..64];
        let flen = Some(image.len() as u64);

        let mut bad = meta.to_vec();
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_header(&bad, flen),
            Err(StoreError::BadMagic)
        ));

        let mut bad = meta.to_vec();
        bad[4] = 0x7F;
        assert!(matches!(
            decode_header(&bad, flen),
            Err(StoreError::UnsupportedVersion(_))
        ));

        // Any flip in the covered prefix trips the header CRC.
        for pos in 6..30 {
            let mut bad = meta.to_vec();
            bad[pos] ^= 0x01;
            assert!(
                matches!(decode_header(&bad, flen), Err(StoreError::HeaderCrc { .. })),
                "flip at {pos} not caught"
            );
        }

        // Wrong file length is truncation, even with a clean header.
        assert!(matches!(
            decode_header(meta, Some(image.len() as u64 - 64)),
            Err(StoreError::Truncated { .. })
        ));
        let _ = h;
    }
}
