//! Opening, verifying, scrubbing and rewriting segment stores.
//!
//! [`Store::open`] reads the whole file once, with positioned reads,
//! into two buffers (meta and table pages; payload), and is strict:
//! header, meta-page padding, page-CRC table, every payload page, and
//! the payload envelope must all verify before any caller sees a byte
//! — a torn or rotted file is a typed [`StoreError`], never a wrong
//! answer. The store then holds that verified copy for its lifetime
//! ([`Store::payload`]).
//!
//! [`Store::scrub`] is the online re-verification pass: it re-reads
//! every page **from the file** and reports pages that no longer match
//! the verified copy, mapped back to the shards whose payload bytes
//! they cover. [`Store::rewrite`] repairs such a file from the verified
//! copy. [`Store::audit`] is the offline flavour for `abq verify` and
//! `abq scrub`: the same sweep, but against a file nobody has open.

use crate::format::{self, StoreHeader};
use crate::io::SegmentIo;
use crate::sys::read_exact_at;
use crate::StoreError;
use ab::SegmentExtent;
use std::fs::File;
use std::path::{Path, PathBuf};

/// Capacity the verified payload is allocated with, at least. The
/// payload lives as long as its store, so it must not be carved out of
/// the heap: freed there, it would leave a payload-sized hole that
/// stays resident until later allocations happen to fit into it.
/// glibc's `malloc` gives a request this large a mapping of its own at
/// any setting of its adaptive threshold (which never rises above
/// 32 MiB) and unmaps it on free; only the payload's pages are ever
/// touched.
const OWN_MAPPING_BYTES: usize = 32 << 20;

/// Whether a meta page's padding (bytes past the checksummed header)
/// is all zero — the one region no CRC covers, so it must hold its
/// written-as-zero value exactly.
fn meta_padding_is_zero(meta: &[u8]) -> bool {
    meta[format::HEADER_LEN..].iter().all(|&b| b == 0)
}

/// Checks `payload` against the header's whole-payload CRC.
fn check_payload_crc(header: &StoreHeader, payload: &[u8]) -> Result<(), StoreError> {
    let computed = ab::crc32(payload);
    if computed != header.payload_crc {
        obs::counter!("store.page_crc_failures").inc();
        return Err(StoreError::PageCrc {
            page: header.first_payload_page(),
            stored: header.payload_crc,
            computed,
        });
    }
    Ok(())
}

/// The per-payload-page CRCs a page-CRC table holds.
fn page_crcs(header: &StoreHeader, table: &[u8]) -> Vec<u32> {
    (0..header.payload_pages() as usize)
        .map(|i| u32::from_le_bytes(table[4 * i..4 * i + 4].try_into().unwrap()))
        .collect()
}

/// Outcome of one full page sweep ([`Store::scrub`] / [`Store::audit`]).
#[derive(Clone, Debug)]
pub struct ScrubReport {
    /// Pages examined (meta + table + payload).
    pub pages_scanned: u64,
    /// Zero-based file page indexes that failed verification.
    pub bad_pages: Vec<u64>,
    /// Shards a bad page implicates, conservatively. The extents come
    /// from the payload's own segment headers, which may be damaged
    /// too, so a bad page implicates each shard whose bytes it covers,
    /// a shard whose fixed header it holds **and every later one**
    /// (their offsets were walked through it), and every shard when it
    /// is a meta or table page or the first payload page (which holds
    /// the envelope header). Shards whose extents the walk did not
    /// reach are implicated by any bad page.
    pub bad_shards: Vec<usize>,
}

impl ScrubReport {
    /// Whether every page verified.
    pub fn clean(&self) -> bool {
        self.bad_pages.is_empty()
    }

    /// Maps bad file pages to the shards they implicate, as
    /// [`ScrubReport::bad_shards`] states; `extents` is `None` when the
    /// envelope does not walk at all.
    fn new(header: &StoreHeader, extents: Option<&[SegmentExtent]>, bad_pages: Vec<u64>) -> Self {
        let shards = header.shard_count as usize;
        let ps = header.page_size as usize;
        let payload_first = header.first_payload_page();
        let mut bad = vec![false; shards];
        for &page in &bad_pages {
            // Every shard from `from` on is implicated.
            let from = match extents {
                Some(extents) if page > payload_first => {
                    let lo = (page - payload_first) as usize * ps;
                    let hits = |start: usize, end: usize| start < lo + ps && lo < end;
                    let mut from = extents.len();
                    for e in extents.iter().take(shards) {
                        if hits(e.offset, e.offset + ab::SEGMENT_HEADER_LEN) {
                            from = e.shard;
                            break;
                        }
                        bad[e.shard] |= hits(e.offset, e.offset + e.len);
                    }
                    from
                }
                _ => 0,
            };
            bad[from.min(shards)..].fill(true);
        }
        ScrubReport {
            pages_scanned: header.total_pages(),
            bad_pages,
            bad_shards: (0..shards).filter(|&s| bad[s]).collect(),
        }
    }
}

/// An open, fully-verified segment store.
pub struct Store {
    file: File,
    /// The meta and table pages as read and verified at open; scrub
    /// compares the file's against them.
    meta: Vec<u8>,
    /// The payload pages as read and verified at open: what callers
    /// decode and what [`Store::rewrite`] writes back.
    payload: Vec<u8>,
    header: StoreHeader,
    /// Per-payload-page CRCs captured (and verified) at open.
    crcs: Vec<u32>,
    extents: Vec<SegmentExtent>,
    path: PathBuf,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("path", &self.path)
            .field("header", &self.header)
            .field("shards", &self.extents.len())
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Reads the whole file and verifies it.
    pub fn open(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let mut head = vec![0u8; format::HEADER_LEN.min(file_len as usize)];
        read_exact_at(&file, &mut head, 0)?;
        // The header is checked before the file is read whole: a file
        // that is not a store is never buffered.
        let header = format::decode_header(&head, Some(file_len))?;
        let ps = header.page_size as usize;
        let payload_off = header.payload_offset() as usize;
        let payload_len = header.payload_len as usize;
        let mut meta = vec![0u8; payload_off];
        read_exact_at(&file, &mut meta, 0)?;
        let pages_len = file_len as usize - payload_off;
        let mut payload = Vec::with_capacity(pages_len.max(OWN_MAPPING_BYTES));
        payload.resize(pages_len, 0);
        read_exact_at(&file, &mut payload, payload_off as u64)?;

        // Nothing in a store file may rot silently: the meta page's
        // padding (the only region no checksum covers) must stay zero.
        if !meta_padding_is_zero(&meta[..ps]) {
            obs::counter!("store.page_crc_failures").inc();
            return Err(StoreError::PageCrc {
                page: 0,
                stored: 0,
                computed: ab::crc32(&meta[format::HEADER_LEN..ps]),
            });
        }

        // Verify the page-CRC table against the header, then every
        // payload page against the table: that covers every payload
        // byte once, and the header CRC covers `payload_len`, so the
        // whole-payload CRC would catch nothing more here.
        let table = &meta[ps..];
        let computed = ab::crc32(table);
        if computed != header.table_crc {
            obs::counter!("store.page_crc_failures").inc();
            return Err(StoreError::TableCrc {
                stored: header.table_crc,
                computed,
            });
        }
        let crcs = page_crcs(&header, table);
        for (i, page) in payload.chunks(ps).enumerate() {
            let computed = ab::crc32(page);
            if computed != crcs[i] {
                obs::counter!("store.page_crc_failures").inc();
                return Err(StoreError::PageCrc {
                    page: header.first_payload_page() + i as u64,
                    stored: crcs[i],
                    computed,
                });
            }
        }
        // Only the tail of the last page is padding; what is kept is
        // the envelope.
        payload.truncate(payload_len);
        let extents = ab::segment_extents(&payload)?;
        if extents.len() != header.shard_count as usize {
            return Err(StoreError::Payload(ab::IoError::BadShardLayout));
        }
        obs::counter!("store.opens").inc();
        Ok(Store {
            file,
            meta,
            payload,
            header,
            crcs,
            extents,
            path,
        })
    }

    /// Same as [`Store::open`]: the flag once chose between two read
    /// paths and is ignored. Kept because the benchmark package calls
    /// this form.
    pub fn open_with(path: impl AsRef<Path>, _force_pread: bool) -> Result<Store, StoreError> {
        Store::open(path)
    }

    /// The verified `ABSH` payload, as read at open.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The decoded header.
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    /// Shard count recorded in the envelope.
    pub fn num_shards(&self) -> usize {
        self.extents.len()
    }

    /// Per-shard byte extents within the payload.
    pub fn extents(&self) -> &[SegmentExtent] {
        &self.extents
    }

    /// The path this store was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-verifies every page by re-reading the **file** (positioned
    /// reads): meta and table pages must still equal the copy verified
    /// at open, payload pages must still hash to their table entries.
    /// Runs under live traffic — the held copy and the query path are
    /// untouched.
    pub fn scrub(&self) -> std::io::Result<ScrubReport> {
        let ps = self.header.page_size as usize;
        let payload_first = self.header.first_payload_page();
        let mut buf = vec![0u8; ps];
        let mut bad_pages = Vec::new();
        for page in 0..self.header.total_pages() {
            if read_exact_at(&self.file, &mut buf, page * ps as u64).is_err() {
                // Shrunk or unreadable page: damaged by definition.
                bad_pages.push(page);
                continue;
            }
            let ok = if page < payload_first {
                let off = page as usize * ps;
                buf[..] == self.meta[off..off + ps]
            } else {
                ab::crc32(&buf) == self.crcs[(page - payload_first) as usize]
            };
            if !ok {
                bad_pages.push(page);
            }
        }
        if !bad_pages.is_empty() {
            obs::counter!("store.scrub.crc_errors").add(bad_pages.len() as u64);
        }
        obs::counter!("store.scrub.pages").add(self.header.total_pages());
        Ok(ScrubReport::new(
            &self.header,
            Some(&self.extents),
            bad_pages,
        ))
    }

    /// Repairs the file from the copy verified at open and returns the
    /// verified reopen. The held payload is re-checked against the
    /// header's `payload_crc` first, so a copy that changed in memory
    /// is never written out; it then goes through the crash-safe
    /// [`write()`](crate::write) protocol at the file's own page size,
    /// which reproduces the opened file byte for byte.
    pub fn rewrite(&self, io: &dyn SegmentIo) -> Result<Store, StoreError> {
        check_payload_crc(&self.header, self.payload())?;
        crate::writer::write(&self.path, self.payload(), self.header.page_size, io)?;
        Store::open(&self.path)
    }

    /// Offline page sweep for `abq verify` and `abq scrub`: like
    /// [`Store::scrub`] but without requiring a clean open. Only
    /// the header itself and the page-CRC table must verify; damaged
    /// meta-page padding and damaged payload pages are reported rather
    /// than failing fast. Also hands back the payload as read, damage
    /// included, so a caller can rebuild just the shards it implicates.
    pub fn audit(
        path: impl AsRef<Path>,
    ) -> Result<(StoreHeader, ScrubReport, Vec<u8>), StoreError> {
        let file = File::open(path.as_ref())?;
        let file_len = file.metadata()?.len();
        let mut head = vec![0u8; format::HEADER_LEN.min(file_len as usize)];
        read_exact_at(&file, &mut head, 0)?;
        let header = format::decode_header(&head, Some(file_len))?;
        let ps = header.page_size as usize;

        let mut meta = vec![0u8; ps];
        read_exact_at(&file, &mut meta, 0)?;
        let mut bad_pages = Vec::new();
        if !meta_padding_is_zero(&meta) {
            bad_pages.push(0);
        }

        let mut table = vec![0u8; header.table_pages() as usize * ps];
        read_exact_at(&file, &mut table, ps as u64)?;
        let computed = ab::crc32(&table);
        if computed != header.table_crc {
            return Err(StoreError::TableCrc {
                stored: header.table_crc,
                computed,
            });
        }
        let crcs = page_crcs(&header, &table);
        let payload_first = header.first_payload_page();
        let mut payload = vec![0u8; header.payload_pages() as usize * ps];
        read_exact_at(&file, &mut payload, payload_first * ps as u64)?;
        for (i, page) in payload.chunks(ps).enumerate() {
            if ab::crc32(page) != crcs[i] {
                bad_pages.push(payload_first + i as u64);
            }
        }
        payload.truncate(header.payload_len as usize);
        // Attribute damage to shards as far as the envelope still walks.
        let extents: Option<Vec<SegmentExtent>> = ab::segments(&payload)
            .ok()
            .map(|(_, walk)| walk.map_while(Result::ok).map(|(e, _)| e).collect());
        let report = ScrubReport::new(&header, extents.as_deref(), bad_pages);
        Ok((header, report, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RealIo;
    use crate::tests::{sample_payload, tmpdir};
    use crate::writer::write;
    use std::io::{Seek, SeekFrom, Write};

    fn flip_byte(path: &Path, offset: u64, xor: u8) {
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        let mut b = [0u8; 1];
        crate::sys::read_exact_at(&f, &mut b, offset).unwrap();
        f.seek(SeekFrom::Start(offset)).unwrap();
        f.write_all(&[b[0] ^ xor]).unwrap();
        f.sync_all().unwrap();
    }

    #[test]
    fn open_verifies_and_serves_the_payload() {
        let dir = tmpdir("reader");
        let path = dir.join("idx.seg");
        let payload = sample_payload(500, 4);
        write(&path, &payload, 256, &RealIo).unwrap();
        let st = Store::open(&path).unwrap();
        assert_eq!(st.payload(), &payload[..]);
        assert_eq!(st.num_shards(), 4);
        assert_eq!(st.extents().len(), 4);
        assert!(st.scrub().unwrap().clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn payload_flip_fails_open_with_page_error() {
        let dir = tmpdir("reader-flip");
        let path = dir.join("idx.seg");
        let payload = sample_payload(400, 3);
        write(&path, &payload, 128, &RealIo).unwrap();
        let st = Store::open(&path).unwrap();
        let victim = st.header().payload_offset() + st.header().payload_len / 2;
        drop(st);
        flip_byte(&path, victim, 0x40);
        match Store::open(&path) {
            Err(StoreError::PageCrc { page, .. }) => {
                assert!(page >= 2, "payload pages start after meta+table");
            }
            Err(other) => panic!("expected PageCrc, got {other:?}"),
            Ok(_) => panic!("open must fail on a flipped payload byte"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_detects_rot_under_a_live_store_and_names_the_shard() {
        let dir = tmpdir("reader-scrub");
        let path = dir.join("idx.seg");
        let payload = sample_payload(600, 4);
        write(&path, &payload, 128, &RealIo).unwrap();
        let st = Store::open(&path).unwrap();
        assert!(st.scrub().unwrap().clean());

        // Rot one byte in the middle of shard 2's extent.
        let e = st.extents()[2];
        let victim = st.header().payload_offset() + (e.offset + e.len / 2) as u64;
        flip_byte(&path, victim, 0x01);
        let report = st.scrub().unwrap();
        assert_eq!(report.bad_pages.len(), 1);
        assert!(report.bad_shards.contains(&2), "{report:?}");
        assert!(report.bad_shards.len() <= 2, "one page spans ≤ 2 shards");

        // Meta-page rot implicates every shard.
        flip_byte(&path, victim, 0x01); // restore payload
        assert!(st.scrub().unwrap().clean());
        flip_byte(&path, 40, 0xFF); // inside meta page padding
        let report = st.scrub().unwrap();
        assert_eq!(report.bad_pages, vec![0]);
        assert_eq!(report.bad_shards, vec![0, 1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_restores_the_file_and_refuses_a_changed_copy() {
        let dir = tmpdir("reader-rewrite");
        let path = dir.join("idx.seg");
        write(&path, &sample_payload(600, 4), 128, &RealIo).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let mut st = Store::open(&path).unwrap();

        // Rot on disk: the held copy rewrites the file byte for byte.
        let victim = st.header().payload_offset() + st.header().payload_len / 2;
        flip_byte(&path, victim, 0x08);
        assert!(!st.scrub().unwrap().clean());
        let reopened = st.rewrite(&RealIo).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), pristine);
        assert!(reopened.scrub().unwrap().clean());

        // A held copy that no longer matches its payload CRC is never
        // written out: the file stays as it is.
        st.payload[3] ^= 0x20;
        flip_byte(&path, victim, 0x08);
        let rotted = std::fs::read(&path).unwrap();
        assert!(matches!(
            st.rewrite(&RealIo),
            Err(StoreError::PageCrc { .. })
        ));
        assert_eq!(std::fs::read(&path).unwrap(), rotted);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn audit_reports_damage_without_a_clean_open() {
        let dir = tmpdir("reader-audit");
        let path = dir.join("idx.seg");
        let payload = sample_payload(500, 4);
        write(&path, &payload, 128, &RealIo).unwrap();
        let (h, report, read) = Store::audit(&path).unwrap();
        assert!(report.clean());
        assert_eq!(h.shard_count, 4);
        assert_eq!(read, payload);

        let victim = h.payload_offset() + h.payload_len - 2;
        flip_byte(&path, victim, 0x80);
        let (_, report, read) = Store::audit(&path).unwrap();
        assert_eq!(report.bad_pages.len(), 1);
        assert_eq!(report.bad_shards, vec![3], "last bytes = last shard");
        assert_eq!(read.len(), payload.len(), "the damaged payload comes back");
        assert_ne!(read, payload);

        // Meta-page padding rot is reported as page 0, not a failure.
        flip_byte(&path, victim, 0x80);
        flip_byte(&path, 40, 0xFF);
        let (_, report, read) = Store::audit(&path).unwrap();
        assert_eq!(report.bad_pages, vec![0]);
        assert_eq!(report.bad_shards, vec![0, 1, 2, 3]);
        assert_eq!(read, payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Rot in a segment's fixed header implicates that shard and every
    /// later one, since their extents were walked through it; rot in
    /// the envelope header, every shard.
    #[test]
    fn header_rot_implicates_every_later_shard() {
        let dir = tmpdir("reader-header");
        let path = dir.join("idx.seg");
        let payload = sample_payload(600, 4);
        write(&path, &payload, 128, &RealIo).unwrap();
        let st = Store::open(&path).unwrap();
        let (h, e) = (*st.header(), st.extents()[2]);
        drop(st);
        // The low byte of shard 2's start row: the envelope still
        // walks, and the page holds no byte of shard 3.
        let start_byte = h.payload_offset() + e.offset as u64;
        flip_byte(&path, start_byte, 0x01);
        let (_, report, _) = Store::audit(&path).unwrap();
        assert_eq!(report.bad_pages.len(), 1);
        let first = report.bad_shards[0];
        assert!(first <= 2, "{report:?}");
        assert_eq!(report.bad_shards, (first..4).collect::<Vec<_>>());
        flip_byte(&path, start_byte, 0x01);
        flip_byte(&path, h.payload_offset() + 7, 0x01); // shard count
        let (_, report, _) = Store::audit(&path).unwrap();
        assert_eq!(report.bad_shards, vec![0, 1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let dir = tmpdir("reader-trunc");
        let path = dir.join("idx.seg");
        write(&path, &sample_payload(300, 2), 128, &RealIo).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 128).unwrap();
        drop(f);
        assert!(matches!(
            Store::open(&path),
            Err(StoreError::Truncated { .. })
        ));
        assert!(matches!(
            Store::audit(&path),
            Err(StoreError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
