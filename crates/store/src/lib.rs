//! # Crash-safe page-aligned segment store
//!
//! A bare `ABSH` envelope (see the `ab` crate) carries no checksum
//! and has no crash story: a torn write mid-file destroys everything.
//! This crate wraps an `ABSH` payload in an `ABPG` **segment file**,
//! whose page and payload CRCs are the index's one integrity layer:
//!
//! * the payload is split into fixed-size pages, each with its own
//!   CRC-32 in a dedicated table, so damage is localised to a page and
//!   mapped back to the shard(s) whose bytes it covers ([`Store::scrub`]);
//! * the write path ([`write()`]) is crash-safe *by construction*: the
//!   full image is written to a sibling temp file, fsynced, atomically
//!   renamed over the destination, and the directory fsynced — a crash
//!   at any point leaves either the complete old file or the complete
//!   new file, never a torn state;
//! * every write-path syscall goes through the [`SegmentIo`] trait, so
//!   a fault-injecting implementation (see `svc::chaos`) can simulate
//!   `EIO`, short writes, bit flips, and crashes at each point;
//! * the read path ([`Store::open`]) reads the file once, with
//!   positioned reads, into memory and verifies every byte of it.
//!   The store keeps that verified copy: callers decode the payload
//!   from it, and [`Store::rewrite`] repairs rot found later on disk
//!   from it, byte for byte.
//!
//! Module map: [`mod@format`] (on-disk layout), [`io`] ([`SegmentIo`] and
//! the real-syscall [`RealIo`]), [`sys`] (positioned reads),
//! [`writer`] (crash-safe write protocol), [`reader`] ([`Store`],
//! scrubbing, rewriting, audit).
//!
//! ## Quick start
//!
//! ```
//! use ab::{AbConfig, AbIndex, Level};
//! use bitmap::{BinnedColumn, BinnedTable};
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let table = BinnedTable::new(vec![BinnedColumn::new(
//!     "temp",
//!     (0..256).map(|i| (i % 8) as u32).collect(),
//!     8,
//! )]);
//! let index = AbIndex::build(&table, &AbConfig::new(Level::PerAttribute).with_alpha(8));
//! let payload = ab::shards_to_bytes(&[(0, &index)]);
//!
//! let path = dir.join("doc.seg");
//! store::write(&path, &payload, store::DEFAULT_PAGE_SIZE, &store::RealIo).unwrap();
//! let st = store::Store::open(&path).unwrap();
//! assert_eq!(st.payload(), &payload[..]);      // bit-identical round trip
//! assert!(st.scrub().unwrap().clean());        // every page CRC verifies
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod format;
pub mod io;
pub mod reader;
pub mod sys;
pub mod writer;

pub use format::{StoreHeader, DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, MIN_PAGE_SIZE};
pub use io::{RealIo, SegmentIo};
pub use reader::{ScrubReport, Store};
pub use writer::write;

/// Why a segment-store operation failed. I/O faults (including
/// injected ones) surface as [`StoreError::Io`]; every structural
/// problem has its own typed variant so callers can distinguish "the
/// file is not a store" from "the file is a store with bit-rot".
#[derive(Debug)]
pub enum StoreError {
    /// A syscall failed (or a fault-injection rule simulated one).
    Io(std::io::Error),
    /// Input does not start with the `ABPG` magic.
    BadMagic,
    /// Store format version not understood by this build.
    UnsupportedVersion(u16),
    /// Declared page size is not a power of two in
    /// [`MIN_PAGE_SIZE`]`..=`[`MAX_PAGE_SIZE`].
    BadPageSize(u32),
    /// The file is shorter (or longer) than the header demands.
    Truncated {
        /// Byte length the header implies.
        expected: u64,
        /// Byte length actually present.
        actual: u64,
    },
    /// The meta page's own CRC-32 does not verify.
    HeaderCrc {
        /// Checksum recorded at write time.
        stored: u32,
        /// Checksum recomputed over the received header.
        computed: u32,
    },
    /// The page-CRC table does not hash to the checksum recorded in
    /// the header — the table itself rotted.
    TableCrc {
        /// Checksum recorded at write time.
        stored: u32,
        /// Checksum recomputed over the received table.
        computed: u32,
    },
    /// One payload page does not hash to its table entry.
    PageCrc {
        /// Zero-based page index within the file.
        page: u64,
        /// Checksum recorded at write time.
        stored: u32,
        /// Checksum recomputed over the received page.
        computed: u32,
    },
    /// The payload itself is not a well-formed `ABSH` envelope.
    Payload(ab::IoError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::BadMagic => write!(f, "not a segment store (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::BadPageSize(p) => write!(f, "invalid page size {p}"),
            StoreError::Truncated { expected, actual } => {
                write!(
                    f,
                    "store truncated: expected {expected} bytes, got {actual}"
                )
            }
            StoreError::HeaderCrc { stored, computed } => write!(
                f,
                "header checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            StoreError::TableCrc { stored, computed } => write!(
                f,
                "page-CRC table checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            StoreError::PageCrc {
                page,
                stored,
                computed,
            } => write!(
                f,
                "page {page} checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            StoreError::Payload(e) => write!(f, "payload: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Payload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ab::IoError> for StoreError {
    fn from(e: ab::IoError) -> Self {
        StoreError::Payload(e)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use ab::{AbConfig, AbIndex, Level};
    use bitmap::{BinnedColumn, BinnedTable};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A deterministic table whose content depends on `rows`, so two
    /// differently-sized payloads are never byte-identical.
    pub fn sample_table(rows: usize) -> BinnedTable {
        BinnedTable::new(vec![
            BinnedColumn::new("a", (0..rows).map(|i| (i % 5) as u32).collect(), 5),
            BinnedColumn::new("b", (0..rows).map(|i| ((i * 7) % 3) as u32).collect(), 3),
        ])
    }

    /// A sharded `ABSH` payload over [`sample_table`].
    pub fn sample_payload(rows: usize, shards: usize) -> Vec<u8> {
        let table = sample_table(rows);
        let cfg = AbConfig::new(Level::PerAttribute).with_alpha(8);
        let segments: Vec<(u64, AbIndex)> = ab::shard_ranges(rows, shards)
            .into_iter()
            .map(|r| (r.start as u64, AbIndex::build_row_range(&table, &cfg, r)))
            .collect();
        let refs: Vec<(u64, &AbIndex)> = segments.iter().map(|(s, i)| (*s, i)).collect();
        ab::shards_to_bytes(&refs)
    }

    /// A fresh per-test scratch directory (unique per process + call).
    pub fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ab-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
