//! On-disk hardening sweep: truncate and bit-flip a real store file at
//! every offset stride and prove the contract — `Store::open` either
//! succeeds with the bit-identical payload or fails with a typed
//! [`StoreError`]; it never panics and never serves wrong bytes. This
//! mirrors `crates/net/tests/corruption.rs` for the wire format, and
//! the `corruption_sweep` test in `ab::io` for the bare envelope.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use store::{RealIo, Store, StoreError};

/// Small page size so a small payload still spans many pages and the
/// sweep exercises header, table, payload, and padding regions alike.
const PAGE: u32 = 64;

fn sample_payload(rows: usize, shards: usize) -> Vec<u8> {
    use ab::{AbConfig, AbIndex, Level};
    use bitmap::{BinnedColumn, BinnedTable};
    let table = BinnedTable::new(vec![
        BinnedColumn::new("a", (0..rows).map(|i| (i % 5) as u32).collect(), 5),
        BinnedColumn::new("b", (0..rows).map(|i| ((i * 7) % 3) as u32).collect(), 3),
    ]);
    let cfg = AbConfig::new(Level::PerAttribute).with_alpha(8);
    let segments: Vec<(u64, AbIndex)> = ab::shard_ranges(rows, shards)
        .into_iter()
        .map(|r| (r.start as u64, AbIndex::build_row_range(&table, &cfg, r)))
        .collect();
    let refs: Vec<(u64, &AbIndex)> = segments.iter().map(|(s, i)| (*s, i)).collect();
    ab::shards_to_bytes(&refs)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-corrupt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Opens a (possibly damaged) image written to `path` and asserts the
/// contract: `Ok` only with the exact original payload, `Err` only a
/// typed error, never a panic. Returns whether it opened.
fn open_must_behave(path: &Path, image: &[u8], original_payload: &[u8], what: &str) -> bool {
    std::fs::write(path, image).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| match Store::open(path) {
        Ok(st) => {
            assert_eq!(
                st.payload(),
                original_payload,
                "{what}: opened but served different bytes"
            );
            true
        }
        Err(
            StoreError::Io(_)
            | StoreError::BadMagic
            | StoreError::UnsupportedVersion(_)
            | StoreError::BadPageSize(_)
            | StoreError::Truncated { .. }
            | StoreError::HeaderCrc { .. }
            | StoreError::TableCrc { .. }
            | StoreError::PageCrc { .. }
            | StoreError::Payload(_),
        ) => false,
    }));
    match outcome {
        Ok(opened) => opened,
        Err(_) => panic!("{what}: Store::open panicked"),
    }
}

#[test]
fn truncation_sweep_never_panics_or_lies() {
    let dir = tmpdir("trunc");
    let path = dir.join("idx.seg");
    let payload = sample_payload(400, 3);
    store::write(&path, &payload, PAGE, &RealIo).unwrap();
    let image = std::fs::read(&path).unwrap();

    // Every prefix at a 13-byte stride (plus the empty file and the
    // one-byte-short file): none may open.
    let mut lens: Vec<usize> = (0..image.len()).step_by(13).collect();
    lens.push(image.len() - 1);
    for len in lens {
        let opened = open_must_behave(
            &path,
            &image[..len],
            &payload,
            &format!("truncate to {len}"),
        );
        assert!(!opened, "truncated file ({len} bytes) must not open");
    }
    // Trailing garbage is damage too: the format demands exact length.
    let mut long = image.clone();
    long.extend_from_slice(&[0xEE; 7]);
    assert!(!open_must_behave(&path, &long, &payload, "over-long file"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flip_sweep_never_panics_or_lies() {
    let dir = tmpdir("flip");
    let path = dir.join("idx.seg");
    let payload = sample_payload(300, 2);
    store::write(&path, &payload, PAGE, &RealIo).unwrap();
    let image = std::fs::read(&path).unwrap();

    // Flip one byte at a time across the whole file (3-byte stride,
    // three patterns hitting high bit, low bit, and full invert).
    let mut survivors = 0u32;
    for offset in (0..image.len()).step_by(3) {
        for pattern in [0x80u8, 0x01, 0xFF] {
            let mut bad = image.clone();
            bad[offset] ^= pattern;
            if open_must_behave(
                &path,
                &bad,
                &payload,
                &format!("flip {pattern:#04x}@{offset}"),
            ) {
                survivors += 1;
            }
        }
    }
    // A flip inside payload-page padding (zeros not covered by
    // payload_len) is still caught by the page CRCs — nothing in a
    // store file is allowed to rot silently, so no flip may survive.
    assert_eq!(survivors, 0, "every single-byte flip must be detected");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn random_damage_storms_are_typed() {
    let dir = tmpdir("storm");
    let path = dir.join("idx.seg");
    let payload = sample_payload(500, 4);
    store::write(&path, &payload, PAGE, &RealIo).unwrap();
    let image = std::fs::read(&path).unwrap();

    // Deterministic xorshift so failures replay.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..200 {
        let mut bad = image.clone();
        // 1–8 random flips, then maybe a truncation.
        for _ in 0..(next() % 8 + 1) {
            let off = (next() % bad.len() as u64) as usize;
            bad[off] ^= (next() % 255 + 1) as u8;
        }
        if next() % 4 == 0 {
            bad.truncate((next() % bad.len() as u64) as usize);
        }
        open_must_behave(&path, &bad, &payload, "storm");
    }
    // And the pristine image still opens clean afterwards.
    assert!(open_must_behave(&path, &image, &payload, "pristine"));
    std::fs::remove_dir_all(&dir).unwrap();
}
