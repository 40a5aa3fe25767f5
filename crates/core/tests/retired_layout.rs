//! `ABIX` 6 and `ABSH` 3 are `ABIX` 5 and `ABSH` 2 with their checksums
//! cut out, and nothing else changed.
//!
//! The fixtures under `fixtures/v5/` are the bytes the last `ABIX` 5 /
//! `ABSH` 2 writer produced for the seeded indexes built below: the
//! three levels, a pyramid, an exact tier, and a 3-shard envelope
//! carrying both tiers. The retired fields are the record CRC after the
//! `ABIX` version, the per-segment CRC after each `ABSH` length, and
//! each exact container's length prefix and `ROAR` header (magic,
//! version, CRC) in front of its body. Cutting them out (and bumping
//! the versions, and re-deriving each segment's length) must give the
//! current writer's bytes exactly, so every answer an old file gave,
//! a rebuilt file gives too. The old files themselves are refused.

use ab::{AbConfig, AbIndex, HierConfig, HierLevelSpec, HybridAb, HybridConfig, IoError, Level};
use bitmap::{BinnedColumn, BinnedTable};

/// The table of `ab::io`'s `serialized_index_bytes_are_pinned`.
fn table() -> BinnedTable {
    let column = |name: &str, salt: u64, card: u32| {
        BinnedColumn::new(
            name,
            (0..300u64)
                .map(|i| (hashkit::splitmix64(i ^ salt) % card as u64) as u32)
                .collect(),
            card,
        )
    };
    BinnedTable::new(vec![column("a", 0x51, 7), column("b", 0xB0B, 80)])
}

fn config(level: Level) -> AbConfig {
    AbConfig::new(level).with_alpha(16).with_k(12)
}

fn hier() -> HierConfig {
    HierConfig {
        levels: vec![
            HierLevelSpec {
                row_span: 16,
                bin_group: 2,
            },
            HierLevelSpec {
                row_span: 64,
                bin_group: 8,
            },
        ],
    }
}

fn hybrid() -> HybridConfig {
    HybridConfig {
        min_density: 0.0,
        ..Default::default()
    }
}

/// Each `ABIX` fixture with the index it was written from.
fn abix_fixtures() -> Vec<(&'static str, &'static [u8], AbIndex)> {
    let t = table();
    let level = |level| AbIndex::build(&t, &config(level));
    let mut tiered = level(Level::PerAttribute);
    tiered.ensure_hier(&hier());
    let mut exact = level(Level::PerAttribute);
    exact.ensure_hybrid(&t, &hybrid());
    vec![
        (
            "dataset",
            include_bytes!("fixtures/v5/dataset.abix"),
            level(Level::PerDataset),
        ),
        (
            "attribute",
            include_bytes!("fixtures/v5/attribute.abix"),
            level(Level::PerAttribute),
        ),
        (
            "column",
            include_bytes!("fixtures/v5/column.abix"),
            level(Level::PerColumn),
        ),
        ("hier", include_bytes!("fixtures/v5/hier.abix"), tiered),
        ("hybrid", include_bytes!("fixtures/v5/hybrid.abix"), exact),
    ]
}

/// The shards of the `ABSH` fixture, each with a pyramid and an exact
/// tier.
fn shards() -> Vec<(u64, AbIndex)> {
    let t = table();
    ab::shard_ranges(t.num_rows(), 3)
        .into_iter()
        .map(|r| {
            let mut index = AbIndex::build_row_range(&t, &config(Level::PerAttribute), r.clone());
            index.ensure_hier(&hier());
            let tier = HybridAb::build_row_range(&index, &t, r.clone(), &hybrid());
            index.attach_hybrid(tier);
            (r.start as u64, index)
        })
        .collect()
}

fn le_u64(b: &[u8], at: usize) -> usize {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize
}

/// `old` (an `ABIX` 5 record of `index`) with its retired fields cut.
fn cut_abix(old: &[u8], index: &AbIndex) -> Vec<u8> {
    let mut new = old[..4].to_vec();
    new.extend_from_slice(&6u16.to_le_bytes());
    // Up to the hybrid flag the layouts differ only by the CRC, so the
    // flag sits where the current writer puts it for the tier-less
    // index, 4 bytes on.
    let tierless = AbIndex::from_parts(
        index.level(),
        index.abs().to_vec(),
        index.attributes().to_vec(),
        index.num_rows(),
        index.hier().cloned(),
        None,
    );
    let flag = ab::to_bytes(&tierless).len() - 1 + 4;
    let Some(tier) = index.hybrid() else {
        new.extend_from_slice(&old[10..]);
        return new;
    };
    // Flag, min_density, verify_cost, total_bins, bin count; then per
    // bin: attribute, bin, length, and a `ROAR` stream of that length
    // whose body follows a 10-byte header.
    let mut pos = flag + 25;
    new.extend_from_slice(&old[10..pos]);
    for _ in tier.bins() {
        let len = le_u64(old, pos + 8);
        new.extend_from_slice(&old[pos..pos + 8]);
        new.extend_from_slice(&old[pos + 26..pos + 16 + len]);
        pos += 16 + len;
    }
    assert_eq!(pos, old.len(), "the exact tier ends the record");
    new
}

/// `old` (an `ABSH` 2 envelope of `shards`) with its retired fields
/// cut, each segment's length re-derived.
fn cut_absh(old: &[u8], shards: &[(u64, AbIndex)]) -> Vec<u8> {
    let mut new = old[..4].to_vec();
    new.extend_from_slice(&3u16.to_le_bytes());
    new.extend_from_slice(&old[6..10]);
    let mut pos = 10;
    for (_, index) in shards {
        let len = le_u64(old, pos + 8);
        let blob = cut_abix(&old[pos + 20..pos + 20 + len], index);
        new.extend_from_slice(&old[pos..pos + 8]);
        new.extend_from_slice(&(blob.len() as u64).to_le_bytes());
        new.extend_from_slice(&blob);
        pos += 20 + len;
    }
    assert_eq!(pos, old.len(), "the last segment ends the envelope");
    new
}

#[test]
fn current_bytes_are_the_v5_fixtures_with_the_retired_fields_cut_out() {
    for (name, old, index) in abix_fixtures() {
        assert!(ab::to_bytes(&index) == cut_abix(old, &index), "{name}");
    }
    let shards = shards();
    let refs: Vec<(u64, &AbIndex)> = shards.iter().map(|(s, i)| (*s, i)).collect();
    let old = include_bytes!("fixtures/v5/shards.absh");
    assert!(
        ab::shards_to_bytes(&refs) == cut_absh(old, &shards),
        "shards"
    );
}

#[test]
fn every_v5_fixture_is_refused_as_unsupported() {
    for (name, old, _) in abix_fixtures() {
        let got = ab::from_bytes(old).map(|_| ());
        assert_eq!(got, Err(IoError::UnsupportedVersion(5)), "{name}");
    }
    let old = include_bytes!("fixtures/v5/shards.absh");
    let want = Err(IoError::UnsupportedVersion(2));
    assert_eq!(ab::shards_from_bytes(old).map(|_| ()), want);
    assert_eq!(ab::segment_extents(old).map(|_| ()), want);
}
