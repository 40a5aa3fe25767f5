//! The crash matrix: kill the segment-store writer at **every**
//! injection point and prove the atomic-replace invariant — after any
//! simulated crash the store on disk is either the complete old state
//! or the complete new state, opens cleanly, and a retried write
//! always converges on the new state. Plus the serving-equivalence
//! half of the acceptance bar: a service loaded from a store file
//! answers rect / cells / batch queries bit-identically to one built
//! in RAM, across seeded datasets.

use ab::{AbConfig, Cell, Level};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
use std::path::PathBuf;
use std::sync::Arc;
use svc::chaos::{points, ChaosSegmentIo, Fault, FaultPlan, FaultRule};
use svc::{Service, ShardedIndex, SvcConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svc-crash-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic dataset, parameterised so each seed yields a
/// different table (rows, cardinalities, and value pattern all move).
fn dataset(seed: u64) -> BinnedTable {
    let rows = 400 + (seed as usize % 3) * 177;
    let card_a = 5 + (seed as usize % 4);
    let card_b = 3 + (seed as usize % 2);
    BinnedTable::new(vec![
        BinnedColumn::new(
            "a",
            (0..rows)
                .map(|i| ((i as u64 * (seed + 3)) % card_a as u64) as u32)
                .collect(),
            card_a as u32,
        ),
        BinnedColumn::new(
            "b",
            (0..rows)
                .map(|i| ((i as u64 + seed) % card_b as u64) as u32)
                .collect(),
            card_b as u32,
        ),
    ])
}

fn cfg() -> AbConfig {
    AbConfig::new(Level::PerAttribute).with_alpha(8)
}

fn payload_for(seed: u64, shards: usize) -> Vec<u8> {
    ShardedIndex::build(&dataset(seed), &cfg(), shards, false).to_bytes()
}

const PAGE: u32 = 256;

/// Every write-path injection point, with the state the destination
/// must be in after an EIO-crash there: the rename is the commit
/// point, so everything before it must leave the old state and
/// everything after it the new state.
const CRASH_MATRIX: &[(&str, bool)] = &[
    (points::STORE_CREATE, false),
    (points::STORE_WRITE, false),
    (points::STORE_SYNC_FILE, false),
    (points::STORE_RENAME, false),
    (points::STORE_SYNC_DIR, true),
];

#[test]
fn eio_crash_at_every_point_leaves_old_or_new_never_garbage() {
    let dir = tmpdir("matrix");
    let old = payload_for(1, 3);
    let new = payload_for(2, 3);
    assert_ne!(old, new);

    for &(point, expect_new) in CRASH_MATRIX {
        let path = dir.join(format!("{}.seg", point.replace('.', "-")));
        store::write(&path, &old, PAGE, &store::RealIo).unwrap();

        let plan =
            Arc::new(FaultPlan::new(7).with_rule(FaultRule::new(point, Fault::Eio).max_fires(1)));
        let chaos = ChaosSegmentIo::new(Arc::clone(&plan));
        let err = store::write(&path, &new, PAGE, &chaos).expect_err("injected EIO must surface");
        assert!(
            matches!(err, store::StoreError::Io(_)),
            "{point}: expected Io error, got {err:?}"
        );
        assert_eq!(plan.fires(point), 1, "{point}: rule must have fired");

        // Invariant: the destination opens cleanly and is exactly the
        // complete old or complete new payload — never torn.
        let st = store::Store::open(&path)
            .unwrap_or_else(|e| panic!("{point}: store unreadable after crash: {e}"));
        let expected: &[u8] = if expect_new { &new } else { &old };
        assert_eq!(
            st.payload(),
            expected,
            "{point}: wrong state after crash (expected {})",
            if expect_new { "new" } else { "old" }
        );
        drop(st);

        // The rule is spent (max_fires 1): the retry goes through the
        // same chaos io and must converge on the new state.
        store::write(&path, &new, PAGE, &chaos).unwrap();
        assert_eq!(store::Store::open(&path).unwrap().payload(), &new[..]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn short_write_tears_the_temp_file_not_the_store() {
    let dir = tmpdir("short");
    let path = dir.join("idx.seg");
    let old = payload_for(3, 2);
    let new = payload_for(4, 2);
    store::write(&path, &old, PAGE, &store::RealIo).unwrap();

    let plan = Arc::new(
        FaultPlan::new(11)
            .with_rule(FaultRule::new(points::STORE_WRITE, Fault::ShortWrite).max_fires(1)),
    );
    let chaos = ChaosSegmentIo::new(plan);
    store::write(&path, &new, PAGE, &chaos).expect_err("short write must surface");

    // The torn image only ever existed under the temp name; the
    // destination still opens as the complete old payload.
    assert_eq!(store::Store::open(&path).unwrap().payload(), &old[..]);
    store::write(&path, &new, PAGE, &chaos).unwrap();
    assert_eq!(store::Store::open(&path).unwrap().payload(), &new[..]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flipped_byte_during_write_fails_open_typed_never_serves_garbage() {
    let dir = tmpdir("flip");
    let old = payload_for(5, 2);
    let new = payload_for(6, 2);

    // The flip offset is seed-deterministic; sweep seeds so the flip
    // lands in different file regions (header, table, payload) across
    // iterations — every single one must be caught at open.
    for seed in 0..16u64 {
        let path = dir.join(format!("flip-{seed}.seg"));
        store::write(&path, &old, PAGE, &store::RealIo).unwrap();
        let plan = Arc::new(FaultPlan::new(seed).with_rule(
            FaultRule::new(points::STORE_WRITE, Fault::FlipByte { xor: 0x20 }).max_fires(1),
        ));
        let chaos = ChaosSegmentIo::new(plan);
        // The write itself "succeeds": the corruption is silent, the
        // torn image gets renamed in — exactly the case the per-page
        // CRCs exist for.
        store::write(&path, &new, PAGE, &chaos).unwrap();
        let err = store::Store::open(&path).expect_err("flipped image must not open");
        assert!(
            !matches!(err, store::StoreError::Io(_)),
            "seed {seed}: expected a structural (CRC) error, got {err:?}"
        );
        // Recovery: rewrite through the spent plan, now clean.
        store::write(&path, &new, PAGE, &chaos).unwrap();
        assert_eq!(store::Store::open(&path).unwrap().payload(), &new[..]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_loaded_service_answers_bit_identically_to_in_ram() {
    let dir = tmpdir("equiv");
    for seed in [10u64, 11, 12] {
        let table = dataset(seed);
        let rows = table.num_rows();
        let shards = 2 + (seed as usize % 3);
        let index = ShardedIndex::build(&table, &cfg(), shards, false);
        let svc_cfg = SvcConfig {
            threads: 2,
            shards,
            ..SvcConfig::default()
        };
        let in_ram =
            Service::from_index(ShardedIndex::build(&table, &cfg(), shards, false), &svc_cfg);

        let path = dir.join(format!("equiv-{seed}.seg"));
        store::write(&path, &index.to_bytes(), PAGE, &store::RealIo).unwrap();

        let st = store::Store::open(&path).unwrap();
        let loaded = Service::from_index(ShardedIndex::from_bytes(st.payload()).unwrap(), &svc_cfg);

        // Rect queries across both attributes.
        let rects = [
            RectQuery::new(vec![AttrRange::new(0, 0, 1)], 0, rows - 1),
            RectQuery::new(
                vec![AttrRange::new(0, 1, 3), AttrRange::new(1, 0, 1)],
                rows / 4,
                rows - 1,
            ),
            RectQuery::new(vec![AttrRange::new(1, 0, 0)], 0, rows / 2),
        ];
        for q in &rects {
            assert_eq!(
                in_ram.try_query_rect(q).unwrap().value,
                loaded.try_query_rect(q).unwrap().value,
                "seed {seed}: rect mismatch"
            );
        }
        // Cell probes, including certain-absent and present cells.
        let cells: Vec<Cell> = (0..rows)
            .step_by(7)
            .map(|r| Cell::new(r, 0, (r % 5) as u32))
            .collect();
        assert_eq!(
            in_ram.try_retrieve_cells(&cells).unwrap().value,
            loaded.try_retrieve_cells(&cells).unwrap().value,
            "seed {seed}: cells mismatch"
        );
        // Batched rects take the grouped fan-out path.
        assert_eq!(
            in_ram.try_query_batch(&rects).unwrap().value,
            loaded.try_query_batch(&rects).unwrap().value,
            "seed {seed}: batch mismatch"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
