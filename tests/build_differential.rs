//! Build differential tests: everything set-up produces through the
//! lockstep probe loop (DESIGN.md §13) against the scalar reference
//! methods it replaced in the build paths.
//!
//! The batched insert ([`ApproximateBitmap::insert_cells`]) and the
//! pyramid's finest-level sweep are schedules, not algorithms: an index
//! they build must serialize to the bytes of one filled by scalar
//! [`ApproximateBitmap::insert`] calls, and a pyramid must hold exactly
//! the regions in which [`AbIndex::test_cell`] admits a cell. The
//! references here are derived from those two scalar methods directly
//! — `src/` keeps no copy of the old loops.

use ab::{
    AbConfig, AbIndex, ApproximateBitmap, HierAb, HierConfig, HierLevelSpec, HybridAb,
    HybridConfig, Level,
};
use bitmap::{BinnedColumn, BinnedTable};
use hashkit::{CellMapper, HashFamily};

/// The obs counters are process-wide and the tests of this file run on
/// parallel threads; the one that asserts exact deltas holds this for
/// writing, the others for reading while they build.
static COUNTERS: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// 1 931 rows — seven full 256-cell batches and a tail — × 3
/// attributes × 12 bins: two uniform, one clustered (each bin one
/// contiguous run), so a pyramid over it has empty regions, regions
/// only a false positive keeps alive, and full ones.
fn table() -> BinnedTable {
    let uniform = datagen::small_uniform(1931, 2, 12, 7).binned;
    let mut columns = uniform.columns().to_vec();
    columns.push(BinnedColumn::new(
        "clustered",
        (0..1931u32).map(|row| row / 161).collect(),
        12,
    ));
    BinnedTable::new(columns)
}

fn families() -> [HashFamily; 4] {
    [
        HashFamily::default_independent(),
        HashFamily::Sha1Split,
        HashFamily::DoubleHashing,
        HashFamily::ColumnGroup { num_columns: 1 },
    ]
}

/// Every (level, family, k) of the matrix: k = 6 stays inside the
/// 10-function roster, 10 ends on it, 22 runs the re-seeded probes.
fn configs(alpha: u64) -> Vec<AbConfig> {
    let mut out = Vec::new();
    for level in [Level::PerDataset, Level::PerAttribute, Level::PerColumn] {
        for family in families() {
            if level == Level::PerColumn && matches!(family, HashFamily::ColumnGroup { .. }) {
                continue; // the paper restricts it to the coarser levels
            }
            for k in [6, 10, 22] {
                out.push(
                    AbConfig::new(level)
                        .with_alpha(alpha)
                        .with_k(k)
                        .with_family(family.clone()),
                );
            }
        }
    }
    out
}

/// The (index into `abs`, column id) a set cell addresses at `level` —
/// the addressing of `level.rs`, restated.
fn slot(index: &AbIndex, attribute: usize, bin: u32) -> (usize, u64) {
    let global = index.attributes()[attribute].offset + bin as usize;
    match index.level() {
        Level::PerDataset => (0, global as u64),
        Level::PerAttribute => (attribute, u64::from(bin)),
        Level::PerColumn => (global, 0),
    }
}

/// `built`'s twin, filled one scalar `insert` at a time: same schema,
/// same AB parameters, every set cell of `table` inserted through the
/// `Prober` path. Returns it with the number of inserts made.
fn scalar_twin(built: &AbIndex, table: &BinnedTable) -> (AbIndex, u64) {
    let mut abs: Vec<ApproximateBitmap> = built
        .abs()
        .iter()
        .map(|ab| ApproximateBitmap::new(ab.n_bits(), ab.k(), ab.family().clone(), ab.mapper()))
        .collect();
    let mut inserts = 0;
    for (attribute, col) in table.columns().iter().enumerate() {
        for (row, &bin) in col.bins.iter().enumerate() {
            let (ab, column) = slot(built, attribute, bin);
            abs[ab].insert(row as u64, column);
            inserts += 1;
        }
    }
    let twin = AbIndex::from_parts(
        built.level(),
        abs,
        built.attributes().to_vec(),
        built.num_rows(),
        None,
        None,
    );
    (twin, inserts)
}

fn hash_calls() -> u64 {
    let snap = obs::global().snapshot();
    [
        "hashkit.hash_calls.independent",
        "hashkit.hash_calls.sha1_split",
        "hashkit.hash_calls.double_hashing",
        "hashkit.hash_calls.column_group",
    ]
    .iter()
    .map(|name| snap.counter(name))
    .sum()
}

/// An index built by the batched insert serializes to the bytes of one
/// filled by scalar inserts — at every level, for every family, inside
/// and past the roster, whole table or row range. (That building shards
/// on worker threads changes no byte is `svc`'s
/// `shard::tests::parallel_build_is_bit_identical`.)
#[test]
fn built_index_is_the_scalar_filled_index_byte_for_byte() {
    let _gate = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let table = table();
    for cfg in configs(8) {
        let built = AbIndex::build(&table, &cfg);
        let (twin, inserts) = scalar_twin(&built, &table);
        assert_eq!(inserts, (table.num_rows() * table.num_attributes()) as u64);
        assert_eq!(ab::to_bytes(&built), ab::to_bytes(&twin), "{cfg:?}");
        let shard = AbIndex::build_row_range(&table, &cfg, 300..1700);
        let (shard_twin, _) = scalar_twin(&shard, &table.slice_rows(300..1700));
        assert_eq!(ab::to_bytes(&shard), ab::to_bytes(&shard_twin), "{cfg:?}");
    }
}

/// A build moves `ab.build.insertions` by the number of scalar inserts
/// that fill its twin, and `hashkit.hash_calls.*` by what those inserts
/// move it: k per cell, flushed once per batched call instead of once
/// per `Prober`.
#[test]
fn build_moves_the_counters_the_scalar_fill_moves() {
    let _alone = COUNTERS.write().unwrap_or_else(|e| e.into_inner());
    let table = table();
    let insertions = obs::global().counter("ab.build.insertions");
    for cfg in configs(8) {
        let before = (insertions.get(), hash_calls());
        let built = AbIndex::build(&table, &cfg);
        let mid = (insertions.get(), hash_calls());
        let (_, inserts) = scalar_twin(&built, &table);
        let after = hash_calls();
        assert_eq!(mid.0 - before.0, inserts, "ab.build.insertions: {cfg:?}");
        assert_eq!(mid.1 - before.1, after - mid.1, "hash calls: {cfg:?}");
        assert_eq!(after - mid.1, inserts * cfg.k.unwrap() as u64);
    }
}

/// Past the roster a lockstep batch hashes the leading digits its
/// re-seeded keys share once per step, not once per probe: an in-order
/// build at α = 32 (k = 22, 12 re-seeded probes a cell) computes at most
/// two prefix states per re-seeded batch step — 256 in-order rows of its
/// 10-bin column span at most two prefixes of 10⁴ — the same number
/// every time, and a build that stays on the roster computes none.
#[test]
fn in_order_build_shares_its_seed_prefix_hashes() {
    let _alone = COUNTERS.write().unwrap_or_else(|e| e.into_inner());
    let table = datagen::small_uniform(65_536, 1, 10, 7).binned;
    let prefix_hashes = obs::global().counter("hashkit.seed_prefix_hashes");
    let build = |cfg: AbConfig| {
        let before = prefix_hashes.get();
        let index = AbIndex::build(&table, &cfg);
        (index.abs()[0].k() as u64, prefix_hashes.get() - before)
    };
    let past_the_roster = AbConfig::new(Level::PerAttribute).with_alpha(32);
    let (k, computed) = build(past_the_roster.clone());
    assert_eq!(k, 22);
    let reseeded_batch_steps = 65_536 / hashkit::LANES as u64 * (k - 10);
    assert!(computed > 0, "the re-seeded step was never taken");
    assert!(
        computed <= 2 * reseeded_batch_steps,
        "{computed} prefix states for {reseeded_batch_steps} re-seeded batch steps"
    );
    assert_eq!(build(past_the_roster).1, computed, "the count must repeat");
    assert_eq!(
        build(AbConfig::new(Level::PerAttribute).with_k(10)),
        (10, 0)
    );
}

/// The batched insert sets the scalar insert's bits in an AB of any
/// size — a power of two reduces by mask, a prime by modulo — under
/// both mappers, over keys of every length up to 20 digits.
#[test]
fn insert_cells_sets_the_bits_of_scalar_inserts() {
    let _gate = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    // Rows up to 2⁵⁹: shifted left by 5 the keys reach 20 digits.
    let cells: Vec<(u64, u64)> = (0..700u64)
        .map(|i| {
            let h = hashkit::splitmix64(i);
            (h >> (5 + i % 59), h % 16)
        })
        .collect();
    for family in families() {
        let family = match family {
            HashFamily::ColumnGroup { .. } => HashFamily::ColumnGroup { num_columns: 16 },
            other => other,
        };
        for mapper in [CellMapper::for_columns(16), CellMapper::RowOnly] {
            for n in [1u64 << 13, 8191] {
                for k in [6, 10, 22] {
                    let mut scalar = ApproximateBitmap::new(n, k, family.clone(), mapper);
                    for &(row, col) in &cells {
                        scalar.insert(row, col);
                    }
                    let mut batched = ApproximateBitmap::new(n, k, family.clone(), mapper);
                    batched.insert_cells(cells.iter().copied());
                    let ctx = format!("{family:?}, {mapper:?}, n = {n}, k = {k}");
                    assert_eq!(batched.bits(), scalar.bits(), "{ctx}");
                    assert_eq!(batched.inserted(), scalar.inserted(), "{ctx}");
                }
            }
        }
    }
}

/// The batched insert on runs of nearby keys — the batches whose keys
/// split into a prefix and their last digits — sets the scalar insert's
/// bits on every edge of the split: runs across a multiple of 10⁴ and
/// across 10⁷ and 10⁸ (two digit counts in one batch), keys at more
/// distinct prefixes than a batch holds (which split at 10⁸ instead, or
/// not at all), and keys below the split. Every roster function alone
/// and the default roster, k = 6 and k = 22 (the re-seeded keys split
/// too), both mappers, a power-of-two and a prime AB size.
#[test]
fn insert_cells_sets_the_bits_of_scalar_inserts_on_runs_of_keys() {
    let _gate = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let run = |first: u64, stride: u64, len: u64| (0..len).map(move |i| first + i * stride);
    let keys: Vec<u64> = run(19_700, 1, 600)
        .chain(run(10_000_000 - 300, 1, 600))
        .chain(run(100_000_000 - 300, 1, 600))
        .chain(run(1_000_000_000, 10_000, 300))
        .chain(run(10_000, 10_000, 300))
        .chain(run(0, 1, 600))
        .collect();
    let mut families: Vec<HashFamily> = hashkit::HashKind::ROSTER
        .iter()
        .map(|&kind| HashFamily::Independent(vec![kind]))
        .collect();
    families.push(HashFamily::default_independent());
    for family in families {
        for shift in [0u32, 5] {
            let mapper = match shift {
                0 => CellMapper::RowOnly,
                shift => CellMapper::Shifted { shift },
            };
            let cells: Vec<(u64, u64)> = keys
                .iter()
                .map(|&x| (x >> shift, x & ((1 << shift) - 1)))
                .collect();
            // About a quarter of the bits set at k = 22.
            for n in [1u64 << 18, 262_139] {
                for k in [6, 22] {
                    let mut scalar = ApproximateBitmap::new(n, k, family.clone(), mapper);
                    for &(row, col) in &cells {
                        scalar.insert(row, col);
                    }
                    let mut batched = ApproximateBitmap::new(n, k, family.clone(), mapper);
                    batched.insert_cells(cells.iter().copied());
                    let ctx = format!("{family:?}, {mapper:?}, n = {n}, k = {k}");
                    assert_eq!(batched.bits(), scalar.bits(), "{ctx}");
                }
            }
        }
    }
}

/// Two levels whose geometries nest (a coarse region is a whole number
/// of finest regions), so each level's occupancy is "some cell of the
/// region tests positive" and the test need not restate the fold.
fn hier_config() -> HierConfig {
    HierConfig {
        levels: vec![
            HierLevelSpec {
                row_span: 64,
                bin_group: 2,
            },
            HierLevelSpec {
                row_span: 256,
                bin_group: 4,
            },
        ],
    }
}

/// A pyramid built by the lockstep sweep holds exactly the regions in
/// which `test_cell` admits some cell: each level's AB equals one the
/// test fills, by scalar inserts, with the regions it finds that way.
#[test]
fn pyramid_is_the_one_test_cell_implies() {
    let _gate = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let table = table();
    // α = 16 puts a false positive into 10–20 % of the empty regions.
    for cfg in configs(16) {
        let index = AbIndex::build(&table, &cfg);
        let hier = HierAb::build(&index, &hier_config());
        assert_eq!(hier.levels().len(), 2);
        for level in hier.levels() {
            let built = level.ab();
            let mut twin = ApproximateBitmap::new(
                built.n_bits(),
                built.k(),
                built.family().clone(),
                built.mapper(),
            );
            let mut group_col = 0u64;
            for (attribute, meta) in index.attributes().iter().enumerate() {
                for g in 0..meta.cardinality.div_ceil(level.bin_group()) {
                    let bins =
                        g * level.bin_group()..((g + 1) * level.bin_group()).min(meta.cardinality);
                    for span in 0..index.num_rows().div_ceil(level.row_span()) {
                        let rows = span * level.row_span()
                            ..((span + 1) * level.row_span()).min(index.num_rows());
                        let occupied = rows.clone().any(|row| {
                            bins.clone().any(|bin| index.test_cell(row, attribute, bin))
                        });
                        if occupied {
                            twin.insert(span as u64, group_col);
                        }
                    }
                    group_col += 1;
                }
            }
            let ctx = format!("span {}: {cfg:?}", level.row_span());
            let regions = group_col * index.num_rows().div_ceil(level.row_span()) as u64;
            assert!(twin.inserted() < regions, "no empty region, {ctx}");
            assert_eq!(built.inserted(), twin.inserted(), "{ctx}");
            assert_eq!(built.bits(), twin.bits(), "{ctx}");
        }
    }
}

/// An exact tier: for every backed bin, E is the table's truth, and
/// `test_cell` admits every row of it (the AB has no false negatives).
#[test]
fn exact_tier_is_the_one_test_cell_implies() {
    let _gate = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let table = table();
    let back_everything = HybridConfig {
        min_density: 0.0,
        ..HybridConfig::default()
    };
    for cfg in configs(8) {
        let index = AbIndex::build(&table, &cfg);
        let tier = HybridAb::build(&index, &table, &back_everything);
        assert_eq!(tier.bins().len(), 36, "{cfg:?}");
        for hb in tier.bins() {
            let bins = &table.column(hb.attribute()).bins;
            let exact: Vec<u32> = (0..bins.len())
                .filter(|&row| bins[row] == hb.bin())
                .map(|row| row as u32)
                .collect();
            let ctx = format!("({}, {}): {cfg:?}", hb.attribute(), hb.bin());
            assert_eq!(hb.exact().iter().collect::<Vec<_>>(), exact, "E of {ctx}");
            assert!(
                exact
                    .iter()
                    .all(|&row| index.test_cell(row as usize, hb.attribute(), hb.bin())),
                "AB misses a row of E: {ctx}"
            );
        }
    }
}

/// `(hashkit.hash_calls.independent, kernel.batches, kernel.prefetches)`.
fn lockstep_counters() -> [u64; 3] {
    let snap = obs::global().snapshot();
    [
        "hashkit.hash_calls.independent",
        "kernel.batches",
        "kernel.prefetches",
    ]
    .map(|name| snap.counter(name))
}

/// What a run of lockstep batches moves [`lockstep_counters`] by:
/// each batch is `(attribute, bin, rows)`, one survivor pass whose
/// cells retire at their first zero bit, so its hash positions — and
/// prefetches, where the target issues them — are the bits
/// `test_cell_counted` reads, cell by cell.
fn batches_imply(index: &AbIndex, batches: &[(usize, u32, Vec<usize>)]) -> [u64; 3] {
    let bits: u64 = batches
        .iter()
        .flat_map(|(attribute, bin, rows)| {
            rows.iter()
                .map(move |&row| u64::from(index.test_cell_counted(row, *attribute, *bin).1))
        })
        .sum();
    let prefetched = if ab::PREFETCH_ACTIVE { bits } else { 0 };
    [bits, batches.len() as u64, prefetched]
}

/// The batches of the pyramid's finest-level sweep, restated: per
/// region, bins of its group in order, rows in batches of 16, 32, …
/// 256, until a batch holds an admitted cell.
fn pyramid_sweep_batches(index: &AbIndex, spec: HierLevelSpec) -> Vec<(usize, u32, Vec<usize>)> {
    let mut batches = Vec::new();
    for span_lo in (0..index.num_rows()).step_by(spec.row_span) {
        let span_hi = (span_lo + spec.row_span).min(index.num_rows());
        for (attribute, meta) in index.attributes().iter().enumerate() {
            for bin_lo in (0..meta.cardinality).step_by(spec.bin_group as usize) {
                let group = bin_lo..(bin_lo + spec.bin_group).min(meta.cardinality);
                let (mut lo, mut depth, mut occupied) = (span_lo, 16, false);
                while lo < span_hi && !occupied {
                    let rows: Vec<usize> = (lo..(lo + depth).min(span_hi)).collect();
                    for bin in group.clone() {
                        batches.push((attribute, bin, rows.clone()));
                        if rows.iter().any(|&row| index.test_cell(row, attribute, bin)) {
                            occupied = true;
                            break;
                        }
                    }
                    lo += rows.len();
                    depth = (2 * depth).min(256);
                }
            }
        }
    }
    batches
}

/// The lanes held as arrays change no count: the build's inserts, the
/// pyramid's sweep and the cell kernel move `hashkit.hash_calls.*`,
/// `kernel.batches` and `kernel.prefetches` by exactly what their
/// batches imply, derived here from `test_cell_counted` — at every
/// level, inside and past the roster.
#[test]
fn lockstep_paths_move_the_counters_their_batches_imply() {
    let _alone = COUNTERS.write().unwrap_or_else(|e| e.into_inner());
    let table = table();
    let delta = |before: [u64; 3]| {
        let after = lockstep_counters();
        [0, 1, 2].map(|i| after[i] - before[i])
    };
    for cfg in configs(8) {
        if cfg.family != HashFamily::default_independent() {
            continue; // the pyramid's own ABs hash by double hashing
        }
        let k = cfg.k.unwrap() as u64;
        let before = lockstep_counters();
        let index = AbIndex::build(&table, &cfg);
        let cells = (table.num_rows() * table.num_attributes()) as u64;
        assert_eq!(delta(before), [cells * k, 0, 0], "insert: {cfg:?}");

        let before = lockstep_counters();
        HierAb::build(&index, &hier_config());
        let moved = delta(before);
        let spec = hier_config().levels[0];
        let want = batches_imply(&index, &pyramid_sweep_batches(&index, spec));
        assert_eq!(moved, want, "pyramid: {cfg:?}");

        let asked: Vec<ab::Cell> = (0..3000usize)
            .map(|i| {
                let h = hashkit::splitmix64(i as u64);
                ab::Cell {
                    row: h as usize % table.num_rows(),
                    attribute: (h >> 32) as usize % 3,
                    bin: (h >> 40) as u32 % 12,
                }
            })
            .collect();
        let before = lockstep_counters();
        index.retrieve_cells(&asked);
        let moved = delta(before);
        // The kernel groups the cells by the AB they probe, request
        // order kept, and runs each group 256 lanes at a time.
        let mut groups: Vec<Vec<&ab::Cell>> = vec![Vec::new(); index.abs().len()];
        for c in &asked {
            groups[slot(&index, c.attribute, c.bin).0].push(c);
        }
        let batches: Vec<(usize, u32, Vec<usize>)> = groups
            .iter()
            .flat_map(|group| group.chunks(256))
            .flat_map(|chunk| chunk.iter().map(|c| (c.attribute, c.bin, vec![c.row])))
            .collect();
        let mut want = batches_imply(&index, &batches);
        want[1] = groups.iter().map(|g| g.len().div_ceil(256) as u64).sum();
        assert_eq!(moved, want, "cells: {cfg:?}");
    }
}
