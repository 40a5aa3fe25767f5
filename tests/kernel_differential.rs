//! Probe-kernel differential tests: the batched kernel, at its one
//! batch depth of `MAX_BATCH_ROWS` = 256 lanes, against the scalar
//! reference loop.
//!
//! The batched kernel (DESIGN.md §13–§14) restructures the
//! Figure 5/7 probe loops for memory-level parallelism but must not
//! change a single observable: rect results must be bit-identical and
//! the `QueryStats` probe accounting (`cells_probed`, `bits_read`,
//! `rows_matched`) must match the scalar reference loop exactly —
//! this is the guard against double-counting `bits_read` and, more
//! importantly, against any probe-sequence divergence that would show
//! up as a false negative.
//!
//! On x86-64 and aarch64 the batched kernel prefetches every word it
//! probes; a debug build (`cargo test`) asserts on each prefetch that
//! the word is inside the AB.

use ab::{
    AbConfig, AbIndex, ApproximateBitmap, Cell, HierConfig, HierLevelSpec, HierMode, HybridAb,
    HybridConfig, HybridMode, KernelKind, KernelOpts, Level,
};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
use datagen::small_uniform;
use hashkit::{CellMapper, HashFamily};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// The obs counters are process-wide and the tests of this file run on
/// parallel threads: the one test that asserts *exact* counter deltas
/// takes this gate for writing, every other test holds it for reading
/// while it runs queries.
static COUNTERS: RwLock<()> = RwLock::new(());

fn queries_may_run() -> RwLockReadGuard<'static, ()> {
    COUNTERS.read().unwrap_or_else(PoisonError::into_inner)
}

/// Every non-reference kernel configuration under test: the batched
/// engine.
fn kernel_matrix() -> Vec<KernelOpts> {
    vec![KernelOpts::new(KernelKind::Batched)]
}

/// The 3 seeded datasets the satellite task asks for: different row
/// counts (off multiples of the 64-row batch), attribute counts, and
/// cardinalities.
fn datasets() -> Vec<BinnedTable> {
    vec![
        small_uniform(1931, 3, 12, 7).binned,
        small_uniform(4096, 2, 8, 99).binned,
        small_uniform(777, 4, 20, 2024).binned,
    ]
}

/// A workload of rect queries exercising every short-circuit shape:
/// multi-range ANDs, single bins, full-table spans, sub-64-row spans,
/// an empty range list, and an empty row interval — plus windows of
/// one 256-row batch less one row, exactly one batch, and one batch
/// and a row, and a short window straddling a batch boundary.
fn queries(table: &BinnedTable) -> Vec<RectQuery> {
    let last = table.num_rows() - 1;
    let card = |a: usize| table.column(a).cardinality;
    let mut qs = vec![
        RectQuery::new(vec![AttrRange::new(0, 0, card(0) / 2)], 0, last),
        RectQuery::new(
            vec![
                AttrRange::new(0, 1, card(0) - 1),
                AttrRange::new(1, 0, card(1) / 3),
            ],
            last / 4,
            3 * last / 4,
        ),
        RectQuery::new(vec![AttrRange::new(1, 2, 2)], 0, last),
        RectQuery::new(vec![AttrRange::new(0, 0, card(0) - 1)], 17, 29),
        RectQuery::new(vec![], 5, last.min(500)),
        RectQuery::new(vec![AttrRange::new(0, 0, 1)], 63, 63),
        RectQuery::new(vec![AttrRange::new(0, 0, card(0) / 2)], 0, 254),
        RectQuery::new(
            vec![
                AttrRange::new(0, 0, card(0) / 2),
                AttrRange::new(1, 1, card(1) - 1),
            ],
            100,
            355,
        ),
        RectQuery::new(vec![AttrRange::new(1, 0, card(1) / 2)], 300, 556),
        RectQuery::new(vec![AttrRange::new(0, 1, card(0) - 2)], 250, 262),
    ];
    if table.columns().len() > 2 {
        qs.push(RectQuery::new(
            vec![
                AttrRange::new(0, 0, card(0) - 1),
                AttrRange::new(1, 1, 1),
                AttrRange::new(2, 0, card(2) / 2),
            ],
            0,
            last,
        ));
    }
    qs
}

fn configs() -> Vec<AbConfig> {
    vec![
        AbConfig::new(Level::PerAttribute).with_alpha(8),
        AbConfig::new(Level::PerDataset).with_alpha(8),
        AbConfig::new(Level::PerColumn).with_alpha(8),
        AbConfig::new(Level::PerAttribute)
            .with_alpha(8)
            .with_family(HashFamily::DoubleHashing),
        AbConfig::new(Level::PerAttribute)
            .with_alpha(16)
            .with_k(11)
            .with_family(HashFamily::Sha1Split),
        AbConfig::new(Level::PerDataset)
            .with_alpha(8)
            .with_family(HashFamily::ColumnGroup { num_columns: 1 }),
    ]
}

#[test]
fn rect_results_and_probe_accounting_identical() {
    let _gate = queries_may_run();
    for (d, table) in datasets().iter().enumerate() {
        for (c, cfg) in configs().iter().enumerate() {
            let idx = AbIndex::build(table, cfg);
            for (qi, q) in queries(table).iter().enumerate() {
                let (scalar_rows, scalar_stats) = idx
                    .try_execute_rect_with_stats_opts(q, KernelKind::Scalar.into())
                    .unwrap();
                for opts in kernel_matrix() {
                    let (rows, stats) = idx.try_execute_rect_with_stats_opts(q, opts).unwrap();
                    let ctx = format!("dataset {d}, config {c}, query {qi}, kernel {opts:?}");
                    assert_eq!(scalar_rows, rows, "rows diverged: {ctx}");
                    assert_eq!(
                        scalar_stats.cells_probed, stats.cells_probed,
                        "cells_probed diverged: {ctx}"
                    );
                    assert_eq!(
                        scalar_stats.bits_read, stats.bits_read,
                        "bits_read diverged: {ctx}"
                    );
                    assert_eq!(
                        scalar_stats.rows_matched, stats.rows_matched,
                        "rows_matched diverged: {ctx}"
                    );
                }
            }
        }
    }
}

#[test]
fn cell_subset_verdicts_identical() {
    let _gate = queries_may_run();
    for table in &datasets() {
        for cfg in &configs() {
            let idx = AbIndex::build(table, cfg);
            // A mix of genuinely-set cells and (probably) absent ones:
            // every per-dataset or per-attribute AB gets at least two
            // full 256-lane batches plus a ragged tail.
            let cells: Vec<Cell> = (0..2400)
                .map(|i| {
                    let row = (i * 37) % table.num_rows();
                    let attr = i % table.columns().len();
                    let bin = if i % 3 == 0 {
                        table.column(attr).bins[row]
                    } else {
                        (i as u32 * 7) % table.column(attr).cardinality
                    };
                    Cell::new(row, attr, bin)
                })
                .collect();
            let scalar = idx.retrieve_cells_with_opts(&cells, KernelKind::Scalar.into());
            for opts in kernel_matrix() {
                let waves = idx.retrieve_cells_with_opts(&cells, opts);
                assert_eq!(scalar, waves, "verdicts diverged on {opts:?}");
            }
        }
    }
}

/// Plan sharing must not change verdicts even when a list is
/// dominated by a few (attribute, bin) pairs — the sharpest
/// plan-sharing shape.
#[test]
fn cell_subset_with_heavy_duplicates_identical() {
    let _gate = queries_may_run();
    let table = &datasets()[0];
    let idx = AbIndex::build(table, &AbConfig::new(Level::PerAttribute).with_alpha(8));
    // 300 cells over just 4 distinct (attribute, bin) pairs, rows
    // varying — nearly every cell finds its plan already built.
    let cells: Vec<Cell> = (0..300)
        .map(|i| {
            let row = (i * 13) % table.num_rows();
            let attr = i % 2;
            let bin = ((i / 2) % 2) as u32 % table.column(attr).cardinality;
            Cell::new(row, attr, bin)
        })
        .collect();
    let scalar = idx.retrieve_cells_with_opts(&cells, KernelKind::Scalar.into());
    for opts in kernel_matrix() {
        assert_eq!(
            scalar,
            idx.retrieve_cells_with_opts(&cells, opts),
            "verdicts diverged on {opts:?}"
        );
    }
}

/// The batched path must keep the no-false-negative contract on its
/// own terms too: every genuinely set cell of the table answers true.
#[test]
fn batched_kernel_never_misses_set_cells() {
    let _gate = queries_may_run();
    let table = &datasets()[0];
    let idx = AbIndex::build(table, &AbConfig::new(Level::PerAttribute).with_alpha(4));
    let cells: Vec<Cell> = (0..table.num_rows())
        .flat_map(|r| (0..table.columns().len()).map(move |a| (r, a)))
        .map(|(r, a)| Cell::new(r, a, table.column(a).bins[r]))
        .collect();
    assert!(
        idx.retrieve_cells_with_opts(&cells, KernelKind::Batched.into())
            .iter()
            .all(|&b| b),
        "batched kernel produced a false negative"
    );
}

/// Degenerate row intervals (lo > hi) return empty results on both
/// kernels without probing.
#[test]
fn empty_row_interval_matches() {
    let _gate = queries_may_run();
    let table = &datasets()[1];
    let idx = AbIndex::build(table, &AbConfig::new(Level::PerAttribute).with_alpha(8));
    // `RectQuery::new` rejects lo > hi; build the degenerate interval
    // directly to exercise the kernels' own guard.
    let q = RectQuery {
        ranges: vec![AttrRange::new(0, 0, 3)],
        row_lo: 100,
        row_hi: 50,
    };
    for kernel in [KernelKind::Scalar, KernelKind::Batched] {
        let (rows, stats) = idx
            .try_execute_rect_with_stats_opts(&q, kernel.into())
            .unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.cells_probed, 0);
        assert_eq!(stats.bits_read, 0);
    }
}

/// Pyramid geometries scaled to the test datasets (777–4096 rows):
/// a single fine level, and a two-level coarse-over-fine stack.
fn hier_configs() -> Vec<HierConfig> {
    vec![
        HierConfig {
            levels: vec![HierLevelSpec {
                row_span: 8,
                bin_group: 2,
            }],
        },
        HierConfig {
            levels: vec![
                HierLevelSpec {
                    row_span: 16,
                    bin_group: 2,
                },
                HierLevelSpec {
                    row_span: 64,
                    bin_group: 4,
                },
            ],
        },
    ]
}

/// The hier on/off axis over the full matrix: with a pyramid attached
/// and `HierMode::Force`, every kernel must return the exact flat rows
/// (pruning is allowed to skip work, never to change the answer), all
/// kernels must agree on stats with each other, and `cells_probed`
/// must never exceed the flat scalar reference — the pyramid's own
/// level-AB probes are bookkept separately and pruned intervals are a
/// subset of the original row interval.
#[test]
fn hier_pruning_is_bit_identical_and_never_probes_more() {
    let _gate = queries_may_run();
    for (d, table) in datasets().iter().enumerate() {
        for (c, cfg) in configs().iter().enumerate() {
            for (h, hcfg) in hier_configs().iter().enumerate() {
                let mut idx = AbIndex::build(table, cfg);
                idx.ensure_hier(hcfg);
                for (qi, q) in queries(table).iter().enumerate() {
                    let (flat_rows, flat_stats) = idx
                        .try_execute_rect_with_stats_opts(q, KernelKind::Scalar.into())
                        .unwrap();
                    // Hier reference: scalar under Force. All other
                    // kernels must match it bit-for-bit and stat-for-stat.
                    let href = KernelOpts::new(KernelKind::Scalar).with_hier(HierMode::Force);
                    let (href_rows, href_stats) =
                        idx.try_execute_rect_with_stats_opts(q, href).unwrap();
                    let ctx = format!("dataset {d}, config {c}, hier {h}, query {qi}");
                    assert_eq!(
                        flat_rows, href_rows,
                        "hier scalar diverged from flat: {ctx}"
                    );
                    assert!(
                        href_stats.cells_probed <= flat_stats.cells_probed,
                        "hier probed more cells than flat ({} > {}): {ctx}",
                        href_stats.cells_probed,
                        flat_stats.cells_probed
                    );
                    assert_eq!(
                        href_stats.rows_matched, flat_stats.rows_matched,
                        "rows_matched diverged under hier: {ctx}"
                    );
                    for base in kernel_matrix() {
                        let opts = base.with_hier(HierMode::Force);
                        let (rows, stats) = idx.try_execute_rect_with_stats_opts(q, opts).unwrap();
                        let kctx = format!("{ctx}, kernel {opts:?}");
                        assert_eq!(flat_rows, rows, "rows diverged under hier: {kctx}");
                        assert_eq!(
                            href_stats.cells_probed, stats.cells_probed,
                            "cells_probed diverged across hier kernels: {kctx}"
                        );
                        assert_eq!(
                            href_stats.bits_read, stats.bits_read,
                            "bits_read diverged across hier kernels: {kctx}"
                        );
                        assert_eq!(
                            href_stats.regions_pruned, stats.regions_pruned,
                            "regions_pruned diverged across hier kernels: {kctx}"
                        );
                        assert_eq!(
                            href_stats.rows_skipped, stats.rows_skipped,
                            "rows_skipped diverged across hier kernels: {kctx}"
                        );
                    }
                    // With the pyramid attached but HierMode::Off, the
                    // flat path must be untouched — identical stats, no
                    // pruning accounting.
                    let off = KernelOpts::new(KernelKind::Scalar).with_hier(HierMode::Off);
                    let (off_rows, off_stats) =
                        idx.try_execute_rect_with_stats_opts(q, off).unwrap();
                    assert_eq!(flat_rows, off_rows, "HierMode::Off changed rows: {ctx}");
                    assert_eq!(
                        flat_stats.cells_probed, off_stats.cells_probed,
                        "HierMode::Off changed probe accounting: {ctx}"
                    );
                    assert_eq!(off_stats.regions_pruned, 0, "Off reported pruning: {ctx}");
                }
            }
        }
    }
}

/// The hybrid exact-tier axis over the full matrix. With every bin
/// exact-backed (`min_density: 0.0` lets the cost model back them
/// all) the hybrid answer for any rect IS the ground truth: a subset
/// of the flat answer whose every missing row fails the truth (it only
/// removes the AB's false positives), and a superset of the true rows
/// (100 % recall is non-negotiable). Every kernel × hier on/off must
/// agree, and `HybridMode::Off` must leave the flat path byte-for-byte
/// untouched — same rows, same stats.
#[test]
fn hybrid_tier_is_exact_for_backed_bins_and_never_drops_rows() {
    let _gate = queries_may_run();
    let mut eliminated_total = 0;
    for (d, table) in datasets().iter().enumerate() {
        for (c, cfg) in configs().iter().enumerate() {
            let mut idx = AbIndex::build(table, cfg);
            idx.ensure_hybrid(
                table,
                &HybridConfig {
                    min_density: 0.0,
                    ..HybridConfig::default()
                },
            );
            idx.ensure_hier(&hier_configs()[0]);
            for (qi, q) in queries(table).iter().enumerate() {
                let ctx = format!("dataset {d}, config {c}, query {qi}");
                // Ground truth straight off the binned table.
                let truth: Vec<usize> = (q.row_lo..=q.row_hi.min(table.num_rows() - 1))
                    .filter(|&r| {
                        q.ranges.iter().all(|rg| {
                            let b = table.column(rg.attribute).bins[r];
                            rg.lo <= b && b <= rg.hi
                        })
                    })
                    .collect();
                let (flat_rows, flat_stats) = idx
                    .try_execute_rect_with_stats_opts(q, KernelKind::Scalar.into())
                    .unwrap();
                let flat_set: std::collections::HashSet<usize> =
                    flat_rows.iter().copied().collect();
                let href = KernelOpts::new(KernelKind::Scalar).with_hybrid(HybridMode::Force);
                let (href_rows, href_stats) =
                    idx.try_execute_rect_with_stats_opts(q, href).unwrap();
                assert_eq!(
                    href_rows, truth,
                    "fully-backed hybrid answer is not the ground truth: {ctx}"
                );
                assert!(
                    href_rows.iter().all(|r| flat_set.contains(r)),
                    "hybrid returned a row flat did not: {ctx}"
                );
                let href_set: std::collections::HashSet<usize> =
                    href_rows.iter().copied().collect();
                let eliminated: Vec<usize> = flat_rows
                    .iter()
                    .copied()
                    .filter(|r| !href_set.contains(r))
                    .collect();
                assert!(
                    eliminated.iter().all(|r| truth.binary_search(r).is_err()),
                    "hybrid dropped a true row: {ctx}"
                );
                eliminated_total += eliminated.len();
                assert_eq!(href_stats.cells_probed, 0, "backed bins probed: {ctx}");
                for base in kernel_matrix() {
                    for hier in [HierMode::Off, HierMode::Force] {
                        let opts = base.with_hybrid(HybridMode::Force).with_hier(hier);
                        let (rows, _) = idx.try_execute_rect_with_stats_opts(q, opts).unwrap();
                        let kctx = format!("{ctx}, kernel {opts:?}");
                        assert_eq!(href_rows, rows, "hybrid rows diverged: {kctx}");
                    }
                }
                // HybridMode::Off with the tier attached: the flat path
                // must be untouched — identical rows and probe stats.
                let off = KernelOpts::new(KernelKind::Scalar).with_hybrid(HybridMode::Off);
                let (off_rows, off_stats) = idx.try_execute_rect_with_stats_opts(q, off).unwrap();
                assert_eq!(flat_rows, off_rows, "HybridMode::Off changed rows: {ctx}");
                assert_eq!(
                    flat_stats, off_stats,
                    "HybridMode::Off changed stats: {ctx}"
                );
            }
        }
    }
    // The suite crosses enough α=8 configs that the AB is guaranteed
    // to produce false positives somewhere; if the tier never removed
    // any, it answered from something other than its containers.
    assert!(
        eliminated_total > 0,
        "no false positives eliminated across the whole matrix"
    );
}

/// The exact tier is read off the table: building one that backs every
/// bin, with or without a pyramid attached, issues no hash call and
/// opens no lockstep batch — on every dataset × level × family.
#[test]
fn building_a_fully_backed_tier_probes_nothing() {
    let _alone = COUNTERS.write().unwrap_or_else(PoisonError::into_inner);
    let back_everything = HybridConfig {
        min_density: 0.0,
        ..HybridConfig::default()
    };
    let probes = || {
        let batches = obs::global().snapshot().counter("kernel.batches");
        (hash_calls_and_prefetches().0, batches)
    };
    for (d, table) in datasets().iter().enumerate() {
        for (c, cfg) in configs().iter().enumerate() {
            let mut idx = AbIndex::build(table, cfg);
            for pyramid in [false, true] {
                if pyramid {
                    idx.ensure_hier(&hier_configs()[0]);
                }
                let before = probes();
                let tier = HybridAb::build(&idx, table, &back_everything);
                let ctx = format!("dataset {d}, config {c}, pyramid {pyramid}");
                assert_eq!(probes(), before, "{ctx}");
                assert_eq!(tier.bins().len() as u32, tier.total_bins(), "{ctx}");
            }
        }
    }
}

/// `kernel.prefetches` must report only prefetch instructions that
/// actually executed: on targets where the prefetch is a no-op
/// (`PREFETCH_ACTIVE == false`) the counter stays frozen across both
/// query paths; elsewhere a rect call advances it by exactly
/// `bits_read` and a cell call by exactly its hash evaluations (each
/// issued probe position prefetches its AB word once).
#[test]
fn prefetch_counter_counts_only_real_prefetches() {
    let _alone = COUNTERS.write().unwrap_or_else(PoisonError::into_inner);
    let table = &datasets()[0];
    let idx = AbIndex::build(table, &AbConfig::new(Level::PerAttribute).with_alpha(8));
    let q = RectQuery::new(
        vec![AttrRange::new(0, 0, table.column(0).cardinality / 2)],
        0,
        table.num_rows() - 1,
    );
    let cells: Vec<Cell> = (0..100)
        .map(|i| Cell::new((i * 7) % table.num_rows(), 0, 0))
        .collect();
    for opts in kernel_matrix() {
        let before = hash_calls_and_prefetches();
        let (_, stats) = idx.try_execute_rect_with_stats_opts(&q, opts).unwrap();
        let mid = hash_calls_and_prefetches();
        let verdicts = idx.retrieve_cells_with_opts(&cells, opts);
        let after = hash_calls_and_prefetches();
        assert_eq!(verdicts.len(), cells.len());
        let (rect, cell) = (mid.1 - before.1, after.1 - mid.1);
        if ab::PREFETCH_ACTIVE {
            assert_eq!(rect, stats.bits_read as u64, "rect prefetches on {opts:?}");
            assert_eq!(cell, after.0 - mid.0, "cell prefetches on {opts:?}");
        } else {
            assert_eq!((rect, cell), (0, 0), "phantom prefetches on {opts:?}");
        }
    }
}

/// The prefetch `// SAFETY:` argument at the edge it is about: on an AB
/// of 100 bits — one full word and a 36-bit tail word — both kernels
/// probe positions in the tail word, where a debug build asserts the
/// prefetched word is still inside the AB, and answer as the scalar
/// loop does.
#[test]
fn both_kernels_probe_the_partial_last_word() {
    let _gate = queries_may_run();
    let table = small_uniform(64, 1, 4, 11).binned;
    let built = AbIndex::build(&table, &AbConfig::new(Level::PerAttribute).with_k(3));
    let mut ab = ApproximateBitmap::new(
        100,
        3,
        HashFamily::default_independent(),
        CellMapper::for_columns(4),
    );
    for (row, &bin) in table.column(0).bins.iter().enumerate() {
        ab.insert(row as u64, u64::from(bin));
    }
    let idx = AbIndex::from_parts(
        Level::PerAttribute,
        vec![ab],
        built.attributes().to_vec(),
        table.num_rows(),
        None,
        None,
    );
    let ab = &idx.abs()[0];
    let tail = ab.bits().words().len() as u64 - 1;
    assert_eq!(tail, 1);
    // The first probe of every cell a kernel opens is always read.
    let in_tail = |row: usize, bin: u32| {
        let mut prober = ab
            .family()
            .prober(row as u64, u64::from(bin), ab.mapper(), ab.n_bits());
        prober.next_position() / 64 == tail
    };

    // Every row of the rect opens on bin 0 of its one range.
    let q = RectQuery::new(vec![AttrRange::new(0, 0, 3)], 0, table.num_rows() - 1);
    assert!((0..table.num_rows()).any(|row| in_tail(row, 0)));
    let (scalar, _) = idx
        .try_execute_rect_with_stats_opts(&q, KernelKind::Scalar.into())
        .unwrap();
    let (batched, _) = idx
        .try_execute_rect_with_stats_opts(&q, KernelKind::Batched.into())
        .unwrap();
    assert_eq!(scalar, batched);

    let cells: Vec<Cell> = (0..table.num_rows())
        .map(|row| Cell::new(row, 0, (row % 4) as u32))
        .collect();
    assert!(cells.iter().any(|c| in_tail(c.row, c.bin)));
    assert_eq!(
        idx.retrieve_cells_with_opts(&cells, KernelKind::Scalar.into()),
        idx.retrieve_cells_with_opts(&cells, KernelKind::Batched.into())
    );
}

/// A 3 000-row, 4-attribute, 20-bin table (80 (attribute, bin)
/// columns) in which bin 0 of every attribute holds about a third of
/// the rows and the other 19 share the rest: one bin per attribute is
/// dense enough for the exact tier's cost model, the rest are not.
fn skewed_table() -> BinnedTable {
    let n = 3000u64;
    BinnedTable::new(
        (0..4u64)
            .map(|a| {
                let bins = (0..n)
                    .map(|i| {
                        let h = hashkit::splitmix64(i ^ (a << 32) ^ 0xD1FF);
                        if h.is_multiple_of(3) {
                            0
                        } else {
                            (h >> 8) as u32 % 20
                        }
                    })
                    .collect();
                BinnedColumn::new(format!("s{a}"), bins, 20)
            })
            .collect(),
    )
}

/// 5 400 cells in no order: rows and columns drawn by a mixer (so the
/// list jumps between attributes, bins and rows), every third cell
/// naming the bin its row really has, every 50th repeating an earlier
/// cell verbatim.
fn scattered_cells(table: &BinnedTable) -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::with_capacity(5400);
    for i in 0..5400u64 {
        if i % 50 == 49 {
            let earlier = cells[(hashkit::splitmix64(i) % cells.len() as u64) as usize];
            cells.push(earlier);
            continue;
        }
        let h = hashkit::splitmix64(i ^ 0xCE11);
        let row = (h % table.num_rows() as u64) as usize;
        let attr = ((h >> 24) % table.columns().len() as u64) as usize;
        let bin = if i % 3 == 0 {
            table.column(attr).bins[row]
        } else {
            ((h >> 40) % u64::from(table.column(attr).cardinality)) as u32
        };
        cells.push(Cell::new(row, attr, bin));
    }
    cells
}

fn hash_calls_and_prefetches() -> (u64, u64) {
    let snap = obs::global().snapshot();
    let calls = [
        "hashkit.hash_calls.independent",
        "hashkit.hash_calls.sha1_split",
        "hashkit.hash_calls.double_hashing",
        "hashkit.hash_calls.column_group",
    ]
    .iter()
    .map(|name| snap.counter(name))
    .sum();
    (calls, snap.counter("kernel.prefetches"))
}

/// The cell kernel against the scalar `test_cell` loop on a list shaped
/// like a served request — thousands of unsorted cells with repeats
/// over 80 plans — on every level × every hash family (k = 12 on the
/// roster, so the re-seeded probes run) × no exact tier / a tier that
/// backs nothing / a tier that backs some of the bins: verdict for
/// verdict, with exact-backed cells answering the table's truth, and
/// with the same number of hash evaluations (hence prefetches) as the
/// scalar loop — the short-circuit at the first zero bit survived the
/// grouping.
#[test]
fn cell_kernel_matches_scalar_on_request_shaped_lists() {
    let _alone = COUNTERS.write().unwrap_or_else(PoisonError::into_inner);
    let table = skewed_table();
    let cells = scattered_cells(&table);
    let plans: std::collections::HashSet<(usize, u32)> =
        cells.iter().map(|c| (c.attribute, c.bin)).collect();
    assert!(cells.len() >= 5000 && plans.len() > 64, "{}", plans.len());
    let truth = |c: &Cell| -> bool { table.column(c.attribute).bins[c.row] == c.bin };

    let families = [
        HashFamily::default_independent(),
        HashFamily::Sha1Split,
        HashFamily::DoubleHashing,
        HashFamily::ColumnGroup { num_columns: 1 },
    ];
    // None: no tier. Some(d): a tier built with `min_density` d — 2.0
    // backs nothing (attached, empty), 0.2 backs bin 0 of each
    // attribute and leaves the other 76 columns on the AB.
    let tiers = [None, Some(2.0), Some(0.2)];
    let mut exact_answers = 0usize;
    for level in [Level::PerDataset, Level::PerAttribute, Level::PerColumn] {
        for family in &families {
            if level == Level::PerColumn && matches!(family, HashFamily::ColumnGroup { .. }) {
                continue; // the paper restricts it to the coarser levels
            }
            for tier in tiers {
                let cfg = AbConfig::new(level)
                    .with_alpha(8)
                    .with_k(12)
                    .with_family(family.clone());
                let mut idx = AbIndex::build(&table, &cfg);
                // The flat reference first: the tier must not be there
                // to be consulted.
                let flat = idx.retrieve_cells_with_opts(&cells, KernelKind::Scalar.into());
                if let Some(min_density) = tier {
                    idx.ensure_hybrid(
                        &table,
                        &HybridConfig {
                            min_density,
                            ..HybridConfig::default()
                        },
                    );
                }
                let backed = |c: &Cell| {
                    idx.hybrid()
                        .is_some_and(|hy| hy.backing(c.attribute, c.bin).is_some())
                };
                match tier {
                    Some(d) if d < 1.0 => {
                        let n = idx.hybrid().unwrap().bins().len();
                        assert!(
                            n > 0 && n < plans.len(),
                            "tier must back some bins, not {n}"
                        );
                    }
                    Some(_) => assert!(idx.hybrid().unwrap().bins().is_empty()),
                    None => assert!(idx.hybrid().is_none()),
                }
                let ctx = format!("{level:?}, {family:?}, tier {tier:?}");

                let auto = |kernel| KernelOpts::new(kernel).with_hybrid(HybridMode::Auto);
                let before = hash_calls_and_prefetches();
                let scalar = idx.retrieve_cells_with_opts(&cells, auto(KernelKind::Scalar));
                let mid = hash_calls_and_prefetches();
                let batched = idx.retrieve_cells_with_opts(&cells, auto(KernelKind::Batched));
                let after = hash_calls_and_prefetches();

                assert_eq!(scalar, batched, "verdicts diverged: {ctx}");
                for (i, c) in cells.iter().enumerate() {
                    if backed(c) {
                        exact_answers += 1;
                        assert_eq!(
                            batched[i],
                            truth(c),
                            "backed cell {c:?} is not the truth: {ctx}"
                        );
                    } else {
                        assert_eq!(
                            batched[i], flat[i],
                            "unbacked cell {c:?} left the AB: {ctx}"
                        );
                    }
                    assert!(batched[i] || !truth(c), "false negative at {c:?}: {ctx}");
                }
                let scalar_calls = mid.0 - before.0;
                let batched_calls = after.0 - mid.0;
                assert_eq!(
                    scalar_calls, batched_calls,
                    "hash evaluations diverged: {ctx}"
                );
                assert_eq!(mid.1, before.1, "the scalar loop prefetches nothing: {ctx}");
                let prefetched = if ab::PREFETCH_ACTIVE {
                    batched_calls
                } else {
                    0
                };
                assert_eq!(
                    after.1 - mid.1,
                    prefetched,
                    "prefetch count diverged: {ctx}"
                );
            }
        }
    }
    assert!(
        exact_answers > 1000,
        "the backing tier answered only {exact_answers} cells"
    );
}
