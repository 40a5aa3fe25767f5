//! The pyramid's contract: **truth ⊆ hier ⊆ flat**. A pyramid is
//! marked from the rows the index was built from (`ab::BinBlocks`), so
//! a rect answered through it keeps every true row (recall 1), returns
//! only rows the flat scan returns (precision can only rise), and
//! probes no more cells than the flat scan.
//!
//! The tables are uniform, clustered, and landsat- and hep-shaped
//! (`datagen`), each at α ∈ {2, 4, 8, 16, 32}, under both kernels and
//! both `HierMode::Force` and `HierMode::Auto`, with the default
//! geometry and a fine one. The same test counts, per table and α, the
//! finest regions that hold no true row but in which the base AB admits
//! a cell: the regions a pyramid swept from the base AB kept alive and
//! this one prunes (`cargo test --test hier_contract -- --nocapture`
//! prints them).

use ab::{AbConfig, AbIndex, HierConfig, HierLevelSpec, HierMode, KernelKind, KernelOpts, Level};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, BitmapIndex, Encoding, RectQuery};

const ALPHAS: [u64; 5] = [2, 4, 8, 16, 32];
const KERNELS: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Batched];

/// One of the four table shapes.
fn table(name: &str) -> BinnedTable {
    match name {
        "uniform" => datagen::uniform_dataset(0.02, 7).binned,
        // 16 bins in runs of 320 rows, and a second column whose bin
        // follows the first's with a slower period.
        "clustered" => {
            let rows = 5_120u32;
            BinnedTable::new(vec![
                BinnedColumn::new("runs", (0..rows).map(|r| r / 320).collect(), 16),
                BinnedColumn::new("slow", (0..rows).map(|r| (r / 1_280) % 4).collect(), 4),
            ])
        }
        "landsat" => datagen::landsat_like(0.005, 7).binned,
        "hep" => datagen::hep_like(0.001, 7).binned,
        _ => unreachable!("no table {name}"),
    }
}

/// The default geometry, and a fine one whose spans are whole 64-row
/// blocks.
fn geometries() -> [HierConfig; 2] {
    let level = |row_span, bin_group| HierLevelSpec {
        row_span,
        bin_group,
    };
    [
        HierConfig::default(),
        HierConfig {
            levels: vec![level(64, 2), level(512, 8)],
        },
    ]
}

/// Rects over the table: one bin of each of the first two attributes
/// over every row, two-range ANDs over halves of the rows, a wide range, and
/// a short window.
fn queries(table: &BinnedTable) -> Vec<RectQuery> {
    let last = table.num_rows() - 1;
    let card = |a: usize| table.column(a).cardinality;
    let attrs = table.num_attributes().min(2);
    let mut qs = Vec::new();
    for a in 0..attrs {
        qs.push(RectQuery::new(vec![AttrRange::new(a, 0, 0)], 0, last));
        let top = card(a) - 1;
        qs.push(RectQuery::new(vec![AttrRange::new(a, top, top)], 0, last));
        qs.push(RectQuery::new(
            vec![AttrRange::new(a, card(a) / 3, card(a) / 2)],
            last / 2,
            last,
        ));
    }
    qs.push(RectQuery::new(
        vec![
            AttrRange::new(0, 1, card(0) / 2),
            AttrRange::new(1, card(1) / 2, card(1) - 1),
        ],
        0,
        last / 2,
    ));
    qs.push(RectQuery::new(vec![AttrRange::new(1, 1, 2)], 100, 900));
    qs
}

/// Every row of `sub` is a row of `sup` (both ascending).
fn is_subset(sub: &[usize], sup: &[usize]) -> bool {
    let mut it = sup.iter();
    sub.iter().all(|r| it.by_ref().any(|s| s == r))
}

#[test]
fn the_contract_holds_on_a_uniform_table() {
    the_contract_holds_on("uniform");
}

#[test]
fn the_contract_holds_on_a_clustered_table() {
    the_contract_holds_on("clustered");
}

#[test]
fn the_contract_holds_on_a_landsat_shaped_table() {
    the_contract_holds_on("landsat");
}

#[test]
fn the_contract_holds_on_a_hep_shaped_table() {
    the_contract_holds_on("hep");
}

/// The contract at every α, geometry, query, kernel and mode; and the
/// count of regions whose verdict changed, which must not grow from
/// α = 2 to α = 32.
fn the_contract_holds_on(name: &str) {
    let table = table(name);
    let exact = BitmapIndex::build(&table, Encoding::Equality);
    let queries = queries(&table);
    let mut changed = Vec::new();
    for alpha in ALPHAS {
        let built = AbIndex::build(
            &table,
            &AbConfig::new(Level::PerAttribute).with_alpha(alpha),
        );
        let [default, fine] = geometries().map(|g| changed_regions(&built, &table, g.levels[0]));
        eprintln!(
            "{name} α = {alpha}: verdict changed in {} of {} default and {} of {} fine regions",
            default.0, default.1, fine.0, fine.1
        );
        changed.push(fine.0);
        let flat: Vec<_> = queries
            .iter()
            .map(|q| KERNELS.map(|k| built.try_execute_rect_with_stats_opts(q, k.into()).unwrap()))
            .collect();
        for (g, geometry) in geometries().iter().enumerate() {
            let mut index = built.clone();
            index.ensure_hier(geometry);
            for (qi, (q, flat)) in queries.iter().zip(&flat).enumerate() {
                let truth = exact.evaluate_rows(q);
                for (kernel, (flat, flat_stats)) in KERNELS.into_iter().zip(flat) {
                    for mode in [HierMode::Force, HierMode::Auto] {
                        let opts = KernelOpts::new(kernel).with_hier(mode);
                        let (hier, stats) =
                            index.try_execute_rect_with_stats_opts(q, opts).unwrap();
                        let ctx = format!(
                            "{name}, α = {alpha}, geometry {g}, query {qi}, {kernel:?}, {mode:?}"
                        );
                        assert!(is_subset(&truth, &hier), "a true row was lost: {ctx}");
                        assert!(is_subset(&hier, flat), "a row flat lacks: {ctx}");
                        assert!(
                            stats.cells_probed <= flat_stats.cells_probed,
                            "hier probed {} cells, flat {}: {ctx}",
                            stats.cells_probed,
                            flat_stats.cells_probed
                        );
                    }
                }
            }
        }
    }
    assert!(
        changed[4] <= changed[0],
        "{name}: α = 32 changed more regions than α = 2: {changed:?}"
    );
}

/// A clustered column at α = 2: a 64-row region no row of which holds
/// bin `b`, in which the base AB admits cell (row, b) all the same. The
/// flat scan returns that false positive; the pyramid, marked from the
/// rows, prunes the region, and the answer through it is the truth.
#[test]
fn a_region_only_a_false_positive_holds_is_pruned() {
    let rows = 4096u32;
    let table = BinnedTable::new(vec![BinnedColumn::new(
        "runs",
        (0..rows).map(|r| r / 256).collect(),
        16,
    )]);
    let mut index = AbIndex::build(&table, &AbConfig::new(Level::PerAttribute).with_alpha(2));
    index.ensure_hier(&HierConfig {
        levels: vec![HierLevelSpec {
            row_span: 64,
            bin_group: 1,
        }],
    });
    let (row, bin) = (0..rows as usize)
        .flat_map(|row| (0..16).map(move |bin| (row, bin)))
        .find(|&(row, bin)| bin != row as u32 / 256 && index.test_cell(row, 0, bin))
        .expect("α = 2 admits some false positive");
    let span = row / 64 * 64;
    let q = RectQuery::new(vec![AttrRange::new(0, bin, bin)], span, span + 63);
    let flat = index
        .try_execute_rect_with_opts(&q, KernelOpts::default())
        .unwrap();
    assert!(
        flat.contains(&row),
        "the flat scan admits the false positive"
    );
    for kernel in KERNELS {
        let opts = KernelOpts::new(kernel).with_hier(HierMode::Force);
        let (hier, stats) = index.try_execute_rect_with_stats_opts(&q, opts).unwrap();
        assert_eq!(hier, Vec::<usize>::new(), "{kernel:?}: the region was kept");
        assert_eq!(stats.regions_pruned, 1, "{kernel:?}");
        assert_eq!(stats.cells_probed, 0, "{kernel:?}");
    }
}

/// (regions that hold no true row but a base-AB positive, all regions)
/// of the finest level `spec` over `index`.
fn changed_regions(index: &AbIndex, table: &BinnedTable, spec: HierLevelSpec) -> (usize, usize) {
    let rows = table.num_rows();
    let (mut changed, mut regions) = (0, 0);
    for (a, column) in table.columns().iter().enumerate() {
        for lo in (0..column.cardinality).step_by(spec.bin_group as usize) {
            let group = lo..(lo + spec.bin_group).min(column.cardinality);
            for start in (0..rows).step_by(spec.row_span) {
                let span = start..(start + spec.row_span).min(rows);
                regions += 1;
                let empty = !span.clone().any(|r| group.contains(&column.bins[r]));
                if empty
                    && span
                        .clone()
                        .any(|r| group.clone().any(|b| index.test_cell(r, a, b)))
                {
                    changed += 1;
                }
            }
        }
    }
    (changed, regions)
}
