//! Regenerates the §6.4 comparison: single SHA-1 hash vs independent
//! hash functions — "in terms of precision, SHA-1 results are very
//! similar … however … SHA-1 is slower than the other hash functions".
//!
//! A second table times what those independent functions cost where
//! set-up and the cell kernel call them — one lockstep batch step
//! (DESIGN.md §13) — for each roster function as a roster probe and as
//! a re-seeded one, and the batched insert at four k. A third times the
//! two set-up passes after the build, the pyramid's sweep and the exact
//! tier's read of the columns, on a clustered and a Zipf table. The
//! insert and set-up tables use only `ab` calls an
//! earlier checkout has too (`insert_cells`, `HierAb::build`,
//! `HybridAb::build`), so those functions copied into another commit's
//! copy of this file are the before/after harness.
//!
//! Usage: `cargo run --release -p bench --bin repro_hash -- [--scale F]`

use ab::{
    AbConfig, AbIndex, ApproximateBitmap, HierAb, HierConfig, HybridAb, HybridConfig, Level,
    MAX_BATCH_ROWS as LANES,
};
use bench::{ab_query_time_ms, cli, mean_precision, paper_level, print_table, Bundle};
use bitmap::{BinnedColumn, BinnedTable};
use hashkit::{splitmix64, CellMapper, HashFamily, HashKind, LockstepLanes};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Re-seeded steps timed per batch: probes 10–21 of a k = 22 cell.
const RESEEDED_STEPS: usize = 12;
/// Every timing is the fastest of this many rounds.
const ROUNDS: usize = 7;

fn main() {
    let opts = cli::from_env();
    let bundle = Bundle::new(datagen::uniform_dataset(opts.scale, opts.seed));
    let queries = bundle.queries(bundle.ds.rows() / 10, opts.seed + 1);

    let families: [(&str, HashFamily); 3] = [
        ("independent", HashFamily::default_independent()),
        ("sha1_split", HashFamily::Sha1Split),
        ("double_hash", HashFamily::DoubleHashing),
    ];
    let mut rows = Vec::new();
    for (name, family) in &families {
        let cfg = AbConfig::new(paper_level("uniform"))
            .with_alpha(16)
            .with_family(family.clone());
        let start = Instant::now();
        let ab_idx = bundle.ab(&cfg);
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        let precision = mean_precision(&ab_idx, &bundle.exact, &queries);
        let query_ms = ab_query_time_ms(&ab_idx, &queries);
        rows.push(vec![
            name.to_string(),
            format!("{precision:.4}"),
            format!("{build_ms:.1}"),
            format!("{query_ms:.4}"),
        ]);
    }
    print_table(
        "Section 6.4: Single Hash Function (SHA-1) vs Independent Hash Functions (uniform, alpha=16)",
        &["family", "precision", "build ms", "query ms/query"],
        &rows,
    );
    println!(
        "\nExpected shape: precisions within noise of each other; sha1_split \
         markedly slower to build and query."
    );

    lockstep_table(opts.scale);
    insert_table(opts.scale);
    sweep_table(opts.scale, opts.seed);
}

/// ns per position of one lockstep step, per roster function: as the
/// roster probe it is (t = 0 of a one-function roster) and as a
/// re-seeded probe (t = 1..=12 of the same roster), over four key
/// sets — scattered 27-bit keys (the cell kernel's on the benchmark's
/// tables: a handful of distinct decimal prefixes under a seed),
/// scattered 48-bit keys (every lane its own prefix), consecutive rows
/// at 48 bits, and consecutive rows of a 16-bin column at 27 bits (what
/// a build or a sweep hands a batch: the benchmark's build and sweep
/// batches are this shape). A last row divides each key set's
/// re-seeded column by its roster column, both summed over the roster.
fn lockstep_table(scale: f64) {
    let batches = ((scale * 6400.0) as usize).max(4);
    let keys =
        |key: &dyn Fn(u64) -> u64| -> Vec<u64> { (0..(batches * LANES) as u64).map(key).collect() };
    let key_sets = [
        keys(&|i| splitmix64(i) >> 37),
        keys(&|i| splitmix64(i) >> 16),
        keys(&|i| (0xA5A5 << 32) + i),
        keys(&|i| (((1 << 21) + i) << 5) | (splitmix64(i) % 16)),
    ];
    let mut rows = Vec::new();
    // Per key set, the roster and re-seeded ns summed over the roster.
    let mut sums = [[0.0; 2]; 4];
    for kind in HashKind::ROSTER {
        let family = HashFamily::Independent(vec![kind]);
        let prober = family.col_prober(0, CellMapper::RowOnly, 1 << 23);
        let mut row = vec![format!("{kind:?}").to_lowercase()];
        for (keys, sums) in key_sets.iter().zip(&mut sums) {
            let mut best = [Duration::MAX; 2];
            let mut lanes = LockstepLanes::new();
            let mut out = [0u64; LANES];
            for _ in 0..ROUNDS {
                let mut took = [Duration::ZERO; 2];
                for batch in keys.chunks(LANES) {
                    lanes.open(&prober, batch.iter().map(|&x| (x, 0)));
                    for step in 0..=RESEEDED_STEPS {
                        let start = Instant::now();
                        prober.next_positions_lockstep(&mut lanes, &mut out);
                        took[step.min(1)] += start.elapsed();
                        black_box(&out);
                    }
                }
                best = [best[0].min(took[0]), best[1].min(took[1])];
            }
            for (i, steps) in [1, RESEEDED_STEPS].into_iter().enumerate() {
                let ns = best[i].as_nanos() as f64 / (keys.len() * steps) as f64;
                sums[i] += ns;
                row.push(format!("{ns:.1}"));
            }
        }
        rows.push(row);
    }
    // What a re-seeded position costs over a roster one, per key set.
    let mut ratios = vec!["re-seeded ÷ roster".to_string()];
    for [roster, reseeded] in sums {
        ratios.extend([String::new(), format!("{:.2}", reseeded / roster)]);
    }
    rows.push(ratios);
    print_table(
        &format!(
            "Lockstep step, ns per position: roster probe / re-seeded probe \
             ({batches} batches of {LANES} lanes, fastest of {ROUNDS} rounds)"
        ),
        &[
            "function",
            "27-bit",
            "re-seeded",
            "48-bit",
            "re-seeded",
            "48-bit rows",
            "re-seeded",
            "27-bit rows",
            "re-seeded",
        ],
        &rows,
    );
}

/// ns per inserted cell of the batched insert every build path uses,
/// default roster, in-order rows of one 10-bin attribute at α = 32:
/// k = 6 and 10 stay inside the roster, 16 and 22 run 6 and 12
/// re-seeded probes a cell.
fn insert_table(scale: f64) {
    let cells = ((scale * 3_276_800.0) as u64).max(LANES as u64);
    let n_bits = (32 * cells).next_power_of_two();
    let ks = [6usize, 10, 16, 22];
    let mut best = [Duration::MAX; 4];
    for _ in 0..ROUNDS {
        for (k, best) in ks.iter().zip(&mut best) {
            let mut ab = ApproximateBitmap::new(
                n_bits,
                *k,
                HashFamily::default_independent(),
                CellMapper::for_columns(10),
            );
            let start = Instant::now();
            ab.insert_cells((0..cells).map(|row| (row, splitmix64(row) % 10)));
            *best = (*best).min(start.elapsed());
            black_box(ab.inserted());
        }
    }
    let row = best
        .iter()
        .map(|took| format!("{:.0}", took.as_nanos() as f64 / cells as f64))
        .collect();
    print_table(
        &format!(
            "Batched insert, ns per inserted cell ({cells} cells, fastest of {ROUNDS} builds)"
        ),
        &["k = 6", "k = 10", "k = 16", "k = 22"],
        &[row],
    );
}

/// ns per unit of work of the two set-up passes, per-attribute ABs at
/// the default pyramid and exact-tier configurations, on the shapes of
/// the benchmark's `prune_clustered` (one 16-bin column, each bin one
/// run — eight head bins and eight thin tail bins — α = 32, k = 22) and
/// `exact_skewed` (two Zipf columns over 12 bins, α = 8, k = 6).
/// A pyramid sweep's unit is a cell of the table (rows × bins: every
/// cell an empty region makes it test); the exact tier's is a row of a
/// column it reads (rows × attributes). The exact tier is built on the
/// index with the pyramid attached, as set-up builds it.
fn sweep_table(scale: f64, seed: u64) {
    let rows = ((scale * 13_107_200.0) as usize).max(1 << 14);
    let clustered = {
        // Head bin b runs 1/8 of what the tail leaves; the tail bins'
        // parts per million of the table follow the third and sixth head.
        let tail_ppm = [50, 500, 5_000, 100_000, 10_000, 1_000, 100, 10];
        let tail = |i: usize| (rows * tail_ppm[i] / 1_000_000).max(1);
        let head = (rows - (0..8).map(tail).sum::<usize>()) / 8;
        let mut bins: Vec<u32> = Vec::with_capacity(rows);
        for b in 0..8u32 {
            let run = if b == 7 { rows - bins.len() } else { head };
            bins.extend(std::iter::repeat_n(b, run));
            let block = match b {
                2 => 0..4,
                5 => 4..8,
                _ => 0..0,
            };
            for i in block {
                bins.extend(std::iter::repeat_n(8 + i as u32, tail(i)));
            }
        }
        BinnedTable::new(vec![BinnedColumn::new("c0", bins, 16)])
    };
    let zipf = {
        let mut r = datagen::rng(seed);
        let zipf = datagen::Zipf::new(12, 1.25);
        BinnedTable::new(
            (0..2)
                .map(|a| {
                    let bins = (0..rows).map(|_| zipf.sample(&mut r) as u32).collect();
                    BinnedColumn::new(format!("z{a}"), bins, 12)
                })
                .collect(),
        )
    };
    let mut out = Vec::new();
    for (name, table, alpha) in [("clustered", &clustered, 32), ("zipf", &zipf, 8)] {
        let mut index =
            AbIndex::build(table, &AbConfig::new(Level::PerAttribute).with_alpha(alpha));
        let mut best = [Duration::MAX; 2];
        let mut work = [0usize; 2];
        for _ in 0..ROUNDS {
            let start = Instant::now();
            let hier = HierAb::build(&index, &HierConfig::default());
            best[0] = best[0].min(start.elapsed());
            index.attach_hier(hier);
            let start = Instant::now();
            let tier = HybridAb::build(&index, table, &HybridConfig::default());
            best[1] = best[1].min(start.elapsed());
            let bins: usize = table.columns().iter().map(|c| c.cardinality as usize).sum();
            work = [rows * bins, rows * table.num_attributes()];
            black_box(tier.size_bytes());
        }
        let ns = |i: usize| format!("{:.1}", best[i].as_nanos() as f64 / work[i].max(1) as f64);
        out.push(vec![
            name.to_string(),
            work[0].to_string(),
            ns(0),
            work[1].to_string(),
            ns(1),
        ]);
    }
    print_table(
        &format!(
            "Set-up passes, ns per swept cell / row read ({rows} rows, fastest of {ROUNDS} builds)"
        ),
        &[
            "table",
            "pyramid cells",
            "pyramid ns",
            "exact-tier rows",
            "exact-tier ns",
        ],
        &out,
    );
}
