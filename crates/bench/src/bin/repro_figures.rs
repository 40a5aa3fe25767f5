//! Regenerates the paper's Figures 8–14 as printed data series.
//!
//! * Figures 8–9 — theoretical FP rate curves (closed form, §4.1).
//! * Figure 10 — precision vs hash-function choice: (a) single hash
//!   functions across AB sizes m, (b) hash families across k.
//! * Figure 11 — precision vs (a) α, (b) k, (c) rows queried.
//! * Figure 12 — AB execution time vs α.
//! * Figure 13 — AB execution time vs k.
//! * Figure 14 — execution time WAH vs AB vs rows queried, including
//!   the ~15% crossover check.
//! * `reorder` — the §2.2.1 row-reordering ablation: natural vs
//!   lexicographic vs Gray-code row order, measured as bit transitions
//!   and compressed size under WAH, BBC, and Roaring.
//!
//! Usage: `cargo run --release -p bench --bin repro_figures --
//!         [--figure 8|9|10a|10b|11a|11b|11c|12|13|14|reorder|all]
//!         [--scale F] [--queries N] [--seed N]`

use ab::{AbConfig, Sizing};
use bench::{
    ab_query_time_ms, cli, mean_precision, mean_tuples, paper_alpha, paper_level, print_table,
    wah_query_time_ms, Bundle,
};
use hashkit::{HashFamily, HashKind};

fn main() {
    let opts = cli::from_env();
    let which = opts.selector.clone().unwrap_or_else(|| "all".to_owned());
    let run = |name: &str| which == "all" || which == name;
    let mut matched = false;
    if run("8") {
        fig8();
        matched = true;
    }
    if run("9") {
        fig9();
        matched = true;
    }
    if run("10a") {
        fig10a(&opts);
        matched = true;
    }
    if run("10b") {
        fig10b(&opts);
        matched = true;
    }
    if run("11a") {
        fig11a(&opts);
        matched = true;
    }
    if run("11b") {
        fig11b(&opts);
        matched = true;
    }
    if run("11c") {
        fig11c(&opts);
        matched = true;
    }
    if run("12") {
        fig12(&opts);
        matched = true;
    }
    if run("13") {
        fig13(&opts);
        matched = true;
    }
    if run("14") {
        fig14(&opts);
        matched = true;
    }
    if run("reorder") {
        reorder_ablation(&opts);
        matched = true;
    }
    if !matched {
        eprintln!("unknown figure `{which}`");
        std::process::exit(2);
    }
}

/// Figure 8: theoretical false-positive rate as a function of α.
fn fig8() {
    let ks = [1usize, 2, 4, 6, 8];
    let rows: Vec<Vec<String>> = (1..=32u64)
        .filter(|a| a.is_power_of_two() || a % 4 == 0)
        .map(|alpha| {
            let mut row = vec![alpha.to_string()];
            row.extend(
                ks.iter()
                    .map(|&k| format!("{:.6}", ab::fp_rate(k, alpha as f64))),
            );
            row
        })
        .collect();
    print_table(
        "Figure 8: False Positive Rate as a function of alpha",
        &["alpha", "k=1", "k=2", "k=4", "k=6", "k=8"],
        &rows,
    );
}

/// Figure 9: theoretical false-positive rate as a function of k.
fn fig9() {
    let alphas = [2u64, 4, 8, 16];
    let rows: Vec<Vec<String>> = (1..=10usize)
        .map(|k| {
            let mut row = vec![k.to_string()];
            row.extend(
                alphas
                    .iter()
                    .map(|&a| format!("{:.6}", ab::fp_rate(k, a as f64))),
            );
            row
        })
        .collect();
    print_table(
        "Figure 9: False Positive Rate as a function of k",
        &["k", "alpha=2", "alpha=4", "alpha=8", "alpha=16"],
        &rows,
    );
    let rows: Vec<Vec<String>> = alphas
        .iter()
        .map(|&a| {
            vec![
                a.to_string(),
                ab::optimal_k(a as f64).to_string(),
                format!("{:.6}", ab::fp_rate(ab::optimal_k(a as f64), a as f64)),
            ]
        })
        .collect();
    print_table("Optimal k per alpha", &["alpha", "k*", "FP(k*)"], &rows);
}

/// Figure 10(a): measured precision of *single* hash functions (k=1)
/// as the AB size exponent m grows — uniform data, one AB per data
/// set.
fn fig10a(opts: &cli::Options) {
    let bundle = Bundle::new(datagen::uniform_dataset(opts.scale, opts.seed));
    let queries = bundle.queries(bundle.ds.rows() / 10, opts.seed + 1);
    let s = bundle.ds.total_set_bits() as u64;
    let m_exact = 64 - (s - 1).leading_zeros(); // m where AB bits ≥ set bits
                                                // Sweep far enough that the circular hash becomes injective over
                                                // x = row<<shift | col ("the precision is 1 when there are enough
                                                // bits to accommodate all rows", Fig 10a).
    let shift = 64 - (bundle.ds.total_bitmaps() as u64).leading_zeros();
    let m_inject = 64 - ((bundle.ds.rows() as u64 - 1).leading_zeros()) + shift;
    let ms: Vec<u32> = (m_exact.saturating_sub(2)..=m_inject.max(m_exact + 4)).collect();

    let functions: Vec<(&str, HashFamily)> = vec![
        (
            "circular",
            HashFamily::Independent(vec![HashKind::Circular]),
        ),
        ("column_group", HashFamily::ColumnGroup { num_columns: 0 }),
        ("bkdr", HashFamily::Independent(vec![HashKind::Bkdr])),
        ("djb", HashFamily::Independent(vec![HashKind::Djb])),
        ("pjw", HashFamily::Independent(vec![HashKind::Pjw])),
        ("sha1", HashFamily::Sha1Split),
    ];
    let mut rows = Vec::new();
    for m in &ms {
        let mut row = vec![m.to_string()];
        for (_, family) in &functions {
            let cfg = AbConfig::new(ab::Level::PerDataset)
                .with_family(family.clone())
                .with_k(1);
            let cfg = AbConfig {
                sizing: Sizing::MaxBits(*m),
                ..cfg
            };
            let ab_idx = bundle.ab(&cfg);
            row.push(format!(
                "{:.3}",
                mean_precision(&ab_idx, &bundle.exact, &queries)
            ));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("m")
        .chain(functions.iter().map(|(n, _)| *n))
        .collect();
    print_table(
        "Figure 10(a): Precision vs AB size exponent m, single hash functions (k=1)",
        &headers,
        &rows,
    );
}

/// Figure 10(b): measured precision of hash families as k grows.
fn fig10b(opts: &cli::Options) {
    let bundle = Bundle::new(datagen::uniform_dataset(opts.scale, opts.seed));
    let queries = bundle.queries(bundle.ds.rows() / 10, opts.seed + 1);
    let families: Vec<(&str, HashFamily)> = vec![
        ("independent", HashFamily::default_independent()),
        ("sha1_split", HashFamily::Sha1Split),
        ("double_hash", HashFamily::DoubleHashing),
        ("column_group", HashFamily::ColumnGroup { num_columns: 0 }),
    ];
    let mut rows = Vec::new();
    for k in 1..=10usize {
        let mut row = vec![k.to_string()];
        for (_, family) in &families {
            let cfg = AbConfig::new(ab::Level::PerDataset)
                .with_alpha(8)
                .with_family(family.clone())
                .with_k(k);
            let ab_idx = bundle.ab(&cfg);
            row.push(format!(
                "{:.3}",
                mean_precision(&ab_idx, &bundle.exact, &queries)
            ));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("k")
        .chain(families.iter().map(|(n, _)| *n))
        .collect();
    print_table(
        "Figure 10(b): Precision vs k for hash families (alpha=8, per-dataset AB)",
        &headers,
        &rows,
    );
}

/// Figure 11(a): precision as a function of α, all data sets.
fn fig11a(opts: &cli::Options) {
    let bundles = Bundle::paper_bundles(opts.scale, opts.seed);
    let mut rows = Vec::new();
    for alpha in [2u64, 4, 8, 16] {
        let mut row = vec![alpha.to_string()];
        for b in &bundles {
            let ab_idx = b.ab(&AbConfig::new(paper_level(&b.ds.name)).with_alpha(alpha));
            let queries = b.queries(b.ds.rows() / 10, opts.seed + 1);
            row.push(format!(
                "{:.3}",
                mean_precision(&ab_idx, &b.exact, &queries)
            ));
        }
        rows.push(row);
    }
    print_table(
        "Figure 11(a): Precision as a function of alpha",
        &["alpha", "uniform", "landsat", "hep"],
        &rows,
    );
    // The power-of-two round-up (§4.2) makes the *effective* α
    // scale-dependent; print it so small-scale runs are interpretable
    // against the paper's full-scale numbers.
    for b in &bundles {
        let ab_idx = b.ab(&AbConfig::new(paper_level(&b.ds.name)).with_alpha(8));
        let eff = (ab_idx.size_bytes() * 8) as f64 / b.ds.total_set_bits() as f64;
        println!(
            "{}: nominal alpha=8 -> effective alpha={eff:.2} at this scale",
            b.ds.name
        );
    }
}

/// Figure 11(b): precision as a function of k at each data set's §6.1 α.
fn fig11b(opts: &cli::Options) {
    let bundles = Bundle::paper_bundles(opts.scale, opts.seed);
    let mut rows = Vec::new();
    for k in 1..=10usize {
        let mut row = vec![k.to_string()];
        for b in &bundles {
            let cfg = AbConfig::new(paper_level(&b.ds.name))
                .with_alpha(paper_alpha(&b.ds.name))
                .with_k(k);
            let ab_idx = b.ab(&cfg);
            let queries = b.queries(b.ds.rows() / 10, opts.seed + 1);
            row.push(format!(
                "{:.3}",
                mean_precision(&ab_idx, &b.exact, &queries)
            ));
        }
        rows.push(row);
    }
    print_table(
        "Figure 11(b): Precision as a function of k (uniform a=16, landsat a=8, hep a=8)",
        &["k", "uniform", "landsat", "hep"],
        &rows,
    );
}

/// Figure 11(c): precision as a function of the number of rows
/// queried (flat), plus the §6.2 mean-tuples-returned numbers.
fn fig11c(opts: &cli::Options) {
    let bundles = Bundle::paper_bundles(opts.scale, opts.seed);
    let fractions = [0.001f64, 0.005, 0.01, 0.05, 0.10];
    let mut rows = Vec::new();
    let mut tuple_rows = Vec::new();
    for (i, &frac) in fractions.iter().enumerate() {
        let mut row = vec![format!("{:.1}%", frac * 100.0)];
        for b in &bundles {
            let target = ((b.ds.rows() as f64 * frac) as usize).max(1);
            let ab_idx = b.paper_ab();
            let queries = b.queries(target, opts.seed + 2 + i as u64);
            row.push(format!(
                "{:.3}",
                mean_precision(&ab_idx, &b.exact, &queries)
            ));
            if i + 1 == fractions.len() {
                let (exact_t, ab_t) = mean_tuples(&ab_idx, &b.exact, &queries);
                tuple_rows.push(vec![
                    b.ds.name.clone(),
                    format!("{exact_t:.1}"),
                    format!("{ab_t:.1}"),
                ]);
            }
        }
        rows.push(row);
    }
    print_table(
        "Figure 11(c): Precision as a function of rows queried (fraction of N)",
        &["rows", "uniform", "landsat", "hep"],
        &rows,
    );
    print_table(
        "Mean tuples per query at the largest row count (exact vs AB, cf. §6.2)",
        &["data set", "exact", "AB"],
        &tuple_rows,
    );
}

/// Figure 12: AB execution time as a function of α. k is held fixed
/// so the effect shown is the paper's: "as α increases the execution
/// time decreases because the false positive rate gets smaller" —
/// fewer spurious probe continuations and fewer false OR-hits.
fn fig12(opts: &cli::Options) {
    let bundles = Bundle::paper_bundles(opts.scale, opts.seed);
    let k = 4usize;
    let mut rows = Vec::new();
    for alpha in [2u64, 4, 8, 16] {
        let mut row = vec![alpha.to_string()];
        for b in &bundles {
            let ab_idx = b.ab(&AbConfig::new(paper_level(&b.ds.name))
                .with_alpha(alpha)
                .with_k(k));
            let queries = b.queries(b.ds.rows() / 10, opts.seed + 1);
            row.push(format!("{:.4}", ab_query_time_ms(&ab_idx, &queries)));
        }
        rows.push(row);
    }
    print_table(
        "Figure 12: AB execution time (ms/query) as a function of alpha (k=4 fixed)",
        &["alpha", "uniform", "landsat", "hep"],
        &rows,
    );
}

/// Figure 13: AB execution time as a function of k.
fn fig13(opts: &cli::Options) {
    let bundles = Bundle::paper_bundles(opts.scale, opts.seed);
    let mut rows = Vec::new();
    for k in 1..=10usize {
        let mut row = vec![k.to_string()];
        for b in &bundles {
            let cfg = AbConfig::new(paper_level(&b.ds.name))
                .with_alpha(paper_alpha(&b.ds.name))
                .with_k(k);
            let ab_idx = b.ab(&cfg);
            let queries = b.queries(b.ds.rows() / 10, opts.seed + 1);
            row.push(format!("{:.4}", ab_query_time_ms(&ab_idx, &queries)));
        }
        rows.push(row);
    }
    print_table(
        "Figure 13: AB execution time (ms/query) as a function of k",
        &["k", "uniform", "landsat", "hep"],
        &rows,
    );
}

/// Figure 14: execution time WAH vs AB, varying rows queried.
///
/// Two sweeps per data set: the paper's absolute row counts (100 to
/// 10,000 rows, where the 1–3 orders-of-magnitude speedups live —
/// scaled by `--scale` off full size), and a row-fraction sweep
/// locating the crossover ("up to around 15% of the rows" in the
/// paper; earlier on modern hardware, where compressed word scans are
/// comparatively cheaper than hashing).
fn fig14(opts: &cli::Options) {
    let bundles = Bundle::paper_bundles(opts.scale, opts.seed);
    for b in &bundles {
        let ab_idx = b.paper_ab();

        // Sweep 1: the paper's absolute row counts.
        let paper_rows = [100usize, 500, 1_000, 5_000, 10_000];
        let mut rows = Vec::new();
        for (i, &pr) in paper_rows.iter().enumerate() {
            let target = (((pr as f64) * opts.scale) as usize).clamp(10, b.ds.rows());
            let queries = b.queries(target, opts.seed + 13 + i as u64);
            let ab_ms = ab_query_time_ms(&ab_idx, &queries);
            let wah_ms = wah_query_time_ms(&b.wah, &queries[..queries.len().min(20)]);
            rows.push(vec![
                pr.to_string(),
                target.to_string(),
                format!("{wah_ms:.4}"),
                format!("{ab_ms:.4}"),
                format!("{:.1}x", wah_ms / ab_ms.max(1e-9)),
            ]);
        }
        print_table(
            &format!(
                "Figure 14 ({}): WAH vs AB (ms/query), paper row counts, alpha={}",
                b.ds.name,
                paper_alpha(&b.ds.name)
            ),
            &["paper rows", "rows at scale", "WAH ms", "AB ms", "speedup"],
            &rows,
        );

        // Sweep 2: fractions of N, to find the crossover.
        let fractions = [0.001f64, 0.005, 0.01, 0.05, 0.10, 0.15, 0.20, 0.30];
        let mut rows = Vec::new();
        let mut crossover: Option<f64> = None;
        for (i, &frac) in fractions.iter().enumerate() {
            let target = ((b.ds.rows() as f64 * frac) as usize).max(1);
            let queries = b.queries(target, opts.seed + 3 + i as u64);
            let ab_ms = ab_query_time_ms(&ab_idx, &queries);
            let wah_ms = wah_query_time_ms(&b.wah, &queries[..queries.len().min(20)]);
            if crossover.is_none() && ab_ms > wah_ms {
                crossover = Some(frac);
            }
            rows.push(vec![
                format!("{:.1}%", frac * 100.0),
                target.to_string(),
                format!("{wah_ms:.4}"),
                format!("{ab_ms:.4}"),
                format!("{:.1}x", wah_ms / ab_ms.max(1e-9)),
            ]);
        }
        print_table(
            &format!(
                "Figure 14 ({}): crossover sweep (fractions of N)",
                b.ds.name
            ),
            &["rows", "abs rows", "WAH ms", "AB ms", "speedup"],
            &rows,
        );
        match crossover {
            Some(f) => println!("AB loses to WAH above ~{:.0}% of rows", f * 100.0),
            None => println!("AB faster than WAH across the whole sweep"),
        }
    }
}

/// Row-reordering ablation (§2.2.1): how much do the lexicographic
/// and Gray-code heuristics shrink run-length-compressed bitmaps on
/// the paper's data sets? Measured three ways — raw bit transitions
/// (the quantity run-length codes pay for) and the summed compressed
/// size of every bitmap under WAH, BBC, and Roaring.
fn reorder_ablation(opts: &cli::Options) {
    use bitmap::{
        apply_permutation, gray_order, lexicographic_order, total_transitions, BinnedTable,
    };

    /// Summed compressed bytes over every bitmap of every attribute.
    fn codec_sizes(t: &BinnedTable) -> (usize, usize, usize) {
        let (mut wah_sz, mut bbc_sz, mut roar_sz) = (0usize, 0usize, 0usize);
        for col in t.columns() {
            let mut per_bin: Vec<Vec<usize>> = vec![Vec::new(); col.cardinality as usize];
            for (i, &b) in col.bins.iter().enumerate() {
                per_bin[b as usize].push(i);
            }
            for ones in &per_bin {
                wah_sz +=
                    wah::WahBitmap::from_ones(t.num_rows(), ones.iter().copied()).size_bytes();
                bbc_sz +=
                    wah::BbcBitmap::from_ones(t.num_rows(), ones.iter().copied()).size_bytes();
                let mut r = roar::RoaringBitmap::from_sorted(ones.iter().map(|&i| i as u32));
                r.optimize();
                roar_sz += r.size_bytes();
            }
        }
        (wah_sz, bbc_sz, roar_sz)
    }

    let bundles = Bundle::paper_bundles(opts.scale, opts.seed);
    let mut rows = Vec::new();
    for b in &bundles {
        let natural = &b.ds.binned;
        let orders: [(&str, BinnedTable); 3] = [
            ("natural", natural.clone()),
            (
                "lex",
                apply_permutation(natural, &lexicographic_order(natural)),
            ),
            ("gray", apply_permutation(natural, &gray_order(natural))),
        ];
        let base_wah = codec_sizes(natural).0 as f64;
        for (order, t) in &orders {
            let transitions = total_transitions(t);
            let (wah_sz, bbc_sz, roar_sz) = codec_sizes(t);
            rows.push(vec![
                b.ds.name.clone(),
                (*order).to_string(),
                transitions.to_string(),
                wah_sz.to_string(),
                bbc_sz.to_string(),
                roar_sz.to_string(),
                format!("{:.2}x", base_wah / wah_sz as f64),
            ]);
        }
    }
    print_table(
        "Row reordering ablation: transitions and compressed bytes (WAH shrink vs natural)",
        &[
            "data set",
            "order",
            "transitions",
            "WAH B",
            "BBC B",
            "Roaring B",
            "WAH shrink",
        ],
        &rows,
    );
}
