//! Regenerates the paper's Tables 3–7.
//!
//! * Table 3 — data-set descriptions and WAH compression (measured on
//!   the generated data at `--scale`, default 0.02).
//! * Tables 4–6 — AB sizes per level as a function of α. These are
//!   closed-form (§4.2), so they are printed at the full paper scale
//!   regardless of `--scale`; per-column sizes use the equi-depth bin
//!   occupancies `⌈N/C⌉`.
//! * Table 7 — the query-generation parameters.
//!
//! Usage: `cargo run --release -p bench --bin repro_tables -- [--table N] [--scale F]`

use ab::ab_size_bytes;
use bench::{cli, fmt_bytes, print_table, Bundle};

/// Paper-scale structural parameters of the three data sets
/// (Table 3): name, rows, attributes, bins per attribute.
const PAPER_SHAPES: [(&str, u64, u64, u64); 3] = [
    ("Uniform", 100_000, 2, 50),
    ("Landsat", 275_465, 60, 15),
    ("HEP", 2_173_762, 6, 11),
];

const ALPHAS: [u64; 4] = [2, 4, 8, 16];

fn main() {
    let opts = cli::from_env();
    let which = opts.selector.clone().unwrap_or_else(|| "all".to_owned());
    match which.as_str() {
        "3" => table3(&opts),
        "4" => table4(),
        "5" => table5(),
        "6" => table6(),
        "7" => table7(),
        "all" => {
            table3(&opts);
            table4();
            table5();
            table6();
            table7();
        }
        other => {
            eprintln!("unknown table `{other}` (expected 3..7 or all)");
            std::process::exit(2);
        }
    }
}

/// Table 3: Data Set Descriptions (measured at `--scale`).
fn table3(opts: &cli::Options) {
    println!(
        "Generating data sets at scale {} (use --full for paper scale)…",
        opts.scale
    );
    let bundles = Bundle::paper_bundles(opts.scale, opts.seed);
    let rows: Vec<Vec<String>> = bundles
        .iter()
        .map(|b| {
            let uncompressed = b.exact.size_bytes() as u64;
            let wah = b.wah.size_bytes() as u64;
            vec![
                b.ds.name.clone(),
                fmt_bytes(b.ds.rows() as u64),
                b.ds.attributes().to_string(),
                b.ds.total_bitmaps().to_string(),
                fmt_bytes(b.ds.total_set_bits() as u64),
                fmt_bytes(uncompressed),
                fmt_bytes(wah),
                format!("{:.2}", wah as f64 / uncompressed as f64),
            ]
        })
        .collect();
    print_table(
        "Table 3: Data Set Descriptions",
        &[
            "Data set",
            "Rows",
            "Attributes",
            "Bitmaps",
            "Setbits",
            "Uncompressed (bytes)",
            "WAH (bytes)",
            "Ratio",
        ],
        &rows,
    );
}

/// Table 4: AB size as a function of α — one AB per data set.
fn table4() {
    let rows: Vec<Vec<String>> = PAPER_SHAPES
        .iter()
        .map(|&(name, n, d, _)| {
            let s = n * d;
            let mut row = vec![name.to_owned(), "1".to_owned()];
            row.extend(ALPHAS.iter().map(|&a| fmt_bytes(ab_size_bytes(s, a))));
            row
        })
        .collect();
    print_table(
        "Table 4: AB Size (bytes) vs alpha — one AB per data set (paper scale)",
        &["Data set", "#ABs", "a=2", "a=4", "a=8", "a=16"],
        &rows,
    );
}

/// Table 5: AB size as a function of α — one AB per attribute.
fn table5() {
    let rows: Vec<Vec<String>> = PAPER_SHAPES
        .iter()
        .map(|&(name, n, d, _)| {
            let mut row = vec![name.to_owned(), d.to_string()];
            for &a in &ALPHAS {
                let single = ab_size_bytes(n, a);
                row.push(fmt_bytes(single));
                row.push(fmt_bytes(single * d));
            }
            row
        })
        .collect();
    print_table(
        "Table 5: AB Size (bytes) vs alpha — one AB per attribute (paper scale)",
        &[
            "Data set",
            "#ABs",
            "a=2 single",
            "a=2 all",
            "a=4 single",
            "a=4 all",
            "a=8 single",
            "a=8 all",
            "a=16 single",
            "a=16 all",
        ],
        &rows,
    );
}

/// Table 6: AB size as a function of α — one AB per column.
///
/// Per-column set-bit counts follow the equi-depth binning of §5.1:
/// `N mod C` columns hold `⌈N/C⌉` rows and the rest `⌊N/C⌋`.
fn table6() {
    let rows: Vec<Vec<String>> = PAPER_SHAPES
        .iter()
        .map(|&(name, n, d, c)| {
            let num_abs = d * c;
            let lo = n / c;
            let hi_cols = (n % c) * d; // columns with one extra row
            let lo_cols = num_abs - hi_cols;
            let mut row = vec![name.to_owned(), num_abs.to_string()];
            for &a in &ALPHAS {
                let total = lo_cols * ab_size_bytes(lo, a) + hi_cols * ab_size_bytes(lo + 1, a);
                row.push(fmt_bytes(total / num_abs));
                row.push(fmt_bytes(total));
            }
            row
        })
        .collect();
    print_table(
        "Table 6: AB Size (bytes) vs alpha — one AB per column (paper scale, equi-depth bins)",
        &[
            "Data set", "#ABs", "a=2 avg", "a=2 all", "a=4 avg", "a=4 all", "a=8 avg", "a=8 all",
            "a=16 avg", "a=16 all",
        ],
        &rows,
    );
}

/// Table 7: query-generation parameters. The `sel`/`r` values realize
/// the §5.4 setting: 2-dimensional queries of 4 bins per attribute,
/// row counts 100–10,000.
fn table7() {
    let rows = vec![
        vec![
            "Uniform".into(),
            "2".into(),
            "0.08 (4/50 bins)".into(),
            ".1, .5, 1, 5, 10 (% rows)".into(),
        ],
        vec![
            "Landsat".into(),
            "2".into(),
            "0.27 (4/15 bins)".into(),
            ".04, .2, .4, 2, 4 (% rows)".into(),
        ],
        vec![
            "HEP".into(),
            "2".into(),
            "0.36 (4/11 bins)".into(),
            ".005, .02, .05, .2, .5 (% rows)".into(),
        ],
    ];
    print_table(
        "Table 7: Parameter Values for Query Generation (q = 100)",
        &["Data set", "qdim", "sel", "r"],
        &rows,
    );
}
