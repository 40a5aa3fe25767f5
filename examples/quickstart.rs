//! Quickstart: build an Approximate Bitmap index over a small table,
//! run an approximate query, then get the exact answer with the
//! second-step pruning — the flow `abq build` and `abq query` run.
//!
//! Run with: `cargo run --release --example quickstart`

use ab::{prune_false_positives, AbConfig, AbIndex, Level};
use bitmap::{AttrRange, BinnedTable, BitmapIndex, Column, Encoding, EquiDepth, RectQuery, Table};

fn main() {
    // Six years of daily measurements: temperature and humidity,
    // physically ordered by date.
    let days = 2192usize;
    let table = Table::new(vec![
        Column::new(
            "temperature",
            (0..days)
                .map(|d| 15.0 + 10.0 * (d as f64 * std::f64::consts::TAU / 365.0).sin())
                .collect(),
        ),
        Column::new(
            "humidity",
            (0..days).map(|d| 40.0 + ((d * 13) % 50) as f64).collect(),
        ),
    ]);

    // Bin each attribute into 32 equi-depth bins, build a per-attribute
    // AB with 16 bits per set bit, and keep the exact index around for
    // pruning.
    let binned = BinnedTable::from_table(&table, &EquiDepth::new(32));
    let index = AbIndex::build(&binned, &AbConfig::new(Level::PerAttribute).with_alpha(16));
    let exact_index = BitmapIndex::build(&binned, Encoding::Equality);

    println!(
        "AB index: {} ABs, {} bytes total (vs {} bytes exact bitmaps)",
        index.abs().len(),
        index.size_bytes(),
        exact_index.size_bytes(),
    );

    // Query over the last year only: days with temperature in the top
    // quarter of the distribution (summer) AND humidity in the lower
    // half.
    let query = RectQuery::new(
        vec![AttrRange::new(0, 24, 31), AttrRange::new(1, 0, 15)],
        days - 365,
        days - 1,
    );

    let approximate = index.execute_rect(&query);
    let exact = prune_false_positives(&exact_index, &query, &approximate);

    println!(
        "approximate answer ({} rows): {approximate:?}",
        approximate.len()
    );
    println!("exact answer       ({} rows): {exact:?}", exact.len());

    // The AB never misses a true match.
    assert!(exact.iter().all(|r| approximate.contains(r)));
    let precision = exact.len() as f64 / approximate.len().max(1) as f64;
    println!("precision of the approximate pass: {precision:.3} (recall is always 1.0)");
}
