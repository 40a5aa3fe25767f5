//! Codec shootout: every compressed-bitmap representation in the
//! workspace over the paper's three data sets.
//!
//! Extends Table 3's WAH column with BBC (the paper's other §2.2.1
//! codec), EWAH (WAH's 64-bit descendant), and a Roaring-style chunked
//! bitmap (where the field went after the run-length era), plus the
//! AND-query cost of each — grounding the paper's "BBC compresses
//! better, WAH operates faster" claim and the modern context.
//!
//! Usage: `cargo run --release -p bench --bin repro_codecs -- [--scale F]`

use bench::{cli, fmt_bytes, print_table, Bundle};
use bitmap::BitVec;
use roar::RoaringBitmap;
use std::time::Instant;
use wah::{BbcBitmap, EwahBitmap, WahBitmap};

/// Wall-clock milliseconds to run `f` once.
fn time_ms<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let opts = cli::from_env();
    println!(
        "Codec comparison at scale {} (seed {})",
        opts.scale, opts.seed
    );
    let bundles = Bundle::paper_bundles(opts.scale, opts.seed);

    let mut size_rows = Vec::new();
    let mut time_rows = Vec::new();
    for b in &bundles {
        // Collect all equality bin bitmaps of the data set.
        let bins: Vec<BitVec> = b
            .exact
            .attributes()
            .iter()
            .flat_map(|a| a.bitmaps.iter().cloned())
            .collect();
        let verbatim: usize = bins.iter().map(BitVec::size_bytes).sum();

        let wah: Vec<WahBitmap> = bins.iter().map(WahBitmap::from_bitvec).collect();
        let bbc: Vec<BbcBitmap> = bins.iter().map(BbcBitmap::from_bitvec).collect();
        let ewah: Vec<EwahBitmap> = bins.iter().map(EwahBitmap::from_bitvec).collect();
        let roar: Vec<RoaringBitmap> = bins
            .iter()
            .map(|bv| bv.iter_ones().map(|p| p as u32).collect())
            .collect();

        size_rows.push(vec![
            b.ds.name.clone(),
            fmt_bytes(verbatim as u64),
            fmt_bytes(wah.iter().map(WahBitmap::size_bytes).sum::<usize>() as u64),
            fmt_bytes(bbc.iter().map(BbcBitmap::size_bytes).sum::<usize>() as u64),
            fmt_bytes(ewah.iter().map(EwahBitmap::size_bytes).sum::<usize>() as u64),
            fmt_bytes(roar.iter().map(RoaringBitmap::size_bytes).sum::<usize>() as u64),
        ]);

        // Pairwise AND over the first 40 bin pairs: the §2.2.1 "WAH is
        // 2-20x faster than BBC" operation.
        let pairs: Vec<(usize, usize)> = (0..bins.len().saturating_sub(1).min(40))
            .map(|i| (i, i + 1))
            .collect();
        let wah_ms = time_ms(|| {
            for &(i, j) in &pairs {
                std::hint::black_box(wah[i].and(&wah[j]));
            }
        });
        let bbc_ms = time_ms(|| {
            for &(i, j) in &pairs {
                std::hint::black_box(bbc[i].and(&bbc[j]));
            }
        });
        let ewah_ms = time_ms(|| {
            for &(i, j) in &pairs {
                std::hint::black_box(ewah[i].and(&ewah[j]));
            }
        });
        let roar_ms = time_ms(|| {
            for &(i, j) in &pairs {
                std::hint::black_box(roar[i].and(&roar[j]));
            }
        });
        let verb_ms = time_ms(|| {
            for &(i, j) in &pairs {
                std::hint::black_box(bins[i].and(&bins[j]));
            }
        });
        time_rows.push(vec![
            b.ds.name.clone(),
            format!("{verb_ms:.2}"),
            format!("{wah_ms:.2}"),
            format!("{bbc_ms:.2}"),
            format!("{ewah_ms:.2}"),
            format!("{roar_ms:.2}"),
            format!("{:.1}x", bbc_ms / wah_ms.max(1e-9)),
        ]);
    }

    print_table(
        "Compressed sizes per codec (bytes, all equality bin bitmaps)",
        &["data set", "verbatim", "WAH", "BBC", "EWAH", "Roaring"],
        &size_rows,
    );
    print_table(
        "Pairwise AND over 40 bin pairs (ms total)",
        &[
            "data set", "verbatim", "WAH", "BBC", "EWAH", "Roaring", "BBC/WAH",
        ],
        &time_rows,
    );
    println!(
        "\nExpected shape (paper §2.2.1): BBC ≤ WAH in size, WAH 2-20x faster \
         than BBC in operations; EWAH and Roaring bracket both on modern data."
    );
}
