//! Parameter tuning and persistence: the two sizing modes of the
//! paper's contribution 3, the level trade-off of §4.2, and saving /
//! loading the built index.
//!
//! Run with: `cargo run --release --example tuning`

use ab::{AbConfig, AbIndex, Level, Sizing};
use bitmap::{BitmapIndex, Encoding};
use datagen::small_uniform;

fn main() {
    let ds = small_uniform(50_000, 4, 20, 11);
    let exact = BitmapIndex::build(&ds.binned, Encoding::Equality);
    let queries = {
        let params = datagen::QueryGenParams::paper_default(&ds.binned, 2_000, 3);
        datagen::generate(&ds.binned, &params)
    };
    let precision = |idx: &AbIndex| {
        let mut total = 0.0;
        for q in &queries {
            let approx = idx.execute_rect(q);
            let want = exact.evaluate_rows(q);
            let stats = ab::PrecisionStats::compare(&approx, &want);
            assert_eq!(stats.false_negatives, 0);
            total += stats.precision();
        }
        total / queries.len() as f64
    };

    // Mode 1: cap the memory, take the best precision that fits.
    println!("-- sizing by maximum size (per attribute) --");
    for m_max in [17u32, 19, 21] {
        let cfg = AbConfig {
            sizing: Sizing::MaxBits(m_max),
            ..AbConfig::new(Level::PerAttribute)
        };
        let idx = AbIndex::build(&ds.binned, &cfg);
        println!(
            "  m_max={m_max}: {:>9} bytes total, precision {:.3}",
            idx.size_bytes(),
            precision(&idx)
        );
    }

    // Mode 2: demand a precision, pay the least space. The target is
    // the paper's cell-level precision P = 1 - FP (§4.2); query-level
    // precision compounds over the probed cells, so aim high.
    println!("-- sizing by minimum (cell-level) precision (per attribute) --");
    for p_min in [0.99, 0.999, 0.9999] {
        let cfg = AbConfig {
            sizing: Sizing::MinPrecision(p_min),
            ..AbConfig::new(Level::PerAttribute)
        };
        let idx = AbIndex::build(&ds.binned, &cfg);
        println!(
            "  p_min={p_min}: {:>9} bytes total, measured query precision {:.3}",
            idx.size_bytes(),
            precision(&idx)
        );
    }

    // Level trade-off at fixed α: §4.2's size comparison, measured.
    println!("-- encoding level at alpha=8 --");
    for level in [Level::PerDataset, Level::PerAttribute, Level::PerColumn] {
        let idx = AbIndex::build(&ds.binned, &AbConfig::new(level).with_alpha(8));
        println!(
            "  {level}: {} ABs, {:>9} bytes, precision {:.3}",
            idx.abs().len(),
            idx.size_bytes(),
            precision(&idx)
        );
    }
    // The closed-form chooser agrees with the measured sizes.
    let column_bits: Vec<u64> = ds
        .binned
        .columns()
        .iter()
        .flat_map(|c| c.bin_counts().into_iter().map(|x| x as u64))
        .collect();
    let sizes = ab::level_sizes(ds.rows() as u64, ds.attributes() as u64, &column_bits, 8);
    println!("  closed-form recommendation: {}", ab::choose_level(&sizes));

    // Persistence: ship the index without the data (the paper's
    // privacy-preserving deployment, contribution 6).
    let idx = AbIndex::build(
        &ds.binned,
        &AbConfig::new(Level::PerAttribute).with_alpha(8),
    );
    // The file is the page-checked store (a one-shard envelope), so
    // every byte is verified before the index is decoded.
    let payload = ab::shards_to_bytes(&[(0, &idx)]);
    let path = std::env::temp_dir().join("ab_index.abpg");
    store::write(&path, &payload, store::DEFAULT_PAGE_SIZE, &store::RealIo).expect("write index");
    let st = store::Store::open(&path).expect("open index");
    let (_, loaded) = ab::shards_from_bytes(st.payload())
        .expect("decode")
        .pop()
        .expect("one shard");
    println!(
        "-- persistence --\n  wrote {} bytes to {}, reloaded: {} ABs, precision {:.3}",
        st.header().file_len(),
        path.display(),
        loaded.abs().len(),
        precision(&loaded)
    );
}
