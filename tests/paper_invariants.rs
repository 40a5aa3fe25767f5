//! Checks that the closed-form pieces of the reproduction match the
//! paper's published numbers exactly — these are the values a reviewer
//! can diff against the PDF.

use ab::{ab_size_bytes, fp_rate, optimal_k};

/// Table 4: AB size (bytes) as a function of α, one AB per data set.
#[test]
fn table4_sizes_match_paper() {
    // Uniform: s = 200,000 set bits.
    assert_eq!(ab_size_bytes(200_000, 2), 65_536);
    assert_eq!(ab_size_bytes(200_000, 4), 131_072);
    assert_eq!(ab_size_bytes(200_000, 8), 262_144);
    assert_eq!(ab_size_bytes(200_000, 16), 524_288);
    // Landsat: s = 16,527,900.
    assert_eq!(ab_size_bytes(16_527_900, 2), 4_194_304);
    assert_eq!(ab_size_bytes(16_527_900, 4), 8_388_608);
    assert_eq!(ab_size_bytes(16_527_900, 8), 16_777_216);
    assert_eq!(ab_size_bytes(16_527_900, 16), 33_554_432);
    // HEP: s = 13,042,572 — the paper prints the same power-of-two
    // sizes as Landsat ("note that this is also the size we obtain for
    // HEP data, since we are restricting ourselves to powers of 2").
    assert_eq!(ab_size_bytes(13_042_572, 2), 4_194_304);
    assert_eq!(ab_size_bytes(13_042_572, 16), 33_554_432);
}

/// Table 5: AB size per attribute (single AB and all ABs).
#[test]
fn table5_sizes_match_paper() {
    // Uniform: N = 100,000, d = 2.
    assert_eq!(ab_size_bytes(100_000, 2), 32_768);
    assert_eq!(ab_size_bytes(100_000, 2) * 2, 65_536);
    assert_eq!(ab_size_bytes(100_000, 16), 262_144);
    assert_eq!(ab_size_bytes(100_000, 16) * 2, 524_288);
    // Landsat: N = 275,465, d = 60.
    assert_eq!(ab_size_bytes(275_465, 2), 131_072);
    assert_eq!(ab_size_bytes(275_465, 2) * 60, 7_864_320);
    assert_eq!(ab_size_bytes(275_465, 8), 524_288);
    assert_eq!(ab_size_bytes(275_465, 8) * 60, 31_457_280);
    assert_eq!(ab_size_bytes(275_465, 16) * 60, 62_914_560);
    // HEP: N = 2,173,762, d = 6.
    assert_eq!(ab_size_bytes(2_173_762, 2), 1_048_576);
    assert_eq!(ab_size_bytes(2_173_762, 2) * 6, 6_291_456);
    assert_eq!(ab_size_bytes(2_173_762, 16) * 6, 50_331_648);
}

/// §6.1's worked example: "the value for Landsat data for α = 4 … the
/// lowest power of 2 that is greater or equal to sα is 67,108,864 in
/// bits, and 8,388,608 in bytes."
#[test]
fn section61_worked_example() {
    assert_eq!(ab::ab_bits(16_527_900, 4), 67_108_864);
    assert_eq!(ab_size_bytes(16_527_900, 4), 8_388_608);
}

/// Figure 8/9 shape: FP falls with α; FP is U-shaped in k with the
/// minimum at α·ln2.
#[test]
fn fp_theory_shapes() {
    for k in [2usize, 4, 8] {
        assert!(fp_rate(k, 4.0) > fp_rate(k, 8.0));
        assert!(fp_rate(k, 8.0) > fp_rate(k, 16.0));
    }
    for alpha in [4.0f64, 8.0, 16.0] {
        let k = optimal_k(alpha);
        let expect = (alpha * std::f64::consts::LN_2).round() as isize;
        assert!((k as isize - expect).abs() <= 1, "alpha={alpha}: k={k}");
    }
}

/// The paper's privacy claim (contribution 6) rests on the AB alone
/// answering queries: deserialize an index with no data present and
/// query it.
#[test]
fn ab_answers_without_database_access() {
    let bytes = {
        let ds = datagen::small_uniform(2000, 2, 10, 31);
        let idx = ab::AbIndex::build(
            &ds.binned,
            &ab::AbConfig::new(ab::Level::PerAttribute).with_alpha(16),
        );
        ab::to_bytes(&idx)
        // ds and idx drop here: only the serialized AB crosses the
        // trust boundary.
    };
    let remote = ab::from_bytes(&bytes).unwrap();
    let q = bitmap::RectQuery::new(vec![bitmap::AttrRange::new(0, 0, 4)], 100, 400);
    let rows = remote.execute_rect(&q);
    // ~50% of 301 rows match attribute 0 in bins 0..=4.
    assert!(rows.len() > 100 && rows.len() < 250, "{}", rows.len());
}

/// Measured FP rate tracks (1 − e^{−k/α})^k within statistical noise
/// across a spread of (α, k) settings — the §4.1 model validation.
#[test]
fn measured_fp_tracks_theory() {
    use hashkit::{CellMapper, HashFamily};
    for &(alpha, k) in &[(4u64, 3usize), (8, 6), (16, 8)] {
        let s = 4000u64;
        let n = ab::ab_bits(s, alpha);
        let mut filter = ab::ApproximateBitmap::new(
            n,
            k,
            HashFamily::default_independent(),
            CellMapper::RowOnly,
        );
        for row in 0..s {
            filter.insert(row, 0);
        }
        let probes = 30_000u64;
        let fp = (s..s + probes).filter(|&r| filter.contains(r, 0)).count();
        let measured = fp as f64 / probes as f64;
        let theory = fp_rate(k, n as f64 / s as f64);
        assert!(
            measured < theory * 1.8 + 0.004,
            "alpha={alpha} k={k}: measured {measured:.5} vs theory {theory:.5}"
        );
    }
}

/// §4.3 probe accounting: the k hash probes per cell short-circuit on
/// the first zero bit, so across a query `cells_probed <= bits_read <=
/// cells_probed x k` — the bound behind the O(c) direct-access claim.
#[test]
fn bits_read_bounded_by_cells_probed_times_k() {
    let ds = datagen::small_uniform(3000, 3, 12, 47);
    for level in [
        ab::Level::PerDataset,
        ab::Level::PerAttribute,
        ab::Level::PerColumn,
    ] {
        let idx = ab::AbIndex::build(&ds.binned, &ab::AbConfig::new(level).with_alpha(8));
        let k = idx.max_k();
        let params = datagen::QueryGenParams::paper_default(&ds.binned, 300, 5);
        for q in datagen::generate(&ds.binned, &params) {
            let (_, stats) = idx
                .try_execute_rect_with_stats_opts(&q, ab::KernelOpts::default())
                .unwrap();
            assert!(
                stats.bits_read >= stats.cells_probed,
                "{level:?}: bits_read {} < cells_probed {}",
                stats.bits_read,
                stats.cells_probed
            );
            assert!(
                stats.bits_read <= stats.cells_probed * k,
                "{level:?}: bits_read {} > cells_probed {} x k {k}",
                stats.bits_read,
                stats.cells_probed
            );
        }
    }
}
