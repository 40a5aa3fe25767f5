//! Property-based tests for the Approximate Bitmap core invariants.

use ab::{AbConfig, AbIndex, Cell, Level, PrecisionStats, Sizing};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, BitmapIndex, Encoding, RectQuery};
use hashkit::HashFamily;
use proptest::prelude::*;

/// Strategy: a random binned table (rows 1..150, 1..4 attributes of
/// cardinality 2..8).
fn binned_table() -> impl Strategy<Value = BinnedTable> {
    (1usize..150, 1usize..4, 2u32..8).prop_flat_map(|(rows, attrs, card)| {
        prop::collection::vec(prop::collection::vec(0..card, rows..=rows), attrs..=attrs).prop_map(
            move |cols| {
                BinnedTable::new(
                    cols.into_iter()
                        .enumerate()
                        .map(|(i, bins)| BinnedColumn::new(format!("a{i}"), bins, card))
                        .collect(),
                )
            },
        )
    })
}

fn any_level() -> impl Strategy<Value = Level> {
    prop_oneof![
        Just(Level::PerDataset),
        Just(Level::PerAttribute),
        Just(Level::PerColumn),
    ]
}

fn any_family() -> impl Strategy<Value = HashFamily> {
    prop_oneof![
        Just(HashFamily::default_independent()),
        Just(HashFamily::Sha1Split),
        Just(HashFamily::DoubleHashing),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's central guarantee: false misses never occur, at any
    /// level, with any family, even with tiny ABs (α = 2).
    #[test]
    fn never_a_false_negative(table in binned_table(), level in any_level(),
                              family in any_family(), alpha in 2u64..16) {
        let cfg = AbConfig::new(level).with_alpha(alpha).with_family(family);
        let idx = AbIndex::build(&table, &cfg);
        for (a, col) in table.columns().iter().enumerate() {
            for (row, &bin) in col.bins.iter().enumerate() {
                prop_assert!(idx.test_cell(row, a, bin),
                    "false negative at ({row},{a},{bin}) level={level:?}");
            }
        }
    }

    /// Rectangular AB answers are supersets of the exact answers.
    #[test]
    fn rect_queries_have_full_recall(table in binned_table(), level in any_level(),
                                     alpha in 2u64..16, seed in any::<u64>()) {
        let idx = AbIndex::build(&table, &AbConfig::new(level).with_alpha(alpha));
        let exact = BitmapIndex::build(&table, Encoding::Equality);
        let rows = table.num_rows();
        let card = table.column(0).cardinality;
        let lo_bin = (seed % card as u64) as u32;
        let hi_bin = (lo_bin + 1).min(card - 1);
        let row_lo = (seed as usize / 7) % rows;
        let q = RectQuery::new(vec![AttrRange::new(0, lo_bin, hi_bin)], row_lo, rows - 1);
        let approx = idx.execute_rect(&q);
        let want = exact.evaluate_rows(&q);
        let stats = PrecisionStats::compare(&approx, &want);
        prop_assert_eq!(stats.false_negatives, 0);
    }

    /// The exact second step restores the precise answer.
    #[test]
    fn pruning_restores_exact(table in binned_table(), alpha in 2u64..8) {
        let idx = AbIndex::build(&table, &AbConfig::new(Level::PerAttribute).with_alpha(alpha));
        let exact = BitmapIndex::build(&table, Encoding::Equality);
        let rows = table.num_rows();
        let card = table.column(0).cardinality;
        let q = RectQuery::new(vec![AttrRange::new(0, 0, card / 2)], 0, rows - 1);
        let approx = idx.execute_rect(&q);
        let pruned = ab::prune_false_positives(&exact, &q, &approx);
        prop_assert_eq!(pruned, exact.evaluate_rows(&q));
    }

    /// Serialization roundtrips preserve query behaviour cell by cell.
    #[test]
    fn io_roundtrip_preserves_answers(table in binned_table(), level in any_level()) {
        let idx = AbIndex::build(&table, &AbConfig::new(level).with_alpha(4));
        let back = ab::from_bytes(&ab::to_bytes(&idx)).unwrap();
        for (a, col) in table.columns().iter().enumerate() {
            for row in (0..table.num_rows()).step_by(7) {
                for bin in 0..col.cardinality {
                    let c = [Cell::new(row, a, bin)];
                    prop_assert_eq!(idx.retrieve_cells(&c), back.retrieve_cells(&c));
                }
            }
        }
    }

    /// Sizing by minimum precision always meets the target (theory).
    #[test]
    fn min_precision_sizing_meets_target(s in 1u64..1_000_000, p in 0.5f64..0.999) {
        let params = Sizing::MinPrecision(p).params(s, None);
        prop_assert!(params.expected_precision(s) >= p - 1e-6,
            "s={} p={}: params {:?}", s, p, params);
    }

    /// FP theory sanity: precision is monotone in α for optimal k.
    #[test]
    fn precision_monotone_in_alpha(a1 in 1u64..32, a2 in 1u64..32) {
        let (lo, hi) = (a1.min(a2), a1.max(a2));
        prop_assume!(lo != hi);
        let p_lo = ab::precision(ab::optimal_k(lo as f64), lo as f64);
        let p_hi = ab::precision(ab::optimal_k(hi as f64), hi as f64);
        prop_assert!(p_hi >= p_lo - 1e-12);
    }

    /// Deserializing arbitrary bytes must fail cleanly, never panic or
    /// over-allocate.
    #[test]
    fn from_bytes_rejects_garbage(mut bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = ab::from_bytes(&bytes); // must not panic
        // Also with a valid magic+version prefix and garbage after.
        let mut prefixed = b"ABIX\x06\x00".to_vec();
        prefixed.append(&mut bytes);
        let _ = ab::from_bytes(&prefixed);
    }

    /// Bit-flipping a valid serialization either still decodes (benign
    /// field) or errors — never panics. No checksum stands in front of
    /// the parsers, and the index carries a pyramid and an exact tier,
    /// so a flip reaches whichever field it lands in.
    #[test]
    fn from_bytes_survives_bitflips(flip_byte in 0usize..2000, flip_bit in 0u8..8) {
        let table = BinnedTable::new(vec![
            BinnedColumn::new("a", vec![0, 1, 2, 1, 0], 3),
        ]);
        let mut idx = AbIndex::build(&table, &AbConfig::new(Level::PerAttribute).with_alpha(8));
        idx.ensure_hier(&ab::HierConfig::default());
        idx.ensure_hybrid(&table, &ab::HybridConfig { min_density: 0.0, ..Default::default() });
        let mut bytes = ab::to_bytes(&idx);
        let pos = flip_byte % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        let _ = ab::from_bytes(&bytes); // must not panic
    }

    /// Counting AB: any insert/remove interleaving that never removes
    /// an absent cell keeps all live cells present.
    #[test]
    fn counting_ab_interleaving(ops in prop::collection::vec((0u64..64, any::<bool>()), 1..120)) {
        use ab::CountingAb;
        use hashkit::CellMapper;
        let mut cab = CountingAb::new(1 << 10, 3,
            HashFamily::default_independent(), CellMapper::RowOnly);
        let mut live: std::collections::HashMap<u64, u32> = Default::default();
        for (key, is_insert) in ops {
            if is_insert {
                cab.insert(key, 0);
                *live.entry(key).or_default() += 1;
            } else if live.get(&key).copied().unwrap_or(0) > 0 {
                cab.remove(key, 0);
                *live.get_mut(&key).unwrap() -= 1;
            }
        }
        for (&key, &count) in &live {
            if count > 0 {
                prop_assert!(cab.contains(key, 0), "false negative for {key}");
            }
        }
    }
}
