//! Exact second-step pruning of false positives.
//!
//! "For applications requiring exact answers, false positives can be
//! pruned in a second step in query execution. Thus, the recall is
//! always 100% and the precision depends on the amount of resources we
//! are willing to use" (paper §1). This module implements that second
//! step against the exact [`BitmapIndex`]: each candidate row from the
//! AB is verified by probing the relevant bin bitmaps at that row only
//! — O(candidates · Σ range widths), not a full index scan.

use bitmap::{BitmapIndex, Encoding, RectQuery};

/// Verifies AB candidates against the exact index, returning only the
/// true matches (in input order).
///
/// # Panics
///
/// Panics if the index is not equality-encoded (per-row probing needs
/// one bitmap per bin) or a candidate row is out of range.
pub fn prune_false_positives(
    index: &BitmapIndex,
    query: &RectQuery,
    candidates: &[usize],
) -> Vec<usize> {
    for a in index.attributes() {
        assert_eq!(
            a.encoding,
            Encoding::Equality,
            "pruning probes equality-encoded bins"
        );
    }
    let kept: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&row| row_matches(index, query, row))
        .collect();
    // Candidates the exact check discards are, by definition, the AB's
    // false positives for this query.
    obs::counter!("ab.query.false_positives").add((candidates.len() - kept.len()) as u64);
    kept
}

/// Exact check of one row against a rectangular query.
pub fn row_matches(index: &BitmapIndex, query: &RectQuery, row: usize) -> bool {
    assert!(row < index.num_rows(), "row {row} out of range");
    if row < query.row_lo || row > query.row_hi {
        return false;
    }
    query.ranges.iter().all(|r| {
        let attr = index.attribute(r.attribute);
        (r.lo..=r.hi).any(|bin| attr.bitmaps[bin as usize].get(row))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbConfig, AbIndex, Level};
    use bitmap::{AttrRange, BinnedColumn, BinnedTable};

    fn setup() -> (BinnedTable, BitmapIndex, AbIndex) {
        let n = 1500usize;
        let mk = |seed: u64| -> Vec<u32> {
            (0..n)
                .map(|i| (hashkit::splitmix64(seed.wrapping_mul(77) ^ i as u64) % 8) as u32)
                .collect()
        };
        let t = BinnedTable::new(vec![
            BinnedColumn::new("A", mk(5), 8),
            BinnedColumn::new("B", mk(9), 8),
        ]);
        let exact = BitmapIndex::build(&t, Encoding::Equality);
        // Deliberately small α so false positives actually occur.
        let ab = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(2));
        (t, exact, ab)
    }

    #[test]
    fn pruning_restores_exact_answer() {
        let (_, exact, ab) = setup();
        let q = RectQuery::new(
            vec![AttrRange::new(0, 1, 3), AttrRange::new(1, 4, 6)],
            0,
            1499,
        );
        let approx = ab.execute_rect(&q);
        let want = exact.evaluate_rows(&q);
        assert!(approx.len() >= want.len(), "AB must be a superset");
        let pruned = prune_false_positives(&exact, &q, &approx);
        assert_eq!(pruned, want);
    }

    #[test]
    fn row_matches_respects_row_range() {
        let (_, exact, _) = setup();
        let q = RectQuery::new(vec![], 10, 20);
        assert!(!row_matches(&exact, &q, 9));
        assert!(row_matches(&exact, &q, 10));
        assert!(row_matches(&exact, &q, 20));
        assert!(!row_matches(&exact, &q, 21));
    }

    #[test]
    fn pruning_keeps_input_order() {
        let (_, exact, _) = setup();
        let q = RectQuery::new(vec![], 0, 1499);
        let pruned = prune_false_positives(&exact, &q, &[30, 10, 20]);
        assert_eq!(pruned, vec![30, 10, 20]);
    }

    #[test]
    #[should_panic(expected = "equality")]
    fn pruning_rejects_range_encoding() {
        let t = BinnedTable::new(vec![BinnedColumn::new("x", vec![0, 1], 2)]);
        let idx = BitmapIndex::build(&t, Encoding::Range);
        prune_false_positives(&idx, &RectQuery::new(vec![], 0, 1), &[0]);
    }
}
