//! Cost-based descent decision: whether walking the coarse-to-fine
//! pyramid ([`HierAb`](crate::hier::HierAb)) beats a flat scan for a
//! query. It gates [`AbIndex::hier_prune`](crate::AbIndex::hier_prune)
//! under [`HierMode::Auto`](crate::HierMode).

use bitmap::RectQuery;

/// Finest-level occupancy above which descent is pointless: nearly
/// every region survives, so the pyramid walk is pure overhead.
const DESCENT_MAX_OCCUPANCY: f64 = 0.9;

/// Decides whether walking the [`HierAb`](crate::hier::HierAb)
/// pyramid beats a flat scan for `query` (and counts the choice into
/// `planner.descent.hier` / `planner.descent.flat`).
///
/// Descent costs O(spans × groups) level-AB probes and only pays off
/// when whole finest-level regions die, so it wins when
///
/// * the query's row interval spans at least two finest row-spans
///   (anything smaller cannot prune a full region the flat scan would
///   have visited), and
/// * the finest level is not near-saturated (occupancy below
///   `DESCENT_MAX_OCCUPANCY` = 0.9) — on uniformly shuffled data
///   every region is occupied and pruning never fires.
///
/// Queries with no range constraints match every row; there is
/// nothing to prune.
pub fn plan_descent(hier: &crate::hier::HierAb, query: &RectQuery) -> bool {
    let descend = !query.ranges.is_empty()
        && query.num_rows() >= 2 * hier.finest().row_span()
        && hier.finest().occupancy_fraction() < DESCENT_MAX_OCCUPANCY;
    if descend {
        obs::counter!("planner.descent.hier").inc();
    } else {
        obs::counter!("planner.descent.flat").inc();
    }
    descend
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitmap::AttrRange;

    #[test]
    fn plan_descent_requires_large_sparse_queries() {
        use crate::hier::{HierAb, HierConfig, HierLevelSpec};
        use crate::{AbConfig, AbIndex, Level};
        use bitmap::{BinnedColumn, BinnedTable};
        // Clustered data: 8 bins over 2000 rows in contiguous runs, so
        // the finest 64-row × 2-bin grid is sparse.
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "v",
            (0..2000u32).map(|i| (i / 250).min(7)).collect(),
            8,
        )]);
        let idx = AbIndex::build(&t, &AbConfig::new(Level::PerAttribute).with_alpha(32));
        let hier = HierAb::build(
            idx.bin_blocks().unwrap(),
            idx.attributes(),
            &HierConfig {
                levels: vec![HierLevelSpec {
                    row_span: 64,
                    bin_group: 2,
                }],
            },
        );
        let ranges = vec![AttrRange::new(0, 0, 1)];
        // Spans ≥ 2 row-spans of sparse data: descend.
        assert!(plan_descent(
            &hier,
            &RectQuery::new(ranges.clone(), 0, 1999)
        ));
        // Smaller than 2 row-spans: a full region can't be pruned.
        assert!(!plan_descent(&hier, &RectQuery::new(ranges, 0, 100)));
        // No range constraints: every row matches, nothing to prune.
        assert!(!plan_descent(&hier, &RectQuery::new(vec![], 0, 1999)));
    }
}
