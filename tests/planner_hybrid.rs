//! Integration: the AB and WAH engines agree on a small and a
//! full-table query — WAH exactly, the AB as a superset that the
//! exact second step prunes back to the truth.

use ab::{AbConfig, AbIndex, Level};
use bitmap::{AttrRange, RectQuery};
use datagen::small_uniform;
use wah::WahIndex;

#[test]
fn hybrid_execution_is_correct_on_both_paths() {
    let ds = small_uniform(30_000, 2, 20, 5);
    let ab = AbIndex::build(
        &ds.binned,
        &AbConfig::new(Level::PerAttribute).with_alpha(8),
    );
    let wah = WahIndex::build(&ds.binned);
    let n = ds.rows();
    let exact = bitmap::BitmapIndex::build(&ds.binned, bitmap::Encoding::Equality);
    for q in [
        RectQuery::new(vec![AttrRange::new(0, 5, 9)], 200, 260), // AB path
        RectQuery::new(vec![AttrRange::new(0, 5, 9)], 0, n - 1), // WAH path
    ] {
        let want = exact.evaluate_rows(&q);
        // WAH path is exact.
        assert_eq!(wah.evaluate_rows(&q), want);
        // AB path is a superset; prune restores exactness.
        let approx = ab.execute_rect(&q);
        assert_eq!(ab::prune_false_positives(&exact, &q, &approx), want);
    }
}
