//! Request batching: grouping probes by shard.
//!
//! The service amortises pool dispatch by submitting **one job per
//! shard**, not one per probe. These helpers partition a request's
//! cells (or a batch of rectangular queries) by the shard that owns
//! each row, translating global rows to shard-local ones and
//! remembering the original position so answers can be scattered back
//! into request order after the per-shard results return.

use crate::shard::ShardedIndex;
use ab::{Cell, QueryError};
use bitmap::RectQuery;

/// The cells of one shard's batch: `(position in the original request,
/// cell with a shard-local row)`.
#[derive(Clone, Debug)]
pub struct ShardCells {
    /// Shard index into [`ShardedIndex::shards`].
    pub shard: usize,
    /// Probes for this shard, rows already translated to local.
    pub cells: Vec<(usize, Cell)>,
}

/// One shard's share of a request, split where it crosses threads:
/// `job` moves into the shard's pool job, `keep` stays with the
/// collector, which needs it to place the job's output — or, for a
/// shard that cannot answer, the conservative answer.
pub(crate) struct Part<J, K> {
    /// Shard index into [`ShardedIndex::shards`].
    pub shard: usize,
    /// What the shard job consumes.
    pub job: J,
    /// What the collector holds on to.
    pub keep: K,
}

/// A cell request's part: `job` is the shard's cells (rows already
/// shard-local), `keep` their request positions, ascending and
/// index-aligned with the cells.
pub(crate) type CellPart = Part<Vec<Cell>, Vec<usize>>;

/// A rect request's part: `job` is every `(query index in the batch,
/// query with shard-local rows)` that landed on the shard. The
/// collector keeps nothing: a rect part's conservative answer follows
/// from the queries and the shard.
pub(crate) type RectPart = Part<Vec<(usize, RectQuery)>, ()>;

/// Validates a cell request against the served schema and partitions
/// it by owning shard, in one pass over the cells. A shard's part is
/// allocated once, on its first cell, with room for every cell of the
/// request, so no cell grows a part. Parts come back in shard order;
/// shards with no cells produce none.
pub(crate) fn partition_cells(
    index: &ShardedIndex,
    cells: &[Cell],
) -> Result<Vec<CellPart>, QueryError> {
    let attrs = index.attributes();
    let num_rows = index.num_rows();
    let shards = index.shards();
    let mut parts: Vec<CellPart> = (0..shards.len())
        .map(|shard| Part {
            shard,
            job: Vec::new(),
            keep: Vec::new(),
        })
        .collect();
    for (pos, cell) in cells.iter().enumerate() {
        ab::validate_ranges(attrs, num_rows, cell.row, [(cell.attribute, cell.bin)])?;
        let sid = shards.partition_point(|s| s.end() <= cell.row);
        let part = &mut parts[sid];
        if part.job.capacity() == 0 {
            part.job.reserve_exact(cells.len());
            part.keep.reserve_exact(cells.len());
        }
        part.job.push(Cell::new(
            cell.row - shards[sid].start(),
            cell.attribute,
            cell.bin,
        ));
        part.keep.push(pos);
    }
    parts.retain(|p| !p.job.is_empty());
    Ok(parts)
}

/// Partitions a cell-subset query by owning shard. Cells arrive in
/// request order, so each shard's list stays sorted by original
/// position. Shards with no cells produce no entry.
///
/// # Panics
///
/// Panics if any cell's row or bin is out of range (validate first).
pub fn group_cells_by_shard(index: &ShardedIndex, cells: &[Cell]) -> Vec<ShardCells> {
    partition_cells(index, cells)
        .unwrap_or_else(|e| panic!("{e}"))
        .into_iter()
        .map(|part| ShardCells {
            shard: part.shard,
            cells: part.keep.into_iter().zip(part.job).collect(),
        })
        .collect()
}

/// Partitions a batch of rectangular queries by shard: each query is
/// split with [`ShardedIndex::split_rect`] and its parts are appended
/// to the owning shards' jobs, so one pool job serves every part that
/// landed on its shard. Parts come back in shard order.
pub(crate) fn group_rects_by_shard(index: &ShardedIndex, queries: &[RectQuery]) -> Vec<RectPart> {
    let mut groups: Vec<Option<RectPart>> = Vec::new();
    groups.resize_with(index.num_shards(), || None);
    for (qidx, q) in queries.iter().enumerate() {
        for (shard, local) in index.split_rect(q) {
            let part = groups[shard].get_or_insert_with(|| Part {
                shard,
                job: Vec::new(),
                keep: (),
            });
            part.job.push((qidx, local));
        }
    }
    groups.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ab::{AbConfig, Level};
    use bitmap::{AttrRange, BinnedColumn, BinnedTable};

    fn index() -> ShardedIndex {
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "a",
            (0..100).map(|i| (i % 4) as u32).collect(),
            4,
        )]);
        ShardedIndex::build(
            &t,
            &AbConfig::new(Level::PerAttribute).with_alpha(8),
            4,
            false,
        )
    }

    #[test]
    fn cells_group_to_owning_shards_with_local_rows() {
        let idx = index();
        let cells = vec![
            Cell::new(99, 0, 3), // shard 3
            Cell::new(0, 0, 0),  // shard 0
            Cell::new(26, 0, 2), // shard 1
            Cell::new(1, 0, 1),  // shard 0
        ];
        let groups = group_cells_by_shard(&idx, &cells);
        assert_eq!(groups.len(), 3);
        let shard0 = groups.iter().find(|g| g.shard == 0).unwrap();
        assert_eq!(
            shard0.cells,
            vec![(1, Cell::new(0, 0, 0)), (3, Cell::new(1, 0, 1))]
        );
        let shard1 = groups.iter().find(|g| g.shard == 1).unwrap();
        assert_eq!(shard1.cells, vec![(2, Cell::new(1, 0, 2))]);
        let shard3 = groups.iter().find(|g| g.shard == 3).unwrap();
        assert_eq!(shard3.cells, vec![(0, Cell::new(24, 0, 3))]);
    }

    #[test]
    fn rect_batch_splits_and_groups() {
        let idx = index();
        let qs = vec![
            RectQuery::new(vec![AttrRange::new(0, 0, 1)], 0, 99), // all 4 shards
            RectQuery::new(vec![AttrRange::new(0, 2, 3)], 30, 40), // shard 1 only
        ];
        let groups = group_rects_by_shard(&idx, &qs);
        assert_eq!(groups.len(), 4);
        let shard1 = groups.iter().find(|g| g.shard == 1).unwrap();
        assert_eq!(shard1.job.len(), 2);
        assert_eq!(shard1.job[0].0, 0);
        assert_eq!(
            shard1.job[1],
            (1, RectQuery::new(vec![AttrRange::new(0, 2, 3)], 5, 15))
        );
        let shard2 = groups.iter().find(|g| g.shard == 2).unwrap();
        assert_eq!(
            shard2.job,
            vec![(0, RectQuery::new(vec![AttrRange::new(0, 0, 1)], 0, 24))]
        );
    }

    #[test]
    fn empty_batches_produce_no_groups() {
        let idx = index();
        assert!(group_cells_by_shard(&idx, &[]).is_empty());
        assert!(group_rects_by_shard(&idx, &[]).is_empty());
    }
}
