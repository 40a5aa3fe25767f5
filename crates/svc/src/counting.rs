//! A sharded, updatable cell store behind the service API.
//!
//! Wraps one [`CountingAb`] per row-range shard behind an `RwLock`, so
//! concurrent writers touching different shards never contend and
//! readers on one shard proceed in parallel. Rows route to shards the
//! same way [`crate::ShardedIndex`] routes them (contiguous ranges,
//! shard-local renumbering), and cell probes batch per shard exactly
//! like [`crate::Service::try_retrieve_cells`].
//!
//! Deletions inherit the counting-Bloom guarantee: a removed cell may
//! still read as present (stuck-high counters), but a cell that was
//! inserted and **not** removed never reads as absent — the
//! no-false-negative contract survives concurrent updates because
//! every mutation holds the shard's write lock.
//!
//! A writer that panics while holding a shard lock *poisons* it; this
//! store recovers the lock ([`std::sync::PoisonError::into_inner`])
//! instead of propagating the poison. That is sound here because every
//! mutation is a sequence of saturating counter increments/decrements:
//! an interrupted insert can only leave counters *lower* than a
//! completed one (fewer increments applied), which reads as a missed
//! insert — never as a false negative for any *completed* insert.

use crate::chaos::{self, points};
use crate::error::SvcError;
use crate::pool::WorkerPool;
use ab::{optimal_k, Cell, CountingAb, QueryError};
use hashkit::{CellMapper, HashFamily};
use std::sync::{mpsc, Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

struct CountingShard {
    start: usize,
    end: usize,
    ab: RwLock<CountingAb>,
}

impl CountingShard {
    /// Write-locks the shard, recovering (and counting) a poisoned
    /// lock — see the module docs for why recovery is sound.
    fn write(&self) -> RwLockWriteGuard<'_, CountingAb> {
        self.ab.write().unwrap_or_else(|poison| {
            obs::counter!("svc.counting.lock_poisoned").inc();
            poison.into_inner()
        })
    }

    /// Read-locks the shard, recovering a poisoned lock.
    fn read(&self) -> RwLockReadGuard<'_, CountingAb> {
        self.ab.read().unwrap_or_else(|poison| {
            obs::counter!("svc.counting.lock_poisoned").inc();
            poison.into_inner()
        })
    }
}

/// A concurrent, updatable AB over `(row, attribute, bin)` cells.
pub struct CountingService {
    shards: Arc<Vec<CountingShard>>,
    cardinalities: Vec<u32>,
    offsets: Vec<u32>,
    num_rows: usize,
    chaos: Option<Arc<chaos::FaultPlan>>,
}

impl CountingService {
    /// Creates an empty store for `num_rows` rows over attributes with
    /// the given bin `cardinalities`, sized at `alpha` AB bits per
    /// expected set cell (one cell per row per attribute), split into
    /// `num_shards` row ranges.
    ///
    /// # Panics
    ///
    /// Panics if `cardinalities` is empty, `alpha == 0`, or the shard
    /// count is not in `1..=num_rows`.
    pub fn new(num_rows: usize, cardinalities: &[u32], alpha: u64, num_shards: usize) -> Self {
        assert!(!cardinalities.is_empty(), "need at least one attribute");
        assert!(alpha > 0, "alpha must be positive");
        let mut offsets = Vec::with_capacity(cardinalities.len());
        let mut total_cols = 0u32;
        for &c in cardinalities {
            assert!(c > 0, "attribute cardinality must be positive");
            offsets.push(total_cols);
            total_cols += c;
        }
        let k = optimal_k(alpha as f64);
        let mapper = CellMapper::for_columns(total_cols as usize);
        let shards = ab::shard_ranges(num_rows, num_shards)
            .into_iter()
            .map(|r| {
                let expected = (r.len() * cardinalities.len()) as u64;
                CountingShard {
                    start: r.start,
                    end: r.end,
                    ab: RwLock::new(CountingAb::new(
                        (alpha * expected).max(64),
                        k,
                        HashFamily::default_independent(),
                        mapper,
                    )),
                }
            })
            .collect();
        CountingService {
            shards: Arc::new(shards),
            cardinalities: cardinalities.to_vec(),
            offsets,
            num_rows,
            chaos: None,
        }
    }

    /// Attaches a fault plan driving the [`points::COUNTING_WRITE`]
    /// injection point (tests and chaos drills only).
    pub fn with_fault_plan(mut self, plan: Arc<chaos::FaultPlan>) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Total rows covered.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of row-range shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn locate(&self, cell: Cell) -> Result<(usize, u64, u64), SvcError> {
        if cell.row >= self.num_rows {
            return Err(QueryError::RowOutOfRange {
                row: cell.row,
                num_rows: self.num_rows,
            }
            .into());
        }
        let card = self.cardinalities.get(cell.attribute).copied().unwrap_or(0);
        if cell.bin >= card {
            return Err(QueryError::BinOutOfRange {
                attribute: cell.attribute,
                bin: cell.bin,
                cardinality: card,
            }
            .into());
        }
        let sid = self.shards.partition_point(|s| s.end <= cell.row);
        let local = (cell.row - self.shards[sid].start) as u64;
        let col = (self.offsets[cell.attribute] + cell.bin) as u64;
        Ok((sid, local, col))
    }

    /// Inserts a cell (write-locks only its shard).
    pub fn insert(&self, cell: Cell) -> Result<(), SvcError> {
        let (sid, row, col) = self.locate(cell)?;
        let mut ab = self.shards[sid].write();
        chaos::inject(self.chaos.as_deref(), points::COUNTING_WRITE, Some(sid))?;
        ab.insert(row, col);
        obs::counter!("svc.counting.inserts").inc();
        Ok(())
    }

    /// Removes a cell; counting semantics — the cell may still read as
    /// present afterwards, but never the other way around.
    pub fn remove(&self, cell: Cell) -> Result<(), SvcError> {
        let (sid, row, col) = self.locate(cell)?;
        let mut ab = self.shards[sid].write();
        chaos::inject(self.chaos.as_deref(), points::COUNTING_WRITE, Some(sid))?;
        ab.remove(row, col);
        obs::counter!("svc.counting.removes").inc();
        Ok(())
    }

    /// Tests one cell (read-locks only its shard).
    pub fn contains(&self, cell: Cell) -> Result<bool, SvcError> {
        let (sid, row, col) = self.locate(cell)?;
        Ok(self.shards[sid].read().contains(row, col))
    }

    /// Batched cell retrieval on `pool`: probes group by owning shard,
    /// one job per shard touched, answers in request order. Jobs are
    /// submitted blocking (retrieval here is foreground work; use
    /// [`crate::Service`] for admission-controlled serving).
    pub fn query_cells(&self, pool: &WorkerPool, cells: &[Cell]) -> Result<Vec<bool>, SvcError> {
        // Validate and translate everything upfront.
        let mut groups: Vec<Vec<(usize, u64, u64)>> = vec![Vec::new(); self.shards.len()];
        for (pos, &cell) in cells.iter().enumerate() {
            let (sid, row, col) = self.locate(cell)?;
            groups[sid].push((pos, row, col));
        }
        let (tx, rx) = mpsc::channel();
        let mut expected = 0usize;
        for (sid, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            expected += 1;
            let shards = Arc::clone(&self.shards);
            let tx = tx.clone();
            pool.execute_blocking(move || {
                let ab = shards[sid].read();
                let answers: Vec<(usize, bool)> = group
                    .into_iter()
                    .map(|(pos, row, col)| (pos, ab.contains(row, col)))
                    .collect();
                let _ = tx.send(answers);
            })?;
        }
        drop(tx);
        let mut out = vec![false; cells.len()];
        for _ in 0..expected {
            for (pos, hit) in rx.recv().map_err(|_| SvcError::Shutdown)? {
                out[pos] = hit;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_roundtrip() {
        let svc = CountingService::new(100, &[4, 6], 16, 4);
        let cell = Cell::new(42, 1, 5);
        assert!(!svc.contains(cell).unwrap());
        svc.insert(cell).unwrap();
        assert!(svc.contains(cell).unwrap());
        svc.remove(cell).unwrap();
        assert!(!svc.contains(cell).unwrap());
    }

    #[test]
    fn rejects_out_of_range_cells() {
        let svc = CountingService::new(10, &[4], 16, 2);
        assert!(matches!(
            svc.insert(Cell::new(10, 0, 0)),
            Err(SvcError::Query(QueryError::RowOutOfRange { .. }))
        ));
        assert!(matches!(
            svc.contains(Cell::new(0, 1, 0)),
            Err(SvcError::Query(QueryError::BinOutOfRange { .. }))
        ));
        assert!(matches!(
            svc.remove(Cell::new(0, 0, 4)),
            Err(SvcError::Query(QueryError::BinOutOfRange { bin: 4, .. }))
        ));
    }

    #[test]
    fn batched_query_answers_in_order() {
        let svc = CountingService::new(60, &[3], 16, 3);
        let pool = WorkerPool::new(2, 16);
        for r in (0..60).step_by(2) {
            svc.insert(Cell::new(r, 0, (r % 3) as u32)).unwrap();
        }
        let cells: Vec<Cell> = (0..60).map(|r| Cell::new(r, 0, (r % 3) as u32)).collect();
        let got = svc.query_cells(&pool, &cells).unwrap();
        for (r, &hit) in got.iter().enumerate() {
            if r % 2 == 0 {
                assert!(hit, "false negative at inserted row {r}");
            }
        }
    }

    #[cfg(not(feature = "chaos-off"))]
    #[test]
    fn poisoned_lock_recovers_without_false_negatives() {
        use crate::chaos::{Fault, FaultPlan, FaultRule};
        let plan = Arc::new(
            FaultPlan::new(7)
                .with_rule(FaultRule::new(points::COUNTING_WRITE, Fault::Panic).max_fires(1)),
        );
        let svc = CountingService::new(40, &[4], 16, 2).with_fault_plan(Arc::clone(&plan));
        let keeper = Cell::new(3, 0, 1);
        // First write panics while holding shard 0's lock, poisoning it.
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.insert(Cell::new(0, 0, 0))
        }));
        assert!(boom.is_err(), "injected panic must fire");
        assert_eq!(plan.fires(points::COUNTING_WRITE), 1);
        // The store recovers the poisoned lock and keeps its contract.
        svc.insert(keeper).unwrap();
        assert!(svc.contains(keeper).unwrap(), "false negative after poison");
        assert!(!svc.contains(Cell::new(0, 0, 0)).unwrap());
    }

    #[test]
    fn shards_split_the_row_space() {
        let svc = CountingService::new(103, &[2, 2], 8, 7);
        assert_eq!(svc.num_shards(), 7);
        assert_eq!(svc.num_rows(), 103);
        let covered: usize = svc.shards.iter().map(|s| s.end - s.start).sum();
        assert_eq!(covered, 103);
    }
}
