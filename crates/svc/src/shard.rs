//! Row-range sharding of an AB index.
//!
//! Roaring-style partitioning applied to the AB: the row space is
//! split into `S` contiguous ranges (via [`ab::shard_ranges`]), and
//! each shard holds its own [`AbIndex`] over its rows (renumbered from
//! 0), optionally alongside a WAH index over the same rows (an exact
//! baseline for callers; the service does not query it). Shards share
//! nothing, so they build and query independently — the unit of
//! parallelism for the [`crate::Service`].
//!
//! Row-range (not hash) partitioning keeps the paper's query shapes
//! cheap: a rectangular query's row interval intersects only the
//! shards it overlaps, and merged results come back globally sorted
//! because shards are ordered.
//!
//! The shard is also the one unit of set-up parallelism: the AB build,
//! the pyramid, the exact tier and the rebuild of a damaged segment
//! each hand their per-shard work to one helper that runs every shard
//! on one thread, side by side (DESIGN.md §11, "Set-up").

use ab::{AbConfig, AbIndex, AttributeMeta, HierConfig, HybridAb, QueryError};
use bitmap::{BinnedTable, RectQuery};
use std::sync::Mutex;

/// Runs `work` on every item and returns the results in item order.
/// The items run on at most `available_parallelism` scoped threads,
/// each item on one of them; a thread takes the next item from a shared
/// cursor as it finishes one, so more items than cores keeps every core
/// busy. One item, or one core, runs on the calling thread. A panic in
/// `work` resumes on the caller with its own payload.
///
/// This is the one function that spawns set-up threads. What the
/// threads allocate lands in per-thread malloc arenas that outlive the
/// build, so callers allocate the large buffers — every AB bit array —
/// before they call it, and `work` only fills them.
fn per_shard<T: Send, R: Send>(items: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len());
    if threads <= 1 {
        return items.into_iter().map(work).collect();
    }
    // Neither lock is held while `work` runs, so neither is poisoned.
    const UNPOISONED: &str = "no set-up thread panics holding a lock";
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = Mutex::new(items.into_iter().enumerate());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| loop {
                    let Some((i, item)) = cursor.lock().expect(UNPOISONED).next() else {
                        break;
                    };
                    let out = work(item);
                    *slots[i].lock().expect(UNPOISONED) = Some(out);
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let out = slot.into_inner().expect(UNPOISONED);
            out.expect("a thread ran every item")
        })
        .collect()
}

/// One row-range shard: `[start, end)` of the global row space plus
/// the indexes over those rows.
#[derive(Clone, Debug)]
pub struct Shard {
    start: usize,
    end: usize,
    index: AbIndex,
    wah: Option<wah::WahIndex>,
}

impl Shard {
    /// First global row covered (inclusive).
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last global row covered.
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of rows in the shard.
    pub fn rows(&self) -> usize {
        self.end - self.start
    }

    /// The shard's AB index (rows numbered from 0).
    pub fn index(&self) -> &AbIndex {
        &self.index
    }

    /// The shard's WAH index, when built with `with_wah`. Nothing in the
    /// service reads it; it stays while the frozen benchmark's set-up
    /// passes `with_wah` (ROADMAP 1(e)).
    pub fn wah(&self) -> Option<&wah::WahIndex> {
        self.wah.as_ref()
    }
}

/// A complete row-range-sharded index.
#[derive(Clone, Debug)]
pub struct ShardedIndex {
    shards: Vec<Shard>,
    num_rows: usize,
    attributes: Vec<AttributeMeta>,
}

impl ShardedIndex {
    /// Builds `num_shards` shards side by side, one thread per shard on
    /// up to `available_parallelism` threads. The calling thread
    /// allocates every shard's AB bit arrays first
    /// ([`AbIndex::allocate_row_range`]); each shard's thread then sets
    /// their bits from its rows of `table`, read in place
    /// ([`ab::UnfilledIndex::fill`]). The result is byte-for-byte the
    /// index a one-thread build of each `table.slice_rows` makes, for
    /// any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or exceeds the row count, plus
    /// the [`AbIndex::build`] panics.
    pub fn build(
        table: &BinnedTable,
        config: &AbConfig,
        num_shards: usize,
        with_wah: bool,
    ) -> Self {
        let unfilled: Vec<_> = ab::shard_ranges(table.num_rows(), num_shards)
            .into_iter()
            .map(|r| (r.clone(), AbIndex::allocate_row_range(table, config, r)))
            .collect();
        let shards = per_shard(unfilled, |(r, unfilled)| Shard {
            start: r.start,
            end: r.end,
            index: unfilled.fill(),
            wah: with_wah.then(|| wah::WahIndex::build(&table.slice_rows(r))),
        });
        Self::assemble(shards, table.num_rows())
    }

    fn assemble(shards: Vec<Shard>, num_rows: usize) -> Self {
        let attributes = shards[0].index.attributes().to_vec();
        ShardedIndex {
            shards,
            num_rows,
            attributes,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total rows covered.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Attribute metadata (identical across shards).
    pub fn attributes(&self) -> &[AttributeMeta] {
        &self.attributes
    }

    /// The shards, in row order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Total AB storage across shards, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.index.size_bytes()).sum()
    }

    /// Attaches a hierarchical pruning pyramid to every shard that
    /// lacks one (see [`AbIndex::ensure_hier`]), the shards side by
    /// side as in [`Self::build`]. The probe-sweep build is
    /// deterministic per shard, so calling this after a
    /// [`Self::from_bytes`] of an envelope stored without one produces
    /// the same pyramids a build-time attach would have.
    pub fn ensure_hier(&mut self, config: &HierConfig) {
        let bare: Vec<&mut Shard> = self
            .shards
            .iter_mut()
            .filter(|s| s.index.hier().is_none())
            .collect();
        per_shard(bare, |shard| shard.index.ensure_hier(config));
    }

    /// Attaches a hybrid exact tier to every shard that lacks one (see
    /// [`HybridAb::build_row_range`]), each built over its own rows of
    /// `table`, read in place, the shards side by side as in
    /// [`Self::build`]. Deterministic per shard, so attaching after a
    /// [`Self::from_bytes`] of an envelope stored without one produces
    /// the same containers a build-time attach would have.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not cover this index's rows.
    pub fn ensure_hybrid(&mut self, table: &BinnedTable, config: &ab::HybridConfig) {
        assert_eq!(
            table.num_rows(),
            self.num_rows,
            "table/index row count mismatch"
        );
        let bare: Vec<&mut Shard> = self
            .shards
            .iter_mut()
            .filter(|s| s.index.hybrid().is_none())
            .collect();
        per_shard(bare, |shard| {
            let tier =
                HybridAb::build_row_range(&shard.index, table, shard.start..shard.end, config);
            shard.index.attach_hybrid(tier);
        });
    }

    /// Replays every shard tier's split decisions into the
    /// `planner.split.{exact,ab}` counters — used when serving
    /// pre-built tiers loaded from storage, where no in-process build
    /// recorded them (see [`ab::HybridAb::record_split_counters`]).
    pub fn record_hybrid_split_counters(&self) {
        for shard in &self.shards {
            if let Some(hy) = shard.index.hybrid() {
                hy.record_split_counters();
            }
        }
    }

    /// Per-shard exact-tier split statistics for telemetry:
    /// `(backed bins, total bins, container bytes)` per shard, `None`
    /// for shards without a tier.
    pub fn hybrid_split_stats(&self) -> Vec<Option<(usize, u32, usize)>> {
        self.shards
            .iter()
            .map(|s| {
                s.index
                    .hybrid()
                    .map(|hy| (hy.bins().len(), hy.total_bins(), hy.size_bytes()))
            })
            .collect()
    }

    /// Which shard covers the given global row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn shard_of_row(&self, row: usize) -> usize {
        assert!(
            row < self.num_rows,
            "row {row} out of range {}",
            self.num_rows
        );
        self.shards.partition_point(|s| s.end <= row)
    }

    /// Splits a rectangular query into `(shard id, shard-local
    /// query)` parts, one per shard its row interval overlaps. Local
    /// row `r` of shard `i` is global row `shards()[i].start() + r`.
    pub fn split_rect(&self, query: &RectQuery) -> Vec<(usize, RectQuery)> {
        let first = self.shard_of_row(query.row_lo.min(self.num_rows - 1));
        self.shards[first..]
            .iter()
            .enumerate()
            .take_while(|(_, s)| s.start <= query.row_hi)
            .map(|(off, s)| {
                let lo = query.row_lo.max(s.start) - s.start;
                let hi = query.row_hi.min(s.end - 1) - s.start;
                (first + off, RectQuery::new(query.ranges.clone(), lo, hi))
            })
            .collect()
    }

    /// Validates a query against the global row count and attribute
    /// cardinalities ([`ab::validate_ranges`], the check every
    /// [`AbIndex`] entry point performs), hoisted so it runs once per
    /// request instead of once per shard.
    pub fn validate_rect(&self, query: &RectQuery) -> Result<(), QueryError> {
        ab::validate_ranges(
            &self.attributes,
            self.num_rows,
            query.row_hi,
            query.ranges.iter().map(|r| (r.attribute, r.hi)),
        )
    }

    /// Single-threaded reference execution: runs every shard part in
    /// row order on the calling thread and concatenates. The merge
    /// correctness contract is that [`crate::Service::try_query_rect`]
    /// returns exactly this, bit for bit, for any worker count.
    pub fn execute_rect_sequential(&self, query: &RectQuery) -> Result<Vec<usize>, QueryError> {
        self.validate_rect(query)?;
        let mut out = Vec::new();
        for (sid, local) in self.split_rect(query) {
            let shard = &self.shards[sid];
            out.extend(
                shard
                    .index
                    .try_execute_rect_with_opts(&local, ab::KernelOpts::default())?
                    .into_iter()
                    .map(|r| r + shard.start),
            );
        }
        Ok(out)
    }

    /// Serializes the shard layout as an `ABSH` envelope (WAH indexes
    /// are rebuildable from data and are not persisted).
    pub fn to_bytes(&self) -> Vec<u8> {
        let segments: Vec<(u64, &AbIndex)> = self
            .shards
            .iter()
            .map(|s| (s.start as u64, &s.index))
            .collect();
        ab::shards_to_bytes(&segments)
    }

    /// Reassembles a sharded index from [`Self::to_bytes`] output.
    pub fn from_bytes(data: &[u8]) -> Result<Self, ab::IoError> {
        let segments = ab::shards_from_bytes(data)?;
        let mut shards = Vec::with_capacity(segments.len());
        let mut num_rows = 0usize;
        for (start, index) in segments {
            let start = start as usize;
            num_rows = start + index.num_rows();
            shards.push(Shard {
                start,
                end: num_rows,
                index,
                wah: None,
            });
        }
        Ok(Self::assemble(shards, num_rows))
    }

    /// Loads an `ABSH` envelope of `shards` shards, rebuilding exactly
    /// the `damaged` ones from the source `table` with the original
    /// build `config` and decoding only the others. The caller names
    /// the damaged shards: for a store file, the shards
    /// `store::Store::audit` implicates, whose page CRCs vouch for the
    /// bytes of every other shard and for the segment headers that
    /// locate them. Because AB builds are deterministic, a rebuilt
    /// shard is bit-identical to the one originally persisted.
    ///
    /// A clean shard that does not decode, or whose rows disagree with
    /// `table`'s layout (that is the wrong source data), is an error;
    /// so is an envelope whose header does not walk or declares another
    /// shard count, unless every shard is damaged and it is not read.
    ///
    /// The damaged shards rebuild side by side as in [`Self::build`],
    /// each with the pyramid and exact tier its clean siblings carry.
    pub fn from_bytes_with_repair(
        data: &[u8],
        shards: usize,
        damaged: &[usize],
        table: &BinnedTable,
        config: &AbConfig,
    ) -> Result<Self, ab::IoError> {
        if shards == 0 || shards > table.num_rows() {
            return Err(ab::IoError::BadShardLayout);
        }
        let ranges = ab::shard_ranges(table.num_rows(), shards);
        let mut indexes: Vec<Option<AbIndex>> = (0..shards).map(|_| None).collect();
        // The walk stops after the last clean shard: the segment
        // headers past it are not vouched for.
        if let Some(last_clean) = (0..shards).rev().find(|sid| !damaged.contains(sid)) {
            let (count, walk) = ab::segments(data)?;
            if count != shards {
                return Err(ab::IoError::BadShardLayout);
            }
            for (sid, seg) in walk.take(last_clean + 1).enumerate() {
                let (extent, blob) = seg?;
                if damaged.contains(&sid) {
                    continue;
                }
                let index = ab::from_bytes(blob)?;
                let r = &ranges[sid];
                if extent.start_row as usize != r.start || index.num_rows() != r.len() {
                    return Err(ab::IoError::BadShardLayout);
                }
                indexes[sid] = Some(index);
            }
        }
        let repaired = (0..indexes.len()).filter(|&sid| indexes[sid].is_none());
        // A rebuilt shard needs the hierarchical pyramid and hybrid
        // exact tier its persisted sibling shards carry. Both
        // constructions are deterministic (probe-sweep over the base
        // AB, plus the table's rows for exact containers), so
        // rebuilding them with a clean sibling's configuration
        // restores the repaired segment byte-identically.
        let clean = || indexes.iter().flatten();
        let hier = clean().find_map(|index| index.hier().map(|h| h.config()));
        let hybrid = clean().find_map(|index| index.hybrid().map(|h| h.config()));
        let unfilled: Vec<_> = repaired
            .map(|sid| {
                obs::counter!("svc.shard_repairs").inc();
                let r = ranges[sid].clone();
                (sid, AbIndex::allocate_row_range(table, config, r))
            })
            .collect();
        let rebuilt = per_shard(unfilled, |(sid, unfilled)| {
            let mut index = unfilled.fill();
            if let Some(config) = &hier {
                index.ensure_hier(config);
            }
            if let Some(config) = &hybrid {
                let tier = HybridAb::build_row_range(&index, table, ranges[sid].clone(), config);
                index.attach_hybrid(tier);
            }
            (sid, index)
        });
        for (sid, index) in rebuilt {
            indexes[sid] = Some(index);
        }
        let shards = ranges
            .into_iter()
            .zip(indexes)
            .map(|(r, index)| Shard {
                start: r.start,
                end: r.end,
                index: index.expect("every damaged shard was rebuilt"),
                wah: None,
            })
            .collect();
        Ok(Self::assemble(shards, table.num_rows()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ab::Level;
    use bitmap::{AttrRange, BinnedColumn};

    fn table(n: usize) -> BinnedTable {
        BinnedTable::new(vec![
            BinnedColumn::new(
                "a",
                (0..n)
                    .map(|i| (hashkit::splitmix64(i as u64) % 5) as u32)
                    .collect(),
                5,
            ),
            BinnedColumn::new(
                "b",
                (0..n)
                    .map(|i| (hashkit::splitmix64(i as u64 ^ 0xF00) % 7) as u32)
                    .collect(),
                7,
            ),
        ])
    }

    fn cfg() -> AbConfig {
        AbConfig::new(Level::PerAttribute).with_alpha(8)
    }

    /// Writes `bytes` as a store file of `page`-byte pages and flips
    /// each payload byte in `flips` (by `0x40`) in the file, which then
    /// no longer opens (`PageCrc`). Repairs it as `abq scrub --csv`
    /// does: the shards `Store::audit` implicates are rebuilt from `t`
    /// with `config`, and the rewritten file must equal the one first
    /// written, byte for byte. Returns the repaired index and the
    /// shards the audit implicated.
    fn rot_and_repair(
        bytes: &[u8],
        flips: &[usize],
        page: u32,
        t: &BinnedTable,
        config: &AbConfig,
    ) -> (ShardedIndex, Vec<usize>) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "svc-shard-rot-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.abpg");
        store::write(&path, bytes, page, &store::RealIo).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let at = store::Store::open(&path).unwrap().header().payload_offset() as usize;
        let mut rotted = pristine.clone();
        for &pos in flips {
            rotted[at + pos] ^= 0x40;
        }
        std::fs::write(&path, &rotted).unwrap();
        let open = store::Store::open(&path);
        assert!(
            matches!(open, Err(store::StoreError::PageCrc { .. })),
            "{open:?}"
        );
        let (header, report, payload) = store::Store::audit(&path).unwrap();
        let shards = header.shard_count as usize;
        let index =
            ShardedIndex::from_bytes_with_repair(&payload, shards, &report.bad_shards, t, config)
                .unwrap();
        store::write(&path, &index.to_bytes(), page, &store::RealIo).unwrap();
        assert!(std::fs::read(&path).unwrap() == pristine, "not restored");
        std::fs::remove_dir_all(&dir).unwrap();
        (index, report.bad_shards)
    }

    #[test]
    fn shard_of_row_matches_ranges() {
        let idx = ShardedIndex::build(&table(103), &cfg(), 7, false);
        for (i, s) in idx.shards().iter().enumerate() {
            assert_eq!(idx.shard_of_row(s.start()), i);
            assert_eq!(idx.shard_of_row(s.end() - 1), i);
        }
    }

    #[test]
    fn split_rect_covers_interval_exactly() {
        let idx = ShardedIndex::build(&table(100), &cfg(), 4, false);
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 4)], 10, 80);
        let parts = idx.split_rect(&q);
        assert_eq!(parts.len(), 4); // shards are 25 rows each
        let mut covered = 0usize;
        for (sid, local) in &parts {
            let s = &idx.shards()[*sid];
            covered += local.num_rows();
            assert!(s.start() + local.row_hi < s.end());
        }
        assert_eq!(covered, 71);
        // A query inside one shard fans out to exactly one part.
        let q1 = RectQuery::new(vec![], 26, 49);
        assert_eq!(idx.split_rect(&q1).len(), 1);
    }

    #[test]
    fn sequential_execution_has_no_false_negatives() {
        let t = table(200);
        let idx = ShardedIndex::build(&t, &cfg(), 5, false);
        let exact = bitmap::BitmapIndex::build(&t, bitmap::Encoding::Equality);
        let q = RectQuery::new(
            vec![AttrRange::new(0, 1, 3), AttrRange::new(1, 0, 4)],
            20,
            180,
        );
        let got = idx.execute_rect_sequential(&q).unwrap();
        for r in exact.evaluate_rows(&q) {
            assert!(got.contains(&r), "shard layout missed row {r}");
        }
        // Globally sorted merge.
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn one_shard_is_bit_identical_to_monolithic() {
        let t = table(64);
        let idx = ShardedIndex::build(&t, &cfg(), 1, false);
        let mono = AbIndex::build(&t, &cfg());
        let q = RectQuery::new(vec![AttrRange::new(1, 2, 5)], 0, 63);
        assert_eq!(
            idx.execute_rect_sequential(&q).unwrap(),
            mono.execute_rect(&q)
        );
        for (a, b) in idx.shards()[0].index().abs().iter().zip(mono.abs()) {
            assert_eq!(a.bits(), b.bits());
        }
    }

    /// The one parallel set-up path — `build`, `ensure_hier` and
    /// `ensure_hybrid`, every shard on its own thread — serializes to
    /// the bytes of a one-thread build of each shard from a
    /// `slice_rows` copy, at every level and for more shards than
    /// cores; and a store file with two damaged shards is repaired to
    /// those bytes.
    #[test]
    fn parallel_build_is_bit_identical() {
        use ab::{HierLevelSpec, HybridConfig};
        let t = table(1000);
        let hier = HierConfig {
            levels: vec![
                HierLevelSpec {
                    row_span: 16,
                    bin_group: 2,
                },
                HierLevelSpec {
                    row_span: 64,
                    bin_group: 4,
                },
            ],
        };
        let hybrid = HybridConfig {
            min_density: 0.0,
            ..Default::default()
        };
        for level in [Level::PerDataset, Level::PerAttribute, Level::PerColumn] {
            let cfg = AbConfig::new(level).with_alpha(8);
            for s in [1, 2, 3, 7] {
                let reference: Vec<(u64, AbIndex)> = ab::shard_ranges(t.num_rows(), s)
                    .into_iter()
                    .map(|r| {
                        let slice = t.slice_rows(r.clone());
                        let mut index = AbIndex::build(&slice, &cfg);
                        index.ensure_hier(&hier);
                        index.ensure_hybrid(&slice, &hybrid);
                        (r.start as u64, index)
                    })
                    .collect();
                let reference: Vec<(u64, &AbIndex)> =
                    reference.iter().map(|(start, i)| (*start, i)).collect();
                let reference = ab::shards_to_bytes(&reference);

                let mut idx = ShardedIndex::build(&t, &cfg, s, false);
                idx.ensure_hier(&hier);
                idx.ensure_hybrid(&t, &hybrid);
                let bytes = idx.to_bytes();
                assert!(bytes == reference, "{level}, {s} shards");

                if s == 1 {
                    continue; // a lone damaged shard has no sibling tiers to copy
                }
                let damaged = if s == 2 { vec![1] } else { vec![0, s - 1] };
                let extents = ab::segment_extents(&bytes).unwrap();
                let flips: Vec<usize> = damaged
                    .iter()
                    .map(|&sid| extents[sid].offset + extents[sid].len / 2)
                    .collect();
                let (back, repaired) = rot_and_repair(&bytes, &flips, 64, &t, &cfg);
                assert_eq!(repaired, damaged, "{level}, {s} shards");
                assert!(back.to_bytes() == reference, "repair: {level}, {s} shards");
            }
        }
    }

    /// The sharded build, and the rebuild of a damaged shard, with the
    /// pyramid attached before the exact tier, serialize to the bytes of
    /// shards whose tiers were built with no pyramid (one clustered
    /// column at α = 4, where 2-row regions prune more than half of
    /// each bin's rows).
    #[test]
    fn repaired_exact_tier_follows_the_pyramid_to_the_same_bytes() {
        use ab::{HierLevelSpec, HybridConfig};
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "runs",
            (0..6000u32).map(|row| row / 750).collect(),
            8,
        )]);
        let cfg = AbConfig::new(Level::PerAttribute).with_alpha(4);
        let hier = HierConfig {
            levels: vec![
                HierLevelSpec {
                    row_span: 2,
                    bin_group: 1,
                },
                HierLevelSpec {
                    row_span: 8,
                    bin_group: 2,
                },
            ],
        };
        let hybrid = HybridConfig {
            min_density: 0.0,
            ..Default::default()
        };
        let reference: Vec<(u64, AbIndex)> = ab::shard_ranges(t.num_rows(), 3)
            .into_iter()
            .map(|r| {
                let mut index = AbIndex::build_row_range(&t, &cfg, r.clone());
                let tier = HybridAb::build_row_range(&index, &t, r.clone(), &hybrid);
                index.ensure_hier(&hier);
                index.attach_hybrid(tier);
                (r.start as u64, index)
            })
            .collect();
        let reference: Vec<(u64, &AbIndex)> = reference.iter().map(|(s, i)| (*s, i)).collect();
        let reference = ab::shards_to_bytes(&reference);

        let mut idx = ShardedIndex::build(&t, &cfg, 3, false);
        idx.ensure_hier(&hier);
        idx.ensure_hybrid(&t, &hybrid);
        let bytes = idx.to_bytes();
        assert!(bytes == reference, "build");
        let extents = ab::segment_extents(&bytes).unwrap();
        let mid = extents[1].offset + extents[1].len / 2;
        let (back, repaired) = rot_and_repair(&bytes, &[mid], 64, &t, &cfg);
        assert_eq!(repaired, vec![1]);
        assert!(back.to_bytes() == reference, "repair");
    }

    #[test]
    #[should_panic(expected = "shard 5 failed")]
    fn per_shard_resumes_a_panic_with_its_payload() {
        per_shard((0..9).collect(), |i: usize| {
            assert!(i != 5, "shard {i} failed");
        });
    }

    #[test]
    fn wah_shards_give_exact_answers() {
        let t = table(120);
        let idx = ShardedIndex::build(&t, &cfg(), 3, true);
        let exact = bitmap::BitmapIndex::build(&t, bitmap::Encoding::Equality);
        let q = RectQuery::new(vec![AttrRange::new(0, 0, 2)], 0, 119);
        let mut got = Vec::new();
        for (sid, local) in idx.split_rect(&q) {
            let s = &idx.shards()[sid];
            got.extend(
                s.wah()
                    .unwrap()
                    .evaluate_rows(&local)
                    .into_iter()
                    .map(|r| r + s.start()),
            );
        }
        assert_eq!(got, exact.evaluate_rows(&q));
    }

    #[test]
    fn absh_roundtrip_preserves_results() {
        let t = table(90);
        let idx = ShardedIndex::build(&t, &cfg(), 4, true);
        let back = ShardedIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(back.num_rows(), idx.num_rows());
        assert_eq!(back.num_shards(), idx.num_shards());
        assert!(back.shards()[0].wah().is_none());
        let q = RectQuery::new(vec![AttrRange::new(0, 2, 4)], 5, 85);
        assert_eq!(
            back.execute_rect_sequential(&q).unwrap(),
            idx.execute_rect_sequential(&q).unwrap()
        );
    }

    #[test]
    fn repair_rebuilds_only_the_corrupt_shard_bit_identically() {
        let t = table(120);
        let idx = ShardedIndex::build(&t, &cfg(), 4, false);
        let bytes = idx.to_bytes();
        // Flip a byte in the middle of segment 0's blob, so exactly
        // that segment's page fails its CRC.
        let e = ab::segment_extents(&bytes).unwrap()[0];
        let (repaired_idx, repaired) =
            rot_and_repair(&bytes, &[e.offset + e.len / 2], 64, &t, &cfg());
        assert_eq!(repaired, vec![0], "one segment was corrupted");
        for (a, b) in repaired_idx.shards().iter().zip(idx.shards()) {
            assert_eq!(a.start(), b.start());
            for (x, y) in a.index().abs().iter().zip(b.index().abs()) {
                assert_eq!(x.bits(), y.bits(), "repair was not bit-identical");
            }
        }
        let q = RectQuery::new(vec![AttrRange::new(0, 1, 3)], 0, 119);
        assert_eq!(
            repaired_idx.execute_rect_sequential(&q).unwrap(),
            idx.execute_rect_sequential(&q).unwrap()
        );
    }

    #[test]
    fn repair_restores_hier_pyramids_byte_identically() {
        use ab::{HierConfig, HierLevelSpec};
        let t = table(120);
        let mut idx = ShardedIndex::build(&t, &cfg(), 4, false);
        idx.ensure_hier(&HierConfig {
            levels: vec![HierLevelSpec {
                row_span: 8,
                bin_group: 2,
            }],
        });
        let pristine = idx.to_bytes();
        let e = ab::segment_extents(&pristine).unwrap()[0];
        let (repaired_idx, repaired) =
            rot_and_repair(&pristine, &[e.offset + e.len / 2], 64, &t, &cfg());
        assert_eq!(repaired.len(), 1);
        // The rebuilt shard picked up its siblings' pyramid geometry,
        // so re-serializing reproduces the pristine envelope exactly.
        assert_eq!(repaired_idx.to_bytes(), pristine);
    }

    #[test]
    fn repair_restores_hybrid_tier_byte_identically() {
        let t = table(120);
        let mut idx = ShardedIndex::build(&t, &cfg(), 4, false);
        idx.ensure_hybrid(
            &t,
            &ab::HybridConfig {
                min_density: 0.0,
                ..Default::default()
            },
        );
        assert!(idx
            .shards()
            .iter()
            .all(|s| !s.index().hybrid().unwrap().bins().is_empty()));
        let pristine = idx.to_bytes();
        let e = ab::segment_extents(&pristine).unwrap()[0];
        let (repaired_idx, repaired) =
            rot_and_repair(&pristine, &[e.offset + e.len / 2], 64, &t, &cfg());
        assert_eq!(repaired.len(), 1);
        // The rebuilt shard picked up its siblings' split calibration
        // and rebuilt its exact containers from its table slice: the
        // envelope is pristine again.
        assert_eq!(repaired_idx.to_bytes(), pristine);
    }

    /// A flip anywhere in a one-shard index (its level tag, a count,
    /// mid-record, the last byte) fails the open on its page CRC, and
    /// the shard rebuilds to the same file.
    #[test]
    fn payload_flip_fails_open_with_page_crc_and_repair_restores_the_file() {
        let t = BinnedTable::new(vec![
            BinnedColumn::new("alpha", vec![0, 1, 2, 0, 1, 1, 0, 2], 3),
            BinnedColumn::new("beta", vec![2, 0, 1, 1, 0, 1, 0, 2], 3),
        ]);
        let bytes = ShardedIndex::build(&t, &cfg(), 1, false).to_bytes();
        let e = ab::segment_extents(&bytes).unwrap()[0];
        let blob = e.offset + ab::SEGMENT_HEADER_LEN;
        let len = e.len - ab::SEGMENT_HEADER_LEN;
        for pos in [6, 16, len / 2, len - 1] {
            let (_, repaired) = rot_and_repair(&bytes, &[blob + pos], 64, &t, &cfg());
            assert_eq!(repaired, vec![0], "flip at {pos}");
        }
    }

    /// A flip inside an exact container (no checksum of its own) fails
    /// the open on its page CRC; the shard rebuilds its container from
    /// the table and the file is restored.
    #[test]
    fn damaged_container_fails_open_with_page_crc_and_repair_restores_the_file() {
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "v",
            (0..512u32).map(|i| i / 64).collect(),
            8,
        )]);
        let mut idx = ShardedIndex::build(&t, &cfg(), 2, false);
        idx.ensure_hybrid(
            &t,
            &ab::HybridConfig {
                min_density: 0.0,
                ..Default::default()
            },
        );
        let bytes = idx.to_bytes();
        let e = ab::segment_extents(&bytes).unwrap()[1];
        // The exact tier ends the segment: 20 bytes from its end lie in
        // the last container's values.
        let last = idx.shards()[1].index();
        let tierless = AbIndex::from_parts(
            last.level(),
            last.abs().to_vec(),
            last.attributes().to_vec(),
            last.num_rows(),
            None,
            None,
        );
        let tier = e.offset + ab::SEGMENT_HEADER_LEN + ab::to_bytes(&tierless).len();
        let pos = e.offset + e.len - 20;
        assert!(pos > tier + 24, "the flip lands in the exact tier");
        let (_, repaired) = rot_and_repair(&bytes, &[pos], 64, &t, &cfg());
        assert_eq!(repaired, vec![1]);
    }

    /// A flip in the last shard fails the open; the audit names that
    /// shard alone, the others decode, and the file is restored.
    #[test]
    fn audit_isolates_the_corrupt_shard_and_repair_restores_the_file() {
        let t = BinnedTable::new(vec![
            BinnedColumn::new("alpha", (0..64u32).map(|i| i % 3).collect(), 3),
            BinnedColumn::new("beta", (0..64u32).map(|i| (i * 7) % 4).collect(), 4),
        ]);
        let idx = ShardedIndex::build(&t, &cfg(), 3, false);
        let bytes = idx.to_bytes();
        let (back, repaired) = rot_and_repair(&bytes, &[bytes.len() - 3], 64, &t, &cfg());
        assert_eq!(repaired, vec![2]);
        assert!(back.to_bytes() == bytes);
    }

    /// Rot in segment 1's length: every offset after it was walked
    /// through the damaged field, so the audit implicates shard 1 and
    /// every later one (and shard 0 only where the page holds its
    /// bytes), and the repair restores the file.
    #[test]
    fn damaged_segment_length_rebuilds_that_shard_and_every_later_one() {
        let t = table(300);
        let idx = ShardedIndex::build(&t, &cfg(), 3, false);
        let bytes = idx.to_bytes();
        let e = ab::segment_extents(&bytes).unwrap()[1];
        for byte in [0, 1, 7] {
            let (_, repaired) = rot_and_repair(&bytes, &[e.offset + 8 + byte], 64, &t, &cfg());
            let page = (e.offset + 8 + byte) / 64 * 64;
            let first = if page < e.offset { 0 } else { 1 };
            assert_eq!(repaired, (first..3).collect::<Vec<_>>(), "len byte {byte}");
        }
    }

    #[test]
    fn ensure_hybrid_covers_every_shard_and_survives_roundtrip() {
        let t = table(100);
        let mut idx = ShardedIndex::build(&t, &cfg(), 4, false);
        assert!(idx.shards().iter().all(|s| s.index().hybrid().is_none()));
        idx.ensure_hybrid(
            &t,
            &ab::HybridConfig {
                min_density: 0.0,
                ..Default::default()
            },
        );
        assert!(idx.shards().iter().all(|s| s.index().hybrid().is_some()));
        let back = ShardedIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert!(back.shards().iter().all(|s| s.index().hybrid().is_some()));
        let stats = back.hybrid_split_stats();
        assert!(stats.iter().all(|s| s.is_some()));
        // Shard-local queries agree with the original whole-table
        // assignment: exact containers were built on the row slices.
        let q = RectQuery::new(vec![AttrRange::new(0, 1, 3)], 0, 99);
        assert_eq!(
            back.execute_rect_sequential(&q).unwrap(),
            idx.execute_rect_sequential(&q).unwrap()
        );
    }

    #[test]
    fn ensure_hier_covers_every_shard_and_survives_roundtrip() {
        let t = table(100);
        let mut idx = ShardedIndex::build(&t, &cfg(), 4, false);
        assert!(idx.shards().iter().all(|s| s.index().hier().is_none()));
        idx.ensure_hier(&ab::HierConfig {
            levels: vec![ab::HierLevelSpec {
                row_span: 8,
                bin_group: 2,
            }],
        });
        assert!(idx.shards().iter().all(|s| s.index().hier().is_some()));
        let back = ShardedIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert!(back.shards().iter().all(|s| s.index().hier().is_some()));
    }

    #[test]
    fn repair_passes_clean_envelopes_through() {
        let t = table(80);
        let idx = ShardedIndex::build(&t, &cfg(), 3, false);
        let back =
            ShardedIndex::from_bytes_with_repair(&idx.to_bytes(), 3, &[], &t, &cfg()).unwrap();
        assert!(back.to_bytes() == idx.to_bytes());
        assert_eq!(back.num_rows(), idx.num_rows());
        assert_eq!(back.num_shards(), idx.num_shards());
    }

    #[test]
    fn repair_rejects_wrong_source_table() {
        let t = table(100);
        let idx = ShardedIndex::build(&t, &cfg(), 4, false);
        let other = table(90); // different row count → different layout
        assert!(matches!(
            ShardedIndex::from_bytes_with_repair(&idx.to_bytes(), 4, &[], &other, &cfg()),
            Err(ab::IoError::BadShardLayout)
        ));
        // So is a shard count other than the envelope's.
        assert!(matches!(
            ShardedIndex::from_bytes_with_repair(&idx.to_bytes(), 3, &[2], &t, &cfg()),
            Err(ab::IoError::BadShardLayout)
        ));
    }

    #[test]
    fn validate_rejects_unknown_attribute() {
        let idx = ShardedIndex::build(&table(40), &cfg(), 2, false);
        let q = RectQuery::new(vec![AttrRange::new(9, 0, 1)], 0, 10);
        assert!(matches!(
            idx.validate_rect(&q),
            Err(QueryError::BinOutOfRange { attribute: 9, .. })
        ));
        let q2 = RectQuery::new(vec![], 0, 40);
        assert!(matches!(
            idx.validate_rect(&q2),
            Err(QueryError::RowOutOfRange { row: 40, .. })
        ));
    }
}
