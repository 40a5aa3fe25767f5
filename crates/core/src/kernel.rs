//! Batched, prefetch-pipelined probe kernel (DESIGN.md §13–§14).
//!
//! The paper's retrieval algorithms (Figures 5 and 7) are O(c·k) in
//! *probe count*, but the scalar implementation realizes each probe as
//! a dependent random bit read: the next AB word address is only known
//! after the previous bit arrives, so a large rect query is bound by
//! `c · memory latency`, not by bandwidth. This module restructures the
//! same computation without changing a single observable result:
//!
//! 1. **Hash hoisting** — a rect query touches the same (attribute,
//!    bin) columns for every row, so the row-independent half of the
//!    probe pipeline (family dispatch, reduction mask, SHA-1 chunk
//!    width, column-group geometry) is computed once per query into a
//!    `CellPlan` and per-row positions come from the cheap mixer via
//!    [`hashkit::ColProber`].
//! 2. **Stage-pipelined probing** — rows are processed in batches;
//!    each live row ("lane") keeps exactly one probe in flight, its AB
//!    word prefetched, and probes are resolved breadth-first across
//!    the batch so many memory latencies overlap instead of
//!    serializing.
//! 3. **One batch depth** — every batch, row or cell, is
//!    [`MAX_BATCH_ROWS`] lanes deep wherever the AB sits: out of the
//!    LLC every independent miss in flight pays for itself, and in L2
//!    the depths 16 to 256 measure within 2 % of each other
//!    (DESIGN.md §14).
//! 4. **Short-circuit preservation** — a lane advances through bins and
//!    ranges exactly as the scalar Figure 7 loop does (OR short-circuit
//!    on the first present cell, AND short-circuit on the first empty
//!    range, per-cell break on the first zero bit), so `cells_probed`
//!    and `bits_read` are identical to the scalar path bit for bit.
//!
//! Figure 5's cell lists go through the same waves, grouped by the AB
//! each cell probes so that a whole batch shares one hoisted hash
//! state and one word array — see `retrieve_cells_waves`. A batch like
//! that advances in lockstep (`LockstepBatch`), and set-up runs the
//! same loop: the build's inserts set the bits the positions name, the
//! pyramid's sweep (`ColumnSweeper`) tests them.
//!
//! Prefetch instructions are x86-64 `_mm_prefetch` and aarch64 `prfm`;
//! on other targets the kernel still wins from the overlapped
//! independent loads the breadth-first order exposes.
//!
//! Observability: `kernel.batches` (row/cell batches opened),
//! `kernel.prefetches` (prefetch instructions *actually executed* —
//! zero on no-op fallback builds), `kernel.cell_plans_deduped`
//! (Figure 5 cells that shared an already built plan).

use crate::encoding::ApproximateBitmap;
use crate::hybrid::{HybridAb, HybridBin};
use crate::level::AbIndex;
use crate::query::{Cell, QueryStats};
use bitmap::RectQuery;
use serde::{Deserialize, Serialize};
use std::cell::Cell as StdCell;

/// The lane count of every probe batch: the rect kernel's row
/// batches, the cell kernel's batches, the build's inserts and the
/// build-time sweeps (a sweep may start shallower and deepen to it).
/// The match mask is `MAX_BATCH_ROWS` bits, and a lockstep batch is a
/// [`hashkit::LockstepLanes`] of as many lanes.
pub const MAX_BATCH_ROWS: usize = hashkit::LANES;

/// True when the target has a prefetch instruction the kernel issues
/// (x86-64, aarch64); false means the portable no-op fallback.
pub const PREFETCH_ACTIVE: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

/// Which probe engine executes a query. Results are always identical;
/// only the memory access schedule differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelKind {
    /// The reference row-at-a-time loop (Figures 5/7 verbatim).
    Scalar,
    /// The batched, prefetch-pipelined kernel with scalar bit reads.
    #[default]
    Batched,
}

/// Whether an optional tier attached to the index — the coarse-to-fine
/// pyramid ([`crate::hier::HierAb`]) or the exact tier
/// ([`crate::hybrid::HybridAb`]) — takes part in a query. One policy,
/// named once per tier ([`HierMode`], [`HybridMode`]). The pyramid
/// never changes an answer, only the work behind it; exact-backed bins
/// contribute zero false positives, so with the exact tier on the
/// answer is a subset of (or equal to) the flat AB answer, never
/// missing a true row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TierMode {
    /// Never consult the tier, even if one is attached.
    #[default]
    Off,
    /// Consult an attached tier when it pays: the pyramid when the
    /// planner's cost model says pruning beats a flat scan
    /// ([`crate::planner::plan_descent`]), the exact tier when it backs
    /// at least one bin the query touches
    /// ([`crate::hybrid::HybridAb::covers_any`]).
    Auto,
    /// Always consult an attached tier (differential tests).
    Force,
}

/// The pyramid's [`TierMode`] ([`KernelOpts::hier`]).
pub type HierMode = TierMode;

/// The exact tier's [`TierMode`] ([`KernelOpts::hybrid`]).
pub type HybridMode = TierMode;

impl std::str::FromStr for TierMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(TierMode::Off),
            "auto" => Ok(TierMode::Auto),
            "force" => Ok(TierMode::Force),
            other => Err(format!("unknown mode '{other}' (expected off|auto|force)")),
        }
    }
}

impl std::fmt::Display for TierMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TierMode::Off => "off",
            TierMode::Auto => "auto",
            TierMode::Force => "force",
        })
    }
}

/// Full kernel configuration: which engine, whether hierarchical
/// pruning runs first, whether the exact tier answers backed bins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelOpts {
    /// The probe engine.
    pub kernel: KernelKind,
    /// The hierarchical-pruning policy.
    pub hier: HierMode,
    /// The exact-tier policy.
    #[serde(default)]
    pub hybrid: HybridMode,
}

impl KernelOpts {
    /// `kernel` with pruning off and the exact tier off.
    pub fn new(kernel: KernelKind) -> Self {
        KernelOpts {
            kernel,
            hier: HierMode::default(),
            hybrid: HybridMode::default(),
        }
    }

    /// Overrides the hierarchical-pruning policy.
    pub fn with_hier(mut self, hier: HierMode) -> Self {
        self.hier = hier;
        self
    }

    /// Overrides the exact-tier policy.
    pub fn with_hybrid(mut self, hybrid: HybridMode) -> Self {
        self.hybrid = hybrid;
        self
    }
}

impl From<KernelKind> for KernelOpts {
    fn from(kernel: KernelKind) -> Self {
        KernelOpts::new(kernel)
    }
}

/// Requests the cache line holding AB bit `pos` ahead of its read.
#[inline(always)]
fn prefetch(words: &[u64], pos: u64) {
    debug_assert!((pos / 64) < words.len() as u64, "bit {pos} past the AB");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: pos < n and words.len() == ceil(n/64), so the word index
    // is in bounds (asserted above in debug builds); prefetch has no
    // architectural side effects anyway.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(
            words.as_ptr().add((pos / 64) as usize) as *const i8,
            _MM_HINT_T0,
        );
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: in-bounds address as above; prfm is side-effect free.
    unsafe {
        let p = words.as_ptr().add((pos / 64) as usize);
        core::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) p,
            options(nostack, preserves_flags, readonly)
        );
    }
}

// ---------------------------------------------------------------------------
// Shared plan / lane machinery
// ---------------------------------------------------------------------------

/// The hoisted, row-independent state for one (attribute, bin) column
/// of a rect query — or, in a cell call, for every column of one AB
/// (the prober begins probes for any of them,
/// [`hashkit::ColProber::begin_col`]): raw AB words, k, and the
/// reusable hash prober.
struct CellPlan<'a> {
    words: &'a [u64],
    k: u32,
    prober: hashkit::ColProber<'a>,
    /// Hash positions computed against this plan, flushed once per
    /// query into `hashkit.hash_calls.*` (the scalar `Prober` flushes
    /// per cell on drop; batching amortizes that to one atomic op).
    calls: StdCell<u64>,
}

impl<'a> CellPlan<'a> {
    fn new(ab: &'a ApproximateBitmap, col: u64) -> Self {
        CellPlan {
            words: ab.bits().words(),
            k: ab.k() as u32,
            prober: ab.family().col_prober(col, ab.mapper(), ab.n_bits()),
            calls: StdCell::new(0),
        }
    }

    /// Reads one AB bit (the word was prefetched one wave earlier).
    #[inline(always)]
    fn bit(&self, pos: u64) -> bool {
        (self.words[(pos / 64) as usize] >> (pos % 64)) & 1 == 1
    }

    /// Computes (and prefetches) the next probe position for `probe`.
    #[inline(always)]
    fn issue(&self, probe: &mut hashkit::RowProbe) -> u64 {
        let pos = self.prober.next_position(probe);
        self.calls.set(self.calls.get() + 1);
        prefetch(self.words, pos);
        pos
    }

    /// Batch form of [`Self::issue`] for opening a wave of lanes on
    /// the same plan: positions come from the vector-friendly
    /// [`hashkit::ColProber::next_positions`] (identical sequence),
    /// the call count is bumped once, and every position's word is
    /// prefetched.
    fn issue_batch(&self, probes: &mut [hashkit::RowProbe], out: &mut [u64]) {
        self.prober.next_positions(probes, out);
        self.count_and_prefetch(&out[..probes.len()]);
    }

    fn count_and_prefetch(&self, positions: &[u64]) {
        self.calls.set(self.calls.get() + positions.len() as u64);
        for &pos in positions {
            prefetch(self.words, pos);
        }
    }
}

/// Per-query wave accounting, flushed into obs once at the end so the
/// probe loops stay atomics-free.
#[derive(Default)]
struct WaveCounters {
    batches: u64,
}

impl WaveCounters {
    /// `prefetched_positions` is the number of probe positions the
    /// query issued; each issued position executes exactly one
    /// prefetch instruction — but only on targets that have one. On
    /// the no-op fallback nothing is added, so `kernel.prefetches`
    /// never reports phantom prefetches.
    fn flush(self, prefetched_positions: u64) {
        obs::counter!("kernel.batches").add(self.batches);
        if PREFETCH_ACTIVE {
            obs::counter!("kernel.prefetches").add(prefetched_positions);
        }
    }
}

/// Ascending-order match mask over one batch's slots (up to
/// [`MAX_BATCH_ROWS`] bits).
#[derive(Default)]
struct MatchMask([u64; MAX_BATCH_ROWS / 64]);

impl MatchMask {
    #[inline(always)]
    fn set(&mut self, slot: u32) {
        self.0[slot as usize / 64] |= 1u64 << (slot % 64);
    }

    /// Pushes `base + slot` for every set slot, in ascending slot
    /// order — restoring row order regardless of lane retire order.
    fn drain_into(&mut self, rows: &mut Vec<usize>, base: usize) {
        for (w, word) in self.0.iter_mut().enumerate() {
            let mut m = *word;
            while m != 0 {
                rows.push(base + w * 64 + m.trailing_zeros() as usize);
                m &= m - 1;
            }
            *word = 0;
        }
    }
}

/// One in-flight row of a rect-query batch: where it is in the Figure 7
/// evaluation (range, bin, probe index) and its one outstanding probe.
struct Lane {
    row: u64,
    slot: u32,
    range: u32,
    bin: u32,
    /// Bits read for the current cell so far (< k; the cell resolves at
    /// the first zero bit or at the k-th one bit).
    t: u32,
    /// The already-issued (and prefetched) probe position.
    pos: u64,
    probe: hashkit::RowProbe,
}

impl Lane {
    /// Starts the probe sequence of cell (range, bin) for this lane's
    /// row. Mirrors the scalar path's `cells_probed += 1` placement:
    /// the counter moves *before* any bit is read.
    #[inline]
    fn start_cell(&mut self, plans: &[Vec<CellPlan>], stats: &mut QueryStats) {
        let plan = &plans[self.range as usize][self.bin as usize];
        stats.cells_probed += 1;
        self.t = 0;
        let mut probe = plan.prober.begin(self.row);
        self.pos = plan.issue(&mut probe);
        self.probe = probe;
    }
}

/// What the Figure 7 state transition did with a lane.
enum LaneFate {
    /// The lane has a new probe in flight.
    Live,
    /// Every range was satisfied: the row is an (approximate) match.
    Matched,
    /// A range was exhausted with no hit: the row is out.
    Dead,
}

/// Applies one bit's worth of the Figure 7 evaluation to `lane`,
/// identical in observable effect to the row-at-a-time reference
/// loop: OR short-circuit on the k-th set bit, AND short-circuit on
/// the last exhausted bin, per-cell break on the first zero bit.
#[inline(always)]
fn advance_lane(
    lane: &mut Lane,
    plans: &[Vec<CellPlan>],
    num_ranges: usize,
    stats: &mut QueryStats,
    short_circuits: &mut u64,
    hit: bool,
) -> LaneFate {
    let range_plans = &plans[lane.range as usize];
    let plan = &range_plans[lane.bin as usize];
    stats.bits_read += 1;
    lane.t += 1;
    if hit {
        if lane.t < plan.k {
            // Bit set, cell undecided: issue the next probe.
            lane.pos = plan.issue(&mut lane.probe);
            return LaneFate::Live;
        }
        // All k bits set: the cell is (approximately) present —
        // Figure 7's OR short-circuit.
        *short_circuits += u64::from((lane.bin as usize) < range_plans.len() - 1);
        lane.range += 1;
        lane.bin = 0;
        if lane.range as usize == num_ranges {
            return LaneFate::Matched;
        }
        if plans[lane.range as usize].is_empty() {
            return LaneFate::Dead; // degenerate range: row fails
        }
        lane.start_cell(plans, stats);
        LaneFate::Live
    } else {
        // Zero bit: cell definitely absent (Figure 5 break).
        lane.bin += 1;
        if lane.bin as usize == range_plans.len() {
            // Range exhausted with no hit: Figure 7's AND
            // short-circuit — the row is out.
            return LaneFate::Dead;
        }
        lane.start_cell(plans, stats);
        LaneFate::Live
    }
}

// ---------------------------------------------------------------------------
// Figure 7: rectangular queries
// ---------------------------------------------------------------------------

/// Figure 7 over row batches: bit-identical results and [`QueryStats`]
/// to the scalar loop in `query.rs`, with up to [`MAX_BATCH_ROWS`]
/// probe latencies overlapped. Returns `(rows, stats,
/// or_short_circuits)`.
///
/// The caller has already validated row and bin bounds.
pub(crate) fn execute_rect_waves(
    index: &AbIndex,
    query: &RectQuery,
) -> (Vec<usize>, QueryStats, u64) {
    let mut rows = Vec::new();
    let mut stats = QueryStats::default();
    let mut short_circuits = 0u64;
    if query.row_lo > query.row_hi {
        return (rows, stats, 0);
    }
    if query.ranges.is_empty() {
        // Vacuous AND: every row matches without a single probe, as in
        // the scalar loop.
        rows.extend(query.row_lo..=query.row_hi);
        stats.rows_matched = rows.len();
        return (rows, stats, 0);
    }
    // Hash hoisting: one plan per (attribute, bin) the query can touch,
    // shared by every row.
    let plans: Vec<Vec<CellPlan>> = query
        .ranges
        .iter()
        .map(|r| {
            (r.lo..=r.hi)
                .map(|bin| {
                    let (ab, col) = index.cell_plan_target(r.attribute, bin);
                    CellPlan::new(ab, col)
                })
                .collect()
        })
        .collect();
    let num_ranges = plans.len();
    let mut lanes: Vec<Lane> = Vec::with_capacity(MAX_BATCH_ROWS);
    let mut probes: Vec<hashkit::RowProbe> = Vec::with_capacity(MAX_BATCH_ROWS);
    let mut wave = WaveCounters::default();
    let mut matched = MatchMask::default();
    let mut base = query.row_lo;
    loop {
        let batch_len = (query.row_hi - base + 1).min(MAX_BATCH_ROWS);
        wave.batches += 1;
        lanes.clear();
        if plans[0].is_empty() {
            // Degenerate first range (lo > hi): no row can match and,
            // like the scalar loop, no probe is issued.
        } else {
            open_lanes(base, batch_len, &plans, &mut stats, &mut probes, &mut lanes);
        }
        run_scalar_waves(
            &plans,
            num_ranges,
            &mut lanes,
            &mut stats,
            &mut short_circuits,
            &mut matched,
        );
        matched.drain_into(&mut rows, base);
        if query.row_hi - base < MAX_BATCH_ROWS {
            break;
        }
        base += batch_len;
    }
    stats.rows_matched = rows.len();
    for plan in plans.iter().flatten() {
        plan.prober.record_hash_calls(plan.calls.get());
    }
    // Every issued position is read exactly once, so the number of
    // (potentially prefetched) positions equals bits_read.
    wave.flush(stats.bits_read as u64);
    (rows, stats, short_circuits)
}

/// Opens one batch's lanes on their rows' first cell (range 0, bin 0):
/// all first-probe positions come from one vector-friendly
/// `CellPlan::issue_batch` call against the shared plan.
fn open_lanes(
    base: usize,
    batch_len: usize,
    plans: &[Vec<CellPlan>],
    stats: &mut QueryStats,
    probes: &mut Vec<hashkit::RowProbe>,
    lanes: &mut Vec<Lane>,
) {
    let plan = &plans[0][0];
    stats.cells_probed += batch_len;
    probes.clear();
    probes.extend((0..batch_len).map(|slot| plan.prober.begin((base + slot) as u64)));
    let mut first = [0u64; MAX_BATCH_ROWS];
    plan.issue_batch(probes, &mut first[..batch_len]);
    for (slot, probe) in probes.drain(..).enumerate() {
        lanes.push(Lane {
            row: (base + slot) as u64,
            slot: slot as u32,
            range: 0,
            bin: 0,
            t: 0,
            pos: first[slot],
            probe,
        });
    }
}

/// Breadth-first resolution with scalar bit reads: each pass tests one
/// (prefetched) bit per live lane, so the batch keeps up to
/// `lanes.len()` independent loads in flight.
fn run_scalar_waves(
    plans: &[Vec<CellPlan>],
    num_ranges: usize,
    lanes: &mut Vec<Lane>,
    stats: &mut QueryStats,
    short_circuits: &mut u64,
    matched: &mut MatchMask,
) {
    while !lanes.is_empty() {
        let mut i = 0;
        while i < lanes.len() {
            let lane = &mut lanes[i];
            let hit = plans[lane.range as usize][lane.bin as usize].bit(lane.pos);
            match advance_lane(lane, plans, num_ranges, stats, short_circuits, hit) {
                LaneFate::Live => i += 1,
                LaneFate::Matched => {
                    matched.set(lanes[i].slot);
                    lanes.swap_remove(i);
                }
                LaneFate::Dead => {
                    lanes.swap_remove(i);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The lockstep probe loop
// ---------------------------------------------------------------------------

/// Up to [`MAX_BATCH_ROWS`] cells of one AB probed in lockstep — a
/// [`hashkit::LockstepLanes`] batch (opened together, so the cells may
/// name any columns of the AB; advanced together, one
/// [`hashkit::ColProber::next_positions_lockstep`] call per step) and
/// the positions of its last step. This is the state of the one probe
/// loop every batch path of the crate runs: the build walks all k
/// steps and sets the bits ([`ApproximateBitmap::insert_cells`]); the
/// cell kernel and the build-time sweeps test them and retire lanes
/// (`CellPlan::survivors`). Lane `i` is the `i`-th cell opened, and a
/// caller finds what it calls that cell — a request position, a row —
/// at index `i` of its own list.
pub(crate) struct LockstepBatch {
    lanes: hashkit::LockstepLanes,
    pos: [u64; MAX_BATCH_ROWS],
}

impl LockstepBatch {
    pub(crate) fn new() -> Self {
        LockstepBatch {
            lanes: hashkit::LockstepLanes::new(),
            pos: [0; MAX_BATCH_ROWS],
        }
    }

    /// Replaces the batch with one lane per `(row, col)` cell, all at
    /// step 0; takes at most [`MAX_BATCH_ROWS`] cells from `cells` and
    /// returns how many that was.
    pub(crate) fn open(
        &mut self,
        prober: &hashkit::ColProber<'_>,
        cells: impl Iterator<Item = (u64, u64)>,
    ) -> usize {
        self.lanes.open(prober, cells)
    }

    /// Advances every live lane one step: their positions, in lane
    /// order.
    pub(crate) fn step(&mut self, prober: &hashkit::ColProber<'_>) -> &[u64] {
        let n = self.lanes.len();
        prober.next_positions_lockstep(&mut self.lanes, &mut self.pos);
        &self.pos[..n]
    }

    /// The live lanes, ascending.
    pub(crate) fn live(&self) -> impl Iterator<Item = usize> + '_ {
        self.lanes.live()
    }
}

impl CellPlan<'_> {
    /// The reading half of the probe loop: runs the lanes open in
    /// `batch` through this plan's k steps and leaves live the ones
    /// whose k bits are all set ([`LockstepBatch::live`]). Every lane
    /// is on this plan's AB at the same probe index, so step `t` is one
    /// hash function over the batch's keys, one bit test against one
    /// word array, and one retirement pass over the live list that
    /// never branches on a bit (a coin flip for an absent cell): a lane
    /// leaves at its first zero bit (Figure 5's break).
    fn survivors(&self, batch: &mut LockstepBatch, wave: &mut WaveCounters) {
        wave.batches += 1;
        let mut bits = [false; MAX_BATCH_ROWS];
        for _ in 0..self.k {
            if batch.lanes.is_empty() {
                break;
            }
            let pos = batch.step(&self.prober);
            self.count_and_prefetch(pos);
            for (bit, &p) in bits.iter_mut().zip(pos) {
                *bit = self.bit(p);
            }
            batch.lanes.retain(&bits);
        }
    }
}

/// The build-time reader of the probe loop: sweeps the base AB's own
/// verdicts for the pyramid ([`crate::hier`]), a batch of one
/// column's rows at a time — `test_cell`'s verdicts without a prober
/// per cell. Hash evaluations and wave counters add up over the sweep
/// and are flushed once, when the sweeper is dropped: set-up sweeps on
/// a thread per shard, and the counters' cache lines are shared.
pub(crate) struct ColumnSweeper<'a> {
    index: &'a AbIndex,
    batch: LockstepBatch,
    rows: Vec<usize>,
    /// The family of the ABs swept so far (an index's ABs share
    /// `AbConfig::family`), once one is.
    family: Option<&'a hashkit::HashFamily>,
    /// Positions issued (and prefetched) so far.
    calls: u64,
    wave: WaveCounters,
}

impl<'a> ColumnSweeper<'a> {
    pub(crate) fn new(index: &'a AbIndex) -> Self {
        ColumnSweeper {
            index,
            batch: LockstepBatch::new(),
            rows: Vec::with_capacity(MAX_BATCH_ROWS),
            family: None,
            calls: 0,
            wave: WaveCounters::default(),
        }
    }

    /// Probes cell (row, `attribute`, `bin`) for the first
    /// [`MAX_BATCH_ROWS`] rows of `rows` in one lockstep batch and
    /// returns, in the order given, the rows the AB admits — present
    /// or false positive. The caller keeps rows and bin in range.
    pub(crate) fn positives(
        &mut self,
        attribute: usize,
        bin: u32,
        rows: impl Iterator<Item = usize>,
    ) -> &[usize] {
        let (ab, col) = self.index.cell_plan_target(attribute, bin);
        let plan = CellPlan::new(ab, col);
        self.rows.clear();
        self.rows.extend(rows.take(MAX_BATCH_ROWS));
        debug_assert!(self.rows.iter().all(|&row| row < self.index.num_rows()));
        self.batch
            .open(&plan.prober, self.rows.iter().map(|&row| (row as u64, col)));
        plan.survivors(&mut self.batch, &mut self.wave);
        self.family = Some(ab.family());
        self.calls += plan.calls.get();
        // The survivors' rows close ranks; lane ids ascend, so each
        // moves down or stays.
        let mut kept = 0;
        for lane in self.batch.live() {
            self.rows[kept] = self.rows[lane];
            kept += 1;
        }
        self.rows.truncate(kept);
        &self.rows
    }
}

impl Drop for ColumnSweeper<'_> {
    fn drop(&mut self) {
        if let Some(family) = self.family {
            family.record_hash_calls(self.calls);
        }
        // Every issued position was prefetched exactly once.
        std::mem::take(&mut self.wave).flush(self.calls);
    }
}

// ---------------------------------------------------------------------------
// Figure 5: cell-subset queries
// ---------------------------------------------------------------------------

/// What an (attribute, bin) column named by a cell call resolved to,
/// on the first cell that named it.
#[derive(Clone, Copy)]
enum ColumnTarget<'a> {
    /// The exact tier backs this bin: its container is the answer.
    Exact(&'a HybridBin),
    /// Probe the AB whose plan has this index in the call's plan list.
    Probe(u32),
}

/// Figure 5 over cell batches: identical verdicts (in query order) to
/// the scalar `test_cell` loop, and — with `hybrid` — the exact
/// container's verdict for every cell of a bin it backs.
///
/// One **plan table** per call, indexed by the dense global column
/// `meta.offset + bin`, resolves every (attribute, bin) the call names
/// on the first cell that names it: to the exact tier's backing if
/// there is one, else to the plan of the AB that holds the column —
/// the hoisted hash state, built once per AB the call touches and
/// shared by all its cells (`kernel.cell_plans_deduped` counts the
/// sharers). The probed cells are then **grouped by plan** (a counting
/// sort) and each group runs through the lockstep probe loop
/// (`CellPlan::survivors`) on its own, in batches of
/// [`MAX_BATCH_ROWS`] lanes; the lanes that survive all k bits are the
/// cells present.
///
/// Batches do not straddle plans: a per-column index answering a list
/// much shorter than its column count runs shallow batches. That is
/// the price of a loop with nothing per-lane left to dispatch on.
///
/// # Panics
///
/// Panics on out-of-range rows or bins, with the same messages as
/// [`AbIndex::test_cell_counted`].
pub(crate) fn retrieve_cells_waves(
    index: &AbIndex,
    hybrid: Option<&HybridAb>,
    cells: &[Cell],
) -> Vec<bool> {
    /// `plan_of_cell` of a cell the exact tier answered.
    const EXACT: u32 = u32::MAX;
    /// `plan_of_ab` of an AB no cell of the call has named yet.
    const UNPLANNED: u32 = u32::MAX;
    let mut out = vec![false; cells.len()];
    let attrs = index.attributes();
    let num_columns = attrs
        .last()
        .map_or(0, |m| m.offset + m.cardinality as usize);

    // Pass 1: validate, resolve each named column on first touch,
    // answer exact-backed cells, count the probed cells per plan.
    let mut targets: Vec<Option<ColumnTarget>> = vec![None; num_columns];
    let mut plan_of_ab = vec![UNPLANNED; index.abs().len()];
    let mut plans: Vec<CellPlan> = Vec::new();
    // Until the prefix sum below, next[p + 1] counts plan p's cells;
    // after it, next[p] is the slot of plan p's next cell.
    let mut next: Vec<usize> = vec![0];
    let mut plan_of_cell: Vec<u32> = Vec::with_capacity(cells.len());
    let mut exact_cells = 0usize;
    for (i, c) in cells.iter().enumerate() {
        let meta = &attrs[c.attribute];
        assert!(
            c.bin < meta.cardinality,
            "bin {} out of range for attribute {}",
            c.bin,
            c.attribute
        );
        assert!(
            c.row < index.num_rows(),
            "row {} out of range {}",
            c.row,
            index.num_rows()
        );
        let target = targets[meta.offset + c.bin as usize].get_or_insert_with(|| {
            match hybrid.and_then(|hy| hy.backing(c.attribute, c.bin)) {
                Some(backing) => ColumnTarget::Exact(backing),
                None => {
                    let (ab, col) = index.cell_plan_slot(c.attribute, c.bin);
                    if plan_of_ab[ab] == UNPLANNED {
                        plan_of_ab[ab] = plans.len() as u32;
                        plans.push(CellPlan::new(&index.abs()[ab], col));
                        next.push(0);
                    }
                    ColumnTarget::Probe(plan_of_ab[ab])
                }
            }
        });
        plan_of_cell.push(match *target {
            ColumnTarget::Exact(backing) => {
                out[i] = backing.contains(c.row);
                exact_cells += 1;
                EXACT
            }
            ColumnTarget::Probe(plan) => {
                next[plan as usize + 1] += 1;
                plan
            }
        });
    }
    if exact_cells > 0 {
        obs::counter!("hybrid.cells_exact").add(exact_cells as u64);
    }
    // Pass 2: group the probed cells by plan; within a plan, request
    // order is kept.
    for p in 0..plans.len() {
        next[p + 1] += next[p];
    }
    let mut order = vec![0usize; cells.len() - exact_cells];
    for (i, &plan) in plan_of_cell.iter().enumerate() {
        if plan != EXACT {
            order[next[plan as usize]] = i;
            next[plan as usize] += 1;
        }
    }

    let mut wave = WaveCounters::default();
    let mut batch = LockstepBatch::new();
    let mut group_start = 0;
    for (plan, &group_end) in plans.iter().zip(&next) {
        // Lane i's verdict goes to request position chunk[i].
        for chunk in order[group_start..group_end].chunks(MAX_BATCH_ROWS) {
            batch.open(
                &plan.prober,
                chunk.iter().map(|&i| {
                    let c = &cells[i];
                    let (_, col) = index.cell_plan_slot(c.attribute, c.bin);
                    (c.row as u64, col)
                }),
            );
            plan.survivors(&mut batch, &mut wave);
            for lane in batch.live() {
                out[chunk[lane]] = true;
            }
        }
        group_start = group_end;
    }

    let mut issued_positions = 0u64;
    for plan in &plans {
        issued_positions += plan.calls.get();
        plan.prober.record_hash_calls(plan.calls.get());
    }
    if order.len() > plans.len() {
        obs::counter!("kernel.cell_plans_deduped").add((order.len() - plans.len()) as u64);
    }
    // Every issued position was prefetched exactly once.
    wave.flush(issued_positions);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_opts_builders() {
        let o = KernelOpts::new(KernelKind::Scalar)
            .with_hier(HierMode::Force)
            .with_hybrid(HybridMode::Auto);
        assert_eq!(o.kernel, KernelKind::Scalar);
        assert_eq!((o.hier, o.hybrid), (HierMode::Force, HybridMode::Auto));
        let d: KernelOpts = KernelKind::Batched.into();
        assert_eq!(d, KernelOpts::default());
    }

    /// The two prefetch blocks' `// SAFETY:` argument: an AB of n bits
    /// holds ⌈n/64⌉ words and a prober's positions are below n, so the
    /// word of any position — bit 0 and bit n − 1 at the extremes — is
    /// in bounds whether or not 64 divides n. Every position the
    /// lockstep loop issues for a few hundred cells is checked too.
    #[test]
    fn prefetch_stays_inside_abs_of_every_size() {
        for n in [1u64, 63, 64, 65, 127, 128, 1000, 1 << 14] {
            let ab = ApproximateBitmap::new(
                n,
                22,
                hashkit::HashFamily::default_independent(),
                hashkit::CellMapper::for_columns(4),
            );
            let words = ab.bits().words();
            assert_eq!(words.len() as u64, n.div_ceil(64), "n = {n}");
            prefetch(words, 0);
            prefetch(words, n - 1);
            let plan = CellPlan::new(&ab, 0);
            let mut batch = LockstepBatch::new();
            batch.open(&plan.prober, (0..300u64).map(|row| (row, row % 4)));
            for _ in 0..22 {
                let pos = batch.step(&plan.prober);
                assert!(pos.iter().all(|&p| p < n), "n = {n}");
                plan.count_and_prefetch(pos);
            }
        }
    }

    /// A debug build refuses a prefetch of the first bit past an AB
    /// whose last word is full: bit n, where 64 divides n, names word
    /// ⌈n/64⌉, one past the array.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "bit 128 past the AB")]
    fn prefetch_past_the_last_word_panics_in_debug_builds() {
        let ab = ApproximateBitmap::new(
            128,
            3,
            hashkit::HashFamily::default_independent(),
            hashkit::CellMapper::RowOnly,
        );
        prefetch(ab.bits().words(), 128);
    }

    #[test]
    fn match_mask_restores_ascending_order() {
        let mut mask = MatchMask::default();
        for slot in [200u32, 3, 64, 0, 255, 65] {
            mask.set(slot);
        }
        let mut rows = Vec::new();
        mask.drain_into(&mut rows, 1000);
        assert_eq!(rows, vec![1000, 1003, 1064, 1065, 1200, 1255]);
        // Drained mask is clear.
        let mut again = Vec::new();
        mask.drain_into(&mut again, 0);
        assert!(again.is_empty());
    }
}
