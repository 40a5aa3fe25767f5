//! The four workloads: table shape, request list, window, and the
//! reason each exists. Every size here is a constant; the seed drives
//! only the values (table contents, request offsets and bin ranges),
//! so two seeds give the same amount of work and the same seed gives
//! byte-identical inputs.
//!
//! Every AB fits the reference machine's 2 MiB per-core L2 (1 MiB or
//! less in total, see `README.md`): on a shared host the L3 belongs
//! to the neighbours, and the same probe list over an 8 MiB AB
//! repeated two and a half times worse than over a 1 MiB one. Sizes
//! do not adapt to the machine the benchmark runs on, so counts
//! repeat anywhere.

use ab::{AbConfig, Cell, Level};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
use net::Request;
use rand::Rng;

/// Which generator builds the table and the request list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Random-offset rects over a uniform table; flat kernel only.
    ProbeUniform,
    /// Full/half/tenth-table rects on thin tail bins of one clustered
    /// column; pyramid descent decides what the kernel still probes.
    PruneClustered,
    /// Rects over exact-backed hot bins of a Zipf table; no hash
    /// probes, large response frames.
    ExactSkewed,
    /// Random cell batches over an L2-resident AB.
    CellsUniform,
}

/// One workload's constants.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    /// Generator.
    pub kind: Kind,
    /// Requests kept in flight on the one connection (closed loop).
    pub window: usize,
    /// Table rows.
    pub rows: usize,
    /// Attributes.
    pub attrs: usize,
    /// Bins per attribute.
    pub bins: u32,
    /// AB bits per set bit.
    pub alpha: u64,
    /// Requests in the list; one round replays all of them.
    pub requests: usize,
    /// Pinned nominal rate (requests/s) the open-loop points are
    /// fractions of — a constant so the offered load is the same on
    /// any machine, chosen near the reference closed-loop rate.
    pub nominal_rate: f64,
}

/// Rows per rect in `probe_uniform`.
pub const PROBE_RECT_ROWS: usize = 8192;
/// Bins per attribute range in `probe_uniform`.
pub const PROBE_RANGE_BINS: u32 = 8;
/// Cells per request in `cells_uniform`.
pub const CELLS_PER_REQUEST: usize = 2048;
/// Zipf exponent of the `exact_skewed` columns. Over 12 bins it puts
/// every bin's density above the exact tier's 1/64 floor by a sixth
/// or more, and none within an eighth of 1/16, where a Roaring chunk
/// turns from an array into a bitmap — so which bins are backed, and
/// how their containers are laid out, does not depend on the seed
/// (`bytes_per_row` moves by 0.1 % between seeds; at θ = 1 over 32
/// bins it moved by 1 %).
const ZIPF_THETA: f64 = 1.25;
/// Tail clusters of the clustered column: (bin, parts per million of
/// the table). The `repro_hier` layout; queries use the ones at or
/// below 1000 ppm.
const TAIL_PPM: [(u32, usize); 8] = [
    (8, 50),
    (9, 500),
    (10, 5_000),
    (11, 100_000),
    (12, 10_000),
    (13, 1_000),
    (14, 100),
    (15, 10),
];
/// Bin ranges the `prune_clustered` requests select, all inside the
/// ≤ 1000 ppm bins of the thinnest 4-bin group (12–15 hold 1.1 % of
/// the table together, so the pyramid's 4-bin groups can prune
/// ≈ 97 %). Two or three bins per range, not one: the kernel then has
/// a few hundred µs of probing left per request, and requests much
/// shorter than that time the wake-ups between threads, not the
/// program.
const PRUNE_QUERY_RANGES: [(u32, u32); 3] = [(13, 15), (13, 14), (14, 15)];
/// Rows per finest pyramid span (`HierConfig::default`): the thin
/// clusters start on a multiple of it, so the number of spans they
/// keep alive — the rows the kernel still probes — is the same under
/// every seed.
const SPAN_ROWS: usize = 4096;
/// Row windows of `exact_skewed` rects, as a fraction of the table
/// (numerator over 64), cycled through the list so every seed issues
/// the same multiset of sizes: 8 Ki to 64 Ki rows.
const EXACT_WINDOWS_64THS: [usize; 4] = [4, 8, 16, 32];
/// The two bin ranges of an `exact_skewed` rect, cycled likewise.
/// Every bin of the table is exact-backed, so every range is. One
/// range is a single hot bin or a few of them, the other a run of up
/// to eight colder ones: the mask loop ORs up to nine containers per
/// chunk and the pairs select 9–10 % of a window's rows.
const EXACT_RANGES: [[(u32, u32); 2]; 3] = [[(0, 0), (4, 11)], [(1, 3), (2, 5)], [(4, 11), (0, 0)]];

/// All workloads, in `BENCHMARK.json` order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "probe_uniform",
        why: "8192-row x 2-attribute x 8-bin rects at random offsets over a uniform table (1 MiB AB, L2-resident): the hash-probe kernel dominates; hier and hybrid on auto must do nothing",
        kind: Kind::ProbeUniform,
        window: 4,
        rows: 128 << 10,
        attrs: 2,
        bins: 80,
        alpha: 32,
        requests: 40,
        nominal_rate: 320.0,
    },
    Spec {
        name: "prune_clustered",
        why: "full/half/tenth-table rects on <=1000 ppm tail bins of one clustered column: pyramid descent prunes ~97% of rows and decides what the kernel still probes",
        kind: Kind::PruneClustered,
        window: 8,
        rows: 256 << 10,
        attrs: 1,
        bins: 16,
        alpha: 32,
        requests: 252,
        nominal_rate: 2000.0,
    },
    Spec {
        name: "exact_skewed",
        why: "2-attribute rects over exact-backed hot bins of a Zipf table, 25-260 KB responses: zero hash probes; hybrid mask loop, shard merge and response framing do the work",
        kind: Kind::ExactSkewed,
        window: 4,
        rows: 256 << 10,
        attrs: 2,
        bins: 12,
        alpha: 8,
        requests: 96,
        nominal_rate: 2000.0,
    },
    Spec {
        name: "cells_uniform",
        why: "2048 random (row, attribute, bin) cells per request on an L2-resident 1 MiB AB: the paper's direct access; request-frame decode and cell fan-out instead of response encode",
        kind: Kind::CellsUniform,
        window: 8,
        rows: 512 << 10,
        attrs: 2,
        bins: 80,
        alpha: 8,
        requests: 256,
        nominal_rate: 2400.0,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The AB build configuration: the serving defaults (per-attribute
    /// ABs, independent hash roster) at this workload's α.
    pub fn ab_config(&self) -> AbConfig {
        AbConfig::new(Level::PerAttribute).with_alpha(self.alpha)
    }

    /// Generates the table from `seed`.
    pub fn table(&self, seed: u64) -> BinnedTable {
        match self.kind {
            Kind::ProbeUniform | Kind::CellsUniform => uniform_table(self, seed),
            Kind::PruneClustered => clustered_table(self, seed),
            Kind::ExactSkewed => zipf_table(self, seed),
        }
    }

    /// Generates the fixed request list from `seed`; `table` is the
    /// table of the same seed (cell batches ask for cells that are
    /// set as well as cells that are not).
    pub fn requests(&self, seed: u64, table: &BinnedTable) -> Vec<Request> {
        // A different stream than the table's, so table and requests
        // are independent draws of one seed.
        let mut r = datagen::rng(seed ^ 0x5EED_0F4E_C7A1);
        let thin_block = || {
            let thin = |b: &u32| (12..16).contains(b);
            let bins = &table.column(0).bins;
            let first = bins.iter().position(thin).expect("bins 12-15 exist");
            (
                first,
                bins.iter().rposition(thin).expect("bins 12-15 exist"),
            )
        };
        let block = if self.kind == Kind::PruneClustered {
            thin_block()
        } else {
            (0, 0)
        };
        (0..self.requests)
            .map(|i| match self.kind {
                Kind::ProbeUniform => probe_rect(self, &mut r),
                Kind::PruneClustered => prune_rect(self, i, block, &mut r),
                Kind::ExactSkewed => exact_rect(self, i, &mut r),
                Kind::CellsUniform => cell_batch(self, table, &mut r),
            })
            .collect()
    }
}

fn uniform_table(spec: &Spec, seed: u64) -> BinnedTable {
    let mut r = datagen::rng(seed);
    BinnedTable::new(
        (0..spec.attrs)
            .map(|a| {
                let bins = (0..spec.rows).map(|_| r.gen_range(0..spec.bins)).collect();
                BinnedColumn::new(format!("u{a}"), bins, spec.bins)
            })
            .collect(),
    )
}

fn zipf_table(spec: &Spec, seed: u64) -> BinnedTable {
    let mut r = datagen::rng(seed);
    let zipf = datagen::Zipf::new(spec.bins as usize, ZIPF_THETA);
    BinnedTable::new(
        (0..spec.attrs)
            .map(|a| {
                let bins = (0..spec.rows).map(|_| zipf.sample(&mut r) as u32).collect();
                BinnedColumn::new(format!("z{a}"), bins, spec.bins)
            })
            .collect(),
    )
}

/// One clustered attribute: every bin is one contiguous run. Tail
/// bins hold exact ppm fractions and lie together in two blocks
/// (bins 8–11 and bins 12–15, the pyramid's 4-bin groups); head bins
/// 0–7 split the rest. The seed shuffles the head runs, the order
/// inside each block, and which two gaps between head runs the blocks
/// occupy — so where the thin clusters lie differs per seed while
/// every tail size, and (blocks being span-aligned) the work a
/// request causes, stays fixed. Aligning a block moves at most one
/// span of rows between two head runs.
fn clustered_table(spec: &Spec, seed: u64) -> BinnedTable {
    let mut r = datagen::rng(seed);
    let mut shuffled = |mut v: Vec<u32>| {
        for i in (1..v.len()).rev() {
            v.swap(i, r.gen_range(0..=i));
        }
        v
    };
    let heads = shuffled((0..8).collect());
    let blocks = shuffled(vec![0, 1])
        .into_iter()
        .zip(shuffled((1..8).collect()));
    // block_after[g] = which block follows the g-th head run, if any.
    let mut block_after: Vec<Option<Vec<u32>>> = vec![None; 8];
    for (block, gap) in blocks {
        block_after[gap as usize - 1] = Some(shuffled((8 + 4 * block..12 + 4 * block).collect()));
    }
    let tail_rows = |bin: u32| {
        let ppm = TAIL_PPM
            .iter()
            .find(|&&(b, _)| b == bin)
            .expect("tail bin")
            .1;
        (spec.rows * ppm / 1_000_000).max(1)
    };
    let head_rows = (spec.rows - TAIL_PPM.iter().map(|&(b, _)| tail_rows(b)).sum::<usize>()) / 8;

    assert!(
        head_rows > 2 * SPAN_ROWS,
        "head runs must be long enough to absorb the alignment of both blocks"
    );
    let mut bins: Vec<u32> = Vec::with_capacity(spec.rows);
    for (g, &head) in heads.iter().enumerate() {
        let mut run = head_rows;
        if block_after[g].is_some() {
            run += (SPAN_ROWS - (bins.len() + run) % SPAN_ROWS) % SPAN_ROWS;
        }
        if g == 7 {
            run = spec.rows - bins.len(); // the last head run takes up the slack
        }
        bins.extend(std::iter::repeat_n(head, run));
        for &b in block_after[g].iter().flatten() {
            bins.extend(std::iter::repeat_n(b, tail_rows(b)));
        }
    }
    BinnedTable::new(vec![BinnedColumn::new("c0", bins, spec.bins)])
}

fn rect(query: RectQuery) -> Request {
    Request::Rect {
        deadline_ms: 0,
        query,
    }
}

fn probe_rect(spec: &Spec, r: &mut impl Rng) -> Request {
    let lo = r.gen_range(0..=spec.rows - PROBE_RECT_ROWS);
    let ranges = (0..spec.attrs)
        .map(|a| {
            let b = r.gen_range(0..=spec.bins - PROBE_RANGE_BINS);
            AttrRange::new(a, b, b + PROBE_RANGE_BINS - 1)
        })
        .collect();
    rect(RectQuery::new(ranges, lo, lo + PROBE_RECT_ROWS - 1))
}

/// Request `i` cycles full → half → tenth extents and the query
/// ranges, so the list always holds the same mix. Half and tenth
/// windows are placed by the seed among the positions that contain
/// the whole block of bins 12–15 (`block`, first and last row): the
/// surviving spans are the same wherever the window lies, and what
/// differs per seed is which head rows it also covers.
fn prune_rect(spec: &Spec, i: usize, block: (usize, usize), r: &mut impl Rng) -> Request {
    let (bin_lo, bin_hi) = PRUNE_QUERY_RANGES[(i / 3) % PRUNE_QUERY_RANGES.len()];
    let len = match i % 3 {
        0 => spec.rows,
        1 => spec.rows / 2,
        _ => spec.rows / 10,
    };
    let lo_min = (block.1 + 1).saturating_sub(len);
    let lo_max = block.0.min(spec.rows - len);
    let lo = r.gen_range(lo_min..=lo_max);
    rect(RectQuery::new(
        vec![AttrRange::new(0, bin_lo, bin_hi)],
        lo,
        lo + len - 1,
    ))
}

/// Request `i` cycles the window sizes and the range pairs; the seed
/// places the window.
fn exact_rect(spec: &Spec, i: usize, r: &mut impl Rng) -> Request {
    let len = spec.rows * EXACT_WINDOWS_64THS[i % EXACT_WINDOWS_64THS.len()] / 64;
    let lo = r.gen_range(0..=spec.rows - len);
    let [(lo0, hi0), (lo1, hi1)] = EXACT_RANGES[i % EXACT_RANGES.len()];
    rect(RectQuery::new(
        vec![AttrRange::new(0, lo0, hi0), AttrRange::new(1, lo1, hi1)],
        lo,
        lo + len - 1,
    ))
}

/// Random (row, attribute) pairs; every other cell names the bin the
/// row really has (a set cell: all k bits are read), the rest a
/// random bin (almost always unset: the probe stops at the first zero
/// bit).
fn cell_batch(spec: &Spec, table: &BinnedTable, r: &mut impl Rng) -> Request {
    let cells = (0..CELLS_PER_REQUEST)
        .map(|i| {
            let row = r.gen_range(0..spec.rows);
            let attribute = r.gen_range(0..spec.attrs);
            let bin = if i % 2 == 0 {
                table.column(attribute).bins[row]
            } else {
                r.gen_range(0..spec.bins)
            };
            Cell::new(row, attribute, bin)
        })
        .collect();
    Request::Cells {
        deadline_ms: 0,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shrunken copy of a spec, so generator tests run in
    /// milliseconds; the generators read every size from the spec.
    fn small(s: &Spec) -> Spec {
        Spec {
            rows: 200_000,
            requests: 12,
            ..*s
        }
    }

    fn frames(spec: &Spec, seed: u64) -> Vec<Vec<u8>> {
        spec.requests(seed, &spec.table(seed))
            .iter()
            .enumerate()
            .map(|(i, req)| net::frame::encode_request(i as u64 + 1, req))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_differs() {
        for s in &SPECS {
            let s = small(s);
            assert_eq!(s.table(7), s.table(7), "{}: table", s.name);
            assert_eq!(frames(&s, 7), frames(&s, 7), "{}: frames", s.name);
            assert_ne!(s.table(7), s.table(8), "{}: table", s.name);
            assert_ne!(frames(&s, 7), frames(&s, 8), "{}: frames", s.name);
        }
    }

    #[test]
    fn requests_stay_inside_the_table() {
        for s in &SPECS {
            let s = small(s);
            for req in s.requests(3, &s.table(3)) {
                match req {
                    Request::Rect { query, .. } => {
                        assert!(query.row_lo <= query.row_hi && query.row_hi < s.rows);
                        for r in &query.ranges {
                            assert!(r.attribute < s.attrs && r.lo <= r.hi && r.hi < s.bins);
                        }
                    }
                    Request::Cells { cells, .. } => {
                        assert_eq!(cells.len(), CELLS_PER_REQUEST);
                        for c in &cells {
                            assert!(c.row < s.rows && c.attribute < s.attrs && c.bin < s.bins);
                        }
                    }
                    other => panic!("unexpected request {other:?}"),
                }
            }
        }
    }

    #[test]
    fn clustered_tail_keeps_its_sizes_and_alignment_under_any_seed() {
        let s = small(spec("prune_clustered").unwrap());
        let (a, b) = (s.table(1), s.table(2));
        let (ca, cb) = (a.column(0).bin_counts(), b.column(0).bin_counts());
        assert_eq!(ca[8..], cb[8..], "tail bins hold fixed ppm fractions");
        assert_eq!(ca.iter().sum::<usize>(), s.rows);
        for t in [&a, &b] {
            let bins = &t.column(0).bins;
            for group in [8..12u32, 12..16u32] {
                let first = bins.iter().position(|b| group.contains(b)).unwrap();
                let last = bins.iter().rposition(|b| group.contains(b)).unwrap();
                assert_eq!(first % SPAN_ROWS, 0, "block starts on a span");
                assert!(bins[first..=last].iter().all(|b| group.contains(b)));
            }
        }
    }

    #[test]
    fn prune_windows_always_hold_the_thin_block() {
        let s = small(spec("prune_clustered").unwrap());
        for seed in 1..6 {
            let t = s.table(seed);
            let bins = &t.column(0).bins;
            let first = bins.iter().position(|b| (12..16).contains(b)).unwrap();
            let last = bins.iter().rposition(|b| (12..16).contains(b)).unwrap();
            for req in s.requests(seed, &t) {
                let Request::Rect { query, .. } = req else {
                    panic!("not a rect")
                };
                assert!(query.row_lo <= first && last <= query.row_hi, "seed {seed}");
            }
        }
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in SPECS.iter().enumerate() {
            assert!(SPECS[i + 1..].iter().all(|b| b.name != a.name));
        }
    }
}
