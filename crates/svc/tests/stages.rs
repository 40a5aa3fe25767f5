//! Stage geometry is invisible in the answer: a shard job that runs a
//! fully exact-backed part one Roaring container at a time answers —
//! and counts — exactly what the 512-row geometry does, and a request
//! still stops at the next stage boundary when its deadline passes or
//! it is cancelled.
//!
//! The tables are large enough for a shard part to cross a container
//! boundary (local row 65 536) and sharded so that no shard boundary is
//! a multiple of 65 536.

use ab::{
    AbConfig, AbIndex, HierConfig, HierLevelSpec, HierMode, HybridConfig, HybridMode, KernelOpts,
    Level, QueryStats,
};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
use std::sync::Mutex;
use svc::{Service, ShardedIndex, SvcConfig, CHUNK_ROWS};

/// The tests read process-wide counters and hold worker threads, so
/// they take turns.
static TURN: Mutex<()> = Mutex::new(());

/// Two shards of 70 000 rows: the shard boundary is global row 70 000,
/// the container boundaries are global rows 65 536 and 135 536.
const ROWS: usize = 140_000;
const SHARDS: usize = 2;

/// Row windows: starting mid-container, straddling shard 0's container
/// boundary, straddling the shard boundary, straddling shard 1's
/// container boundary, and one that straddles all three.
const WINDOWS: [(usize, usize); 5] = [
    (1_000, 9_000),
    (60_000, 68_000),
    (66_000, 75_000),
    (130_000, ROWS - 1),
    (60_000, 136_000),
];

fn mix(row: usize, salt: u64) -> u64 {
    hashkit::splitmix64(row as u64 ^ salt)
}

/// `a`: three dense bins and a 0.5 % tail bin the default split
/// decision leaves on the AB; `b`: three dense bins. α = 4 makes the
/// AB report false positives for the exact tier to eliminate.
fn skewed_table() -> BinnedTable {
    let a = (0..ROWS).map(|r| match mix(r, 0xA) % 200 {
        0 => 3,
        h => (h % 3) as u32,
    });
    let b = (0..ROWS).map(|r| (mix(r, 0xB) % 3) as u32);
    BinnedTable::new(vec![
        BinnedColumn::new("a", a.collect(), 4),
        BinnedColumn::new("b", b.collect(), 3),
    ])
}

/// One column in 4 096-row runs of a single bin, so a pyramid of
/// 1 024-row spans prunes most of any one-bin query.
fn clustered_table() -> BinnedTable {
    BinnedTable::new(vec![BinnedColumn::new(
        "v",
        (0..ROWS).map(|r| (r / 4096 % 8) as u32).collect(),
        8,
    )])
}

fn hier_config() -> HierConfig {
    HierConfig {
        levels: vec![HierLevelSpec {
            row_span: 1024,
            bin_group: 2,
        }],
    }
}

fn service(index: ShardedIndex, hier: HierMode, hybrid: HybridMode) -> Service {
    let cfg = SvcConfig {
        threads: 2,
        trace_requests: false,
        hier,
        hier_config: hier_config(),
        hybrid,
        ..SvcConfig::default()
    };
    Service::from_index(index, &cfg)
}

/// `tiered` with the exact tier of every shard but the first taken
/// away — what loading a segment whose tier failed its checksum leaves.
fn detach_tiers_after_first(tiered: &ShardedIndex, bare: &ShardedIndex) -> ShardedIndex {
    let mut segments = ab::shards_from_bytes(&tiered.to_bytes()).unwrap();
    let bare = ab::shards_from_bytes(&bare.to_bytes()).unwrap();
    for (seg, bare) in segments.iter_mut().zip(bare).skip(1) {
        *seg = bare;
    }
    let refs: Vec<(u64, &AbIndex)> = segments.iter().map(|(start, idx)| (*start, idx)).collect();
    let mixed = ShardedIndex::from_bytes(&ab::shards_to_bytes(&refs)).unwrap();
    assert!(mixed.shards()[0].index().hybrid().is_some());
    assert!(mixed.shards()[1].index().hybrid().is_none());
    mixed
}

/// Rows and summed statistics of `query` answered one shard part at a
/// time on the calling thread, each part cut by `cut` into the row
/// intervals one core call runs (with the options to run them under
/// and the rows the cut itself pruned away).
fn by_parts(
    svc: &Service,
    query: &RectQuery,
    cut: impl Fn(&AbIndex, &RectQuery) -> (Vec<(usize, usize)>, KernelOpts, u64),
) -> (Vec<usize>, QueryStats) {
    let (mut rows, mut sum) = (Vec::new(), QueryStats::default());
    for (sid, local) in svc.index().split_rect(query) {
        let shard = &svc.index().shards()[sid];
        let (pieces, opts, skipped) = cut(shard.index(), &local);
        sum.rows_skipped += skipped;
        for (lo, hi) in pieces {
            let piece = RectQuery::new(local.ranges.clone(), lo, hi);
            let (found, stats) = shard
                .index()
                .try_execute_rect_with_stats_opts(&piece, opts)
                .unwrap();
            rows.extend(found.into_iter().map(|r| r + shard.start()));
            sum.cells_probed += stats.cells_probed;
            sum.bits_read += stats.bits_read;
            sum.rows_matched += stats.rows_matched;
            sum.rows_skipped += stats.rows_skipped;
        }
    }
    (rows, sum)
}

/// The per-request reading of the row counters a request moves.
fn row_counters() -> [u64; 2] {
    ["ab.query.rows_matched", "hier.rows_skipped"].map(|name| obs::global().counter(name).get())
}

/// One served request against its three references — one whole-part
/// core call per shard, the 512-row geometry, and the sequential
/// flat-AB answer, of which it may drop only rows `table` rejects;
/// returns the request's summed statistics and the flat rows dropped.
fn assert_matches_every_geometry(
    svc: &Service,
    table: &BinnedTable,
    query: &RectQuery,
    what: &str,
) -> (QueryStats, usize) {
    let opts = svc.kernel_opts();
    let before = row_counters();
    let served = svc.try_query_rect(query).unwrap();
    let after = row_counters();
    assert!(!served.is_degraded(), "{what}");
    let served = served.value;

    let (whole, whole_stats) = by_parts(svc, query, |_, local| {
        (vec![(local.row_lo, local.row_hi)], opts, 0)
    });
    assert_eq!(served, whole, "{what}: one whole-part core call");

    // The parent's geometry: prune the whole part once, then 512-row
    // chunks of what survives, each with hier off.
    let (chunked, chunked_stats) = by_parts(svc, query, |index, local| {
        let pruned = index.hier_prune(local, opts.hier);
        let skipped = pruned.as_ref().map_or(0, |p| p.rows_skipped);
        let intervals = pruned.map_or(vec![(local.row_lo, local.row_hi)], |p| p.intervals);
        let chunks = intervals.into_iter().flat_map(|(lo, hi)| {
            (lo..=hi)
                .step_by(CHUNK_ROWS)
                .map(move |at| (at, hi.min(at + CHUNK_ROWS - 1)))
        });
        (chunks.collect(), opts.with_hier(HierMode::Off), skipped)
    });
    assert_eq!(served, chunked, "{what}: the 512-row geometry");
    assert_eq!(chunked_stats, whole_stats, "{what}: summed stats");
    let delta = [0, 1].map(|i| after[i] - before[i]);
    let want = [
        chunked_stats.rows_matched as u64,
        chunked_stats.rows_skipped,
    ];
    assert_eq!(delta, want, "{what}: per-request counter deltas");

    // Against the flat AB: the exact tier only ever removes false
    // positives.
    let flat = svc.index().execute_rect_sequential(query).unwrap();
    let mut kept = served.iter().peekable();
    let mut dropped = 0;
    for row in flat {
        if kept.next_if_eq(&&row).is_none() {
            let matches = query.ranges.iter().all(|r| {
                let bin = table.column(r.attribute).bins[row];
                r.lo <= bin && bin <= r.hi
            });
            assert!(!matches, "{what}: true row {row} dropped");
            dropped += 1;
        }
    }
    assert!(
        kept.next().is_none(),
        "{what}: served rows must be a sorted subset of the flat rows"
    );
    (whole_stats, dropped)
}

#[test]
fn every_stage_geometry_answers_and_counts_alike() {
    let _turn = TURN.lock().unwrap();
    let ab = AbConfig::new(Level::PerAttribute).with_alpha(4);
    let table = skewed_table();
    let bare = ShardedIndex::build(&table, &ab, SHARDS, false);
    assert_eq!(bare.shards()[1].start(), 70_000);
    let mut tiered = bare.clone();
    tiered.ensure_hybrid(&table, &HybridConfig::default());
    let tier = tiered.shards()[0].index().hybrid().unwrap();
    assert!(tier.backing(0, 3).is_none(), "the tail bin stays on the AB");
    assert_eq!(tier.bins().len(), 6, "every other bin is exact-backed");
    let half_tiered = detach_tiers_after_first(&tiered, &bare);

    let both = |a: (u32, u32)| vec![AttrRange::new(0, a.0, a.1), AttrRange::new(1, 0, 1)];
    // (ranges, which tier answers them where a tier is attached)
    let asked = [
        (both((0, 2)), "every bin backed"),
        (both((2, 3)), "one bin of one range unbacked"),
        (vec![AttrRange::new(0, 3, 3)], "nothing backed"),
    ];
    // Only the service that lets every shard's tier answer tells the
    // backings apart; the other two ask for the fully backed ranges.
    let services = [
        (
            service(tiered.clone(), HierMode::Off, HybridMode::Auto),
            "auto",
            &asked[..],
        ),
        (
            service(tiered, HierMode::Off, HybridMode::Off),
            "off",
            &asked[..1],
        ),
        (
            service(half_tiered, HierMode::Off, HybridMode::Auto),
            "shard 1 detached",
            &asked[..1],
        ),
    ];
    let mut eliminated = 0;
    for (svc, mode, asked) in &services {
        for (ranges, backing) in *asked {
            for (lo, hi) in WINDOWS {
                let what = format!("{mode} / {backing} / rows {lo}..={hi}");
                let query = RectQuery::new(ranges.clone(), lo, hi);
                let (_, dropped) = assert_matches_every_geometry(svc, &table, &query, &what);
                let tier_answers = *mode != "off" && *backing != "nothing backed";
                // Shard 1 lost its tier: windows inside it are flat.
                let reaches_a_tier = *mode != "shard 1 detached" || lo < 70_000;
                if !(tier_answers && reaches_a_tier) {
                    assert_eq!(dropped, 0, "{what}");
                }
                eliminated += dropped;
            }
        }
    }
    assert!(eliminated > 0, "α = 4 must leave false positives to remove");

    // Hier-pruned: what survives the pyramid is cut per container when
    // the tier answers it and per 512 rows when the AB does.
    let ab = AbConfig::new(Level::PerAttribute).with_alpha(32);
    let table = clustered_table();
    let mut clustered = ShardedIndex::build(&table, &ab, SHARDS, false);
    clustered.ensure_hybrid(&table, &HybridConfig::default());
    clustered.ensure_hier(&hier_config());
    let mut skipped = 0;
    for hybrid in [HybridMode::Auto, HybridMode::Off] {
        let svc = service(clustered.clone(), HierMode::Force, hybrid);
        for (lo, hi) in WINDOWS {
            let what = format!("hier force / hybrid {hybrid} / rows {lo}..={hi}");
            let query = RectQuery::new(vec![AttrRange::new(0, 5, 5)], lo, hi);
            skipped += assert_matches_every_geometry(&svc, &table, &query, &what)
                .0
                .rows_skipped;
        }
    }
    assert!(
        skipped > 0,
        "one-bin queries over 4 096-row runs must prune"
    );
}

/// Deadline and cancellation take effect between two stages of *work*:
/// on a fully backed part spanning four containers, a request held
/// before its second stage until its deadline passes — or until it is
/// cancelled — runs exactly one stage, answers with the typed error,
/// and leaves a service that answers the next request in full.
#[test]
fn a_request_refused_after_its_first_stage_never_runs_the_second() {
    use std::sync::Arc;
    use std::time::Duration;
    use svc::chaos::{points, Fault, FaultPlan, FaultRule};
    use svc::{Deadline, RequestCtx, SvcError};

    let _turn = TURN.lock().unwrap();
    let rows = 200_000;
    let table = BinnedTable::new(vec![BinnedColumn::new(
        "v",
        (0..rows).map(|r| (mix(r, 0xC) % 2) as u32).collect(),
        2,
    )]);
    let ab = AbConfig::new(Level::PerAttribute).with_alpha(4);
    // Containers 0 (its last 5 536 rows), 1, 2 and 3: four stages.
    let query = RectQuery::new(vec![AttrRange::new(0, 0, 0)], 60_000, rows - 1);
    let hold = Duration::from_millis(600);

    for cancelled in [false, true] {
        let what = if cancelled { "cancelled" } else { "deadline" };
        // The first stage passes its gate at once, the second is held
        // there for `hold`; later requests meet no fault.
        let gate = |wait| FaultRule::new(points::SHARD_STAGE, Fault::Latency(wait)).max_fires(1);
        let plan = Arc::new(
            FaultPlan::new(23)
                .with_rule(gate(Duration::ZERO))
                .with_rule(gate(hold)),
        );
        let cfg = SvcConfig {
            threads: 1,
            shards: 1,
            trace_requests: false,
            hybrid: HybridMode::Auto,
            ..SvcConfig::default()
        };
        let svc = Service::build(&table, &ab, &cfg).with_fault_plan(Arc::clone(&plan));
        let whole = svc.index().shards()[0].index();
        assert!(whole.hybrid().unwrap().covers_all(&query), "{what}");

        // Kernel spans under the request's trace count the stages run.
        let stages_run = |trace: &obs::TraceCtx| {
            let t = trace.finish().unwrap();
            let kernels = t.spans.iter().filter(|s| s.name == "ab.kernel.batched");
            kernels.count()
        };
        let trace = obs::TraceCtx::start("rect");
        let refused = if cancelled {
            let ctx = RequestCtx::traced(Deadline::none(), trace.clone());
            std::thread::scope(|s| {
                let request = s.spawn(|| svc.try_query_rect_ctx(&query, &ctx));
                // Both gates fired: the job sits before its second stage.
                let waiting = std::time::Instant::now();
                while plan.fires(points::SHARD_STAGE) < 2 {
                    assert!(waiting.elapsed() < 20 * hold, "no second stage gate");
                    std::thread::yield_now();
                }
                ctx.cancel();
                request.join().unwrap()
            })
        } else {
            // Stage one takes microseconds; the hold outlasts the rest.
            let ctx = RequestCtx::traced(Deadline::within(hold / 3), trace.clone());
            svc.try_query_rect_ctx(&query, &ctx)
        };
        let want = if cancelled {
            SvcError::Cancelled
        } else {
            SvcError::DeadlineExceeded
        };
        assert_eq!(refused, Err(want), "{what}");

        // One worker, first in first out: when the next request has
        // been answered the refused job is over — and it answers in
        // full, through all four stages, with nothing quarantined.
        let trace_next = obs::TraceCtx::start("rect");
        let ctx = RequestCtx::traced(Deadline::none(), trace_next.clone());
        let next = svc.try_query_rect_ctx(&query, &ctx).unwrap();
        assert!(!next.is_degraded(), "{what}");
        let opts = svc.kernel_opts();
        assert_eq!(
            next.value,
            whole.try_execute_rect_with_opts(&query, opts).unwrap(),
            "{what}"
        );
        assert_eq!(plan.fires(points::SHARD_STAGE), 2, "{what}");
        assert_eq!(stages_run(&trace), 1, "{what}: stopped before stage two");
        assert_eq!(stages_run(&trace_next), 4, "{what}: one stage a container");
    }
}
