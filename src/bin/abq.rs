//! `abq` — build, inspect and query Approximate Bitmap indexes from
//! the command line.
//!
//! ```text
//! abq build --csv data.csv --out index.ab [--bins 10] [--alpha 8]
//!           [--level per-attribute|per-dataset|per-column] [--k N]
//!           [--precision P]
//! abq info  --index index.ab
//! abq verify --index index.ab
//! abq query --index index.ab --where attr=LO..HI [--where ...]
//!           [--rows LO..HI] [--limit N]
//! abq serve --csv data.csv [--threads N] [--shards N] [--bins N]
//!           [--alpha N] [--level L] [--deadline-ms N] [--retries N]
//!           [--limit N] [--hier [off|auto|force]] [--hybrid [off|auto|force]]
//!           [--telemetry-addr HOST:PORT] [--slow-ms N]
//!           [--store index.abpg [--store-pread] [--scrub-ms N]]
//!           [--listen HOST:PORT [--max-conns N] [--drain-ms N]
//!            [--trace-dump FILE]]
//! abq store build --csv data.csv --out index.abpg [--shards N]
//!           [--page-size N] [--bins N] [--alpha N] [--level L] [--hier]
//!           [--hybrid]
//! abq store verify --store index.abpg
//! abq store scrub --store index.abpg [--pread]
//!           [--csv data.csv [--bins N] [--alpha N] [--level L]]
//! abq loadgen --addr HOST:PORT [--conns N] [--secs S]
//!           [--pipeline N | --rps R] [--mix rect,cells,batch]
//!           [--seed N] [--batch-size N] [--deadline-ms N] [--out FILE]
//! abq trace (--addr HOST:PORT | --file DUMP.json)
//! ```
//!
//! `build` reads a numeric CSV with a header row, discretizes every
//! column into equi-depth bins, and writes the serialized AB index.
//! `query` evaluates a rectangular query (bin intervals per attribute,
//! optional row range) against the index alone — no access to the
//! original data, the paper's privacy-preserving deployment — and
//! prints the matching row ids (approximate: 100% recall, small
//! controlled false-positive rate).
//! `serve` builds a sharded concurrent [`svc::Service`] over the CSV
//! and answers queries read line by line from stdin — or, with
//! `--listen`, over TCP through the [`net`] front end (ABQ/1 binary
//! framing, pipelined requests, graceful drain on SIGINT/SIGTERM).
//! With `--store FILE` it serves from a crash-safe `ABPG` segment
//! store instead of rebuilding (mmap by default, `--store-pread` for
//! the portable path), and a background scrubber re-verifies the file
//! every `--scrub-ms` (0 disables; add `--csv` to enable online
//! repair, otherwise damaged shards are quarantined into degraded
//! superset answers).
//! `store build|verify|scrub` manage those segment stores: `build`
//! writes one atomically (tmp + fsync + rename), `verify` is the
//! offline integrity audit, `scrub` runs one detect→quarantine→repair
//! pass from the command line.
//! `loadgen` drives a live `--listen` server over real sockets in
//! closed-loop (`--pipeline`) or open-loop (`--rps`) mode and prints
//! client-observed throughput and latency quantiles; `--out FILE`
//! also writes them as a registry snapshot.
//! `verify` checks an `ABIX`/`ABSH` file's per-segment checksums and
//! header sanity without decoding the bit arrays.
//! `trace` pretty-prints the span trees of a `/debug/traces` dump,
//! fetched from a live telemetry endpoint or read from a file.
//!
//! `serve` wraps each query in a bounded retry with
//! decorrelated-jitter backoff ([`mod@svc::retry`]), so transient
//! [`svc::SvcError::Overloaded`] rejections are absorbed instead of
//! surfacing to the caller.
//!
//! Each subcommand accepts exactly the flags listed for it in
//! [`COMMANDS`]; any other `--flag` is an error naming it.

use ab::{AbConfig, AbIndex, Level};
use bitmap::{AttrRange, BinnedTable, Column, EquiDepth, RectQuery, Table};
use std::process::ExitCode;
use svc::{Service, SvcConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            print_usage();
            ExitCode::from(2)
        }
    }
}

/// A subcommand's handler, given the arguments after its name.
type Handler = fn(&[String]) -> Result<(), String>;

/// Every subcommand, its handler and the only flags it accepts.
const COMMANDS: &[(&str, Handler, &[&str])] = &[
    (
        "build",
        cmd_build,
        &[
            "--csv",
            "--out",
            "--bins",
            "--alpha",
            "--level",
            "--k",
            "--precision",
        ],
    ),
    ("info", cmd_info, &["--index"]),
    ("verify", cmd_verify, &["--index"]),
    (
        "query",
        cmd_query,
        &["--index", "--where", "--rows", "--limit"],
    ),
    (
        "serve",
        cmd_serve,
        &[
            "--csv",
            "--threads",
            "--shards",
            "--bins",
            "--alpha",
            "--level",
            "--deadline-ms",
            "--retries",
            "--limit",
            "--hier",
            "--hybrid",
            "--telemetry-addr",
            "--slow-ms",
            "--store",
            "--store-pread",
            "--scrub-ms",
            "--listen",
            "--max-conns",
            "--drain-ms",
            "--trace-dump",
        ],
    ),
    (
        "store build",
        cmd_store_build,
        &[
            "--csv",
            "--out",
            "--shards",
            "--page-size",
            "--bins",
            "--alpha",
            "--level",
            "--hier",
            "--hybrid",
        ],
    ),
    ("store verify", cmd_store_verify, &["--store"]),
    (
        "store scrub",
        cmd_store_scrub,
        &[
            "--store", "--pread", "--csv", "--bins", "--alpha", "--level",
        ],
    ),
    (
        "loadgen",
        cmd_loadgen,
        &[
            "--addr",
            "--conns",
            "--secs",
            "--pipeline",
            "--rps",
            "--mix",
            "--seed",
            "--batch-size",
            "--deadline-ms",
            "--out",
        ],
    ),
    ("trace", cmd_trace, &["--addr", "--file"]),
];

/// Routes `argv[1..]` to its subcommand after checking every `--flag`
/// against the subcommand's accepted list.
fn dispatch(args: &[String]) -> Result<(), String> {
    let name = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            print_usage();
            return Ok(());
        }
        Some("store") => match args.get(1) {
            Some(sub) => format!("store {sub}"),
            None => return Err("store needs a subcommand: build | verify | scrub".into()),
        },
        Some(cmd) => cmd.to_string(),
    };
    let Some(&(_, handler, accepted)) = COMMANDS.iter().find(|c| c.0 == name) else {
        return Err(match name.strip_prefix("store ") {
            Some(sub) => format!("unknown store subcommand `{sub}` (build | verify | scrub)"),
            None => format!("unknown command `{name}`"),
        });
    };
    let rest = &args[name.split(' ').count()..];
    if let Some(flag) = rest
        .iter()
        .find(|a| a.starts_with("--") && !accepted.contains(&a.as_str()))
    {
        return Err(format!("`abq {name}` does not accept `{flag}`"));
    }
    handler(rest)
}

/// The usage text: one entry per subcommand in [`COMMANDS`].
fn usage() -> &'static str {
    "usage:
  abq build --csv FILE --out FILE [--bins N] [--alpha N] [--level L] [--k N] [--precision P]
  abq info --index FILE
  abq verify --index FILE
  abq query --index FILE [--where ATTR=LO..HI]... [--rows LO..HI] [--limit N]
  abq serve --csv FILE [--threads N] [--shards N] [--bins N] [--alpha N] [--level L]
      [--deadline-ms N] [--retries N] [--limit N]
      [--hier [off|auto|force]] [--hybrid [off|auto|force]]
      [--telemetry-addr HOST:PORT] [--slow-ms N]
      [--store FILE [--store-pread] [--scrub-ms N]]
      [--listen HOST:PORT [--max-conns N] [--drain-ms N] [--trace-dump FILE]]
  abq store build --csv FILE --out FILE [--shards N] [--page-size N]
      [--bins N] [--alpha N] [--level L] [--hier] [--hybrid]
  abq store verify --store FILE
  abq store scrub --store FILE [--pread] [--csv FILE [--bins N] [--alpha N] [--level L]]
  abq loadgen --addr HOST:PORT [--conns N] [--secs S] [--pipeline N | --rps R]
      [--mix rect,cells,batch] [--seed N] [--batch-size N] [--deadline-ms N] [--out FILE]
  abq trace (--addr HOST:PORT | --file DUMP.json)"
}

fn print_usage() {
    eprintln!("{}", usage());
}

/// Pulls the value of `--flag` out of an argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == flag)
        .map(|w| w[1].as_str())
}

/// All values of a repeatable `--flag`.
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.windows(2)
        .filter(|w| w[0] == flag)
        .map(|w| w[1].as_str())
        .collect()
}

fn parse_level(s: &str) -> Result<Level, String> {
    match s {
        "per-dataset" => Ok(Level::PerDataset),
        "per-attribute" => Ok(Level::PerAttribute),
        "per-column" => Ok(Level::PerColumn),
        other => Err(format!(
            "unknown level `{other}` (per-dataset | per-attribute | per-column)"
        )),
    }
}

/// Parses `LO..HI` (inclusive bounds) into a pair.
fn parse_range(s: &str) -> Result<(u64, u64), String> {
    let (lo, hi) = s
        .split_once("..")
        .ok_or_else(|| format!("`{s}` is not a LO..HI range"))?;
    let lo: u64 = lo.trim().parse().map_err(|_| format!("bad bound `{lo}`"))?;
    let hi: u64 = hi.trim().parse().map_err(|_| format!("bad bound `{hi}`"))?;
    if lo > hi {
        return Err(format!("empty range {lo}..{hi}"));
    }
    Ok((lo, hi))
}

/// Reads a numeric CSV with a header row into a [`Table`].
fn read_csv(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| format!("{path}: empty file"))?;
    let names: Vec<String> = header.split(',').map(|s| s.trim().to_owned()).collect();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for (lineno, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != names.len() {
            return Err(format!(
                "{path}: line {}: {} fields, expected {}",
                lineno + 2,
                cells.len(),
                names.len()
            ));
        }
        for (c, cell) in cells.iter().enumerate() {
            let v: f64 = cell
                .trim()
                .parse()
                .map_err(|_| format!("{path}: line {}: `{cell}` is not numeric", lineno + 2))?;
            columns[c].push(v);
        }
    }
    if columns.first().is_none_or(|c| c.is_empty()) {
        return Err(format!("{path}: no data rows"));
    }
    Ok(Table::new(
        names
            .into_iter()
            .zip(columns)
            .map(|(name, values)| Column::new(name, values))
            .collect(),
    ))
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let csv = flag_value(args, "--csv").ok_or("--csv is required")?;
    let out = flag_value(args, "--out").ok_or("--out is required")?;
    let bins: u32 = flag_value(args, "--bins")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--bins must be an integer")?;
    let level = parse_level(flag_value(args, "--level").unwrap_or("per-attribute"))?;

    let mut config = AbConfig::new(level);
    if let Some(p) = flag_value(args, "--precision") {
        let p: f64 = p.parse().map_err(|_| "--precision must be a number")?;
        config = config.with_min_precision(p);
    } else {
        let alpha: u64 = flag_value(args, "--alpha")
            .unwrap_or("8")
            .parse()
            .map_err(|_| "--alpha must be an integer")?;
        config = config.with_alpha(alpha);
    }
    if let Some(k) = flag_value(args, "--k") {
        config = config.with_k(k.parse().map_err(|_| "--k must be an integer")?);
    }

    let table = read_csv(csv)?;
    let binned = BinnedTable::from_table(&table, &EquiDepth::new(bins));
    let index = AbIndex::build(&binned, &config);
    let bytes = ab::to_bytes(&index);
    std::fs::write(out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "indexed {} rows x {} attributes into {} ABs ({} bytes) -> {out}",
        table.num_rows(),
        table.num_attributes(),
        index.abs().len(),
        bytes.len(),
    );
    Ok(())
}

fn load_index(args: &[String]) -> Result<AbIndex, String> {
    let path = flag_value(args, "--index").ok_or("--index is required")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    ab::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let index = load_index(args)?;
    println!(
        "level: {}\nrows: {}\nattributes: {}\nABs: {}\ntotal size: {} bytes",
        index.level(),
        index.num_rows(),
        index.num_attributes(),
        index.abs().len(),
        index.size_bytes(),
    );
    for a in index.attributes() {
        println!("  {} (bins: {})", a.name, a.cardinality);
    }
    if let Some(ab0) = index.abs().first() {
        println!(
            "k: {}, expected FP rate at current load: {:.5}",
            ab0.k(),
            index.expected_fp_rate()
        );
    }
    Ok(())
}

/// `abq verify` — per-segment checksum and header report for an
/// `ABIX` or `ABSH` file, without decoding the bit arrays (fast even
/// on indexes far larger than memory bandwidth would make a full
/// decode). Exits non-zero when any segment is damaged.
fn cmd_verify(args: &[String]) -> Result<(), String> {
    let path = flag_value(args, "--index").ok_or("--index is required")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let report = ab::verify(&bytes).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: {} v{}, {} bytes, {} segment(s)",
        report.container,
        report.version,
        bytes.len(),
        report.segments.len()
    );
    for seg in &report.segments {
        let crc = match seg.checksum {
            ab::ChecksumStatus::Ok => "crc ok".to_string(),
            ab::ChecksumStatus::Mismatch { stored, computed } => {
                format!("CRC MISMATCH stored {stored:#010x} computed {computed:#010x}")
            }
        };
        match &seg.header {
            Ok(h) => println!(
                "  shard {}: rows {}..{}, {} bytes, {}, level {}, {} attrs, {} ABs",
                seg.shard,
                seg.start_row,
                seg.start_row + h.num_rows,
                seg.byte_len,
                crc,
                h.level,
                h.attributes,
                h.abs
            ),
            Err(e) => println!(
                "  shard {}: start row {}, {} bytes, {}, header unreadable: {e}",
                seg.shard, seg.start_row, seg.byte_len, crc
            ),
        }
    }
    if report.healthy() {
        println!("healthy");
        Ok(())
    } else {
        let bad: Vec<String> = report
            .segments
            .iter()
            .filter(|s| !s.healthy())
            .map(|s| s.shard.to_string())
            .collect();
        Err(format!(
            "{path}: corrupted segment(s) {} — rebuild them from source data",
            bad.join(", ")
        ))
    }
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let index = load_index(args)?;
    let mut ranges = Vec::new();
    for w in flag_values(args, "--where") {
        let (attr_name, range) = w
            .split_once('=')
            .ok_or_else(|| format!("`{w}` is not ATTR=LO..HI"))?;
        let attr = index
            .attributes()
            .iter()
            .position(|a| a.name == attr_name.trim())
            .ok_or_else(|| format!("unknown attribute `{attr_name}`"))?;
        let (lo, hi) = parse_range(range)?;
        let card = index.attributes()[attr].cardinality as u64;
        if hi >= card {
            return Err(format!(
                "bin {hi} out of range for `{attr_name}` (cardinality {card})"
            ));
        }
        ranges.push(AttrRange::new(attr, lo as u32, hi as u32));
    }
    let (row_lo, row_hi) = match flag_value(args, "--rows") {
        Some(r) => {
            let (lo, hi) = parse_range(r)?;
            if hi as usize >= index.num_rows() {
                return Err(format!("row {hi} out of range ({})", index.num_rows()));
            }
            (lo as usize, hi as usize)
        }
        None => (0, index.num_rows() - 1),
    };
    let limit: usize = flag_value(args, "--limit")
        .unwrap_or("50")
        .parse()
        .map_err(|_| "--limit must be an integer")?;

    let query = RectQuery::new(ranges, row_lo, row_hi);
    let (rows, stats) = index
        .try_execute_rect_with_stats_opts(&query, ab::KernelOpts::default())
        .map_err(|e| e.to_string())?;
    println!(
        "{} candidate rows ({} cells probed; recall 100%, false positives possible):",
        rows.len(),
        stats.cells_probed
    );
    for r in rows.iter().take(limit) {
        println!("{r}");
    }
    if rows.len() > limit {
        println!("... ({} more; raise --limit)", rows.len() - limit);
    }
    Ok(())
}

/// Presence of a valueless `--flag`.
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The `--threads` flag (satellite of the service layer): explicit
/// `N`, or the machine's available parallelism.
fn parse_threads(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--threads") {
        Some(t) => {
            let n: usize = t.parse().map_err(|_| "--threads must be an integer")?;
            if n == 0 {
                return Err("--threads must be at least 1".into());
            }
            Ok(n)
        }
        None => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)),
    }
}

/// A tier flag with an optional mode operand (`--hier`, `--hybrid`):
/// absent means off, bare means auto, `off|auto|force` is explicit.
/// The operand is optional, so a next token that is itself a flag is
/// left alone (`--hier --listen ...` must not eat `--listen`); any
/// other token must name a mode.
fn parse_tier_mode(args: &[String], flag: &str) -> Result<ab::TierMode, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(ab::TierMode::Off);
    };
    match args.get(i + 1) {
        Some(mode) if !mode.starts_with("--") => mode.parse().map_err(|e| format!("{flag}: {e}")),
        _ => Ok(ab::TierMode::Auto),
    }
}

/// The `--hier` flag: hierarchical pruning policy. Auto lets the
/// planner decide per query when descending the pyramid beats a flat
/// scan. Results are bit-identical either way — only throughput
/// differs.
fn parse_hier(args: &[String]) -> Result<ab::HierMode, String> {
    parse_tier_mode(args, "--hier")
}

/// The `--hybrid` flag: hybrid exact-tier policy. Auto answers queries
/// touching exact-backed bins from Roaring containers — zero hash
/// probes, zero false positives — and falls back to the AB elsewhere.
/// Which bins get exact backing is the planner's calibrated split
/// decision.
fn parse_hybrid(args: &[String]) -> Result<ab::HybridMode, String> {
    parse_tier_mode(args, "--hybrid")
}

/// Retry policy for the `serve` query path: up to
/// `--retries` attempts (default 4; 1 disables retrying) with
/// decorrelated-jitter backoff against transient overload.
fn parse_retry_policy(args: &[String]) -> Result<svc::RetryPolicy, String> {
    let attempts: usize = flag_value(args, "--retries")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "--retries must be an integer")?;
    if attempts == 0 {
        return Err("--retries must be at least 1".into());
    }
    Ok(svc::RetryPolicy {
        max_attempts: attempts,
        ..svc::RetryPolicy::default()
    })
}

/// Shared `--csv`/`--bins`/`--alpha`/`--level` parsing: CSV → binned
/// table + AB build config (the inputs a store repair needs too).
fn binned_and_config(args: &[String]) -> Result<(BinnedTable, AbConfig), String> {
    let csv = flag_value(args, "--csv").ok_or("--csv is required")?;
    let bins: u32 = flag_value(args, "--bins")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--bins must be an integer")?;
    let alpha: u64 = flag_value(args, "--alpha")
        .unwrap_or("8")
        .parse()
        .map_err(|_| "--alpha must be an integer")?;
    let level = parse_level(flag_value(args, "--level").unwrap_or("per-attribute"))?;
    let table = read_csv(csv)?;
    Ok((
        BinnedTable::from_table(&table, &EquiDepth::new(bins)),
        AbConfig::new(level).with_alpha(alpha),
    ))
}

/// The service flags both `serve` set-ups share — `--threads`,
/// `--deadline-ms`, `--slow-ms`, `--hier`, `--hybrid` — as
/// one [`SvcConfig`] over `shards` shards.
fn serve_config(args: &[String], shards: usize) -> Result<SvcConfig, String> {
    let millis = |flag: &str| -> Result<Option<std::time::Duration>, String> {
        flag_value(args, flag)
            .map(|ms| {
                ms.parse()
                    .map(std::time::Duration::from_millis)
                    .map_err(|_| format!("{flag} must be an integer"))
            })
            .transpose()
    };
    Ok(SvcConfig {
        threads: parse_threads(args)?,
        shards,
        default_deadline: millis("--deadline-ms")?,
        slow_query: millis("--slow-ms")?,
        hier: parse_hier(args)?,
        hybrid: parse_hybrid(args)?,
        ..SvcConfig::default()
    })
}

/// `serve` setup: CSV → binned table → sharded service. Prints the
/// chosen shard/thread split.
fn build_service(args: &[String]) -> Result<Service, String> {
    let (binned, config) = binned_and_config(args)?;
    let shards: usize = match flag_value(args, "--shards") {
        Some(s) => s.parse().map_err(|_| "--shards must be an integer")?,
        None => 0,
    };
    let svc = Service::build(&binned, &config, &serve_config(args, shards)?);
    println!(
        "ready: {} rows x {} attributes, {} shards on {} threads ({} AB bytes)",
        svc.index().num_rows(),
        svc.index().attributes().len(),
        svc.index().num_shards(),
        svc.threads(),
        svc.index().size_bytes(),
    );
    Ok(svc)
}

/// `serve --store`: ABPG file → sharded index → service, plus the
/// background scrubber (interval `--scrub-ms`, default 5000; 0
/// disables). With `--csv` the scrubber repairs damage in place;
/// without it, damaged shards are quarantined into degraded answers.
fn build_service_from_store(
    args: &[String],
    path: &str,
) -> Result<(Service, Option<svc::Scrubber>), String> {
    let st = store::Store::open_with(std::path::Path::new(path), has_flag(args, "--store-pread"))
        .map_err(|e| format!("{path}: {e}"))?;
    let index = svc::ShardedIndex::from_bytes(st.payload()).map_err(|e| format!("{path}: {e}"))?;
    // Segments stored without a pyramid are fine: Service::from_index
    // rebuilds it per shard when hier is requested. Hybrid containers
    // however live in the segment itself (built with `store build
    // --hybrid`); the flag only controls whether the kernel consults
    // them.
    let cfg = serve_config(args, index.num_shards())?;
    let svc = Service::from_index(index, &cfg);
    println!(
        "ready: {} rows x {} attributes, {} shards on {} threads \
         ({} AB bytes, {} store {path})",
        svc.index().num_rows(),
        svc.index().attributes().len(),
        svc.index().num_shards(),
        svc.threads(),
        svc.index().size_bytes(),
        st.backend(),
    );
    let scrub_ms: u64 = flag_value(args, "--scrub-ms")
        .unwrap_or("5000")
        .parse()
        .map_err(|_| "--scrub-ms must be an integer")?;
    let scrubber = if scrub_ms == 0 {
        None
    } else {
        let repair = match flag_value(args, "--csv") {
            Some(_) => {
                let (table, config) = binned_and_config(args)?;
                Some(svc::RepairSource { table, config })
            }
            None => None,
        };
        let with_repair = repair.is_some();
        let s = svc::Scrubber::spawn(
            st,
            svc.health_arc(),
            repair,
            std::time::Duration::from_millis(scrub_ms),
            std::sync::Arc::new(store::RealIo),
        )
        .map_err(|e| format!("scrubber: {e}"))?;
        println!(
            "scrubbing every {scrub_ms} ms ({})",
            if with_repair {
                "online repair enabled"
            } else {
                "quarantine only; pass --csv to enable repair"
            }
        );
        Some(s)
    };
    Ok((svc, scrubber))
}

/// Parses one REPL line into a query: whitespace-separated
/// `ATTR=LO..HI` terms plus an optional `rows LO..HI` pair.
fn parse_repl_query(line: &str, svc: &Service) -> Result<RectQuery, String> {
    let mut ranges = Vec::new();
    let mut rows = None;
    let mut tokens = line.split_whitespace().peekable();
    while let Some(tok) = tokens.next() {
        if tok == "rows" {
            let spec = tokens.next().ok_or("`rows` needs a LO..HI range")?;
            let (lo, hi) = parse_range(spec)?;
            if hi as usize >= svc.index().num_rows() {
                return Err(format!(
                    "row {hi} out of range ({})",
                    svc.index().num_rows()
                ));
            }
            rows = Some((lo as usize, hi as usize));
        } else {
            let (attr_name, range) = tok
                .split_once('=')
                .ok_or_else(|| format!("`{tok}` is not ATTR=LO..HI"))?;
            let attr = svc
                .index()
                .attributes()
                .iter()
                .position(|a| a.name == attr_name.trim())
                .ok_or_else(|| format!("unknown attribute `{attr_name}`"))?;
            let (lo, hi) = parse_range(range)?;
            let card = svc.index().attributes()[attr].cardinality as u64;
            if hi >= card {
                return Err(format!(
                    "bin {hi} out of range for `{attr_name}` (cardinality {card})"
                ));
            }
            ranges.push(AttrRange::new(attr, lo as u32, hi as u32));
        }
    }
    let (row_lo, row_hi) = rows.unwrap_or((0, svc.index().num_rows() - 1));
    Ok(RectQuery::new(ranges, row_lo, row_hi))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    // `--store` serves from a crash-safe ABPG file instead of
    // rebuilding from CSV; the scrubber handle must stay alive for
    // the whole serve (dropping it stops the background verification).
    let (svc, scrubber) = match flag_value(args, "--store") {
        Some(path) => build_service_from_store(args, path)?,
        None => (build_service(args)?, None),
    };
    let store_status = scrubber.as_ref().map(|s| s.status());
    let policy = parse_retry_policy(args)?;
    let limit: usize = flag_value(args, "--limit")
        .unwrap_or("20")
        .parse()
        .map_err(|_| "--limit must be an integer")?;
    let deadline_ms: Option<u64> = match flag_value(args, "--deadline-ms") {
        Some(ms) => Some(ms.parse().map_err(|_| "--deadline-ms must be an integer")?),
        None => None,
    };
    // Caller-owned RequestCtx bypasses the service's default deadline,
    // so the REPL re-applies --deadline-ms per attempt itself.
    let mk_deadline = || match deadline_ms {
        Some(ms) => svc::Deadline::within(std::time::Duration::from_millis(ms)),
        None => svc::Deadline::none(),
    };
    // Keep the handle alive for the whole REPL; dropping it stops the
    // endpoint.
    let _telemetry = match flag_value(args, "--telemetry-addr") {
        Some(addr) => {
            // Surface the exact tier's per-shard split in /healthz
            // whenever any shard actually carries containers.
            let split = svc.index().hybrid_split_stats();
            let hybrid_status = split
                .iter()
                .any(|s| s.is_some())
                .then(|| std::sync::Arc::new(svc::HybridStatus::new(split)));
            let srv = svc::TelemetryServer::bind_with_status(
                addr,
                svc.health_arc(),
                store_status.clone(),
                hybrid_status,
            )
            .map_err(|e| format!("telemetry bind {addr}: {e}"))?;
            println!(
                "telemetry: http://{}/metrics /healthz /debug/traces",
                srv.local_addr()
            );
            Some(srv)
        }
        None => None,
    };
    // `--listen` swaps the stdin REPL for the TCP front end; the
    // telemetry handle (if any) stays alive for the server's lifetime.
    if let Some(listen) = flag_value(args, "--listen") {
        return serve_listen(args, svc, listen);
    }
    println!("query syntax: ATTR=LO..HI [ATTR=LO..HI ...] [rows LO..HI]; `quit` to exit");
    let stdin = std::io::stdin();
    let mut line = String::new();
    let mut served = 0u64;
    loop {
        line.clear();
        if std::io::BufRead::read_line(&mut stdin.lock(), &mut line).map_err(|e| e.to_string())?
            == 0
        {
            break; // EOF
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == "quit" || trimmed == "exit" {
            break;
        }
        served += 1;
        match parse_repl_query(trimmed, &svc).map(|q| {
            // One caller-owned trace per REPL query: every retry
            // attempt lands in the same span tree (a failed attempt
            // cancels its RequestCtx, so each attempt gets a fresh
            // ctx carrying the same trace).
            let trace = obs::TraceCtx::start("rect");
            let out = svc::retry_traced(&policy, served, &trace, |_| {
                let ctx = svc::RequestCtx::traced(mk_deadline(), trace.clone());
                svc.try_query_rect_ctx(&q, &ctx).map(|r| r.value)
            });
            svc.finish_trace(&trace);
            out
        }) {
            Ok(Ok(matches)) => {
                println!("{} rows", matches.len());
                for r in matches.iter().take(limit) {
                    println!("{r}");
                }
                if matches.len() > limit {
                    println!("... ({} more; raise --limit)", matches.len() - limit);
                }
            }
            Ok(Err(e)) => println!("error: {e}"),
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}

/// `abq serve --listen` — the TCP front end: binds the [`net`] event
/// loop over the freshly built service and parks until SIGINT/SIGTERM,
/// then drains gracefully (stop accepting, answer everything already
/// admitted, bounded by `--drain-ms`) and exits 0.
fn serve_listen(args: &[String], svc: Service, listen: &str) -> Result<(), String> {
    let drain_ms: u64 = flag_value(args, "--drain-ms")
        .unwrap_or("2000")
        .parse()
        .map_err(|_| "--drain-ms must be an integer")?;
    let mut cfg = net::NetConfig::default();
    if let Some(n) = flag_value(args, "--max-conns") {
        cfg.max_connections = n.parse().map_err(|_| "--max-conns must be an integer")?;
    }
    if let Some(ms) = flag_value(args, "--deadline-ms") {
        cfg.default_deadline_ms = ms.parse().map_err(|_| "--deadline-ms must be an integer")?;
    }
    let server = net::NetServer::bind(listen, std::sync::Arc::new(svc), cfg)
        .map_err(|e| format!("listen {listen}: {e}"))?;
    println!(
        "listening on {} ({} backend); SIGINT/SIGTERM drains and exits",
        server.local_addr(),
        server.backend()
    );
    net::sys::signal::install_shutdown_handler();
    while !net::sys::signal::shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("shutdown requested; draining (up to {drain_ms} ms)");
    server.shutdown(std::time::Duration::from_millis(drain_ms));
    // The flight recorder still holds the last traces after the
    // listener is gone; --trace-dump persists them for `abq trace`.
    if let Some(path) = flag_value(args, "--trace-dump") {
        std::fs::write(path, obs::recorder().to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote trace dump to {path}");
    }
    println!("drained; exiting");
    Ok(())
}

/// `abq store build` — CSV → sharded index → atomically written
/// `ABPG` store (tmp + fsync + rename, page CRCs throughout).
fn cmd_store_build(args: &[String]) -> Result<(), String> {
    let out = flag_value(args, "--out").ok_or("--out is required")?;
    let (binned, config) = binned_and_config(args)?;
    let shards: usize = match flag_value(args, "--shards") {
        Some(s) => {
            let n = s.parse().map_err(|_| "--shards must be an integer")?;
            if n == 0 {
                return Err("--shards must be at least 1".into());
            }
            n
        }
        None => SvcConfig::default().resolved_shards(binned.num_rows()),
    };
    let page_size: u32 = match flag_value(args, "--page-size") {
        Some(p) => p.parse().map_err(|_| "--page-size must be an integer")?,
        None => store::DEFAULT_PAGE_SIZE,
    };
    let mut index = svc::ShardedIndex::build(&binned, &config, shards, false);
    let hier = parse_hier(args)? != ab::HierMode::Off;
    if hier {
        // Persist the pruning pyramid alongside each shard (ABIX v3
        // pages in the segment); serving later needs no rebuild.
        index.ensure_hier(&ab::HierConfig::default());
    }
    let hybrid = parse_hybrid(args)? != ab::HybridMode::Off;
    if hybrid {
        // Persist the planner-split exact tier alongside each shard
        // (ABIX v4 pages): Roaring containers for the hot bins, built
        // here once so serving can answer them with zero hash probes
        // and zero false positives without the source table.
        index.ensure_hybrid(&binned, &ab::HybridConfig::default());
    }
    let payload = index.to_bytes();
    store::write(
        std::path::Path::new(out),
        &payload,
        page_size,
        &store::RealIo,
    )
    .map_err(|e| format!("{out}: {e}"))?;
    let hybrid_note = if hybrid {
        let (bins, bytes) = index
            .hybrid_split_stats()
            .iter()
            .flatten()
            .fold((0usize, 0usize), |(b, sz), (backed, _, s)| {
                (b + backed, sz + s)
            });
        format!(", hybrid containers: {bins} exact-backed bins, {bytes} bytes")
    } else {
        String::new()
    };
    println!(
        "stored {} rows x {} attributes as {} shard(s), {} payload bytes \
         ({}-byte pages{}{hybrid_note}) -> {out}",
        index.num_rows(),
        index.attributes().len(),
        index.num_shards(),
        payload.len(),
        page_size,
        if hier { ", hier pyramids" } else { "" },
    );
    Ok(())
}

/// `abq store verify` — offline integrity audit: header, meta-page
/// padding, CRC table, and every payload page, without deserializing
/// the index. Exits non-zero on any damage.
fn cmd_store_verify(args: &[String]) -> Result<(), String> {
    let path = flag_value(args, "--store").ok_or("--store is required")?;
    let (header, report) =
        store::Store::audit(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: ABPG v{}, {} payload bytes in {} page(s) of {} bytes, {} shard(s)",
        header.version,
        header.payload_len,
        header.payload_pages(),
        header.page_size,
        header.shard_count,
    );
    println!("scanned {} page(s)", report.pages_scanned);
    if report.clean() {
        println!("healthy");
        Ok(())
    } else {
        Err(format!(
            "{path}: {} damaged page(s) {:?} implicating shard(s) {:?} — \
             run `abq store scrub --csv ...` to repair, or rebuild",
            report.bad_pages.len(),
            report.bad_pages,
            report.bad_shards,
        ))
    }
}

/// `abq store scrub` — one online scrub pass from the CLI: open the
/// store (mmap, or `--pread`), verify every page, and — when the
/// original CSV and build flags are supplied — rewrite the file
/// bit-identically through the same atomic protocol `build` uses.
fn cmd_store_scrub(args: &[String]) -> Result<(), String> {
    let path = flag_value(args, "--store").ok_or("--store is required")?;
    let p = std::path::Path::new(path);
    let force_pread = has_flag(args, "--pread");
    let repair = match flag_value(args, "--csv") {
        Some(_) => {
            let (table, config) = binned_and_config(args)?;
            Some(svc::RepairSource { table, config })
        }
        None => None,
    };
    let mut st = match store::Store::open_with(p, force_pread) {
        Ok(st) => st,
        Err(store::StoreError::Io(e)) => return Err(format!("{path}: {e}")),
        // Typed corruption is already visible at open (a live service
        // only hits the scrub_pass path for rot that lands *after* a
        // clean open). From the CLI the equivalent repair is a full
        // rebuild from the source data, under the file's own geometry
        // when the header still reads.
        Err(e) => {
            let Some(repair) = repair else {
                return Err(format!(
                    "{path}: {e} — pass --csv (and matching build flags) to rebuild in place"
                ));
            };
            return rebuild_store(p, path, &repair, force_pread);
        }
    };
    let health = svc::ShardHealth::new(st.num_shards());
    let status = svc::StoreStatus::new(st.backend());
    let outcome = svc::scrub_pass(&mut st, &health, repair.as_ref(), &status, &store::RealIo)
        .map_err(|e| format!("{path}: scrub pass: {e}"))?;
    println!(
        "scanned {} page(s) ({} backend)",
        status.pages_scanned(),
        status.backend()
    );
    match outcome {
        svc::PassOutcome::Clean => {
            println!("healthy");
            Ok(())
        }
        svc::PassOutcome::Repaired(shards) => {
            println!("repaired shard(s) {shards:?}; store rewritten and re-verified");
            Ok(())
        }
        svc::PassOutcome::Degraded(shards) => Err(format!(
            "{path}: damage implicating shard(s) {shards:?}{}",
            if repair.is_some() {
                " — repair failed; rebuild from source data"
            } else {
                " — pass --csv (and matching build flags) to repair in place"
            }
        )),
    }
}

/// Full rebuild for a store too damaged to open: re-index the source
/// table and rewrite through the atomic protocol, preserving the
/// file's shard count and page size when its header is still intact
/// (a deterministic build ⇒ a bit-identical file).
fn rebuild_store(
    p: &std::path::Path,
    path: &str,
    repair: &svc::RepairSource,
    force_pread: bool,
) -> Result<(), String> {
    let (shards, page_size) = match store::Store::audit(p) {
        Ok((h, _)) => (h.shard_count as usize, h.page_size),
        Err(_) => (
            SvcConfig::default().resolved_shards(repair.table.num_rows()),
            store::DEFAULT_PAGE_SIZE,
        ),
    };
    let index = svc::ShardedIndex::build(&repair.table, &repair.config, shards, false);
    store::write(p, &index.to_bytes(), page_size, &store::RealIo)
        .map_err(|e| format!("{path}: rewrite: {e}"))?;
    store::Store::open_with(p, force_pread)
        .map_err(|e| format!("{path}: re-verify after rebuild: {e}"))?;
    println!("rebuilt {path} from source data ({shards} shard(s), {page_size}-byte pages)");
    Ok(())
}

/// Parses `--mix`: comma-separated kinds with optional `:weight`
/// (`rect`, `rect,batch`, `rect:3,cells:1`).
fn parse_mix(s: &str) -> Result<net::loadgen::Mix, String> {
    let mut mix = net::loadgen::Mix {
        rect: 0,
        cells: 0,
        batch: 0,
    };
    for part in s.split(',') {
        let (kind, weight) = match part.split_once(':') {
            Some((k, w)) => (
                k.trim(),
                w.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("bad weight in `{part}`"))?,
            ),
            None => (part.trim(), 1),
        };
        match kind {
            "rect" => mix.rect += weight,
            "cells" => mix.cells += weight,
            "batch" => mix.batch += weight,
            other => return Err(format!("unknown kind `{other}` (rect | cells | batch)")),
        }
    }
    if mix.rect + mix.cells + mix.batch == 0 {
        return Err("--mix needs at least one nonzero weight".into());
    }
    Ok(mix)
}

/// `abq loadgen` — drives a live `--listen` server over real sockets
/// and prints client-observed rps + latency quantiles; with `--out
/// FILE` it also writes them, with the registry, as a JSON snapshot
/// (nothing is written otherwise).
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr").ok_or("--addr is required")?;
    let conns: usize = flag_value(args, "--conns")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "--conns must be an integer")?;
    let secs: f64 = flag_value(args, "--secs")
        .unwrap_or("5")
        .parse()
        .map_err(|_| "--secs must be a number")?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err("--secs must be positive".into());
    }
    // `--rps` selects the open loop (fixed arrival rate, coordinated-
    // omission-corrected latency); otherwise closed loop with a
    // per-connection pipeline window.
    let mode = match (flag_value(args, "--rps"), flag_value(args, "--pipeline")) {
        (Some(_), Some(_)) => return Err("pass --rps or --pipeline, not both".into()),
        (Some(r), None) => net::loadgen::Mode::Open {
            rps: r.parse().map_err(|_| "--rps must be a number")?,
        },
        (None, p) => net::loadgen::Mode::Closed {
            pipeline: p
                .unwrap_or("1")
                .parse()
                .map_err(|_| "--pipeline must be an integer")?,
        },
    };
    let cfg = net::loadgen::LoadgenConfig {
        addr: addr.to_string(),
        conns: conns.max(1),
        duration: std::time::Duration::from_secs_f64(secs),
        mode,
        mix: parse_mix(flag_value(args, "--mix").unwrap_or("rect"))?,
        seed: flag_value(args, "--seed")
            .unwrap_or("42")
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        batch_size: flag_value(args, "--batch-size")
            .unwrap_or("8")
            .parse()
            .map_err(|_| "--batch-size must be an integer")?,
        deadline_ms: flag_value(args, "--deadline-ms")
            .unwrap_or("0")
            .parse()
            .map_err(|_| "--deadline-ms must be an integer")?,
    };
    let report = net::loadgen::run(&cfg).map_err(|e| format!("loadgen against {addr}: {e}"))?;

    println!(
        "{} ok, {} error frame(s) ({} shed), {} transport error(s), {} reconnect(s) \
         in {:.3}s -> {:.0} req/s ({} conns, {})",
        report.total_ok,
        report.total_errors,
        report.total_shed,
        report.transport_errors,
        report.reconnects,
        report.elapsed.as_secs_f64(),
        report.rps,
        cfg.conns,
        match cfg.mode {
            net::loadgen::Mode::Closed { pipeline } => format!("closed loop, pipeline {pipeline}"),
            net::loadgen::Mode::Open { rps } => format!("open loop, {rps:.0} req/s target"),
        },
    );
    println!("kind    ok        err       shed      p50 µs    p95 µs    p99 µs    p999 µs");
    for k in &report.kinds {
        println!(
            "{:<6}  {:<8}  {:<8}  {:<8}  {:<8}  {:<8}  {:<8}  {:<8}",
            k.kind, k.ok, k.errors, k.shed, k.p50, k.p95, k.p99, k.p999
        );
    }

    // Snapshot keys:
    // net.rps.<kind>.conns<N>, net.latency_us.<kind>.conns<N>.<p>, and
    // the reliability counts net.errors/shed.<kind>.conns<N> +
    // net.transport_errors/reconnects.conns<N>.
    let Some(out) = flag_value(args, "--out") else {
        return Ok(());
    };
    let mut snap = obs::global()
        .snapshot()
        .with_extra(&format!("net.total_rps.conns{conns}"), report.rps)
        .with_extra(
            &format!("net.transport_errors.conns{conns}"),
            report.transport_errors as f64,
        )
        .with_extra(
            &format!("net.reconnects.conns{conns}"),
            report.reconnects as f64,
        );
    for k in &report.kinds {
        let secs = report.elapsed.as_secs_f64().max(1e-9);
        snap = snap.with_extra(
            &format!("net.rps.{}.conns{conns}", k.kind),
            k.ok as f64 / secs,
        );
        snap = snap
            .with_extra(
                &format!("net.errors.{}.conns{conns}", k.kind),
                k.errors as f64,
            )
            .with_extra(&format!("net.shed.{}.conns{conns}", k.kind), k.shed as f64);
        let base = format!("net.latency_us.{}.conns{conns}", k.kind);
        snap = snap
            .with_extra(&format!("{base}.p50"), k.p50 as f64)
            .with_extra(&format!("{base}.p95"), k.p95 as f64)
            .with_extra(&format!("{base}.p99"), k.p99 as f64)
            .with_extra(&format!("{base}.p999"), k.p999 as f64);
    }
    std::fs::write(out, snap.to_json()).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// `abq trace` — fetch (or read from a file) a `/debug/traces` dump
/// and pretty-print each trace's span tree.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let dump = match (flag_value(args, "--addr"), flag_value(args, "--file")) {
        (Some(addr), None) => http_get(addr, "/debug/traces")?,
        (None, Some(path)) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        _ => return Err("pass exactly one of --addr HOST:PORT or --file DUMP.json".into()),
    };
    let traces = obs::parse_dump(&dump)?;
    if traces.is_empty() {
        println!("no traces recorded yet");
        return Ok(());
    }
    for t in &traces {
        print!("{}", t.render_tree());
    }
    println!("{} trace(s)", traces.len());
    Ok(())
}

/// Minimal HTTP/1.0 GET against the telemetry endpoint; returns the
/// response body.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| e.to_string())?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(format!("{addr}{path}: {status}"));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn retired_subcommands_are_unknown_commands() {
        // The two retired measurement subcommands get no special
        // treatment: same error as any typo (main prints usage, exit 2).
        // Names are assembled so a grep for them stays empty.
        for retired in ["report", "svc"] {
            let cmd = format!("bench-{retired}");
            assert_eq!(
                dispatch(&strings(&[&cmd, "--csv", "x.csv"])),
                Err(format!("unknown command `{cmd}`"))
            );
        }
        assert_eq!(
            dispatch(&strings(&["qurey"])),
            Err("unknown command `qurey`".to_string())
        );
    }

    #[test]
    fn flag_parsing() {
        let args = strings(&["--csv", "a.csv", "--out", "x.ab"]);
        assert_eq!(flag_value(&args, "--csv"), Some("a.csv"));
        assert_eq!(flag_value(&args, "--nope"), None);
    }

    #[test]
    fn repeatable_flags() {
        let args = strings(&["--where", "a=0..1", "--where", "b=2..3"]);
        assert_eq!(flag_values(&args, "--where"), vec!["a=0..1", "b=2..3"]);
    }

    #[test]
    fn range_parsing() {
        assert_eq!(parse_range("3..7"), Ok((3, 7)));
        assert!(parse_range("7..3").is_err());
        assert!(parse_range("x..3").is_err());
        assert!(parse_range("37").is_err());
    }

    #[test]
    fn level_parsing() {
        assert_eq!(parse_level("per-column"), Ok(Level::PerColumn));
        assert!(parse_level("nope").is_err());
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("abq_test_csv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, "x,y\n1.0,2.0\n3.5,4.5\n").unwrap();
        let t = read_csv(path.to_str().unwrap()).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column_by_name("y").unwrap().values, vec![2.0, 4.5]);
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let dir = std::env::temp_dir().join("abq_test_csv2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "x,y\n1.0\n").unwrap();
        assert!(read_csv(path.to_str().unwrap()).is_err());
    }

    fn tiny_service() -> Service {
        let t = Table::new(vec![
            Column::new("price", (0..200).map(|i| (i % 50) as f64).collect()),
            Column::new("qty", (0..200).map(|i| (i % 9) as f64).collect()),
        ]);
        let binned = BinnedTable::from_table(&t, &EquiDepth::new(5));
        Service::build(
            &binned,
            &AbConfig::new(Level::PerAttribute).with_alpha(8),
            &SvcConfig {
                threads: 2,
                shards: 4,
                ..SvcConfig::default()
            },
        )
    }

    #[test]
    fn repl_query_parsing() {
        let svc = tiny_service();
        let q = parse_repl_query("price=0..2 qty=1..1 rows 10..99", &svc).unwrap();
        assert_eq!(q.ranges.len(), 2);
        assert_eq!(q.ranges[0], AttrRange::new(0, 0, 2));
        assert_eq!(q.ranges[1], AttrRange::new(1, 1, 1));
        assert_eq!((q.row_lo, q.row_hi), (10, 99));
        // Defaults to the full row range.
        let q = parse_repl_query("price=0..4", &svc).unwrap();
        assert_eq!((q.row_lo, q.row_hi), (0, 199));
        assert!(parse_repl_query("nope=0..1", &svc).is_err());
        assert!(parse_repl_query("price=0..9", &svc).is_err());
        assert!(parse_repl_query("rows 0..500", &svc).is_err());
        assert!(parse_repl_query("price0..2", &svc).is_err());
    }

    #[test]
    fn threads_flag_parses_and_defaults() {
        assert_eq!(parse_threads(&strings(&["--threads", "4"])), Ok(4));
        assert!(parse_threads(&strings(&["--threads", "0"])).is_err());
        assert!(parse_threads(&strings(&["--threads", "x"])).is_err());
        assert!(parse_threads(&strings(&[])).unwrap() >= 1);
        assert!(has_flag(&strings(&["--store-pread"]), "--store-pread"));
        assert!(!has_flag(&strings(&[]), "--store-pread"));
    }

    #[test]
    fn unread_flags_are_errors() {
        // A typo is named, not silently ignored at its default.
        let err = dispatch(&strings(&[
            "build", "--csv", "x.csv", "--out", "x.ab", "--bins", "16", "--alhpa", "32",
        ]))
        .unwrap_err();
        assert!(err.contains("`--alhpa`"), "{err}");
        let err = dispatch(&strings(&["serve", "--csv", "x.csv", "--thraeds", "2"])).unwrap_err();
        assert!(err.contains("`--thraeds`"), "{err}");
        // Retired flags fail loudly too.
        for (cmd, flag) in [
            ("serve", "--kernel"),
            ("serve", "--batch-rows"),
            ("serve", "--wah"),
            ("build", "--kernel"),
        ] {
            let err = dispatch(&strings(&[cmd, "--csv", "x.csv", flag, "batched"])).unwrap_err();
            assert_eq!(err, format!("`abq {cmd}` does not accept `{flag}`"));
        }
        let err = dispatch(&strings(&[
            "store", "scrub", "--store", "s", "--shards", "4",
        ]))
        .unwrap_err();
        assert!(
            err.contains("`abq store scrub`") && err.contains("`--shards`"),
            "{err}"
        );
    }

    #[test]
    fn usage_lists_every_accepted_flag() {
        let text = usage();
        for &(name, _, flags) in COMMANDS {
            // The subcommand's entry runs from its `abq NAME ` line to
            // the next subcommand's.
            let start = text
                .find(&format!("abq {name} "))
                .unwrap_or_else(|| panic!("usage has no `abq {name}` entry"));
            let entry = &text[start..];
            let entry = &entry[..entry.find("\n  abq ").unwrap_or(entry.len())];
            for flag in flags {
                assert!(
                    entry
                        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                        .any(|t| t == *flag),
                    "usage of `abq {name}` does not mention {flag}"
                );
            }
        }
    }

    #[test]
    fn hier_flag_parses_bare_and_explicit() {
        assert_eq!(parse_hier(&strings(&[])), Ok(ab::HierMode::Off));
        assert_eq!(parse_hier(&strings(&["--hier"])), Ok(ab::HierMode::Auto));
        assert_eq!(
            parse_hier(&strings(&["--hier", "force"])),
            Ok(ab::HierMode::Force)
        );
        assert_eq!(
            parse_hier(&strings(&["--hier", "off"])),
            Ok(ab::HierMode::Off)
        );
        assert_eq!(
            parse_hier(&strings(&["--hier", "auto"])),
            Ok(ab::HierMode::Auto)
        );
        // Bare --hier followed by another flag must not eat it.
        assert_eq!(
            parse_hier(&strings(&["--hier", "--listen"])),
            Ok(ab::HierMode::Auto)
        );
        // A mistyped mode is an error, not a silent auto.
        let err = parse_hier(&strings(&["--hier", "forse"])).unwrap_err();
        assert!(
            err.contains("--hier") && err.contains("off|auto|force"),
            "{err}"
        );
    }

    #[test]
    fn store_build_with_hier_persists_pyramids() {
        let dir = std::env::temp_dir().join("abq_test_store_hier");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        let abpg = dir.join("d.abpg");
        let mut body = String::from("v\n");
        for i in 0..300 {
            body.push_str(&format!("{}.0\n", i / 30));
        }
        std::fs::write(&csv, body).unwrap();
        cmd_store_build(&strings(&[
            "--csv",
            csv.to_str().unwrap(),
            "--out",
            abpg.to_str().unwrap(),
            "--shards",
            "2",
            "--hier",
        ]))
        .unwrap();
        cmd_store_verify(&strings(&["--store", abpg.to_str().unwrap()])).unwrap();
        // The pyramid rides the segment: loading needs no rebuild.
        let st = store::Store::open_with(&abpg, false).unwrap();
        let idx = svc::ShardedIndex::from_bytes(st.payload()).unwrap();
        assert!(idx.shards().iter().all(|s| s.index().hier().is_some()));
    }

    #[test]
    fn hybrid_flag_parses_bare_and_explicit() {
        assert_eq!(parse_hybrid(&strings(&[])), Ok(ab::HybridMode::Off));
        assert_eq!(
            parse_hybrid(&strings(&["--hybrid"])),
            Ok(ab::HybridMode::Auto)
        );
        assert_eq!(
            parse_hybrid(&strings(&["--hybrid", "force"])),
            Ok(ab::HybridMode::Force)
        );
        assert_eq!(
            parse_hybrid(&strings(&["--hybrid", "off"])),
            Ok(ab::HybridMode::Off)
        );
        // Bare --hybrid followed by another flag must not eat it.
        assert_eq!(
            parse_hybrid(&strings(&["--hybrid", "--listen"])),
            Ok(ab::HybridMode::Auto)
        );
        // A mistyped mode is an error, not a silent auto.
        let err = parse_hybrid(&strings(&["--hybrid", "fourc"])).unwrap_err();
        assert!(
            err.contains("--hybrid") && err.contains("off|auto|force"),
            "{err}"
        );
    }

    #[test]
    fn store_build_with_hybrid_persists_exact_containers() {
        let dir = std::env::temp_dir().join("abq_test_store_hybrid");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        let abpg = dir.join("d.abpg");
        // Clustered values: every bin is dense in its run of rows, so
        // the planner's split decision backs bins exactly.
        let mut body = String::from("v\n");
        for i in 0..300 {
            body.push_str(&format!("{}.0\n", i / 30));
        }
        std::fs::write(&csv, body).unwrap();
        let build = |hybrid: &[&str]| {
            let mut args = strings(&[
                "--csv",
                csv.to_str().unwrap(),
                "--out",
                abpg.to_str().unwrap(),
                "--shards",
                "2",
            ]);
            args.extend(strings(hybrid));
            cmd_store_build(&args)
        };
        let load = || {
            cmd_store_verify(&strings(&["--store", abpg.to_str().unwrap()])).unwrap();
            let st = store::Store::open_with(&abpg, false).unwrap();
            svc::ShardedIndex::from_bytes(st.payload()).unwrap()
        };
        build(&["--hybrid"]).unwrap();
        // The containers ride the segment (ABIX v4): loading needs no
        // rebuild and no source table.
        let idx = load();
        assert!(idx.shards().iter().all(|s| s.index().hybrid().is_some()));
        assert!(idx.hybrid_split_stats().iter().all(|s| s.is_some()));
        // An explicit `off` builds no tier at all.
        build(&["--hybrid", "off"]).unwrap();
        let idx = load();
        assert!(idx.shards().iter().all(|s| s.index().hybrid().is_none()));
        assert!(idx.hybrid_split_stats().iter().all(|s| s.is_none()));
        // A mistyped mode is an error, not a silent auto.
        let err = build(&["--hybrid", "fourc"]).unwrap_err();
        assert!(
            err.contains("--hybrid") && err.contains("off|auto|force"),
            "{err}"
        );
    }

    #[test]
    fn mix_flag_parses_kinds_and_weights() {
        assert_eq!(parse_mix("rect").unwrap(), net::loadgen::Mix::RECT);
        let m = parse_mix("rect:3,cells:1,batch:2").unwrap();
        assert_eq!((m.rect, m.cells, m.batch), (3, 1, 2));
        let m = parse_mix("rect,batch").unwrap();
        assert_eq!((m.rect, m.cells, m.batch), (1, 0, 1));
        assert!(parse_mix("turbo").is_err());
        assert!(parse_mix("rect:x").is_err());
        assert!(parse_mix("rect:0").is_err());
    }

    #[test]
    fn loadgen_end_to_end_over_loopback() {
        let svc = tiny_service();
        let server = net::NetServer::bind(
            "127.0.0.1:0",
            std::sync::Arc::new(svc),
            net::NetConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let dir = std::env::temp_dir().join("abq_test_loadgen");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_net.json");
        cmd_loadgen(&strings(&[
            "--addr",
            &addr,
            "--conns",
            "2",
            "--secs",
            "0.3",
            "--mix",
            "rect,batch",
            "--batch-size",
            "3",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("net.rps.rect.conns2"), "{text}");
        assert!(text.contains("net.latency_us.batch.conns2.p99"), "{text}");
        server.shutdown(std::time::Duration::from_secs(2));
    }

    #[test]
    fn loadgen_flag_validation() {
        assert!(cmd_loadgen(&strings(&[])).is_err()); // --addr required
        assert!(cmd_loadgen(&strings(&["--addr", "x", "--rps", "10", "--pipeline", "2"])).is_err());
        assert!(cmd_loadgen(&strings(&["--addr", "x", "--secs", "0"])).is_err());
    }

    #[test]
    fn retry_flag_parses_and_bounds() {
        assert_eq!(
            parse_retry_policy(&strings(&["--retries", "7"]))
                .unwrap()
                .max_attempts,
            7
        );
        assert_eq!(parse_retry_policy(&strings(&[])).unwrap().max_attempts, 4);
        assert!(parse_retry_policy(&strings(&["--retries", "0"])).is_err());
        assert!(parse_retry_policy(&strings(&["--retries", "x"])).is_err());
    }

    #[test]
    fn verify_reports_health_and_detects_corruption() {
        let dir = std::env::temp_dir().join("abq_test_verify");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        let idx = dir.join("d.ab");
        let mut body = String::from("price,qty\n");
        for i in 0..200 {
            body.push_str(&format!("{}.0,{}.0\n", i % 31, (i * 5) % 7));
        }
        std::fs::write(&csv, body).unwrap();
        cmd_build(&strings(&[
            "--csv",
            csv.to_str().unwrap(),
            "--out",
            idx.to_str().unwrap(),
        ]))
        .unwrap();
        cmd_verify(&strings(&["--index", idx.to_str().unwrap()])).unwrap();
        // Flip one payload byte: verify must now fail with a
        // checksum complaint instead of succeeding.
        let mut bytes = std::fs::read(&idx).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&idx, &bytes).unwrap();
        let err = cmd_verify(&strings(&["--index", idx.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("corrupted"), "unexpected error: {err}");
    }

    #[test]
    fn verify_refuses_the_envelope_layouts_the_loader_refuses() {
        let dir = std::env::temp_dir().join("abq_test_verify_layout");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.absh");
        let mut bytes = tiny_service().index().to_bytes();
        std::fs::write(&path, &bytes).unwrap();
        cmd_verify(&strings(&["--index", path.to_str().unwrap()])).unwrap();
        // Swap the start rows of shards 1 and 2; every checksum still
        // holds, only the order is wrong.
        let extents = ab::segment_extents(&bytes).unwrap();
        let (a, b) = (extents[1].offset, extents[2].offset);
        let (first, second) = bytes.split_at_mut(b);
        first[a..a + 8].swap_with_slice(&mut second[..8]);
        std::fs::write(&path, &bytes).unwrap();
        let loader = svc::ShardedIndex::from_bytes(&bytes).err().unwrap();
        assert_eq!(loader, ab::IoError::BadShardLayout);
        let err = cmd_verify(&strings(&["--index", path.to_str().unwrap()])).unwrap_err();
        assert!(err.ends_with(&loader.to_string()), "{err}");
    }

    #[test]
    fn end_to_end_build_and_query() {
        let dir = std::env::temp_dir().join("abq_test_e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        let idx = dir.join("d.ab");
        let mut body = String::from("price,qty\n");
        for i in 0..500 {
            body.push_str(&format!("{}.0,{}.0\n", i % 97, (i * 7) % 13));
        }
        std::fs::write(&csv, body).unwrap();
        cmd_build(&strings(&[
            "--csv",
            csv.to_str().unwrap(),
            "--out",
            idx.to_str().unwrap(),
            "--bins",
            "8",
            "--alpha",
            "16",
        ]))
        .unwrap();
        cmd_info(&strings(&["--index", idx.to_str().unwrap()])).unwrap();
        cmd_query(&strings(&[
            "--index",
            idx.to_str().unwrap(),
            "--where",
            "price=0..3",
            "--rows",
            "0..99",
        ]))
        .unwrap();
    }

    #[test]
    fn store_build_verify_scrub_end_to_end() {
        let dir = std::env::temp_dir().join("abq_test_store");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        let abpg = dir.join("d.abpg");
        let mut body = String::from("price,qty\n");
        for i in 0..400 {
            body.push_str(&format!("{}.0,{}.0\n", i % 31, (i * 5) % 11));
        }
        std::fs::write(&csv, body).unwrap();
        let build_flags = [
            "--csv",
            csv.to_str().unwrap(),
            "--bins",
            "6",
            "--alpha",
            "8",
            "--shards",
            "3",
        ];
        let with_store = |extra: &[&str]| {
            let mut v = strings(extra);
            v.extend(strings(&["--store", abpg.to_str().unwrap()]));
            v
        };
        let mut args = strings(&build_flags);
        args.extend(strings(&[
            "--out",
            abpg.to_str().unwrap(),
            "--page-size",
            "256",
        ]));
        cmd_store_build(&args).unwrap();
        cmd_store_verify(&with_store(&[])).unwrap();
        let pristine = std::fs::read(&abpg).unwrap();

        // Rot one payload byte: verify must name the damage, scrub
        // without the CSV must refuse, scrub with it must restore the
        // exact original file.
        let mut rotted = pristine.clone();
        let at = rotted.len() - 10;
        rotted[at] ^= 0x40;
        std::fs::write(&abpg, &rotted).unwrap();
        let err = cmd_store_verify(&with_store(&[])).unwrap_err();
        assert!(err.contains("damaged"), "unexpected error: {err}");
        let err = cmd_store_scrub(&with_store(&[])).unwrap_err();
        assert!(err.contains("--csv"), "unexpected error: {err}");
        let mut repair = strings(&build_flags);
        repair.extend(strings(&["--store", abpg.to_str().unwrap()]));
        cmd_store_scrub(&repair).unwrap();
        assert_eq!(
            std::fs::read(&abpg).unwrap(),
            pristine,
            "repair must be bit-identical"
        );
        cmd_store_verify(&with_store(&[])).unwrap();
    }

    #[test]
    fn store_flag_validation() {
        assert!(dispatch(&strings(&["store"])).is_err());
        assert!(dispatch(&strings(&["store", "nope"])).is_err());
        assert!(cmd_store_build(&strings(&["--csv", "x.csv"])).is_err()); // --out required
        assert!(cmd_store_verify(&strings(&[])).is_err()); // --store required
        assert!(cmd_store_scrub(&strings(&[])).is_err());
    }
}
