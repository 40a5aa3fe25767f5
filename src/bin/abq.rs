//! `abq` — build, inspect, query and serve Approximate Bitmap indexes
//! from the command line. `abq --help` lists every subcommand's flags
//! with their defaults.
//!
//! Every command shares one index file: the page-checked `ABPG` store.
//! `build` reads a numeric CSV with a header row, discretizes every
//! column into equi-depth bins, builds a row-sharded index (with
//! `--hier` pyramids and a `--hybrid` exact tier if asked) and writes
//! it atomically (tmp + fsync + rename, page CRCs throughout).
//! `info`, `query`, `verify`, `scrub` and `serve` take that file as
//! `--index FILE`.
//!
//! `query` evaluates a rectangular query (bin intervals per attribute,
//! optional row range) against the index alone — no access to the
//! original data, the paper's privacy-preserving deployment — and
//! prints the matching row ids (approximate: 100% recall, small
//! controlled false-positive rate).
//! `verify` is the offline integrity audit: it names the damaged pages
//! and the shards they implicate without decoding the index. `scrub`
//! runs one detect→repair pass; a file too damaged to open is repaired
//! from the source data given with `--csv` and the build flags.
//! `serve` answers queries on the `--index` file over TCP at `--listen`
//! through the [`net`] front end (ABQ/1 binary framing, pipelined
//! requests, graceful drain on SIGINT/SIGTERM), from a
//! [`svc::Service`]. A background scrubber re-verifies the file every
//! `--scrub-ms` (0 disables), rewriting rot from the verified copy
//! while the served answers stay exactly as they were.
//! `trace` pretty-prints the span trees of a `/debug/traces` dump,
//! fetched from a live telemetry endpoint or read from a file.
//!
//! [`COMMANDS`] declares each subcommand's flags once: name, kind and
//! default. [`parse`] walks the command line once against that table;
//! a flag the table does not list, a stray token, a missing value, a
//! repeated flag or a missing required flag is an error naming it.

use ab::{AbConfig, AttributeMeta, Level};
use bitmap::{AttrRange, BinnedTable, Column, EquiDepth, RectQuery, Table};
use std::fmt::Display;
use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;
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

/// A subcommand's handler, given its command line parsed against its
/// flag table.
type Handler = fn(&Args) -> Result<(), String>;

/// A subcommand: its name, its handler and the only flags it accepts.
type Command = (&'static str, Handler, &'static [Flag]);

/// One flag of one subcommand.
struct Flag {
    name: &'static str,
    kind: Kind,
    absent: Absent,
}

const fn flag(name: &'static str, kind: Kind, absent: Absent) -> Flag {
    Flag { name, kind, absent }
}

/// How a flag takes its operand.
enum Kind {
    /// `--flag VALUE`, at most once; the `&str` is the metavar.
    Value(&'static str),
    /// `--flag VALUE`, any number of times.
    Repeated(&'static str),
    /// `--flag [off|auto|force]`; bare means auto.
    Mode,
}

/// What a flag reads as when the command line leaves it out.
enum Absent {
    Required,
    /// No value: the handler decides (the comment in the table says how).
    Unset,
    /// This default.
    Or(&'static str),
    /// No value: the handler takes a library's own default, which this
    /// renders for the usage text.
    Lib(fn() -> String),
}

use Absent::{Lib, Or, Required, Unset};
use Kind::{Mode, Repeated, Value};

/// `--max-conns`' default: [`net::NetConfig`]'s.
fn max_conns() -> String {
    net::NetConfig::default().max_connections.to_string()
}

/// `--page-size`'s default: the store's.
fn page_size() -> String {
    store::DEFAULT_PAGE_SIZE.to_string()
}

/// Every subcommand, its handler and its flags: the one place a flag,
/// its kind and its default are declared.
const COMMANDS: &[Command] = &[
    (
        "build",
        cmd_build,
        &[
            flag("--csv", Value("FILE"), Required),
            flag("--out", Value("FILE"), Required),
            // Unset: derived from the machine's available parallelism.
            flag("--shards", Value("N"), Unset),
            flag("--page-size", Value("N"), Lib(page_size)),
            flag("--bins", Value("N"), Or("10")),
            flag("--alpha", Value("N"), Or("8")),
            flag("--level", Value("L"), Or("per-attribute")),
            flag("--k", Value("N"), Unset),
            flag("--precision", Value("P"), Unset),
            flag("--hier", Mode, Or("off")),
            flag("--hybrid", Mode, Or("off")),
        ],
    ),
    (
        "info",
        cmd_info,
        &[flag("--index", Value("FILE"), Required)],
    ),
    (
        "verify",
        cmd_verify,
        &[flag("--index", Value("FILE"), Required)],
    ),
    (
        "query",
        cmd_query,
        &[
            flag("--index", Value("FILE"), Required),
            flag("--where", Repeated("ATTR=LO..HI"), Unset),
            flag("--rows", Value("LO..HI"), Unset),
            flag("--limit", Value("N"), Or("50")),
        ],
    ),
    (
        "serve",
        cmd_serve,
        &[
            flag("--index", Value("FILE"), Required),
            flag("--listen", Value("HOST:PORT"), Required),
            // Unset: the machine's available parallelism.
            flag("--threads", Value("N"), Unset),
            flag("--deadline-ms", Value("N"), Unset),
            flag("--hier", Mode, Or("off")),
            flag("--hybrid", Mode, Or("off")),
            flag("--telemetry-addr", Value("HOST:PORT"), Unset),
            flag("--slow-ms", Value("N"), Unset),
            flag("--scrub-ms", Value("N"), Or("5000")),
            flag("--max-conns", Value("N"), Lib(max_conns)),
            flag("--drain-ms", Value("N"), Or("2000")),
            flag("--trace-dump", Value("FILE"), Unset),
        ],
    ),
    (
        "scrub",
        cmd_scrub,
        &[
            flag("--index", Value("FILE"), Required),
            // The source data and build flags of a repair.
            flag("--csv", Value("FILE"), Unset),
            flag("--bins", Value("N"), Or("10")),
            flag("--alpha", Value("N"), Or("8")),
            flag("--level", Value("L"), Or("per-attribute")),
            flag("--k", Value("N"), Unset),
            flag("--precision", Value("P"), Unset),
        ],
    ),
    (
        "trace",
        cmd_trace,
        &[
            flag("--addr", Value("HOST:PORT"), Unset),
            flag("--file", Value("DUMP.json"), Unset),
        ],
    ),
];

/// Routes `argv[1..]` to its subcommand, parsed against the
/// subcommand's flag table.
fn dispatch(args: &[String]) -> Result<(), String> {
    let name = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            print_usage();
            return Ok(());
        }
        Some(name) => name,
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.0 == name) else {
        return Err(format!("unknown command `{name}`"));
    };
    let args = parse(cmd, &args[1..])?;
    (cmd.1)(&args)
}

/// A subcommand's command line, parsed against its flag table.
struct Args {
    flags: &'static [Flag],
    /// `(flag, value)` in command-line order. A bare mode flag's value
    /// is `auto`.
    given: Vec<(&'static str, String)>,
}

/// Walks `argv` once, left to right, against `cmd`'s flag table.
/// A value is the next token unless that token is itself a flag; a
/// mode flag's operand is optional.
fn parse(&(name, _, flags): &Command, argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        flags,
        given: Vec::new(),
    };
    let mut argv = argv.iter().peekable();
    while let Some(tok) = argv.next() {
        let Some(flag) = flags.iter().find(|f| f.name == tok) else {
            return Err(if tok.starts_with("--") {
                format!("`abq {name}` does not accept `{tok}`")
            } else {
                format!("stray argument `{tok}`: every value follows its --flag")
            });
        };
        if args.on(flag.name) && !matches!(flag.kind, Repeated(_)) {
            return Err(format!("{tok} is given twice"));
        }
        let operand = argv.next_if(|v| !v.starts_with("--"));
        let value = match (&flag.kind, operand) {
            (_, Some(v)) => v.clone(),
            (Mode, None) => "auto".into(),
            (_, None) => return Err(format!("{tok} needs a value")),
        };
        args.given.push((flag.name, value));
    }
    match flags
        .iter()
        .find(|f| matches!(f.absent, Required) && !args.on(f.name))
    {
        Some(f) => Err(format!("{} is required", f.name)),
        None => Ok(args),
    }
}

impl Args {
    /// Every value given for `flag`, in command-line order. Asking for
    /// a flag the table does not declare is a bug in the handler.
    fn all(&self, flag: &str) -> impl Iterator<Item = &str> {
        let Some(spec) = self.flags.iter().find(|f| f.name == flag) else {
            panic!("{flag} is not in this subcommand's flag table");
        };
        self.given
            .iter()
            .filter(|(f, _)| *f == spec.name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `flag` is on the command line.
    fn on(&self, flag: &str) -> bool {
        self.all(flag).next().is_some()
    }

    /// The flag's value, else its default from the table.
    fn value(&self, flag: &str) -> Option<&str> {
        let default = self.flags.iter().find_map(|f| match f.absent {
            Or(d) if f.name == flag => Some(d),
            _ => None,
        });
        self.all(flag).next().or(default)
    }

    /// The value (or default) through `parse`; a missing or bad value
    /// is an error naming the flag.
    fn get_with<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        let v = self
            .value(flag)
            .ok_or_else(|| format!("{flag} is required"))?;
        parse(v).map_err(|e| format!("bad {flag} `{v}`: {e}"))
    }

    fn get<T: FromStr<Err: Display>>(&self, flag: &str) -> Result<T, String> {
        self.get_with(flag, |v| v.parse().map_err(|e: T::Err| e.to_string()))
    }

    /// The value of a flag without a default, if it is given.
    fn opt<T: FromStr<Err: Display>>(&self, flag: &str) -> Result<Option<T>, String> {
        self.on(flag).then(|| self.get(flag)).transpose()
    }
}

/// The usage text, generated from [`COMMANDS`]: one entry per
/// subcommand, each flag with its default, wrapped before 80 columns.
fn usage() -> String {
    let mut text = String::from("usage:");
    for (name, _, flags) in COMMANDS {
        let mut line = format!("\n  abq {name}");
        for f in *flags {
            let default = match &f.absent {
                Or(d) => format!("={d}"),
                Lib(d) => format!("={}", d()),
                Required | Unset => String::new(),
            };
            let word = match (&f.kind, &f.absent) {
                (Value(m), Required) => format!("{} {m}", f.name),
                (Value(m), _) => format!("[{} {m}{default}]", f.name),
                (Repeated(m), _) => format!("[{} {m}]...", f.name),
                (Mode, _) => format!("[{} [off|auto|force]{default}]", f.name),
            };
            if line.len() + word.len() > 80 {
                text += &line;
                line = "\n     ".into();
            }
            line += " ";
            line += &word;
        }
        text += &line;
    }
    text
}

fn print_usage() {
    eprintln!("{}", usage());
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

/// A rect query from `ATTR=LO..HI` terms and an optional `LO..HI` row
/// range, bounds-checked against the index: `query --where/--rows`.
fn rect_query<'a>(
    attrs: &[AttributeMeta],
    num_rows: usize,
    terms: impl IntoIterator<Item = &'a str>,
    rows: Option<&str>,
) -> Result<RectQuery, String> {
    let mut ranges = Vec::new();
    for term in terms {
        let (attr_name, range) = term
            .split_once('=')
            .ok_or_else(|| format!("`{term}` is not ATTR=LO..HI"))?;
        let attr = attrs
            .iter()
            .position(|a| a.name == attr_name.trim())
            .ok_or_else(|| format!("unknown attribute `{attr_name}`"))?;
        let (lo, hi) = parse_range(range)?;
        let card = attrs[attr].cardinality as u64;
        if hi >= card {
            return Err(format!(
                "bin {hi} out of range for `{attr_name}` (cardinality {card})"
            ));
        }
        ranges.push(AttrRange::new(attr, lo as u32, hi as u32));
    }
    let (row_lo, row_hi) = match rows {
        Some(spec) => {
            let (lo, hi) = parse_range(spec)?;
            if hi as usize >= num_rows {
                return Err(format!("row {hi} out of range ({num_rows})"));
            }
            (lo as usize, hi as usize)
        }
        None => (0, num_rows - 1),
    };
    Ok(RectQuery::new(ranges, row_lo, row_hi))
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

/// `abq build` — CSV → sharded index (plus the `--hier` pyramids and
/// the `--hybrid` exact tier) → atomically written `ABPG` store.
fn cmd_build(a: &Args) -> Result<(), String> {
    let out: String = a.get("--out")?;
    let shards = a.opt::<NonZeroUsize>("--shards")?;
    let page_size = a.opt("--page-size")?.unwrap_or(store::DEFAULT_PAGE_SIZE);
    let hier = a.get::<ab::HierMode>("--hier")? != ab::HierMode::Off;
    let hybrid = a.get::<ab::HybridMode>("--hybrid")? != ab::HybridMode::Off;
    let (binned, config) = binned_and_config(a)?;
    let shards = match shards {
        Some(n) if n.get() > binned.num_rows() => {
            return Err(format!(
                "bad --shards `{n}`: more than the {} rows",
                binned.num_rows()
            ))
        }
        Some(n) => n.get(),
        None => SvcConfig::default().resolved_shards(binned.num_rows()),
    };
    let mut index = svc::ShardedIndex::build(&binned, &config, shards, false);
    if hier {
        // Persist the pruning pyramid alongside each shard (ABIX v3
        // pages in the segment); serving later needs no rebuild.
        index.ensure_hier(&ab::HierConfig::default());
    }
    if hybrid {
        // Persist the planner-split exact tier alongside each shard
        // (ABIX pages): Roaring containers for the hot bins, built
        // here once so serving can answer them with zero hash probes
        // and zero false positives without the source table.
        index.ensure_hybrid(&binned, &ab::HybridConfig::default());
    }
    let payload = index.to_bytes();
    store::write(
        std::path::Path::new(&out),
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
        "indexed {} rows x {} attributes as {} shard(s), {} payload bytes \
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

/// Opens the `--index` store, reading and verifying every page once,
/// and decodes its payload.
fn open_index(path: &str) -> Result<(store::Store, svc::ShardedIndex), String> {
    let st = store::Store::open(path).map_err(|e| store_error(path, e))?;
    let index = svc::ShardedIndex::from_bytes(st.payload()).map_err(|e| payload_error(path, e))?;
    Ok((st, index))
}

/// A store error, naming the file.
fn store_error(path: &str, e: store::StoreError) -> String {
    match e {
        store::StoreError::Payload(e) => payload_error(path, e),
        e => format!("{path}: {e}"),
    }
}

/// A payload error, naming the file. A version older than the one
/// this build reads is a retired file, with the way out.
fn payload_error(path: &str, e: ab::IoError) -> String {
    match e {
        ab::IoError::UnsupportedVersion(v) if v < ab::io::SHARD_VERSION => format!(
            "{path}: index envelope version {v} is retired (this build reads version {}); \
             rebuild the file with `abq build`",
            ab::io::SHARD_VERSION
        ),
        e => format!("{path}: {e}"),
    }
}

fn cmd_info(a: &Args) -> Result<(), String> {
    let (_, index) = open_index(&a.get::<String>("--index")?)?;
    let abs: Vec<&ab::ApproximateBitmap> = index
        .shards()
        .iter()
        .flat_map(|s| s.index().abs())
        .collect();
    println!(
        "level: {}\nrows: {}\nattributes: {}\nshards: {}\nABs: {}\ntotal size: {} bytes",
        index.shards()[0].index().level(),
        index.num_rows(),
        index.attributes().len(),
        index.num_shards(),
        abs.len(),
        index.size_bytes(),
    );
    for a in index.attributes() {
        println!("  {} (bins: {})", a.name, a.cardinality);
    }
    if let Some(ab0) = abs.first() {
        let fp = abs.iter().map(|ab| ab.expected_fp_rate()).sum::<f64>() / abs.len() as f64;
        println!("k: {}, expected FP rate at current load: {fp:.5}", ab0.k());
    }
    Ok(())
}

/// `abq verify` — offline integrity audit: header, meta-page padding,
/// CRC table, and every payload page, without deserializing the index.
/// Exits non-zero on any damage, naming the pages and the shards they
/// implicate.
fn cmd_verify(a: &Args) -> Result<(), String> {
    let path: String = a.get("--index")?;
    let (header, report, payload) =
        store::Store::audit(std::path::Path::new(&path)).map_err(|e| format!("{path}: {e}"))?;
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
        // Every page verifies; the envelope must also be one this
        // build reads.
        ab::segment_extents(&payload).map_err(|e| payload_error(&path, e))?;
        println!("healthy");
        Ok(())
    } else {
        Err(format!(
            "{path}: {} damaged page(s) {:?} implicating shard(s) {:?} — \
             run `abq scrub --csv ...` to repair, or rebuild",
            report.bad_pages.len(),
            report.bad_pages,
            report.bad_shards,
        ))
    }
}

/// `abq query` — runs the rect on each shard it overlaps, in row
/// order, and prints global row ids.
fn cmd_query(a: &Args) -> Result<(), String> {
    let (_, index) = open_index(&a.get::<String>("--index")?)?;
    let query = rect_query(
        index.attributes(),
        index.num_rows(),
        a.all("--where"),
        a.value("--rows"),
    )?;
    let limit: usize = a.get("--limit")?;

    let mut rows = Vec::new();
    let mut cells_probed = 0;
    for (sid, local) in index.split_rect(&query) {
        let shard = &index.shards()[sid];
        let (hits, stats) = shard
            .index()
            .try_execute_rect_with_stats_opts(&local, ab::KernelOpts::default())
            .map_err(|e| e.to_string())?;
        cells_probed += stats.cells_probed;
        rows.extend(hits.into_iter().map(|r| r + shard.start()));
    }
    println!(
        "{} candidate rows ({cells_probed} cells probed; recall 100%, false positives possible):",
        rows.len(),
    );
    for r in rows.iter().take(limit) {
        println!("{r}");
    }
    if rows.len() > limit {
        println!("... ({} more; raise --limit)", rows.len() - limit);
    }
    Ok(())
}

/// Parses `--precision`: a target strictly between 0 and 1.
fn parse_precision(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(p) if p > 0.0 && p < 1.0 => Ok(p),
        Ok(_) => Err("must lie strictly between 0 and 1".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// The build flags `build` and `scrub` share — `--csv`, `--bins`,
/// `--alpha`, `--level`, `--k` and `--precision`: CSV → binned table +
/// AB build config (the inputs a store repair needs too). Every value
/// is checked before the CSV is read, and an out-of-range one is an
/// error naming its flag.
fn binned_and_config(a: &Args) -> Result<(BinnedTable, AbConfig), String> {
    if a.on("--precision") {
        for other in ["--alpha", "--k"] {
            if a.on(other) {
                return Err(format!("pass {other} or --precision, not both"));
            }
        }
    }
    let csv: String = a.get("--csv")?;
    let bins: NonZeroU32 = a.get("--bins")?;
    let alpha: NonZeroU64 = a.get("--alpha")?;
    let level = a.get_with("--level", parse_level)?;
    let mut config = AbConfig::new(level).with_alpha(alpha.get());
    if a.on("--precision") {
        config = config.with_min_precision(a.get_with("--precision", parse_precision)?);
    }
    if let Some(k) = a.opt::<NonZeroUsize>("--k")? {
        config = config.with_k(k.get());
    }
    let table = read_csv(&csv)?;
    Ok((
        BinnedTable::from_table(&table, &EquiDepth::new(bins.get())),
        config,
    ))
}

/// The service flags of `serve` — `--threads`, `--deadline-ms`,
/// `--slow-ms`, `--hier`, `--hybrid` — as one [`SvcConfig`].
fn serve_config(a: &Args) -> Result<SvcConfig, String> {
    let millis = |flag| a.opt(flag).map(|ms| ms.map(Duration::from_millis));
    Ok(SvcConfig {
        threads: a.opt("--threads")?.map_or(0, NonZeroUsize::get),
        default_deadline: millis("--deadline-ms")?,
        slow_query: millis("--slow-ms")?,
        hier: a.get("--hier")?,
        hybrid: a.get("--hybrid")?,
        ..SvcConfig::default()
    })
}

/// `abq serve` — serves the `--index` file over TCP at `--listen`:
/// opens the store, starts the service, the background scrubber
/// (every `--scrub-ms`; 0 disables), which repairs rot in the file
/// from the store's verified copy, and the telemetry endpoint if
/// asked, then binds the [`net`] server and parks until
/// SIGINT/SIGTERM. It then drains gracefully (stop accepting, answer
/// everything already admitted, bounded by `--drain-ms`) and exits 0.
fn cmd_serve(a: &Args) -> Result<(), String> {
    let cfg = serve_config(a)?;
    let path: String = a.get("--index")?;
    let listen: String = a.get("--listen")?;
    let scrub_ms: u64 = a.get("--scrub-ms")?;
    let drain_ms: u64 = a.get("--drain-ms")?;
    let mut net_cfg = net::NetConfig::default();
    if let Some(n) = a.opt("--max-conns")? {
        net_cfg.max_connections = n;
    }
    if let Some(d) = cfg.default_deadline {
        // The wire carries the deadline as u32 milliseconds.
        net_cfg.default_deadline_ms = u32::try_from(d.as_millis())
            .map_err(|_| format!("bad --deadline-ms `{}`: over u32::MAX", d.as_millis()))?;
    }
    // Segments stored without a pyramid are fine: Service::from_index
    // rebuilds it per shard when hier is requested. Hybrid containers
    // however live in the segment itself (built with `build --hybrid`);
    // the flag only controls whether the kernel consults them.
    let (st, index) = open_index(&path)?;
    let svc = Service::from_index(index, &cfg);
    println!(
        "ready: {} rows x {} attributes, {} shards on {} threads ({} AB bytes, store {path})",
        svc.index().num_rows(),
        svc.index().attributes().len(),
        svc.index().num_shards(),
        svc.threads(),
        svc.index().size_bytes(),
    );
    // The scrubber and telemetry handles must stay alive for the whole
    // serve: dropping one stops it.
    let scrubber = if scrub_ms == 0 {
        None
    } else {
        let every = Duration::from_millis(scrub_ms);
        let scrubber = svc::Scrubber::spawn(st, every, std::sync::Arc::new(store::RealIo))
            .map_err(|e| format!("scrubber: {e}"))?;
        println!("scrubbing every {scrub_ms} ms (repairs from the verified copy)");
        Some(scrubber)
    };
    let _telemetry = match a.value("--telemetry-addr") {
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
                scrubber.as_ref().map(|s| s.status()),
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
    let server = net::NetServer::bind(&listen, std::sync::Arc::new(svc), net_cfg)
        .map_err(|e| format!("listen {listen}: {e}"))?;
    println!(
        "listening on {} (SIGINT/SIGTERM drains and exits)",
        server.local_addr()
    );
    net::sys::signal::install_shutdown_handler();
    while !net::sys::signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("shutdown requested; draining (up to {drain_ms} ms)");
    server.shutdown(Duration::from_millis(drain_ms));
    // The flight recorder still holds the last traces after the
    // listener is gone; --trace-dump persists them for `abq trace`.
    if let Some(path) = a.value("--trace-dump") {
        std::fs::write(path, obs::recorder().to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote trace dump to {path}");
    }
    println!("drained; exiting");
    Ok(())
}

/// `abq scrub` — one scrub pass from the CLI: open the store
/// (reading and verifying every page), re-check the file, and rewrite
/// it from the verified copy if it rotted since. A file too damaged to
/// open has no verified copy; with the original CSV and build flags it
/// is repaired from source data ([`repair_store`]).
fn cmd_scrub(a: &Args) -> Result<(), String> {
    let path: String = a.get("--index")?;
    let p = std::path::Path::new(&path);
    let mut st = match store::Store::open(p) {
        Ok(st) => st,
        Err(e @ (store::StoreError::Io(_) | store::StoreError::Payload(_))) => {
            return Err(store_error(&path, e))
        }
        Err(e) => {
            if !a.on("--csv") {
                return Err(format!(
                    "{path}: {e} — pass --csv (and matching build flags) to rebuild in place"
                ));
            }
            let (table, config) = binned_and_config(a)?;
            return repair_store(p, &path, &table, &config);
        }
    };
    let status = svc::StoreStatus::default();
    let outcome = svc::scrub_pass(&mut st, &status, &store::RealIo)
        .map_err(|e| format!("{path}: scrub pass: {e}"))?;
    println!("scanned {} page(s)", status.pages_scanned());
    match outcome {
        svc::PassOutcome::Clean => {
            println!("healthy");
            Ok(())
        }
        svc::PassOutcome::Repaired(pages) => {
            println!("repaired page(s) {pages:?}; store rewritten and re-verified");
            Ok(())
        }
        svc::PassOutcome::Degraded(pages) => Err(format!(
            "{path}: damaged page(s) {pages:?} — rewrite failed"
        )),
    }
}

/// Repair for a store too damaged to open. Where the header and page
/// table still verify, the shards `Store::audit` implicates are
/// rebuilt from `table`, with the pyramid and exact tier their clean
/// sibling shards carry, and the others are decoded: a deterministic
/// build, so a bit-identical file. Otherwise (or when every shard is
/// damaged) the whole index is rebuilt from `table` without those
/// tiers. Either way the file keeps its shard count and page size if
/// its header and page table still verify.
fn repair_store(
    p: &std::path::Path,
    path: &str,
    table: &BinnedTable,
    config: &AbConfig,
) -> Result<(), String> {
    let audited = store::Store::audit(p).ok();
    let (shards, page_size) = match &audited {
        Some((h, ..)) => (h.shard_count as usize, h.page_size),
        None => (
            SvcConfig::default().resolved_shards(table.num_rows()),
            store::DEFAULT_PAGE_SIZE,
        ),
    };
    let repaired = audited
        .as_ref()
        .filter(|(_, report, _)| report.bad_shards.len() < shards)
        .and_then(|(_, report, payload)| {
            let damaged = &report.bad_shards;
            svc::ShardedIndex::from_bytes_with_repair(payload, shards, damaged, table, config)
                .ok()
                .map(|index| (index, damaged))
        });
    let (index, note) = match repaired {
        Some((index, damaged)) if damaged.is_empty() => (index, "no shard was damaged".to_string()),
        Some((index, damaged)) => (
            index,
            format!("rebuilt shard(s) {damaged:?} from source data"),
        ),
        None => (
            svc::ShardedIndex::build(table, config, shards, false),
            format!(
                "rebuilt the whole index from source data ({shards} shard(s)); \
                 the damage left no shard to copy hier pyramids and exact \
                 tiers from, so they were not rebuilt"
            ),
        ),
    };
    store::write(p, &index.to_bytes(), page_size, &store::RealIo)
        .map_err(|e| format!("{path}: rewrite: {e}"))?;
    store::Store::open(p).map_err(|e| format!("{path}: re-verify after rebuild: {e}"))?;
    println!("repaired {path}: {note}, {page_size}-byte pages");
    Ok(())
}

/// `abq trace` — fetch (or read from a file) a `/debug/traces` dump
/// and pretty-print each trace's span tree.
fn cmd_trace(a: &Args) -> Result<(), String> {
    let dump = match (a.value("--addr"), a.value("--file")) {
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
        .set_read_timeout(Some(Duration::from_secs(5)))
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

    /// `cmd`'s command line, parsed against its flag table.
    fn parsed(cmd: &str, argv: &[&str]) -> Result<Args, String> {
        let cmd = COMMANDS.iter().find(|c| c.0 == cmd).unwrap();
        parse(cmd, &strings(argv))
    }

    /// Runs `abq CMD ARGV...` through [`dispatch`].
    fn run(cmd: &str, argv: &[&str]) -> Result<(), String> {
        dispatch(&strings(&[&[cmd], argv].concat()))
    }

    /// A scratch directory for `test` holding `d.csv`: the header
    /// `head`, then `rows`.
    fn csv_dir(test: &str, head: &str, rows: impl Iterator<Item = String>) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(test);
        std::fs::create_dir_all(&dir).unwrap();
        let body: String = std::iter::once(format!("{head}\n")).chain(rows).collect();
        std::fs::write(dir.join("d.csv"), body).unwrap();
        dir
    }

    #[test]
    fn retired_subcommands_are_unknown_commands() {
        // Retired subcommands get no special treatment: same error as
        // any typo (main prints usage, exit 2). Names are assembled so
        // a grep for them stays empty.
        for cmd in [
            format!("bench-{}", "report"),
            format!("bench-{}", "svc"),
            format!("load{}", "gen"),
        ] {
            assert_eq!(
                dispatch(&strings(&[&cmd, "--csv", "x.csv"])),
                Err(format!("unknown command `{cmd}`"))
            );
        }
        // `store` is not a command: `build`, `verify` and `scrub` are.
        for sub in ["build", "verify", "scrub"] {
            assert_eq!(
                dispatch(&strings(&["store", sub, "--csv", "x.csv"])),
                Err("unknown command `store`".to_string())
            );
        }
        assert_eq!(
            dispatch(&strings(&["qurey"])),
            Err("unknown command `qurey`".to_string())
        );
    }

    #[test]
    fn flag_parsing() {
        let a = parsed("build", &["--csv", "a.csv", "--out", "x.ab"]).unwrap();
        assert_eq!(a.value("--csv"), Some("a.csv"));
        assert_eq!(a.value("--k"), None);
        // An absent flag reads its default from the table.
        assert_eq!(a.get::<u32>("--bins"), Ok(10));
        assert_eq!(a.opt::<usize>("--k"), Ok(None));
        let err = parsed("build", &["--csv", "a.csv", "--out", "x.ab", "--bins", "x"])
            .unwrap()
            .get::<u32>("--bins")
            .unwrap_err();
        assert!(err.contains("--bins") && err.contains("`x`"), "{err}");
    }

    #[test]
    fn repeatable_flags() {
        let argv = ["--index", "i", "--where", "a=0..1", "--where", "b=2..3"];
        let a = parsed("query", &argv).unwrap();
        assert_eq!(a.all("--where").collect::<Vec<_>>(), ["a=0..1", "b=2..3"]);
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

    /// `serve`'s command line: its required flags, then `argv`.
    fn parsed_serve(argv: &[&str]) -> Result<Args, String> {
        parsed(
            "serve",
            &[&["--index", "x", "--listen", "127.0.0.1:0"], argv].concat(),
        )
    }

    #[test]
    fn threads_flag_parses_and_defaults() {
        let cfg = |argv: &[&str]| parsed_serve(argv).and_then(|a| serve_config(&a));
        assert_eq!(cfg(&["--threads", "4"]).unwrap().resolved_threads(), 4);
        assert!(cfg(&["--threads", "0"]).is_err());
        assert!(cfg(&["--threads", "x"]).is_err());
        assert!(cfg(&[]).unwrap().resolved_threads() >= 1);
    }

    #[test]
    fn unread_flags_are_errors() {
        // A typo is named, not silently ignored at its default.
        let err = dispatch(&strings(&[
            "build", "--csv", "x.csv", "--out", "x.ab", "--bins", "16", "--alhpa", "32",
        ]))
        .unwrap_err();
        assert!(err.contains("`--alhpa`"), "{err}");
        let err = dispatch(&strings(&["serve", "--index", "x", "--thraeds", "2"])).unwrap_err();
        assert!(err.contains("`--thraeds`"), "{err}");
        // Retired flags fail loudly too: `serve` serves the file as
        // built, over the socket only, so the build flags and the
        // stdin loop's flags are gone with the in-memory build and
        // the loop.
        let retired = [
            "--kernel",
            "--batch-rows",
            "--wah",
            "--csv",
            "--shards",
            "--bins",
            "--alpha",
            "--level",
            "--retries",
            "--limit",
        ];
        let serve = retired.iter().map(|&flag| ("serve", flag));
        for (cmd, flag) in serve.chain([("build", "--kernel")]) {
            let input = if cmd == "serve" { "--index" } else { "--csv" };
            let err = dispatch(&strings(&[cmd, input, "x", flag, "batched"])).unwrap_err();
            assert_eq!(err, format!("`abq {cmd}` does not accept `{flag}`"));
        }
        let err = dispatch(&strings(&["scrub", "--index", "s", "--shards", "4"])).unwrap_err();
        assert_eq!(err, "`abq scrub` does not accept `--shards`");
    }

    #[test]
    fn out_of_range_build_flags_are_errors() {
        let dir = csv_dir(
            "abq_test_build_range",
            "price,qty",
            (0..100).map(|i| format!("{}.0,{}.0\n", i % 13, i % 7)),
        );
        let (csv, out) = (dir.join("d.csv"), dir.join("d.abpg"));
        let (csv, out) = (csv.to_str().unwrap(), out.to_str().unwrap());
        // Each once reached an `assert!` in the build and exited 101.
        for (bad, flag) in [
            (&["--bins", "0"][..], "--bins"),
            (&["--alpha", "0"], "--alpha"),
            (&["--k", "0"], "--k"),
            (&["--precision", "0"], "--precision"),
            (&["--precision", "1.5"], "--precision"),
            (&["--precision", "NaN"], "--precision"),
            (&["--shards", "101"], "--shards"),
            // The §4 solver sizes the AB for its own k; a pinned k
            // would miss the target.
            (&["--precision", "0.999", "--k", "1"], "--k"),
            (&["--k", "1", "--precision", "0.999"], "--k"),
        ] {
            let argv = [&["build", "--csv", csv, "--out", out], bad].concat();
            let err = dispatch(&strings(&argv)).expect_err(&argv.join(" "));
            assert!(err.contains(flag), "{}: {err}", argv.join(" "));
        }
        assert!(!std::path::Path::new(out).exists());
    }

    #[test]
    fn usage_lists_every_accepted_flag() {
        let text = usage();
        // A subcommand's entry runs from its `abq NAME ` line to the
        // next subcommand's.
        let entry = |name: &str| {
            let start = text
                .find(&format!("abq {name} "))
                .unwrap_or_else(|| panic!("usage has no `abq {name}` entry"));
            let entry = &text[start..];
            &entry[..entry.find("\n  abq ").unwrap_or(entry.len())]
        };
        for &(name, _, flags) in COMMANDS {
            for flag in flags.iter().map(|f| f.name) {
                assert!(
                    entry(name)
                        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                        .any(|t| t == flag),
                    "usage of `abq {name}` does not mention {flag}"
                );
            }
        }
        // Each default is printed, a library's from the library.
        let conns = net::NetConfig::default().max_connections;
        for (name, word) in [
            ("serve", "[--drain-ms N=2000]".to_string()),
            ("serve", "[--scrub-ms N=5000]".to_string()),
            ("serve", format!("[--max-conns N={conns}]")),
            ("build", "[--bins N=10]".to_string()),
        ] {
            assert!(
                entry(name).contains(&word),
                "usage of `abq {name}` lacks {word}"
            );
        }
    }

    #[test]
    fn hier_flag_parses_bare_and_explicit() {
        let hier =
            |argv: &[&str]| parsed_serve(argv).and_then(|a| serve_config(&a).map(|c| c.hier));
        assert_eq!(hier(&[]), Ok(ab::HierMode::Off));
        assert_eq!(hier(&["--hier"]), Ok(ab::HierMode::Auto));
        assert_eq!(hier(&["--hier", "force"]), Ok(ab::HierMode::Force));
        assert_eq!(hier(&["--hier", "off"]), Ok(ab::HierMode::Off));
        assert_eq!(hier(&["--hier", "auto"]), Ok(ab::HierMode::Auto));
        // Bare --hier followed by another flag must not eat it.
        let a = parsed(
            "serve",
            &["--index", "x", "--hier", "--listen", "127.0.0.1:0"],
        )
        .unwrap();
        assert_eq!(a.get("--hier"), Ok(ab::HierMode::Auto));
        assert_eq!(a.value("--listen"), Some("127.0.0.1:0"));
        // A mistyped mode is an error, not a silent auto.
        let err = hier(&["--hier", "forse"]).unwrap_err();
        assert!(
            err.contains("--hier") && err.contains("off|auto|force"),
            "{err}"
        );
    }

    #[test]
    fn store_build_with_hier_persists_pyramids() {
        let dir = csv_dir(
            "abq_test_store_hier",
            "v",
            (0..300).map(|i| format!("{}.0\n", i / 30)),
        );
        let csv = dir.join("d.csv");
        let abpg = dir.join("d.abpg");
        run(
            "build",
            &[
                "--csv",
                csv.to_str().unwrap(),
                "--out",
                abpg.to_str().unwrap(),
                "--shards",
                "2",
                "--hier",
            ],
        )
        .unwrap();
        run("verify", &["--index", abpg.to_str().unwrap()]).unwrap();
        // The pyramid rides the segment: loading needs no rebuild.
        let st = store::Store::open(&abpg).unwrap();
        let idx = svc::ShardedIndex::from_bytes(st.payload()).unwrap();
        assert!(idx.shards().iter().all(|s| s.index().hier().is_some()));
    }

    #[test]
    fn hybrid_flag_parses_bare_and_explicit() {
        let hybrid =
            |argv: &[&str]| parsed_serve(argv).and_then(|a| serve_config(&a).map(|c| c.hybrid));
        assert_eq!(hybrid(&[]), Ok(ab::HybridMode::Off));
        assert_eq!(hybrid(&["--hybrid"]), Ok(ab::HybridMode::Auto));
        assert_eq!(hybrid(&["--hybrid", "force"]), Ok(ab::HybridMode::Force));
        assert_eq!(hybrid(&["--hybrid", "off"]), Ok(ab::HybridMode::Off));
        // Bare --hybrid followed by another flag must not eat it.
        let a = parsed(
            "serve",
            &["--index", "x", "--hybrid", "--listen", "127.0.0.1:0"],
        )
        .unwrap();
        assert_eq!(a.get("--hybrid"), Ok(ab::HybridMode::Auto));
        assert_eq!(a.value("--listen"), Some("127.0.0.1:0"));
        // A mistyped mode is an error, not a silent auto.
        let err = hybrid(&["--hybrid", "fourc"]).unwrap_err();
        assert!(
            err.contains("--hybrid") && err.contains("off|auto|force"),
            "{err}"
        );
    }

    #[test]
    fn store_build_with_hybrid_persists_exact_containers() {
        // Clustered values: every bin is dense in its run of rows, so
        // the planner's split decision backs bins exactly.
        let dir = csv_dir(
            "abq_test_store_hybrid",
            "v",
            (0..300).map(|i| format!("{}.0\n", i / 30)),
        );
        let csv = dir.join("d.csv");
        let abpg = dir.join("d.abpg");
        let build = |hybrid: &[&str]| {
            let mut args = vec![
                "--csv",
                csv.to_str().unwrap(),
                "--out",
                abpg.to_str().unwrap(),
                "--shards",
                "2",
            ];
            args.extend(hybrid);
            run("build", &args)
        };
        let load = || {
            run("verify", &["--index", abpg.to_str().unwrap()]).unwrap();
            let st = store::Store::open(&abpg).unwrap();
            svc::ShardedIndex::from_bytes(st.payload()).unwrap()
        };
        build(&["--hybrid"]).unwrap();
        // The containers ride the segment: loading needs no
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
    fn verify_reports_health_and_detects_corruption() {
        let dir = csv_dir(
            "abq_test_verify",
            "price,qty",
            (0..200).map(|i| format!("{}.0,{}.0\n", i % 31, (i * 5) % 7)),
        );
        let (csv, idx) = (dir.join("d.csv"), dir.join("d.abpg"));
        let (csv, idx) = (csv.to_str().unwrap(), idx.to_str().unwrap());
        run("build", &["--csv", csv, "--out", idx]).unwrap();
        run("verify", &["--index", idx]).unwrap();
        // Flip one payload byte: verify must now fail naming the
        // damage instead of succeeding.
        let mut bytes = std::fs::read(idx).unwrap();
        let at = bytes.len() - 100;
        bytes[at] ^= 0x01;
        std::fs::write(idx, &bytes).unwrap();
        let err = run("verify", &["--index", idx]).unwrap_err();
        assert!(err.contains("damaged page"), "unexpected error: {err}");
    }

    #[test]
    fn verify_refuses_the_envelope_layouts_the_loader_refuses() {
        // The loader reads only the page-checked store: a bare `ABSH`
        // envelope (even one whose every checksum holds) or a bare
        // `ABIX` index is refused by every command that takes
        // `--index`, with the loader's own error.
        let dir = std::env::temp_dir().join("abq_test_verify_layout");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.absh");
        let path = path.to_str().unwrap();
        let absh = tiny_service().index().to_bytes();
        let abix = ab::to_bytes(tiny_service().index().shards()[0].index());
        for bytes in [absh, abix] {
            std::fs::write(path, &bytes).unwrap();
            let loader = store::Store::open(path).err().unwrap().to_string();
            for cmd in ["verify", "info", "query", "scrub", "serve"] {
                let listen = ["--listen", "127.0.0.1:0"];
                let argv = [
                    &["--index", path][..],
                    if cmd == "serve" { &listen } else { &[] },
                ];
                let err = run(cmd, &argv.concat()).unwrap_err();
                assert!(err.contains(&loader), "{cmd}: {err}");
            }
        }
    }

    #[test]
    fn end_to_end_build_and_query() {
        let dir = std::env::temp_dir().join("abq_test_e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        let idx = dir.join("d.abpg");
        let mut body = String::from("price,qty\n");
        for i in 0..500 {
            body.push_str(&format!("{}.0,{}.0\n", i % 97, (i * 7) % 13));
        }
        std::fs::write(&csv, body).unwrap();
        let (csv, idx) = (csv.to_str().unwrap(), idx.to_str().unwrap());
        let build = ["--csv", csv, "--out", idx, "--bins", "8", "--alpha", "16"];
        run("build", &build).unwrap();
        run("info", &["--index", idx]).unwrap();
        let query = ["--index", idx, "--where", "price=0..3", "--rows", "0..99"];
        run("query", &query).unwrap();
    }

    #[test]
    fn store_build_verify_scrub_end_to_end() {
        let dir = csv_dir(
            "abq_test_store",
            "price,qty",
            (0..400).map(|i| format!("{}.0,{}.0\n", i % 31, (i * 5) % 11)),
        );
        let csv = dir.join("d.csv");
        let csv = csv.to_str().unwrap();
        let build_flags = ["--csv", csv, "--bins", "6", "--alpha", "8"];
        // A flat store, and one whose shards carry a pyramid and an
        // exact tier that the repair must rebuild too.
        for (name, tiers) in [
            ("flat", &[][..]),
            ("tiered", &["--hier", "--hybrid", "force"]),
        ] {
            let abpg = dir.join(format!("{name}.abpg"));
            let abpg = abpg.to_str().unwrap();
            let store = ["--index", abpg];
            let mut args = build_flags.to_vec();
            args.extend(["--shards", "3", "--out", abpg, "--page-size", "256"]);
            args.extend(tiers);
            run("build", &args).unwrap();
            run("verify", &store).unwrap();
            let pristine = std::fs::read(abpg).unwrap();
            let header = *store::Store::open(abpg).unwrap().header();

            // Rot a byte of the last shard: verify must name the
            // damage, scrub without the CSV must refuse, scrub with it
            // must restore the exact original file.
            let mut rotted = pristine.clone();
            let at = (header.payload_offset() + header.payload_len) as usize - 10;
            rotted[at] ^= 0x40;
            std::fs::write(abpg, &rotted).unwrap();
            let err = run("verify", &store).unwrap_err();
            assert!(err.contains("damaged"), "{name}: unexpected error: {err}");
            let err = run("scrub", &store).unwrap_err();
            assert!(err.contains("--csv"), "{name}: unexpected error: {err}");
            let mut repair = build_flags.to_vec();
            repair.extend(store);
            run("scrub", &repair).unwrap();
            assert!(
                std::fs::read(abpg).unwrap() == pristine,
                "{name}: repair must be bit-identical"
            );
            run("verify", &store).unwrap();
            run("scrub", &store).unwrap();
        }
    }

    /// A file written before the envelope lost its checksums (`ABSH`
    /// 2, inside a store file whose every page verifies) is named as
    /// retired, with the way out, by every command that reads it.
    #[test]
    fn retired_index_files_say_to_rebuild() {
        let dir = std::env::temp_dir().join("abq_test_retired");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v2.abpg");
        let path = path.to_str().unwrap();
        std::fs::write(
            path,
            include_bytes!("../../crates/core/tests/fixtures/v5/shards.abpg"),
        )
        .unwrap();
        let want = format!(
            "{path}: index envelope version 2 is retired (this build reads version 3); \
             rebuild the file with `abq build`"
        );
        for cmd in ["info", "verify", "query", "scrub", "serve"] {
            let listen = ["--listen", "127.0.0.1:0"];
            let argv = [
                &["--index", path][..],
                if cmd == "serve" { &listen } else { &[] },
            ];
            assert_eq!(run(cmd, &argv.concat()), Err(want.clone()), "{cmd}");
        }
    }

    /// Rot in segment 1's length field: the audit implicates shard 1
    /// and every later one (and shard 0 when the page also holds its
    /// bytes), and `scrub --csv` rewrites the file of a clean
    /// `abq build`. In the tiered file of 636 rows segment 1's length
    /// field lies on a 64-byte page that holds no byte of shard 0, so
    /// shard 0 and its tiers are kept; in the flat file of 600 rows the
    /// field's first byte shares a page with shard 0's tail.
    #[test]
    fn scrub_rebuilds_every_shard_after_a_damaged_segment_length() {
        let tiered = &["--hier", "--hybrid", "force"][..];
        for (rows, tiers, rebuilt) in [
            (636, tiered, [vec![1, 2], vec![1, 2]]),
            (600, &[][..], [vec![0, 1, 2], vec![1, 2]]),
        ] {
            let dir = csv_dir(
                &format!("abq_test_segment_len_{rows}"),
                "price,qty",
                (0..rows).map(|i| format!("{}.0,{}.0\n", i % 31, (i * 5) % 11)),
            );
            let (csv, abpg) = (dir.join("d.csv"), dir.join("d.abpg"));
            let (csv, abpg) = (csv.to_str().unwrap(), abpg.to_str().unwrap());
            let build = [
                "--csv",
                csv,
                "--out",
                abpg,
                "--shards",
                "3",
                "--page-size",
                "64",
            ];
            run("build", &[&build[..], tiers].concat()).unwrap();
            let pristine = std::fs::read(abpg).unwrap();
            let st = store::Store::open(abpg).unwrap();
            let len_at = st.header().payload_offset() as usize + st.extents()[1].offset + 8;
            drop(st);
            for (byte, rebuilt) in [0, 7].into_iter().zip(rebuilt) {
                let mut rotted = pristine.clone();
                rotted[len_at + byte] ^= 0x40;
                std::fs::write(abpg, &rotted).unwrap();
                let (_, report, _) = store::Store::audit(abpg).unwrap();
                assert_eq!(report.bad_shards, rebuilt, "{rows} rows, byte {byte}");
                run("scrub", &["--index", abpg, "--csv", csv]).unwrap();
                let restored = std::fs::read(abpg).unwrap() == pristine;
                assert!(restored, "{rows} rows, byte {byte}: not restored");
            }
        }
    }

    #[test]
    fn store_flag_validation() {
        assert_eq!(
            run("build", &["--csv", "x.csv"]),
            Err("--out is required".into())
        );
        for cmd in ["info", "verify", "query", "scrub"] {
            assert_eq!(run(cmd, &[]), Err("--index is required".into()));
        }
        // `serve` serves a file over a socket: it needs both.
        assert_eq!(
            run("serve", &["--listen", "127.0.0.1:0"]),
            Err("--index is required".into())
        );
        assert_eq!(
            run("serve", &["--index", "x"]),
            Err("--listen is required".into())
        );
    }

    #[test]
    fn malformed_command_lines_are_errors() {
        // Each of these once ran on a silent mis-read of its argv.
        let dir = std::env::temp_dir().join("abq_test_malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let (csv, idx) = (dir.join("t.csv"), dir.join("t.abpg"));
        let mut body = String::from("price,qty\n");
        for i in 0..200 {
            body.push_str(&format!("{}.0,{}.0\n", i % 50, i % 9));
        }
        std::fs::write(&csv, body).unwrap();
        let (csv, idx) = (csv.to_str().unwrap(), idx.to_str().unwrap());
        run("build", &["--csv", csv, "--out", idx, "--bins", "5"]).unwrap();
        let err = |cmd: &str, argv: &[&str]| {
            let args = [&[cmd], argv].concat();
            dispatch(&strings(&args)).expect_err(&args.join(" "))
        };
        // A stray token is not dropped.
        let e = err("query", &["--index", idx, "price=0..0"]);
        assert!(e.contains("`price=0..0`"), "{e}");
        // A flag at the end of argv, or before another flag, has no value.
        let e = err("query", &["--index", idx, "--where"]);
        assert!(e.contains("--where needs a value"), "{e}");
        let e = err("build", &["--csv", csv, "--out"]);
        assert!(e.contains("--out needs a value"), "{e}");
        let e = err("build", &["--csv", csv, "--out", "--bins", "5"]);
        assert!(e.contains("--out needs a value"), "{e}");
        assert!(!std::path::Path::new("--bins").exists());
        // A flag that is not repeatable is given once.
        let e = err("query", &["--index", idx, "--limit", "2", "--limit", "100"]);
        assert!(e.contains("--limit"), "{e}");
        run(
            "query",
            &[
                "--index",
                idx,
                "--where",
                "price=0..0",
                "--where",
                "qty=0..1",
            ],
        )
        .unwrap();
        // --precision does not silently drop --alpha.
        let out = ["--csv", csv, "--out", idx];
        let e = err(
            "build",
            &[&out[..], &["--precision", "0.9", "--alpha", "16"]].concat(),
        );
        assert_eq!(e, "pass --alpha or --precision, not both");
    }
}
