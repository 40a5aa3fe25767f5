//! `abq` — build, inspect and query Approximate Bitmap indexes from
//! the command line. `abq --help` lists every subcommand's flags.
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
//! store instead of rebuilding: the file is read and verified once,
//! and a background scrubber re-verifies it every `--scrub-ms`
//! (0 disables), rewriting rot from the verified copy while the
//! served answers stay exactly as they were.
//! `store build|verify|scrub` manage those segment stores: `build`
//! writes one atomically (tmp + fsync + rename), `verify` is the
//! offline integrity audit, `scrub` runs one detect→repair pass from
//! the command line (a file too damaged to open is repaired from the
//! source data given with `--csv`).
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
//! [`COMMANDS`] declares each subcommand's flags once: name, kind and
//! default. [`parse`] walks the command line once against that table;
//! a flag the table does not list, a stray token, a missing value, a
//! repeated flag or a missing required flag is an error naming it.

use ab::{AbConfig, AbIndex, AttributeMeta, Level};
use bitmap::{AttrRange, BinnedTable, Column, EquiDepth, RectQuery, Table};
use std::fmt::Display;
use std::num::NonZeroUsize;
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
}

use Absent::{Or, Required, Unset};
use Kind::{Mode, Repeated, Value};

/// Every subcommand, its handler and its flags: the one place a flag,
/// its kind and its default are declared.
const COMMANDS: &[Command] = &[
    (
        "build",
        cmd_build,
        &[
            flag("--csv", Value("FILE"), Required),
            flag("--out", Value("FILE"), Required),
            flag("--bins", Value("N"), Or("10")),
            flag("--alpha", Value("N"), Or("8")),
            flag("--level", Value("L"), Or("per-attribute")),
            flag("--k", Value("N"), Unset),
            flag("--precision", Value("P"), Unset),
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
            // Required unless `--store` is given.
            flag("--csv", Value("FILE"), Unset),
            // Unset: the machine's available parallelism.
            flag("--threads", Value("N"), Unset),
            // 0: derived from the thread count.
            flag("--shards", Value("N"), Or("0")),
            flag("--bins", Value("N"), Or("10")),
            flag("--alpha", Value("N"), Or("8")),
            flag("--level", Value("L"), Or("per-attribute")),
            flag("--deadline-ms", Value("N"), Unset),
            flag("--retries", Value("N"), Or("4")),
            flag("--limit", Value("N"), Or("20")),
            flag("--hier", Mode, Or("off")),
            flag("--hybrid", Mode, Or("off")),
            flag("--telemetry-addr", Value("HOST:PORT"), Unset),
            flag("--slow-ms", Value("N"), Unset),
            flag("--store", Value("FILE"), Unset),
            flag("--scrub-ms", Value("N"), Or("5000")),
            flag("--listen", Value("HOST:PORT"), Unset),
            // Unset: `net::NetConfig`'s default.
            flag("--max-conns", Value("N"), Unset),
            flag("--drain-ms", Value("N"), Or("2000")),
            flag("--trace-dump", Value("FILE"), Unset),
        ],
    ),
    (
        "store build",
        cmd_store_build,
        &[
            flag("--csv", Value("FILE"), Required),
            flag("--out", Value("FILE"), Required),
            // Unset: derived from the machine's available parallelism.
            flag("--shards", Value("N"), Unset),
            // Unset: `store::DEFAULT_PAGE_SIZE`.
            flag("--page-size", Value("N"), Unset),
            flag("--bins", Value("N"), Or("10")),
            flag("--alpha", Value("N"), Or("8")),
            flag("--level", Value("L"), Or("per-attribute")),
            flag("--hier", Mode, Or("off")),
            flag("--hybrid", Mode, Or("off")),
        ],
    ),
    (
        "store verify",
        cmd_store_verify,
        &[flag("--store", Value("FILE"), Required)],
    ),
    (
        "store scrub",
        cmd_store_scrub,
        &[
            flag("--store", Value("FILE"), Required),
            flag("--csv", Value("FILE"), Unset),
            flag("--bins", Value("N"), Or("10")),
            flag("--alpha", Value("N"), Or("8")),
            flag("--level", Value("L"), Or("per-attribute")),
        ],
    ),
    (
        "loadgen",
        cmd_loadgen,
        &[
            flag("--addr", Value("HOST:PORT"), Required),
            flag("--conns", Value("N"), Or("1")),
            flag("--secs", Value("S"), Or("5")),
            flag("--pipeline", Value("N"), Or("1")),
            flag("--rps", Value("R"), Unset),
            flag("--mix", Value("rect,cells,batch"), Or("rect")),
            flag("--seed", Value("N"), Or("42")),
            flag("--batch-size", Value("N"), Or("8")),
            flag("--deadline-ms", Value("N"), Or("0")),
            flag("--out", Value("FILE"), Unset),
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
        Some("store") => match args.get(1) {
            Some(sub) => format!("store {sub}"),
            None => return Err("store needs a subcommand: build | verify | scrub".into()),
        },
        Some(cmd) => cmd.to_string(),
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.0 == name) else {
        return Err(match name.strip_prefix("store ") {
            Some(sub) => format!("unknown store subcommand `{sub}` (build | verify | scrub)"),
            None => format!("unknown command `{name}`"),
        });
    };
    let args = parse(cmd, &args[name.split(' ').count()..])?;
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
/// subcommand, wrapped before 80 columns.
fn usage() -> String {
    let mut text = String::from("usage:");
    for (name, _, flags) in COMMANDS {
        let mut line = format!("\n  abq {name}");
        for f in *flags {
            let word = match (&f.kind, &f.absent) {
                (Value(m), Required) => format!("{} {m}", f.name),
                (Value(m), _) => format!("[{} {m}]", f.name),
                (Repeated(m), _) => format!("[{} {m}]...", f.name),
                (Mode, _) => format!("[{} [off|auto|force]]", f.name),
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
/// range, bounds-checked against the index: the one parser behind
/// `query --where/--rows` and the `serve` REPL.
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

fn cmd_build(a: &Args) -> Result<(), String> {
    if a.on("--alpha") && a.on("--precision") {
        return Err("pass --alpha or --precision, not both".into());
    }
    let out: String = a.get("--out")?;
    let precision: Option<f64> = a.opt("--precision")?;
    let k: Option<usize> = a.opt("--k")?;
    let (binned, mut config) = binned_and_config(a)?;
    if let Some(p) = precision {
        config = config.with_min_precision(p);
    }
    if let Some(k) = k {
        config = config.with_k(k);
    }
    let index = AbIndex::build(&binned, &config);
    let bytes = ab::to_bytes(&index);
    std::fs::write(&out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "indexed {} rows x {} attributes into {} ABs ({} bytes) -> {out}",
        binned.num_rows(),
        binned.num_attributes(),
        index.abs().len(),
        bytes.len(),
    );
    Ok(())
}

fn load_index(a: &Args) -> Result<AbIndex, String> {
    let path: String = a.get("--index")?;
    let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
    ab::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn cmd_info(a: &Args) -> Result<(), String> {
    let index = load_index(a)?;
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
fn cmd_verify(a: &Args) -> Result<(), String> {
    let path: String = a.get("--index")?;
    let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
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

fn cmd_query(a: &Args) -> Result<(), String> {
    let index = load_index(a)?;
    let query = rect_query(
        index.attributes(),
        index.num_rows(),
        a.all("--where"),
        a.value("--rows"),
    )?;
    let limit: usize = a.get("--limit")?;

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

/// Shared `--csv`/`--bins`/`--alpha`/`--level` parsing: CSV → binned
/// table + AB build config (the inputs a store repair needs too).
fn binned_and_config(a: &Args) -> Result<(BinnedTable, AbConfig), String> {
    let csv: String = a.get("--csv")?;
    let bins: u32 = a.get("--bins")?;
    let alpha: u64 = a.get("--alpha")?;
    let level = a.get_with("--level", parse_level)?;
    let table = read_csv(&csv)?;
    Ok((
        BinnedTable::from_table(&table, &EquiDepth::new(bins)),
        AbConfig::new(level).with_alpha(alpha),
    ))
}

/// The service flags of `serve` — `--threads`, `--shards`,
/// `--deadline-ms`, `--slow-ms`, `--hier`, `--hybrid` — as one
/// [`SvcConfig`].
fn serve_config(a: &Args) -> Result<SvcConfig, String> {
    let millis = |flag| a.opt(flag).map(|ms| ms.map(Duration::from_millis));
    Ok(SvcConfig {
        threads: a.opt("--threads")?.map_or(0, NonZeroUsize::get),
        shards: a.get("--shards")?,
        default_deadline: millis("--deadline-ms")?,
        slow_query: millis("--slow-ms")?,
        hier: a.get("--hier")?,
        hybrid: a.get("--hybrid")?,
        ..SvcConfig::default()
    })
}

/// `serve` setup: CSV → binned table → sharded service, or with
/// `--store` an ABPG file → sharded index → service plus the
/// background scrubber (interval `--scrub-ms`; 0 disables), which
/// repairs rot in the file from the store's verified copy. Prints the
/// chosen shard/thread split.
fn build_service(a: &Args, cfg: &SvcConfig) -> Result<(Service, Option<svc::Scrubber>), String> {
    let store = match a.value("--store") {
        Some(path) => {
            let st = store::Store::open(path).map_err(|e| format!("{path}: {e}"))?;
            Some((st, path))
        }
        None => None,
    };
    let svc = match &store {
        // Segments stored without a pyramid are fine: Service::from_index
        // rebuilds it per shard when hier is requested. Hybrid containers
        // however live in the segment itself (built with `store build
        // --hybrid`); the flag only controls whether the kernel consults
        // them.
        Some((st, path)) => Service::from_index(
            svc::ShardedIndex::from_bytes(st.payload()).map_err(|e| format!("{path}: {e}"))?,
            cfg,
        ),
        None => {
            let (binned, config) = binned_and_config(a)?;
            Service::build(&binned, &config, cfg)
        }
    };
    println!(
        "ready: {} rows x {} attributes, {} shards on {} threads ({} AB bytes{})",
        svc.index().num_rows(),
        svc.index().attributes().len(),
        svc.index().num_shards(),
        svc.threads(),
        svc.index().size_bytes(),
        store
            .as_ref()
            .map_or(String::new(), |(_, path)| format!(", store {path}")),
    );
    let scrub_ms: u64 = a.get("--scrub-ms")?;
    let Some((st, _)) = store.filter(|_| scrub_ms > 0) else {
        return Ok((svc, None));
    };
    let scrubber = svc::Scrubber::spawn(
        st,
        Duration::from_millis(scrub_ms),
        std::sync::Arc::new(store::RealIo),
    )
    .map_err(|e| format!("scrubber: {e}"))?;
    println!("scrubbing every {scrub_ms} ms (repairs from the verified copy)");
    Ok((svc, Some(scrubber)))
}

/// Parses one REPL line into a query: whitespace-separated
/// `ATTR=LO..HI` terms plus an optional `rows LO..HI` pair.
fn parse_repl_query(line: &str, svc: &Service) -> Result<RectQuery, String> {
    let mut terms = Vec::new();
    let mut rows = None;
    let mut tokens = line.split_whitespace();
    while let Some(tok) = tokens.next() {
        if tok == "rows" {
            rows = Some(tokens.next().ok_or("`rows` needs a LO..HI range")?);
        } else {
            terms.push(tok);
        }
    }
    let index = svc.index();
    rect_query(index.attributes(), index.num_rows(), terms, rows)
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    let cfg = serve_config(a)?;
    let policy = svc::RetryPolicy {
        max_attempts: a.get::<NonZeroUsize>("--retries")?.get(),
        ..svc::RetryPolicy::default()
    };
    let limit: usize = a.get("--limit")?;
    // `--store` serves from a crash-safe ABPG file instead of
    // rebuilding from CSV; the scrubber handle must stay alive for
    // the whole serve (dropping it stops the background verification).
    let (svc, scrubber) = build_service(a, &cfg)?;
    let store_status = scrubber.as_ref().map(|s| s.status());
    // Caller-owned RequestCtx bypasses the service's default deadline,
    // so the REPL re-applies --deadline-ms per attempt itself.
    let mk_deadline = || match cfg.default_deadline {
        Some(d) => svc::Deadline::within(d),
        None => svc::Deadline::none(),
    };
    // Keep the handle alive for the whole REPL; dropping it stops the
    // endpoint.
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
    if let Some(listen) = a.value("--listen") {
        return serve_listen(a, svc, listen, cfg.default_deadline);
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
fn serve_listen(
    a: &Args,
    svc: Service,
    listen: &str,
    deadline: Option<Duration>,
) -> Result<(), String> {
    let drain_ms: u64 = a.get("--drain-ms")?;
    let mut cfg = net::NetConfig::default();
    if let Some(n) = a.opt("--max-conns")? {
        cfg.max_connections = n;
    }
    if let Some(d) = deadline {
        // The wire carries the deadline as u32 milliseconds.
        cfg.default_deadline_ms = u32::try_from(d.as_millis()).map_err(|_| {
            format!(
                "bad --deadline-ms `{}`: over u32::MAX with --listen",
                d.as_millis()
            )
        })?;
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

/// `abq store build` — CSV → sharded index → atomically written
/// `ABPG` store (tmp + fsync + rename, page CRCs throughout).
fn cmd_store_build(a: &Args) -> Result<(), String> {
    let out: String = a.get("--out")?;
    let shards = a.opt::<NonZeroUsize>("--shards")?;
    let page_size = a.opt("--page-size")?.unwrap_or(store::DEFAULT_PAGE_SIZE);
    let hier = a.get::<ab::HierMode>("--hier")? != ab::HierMode::Off;
    let hybrid = a.get::<ab::HybridMode>("--hybrid")? != ab::HybridMode::Off;
    let (binned, config) = binned_and_config(a)?;
    let shards = match shards {
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
        // (ABIX v4 pages): Roaring containers for the hot bins, built
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
fn cmd_store_verify(a: &Args) -> Result<(), String> {
    let path: String = a.get("--store")?;
    let (header, report, _) =
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

/// `abq store scrub` — one scrub pass from the CLI: open the store
/// (reading and verifying every page), re-check the file, and rewrite
/// it from the verified copy if it rotted since. A file too damaged to
/// open has no verified copy; with the original CSV and build flags it
/// is repaired from source data ([`repair_store`]).
fn cmd_store_scrub(a: &Args) -> Result<(), String> {
    let path: String = a.get("--store")?;
    let p = std::path::Path::new(&path);
    let mut st = match store::Store::open(p) {
        Ok(st) => st,
        Err(store::StoreError::Io(e)) => return Err(format!("{path}: {e}")),
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

/// Repair for a store too damaged to open. Where the header, page
/// table and envelope still read, only the shards the damage
/// implicates are rebuilt from `table`, with the pyramid and exact
/// tier their sibling shards carry: a deterministic build, so a
/// bit-identical file. Otherwise the whole index is rebuilt from
/// `table` without those tiers. Either way the file keeps its shard
/// count and page size if its header and page table still verify.
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
    let repaired = audited.as_ref().and_then(|(_, _, payload)| {
        svc::ShardedIndex::from_bytes_with_repair(payload, table, config).ok()
    });
    let (index, note) = match repaired {
        Some((index, shards)) if shards.is_empty() => (index, "no shard was damaged".to_string()),
        Some((index, shards)) => (
            index,
            format!("rebuilt shard(s) {shards:?} from source data"),
        ),
        None => (
            svc::ShardedIndex::build(table, config, shards, false),
            format!(
                "rebuilt the whole index from source data ({shards} shard(s)); \
                 the file no longer reads as a sharded index, so hier pyramids \
                 and exact tiers were not rebuilt"
            ),
        ),
    };
    store::write(p, &index.to_bytes(), page_size, &store::RealIo)
        .map_err(|e| format!("{path}: rewrite: {e}"))?;
    store::Store::open(p).map_err(|e| format!("{path}: re-verify after rebuild: {e}"))?;
    println!("repaired {path}: {note}, {page_size}-byte pages");
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
        return Err("at least one weight must be nonzero".into());
    }
    Ok(mix)
}

/// `abq loadgen` — drives a live `--listen` server over real sockets
/// and prints client-observed rps + latency quantiles; with `--out
/// FILE` it also writes them, with the registry, as a JSON snapshot
/// (nothing is written otherwise).
fn cmd_loadgen(a: &Args) -> Result<(), String> {
    let conns: usize = a.get("--conns")?;
    let secs: f64 = a.get("--secs")?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err("--secs must be positive".into());
    }
    // `--rps` selects the open loop (fixed arrival rate, coordinated-
    // omission-corrected latency); otherwise closed loop with a
    // per-connection pipeline window.
    if a.on("--rps") && a.on("--pipeline") {
        return Err("pass --rps or --pipeline, not both".into());
    }
    let mode = match a.opt("--rps")? {
        Some(rps) => net::loadgen::Mode::Open { rps },
        None => net::loadgen::Mode::Closed {
            pipeline: a.get("--pipeline")?,
        },
    };
    let cfg = net::loadgen::LoadgenConfig {
        addr: a.get("--addr")?,
        conns: conns.max(1),
        duration: Duration::from_secs_f64(secs),
        mode,
        mix: a.get_with("--mix", parse_mix)?,
        seed: a.get("--seed")?,
        batch_size: a.get("--batch-size")?,
        deadline_ms: a.get("--deadline-ms")?,
    };
    let report =
        net::loadgen::run(&cfg).map_err(|e| format!("loadgen against {}: {e}", cfg.addr))?;

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
    let Some(out) = a.value("--out") else {
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
        let mut args: Vec<&str> = cmd.split(' ').collect();
        args.extend(argv);
        dispatch(&strings(&args))
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
        let cfg = |argv: &[&str]| parsed("serve", argv).and_then(|a| serve_config(&a));
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
            for flag in flags.iter().map(|f| f.name) {
                assert!(
                    entry
                        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                        .any(|t| t == flag),
                    "usage of `abq {name}` does not mention {flag}"
                );
            }
        }
    }

    #[test]
    fn hier_flag_parses_bare_and_explicit() {
        let hier =
            |argv: &[&str]| parsed("serve", argv).and_then(|a| serve_config(&a).map(|c| c.hier));
        assert_eq!(hier(&[]), Ok(ab::HierMode::Off));
        assert_eq!(hier(&["--hier"]), Ok(ab::HierMode::Auto));
        assert_eq!(hier(&["--hier", "force"]), Ok(ab::HierMode::Force));
        assert_eq!(hier(&["--hier", "off"]), Ok(ab::HierMode::Off));
        assert_eq!(hier(&["--hier", "auto"]), Ok(ab::HierMode::Auto));
        // Bare --hier followed by another flag must not eat it.
        let a = parsed("serve", &["--hier", "--listen", "127.0.0.1:0"]).unwrap();
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
        let dir = std::env::temp_dir().join("abq_test_store_hier");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        let abpg = dir.join("d.abpg");
        let mut body = String::from("v\n");
        for i in 0..300 {
            body.push_str(&format!("{}.0\n", i / 30));
        }
        std::fs::write(&csv, body).unwrap();
        run(
            "store build",
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
        run("store verify", &["--store", abpg.to_str().unwrap()]).unwrap();
        // The pyramid rides the segment: loading needs no rebuild.
        let st = store::Store::open(&abpg).unwrap();
        let idx = svc::ShardedIndex::from_bytes(st.payload()).unwrap();
        assert!(idx.shards().iter().all(|s| s.index().hier().is_some()));
    }

    #[test]
    fn hybrid_flag_parses_bare_and_explicit() {
        let hybrid =
            |argv: &[&str]| parsed("serve", argv).and_then(|a| serve_config(&a).map(|c| c.hybrid));
        assert_eq!(hybrid(&[]), Ok(ab::HybridMode::Off));
        assert_eq!(hybrid(&["--hybrid"]), Ok(ab::HybridMode::Auto));
        assert_eq!(hybrid(&["--hybrid", "force"]), Ok(ab::HybridMode::Force));
        assert_eq!(hybrid(&["--hybrid", "off"]), Ok(ab::HybridMode::Off));
        // Bare --hybrid followed by another flag must not eat it.
        let a = parsed("serve", &["--hybrid", "--listen", "127.0.0.1:0"]).unwrap();
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
            let mut args = vec![
                "--csv",
                csv.to_str().unwrap(),
                "--out",
                abpg.to_str().unwrap(),
                "--shards",
                "2",
            ];
            args.extend(hybrid);
            run("store build", &args)
        };
        let load = || {
            run("store verify", &["--store", abpg.to_str().unwrap()]).unwrap();
            let st = store::Store::open(&abpg).unwrap();
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
        run(
            "loadgen",
            &[
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
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("net.rps.rect.conns2"), "{text}");
        assert!(text.contains("net.latency_us.batch.conns2.p99"), "{text}");
        server.shutdown(std::time::Duration::from_secs(2));
    }

    #[test]
    fn loadgen_flag_validation() {
        assert_eq!(run("loadgen", &[]), Err("--addr is required".into()));
        assert_eq!(
            run(
                "loadgen",
                &["--addr", "x", "--rps", "10", "--pipeline", "2"]
            ),
            Err("pass --rps or --pipeline, not both".into())
        );
        assert!(run("loadgen", &["--addr", "x", "--secs", "0"]).is_err());
    }

    #[test]
    fn retry_flag_parses_and_bounds() {
        let retries = |argv: &[&str]| {
            parsed("serve", argv).and_then(|a| a.get::<NonZeroUsize>("--retries").map(|n| n.get()))
        };
        assert_eq!(retries(&["--retries", "7"]), Ok(7));
        assert_eq!(retries(&[]), Ok(4));
        assert!(retries(&["--retries", "0"]).is_err());
        assert!(retries(&["--retries", "x"]).is_err());
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
        run(
            "build",
            &[
                "--csv",
                csv.to_str().unwrap(),
                "--out",
                idx.to_str().unwrap(),
            ],
        )
        .unwrap();
        run("verify", &["--index", idx.to_str().unwrap()]).unwrap();
        // Flip one payload byte: verify must now fail with a
        // checksum complaint instead of succeeding.
        let mut bytes = std::fs::read(&idx).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&idx, &bytes).unwrap();
        let err = run("verify", &["--index", idx.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("corrupted"), "unexpected error: {err}");
    }

    #[test]
    fn verify_refuses_the_envelope_layouts_the_loader_refuses() {
        let dir = std::env::temp_dir().join("abq_test_verify_layout");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.absh");
        let mut bytes = tiny_service().index().to_bytes();
        std::fs::write(&path, &bytes).unwrap();
        run("verify", &["--index", path.to_str().unwrap()]).unwrap();
        // Swap the start rows of shards 1 and 2; every checksum still
        // holds, only the order is wrong.
        let extents = ab::segment_extents(&bytes).unwrap();
        let (a, b) = (extents[1].offset, extents[2].offset);
        let (first, second) = bytes.split_at_mut(b);
        first[a..a + 8].swap_with_slice(&mut second[..8]);
        std::fs::write(&path, &bytes).unwrap();
        let loader = svc::ShardedIndex::from_bytes(&bytes).err().unwrap();
        assert_eq!(loader, ab::IoError::BadShardLayout);
        let err = run("verify", &["--index", path.to_str().unwrap()]).unwrap_err();
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
        let (csv, idx) = (csv.to_str().unwrap(), idx.to_str().unwrap());
        let build = ["--csv", csv, "--out", idx, "--bins", "8", "--alpha", "16"];
        run("build", &build).unwrap();
        run("info", &["--index", idx]).unwrap();
        let query = ["--index", idx, "--where", "price=0..3", "--rows", "0..99"];
        run("query", &query).unwrap();
    }

    #[test]
    fn store_build_verify_scrub_end_to_end() {
        let dir = std::env::temp_dir().join("abq_test_store");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        let mut body = String::from("price,qty\n");
        for i in 0..400 {
            body.push_str(&format!("{}.0,{}.0\n", i % 31, (i * 5) % 11));
        }
        std::fs::write(&csv, body).unwrap();
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
            let store = ["--store", abpg];
            let mut args = build_flags.to_vec();
            args.extend(["--shards", "3", "--out", abpg, "--page-size", "256"]);
            args.extend(tiers);
            run("store build", &args).unwrap();
            run("store verify", &store).unwrap();
            let pristine = std::fs::read(abpg).unwrap();
            let header = *store::Store::open(abpg).unwrap().header();

            // Rot a byte of the last shard: verify must name the
            // damage, scrub without the CSV must refuse, scrub with it
            // must restore the exact original file.
            let mut rotted = pristine.clone();
            let at = (header.payload_offset() + header.payload_len) as usize - 10;
            rotted[at] ^= 0x40;
            std::fs::write(abpg, &rotted).unwrap();
            let err = run("store verify", &store).unwrap_err();
            assert!(err.contains("damaged"), "{name}: unexpected error: {err}");
            let err = run("store scrub", &store).unwrap_err();
            assert!(err.contains("--csv"), "{name}: unexpected error: {err}");
            let mut repair = build_flags.to_vec();
            repair.extend(store);
            run("store scrub", &repair).unwrap();
            assert!(
                std::fs::read(abpg).unwrap() == pristine,
                "{name}: repair must be bit-identical"
            );
            run("store verify", &store).unwrap();
            run("store scrub", &store).unwrap();
        }
    }

    #[test]
    fn store_flag_validation() {
        assert!(dispatch(&strings(&["store"])).is_err());
        assert!(dispatch(&strings(&["store", "nope"])).is_err());
        assert_eq!(
            run("store build", &["--csv", "x.csv"]),
            Err("--out is required".into())
        );
        assert_eq!(run("store verify", &[]), Err("--store is required".into()));
        assert_eq!(run("store scrub", &[]), Err("--store is required".into()));
    }

    #[test]
    fn malformed_command_lines_are_errors() {
        // Each of these once ran on a silent mis-read of its argv.
        let dir = std::env::temp_dir().join("abq_test_malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let (csv, idx) = (dir.join("t.csv"), dir.join("t.ab"));
        let mut body = String::from("price,qty\n");
        for i in 0..200 {
            body.push_str(&format!("{}.0,{}.0\n", i % 50, i % 9));
        }
        std::fs::write(&csv, body).unwrap();
        let (csv, idx) = (csv.to_str().unwrap(), idx.to_str().unwrap());
        run("build", &["--csv", csv, "--out", idx, "--bins", "5"]).unwrap();
        let err = |cmd: &str, argv: &[&str]| {
            let mut args: Vec<&str> = cmd.split(' ').collect();
            args.extend(argv);
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
