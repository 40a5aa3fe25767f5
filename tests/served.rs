//! The `abq` binary end to end, as a deployment runs it: each test
//! builds an index file with `abq build`, spawns `abq serve` on it,
//! drives it over the socket with `net::Client`, scrapes its telemetry
//! endpoint over a plain socket, and drains it with SIGINT.
//!
//! Every answer that crosses the socket is checked against the exact
//! answer of a `bitmap::BitmapIndex` over the same table, binned the
//! way `abq` bins it: rect and batch rows are a superset of the truth,
//! and a cell naming a row's true bin is a hit. A server is killed
//! when its handle drops, so a failed test leaves none running.

use bitmap::{AttrRange, BinnedTable, BitmapIndex, Column, Encoding, EquiDepth, RectQuery, Table};
use net::{Client, Request, Response, Schema};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const ABQ: &str = env!("CARGO_BIN_EXE_abq");

/// One test's scratch directory. Every command runs in it, so command
/// lines name their files relative to it.
struct Dir(PathBuf);

impl Drop for Dir {
    fn drop(&mut self) {
        // A failed test leaves its files behind to look at.
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

impl Dir {
    /// A new directory for `test`.
    fn new(test: &str) -> Dir {
        let name = format!("abq_served_{test}_{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        Dir(dir)
    }

    fn read(&self, file: &str) -> Vec<u8> {
        std::fs::read(self.0.join(file)).unwrap()
    }

    /// Writes `columns` as the numeric CSV `abq` reads and returns the
    /// exact answers over it, binned into `bins` the way `abq` bins it.
    fn csv(&self, file: &str, columns: &[(&str, Vec<f64>)], bins: u32) -> Truth {
        let mut text = columns.iter().map(|c| c.0).collect::<Vec<_>>().join(",");
        for row in 0..columns[0].1.len() {
            let cells: Vec<String> = columns.iter().map(|c| format!("{:?}", c.1[row])).collect();
            text += &format!("\n{}", cells.join(","));
        }
        std::fs::write(self.0.join(file), text + "\n").unwrap();
        let table = Table::new(
            columns
                .iter()
                .map(|(name, values)| Column::new(*name, values.clone()))
                .collect(),
        );
        let binned = BinnedTable::from_table(&table, &EquiDepth::new(bins));
        Truth {
            exact: BitmapIndex::build(&binned, Encoding::Equality),
            binned,
        }
    }

    /// Flips one bit of the byte at `at` in `file`, in place.
    fn flip(&self, file: &str, at: usize) {
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.0.join(file))
            .unwrap();
        std::io::Seek::seek(&mut f, std::io::SeekFrom::Start(at as u64)).unwrap();
        f.write_all(&[self.read(file)[at] ^ 0x20]).unwrap();
    }

    /// `program` (its path, then leading arguments) followed by the
    /// words of `line`, to run in this directory.
    fn command(&self, program: &[&str], line: &str) -> Command {
        let mut cmd = Command::new(program[0]);
        cmd.args(&program[1..])
            .args(line.split_whitespace())
            .current_dir(&self.0);
        cmd
    }

    /// Runs `abq LINE` to completion (see [`run`]).
    fn run(&self, line: &str) -> Result<String, String> {
        run(&mut self.command(&[ABQ], line))
    }

    /// Runs `abq LINE`, which must exit 0, and returns its stdout.
    fn ok(&self, line: &str) -> String {
        self.run(line)
            .unwrap_or_else(|e| panic!("abq {line} failed: {e}"))
    }

    /// Runs `abq LINE`, which must fail naming `damage`.
    fn refused(&self, line: &str, damage: &str) {
        let err = self.run(line).expect_err("a damaged file was accepted");
        assert!(err.contains(damage), "abq {line}: {err}");
    }

    /// Spawns `abq serve LINE`.
    fn serve(&self, line: &str) -> Server {
        Server::spawn(self.command(&[ABQ, "serve"], line))
    }
}

/// Runs `cmd` to completion: its stdout if it exits 0, else its
/// stderr.
fn run(cmd: &mut Command) -> Result<String, String> {
    let out = cmd.output().unwrap();
    let text = |bytes| String::from_utf8(bytes).unwrap();
    if out.status.success() {
        Ok(text(out.stdout))
    } else {
        Err(text(out.stderr))
    }
}

/// `n` values of `f(i)`.
fn column(n: u64, f: impl Fn(u64) -> u64) -> Vec<f64> {
    (0..n).map(|i| f(i) as f64).collect()
}

/// A running `abq serve`: its stdout, and the addresses it printed.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The `--listen` address, from its `listening on …` line.
    listen: String,
    /// The `--telemetry-addr` address, from its `telemetry: http://…`
    /// line.
    telemetry: Option<String>,
}

impl Server {
    /// Spawns `serve` and reads its start-up lines up to the one that
    /// says it is serving: the listener's address.
    fn spawn(mut serve: Command) -> Server {
        let mut child = serve
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        let mut server = Server {
            child,
            stdout,
            listen: String::new(),
            telemetry: None,
        };
        loop {
            let line = server.line();
            if let Some(url) = line.strip_prefix("telemetry: http://") {
                server.telemetry = url.split('/').next().map(str::to_string);
            } else if let Some(addr) = line.strip_prefix("listening on ") {
                server.listen = addr.split(' ').next().unwrap().to_string();
                return server;
            }
        }
    }

    /// The next stdout line; the server exiting first is a failure.
    fn line(&mut self) -> String {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).unwrap();
        assert!(n > 0, "abq serve exited: {:?}", self.child.wait());
        line.trim_end().to_string()
    }

    fn listen(&self) -> &str {
        &self.listen
    }

    fn telemetry(&self) -> &str {
        let addr = self.telemetry.as_deref();
        addr.expect("serving with --telemetry-addr")
    }

    /// Drains with SIGINT, as an operator stops it, and asserts the
    /// server exits 0.
    fn drain(mut self) {
        let pid = self.child.id().to_string();
        let kill = Command::new("kill").args(["-INT", &pid]).status().unwrap();
        assert!(kill.success());
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        let status = self.child.wait().unwrap();
        assert!(status.success(), "abq serve exited {status}:\n{rest}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A no-op once the server has exited and been waited for.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `GET path` on the telemetry endpoint: the status code and body.
fn get(addr: &str, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    let code = head.split(' ').nth(1).unwrap().parse().unwrap();
    (code, body.to_string())
}

/// The body of `GET path`, which must answer 200.
fn get_ok(addr: &str, path: &str) -> String {
    let (code, body) = get(addr, path);
    assert_eq!(code, 200, "GET {path}: {body}");
    body
}

/// The value of the unlabelled series `name` in a Prometheus
/// exposition, 0 if it is absent.
fn metric(text: &str, name: &str) -> f64 {
    let value = |l: &str| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok();
    text.lines().find_map(value).unwrap_or(0.0)
}

/// The raw JSON value at `keys` in `body`, each key searched for after
/// the one before it: a number, a `"string"` or an `[array]`.
fn json<'a>(body: &'a str, keys: &[&str]) -> &'a str {
    let mut at = 0;
    for key in keys {
        let pattern = format!("\"{key}\":");
        let found = body[at..].find(&pattern);
        at += found.unwrap_or_else(|| panic!("no {keys:?} in {body}")) + pattern.len();
    }
    let value = &body[at..];
    let end = if value.starts_with('[') {
        value.find(']').unwrap() + 1
    } else {
        value.find([',', '}']).unwrap()
    };
    &value[..end]
}

fn json_num(body: &str, keys: &[&str]) -> u64 {
    json(body, keys).parse().unwrap()
}

/// The exact answers over a served table.
struct Truth {
    binned: BinnedTable,
    exact: BitmapIndex,
}

impl Truth {
    fn rows(&self, q: &RectQuery) -> Vec<u64> {
        let rows = self.exact.evaluate_rows(q);
        rows.into_iter().map(|r| r as u64).collect()
    }

    /// Whether `got` is sorted and holds every row of `q`'s answer.
    fn covered(&self, q: &RectQuery, got: &[u64]) -> bool {
        let sorted = got.windows(2).all(|w| w[0] < w[1]);
        sorted && self.rows(q).iter().all(|r| got.binary_search(r).is_ok())
    }

    /// Panics unless `resp` is a complete, healthy answer to `req`
    /// that holds the truth: rows a superset, true-bin cells hits.
    fn check(&self, req: &Request, resp: &Response) {
        match (req, resp) {
            (Request::Rect { query, .. }, Response::Rect { degraded, rows }) => {
                assert!(degraded.is_empty(), "degraded shards {degraded:?}");
                assert!(self.covered(query, rows), "false negative in {query:?}");
            }
            (Request::Batch { queries, .. }, Response::Batch { degraded, results }) => {
                assert!(degraded.is_empty(), "degraded shards {degraded:?}");
                assert_eq!(results.len(), queries.len());
                for (q, rows) in queries.iter().zip(results) {
                    assert!(self.covered(q, rows), "false negative in {q:?}");
                }
            }
            (Request::Cells { cells, .. }, Response::Cells { degraded, hits }) => {
                assert!(degraded.is_empty(), "degraded shards {degraded:?}");
                assert_eq!(hits.len(), cells.len());
                for (c, &hit) in cells.iter().zip(hits) {
                    let truth = self.binned.column(c.attribute).bins[c.row];
                    assert!(hit || c.bin != truth, "true cell {c:?} missed");
                }
            }
            _ => panic!("{req:?} answered with {resp:?}"),
        }
    }
}

/// Which request kinds a load sends.
#[derive(Clone, Copy)]
enum Mix {
    Rects,
    /// Rect, cells and batch requests in turn.
    All,
}

/// A rect over `schema`: attribute `i mod attrs`, plus the next one on
/// an odd hash, each over up to half its bins, and up to a quarter of
/// the rows from a random start.
fn rect(schema: &Schema, i: u64) -> RectQuery {
    let cards = &schema.cardinalities;
    let h = hashkit::splitmix64(i);
    let first = (i % cards.len() as u64) as usize;
    let attrs = if h & 1 == 1 && cards.len() > 1 {
        vec![first, (first + 1) % cards.len()]
    } else {
        vec![first]
    };
    let ranges = attrs
        .into_iter()
        .map(|a| {
            let lo = (hashkit::splitmix64(h ^ a as u64) % u64::from(cards[a])) as u32;
            AttrRange::new(a, lo, (lo + cards[a] / 2).min(cards[a] - 1))
        })
        .collect();
    let num_rows = schema.num_rows as usize;
    let row_lo = (h >> 8) as usize % num_rows;
    RectQuery::new(ranges, row_lo, (row_lo + num_rows / 4).min(num_rows - 1))
}

/// The rect over `(attribute, lo bin, hi bin)` ranges and the rows
/// `lo..=hi`.
fn rect_of(ranges: &[(usize, u32, u32)], (lo, hi): (usize, usize)) -> RectQuery {
    let ranges = ranges.iter().map(|&(a, l, h)| AttrRange::new(a, l, h));
    RectQuery::new(ranges.collect(), lo, hi)
}

/// The rows `addr` answers to each of `queries`, asked one at a time
/// on one connection; every answer must be complete and healthy.
fn answers(addr: &str, queries: &[RectQuery]) -> Vec<Vec<u64>> {
    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let ask = |query: &RectQuery| Request::Rect {
        deadline_ms: 0,
        query: query.clone(),
    };
    let answer = |resp| match resp {
        Ok(Response::Rect { degraded, rows }) if degraded.is_empty() => rows,
        other => panic!("{other:?}"),
    };
    queries.iter().map(|q| answer(c.call(&ask(q)))).collect()
}

/// The `i`-th request of the load: built from the served schema with
/// `splitmix64`. A cells request names its row's true bin in every
/// other cell and a random bin in the rest.
fn request(truth: &Truth, schema: &Schema, mix: Mix, i: u64) -> Request {
    let kind = match mix {
        Mix::Rects => 0,
        Mix::All => i % 3,
    };
    match kind {
        0 => Request::Rect {
            deadline_ms: 0,
            query: rect(schema, i),
        },
        1 => Request::Cells {
            deadline_ms: 0,
            cells: (0..16)
                .map(|j| {
                    let h = hashkit::splitmix64(i << 8 | j);
                    let row = (h % schema.num_rows) as usize;
                    let attr = (h >> 40) as usize % schema.cardinalities.len();
                    let bin = match j % 2 {
                        0 => truth.binned.column(attr).bins[row],
                        _ => (h >> 20) as u32 % schema.cardinalities[attr],
                    };
                    ab::Cell::new(row, attr, bin)
                })
                .collect(),
        },
        _ => Request::Batch {
            deadline_ms: 0,
            queries: (0..4).map(|j| rect(schema, i * 131 + j)).collect(),
        },
    }
}

/// Drives `conns` connections at `addr`, each sending `per_conn`
/// requests four at a time, and checks every answer against the
/// truth. Returns the requests and their answers, connection by
/// connection, in request order.
fn drive(
    addr: &str,
    truth: &Truth,
    mix: Mix,
    conns: u64,
    per_conn: u64,
) -> Vec<(Request, Response)> {
    const PIPELINE: usize = 4;
    let one_conn = |conn: u64| {
        let mut c = Client::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let schema = c.schema().unwrap();
        assert_eq!(schema.num_rows, truth.binned.num_rows() as u64);
        let cards: Vec<u32> = truth
            .binned
            .columns()
            .iter()
            .map(|c| c.cardinality)
            .collect();
        assert_eq!(schema.cardinalities, cards);
        let reqs: Vec<Request> = (0..per_conn)
            .map(|i| request(truth, &schema, mix, conn * per_conn + i))
            .collect();
        let mut answers: Vec<Option<Response>> = vec![None; reqs.len()];
        let mut in_flight = HashMap::new();
        for (i, req) in reqs.iter().enumerate() {
            if in_flight.len() == PIPELINE {
                let (id, resp) = c.recv().unwrap();
                answers[in_flight.remove(&id).unwrap()] = Some(resp);
            }
            in_flight.insert(c.send(req).unwrap(), i);
        }
        while !in_flight.is_empty() {
            let (id, resp) = c.recv().unwrap();
            answers[in_flight.remove(&id).unwrap()] = Some(resp);
        }
        let answers = answers.into_iter().map(Option::unwrap);
        let answered: Vec<(Request, Response)> = reqs.into_iter().zip(answers).collect();
        for (req, resp) in &answered {
            truth.check(req, resp);
        }
        answered
    };
    std::thread::scope(|s| {
        let conns: Vec<_> = (0..conns)
            .map(|conn| s.spawn(move || one_conn(conn)))
            .collect();
        conns.into_iter().flat_map(|c| c.join().unwrap()).collect()
    })
}

/// Three socket queries are three requests in `/metrics`, three
/// traces in `/healthz` and three span trees in `/debug/traces`, each
/// with one root, the service's stages and a kernel span; `abq trace
/// --file` renders the dump.
#[test]
fn telemetry_accounts_for_every_socket_query() {
    let dir = Dir::new("telemetry");
    let a = column(5000, |i| hashkit::splitmix64(i) % 50);
    let truth = dir.csv("t.csv", &[("a", a), ("b", column(5000, |i| i % 13))], 10);
    dir.ok("build --csv t.csv --out t.abpg --shards 8");
    let server = dir.serve(
        "--index t.abpg --threads 4 --listen 127.0.0.1:0 --telemetry-addr 127.0.0.1:0 \
         --slow-ms 0 --scrub-ms 0",
    );
    let (a, b) = (0, 1);
    let queries = [
        rect_of(&[(a, 0, 4), (b, 1, 5)], (0, 4999)),
        rect_of(&[(a, 3, 7)], (0, 4999)),
        rect_of(&[(b, 0, 2)], (0, 999)),
    ];
    // Each answer is sent after its trace is recorded.
    for (q, rows) in queries.iter().zip(answers(server.listen(), &queries)) {
        assert!(truth.covered(q, &rows), "false negative in {q:?}");
    }
    let addr = server.telemetry().to_string();

    let metrics = get_ok(&addr, "/metrics");
    for q in ["0.5", "0.95", "0.99"] {
        let series = format!("svc_latency_us_rect{{quantile=\"{q}\"}} ");
        assert!(metrics.lines().any(|l| l.starts_with(&series)), "{series}");
    }
    assert_eq!(metric(&metrics, "svc_requests"), 3.0);

    let health = get_ok(&addr, "/healthz");
    assert_eq!(json(&health, &["status"]), "\"ok\"");
    assert_eq!(json_num(&health, &["shards"]), 8);
    assert_eq!(json_num(&health, &["traces_recorded"]), 3);

    let dump = get_ok(&addr, "/debug/traces");
    let traces = obs::parse_dump(&dump).unwrap();
    assert_eq!(traces.len(), 3);
    for t in &traces {
        let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        for stage in ["svc.request", "svc.admit", "svc.shard", "svc.merge"] {
            assert!(
                names.contains(&stage),
                "trace {} has no {stage}: {names:?}",
                t.trace_id
            );
        }
        assert!(
            names.iter().any(|n| n.starts_with("ab.kernel.")),
            "{names:?}"
        );
        assert_eq!(
            t.spans.iter().filter(|s| s.parent == 0).count(),
            1,
            "{names:?}"
        );
    }
    assert_eq!(get(&addr, "/nope").0, 404);
    server.drain();

    std::fs::write(dir.0.join("traces.json"), dump).unwrap();
    let rendered = dir.ok("trace --file traces.json");
    assert!(rendered.contains("svc.request"), "{rendered}");
    assert!(rendered.contains("ab.kernel"), "{rendered}");
}

/// Pipelined rect, cells and batch requests over four connections all
/// hold the truth; the listener counts them with no protocol error;
/// SIGINT drains the server to exit 0.
#[test]
fn socket_answers_hold_the_truth_and_the_drain_exits_cleanly() {
    let dir = Dir::new("net");
    let a = column(20_000, |i| hashkit::splitmix64(i ^ 9) % 50);
    let truth = dir.csv(
        "net.csv",
        &[("a", a), ("b", column(20_000, |i| i % 13))],
        10,
    );
    dir.ok("build --csv net.csv --out net.abpg --shards 8");
    let server = dir.serve(
        "--index net.abpg --threads 4 --listen 127.0.0.1:0 \
         --telemetry-addr 127.0.0.1:0 --drain-ms 3000",
    );
    let answered = drive(server.listen(), &truth, Mix::All, 4, 30);
    assert_eq!(answered.len(), 120);

    let metrics = get_ok(server.telemetry(), "/metrics");
    let requests = metric(&metrics, "net_requests");
    assert!(requests >= 120.0, "net_requests {requests}");
    assert!(metrics.contains("\nnet_protocol_errors 0\n"), "{metrics}");
    let health = get_ok(server.telemetry(), "/healthz");
    assert!(json_num(&health, &["listener", "accepted"]) > 0, "{health}");
    server.drain();
}

/// The store CSV of the store tests: 4000 rows of two cyclic columns.
fn store_csv(dir: &Dir) -> Truth {
    let columns = [
        ("price", column(4000, |i| i % 37)),
        ("qty", column(4000, |i| (i * 7) % 13)),
    ];
    dir.csv("store.csv", &columns, 10)
}

/// `verify` refuses a rotted byte and `scrub --csv` restores the file
/// byte for byte, with the build flags the file was made with; set-up
/// threads never change a byte of a `--hier --hybrid` build, and a
/// rotted tiered file is restored too.
#[test]
fn store_cli_detects_rot_and_scrub_restores_the_file() {
    let dir = Dir::new("store_cli");
    store_csv(&dir);
    dir.ok("build --csv store.csv --out s.abpg --shards 4 --page-size 1024");
    dir.ok("verify --index s.abpg");
    let pristine = dir.read("s.abpg");

    dir.flip("s.abpg", pristine.len() - 100);
    dir.refused("verify --index s.abpg", "damaged page");
    dir.ok("scrub --index s.abpg --csv store.csv");
    assert!(
        dir.read("s.abpg") == pristine,
        "scrub is not byte-identical"
    );
    dir.ok("verify --index s.abpg");
    dir.ok("scrub --index s.abpg");

    // A pinned k: the repair rebuilds with the same one.
    dir.ok("build --csv store.csv --out k.abpg --shards 4 --page-size 1024 --k 5");
    let pristine = dir.read("k.abpg");
    assert!(pristine != dir.read("s.abpg"), "--k 5 changed no byte");
    dir.flip("k.abpg", pristine.len() - 100);
    dir.refused("verify --index k.abpg", "damaged page");
    dir.ok("scrub --index k.abpg --csv store.csv --k 5");
    assert!(dir.read("k.abpg") == pristine, "--k 5 not restored");

    let tiered = "build --csv store.csv --shards 4 --hier --hybrid --out";
    run(&mut dir.command(&["taskset", "-c", "0", ABQ], &format!("{tiered} one.abpg")))
        .unwrap_or_else(|e| panic!("taskset -c 0 abq {tiered} failed: {e}"));
    dir.ok(&format!("{tiered} all.abpg"));
    let pristine = dir.read("one.abpg");
    assert!(
        pristine == dir.read("all.abpg"),
        "one core and all cores differ"
    );

    dir.flip("one.abpg", pristine.len() - 100);
    dir.refused("verify --index one.abpg", "damaged page");
    dir.ok("scrub --index one.abpg --csv store.csv");
    assert!(dir.read("one.abpg") == pristine, "tiers not restored");
}

/// Rot in a store under a live `serve --scrub-ms 200`, with load
/// running: the scrubber repairs the file byte for byte, `/healthz`
/// never quarantines a shard or leaves `ok`, and no answer changes.
#[test]
fn live_scrub_repairs_rot_without_changing_an_answer() {
    let dir = Dir::new("store_serve");
    let truth = store_csv(&dir);
    dir.ok("build --csv store.csv --out s.abpg --shards 4 --page-size 1024");
    let pristine = dir.read("s.abpg");
    let server = dir.serve(
        "--index s.abpg --threads 4 --scrub-ms 200 --listen 127.0.0.1:0 \
         --telemetry-addr 127.0.0.1:0 --drain-ms 3000",
    );
    let (listen, telemetry) = (server.listen(), server.telemetry());
    let before = drive(listen, &truth, Mix::Rects, 2, 40);
    let health = get_ok(telemetry, "/healthz");
    assert_eq!(
        json(&health, &["store", "state"]),
        "\"healthy\"",
        "{health}"
    );

    let repaired = AtomicBool::new(false);
    let health = std::thread::scope(|s| {
        // Bounded, so a failed poll below cannot leave it running.
        let load = s.spawn(|| {
            for _ in 0..100 {
                if repaired.load(Ordering::Relaxed) {
                    break;
                }
                let during = drive(listen, &truth, Mix::Rects, 2, 40);
                assert!(during == before, "an answer changed");
            }
        });
        dir.flip("s.abpg", pristine.len() - 100);
        let mut health = String::new();
        for _ in 0..200 {
            health = get_ok(telemetry, "/healthz");
            assert_eq!(json(&health, &["quarantined"]), "[]", "{health}");
            assert_eq!(json(&health, &["status"]), "\"ok\"", "{health}");
            let healthy = json(&health, &["store", "state"]) == "\"healthy\"";
            if json_num(&health, &["store", "repairs"]) >= 1 && healthy {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        repaired.store(true, Ordering::Relaxed);
        load.join().unwrap();
        health
    });
    assert!(
        json_num(&health, &["store", "repairs"]) >= 1,
        "never repaired: {health}"
    );
    assert_eq!(
        json(&health, &["store", "state"]),
        "\"healthy\"",
        "{health}"
    );
    assert!(json_num(&health, &["store", "crc_errors"]) >= 1, "{health}");
    server.drain();
    assert!(
        dir.read("s.abpg") == pristine,
        "repair is not byte-identical"
    );
}

/// A clustered column (16 runs of 6250 rows): the stored pyramids
/// answer exactly as the flat kernel does, and prune under load.
#[test]
fn hier_pyramids_answer_as_flat_and_prune_under_load() {
    let dir = Dir::new("hier");
    let truth = dir.csv("hier.csv", &[("v", column(100_000, |i| i / 6250))], 16);
    // α = 32 keeps the base AB's cell false-positive rate low enough
    // that empty regions read as empty.
    let flags = "--bins 16 --alpha 32 --shards 2";
    let built = dir.ok(&format!("build --csv hier.csv --out h.abpg {flags} --hier"));
    assert!(built.contains("hier pyramids"), "{built}");
    dir.ok("verify --index h.abpg");

    let serve = "--index h.abpg --scrub-ms 0 --listen 127.0.0.1:0 --drain-ms 3000";
    let all = (0, 99_999);
    let queries = [
        rect_of(&[(0, 0, 0)], all),
        rect_of(&[(0, 15, 15)], all),
        rect_of(&[(0, 3, 5)], (20_000, 80_000)),
        rect_of(&[(0, 9, 9)], (50_000, 99_999)),
        rect_of(&[(0, 7, 7)], (50_000, 99_999)),
        rect_of(&[(0, 0, 15)], all),
    ];
    let flat = dir.serve(serve);
    let server = dir.serve(&format!(
        "{serve} --hier force --telemetry-addr 127.0.0.1:0"
    ));
    let hier = answers(server.listen(), &queries);
    assert!(
        answers(flat.listen(), &queries) == hier,
        "flat and hier answers differ"
    );
    flat.drain();
    assert_eq!(hier.len(), 6);
    assert!(
        hier.iter().any(|rows| rows.len() == 6250),
        "the one-cluster query"
    );

    drive(server.listen(), &truth, Mix::Rects, 2, 10);
    let metrics = get_ok(server.telemetry(), "/metrics");
    assert!(metric(&metrics, "hier_regions_pruned") > 0.0);
    assert!(metric(&metrics, "hier_rows_skipped") > 0.0);
    server.drain();
}

/// A cyclic column (`(i / 1250) mod 16`, 200 000 rows, 2 shards, so
/// answers cross a Roaring container boundary and the shard boundary)
/// on which the cost model backs all 32 (shard, bin) cells: the
/// hybrid tier answers exactly, the flat kernel a superset with false
/// positives, and the tier fires under load.
#[test]
fn hybrid_tier_answers_exactly_and_fires_under_load() {
    let dir = Dir::new("hybrid");
    let truth = dir.csv(
        "hybrid.csv",
        &[("v", column(200_000, |i| (i / 1250) % 16))],
        16,
    );
    // α = 8 keeps the base AB's false-positive rate (~2 %) high enough
    // that the exact tier has false positives to remove.
    let flags = "--bins 16 --alpha 8 --shards 2";
    let built = dir.ok(&format!(
        "build --csv hybrid.csv --out h.abpg {flags} --hybrid"
    ));
    assert!(built.contains("32 exact-backed bins"), "{built}");
    dir.ok("verify --index h.abpg");

    let serve = "--index h.abpg --scrub-ms 0 --listen 127.0.0.1:0 --drain-ms 3000";
    let all = (0, 199_999);
    let queries = [
        rect_of(&[(0, 0, 0)], all),
        rect_of(&[(0, 15, 15)], all),
        rect_of(&[(0, 3, 5)], (20_000, 80_000)),
        rect_of(&[(0, 7, 7)], (100_000, 199_999)),
        rect_of(&[(0, 0, 15)], all),
    ];
    let flat_server = dir.serve(serve);
    let server = dir.serve(&format!(
        "{serve} --hybrid force --telemetry-addr 127.0.0.1:0"
    ));
    let hybrid = answers(server.listen(), &queries);
    let flat = answers(flat_server.listen(), &queries);
    flat_server.drain();
    let counts: Vec<usize> = hybrid.iter().map(Vec::len).collect();
    assert_eq!(counts, [12_500, 12_500, 11_250, 6_250, 200_000]);
    let mut false_positives = 0;
    for (q, (flat, hybrid)) in queries.iter().zip(flat.iter().zip(&hybrid)) {
        assert_eq!(
            *hybrid,
            truth.rows(q),
            "hybrid answer to {q:?} is not exact"
        );
        assert!(truth.covered(q, flat), "flat answer to {q:?} lost a row");
        false_positives += flat.len() - hybrid.len();
    }
    assert!(
        false_positives > 0,
        "flat served no false positive for the tier to remove"
    );

    for (req, resp) in drive(server.listen(), &truth, Mix::Rects, 2, 10) {
        let (Request::Rect { query, .. }, Response::Rect { rows, .. }) = (req, resp) else {
            unreachable!("a rect load")
        };
        assert_eq!(
            rows,
            truth.rows(&query),
            "served hybrid answer is not exact"
        );
    }
    let metrics = get_ok(server.telemetry(), "/metrics");
    assert!(metric(&metrics, "planner_split_exact") > 0.0);
    assert!(metric(&metrics, "hybrid_queries") > 0.0);
    let health = get_ok(server.telemetry(), "/healthz");
    assert_eq!(
        json_num(&health, &["hybrid", "backed_shards"]),
        2,
        "{health}"
    );
    assert!(
        json_num(&health, &["hybrid", "bins_backed"]) > 0,
        "{health}"
    );
    assert!(
        json_num(&health, &["hybrid", "container_bytes"]) > 0,
        "{health}"
    );
    server.drain();
}

/// `verify` refuses a flipped byte of the index file, and the file
/// rebuilt from the CSV answers exactly as before.
#[test]
fn rebuilt_index_answers_as_before_corruption() {
    let dir = Dir::new("chaos");
    let columns = [
        ("price", column(500, |i| i % 41)),
        ("qty", column(500, |i| (i * 3) % 11)),
    ];
    dir.csv("chaos.csv", &columns, 10);
    let query = "query --index chaos.abpg --where price=0..3";
    dir.ok("build --csv chaos.csv --out chaos.abpg");
    dir.ok("verify --index chaos.abpg");
    let before = dir.ok(query);

    dir.flip("chaos.abpg", dir.read("chaos.abpg").len() - 100);
    dir.refused("verify --index chaos.abpg", "damaged page");
    dir.refused(query, "page");

    dir.ok("build --csv chaos.csv --out chaos.abpg");
    dir.ok("verify --index chaos.abpg");
    assert_eq!(dir.ok(query), before);
}

/// `abq query` into a pipe that closes after one line, and `abq info`
/// into a pipe already closed, exit 0: a reader that stops early is
/// not an error.
#[test]
fn query_and_info_exit_0_when_the_reader_closes_the_pipe() {
    let dir = Dir::new("pipe");
    dir.csv("pipe.csv", &[("v", column(50_000, |i| i % 16))], 16);
    dir.ok("build --csv pipe.csv --out p.abpg --bins 16");
    // Every row matches: 50 000 lines, far more than a pipe buffers.
    let line = "query --index p.abpg --where v=0..15 --limit 50000";
    let mut query = dir
        .command(&[ABQ], line)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(query.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.contains("50000 candidate rows"), "{first}");
    let out = query.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "abq {line}: {:?} {err}", out.status);

    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = dir
        .command(&[ABQ], "info --index p.abpg")
        .stdout(writer)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "abq info: {:?} {err}", out.status);
}

/// `serve` without `--index`, or without `--listen`, exits 2 naming
/// the missing flag.
#[test]
fn serve_requires_an_index_and_a_listener() {
    let dir = Dir::new("serve_flags");
    for (line, flag) in [
        ("serve --listen 127.0.0.1:0", "--index"),
        ("serve --index x.abpg", "--listen"),
    ] {
        let out = dir.command(&[ABQ], line).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "abq {line}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("error: {flag} is required")), "{err}");
    }
}
