//! Set-up: seed → table → sharded AB (+ pyramid, + exact tier) →
//! `ABSH` bytes → crash-safe segment file → mmap open → service →
//! TCP listener → first ping. The same steps `abq store build`
//! followed by `abq serve --store --listen` take, in one process,
//! through the crates' public functions only.
//!
//! Server-side parallelism is pinned (two shards, two workers, two
//! handlers) instead of following `available_parallelism`, so fan-out
//! and every count are identical on any machine.

use crate::workload::Spec;
use ab::{HierConfig, HierMode, HybridConfig, HybridMode};
use bitmap::BinnedTable;
use net::{Client, NetConfig, NetServer};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::{RealIo, SegmentIo, Store};
use svc::{Service, ShardedIndex, SvcConfig};

/// Shards of the served index.
pub const SHARDS: usize = 2;
/// Service worker threads.
pub const SVC_THREADS: usize = 2;
/// Front-end handler threads.
pub const NET_HANDLERS: usize = 2;

/// The pinned service configuration.
pub fn svc_config(trace_requests: bool) -> SvcConfig {
    SvcConfig {
        threads: SVC_THREADS,
        shards: SHARDS,
        trace_requests,
        hier: HierMode::Auto,
        hybrid: HybridMode::Auto,
        ..SvcConfig::default()
    }
}

/// Where segment files and traces go: `benchmark/out/`, inside the
/// checkout (the benchmark writes nowhere else).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// [`RealIo`] that counts the syncs the writer issues and the time it
/// waits in them. Sync latency belongs to the sandbox's disk, not to
/// the program, and swings by a factor of twenty from one call to the
/// next on a shared guest; `setup_s` leaves the wait out and
/// `store.fsyncs` / `store.write_mb_s` carry the store's cost.
#[derive(Default)]
pub struct CountingIo {
    syncs: AtomicU64,
    sync_ns: AtomicU64,
}

impl CountingIo {
    fn timed_sync(&self, sync: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let t = Instant::now();
        let out = sync();
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.sync_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl SegmentIo for CountingIo {
    fn create(&self, path: &Path) -> io::Result<File> {
        RealIo.create(path)
    }
    fn write_all(&self, file: &mut File, buf: &[u8]) -> io::Result<()> {
        RealIo.write_all(file, buf)
    }
    fn sync_file(&self, file: &File) -> io::Result<()> {
        self.timed_sync(|| RealIo.sync_file(file))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealIo.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed_sync(|| RealIo.sync_dir(dir))
    }
}

/// Wall time of each set-up stage, in seconds, plus the sizes the
/// stages produced.
#[derive(Clone, Debug, Default)]
pub struct SetupReport {
    /// Table generation.
    pub gen_s: f64,
    /// `ShardedIndex::build`.
    pub build_s: f64,
    /// `ensure_hier`.
    pub hier_s: f64,
    /// `ensure_hybrid`.
    pub hybrid_s: f64,
    /// `to_bytes`.
    pub to_bytes_s: f64,
    /// `store::write`, syncs included.
    pub write_s: f64,
    /// Time inside `sync_file` + `sync_dir`.
    pub sync_s: f64,
    /// Syncs issued.
    pub syncs: u64,
    /// `Store::open_with` (mmap + full CRC verification).
    pub open_s: f64,
    /// `ShardedIndex::from_bytes`.
    pub from_bytes_s: f64,
    /// First datagen call → first successful ping, minus `sync_s`.
    pub total_s: f64,
    /// `ABSH` payload bytes (AB + pyramid + exact containers).
    pub payload_bytes: usize,
    /// Pyramid bytes across shards.
    pub hier_bytes: usize,
    /// Exact-container bytes across shards.
    pub hybrid_bytes: usize,
    /// Exact-backed (attribute, bin) cells across shards.
    pub bins_backed: usize,
}

/// A served system: listener, service, one connected client, and the
/// source table the oracle needs. Dropping it stops the server and
/// removes the segment file.
pub struct System {
    /// The generated table (truth).
    pub table: BinnedTable,
    /// The service behind the listener.
    pub service: Arc<Service>,
    /// The connection the load generator drives.
    pub client: Client,
    /// The open segment (kept mapped, as `abq serve` keeps it for its
    /// scrubber).
    pub store: Store,
    /// Stage timings and sizes.
    pub report: SetupReport,
    server: Option<NetServer>,
    seg_dir: PathBuf,
}

impl Drop for System {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown(Duration::from_millis(200));
        }
        let _ = std::fs::remove_dir_all(&self.seg_dir);
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The serving half of a set-up: index → service → listener on an
/// ephemeral loopback port → one connected client that has been
/// answered a ping.
pub fn serve(
    index: ShardedIndex,
    trace_requests: bool,
) -> Result<(Arc<Service>, NetServer, Client), String> {
    let service = Arc::new(Service::from_index(index, &svc_config(trace_requests)));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            handlers: NET_HANDLERS,
            ..NetConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    Ok((service, server, client))
}

/// One complete set-up of `spec` from `seed`. `tag` names the segment
/// directory so repeated set-ups in one process do not collide.
pub fn set_up(spec: &Spec, seed: u64, tag: usize) -> Result<System, String> {
    let seg_dir = out_dir().join(format!("seg-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&seg_dir).map_err(|e| format!("{}: {e}", seg_dir.display()))?;
    let path = seg_dir.join("index.abpg");
    let mut report = SetupReport::default();
    let start = Instant::now();

    let table = spec.table(seed);
    report.gen_s = secs(start);

    let t = Instant::now();
    let mut index = ShardedIndex::build(&table, &spec.ab_config(), SHARDS, false);
    report.build_s = secs(t);
    let t = Instant::now();
    index.ensure_hier(&HierConfig::default());
    report.hier_s = secs(t);
    let t = Instant::now();
    index.ensure_hybrid(&table, &HybridConfig::default());
    report.hybrid_s = secs(t);
    report.hier_bytes = index
        .shards()
        .iter()
        .filter_map(|s| s.index().hier())
        .map(|h| h.size_bytes())
        .sum();
    for (backed, _, bytes) in index.hybrid_split_stats().into_iter().flatten() {
        report.bins_backed += backed;
        report.hybrid_bytes += bytes;
    }

    let t = Instant::now();
    let payload = index.to_bytes();
    report.to_bytes_s = secs(t);
    report.payload_bytes = payload.len();
    drop(index);

    let io = CountingIo::default();
    let t = Instant::now();
    store::write(&path, &payload, store::DEFAULT_PAGE_SIZE, &io)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.write_s = secs(t);
    report.syncs = io.syncs.load(Ordering::Relaxed);
    report.sync_s = io.sync_ns.load(Ordering::Relaxed) as f64 / 1e9;
    drop(payload);

    let t = Instant::now();
    let store = Store::open_with(&path, false).map_err(|e| format!("{}: {e}", path.display()))?;
    report.open_s = secs(t);
    let t = Instant::now();
    let index = ShardedIndex::from_bytes(store.payload()).map_err(|e| e.to_string())?;
    report.from_bytes_s = secs(t);

    let (service, server, client) = serve(index, false)?;
    report.total_s = secs(start) - report.sync_s;

    Ok(System {
        table,
        service,
        client,
        store,
        report,
        server: Some(server),
        seg_dir,
    })
}
