//! Scrub-under-load: rot a byte of the segment store **on disk**
//! while a service built from that store is answering queries, and
//! drive the detect → degrade → repair → healthy lifecycle. The
//! contract at every step:
//!
//! * detection — the scrubber finds the flipped page;
//! * the served index is untouched — it was decoded from the store's
//!   verified copy, so every answer stays **bit-identical** to the
//!   pre-rot answer, no shard is quarantined and no response is
//!   marked degraded;
//! * degradation — only the file is: `/healthz` reads
//!   `"status":"ok"` with the store block `degraded` until a rewrite
//!   succeeds, and a failed rewrite is retried on the next pass;
//! * repair — the file is rewritten from the verified copy through
//!   the crash-safe writer and equals the pre-rot bytes.

use ab::{AbConfig, Cell, Level};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use svc::chaos::{points, ChaosSegmentIo, Fault, FaultPlan, FaultRule};
use svc::scrub::{scrub_pass, PassOutcome, Scrubber, StoreState, StoreStatus};
use svc::{Service, ShardedIndex, SvcConfig, TelemetryServer};

const ROWS: usize = 600;
const SHARDS: usize = 4;
const PAGE: u32 = 256;

fn table() -> BinnedTable {
    BinnedTable::new(vec![
        BinnedColumn::new("a", (0..ROWS).map(|i| (i % 5) as u32).collect(), 5),
        BinnedColumn::new("b", (0..ROWS).map(|i| ((i * 7) % 3) as u32).collect(), 3),
    ])
}

fn cfg() -> AbConfig {
    AbConfig::new(Level::PerAttribute).with_alpha(8)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svc-scrub-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn flip_on_disk(path: &Path, offset: u64, xor: u8) {
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&[b[0] ^ xor]).unwrap();
    f.sync_all().unwrap();
}

fn the_query() -> RectQuery {
    RectQuery::new(vec![AttrRange::new(0, 1, 2)], 0, ROWS - 1)
}

/// One cell per row, across every shard.
fn the_cells() -> Vec<Cell> {
    (0..ROWS).map(|r| Cell::new(r, 0, (r % 3) as u32)).collect()
}

fn healthz(addr: std::net::SocketAddr) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    resp.split_once("\r\n\r\n").unwrap().1.to_string()
}

#[test]
fn detect_degrade_repair_recover_under_live_traffic() {
    let dir = tmpdir("lifecycle");
    let path = dir.join("idx.seg");
    let payload = ShardedIndex::build(&table(), &cfg(), SHARDS, false).to_bytes();
    store::write(&path, &payload, PAGE, &store::RealIo).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    let mut st = store::Store::open(&path).unwrap();
    let service = Arc::new(Service::from_index(
        ShardedIndex::from_bytes(st.payload()).unwrap(),
        &SvcConfig {
            threads: 2,
            shards: SHARDS,
            ..SvcConfig::default()
        },
    ));
    let health = service.health_arc();
    let status = Arc::new(StoreStatus::default());
    let telemetry = TelemetryServer::bind_with_store(
        "127.0.0.1:0",
        Arc::clone(&health),
        Some(Arc::clone(&status)),
    )
    .unwrap();

    // The answers before any rot: the AB superset of rows with
    // a % 5 in 1..=2, and the cells' maybe-present flags.
    let rows = service.try_query_rect(&the_query()).unwrap().value;
    for r in (0..ROWS).filter(|r| (1..=2).contains(&(r % 5))) {
        assert!(rows.contains(&r), "false negative on row {r}");
    }
    let cells = service.try_retrieve_cells(&the_cells()).unwrap().value;

    // Live traffic: hammer the service from two threads for the whole
    // lifecycle; every single answer must equal the pre-rot one.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic: Vec<_> = (0..2)
        .map(|t| {
            let (svc, stop) = (Arc::clone(&service), Arc::clone(&stop));
            let (rows, cells) = (rows.clone(), cells.clone());
            std::thread::spawn(move || {
                let mut answers = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let resp = svc.try_query_rect(&the_query()).unwrap();
                    assert!(!resp.is_degraded(), "traffic thread {t}: degraded rect");
                    assert_eq!(resp.value, rows, "traffic thread {t}: rect changed");
                    let resp = svc.try_retrieve_cells(&the_cells()).unwrap();
                    assert!(!resp.is_degraded(), "traffic thread {t}: degraded cells");
                    assert_eq!(resp.value, cells, "traffic thread {t}: cells changed");
                    answers += 1;
                }
                answers
            })
        })
        .collect();

    // Pass 1: clean, healthy.
    let out = scrub_pass(&mut st, &status, &store::RealIo).unwrap();
    assert_eq!(out, PassOutcome::Clean);
    assert_eq!(status.state(), StoreState::Healthy);
    assert!(healthz(telemetry.local_addr()).contains("\"state\":\"healthy\""));

    // Rot one byte in the middle of shard 2's extent, on disk, while
    // traffic flows.
    let e = st.extents()[2];
    let victim = st.header().payload_offset() + (e.offset + e.len / 2) as u64;
    flip_on_disk(&path, victim, 0x10);
    let bad_page = victim / PAGE as u64;

    // Pass 2, with the rewrite failing at `store.write`: the file is
    // degraded and stays rotted, the service is not.
    let plan = Arc::new(
        FaultPlan::new(3).with_rule(FaultRule::new(points::STORE_WRITE, Fault::Eio).max_fires(1)),
    );
    let chaos = ChaosSegmentIo::new(Arc::clone(&plan));
    let out = scrub_pass(&mut st, &status, &chaos).unwrap();
    assert_eq!(out, PassOutcome::Degraded(vec![bad_page]));
    assert_eq!(plan.fires(points::STORE_WRITE), 1);
    assert_eq!(status.state(), StoreState::Degraded);
    assert_eq!(status.repair_failures(), 1);
    assert_eq!(status.repairs(), 0);
    assert!(status.crc_errors() >= 1);
    assert!(health.all_healthy(), "rot on disk must quarantine nothing");
    assert_ne!(std::fs::read(&path).unwrap(), pristine);
    let body = healthz(telemetry.local_addr());
    assert!(body.contains("\"status\":\"ok\""), "body: {body}");
    assert!(body.contains("\"quarantined\":[]"), "body: {body}");
    assert!(body.contains("\"state\":\"degraded\""), "body: {body}");
    assert!(body.contains("\"repair_failures\":1"), "body: {body}");
    let resp = service.try_query_rect(&the_query()).unwrap();
    assert!(!resp.is_degraded());
    assert_eq!(resp.value, rows);

    // Pass 3, the fault spent: rewrite from the verified copy, verified
    // reopen — and the file is the pre-rot bytes.
    let out = scrub_pass(&mut st, &status, &chaos).unwrap();
    assert_eq!(out, PassOutcome::Repaired(vec![bad_page]));
    assert_eq!(status.state(), StoreState::Healthy);
    assert_eq!(status.repairs(), 1);
    assert_eq!(status.repair_failures(), 1);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        pristine,
        "repair must be bit-identical"
    );
    assert!(st.scrub().unwrap().clean());
    let body = healthz(telemetry.local_addr());
    assert!(body.contains("\"status\":\"ok\""), "body: {body}");
    assert!(body.contains("\"state\":\"healthy\""), "body: {body}");
    assert!(body.contains("\"repairs\":1"), "body: {body}");

    stop.store(true, Ordering::Release);
    for t in traffic {
        let answers = t.join().unwrap();
        assert!(answers > 0, "traffic thread never got an answer");
    }
    assert!(health.all_healthy());
    telemetry.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn background_scrubber_repairs_without_help() {
    let dir = tmpdir("background");
    let path = dir.join("idx.seg");
    let payload = ShardedIndex::build(&table(), &cfg(), SHARDS, false).to_bytes();
    store::write(&path, &payload, PAGE, &store::RealIo).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let st = store::Store::open(&path).unwrap();
    let victim = st.header().payload_offset() + st.header().payload_len / 3;

    let scrubber = Scrubber::spawn(st, Duration::from_millis(10), Arc::new(store::RealIo)).unwrap();
    let status = scrubber.status();

    // Let it complete at least one clean pass, then rot the file.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while status.passes() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    flip_on_disk(&path, victim, 0x44);
    while status.repairs() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(status.repairs(), 1, "scrubber never repaired");
    assert_eq!(status.state(), StoreState::Healthy);
    assert_eq!(std::fs::read(&path).unwrap(), pristine);
    scrubber.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
