//! The cell cap on both sides of the wire, and what the handler does
//! with a query frame whose payload does not decode.
//!
//! `MAX_CELLS` is derived from `MAX_PAYLOAD`: a request *at* the cap
//! must be a frame the server reads, answers and survives; a request
//! one cell over must be refused by the client before a byte is
//! written — the frame it would seal is over the payload bound, and
//! the server answers that with a fatal `oversized` and drops the
//! connection together with everything pipelined on it.

use ab::{AbConfig, Cell, Level};
use bitmap::{BinnedColumn, BinnedTable};
use net::frame::{
    self, kind, seal, FrameError, FrameReader, Request, Response, CELL_LEN, MAX_CELLS, MAX_PAYLOAD,
};
use net::{Client, ErrorCode, NetConfig, NetError, NetServer};
use std::sync::Arc;
use std::time::Duration;
use svc::{Service, SvcConfig};

const ROWS: usize = 200;

/// A request at the cap is 48 MiB of cells and a 16 MiB frame, several
/// times over once a server has read, copied and decoded it: the tests
/// that build one take turns.
static ONE_BIG_REQUEST_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn my_turn() -> std::sync::MutexGuard<'static, ()> {
    ONE_BIG_REQUEST_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn service() -> Arc<Service> {
    let table = BinnedTable::new(vec![BinnedColumn::new(
        "a",
        (0..ROWS).map(|i| (i % 5) as u32).collect(),
        5,
    )]);
    Arc::new(Service::build(
        &table,
        &AbConfig::new(Level::PerAttribute).with_alpha(8),
        &SvcConfig {
            threads: 2,
            shards: 2,
            ..SvcConfig::default()
        },
    ))
}

/// `n` cells that all name row `i % ROWS`'s true bin.
fn cells(n: usize) -> Request {
    Request::Cells {
        deadline_ms: 0,
        cells: (0..n)
            .map(|i| Cell::new(i % ROWS, 0, (i % ROWS % 5) as u32))
            .collect(),
    }
}

#[test]
fn the_cap_is_what_a_max_payload_frame_holds() {
    let _turn = my_turn();
    // The deadline and the count, then the cells: the cap fits the
    // payload bound and one cell more does not.
    let payload = |cells: usize| 8 + CELL_LEN * cells;
    assert!(payload(MAX_CELLS) <= MAX_PAYLOAD as usize);
    assert!(payload(MAX_CELLS + 1) > MAX_PAYLOAD as usize);
    // At the cap the sealed frame passes the reader and decodes.
    let at_cap = cells(MAX_CELLS);
    assert_eq!(frame::check_request(&at_cap), Ok(()));
    let bytes = frame::encode_request(3, &at_cap);
    let mut reader = FrameReader::new();
    reader.push(&bytes);
    let f = reader.next_frame().expect("within the bound").unwrap();
    assert_eq!(frame::decode_request(&f).unwrap(), at_cap);
    // One cell more is a frame the reader must refuse — which is why
    // no client may write it.
    let over = cells(MAX_CELLS + 1);
    assert_eq!(
        frame::check_request(&over),
        Err(FrameError::Malformed("cell count over cap"))
    );
    let bytes = frame::encode_request(4, &over);
    let mut reader = FrameReader::new();
    reader.push(&bytes[..frame::HEADER_LEN]);
    let e = reader.next_frame().unwrap_err();
    assert!(matches!(e, FrameError::Oversized(_)) && e.is_fatal());
}

#[test]
fn request_at_the_cap_is_answered_and_the_connection_survives() {
    let _turn = my_turn();
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    // Pipelined behind it: at the parent commit this ping died with
    // the connection.
    let big = c.send(&cells(MAX_CELLS)).unwrap();
    let ping = c.send(&Request::Ping).unwrap();
    let mut answered = Vec::new();
    for _ in 0..2 {
        let (id, resp) = c.recv().expect("the connection must stay up");
        match resp {
            Response::Cells { hits, degraded } => {
                assert_eq!(id, big);
                assert!(degraded.is_empty());
                assert_eq!(hits.len(), MAX_CELLS);
                assert!(hits.iter().all(|&h| h), "every cell named a true bin");
            }
            Response::Pong => assert_eq!(id, ping),
            other => panic!("unexpected {other:?}"),
        }
        answered.push(id);
    }
    answered.sort_unstable();
    assert_eq!(answered, vec![big, ping]);
    c.ping().unwrap();
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn clients_refuse_a_request_over_the_cap_before_writing() {
    let _turn = my_turn();
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    let over = cells(MAX_CELLS + 1);

    let mut c = Client::connect(server.local_addr()).unwrap();
    let pipelined = c.send(&cells(10)).unwrap();
    assert!(matches!(
        c.send(&over),
        Err(NetError::RequestTooLarge(FrameError::Malformed(_)))
    ));
    // Nothing reached the wire: the request pipelined before the
    // refusal is answered and the connection keeps serving.
    let (id, resp) = c.recv().unwrap();
    assert_eq!(id, pipelined);
    assert!(matches!(resp, Response::Cells { ref hits, .. } if hits.len() == 10));
    c.ping().unwrap();
    server.shutdown(Duration::from_secs(2));
}

/// A cell has 32 bits for its row and 16 each for its attribute and
/// bin on the wire. A client refuses a cell past any of them before
/// a byte is written — sealed, it would name another cell.
#[test]
fn clients_refuse_a_cell_over_its_wire_width_before_writing() {
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let widest = Cell::new(u32::MAX as usize, u16::MAX as usize, u32::from(u16::MAX));
    let one = |cell| Request::Cells {
        deadline_ms: 0,
        cells: vec![Cell::new(0, 0, 0), cell],
    };
    assert_eq!(frame::check_request(&one(widest)), Ok(()));
    let pipelined = c.send(&cells(10)).unwrap();
    for over in [
        Cell::new(1 << 32, 0, 0),
        Cell::new(0, 1 << 16, 0),
        Cell::new(0, 0, 1 << 16),
    ] {
        let refused = Err(FrameError::Malformed("cell field over its wire width"));
        assert_eq!(frame::check_request(&one(over)), refused, "{over:?}");
        assert!(
            matches!(
                c.send(&one(over)),
                Err(NetError::RequestTooLarge(FrameError::Malformed(_)))
            ),
            "{over:?}"
        );
    }
    // Nothing reached the wire: the one request answered is the one
    // pipelined before the refusals, and the connection keeps serving.
    let (id, resp) = c.recv().unwrap();
    assert_eq!(id, pipelined);
    assert!(matches!(resp, Response::Cells { ref hits, .. } if hits.len() == 10));
    c.ping().unwrap();
    server.shutdown(Duration::from_secs(2));
}

/// The server's side of cap + 1: a frame within the payload bound
/// whose count field claims more. It is decoded on a handler thread
/// now, and must still get the typed answer under its own id, on a
/// connection that goes on answering what was pipelined behind it.
#[test]
fn lying_cell_count_is_malformed_and_the_connection_survives() {
    let server = NetServer::bind("127.0.0.1:0", service(), NetConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let mut over_cap = Vec::new();
    over_cap.extend_from_slice(&0u32.to_le_bytes()); // deadline
    over_cap.extend_from_slice(&(MAX_CELLS as u32 + 1).to_le_bytes());
    let mut short = Vec::new();
    short.extend_from_slice(&0u32.to_le_bytes());
    short.extend_from_slice(&3u32.to_le_bytes()); // claims three cells …
    short.extend_from_slice(&[0u8; 16]); // … ships one
    c.send_raw(&seal(71, kind::CELLS, &over_cap)).unwrap();
    c.send_raw(&seal(72, kind::CELLS, &short)).unwrap();
    let good = c.send(&cells(7)).unwrap();

    let mut malformed = Vec::new();
    for _ in 0..3 {
        match c.recv().expect("the connection must stay up") {
            (
                id,
                Response::Error {
                    code, retryable, ..
                },
            ) => {
                assert_eq!(code, ErrorCode::Malformed);
                assert!(!retryable);
                malformed.push(id);
            }
            (id, Response::Cells { hits, .. }) => {
                assert_eq!(id, good);
                assert_eq!(hits, vec![true; 7]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    malformed.sort_unstable();
    assert_eq!(malformed, vec![71, 72]);
    c.ping().unwrap();
    server.shutdown(Duration::from_secs(2));
}
