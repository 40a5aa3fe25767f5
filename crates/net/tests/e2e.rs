//! End-to-end tests over real loopback sockets: differential
//! (socket answers bit-identical to in-process), pipelined-response
//! matching by request id, admission control, deadlines over the
//! wire, graceful shutdown draining, and the per-connection threads:
//! a stalled client, an idle one, and a reused slot.

use ab::{AbConfig, Level};
use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
use net::frame::{kind, Request, Response};
use net::{Client, ErrorCode, NetConfig, NetError, NetServer};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svc::{Service, SvcConfig};

fn table(n: usize) -> BinnedTable {
    BinnedTable::new(vec![
        BinnedColumn::new(
            "a",
            (0..n)
                .map(|i| (hashkit::splitmix64(i as u64) % 6) as u32)
                .collect(),
            6,
        ),
        BinnedColumn::new(
            "b",
            (0..n)
                .map(|i| (hashkit::splitmix64(!(i as u64)) % 4) as u32)
                .collect(),
            4,
        ),
    ])
}

fn service(n: usize) -> Arc<Service> {
    Arc::new(Service::build(
        &table(n),
        &AbConfig::new(Level::PerAttribute).with_alpha(8),
        &SvcConfig {
            threads: 2,
            shards: 4,
            ..SvcConfig::default()
        },
    ))
}

fn start(svc: &Arc<Service>, cfg: NetConfig) -> NetServer {
    NetServer::bind("127.0.0.1:0", Arc::clone(svc), cfg).expect("bind")
}

fn rect(a: usize, lo: u32, hi: u32, rl: usize, rh: usize) -> RectQuery {
    RectQuery::new(vec![AttrRange::new(a, lo, hi)], rl, rh)
}

#[test]
fn socket_answers_are_bit_identical_to_in_process() {
    let svc = service(500);
    let server = start(&svc, NetConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    for q in [
        rect(0, 1, 4, 0, 499),
        rect(1, 0, 2, 13, 400),
        RectQuery::new(
            vec![AttrRange::new(0, 0, 5), AttrRange::new(1, 1, 3)],
            250,
            260,
        ),
        RectQuery::new(vec![], 490, 499),
    ] {
        let wire = client.query_rect(&q, 0).unwrap();
        let local: Vec<u64> = svc
            .try_query_rect(&q)
            .unwrap()
            .value
            .into_iter()
            .map(|r| r as u64)
            .collect();
        assert_eq!(wire, local, "socket result differs for {q:?}");
    }

    // Cells: probe every row's true bin — all true over the wire.
    let t = table(500);
    let cells: Vec<ab::Cell> = (0..500)
        .step_by(7)
        .map(|r| ab::Cell::new(r, 0, t.column(0).bins[r]))
        .collect();
    let wire = client.retrieve_cells(&cells, 0).unwrap();
    let local = svc.try_retrieve_cells(&cells).unwrap().value;
    assert_eq!(wire, local);
    assert!(wire.iter().all(|&b| b), "false negative over the wire");

    // Batch matches per-query results.
    let qs = vec![rect(0, 0, 2, 0, 499), rect(1, 1, 3, 100, 250)];
    let wire = client.query_batch(&qs, 0).unwrap();
    let local: Vec<Vec<u64>> = svc
        .try_query_batch_ctx(&qs, &svc::RequestCtx::new(svc::Deadline::none()))
        .unwrap()
        .value
        .into_iter()
        .map(|rows| rows.into_iter().map(|r| r as u64).collect())
        .collect();
    assert_eq!(wire, local);

    server.shutdown(Duration::from_secs(2));
}

#[test]
fn pipelined_responses_match_by_request_id() {
    let svc = service(400);
    let server = start(&svc, NetConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Queue 24 different requests before reading anything.
    let queries: Vec<RectQuery> = (0..24)
        .map(|i| rect(i % 2, 0, (i as u32 % 3) + 1, (i * 7) % 300, 399))
        .collect();
    let mut expected = std::collections::HashMap::new();
    for q in &queries {
        let id = client
            .send(&Request::Rect {
                deadline_ms: 0,
                query: q.clone(),
            })
            .unwrap();
        let local: Vec<u64> = svc
            .try_query_rect(q)
            .unwrap()
            .value
            .into_iter()
            .map(|r| r as u64)
            .collect();
        expected.insert(id, local);
    }
    // Responses may arrive in any order; every id must appear
    // exactly once with the right (bit-identical) answer.
    for _ in 0..queries.len() {
        let (id, resp) = client.recv().unwrap();
        let want = expected.remove(&id).expect("duplicate or unknown id");
        match resp {
            Response::Rect { rows, .. } => assert_eq!(rows, want, "wrong rows for id {id}"),
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(expected.is_empty());
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn ping_schema_and_errors_over_the_wire() {
    let svc = service(300);
    let server = start(&svc, NetConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.ping().unwrap();

    let schema = client.schema().unwrap();
    assert_eq!(schema.num_rows, 300);
    assert_eq!(schema.cardinalities, vec![6, 4]);

    // An out-of-range query comes back as a typed invalid_query frame.
    let bad = rect(0, 0, 99, 0, 299);
    match client.query_rect(&bad, 0) {
        Err(NetError::Remote {
            code: ErrorCode::InvalidQuery,
            retryable: false,
            message,
        }) => assert!(message.contains("out of range"), "message: {message}"),
        other => panic!("expected invalid_query, got {other:?}"),
    }

    // WAH exactness isn't built -> typed wah_unavailable... but only
    // rect/cells/batch ride the wire; exact answers are not part of
    // ABQ/1, so nothing to assert here beyond the service contract.

    // An expired deadline surfaces as deadline_exceeded.
    match client.query_rect(&rect(0, 0, 5, 0, 299), 1) {
        Ok(_) => {} // tiny index can finish inside 1ms; fine
        Err(NetError::Remote {
            code: ErrorCode::DeadlineExceeded,
            ..
        }) => {}
        other => panic!("expected rows or deadline_exceeded, got {other:?}"),
    }
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn dispatch_overload_sheds_with_retryable_error_frame() {
    let svc = service(300);
    // One handler, queue of one: the third pipelined request must
    // shed while the first two occupy the handler + queue.
    let server = start(
        &svc,
        NetConfig {
            handlers: 1,
            handler_queue: 1,
            ..NetConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = rect(0, 0, 5, 0, 299);
    let n = 40;
    for _ in 0..n {
        client
            .send(&Request::Rect {
                deadline_ms: 0,
                query: q.clone(),
            })
            .unwrap();
    }
    let mut ok = 0;
    let mut shed = 0;
    for _ in 0..n {
        match client.recv().unwrap() {
            (_, Response::Rect { .. }) => ok += 1,
            (
                _,
                Response::Error {
                    code: ErrorCode::Overloaded,
                    retryable,
                    ..
                },
            ) => {
                assert!(retryable, "overload must be marked retryable");
                shed += 1;
            }
            (_, other) => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok + shed, n);
    assert!(ok > 0, "some requests must be served");
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn accept_overload_sheds_connections() {
    let svc = service(100);
    let server = start(
        &svc,
        NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        },
    );
    let mut first = Client::connect(server.local_addr()).unwrap();
    first.ping().unwrap(); // ensure conn 1 is fully registered
    let mut second = Client::connect(server.local_addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The shed connection is closed without a response frame.
    match second.ping() {
        Err(NetError::Io(_)) => {}
        other => panic!("expected shed connection, got {other:?}"),
    }
    // The admitted connection keeps working.
    first.ping().unwrap();
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn graceful_shutdown_drains_in_flight_responses() {
    let svc = service(400);
    let server = start(&svc, NetConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Pipeline a burst, then shut down immediately: every already-
    // dispatched request must still get its response before close.
    let q = rect(0, 0, 5, 0, 399);
    let mut sent = 0;
    for _ in 0..16 {
        client
            .send(&Request::Rect {
                deadline_ms: 0,
                query: q.clone(),
            })
            .unwrap();
        sent += 1;
    }
    server.shutdown(Duration::from_secs(5));
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut answered = 0;
    loop {
        match client.recv() {
            Ok((_, Response::Rect { .. })) => answered += 1,
            Ok((
                _,
                Response::Error {
                    code: ErrorCode::Shutdown,
                    ..
                },
            )) => answered += 1, // raced the drain flag: typed, not dropped
            Ok((_, other)) => panic!("unexpected response {other:?}"),
            Err(_) => break, // clean close after the drain
        }
    }
    assert_eq!(
        answered, sent,
        "graceful drain must answer every accepted request"
    );
}

#[test]
fn eof_after_pipelined_requests_still_answers() {
    // A client that sends requests and half-closes must still get
    // responses (drain-out on EOF).
    let svc = service(300);
    let server = start(&svc, NetConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client
        .send(&Request::Rect {
            deadline_ms: 0,
            query: rect(0, 0, 3, 0, 299),
        })
        .unwrap();
    client.close_write().unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let (got, resp) = client.recv().unwrap();
    assert_eq!(got, id);
    assert!(matches!(resp, Response::Rect { .. }));
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn unknown_kind_keeps_connection_alive() {
    let svc = service(100);
    let server = start(&svc, NetConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.send_raw(&net::frame::seal(9, 0x7A, &[])).unwrap();
    let (id, resp) = client.recv().unwrap();
    assert_eq!(id, 9);
    assert!(matches!(
        resp,
        Response::Error {
            code: ErrorCode::UnknownKind,
            ..
        }
    ));
    // Stream stayed in sync: a normal request still works.
    client.ping().unwrap();
    // And a well-formed frame with a valid kind still decodes.
    client
        .send_raw(&net::frame::seal(10, kind::PING, &[]))
        .unwrap();
    let (id, resp) = client.recv().unwrap();
    assert_eq!((id, resp), (10, Response::Pong));
    server.shutdown(Duration::from_secs(2));
}

#[test]
fn a_client_that_never_reads_stalls_only_its_own_connection() {
    // An all-rows rect over 32 768 rows answers with 256 KiB, so 64 of
    // them overrun what the two socket buffers hold and the stalled
    // connection's writer blocks in `write`. Were the handlers to
    // write, both would block there and the other client's rect would
    // never be answered.
    let rows = 1 << 15;
    let svc = service(rows);
    let server = start(&svc, NetConfig::default());
    let mut stalled = Client::connect(server.local_addr()).unwrap();
    let all = RectQuery::new(vec![], 0, rows - 1);
    for _ in 0..64 {
        stalled
            .send(&Request::Rect {
                deadline_ms: 0,
                query: all.clone(),
            })
            .unwrap();
    }
    let t = Instant::now();
    let mut other = Client::connect(server.local_addr()).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    other.ping().unwrap();
    let q = rect(0, 1, 4, 0, rows - 1);
    let want: Vec<u64> = svc
        .try_query_rect(&q)
        .unwrap()
        .value
        .into_iter()
        .map(|r| r as u64)
        .collect();
    assert_eq!(other.query_rect(&q, 0).unwrap(), want);
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "took {:?}",
        t.elapsed()
    );
    server.shutdown(Duration::from_millis(200));
}

/// This process's threads that serve `port`, by name.
#[cfg(target_os = "linux")]
fn server_threads(port: u16) -> Vec<String> {
    let suffix = format!(":{port}");
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .filter(|name| name.starts_with("net-") && name.ends_with(&suffix))
        .collect();
    names.sort();
    names
}

#[test]
fn an_idle_connection_does_not_hold_up_the_drain() {
    let svc = service(100);
    let server = start(&svc, NetConfig::default());
    let port = server.local_addr().port();
    let mut idle = Client::connect(server.local_addr()).unwrap();
    idle.ping().unwrap(); // admitted, and silent from here on
    #[cfg(target_os = "linux")]
    assert_eq!(
        server_threads(port),
        [
            format!("net-a:{port}"),
            format!("net-r:{port}"),
            format!("net-w:{port}")
        ]
    );
    let (done_tx, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown(Duration::from_millis(200));
        let _ = done_tx.send(());
    });
    done.recv_timeout(Duration::from_secs(1))
        .expect("an idle connection held the drain past 1 s");
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(
        matches!(idle.recv(), Err(NetError::Io(_))),
        "the drain must close the idle connection"
    );
    // A joined thread can stay listed for a moment after its join.
    #[cfg(target_os = "linux")]
    {
        let deadline = Instant::now() + Duration::from_secs(2);
        while !server_threads(port).is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server_threads(port), Vec::<String>::new());
    }
}

#[test]
fn a_closed_connection_frees_its_slot() {
    let svc = service(100);
    let server = start(
        &svc,
        NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        },
    );
    let mut first = Client::connect(server.local_addr()).unwrap();
    first.ping().unwrap();
    drop(first);
    // The slot comes back once the server has seen the close; a
    // reconnect before that is shed, and a leaked slot sheds them all.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut again = loop {
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match c.ping() {
            Ok(()) => break c,
            Err(NetError::Io(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("the closed connection's slot was never freed: {e}"),
        }
    };
    let rows = again.query_rect(&rect(0, 0, 5, 0, 99), 0).unwrap();
    assert_eq!(rows, (0..100).collect::<Vec<u64>>());
    server.shutdown(Duration::from_secs(2));
}
