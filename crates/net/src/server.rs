//! The blocking TCP front end, on plain `std::net`.
//!
//! One accept thread admits connections up to
//! [`NetConfig::max_connections`] and sheds the rest at accept. Each
//! admitted connection gets two threads:
//!
//! * a **reader** reads the socket into a [`FrameReader`], splits off
//!   frames and checks their CRCs (a frame that fails costs the
//!   connection), answers what takes no work itself — ping, schema, an
//!   unknown kind, anything while draining — and hands each query frame,
//!   still encoded, to a bounded [`svc::WorkerPool`] of handler threads.
//!   A full handler queue sheds the request with a retryable
//!   `overloaded` error *frame* instead of queueing unboundedly.
//! * a **writer** drains the connection's channel of encoded answers
//!   into the socket.
//!
//! Handlers decode the query payload, run it against the shared
//! [`svc::Service`], encode the response and push it onto the
//! connection's channel. They never touch a socket, so a client that
//! stops reading stalls only its own writer. Pipelining falls out:
//! every frame dispatches independently and responses are matched by
//! request id, not arrival order.
//!
//! The reader stops at EOF, a read error or a fatal frame error; the
//! writer exits, and the connection closes, once the reader and every
//! handler still holding the channel are done. A client may pipeline,
//! shut down its write side, and still get every answer.
//!
//! ## Graceful shutdown
//!
//! [`NetServer::shutdown`] stops accepting, answers any *newly*
//! arriving frame with a typed `shutdown` error, and waits — up to a
//! bounded drain deadline — until every frame read has had its answer
//! written, then closes every connection and joins every thread.
//! `abq serve` drives this from SIGINT/SIGTERM.

use crate::frame::{
    decode_request, encode_response, kind, ErrorCode, Frame, FrameError, FrameReader, Request,
    Response, Schema,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use svc::{Deadline, RequestCtx, Service, SvcError, WorkerPool};

/// Front-end construction parameters.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Connections beyond this are shed at accept (counted in
    /// `net.shed_at_accept`). Each admitted connection runs two
    /// threads.
    pub max_connections: usize,
    /// Handler threads between the connections and the blocking
    /// service; `0` means "same as the service's worker count".
    pub handlers: usize,
    /// Bounded handler-queue capacity; requests beyond this depth are
    /// shed with a retryable `overloaded` error frame.
    pub handler_queue: usize,
    /// Deadline applied to requests that arrive with `deadline_ms ==
    /// 0`; `0` here means no default.
    pub default_deadline_ms: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 64,
            handlers: 0,
            handler_queue: 256,
            default_deadline_ms: 0,
        }
    }
}

/// How long the drained condition must hold before a graceful drain
/// concludes. Bytes a client wrote just before requesting shutdown
/// can still be in flight through the loopback/TCP stack, or read but
/// not yet split into frames, when the drain flag lands; lingering
/// lets them arrive and get their typed `shutdown` answers instead of
/// a bare close.
const QUIESCE_LINGER: Duration = Duration::from_millis(25);

/// An encoded response frame on its way to a connection's writer.
type Outgoing = Sender<Vec<u8>>;

/// State shared by the accept, reader and writer threads and the
/// owning [`NetServer`].
struct Shared {
    service: Arc<Service>,
    pool: WorkerPool,
    cfg: NetConfig,
    /// The listening port, in thread names.
    port: u16,
    /// Frames read whose answer has not yet been written (or, on a
    /// broken connection, dropped).
    in_flight: AtomicUsize,
    /// Raised by [`NetServer::shutdown`]: stop accepting, answer new
    /// frames with `shutdown`.
    draining: AtomicBool,
    conns: Mutex<Conns>,
}

impl Shared {
    /// Every update of [`Conns`] is one insert, remove or push, so the
    /// registry is whole even if a thread panicked holding the lock.
    fn conns(&self) -> MutexGuard<'_, Conns> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The admitted connections and their threads.
#[derive(Default)]
struct Conns {
    next_id: u64,
    /// Each open connection's socket, for the drain to shut down. An
    /// entry holds one of the `max_connections` slots; the connection's
    /// writer removes it as it exits.
    open: HashMap<u64, Arc<TcpStream>>,
    /// Reader and writer threads not yet joined.
    threads: Vec<JoinHandle<()>>,
}

/// A running TCP front end. Dropping the handle without calling
/// [`NetServer::shutdown`] shuts down with a zero drain deadline.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr`, spawns the accept thread and handler pool, and
    /// starts serving `service`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<Service>,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        // Pre-touch the listener counters so they appear in /metrics
        // (and /healthz) from the first scrape, not the first error.
        for name in [
            "net.accepted",
            "net.conn_closed",
            "net.shed_at_accept",
            "net.shed_at_dispatch",
            "net.requests",
            "net.responses",
            "net.protocol_errors",
        ] {
            obs::global().counter(name).add(0);
        }

        let handlers = if cfg.handlers > 0 {
            cfg.handlers
        } else {
            service.threads()
        };
        let shared = Arc::new(Shared {
            pool: WorkerPool::new(handlers, cfg.handler_queue.max(1)),
            service,
            cfg,
            port: local_addr.port(),
            in_flight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            conns: Mutex::default(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = spawn(format!("net-a:{}", local_addr.port()), move || {
            accept_loop(&listener, &accept_shared)
        })?;
        Ok(NetServer {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests read whose answers have not yet been written.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, give in-flight requests up
    /// to `drain` to finish and flush, then close every connection and
    /// join every thread.
    pub fn shutdown(mut self, drain: Duration) {
        self.shutdown_inner(drain);
    }

    fn shutdown_inner(&mut self, drain: Duration) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        let deadline = Instant::now() + drain;
        self.shared.draining.store(true, Ordering::Relaxed);
        // A connection of our own wakes the accept thread out of
        // `accept`; it admits the backlog and returns.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = accept.join();
        }
        let mut quiet_since = None;
        loop {
            let now = Instant::now();
            if self.shared.in_flight.load(Ordering::Relaxed) > 0 {
                quiet_since = None;
            } else if now - *quiet_since.get_or_insert(now) >= QUIESCE_LINGER {
                break;
            }
            if now >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Shutting a socket down wakes its reader, idle or not; its
        // writer follows once the handlers it waits on are done.
        let threads = {
            let mut conns = self.shared.conns();
            for stream in conns.open.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            std::mem::take(&mut conns.threads)
        };
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner(Duration::ZERO);
    }
}

fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(f)
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if let Ok(stream) = stream {
            admit(shared, stream);
        }
        if shared.draining.load(Ordering::Relaxed) {
            // Connections whose handshake already completed sit in the
            // backlog, and dropping the listener would reset them.
            // Admit them, so their requests get typed `shutdown`
            // answers, then stop accepting.
            if listener.set_nonblocking(true).is_ok() {
                while let Ok((stream, _)) = listener.accept() {
                    admit(shared, stream);
                }
            }
            return;
        }
    }
}

/// Gives `stream` a slot, a writer and a reader — or sheds it.
fn admit(shared: &Arc<Shared>, stream: TcpStream) {
    let mut conns = shared.conns();
    for t in conns.threads.extract_if(.., |t| t.is_finished()) {
        let _ = t.join();
    }
    if conns.open.len() >= shared.cfg.max_connections {
        obs::counter!("net.shed_at_accept").inc();
        return; // dropping the stream closes it: the shed signal
    }
    // A socket accepted by the drain's non-blocking sweep may inherit
    // that mode on some platforms.
    if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let id = conns.next_id;
    conns.next_id += 1;
    let stream = Arc::new(stream);
    let (tx, rx) = mpsc::channel();
    let (w_shared, w_stream) = (Arc::clone(shared), Arc::clone(&stream));
    let Ok(writer) = spawn(format!("net-w:{}", shared.port), move || {
        write_loop(&w_shared, id, &w_stream, rx)
    }) else {
        return;
    };
    conns.threads.push(writer);
    let (r_shared, r_stream) = (Arc::clone(shared), Arc::clone(&stream));
    let Ok(reader) = spawn(format!("net-r:{}", shared.port), move || {
        read_loop(&r_shared, &r_stream, &tx)
    }) else {
        return; // the writer sees its channel close and exits
    };
    conns.threads.push(reader);
    conns.open.insert(id, stream);
    obs::counter!("net.accepted").inc();
}

fn read_loop(shared: &Shared, stream: &TcpStream, tx: &Outgoing) {
    let mut reader = FrameReader::new();
    let mut buf = vec![0u8; 16 * 1024];
    loop {
        let n = match (&*stream).read(&mut buf) {
            Ok(0) => return, // EOF: the writer still sends what is owed
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        obs::counter!("net.bytes_rx").add(n as u64);
        reader.push(&buf[..n]);
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => {
                    obs::counter!("net.frames_rx").inc();
                    dispatch(shared, tx, frame);
                }
                Ok(None) => break,
                Err(e) => {
                    // Fatal framing error: the stream is
                    // desynchronised. One typed error frame, then stop
                    // reading; the writer closes after sending it.
                    obs::counter!("net.protocol_errors").inc();
                    shared.in_flight.fetch_add(1, Ordering::Relaxed);
                    let resp = Response::Error {
                        code: e.code(),
                        retryable: false,
                        message: e.to_string(),
                    };
                    let _ = tx.send(encode_response(0, &resp));
                    return;
                }
            }
        }
    }
}

/// Writes each answer as it arrives. The channel closes once the
/// reader and every handler holding a sender are done; that, not the
/// peer, is what closes the connection.
fn write_loop(shared: &Shared, id: u64, stream: &TcpStream, rx: Receiver<Vec<u8>>) {
    let mut broken = false;
    for bytes in rx {
        if !broken {
            broken = (&*stream).write_all(&bytes).is_err();
            if broken {
                // Wake the reader; what is still owed is dropped.
                let _ = stream.shutdown(Shutdown::Both);
            } else {
                obs::counter!("net.bytes_tx").add(bytes.len() as u64);
                obs::counter!("net.frames_tx").inc();
            }
        }
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
    if shared.conns().open.remove(&id).is_some() {
        obs::counter!("net.conn_closed").inc();
    }
}

/// Routes one complete, CRC-verified frame. The reader itself only
/// answers what costs nothing to decode — ping, schema, an unknown
/// kind, anything at all while draining; a query frame goes to the
/// bounded handler pool still encoded, so that decoding its payload
/// (tens of µs for a large cell list) is a handler's work.
fn dispatch(shared: &Shared, tx: &Outgoing, frame: Frame) {
    obs::counter!("net.requests").inc();
    shared.in_flight.fetch_add(1, Ordering::Relaxed);
    let request_id = frame.request_id;
    let resp = if shared.draining.load(Ordering::Relaxed) {
        Response::Error {
            code: ErrorCode::Shutdown,
            retryable: false,
            message: "server draining".into(),
        }
    } else if !matches!(frame.kind, kind::RECT | kind::CELLS | kind::BATCH) {
        match decode_request(&frame) {
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Schema) => {
                let index = shared.service.index();
                Response::Schema(Schema {
                    num_rows: index.num_rows() as u64,
                    cardinalities: index.attributes().iter().map(|a| a.cardinality).collect(),
                })
            }
            Ok(_) => unreachable!("query kinds go to the handlers"),
            Err(e) => malformed_response(&e),
        }
    } else {
        let service = Arc::clone(&shared.service);
        let default_deadline_ms = shared.cfg.default_deadline_ms;
        let job_tx = tx.clone();
        let queued = shared.pool.try_execute(move || {
            // A payload that does not decode gets a typed answer under
            // its own id; the frame itself was sound, so the
            // connection lives on.
            let resp = match decode_request(&frame) {
                Ok(req) => handle(&service, req, default_deadline_ms),
                Err(e) => malformed_response(&e),
            };
            respond(&job_tx, request_id, &resp);
        });
        match queued {
            Ok(()) => return,
            // Admission control at dispatch: a typed retryable error
            // frame instead of an unbounded queue.
            Err(e) => {
                obs::counter!("net.shed_at_dispatch").inc();
                Response::Error {
                    code: ErrorCode::Overloaded,
                    retryable: true,
                    message: e.to_string(),
                }
            }
        }
    };
    respond(tx, request_id, &resp);
}

/// Encodes one answer onto its connection's writer channel. The writer
/// outlives every sender, so the send cannot fail.
fn respond(tx: &Outgoing, request_id: u64, resp: &Response) {
    obs::counter!("net.responses").inc();
    let _ = tx.send(encode_response(request_id, resp));
}

/// The typed answer to a frame whose payload does not decode. Such
/// errors are never fatal — those surface in
/// [`FrameReader::next_frame`] — so the stream stays in sync.
fn malformed_response(e: &FrameError) -> Response {
    debug_assert!(!e.is_fatal(), "fatal errors surface in next_frame");
    obs::counter!("net.protocol_errors").inc();
    Response::Error {
        code: e.code(),
        retryable: false,
        message: e.to_string(),
    }
}

/// Maps a service error onto the wire taxonomy.
fn svc_error_response(e: SvcError) -> Response {
    let code = match e {
        SvcError::Overloaded { .. } => ErrorCode::Overloaded,
        SvcError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        SvcError::Cancelled => ErrorCode::Cancelled,
        SvcError::Query(_) => ErrorCode::InvalidQuery,
        SvcError::Shutdown => ErrorCode::Shutdown,
    };
    Response::Error {
        code,
        retryable: e.is_transient(),
        message: e.to_string(),
    }
}

fn deadline_for(deadline_ms: u32, default_ms: u32) -> Deadline {
    let ms = if deadline_ms > 0 {
        deadline_ms
    } else {
        default_ms
    };
    if ms == 0 {
        Deadline::none()
    } else {
        Deadline::within(Duration::from_millis(u64::from(ms)))
    }
}

fn degraded_shards(d: &Option<svc::Degraded>) -> Vec<u32> {
    d.as_ref()
        .map(|d| d.shards.iter().map(|&s| s as u32).collect())
        .unwrap_or_default()
}

/// Runs one query request on a handler thread. The net request is the
/// trace root: when the service traces requests, the wire request
/// opens a caller-owned `net.<kind>` trace that the service's
/// `svc.request` span lands under, and finishes it into the flight
/// recorder — so a socket request shows up as one tree, not two.
fn handle(service: &Service, req: Request, default_deadline_ms: u32) -> Response {
    let kind = req.label();
    let trace = if service.tracing_enabled() {
        obs::TraceCtx::start(match kind {
            "rect" => "net.rect",
            "cells" => "net.cells",
            _ => "net.batch",
        })
    } else {
        obs::TraceCtx::disabled()
    };
    let start = Instant::now();
    let resp = match req {
        Request::Rect { deadline_ms, query } => {
            let ctx = RequestCtx::traced(
                deadline_for(deadline_ms, default_deadline_ms),
                trace.clone(),
            );
            match service.try_query_rect_ctx(&query, &ctx) {
                Ok(r) => Response::Rect {
                    degraded: degraded_shards(&r.degraded),
                    rows: r.value.into_iter().map(|v| v as u64).collect(),
                },
                Err(e) => svc_error_response(e),
            }
        }
        Request::Cells { deadline_ms, cells } => {
            let ctx = RequestCtx::traced(
                deadline_for(deadline_ms, default_deadline_ms),
                trace.clone(),
            );
            match service.try_retrieve_cells_ctx(&cells, &ctx) {
                Ok(r) => Response::Cells {
                    degraded: degraded_shards(&r.degraded),
                    hits: r.value,
                },
                Err(e) => svc_error_response(e),
            }
        }
        Request::Batch {
            deadline_ms,
            queries,
        } => {
            let ctx = RequestCtx::traced(
                deadline_for(deadline_ms, default_deadline_ms),
                trace.clone(),
            );
            match service.try_query_batch_ctx(&queries, &ctx) {
                Ok(r) => Response::Batch {
                    degraded: degraded_shards(&r.degraded),
                    results: r
                        .value
                        .into_iter()
                        .map(|rows| rows.into_iter().map(|v| v as u64).collect())
                        .collect(),
                },
                Err(e) => svc_error_response(e),
            }
        }
        Request::Ping | Request::Schema => unreachable!("answered inline by the reader"),
    };
    let us = start.elapsed().as_micros() as u64;
    match kind {
        "rect" => obs::sketch!("net.server_us.rect").record(us),
        "cells" => obs::sketch!("net.server_us.cells").record(us),
        _ => obs::sketch!("net.server_us.batch").record(us),
    }
    if trace.enabled() {
        service.finish_trace(&trace);
    }
    resp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_resolution_prefers_request_over_default() {
        assert!(deadline_for(0, 0).remaining().is_none());
        assert!(deadline_for(0, 50).remaining().unwrap() <= Duration::from_millis(50));
        let d = deadline_for(500, 50).remaining().unwrap();
        assert!(d > Duration::from_millis(100), "request deadline must win");
    }

    #[test]
    fn svc_errors_map_to_typed_frames() {
        let r = svc_error_response(SvcError::Overloaded {
            depth: 4,
            capacity: 4,
        });
        assert!(matches!(
            r,
            Response::Error {
                code: ErrorCode::Overloaded,
                retryable: true,
                ..
            }
        ));
        let r = svc_error_response(SvcError::DeadlineExceeded);
        assert!(matches!(
            r,
            Response::Error {
                code: ErrorCode::DeadlineExceeded,
                retryable: false,
                ..
            }
        ));
    }
}
