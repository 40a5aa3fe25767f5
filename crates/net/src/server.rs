//! The non-blocking TCP front end.
//!
//! One event-loop thread owns a [`crate::sys::Poller`] (epoll on Linux,
//! poll(2) fallback), the listening socket, and every connection's
//! read/write buffers. Frames are split off and CRC-checked
//! incrementally per connection (pipelining falls out for free: every
//! complete frame dispatches independently and responses are matched
//! by request id, not arrival order), and each query frame becomes one
//! job on a bounded [`svc::WorkerPool`] of handler threads — so the
//! service's admission-control story extends to the wire: a full
//! handler queue sheds the request with a retryable `overloaded` error
//! *frame* instead of queueing unboundedly, and connections beyond
//! [`NetConfig::max_connections`] are shed at accept.
//!
//! The loop is the one thread every connection shares, so it does only
//! what it must: socket reads and writes, frame boundaries and the
//! checksum (a corrupt frame costs the connection, which only the loop
//! can close), and the answers that need no work (ping, schema, unknown
//! kind, `shutdown` while draining). Handlers never touch sockets. They
//! decode the query payload, run it against the shared
//! [`svc::Service`], encode the response, push it onto a shared outbox,
//! and nudge the loop through a wake socketpair; the loop owns all
//! writes (with partial-write carry) so a slow client can never block a
//! handler thread.
//!
//! ## Graceful shutdown
//!
//! [`NetServer::shutdown`] stops accepting, answers any *newly*
//! arriving frame with a typed `shutdown` error, and waits — up to a
//! bounded drain deadline — for in-flight requests to finish and
//! their responses to flush before closing connections and joining
//! the loop. `abq serve` drives this from SIGINT/SIGTERM.

use crate::frame::{
    decode_request, encode_response, kind, ErrorCode, Frame, FrameError, FrameReader, Request,
    Response, Schema,
};
use crate::sys::{Interest, Poller};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use svc::{Deadline, RequestCtx, Service, SvcError, WorkerPool};

/// Front-end construction parameters.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Connections beyond this are shed at accept (counted in
    /// `net.shed_at_accept`).
    pub max_connections: usize,
    /// Handler threads bridging the loop to the blocking service;
    /// `0` means "same as the service's worker count".
    pub handlers: usize,
    /// Bounded handler-queue capacity; requests beyond this depth are
    /// shed with a retryable `overloaded` error frame.
    pub handler_queue: usize,
    /// Deadline applied to requests that arrive with `deadline_ms ==
    /// 0`; `0` here means no default.
    pub default_deadline_ms: u32,
    /// Use the portable poll(2) backend even where epoll exists.
    pub force_poll: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 1024,
            handlers: 0,
            handler_queue: 256,
            default_deadline_ms: 0,
            force_poll: false,
        }
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long the drained condition must hold before a graceful drain
/// concludes. Bytes a client wrote just before requesting shutdown
/// can still be in flight through the loopback/TCP stack when the
/// drain flag lands; lingering a few poll rounds lets them arrive and
/// get their typed `shutdown` answers instead of a bare close.
const QUIESCE_LINGER: Duration = Duration::from_millis(25);

/// State shared between the event loop, handler threads, and the
/// owning [`NetServer`] handle.
struct Shared {
    /// Encoded response frames awaiting the loop, tagged by
    /// connection token. Dead tokens are silently discarded.
    outbox: Mutex<Vec<(u64, Vec<u8>)>>,
    /// Writing one byte here wakes the loop out of `wait`.
    wake_tx: Mutex<UnixStream>,
    /// Requests dispatched to handlers whose responses have not yet
    /// been pushed to the outbox.
    in_flight: AtomicUsize,
    /// Raised by [`NetServer::shutdown`]: stop accepting, answer new
    /// frames with `shutdown`, drain, exit.
    draining: AtomicBool,
    /// Drain budget (ms) set before `draining`; the loop computes its
    /// absolute deadline when it first observes the flag.
    drain_ms: AtomicU64,
}

impl Shared {
    fn wake(&self) {
        let _ = self.wake_tx.lock().unwrap().write(&[1]);
    }

    fn push_response(&self, token: u64, bytes: Vec<u8>) {
        self.outbox.lock().unwrap().push((token, bytes));
        self.wake();
    }
}

/// One accepted connection's loop-side state.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Encoded-but-unsent response bytes ...
    out: Vec<u8>,
    /// ... and how far into them the kernel has accepted.
    out_at: usize,
    /// Currently registered with write interest.
    want_write: bool,
    /// Stop reading and close once `out` drains (fatal frame error or
    /// peer EOF).
    closing: bool,
    /// Requests from this connection still out at handler threads.
    /// A half-closed (EOF) connection is kept alive until these come
    /// back — a client may pipeline, shut down its write side, and
    /// still expect every answer.
    pending: usize,
}

impl Conn {
    fn out_pending(&self) -> usize {
        self.out.len() - self.out_at
    }
}

/// A running TCP front end. Dropping the handle without calling
/// [`NetServer::shutdown`] shuts down with a zero drain deadline.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    backend: &'static str,
    join: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr`, spawns the event loop and handler pool, and
    /// starts serving `service`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<Service>,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let mut poller = Poller::new(cfg.force_poll)?;
        let backend = poller.backend();
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;

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

        let shared = Arc::new(Shared {
            outbox: Mutex::new(Vec::new()),
            wake_tx: Mutex::new(wake_tx),
            in_flight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            drain_ms: AtomicU64::new(0),
        });
        let handlers = if cfg.handlers > 0 {
            cfg.handlers
        } else {
            service.threads()
        };
        let pool = WorkerPool::new(handlers, cfg.handler_queue.max(1));
        let loop_shared = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name("net-loop".into())
            .spawn(move || {
                EventLoop {
                    poller,
                    listener,
                    wake_rx,
                    service,
                    pool,
                    shared: loop_shared,
                    cfg,
                    conns: HashMap::new(),
                    next_token: FIRST_CONN_TOKEN,
                    drain_deadline: None,
                    drained_since: None,
                }
                .run();
            })?;
        Ok(NetServer {
            shared,
            local_addr,
            backend,
            join: Some(join),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Which readiness backend the loop runs on (`"epoll"`/`"poll"`).
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// Requests currently dispatched to handlers.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, give in-flight requests up
    /// to `drain` to finish and flush, then close everything and join
    /// the loop.
    pub fn shutdown(mut self, drain: Duration) {
        self.shutdown_inner(drain);
    }

    fn shutdown_inner(&mut self, drain: Duration) {
        if let Some(join) = self.join.take() {
            self.shared.drain_ms.store(
                drain.as_millis().min(u64::MAX as u128) as u64,
                Ordering::Relaxed,
            );
            self.shared.draining.store(true, Ordering::Relaxed);
            self.shared.wake();
            let _ = join.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner(Duration::ZERO);
    }
}

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    service: Arc<Service>,
    pool: WorkerPool,
    shared: Arc<Shared>,
    cfg: NetConfig,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    drain_deadline: Option<Instant>,
    drained_since: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            let draining = self.shared.draining.load(Ordering::Relaxed);
            if draining && self.drain_deadline.is_none() {
                // First sight of the flag: stop accepting and start
                // the bounded drain clock.
                // Connections whose handshake already completed sit
                // in the accept backlog; dropping the listener would
                // RST them. Admit them first so their requests get
                // typed `shutdown` answers, then stop accepting.
                self.accept_ready();
                let _ = self.poller.deregister(self.listener.as_raw_fd());
                let budget = Duration::from_millis(self.shared.drain_ms.load(Ordering::Relaxed));
                self.drain_deadline = Some(Instant::now() + budget);
                // Requests already sitting in kernel socket buffers
                // deserve an answer (typed `shutdown` frames) before
                // the drained check can declare victory — sweep-read
                // every connection once instead of waiting for a
                // readiness event that the break below would outrun.
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for t in tokens {
                    self.conn_ready(t, true, false);
                }
                self.flush_outbox();
            }
            if let Some(deadline) = self.drain_deadline {
                // in_flight is decremented only *after* the response
                // lands in the outbox, so this ordering can't lose a
                // response that is still being encoded.
                let drained = self.shared.in_flight.load(Ordering::Relaxed) == 0
                    && self.shared.outbox.lock().unwrap().is_empty()
                    && self.conns.values().all(|c| c.out_pending() == 0);
                if drained {
                    // Drained must hold for a linger window: answers
                    // can flush out while the client's final requests
                    // are still in flight toward us.
                    let since = *self.drained_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= QUIESCE_LINGER || Instant::now() >= deadline {
                        break;
                    }
                } else {
                    self.drained_since = None;
                    if Instant::now() >= deadline {
                        break;
                    }
                }
            }
            let timeout = self.drain_deadline.map(|d| {
                d.saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(5))
            });
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            let batch = std::mem::take(&mut events);
            for ev in batch {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake(),
                    token => self.conn_ready(token, ev.readable, ev.writable),
                }
            }
            self.flush_outbox();
        }
        // Drain deadline reached (or everything finished): close all.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            self.close_conn(t);
        }
        // Handler pool Drop runs remaining queued jobs' drop glue and
        // joins its threads; any stragglers push to an outbox no one
        // reads, which is fine.
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= self.cfg.max_connections {
                        obs::counter!("net.shed_at_accept").inc();
                        drop(stream); // immediate close = shed signal
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    obs::counter!("net.accepted").inc();
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            reader: FrameReader::new(),
                            out: Vec::new(),
                            out_at: 0,
                            want_write: false,
                            closing: false,
                            pending: 0,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Moves handler-produced responses into their connections' write
    /// buffers and flushes what the kernel will take.
    fn flush_outbox(&mut self) {
        let ready: Vec<(u64, Vec<u8>)> = std::mem::take(&mut *self.shared.outbox.lock().unwrap());
        let mut touched: Vec<u64> = Vec::new();
        for (token, bytes) in ready {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.out.extend_from_slice(&bytes);
                conn.pending = conn.pending.saturating_sub(1);
                obs::counter!("net.frames_tx").inc();
                if !touched.contains(&token) {
                    touched.push(token);
                }
            }
        }
        for token in touched {
            self.flush_conn(token);
        }
    }

    /// Writes as much of a connection's buffer as the kernel accepts,
    /// keeping write interest registered only while bytes remain.
    fn flush_conn(&mut self, token: u64) {
        let mut close = false;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.out_at < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_at..]) {
                Ok(0) => {
                    close = true;
                    break;
                }
                Ok(n) => {
                    conn.out_at += n;
                    obs::counter!("net.bytes_tx").add(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    close = true;
                    break;
                }
            }
        }
        if !close {
            if conn.out_at >= conn.out.len() {
                conn.out.clear();
                conn.out_at = 0;
                if conn.closing && conn.pending == 0 {
                    close = true;
                } else if conn.want_write {
                    conn.want_write = false;
                    let fd = conn.stream.as_raw_fd();
                    let _ = self.poller.reregister(fd, token, Interest::READ);
                }
            } else if !conn.want_write {
                conn.want_write = true;
                let fd = conn.stream.as_raw_fd();
                let _ = self.poller.reregister(fd, token, Interest::READ_WRITE);
            }
        }
        if close {
            self.close_conn(token);
        }
    }

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool) {
        if writable {
            self.flush_conn(token);
        }
        if !readable || !self.conns.contains_key(&token) {
            return;
        }
        // Read everything available (level-triggered on both
        // backends, but draining now saves a wait round-trip).
        let mut eof = false;
        let mut read_error = false;
        let mut buf = [0u8; 16 * 1024];
        {
            let conn = self.conns.get_mut(&token).unwrap();
            if conn.closing {
                return; // no longer reading; waiting for out to drain
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        obs::counter!("net.bytes_rx").add(n as u64);
                        conn.reader.push(&buf[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        read_error = true;
                        break;
                    }
                }
            }
        }
        if read_error {
            self.close_conn(token);
            return;
        }
        // Extract and dispatch complete frames. Re-borrow per frame:
        // dispatch needs `&mut self` for shed bookkeeping.
        loop {
            let next = match self.conns.get_mut(&token) {
                Some(conn) => conn.reader.next_frame(),
                None => return,
            };
            match next {
                Ok(Some(f)) => {
                    obs::counter!("net.frames_rx").inc();
                    self.dispatch(token, f);
                }
                Ok(None) => break,
                Err(e) => {
                    // Fatal framing error: stream desynchronised.
                    // One typed error frame, then close after flush.
                    obs::counter!("net.protocol_errors").inc();
                    let resp = Response::Error {
                        code: e.code(),
                        retryable: false,
                        message: e.to_string(),
                    };
                    let bytes = encode_response(0, &resp);
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.out.extend_from_slice(&bytes);
                        conn.closing = true;
                        obs::counter!("net.frames_tx").inc();
                    }
                    self.flush_conn(token);
                    return;
                }
            }
        }
        if eof {
            let drain_out = self
                .conns
                .get(&token)
                .is_some_and(|c| c.out_pending() > 0 || c.pending > 0);
            if drain_out {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.closing = true;
                }
            } else {
                self.close_conn(token);
            }
        }
    }

    /// Routes one complete, CRC-verified frame. The loop itself only
    /// answers what costs nothing to decode — ping, schema, an unknown
    /// kind, anything at all while draining; a query frame goes to the
    /// bounded handler pool still encoded, so that decoding its
    /// payload (tens of µs for a large cell list) is a handler's work
    /// and never holds up the other connections.
    fn dispatch(&mut self, token: u64, frame: Frame) {
        obs::counter!("net.requests").inc();
        let request_id = frame.request_id;
        if self.shared.draining.load(Ordering::Relaxed) {
            self.respond_inline(
                token,
                request_id,
                Response::Error {
                    code: ErrorCode::Shutdown,
                    retryable: false,
                    message: "server draining".into(),
                },
            );
            return;
        }
        if !matches!(frame.kind, kind::RECT | kind::CELLS | kind::BATCH) {
            let resp = match decode_request(&frame) {
                Ok(Request::Ping) => Response::Pong,
                Ok(Request::Schema) => {
                    let index = self.service.index();
                    Response::Schema(Schema {
                        num_rows: index.num_rows() as u64,
                        cardinalities: index.attributes().iter().map(|a| a.cardinality).collect(),
                    })
                }
                Ok(_) => unreachable!("query kinds go to the handlers"),
                Err(e) => malformed_response(&e),
            };
            self.respond_inline(token, request_id, resp);
            return;
        }
        let shared = Arc::clone(&self.shared);
        let service = Arc::clone(&self.service);
        let default_deadline_ms = self.cfg.default_deadline_ms;
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        let job_shared = Arc::clone(&shared);
        if let Err(e) = self.pool.try_execute(move || {
            // A payload that does not decode gets the same typed
            // answer, under its own id, the loop used to give; the
            // frame itself was sound, so the connection lives on.
            let resp = match decode_request(&frame) {
                Ok(req) => handle(&service, req, default_deadline_ms),
                Err(e) => malformed_response(&e),
            };
            let bytes = encode_response(request_id, &resp);
            obs::counter!("net.responses").inc();
            // Push first, decrement second: the drain check reads
            // in_flight==0 as "every response is in the outbox or
            // beyond".
            job_shared.push_response(token, bytes);
            job_shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        }) {
            // Admission control at dispatch: typed retryable error
            // frame instead of an unbounded queue.
            shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            obs::counter!("net.shed_at_dispatch").inc();
            self.respond_inline(
                token,
                request_id,
                Response::Error {
                    code: ErrorCode::Overloaded,
                    retryable: true,
                    message: e.to_string(),
                },
            );
        } else if let Some(conn) = self.conns.get_mut(&token) {
            // Keep the connection alive (even through peer EOF) until
            // this response makes it back.
            conn.pending += 1;
        }
    }

    fn respond_inline(&mut self, token: u64, request_id: u64, resp: Response) {
        obs::counter!("net.responses").inc();
        let bytes = encode_response(request_id, &resp);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.out.extend_from_slice(&bytes);
            obs::counter!("net.frames_tx").inc();
        }
        self.flush_conn(token);
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            obs::counter!("net.conn_closed").inc();
        }
    }
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
        SvcError::RetriesExhausted { .. } => ErrorCode::RetriesExhausted,
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
        Request::Ping | Request::Schema => unreachable!("answered inline by the loop"),
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
        let r = svc_error_response(SvcError::RetriesExhausted { attempts: 3 });
        assert!(matches!(
            r,
            Response::Error {
                code: ErrorCode::RetriesExhausted,
                retryable: false,
                ..
            }
        ));
    }
}
