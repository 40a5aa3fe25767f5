//! A blocking client for the `ABQ/2` protocol — used by tests and
//! tooling. Pipelining is explicit:
//! [`Client::send`] queues a request on the wire and returns its id,
//! [`Client::recv`] blocks for the next response frame (any id), and
//! [`Client::call`] does one round trip.

use crate::frame::{
    check_request, encode_request, ErrorCode, FrameError, FrameReader, Request, Response,
};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// Transport error (includes "connection closed by server").
    Io(io::Error),
    /// The server sent bytes that don't frame/decode.
    Frame(FrameError),
    /// The server answered with a typed error frame.
    Remote {
        /// Typed error code.
        code: ErrorCode,
        /// Whether the server considers a retry plausible.
        retryable: bool,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The request was not sent: it is over a count cap or the payload
    /// bound of the protocol ([`crate::frame::check_request`]), and the
    /// server would have dropped the connection — with everything
    /// pipelined on it — rather than answer.
    RequestTooLarge(FrameError),
    /// The response decoded but wasn't the kind the call expected.
    UnexpectedResponse(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Frame(e) => write!(f, "frame: {e}"),
            NetError::Remote {
                code,
                retryable,
                message,
            } => write!(
                f,
                "remote error {code}{}: {message}",
                if *retryable { " (retryable)" } else { "" }
            ),
            NetError::RequestTooLarge(e) => write!(f, "request not sent: {e}"),
            NetError::UnexpectedResponse(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl NetError {
    /// Whether a retry could plausibly succeed (only a retryable
    /// remote error frame, i.e. load shedding).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            NetError::Remote {
                retryable: true,
                ..
            }
        )
    }
}

/// Turns a typed error response into `Err(Remote)`, passing other
/// responses through.
fn ok_or_remote(resp: Response) -> Result<Response, NetError> {
    match resp {
        Response::Error {
            code,
            retryable,
            message,
        } => Err(NetError::Remote {
            code,
            retryable,
            message,
        }),
        other => Ok(other),
    }
}

/// A blocking connection to a [`crate::NetServer`].
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
}

impl Client {
    /// Connects (with Nagle disabled — the protocol is request/
    /// response, latency beats batching).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            reader: FrameReader::new(),
            next_id: 1,
        })
    }

    /// Bounds how long [`Client::recv`] blocks; `None` waits forever.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Queues one request on the wire and returns its id — call
    /// repeatedly before any [`Client::recv`] to pipeline. A request
    /// the protocol cannot carry is refused with
    /// [`NetError::RequestTooLarge`] before a byte is written.
    pub fn send(&mut self, req: &Request) -> Result<u64, NetError> {
        check_request(req).map_err(NetError::RequestTooLarge)?;
        let id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&encode_request(id, req))?;
        Ok(id)
    }

    /// Blocks for the next response frame, whichever request it
    /// answers. Typed error frames are returned as `Ok` here so
    /// pipelined callers can match them to ids; use [`Client::call`]
    /// (or `ok_or_remote` semantics) for errors-as-`Err`.
    pub fn recv(&mut self) -> Result<(u64, Response), NetError> {
        loop {
            if let Some(answer) = self.reader.next_response()? {
                return Ok(answer);
            }
            let mut buf = [0u8; 16 * 1024];
            // A signal that lands during the blocking read (with a read
            // timeout set, Linux does not restart the call) is not the
            // server's doing: read again.
            let n = match self.stream.read(&mut buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                read => read?,
            };
            if n == 0 {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            self.reader.push(&buf[..n]);
        }
    }

    /// One round trip: send, wait for *that* request's response,
    /// surface typed error frames as [`NetError::Remote`].
    pub fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        let id = self.send(req)?;
        let (got_id, resp) = self.recv()?;
        if got_id != id {
            return Err(NetError::UnexpectedResponse("response id mismatch"));
        }
        ok_or_remote(resp)
    }

    /// Liveness round trip.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(NetError::UnexpectedResponse("expected pong")),
        }
    }

    /// Fetches the served schema (row count + per-attribute bin
    /// cardinalities) — enough to synthesize valid queries.
    pub fn schema(&mut self) -> Result<crate::frame::Schema, NetError> {
        match self.call(&Request::Schema)? {
            Response::Schema(s) => Ok(s),
            _ => Err(NetError::UnexpectedResponse("expected schema")),
        }
    }

    /// Rectangular query; returns sorted candidate row ids (degraded
    /// shards, if any, are discarded — use [`Client::call`] to see
    /// them).
    pub fn query_rect(
        &mut self,
        query: &bitmap::RectQuery,
        deadline_ms: u32,
    ) -> Result<Vec<u64>, NetError> {
        match self.call(&Request::Rect {
            deadline_ms,
            query: query.clone(),
        })? {
            Response::Rect { rows, .. } => Ok(rows),
            _ => Err(NetError::UnexpectedResponse("expected rect rows")),
        }
    }

    /// Cell-subset retrieval; one boolean per cell, request order.
    pub fn retrieve_cells(
        &mut self,
        cells: &[ab::Cell],
        deadline_ms: u32,
    ) -> Result<Vec<bool>, NetError> {
        match self.call(&Request::Cells {
            deadline_ms,
            cells: cells.to_vec(),
        })? {
            Response::Cells { hits, .. } => Ok(hits),
            _ => Err(NetError::UnexpectedResponse("expected cell hits")),
        }
    }

    /// Batched rectangular queries; one row list per query.
    pub fn query_batch(
        &mut self,
        queries: &[bitmap::RectQuery],
        deadline_ms: u32,
    ) -> Result<Vec<Vec<u64>>, NetError> {
        match self.call(&Request::Batch {
            deadline_ms,
            queries: queries.to_vec(),
        })? {
            Response::Batch { results, .. } => Ok(results),
            _ => Err(NetError::UnexpectedResponse("expected batch results")),
        }
    }

    /// Sends raw bytes down the socket — corruption tests only.
    #[doc(hidden)]
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Shuts down the write half so the server observes a clean EOF.
    pub fn close_write(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}
