//! The `ABQ/1` wire protocol: compact length-prefixed binary frames
//! with a versioned header and a CRC-32 trailer (the same
//! [`ab::crc32`] the on-disk formats use).
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       2     magic        0xAB51
//! 2       1     version      1
//! 3       1     kind         see [`kind`]
//! 4       8     request_id   caller-chosen; echoed on the response
//! 12      4     payload_len  ≤ MAX_PAYLOAD
//! 16      n     payload      kind-specific body
//! 16+n    4     crc32        over bytes [0, 16+n)
//! ```
//!
//! Requests and responses share the layout; response kinds have the
//! high bit set. Because every byte of the header and payload is
//! covered by the trailer CRC, any single corrupted byte is detected
//! before the payload is interpreted.
//!
//! ## Error taxonomy
//!
//! Framing errors split into two classes with different recovery:
//!
//! * **fatal** ([`FrameError::is_fatal`] = true): bad magic, wrong
//!   version, oversized length, CRC mismatch. Frame *boundaries* can
//!   no longer be trusted, so the server answers one typed
//!   [`Response::Error`] frame (request id 0) and closes the
//!   connection;
//! * **recoverable**: the frame parsed and checksummed but its payload
//!   is malformed (unknown kind, truncated body, trailing bytes). The
//!   stream is still in sync, so the server answers a typed error
//!   frame carrying the offending request id and keeps the connection.

use bitmap::{AttrRange, RectQuery};

/// First two bytes of every frame.
pub const MAGIC: u16 = 0xAB51;
/// Protocol version this build speaks. A frame with a different
/// version is answered with [`ErrorCode::BadVersion`] naming the
/// supported version, so clients can negotiate down.
pub const VERSION: u8 = 1;
/// Fixed header bytes before the payload.
pub const HEADER_LEN: usize = 16;
/// CRC-32 trailer bytes after the payload.
pub const TRAILER_LEN: usize = 4;
/// Upper bound a frame may claim as payload length; anything larger
/// is rejected before allocation ([`FrameError::Oversized`]).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Sanity caps on repeated elements inside a payload, enforced at
/// decode time so a malicious count cannot drive a huge allocation.
pub const MAX_RANGES: usize = 4096;
/// Max cells per cell-subset request: what fits a [`MAX_PAYLOAD`]
/// frame after the deadline and the count, at 16 bytes a cell — so a
/// request at the cap is a frame the peer's [`FrameReader`] accepts.
pub const MAX_CELLS: usize = (MAX_PAYLOAD as usize - 8) / CELL_LEN;
/// Max rect queries per batch request.
pub const MAX_QUERIES: usize = 4096;

/// Frame kind bytes. Responses set the high bit of their request.
pub mod kind {
    /// Rectangular AB query.
    pub const RECT: u8 = 0x01;
    /// Cell-subset retrieval.
    pub const CELLS: u8 = 0x02;
    /// Batch of rectangular queries.
    pub const BATCH: u8 = 0x03;
    /// Liveness probe.
    pub const PING: u8 = 0x04;
    /// Served-schema request (row count + per-attribute cardinality).
    pub const SCHEMA: u8 = 0x05;
    /// Response to [`RECT`].
    pub const RECT_OK: u8 = 0x81;
    /// Response to [`CELLS`].
    pub const CELLS_OK: u8 = 0x82;
    /// Response to [`BATCH`].
    pub const BATCH_OK: u8 = 0x83;
    /// Response to [`PING`].
    pub const PONG: u8 = 0x84;
    /// Response to [`SCHEMA`].
    pub const SCHEMA_OK: u8 = 0x85;
    /// Typed error response to any request.
    pub const ERROR: u8 = 0xEE;
}

/// Typed error codes carried by [`Response::Error`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Admission control shed the request (pool or dispatch queue
    /// full). The only retryable service error.
    Overloaded = 1,
    /// The request's deadline expired before every shard finished.
    DeadlineExceeded = 2,
    /// The request was cancelled.
    Cancelled = 3,
    /// The query is invalid for the served index.
    InvalidQuery = 4,
    /// The service is shutting down (or draining).
    Shutdown = 5,
    // 6 and 8 belonged to the exact (WAH) service path; they stay
    // reserved and are never reused.
    /// Once sent when a server-side retry loop gave up. No server
    /// sends it now; the number stays reserved and still decodes.
    RetriesExhausted = 7,
    /// Frame bytes did not start with [`MAGIC`].
    BadMagic = 16,
    /// Frame version unsupported; message names the supported one.
    BadVersion = 17,
    /// Claimed payload length exceeds [`MAX_PAYLOAD`].
    Oversized = 18,
    /// Trailer CRC-32 did not match the received bytes.
    BadCrc = 19,
    /// The frame kind byte is not a known request.
    UnknownKind = 20,
    /// The payload was shorter than its counts claim, or had trailing
    /// bytes.
    Malformed = 21,
}

impl ErrorCode {
    /// Decodes the wire value.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match v {
            1 => Overloaded,
            2 => DeadlineExceeded,
            3 => Cancelled,
            4 => InvalidQuery,
            5 => Shutdown,
            7 => RetriesExhausted,
            16 => BadMagic,
            17 => BadVersion,
            18 => Oversized,
            19 => BadCrc,
            20 => UnknownKind,
            21 => Malformed,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::InvalidQuery => "invalid_query",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::RetriesExhausted => "retries_exhausted",
            ErrorCode::BadMagic => "bad_magic",
            ErrorCode::BadVersion => "bad_version",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadCrc => "bad_crc",
            ErrorCode::UnknownKind => "unknown_kind",
            ErrorCode::Malformed => "malformed",
        };
        f.write_str(s)
    }
}

/// Why a frame (or its payload) could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Leading two bytes were not [`MAGIC`].
    BadMagic {
        /// What arrived instead.
        found: u16,
    },
    /// Version byte differs from [`VERSION`].
    BadVersion(u8),
    /// Claimed payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Trailer CRC mismatch.
    BadCrc {
        /// CRC carried by the frame.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// Kind byte is not a known request/response.
    UnknownKind(u8),
    /// Payload ended before a field it promised.
    Truncated(&'static str),
    /// Payload violated a structural rule (count cap, trailing bytes).
    Malformed(&'static str),
}

impl FrameError {
    /// Whether frame boundaries are lost (connection must close).
    /// Payload-level trouble keeps the stream in sync.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            FrameError::BadMagic { .. }
                | FrameError::BadVersion(_)
                | FrameError::Oversized(_)
                | FrameError::BadCrc { .. }
        )
    }

    /// The typed wire code reported for this decode failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            FrameError::BadMagic { .. } => ErrorCode::BadMagic,
            FrameError::BadVersion(_) => ErrorCode::BadVersion,
            FrameError::Oversized(_) => ErrorCode::Oversized,
            FrameError::BadCrc { .. } => ErrorCode::BadCrc,
            FrameError::UnknownKind(_) => ErrorCode::UnknownKind,
            FrameError::Truncated(_) | FrameError::Malformed(_) => ErrorCode::Malformed,
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad magic {found:#06x} (expected {MAGIC:#06x})")
            }
            FrameError::BadVersion(v) => {
                write!(f, "unsupported version {v} (this server speaks {VERSION})")
            }
            FrameError::Oversized(n) => {
                write!(f, "payload length {n} exceeds max {MAX_PAYLOAD}")
            }
            FrameError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#010x} computed {computed:#010x}"
                )
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Truncated(what) => write!(f, "payload truncated reading {what}"),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame: header fields plus the raw (CRC-verified)
/// payload. Interpret with [`decode_request`] / [`decode_response`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Echoed verbatim on the matching response.
    pub request_id: u64,
    /// One of the [`kind`] bytes.
    pub kind: u8,
    /// CRC-verified body bytes.
    pub payload: Vec<u8>,
}

/// A decoded request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Rectangular AB query. `deadline_ms == 0` means "use the
    /// server's default deadline".
    Rect {
        /// Per-request deadline budget in milliseconds (0 = none).
        deadline_ms: u32,
        /// The query.
        query: RectQuery,
    },
    /// Cell-subset retrieval.
    Cells {
        /// Per-request deadline budget in milliseconds (0 = none).
        deadline_ms: u32,
        /// The probed cells.
        cells: Vec<ab::Cell>,
    },
    /// Batch of rectangular queries under one deadline.
    Batch {
        /// Per-request deadline budget in milliseconds (0 = none).
        deadline_ms: u32,
        /// The queries.
        queries: Vec<RectQuery>,
    },
    /// Liveness probe.
    Ping,
    /// Served-schema request.
    Schema,
}

impl Request {
    /// The request's wire kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Rect { .. } => kind::RECT,
            Request::Cells { .. } => kind::CELLS,
            Request::Batch { .. } => kind::BATCH,
            Request::Ping => kind::PING,
            Request::Schema => kind::SCHEMA,
        }
    }

    /// Short label for metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Rect { .. } => "rect",
            Request::Cells { .. } => "cells",
            Request::Batch { .. } => "batch",
            Request::Ping => "ping",
            Request::Schema => "schema",
        }
    }
}

/// What the server knows about the index it serves — enough for a
/// client to synthesize valid queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    /// Rows in the served index.
    pub num_rows: u64,
    /// Bin cardinality per attribute, in attribute order.
    pub cardinalities: Vec<u32>,
}

/// A decoded response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Matching (approximate) global row ids, sorted.
    Rect {
        /// Shards answered conservatively (empty = healthy).
        degraded: Vec<u32>,
        /// Candidate rows.
        rows: Vec<u64>,
    },
    /// One boolean per probed cell, request order.
    Cells {
        /// Shards answered conservatively (empty = healthy).
        degraded: Vec<u32>,
        /// Cell presence answers.
        hits: Vec<bool>,
    },
    /// One row list per batched query.
    Batch {
        /// Shards answered conservatively (empty = healthy).
        degraded: Vec<u32>,
        /// Per-query candidate rows.
        results: Vec<Vec<u64>>,
    },
    /// Liveness answer.
    Pong,
    /// Served-schema answer.
    Schema(Schema),
    /// Typed failure.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Whether a retry could plausibly succeed.
        retryable: bool,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The response's wire kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Rect { .. } => kind::RECT_OK,
            Response::Cells { .. } => kind::CELLS_OK,
            Response::Batch { .. } => kind::BATCH_OK,
            Response::Pong => kind::PONG,
            Response::Schema(_) => kind::SCHEMA_OK,
            Response::Error { .. } => kind::ERROR,
        }
    }
}

// ---------------------------------------------------------------- encode

/// Wire bytes of one cell: row u64, attribute u32, bin u32.
const CELL_LEN: usize = 16;
/// Wire bytes of one attribute range: attribute, lo, hi, u32 each.
const RANGE_LEN: usize = 12;

/// Payload bytes of one rect query: row_lo, row_hi, range count, ranges.
fn rect_len(q: &RectQuery) -> usize {
    8 + 8 + 2 + RANGE_LEN * q.ranges.len()
}

fn degraded_len(degraded: &[u32]) -> usize {
    2 + 4 * degraded.len()
}

/// Exact payload length of a request, so its frame is allocated once.
fn request_payload_len(req: &Request) -> usize {
    match req {
        Request::Rect { query, .. } => 4 + rect_len(query),
        Request::Cells { cells, .. } => 4 + 4 + CELL_LEN * cells.len(),
        Request::Batch { queries, .. } => 4 + 2 + queries.iter().map(rect_len).sum::<usize>(),
        Request::Ping | Request::Schema => 0,
    }
}

/// Exact payload length of a response.
fn response_payload_len(resp: &Response) -> usize {
    match resp {
        Response::Rect { degraded, rows } => degraded_len(degraded) + 8 + 8 * rows.len(),
        Response::Cells { degraded, hits } => degraded_len(degraded) + 4 + hits.len(),
        Response::Batch { degraded, results } => {
            degraded_len(degraded) + 2 + results.iter().map(|r| 8 + 8 * r.len()).sum::<usize>()
        }
        Response::Pong => 0,
        Response::Schema(s) => 8 + 2 + 4 * s.cardinalities.len(),
        Response::Error { message, .. } => 2 + 1 + 2 + message.len().min(u16::MAX as usize),
    }
}

/// Checks that `req` is a request the peer's decoder accepts: every
/// repeated element within its cap and the payload within
/// [`MAX_PAYLOAD`]. [`encode_request`] seals whatever it is given; a
/// frame over the payload bound costs the connection (the peer's
/// [`FrameReader`] answers a fatal [`FrameError::Oversized`]), so
/// clients check before they write.
pub fn check_request(req: &Request) -> Result<(), FrameError> {
    let ranges_fit = |q: &RectQuery| q.ranges.len() <= MAX_RANGES;
    match req {
        Request::Rect { query, .. } if !ranges_fit(query) => {
            return Err(FrameError::Malformed("range count over cap"));
        }
        Request::Cells { cells, .. } if cells.len() > MAX_CELLS => {
            return Err(FrameError::Malformed("cell count over cap"));
        }
        Request::Batch { queries, .. } if queries.len() > MAX_QUERIES => {
            return Err(FrameError::Malformed("query count over cap"));
        }
        Request::Batch { queries, .. } if !queries.iter().all(ranges_fit) => {
            return Err(FrameError::Malformed("range count over cap"));
        }
        _ => {}
    }
    match u32::try_from(request_payload_len(req)) {
        Ok(len) if len <= MAX_PAYLOAD => Ok(()),
        Ok(len) => Err(FrameError::Oversized(len)),
        Err(_) => Err(FrameError::Oversized(u32::MAX)),
    }
}

/// A frame being written straight into its one buffer, allocated at
/// the frame's exact size.
struct W(Vec<u8>);

impl W {
    /// Starts a frame whose payload will be exactly `payload_len`
    /// bytes: allocates header + payload + trailer and writes the
    /// header.
    fn frame(request_id: u64, kind: u8, payload_len: usize) -> W {
        let mut w = W(Vec::with_capacity(HEADER_LEN + payload_len + TRAILER_LEN));
        w.u16(MAGIC);
        w.u8(VERSION);
        w.u8(kind);
        w.u64(request_id);
        w.u32(payload_len as u32);
        w
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `items` at `N` bytes each: one resize, then a loop the
    /// compiler can see both ends of.
    fn all<T, const N: usize>(&mut self, items: &[T], encode: impl Fn(&T) -> [u8; N]) {
        let at = self.0.len();
        self.0.resize(at + N * items.len(), 0);
        for (slot, item) in self.0[at..].chunks_exact_mut(N).zip(items) {
            slot.copy_from_slice(&encode(item));
        }
    }

    fn rect(&mut self, q: &RectQuery) {
        self.u64(q.row_lo as u64);
        self.u64(q.row_hi as u64);
        self.u16(q.ranges.len() as u16);
        self.all(&q.ranges, |r| {
            let mut b = [0u8; RANGE_LEN];
            b[..4].copy_from_slice(&(r.attribute as u32).to_le_bytes());
            b[4..8].copy_from_slice(&r.lo.to_le_bytes());
            b[8..].copy_from_slice(&r.hi.to_le_bytes());
            b
        });
    }

    fn degraded(&mut self, degraded: &[u32]) {
        self.u16(degraded.len() as u16);
        self.all(degraded, |s| s.to_le_bytes());
    }

    fn rows(&mut self, rows: &[u64]) {
        self.u64(rows.len() as u64);
        self.all(rows, |r| r.to_le_bytes());
    }

    /// Seals the frame: CRC over header and payload, appended.
    fn seal(mut self) -> Vec<u8> {
        debug_assert_eq!(
            self.0.len() + TRAILER_LEN,
            self.0.capacity(),
            "payload length computed wrong"
        );
        let crc = ab::crc32(&self.0);
        self.u32(crc);
        self.0
    }
}

/// Wraps a payload in a sealed frame: header, payload, CRC trailer.
pub fn seal(request_id: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut w = W::frame(request_id, kind, payload.len());
    w.0.extend_from_slice(payload);
    w.seal()
}

/// Encodes a request into a sealed frame.
pub fn encode_request(request_id: u64, req: &Request) -> Vec<u8> {
    let mut w = W::frame(request_id, req.kind(), request_payload_len(req));
    match req {
        Request::Rect { deadline_ms, query } => {
            w.u32(*deadline_ms);
            w.rect(query);
        }
        Request::Cells { deadline_ms, cells } => {
            w.u32(*deadline_ms);
            w.u32(cells.len() as u32);
            w.all(cells, |c| {
                let mut b = [0u8; CELL_LEN];
                b[..8].copy_from_slice(&(c.row as u64).to_le_bytes());
                b[8..12].copy_from_slice(&(c.attribute as u32).to_le_bytes());
                b[12..].copy_from_slice(&c.bin.to_le_bytes());
                b
            });
        }
        Request::Batch {
            deadline_ms,
            queries,
        } => {
            w.u32(*deadline_ms);
            w.u16(queries.len() as u16);
            for q in queries {
                w.rect(q);
            }
        }
        Request::Ping | Request::Schema => {}
    }
    w.seal()
}

/// Encodes a response into a sealed frame.
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    let mut w = W::frame(request_id, resp.kind(), response_payload_len(resp));
    match resp {
        Response::Rect { degraded, rows } => {
            w.degraded(degraded);
            w.rows(rows);
        }
        Response::Cells { degraded, hits } => {
            w.degraded(degraded);
            w.u32(hits.len() as u32);
            w.all(hits, |&h| [h as u8]);
        }
        Response::Batch { degraded, results } => {
            w.degraded(degraded);
            w.u16(results.len() as u16);
            for rows in results {
                w.rows(rows);
            }
        }
        Response::Pong => {}
        Response::Schema(s) => {
            w.u64(s.num_rows);
            w.u16(s.cardinalities.len() as u16);
            w.all(&s.cardinalities, |c| c.to_le_bytes());
        }
        Response::Error {
            code,
            retryable,
            message,
        } => {
            w.u16(*code as u16);
            w.u8(*retryable as u8);
            let msg = message.as_bytes();
            let n = msg.len().min(u16::MAX as usize);
            w.u16(n as u16);
            w.0.extend_from_slice(&msg[..n]);
        }
    }
    w.seal()
}

// ---------------------------------------------------------------- decode

struct R<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> R<'a> {
    fn new(b: &'a [u8]) -> Self {
        R { b, at: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FrameError> {
        if self.b.len() - self.at < n {
            return Err(FrameError::Truncated(what));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &'static str) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads `n` elements of `N` bytes each: one bounds check for the
    /// lot (a count the payload cannot hold is `Truncated` before
    /// anything is allocated), then an exactly-sized collect.
    fn all<T, const N: usize>(
        &mut self,
        n: usize,
        what: &'static str,
        decode: impl Fn(&[u8; N]) -> T,
    ) -> Result<Vec<T>, FrameError> {
        let len = n.checked_mul(N).ok_or(FrameError::Truncated(what))?;
        let bytes = self.take(len, what)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|c| decode(c.try_into().expect("chunks of N")))
            .collect())
    }

    fn rect(&mut self) -> Result<RectQuery, FrameError> {
        let row_lo = self.u64("row_lo")? as usize;
        let row_hi = self.u64("row_hi")? as usize;
        let n = self.u16("range count")? as usize;
        if n > MAX_RANGES {
            return Err(FrameError::Malformed("range count over cap"));
        }
        let ranges = self.all(n, "attribute ranges", |b: &[u8; RANGE_LEN]| {
            let word = |i: usize| u32::from_le_bytes(b[4 * i..4 * i + 4].try_into().unwrap());
            AttrRange::new(word(0) as usize, word(1), word(2))
        })?;
        Ok(RectQuery::new(ranges, row_lo, row_hi))
    }

    fn degraded(&mut self) -> Result<Vec<u32>, FrameError> {
        let n = self.u16("degraded count")? as usize;
        self.all(n, "degraded shard ids", |b| u32::from_le_bytes(*b))
    }

    fn rows(&mut self) -> Result<Vec<u64>, FrameError> {
        let n = usize::try_from(self.u64("row count")?).unwrap_or(usize::MAX);
        self.all(n, "rows", |b| u64::from_le_bytes(*b))
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.b.len() != self.at {
            return Err(FrameError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

/// Interprets a frame's payload as a request.
pub fn decode_request(frame: &Frame) -> Result<Request, FrameError> {
    let mut r = R::new(&frame.payload);
    let req = match frame.kind {
        kind::RECT => Request::Rect {
            deadline_ms: r.u32("deadline")?,
            query: r.rect()?,
        },
        kind::CELLS => {
            let deadline_ms = r.u32("deadline")?;
            let n = r.u32("cell count")? as usize;
            if n > MAX_CELLS {
                return Err(FrameError::Malformed("cell count over cap"));
            }
            let cells = r.all(n, "cells", |b: &[u8; CELL_LEN]| {
                ab::Cell::new(
                    u64::from_le_bytes(b[..8].try_into().unwrap()) as usize,
                    u32::from_le_bytes(b[8..12].try_into().unwrap()) as usize,
                    u32::from_le_bytes(b[12..].try_into().unwrap()),
                )
            })?;
            Request::Cells { deadline_ms, cells }
        }
        kind::BATCH => {
            let deadline_ms = r.u32("deadline")?;
            let n = r.u16("query count")? as usize;
            if n > MAX_QUERIES {
                return Err(FrameError::Malformed("query count over cap"));
            }
            let mut queries = Vec::with_capacity(n);
            for _ in 0..n {
                queries.push(r.rect()?);
            }
            Request::Batch {
                deadline_ms,
                queries,
            }
        }
        kind::PING => Request::Ping,
        kind::SCHEMA => Request::Schema,
        other => return Err(FrameError::UnknownKind(other)),
    };
    r.done()?;
    Ok(req)
}

/// Interprets a frame's payload as a response.
pub fn decode_response(frame: &Frame) -> Result<Response, FrameError> {
    decode_response_payload(frame.kind, &frame.payload)
}

/// [`decode_response`] over a borrowed payload — what
/// [`FrameReader::next_response`] reads straight out of its buffer.
fn decode_response_payload(kind: u8, payload: &[u8]) -> Result<Response, FrameError> {
    let mut r = R::new(payload);
    let resp = match kind {
        kind::RECT_OK => Response::Rect {
            degraded: r.degraded()?,
            rows: r.rows()?,
        },
        kind::CELLS_OK => {
            let degraded = r.degraded()?;
            let n = r.u32("hit count")? as usize;
            let hits = r.all(n, "hits", |b: &[u8; 1]| b[0] != 0)?;
            Response::Cells { degraded, hits }
        }
        kind::BATCH_OK => {
            let degraded = r.degraded()?;
            let n = r.u16("result count")? as usize;
            if n > MAX_QUERIES {
                return Err(FrameError::Malformed("result count over cap"));
            }
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push(r.rows()?);
            }
            Response::Batch { degraded, results }
        }
        kind::PONG => Response::Pong,
        kind::SCHEMA_OK => {
            let num_rows = r.u64("num_rows")?;
            let n = r.u16("attribute count")? as usize;
            let cardinalities = r.all(n, "cardinalities", |b| u32::from_le_bytes(*b))?;
            Response::Schema(Schema {
                num_rows,
                cardinalities,
            })
        }
        kind::ERROR => {
            let raw = r.u16("error code")?;
            let code = ErrorCode::from_u16(raw).ok_or(FrameError::Malformed("error code"))?;
            let retryable = r.u8("retryable")? != 0;
            let n = r.u16("message length")? as usize;
            let message = String::from_utf8_lossy(r.take(n, "message")?).into_owned();
            Response::Error {
                code,
                retryable,
                message,
            }
        }
        other => return Err(FrameError::UnknownKind(other)),
    };
    r.done()?;
    Ok(resp)
}

// ------------------------------------------------------------- streaming

/// Incremental frame extractor over a byte stream. Push raw reads in,
/// pop whole CRC-verified frames out; partial frames wait for more
/// bytes. A fatal [`FrameError`] poisons the reader — the stream's
/// frame boundaries are gone, so the connection must close.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily so long-lived connections don't grow forever.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 64 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Header fields and payload range (within `self.buf`) of the next
    /// complete frame, CRC verified and consumed; `Ok(None)` when more
    /// bytes are needed.
    fn next_verified(&mut self) -> Result<Option<(u64, u8, std::ops::Range<usize>)>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u16::from_le_bytes([avail[0], avail[1]]);
        if magic != MAGIC {
            return Err(FrameError::BadMagic { found: magic });
        }
        let version = avail[2];
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let kind = avail[3];
        let request_id = u64::from_le_bytes(avail[4..12].try_into().unwrap());
        let payload_len = u32::from_le_bytes(avail[12..16].try_into().unwrap());
        if payload_len > MAX_PAYLOAD {
            return Err(FrameError::Oversized(payload_len));
        }
        let body_len = HEADER_LEN + payload_len as usize;
        let total = body_len + TRAILER_LEN;
        if avail.len() < total {
            return Ok(None);
        }
        let stored = u32::from_le_bytes(avail[body_len..total].try_into().unwrap());
        let computed = ab::crc32(&avail[..body_len]);
        if stored != computed {
            return Err(FrameError::BadCrc { stored, computed });
        }
        let payload = self.start + HEADER_LEN..self.start + body_len;
        self.start += total;
        Ok(Some((request_id, kind, payload)))
    }

    /// Extracts the next complete frame, `Ok(None)` when more bytes
    /// are needed, or a fatal [`FrameError`] when the stream is
    /// corrupt.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        Ok(self
            .next_verified()?
            .map(|(request_id, kind, payload)| Frame {
                request_id,
                kind,
                payload: self.buf[payload].to_vec(),
            }))
    }

    /// [`Self::next_frame`] followed by [`decode_response`], without
    /// the [`Frame`] between them: the payload is decoded where it
    /// lies in the reader's buffer.
    pub(crate) fn next_response(&mut self) -> Result<Option<(u64, Response)>, FrameError> {
        let Some((request_id, kind, payload)) = self.next_verified()? else {
            return Ok(None);
        };
        let resp = decode_response_payload(kind, &self.buf[payload])?;
        Ok(Some((request_id, resp)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: usize, hi: usize) -> RectQuery {
        RectQuery::new(
            vec![AttrRange::new(0, 1, 3), AttrRange::new(2, 0, 0)],
            lo,
            hi,
        )
    }

    fn roundtrip_request(req: Request) {
        let bytes = encode_request(77, &req);
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let frame = fr.next_frame().unwrap().unwrap();
        assert_eq!(frame.request_id, 77);
        assert_eq!(decode_request(&frame).unwrap(), req);
        assert!(fr.next_frame().unwrap().is_none());
    }

    fn roundtrip_response(resp: Response) {
        let bytes = encode_response(99, &resp);
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let frame = fr.next_frame().unwrap().unwrap();
        assert_eq!(frame.request_id, 99);
        assert_eq!(decode_response(&frame).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Rect {
            deadline_ms: 250,
            query: rect(10, 4_000_000_000),
        });
        roundtrip_request(Request::Cells {
            deadline_ms: 0,
            cells: vec![ab::Cell::new(5, 1, 3), ab::Cell::new(0, 0, 0)],
        });
        roundtrip_request(Request::Batch {
            deadline_ms: 9,
            queries: vec![rect(0, 7), RectQuery::new(vec![], 3, 3)],
        });
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Schema);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Rect {
            degraded: vec![1, 3],
            rows: vec![0, 9, u64::MAX],
        });
        roundtrip_response(Response::Cells {
            degraded: vec![],
            hits: vec![true, false, true],
        });
        roundtrip_response(Response::Batch {
            degraded: vec![0],
            results: vec![vec![1, 2], vec![], vec![7]],
        });
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Schema(Schema {
            num_rows: 1 << 40,
            cardinalities: vec![10, 4, 255],
        }));
        roundtrip_response(Response::Error {
            code: ErrorCode::Overloaded,
            retryable: true,
            message: "queue 256/256 full".into(),
        });
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let req = Request::Rect {
            deadline_ms: 1,
            query: rect(0, 99),
        };
        let bytes = [encode_request(1, &req), encode_request(2, &Request::Ping)].concat();
        let mut fr = FrameReader::new();
        let mut got = Vec::new();
        for b in &bytes {
            fr.push(std::slice::from_ref(b));
            while let Some(f) = fr.next_frame().unwrap() {
                got.push(f.request_id);
            }
        }
        assert_eq!(got, vec![1, 2]);
        assert_eq!(fr.pending(), 0);
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut bytes = encode_request(1, &Request::Ping);
        bytes[0] ^= 0xFF;
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let e = fr.next_frame().unwrap_err();
        assert!(matches!(e, FrameError::BadMagic { .. }) && e.is_fatal());
        assert_eq!(e.code(), ErrorCode::BadMagic);
    }

    #[test]
    fn bad_version_is_fatal() {
        let mut bytes = encode_request(1, &Request::Ping);
        bytes[2] = 9;
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let e = fr.next_frame().unwrap_err();
        assert_eq!(e, FrameError::BadVersion(9));
        assert!(e.is_fatal());
    }

    #[test]
    fn oversized_length_is_fatal_before_allocation() {
        let mut bytes = encode_request(1, &Request::Ping);
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let e = fr.next_frame().unwrap_err();
        assert!(matches!(e, FrameError::Oversized(_)) && e.is_fatal());
    }

    #[test]
    fn any_single_byte_flip_is_caught_by_crc() {
        let bytes = encode_request(
            42,
            &Request::Rect {
                deadline_ms: 7,
                query: rect(3, 9),
            },
        );
        // Flipping any byte after the version/length fields must
        // surface as *some* framing error (usually BadCrc); never a
        // silently different frame.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            let mut fr = FrameReader::new();
            fr.push(&bad);
            match fr.next_frame() {
                Err(_) => {}
                Ok(Some(f)) => panic!("flip at {i} yielded frame {f:?}"),
                // A flipped length byte can make the frame look
                // incomplete — that's a stall, not an accepted frame.
                Ok(None) => assert!((12..16).contains(&i), "flip at {i} stalled"),
            }
        }
    }

    #[test]
    fn truncated_payload_decodes_to_typed_error() {
        // Claim 3 ranges but supply only 1: header/CRC are valid, so
        // the frame parses; the payload decode must fail recoverably.
        let mut w = W(Vec::new());
        w.u32(0); // deadline
        w.u64(0);
        w.u64(10);
        w.u16(3); // lies: only one range follows
        w.u32(0);
        w.u32(1);
        w.u32(2);
        let bytes = seal(5, kind::RECT, &w.0);
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let frame = fr.next_frame().unwrap().unwrap();
        let e = decode_request(&frame).unwrap_err();
        assert!(!e.is_fatal());
        assert_eq!(e.code(), ErrorCode::Malformed);
    }

    #[test]
    fn unknown_kind_is_recoverable() {
        let bytes = seal(6, 0x5F, &[]);
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let frame = fr.next_frame().unwrap().unwrap();
        let e = decode_request(&frame).unwrap_err();
        assert_eq!(e, FrameError::UnknownKind(0x5F));
        assert!(!e.is_fatal());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&seal(0, kind::PING, &[])[16..16]); // none
        payload.push(0xAA);
        let bytes = seal(7, kind::PING, &payload);
        let mut fr = FrameReader::new();
        fr.push(&bytes);
        let frame = fr.next_frame().unwrap().unwrap();
        assert!(matches!(
            decode_request(&frame),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn check_request_applies_the_decoder_caps() {
        let wide = |n: usize| RectQuery::new(vec![AttrRange::new(0, 0, 0); n], 0, 0);
        let rect = |query| Request::Rect {
            deadline_ms: 0,
            query,
        };
        let batch = |queries| Request::Batch {
            deadline_ms: 0,
            queries,
        };
        assert_eq!(check_request(&rect(wide(MAX_RANGES))), Ok(()));
        assert_eq!(
            check_request(&rect(wide(MAX_RANGES + 1))),
            Err(FrameError::Malformed("range count over cap"))
        );
        assert_eq!(check_request(&batch(vec![wide(1); MAX_QUERIES])), Ok(()));
        assert_eq!(
            check_request(&batch(vec![wide(1); MAX_QUERIES + 1])),
            Err(FrameError::Malformed("query count over cap"))
        );
        assert_eq!(
            check_request(&batch(vec![wide(1), wide(MAX_RANGES + 1)])),
            Err(FrameError::Malformed("range count over cap"))
        );
        // Every count within its cap, the payload still too long.
        let heavy = batch(vec![wide(MAX_RANGES); 400]);
        assert!(matches!(
            check_request(&heavy),
            Err(FrameError::Oversized(n)) if n > MAX_PAYLOAD
        ));
        assert_eq!(check_request(&Request::Ping), Ok(()));
    }

    /// The length computed up front is the length written: the frame
    /// buffer is allocated once, at its final size.
    #[test]
    fn frames_fill_their_buffer_exactly() {
        let frames = [
            encode_request(
                1,
                &Request::Batch {
                    deadline_ms: 3,
                    queries: vec![rect(0, 7), RectQuery::new(vec![], 3, 3)],
                },
            ),
            encode_request(
                2,
                &Request::Cells {
                    deadline_ms: 0,
                    cells: vec![ab::Cell::new(5, 1, 3); 33],
                },
            ),
            encode_response(
                3,
                &Response::Batch {
                    degraded: vec![1],
                    results: vec![vec![1, 2], vec![]],
                },
            ),
            encode_response(
                4,
                &Response::Error {
                    code: ErrorCode::Malformed,
                    retryable: false,
                    message: "x".repeat(70_000),
                },
            ),
            seal(5, kind::PING, &[]),
        ];
        for f in &frames {
            assert_eq!(f.len(), f.capacity());
            let claimed = u32::from_le_bytes(f[12..16].try_into().unwrap()) as usize;
            assert_eq!(f.len(), HEADER_LEN + claimed + TRAILER_LEN);
        }
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Cancelled,
            ErrorCode::InvalidQuery,
            ErrorCode::Shutdown,
            ErrorCode::RetriesExhausted,
            ErrorCode::BadMagic,
            ErrorCode::BadVersion,
            ErrorCode::Oversized,
            ErrorCode::BadCrc,
            ErrorCode::UnknownKind,
            ErrorCode::Malformed,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
        }
        let retired = ErrorCode::from_u16(7).map(|c| c.to_string());
        assert_eq!(retired.as_deref(), Some("retries_exhausted"));
        for reserved_or_unknown in [6, 8, 999] {
            assert_eq!(ErrorCode::from_u16(reserved_or_unknown), None);
        }
    }
}
