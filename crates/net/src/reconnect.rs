//! A self-healing wrapper over [`Client`]: when the connection drops
//! (EOF, reset, refused write), it re-dials with the bounded
//! decorrelated-jitter backoff from [`svc::retry()`] and **resends only
//! the unanswered requests**, under their original ids. Every `ABQ/1`
//! request is a read (ping, schema, rect, cells, batch), so replay is
//! idempotent by construction — the server may have executed a request
//! whose response was lost, and executing it again returns the same
//! answer.
//!
//! What does *not* trigger a reconnect: read **timeouts** (the
//! connection is fine, the answer is late — reconnecting would turn a
//! slow query into a duplicate storm) and typed error frames (the
//! server is healthy and said no). When the retry budget runs out the
//! caller gets the typed [`NetError::ReconnectFailed`].

use crate::client::{Client, NetError};
use crate::frame::{Request, Response};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;
use svc::{RetryPolicy, SvcError};

/// A [`Client`] that transparently re-dials and replays unanswered
/// requests across connection drops.
pub struct ReconnectClient {
    addr: SocketAddr,
    inner: Client,
    policy: RetryPolicy,
    seed: u64,
    read_timeout: Option<Duration>,
    /// Unanswered requests by id — the replay set after a reconnect.
    pending: BTreeMap<u64, Request>,
    next_id: u64,
    reconnects: u64,
}

impl ReconnectClient {
    /// Connects with the default [`RetryPolicy`] and seed 0.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<ReconnectClient> {
        Self::connect_with(addr, RetryPolicy::default(), 0)
    }

    /// Connects with an explicit reconnect budget. `seed` drives the
    /// backoff jitter, so a fleet of clients started with distinct
    /// seeds won't re-dial in lockstep.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        policy: RetryPolicy,
        seed: u64,
    ) -> io::Result<ReconnectClient> {
        // Resolve once: reconnects must target the same server.
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        Ok(ReconnectClient {
            addr,
            inner: Client::connect(addr)?,
            policy,
            seed,
            read_timeout: None,
            pending: BTreeMap::new(),
            next_id: 1,
            reconnects: 0,
        })
    }

    /// Bounds how long a receive blocks; survives reconnects.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        self.inner.set_read_timeout(timeout)
    }

    /// Successful re-dials so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Tears the current connection down and re-dials under the retry
    /// policy, then replays every pending request under its original
    /// id. Transport errors during replay count as another drop and
    /// are retried within the same budget.
    fn reconnect_and_replay(&mut self) -> Result<(), NetError> {
        let (addr, timeout) = (self.addr, self.read_timeout);
        let pending = &self.pending;
        let seed = self.seed ^ self.reconnects;
        let redialed = svc::retry(&self.policy, seed, |_attempt| {
            // Any failure here is transport-level; map it onto the one
            // error `svc::retry` treats as transient so the backoff
            // loop owns the pacing.
            let transient = |_| SvcError::Overloaded {
                depth: 0,
                capacity: 0,
            };
            let mut fresh = Client::connect(addr).map_err(transient)?;
            fresh.set_read_timeout(timeout).map_err(transient)?;
            for (&id, req) in pending {
                fresh
                    .send_with_id(id, req)
                    .map_err(|_| transient(io::Error::other("replay write failed")))?;
            }
            Ok(fresh)
        });
        match redialed {
            Ok(fresh) => {
                self.inner = fresh;
                self.reconnects += 1;
                obs::counter!("net.client.reconnects").inc();
                Ok(())
            }
            Err(SvcError::RetriesExhausted { attempts }) => {
                obs::counter!("net.client.reconnect_failures").inc();
                Err(NetError::ReconnectFailed { attempts })
            }
            // retry() only surfaces transient errors as exhaustion;
            // anything else would be a bug in the mapping above.
            Err(_) => Err(NetError::ReconnectFailed { attempts: 0 }),
        }
    }

    /// Whether a transport error means the connection is gone (worth
    /// re-dialing) rather than merely slow (a read timeout).
    fn is_disconnect(e: &io::Error) -> bool {
        !matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
        )
    }

    /// Queues one request, tracking it for replay. A dead socket at
    /// write time triggers the reconnect (which sends it as part of
    /// the replay).
    pub fn send(&mut self, req: &Request) -> Result<u64, NetError> {
        // Refuse before tracking: a request that can never be sent
        // must not join the replay set.
        crate::frame::check_request(req).map_err(NetError::RequestTooLarge)?;
        let id = self.next_id;
        self.next_id += 1;
        self.pending.insert(id, req.clone());
        match self.inner.send_with_id(id, req) {
            Ok(()) => Ok(id),
            Err(NetError::Io(ref e)) if Self::is_disconnect(e) => {
                self.reconnect_and_replay()?;
                Ok(id)
            }
            Err(e) => Err(e),
        }
    }

    /// Blocks for the next response frame, re-dialing and replaying on
    /// connection loss. Timeouts and decode errors propagate.
    pub fn recv(&mut self) -> Result<(u64, Response), NetError> {
        loop {
            match self.inner.recv() {
                Ok((id, resp)) => {
                    self.pending.remove(&id);
                    return Ok((id, resp));
                }
                Err(NetError::Io(ref e)) if Self::is_disconnect(e) => {
                    self.reconnect_and_replay()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One round trip with reconnect-and-replay underneath; typed
    /// error frames surface as [`NetError::Remote`].
    pub fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        let id = self.send(req)?;
        loop {
            let (got_id, resp) = self.recv()?;
            if got_id == id {
                return match resp {
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
                };
            }
            // A response for an older (pipelined) request: already
            // cleared from pending by recv; keep waiting for ours.
        }
    }

    /// Liveness round trip.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(NetError::UnexpectedResponse("expected pong")),
        }
    }

    /// Fetches the served schema.
    pub fn schema(&mut self) -> Result<crate::frame::Schema, NetError> {
        match self.call(&Request::Schema)? {
            Response::Schema(s) => Ok(s),
            _ => Err(NetError::UnexpectedResponse("expected schema")),
        }
    }

    /// Rectangular query; sorted candidate row ids.
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
}
