//! Live telemetry endpoint: a zero-dependency blocking-TCP HTTP
//! server exposing the process's observability state.
//!
//! Three routes, all `GET`, all `Connection: close`:
//!
//! * `/metrics` — the global [`obs`] registry in Prometheus text
//!   exposition format (counters, histograms, latency-quantile
//!   summaries);
//! * `/healthz` — JSON health: `200` with `"status":"ok"` while every
//!   shard is healthy, `200` with `"status":"degraded"` plus the
//!   quarantined shard ids once any shard is answering conservatively
//!   (degraded service still serves — a `5xx` would make load
//!   balancers evict a replica that is up by design);
//! * `/debug/traces` — the flight recorder as JSON (see
//!   [`obs::FlightRecorder::to_json`]): the last N request traces plus
//!   pinned slow queries, parseable by [`obs::parse_dump`] and the
//!   `abq trace` subcommand.
//!
//! The server is deliberately primitive — one blocking accept loop on
//! its own thread, one thread per connection is *not* used; requests
//! are handled serially. Telemetry scrapes are rare (seconds apart)
//! and responses are small; serial handling keeps the footprint at one
//! thread and zero dependencies. It never touches the query path:
//! scraping contends only on registry snapshots and recorder slot
//! `try_lock`s, both of which the hot path survives (writers drop
//! rather than wait).

use crate::degrade::ShardHealth;
use crate::scrub::StoreStatus;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A running telemetry HTTP server; see the module docs for routes.
/// Dropping it stops the accept loop.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:9171`, or port `0` for an
    /// OS-assigned port in tests) and starts serving on a background
    /// thread. `health` drives `/healthz`.
    pub fn bind(addr: impl ToSocketAddrs, health: Arc<ShardHealth>) -> std::io::Result<Self> {
        Self::bind_with_store(addr, health, None)
    }

    /// [`TelemetryServer::bind`] plus a segment-store status: when
    /// `store` is given, `/healthz` carries a `"store"` object with
    /// the scrubber's state (`healthy`/`degraded`/`repairing`), and its
    /// pass, CRC-error and repair counts.
    pub fn bind_with_store(
        addr: impl ToSocketAddrs,
        health: Arc<ShardHealth>,
        store: Option<Arc<StoreStatus>>,
    ) -> std::io::Result<Self> {
        Self::bind_with_status(addr, health, store, None)
    }

    /// [`TelemetryServer::bind_with_store`] plus the hybrid exact
    /// tier's per-shard split summary: when `hybrid` is given,
    /// `/healthz` carries a `"hybrid"` object with the
    /// planner-calibrated exact/ab split per shard (see
    /// [`HybridStatus`]).
    pub fn bind_with_status(
        addr: impl ToSocketAddrs,
        health: Arc<ShardHealth>,
        store: Option<Arc<StoreStatus>>,
        hybrid: Option<Arc<HybridStatus>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("abq-telemetry".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // A hung client must not wedge the serial
                        // accept loop.
                        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                        let _ =
                            handle_connection(stream, &health, store.as_deref(), hybrid.as_deref());
                    }
                }
            })?;
        Ok(TelemetryServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.handle.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        // The accept loop only observes the flag on its next
        // connection; poke it awake.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Immutable per-shard summary of the hybrid exact tier for
/// `/healthz`. The tier is built (or loaded) before serving starts and
/// never changes while the process serves, so a plain snapshot — no
/// atomics — is enough. Build one from
/// [`crate::shard::ShardedIndex::hybrid_split_stats`].
#[derive(Debug)]
pub struct HybridStatus {
    /// One entry per shard: `Some((bins_backed, bins_total, bytes))`
    /// when the shard carries an exact tier, `None` when it does not
    /// (e.g. a v≤3 segment loaded from a store).
    shards: Vec<Option<(usize, u32, usize)>>,
}

impl HybridStatus {
    /// Wraps the per-shard split stats verbatim.
    pub fn new(shards: Vec<Option<(usize, u32, usize)>>) -> Self {
        HybridStatus { shards }
    }

    /// The `"hybrid"` object for the `/healthz` JSON body: tier-wide
    /// totals plus the per-shard split, so an operator can see at a
    /// glance how much of the index the planner promoted to exact
    /// containers and how big they are.
    pub fn healthz_fragment(&self) -> String {
        let backed_shards = self.shards.iter().filter(|s| s.is_some()).count();
        let (mut bins_backed, mut bins_total, mut bytes) = (0usize, 0u64, 0usize);
        let per_shard = self
            .shards
            .iter()
            .map(|s| match s {
                Some((backed, total, sz)) => {
                    bins_backed += backed;
                    bins_total += u64::from(*total);
                    bytes += sz;
                    format!(
                        "{{\"bins_backed\":{backed},\"bins_total\":{total},\
                         \"container_bytes\":{sz}}}"
                    )
                }
                None => "null".to_string(),
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"backed_shards\":{backed_shards},\"bins_backed\":{bins_backed},\
             \"bins_total\":{bins_total},\"container_bytes\":{bytes},\
             \"per_shard\":[{per_shard}]}}"
        )
    }
}

/// Reads the request line, routes, writes one response. Any parse
/// trouble gets a 400 rather than a hang.
fn handle_connection(
    mut stream: TcpStream,
    health: &ShardHealth,
    store: Option<&StoreStatus>,
    hybrid: Option<&HybridStatus>,
) -> std::io::Result<()> {
    obs::counter!("telemetry.requests").inc();
    // Read until the end of the request head (or a sane cap — GETs
    // have no body we care about).
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
            break;
        }
    }
    let request_line = std::str::from_utf8(&head)
        .ok()
        .and_then(|s| s.lines().next())
        .unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        match path.split('?').next().unwrap_or("") {
            "/metrics" => (
                "200 OK",
                // The exposition-format content type scrapers expect.
                "text/plain; version=0.0.4; charset=utf-8",
                obs::global().snapshot().to_prometheus(),
            ),
            "/healthz" => {
                let quarantined = health.quarantined();
                let status = if quarantined.is_empty() {
                    "ok"
                } else {
                    "degraded"
                };
                let ids: Vec<String> = quarantined.iter().map(|s| s.to_string()).collect();
                // Listener stats from the TCP front end's counters
                // (all zero when no `net` server runs in-process).
                let accepted = obs::global().counter("net.accepted").get();
                let closed = obs::global().counter("net.conn_closed").get();
                let shed = obs::global().counter("net.shed_at_accept").get();
                // The store block only appears when a segment store is
                // actually being scrubbed.
                let store_block = store
                    .map(|s| format!(",\"store\":{}", s.healthz_fragment()))
                    .unwrap_or_default();
                // Likewise the hybrid block: only when the exact tier
                // is actually being served.
                let hybrid_block = hybrid
                    .map(|h| format!(",\"hybrid\":{}", h.healthz_fragment()))
                    .unwrap_or_default();
                (
                    "200 OK",
                    "application/json",
                    format!(
                        "{{\"status\":\"{status}\",\"shards\":{},\"quarantined\":[{}],\
                         \"traces_recorded\":{},\"traces_dropped\":{},\
                         \"listener\":{{\"open\":{},\"accepted\":{accepted},\
                         \"shed_at_accept\":{shed}}}{store_block}{hybrid_block}}}\n",
                        health.len(),
                        ids.join(","),
                        obs::recorder().recorded(),
                        obs::recorder().dropped(),
                        accepted.saturating_sub(closed),
                    ),
                )
            }
            "/debug/traces" => ("200 OK", "application/json", obs::recorder().to_json()),
            "" => (
                "400 Bad Request",
                "text/plain; charset=utf-8",
                "malformed request\n".to_string(),
            ),
            other => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                format!("no route {other}; try /metrics, /healthz, /debug/traces\n"),
            ),
        }
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").expect("has header separator");
        (head.to_string(), body.to_string())
    }

    fn server_with(health: ShardHealth) -> TelemetryServer {
        TelemetryServer::bind("127.0.0.1:0", Arc::new(health)).expect("bind")
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        obs::counter!("telemetry.test.hits").inc();
        let srv = server_with(ShardHealth::new(2));
        let (head, body) = get(srv.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "head: {head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("# TYPE telemetry_test_hits counter"));
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
        srv.stop();
    }

    #[test]
    fn healthz_reflects_quarantine() {
        let health = ShardHealth::new(4);
        health.quarantine(2);
        let srv = server_with(health);
        let (head, body) = get(srv.local_addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.0 200 OK"));
        assert!(body.contains("\"status\":\"degraded\""));
        assert!(body.contains("\"quarantined\":[2]"));
        srv.stop();
    }

    #[test]
    fn healthz_ok_when_all_healthy() {
        let srv = server_with(ShardHealth::new(4));
        let (_, body) = get(srv.local_addr(), "/healthz");
        assert!(body.contains("\"status\":\"ok\""), "body: {body}");
        srv.stop();
    }

    #[test]
    fn healthz_reports_listener_stats() {
        let srv = server_with(ShardHealth::new(2));
        let (_, body) = get(srv.local_addr(), "/healthz");
        // The listener block is always present; open is derived as
        // accepted - closed so it cannot go negative.
        assert!(body.contains("\"listener\":{\"open\":"), "body: {body}");
        assert!(body.contains("\"accepted\":"), "body: {body}");
        assert!(body.contains("\"shed_at_accept\":"), "body: {body}");
        srv.stop();
    }

    #[test]
    fn healthz_store_block_appears_only_with_a_store() {
        let srv = server_with(ShardHealth::new(2));
        let (_, body) = get(srv.local_addr(), "/healthz");
        assert!(!body.contains("\"store\""), "body: {body}");
        srv.stop();

        let status = Arc::new(StoreStatus::default());
        let srv = TelemetryServer::bind_with_store(
            "127.0.0.1:0",
            Arc::new(ShardHealth::new(2)),
            Some(status),
        )
        .expect("bind");
        let (_, body) = get(srv.local_addr(), "/healthz");
        assert!(
            body.contains("\"store\":{\"state\":\"healthy\",\"passes\":0"),
            "body: {body}"
        );
        srv.stop();
    }

    #[test]
    fn healthz_hybrid_block_appears_only_with_a_tier() {
        let srv = server_with(ShardHealth::new(2));
        let (_, body) = get(srv.local_addr(), "/healthz");
        assert!(!body.contains("\"hybrid\""), "body: {body}");
        srv.stop();

        let status = Arc::new(HybridStatus::new(vec![Some((3, 16, 1024)), None]));
        let srv = TelemetryServer::bind_with_status(
            "127.0.0.1:0",
            Arc::new(ShardHealth::new(2)),
            None,
            Some(status),
        )
        .expect("bind");
        let (_, body) = get(srv.local_addr(), "/healthz");
        assert!(
            body.contains(
                "\"hybrid\":{\"backed_shards\":1,\"bins_backed\":3,\
                 \"bins_total\":16,\"container_bytes\":1024,\
                 \"per_shard\":[{\"bins_backed\":3,\"bins_total\":16,\
                 \"container_bytes\":1024},null]}"
            ),
            "body: {body}"
        );
        srv.stop();
    }

    #[test]
    fn debug_traces_is_parseable_json() {
        let srv = server_with(ShardHealth::new(1));
        let (head, body) = get(srv.local_addr(), "/debug/traces");
        assert!(head.starts_with("HTTP/1.0 200 OK"));
        obs::parse_dump(&body).expect("dump parses");
        srv.stop();
    }

    #[test]
    fn unknown_route_404s_and_non_get_405s() {
        let srv = server_with(ShardHealth::new(1));
        let (head, _) = get(srv.local_addr(), "/nope");
        assert!(head.starts_with("HTTP/1.0 404"));
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 405"));
        srv.stop();
    }

    #[test]
    fn stop_joins_and_frees_the_port() {
        let srv = server_with(ShardHealth::new(1));
        let addr = srv.local_addr();
        srv.stop();
        // Once stopped, connections are refused (or at least never
        // answered by our server).
        let retry = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        if let Ok(mut s) = retry {
            let _ = write!(s, "GET /healthz HTTP/1.0\r\n\r\n");
            let mut out = String::new();
            let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
            let _ = s.read_to_string(&mut out);
            assert!(out.is_empty(), "stopped server answered: {out}");
        }
    }
}
