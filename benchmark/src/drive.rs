//! The load generator: one thread, one TCP connection.
//!
//! * [`closed_loop`] — pipelined closed loop: a fixed window of
//!   requests in flight, each answer replaced by the next request, the
//!   list replayed in rounds without draining the pipeline in between.
//! * [`open_loop`] — fixed arrival schedule, latency taken from the
//!   due time so a stall is charged to the requests queued behind it.
//!
//! Every response is compared with the expected wire answer; a
//! mismatch, an error frame or a transport error counts as failed.

use crate::stats::Round;
use net::{Client, NetError, Request, Response};
use std::time::{Duration, Instant};

/// What a driven phase attempted and how it went.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose response was wrong, an error, or never came.
    pub failed: u64,
    /// Completed rounds of the timed part (closed loop only).
    pub rounds: Vec<Round>,
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Drives `requests` through `client` with `window` in flight:
/// whole warm-up rounds until `warmup` has passed, then whole timed
/// rounds until `measure` has passed. A round's time runs from the
/// previous round's last response to its own last response. Warm-up
/// requests count in `attempted` and `failed` (a wrong answer is wrong
/// whenever it is given) but not in `rounds`.
pub fn closed_loop(
    client: &mut Client,
    requests: &[Request],
    expected: &[Response],
    window: usize,
    warmup: Duration,
    measure: Duration,
) -> Result<Outcome, NetError> {
    let len = requests.len();
    let mut out = Outcome::default();
    // sent_at[n] is when the n-th request of this call went out; ids
    // are consecutive from the first one, so id - first_id indexes it.
    let mut sent_at: Vec<Instant> = Vec::new();
    let send = |client: &mut Client, sent_at: &mut Vec<Instant>| {
        let req = &requests[sent_at.len() % len];
        sent_at.push(Instant::now());
        client.send(req)
    };
    let first_id = send(client, &mut sent_at)?;
    for _ in 1..window {
        send(client, &mut sent_at)?;
    }

    let started = Instant::now();
    let mut timed_from: Option<Instant> = None;
    let mut round_start = started;
    let mut round = Round::default();
    let mut received = 0usize;
    let mut stopping = false;
    while received < sent_at.len() {
        let (id, resp) = client.recv()?;
        let now = Instant::now();
        let n = (id - first_id) as usize;
        received += 1;
        if resp != expected[n % len] {
            out.failed += 1;
        }
        round.latencies_us.push(micros(now - sent_at[n]));
        if received.is_multiple_of(len) && !stopping {
            round.seconds = (now - round_start).as_secs_f64();
            round_start = now;
            let done = std::mem::take(&mut round);
            match timed_from {
                None if now - started >= warmup => timed_from = Some(now),
                None => {}
                Some(t0) => {
                    out.rounds.push(done);
                    stopping = now - t0 >= measure;
                }
            }
        }
        if !stopping {
            send(client, &mut sent_at)?;
        }
    }
    out.attempted = sent_at.len() as u64;
    Ok(out)
}

/// One open-loop point.
#[derive(Clone, Debug, Default)]
pub struct OpenPoint {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Requests sent / failed.
    pub outcome: Outcome,
    /// Due time → response, µs, per answered request.
    pub latencies_us: Vec<f64>,
    /// Due time → actual send, µs, per request: how late the
    /// generator ran.
    pub late_us: Vec<f64>,
    /// Requests still unanswered when the schedule ended.
    pub backlog: usize,
}

/// Most requests [`open_loop`] keeps unanswered: half the front end's
/// default handler queue (`NetConfig::handler_queue`, 256), beyond
/// which the server sheds with an `overloaded` frame. A machine too
/// slow for the offered rate must show as lateness, not as failed
/// requests.
pub const OPEN_MAX_OUTSTANDING: usize = 128;

/// Sends `requests` (cycled) at `rate` per second for `duration`,
/// whether or not earlier answers have arrived, then drains. With
/// [`OPEN_MAX_OUTSTANDING`] unanswered the next send waits for an
/// answer (its latency still runs from its due time), and what is
/// still unsent when `duration` has passed is not sent at all, so an
/// overloaded point ends on time too.
pub fn open_loop(
    client: &mut Client,
    requests: &[Request],
    expected: &[Response],
    rate: f64,
    duration: Duration,
) -> Result<OpenPoint, NetError> {
    let len = requests.len();
    let scheduled = (rate * duration.as_secs_f64()).floor().max(1.0) as usize;
    let mut point = OpenPoint {
        rate,
        ..OpenPoint::default()
    };
    let start = Instant::now();
    let end = start + duration;
    let due = |n: usize| start + Duration::from_secs_f64(n as f64 / rate);
    let mut first_id = None;
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut sending = true;
    while sending || received < sent {
        let now = Instant::now();
        if sending && (sent == scheduled || (sent > 0 && now >= end)) {
            sending = false;
            point.backlog = sent - received;
            continue;
        }
        let may_send = sending && sent - received < OPEN_MAX_OUTSTANDING;
        if may_send && now >= due(sent) {
            point.late_us.push(micros(now - due(sent)));
            let id = client.send(&requests[sent % len])?;
            first_id.get_or_insert(id);
            sent += 1;
            continue;
        }
        // Wait for an answer, but no longer than the next due time
        // (at the cap: than the end of the schedule).
        let until = if may_send { due(sent) } else { end };
        let wait = sending.then(|| {
            until
                .saturating_duration_since(now)
                .max(Duration::from_micros(1))
        });
        client.set_read_timeout(wait)?;
        match client.recv() {
            Ok((id, resp)) => {
                let n = (id - first_id.expect("a response follows a send")) as usize;
                received += 1;
                if resp != expected[n % len] {
                    point.outcome.failed += 1;
                }
                point.latencies_us.push(micros(Instant::now() - due(n)));
            }
            Err(NetError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
    client.set_read_timeout(None)?;
    point.outcome.attempted = sent as u64;
    Ok(point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec, Spec};
    use crate::{oracle, setup};
    use svc::ShardedIndex;

    /// An offered rate far beyond what the server can do must read as
    /// lateness and an early end of sending — never as requests shed
    /// from the front end's full handler queue, which would fail a run
    /// on a machine slower than the one the nominal rates were pinned
    /// on.
    #[test]
    fn an_overloaded_open_loop_is_late_not_shed() {
        let small = Spec {
            rows: 20_000,
            requests: 8,
            ..*spec("cells_uniform").unwrap()
        };
        let table = small.table(5);
        let index = ShardedIndex::build(&table, &small.ab_config(), setup::SHARDS, false);
        let (service, server, mut client) = setup::serve(index, false).unwrap();
        let requests = small.requests(5, &table);
        let expected: Vec<Response> = requests
            .iter()
            .map(|r| oracle::in_process_answer(&service, r))
            .collect();

        let duration = Duration::from_millis(300);
        let started = Instant::now();
        let point = open_loop(&mut client, &requests, &expected, 1e6, duration).unwrap();
        assert_eq!(point.outcome.failed, 0);
        assert!(point.outcome.attempted as usize > OPEN_MAX_OUTSTANDING);
        assert!((point.outcome.attempted as f64) < 1e6 * duration.as_secs_f64());
        assert_eq!(point.latencies_us.len() as u64, point.outcome.attempted);
        assert!((OPEN_MAX_OUTSTANDING / 2..=OPEN_MAX_OUTSTANDING).contains(&point.backlog));
        assert!(started.elapsed() < 10 * duration);
        drop(client);
        server.shutdown(Duration::from_millis(200));
    }
}
