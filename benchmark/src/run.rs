//! `benchmark run`: one workload, one seed, end-to-end (untraced).
//!
//! Set the system up three times (median → `setup_s`); on the last,
//! verify every distinct request once against the oracle over the
//! socket, then drive the pipelined closed loop and read the timed
//! metrics from its fastest round.

use crate::contract::END_TO_END;
use crate::drive::{self, Outcome};
use crate::oracle::{self, Oracle, Tally};
use crate::report::Report;
use crate::setup::{self, System};
use crate::stats::{self, fastest_round};
use crate::workload::{Kind, Spec};
use crate::{env, traced};
use net::{Request, Response};
use std::time::Duration;
use svc::Service;

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_RUNS: usize = 3;
/// Closed-loop warm-up before the timed rounds.
pub const WARMUP: Duration = Duration::from_secs(2);

/// What `benchmark run` was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Workload.
    pub spec: &'static Spec,
    /// Seed for table and request list.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub traced: bool,
}

/// The request list verified once: the wire answer each request must
/// get, and the positives behind `precision`.
pub struct Verified {
    /// Expected response per request.
    pub expected: Vec<Response>,
    /// Truth and returned positives over the list.
    pub tally: Tally,
    /// Requests whose served answer was rejected.
    pub failed: u64,
}

/// Sends every request of the list once and checks the answer against
/// the exact oracle and the in-process `AbIndex` answer.
pub fn verify(sys: &mut System, requests: &[Request]) -> Result<Verified, String> {
    let oracle = Oracle::new(&sys.table);
    let mut out = Verified {
        expected: Vec::with_capacity(requests.len()),
        tally: Tally::default(),
        failed: 0,
    };
    for (i, req) in requests.iter().enumerate() {
        let expected = oracle::in_process_answer(&sys.service, req);
        sys.client.send(req).map_err(|e| e.to_string())?;
        let (_, got) = sys.client.recv().map_err(|e| e.to_string())?;
        match oracle::check(&oracle.truth(req), &expected, &got) {
            Ok(t) => {
                out.tally.truth += t.truth;
                out.tally.returned += t.returned;
            }
            Err(why) => {
                eprintln!("request {i}: {why:?}");
                out.failed += 1;
            }
        }
        out.expected.push(expected);
    }
    Ok(out)
}

/// The two `probe_uniform` guards: on that workload the pyramid must
/// never be descended and no bin may be exact-backed, or the workload
/// no longer isolates the probe kernel.
pub fn check_guards(spec: &Spec, descent_frac: f64, bins_backed: usize) -> Result<(), String> {
    if spec.kind != Kind::ProbeUniform {
        return Ok(());
    }
    if descent_frac != 0.0 {
        return Err(format!(
            "{}: the planner descended the pyramid on {descent_frac} of the shard parts; \
             hier on auto must do nothing on uniform data",
            spec.name
        ));
    }
    if bins_backed != 0 {
        return Err(format!(
            "{}: {bins_backed} bins are exact-backed; hybrid on auto must do nothing \
             on bins below the density floor",
            spec.name
        ));
    }
    Ok(())
}

/// Share of the list's shard parts on which the planner chooses
/// pyramid descent (no execution; cheap enough for every run).
pub fn descent_frac(service: &Service, requests: &[Request]) -> f64 {
    let index = service.index();
    let (mut parts, mut descents) = (0u64, 0u64);
    for req in requests {
        let Request::Rect { query, .. } = req else {
            continue;
        };
        for (sid, local) in index.split_rect(query) {
            parts += 1;
            if let Some(hier) = index.shards()[sid].index().hier() {
                descents += u64::from(ab::plan_descent(hier, &local));
            }
        }
    }
    if parts == 0 {
        0.0
    } else {
        descents as f64 / parts as f64
    }
}

/// Records the whole-run diagnostics of a closed-loop phase (`run.*`)
/// and returns its fastest round's `(qps, p50_us)`.
pub fn record_closed_loop(report: &mut Report, outcome: &Outcome, cpu_s: f64) -> (f64, f64) {
    let rounds = &outcome.rounds;
    let best = fastest_round(rounds).expect("a timed phase completes at least one round");
    let all: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    let seconds: f64 = rounds.iter().map(|r| r.seconds).sum();
    let round_seconds: Vec<f64> = rounds.iter().map(|r| r.seconds).collect();
    let median_seconds = stats::median(&round_seconds);
    let per_round = best.latencies_us.len() as f64;
    let (tail_q, beyond) = stats::tail_quantile(all.len());
    println!(
        "# round_ms: {}",
        round_seconds
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    report.set("run.rounds", rounds.len() as f64);
    report.set("run.qps_mean", all.len() as f64 / seconds);
    report.set("run.qps_median_round", per_round / median_seconds);
    report.set("run.round_spread", median_seconds / best.seconds);
    report.set("run.p50_us_all", stats::median(&all));
    report.set("run.p99_us_all", stats::quantile(&all, tail_q));
    report.set("run.p99_samples_beyond", beyond as f64);
    report.set("proc.cpu_us_per_req", cpu_s * 1e6 / all.len() as f64);
    (best.qps(), stats::median(&best.latencies_us))
}

/// Runs the workload and prints the result. `Ok(true)` means every
/// answer was correct.
pub fn run(args: RunArgs) -> Result<bool, String> {
    let spec = args.spec;
    println!(
        "# workload {} seed {} window {} rows {} requests/round {} seconds {}",
        spec.name, args.seed, spec.window, spec.rows, spec.requests, args.seconds
    );
    for (key, value) in env::fingerprint(&setup::out_dir()) {
        println!("# env {key}: {value}");
    }
    if args.traced {
        return traced::run(args);
    }

    // The set-up runs three times, the products of the earlier ones
    // dropped before the next starts (they must not be alive, or
    // count in peak RSS, twice); the last one is the system driven.
    let mut setups = Vec::with_capacity(SETUP_RUNS);
    let mut sys = setup::set_up(spec, args.seed, 0)?;
    for i in 1..SETUP_RUNS {
        setups.push(sys.report.total_s);
        drop(sys);
        sys = setup::set_up(spec, args.seed, i)?;
    }
    setups.push(sys.report.total_s);
    println!(
        "# setup_s is the median of {} (fsync wait of the last: {:.4} s in {} syncs)",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
        sys.report.sync_s,
        sys.report.syncs
    );

    let requests = spec.requests(args.seed, &sys.table);
    check_guards(
        spec,
        descent_frac(&sys.service, &requests),
        sys.report.bins_backed,
    )?;
    let verified = verify(&mut sys, &requests)?;
    let payload_bytes = sys.report.payload_bytes;

    let cpu_before = env::cpu_seconds().unwrap_or(0.0);
    let outcome = drive::closed_loop(
        &mut sys.client,
        &requests,
        &verified.expected,
        spec.window,
        WARMUP,
        Duration::from_secs_f64(args.seconds),
    )
    .map_err(|e| format!("closed loop: {e}"))?;
    let cpu_s = env::cpu_seconds().unwrap_or(0.0) - cpu_before;
    drop(sys);

    let mut report = Report::default();
    report.set("setup_s", stats::median(&setups));
    let (qps, p50_us) = record_closed_loop(&mut report, &outcome, cpu_s);
    report.set("qps", qps);
    report.set("p50_us", p50_us);
    report.set(
        "precision",
        verified.tally.truth as f64 / verified.tally.returned.max(1) as f64,
    );
    report.set("bytes_per_row", payload_bytes as f64 / spec.rows as f64);
    report.set(
        "peak_rss_mb",
        env::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    report.print_lines();

    let attempted = requests.len() as u64 + outcome.attempted;
    let failed = verified.failed + outcome.failed;
    let correct = failed == 0;
    println!(
        "{}",
        report.summary(&END_TO_END, correct, attempted, failed)?
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::spec;

    #[test]
    fn probe_uniform_guards_abort_when_forced_to_fire() {
        let probe = spec("probe_uniform").unwrap();
        assert!(check_guards(probe, 0.0, 0).is_ok());
        let e = check_guards(probe, 0.25, 0).unwrap_err();
        assert!(e.contains("descended"), "{e}");
        let e = check_guards(probe, 0.0, 3).unwrap_err();
        assert!(e.contains("exact-backed"), "{e}");
    }

    #[test]
    fn other_workloads_may_descend_and_back_bins() {
        for name in ["prune_clustered", "exact_skewed", "cells_uniform"] {
            assert!(check_guards(spec(name).unwrap(), 1.0, 60).is_ok(), "{name}");
        }
    }
}
