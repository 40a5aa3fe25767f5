//! The benchmark's contract: which metrics exist, their units, which
//! direction is better, and how far an end-to-end metric may worsen.
//! `BENCHMARK.json` at the repo root is rendered from these tables
//! (`benchmark contract`), and the runner refuses to print a metric
//! that is not declared here, so file and runner cannot drift apart.

use crate::workload::SPECS;

/// Seconds one run measures (after warm-up). The machine's quiet
/// phases come and go over tens of seconds, so the fastest round
/// repeats better the longer a run watches: this is as long as the
/// driver's 92 runs (each with three set-ups, verification and
/// warm-up, 30–32 s on the reference machine) and two builds fit into
/// its 3420 s cap with a tenth to spare. Rounds take 0.05–0.2 s, so a
/// run holds well over 100 of them.
pub const RUN_SECONDS: u64 = 26;

/// The declared command; the driver appends `--workload`, `--seed`,
/// `--seconds` and `--trace`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is `Some` for end-to-end metrics: the
/// share of the parent's median by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the served system sees; the same six on every
/// workload. The three timings carry the widest bound the contract
/// allows: the reference guest runs the same code at several speeds
/// up to two fifths apart, each for seconds to minutes, so over ten
/// runs of one build `qps` and `p50_us` spread by 3–12 % in most
/// hours and by 20 % in a bad one (`baseline/seeds_1x10.txt`), and a
/// bound a later change is judged by must lie outside that. The
/// counted metrics repeat exactly for a seed and keep tight bounds.
/// `README.md` gives the measured spreads all of them sit against.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "req/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("precision", "fraction", Higher, 0.005),
    e2e("bytes_per_row", "B/row", Lower, 0.01),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Single-layer metrics from the traced run. No bounds: they say
/// where an end-to-end change came from, they do not gate it.
pub const PER_LAYER: [Metric; 75] = [
    // datagen / bitmap
    layer("datagen.gen_s", "s", Lower),
    layer("bitmap.truth_us", "us", Lower),
    // ab build
    layer("ab.build.s", "s", Lower),
    layer("ab.build.rows_per_s", "rows/s", Higher),
    layer("ab.hier.build_s", "s", Lower),
    layer("ab.hier.bytes", "B", Lower),
    layer("ab.hybrid.build_s", "s", Lower),
    layer("ab.hybrid.bytes", "B", Lower),
    layer("ab.hybrid.bins_backed", "count", Higher),
    layer("ab.io.to_bytes_mb_s", "MB/s", Higher),
    layer("ab.io.from_bytes_mb_s", "MB/s", Higher),
    // hashkit
    layer("hashkit.pos_ns", "ns", Lower),
    // ab kernel
    layer("ab.kernel.rect_us", "us", Lower),
    layer("ab.kernel.scalar_us", "us", Lower),
    layer("ab.kernel.ns_per_cell", "ns", Lower),
    layer("ab.kernel.cells_probed", "count", Lower),
    layer("ab.kernel.bits_read", "count", Lower),
    layer("ab.query.cells_us", "us", Lower),
    layer("ab.query.cells_ns_per_cell", "ns", Lower),
    // ab hier / planner
    layer("ab.hier.prune_us", "us", Lower),
    layer("ab.hier.rows_skipped_frac", "fraction", Higher),
    layer("ab.query.hier_us", "us", Lower),
    layer("ab.planner.plan_ns", "ns", Lower),
    layer("ab.planner.descent_frac", "fraction", Higher),
    // ab hybrid
    layer("ab.hybrid.mask_us", "us", Lower),
    layer("ab.hybrid.covered_frac", "fraction", Higher),
    layer("ab.hybrid.fp_rows_eliminated", "count", Higher),
    layer("ab.query.auto_us", "us", Lower),
    // exact baselines answering the same requests
    layer("wah.rect_us", "us", Lower),
    layer("roar.rect_us", "us", Lower),
    layer("wah.bytes_per_row", "B/row", Lower),
    layer("roar.bytes_per_row", "B/row", Lower),
    // store
    layer("store.write_mb_s", "MB/s", Higher),
    layer("store.open_ms", "ms", Lower),
    layer("store.scrub_mb_s", "MB/s", Higher),
    layer("store.fsyncs", "count", Lower),
    // svc
    layer("svc.rect_us", "us", Lower),
    layer("svc.cells_us", "us", Lower),
    layer("svc.overhead_us", "us", Lower),
    layer("svc.pool_dispatch_us", "us", Lower),
    layer("svc.traced_overhead_pct", "%", Lower),
    // net
    layer("net.frame.enc_req_ns", "ns", Lower),
    layer("net.frame.dec_req_ns", "ns", Lower),
    layer("net.frame.req_bytes", "B", Lower),
    layer("net.frame.enc_resp_us", "us", Lower),
    layer("net.frame.dec_resp_us", "us", Lower),
    layer("net.frame.resp_bytes", "B", Lower),
    layer("net.ping_us", "us", Lower),
    layer("net.sync_rtt_us", "us", Lower),
    layer("net.unattributed_us", "us", Lower),
    layer("net.open.r50.p50_us", "us", Lower),
    layer("net.open.r50.p99_us", "us", Lower),
    layer("net.open.r50.late_us", "us", Lower),
    layer("net.open.r75.p50_us", "us", Lower),
    layer("net.open.r75.p99_us", "us", Lower),
    layer("net.open.r75.late_us", "us", Lower),
    layer("net.open.max_rate_ok", "req/s", Higher),
    // whole-run diagnostics of the closed loop
    layer("run.rounds", "count", Higher),
    layer("run.qps_mean", "req/s", Higher),
    layer("run.qps_median_round", "req/s", Higher),
    layer("run.round_spread", "ratio", Lower),
    layer("run.p50_us_all", "us", Lower),
    layer("run.p99_us_all", "us", Lower),
    layer("run.p99_samples_beyond", "count", Higher),
    layer("proc.cpu_us_per_req", "us", Lower),
    // budget: shares of the synchronous socket round trip
    layer("share.net.frame", "fraction", Lower),
    layer("share.net.unattributed", "fraction", Lower),
    layer("share.svc", "fraction", Lower),
    layer("share.ab.kernel", "fraction", Lower),
    layer("share.ab.hier", "fraction", Lower),
    layer("share.ab.hybrid", "fraction", Lower),
    layer("share.ab.cells", "fraction", Lower),
    layer("share.sum", "fraction", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
    // the benchmark's own spans
    layer("trace.spans", "count", Lower),
];

/// Looks a declared metric up by name, end-to-end first.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `BENCHMARK.json`, byte for byte.
pub fn render() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command = COMMAND.iter().map(|s| json_str(s)).collect::<Vec<_>>();
    let paths = PATHS.iter().map(|s| json_str(s)).collect::<Vec<_>>();
    let workloads = SPECS
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(s.name),
                json_str(s.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        paths.join(", "),
        RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest bound this benchmark allows itself on a metric that is
    /// not a timing, and the largest the contract accepts at all.
    const MAX_BOUND: f64 = 0.10;
    const MAX_TIMED_BOUND: f64 = 0.25;
    const TIMED: [&str; 3] = ["setup_s", "qps", "p50_us"];

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn committed_file_is_what_the_tables_render() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            render(),
            "BENCHMARK.json differs from the runner's tables; \
             regenerate it with `benchmark contract > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for name in SPECS
            .iter()
            .map(|s| s.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
        for s in &SPECS {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
    }

    #[test]
    fn counts_and_bounds_stay_inside_the_contract() {
        assert!((2..=8).contains(&SPECS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let max = if TIMED.contains(&m.name) {
                MAX_TIMED_BOUND
            } else {
                MAX_BOUND
            };
            assert!(bound > 0.0 && bound <= max, "{}: {bound}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }

    #[test]
    fn the_command_names_nothing_outside_the_benchmark_directory() {
        for arg in COMMAND {
            assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
            if arg.contains('/') {
                assert!(PATHS.iter().any(|p| arg.starts_with(&format!("{p}/"))));
            }
        }
    }
}
