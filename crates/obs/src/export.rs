//! The snapshot exporter: Prometheus text exposition.
//!
//! It targets real scrapers: every metric gets `# HELP` (carrying the
//! original dotted name) and `# TYPE` lines, histogram buckets are
//! cumulative with a closing `+Inf`, sketches export as summaries with
//! `quantile` labels, and sanitized names are **uniquified** —
//! `kernel.batches` and `kernel_batches` both sanitize to
//! `kernel_batches`, so the second registrant (in snapshot iteration
//! order) is deterministically suffixed `_2` instead of silently
//! emitting a duplicate series that scrapers reject.

use crate::histogram::HistogramSnapshot;
use crate::Snapshot;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Sanitizes a dotted metric name into a Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other invalid characters
/// become underscores. Sanitization can collide — [`NameSpace`]
/// resolves that per exposition.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escapes a `# HELP` text (Prometheus exposition: backslash and
/// newline must be escaped).
fn help_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Tracks every series name emitted in one exposition and uniquifies
/// sanitized base names that collide: the first claimant keeps the
/// clean name, later ones get deterministic `_2`, `_3`, … suffixes.
/// A claim reserves the base name *and* each derived series suffix
/// (`_bucket`, `_sum`, `_count`), so a counter named `x_count` can
/// never collide with histogram `x`'s `_count` series either.
struct NameSpace {
    used: BTreeSet<String>,
}

impl NameSpace {
    fn new() -> Self {
        NameSpace {
            used: BTreeSet::new(),
        }
    }

    /// Claims a sanitized base name whose exposition will emit
    /// `base + suffix` for each listed suffix (use `""` for the bare
    /// name). Returns the possibly-uniquified base to emit under.
    fn claim(&mut self, base: &str, suffixes: &[&str]) -> String {
        let mut attempt = 0usize;
        loop {
            let candidate = if attempt == 0 {
                base.to_string()
            } else {
                format!("{base}_{}", attempt + 1)
            };
            let series: Vec<String> = suffixes.iter().map(|s| format!("{candidate}{s}")).collect();
            if series.iter().all(|s| !self.used.contains(s)) {
                self.used.extend(series);
                return candidate;
            }
            attempt += 1;
        }
    }
}

impl Snapshot {
    /// Serializes the snapshot in Prometheus text exposition format.
    ///
    /// Dotted names become underscore names (uniquified on collision —
    /// see the module docs); every metric gets `# HELP` (the original
    /// dotted name) and `# TYPE` lines. Histograms expand to cumulative
    /// `_bucket{le="…"}` series plus `_sum`/`_count`; sketches export
    /// as summaries with `{quantile="…"}` series plus `_sum`/`_count`.
    pub fn to_prometheus(&self) -> String {
        let mut ns = NameSpace::new();
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = ns.claim(&prom_name(name), &[""]);
            let _ = writeln!(out, "# HELP {n} {}", help_escape(name));
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {value}");
        }
        for (name, h) in &self.histograms {
            let n = ns.claim(&prom_name(name), &["", "_bucket", "_sum", "_count"]);
            let _ = writeln!(out, "# HELP {n} {}", help_escape(name));
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for &(bits, count) in &h.buckets {
                cumulative += count;
                let le = HistogramSnapshot::bucket_upper(bits as usize);
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        for (name, s) in &self.sketches {
            let n = ns.claim(&prom_name(name), &["", "_sum", "_count"]);
            let _ = writeln!(out, "# HELP {n} {}", help_escape(name));
            let _ = writeln!(out, "# TYPE {n} summary");
            for (q, v) in [
                ("0.5", s.p50),
                ("0.9", s.p90),
                ("0.95", s.p95),
                ("0.99", s.p99),
                ("0.999", s.p999),
            ] {
                let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{n}_sum {}", s.sum);
            let _ = writeln!(out, "{n}_count {}", s.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    fn sample() -> crate::Snapshot {
        let r = Registry::new();
        r.counter("ex.hits").add(3);
        let h = r.histogram("ex.latency_us");
        h.record(5);
        h.record(700);
        let s = r.sketch("ex.lat_sketch_us");
        for v in [10, 20, 30, 40] {
            s.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn prometheus_format() {
        let p = sample().to_prometheus();
        assert!(p.contains("# HELP ex_hits ex.hits"));
        assert!(p.contains("# TYPE ex_hits counter"));
        assert!(p.contains("ex_hits 3"));
        assert!(p.contains("# TYPE ex_latency_us histogram"));
        // 5 lands in bucket 3 (upper 7), 700 in bucket 10 (upper 1023);
        // cumulative counts 1 then 2.
        assert!(p.contains("ex_latency_us_bucket{le=\"7\"} 1"));
        assert!(p.contains("ex_latency_us_bucket{le=\"1023\"} 2"));
        assert!(p.contains("ex_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(p.contains("ex_latency_us_sum 705"));
        assert!(p.contains("ex_latency_us_count 2"));
        assert!(p.contains("# TYPE ex_lat_sketch_us summary"));
        assert!(p.contains("ex_lat_sketch_us{quantile=\"0.5\"}"));
        assert!(p.contains("ex_lat_sketch_us{quantile=\"0.999\"}"));
        assert!(p.contains("ex_lat_sketch_us_count 4"));
    }

    #[test]
    fn sanitized_collisions_are_uniquified() {
        let r = Registry::new();
        // Both sanitize to `kernel_batches`.
        r.counter("kernel.batches").add(1);
        r.counter("kernel_batches").add(2);
        let p = r.snapshot().to_prometheus();
        // BTreeMap order: "kernel.batches" < "kernel_batches".
        assert!(p.contains("\nkernel_batches 1\n"));
        assert!(p.contains("# HELP kernel_batches_2 kernel_batches"));
        assert!(p.contains("\nkernel_batches_2 2\n"));
        // No duplicate series name anywhere.
        let mut seen = std::collections::BTreeSet::new();
        for line in p.lines().filter(|l| !l.starts_with('#')) {
            let series = line.split([' ', '{']).next().unwrap();
            assert!(seen.insert(series.to_string()), "duplicate series {series}");
        }
    }

    #[test]
    fn histogram_derived_series_cannot_collide_with_counters() {
        let r = Registry::new();
        r.counter("x.count").add(9); // sanitizes to x_count
        r.histogram("x").record(1); // wants x_bucket/x_sum/x_count
        let p = r.snapshot().to_prometheus();
        // The histogram's claim sees x_count taken and moves to x_2.
        assert!(p.contains("\nx_count 9\n"));
        assert!(p.contains("# TYPE x_2 histogram"));
        assert!(p.contains("x_2_count 1"));
        assert!(!p.contains("\nx_count 1\n"));
    }

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(
            super::prom_name("ab.query.cells_probed"),
            "ab_query_cells_probed"
        );
        assert_eq!(super::prom_name("1bad"), "_1bad");
    }
}
