//! The benchmark's own spans: recorded in memory around each call
//! into a layer, written out when the run ends. Spans inside the
//! program are a later change; these are timed from outside.
//!
//! A span has a name, a start and an end, the span that caused it
//! (its parent) and the request it belongs to. A layer's *self time*
//! is its span's duration minus the part its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary crossed.
    pub name: &'static str,
    /// Index of the request in the list.
    pub request: u32,
    /// Index of the parent span, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: usize) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request: request as u32,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `body` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: usize, body: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = body();
        self.exit(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, ns: duration minus direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Per request, the summed self time (µs) of spans named `name`;
    /// requests without such a span are left out.
    pub fn self_us_per_request(&self, name: &str) -> Vec<f64> {
        let ns = self.self_ns();
        let mut sums: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for (s, &v) in self.spans.iter().zip(&ns) {
            if s.name == name {
                *sums.entry(s.request).or_default() += v;
            }
        }
        sums.into_values().map(|v| v as f64 / 1e3).collect()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer with hand-set times: (name, request, parent,
    /// start, end).
    fn hand_made(spans: &[(&'static str, u32, Option<u32>, u64, u64)]) -> Tracer {
        Tracer {
            spans: spans
                .iter()
                .map(|&(name, request, parent, start_ns, end_ns)| Span {
                    name,
                    request,
                    parent,
                    start_ns,
                    end_ns,
                })
                .collect(),
            ..Tracer::default()
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = hand_made(&[
            ("request", 0, None, 0, 10_000),
            ("svc", 0, Some(0), 1_000, 8_000), // 7 µs, child of request
            ("ab", 0, Some(1), 2_000, 6_000),  // 4 µs, child of svc
            ("frame", 0, Some(0), 8_500, 9_500), // 1 µs, child of request
        ]);
        // request: 10 − (7 + 1) = 2; svc: 7 − 4 = 3; ab: 4; frame: 1.
        assert_eq!(t.self_ns(), vec![2_000, 3_000, 4_000, 1_000]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(t.self_ns().iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn per_request_sums_group_spans_by_name_and_request() {
        let t = hand_made(&[
            ("shard", 0, None, 0, 3_000),
            ("shard", 0, None, 3_000, 5_000),
            ("shard", 1, None, 5_000, 9_000),
            ("other", 1, None, 9_000, 9_500),
        ]);
        assert_eq!(t.self_us_per_request("shard"), vec![5.0, 4.0]);
        assert_eq!(t.self_us_per_request("other"), vec![0.5]);
        assert!(t.self_us_per_request("absent").is_empty());
    }

    #[test]
    fn enter_exit_nests_and_time_returns_the_body_value() {
        let mut t = Tracer::default();
        let root = t.enter("request", 7);
        let v = t.time("svc", 7, || 42);
        t.exit(root);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[0].request, s[1].name), (7, "svc"));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn dump_is_a_json_array_with_one_object_per_span() {
        let t = hand_made(&[("a", 0, None, 1, 2), ("b", 3, Some(0), 1, 2)]);
        assert_eq!(
            t.to_json(),
            "[\n  {\"id\": 0, \"name\": \"a\", \"request\": 0, \"parent\": null, \
             \"start_ns\": 1, \"end_ns\": 2},\n  \
             {\"id\": 1, \"name\": \"b\", \"request\": 3, \"parent\": 0, \
             \"start_ns\": 1, \"end_ns\": 2}\n]\n"
        );
        assert_eq!(Tracer::default().to_json(), "[\n]\n");
    }
}
