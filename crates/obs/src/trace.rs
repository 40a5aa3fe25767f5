//! Request-scoped tracing and the in-memory flight recorder.
//!
//! The counters and histograms in this crate aggregate across *all*
//! requests; this module answers the per-request question — *where did
//! this query's time go?* A [`TraceCtx`] is attached to one request
//! and carried (cheaply, it is an `Option<Arc>`) across every thread
//! that works on it. Each unit of work opens a [`TraceSpan`]; spans
//! record wall-clock start/end offsets plus free-form annotations
//! (shard id, rows scanned, bits read, degraded/quarantine
//! outcomes) and link to a parent span, so one request yields one
//! cross-thread span tree.
//!
//! Completed traces land in the global [`FlightRecorder`] — a
//! fixed-capacity ring that keeps the last N traces plus a pinned list
//! of slow ones. Writers only ever `try_lock` a slot: a contended slot
//! drops the trace and bumps a counter instead of blocking the request
//! path.
//!
//! ## Cross-thread handoff
//!
//! Span parentage is resolved through a **per-thread** stack of
//! entered spans (see [`TraceSpan::enter`]): [`TraceCtx::span`]
//! parents onto the innermost entered span *of the same trace* on the
//! current thread. Work shipped to another thread (a pool job) cannot
//! see that stack — the dispatching side must capture the parent id
//! ([`TraceSpan::id`]) and the receiving side calls
//! [`TraceCtx::span_under`] with it. This is the handoff
//! [`crate::active_spans`] cannot provide (its stack is also
//! thread-local; see the `span` module docs).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Spans kept per trace; further spans are counted in
/// [`Trace::dropped_spans`] instead of growing without bound.
pub const MAX_SPANS_PER_TRACE: usize = 512;

/// Ring slots in the global [`recorder`].
pub const RECORDER_SLOTS: usize = 128;

/// Slow (pinned) traces kept by the global [`recorder`] beyond the
/// ring.
pub const RECORDER_PINNED: usize = 32;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost-last stack of entered spans on this thread.
    static CURRENT: RefCell<Vec<(Arc<TraceInner>, u64)>> = const { RefCell::new(Vec::new()) };
}

/// An annotation value on a span.
#[derive(Clone, Debug, PartialEq)]
pub enum AnnValue {
    /// An unsigned integer (counts, ids, microseconds).
    U64(u64),
    /// A short string (outcomes, kinds).
    Str(String),
}

impl From<u64> for AnnValue {
    fn from(v: u64) -> Self {
        AnnValue::U64(v)
    }
}

impl From<usize> for AnnValue {
    fn from(v: usize) -> Self {
        AnnValue::U64(v as u64)
    }
}

impl From<u32> for AnnValue {
    fn from(v: u32) -> Self {
        AnnValue::U64(v as u64)
    }
}

impl From<&str> for AnnValue {
    fn from(v: &str) -> Self {
        AnnValue::Str(v.to_string())
    }
}

impl From<String> for AnnValue {
    fn from(v: String) -> Self {
        AnnValue::Str(v)
    }
}

impl std::fmt::Display for AnnValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnValue::U64(v) => write!(f, "{v}"),
            AnnValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One completed span inside a [`Trace`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span id, unique within the trace (1-based; never 0).
    pub id: u64,
    /// Parent span id; 0 marks a root.
    pub parent: u64,
    /// Span name (dotted, like metric names).
    pub name: String,
    /// Microseconds from trace start to span start.
    pub start_us: u64,
    /// Microseconds from trace start to span end.
    pub end_us: u64,
    /// Key/value annotations in record order.
    pub annotations: Vec<(String, AnnValue)>,
}

struct TraceInner {
    id: u64,
    kind: &'static str,
    unix_start_us: u64,
    epoch: Instant,
    next_span: AtomicU64,
    closed: AtomicBool,
    dropped_spans: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl TraceInner {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn push(&self, record: SpanRecord) {
        if self.closed.load(Ordering::Acquire) {
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut spans = self.spans.lock().expect("trace span list poisoned");
        if spans.len() >= MAX_SPANS_PER_TRACE {
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
        } else {
            spans.push(record);
        }
    }
}

/// A request's trace handle. Cloning shares the trace; a disabled
/// context (the default) makes every span a free no-op.
#[derive(Clone, Default)]
pub struct TraceCtx {
    inner: Option<Arc<TraceInner>>,
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => write!(f, "TraceCtx({})", i.id),
            None => write!(f, "TraceCtx(disabled)"),
        }
    }
}

impl TraceCtx {
    /// Starts a new trace of the given request kind.
    pub fn start(kind: &'static str) -> TraceCtx {
        let unix_start_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        TraceCtx {
            inner: Some(Arc::new(TraceInner {
                id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
                kind,
                unix_start_us,
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                closed: AtomicBool::new(false),
                dropped_spans: AtomicU64::new(0),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A context that records nothing.
    pub fn disabled() -> TraceCtx {
        TraceCtx { inner: None }
    }

    /// Whether spans opened on this context are recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id, if enabled.
    pub fn trace_id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.id)
    }

    /// Opens a span parented onto the innermost span of *this trace*
    /// entered on the current thread (see [`TraceSpan::enter`]), or a
    /// root span if there is none.
    pub fn span(&self, name: &'static str) -> TraceSpan {
        let parent = match &self.inner {
            None => 0,
            Some(inner) => CURRENT.with(|c| {
                c.borrow()
                    .iter()
                    .rev()
                    .find(|(top, _)| Arc::ptr_eq(top, inner))
                    .map(|&(_, id)| id)
                    .unwrap_or(0)
            }),
        };
        self.span_under(parent, name)
    }

    /// Opens a span under an explicit parent id — the cross-thread
    /// handoff: capture [`TraceSpan::id`] on the dispatching side,
    /// call this on the worker side.
    pub fn span_under(&self, parent: u64, name: &'static str) -> TraceSpan {
        match &self.inner {
            None => TraceSpan { data: None },
            Some(inner) => {
                let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
                TraceSpan {
                    data: Some(SpanData {
                        inner: Arc::clone(inner),
                        id,
                        parent,
                        name,
                        start_us: inner.now_us(),
                        annotations: Vec::new(),
                    }),
                }
            }
        }
    }

    /// Closes the trace and takes its spans. Returns `None` for a
    /// disabled context or if the trace was already finished; spans
    /// still open at this point are dropped (counted in
    /// [`Trace::dropped_spans`]) rather than kept forever.
    pub fn finish(&self) -> Option<Trace> {
        let inner = self.inner.as_ref()?;
        let duration_us = inner.now_us();
        if inner.closed.swap(true, Ordering::AcqRel) {
            return None;
        }
        let mut spans = std::mem::take(&mut *inner.spans.lock().expect("trace span list poisoned"));
        spans.sort_by_key(|s| (s.start_us, s.id));
        Some(Trace {
            trace_id: inner.id,
            kind: inner.kind.to_string(),
            unix_start_us: inner.unix_start_us,
            duration_us,
            pinned: false,
            dropped_spans: inner.dropped_spans.load(Ordering::Relaxed),
            spans,
        })
    }
}

struct SpanData {
    inner: Arc<TraceInner>,
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
    annotations: Vec<(String, AnnValue)>,
}

/// A live span; annotations accumulate locally and the record is
/// committed to the trace when the span drops. A disabled span (from a
/// disabled [`TraceCtx`]) is a zero-cost no-op.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct TraceSpan {
    data: Option<SpanData>,
}

impl TraceSpan {
    /// This span's id (0 when disabled) — capture it to parent
    /// cross-thread work via [`TraceCtx::span_under`].
    pub fn id(&self) -> u64 {
        self.data.as_ref().map(|d| d.id).unwrap_or(0)
    }

    /// Whether this span records anything.
    pub fn enabled(&self) -> bool {
        self.data.is_some()
    }

    /// Attaches a key/value annotation.
    pub fn annotate(&mut self, key: &'static str, value: impl Into<AnnValue>) {
        if let Some(d) = &mut self.data {
            d.annotations.push((key.to_string(), value.into()));
        }
    }

    /// Makes this span the current parent for [`TraceCtx::span`] and
    /// [`span_current`] on **this thread** until the guard drops.
    pub fn enter(&self) -> EnterGuard {
        match &self.data {
            None => EnterGuard { active: false },
            Some(d) => {
                CURRENT.with(|c| c.borrow_mut().push((Arc::clone(&d.inner), d.id)));
                EnterGuard { active: true }
            }
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(d) = self.data.take() {
            let end_us = d.inner.now_us();
            d.inner.push(SpanRecord {
                id: d.id,
                parent: d.parent,
                name: d.name.to_string(),
                start_us: d.start_us,
                end_us,
                annotations: d.annotations,
            });
        }
    }
}

impl std::fmt::Debug for TraceSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.data {
            Some(d) => write!(f, "TraceSpan({} id={})", d.name, d.id),
            None => write!(f, "TraceSpan(disabled)"),
        }
    }
}

/// Pops the entered span from the thread's stack on drop; see
/// [`TraceSpan::enter`].
#[must_use = "dropping the guard immediately exits the span"]
pub struct EnterGuard {
    active: bool,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        if self.active {
            CURRENT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
}

/// Opens a span on whatever trace is entered on this thread — the hook
/// instrumented library code (the probe kernel) uses so it needs no
/// trace plumbing of its own. Returns a disabled span when no trace is
/// entered.
pub fn span_current(name: &'static str) -> TraceSpan {
    let top = CURRENT.with(|c| c.borrow().last().map(|(i, id)| (Arc::clone(i), *id)));
    match top {
        None => TraceSpan { data: None },
        Some((inner, parent)) => TraceCtx { inner: Some(inner) }.span_under(parent, name),
    }
}

/// A completed request trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Process-unique trace id.
    pub trace_id: u64,
    /// Request kind (`rect`, `cells`, `batch`, …).
    pub kind: String,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub unix_start_us: u64,
    /// Total duration in microseconds.
    pub duration_us: u64,
    /// Whether the recorder pinned this trace (slow-query log).
    pub pinned: bool,
    /// Spans dropped past [`MAX_SPANS_PER_TRACE`] or after finish.
    pub dropped_spans: u64,
    /// Completed spans, sorted by start offset.
    pub spans: Vec<SpanRecord>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Trace {
    /// Serializes this trace as a JSON object (the element format of
    /// the `/debug/traces` dump).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"kind\":\"{}\",\"unix_start_us\":{},\"duration_us\":{},\"pinned\":{},\"dropped_spans\":{},\"spans\":[",
            self.trace_id,
            json_escape(&self.kind),
            self.unix_start_us,
            self.duration_us,
            self.pinned,
            self.dropped_spans,
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"annotations\":{{",
                s.id,
                s.parent,
                json_escape(&s.name),
                s.start_us,
                s.end_us,
            );
            for (j, (k, v)) in s.annotations.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match v {
                    AnnValue::U64(n) => {
                        let _ = write!(out, "\"{}\":{}", json_escape(k), n);
                    }
                    AnnValue::Str(sv) => {
                        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(sv));
                    }
                }
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Renders the span tree as indented text (the `abq trace`
    /// output). Orphaned spans (parent missing from the dump) are
    /// listed at root level with a marker.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {} kind={} start_us={} duration={}µs{}{}",
            self.trace_id,
            self.kind,
            self.unix_start_us,
            self.duration_us,
            if self.pinned { " [pinned: slow]" } else { "" },
            if self.dropped_spans > 0 {
                format!(" [{} spans dropped]", self.dropped_spans)
            } else {
                String::new()
            },
        );
        let ids: std::collections::BTreeSet<u64> = self.spans.iter().map(|s| s.id).collect();
        let mut children: std::collections::BTreeMap<u64, Vec<&SpanRecord>> =
            std::collections::BTreeMap::new();
        let mut roots: Vec<(&SpanRecord, bool)> = Vec::new();
        for s in &self.spans {
            if s.parent != 0 && ids.contains(&s.parent) {
                children.entry(s.parent).or_default().push(s);
            } else {
                roots.push((s, s.parent != 0));
            }
        }
        fn emit(
            out: &mut String,
            s: &SpanRecord,
            orphan: bool,
            depth: usize,
            children: &std::collections::BTreeMap<u64, Vec<&SpanRecord>>,
        ) {
            let _ = write!(
                out,
                "{}- {} {}–{}µs ({}µs)",
                "  ".repeat(depth),
                s.name,
                s.start_us,
                s.end_us,
                s.end_us.saturating_sub(s.start_us),
            );
            for (k, v) in &s.annotations {
                let _ = write!(out, " {k}={v}");
            }
            if orphan {
                let _ = write!(out, " [orphan: parent {} missing]", s.parent);
            }
            out.push('\n');
            for c in children.get(&s.id).into_iter().flatten() {
                emit(out, c, false, depth + 1, children);
            }
        }
        for (r, orphan) in roots {
            emit(&mut out, r, orphan, 1, &children);
        }
        out
    }
}

/// Fixed-capacity ring of completed traces plus a pinned slow-query
/// list. Writers never block: a contended slot or pin list drops the
/// trace and counts it in [`FlightRecorder::dropped`].
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Arc<Trace>>>>,
    cursor: AtomicUsize,
    pinned: Mutex<VecDeque<Arc<Trace>>>,
    pinned_cap: usize,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with `slots` ring entries and up to `pinned_cap`
    /// pinned slow traces.
    pub fn new(slots: usize, pinned_cap: usize) -> Self {
        FlightRecorder {
            slots: (0..slots.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            pinned: Mutex::new(VecDeque::new()),
            pinned_cap,
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records a completed trace, pinning it when `pin` is set (the
    /// slow-query log). Never blocks: contended slots drop the trace.
    pub fn record(&self, mut trace: Trace, pin: bool) {
        trace.pinned = pin;
        let trace = Arc::new(trace);
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        match self.slots[i].try_lock() {
            Ok(mut slot) => {
                *slot = Some(Arc::clone(&trace));
                self.recorded.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if pin && self.pinned_cap > 0 {
            if let Ok(mut pinned) = self.pinned.try_lock() {
                pinned.push_back(trace);
                while pinned.len() > self.pinned_cap {
                    pinned.pop_front();
                }
            }
        }
    }

    /// Traces recorded successfully since construction (or [`Self::clear`]).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Traces dropped because a slot was contended.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Every retained trace — ring contents plus pinned slow traces —
    /// sorted by start time.
    pub fn traces(&self) -> Vec<Arc<Trace>> {
        let mut out: Vec<Arc<Trace>> = Vec::new();
        for slot in &self.slots {
            if let Ok(s) = slot.lock() {
                if let Some(t) = &*s {
                    out.push(Arc::clone(t));
                }
            }
        }
        if let Ok(pinned) = self.pinned.lock() {
            for t in pinned.iter() {
                if !out.iter().any(|o| Arc::ptr_eq(o, t)) {
                    out.push(Arc::clone(t));
                }
            }
        }
        out.sort_by_key(|t| (t.unix_start_us, t.trace_id));
        out
    }

    /// Empties the recorder and zeroes its counters (tests and the
    /// repro binaries use this to scope assertions to one workload).
    pub fn clear(&self) {
        for slot in &self.slots {
            if let Ok(mut s) = slot.lock() {
                *s = None;
            }
        }
        if let Ok(mut pinned) = self.pinned.lock() {
            pinned.clear();
        }
        self.cursor.store(0, Ordering::Relaxed);
        self.recorded.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// The `/debug/traces` dump: a JSON object with recorder counters
    /// and every retained trace.
    pub fn to_json(&self) -> String {
        let traces = self.traces();
        let mut out = format!(
            "{{\"recorded\":{},\"dropped\":{},\"traces\":[",
            self.recorded(),
            self.dropped()
        );
        for (i, t) in traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("]}");
        out
    }
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder completed request traces land in.
pub fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(|| FlightRecorder::new(RECORDER_SLOTS, RECORDER_PINNED))
}

// ---------------------------------------------------------------------
// Parsing the /debug/traces dump (for `abq trace`).

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

#[derive(Debug)]
enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }
    fn get<'v>(&'v self, key: &str) -> Option<&'v JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            b: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} of trace dump",
                c as char, self.i
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        self.ws();
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        self.ws();
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i).copied() {
                None => return Err("unterminated string in trace dump".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape in trace dump")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(c) => {
                    // Copy the full UTF-8 sequence starting here.
                    let len = match c {
                        c if c < 0x80 => 1,
                        c if c >= 0xf0 => 4,
                        c if c >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .b
                        .get(self.i..self.i + len)
                        .ok_or("truncated UTF-8 in trace dump")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.i += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(out));
                }
                other => return Err(format!("expected ',' or ']' but found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(out));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            out.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(out));
                }
                other => return Err(format!("expected ',' or '}}' but found {other:?}")),
            }
        }
    }
}

fn trace_from_value(v: &JsonValue) -> Result<Trace, String> {
    let spans = match v.get("spans") {
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(|s| {
                let annotations = match s.get("annotations") {
                    Some(JsonValue::Obj(pairs)) => pairs
                        .iter()
                        .map(|(k, av)| {
                            let value = match av {
                                JsonValue::Num(n) => AnnValue::U64(*n as u64),
                                JsonValue::Str(sv) => AnnValue::Str(sv.clone()),
                                JsonValue::Bool(b) => AnnValue::Str(b.to_string()),
                                _ => AnnValue::Str(String::new()),
                            };
                            (k.clone(), value)
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                Ok(SpanRecord {
                    id: s
                        .get("id")
                        .and_then(JsonValue::as_u64)
                        .ok_or("span without id")?,
                    parent: s.get("parent").and_then(JsonValue::as_u64).unwrap_or(0),
                    name: match s.get("name") {
                        Some(JsonValue::Str(n)) => n.clone(),
                        _ => return Err("span without name".into()),
                    },
                    start_us: s.get("start_us").and_then(JsonValue::as_u64).unwrap_or(0),
                    end_us: s.get("end_us").and_then(JsonValue::as_u64).unwrap_or(0),
                    annotations,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => Vec::new(),
    };
    Ok(Trace {
        trace_id: v
            .get("trace_id")
            .and_then(JsonValue::as_u64)
            .ok_or("trace without trace_id")?,
        kind: match v.get("kind") {
            Some(JsonValue::Str(k)) => k.clone(),
            _ => "unknown".to_string(),
        },
        unix_start_us: v
            .get("unix_start_us")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        duration_us: v
            .get("duration_us")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        pinned: matches!(v.get("pinned"), Some(JsonValue::Bool(true))),
        dropped_spans: v
            .get("dropped_spans")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        spans,
    })
}

/// Parses a `/debug/traces` dump (see [`FlightRecorder::to_json`]) —
/// also accepts a bare JSON array of traces, or a single trace object.
pub fn parse_dump(s: &str) -> Result<Vec<Trace>, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    let list: Vec<&JsonValue> = match &v {
        JsonValue::Obj(_) if v.get("traces").is_some() => match v.get("traces") {
            Some(JsonValue::Arr(items)) => items.iter().collect(),
            _ => return Err("\"traces\" is not an array".into()),
        },
        JsonValue::Arr(items) => items.iter().collect(),
        JsonValue::Obj(_) => vec![&v],
        _ => return Err("trace dump is not an object or array".into()),
    };
    list.into_iter().map(trace_from_value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_nests_via_thread_stack() {
        let ctx = TraceCtx::start("test");
        let root_id;
        {
            let root = ctx.span("root");
            root_id = root.id();
            let _g = root.enter();
            {
                let child = ctx.span("child");
                let _g2 = child.enter();
                let mut grandchild = ctx.span("grandchild");
                grandchild.annotate("k", 7u64);
            }
            // A kernel-style span with no explicit ctx.
            let _k = span_current("kernel");
        }
        let t = ctx.finish().expect("first finish yields the trace");
        assert!(ctx.finish().is_none(), "finish is once");
        assert_eq!(t.spans.len(), 4);
        let by_name = |n: &str| t.spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("root").parent, 0);
        assert_eq!(by_name("child").parent, root_id);
        assert_eq!(by_name("grandchild").parent, by_name("child").id);
        assert_eq!(by_name("kernel").parent, root_id);
        assert_eq!(
            by_name("grandchild").annotations,
            vec![("k".to_string(), AnnValue::U64(7))]
        );
    }

    #[test]
    fn cross_thread_handoff_parents_correctly() {
        let ctx = TraceCtx::start("test");
        let root = ctx.span("root");
        let root_id = root.id();
        let _g = root.enter();
        std::thread::scope(|s| {
            for shard in 0..3u64 {
                let ctx = ctx.clone();
                s.spawn(move || {
                    let mut sp = ctx.span_under(root_id, "shard");
                    sp.annotate("shard", shard);
                    let _e = sp.enter();
                    let _k = span_current("kernel");
                });
            }
        });
        drop(_g);
        drop(root);
        let t = ctx.finish().unwrap();
        assert_eq!(t.spans.iter().filter(|s| s.name == "shard").count(), 3);
        for s in t.spans.iter().filter(|s| s.name == "shard") {
            assert_eq!(s.parent, root_id);
        }
        // Each kernel span hangs under one of the shard spans.
        let shard_ids: Vec<u64> = t
            .spans
            .iter()
            .filter(|s| s.name == "shard")
            .map(|s| s.id)
            .collect();
        for k in t.spans.iter().filter(|s| s.name == "kernel") {
            assert!(shard_ids.contains(&k.parent));
        }
    }

    #[test]
    fn disabled_ctx_is_free_and_silent() {
        let ctx = TraceCtx::disabled();
        assert!(!ctx.enabled());
        let mut s = ctx.span("anything");
        s.annotate("k", 1u64);
        let _e = s.enter();
        let inner = span_current("kernel");
        assert!(!inner.enabled());
        assert!(ctx.finish().is_none());
    }

    #[test]
    fn span_cap_counts_drops() {
        let ctx = TraceCtx::start("test");
        for _ in 0..(MAX_SPANS_PER_TRACE + 10) {
            let _s = ctx.span("s");
        }
        let t = ctx.finish().unwrap();
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(t.dropped_spans, 10);
    }

    #[test]
    fn recorder_ring_overwrites_and_pins() {
        let r = FlightRecorder::new(4, 2);
        for i in 0..6 {
            let ctx = TraceCtx::start("test");
            let t = ctx.finish().unwrap();
            // Pin the first one; it must survive ring overwrite.
            r.record(t, i == 0);
        }
        assert_eq!(r.recorded(), 6);
        let traces = r.traces();
        // 4 ring slots + the pinned one that was overwritten.
        assert_eq!(traces.len(), 5);
        assert_eq!(traces.iter().filter(|t| t.pinned).count(), 1);
        r.clear();
        assert!(r.traces().is_empty());
        assert_eq!(r.recorded(), 0);
    }

    #[test]
    fn recorder_never_blocks_on_contended_slot() {
        use std::time::Duration;
        let r = Arc::new(FlightRecorder::new(1, 0));
        // Hold the only slot's lock…
        let slot_guard = r.slots[0].lock().unwrap();
        let r2 = Arc::clone(&r);
        let h = std::thread::spawn(move || {
            let start = Instant::now();
            let t = TraceCtx::start("test").finish().unwrap();
            r2.record(t, false);
            start.elapsed()
        });
        let elapsed = h.join().unwrap();
        drop(slot_guard);
        assert!(
            elapsed < Duration::from_millis(100),
            "record blocked for {elapsed:?}"
        );
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn json_dump_roundtrips_through_parser() {
        let ctx = TraceCtx::start("rect");
        {
            let mut root = ctx.span("svc.request");
            root.annotate("outcome", "ok");
            root.annotate("shards", 3u64);
            let _g = root.enter();
            let _c = ctx.span("svc.merge");
        }
        let t = ctx.finish().unwrap();
        let r = FlightRecorder::new(4, 2);
        r.record(t.clone(), true);
        let parsed = parse_dump(&r.to_json()).unwrap();
        assert_eq!(parsed.len(), 1);
        let p = &parsed[0];
        assert_eq!(p.trace_id, t.trace_id);
        assert_eq!(p.kind, "rect");
        assert!(p.pinned);
        assert_eq!(p.spans.len(), t.spans.len());
        assert_eq!(p.spans[0].annotations, t.spans[0].annotations);
        // The renderer shows the tree with annotations inline.
        let tree = p.render_tree();
        assert!(tree.contains("svc.request"));
        assert!(tree.contains("outcome=ok"));
        assert!(tree.contains("[pinned: slow]"));
        assert!(
            tree.contains("  - svc.merge"),
            "nested child missing:\n{tree}"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_dump("not json").is_err());
        assert!(parse_dump("{\"traces\":5}").is_err());
        assert!(parse_dump("{\"traces\":[{\"kind\":\"x\"}]}").is_err()); // no trace_id
    }
}
