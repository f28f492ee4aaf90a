//! Hierarchical span tracing and the in-memory **flight recorder**.
//!
//! PR 3's [`super::trace`] answers "what happened" as a flat event stream;
//! this module answers "*where did the time go*": every interesting unit of
//! work — a scheduler round, a worker job, a query tick, one operator of a
//! compiled plan, one β attempt behind its retries — opens an
//! [`ActiveSpan`], annotates it with attributes, and closes it (RAII) into
//! a bounded ring of [`SpanRecord`]s held by the [`FlightRecorder`].
//!
//! Design constraints, in order:
//!
//! 1. **Low overhead when armed, near-zero when disarmed.** Starting a
//!    span costs one relaxed atomic load (armed check) plus, when armed,
//!    an id fetch-add and a thread-local read. Recording a finished span
//!    is one fetch-add on a per-lane cursor and one uncontended mutex
//!    swap on the targeted slot — no allocation beyond the span's own
//!    attribute vector, no global lock, no I/O.
//! 2. **Bounded memory.** Records land in per-lane ring buffers whose
//!    total capacity comes from `SERENA_TRACE_CAPACITY` (default 16384).
//!    When a lane wraps, the oldest record is dropped and
//!    [`FlightRecorder::dropped_total`] increments — surfaced as the
//!    `serena_trace_dropped_total` counter.
//! 3. **Strictly observational.** The recorder never influences execution:
//!    queries, deltas, actions and β results are byte-identical whether it
//!    is armed or disarmed (guarded by `tests/envgen_determinism.rs`).
//!
//! Parent/child linkage is implicit through a thread-local "current span"
//! ([`current`]/[`enter`]): a span started while another is entered becomes
//! its child. Work that hops threads (the scheduler's round) captures
//! `current()` before the hop and re-[`enter`]s it on the worker, so the
//! tree survives migration.
//!
//! Timestamps are monotonic nanoseconds since the recorder's creation
//! ([`FlightRecorder::now_ns`]), paired with the *logical*
//! [`Instant`] of the tick the span belongs to — the
//! two clocks of a tick-based algebra engine. [`chrome_trace`] renders a
//! snapshot in the Chrome/Perfetto `trace.json` format.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::time::Instant;

/// Default total ring capacity when `SERENA_TRACE_CAPACITY` is unset.
pub const DEFAULT_CAPACITY: usize = 16_384;

/// Most slots a recorder will ever allocate (they are built eagerly), so a
/// capacity that arrives from outside the program cannot size the heap.
const MAX_CAPACITY: usize = 1 << 20;

/// The total capacity a `SERENA_TRACE_CAPACITY` value asks for; unset,
/// unparsable or zero means [`DEFAULT_CAPACITY`].
fn requested_capacity(var: Option<&str>) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(DEFAULT_CAPACITY)
}

/// One span attribute value: small integers stay unboxed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned integer (counts, nanoseconds, flags as 0/1).
    U64(u64),
    /// An owned string (service names, outcome labels, error text).
    Str(String),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A finished span, as stored in the flight recorder.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (never 0; 0 means "no span" in parent links).
    pub id: u64,
    /// Parent span id, or 0 for a root.
    pub parent: u64,
    /// Static name, dot-namespaced: `sched.round`, `query.tick`,
    /// `op.join`, `beta.attempt`, …
    pub name: &'static str,
    /// Logical instant the span belongs to.
    pub at: Instant,
    /// Monotonic start, nanoseconds since recorder creation.
    pub start_ns: u64,
    /// Monotonic end, nanoseconds since recorder creation.
    pub end_ns: u64,
    /// Ring-buffer lane (≈ worker) the span was recorded on.
    pub lane: u32,
    /// Attributes, in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Look up an attribute by key (first match).
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Look up a `U64` attribute by key.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attr(key) {
            Some(AttrValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Look up a `Str` attribute by key.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        match self.attr(key) {
            Some(AttrValue::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// One drop-oldest ring: a monotone cursor plus fixed slots. The cursor
/// reservation is lock-free; the slot swap takes a per-slot mutex that is
/// uncontended unless the ring wraps within one write's critical section.
struct Lane {
    cursor: AtomicU64,
    slots: Vec<Mutex<Option<SpanRecord>>>,
}

impl Lane {
    fn new(capacity: usize) -> Self {
        Lane {
            cursor: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Store a record, returning `true` if an older record was evicted.
    fn push(&self, rec: SpanRecord) -> bool {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) as usize;
        let slot = &self.slots[i % self.slots.len()];
        let evicted = slot.lock().expect("lane slot poisoned").replace(rec);
        evicted.is_some()
    }
}

thread_local! {
    /// Innermost entered span id on this thread (0 = none).
    static CURRENT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Sticky lane assignment for this thread.
    static LANE_HINT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Round-robin source for thread lane assignments.
static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

/// Innermost entered span id on the calling thread (0 when none).
pub fn current() -> u64 {
    CURRENT.with(|c| c.get())
}

/// Make `id` the calling thread's current span until the guard drops.
///
/// `enter(0)` is a harmless no-op context ("no parent") — convenient when
/// re-entering a captured parent that may not exist.
pub fn enter(id: u64) -> EnterGuard {
    let prev = CURRENT.with(|c| c.replace(id));
    EnterGuard { prev }
}

/// Restores the previously-current span on drop. Not `Send`: the guard
/// must drop on the thread that entered.
pub struct EnterGuard {
    prev: u64,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// The bounded in-memory span store: per-lane rings, a global id source,
/// an armed flag and a drop counter.
#[derive(Debug)]
pub struct FlightRecorder {
    lanes: Vec<Lane>,
    armed: AtomicBool,
    next_id: AtomicU64,
    dropped: AtomicU64,
    epoch: std::time::Instant,
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("capacity", &self.slots.len())
            .field("cursor", &self.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder with `capacity` total slots (at least 64 per lane, at most
    /// 2²⁰ in all), spread over one lane per available core (capped at 16),
    /// armed.
    pub fn with_capacity(capacity: usize) -> Self {
        let lanes = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(1, 16);
        let per_lane = (capacity.min(MAX_CAPACITY) / lanes).max(64);
        FlightRecorder {
            lanes: (0..lanes).map(|_| Lane::new(per_lane)).collect(),
            armed: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            epoch: std::time::Instant::now(),
        }
    }

    /// A recorder configured from the environment: `SERENA_TRACE_CAPACITY`
    /// sets the total slot count and `SERENA_TRACE=0` starts it disarmed
    /// (armed otherwise).
    pub fn from_env() -> Self {
        let capacity = std::env::var("SERENA_TRACE_CAPACITY").ok();
        let rec = Self::with_capacity(requested_capacity(capacity.as_deref()));
        if std::env::var("SERENA_TRACE").is_ok_and(|v| v.trim() == "0") {
            rec.arm(false);
        }
        rec
    }

    /// Arm or disarm recording. Disarmed, [`FlightRecorder::start`]
    /// returns `None` and the hot path reduces to one relaxed load.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::Relaxed);
    }

    /// Whether spans are currently being recorded.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Total records evicted by ring wrap since creation.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total slot capacity across lanes.
    pub fn capacity(&self) -> usize {
        self.lanes.iter().map(|l| l.slots.len()).sum()
    }

    /// Monotonic nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        u128::min(self.epoch.elapsed().as_nanos(), u64::MAX as u128) as u64
    }

    /// Open a span as a child of the calling thread's [`current`] span.
    /// Returns `None` when disarmed (the caller's `?`/`map` chain then
    /// skips all annotation work).
    pub fn start(&self, name: &'static str, at: Instant) -> Option<ActiveSpan<'_>> {
        self.start_with(name, current(), at)
    }

    /// Open a span with an explicit parent id (0 for a root) — for work
    /// whose logical parent lives on another thread, e.g. a scheduler job
    /// carrying the id of the round that submitted it.
    pub fn start_with(
        &self,
        name: &'static str,
        parent: u64,
        at: Instant,
    ) -> Option<ActiveSpan<'_>> {
        if !self.armed() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        Some(ActiveSpan {
            rec: self,
            record: Some(SpanRecord {
                id,
                parent,
                name,
                at,
                start_ns,
                end_ns: start_ns,
                lane: 0,
                attrs: Vec::new(),
            }),
        })
    }

    /// Store a finished record into the calling thread's lane.
    fn record(&self, mut rec: SpanRecord) {
        let lane = LANE_HINT.with(|h| {
            let mut v = h.get();
            if v == usize::MAX {
                v = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
                h.set(v);
            }
            v
        }) % self.lanes.len();
        rec.lane = lane as u32;
        if self.lanes[lane].push(rec) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copy every retained record out, ordered by `(start_ns, id)`.
    ///
    /// Only *closed* spans are ever retained, so a snapshot never shows a
    /// child without its interval fully measured; a parent may be missing
    /// (still open, or evicted) — consumers must tolerate dangling
    /// `parent` ids.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            for slot in &lane.slots {
                if let Some(rec) = slot.lock().expect("lane slot poisoned").as_ref() {
                    out.push(rec.clone());
                }
            }
        }
        out.sort_by_key(|r| (r.start_ns, r.id));
        out
    }

    /// Drop all retained records (the drop counter is preserved).
    pub fn clear(&self) {
        for lane in &self.lanes {
            for slot in &lane.slots {
                slot.lock().expect("lane slot poisoned").take();
            }
        }
    }
}

/// An open span: annotate with [`ActiveSpan::attr_u64`]/
/// [`ActiveSpan::attr_str`], optionally [`ActiveSpan::enter`] it so work
/// below attaches as children, and let it drop (or call
/// [`ActiveSpan::finish`]) to stamp the end time and store the record.
/// RAII guarantees every started span is closed, even across `?`/panic
/// unwinds contained further up.
pub struct ActiveSpan<'r> {
    rec: &'r FlightRecorder,
    record: Option<SpanRecord>,
}

impl ActiveSpan<'_> {
    /// This span's id, for explicit parent links and histogram exemplars.
    pub fn id(&self) -> u64 {
        self.record.as_ref().map_or(0, |r| r.id)
    }

    /// Attach an integer attribute.
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        if let Some(r) = self.record.as_mut() {
            r.attrs.push((key, AttrValue::U64(value)));
        }
    }

    /// Attach a string attribute.
    pub fn attr_str(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(r) = self.record.as_mut() {
            r.attrs.push((key, AttrValue::Str(value.into())));
        }
    }

    /// Make this span the thread's current span until the guard drops.
    pub fn enter(&self) -> EnterGuard {
        enter(self.id())
    }

    /// Close the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for ActiveSpan<'_> {
    fn drop(&mut self) {
        if let Some(mut r) = self.record.take() {
            r.end_ns = self.rec.now_ns();
            self.rec.record(r);
        }
    }
}

/// Minimal JSON string escaping for [`chrome_trace`].
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render spans as a Chrome/Perfetto `trace.json` document: one complete
/// (`"ph":"X"`) event per span, lanes as `tid`s, the dot-prefix of the
/// span name as its category, and span/parent ids plus all attributes in
/// `args` so the original tree is recoverable in the viewer.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cat = s.name.split('.').next().unwrap_or(s.name);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"at\":{}",
            json_escape(s.name),
            json_escape(cat),
            s.lane,
            s.start_ns as f64 / 1_000.0,
            s.duration_ns() as f64 / 1_000.0,
            s.id,
            s.parent,
            s.at.0,
        ));
        for (k, v) in &s.attrs {
            match v {
                AttrValue::U64(n) => out.push_str(&format!(",\"{}\":{n}", json_escape(k))),
                AttrValue::Str(t) => {
                    out.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(t)))
                }
            }
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_through_the_thread_local() {
        let rec = FlightRecorder::with_capacity(256);
        {
            let root = rec.start("sched.round", Instant(1)).unwrap();
            let _g = root.enter();
            let mut child = rec.start("query.tick", Instant(1)).unwrap();
            child.attr_u64("inserted", 3);
            assert_eq!(
                rec.snapshot().len(),
                0,
                "open spans are not yet in the ring"
            );
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "sched.round").unwrap();
        let child = spans.iter().find(|s| s.name == "query.tick").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(root.parent, 0);
        assert!(child.start_ns >= root.start_ns);
        assert!(child.end_ns <= root.end_ns, "child closed before parent");
        assert_eq!(child.attr_u64("inserted"), Some(3));
        assert_eq!(current(), 0, "guard restored the empty context");
    }

    #[test]
    fn disarmed_recorder_records_nothing() {
        let rec = FlightRecorder::with_capacity(256);
        rec.arm(false);
        assert!(rec.start("query.tick", Instant(0)).is_none());
        assert!(rec.snapshot().is_empty());
        rec.arm(true);
        rec.start("query.tick", Instant(0)).unwrap();
        assert_eq!(rec.snapshot().len(), 1);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let rec = FlightRecorder::with_capacity(1); // floors at 64/lane
        let cap = rec.capacity();
        for _ in 0..cap + 10 {
            rec.start("op.select", Instant(0)).unwrap();
        }
        // This thread writes to exactly one lane, so only that lane's
        // slots fill; everything past its capacity evicts.
        let per_lane = cap / rec.lanes.len();
        assert_eq!(rec.dropped_total(), (cap + 10 - per_lane) as u64);
        assert_eq!(rec.snapshot().len(), per_lane);
        rec.clear();
        assert!(rec.snapshot().is_empty());
        assert!(rec.dropped_total() > 0, "clear preserves the drop counter");
    }

    #[test]
    fn explicit_parent_survives_thread_hops() {
        let rec = std::sync::Arc::new(FlightRecorder::with_capacity(256));
        let parent_id = {
            let parent = rec.start("sched.round", Instant(7)).unwrap();
            let id = parent.id();
            let r = std::sync::Arc::clone(&rec);
            std::thread::scope(|s| {
                s.spawn(move || {
                    let job = r.start_with("sched.job", id, Instant(7)).unwrap();
                    let _g = job.enter();
                    r.start("query.tick", Instant(7)).unwrap();
                });
            });
            id
        };
        let spans = rec.snapshot();
        let job = spans.iter().find(|s| s.name == "sched.job").unwrap();
        let tick = spans.iter().find(|s| s.name == "query.tick").unwrap();
        assert_eq!(job.parent, parent_id);
        assert_eq!(tick.parent, job.id);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let rec = FlightRecorder::with_capacity(256);
        {
            let mut s = rec.start("beta.attempt", Instant(2)).unwrap();
            s.attr_str("service", "needs \"escaping\"\\here\n");
            s.attr_u64("ok", 1);
        }
        let json = chrome_trace(&rec.snapshot());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"beta.attempt\""));
        assert!(json.contains("\"cat\":\"beta\""));
        assert!(json.contains("\\\"escaping\\\"\\\\here\\n"));
        assert!(json.contains("\"at\":2"));
        // no raw control characters survive escaping
        assert!(!json.chars().any(|c| (c as u32) < 0x20));
    }

    #[test]
    fn capacity_env_floor_and_defaults() {
        let rec = FlightRecorder::default();
        assert!(rec.capacity() >= DEFAULT_CAPACITY / 16);
        assert!(rec.armed());
        assert!(rec.now_ns() <= rec.now_ns());
    }

    #[test]
    fn capacity_from_outside_is_clamped_before_it_allocates() {
        assert!(FlightRecorder::with_capacity(usize::MAX).capacity() <= MAX_CAPACITY);
        // what `from_env` does with a hostile SERENA_TRACE_CAPACITY
        for hostile in ["18446744073709551615", "1000000000000"] {
            let asked = requested_capacity(Some(hostile));
            assert!(asked > MAX_CAPACITY);
            assert!(FlightRecorder::with_capacity(asked).capacity() <= MAX_CAPACITY);
        }
        for unset in [None, Some("0"), Some("lots"), Some("-5")] {
            assert_eq!(requested_capacity(unset), DEFAULT_CAPACITY);
        }
        assert_eq!(requested_capacity(Some(" 256 ")), 256);
    }
}
