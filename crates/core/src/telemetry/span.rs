//! Hierarchical span tracing and the in-memory **flight recorder**.
//!
//! The runtime's one trace, answering both "what happened" and "*where
//! did the time go*": every interesting unit of work — a scheduler round,
//! a worker job, a query tick, one operator of a compiled plan, one β
//! attempt behind its retries — opens an [`ActiveSpan`], annotates it with
//! attributes, and closes it (RAII) into a bounded queue of [`SpanRecord`]s
//! held by the [`FlightRecorder`].
//!
//! Design constraints, in order:
//!
//! 1. **Low overhead when armed, near-zero when disarmed.** Starting a
//!    span costs one relaxed atomic load (armed check) plus, when armed,
//!    an id fetch-add and a thread-local read. Recording a finished span
//!    takes its lane's lock (one lane per core, so it is contended only
//!    when two threads share a lane) and pushes the record at the back —
//!    no global lock, no I/O, and no panic site: the lock does not poison.
//! 2. **Bounded memory, and none until used.** Each lane is a FIFO of at
//!    most its share of [`DEFAULT_CAPACITY`] (16384 spans over at most 16
//!    lanes, so at least 1024 a lane). A lane allocates nothing
//!    until its first span closes, then reserves exactly its bound: a
//!    recorder that never records, armed or not, holds no span storage.
//!    When a lane is full, its oldest record leaves the front (and is
//!    dropped once the lock is released) and the recorder's drop counter
//!    increments — in a runtime, that counter *is* the
//!    `serena_trace_dropped_total` series ([`FlightRecorder::new`]).
//! 3. **Strictly observational.** The recorder never influences execution:
//!    queries, deltas, actions and β results are byte-identical whether it
//!    is armed or disarmed (guarded by `tests/envgen_determinism.rs`).
//!
//! Parent/child linkage is implicit through a thread-local "current span"
//! ([`current`]/[`ActiveSpan::enter`]): a span started while another is
//! entered becomes its child. Work that hops threads (the scheduler's round)
//! captures `current()` before the hop and opens its span on the worker
//! with that parent ([`FlightRecorder::start_with`]), so the tree survives
//! migration.
//!
//! Timestamps are monotonic nanoseconds since the recorder's creation
//! ([`FlightRecorder::now_ns`]), paired with the *logical*
//! [`Instant`] of the tick the span belongs to — the
//! two clocks of a tick-based algebra engine. [`chrome_trace`] renders a
//! snapshot in the Chrome/Perfetto `trace.json` format.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use super::registry::Counter;
use crate::sync::Mutex;
use crate::time::Instant;

/// Most spans a recorder holds, over all its lanes.
pub const DEFAULT_CAPACITY: usize = 16_384;

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
    /// Lane (≈ worker) the span was recorded on.
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

/// Restores the previously-current span on drop; drop it on the thread
/// that entered.
pub struct EnterGuard {
    prev: u64,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// The bounded in-memory span store: per-lane queues, a global id source,
/// an armed flag and a drop counter.
#[derive(Debug)]
pub struct FlightRecorder {
    /// One FIFO of closed spans per lane. A lane allocates nothing until
    /// its first record, then reserves exactly `per_lane` and never grows
    /// past it.
    lanes: Vec<Mutex<VecDeque<SpanRecord>>>,
    per_lane: usize,
    armed: AtomicBool,
    next_id: AtomicU64,
    dropped: Arc<Counter>,
    epoch: std::time::Instant,
}

impl Default for FlightRecorder {
    /// [`FlightRecorder::new`], counting its evictions privately.
    fn default() -> Self {
        Self::new(Arc::default())
    }
}

impl FlightRecorder {
    /// A recorder holding at most [`DEFAULT_CAPACITY`] spans in all, spread
    /// over one lane per available core (capped at 16), armed, counting
    /// every evicted span into `dropped` (the runtime passes its
    /// `serena_trace_dropped_total`).
    pub fn new(dropped: Arc<Counter>) -> Self {
        let lanes = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(1, 16);
        let per_lane = DEFAULT_CAPACITY / lanes;
        FlightRecorder {
            lanes: (0..lanes).map(|_| Mutex::default()).collect(),
            per_lane,
            armed: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            dropped,
            epoch: std::time::Instant::now(),
        }
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

    /// Total records evicted from full lanes, as counted by the recorder's
    /// drop counter.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.get()
    }

    /// Most spans the lanes hold together.
    pub fn capacity(&self) -> usize {
        self.per_lane * self.lanes.len()
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

    /// Append a finished record to the calling thread's lane; when the lane
    /// is full, its oldest record leaves the front, counted, and is dropped
    /// once the lock is released.
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
        let mut records = self.lanes[lane].lock();
        if records.capacity() == 0 {
            records.reserve_exact(self.per_lane);
        }
        let evicted = if records.len() == self.per_lane {
            records.pop_front()
        } else {
            None
        };
        records.push_back(rec);
        drop(records);
        if evicted.is_some() {
            self.dropped.inc();
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
            out.extend(lane.lock().iter().cloned());
        }
        out.sort_by_key(|r| (r.start_ns, r.id));
        out
    }

    /// Drop all retained records and the lanes' storage (the drop counter
    /// is preserved).
    pub fn clear(&self) {
        for lane in &self.lanes {
            drop(std::mem::take(&mut *lane.lock()));
        }
    }
}

/// An open span: annotate with [`ActiveSpan::attr_u64`]/
/// [`ActiveSpan::attr_str`], optionally [`ActiveSpan::enter`] it so work
/// below attaches as children, and let it drop to stamp the end time and
/// store the record.
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
        let prev = CURRENT.with(|c| c.replace(self.id()));
        EnterGuard { prev }
    }
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
        let rec = FlightRecorder::default();
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
        let rec = FlightRecorder::default();
        rec.arm(false);
        assert!(rec.start("query.tick", Instant(0)).is_none());
        assert!(rec.snapshot().is_empty());
        rec.arm(true);
        rec.start("query.tick", Instant(0)).unwrap();
        assert_eq!(rec.snapshot().len(), 1);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let rec = FlightRecorder::default();
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
        let rec = std::sync::Arc::new(FlightRecorder::default());
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
        let rec = FlightRecorder::default();
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

    /// What each lane has reserved for records.
    fn reserved(rec: &FlightRecorder) -> Vec<usize> {
        rec.lanes.iter().map(|l| l.lock().capacity()).collect()
    }

    #[test]
    fn a_recorder_holds_no_span_storage_until_a_span_closes() {
        for armed in [true, false] {
            let rec = FlightRecorder::default();
            rec.arm(armed);
            assert!(reserved(&rec).iter().all(|&c| c == 0), "armed={armed}");
            let open = rec.start("query.tick", Instant(1));
            assert!(reserved(&rec).iter().all(|&c| c == 0), "armed={armed}");
            drop(open);
            let held: usize = reserved(&rec).iter().sum();
            assert_eq!(held, if armed { rec.per_lane } else { 0 }, "armed={armed}");
        }
    }

    #[test]
    fn a_wrapped_lane_holds_exactly_its_bound_newest_kept() {
        let rec = FlightRecorder::default();
        let bound = rec.per_lane;
        let ids: Vec<u64> = (0..bound + 10)
            .map(|_| rec.start("op.select", Instant(0)).unwrap().id())
            .collect();
        let lane = rec.lanes.iter().find(|l| !l.lock().is_empty());
        let records = lane.unwrap().lock();
        assert_eq!(records.len(), bound);
        assert_eq!(
            records.capacity(),
            bound,
            "a lane reserves its bound, no more"
        );
        let kept: Vec<u64> = records.iter().map(|r| r.id).collect();
        assert_eq!(kept, ids[10..]);
    }

    #[test]
    fn drops_count_into_the_counter_the_recorder_was_built_with() {
        let dropped = Arc::new(Counter::default());
        let rec = FlightRecorder::new(Arc::clone(&dropped));
        for _ in 0..rec.capacity() + 10 {
            rec.start("op.select", Instant(0)).unwrap();
        }
        assert!(dropped.get() >= 10);
        assert_eq!(rec.dropped_total(), dropped.get());
        rec.clear();
        assert!(
            reserved(&rec).iter().all(|&c| c == 0),
            "clear frees the lanes"
        );
        assert_eq!(rec.dropped_total(), dropped.get());
    }
}
