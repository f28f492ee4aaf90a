//! Structured trace export: span-style events as JSON Lines.
//!
//! Executors emit [`TraceEvent`]s at the interesting edges of a continuous
//! query's life — registration, tick start/end, each β invocation, and
//! failures — into a [`TraceSink`]. [`JsonlTrace`] serialises each event as
//! one JSON object per line (hand-rolled, no external dependencies) with a
//! monotonic `ts_us` timestamp relative to the writer's creation, so traces
//! from one process are totally ordered and machine-mergeable.

use std::io::Write;

use crate::sync::Mutex;
use crate::time::Instant;

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A continuous query was registered with the processor.
    QueryRegistered {
        /// The query's name.
        query: String,
    },
    /// A query's tick began.
    TickStart {
        /// The query's name.
        query: String,
        /// Logical tick instant τ.
        at: Instant,
    },
    /// A query's tick completed.
    TickEnd {
        /// The query's name.
        query: String,
        /// Logical tick instant τ.
        at: Instant,
        /// Wall-clock tick duration in nanoseconds.
        duration_ns: u64,
        /// Tuples inserted into the result this tick.
        inserted: u64,
        /// Tuples deleted from the result this tick.
        deleted: u64,
        /// Invocation errors survived this tick.
        errors: u64,
    },
    /// One β service invocation completed (successfully or not).
    Invocation {
        /// The invoked service's reference.
        service: String,
        /// The prototype invoked.
        prototype: String,
        /// Logical instant τ of the invocation.
        at: Instant,
        /// Wall-clock invocation latency in nanoseconds.
        latency_ns: u64,
        /// Whether the invocation succeeded.
        ok: bool,
    },
    /// A failure (invocation error, tick error) with its message.
    Failure {
        /// What failed — a query or service name.
        scope: String,
        /// Logical instant τ of the failure.
        at: Instant,
        /// Human-readable failure message.
        message: String,
    },
    /// A circuit breaker changed state (closed → open → half-open →
    /// closed edges, resilience layer).
    BreakerTransition {
        /// The guarded service's reference.
        service: String,
        /// Logical instant τ of the transition.
        at: Instant,
        /// State left ("closed", "open", "half_open").
        from: String,
        /// State entered ("closed", "open", "half_open").
        to: String,
    },
}

impl TraceEvent {
    /// The event's type tag as serialised in the `event` JSON field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::QueryRegistered { .. } => "query_registered",
            TraceEvent::TickStart { .. } => "tick_start",
            TraceEvent::TickEnd { .. } => "tick_end",
            TraceEvent::Invocation { .. } => "invocation",
            TraceEvent::Failure { .. } => "failure",
            TraceEvent::BreakerTransition { .. } => "breaker_transition",
        }
    }
}

/// Destination for trace events. Implementations must be cheap and
/// thread-safe: ticks may emit from parallel executor threads.
pub trait TraceSink: Send + Sync {
    /// Consume one event.
    fn emit(&self, event: &TraceEvent);
}

/// A sink that discards everything, for callers that must pass one. (A
/// runtime without a sink holds none, so that no event is built for it.)
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTrace;

impl TraceSink for NoopTrace {
    fn emit(&self, _event: &TraceEvent) {}
}

/// An in-memory sink collecting events (tests, `\metrics`-style tooling).
#[derive(Debug, Default)]
pub struct MemoryTrace {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemoryTrace {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all collected events, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Number of collected events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True iff no events were collected.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl TraceSink for MemoryTrace {
    fn emit(&self, event: &TraceEvent) {
        self.events.lock().push(event.clone());
    }
}

/// A [`TraceSink`] writing one JSON object per event, one event per line.
///
/// Schema: every line carries `ts_us` (microseconds since the writer was
/// created, monotonic) and `event` (the [`TraceEvent::kind`] tag); the
/// remaining fields are the event's own. Write errors are silently dropped
/// — telemetry must never fail the query it observes.
pub struct JsonlTrace<W: Write + Send> {
    out: Mutex<W>,
    epoch: std::time::Instant,
}

impl<W: Write + Send> JsonlTrace<W> {
    /// Wrap `out`; the `ts_us` epoch starts now.
    pub fn new(out: W) -> Self {
        JsonlTrace {
            out: Mutex::new(out),
            epoch: std::time::Instant::now(),
        }
    }

    /// Consume the writer, returning the underlying output.
    pub fn into_inner(self) -> W {
        self.out.into_inner()
    }
}

impl<W: Write + Send> TraceSink for JsonlTrace<W> {
    fn emit(&self, event: &TraceEvent) {
        let mut line = String::with_capacity(128);
        line.push('{');
        json_field_u64(&mut line, "ts_us", self.epoch.elapsed().as_micros() as u64);
        json_field_str(&mut line, "event", event.kind());
        match event {
            TraceEvent::QueryRegistered { query } => {
                json_field_str(&mut line, "query", query);
            }
            TraceEvent::TickStart { query, at } => {
                json_field_str(&mut line, "query", query);
                json_field_u64(&mut line, "at", at.0);
            }
            TraceEvent::TickEnd {
                query,
                at,
                duration_ns,
                inserted,
                deleted,
                errors,
            } => {
                json_field_str(&mut line, "query", query);
                json_field_u64(&mut line, "at", at.0);
                json_field_u64(&mut line, "duration_ns", *duration_ns);
                json_field_u64(&mut line, "inserted", *inserted);
                json_field_u64(&mut line, "deleted", *deleted);
                json_field_u64(&mut line, "errors", *errors);
            }
            TraceEvent::Invocation {
                service,
                prototype,
                at,
                latency_ns,
                ok,
            } => {
                json_field_str(&mut line, "service", service);
                json_field_str(&mut line, "prototype", prototype);
                json_field_u64(&mut line, "at", at.0);
                json_field_u64(&mut line, "latency_ns", *latency_ns);
                json_field_raw(&mut line, "ok", if *ok { "true" } else { "false" });
            }
            TraceEvent::Failure { scope, at, message } => {
                json_field_str(&mut line, "scope", scope);
                json_field_u64(&mut line, "at", at.0);
                json_field_str(&mut line, "message", message);
            }
            TraceEvent::BreakerTransition {
                service,
                at,
                from,
                to,
            } => {
                json_field_str(&mut line, "service", service);
                json_field_u64(&mut line, "at", at.0);
                json_field_str(&mut line, "from", from);
                json_field_str(&mut line, "to", to);
            }
        }
        line.push('}');
        line.push('\n');
        let mut out = self.out.lock();
        let _ = out.write_all(line.as_bytes());
    }
}

fn json_field_sep(out: &mut String) {
    if !out.ends_with('{') {
        out.push(',');
    }
}

fn json_field_u64(out: &mut String, key: &str, v: u64) {
    json_field_sep(out);
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
}

fn json_field_raw(out: &mut String, key: &str, raw: &str) {
    json_field_sep(out);
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(raw);
}

fn json_field_str(out: &mut String, key: &str, v: &str) {
    json_field_sep(out);
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_one_object_per_line() {
        let trace = JsonlTrace::new(Vec::<u8>::new());
        trace.emit(&TraceEvent::QueryRegistered {
            query: "temps".into(),
        });
        trace.emit(&TraceEvent::TickEnd {
            query: "temps".into(),
            at: Instant(3),
            duration_ns: 1200,
            inserted: 2,
            deleted: 0,
            errors: 1,
        });
        trace.emit(&TraceEvent::Invocation {
            service: "sensor01".into(),
            prototype: "getTemperature".into(),
            at: Instant(3),
            latency_ns: 900,
            ok: false,
        });
        let bytes = trace.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"ts_us\":"), "{line}");
        }
        assert!(lines[0].contains("\"event\":\"query_registered\""));
        assert!(lines[1].contains("\"event\":\"tick_end\""));
        assert!(lines[1].contains("\"duration_ns\":1200"));
        assert!(lines[1].contains("\"errors\":1"));
        assert!(lines[2].contains("\"ok\":false"));
        assert!(lines[2].contains("\"service\":\"sensor01\""));
    }

    #[test]
    fn string_escaping() {
        let trace = JsonlTrace::new(Vec::<u8>::new());
        trace.emit(&TraceEvent::Failure {
            scope: "q\"1\"".into(),
            at: Instant(0),
            message: "line1\nline2\tend\\".into(),
        });
        let text = String::from_utf8(trace.into_inner()).unwrap();
        assert!(text.contains(r#""scope":"q\"1\"""#), "{text}");
        assert!(
            text.contains(r#""message":"line1\nline2\tend\\""#),
            "{text}"
        );
    }

    #[test]
    fn memory_trace_collects_in_order() {
        let trace = MemoryTrace::new();
        assert!(trace.is_empty());
        trace.emit(&TraceEvent::TickStart {
            query: "q".into(),
            at: Instant(1),
        });
        trace.emit(&TraceEvent::TickStart {
            query: "q".into(),
            at: Instant(2),
        });
        assert_eq!(trace.len(), 2);
        assert!(
            matches!(&trace.events()[1], TraceEvent::TickStart { at, .. } if *at == Instant(2))
        );
        NoopTrace.emit(&TraceEvent::QueryRegistered { query: "q".into() });
    }
}
