//! The telemetry subsystem: metric series, service latency, traces.
//!
//! PR 1's [`crate::metrics`] layer answers "what did this *plan node* do"
//! — per-node counters behind a [`crate::metrics::MetricsSink`]. This
//! module answers the production questions a long-running PEMS is judged
//! by (§5.2's robustness/scalability concerns):
//!
//! * [`registry`] — a lock-cheap [`MetricsRegistry`] of named counters,
//!   gauges and log-linear [`Histogram`]s (p50/p99/max), rendered in
//!   the Prometheus text format by
//!   [`MetricsRegistry::render_prometheus`];
//! * [`sink`] — [`RegistrySink`], bridging per-operator observations into
//!   per-`OpKind` wall-time histograms, tuple counters and β-cache
//!   counters;
//! * [`invoker`] — [`InstrumentedLayer`], measuring every β service
//!   call (per-service latency histograms, failure counters) and feeding
//!   [`InvocationObserver`]s such as service-health trackers;
//! * [`span`] — hierarchical wall-time spans in a bounded in-memory
//!   [`FlightRecorder`] (scheduler round → worker job → query tick →
//!   operator → β call/attempt), exportable as Chrome/Perfetto
//!   `trace.json` via [`span::chrome_trace`] — the runtime's one trace;
//! * [`trace`] — [`TraceSink`], the hook the β layers open their spans
//!   through: the [`FlightRecorder`], or [`NoopTrace`] to record nothing.
//!
//! Everything here is optional and composable: executors keep talking to
//! the `MetricsSink`/`Invoker` traits they already know; telemetry attaches
//! by decoration (a `Tee` to a [`RegistrySink`], an [`InstrumentedLayer`]
//! around the service registry).

pub mod histogram;
pub mod invoker;
pub mod registry;
pub mod sink;
pub mod span;
pub mod trace;

pub use histogram::Histogram;
pub use invoker::{InstrumentedLayer, InvocationObserver};
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use sink::RegistrySink;
pub use span::{chrome_trace, ActiveSpan, AttrValue, FlightRecorder, SpanRecord};
pub use trace::{NoopTrace, TraceSink};
