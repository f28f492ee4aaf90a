//! The hook a β layer records its spans through.
//!
//! [`InstrumentedLayer::trace`](super::InstrumentedLayer::trace) and the
//! resilience layer's `trace` take a [`TraceSink`]: the runtime passes its
//! [`FlightRecorder`], so every `beta.attempt` and `beta.call` lands in the
//! one trace `.trace <file>`, `.top` and `.profile` read; a caller that must
//! pass something and wants nothing recorded passes [`NoopTrace`].

use super::span::{ActiveSpan, FlightRecorder};
use crate::time::Instant;

/// Where a layer opens its spans. Implementations must be thread-safe:
/// ticks call β from parallel worker threads.
pub trait TraceSink: Send + Sync {
    /// Open span `name` at logical instant `at` as a child of the calling
    /// thread's current span; `None` records nothing (and lets the caller
    /// skip every attribute it would have attached).
    fn start(&self, name: &'static str, at: Instant) -> Option<ActiveSpan<'_>>;
}

impl TraceSink for FlightRecorder {
    fn start(&self, name: &'static str, at: Instant) -> Option<ActiveSpan<'_>> {
        FlightRecorder::start(self, name, at)
    }
}

/// A sink that records nothing, for callers that must pass one.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTrace;

impl TraceSink for NoopTrace {
    fn start(&self, _name: &'static str, _at: Instant) -> Option<ActiveSpan<'_>> {
        None
    }
}
