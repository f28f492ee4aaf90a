//! The β invoker stack and the state it is built from. Two rules live here:
//!
//! * **Layer order**, innermost first: directory → catch-panic (a panicking
//!   body becomes an `EvalError::Panicked` every outer layer sees as a
//!   failure) → instrumented (metrics, health, trace; every retry attempt is
//!   observed) → resilient (retry and breaker; a pass-through when the policy
//!   is disabled) → dedup (only the first caller of a `(service, args)` key
//!   at an instant descends; the others share its result, counted in
//!   `serena_beta_dedup_total`).
//! * **Dedup rule**: the memo holds only while the directory is stable, so
//!   it is armed for a tick round (if [`PemsBuilder::dedup`](super::PemsBuilder::dedup)
//!   says so) and never for a one-shot, which must see a hot-swap at once.
//!
//! A stack is built per tick round and per one-shot and costs its four
//! boxes: the series handles, breakers, memo and health windows its layers
//! keep per service live in [`BetaStack`], which outlives every stack.

use std::sync::Arc;

use serena_core::dedup::{DedupLayer, DedupState};
use serena_core::service::{CatchPanicLayer, Invoker, InvokerStack};
use serena_core::telemetry::{FlightRecorder, InstrumentedLayer, MetricsRegistry, TraceSink};
use serena_services::directory::NodeDirectory;
use serena_services::health::HealthTracker;
use serena_services::resilience::{ResiliencePolicy, ResilienceState, ResilientLayer};

/// What every β invoker stack of one runtime is built from: the series,
/// health windows, tracers, breakers and dedup memo its layers share
/// across rebuilt stacks, and the two settings that shape it.
pub(super) struct BetaStack {
    /// Named metric series for the whole runtime (always on; lock-cheap).
    pub(super) telemetry: Arc<MetricsRegistry>,
    /// Rolling per-service health fed by every β invocation outcome.
    pub(super) health: Arc<HealthTracker>,
    /// Structured trace sink. `None` unless configured: without a sink no
    /// layer builds a [`TraceEvent`](serena_core::telemetry::TraceEvent)
    /// at all, rather than building one for a sink that discards it.
    pub(super) trace: Option<Arc<dyn TraceSink>>,
    /// Hierarchical span tracer: bounded in-memory flight recorder shared
    /// by the scheduler, the stream executor and the layers.
    pub(super) tracer: Arc<FlightRecorder>,
    /// Resilience policy the resilient layer applies.
    pub(super) policy: ResiliencePolicy,
    /// Breakers and retry/breaker counters.
    pub(super) resilience: Arc<ResilienceState>,
    /// Cross-query β dedup memo + counters (the memo is per-instant; the
    /// counters are cumulative).
    pub(super) dedup: Arc<DedupState>,
    /// Whether the dedup layer is armed for a tick round.
    pub(super) dedup_enabled: bool,
}

impl BetaStack {
    /// The stack a tick round calls β through.
    pub(super) fn tick_round<'r>(&'r self, directory: &'r NodeDirectory) -> Box<dyn Invoker + 'r> {
        self.build(directory, self.dedup_enabled)
    }

    /// The stack a one-shot statement calls β through.
    pub(super) fn one_shot<'r>(&'r self, directory: &'r NodeDirectory) -> Box<dyn Invoker + 'r> {
        self.build(directory, false)
    }

    fn build<'r>(&'r self, directory: &'r NodeDirectory, dedup: bool) -> Box<dyn Invoker + 'r> {
        let mut instrumented = InstrumentedLayer::new()
            .registry(&self.telemetry)
            .observer(&*self.health)
            .tracer(&self.tracer);
        let mut resilient = ResilientLayer::new(self.policy, Arc::clone(&self.resilience))
            .health(&self.health)
            .registry(&self.telemetry)
            .tracer(&self.tracer);
        if let Some(trace) = self.trace.as_deref() {
            instrumented = instrumented.trace(trace);
            resilient = resilient.trace(trace);
        }
        InvokerStack::new(directory)
            .layer(CatchPanicLayer::new())
            .layer(instrumented)
            .layer(resilient)
            .layer(
                DedupLayer::new(Arc::clone(&self.dedup))
                    .registry(Arc::clone(&self.telemetry))
                    .enabled(dedup)
                    .tracer(Arc::clone(&self.tracer)),
            )
            .into_inner()
    }
}
