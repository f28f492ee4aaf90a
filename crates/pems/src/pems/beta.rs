//! The β invoker stack and the state it is built from. Two rules live here:
//!
//! * **Layer order**, innermost first: directory → catch-panic (a panicking
//!   body becomes an `EvalError::Panicked` every outer layer sees as a
//!   failure) → instrumented (metrics, health, one `beta.attempt` span per
//!   retry attempt) → resilient (retry and breaker, one `beta.call` span per
//!   call; a pass-through when the policy is disabled) → dedup (only the
//!   first caller of a `(service, args)` key at an instant descends; the
//!   others share its result, counted in `serena_beta_dedup_total`; one
//!   `beta` span per logical call). Every span lands in the runtime's one
//!   trace, its flight recorder.
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
use serena_core::telemetry::{FlightRecorder, InstrumentedLayer, MetricsRegistry};
use serena_services::directory::NodeDirectory;
use serena_services::health::HealthTracker;
use serena_services::resilience::{ResiliencePolicy, ResilienceState, ResilientLayer};

/// What every β invoker stack of one runtime is built from: the series,
/// health windows, trace, breakers and dedup memo its layers share
/// across rebuilt stacks, and the two settings that shape it.
pub(super) struct BetaStack {
    /// Named metric series for the whole runtime (always on; lock-cheap).
    pub(super) telemetry: Arc<MetricsRegistry>,
    /// Rolling per-service health fed by every β invocation outcome.
    pub(super) health: Arc<HealthTracker>,
    /// The runtime's one trace: the bounded in-memory flight recorder
    /// shared by the scheduler, the stream executor and the layers.
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
        InvokerStack::new(directory)
            .layer(CatchPanicLayer::new())
            .layer(
                InstrumentedLayer::new()
                    .registry(&self.telemetry)
                    .observer(&*self.health)
                    .trace(&*self.tracer),
            )
            .layer(
                ResilientLayer::new(self.policy, Arc::clone(&self.resilience))
                    .health(&self.health)
                    .registry(&self.telemetry)
                    .trace(&*self.tracer),
            )
            .layer(
                DedupLayer::new(Arc::clone(&self.dedup))
                    .registry(Arc::clone(&self.telemetry))
                    .enabled(dedup)
                    .tracer(Arc::clone(&self.tracer)),
            )
            .into_inner()
    }
}
