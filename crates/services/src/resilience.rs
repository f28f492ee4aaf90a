//! The resilience layer for β invocations: retry/backoff and circuit
//! breaking.
//!
//! The paper's services are "dynamic, volatile" (§2.1) and §5.2 calls for
//! robustness experiments — yet a raw [`Invoker`] surfaces every transient
//! fault straight into the query. [`ResilientLayer`] is an
//! [`InvokerLayer`] that wraps any invoker with two independent,
//! per-service mechanisms, both configured by a [`ResiliencePolicy`]:
//!
//! * **retry with backoff** — errors classified transient
//!   ([`EvalError::InvocationFailed`], [`EvalError::RemoteUnavailable`])
//!   are retried up to [`ResiliencePolicy::max_retries`] times, sleeping an
//!   exponentially growing, deterministically jittered backoff between
//!   attempts;
//! * **circuit breaking** — after
//!   [`ResiliencePolicy::breaker_threshold`] consecutive failures (the
//!   larger of the layer's own count and the [`HealthTracker`]'s view, when
//!   one is attached) the service's breaker opens: calls fail fast with
//!   [`EvalError::CircuitOpen`] without touching the service, until
//!   [`ResiliencePolicy::breaker_cooldown`] logical instants pass and the
//!   breaker half-opens to let one probe call through (closed → open →
//!   half-open).
//!
//! Every decision is a function of the call's outcomes and its logical
//! instant: the layer reads no wall clock. The backoff sleep decides
//! nothing — it only spaces the attempts out.
//!
//! Breaker state and counters live in a shared [`ResilienceState`] so they
//! survive across ticks (the invoker stack is rebuilt per tick in the PEMS
//! runtime); the per-service registry series they are mirrored into are
//! kept by the registry itself ([`MetricsRegistry::bundle`]). Graceful degradation of the β *output* — emitting partial
//! results instead of erroring — is the executor's side of the contract:
//! see [`DegradePolicy`](serena_core::ops::DegradePolicy).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serena_core::error::EvalError;
use serena_core::prototype::Prototype;
use serena_core::service::{Invoker, InvokerLayer};
use serena_core::snapshot::{fnv1a, Reader, SnapshotError, Writer};
use serena_core::sync::Mutex;
use serena_core::telemetry::{Counter, MetricsRegistry, TraceSink};
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::ServiceRef;

use crate::fleet::mix64;
use crate::health::HealthTracker;

/// Everything the resilience layer is allowed to do on behalf of one
/// invocation, per service. The default ([`ResiliencePolicy::disabled`]) is
/// fully transparent: no retries, no breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Retries after the first failed attempt (0 = no retries).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry (0 = no sleeping).
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
    /// Consecutive failures that open a service's breaker (0 = breaker
    /// disabled).
    pub breaker_threshold: u32,
    /// Logical instants an open breaker waits before half-opening.
    pub breaker_cooldown: u64,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy::disabled()
    }
}

impl ResiliencePolicy {
    /// Fully transparent: no retries, no breaker. The invoker
    /// stack skips the resilience layer entirely under this policy.
    pub fn disabled() -> Self {
        ResiliencePolicy {
            max_retries: 0,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            breaker_threshold: 0,
            breaker_cooldown: 0,
        }
    }

    /// A reasonable starting point: 2 retries with 1 ms → 20 ms backoff,
    /// breaker opening after 5 consecutive failures for 4 instants.
    pub fn standard() -> Self {
        ResiliencePolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            breaker_threshold: 5,
            breaker_cooldown: 4,
        }
    }

    /// Whether this policy does nothing at all (lets the stack skip the
    /// layer).
    pub fn is_disabled(&self) -> bool {
        self.max_retries == 0 && self.breaker_threshold == 0
    }

    /// Replace the retry budget.
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Replace the backoff schedule (`base` doubling per retry, capped).
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Replace the breaker configuration (`threshold` consecutive failures
    /// → open for `cooldown` instants).
    pub fn with_breaker(mut self, threshold: u32, cooldown: u64) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// The backoff delay before retry number `attempt` (1-based), before
    /// jitter: `base × 2^(attempt-1)`, capped.
    fn backoff_for(&self, attempt: u32) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let raw = match 1u32.checked_shl(attempt.saturating_sub(1)) {
            Some(factor) => self
                .backoff_base
                .checked_mul(factor)
                .unwrap_or(self.backoff_cap),
            None => self.backoff_cap, // 2^31+ × base saturates at the cap
        };
        raw.min(self.backoff_cap)
    }
}

/// Where one service's circuit breaker currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow through normally.
    Closed,
    /// Calls are rejected with [`EvalError::CircuitOpen`] until `until`.
    Open {
        /// First instant at which the breaker will half-open.
        until: Instant,
    },
    /// The call that found the cooldown over is the one probe admitted;
    /// its success closes the breaker, its failure reopens it, and every
    /// other call meanwhile is rejected.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open { until } => write!(f, "open(until {until})"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u64,
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
        }
    }
}

/// Totals accumulated by a [`ResilienceState`] across all services.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Retry attempts performed (beyond each invocation's first attempt).
    pub retries: u64,
    /// Breaker transitions into [`BreakerState::Open`].
    pub breaker_opened: u64,
    /// Calls rejected fast with [`EvalError::CircuitOpen`].
    pub rejected: u64,
}

/// Shared, tick-surviving state of the resilience layer: per-service
/// breakers plus global counters. One `Arc<ResilienceState>` is created per
/// PEMS (or per test) and handed to every [`ResilientLayer`] built over
/// it, so breakers keep their memory even though the invoker stack itself
/// is rebuilt per tick.
#[derive(Debug, Default)]
pub struct ResilienceState {
    breakers: Mutex<HashMap<ServiceRef, Breaker>>,
    /// Number of services currently holding a (non-default) breaker record.
    /// While zero — the steady state of a healthy environment — the breaker
    /// fast-paths skip the map lock entirely.
    engaged: AtomicU64,
    retries: AtomicU64,
    breaker_opened: AtomicU64,
    rejected: AtomicU64,
}

impl ResilienceState {
    /// Fresh state: all breakers closed, all counters zero.
    pub fn new() -> Self {
        ResilienceState::default()
    }

    /// Snapshot the global counters.
    pub fn counters(&self) -> ResilienceCounters {
        ResilienceCounters {
            retries: self.retries.load(Ordering::Relaxed),
            breaker_opened: self.breaker_opened.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// The breaker state of one service ([`BreakerState::Closed`] if the
    /// service has never tripped anything).
    pub fn breaker_of(&self, service: &ServiceRef) -> BreakerState {
        self.breakers
            .lock()
            .get(service)
            .map(|b| b.state)
            .unwrap_or(BreakerState::Closed)
    }

    /// Every service with a non-default breaker record, ordered by
    /// reference.
    pub fn breakers(&self) -> Vec<(ServiceRef, BreakerState)> {
        let mut v: Vec<(ServiceRef, BreakerState)> = self
            .breakers
            .lock()
            .iter()
            .map(|(s, b)| (s.clone(), b.state))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Serialize counters and per-service breakers into a checkpoint
    /// (breakers in sorted service order, so the encoding is
    /// deterministic).
    pub fn export_state(&self, w: &mut Writer) {
        let c = self.counters();
        w.u64(c.retries).u64(c.breaker_opened).u64(c.rejected);
        let breakers = self.breakers.lock();
        let mut entries: Vec<(&ServiceRef, &Breaker)> = breakers.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.usize(entries.len());
        for (s, b) in entries {
            w.str(s.as_str()).u64(b.consecutive_failures);
            match b.state {
                BreakerState::Closed => {
                    w.u8(0);
                }
                BreakerState::Open { until } => {
                    w.u8(1).u64(until.ticks());
                }
                BreakerState::HalfOpen => {
                    w.u8(2);
                }
            }
        }
    }

    /// Restore state written by [`ResilienceState::export_state`],
    /// replacing counters and breakers wholesale.
    pub fn import_state(&self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let retries = r.u64()?;
        let breaker_opened = r.u64()?;
        let rejected = r.u64()?;
        let n = r.usize()?;
        let mut map = HashMap::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let sref = ServiceRef::new(r.str()?);
            let consecutive_failures = r.u64()?;
            let state = match r.u8()? {
                0 => BreakerState::Closed,
                1 => BreakerState::Open {
                    until: Instant(r.u64()?),
                },
                2 => BreakerState::HalfOpen,
                t => {
                    return Err(SnapshotError::Corrupt(format!("unknown breaker tag {t}")));
                }
            };
            map.insert(
                sref,
                Breaker {
                    state,
                    consecutive_failures,
                },
            );
        }
        self.retries.store(retries, Ordering::Relaxed);
        self.breaker_opened.store(breaker_opened, Ordering::Relaxed);
        self.rejected.store(rejected, Ordering::Relaxed);
        let mut breakers = self.breakers.lock();
        self.engaged.store(map.len() as u64, Ordering::Relaxed);
        *breakers = map;
        Ok(())
    }
}

/// One service's registry series — this layer's
/// [bundle](MetricsRegistry::bundle), kept by the registry across rebuilt
/// stacks like the breakers are kept by [`ResilienceState`].
struct ResilienceSeries {
    retries: Arc<Counter>,
    rejected: Arc<Counter>,
    /// `serena_breaker_transitions_total{service,to}` for
    /// `to ∈ {closed, open, half_open}`, in that order.
    transitions: [Arc<Counter>; 3],
}

impl ResilienceSeries {
    fn resolve(registry: &MetricsRegistry, service: &ServiceRef) -> Self {
        let labels: [(&str, &str); 1] = [("service", service.as_str())];
        let transition = |to: &str| {
            registry.counter(
                "serena_breaker_transitions_total",
                &[("service", service.as_str()), ("to", to)],
            )
        };
        ResilienceSeries {
            retries: registry.counter("serena_resilience_retries_total", &labels),
            rejected: registry.counter("serena_resilience_rejected_total", &labels),
            transitions: [
                transition("closed"),
                transition("open"),
                transition("half_open"),
            ],
        }
    }
}

/// The resilience middleware: retry/backoff + circuit breaker
/// around the invoker below it in an
/// [`InvokerStack`](serena_core::service::InvokerStack). See the
/// [module docs](self) for the semantics.
///
/// ```
/// use std::sync::Arc;
/// use serena_core::prelude::*;
/// use serena_services::resilience::{ResiliencePolicy, ResilienceState, ResilientLayer};
///
/// let base = serena_core::service::fixtures::example_registry();
/// let state = Arc::new(ResilienceState::new());
/// let stack = InvokerStack::new(base)
///     .layer(InstrumentedLayer::new())
///     .layer(ResilientLayer::new(ResiliencePolicy::standard(), state));
/// assert!(!stack.providers_of("getTemperature").is_empty());
/// ```
pub struct ResilientLayer<'a> {
    policy: ResiliencePolicy,
    state: Arc<ResilienceState>,
    health: Option<&'a HealthTracker>,
    registry: Option<&'a MetricsRegistry>,
    trace: Option<&'a dyn TraceSink>,
}

impl<'a> ResilientLayer<'a> {
    /// A layer applying `policy`, sharing `state` (breakers + counters)
    /// across rebuilds of the stack.
    pub fn new(policy: ResiliencePolicy, state: Arc<ResilienceState>) -> Self {
        ResilientLayer {
            policy,
            state,
            health: None,
            registry: None,
            trace: None,
        }
    }

    /// Let the breaker also consult `health`'s consecutive-error count.
    pub fn health(mut self, health: &'a HealthTracker) -> Self {
        self.health = Some(health);
        self
    }

    /// Publish per-service `serena_resilience_*_total{service}` counters
    /// into `registry`.
    pub fn registry(mut self, registry: &'a MetricsRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Record one `beta.call` span per logical call through `trace`,
    /// annotated with attempts/retries, breaker state, the breaker edges
    /// the call crossed (`transition`) and outcome; per-attempt spans from
    /// the instrumented layer below nest inside it.
    pub fn trace(mut self, trace: &'a dyn TraceSink) -> Self {
        self.trace = Some(trace);
        self
    }
}

impl<'a> InvokerLayer<'a> for ResilientLayer<'a> {
    fn wrap(self, inner: Box<dyn Invoker + 'a>) -> Box<dyn Invoker + 'a> {
        if self.policy.is_disabled() {
            // Nothing to do — keep the stack free of a dead layer.
            return inner;
        }
        Box::new(Resilient { inner, layer: self })
    }
}

/// What an armed [`ResilientLayer`] wraps the invoker below it in.
struct Resilient<'a> {
    inner: Box<dyn Invoker + 'a>,
    layer: ResilientLayer<'a>,
}

impl Resilient<'_> {
    fn bump(&self, service: &ServiceRef, pick: impl Fn(&ResilienceSeries) -> &Arc<Counter>) {
        if let Some(registry) = self.layer.registry {
            let series = registry.bundle(service, |r| ResilienceSeries::resolve(r, service));
            pick(&series).inc();
        }
    }

    /// Publish one breaker edge: bump
    /// `serena_breaker_transitions_total{service,to}` and extend `path`,
    /// the states this call moved the breaker through (`closed->open`,
    /// `open->half_open->closed`), which its `beta.call` span carries as
    /// `transition`. Labels: "closed" (index 0), "open" (1), "half_open" (2).
    fn breaker_transition(
        &self,
        service: &ServiceRef,
        path: &mut String,
        from: &'static str,
        to: &'static str,
    ) {
        let to_index = match to {
            "closed" => 0,
            "open" => 1,
            _ => 2,
        };
        self.bump(service, |s| &s.transitions[to_index]);
        if path.is_empty() {
            path.push_str(from);
        }
        path.push_str("->");
        path.push_str(to);
    }

    /// Gate one invocation through `service`'s breaker. Transitions
    /// open → half-open when the cooldown has elapsed at `at`.
    ///
    /// Services without a breaker record are implicitly
    /// [`BreakerState::Closed`]; while no record exists anywhere (no
    /// failure observed yet) this is a single relaxed atomic load.
    fn admit(&self, service: &ServiceRef, at: Instant, path: &mut String) -> Result<(), EvalError> {
        if self.layer.policy.breaker_threshold == 0
            || self.layer.state.engaged.load(Ordering::Relaxed) == 0
        {
            return Ok(());
        }
        let mut breakers = self.layer.state.breakers.lock();
        let Some(b) = breakers.get_mut(service) else {
            return Ok(());
        };
        match b.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open { until } if at >= until => {
                b.state = BreakerState::HalfOpen;
                drop(breakers);
                self.breaker_transition(service, path, "open", "half_open");
                Ok(())
            }
            _ => {
                drop(breakers);
                self.layer.state.rejected.fetch_add(1, Ordering::Relaxed);
                self.bump(service, |s| &s.rejected);
                Err(EvalError::CircuitOpen {
                    service: service.to_string(),
                })
            }
        }
    }

    /// One successful call: close the breaker, reset the failure streak.
    /// A reset breaker is back at the default, so its record is dropped
    /// (keeping the `engaged == 0` fast path reachable again).
    fn on_success(&self, service: &ServiceRef, path: &mut String) {
        if self.layer.policy.breaker_threshold == 0
            || self.layer.state.engaged.load(Ordering::Relaxed) == 0
        {
            return;
        }
        let mut breakers = self.layer.state.breakers.lock();
        let removed = breakers.remove(service);
        if let Some(b) = removed {
            self.layer.state.engaged.fetch_sub(1, Ordering::Relaxed);
            drop(breakers);
            // Only a breaker that had actually left Closed closes *now*;
            // dropping a record that merely tracked a failure streak is
            // not a state change.
            match b.state {
                BreakerState::Open { .. } => {
                    self.breaker_transition(service, path, "open", "closed")
                }
                BreakerState::HalfOpen => {
                    self.breaker_transition(service, path, "half_open", "closed")
                }
                BreakerState::Closed => {}
            }
        }
    }

    /// One failed attempt: extend the failure streak (also consulting the
    /// health tracker's view when attached) and open the breaker when the
    /// threshold is reached — immediately when half-open.
    fn on_failure(&self, service: &ServiceRef, at: Instant, path: &mut String) {
        if self.layer.policy.breaker_threshold == 0 {
            return;
        }
        let mut breakers = self.layer.state.breakers.lock();
        let b = match breakers.entry(service.clone()) {
            std::collections::hash_map::Entry::Occupied(o) => o.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                self.layer.state.engaged.fetch_add(1, Ordering::Relaxed);
                v.insert(Breaker::default())
            }
        };
        b.consecutive_failures += 1;
        let health_view = self
            .layer
            .health
            .and_then(|h| h.health_of(service))
            .map(|h| h.consecutive_errors)
            .unwrap_or(0);
        let streak = b.consecutive_failures.max(health_view);
        let half_open = b.state == BreakerState::HalfOpen;
        if half_open || streak >= u64::from(self.layer.policy.breaker_threshold) {
            b.state = BreakerState::Open {
                until: at + self.layer.policy.breaker_cooldown,
            };
            b.consecutive_failures = 0;
            drop(breakers);
            self.layer
                .state
                .breaker_opened
                .fetch_add(1, Ordering::Relaxed);
            self.breaker_transition(
                service,
                path,
                if half_open { "half_open" } else { "closed" },
                "open",
            );
        }
    }
}

/// Deterministic jitter factor in `[0.5, 1.0)` for one (service,
/// instant, attempt) triple — stable across runs and toolchains,
/// decorrelated across services and attempts.
fn jitter(service: &ServiceRef, at: Instant, attempt: u32) -> f64 {
    let name = fnv1a(service.as_str().as_bytes());
    let unit = (mix64(name, at.ticks(), u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64;
    0.5 + unit / 2.0
}

/// An error worth retrying: the service exists and speaks the prototype,
/// it (or the link to its node) just failed this time.
fn is_transient(e: &EvalError) -> bool {
    matches!(
        e,
        EvalError::InvocationFailed { .. } | EvalError::RemoteUnavailable { .. }
    )
}

impl Invoker for Resilient<'_> {
    fn invoke(
        &self,
        prototype: &Prototype,
        service_ref: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, EvalError> {
        let mut span = self.layer.trace.and_then(|t| t.start("beta.call", at));
        if let Some(s) = span.as_mut() {
            s.attr_str("service", service_ref.as_str());
        }
        let _in_span = span.as_ref().map(|s| s.enter());
        let mut transition = String::new();
        if let Err(e) = self.admit(service_ref, at, &mut transition) {
            if let Some(s) = span.as_mut() {
                s.attr_u64("attempts", 0);
                s.attr_str("breaker", "rejected");
                s.attr_u64("ok", 0);
            }
            return Err(e);
        }
        let mut attempt: u32 = 0;
        let outcome = loop {
            attempt += 1;
            match self.inner.invoke(prototype, service_ref, input, at) {
                Ok(rows) => {
                    self.on_success(service_ref, &mut transition);
                    break Ok(rows);
                }
                Err(e) => {
                    self.on_failure(service_ref, at, &mut transition);
                    if attempt > self.layer.policy.max_retries || !is_transient(&e) {
                        break Err(e);
                    }
                    // A breaker opened by this streak stops the retry loop:
                    // the service is presumed gone, fail fast.
                    if matches!(
                        self.layer.state.breaker_of(service_ref),
                        BreakerState::Open { .. }
                    ) {
                        break Err(e);
                    }
                    self.layer.state.retries.fetch_add(1, Ordering::Relaxed);
                    self.bump(service_ref, |s| &s.retries);
                    let delay = self.layer.policy.backoff_for(attempt);
                    if !delay.is_zero() {
                        let jittered = delay.mul_f64(jitter(service_ref, at, attempt));
                        std::thread::sleep(jittered);
                    }
                }
            }
        };
        if let Some(s) = span.as_mut() {
            s.attr_u64("attempts", u64::from(attempt));
            s.attr_u64("retries", u64::from(attempt.saturating_sub(1)));
            s.attr_str(
                "breaker",
                self.layer.state.breaker_of(service_ref).to_string(),
            );
            if !transition.is_empty() {
                s.attr_str("transition", transition);
            }
            s.attr_u64("ok", outcome.is_ok() as u64);
        }
        outcome
    }

    fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
        self.inner.providers_of(prototype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPolicy, FaultyService};
    use serena_core::prototype::examples as protos;
    use serena_core::service::{fixtures, InvokerStack, StaticRegistry};

    fn flaky(policy: FaultPolicy) -> (StaticRegistry, Arc<FaultyService>) {
        let faulty = FaultyService::new(fixtures::temperature_sensor(1), policy);
        let reg = StaticRegistry::new();
        reg.register("flaky", faulty.clone());
        (reg, faulty)
    }

    /// `inner` under `policy`, over `state` — built the way the runtime
    /// builds it.
    fn resilient<'a>(
        inner: impl Invoker + 'a,
        policy: ResiliencePolicy,
        state: &Arc<ResilienceState>,
    ) -> InvokerStack<'a> {
        InvokerStack::new(inner).layer(ResilientLayer::new(policy, state.clone()))
    }

    fn call(invoker: &dyn Invoker, at: Instant) -> Result<Vec<Tuple>, EvalError> {
        invoker.invoke(
            &protos::get_temperature(),
            &ServiceRef::new("flaky"),
            &Tuple::empty(),
            at,
        )
    }

    #[test]
    fn disabled_policy_is_transparent() {
        let (reg, faulty) = flaky(FaultPolicy::Intermittent { fail: 1, ok: 1 });
        let state = Arc::new(ResilienceState::new());
        let invoker = resilient(&reg, ResiliencePolicy::disabled(), &state);
        assert!(call(&invoker, Instant(0)).is_err()); // call 0 fails
        assert!(call(&invoker, Instant(0)).is_ok());
        assert_eq!(faulty.attempts(), 2); // no retries happened
        assert_eq!(state.counters(), ResilienceCounters::default());
    }

    #[test]
    fn armed_policy_is_silent_on_the_happy_path() {
        // what the overhead bench relies on: the recommended policy, armed,
        // never retries or rejects a healthy call
        let (reg, faulty) = flaky(FaultPolicy::None);
        let state = Arc::new(ResilienceState::new());
        let invoker = resilient(&reg, ResiliencePolicy::standard(), &state);
        assert!(call(&invoker, Instant(1)).is_ok());
        let c = state.counters();
        assert_eq!((c.retries, c.rejected), (0, 0));
        assert_eq!(faulty.attempts(), 1);
    }

    #[test]
    fn retries_recover_transient_faults() {
        // every cycle: 1 failure then 3 successes; one retry suffices
        let (reg, faulty) = flaky(FaultPolicy::Intermittent { fail: 1, ok: 3 });
        let state = Arc::new(ResilienceState::new());
        let invoker = resilient(&reg, ResiliencePolicy::disabled().with_retries(2), &state);
        for t in 0..8u64 {
            assert!(call(&invoker, Instant(t)).is_ok(), "t={t}");
        }
        let c = state.counters();
        assert_eq!(c.retries, 3); // faults at raw calls 0, 4 and 8
        assert_eq!(faulty.attempts(), 11); // 8 logical + 3 retries
    }

    #[test]
    fn retry_budget_exhausts_on_persistent_faults() {
        let (reg, faulty) = flaky(FaultPolicy::Intermittent { fail: 1, ok: 0 }); // always fails
        let state = Arc::new(ResilienceState::new());
        let invoker = resilient(&reg, ResiliencePolicy::disabled().with_retries(3), &state);
        let err = call(&invoker, Instant(0)).unwrap_err();
        assert!(matches!(err, EvalError::InvocationFailed { .. }));
        assert_eq!(faulty.attempts(), 4); // 1 + 3 retries
        assert_eq!(state.counters().retries, 3);
    }

    #[test]
    fn non_transient_errors_are_not_retried() {
        let reg = StaticRegistry::new();
        let state = Arc::new(ResilienceState::new());
        let invoker = resilient(&reg, ResiliencePolicy::disabled().with_retries(5), &state);
        // unknown service → not transient
        let err = call(&invoker, Instant(0)).unwrap_err();
        assert!(matches!(err, EvalError::UnknownService { .. }));
        assert_eq!(state.counters().retries, 0);
    }

    #[test]
    fn breaker_opens_then_half_opens_then_closes() {
        let (reg, faulty) = flaky(FaultPolicy::Intermittent { fail: 3, ok: 100 });
        let policy = ResiliencePolicy::disabled().with_breaker(3, 4);
        let state = Arc::new(ResilienceState::new());
        let invoker = resilient(&reg, policy, &state);
        let sref = ServiceRef::new("flaky");

        // three consecutive failures trip the breaker at τ=2
        for t in 0..3u64 {
            assert!(call(&invoker, Instant(t)).is_err());
        }
        assert_eq!(
            state.breaker_of(&sref),
            BreakerState::Open { until: Instant(6) }
        );
        assert_eq!(state.counters().breaker_opened, 1);

        // during cooldown: rejected fast, the service is never touched
        let attempts_before = faulty.attempts();
        let err = call(&invoker, Instant(4)).unwrap_err();
        assert!(matches!(err, EvalError::CircuitOpen { .. }));
        assert_eq!(faulty.attempts(), attempts_before);
        assert_eq!(state.counters().rejected, 1);

        // cooldown over: the probe goes through (fault cycle is in its ok
        // phase now) and the breaker closes
        assert!(call(&invoker, Instant(6)).is_ok());
        assert_eq!(state.breaker_of(&sref), BreakerState::Closed);
    }

    #[test]
    fn breaker_edges_publish_transition_telemetry() {
        use serena_core::telemetry::FlightRecorder;
        // five failing attempts, then a long healthy phase
        let (reg, _faulty) = flaky(FaultPolicy::Intermittent { fail: 5, ok: 100 });
        let state = Arc::new(ResilienceState::new());
        let registry = MetricsRegistry::new();
        let recorder = FlightRecorder::default();
        let invoker = InvokerStack::new(&reg).layer(
            ResilientLayer::new(ResiliencePolicy::standard(), state.clone())
                .registry(&registry)
                .trace(&recorder),
        );

        // τ=0: three attempts fail; τ=1: the fifth failure opens the
        // breaker and stops the retries; τ=2: rejected; τ=5: the cooldown
        // is over, the probe succeeds and closes it
        for t in [0, 1, 2] {
            assert!(call(&invoker, Instant(t)).is_err());
        }
        assert!(call(&invoker, Instant(5)).is_ok());

        let count = |to: &str| {
            registry
                .counter(
                    "serena_breaker_transitions_total",
                    &[("service", "flaky"), ("to", to)],
                )
                .get()
        };
        assert_eq!(count("open"), 1);
        assert_eq!(count("half_open"), 1);
        assert_eq!(count("closed"), 1);

        // one `beta.call` span per call; the edges each call crossed are
        // its `transition`
        let calls = recorder.snapshot();
        let seen: Vec<(Instant, u64, Option<&str>, Option<&str>)> = calls
            .iter()
            .map(|s| {
                assert_eq!(s.name, "beta.call");
                assert_eq!(s.attr_str("service"), Some("flaky"));
                let attempts = s.attr_u64("attempts").unwrap();
                (
                    s.at,
                    attempts,
                    s.attr_str("breaker"),
                    s.attr_str("transition"),
                )
            })
            .collect();
        assert_eq!(
            seen,
            vec![
                (Instant(0), 3, Some("closed"), None),
                (Instant(1), 2, Some("open(until τ=5)"), Some("closed->open")),
                (Instant(2), 0, Some("rejected"), None),
                (
                    Instant(5),
                    1,
                    Some("closed"),
                    Some("open->half_open->closed")
                ),
            ]
        );
        assert_eq!(calls[1].attr_u64("ok"), Some(0));
        assert_eq!(calls[3].attr_u64("ok"), Some(1));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let (reg, _faulty) = flaky(FaultPolicy::Intermittent { fail: 1, ok: 0 }); // always fails
        let policy = ResiliencePolicy::disabled().with_breaker(2, 3);
        let state = Arc::new(ResilienceState::new());
        let invoker = resilient(&reg, policy, &state);
        let sref = ServiceRef::new("flaky");

        assert!(call(&invoker, Instant(0)).is_err());
        assert!(call(&invoker, Instant(1)).is_err());
        assert_eq!(
            state.breaker_of(&sref),
            BreakerState::Open { until: Instant(4) }
        );
        // probe at τ=4 fails → immediately reopen until τ=7
        assert!(call(&invoker, Instant(4)).is_err());
        assert_eq!(
            state.breaker_of(&sref),
            BreakerState::Open { until: Instant(7) }
        );
        assert_eq!(state.counters().breaker_opened, 2);
    }

    #[test]
    fn registry_series_are_published() {
        let (reg, _faulty) = flaky(FaultPolicy::Intermittent { fail: 1, ok: 0 });
        let registry = MetricsRegistry::new();
        let policy = ResiliencePolicy::disabled().with_retries(1);
        let invoker = InvokerStack::new(&reg).layer(
            ResilientLayer::new(policy, Arc::new(ResilienceState::new())).registry(&registry),
        );
        let _ = call(&invoker, Instant(0));
        assert_eq!(
            registry.counter_value("serena_resilience_retries_total", &[("service", "flaky")]),
            Some(1)
        );
    }

    #[test]
    fn resilience_state_round_trips_through_snapshot() {
        let (reg, _faulty) = flaky(FaultPolicy::Intermittent { fail: 1, ok: 0 });
        let policy = ResiliencePolicy::disabled().with_breaker(2, 3);
        let state = Arc::new(ResilienceState::new());
        let invoker = resilient(&reg, policy, &state);
        assert!(call(&invoker, Instant(0)).is_err());
        assert!(call(&invoker, Instant(1)).is_err()); // opens the breaker

        let mut w = Writer::new();
        state.export_state(&mut w);
        let bytes = w.into_bytes();

        let restored = Arc::new(ResilienceState::new());
        restored.import_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.counters(), state.counters());
        assert_eq!(restored.breakers(), state.breakers());
        // the restored breaker still rejects during cooldown, without any
        // warm-up calls — the engaged fast path was rebuilt too
        let invoker = resilient(&reg, policy, &restored);
        let err = call(&invoker, Instant(2)).unwrap_err();
        assert!(matches!(err, EvalError::CircuitOpen { .. }));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let s = ServiceRef::new("svc");
        let a = jitter(&s, Instant(7), 2);
        let b = jitter(&s, Instant(7), 2);
        assert_eq!(a, b);
        for at in 0..50u64 {
            for attempt in 1..4u32 {
                let j = jitter(&s, Instant(at), attempt);
                assert!((0.5..1.0).contains(&j), "{j}");
            }
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = ResiliencePolicy::disabled()
            .with_backoff(Duration::from_millis(2), Duration::from_millis(5));
        assert_eq!(p.backoff_for(1), Duration::from_millis(2));
        assert_eq!(p.backoff_for(2), Duration::from_millis(4));
        assert_eq!(p.backoff_for(3), Duration::from_millis(5)); // capped
        assert_eq!(p.backoff_for(60), Duration::from_millis(5)); // no overflow
        assert_eq!(ResiliencePolicy::disabled().backoff_for(3), Duration::ZERO);
    }
}
