//! Cross-query β invocation dedup (multi-query common-subexpression
//! sharing for the service layer).
//!
//! The dominant pervasive-environment traffic shape is *many queries
//! watching the same sensors* (§5.1): at every instant, several registered
//! continuous queries issue the **same** `invoke_ψ(s, t)` call. Services
//! are deterministic at a given instant (§3.2, [`Service`] contract), and
//! the continuous executor invokes only for δ-batch tuples (§4.2's
//! delta-only discipline) — so two invocations with identical
//! `(prototype, service, input, instant)` are guaranteed to return the
//! same relation, and performing the upstream call once is semantically
//! invisible.
//!
//! [`DedupLayer`] exploits this: placed **outermost** in the PEMS
//! [`InvokerStack`](crate::service::InvokerStack) (above resilience, so
//! retries of a genuinely failing call still re-invoke), it keeps a
//! per-instant table keyed on `(prototype, service, input)`. The first
//! caller of a key performs the real call; concurrent callers of the same
//! key block on an in-flight latch and receive a clone of the result;
//! later callers within the same instant are served from the completed
//! entry. Advancing to a new instant clears the table — the memo never
//! outlives the instant whose determinism justifies it.
//!
//! The first caller owes the others a result whatever happens below it,
//! so its upstream call is [contained](invoke_contained): a panic from an
//! invocation observer, or from the [`TraceSink`](crate::telemetry::TraceSink)
//! an instrumented or resilient layer opens its spans through (both run
//! *above* the catch-panic layer), is memoized and served as the
//! [`EvalError::Panicked`] the caller's own containment would have made of
//! it — the same error for every caller of the key, and no key left in
//! flight with a latch nobody will publish.
//!
//! Every coalesced call is counted per logical caller in
//! `serena_beta_dedup_total{service=…}` (when a registry is attached,
//! through the handle it [keeps per service](MetricsRegistry::bundle)) and
//! in [`DedupState::hits`]; physical upstream calls remain individually
//! observed by the instrumented layer below. A memo hit resolves no series
//! and allocates nothing beyond the rows it hands back.
//!
//! [`Service`]: crate::service::Service

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};

use crate::sync::Mutex;

use crate::error::EvalError;
use crate::prototype::Prototype;
use crate::service::{invoke_contained, Invoker, InvokerLayer};
use crate::telemetry::{Counter, FlightRecorder, MetricsRegistry};
use crate::time::Instant;
use crate::tuple::Tuple;
use crate::value::ServiceRef;

/// The identity of one β invocation within an instant. All three parts
/// are shared handles: building a key allocates nothing.
#[derive(Clone, PartialEq, Eq, Hash)]
struct DedupKey {
    prototype: Arc<str>,
    service: ServiceRef,
    input: Tuple,
}

/// `serena_beta_dedup_total{service}` — this layer's per-service
/// [bundle](MetricsRegistry::bundle), so counting a coalesced call resolves
/// no series.
struct DedupSeries {
    coalesced: Arc<Counter>,
}

type CallResult = Result<Vec<Tuple>, EvalError>;

/// A latch one in-flight upstream call publishes its result through;
/// concurrent callers of the same key wait here instead of re-invoking.
struct Latch {
    slot: Mutex<Outcome>,
    ready: Condvar,
}

#[derive(Default)]
struct Outcome {
    result: Option<CallResult>,
    /// A caller sleeps on `ready`. Set under the lock before it sleeps, so
    /// `publish` wakes exactly when someone waits: a wake with nobody
    /// waiting is still a syscall, and most keys have no waiter.
    waited: bool,
}

impl Latch {
    fn new() -> Arc<Self> {
        Arc::new(Latch {
            slot: Mutex::default(),
            ready: Condvar::new(),
        })
    }

    fn publish(&self, result: CallResult) {
        let mut slot = self.slot.lock();
        slot.result = Some(result);
        if slot.waited {
            self.ready.notify_all();
        }
    }

    fn wait(&self) -> CallResult {
        let mut guard = self.slot.lock();
        loop {
            if let Some(result) = guard.result.as_ref() {
                return result.clone();
            }
            guard.waited = true;
            guard = self.ready.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

enum Entry {
    /// The first caller is performing the upstream call; wait on the latch.
    InFlight(Arc<Latch>),
    /// The upstream call completed with this result.
    Done(CallResult),
}

struct Table {
    /// Instant the entries belong to; a call at any other instant clears
    /// the table first (per-instant scoping, no external hook needed).
    at: Option<Instant>,
    entries: HashMap<DedupKey, Entry>,
}

/// Shared dedup memo + counters, surviving rebuilt invoker stacks (one per
/// PEMS runtime, like `ResilienceState`). Cheap to share: one mutex around
/// the per-instant table, atomics for the counters.
#[derive(Default)]
pub struct DedupState {
    table: Mutex<Option<Table>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DedupState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Coalesced calls served without an upstream invocation (cumulative).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Upstream calls actually performed through the dedup layer
    /// (cumulative).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// What the table lookup decided a caller must do.
enum Claim {
    /// Serve this already-completed result.
    Serve(CallResult),
    /// Wait on this latch for the in-flight caller's result.
    Wait(Arc<Latch>),
    /// Perform the upstream call and publish through this latch.
    Call(Arc<Latch>),
}

impl DedupState {
    fn claim(&self, key: &DedupKey, at: Instant) -> Claim {
        let mut guard = self.table.lock();
        let table = guard.get_or_insert_with(|| Table {
            at: None,
            entries: HashMap::new(),
        });
        if table.at != Some(at) {
            table.entries.clear();
            table.at = Some(at);
        }
        match table.entries.get(key) {
            Some(Entry::Done(result)) => Claim::Serve(result.clone()),
            Some(Entry::InFlight(latch)) => Claim::Wait(Arc::clone(latch)),
            None => {
                let latch = Latch::new();
                table
                    .entries
                    .insert(key.clone(), Entry::InFlight(Arc::clone(&latch)));
                Claim::Call(latch)
            }
        }
    }

    fn complete(&self, key: &DedupKey, at: Instant, result: CallResult) {
        let mut guard = self.table.lock();
        if let Some(table) = guard.as_mut() {
            // Only memoize if the table still belongs to this instant — a
            // concurrent call at a newer instant may have cleared it.
            if table.at == Some(at) {
                table.entries.insert(key.clone(), Entry::Done(result));
            }
        }
    }
}

/// The dedup [`InvokerLayer`]: coalesces identical invocations issued
/// within one instant into a single upstream call. See the module docs for
/// the soundness argument. Add it **last** (making it the outermost
/// decorator) so resilience retries underneath it still reach the service,
/// while logical callers above share one result per
/// `(prototype, service, input, instant)`. A disabled layer is an exact
/// pass-through.
pub struct DedupLayer {
    state: Arc<DedupState>,
    registry: Option<Arc<MetricsRegistry>>,
    tracer: Option<Arc<FlightRecorder>>,
    enabled: bool,
}

impl DedupLayer {
    /// A layer memoizing through `state` (enabled).
    pub fn new(state: Arc<DedupState>) -> Self {
        DedupLayer {
            state,
            registry: None,
            tracer: None,
            enabled: true,
        }
    }

    /// Count coalesced calls in `registry` as
    /// `serena_beta_dedup_total{service=…}` — one increment per logical
    /// caller whose call was served without an upstream invocation.
    pub fn registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Record one `beta` span per logical call into `tracer`, annotated
    /// with how the memo resolved it (`dedup` = `hit`/`wait`/`call`).
    pub fn tracer(mut self, tracer: Arc<FlightRecorder>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Enable or disable the layer; a disabled layer adds no decorator at
    /// all, leaving the stack byte-for-byte as it was.
    pub fn enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    fn count_dedup(&self, service: &ServiceRef) {
        self.state.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(registry) = &self.registry {
            let series = registry.bundle(service, |r| DedupSeries {
                coalesced: r.counter("serena_beta_dedup_total", &[("service", service.as_str())]),
            });
            series.coalesced.inc();
        }
    }
}

impl<'a> InvokerLayer<'a> for DedupLayer {
    fn wrap(self, inner: Box<dyn Invoker + 'a>) -> Box<dyn Invoker + 'a> {
        if !self.enabled {
            return inner;
        }
        Box::new(Dedup { inner, layer: self })
    }
}

/// What an enabled [`DedupLayer`] wraps the invoker below it in.
struct Dedup<'a> {
    inner: Box<dyn Invoker + 'a>,
    layer: DedupLayer,
}

impl Invoker for Dedup<'_> {
    fn invoke(
        &self,
        prototype: &Prototype,
        service_ref: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, EvalError> {
        let DedupLayer { state, tracer, .. } = &self.layer;
        let key = DedupKey {
            prototype: Arc::clone(prototype.shared_name()),
            service: service_ref.clone(),
            input: input.clone(),
        };
        let mut span = tracer.as_deref().and_then(|t| t.start("beta", at));
        if let Some(s) = span.as_mut() {
            s.attr_str("service", service_ref.as_str());
            s.attr_str("prototype", prototype.name());
        }
        let (result, how) = match state.claim(&key, at) {
            Claim::Serve(result) => {
                self.layer.count_dedup(service_ref);
                (result, "hit")
            }
            Claim::Wait(latch) => {
                let result = latch.wait();
                self.layer.count_dedup(service_ref);
                (result, "wait")
            }
            Claim::Call(latch) => {
                let result = {
                    // layers below (resilience, per-attempt
                    // instrumentation) nest under this logical β span
                    let _in_span = span.as_ref().map(|s| s.enter());
                    // Contained: this caller owes every waiter on `latch`
                    // a result. An observer or trace sink that panics
                    // above the catch-panic layer would otherwise unwind
                    // past the publish below and leave the key in flight
                    // for good — the next caller of it would never wake.
                    invoke_contained(&*self.inner, prototype, service_ref, input, at)
                };
                state.misses.fetch_add(1, Ordering::Relaxed);
                state.complete(&key, at, result.clone());
                latch.publish(result.clone());
                (result, "call")
            }
        };
        if let Some(s) = span.as_mut() {
            s.attr_str("dedup", how);
            s.attr_u64("ok", result.is_ok() as u64);
        }
        result
    }

    fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
        self.inner.providers_of(prototype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prototype::examples as protos;
    use crate::service::fixtures::example_registry;
    use crate::service::{FnService, InvokerStack, StaticRegistry};
    use crate::value::Value;

    /// A registry whose sensor counts every physical invocation.
    fn counting_registry() -> (StaticRegistry, Arc<AtomicU64>) {
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let reg = StaticRegistry::new();
        reg.register(
            "sensor01",
            Arc::new(FnService::new(
                vec![protos::get_temperature()],
                move |_p, input, at| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    let salt = input.arity() as u64;
                    Ok(vec![Tuple::new(vec![Value::Real(
                        (at.ticks() + salt) as f64,
                    )])])
                },
            )),
        );
        (reg, calls)
    }

    fn stack<'a>(state: &Arc<DedupState>, reg: &'a StaticRegistry) -> Box<dyn Invoker + 'a> {
        InvokerStack::new(reg)
            .layer(DedupLayer::new(Arc::clone(state)))
            .into_inner()
    }

    #[test]
    fn identical_calls_within_an_instant_coalesce() {
        let (reg, calls) = counting_registry();
        let state = Arc::new(DedupState::new());
        let inv = stack(&state, &reg);
        let call = |at| {
            inv.invoke(
                &protos::get_temperature(),
                &ServiceRef::new("sensor01"),
                &Tuple::empty(),
                at,
            )
            .unwrap()
        };
        let a = call(Instant(3));
        let b = call(Instant(3));
        let c = call(Instant(3));
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one upstream call");
        assert_eq!((state.hits(), state.misses()), (2, 1));
    }

    #[test]
    fn a_new_instant_clears_the_memo() {
        let (reg, calls) = counting_registry();
        let state = Arc::new(DedupState::new());
        let inv = stack(&state, &reg);
        for at in [Instant(0), Instant(0), Instant(1), Instant(1)] {
            inv.invoke(
                &protos::get_temperature(),
                &ServiceRef::new("sensor01"),
                &Tuple::empty(),
                at,
            )
            .unwrap();
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2, "one call per instant");
        // regressing to an old instant is also a fresh table (defensive:
        // PEMS never does this, but the memo must not serve stale results)
        inv.invoke(
            &protos::get_temperature(),
            &ServiceRef::new("sensor01"),
            &Tuple::empty(),
            Instant(0),
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn distinct_inputs_do_not_coalesce() {
        let (reg, calls) = counting_registry();
        let state = Arc::new(DedupState::new());
        let inv = stack(&state, &reg);
        let proto = protos::get_temperature();
        let sref = ServiceRef::new("sensor01");
        let a = inv
            .invoke(&proto, &sref, &Tuple::new(vec![Value::Int(1)]), Instant(0))
            .unwrap();
        let b = inv
            .invoke(&proto, &sref, &Tuple::new(vec![Value::Int(2)]), Instant(0))
            .unwrap();
        // different inputs both reached the service (salt differs per arity
        // only, so equal outputs are fine — the call count is the contract)
        let _ = (a, b);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(state.hits(), 0);
    }

    #[test]
    fn errors_are_shared_like_results() {
        let reg = StaticRegistry::new();
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        reg.register(
            "flaky",
            Arc::new(FnService::new(
                vec![protos::get_temperature()],
                move |_p, _in, _at| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    Err("device unreachable".to_string())
                },
            )),
        );
        let state = Arc::new(DedupState::new());
        let inv = stack(&state, &reg);
        let call = || {
            inv.invoke(
                &protos::get_temperature(),
                &ServiceRef::new("flaky"),
                &Tuple::empty(),
                Instant(5),
            )
            .unwrap_err()
        };
        let a = call();
        let b = call();
        assert_eq!(a, b, "second caller sees the identical error");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_callers_share_one_inflight_call() {
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let reg = StaticRegistry::new();
        reg.register(
            "slow",
            Arc::new(FnService::new(
                vec![protos::get_temperature()],
                move |_p, _in, at| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Ok(vec![Tuple::new(vec![Value::Real(at.ticks() as f64)])])
                },
            )),
        );
        let state = Arc::new(DedupState::new());
        let inv = stack(&state, &reg);
        let results: Vec<Vec<Tuple>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let inv = &inv;
                    scope.spawn(move || {
                        inv.invoke(
                            &protos::get_temperature(),
                            &ServiceRef::new("slow"),
                            &Tuple::empty(),
                            Instant(9),
                        )
                        .unwrap()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "calls coalesced");
        assert_eq!(state.hits() + state.misses(), 8);
        assert_eq!(state.misses(), 1);
    }

    /// Panics the first time it is called — as an invocation observer or
    /// a trace sink would, above the catch-panic layer.
    struct PanicsOnce(AtomicU64);

    impl Invoker for PanicsOnce {
        fn invoke(
            &self,
            _prototype: &Prototype,
            _service_ref: &ServiceRef,
            _input: &Tuple,
            at: Instant,
        ) -> Result<Vec<Tuple>, EvalError> {
            if self.0.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("observer is down");
            }
            Ok(vec![Tuple::new(vec![Value::Real(at.ticks() as f64)])])
        }

        fn providers_of(&self, _prototype: &str) -> Vec<ServiceRef> {
            Vec::new()
        }
    }

    #[test]
    fn an_unwinding_call_is_served_as_its_error_not_left_in_flight() {
        // on a thread of its own: left in flight, the second call below
        // waits for good, and a test that hangs reports nothing
        let (done, outcome) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            let state = Arc::new(DedupState::new());
            let inv = InvokerStack::new(PanicsOnce(AtomicU64::new(0)))
                .layer(DedupLayer::new(Arc::clone(&state)))
                .into_inner();
            let call = |at| {
                inv.invoke(
                    &protos::get_temperature(),
                    &ServiceRef::new("sensor01"),
                    &Tuple::empty(),
                    at,
                )
            };
            let calls = [call(Instant(1)), call(Instant(1)), call(Instant(2))];
            let _ = done.send((calls, state.hits(), state.misses()));
        });
        let ([first, second, next], hits, misses) = outcome
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the second caller of an unwound key waits for nobody");
        caller.join().expect("caller thread");
        assert!(
            matches!(&first, Err(EvalError::Panicked { reason, .. }) if reason == "observer is down"),
            "{first:?}"
        );
        assert_eq!(first, second, "every caller of the key sees that error");
        assert!(next.is_ok(), "the next instant starts clean: {next:?}");
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn a_latch_wakes_a_parked_waiter_and_serves_a_late_one() {
        // each waiter on a thread of its own: one never woken hangs, and a
        // test that hangs reports nothing
        let waiter = |latch: &Arc<Latch>| {
            let (done, outcome) = std::sync::mpsc::channel();
            let latch = Arc::clone(latch);
            let thread = std::thread::spawn(move || done.send(latch.wait()));
            (outcome, thread)
        };
        let latch = Latch::new();
        let parked = waiter(&latch);
        // `waited` is set under the lock `Condvar::wait` releases
        while !latch.slot.lock().waited {
            std::thread::yield_now();
        }
        let result: CallResult = Ok(vec![Tuple::new(vec![Value::Int(7)])]);
        latch.publish(result.clone());
        let late = waiter(&latch);
        for (who, (outcome, thread)) in [("parked", parked), ("late", late)] {
            let served = outcome
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("the {who} waiter was never served"));
            assert_eq!(served, result, "{who}");
            thread
                .join()
                .expect("waiter thread")
                .expect("receiver alive");
        }
        // nobody waited on this one: its publish wakes nobody
        let unwaited = Latch::new();
        unwaited.publish(result.clone());
        assert!(!unwaited.slot.lock().waited);
        assert_eq!(unwaited.wait(), result);
    }

    #[test]
    fn disabled_layer_is_a_pass_through() {
        let (reg, calls) = counting_registry();
        let state = Arc::new(DedupState::new());
        let inv = InvokerStack::new(&reg)
            .layer(DedupLayer::new(Arc::clone(&state)).enabled(false))
            .into_inner();
        for _ in 0..3 {
            inv.invoke(
                &protos::get_temperature(),
                &ServiceRef::new("sensor01"),
                &Tuple::empty(),
                Instant(1),
            )
            .unwrap();
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!((state.hits(), state.misses()), (0, 0));
    }

    #[test]
    fn dedup_counter_lands_in_the_registry() {
        let (reg, _calls) = counting_registry();
        let state = Arc::new(DedupState::new());
        let metrics = Arc::new(MetricsRegistry::new());
        let inv = InvokerStack::new(&reg)
            .layer(DedupLayer::new(Arc::clone(&state)).registry(Arc::clone(&metrics)))
            .into_inner();
        for _ in 0..4 {
            inv.invoke(
                &protos::get_temperature(),
                &ServiceRef::new("sensor01"),
                &Tuple::empty(),
                Instant(2),
            )
            .unwrap();
        }
        assert_eq!(
            metrics.counter_value("serena_beta_dedup_total", &[("service", "sensor01")]),
            Some(3)
        );
        let text = metrics.render_prometheus();
        assert!(text.contains("# TYPE serena_beta_dedup_total counter"));
    }

    #[test]
    fn providers_pass_through() {
        let reg = example_registry();
        let state = Arc::new(DedupState::new());
        let inv = stack(&state, &reg);
        assert_eq!(inv.providers_of("getTemperature").len(), 4);
    }
}
