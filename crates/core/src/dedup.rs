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
//! retries of a genuinely failing call still re-invoke), it keeps a table
//! keyed on `(prototype, service, input)` whose results belong to one
//! instant. Only the results do: a sampling query asks the same keys at
//! every instant, so advancing to a new instant updates what it must and
//! leaves the rest in place (a step of an evolving algebra). It keeps the
//! keys the previous instant asked for, disarmed, with the series handle
//! each resolved, and drops every other key, so the table holds at most two
//! instants' keys; a call that finds a disarmed key re-arms it in place as
//! its claim, a miss like a fresh key's. No result outlives the instant
//! whose determinism justifies it: disarming drops it with its latch.
//!
//! A caller hands the layer a batch ([`Invoker::invoke_all`]; `invoke`
//! is a batch of one). An instant's calls are one block of updates whose
//! internal order nobody can observe (Gurevich's evolving algebras), so
//! the batch is taken in `BLOCKS` blocks, under one lock each: a done
//! key is served, an absent one claimed, one another batch holds in flight
//! skipped and remembered. The claimed calls are made, then published at
//! once through the block's latch, which the memo's entries point into;
//! only then does the batch wait for what it skipped, so two batches never
//! wait on each other, and two over the same keys split the calls. Lock
//! order: the registry's locks (a first hit resolving its series) only
//! under the memo's; a latch's under neither, holding neither.
//!
//! A batch owes every batch that skipped its keys a result whatever
//! happens below it, so each upstream call is
//! [contained](invoke_contained): a panic from an invocation observer, or
//! from the [`TraceSink`](crate::telemetry::TraceSink) an instrumented or
//! resilient layer opens its spans through (both run *above* the
//! catch-panic layer), is memoized and served as the
//! [`EvalError::Panicked`] the caller's own containment would have made of
//! it — the same error for every caller of the key, and no key left in
//! flight with a latch nobody will publish.
//!
//! Every coalesced call is counted per logical caller in
//! `serena_beta_dedup_total{service=…}` (when a registry is attached,
//! through the handle it [keeps per service](MetricsRegistry::bundle)) and
//! in [`DedupState::hits`]; physical upstream calls remain individually
//! observed by the instrumented layer below. A hit borrows the caller's
//! parts to look its key up and counts through the handle the key's entry
//! resolved on its first hit, kept with the key across instants; the sweep
//! drops every kept handle once the registry has retired any service
//! since, so a hit never counts into a series the scrape no longer shows.
//!
//! [`Service`]: crate::service::Service

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock};

use crate::sync::Mutex;

use crate::error::EvalError;
use crate::prototype::Prototype;
use crate::service::{invoke_contained, Invoker, InvokerLayer};
use crate::telemetry::{ActiveSpan, Counter, FlightRecorder, MetricsRegistry};
use crate::time::Instant;
use crate::tuple::Tuple;
use crate::value::ServiceRef;

/// One β call's identity within an instant, as the memo keeps a claimed
/// key; a lookup borrows the caller's parts instead ([`KeyParts`]).
type DedupKey = (Arc<str>, ServiceRef, Tuple);

/// A key as its parts, owned or borrowed: both hash and compare as the
/// tuple of the parts, so a borrowed key finds its owned one.
trait KeyParts {
    fn parts(&self) -> (&str, &ServiceRef, &Tuple);
}

impl KeyParts for DedupKey {
    fn parts(&self) -> (&str, &ServiceRef, &Tuple) {
        (&self.0, &self.1, &self.2)
    }
}

impl KeyParts for (&str, &ServiceRef, &Tuple) {
    fn parts(&self) -> (&str, &ServiceRef, &Tuple) {
        *self
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for DedupKey {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state)
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyParts + '_ {}

/// `serena_beta_dedup_total{service}` — this layer's per-service
/// [bundle](MetricsRegistry::bundle), so counting a coalesced call resolves
/// no series.
struct DedupSeries {
    coalesced: Arc<Counter>,
}

type CallResult = Result<Vec<Tuple>, EvalError>;

/// The blocks a batch is claimed in, one lock each: a second batch over
/// the same keys claims the block after the one in flight (one whole-batch
/// claim left it waiting on every call), so it waits for one block at most.
const BLOCKS: usize = 16;

/// One claimed block's results: set once, by the batch that claimed it,
/// and read by every later caller of its keys at the instant — the memo's
/// entries point into it rather than hold a copy.
#[derive(Default)]
struct Latch {
    results: OnceLock<Vec<CallResult>>,
    /// A caller sleeps on `ready`: set under the lock before it sleeps, so
    /// `publish` wakes (a syscall) only when someone waits.
    waited: Mutex<bool>,
    ready: Condvar,
}

impl Latch {
    fn new() -> Arc<Self> {
        Arc::default()
    }

    fn publish(&self, results: Vec<CallResult>) {
        let first = self.results.set(results).is_ok();
        debug_assert!(first, "a block is published once");
        if *self.waited.lock() {
            self.ready.notify_all();
        }
    }

    fn wait(&self) -> &[CallResult] {
        let mut waited = self.waited.lock();
        loop {
            if let Some(results) = self.results.get() {
                return results;
            }
            *waited = true;
            waited = self.ready.wait(waited).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One key of the memo: armed at the table's instant, the result is this
/// slot of the latch's, once the batch that claimed it has published;
/// kept from the memo's previous instant, the latch is the table's
/// `disarmed` one, which nobody publishes.
struct Entry {
    latch: Arc<Latch>,
    slot: usize,
    /// The service's series, resolved by the key's first hit and kept with
    /// the key until the registry retires a service.
    series: Option<Arc<DedupSeries>>,
}

#[derive(Default)]
struct Table {
    /// Instant the armed entries belong to; a call at any other instant
    /// sweeps the table first (per-instant scoping, no external hook).
    at: Option<Instant>,
    entries: HashMap<DedupKey, Entry>,
    /// What a kept key's entry points to until a call re-arms it.
    disarmed: Arc<Latch>,
    /// [`MetricsRegistry::retirements`] at the last sweep.
    retirements: u64,
}

impl Table {
    /// Move to instant `at`: keep the keys the previous instant asked for,
    /// disarmed (their results go with their latches), and drop the rest;
    /// drop every kept series handle if `registry` retired a service since.
    fn advance(&mut self, at: Instant, registry: Option<&MetricsRegistry>) {
        let retirements = registry.map_or(0, MetricsRegistry::retirements);
        let retired = std::mem::replace(&mut self.retirements, retirements) != retirements;
        let disarmed = &self.disarmed;
        self.entries.retain(|_, e| {
            let asked = !Arc::ptr_eq(&e.latch, disarmed);
            e.latch = Arc::clone(disarmed);
            if retired {
                e.series = None;
            }
            asked
        });
        self.at = Some(at);
    }
}

/// Shared dedup memo + counters, surviving rebuilt invoker stacks (one per
/// PEMS runtime, like `ResilienceState`). Cheap to share: one mutex around
/// the table (results armed at one instant, keys kept from the one
/// before), atomics for the counters.
#[derive(Default)]
pub struct DedupState {
    table: Mutex<Table>,
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

    /// Count one coalesced call of `service` through the key's `series`,
    /// resolving it on the key's first hit.
    fn count(&self, series: &mut Option<Arc<DedupSeries>>, service: &ServiceRef) {
        if let Some(registry) = &self.registry {
            let series = series.get_or_insert_with(|| {
                registry.bundle(service, |r| DedupSeries {
                    coalesced: r
                        .counter("serena_beta_dedup_total", &[("service", service.as_str())]),
                })
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

/// A `beta` span for one logical call, when a recorder is armed.
fn logical_span<'r>(
    tracer: Option<&'r FlightRecorder>,
    prototype: &Prototype,
    service: &ServiceRef,
    at: Instant,
) -> Option<ActiveSpan<'r>> {
    let mut span = tracer?.start("beta", at)?;
    span.attr_str("service", service.as_str());
    span.attr_str("prototype", prototype.name());
    Some(span)
}

/// Close a logical call's span with how the memo resolved it.
fn finish(span: Option<ActiveSpan<'_>>, how: &'static str, result: &CallResult) {
    if let Some(mut s) = span {
        s.attr_str("dedup", how);
        s.attr_u64("ok", result.is_ok() as u64);
    }
}

impl Invoker for Dedup<'_> {
    fn invoke(
        &self,
        prototype: &Prototype,
        service_ref: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, EvalError> {
        let call = [(service_ref.clone(), input.clone())];
        let mut out = self.invoke_all(prototype, &call, at);
        out.pop().expect("one answer per call")
    }

    /// Claimed, called and published block by block, then what was
    /// skipped collected (module docs).
    fn invoke_all(
        &self,
        prototype: &Prototype,
        calls: &[(ServiceRef, Tuple)],
        at: Instant,
    ) -> Vec<Result<Vec<Tuple>, EvalError>> {
        let DedupLayer { state, tracer, .. } = &self.layer;
        let tracer = tracer.as_deref().filter(|t| t.armed());
        let name = prototype.name();
        let mut out: Vec<CallResult> = calls.iter().map(|_| Ok(Vec::new())).collect();
        let mut skipped: Vec<(usize, Arc<Latch>, usize)> = Vec::new();
        let (mut claimed, mut served) = (Vec::new(), Vec::new());
        let size = calls.len().div_ceil(BLOCKS).max(1);
        for (start, block) in (0..).step_by(size).zip(out.chunks_mut(size)) {
            claimed.clear();
            served.clear();
            let mut coalesced = 0;
            let mut latch = None;
            {
                let mut guard = state.table.lock();
                let table = &mut *guard;
                if table.at != Some(at) {
                    table.advance(at, self.layer.registry.as_deref());
                }
                let mut claim = |i| {
                    claimed.push(i);
                    (
                        Arc::clone(latch.get_or_insert_with(Latch::new)),
                        claimed.len() - 1,
                    )
                };
                for (i, answer) in (start..).zip(block.iter_mut()) {
                    let (service, input) = &calls[i];
                    let parts = (name, service, input);
                    let Some(entry) = table.entries.get_mut(&parts as &dyn KeyParts) else {
                        let key = (
                            Arc::clone(prototype.shared_name()),
                            service.clone(),
                            input.clone(),
                        );
                        let (latch, slot) = claim(i);
                        let entry = Entry {
                            latch,
                            slot,
                            series: None,
                        };
                        table.entries.insert(key, entry);
                        continue;
                    };
                    if Arc::ptr_eq(&entry.latch, &table.disarmed) {
                        // a key kept from the previous instant: re-armed in
                        // place as this block's claim
                        (entry.latch, entry.slot) = claim(i);
                        continue;
                    }
                    match entry.latch.results.get() {
                        Some(results) => {
                            *answer = results[entry.slot].clone();
                            served.extend(tracer.map(|_| i));
                        }
                        None => skipped.push((i, Arc::clone(&entry.latch), entry.slot)),
                    }
                    self.layer.count(&mut entry.series, service);
                    coalesced += 1;
                }
            }
            state.hits.fetch_add(coalesced, Ordering::Relaxed);
            for &i in &served {
                let span = logical_span(tracer, prototype, &calls[i].0, at);
                finish(span, "hit", &block[i - start]);
            }
            let Some(latch) = latch else { continue };
            let results: Vec<CallResult> = claimed
                .iter()
                .map(|&i| {
                    let (service, input) = &calls[i];
                    let span = logical_span(tracer, prototype, service, at);
                    let result = {
                        // the layers below nest under this logical β span
                        let _in_span = span.as_ref().map(|s| s.enter());
                        // contained: an unwinding call would skip the
                        // publish below and leave its key in flight
                        invoke_contained(&*self.inner, prototype, service, input, at)
                    };
                    finish(span, "call", &result);
                    block[i - start] = result.clone();
                    result
                })
                .collect();
            state
                .misses
                .fetch_add(claimed.len() as u64, Ordering::Relaxed);
            latch.publish(results);
        }
        let mut skipped = skipped.into_iter().peekable();
        while let Some((i, latch, slot)) = skipped.next() {
            let span = logical_span(tracer, prototype, &calls[i].0, at);
            let results = latch.wait();
            let mut read = |i: usize, slot: usize, span| {
                out[i] = results[slot].clone();
                finish(span, "wait", &out[i]);
            };
            read(i, slot, span);
            while let Some((i, _, slot)) = skipped.next_if(|(_, l, _)| Arc::ptr_eq(l, &latch)) {
                read(i, slot, logical_span(tracer, prototype, &calls[i].0, at));
            }
        }
        out
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
            let thread = std::thread::spawn(move || done.send(latch.wait().to_vec()));
            (outcome, thread)
        };
        let latch = Latch::new();
        let parked = waiter(&latch);
        // `waited` is set under the lock `Condvar::wait` releases
        while !*latch.waited.lock() {
            std::thread::yield_now();
        }
        let results: Vec<CallResult> = vec![Ok(vec![Tuple::new(vec![Value::Int(7)])])];
        latch.publish(results.clone());
        let late = waiter(&latch);
        for (who, (outcome, thread)) in [("parked", parked), ("late", late)] {
            let served = outcome
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("the {who} waiter was never served"));
            assert_eq!(served, results, "{who}");
            thread
                .join()
                .expect("waiter thread")
                .expect("receiver alive");
        }
        // nobody waited on this one: its publish wakes nobody
        let unwaited = Latch::new();
        unwaited.publish(results.clone());
        assert!(!*unwaited.waited.lock());
        assert_eq!(unwaited.wait(), results);
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

    /// Answers every call with its input as the one result row, after
    /// handing the input to a hook — where a test counts, blocks or panics.
    struct Keyed<F>(F);

    impl<F: Fn(&Tuple) + Send + Sync> Invoker for Keyed<F> {
        fn invoke(
            &self,
            _prototype: &Prototype,
            _service_ref: &ServiceRef,
            input: &Tuple,
            _at: Instant,
        ) -> Result<Vec<Tuple>, EvalError> {
            (self.0)(input);
            Ok(vec![input.clone()])
        }

        fn providers_of(&self, _prototype: &str) -> Vec<ServiceRef> {
            Vec::new()
        }
    }

    fn keyed<'a>(
        state: &Arc<DedupState>,
        hook: impl Fn(&Tuple) + Send + Sync + 'a,
    ) -> Box<dyn Invoker + 'a> {
        InvokerStack::new(Keyed(hook))
            .layer(DedupLayer::new(Arc::clone(state)))
            .into_inner()
    }

    type Calls = Vec<(ServiceRef, Tuple)>;

    /// `n` calls of one sensor, input `(k)` for the `k`-th.
    fn keys(n: i64) -> Calls {
        let sensor = ServiceRef::new("sensor01");
        (0..n)
            .map(|k| (sensor.clone(), Tuple::new(vec![Value::Int(k)])))
            .collect()
    }

    /// What [`Keyed`] answers each call of `calls`.
    fn answers(calls: &[(ServiceRef, Tuple)]) -> Vec<CallResult> {
        calls
            .iter()
            .map(|(_, input)| Ok(vec![input.clone()]))
            .collect()
    }

    /// Run `test` on a thread of its own and wait for it a bounded time: a
    /// key left in flight hangs its caller, and a test that hangs reports
    /// nothing.
    fn bounded<R: Send + 'static>(what: &str, test: impl FnOnce() -> R + Send + 'static) -> R {
        let (done, outcome) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || done.send(test()));
        let result = outcome
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{what}: a caller waited for good"));
        thread.join().expect("test thread").expect("receiver alive");
        result
    }

    #[test]
    fn two_batches_over_one_set_of_keys_split_the_calls() {
        use std::collections::HashMap;
        const KEYS: i64 = 64;
        let (calls, callers, hits, misses) = bounded("two batches", || {
            let state = Arc::new(DedupState::new());
            let calls: Mutex<HashMap<Tuple, u32>> = Mutex::default();
            let callers: Mutex<HashMap<std::thread::ThreadId, u32>> = Mutex::default();
            // each thread's first call waits for the other's: neither
            // batch may make every call while the other waits
            let both = std::sync::Barrier::new(2);
            let inv = keyed(&state, |input| {
                *calls.lock().entry(input.clone()).or_default() += 1;
                let first = {
                    let mut callers = callers.lock();
                    let made = callers.entry(std::thread::current().id()).or_default();
                    *made += 1;
                    *made == 1
                };
                if first {
                    both.wait();
                }
            });
            let batch = keys(KEYS);
            let [a, b] = std::thread::scope(|scope| {
                let issue = || {
                    scope.spawn(|| inv.invoke_all(&protos::get_temperature(), &batch, Instant(4)))
                };
                [issue(), issue()].map(|h| h.join().expect("batch thread"))
            });
            assert_eq!(a, answers(&batch));
            assert_eq!(b, a, "both batches get equal results");
            drop(inv);
            (
                calls.into_inner(),
                callers.into_inner(),
                state.hits(),
                state.misses(),
            )
        });
        assert_eq!(calls.len(), KEYS as usize);
        assert!(
            calls.values().all(|&n| n == 1),
            "a key reached the service twice: {calls:?}"
        );
        assert_eq!(
            callers.len(),
            2,
            "both batches make physical calls: {callers:?}"
        );
        assert_eq!((hits + misses, misses), (2 * KEYS as u64, KEYS as u64));
    }

    #[test]
    fn a_batch_naming_a_key_twice_calls_it_once() {
        let state = Arc::new(DedupState::new());
        let calls = AtomicU64::new(0);
        let inv = keyed(&state, |_| {
            calls.fetch_add(1, Ordering::SeqCst);
        });
        // the first key again in a later block (done by then), the last
        // again in its own block (still in flight)
        let mut batch = keys(40);
        batch.extend([batch[0].clone(), batch[39].clone()]);
        let out = inv.invoke_all(&protos::get_temperature(), &batch, Instant(1));
        assert_eq!(out, answers(&batch));
        assert_eq!(calls.load(Ordering::SeqCst), 40);
        assert_eq!((state.hits(), state.misses()), (2, 40));
    }

    #[test]
    fn a_call_finding_its_key_in_flight_under_a_batch_gets_its_own_result() {
        let (answer, calls, hits, misses) = bounded("a call behind a batch", || {
            let state = Arc::new(DedupState::new());
            // 16 blocks of four keys: the first is 0–3
            let batch = keys(64);
            let (entered, inside) = std::sync::mpsc::channel();
            let (go, release) = std::sync::mpsc::channel::<()>();
            let release = Mutex::new(release);
            let calls = AtomicU64::new(0);
            let held = batch[2].1.clone();
            let inv = keyed(&state, |input| {
                calls.fetch_add(1, Ordering::SeqCst);
                if *input == held {
                    entered.send(()).expect("test alive");
                    release.lock().recv().expect("test alive");
                }
            });
            let proto = protos::get_temperature();
            let answer = std::thread::scope(|scope| {
                let batcher = scope.spawn(|| inv.invoke_all(&proto, &batch, Instant(7)));
                // the batch claimed keys 0–3 and is calling key 2
                inside.recv().expect("batch thread alive");
                let (sensor, fourth) = &batch[3];
                let caller = scope.spawn(|| inv.invoke(&proto, sensor, fourth, Instant(7)));
                // the caller skipped key 3, still in flight
                while state.hits() == 0 {
                    std::thread::yield_now();
                }
                go.send(()).expect("batch thread alive");
                assert_eq!(batcher.join().expect("batch thread"), answers(&batch));
                caller.join().expect("caller thread")
            });
            (
                answer,
                calls.load(Ordering::SeqCst),
                state.hits(),
                state.misses(),
            )
        });
        assert_eq!(answer, Ok(vec![Tuple::new(vec![Value::Int(3)])]));
        assert_eq!((calls, hits, misses), (64, 1, 64));
    }

    #[test]
    fn a_descent_that_unwinds_under_a_batch_is_every_callers_error() {
        let (first, skipper, again, next, in_flight) = bounded("an unwound batch", || {
            let state = Arc::new(DedupState::new());
            let batch = keys(5);
            let (entered, inside) = std::sync::mpsc::channel();
            let (go, release) = std::sync::mpsc::channel::<()>();
            let release = Mutex::new(release);
            let unwound = AtomicU64::new(0);
            let inv = keyed(&state, |input| {
                if *input == batch[0].1 && unwound.fetch_add(1, Ordering::SeqCst) == 0 {
                    entered.send(()).expect("test alive");
                    release.lock().recv().expect("test alive");
                    panic!("observer is down");
                }
            });
            let proto = protos::get_temperature();
            // 65 calls, so 13 blocks of five: the first is `batch`; and key
            // 0 named twice, the batch's own second caller of it
            let twice = [keys(64), vec![batch[0].clone()]].concat();
            let (first, skipper) = std::thread::scope(|scope| {
                let batcher = scope.spawn(|| inv.invoke_all(&proto, &twice, Instant(2)));
                inside.recv().expect("batch thread alive");
                let skipper = scope.spawn(|| inv.invoke_all(&proto, &batch, Instant(2)));
                // the second batch, in blocks of one, skipped all five keys
                while state.hits() < 5 {
                    std::thread::yield_now();
                }
                go.send(()).expect("batch thread alive");
                let first = batcher.join().expect("batch thread");
                (first, skipper.join().expect("skipping thread"))
            });
            let again = inv.invoke(&proto, &batch[0].0, &batch[0].1, Instant(2));
            let in_flight = state
                .table
                .lock()
                .entries
                .values()
                .filter(|e| e.latch.results.get().is_none())
                .count();
            let next = inv.invoke_all(&proto, &batch, Instant(3));
            let first = [first[0].clone(), first[64].clone(), first[1].clone()];
            (first, skipper, again, next, in_flight)
        });
        let unwound = &first[0];
        assert!(
            matches!(unwound, Err(EvalError::Panicked { reason, .. }) if reason == "observer is down"),
            "{unwound:?}"
        );
        assert_eq!(first[1], *unwound, "the batch's second caller of the key");
        assert_eq!(skipper[0], *unwound, "the batch that skipped the key");
        assert_eq!(again, *unwound, "a later caller at the instant");
        assert_eq!(skipper[1..], answers(&keys(5))[1..]);
        assert_eq!(first[2], skipper[1]);
        assert_eq!(in_flight, 0, "nothing is left in flight");
        assert_eq!(next, answers(&keys(5)), "the next instant starts clean");
    }

    /// The `(service, input)` keys in the memo, and those of them armed
    /// at its instant, each in order.
    fn table_keys(state: &DedupState) -> (Calls, Calls) {
        let table = state.table.lock();
        let (mut all, mut armed) = (Vec::new(), Vec::new());
        for ((_, service, input), entry) in &table.entries {
            let key = (service.clone(), input.clone());
            if !Arc::ptr_eq(&entry.latch, &table.disarmed) {
                armed.push(key.clone());
            }
            all.push(key);
        }
        all.sort();
        armed.sort();
        (all, armed)
    }

    #[test]
    fn a_key_the_previous_instant_did_not_ask_is_gone_at_the_next() {
        let state = Arc::new(DedupState::new());
        let calls = AtomicU64::new(0);
        let inv = keyed(&state, |_| {
            calls.fetch_add(1, Ordering::SeqCst);
        });
        let proto = protos::get_temperature();
        let abc = keys(3);
        let (a, b, c) = (&abc[0..1], &abc[1..2], &abc[2..3]);
        inv.invoke_all(&proto, &abc[0..2], Instant(1));
        inv.invoke_all(&proto, a, Instant(2));
        // `b` is kept from instant 1, disarmed; `a` is re-armed at 2
        assert_eq!(table_keys(&state), ([a, b].concat(), a.to_vec()));
        let out = inv.invoke_all(&proto, c, Instant(3));
        assert_eq!(out, answers(c));
        assert_eq!(table_keys(&state), ([a, c].concat(), c.to_vec()));
        // every instant called what it asked: a re-armed key is a miss
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        assert_eq!((state.hits(), state.misses()), (0, 4));
    }

    #[test]
    fn a_kept_key_counts_into_a_live_series_after_its_service_is_retired() {
        let (reg, _calls) = counting_registry();
        let state = Arc::new(DedupState::new());
        let metrics = Arc::new(MetricsRegistry::new());
        let inv = InvokerStack::new(&reg)
            .layer(DedupLayer::new(Arc::clone(&state)).registry(Arc::clone(&metrics)))
            .into_inner();
        let twice = |at| {
            let call = (ServiceRef::new("sensor01"), Tuple::empty());
            inv.invoke_all(&protos::get_temperature(), &[call.clone(), call], at)
        };
        let kept = || {
            let table = state.table.lock();
            let entry = table.entries.values().next().expect("one key");
            entry
                .series
                .clone()
                .expect("resolved by the key's first hit")
        };
        let series = &[("service", "sensor01")];
        twice(Instant(1));
        let first = kept();
        twice(Instant(2));
        assert!(Arc::ptr_eq(&first, &kept()), "a kept key keeps its handle");
        assert_eq!(
            metrics.counter_value("serena_beta_dedup_total", series),
            Some(2)
        );
        metrics.remove_matching("service", "sensor01");
        assert!(!metrics.render_prometheus().contains("sensor01"));
        twice(Instant(3));
        assert!(
            !Arc::ptr_eq(&first, &kept()),
            "a retirement drops the handle"
        );
        assert_eq!(
            metrics.counter_value("serena_beta_dedup_total", series),
            Some(1)
        );
        let text = metrics.render_prometheus();
        assert!(
            text.contains("serena_beta_dedup_total{service=\"sensor01\"} 1"),
            "{text}"
        );
    }

    /// A seeded xorshift64* stream: core has no `tests/common`.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
        }
    }

    /// The memo across instants that advance, repeat and regress, against
    /// a model: every answer is the service's at the call's instant, each
    /// key asked at a stay at one instant makes one upstream call, every
    /// logical call is a hit or a miss, and the table holds only the keys
    /// asked at this stay or the one before it.
    #[test]
    fn the_memo_across_instants_answers_like_the_service() {
        use std::collections::{BTreeSet, HashMap};
        // the service's one REAL encodes the instant, itself and its input
        fn reading(sensor: &str, input: &Tuple, at: Instant) -> Tuple {
            let Some(Value::Int(k)) = input.values().next() else {
                panic!("an input of the pool: {input:?}")
            };
            let sensor: i64 = sensor["sensor".len()..].parse().expect("sensorNN");
            let code = at.ticks() as i64 * 10_000 + sensor * 100 + k;
            Tuple::new(vec![Value::Real(code as f64)])
        }
        const POOL: usize = 24;
        let sensors = ["sensor01", "sensor06", "sensor07"];
        let made: Arc<Mutex<HashMap<(String, Tuple), u64>>> = Arc::default();
        let reg = StaticRegistry::new();
        for sensor in sensors {
            let made = Arc::clone(&made);
            let service = move |_: &Prototype, input: &Tuple, at: Instant| {
                *made
                    .lock()
                    .entry((sensor.to_string(), input.clone()))
                    .or_default() += 1;
                Ok(vec![reading(sensor, input, at)])
            };
            let proto = protos::get_temperature();
            reg.register(sensor, Arc::new(FnService::new(vec![proto], service)));
        }
        let pool: Calls = (0..POOL)
            .map(|k| {
                let sensor = ServiceRef::new(sensors[k % sensors.len()]);
                (sensor, Tuple::new(vec![Value::Int(k as i64 / 2)]))
            })
            .collect();
        let proto = protos::get_temperature();
        let state = Arc::new(DedupState::new());
        let inv = stack(&state, &reg);
        let mut rng = Rng(0x5EED_0045);
        let (mut at, mut logical) = (0u64, 0u64);
        // the keys asked at the memo's instant (the last one called at),
        // and at the one it called at before that
        let (mut memo_at, mut stay, mut previous) = (None, BTreeSet::new(), BTreeSet::new());
        for step in 0..400 {
            at = match rng.below(6) {
                0..=2 => at + 1,
                3 | 4 => at,
                _ => at.saturating_sub(1 + rng.below(3) as u64),
            };
            let batches: Vec<Calls> = (0..1 + rng.below(2))
                .map(|_| {
                    let n = rng.below(POOL);
                    (0..n).map(|_| pool[rng.below(POOL)].clone()).collect()
                })
                .collect();
            let before = made.lock().clone();
            let answers: Vec<Vec<CallResult>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (batches.iter())
                    .map(|b| scope.spawn(|| inv.invoke_all(&proto, b, Instant(at))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("batch"))
                    .collect()
            });
            let asked: BTreeSet<usize> = (batches.iter().flatten())
                .map(|call| pool.iter().position(|p| p == call).expect("from the pool"))
                .collect();
            if !asked.is_empty() && memo_at.replace(at) != Some(at) {
                previous = std::mem::take(&mut stay);
            }
            for (batch, answers) in batches.iter().zip(&answers) {
                logical += batch.len() as u64;
                for ((sensor, input), answer) in batch.iter().zip(answers) {
                    let expected = Ok(vec![reading(sensor.as_str(), input, Instant(at))]);
                    assert_eq!(answer, &expected, "step {step}, instant {at}");
                }
            }
            let made = made.lock();
            for (k, (sensor, input)) in pool.iter().enumerate() {
                let key = (sensor.as_str().to_string(), input.clone());
                let calls = made.get(&key).unwrap_or(&0) - before.get(&key).unwrap_or(&0);
                let expected = u64::from(asked.contains(&k) && !stay.contains(&k));
                assert_eq!(calls, expected, "step {step}: key {k} at instant {at}");
            }
            stay.extend(asked);
            assert_eq!(state.hits() + state.misses(), logical, "step {step}");
            assert_eq!(state.misses(), made.values().sum::<u64>(), "step {step}");
            let of = |keys: &BTreeSet<usize>| -> Calls {
                let mut keys: Vec<_> = keys.iter().map(|&k| pool[k].clone()).collect();
                keys.sort();
                keys
            };
            let (all, armed) = table_keys(&state);
            assert_eq!(armed, of(&stay), "step {step}: armed at instant {at:?}");
            let kept: BTreeSet<usize> = stay.union(&previous).copied().collect();
            assert_eq!(all, of(&kept), "step {step}: kept at instant {at:?}");
        }
    }

    #[test]
    fn providers_pass_through() {
        let reg = example_registry();
        let state = Arc::new(DedupState::new());
        let inv = stack(&state, &reg);
        assert_eq!(inv.providers_of("getTemperature").len(), 4);
    }
}
