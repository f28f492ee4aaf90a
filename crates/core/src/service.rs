//! Services and invocation functions (§2.3.1, Definition 1).
//!
//! A service `ω ∈ Ω` implements a finite set of prototypes and is named by a
//! service reference `id(ω) ∈ D`. A prototype invocation
//! `invoke_ψ(s, t) → r` maps a service reference plus an input tuple to a
//! *relation* (0, 1 or several tuples) over the prototype's output schema.
//!
//! The [`Invoker`] trait is the evaluator's view of the service layer; the
//! core ships a [`StaticRegistry`] sufficient for one-shot evaluation and
//! tests, while `serena-services` provides the full dynamic
//! discovery-driven registry.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::sync::RwLock;

use crate::error::EvalError;
use crate::prototype::Prototype;
use crate::time::Instant;
use crate::tuple::Tuple;
use crate::value::ServiceRef;

/// A service implementation: the dynamic half of a distributed
/// functionality (§2.1 decouples declaration/prototype from
/// implementation/service).
///
/// Implementations must be **deterministic at a given instant** (§3.2): two
/// invocations with the same `(prototype, input, at)` must return the same
/// relation. The equivalence harness and the rewrite property tests rely on
/// this.
pub trait Service: Send + Sync {
    /// `prototypes(ω)`: the prototypes this service implements.
    fn prototypes(&self) -> Vec<Arc<Prototype>>;

    /// `invoke_ψ(id(ω), t)` at logical instant `at`. The returned tuples
    /// must be over `Output_ψ`; the registry validates this.
    ///
    /// Errors are free-form strings (device fault, simulated network error);
    /// the registry wraps them into [`EvalError::InvocationFailed`].
    fn invoke(
        &self,
        prototype: &Prototype,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, String>;

    /// [`Service::invoke`] with a *classified* failure channel
    /// ([`InvokeFault`]): proxies for remote services use it to distinguish
    /// an application error reported by the remote implementation (which
    /// registries wrap into [`EvalError::InvocationFailed`], exactly as for
    /// a local service) from a transport fault (the node was unreachable —
    /// surfaced as [`EvalError::RemoteUnavailable`]) and to relay an
    /// already-typed [`EvalError`] from the remote registry *verbatim*, so
    /// an invocation observes byte-identical errors whether the service is
    /// local or remote.
    ///
    /// The provided implementation wraps [`Service::invoke`], so ordinary
    /// (local) services need not care.
    fn invoke_classified(
        &self,
        prototype: &Prototype,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, InvokeFault> {
        self.invoke(prototype, input, at)
            .map_err(InvokeFault::Application)
    }
}

/// A classified invocation failure, as reported by
/// [`Service::invoke_classified`]. Registries map each variant onto the
/// corresponding [`EvalError`] (`fault_to_eval_error`).
#[derive(Debug, Clone, PartialEq)]
pub enum InvokeFault {
    /// The service implementation itself failed (device fault, simulated
    /// network error, …) — the classic free-form-string channel of
    /// [`Service::invoke`]. Becomes [`EvalError::InvocationFailed`].
    Application(String),
    /// A remote registry already classified the failure; relay its typed
    /// error verbatim. This is what keeps error multisets byte-identical
    /// across local and remote deployments: without it a relayed
    /// `InvocationFailed` would be re-wrapped into a nested
    /// "invocation of … failed: invocation of … failed: …".
    Relayed(EvalError),
    /// The transport to the node hosting the service failed; the service
    /// never reported an outcome. Becomes [`EvalError::RemoteUnavailable`].
    Transport {
        /// The remote node (peer id or address) that was unreachable.
        node: String,
        /// Transport-level failure detail.
        reason: String,
    },
}

/// Map a classified fault onto the [`EvalError`] a registry reports for an
/// invocation of `prototype` on `service`. Shared by every registry so
/// local and proxied services surface identical errors.
fn fault_to_eval_error(
    fault: InvokeFault,
    service: &ServiceRef,
    prototype: &Prototype,
) -> EvalError {
    match fault {
        InvokeFault::Application(reason) => EvalError::InvocationFailed {
            service: service.to_string(),
            prototype: prototype.name().to_string(),
            reason,
        },
        InvokeFault::Relayed(e) => e,
        InvokeFault::Transport { node, reason } => EvalError::RemoteUnavailable {
            service: service.to_string(),
            prototype: prototype.name().to_string(),
            node,
            reason,
        },
    }
}

/// A service built from a closure, for tests and examples.
///
/// ```
/// use serena_core::service::FnService;
/// use serena_core::prototype::examples::get_temperature;
/// use serena_core::tuple::Tuple;
/// use serena_core::value::Value;
///
/// let svc = FnService::new(vec![get_temperature()], |_proto, _input, at| {
///     Ok(vec![Tuple::new(vec![Value::Real(20.0 + at.ticks() as f64)])])
/// });
/// ```
pub struct FnService<F> {
    prototypes: Vec<Arc<Prototype>>,
    f: F,
}

impl<F> FnService<F>
where
    F: Fn(&Prototype, &Tuple, Instant) -> Result<Vec<Tuple>, String> + Send + Sync,
{
    /// Wrap a closure as a service implementing `prototypes`.
    pub fn new(prototypes: Vec<Arc<Prototype>>, f: F) -> Self {
        FnService { prototypes, f }
    }
}

impl<F> Service for FnService<F>
where
    F: Fn(&Prototype, &Tuple, Instant) -> Result<Vec<Tuple>, String> + Send + Sync,
{
    fn prototypes(&self) -> Vec<Arc<Prototype>> {
        self.prototypes.clone()
    }

    fn invoke(
        &self,
        prototype: &Prototype,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, String> {
        (self.f)(prototype, input, at)
    }
}

/// The evaluator's hook into the service layer: resolves a service
/// reference and performs `invoke_ψ` (Definition 1), with result-schema
/// validation.
pub trait Invoker: Send + Sync {
    /// Invoke `prototype` on the service referenced by `service_ref` with
    /// `input`, at logical instant `at`.
    fn invoke(
        &self,
        prototype: &Prototype,
        service_ref: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, EvalError>;

    /// Invoke `prototype` once per `(service, input)` of `calls` at `at`,
    /// answering in order. Their order is not observable, so a layer may
    /// take them as one (the dedup memo does); by default each is a
    /// [contained](invoke_contained) call of its own.
    fn invoke_all(
        &self,
        prototype: &Prototype,
        calls: &[(ServiceRef, Tuple)],
        at: Instant,
    ) -> Vec<Result<Vec<Tuple>, EvalError>> {
        let call = |(service_ref, input): &(ServiceRef, Tuple)| {
            invoke_contained(self, prototype, service_ref, input, at)
        };
        calls.iter().map(call).collect()
    }

    /// Service references of all currently registered services implementing
    /// `prototype` (used by service-discovery queries, §5.1).
    fn providers_of(&self, prototype: &str) -> Vec<ServiceRef>;
}

/// A pointer to an invoker is that invoker: every method forwards,
/// `invoke_all` too, so a batch reaches the layer that takes it as one.
macro_rules! forward_invoker {
    ($($pointer:ty),*) => {$(
        impl<I: Invoker + ?Sized> Invoker for $pointer {
            fn invoke(
                &self,
                prototype: &Prototype,
                service_ref: &ServiceRef,
                input: &Tuple,
                at: Instant,
            ) -> Result<Vec<Tuple>, EvalError> {
                (**self).invoke(prototype, service_ref, input, at)
            }

            fn invoke_all(
                &self,
                prototype: &Prototype,
                calls: &[(ServiceRef, Tuple)],
                at: Instant,
            ) -> Vec<Result<Vec<Tuple>, EvalError>> {
                (**self).invoke_all(prototype, calls, at)
            }

            fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
                (**self).providers_of(prototype)
            }
        }
    )*};
}

forward_invoker!(&I, Box<I>, Arc<I>);

/// One middleware layer of an [`InvokerStack`]: consumes the invoker built
/// so far and returns the decorated one.
///
/// Any `FnOnce(Box<dyn Invoker + 'a>) -> Box<dyn Invoker + 'a>` closure is a
/// layer, so decorators expose a `layer(...)` constructor returning such a
/// closure instead of hand-nesting wrappers:
///
/// ```
/// use serena_core::service::{fixtures::example_registry, Invoker, InvokerStack};
/// use serena_core::telemetry::InstrumentedLayer;
///
/// let base = example_registry();
/// let stack = InvokerStack::new(&base).layer(InstrumentedLayer::new());
/// assert!(!stack.providers_of("getTemperature").is_empty());
/// ```
pub trait InvokerLayer<'a> {
    /// Wrap `inner`, returning the decorated invoker.
    fn wrap(self, inner: Box<dyn Invoker + 'a>) -> Box<dyn Invoker + 'a>;
}

impl<'a, F> InvokerLayer<'a> for F
where
    F: FnOnce(Box<dyn Invoker + 'a>) -> Box<dyn Invoker + 'a>,
{
    fn wrap(self, inner: Box<dyn Invoker + 'a>) -> Box<dyn Invoker + 'a> {
        self(inner)
    }
}

/// A composable middleware stack over an [`Invoker`]: a base invoker plus
/// zero or more [`InvokerLayer`]s applied bottom-up, so the **last** layer
/// added is the outermost decorator (the first to see each call).
///
/// The stack replaces ad-hoc hand-nesting of decorators (instrumentation,
/// simulated latency, resilience): each decorator contributes a layer and
/// callers assemble them uniformly with [`InvokerStack::layer`]. The stack
/// itself implements [`Invoker`], so it drops in anywhere an invoker is
/// expected.
pub struct InvokerStack<'a> {
    top: Box<dyn Invoker + 'a>,
}

impl<'a> InvokerStack<'a> {
    /// A stack holding just the base invoker.
    pub fn new(base: impl Invoker + 'a) -> Self {
        InvokerStack {
            top: Box::new(base),
        }
    }

    /// Add `layer` as the new outermost decorator.
    pub fn layer(self, layer: impl InvokerLayer<'a>) -> Self {
        InvokerStack {
            top: layer.wrap(self.top),
        }
    }

    /// Unwrap into the composed invoker.
    pub fn into_inner(self) -> Box<dyn Invoker + 'a> {
        self.top
    }
}

impl Invoker for InvokerStack<'_> {
    fn invoke(
        &self,
        prototype: &Prototype,
        service_ref: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, EvalError> {
        self.top.invoke(prototype, service_ref, input, at)
    }

    fn invoke_all(
        &self,
        prototype: &Prototype,
        calls: &[(ServiceRef, Tuple)],
        at: Instant,
    ) -> Vec<Result<Vec<Tuple>, EvalError>> {
        self.top.invoke_all(prototype, calls, at)
    }

    fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
        self.top.providers_of(prototype)
    }
}

/// Run one invocation with panic containment: a panicking service becomes
/// [`EvalError::Panicked`] instead of unwinding into (and aborting) the
/// execution engine. Used by one-shot β, the default
/// [`Invoker::invoke_all`], the dedup layer and [`CatchPanicLayer`];
/// string panic payloads are preserved as the error's `reason`.
pub fn invoke_contained<I: Invoker + ?Sized>(
    invoker: &I,
    prototype: &Prototype,
    service_ref: &ServiceRef,
    input: &Tuple,
    at: Instant,
) -> Result<Vec<Tuple>, EvalError> {
    let call = std::panic::AssertUnwindSafe(|| invoker.invoke(prototype, service_ref, input, at));
    match std::panic::catch_unwind(call) {
        Ok(result) => result,
        Err(payload) => Err(EvalError::Panicked {
            service: service_ref.to_string(),
            prototype: prototype.name().to_string(),
            reason: panic_reason(payload.as_ref()),
        }),
    }
}

/// Extract a human-readable reason from a panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic>".to_string()
    }
}

/// An [`InvokerLayer`] containing panics: any panic raised by the invoker
/// below it (typically a buggy service implementation) is caught and
/// surfaced as [`EvalError::Panicked`]. Add it *first* when building an
/// [`InvokerStack`] — directly over the registry — so outer layers
/// (instrumentation, health, resilience) observe the panic as an ordinary
/// invocation error.
#[derive(Default, Clone, Copy)]
pub struct CatchPanicLayer;

impl CatchPanicLayer {
    /// The layer (unit struct; exists for call-site symmetry).
    pub fn new() -> Self {
        CatchPanicLayer
    }
}

impl<'a> InvokerLayer<'a> for CatchPanicLayer {
    fn wrap(self, inner: Box<dyn Invoker + 'a>) -> Box<dyn Invoker + 'a> {
        Box::new(CatchPanic(inner))
    }
}

struct CatchPanic<'a>(Box<dyn Invoker + 'a>);

impl Invoker for CatchPanic<'_> {
    fn invoke(
        &self,
        prototype: &Prototype,
        service_ref: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, EvalError> {
        invoke_contained(&*self.0, prototype, service_ref, input, at)
    }

    fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
        self.0.providers_of(prototype)
    }
}

/// Validate an invocation result against `Output_ψ` — arity and value
/// types. Shared by every `Invoker` implementation.
fn validate_invocation_result(
    prototype: &Prototype,
    service: &ServiceRef,
    result: &[Tuple],
) -> Result<(), EvalError> {
    let out = prototype.output();
    for t in result {
        if t.arity() != out.arity() {
            return Err(EvalError::MalformedInvocationResult {
                service: service.to_string(),
                prototype: prototype.name().to_string(),
                detail: format!("arity {} != output schema arity {}", t.arity(), out.arity()),
            });
        }
        for (i, (name, ty)) in out.attrs().enumerate() {
            if !t[i].conforms_to(*ty) {
                return Err(EvalError::MalformedInvocationResult {
                    service: service.to_string(),
                    prototype: prototype.name().to_string(),
                    detail: format!(
                        "output attribute `{name}`: expected {ty}, got {}",
                        t[i].data_type()
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Whether `service` implements the prototype named `prototype`.
pub fn implements(service: &dyn Service, prototype: &str) -> bool {
    service.prototypes().iter().any(|p| p.name() == prototype)
}

/// The invocation sequence behind every service table: `resolved` is what
/// the table's lookup found for `service_ref` (taken under a lock the
/// caller has already released, so a slow service blocks no registration).
/// Checks that the service implements `prototype`, calls it, classifies a
/// fault and validates the result against `Output_ψ`.
pub fn invoke_resolved(
    resolved: Option<Arc<dyn Service>>,
    prototype: &Prototype,
    service_ref: &ServiceRef,
    input: &Tuple,
    at: Instant,
) -> Result<Vec<Tuple>, EvalError> {
    let service = resolved.ok_or_else(|| EvalError::UnknownService {
        reference: service_ref.to_string(),
    })?;
    if !implements(&*service, prototype.name()) {
        return Err(EvalError::PrototypeNotImplemented {
            service: service_ref.to_string(),
            prototype: prototype.name().to_string(),
        });
    }
    let result = service
        .invoke_classified(prototype, input, at)
        .map_err(|fault| fault_to_eval_error(fault, service_ref, prototype))?;
    validate_invocation_result(prototype, service_ref, &result)?;
    Ok(result)
}

/// A static in-memory service registry: the minimal [`Invoker`] for
/// one-shot query evaluation and tests. Dynamic discovery lives in
/// `serena-services`.
#[derive(Default)]
pub struct StaticRegistry {
    services: RwLock<HashMap<ServiceRef, Arc<dyn Service>>>,
}

impl StaticRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a service under `reference`. Replaces any previous service
    /// with the same reference.
    pub fn register(&self, reference: impl Into<ServiceRef>, service: Arc<dyn Service>) {
        self.services.write().insert(reference.into(), service);
    }

    /// Remove a service. Returns `true` if it was present.
    pub fn unregister(&self, reference: &ServiceRef) -> bool {
        self.services.write().remove(reference).is_some()
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.services.read().len()
    }

    /// True iff no services are registered.
    pub fn is_empty(&self) -> bool {
        self.services.read().is_empty()
    }

    /// Whether `reference` is registered.
    pub fn contains(&self, reference: &ServiceRef) -> bool {
        self.services.read().contains_key(reference)
    }
}

impl Invoker for StaticRegistry {
    fn invoke(
        &self,
        prototype: &Prototype,
        service_ref: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, EvalError> {
        let resolved = self.services.read().get(service_ref).cloned();
        invoke_resolved(resolved, prototype, service_ref, input, at)
    }

    fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
        let guard = self.services.read();
        let mut refs: Vec<ServiceRef> = guard
            .iter()
            .filter(|(_, s)| implements(s.as_ref(), prototype))
            .map(|(r, _)| r.clone())
            .collect();
        refs.sort();
        refs
    }
}

impl fmt::Debug for StaticRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let guard = self.services.read();
        let mut refs: Vec<&ServiceRef> = guard.keys().collect();
        refs.sort();
        write!(f, "StaticRegistry{refs:?}")
    }
}

/// Test fixtures: deterministic simulated services for the paper's running
/// example, usable from any crate in the workspace.
pub mod fixtures {
    use super::*;
    use crate::prototype::examples as protos;
    use crate::value::Value;

    /// A deterministic temperature sensor: temperature is a pure function
    /// of (seed, instant): `base + (ticks * 7 + seed * 13) % 20`.
    pub fn temperature_sensor(seed: u64) -> Arc<dyn Service> {
        Arc::new(FnService::new(
            vec![protos::get_temperature()],
            move |_p, _in, at| {
                let t = 10.0 + ((at.ticks() * 7 + seed * 13) % 20) as f64;
                Ok(vec![Tuple::new(vec![Value::Real(t)])])
            },
        ))
    }

    /// A deterministic camera implementing `checkPhoto` and `takePhoto`.
    /// Quality is a function of (seed, area length, instant); photos are
    /// tiny synthetic blobs embedding the inputs.
    pub fn camera(seed: u64) -> Arc<dyn Service> {
        Arc::new(FnService::new(
            vec![protos::check_photo(), protos::take_photo()],
            move |p, input, at| match p.name() {
                "checkPhoto" => {
                    let area = input.get(0).and_then(|v| v.as_str()).unwrap_or("");
                    let q = ((seed + area.len() as u64 + at.ticks()) % 10) as i64;
                    let delay = 0.1 * ((seed % 5) as f64 + 1.0);
                    Ok(vec![Tuple::new(vec![Value::Int(q), Value::Real(delay)])])
                }
                "takePhoto" => {
                    let area = input.get(0).and_then(|v| v.as_str()).unwrap_or("");
                    let quality = input.get(1).and_then(|v| v.as_int()).unwrap_or(0);
                    let payload = format!("photo[{area}|q={quality}|s={seed}|t={}]", at.ticks());
                    Ok(vec![Tuple::new(vec![Value::blob(payload.into_bytes())])])
                }
                other => Err(format!("camera does not implement {other}")),
            },
        ))
    }

    /// A temperature sensor whose implementation panics on every call —
    /// the fixture for panic-containment tests. A well-behaved engine
    /// surfaces it as [`EvalError::Panicked`](crate::error::EvalError)
    /// instead of aborting.
    pub fn panicking_sensor() -> Arc<dyn Service> {
        Arc::new(FnService::new(
            vec![protos::get_temperature()],
            move |_p, _in, _at| -> Result<Vec<Tuple>, String> { panic!("sensor firmware bug") },
        ))
    }

    /// A messenger implementing `sendMessage`; always reports `sent=true`.
    /// Side effects (the outbox) are modeled in `serena-services`; at the
    /// algebra level the *action set* records the effect.
    pub fn messenger() -> Arc<dyn Service> {
        Arc::new(FnService::new(
            vec![protos::send_message()],
            |_p, _input, _at| Ok(vec![Tuple::new(vec![Value::Bool(true)])]),
        ))
    }

    /// Registry pre-loaded with the paper's 9 services (Table 1):
    /// email, jabber, camera01, camera02, webcam07, sensor01, sensor06,
    /// sensor07, sensor22.
    pub fn example_registry() -> StaticRegistry {
        let reg = StaticRegistry::new();
        reg.register("email", messenger());
        reg.register("jabber", messenger());
        reg.register("camera01", camera(1));
        reg.register("camera02", camera(2));
        reg.register("webcam07", camera(7));
        reg.register("sensor01", temperature_sensor(1));
        reg.register("sensor06", temperature_sensor(6));
        reg.register("sensor07", temperature_sensor(7));
        reg.register("sensor22", temperature_sensor(22));
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use crate::prototype::examples as protos;
    use crate::tuple;

    #[test]
    fn registry_resolves_and_invokes() {
        let reg = example_registry();
        let out = reg
            .invoke(
                &protos::get_temperature(),
                &ServiceRef::new("sensor01"),
                &Tuple::empty(),
                Instant(3),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0][0].as_real().is_some());
    }

    #[test]
    fn determinism_at_an_instant() {
        let reg = example_registry();
        let call = |at| {
            reg.invoke(
                &protos::get_temperature(),
                &ServiceRef::new("sensor22"),
                &Tuple::empty(),
                at,
            )
            .unwrap()
        };
        assert_eq!(call(Instant(5)), call(Instant(5)));
        // ...but time-dependent across instants (the paper's motivation for
        // fixing the instant in Definition 9).
        assert_ne!(call(Instant(5)), call(Instant(6)));
    }

    #[test]
    fn unknown_service_and_missing_prototype() {
        let reg = example_registry();
        let err = reg
            .invoke(
                &protos::get_temperature(),
                &ServiceRef::new("nope"),
                &Tuple::empty(),
                Instant::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, EvalError::UnknownService { .. }));

        let err = reg
            .invoke(
                &protos::send_message(),
                &ServiceRef::new("sensor01"),
                &tuple!["a@b", "hi"],
                Instant::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, EvalError::PrototypeNotImplemented { .. }));
    }

    #[test]
    fn malformed_results_rejected() {
        let reg = StaticRegistry::new();
        reg.register(
            "bad",
            Arc::new(FnService::new(
                vec![protos::get_temperature()],
                |_, _, _| Ok(vec![tuple!["not a real"]]),
            )),
        );
        let err = reg
            .invoke(
                &protos::get_temperature(),
                &ServiceRef::new("bad"),
                &Tuple::empty(),
                Instant::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, EvalError::MalformedInvocationResult { .. }));
    }

    #[test]
    fn invocation_failure_wraps_reason() {
        let reg = StaticRegistry::new();
        reg.register(
            "flaky",
            Arc::new(FnService::new(
                vec![protos::get_temperature()],
                |_, _, _| Err("device unreachable".to_string()),
            )),
        );
        let err = reg
            .invoke(
                &protos::get_temperature(),
                &ServiceRef::new("flaky"),
                &Tuple::empty(),
                Instant::ZERO,
            )
            .unwrap_err();
        match err {
            EvalError::InvocationFailed { reason, .. } => {
                assert_eq!(reason, "device unreachable")
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn providers_of_lists_implementors_sorted() {
        let reg = example_registry();
        let sensors: Vec<String> = reg
            .providers_of("getTemperature")
            .into_iter()
            .map(|r| r.to_string())
            .collect();
        assert_eq!(
            sensors,
            vec!["sensor01", "sensor06", "sensor07", "sensor22"]
        );
        assert_eq!(reg.providers_of("checkPhoto").len(), 3);
        assert_eq!(reg.providers_of("noSuchProto").len(), 0);
    }

    #[test]
    fn unregister_removes() {
        let reg = example_registry();
        assert_eq!(reg.len(), 9);
        assert!(reg.unregister(&ServiceRef::new("email")));
        assert!(!reg.contains(&ServiceRef::new("email")));
        assert_eq!(reg.len(), 8);
    }

    #[test]
    fn invoker_stack_layers_apply_outermost_last() {
        use crate::sync::Mutex;
        // a layer that logs its tag on every call — order of tags shows
        // which decorator is outermost
        struct Tagger<'a> {
            inner: Box<dyn Invoker + 'a>,
            tag: &'static str,
            log: &'a Mutex<Vec<&'static str>>,
        }
        impl Invoker for Tagger<'_> {
            fn invoke(
                &self,
                prototype: &Prototype,
                service_ref: &ServiceRef,
                input: &Tuple,
                at: Instant,
            ) -> Result<Vec<Tuple>, EvalError> {
                self.log.lock().push(self.tag);
                self.inner.invoke(prototype, service_ref, input, at)
            }
            fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
                self.inner.providers_of(prototype)
            }
        }
        let log = Mutex::new(Vec::new());
        let base = example_registry();
        let stack = InvokerStack::new(&base)
            .layer(|inner| {
                Box::new(Tagger {
                    inner,
                    tag: "inner",
                    log: &log,
                }) as Box<dyn Invoker + '_>
            })
            .layer(|inner| {
                Box::new(Tagger {
                    inner,
                    tag: "outer",
                    log: &log,
                }) as Box<dyn Invoker + '_>
            });
        let out = stack
            .invoke(
                &protos::get_temperature(),
                &ServiceRef::new("sensor01"),
                &Tuple::empty(),
                Instant(1),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        // last layer added sees the call first
        assert_eq!(*log.lock(), vec!["outer", "inner"]);
        assert_eq!(stack.providers_of("getTemperature").len(), 4);
    }

    #[test]
    fn invoker_blanket_impls_delegate() {
        use std::sync::Arc as StdArc;
        let base = example_registry();
        let call = |inv: &dyn Invoker| {
            inv.invoke(
                &protos::get_temperature(),
                &ServiceRef::new("sensor01"),
                &Tuple::empty(),
                Instant(2),
            )
            .unwrap()
        };
        let direct = call(&base);
        let by_ref: &StaticRegistry = &base;
        assert_eq!(call(&&by_ref), direct);
        let boxed: Box<dyn Invoker> = Box::new(example_registry());
        assert_eq!(call(&boxed), direct);
        let arced: StdArc<dyn Invoker> = StdArc::new(example_registry());
        assert_eq!(call(&arced), direct);
    }

    #[test]
    fn catch_panic_layer_contains_service_panics() {
        let reg = StaticRegistry::new();
        reg.register("boom", panicking_sensor());
        reg.register("sensor01", temperature_sensor(1));
        let stack = InvokerStack::new(&reg).layer(CatchPanicLayer::new());

        // silence the default panic hook's stderr backtrace for this test
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = stack
            .invoke(
                &protos::get_temperature(),
                &ServiceRef::new("boom"),
                &Tuple::empty(),
                Instant(1),
            )
            .unwrap_err();
        std::panic::set_hook(prev);

        match err {
            EvalError::Panicked {
                service,
                prototype,
                reason,
            } => {
                assert_eq!(service, "boom");
                assert_eq!(prototype, "getTemperature");
                assert_eq!(reason, "sensor firmware bug");
            }
            other => panic!("unexpected: {other:?}"),
        }
        // the invoker is still usable after the contained panic
        let out = stack
            .invoke(
                &protos::get_temperature(),
                &ServiceRef::new("sensor01"),
                &Tuple::empty(),
                Instant(1),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        // discovery passes through
        assert_eq!(stack.providers_of("getTemperature").len(), 2);
    }

    #[test]
    fn take_photo_embeds_inputs() {
        let reg = example_registry();
        let out = reg
            .invoke(
                &protos::take_photo(),
                &ServiceRef::new("camera01"),
                &tuple!["office", 5],
                Instant(2),
            )
            .unwrap();
        let blob = out[0][0].as_blob().unwrap();
        let text = std::str::from_utf8(blob).unwrap();
        assert!(text.contains("office"));
        assert!(text.contains("q=5"));
    }
}
