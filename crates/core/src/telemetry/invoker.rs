//! Invocation-level instrumentation: latency, outcomes, health feed.
//!
//! [`InstrumentedLayer`] decorates any [`Invoker`] and, per call, records
//! wall-clock latency into per-service registry series, notifies an
//! [`InvocationObserver`] (the hook service-health trackers implement), and
//! emits [`TraceEvent::Invocation`]/[`TraceEvent::Failure`] trace events —
//! without changing the call's result in any way. This sits *under* the β
//! operator, so the one-shot executor and the continuous one (both call
//! `InvokeRecipe::call` per tuple) are observed identically.

use std::sync::Arc;
use std::time::Duration;

use crate::error::EvalError;
use crate::prototype::Prototype;
use crate::service::{Invoker, InvokerLayer};
use crate::time::Instant;
use crate::tuple::Tuple;
use crate::value::ServiceRef;

use super::histogram::Histogram;
use super::registry::{Counter, MetricsRegistry};
use super::span::FlightRecorder;
use super::trace::{TraceEvent, TraceSink};

/// Receives the outcome of every β service invocation — the feed for
/// service-health tracking. `error` is `None` on success.
pub trait InvocationObserver: Send + Sync {
    /// Report one completed invocation.
    fn observe_invocation(
        &self,
        service: &ServiceRef,
        prototype: &str,
        at: Instant,
        latency: Duration,
        error: Option<&EvalError>,
    );
}

/// One service's series handles — this layer's
/// [bundle](MetricsRegistry::bundle).
struct ServiceSeries {
    latency: Arc<Histogram>,
    calls: Arc<Counter>,
    failures: Arc<Counter>,
}

impl ServiceSeries {
    fn resolve(registry: &MetricsRegistry, service: &ServiceRef) -> Self {
        let labels: [(&str, &str); 1] = [("service", service.as_str())];
        ServiceSeries {
            latency: registry.histogram("serena_service_latency_ns", &labels),
            calls: registry.counter("serena_service_calls_total", &labels),
            failures: registry.counter("serena_service_failures_total", &labels),
        }
    }
}

/// An [`InvokerLayer`] measuring every call, for use with
/// [`InvokerStack`](crate::service::InvokerStack): the layer holds the
/// instrumentation outputs and, when the stack is built, wraps the invoker
/// below it.
///
/// Registry series (when a registry is attached):
/// `serena_service_latency_ns{service}` (histogram),
/// `serena_service_calls_total{service}` and
/// `serena_service_failures_total{service}` (counters). The handles are
/// the registry's per-service [bundle](MetricsRegistry::bundle), resolved
/// on a service's first call and kept by the registry — not by this layer,
/// which the runtime rebuilds every tick — so recording takes one hash
/// lookup under a read lock plus a few atomic updates, whichever stack
/// the call came through.
///
/// ```
/// use serena_core::prelude::*;
/// use serena_core::telemetry::InstrumentedLayer;
///
/// let base = serena_core::service::fixtures::example_registry();
/// let registry = MetricsRegistry::new();
/// let stack = InvokerStack::new(base).layer(InstrumentedLayer::new().registry(&registry));
/// assert!(!stack.providers_of("getTemperature").is_empty());
/// ```
#[derive(Default, Clone, Copy)]
pub struct InstrumentedLayer<'a> {
    registry: Option<&'a MetricsRegistry>,
    observer: Option<&'a dyn InvocationObserver>,
    trace: Option<&'a dyn TraceSink>,
    tracer: Option<&'a FlightRecorder>,
}

impl<'a> InstrumentedLayer<'a> {
    /// A layer with no outputs attached yet (a transparent pass-through
    /// until some are).
    pub fn new() -> Self {
        InstrumentedLayer::default()
    }

    /// Record per-service latency/call/failure series into `registry`.
    pub fn registry(mut self, registry: &'a MetricsRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Notify `observer` of every invocation outcome.
    pub fn observer(mut self, observer: &'a dyn InvocationObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Emit invocation/failure trace events to `trace`.
    pub fn trace(mut self, trace: &'a dyn TraceSink) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Record one `beta.attempt` span per call into `tracer`, and stamp
    /// the span id as the latency histogram's exemplar.
    pub fn tracer(mut self, tracer: &'a FlightRecorder) -> Self {
        self.tracer = Some(tracer);
        self
    }
}

impl<'a> InvokerLayer<'a> for InstrumentedLayer<'a> {
    fn wrap(self, inner: Box<dyn Invoker + 'a>) -> Box<dyn Invoker + 'a> {
        Box::new(Instrumented {
            inner,
            outputs: self,
        })
    }
}

/// What [`InstrumentedLayer`] wraps the invoker below it in.
struct Instrumented<'a> {
    inner: Box<dyn Invoker + 'a>,
    outputs: InstrumentedLayer<'a>,
}

impl Invoker for Instrumented<'_> {
    fn invoke(
        &self,
        prototype: &Prototype,
        service_ref: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, EvalError> {
        let InstrumentedLayer {
            registry,
            observer,
            trace,
            tracer,
        } = self.outputs;
        let mut span = tracer.and_then(|t| t.start("beta.attempt", at));
        if let Some(s) = span.as_mut() {
            s.attr_str("service", service_ref.as_str());
            s.attr_str("prototype", prototype.name());
        }
        let started = std::time::Instant::now();
        let result = {
            let _in_span = span.as_ref().map(|s| s.enter());
            self.inner.invoke(prototype, service_ref, input, at)
        };
        let latency = started.elapsed();
        let span_id = span.as_ref().map_or(0, |s| s.id());
        if let Some(s) = span.as_mut() {
            s.attr_u64("ok", result.is_ok() as u64);
            if let Err(e) = &result {
                s.attr_str("error", e.to_string());
            }
        }
        drop(span); // close before the latency sample so the exemplar resolves

        if let Some(registry) = registry {
            let series = registry.bundle(service_ref, |r| ServiceSeries::resolve(r, service_ref));
            series.latency.record_with_exemplar(
                u128::min(latency.as_nanos(), u64::MAX as u128) as u64,
                span_id,
            );
            series.calls.inc();
            if result.is_err() {
                series.failures.inc();
            }
        }
        if let Some(observer) = observer {
            observer.observe_invocation(
                service_ref,
                prototype.name(),
                at,
                latency,
                result.as_ref().err(),
            );
        }
        if let Some(trace) = trace {
            trace.emit(&TraceEvent::Invocation {
                service: service_ref.to_string(),
                prototype: prototype.name().to_string(),
                at,
                latency_ns: u128::min(latency.as_nanos(), u64::MAX as u128) as u64,
                ok: result.is_ok(),
            });
            if let Err(e) = &result {
                trace.emit(&TraceEvent::Failure {
                    scope: service_ref.to_string(),
                    at,
                    message: e.to_string(),
                });
            }
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
    use crate::service::InvokerStack;
    use crate::sync::Mutex;
    use crate::telemetry::trace::MemoryTrace;

    #[derive(Default)]
    struct Outcomes(Mutex<Vec<(String, String, bool)>>);

    impl InvocationObserver for Outcomes {
        fn observe_invocation(
            &self,
            service: &ServiceRef,
            prototype: &str,
            _at: Instant,
            _latency: Duration,
            error: Option<&EvalError>,
        ) {
            self.0
                .lock()
                .push((service.to_string(), prototype.to_string(), error.is_none()));
        }
    }

    #[test]
    fn records_latency_outcomes_and_traces() {
        let inner = example_registry();
        let registry = MetricsRegistry::new();
        let outcomes = Outcomes::default();
        let trace = MemoryTrace::new();
        let invoker = InvokerStack::new(&inner).layer(
            InstrumentedLayer::new()
                .registry(&registry)
                .observer(&outcomes)
                .trace(&trace),
        );

        let sref = ServiceRef::new("sensor01");
        let ghost = ServiceRef::new("ghost");
        invoker
            .invoke(
                &protos::get_temperature(),
                &sref,
                &Tuple::empty(),
                Instant(1),
            )
            .unwrap();
        invoker
            .invoke(
                &protos::get_temperature(),
                &sref,
                &Tuple::empty(),
                Instant(2),
            )
            .unwrap();
        let err = invoker.invoke(
            &protos::get_temperature(),
            &ghost,
            &Tuple::empty(),
            Instant(3),
        );
        assert!(err.is_err());

        let s = [("service", "sensor01")];
        assert_eq!(
            registry.counter_value("serena_service_calls_total", &s),
            Some(2)
        );
        assert_eq!(
            registry.counter_value("serena_service_failures_total", &s),
            Some(0)
        );
        assert_eq!(
            registry.counter_value("serena_service_failures_total", &[("service", "ghost")]),
            Some(1)
        );
        assert_eq!(
            registry.histogram("serena_service_latency_ns", &s).count(),
            2
        );

        let seen = outcomes.0.lock().clone();
        assert_eq!(seen.len(), 3);
        assert!(seen[0].2 && seen[1].2 && !seen[2].2);
        assert_eq!(seen[2].0, "ghost");

        // 3 invocation events + 1 failure event
        let events = trace.events();
        assert_eq!(events.len(), 4);
        assert!(matches!(
            &events[3],
            TraceEvent::Failure { scope, .. } if scope == "ghost"
        ));
        // pass-through: discovery is undisturbed
        assert!(!invoker.providers_of("getTemperature").is_empty());
    }

    #[test]
    fn bare_wrapper_is_transparent() {
        let inner = example_registry();
        let invoker = InvokerStack::new(&inner).layer(InstrumentedLayer::new());
        let out = invoker
            .invoke(
                &protos::get_temperature(),
                &ServiceRef::new("sensor01"),
                &Tuple::empty(),
                Instant(0),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
    }
}
