//! Bridging [`MetricsSink`] observations into a [`MetricsRegistry`].
//!
//! [`RegistrySink`] is the glue between the per-node observation plumbing
//! (PR 1's [`MetricsSink`]) and the named-series world: every
//! [`OpObservation`] becomes per-operator counters (`tuples`, β cache
//! hits/misses, failures) and a wall-time histogram, labelled by operator
//! kind. All series handles are resolved once at construction — recording
//! is a fixed number of relaxed atomic updates, no map lookups.

use std::sync::Arc;

use crate::metrics::{MetricsSink, OpKind, OpObservation};

use super::histogram::Histogram;
use super::registry::{Counter, MetricsRegistry};

/// Per-[`OpKind`] series handles.
struct OpSeries {
    applications: Arc<Counter>,
    tuples_in: Arc<Counter>,
    tuples_out: Arc<Counter>,
    self_time: Arc<Histogram>,
    invocations: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    failures: Arc<Counter>,
    degraded: Arc<Counter>,
    panics: Arc<Counter>,
}

/// A [`MetricsSink`] forwarding every observation into per-operator series
/// of a [`MetricsRegistry`]:
///
/// * `serena_op_applications_total{op}` / `serena_op_tuples_in_total{op}` /
///   `serena_op_tuples_out_total{op}` / `serena_op_failures_total{op}`
/// * `serena_op_self_time_ns{op}` — wall-clock self-time histogram
/// * `serena_beta_invocations_total{op}` /
///   `serena_beta_cache_hits_total{op}` /
///   `serena_beta_cache_misses_total{op}` — β cache behaviour
/// * `serena_beta_degraded_total{op}` — tuples degraded (dropped or
///   null-filled) under a non-fatal [`crate::ops::DegradePolicy`]
/// * `serena_beta_panic_total{op}` — invocations whose service panicked;
///   the panic was contained and surfaced as an error
pub struct RegistrySink {
    per_op: Vec<OpSeries>,
}

impl RegistrySink {
    /// Resolve all per-operator series handles against `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        let per_op = OpKind::ALL
            .iter()
            .map(|op| {
                let name = format!("{op}");
                let labels: [(&str, &str); 1] = [("op", &name)];
                OpSeries {
                    applications: registry.counter("serena_op_applications_total", &labels),
                    tuples_in: registry.counter("serena_op_tuples_in_total", &labels),
                    tuples_out: registry.counter("serena_op_tuples_out_total", &labels),
                    self_time: registry.histogram("serena_op_self_time_ns", &labels),
                    invocations: registry.counter("serena_beta_invocations_total", &labels),
                    cache_hits: registry.counter("serena_beta_cache_hits_total", &labels),
                    cache_misses: registry.counter("serena_beta_cache_misses_total", &labels),
                    failures: registry.counter("serena_op_failures_total", &labels),
                    degraded: registry.counter("serena_beta_degraded_total", &labels),
                    panics: registry.counter("serena_beta_panic_total", &labels),
                }
            })
            .collect();
        RegistrySink { per_op }
    }
}

impl MetricsSink for RegistrySink {
    fn record(&self, obs: &OpObservation) {
        let s = &self.per_op[obs.op.index()];
        s.applications.inc();
        s.tuples_in.add(obs.tuples_in);
        s.tuples_out.add(obs.tuples_out);
        s.self_time.record_duration(obs.elapsed);
        if obs.invocations > 0 {
            s.invocations.add(obs.invocations);
        }
        if obs.cache_hits > 0 {
            s.cache_hits.add(obs.cache_hits);
        }
        if obs.cache_misses > 0 {
            s.cache_misses.add(obs.cache_misses);
        }
        if obs.failures > 0 {
            s.failures.add(obs.failures);
        }
        if obs.degraded > 0 {
            s.degraded.add(obs.degraded);
        }
        if obs.panics > 0 {
            s.panics.add(obs.panics);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NodeId;
    use std::time::Duration;

    #[test]
    fn observations_land_in_per_op_series() {
        let registry = MetricsRegistry::new();
        let sink = RegistrySink::new(&registry);

        let mut obs = OpObservation::new(NodeId(2), OpKind::Invoke);
        obs.tuples_in = 3;
        obs.tuples_out = 3;
        obs.invocations = 2;
        obs.cache_hits = 1;
        obs.cache_misses = 2;
        obs.failures = 1;
        obs.degraded = 1;
        obs.panics = 1;
        obs.elapsed = Duration::from_micros(5);
        sink.record(&obs);
        sink.record(&OpObservation::new(NodeId(0), OpKind::Select));

        let op = [("op", "Invoke")];
        assert_eq!(
            registry.counter_value("serena_op_applications_total", &op),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("serena_beta_invocations_total", &op),
            Some(2)
        );
        assert_eq!(
            registry.counter_value("serena_beta_cache_hits_total", &op),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("serena_op_failures_total", &op),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("serena_beta_degraded_total", &op),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("serena_beta_panic_total", &op),
            Some(1)
        );
        let hist = registry.histogram("serena_op_self_time_ns", &op);
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), 5_000);
        assert_eq!(
            registry.counter_value("serena_op_applications_total", &[("op", "Select")]),
            Some(1)
        );
    }
}
