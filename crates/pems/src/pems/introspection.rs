//! Introspection: the runtime's metric series, service health, breakers,
//! dedup counters and flight recorder, and the two text reports built from
//! them (`top`, `profile`).

use std::path::Path;
use std::sync::Arc;

use serena_core::telemetry::{chrome_trace, FlightRecorder, MetricsRegistry, SpanRecord};
use serena_core::value::ServiceRef;
use serena_services::health::{HealthTracker, ServiceHealth};
use serena_services::resilience::{BreakerState, ResilienceCounters, ResiliencePolicy};

use super::Pems;

impl Pems {
    /// The runtime-wide metric registry: operator counters, β-invocation
    /// latency histograms, per-query tick/lag series. Always on.
    pub fn metrics_registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.beta.telemetry)
    }

    /// Every metric series rendered in the Prometheus text exposition
    /// format — what the shell's `\metrics` command prints.
    pub fn render_metrics(&self) -> String {
        self.beta.telemetry.render_prometheus()
    }

    /// Health snapshot of every service observed by a β invocation so far,
    /// ordered by service reference — what the shell's `\health` command
    /// prints. Reflects injected faults: a service wrapped in a
    /// [`serena_services::faults::FaultyService`] shows its failure rate
    /// here.
    pub fn service_health(&self) -> Vec<ServiceHealth> {
        self.beta.health.report()
    }

    /// The rolling per-service health tracker behind
    /// [`Self::service_health`].
    pub fn health_tracker(&self) -> Arc<HealthTracker> {
        Arc::clone(&self.beta.health)
    }

    /// Runtime-wide resilience counters: retries, breaker trips and
    /// breaker-rejected calls. All zero when no
    /// [`PemsBuilder::resilience`](super::PemsBuilder::resilience) policy was configured.
    pub fn resilience_counters(&self) -> ResilienceCounters {
        self.beta.resilience.counters()
    }

    /// Per-service circuit-breaker states, ordered by service reference —
    /// shown by the shell's `\health` command next to the health report.
    pub fn breakers(&self) -> Vec<(ServiceRef, BreakerState)> {
        self.beta.resilience.breakers()
    }

    /// The resilience policy the invoker stack is built with.
    pub fn resilience_policy(&self) -> ResiliencePolicy {
        self.beta.policy
    }

    /// Cumulative cross-query β dedup counters: `(hits, misses)` — calls
    /// served without an upstream invocation vs. upstream calls actually
    /// performed through the dedup layer. Both zero when dedup is
    /// disarmed.
    pub fn dedup_stats(&self) -> (u64, u64) {
        (self.beta.dedup.hits(), self.beta.dedup.misses())
    }

    /// The hierarchical span tracer's flight recorder: a bounded
    /// in-memory ring of closed [`SpanRecord`]s covering scheduler rounds,
    /// per-worker jobs, query ticks, operators and β invocations.
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.beta.tracer)
    }

    /// Arm or disarm the span tracer on a built runtime (see
    /// [`PemsBuilder::tracing`](super::PemsBuilder::tracing)). Disarming keeps already-recorded spans;
    /// call [`FlightRecorder::clear`] via [`Self::flight_recorder`] to
    /// discard them.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.beta.tracer.arm(enabled);
    }

    /// Export every span currently retained by the flight recorder as a
    /// Chrome/Perfetto `trace.json` (load it in `chrome://tracing` or
    /// [ui.perfetto.dev](https://ui.perfetto.dev)) — the shell's
    /// `.trace <file>` command. Returns the number of spans written.
    pub fn export_trace(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let spans = self.beta.tracer.snapshot();
        std::fs::write(path, chrome_trace(&spans))?;
        Ok(spans.len())
    }

    /// Per-query profile from the flight recorder — the shell's
    /// `.profile <query>` command: recent tick timeline (duration, delta
    /// sizes, errors), the slowest operators by self time across the
    /// retained ticks, and the p99 tick with its exemplar span id.
    pub fn profile(&self, query: &str) -> String {
        let telemetry = &self.beta.telemetry;
        let hist = telemetry
            .histogram_value("serena_query_tick_duration_ns", &[("query", query)])
            .unwrap_or_default();
        profile_text(query, &self.beta.tracer.snapshot(), &hist)
    }

    /// Live runtime dashboard — the shell's `.top` command: worker
    /// utilization over the retained scheduler rounds, per-query tick
    /// rates/latency/errors, and per-service health, latency and breaker
    /// state.
    pub fn top(&self) -> String {
        let mut out = String::new();
        let (telemetry, spans) = (&self.beta.telemetry, self.beta.tracer.snapshot());

        // -- scheduler ----------------------------------------------------
        let rounds: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "sched.round").collect();
        let window_ns: u64 = rounds.iter().map(|s| s.duration_ns()).sum();
        let mut busy = std::collections::BTreeMap::<u64, (u64, u64)>::new();
        for job in spans.iter().filter(|s| s.name == "sched.job") {
            let worker = job.attr_u64("worker").unwrap_or(u64::MAX);
            let e = busy.entry(worker).or_insert((0, 0));
            e.0 += job.duration_ns();
            e.1 += 1;
        }
        out.push_str(&format!(
            "scheduler  rounds={} spans={} dropped={}\n",
            rounds.len(),
            spans.len(),
            self.beta.tracer.dropped_total(),
        ));
        for (worker, (busy_ns, jobs)) in &busy {
            let util = if window_ns > 0 {
                100.0 * *busy_ns as f64 / window_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  worker {worker}: util={util:5.1}% jobs={jobs} busy={:.2}ms\n",
                *busy_ns as f64 / 1e6
            ));
        }

        // -- queries ------------------------------------------------------
        out.push_str("queries\n");
        for name in self.processor.names() {
            let labels = [("query", name)];
            let ticks = telemetry
                .counter_value("serena_query_ticks_total", &labels)
                .unwrap_or(0);
            let errors = telemetry
                .counter_value("serena_query_errors_total", &labels)
                .unwrap_or(0);
            let hist = telemetry
                .histogram_value("serena_query_tick_duration_ns", &labels)
                .unwrap_or_default();
            out.push_str(&format!(
                "  {name}: ticks={ticks} p50={:.2}ms p99={:.2}ms errors={errors}\n",
                hist.p50() as f64 / 1e6,
                hist.p99() as f64 / 1e6,
            ));
        }

        // -- services -----------------------------------------------------
        let breakers: std::collections::BTreeMap<_, _> = self.breakers().into_iter().collect();
        out.push_str("services\n");
        for h in self.service_health() {
            let service = h.reference.as_str();
            let hist = telemetry
                .histogram_value("serena_service_latency_ns", &[("service", service)])
                .unwrap_or_default();
            let breaker = breakers
                .get(&h.reference)
                .map_or_else(|| "-".to_string(), ToString::to_string);
            out.push_str(&format!(
                "  {service}: {:?} attempts={} fail_rate={:.1}% p99={:.2}ms breaker={breaker}\n",
                h.status(),
                h.attempts,
                100.0 * h.failure_rate,
                hist.p99() as f64 / 1e6,
            ));
        }
        out
    }
}

/// Render [`Pems::profile`]'s report from a flight-recorder snapshot:
/// tick timeline, slowest operators by total self time (parent-chain
/// ownership walk, tolerant of evicted ancestors), and the p99 tick with
/// its exemplar span.
fn profile_text(
    query: &str,
    spans: &[SpanRecord],
    tick_hist: &serena_core::telemetry::Histogram,
) -> String {
    use std::collections::{HashMap, HashSet};
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let ticks: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "query.tick" && s.attr_str("query") == Some(query))
        .collect();
    if ticks.is_empty() {
        return format!(
            "no retained ticks for query `{query}` (recorder disarmed, or spans evicted)\n"
        );
    }
    let tick_ids: HashSet<u64> = ticks.iter().map(|s| s.id).collect();
    let mut out = format!("query `{query}`: {} retained tick(s)\n", ticks.len());

    const TIMELINE: usize = 12;
    let shown = &ticks[ticks.len().saturating_sub(TIMELINE)..];
    if shown.len() < ticks.len() {
        out.push_str(&format!(
            "  … {} earlier tick(s) elided\n",
            ticks.len() - shown.len()
        ));
    }
    for t in shown {
        out.push_str(&format!(
            "  t={:<6} {:9.3}ms  +{} -{} errors={}{}\n",
            t.at.ticks(),
            t.duration_ns() as f64 / 1e6,
            t.attr_u64("inserted").unwrap_or(0),
            t.attr_u64("deleted").unwrap_or(0),
            t.attr_u64("errors").unwrap_or(0),
            if t.attr_u64("panicked") == Some(1) {
                " PANICKED"
            } else {
                ""
            },
        ));
    }

    // Ownership: an operator span belongs to this query if walking its
    // parent chain reaches one of the query's tick spans. A broken chain
    // (ancestor evicted from the ring) drops the span rather than guessing.
    let owned = |span: &SpanRecord| -> bool {
        let mut s = span;
        loop {
            if s.parent == 0 {
                return false;
            }
            if tick_ids.contains(&s.parent) {
                return true;
            }
            match by_id.get(&s.parent) {
                Some(p) => s = p,
                None => return false,
            }
        }
    };
    // (self_ns total, applications, tuples_out total) per (operator, node)
    type OpTotals = ((&'static str, u64), (u64, u64, u64));
    let mut ops: HashMap<(&str, u64), (u64, u64, u64)> = HashMap::new();
    for s in spans.iter().filter(|s| s.name.starts_with("op.")) {
        if !owned(s) {
            continue;
        }
        let node = s.attr_u64("node").unwrap_or(u64::MAX);
        let e = ops.entry((s.name, node)).or_insert((0, 0, 0));
        e.0 += s.attr_u64("self_ns").unwrap_or_else(|| s.duration_ns());
        e.1 += 1;
        e.2 += s.attr_u64("tuples_out").unwrap_or(0);
    }
    let mut ranked: Vec<OpTotals> = ops.into_iter().collect();
    ranked.sort_by(|(ka, va), (kb, vb)| vb.0.cmp(&va.0).then(ka.1.cmp(&kb.1)));
    out.push_str("slowest operators (total self time across retained ticks)\n");
    if ranked.is_empty() {
        out.push_str("  (no operator spans retained)\n");
    }
    for ((name, node), (self_ns, calls, tuples)) in ranked.into_iter().take(5) {
        out.push_str(&format!(
            "  node {node:<3} {name:<16} self={:9.3}ms calls={calls} tuples_out={tuples}\n",
            self_ns as f64 / 1e6
        ));
    }
    out.push_str(&format!(
        "p99 tick: {:.3}ms{}\n",
        tick_hist.p99() as f64 / 1e6,
        tick_hist
            .exemplar_for_quantile(0.99)
            .map_or(String::new(), |id| format!(" (exemplar span {id})")),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pems::tests::SETUP;
    use crate::pems::PemsError;
    use serena_core::plan::Plan;
    use serena_core::value::Value;
    use serena_services::bus::BusConfig;

    /// Acceptance: `service_health()` reflects injected
    /// [`FaultPolicy`] failures and `render_metrics()` produces valid
    /// Prometheus text for a scenario run.
    #[test]
    fn telemetry_health_and_prometheus_render() {
        use serena_services::faults::{FaultPolicy, FaultyService};
        use serena_services::health::HealthStatus;

        let mut pems = Pems::builder().bus(BusConfig::instant()).build();
        let (svc, _outbox) = serena_services::devices::messenger::SimMessenger::new(
            serena_services::devices::messenger::MessengerKind::Email,
        )
        .into_service();
        // every invocation fails → health must notice through β
        let faulty = FaultyService::new(svc, FaultPolicy::EveryNth(1));
        pems.directory().register("email", faulty.clone());
        pems.run_program(SETUP).unwrap();

        // a clean scan populates the per-operator series...
        pems.one_shot(&Plan::relation("contacts")).unwrap();
        // ...and a failing β invocation is a hard one-shot error, but the
        // instrumented invoker observed it on the way out
        let plan = Plan::relation("contacts")
            .assign_const("text", Value::str("Hi"))
            .invoke("sendMessage", "messenger");
        let err = pems.one_shot(&plan).unwrap_err();
        assert!(matches!(err, PemsError::Eval(_)));

        let health = pems.service_health();
        assert_eq!(health.len(), 1);
        let h = &health[0];
        assert_eq!(h.reference.as_str(), "email");
        assert_eq!(h.attempts, faulty.attempts());
        assert!(h.failures > 0);
        assert_ne!(h.status(), HealthStatus::Healthy);
        assert!(h.last_error.is_some());

        // Prometheus text: counters, histogram buckets, per-service series
        let text = pems.render_metrics();
        assert!(text.contains("# TYPE serena_op_applications_total counter"));
        assert!(text.contains("# TYPE serena_service_latency_ns histogram"));
        assert!(text.contains("serena_service_latency_ns_bucket"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("serena_service_failures_total{service=\"email\"}"));
        // the dedup series renders (zero-valued) from the start, so scrapes
        // and the shell's `.metrics` always expose it
        assert!(text.contains("# TYPE serena_beta_dedup_total counter"));

        // the flight recorder saw the failed invocations
        assert!(pems
            .flight_recorder()
            .snapshot()
            .iter()
            .any(|s| s.name == "beta.attempt" && s.attr_u64("ok") == Some(0)));
    }

    /// `profile` and `top` read the series they report and create none: a
    /// query nobody registered, or a health row restored from a checkpoint
    /// before its service's first call here, leaves every scrape as it was.
    #[test]
    fn introspection_creates_no_series() {
        let setup = || {
            let mut pems = crate::pems::tests::pems_with_messenger();
            pems.run_program(SETUP).unwrap();
            pems
        };
        let original = setup();
        let send = Plan::relation("contacts")
            .assign_const("text", Value::str("Hi"))
            .invoke("sendMessage", "messenger");
        original.one_shot(&send).unwrap();
        let mut restored = setup();
        restored.restore_bytes(&original.snapshot_bytes()).unwrap();
        let before = restored.render_metrics();
        assert!(!before.contains("serena_service_latency_ns"));

        assert!(restored
            .profile("no_such_query")
            .starts_with("no retained ticks"));
        let top = restored.top();
        assert!(top.contains("  email: "), "the restored health row: {top}");
        let after = restored.render_metrics();
        assert!(!after.contains("no_such_query"));
        assert!(!after.contains("serena_service_latency_ns"));
        assert_eq!(after, before);
    }
}
