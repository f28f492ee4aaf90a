//! The Query Processor (§5.1).
//!
//! "The Query Processor allows to register queries using the Serena
//! Algebra Language and to execute them in a real-time fashion." Here:
//! registered [`ContinuousQuery`]s advance in lock-step on a shared logical
//! clock; each global tick evaluates every query at the same instant
//! (§3.2's simultaneous-evaluation model). A round's query ticks are one
//! [`WorkerPool`] round: split in name order into at most
//! [`SchedulerConfig::workers`] contiguous runs, the first on the calling
//! thread — the reproduction of the prototype's *asynchronous invocation
//! handling*: slow service calls in one query do not serialize behind
//! another query's, and 120 queries do not mean 120 OS threads. Within a
//! query, β calls its services one tuple after another on the thread that
//! ticks it, so the round's width is the tick's whole concurrency.
//!
//! A panicking query tick is contained: the query fails *that tick* (an
//! [`EvalError::Panicked`] in its report, counted in
//! `serena_query_panics_total` and traced as a failure) while every other
//! query keeps running.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use serena_core::action::ActionSet;
use serena_core::error::EvalError;
use serena_core::metrics::{ExecStats, MetricsSink, Tee};
use serena_core::physical::ExecOptions;
use serena_core::service::Invoker;
use serena_core::snapshot::{Reader, SnapshotError, Writer};
use serena_core::telemetry::{
    Counter, FlightRecorder, Histogram, MetricsRegistry, TraceEvent, TraceSink,
};
use serena_core::time::Instant;
use serena_stream::exec::{ContinuousQuery, SourceSet, TickReport};
use serena_stream::plan::StreamPlan;
use serena_stream::Delta;

use crate::pems::PemsError;
use crate::scheduler::{SchedulerConfig, WorkerPool};

/// Aggregated statistics for one registered query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Ticks evaluated.
    pub ticks: u64,
    /// Total tuples inserted into the result (or emitted, for streams).
    pub inserted: u64,
    /// Total tuples deleted from the result.
    pub deleted: u64,
    /// Total actions (active invocations) triggered.
    pub actions: u64,
    /// Total invocation errors survived.
    pub errors: u64,
    /// Total live service invocations (β/βˢ) performed.
    pub invocations: u64,
    /// Total β-cache hits (re-inserted tuples served from cache).
    pub cache_hits: u64,
    /// Total β-cache misses (new tuples requiring a live invocation).
    pub cache_misses: u64,
}

/// Pre-resolved per-query telemetry series, all labelled `query=<name>`.
struct QuerySeries {
    ticks: Arc<Counter>,
    tuples: Arc<Counter>,
    errors: Arc<Counter>,
    tick_ns: Arc<Histogram>,
    lag_ns: Arc<Histogram>,
    miss_batch: Arc<Histogram>,
}

impl QuerySeries {
    fn new(registry: &MetricsRegistry, query: &str) -> Self {
        let labels: [(&str, &str); 1] = [("query", query)];
        QuerySeries {
            ticks: registry.counter("serena_query_ticks_total", &labels),
            tuples: registry.counter("serena_query_tuples_total", &labels),
            errors: registry.counter("serena_query_errors_total", &labels),
            tick_ns: registry.histogram("serena_query_tick_duration_ns", &labels),
            lag_ns: registry.histogram("serena_query_lag_ns", &labels),
            miss_batch: registry.histogram("serena_query_cache_miss_batch_size", &labels),
        }
    }
}

struct Telemetry {
    registry: Arc<MetricsRegistry>,
    /// `None`: nobody listens, so no [`TraceEvent`] is built.
    trace: Option<Arc<dyn TraceSink>>,
}

struct Registered {
    query: ContinuousQuery,
    stats: QueryStats,
    /// Rolling per-node statistics across all of the query's ticks.
    exec: ExecStats,
    /// Registry series for this query, when telemetry is attached.
    series: Option<QuerySeries>,
}

/// The continuous-query scheduler.
#[derive(Default)]
pub struct QueryProcessor {
    queries: BTreeMap<String, Registered>,
    clock: Instant,
    telemetry: Option<Telemetry>,
    scheduler: SchedulerConfig,
    /// Flight recorder for `sched.round`/`sched.job`/`query.tick` spans,
    /// propagated into every registered query and every round.
    tracer: Option<Arc<FlightRecorder>>,
}

impl QueryProcessor {
    /// Empty processor with the clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The instant the next global tick evaluates.
    pub fn clock(&self) -> Instant {
        self.clock
    }

    /// Replace the tick scheduler configuration; the next round runs on
    /// `config.workers` threads.
    pub fn set_scheduler(&mut self, config: SchedulerConfig) {
        self.scheduler = config;
    }

    /// The current scheduler configuration.
    pub fn scheduler(&self) -> SchedulerConfig {
        self.scheduler
    }

    /// Attach a flight recorder: tick rounds, per-worker jobs, query
    /// ticks and (through each query's executor) per-operator work all
    /// record hierarchical spans into it. Applies to already-registered
    /// queries and everything registered afterwards.
    pub fn set_tracer(&mut self, tracer: Arc<FlightRecorder>) {
        for reg in self.queries.values_mut() {
            reg.query.set_tracer(Some(Arc::clone(&tracer)));
        }
        self.tracer = Some(tracer);
    }

    /// Register a continuous query under `name`, compiling `plan` against
    /// `sources`. The query joins the global cadence: its first tick is the
    /// next global tick. A taken `name` is [`PemsError::DuplicateQuery`].
    pub fn register(
        &mut self,
        name: impl Into<String>,
        plan: &StreamPlan,
        sources: &mut SourceSet,
    ) -> Result<(), PemsError> {
        self.register_with_options(name, plan, sources, ExecOptions::default())
    }

    /// [`Self::register`] with explicit execution options: every tick of
    /// this query applies `options.degrade` to its failed β invocations.
    pub fn register_with_options(
        &mut self,
        name: impl Into<String>,
        plan: &StreamPlan,
        sources: &mut SourceSet,
        options: ExecOptions,
    ) -> Result<(), PemsError> {
        let name = name.into();
        if self.queries.contains_key(&name) {
            return Err(PemsError::DuplicateQuery(name));
        }
        let mut query = ContinuousQuery::compile_with_options(plan, sources, options)?;
        query.seek(self.clock);
        query.set_tracer(self.tracer.clone());
        let series = self.telemetry.as_ref().map(|t| {
            if let Some(trace) = &t.trace {
                trace.emit(&TraceEvent::QueryRegistered {
                    query: name.clone(),
                });
            }
            QuerySeries::new(&t.registry, &name)
        });
        self.queries.insert(
            name,
            Registered {
                query,
                stats: QueryStats::default(),
                exec: ExecStats::new(),
                series,
            },
        );
        self.update_registered_gauge();
        Ok(())
    }

    /// Attach continuous-query telemetry: per-query tick-duration,
    /// freshness-lag and cache-miss-batch histograms plus tick/tuple/error
    /// counters in `registry` (labelled `query=<name>`), and span-style
    /// [`TraceEvent`]s to `trace` when there is one. Applies to
    /// already-registered queries and everything registered afterwards.
    pub fn set_telemetry(
        &mut self,
        registry: Arc<MetricsRegistry>,
        trace: Option<Arc<dyn TraceSink>>,
    ) {
        for (name, reg) in &mut self.queries {
            reg.series = Some(QuerySeries::new(&registry, name));
        }
        self.telemetry = Some(Telemetry { registry, trace });
        self.update_registered_gauge();
    }

    fn update_registered_gauge(&self) {
        if let Some(t) = &self.telemetry {
            t.registry
                .gauge("serena_queries_registered", &[])
                .set(self.queries.len() as i64);
        }
    }

    /// Deregister a query. Returns whether it existed.
    ///
    /// All of the query's `query=<name>` telemetry series (counters,
    /// gauges, histograms — including `serena_query_panics_total`) are
    /// removed from the registry: a deregistered query must not leave
    /// series frozen at their last values in every future scrape.
    pub fn deregister(&mut self, name: &str) -> bool {
        let removed = self.queries.remove(name).is_some();
        if removed {
            if let Some(t) = &self.telemetry {
                t.registry.remove_matching("query", name);
            }
            self.update_registered_gauge();
        }
        removed
    }

    /// Registered query names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.queries.keys().map(|s| s.as_str()).collect()
    }

    /// Per-query statistics.
    pub fn stats(&self, name: &str) -> Option<&QueryStats> {
        self.queries.get(name).map(|r| &r.stats)
    }

    /// Rolling per-node statistics of a query (accumulated across all its
    /// ticks), keyed by the stream plan's pre-order node ids.
    pub fn exec_stats(&self, name: &str) -> Option<&ExecStats> {
        self.queries.get(name).map(|r| &r.exec)
    }

    /// Snapshot of a query's current finite result.
    pub fn current_relation(&self, name: &str) -> Option<serena_core::xrelation::XRelation> {
        self.queries.get(name)?.query.current_relation()
    }

    /// Align the global clock so the next tick evaluates `at` (and re-seek
    /// every registered query to match) — used by the PEMS builder to start
    /// a runtime at a nonzero instant.
    pub fn seek(&mut self, at: Instant) {
        self.clock = at;
        for reg in self.queries.values_mut() {
            reg.query.seek(at);
        }
    }

    /// Serialize the processor's dynamic state — the global clock plus,
    /// per registered query (in name order): executor state, aggregated
    /// [`QueryStats`] and rolling per-node [`ExecStats`]. Telemetry series
    /// are intentionally *not* captured: a restored processor keeps (or
    /// re-creates) its own registry series.
    pub fn write_snapshot(&self, w: &mut Writer) {
        w.u64(self.clock.ticks());
        w.usize(self.queries.len());
        for (name, reg) in &self.queries {
            w.str(name);
            reg.query.write_snapshot(w);
            let s = &reg.stats;
            w.u64(s.ticks)
                .u64(s.inserted)
                .u64(s.deleted)
                .u64(s.actions)
                .u64(s.errors)
                .u64(s.invocations)
                .u64(s.cache_hits)
                .u64(s.cache_misses);
            reg.exec.encode(w);
        }
    }

    /// Restore state written by [`Self::write_snapshot`]. The same queries
    /// (by name, with structurally identical plans) must already be
    /// registered — recovery re-runs the static setup, then rehydrates the
    /// dynamic state. Errors with [`SnapshotError::Mismatch`] when the
    /// registered query set disagrees with the snapshot.
    pub fn read_snapshot(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let clock = r.u64()?;
        let n = r.usize()?;
        if n != self.queries.len() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot holds {n} queries, {} registered",
                self.queries.len()
            )));
        }
        for (name, reg) in &mut self.queries {
            let stored = r.str()?;
            if stored != *name {
                return Err(SnapshotError::Mismatch(format!(
                    "snapshot query `{stored}` does not match registered `{name}`"
                )));
            }
            reg.query.read_snapshot(r)?;
            reg.stats = QueryStats {
                ticks: r.u64()?,
                inserted: r.u64()?,
                deleted: r.u64()?,
                actions: r.u64()?,
                errors: r.u64()?,
                invocations: r.u64()?,
                cache_hits: r.u64()?,
                cache_misses: r.u64()?,
            };
            reg.exec = ExecStats::decode(r)?;
        }
        self.clock = Instant(clock);
        Ok(())
    }

    /// Advance the global clock by one instant, ticking every registered
    /// query at that instant (as one [`WorkerPool`] round), duplicating
    /// every query's per-node observations into a shared `sink` as well
    /// (the PEMS-wide sink configured through the builder). Each query's
    /// rolling stats accumulate regardless.
    ///
    /// Reports come back in registration (name) order whichever thread ran
    /// each query, and a panicking query tick fails only that query (its
    /// report carries an [`EvalError::Panicked`]); the round and the clock
    /// survive.
    pub fn tick_all_with(
        &mut self,
        invoker: &dyn Invoker,
        sink: &dyn MetricsSink,
    ) -> Vec<(String, TickReport)> {
        // Freshness lag: every query in this round is *scheduled* now; a
        // query's lag is the wall-clock from here to its tick completing.
        let scheduled = std::time::Instant::now();
        let at = self.clock;
        let trace: Option<&dyn TraceSink> =
            self.telemetry.as_ref().and_then(|t| t.trace.as_deref());
        // Disjoint field borrow (`self.queries` is borrowed mutably
        // below); `Option<&FlightRecorder>` is `Copy`, so the tick
        // closures capture it by value.
        let tracer: Option<&FlightRecorder> = self.tracer.as_deref().filter(|r| r.armed());
        let n = self.queries.len();
        let mut round_span = tracer.and_then(|r| r.start("sched.round", at));
        if let Some(s) = round_span.as_mut() {
            s.attr_u64("queries", n as u64);
            s.attr_u64("workers", self.scheduler.workers.min(n).max(1) as u64);
        }
        // One query tick with its span bracket: span → contained tick →
        // outcome attributes. Returns the span id for the tick-duration
        // histogram's exemplar (0 = no span).
        let ticked = |name: &str, reg: &mut Registered| -> (Result<TickReport, String>, u64) {
            if let Some(trace) = trace {
                trace.emit(&TraceEvent::TickStart {
                    query: name.to_string(),
                    at,
                });
            }
            let mut tick_span = tracer.and_then(|r| r.start("query.tick", at));
            if let Some(s) = tick_span.as_mut() {
                s.attr_str("query", name);
            }
            let Registered { query, exec, .. } = reg;
            let result = {
                let _in_span = tick_span.as_ref().map(|s| s.enter());
                contain(|| query.tick_with(invoker, &Tee(&*exec, sink)))
            };
            if let Some(s) = tick_span.as_mut() {
                match &result {
                    Ok(r) => {
                        s.attr_u64("inserted", (r.delta.inserts.len() + r.batch.len()) as u64);
                        s.attr_u64("deleted", r.delta.deletes.len() as u64);
                        s.attr_u64("errors", r.errors.len() as u64);
                    }
                    Err(_) => s.attr_u64("panicked", 1),
                }
            }
            let sid = tick_span.as_ref().map_or(0, |s| s.id());
            (result, sid)
        };
        type Outcome = (String, Result<TickReport, String>, Duration, u64);
        let mut slots: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
        {
            // Entered during submission so each job captures the round
            // span as its parent (`sched.job` spans bridge the thread
            // hop); the guard outlives the round, so job and tick spans
            // all close inside the round's interval.
            let _in_round = round_span.as_ref().map(|s| s.enter());
            WorkerPool::with_tracer(self.scheduler, self.tracer.clone()).scope(|scope| {
                for (slot, (name, reg)) in slots.iter_mut().zip(self.queries.iter_mut()) {
                    let name = name.clone();
                    let ticked = &ticked;
                    scope.submit(move || {
                        let (result, sid) = ticked(&name, reg);
                        *slot = Some((name, result, scheduled.elapsed(), sid));
                    });
                }
            });
        }
        drop(round_span);
        // scope() returned ⇒ every job ran (even panicking ones are
        // contained inside the job), so every slot is filled.
        let reports: Vec<(String, TickReport, Duration, u64)> = slots
            .into_iter()
            .flatten()
            .map(|(name, result, lag, sid)| match result {
                Ok(report) => (name, report, lag, sid),
                Err(reason) => {
                    // The query's tick panicked (e.g. inside a stream
                    // closure, outside the β containment layer): fail this
                    // query for this instant with an empty delta and a
                    // Panicked error; its clock already advanced, so it
                    // stays in lock-step for the next round.
                    if let Some(t) = &self.telemetry {
                        t.registry
                            .counter("serena_query_panics_total", &[("query", &name)])
                            .inc();
                    }
                    let report = TickReport {
                        at,
                        delta: Delta::new(),
                        batch: Vec::new(),
                        actions: ActionSet::new(),
                        errors: vec![EvalError::Panicked {
                            service: format!("query:{name}"),
                            prototype: "tick".to_string(),
                            reason,
                        }],
                        stats: ExecStats::new(),
                        elapsed: lag,
                    };
                    (name, report, lag, sid)
                }
            })
            .collect();
        for (name, report, lag, sid) in &reports {
            let reg = self.queries.get_mut(name).expect("registered");
            let inserted = (report.delta.inserts.len() + report.batch.len()) as u64;
            let deleted = report.delta.deletes.len() as u64;
            reg.stats.ticks += 1;
            reg.stats.inserted += inserted;
            reg.stats.deleted += deleted;
            reg.stats.actions += report.actions.len() as u64;
            reg.stats.errors += report.errors.len() as u64;
            reg.stats.invocations += report.stats.total_invocations();
            reg.stats.cache_hits += report.stats.total_cache_hits();
            reg.stats.cache_misses += report.stats.total_cache_misses();
            if let Some(series) = &reg.series {
                series.ticks.inc();
                series.tuples.add(inserted);
                series.errors.add(report.errors.len() as u64);
                // exemplar: the p99 tick links straight to its span tree
                series.tick_ns.record_with_exemplar(
                    u128::min(report.elapsed.as_nanos(), u64::MAX as u128) as u64,
                    *sid,
                );
                series.lag_ns.record_duration(*lag);
                // only live β batches are meaningful batch-size samples
                let misses = report.stats.total_cache_misses();
                if misses > 0 {
                    series.miss_batch.record(misses);
                }
            }
            if let Some(trace) = trace {
                trace.emit(&TraceEvent::TickEnd {
                    query: name.clone(),
                    at: report.at,
                    duration_ns: u128::min(report.elapsed.as_nanos(), u64::MAX as u128) as u64,
                    inserted,
                    deleted,
                    errors: report.errors.len() as u64,
                });
                for e in &report.errors {
                    trace.emit(&TraceEvent::Failure {
                        scope: name.clone(),
                        at: report.at,
                        message: e.to_string(),
                    });
                }
            }
        }
        self.clock = self.clock.next();
        reports
            .into_iter()
            .map(|(name, report, _, _)| (name, report))
            .collect()
    }
}

/// Run one query tick with panic containment: a panic unwinding out of
/// the executor becomes an `Err(reason)`, which the round turns into the
/// query's failed report. The query's operator state
/// after a panicked tick is whatever the unwind left behind — same
/// contract as a contained β panic — but its clock advanced first, so
/// lock-step is preserved.
fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            "<non-string panic>".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::formula::Formula;
    use serena_core::metrics::NoopMetrics;
    use serena_core::schema::XSchema;
    use serena_core::service::fixtures::example_registry;
    use serena_core::tuple;
    use serena_core::value::DataType;
    use serena_stream::source::TableHandle;

    fn int_table() -> (TableHandle, SourceSet) {
        let schema = XSchema::builder().real("x", DataType::Int).build().unwrap();
        let table = TableHandle::new(schema);
        let mut sources = SourceSet::new();
        sources.add_table("t", table.clone());
        (table, sources)
    }

    #[test]
    fn lockstep_ticking_and_stats() {
        let mut qp = QueryProcessor::new();
        let (table, mut s1) = int_table();
        qp.register("all", &StreamPlan::source("t"), &mut s1)
            .unwrap();
        let mut s2 = SourceSet::new();
        s2.add_table("t", table.clone());
        qp.register(
            "big",
            &StreamPlan::source("t").select(Formula::gt_const("x", 10)),
            &mut s2,
        )
        .unwrap();

        let reg = example_registry();
        table.insert(tuple![5]);
        table.insert(tuple![20]);
        let reports = qp.tick_all_with(&reg, &NoopMetrics);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].0, "all");
        assert_eq!(reports[0].1.delta.inserts.len(), 2);
        assert_eq!(reports[1].1.delta.inserts.len(), 1);
        assert_eq!(qp.stats("all").unwrap().inserted, 2);
        assert_eq!(qp.stats("big").unwrap().inserted, 1);
        assert_eq!(qp.clock(), Instant(1));
    }

    #[test]
    fn late_registration_bootstraps_from_current_state() {
        let mut qp = QueryProcessor::new();
        let (table, mut s1) = int_table();
        qp.register("first", &StreamPlan::source("t"), &mut s1)
            .unwrap();
        let reg = example_registry();
        table.insert(tuple![1]);
        qp.tick_all_with(&reg, &NoopMetrics);
        qp.tick_all_with(&reg, &NoopMetrics);
        // register a second query mid-run: it must see the existing tuple
        let mut s2 = SourceSet::new();
        s2.add_table("t", table.clone());
        qp.register("late", &StreamPlan::source("t"), &mut s2)
            .unwrap();
        let reports = qp.tick_all_with(&reg, &NoopMetrics);
        let late = reports.iter().find(|(n, _)| n == "late").unwrap();
        assert_eq!(late.1.delta.inserts.len(), 1);
        assert_eq!(
            qp.current_relation("late").unwrap().len(),
            qp.current_relation("first").unwrap().len()
        );
    }

    #[test]
    fn duplicate_names_rejected_and_deregister() {
        let mut qp = QueryProcessor::new();
        let (_, mut s1) = int_table();
        qp.register("q", &StreamPlan::source("t"), &mut s1).unwrap();
        let (_, mut s2) = int_table();
        assert!(matches!(
            qp.register("q", &StreamPlan::source("t"), &mut s2),
            Err(PemsError::DuplicateQuery(name)) if name == "q"
        ));
        assert!(qp.deregister("q"));
        assert!(!qp.deregister("q"));
        assert!(qp.names().is_empty());
    }

    #[test]
    fn rolling_stats_accumulate_beta_counters() {
        use serena_core::value::Value;
        let mut qp = QueryProcessor::new();
        let table = TableHandle::new(serena_core::schema::examples::sensors_schema());
        let mut sources = SourceSet::new();
        sources.add_table("sensors", table.clone());
        qp.register(
            "temps",
            &StreamPlan::source("sensors").invoke("getTemperature", "sensor"),
            &mut sources,
        )
        .unwrap();
        let reg = example_registry();

        table.insert(tuple![Value::service("sensor01"), "corridor"]);
        qp.tick_all_with(&reg, &NoopMetrics); // miss
        qp.tick_all_with(&reg, &NoopMetrics); // quiet
        table.insert(tuple![Value::service("sensor01"), "corridor"]);
        qp.tick_all_with(&reg, &NoopMetrics); // hit (still cached)
        table.insert(tuple![Value::service("sensor06"), "office"]);
        qp.tick_all_with(&reg, &NoopMetrics); // miss

        let stats = qp.stats("temps").unwrap();
        assert_eq!(stats.ticks, 4);
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.cache_hits, 1);

        // the rolling per-node view agrees: node 0 is the β root
        let exec = qp.exec_stats("temps").unwrap();
        let beta = exec.node(serena_core::metrics::NodeId(0)).unwrap();
        assert_eq!(beta.applications, 4);
        assert_eq!(beta.invocations, 2);
        assert_eq!(beta.cache_hits, 1);
    }

    #[test]
    fn telemetry_series_and_trace_events() {
        use serena_core::telemetry::MemoryTrace;
        let mut qp = QueryProcessor::new();
        let registry = Arc::new(MetricsRegistry::new());
        let trace = Arc::new(MemoryTrace::new());
        // one query registered before telemetry attaches, one after — both
        // must get series
        let (table, mut s1) = int_table();
        qp.register("early", &StreamPlan::source("t"), &mut s1)
            .unwrap();
        qp.set_telemetry(registry.clone(), Some(trace.clone()));
        let mut s2 = SourceSet::new();
        s2.add_table("t", table.clone());
        qp.register("late", &StreamPlan::source("t"), &mut s2)
            .unwrap();

        let reg = example_registry();
        table.insert(tuple![1]);
        qp.tick_all_with(&reg, &NoopMetrics);
        qp.tick_all_with(&reg, &NoopMetrics);

        for query in ["early", "late"] {
            let q = [("query", query)];
            assert_eq!(
                registry.counter_value("serena_query_ticks_total", &q),
                Some(2),
                "{query}"
            );
            assert_eq!(
                registry.counter_value("serena_query_tuples_total", &q),
                Some(1),
                "{query}"
            );
            assert_eq!(
                registry
                    .histogram("serena_query_tick_duration_ns", &q)
                    .count(),
                2
            );
            assert_eq!(registry.histogram("serena_query_lag_ns", &q).count(), 2);
        }
        assert_eq!(registry.gauge("serena_queries_registered", &[]).get(), 2);

        let events = trace.events();
        assert!(
            matches!(&events[0], TraceEvent::QueryRegistered { query } if query == "late"),
            "{events:?}"
        );
        let starts = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::TickStart { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::TickEnd { .. }))
            .count();
        assert_eq!((starts, ends), (4, 4));

        qp.deregister("late");
        assert_eq!(registry.gauge("serena_queries_registered", &[]).get(), 1);
        // ISSUE 8 satellite: deregistration retires the query's series —
        // no stale `query="late"` gauges/counters/histograms linger in
        // the registry or its rendered exposition
        let late = [("query", "late")];
        assert_eq!(
            registry.counter_value("serena_query_ticks_total", &late),
            None
        );
        assert!(!registry.render_prometheus().contains("query=\"late\""));
        // the surviving query's series are untouched
        assert_eq!(
            registry.counter_value("serena_query_ticks_total", &[("query", "early")]),
            Some(2)
        );
    }

    #[test]
    fn snapshot_round_trips_clock_queries_and_stats() {
        let reg = example_registry();
        let build = |table: &TableHandle| {
            let mut qp = QueryProcessor::new();
            let mut s = SourceSet::new();
            s.add_table("t", table.clone());
            qp.register(
                "big",
                &StreamPlan::source("t").select(Formula::gt_const("x", 10)),
                &mut s,
            )
            .unwrap();
            qp
        };

        let (table, _) = int_table();
        let mut qp = build(&table);
        table.insert(tuple![20]);
        qp.tick_all_with(&reg, &NoopMetrics);
        qp.tick_all_with(&reg, &NoopMetrics);

        let mut w = Writer::new();
        qp.write_snapshot(&mut w);
        let mut tw = Writer::new();
        table.export_state(&mut tw);
        let (qbytes, tbytes) = (w.into_bytes(), tw.into_bytes());

        // fresh runtime: static setup re-run, dynamic state rehydrated
        let table2 = TableHandle::new(table.schema());
        let mut qp2 = build(&table2);
        table2
            .import_state(&mut Reader::new(&tbytes))
            .expect("table state");
        qp2.read_snapshot(&mut Reader::new(&qbytes))
            .expect("processor state");

        assert_eq!(qp2.clock(), Instant(2));
        assert_eq!(qp2.stats("big"), qp.stats("big"));
        assert_eq!(
            qp2.current_relation("big").unwrap(),
            qp.current_relation("big").unwrap()
        );
        // both resume in lock-step: delete the tuple, identical retraction
        table.delete(tuple![20]);
        table2.delete(tuple![20]);
        let a = qp.tick_all_with(&reg, &NoopMetrics);
        let b = qp2.tick_all_with(&reg, &NoopMetrics);
        assert_eq!(a[0].1.delta, b[0].1.delta);

        // a mismatched query set is a typed error, not a crash
        let (t3, mut s3) = int_table();
        let mut other = QueryProcessor::new();
        other
            .register("different", &StreamPlan::source("t"), &mut s3)
            .unwrap();
        let _ = t3;
        let err = other.read_snapshot(&mut Reader::new(&qbytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    }

    #[test]
    fn a_panicking_query_tick_fails_only_that_query() {
        use serena_core::telemetry::MemoryTrace;
        use serena_stream::source::FnStream;
        for workers in [1, 4] {
            let mut qp = QueryProcessor::new();
            qp.set_scheduler(SchedulerConfig::new(workers));
            let registry = Arc::new(MetricsRegistry::new());
            qp.set_telemetry(registry.clone(), Some(Arc::new(MemoryTrace::new())));
            let (table, mut s1) = int_table();
            qp.register("healthy", &StreamPlan::source("t"), &mut s1)
                .unwrap();
            let schema = XSchema::builder().real("x", DataType::Int).build().unwrap();
            let mut s2 = SourceSet::new();
            s2.add_stream(
                "s",
                schema,
                Box::new(FnStream(|at: Instant| {
                    if at >= Instant(1) {
                        panic!("stream source exploded at {at:?}");
                    }
                    vec![tuple![7]]
                })),
            );
            qp.register("doomed", &StreamPlan::source("s"), &mut s2)
                .unwrap();

            let reg = example_registry();
            table.insert(tuple![1]);
            let first = qp.tick_all_with(&reg, &NoopMetrics);
            assert!(first.iter().all(|(_, r)| r.errors.is_empty()), "{workers}");

            table.insert(tuple![2]);
            let second = qp.tick_all_with(&reg, &NoopMetrics);
            // name order preserved, healthy query unaffected
            assert_eq!(second[0].0, "doomed");
            assert_eq!(second[1].0, "healthy");
            assert_eq!(second[1].1.delta.inserts.len(), 1);
            assert!(second[1].1.errors.is_empty());
            // the doomed query failed *this tick* with a Panicked error
            let doomed = &second[0].1;
            assert!(doomed.delta.inserts.is_empty() && doomed.batch.is_empty());
            assert!(
                matches!(
                    &doomed.errors[..],
                    [EvalError::Panicked { service, reason, .. }]
                        if service == "query:doomed" && reason.contains("exploded")
                ),
                "workers={workers}: {:?}",
                doomed.errors
            );
            assert_eq!(
                registry.counter_value("serena_query_panics_total", &[("query", "doomed")]),
                Some(1),
                "workers={workers}"
            );
            // the engine keeps ticking: clock advanced, next round runs
            assert_eq!(qp.clock(), Instant(2));
            table.insert(tuple![3]);
            let third = qp.tick_all_with(&reg, &NoopMetrics);
            assert_eq!(third[1].1.delta.inserts.len(), 1, "next round ran");
            assert_eq!(qp.stats("doomed").unwrap().errors, 2);
            assert_eq!(qp.stats("healthy").unwrap().errors, 0);
        }
    }

    #[test]
    fn worker_counts_do_not_change_results() {
        let run = |workers: usize| {
            let mut qp = QueryProcessor::new();
            qp.set_scheduler(SchedulerConfig::new(workers));
            let (table, _) = int_table();
            for i in 0..6 {
                let mut s = SourceSet::new();
                s.add_table("t", table.clone());
                qp.register(
                    format!("q{i}"),
                    &StreamPlan::source("t").select(Formula::gt_const("x", i)),
                    &mut s,
                )
                .unwrap();
            }
            let reg = example_registry();
            let mut all = Vec::new();
            for v in 0..12 {
                table.insert(tuple![v]);
                for (name, r) in qp.tick_all_with(&reg, &NoopMetrics) {
                    all.push((name, r.at, r.delta));
                }
            }
            all
        };
        let serial = run(1);
        assert_eq!(serial, run(2), "workers=2 diverged");
        assert_eq!(serial, run(8), "workers=8 diverged");
    }

    #[test]
    fn many_parallel_queries_agree() {
        let mut qp = QueryProcessor::new();
        let (table, _) = int_table();
        for i in 0..8 {
            let mut s = SourceSet::new();
            s.add_table("t", table.clone());
            qp.register(format!("q{i}"), &StreamPlan::source("t"), &mut s)
                .unwrap();
        }
        let reg = example_registry();
        for v in 0..10 {
            table.insert(tuple![v]);
            let reports = qp.tick_all_with(&reg, &NoopMetrics);
            let sizes: Vec<usize> = reports.iter().map(|(_, r)| r.delta.inserts.len()).collect();
            assert!(
                sizes.iter().all(|&s| s == sizes[0]),
                "queries disagree: {sizes:?}"
            );
        }
        for i in 0..8 {
            assert_eq!(qp.stats(&format!("q{i}")).unwrap().inserted, 10);
        }
    }
}
