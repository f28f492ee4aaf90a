//! The Query Processor (§5.1).
//!
//! "The Query Processor allows to register queries using the Serena
//! Algebra Language and to execute them in a real-time fashion." Here:
//! registered [`ContinuousQuery`]s advance in lock-step on a shared logical
//! clock; each global tick evaluates every query at the same instant
//! (§3.2's simultaneous-evaluation model). A round's query ticks are one
//! [`WorkerPool`] round: split in name order into at most
//! [`SchedulerConfig::workers`] contiguous runs of about equal cost, each
//! query weighing its own previous tick, the first run on the calling
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
//!
//! Before the round, the processor ticks its *derived streams*
//! ([`crate::pems::Pems::define_stream_as`]): continuous plans whose output
//! batch is pushed into a stream's hub, so the queries of the round read it
//! at the same instant. They tick in definition order, on the calling
//! thread, and only while a live subscription reads the stream.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use serena_core::action::ActionSet;
use serena_core::error::EvalError;
use serena_core::metrics::{ExecStats, MetricsSink};
use serena_core::physical::ExecOptions;
use serena_core::service::Invoker;
use serena_core::snapshot::{Reader, SnapshotError, Writer};
use serena_core::telemetry::{Counter, FlightRecorder, Histogram, MetricsRegistry};
use serena_core::time::Instant;
use serena_stream::exec::{ContinuousQuery, SourceSet, TickReport};
use serena_stream::plan::StreamPlan;
use serena_stream::source::StreamHub;
use serena_stream::Delta;

use crate::pems::PemsError;
use crate::recovery::{read_count, read_named};
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
        }
    }
}

struct Registered {
    query: ContinuousQuery,
    stats: QueryStats,
    series: QuerySeries,
    /// Its last tick in ns, its weight in the next round (not checkpointed).
    tick_ns: Option<u64>,
}

/// A stream defined by a continuous plan: what it pushes into `hub` at an
/// instant is the batch its query emits there.
struct Derived {
    stream: String,
    query: ContinuousQuery,
    hub: StreamHub,
}

/// The continuous-query scheduler.
pub struct QueryProcessor {
    queries: BTreeMap<String, Registered>,
    /// Derived streams, in definition order.
    derived: Vec<Derived>,
    clock: Instant,
    telemetry: Arc<MetricsRegistry>,
    scheduler: SchedulerConfig,
    /// Flight recorder for `query.register`/`sched.round`/`sched.job`/
    /// `query.tick` spans, propagated into every registered query and
    /// every round.
    tracer: Arc<FlightRecorder>,
}

impl QueryProcessor {
    /// Empty processor with the clock at zero, ticking rounds on
    /// `scheduler`'s workers. Every query it registers gets per-query
    /// tick-duration and freshness-lag histograms plus tick/tuple/error
    /// counters in `registry` (labelled `query=<name>`), and records its
    /// ticks and per-operator work as spans in `tracer`, beside the
    /// rounds' and jobs' spans.
    pub fn new(
        registry: Arc<MetricsRegistry>,
        tracer: Arc<FlightRecorder>,
        scheduler: SchedulerConfig,
    ) -> Self {
        let processor = QueryProcessor {
            queries: BTreeMap::new(),
            derived: Vec::new(),
            clock: Instant::ZERO,
            telemetry: registry,
            scheduler,
            tracer,
        };
        processor.update_registered_gauge();
        processor
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

    /// Register a continuous query under `name`, compiling `plan` against
    /// `sources`; every tick of it applies `options.degrade` to its failed
    /// β invocations. The query joins the global cadence: its first tick is
    /// the next global tick. A taken `name` is
    /// [`PemsError::DuplicateQuery`].
    pub fn register(
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
        query.set_tracer(Some(Arc::clone(&self.tracer)));
        if let Some(mut span) = self.tracer.start("query.register", self.clock) {
            span.attr_str("query", name.as_str());
        }
        let series = QuerySeries::new(&self.telemetry, &name);
        self.queries.insert(
            name,
            Registered {
                query,
                stats: QueryStats::default(),
                series,
                tick_ns: None,
            },
        );
        self.update_registered_gauge();
        Ok(())
    }

    fn update_registered_gauge(&self) {
        self.telemetry
            .gauge("serena_queries_registered", &[])
            .set(self.queries.len() as i64);
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
            self.telemetry.remove_matching("query", name);
            self.update_registered_gauge();
        }
        removed
    }

    /// Feed `hub` with `query`'s output from the next tick on: stream
    /// `stream`'s definition, checkpointed with the queries.
    pub(crate) fn define_stream(&mut self, stream: String, query: ContinuousQuery, hub: StreamHub) {
        self.derived.push(Derived { stream, query, hub });
    }

    /// Tick, at the clock, every derived stream a live subscription reads,
    /// in definition order, pushing each one's batch into its hub. A stream
    /// nobody reads is not ticked; when one is read again it resumes at
    /// the clock. A tick that panics pushes nothing: the stream's name and
    /// the reason are returned.
    pub(crate) fn tick_streams(
        &mut self,
        invoker: &dyn Invoker,
        sink: &dyn MetricsSink,
    ) -> Vec<(String, String)> {
        let mut panicked = Vec::new();
        for derived in self.derived.iter_mut().filter(|d| d.hub.is_read()) {
            derived.query.seek(self.clock);
            match contain(|| derived.query.tick_with(invoker, sink)) {
                Ok(report) => report.batch.into_iter().for_each(|t| derived.hub.push(t)),
                Err(reason) => panicked.push((derived.stream.clone(), reason)),
            }
        }
        panicked
    }

    /// Registered query names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.queries.keys().map(|s| s.as_str()).collect()
    }

    /// Per-query statistics.
    pub fn stats(&self, name: &str) -> Option<&QueryStats> {
        self.queries.get(name).map(|r| &r.stats)
    }

    /// Snapshot of a query's current finite result.
    pub fn current_relation(&self, name: &str) -> Option<serena_core::xrelation::XRelation> {
        self.queries.get(name)?.query.current_relation()
    }

    /// Serialize the processor's dynamic state — the global clock, the
    /// count of queries and derived streams, then per registered query (in
    /// name order) its name, executor state and aggregated [`QueryStats`],
    /// and per derived stream (in definition order) its name and executor
    /// state. Per-node observations and telemetry series are intentionally
    /// *not* captured: they hold wall-clock self-times, and a restored
    /// processor keeps (or re-creates) its own registry series.
    pub fn write_snapshot(&self, w: &mut Writer) {
        w.u64(self.clock.ticks());
        w.usize(self.queries.len() + self.derived.len());
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
        }
        for derived in &self.derived {
            w.str(&derived.stream);
            derived.query.write_snapshot(w);
        }
    }

    /// Restore state written by [`Self::write_snapshot`]. The same queries
    /// and derived streams (by name, with structurally identical plans)
    /// must already be defined — recovery re-runs the static setup, then
    /// rehydrates the dynamic state. Errors with [`SnapshotError::Mismatch`]
    /// when the defined set disagrees with the snapshot.
    pub fn read_snapshot(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let clock = r.u64()?;
        let defined = self.queries.len() + self.derived.len();
        read_count(r, "queries and derived streams", defined)?;
        let queries = self.queries.iter_mut();
        let queries = queries.map(|(name, reg)| (name.as_str(), reg));
        read_named(r, "query", queries, |reg, r| {
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
            Ok(())
        })?;
        let derived = self.derived.iter_mut();
        let derived = derived.map(|d| (d.stream.as_str(), &mut d.query));
        read_named(r, "stream", derived, ContinuousQuery::read_snapshot)?;
        self.clock = Instant(clock);
        Ok(())
    }

    /// Advance the global clock by one instant, ticking every registered
    /// query at that instant (as one [`WorkerPool`] round). Every query's
    /// per-node observations go to its report's [`TickReport::stats`] and
    /// to `sink` (the runtime's registry sink, when `Pems` ticks).
    ///
    /// The round is cut by cost: a query weighs its previous tick's
    /// [`TickReport::elapsed`], one that has not ticked the mean of those
    /// that have (or 1). Which thread ticks which query may change; no
    /// output does.
    ///
    /// Reports come back in registration (name) order whichever thread ran
    /// each query, and a panicking query tick fails only that query (its
    /// report carries an [`EvalError::Panicked`], and its `elapsed` is the
    /// time its job ran); the round and the clock survive.
    pub fn tick_all_with(
        &mut self,
        invoker: &dyn Invoker,
        sink: &dyn MetricsSink,
    ) -> Vec<(String, TickReport)> {
        // Freshness lag: every query in this round is *scheduled* now; a
        // query's lag is the wall-clock from here to its tick completing.
        let scheduled = std::time::Instant::now();
        let at = self.clock;
        // Disjoint field borrow (`self.queries` is borrowed mutably
        // below); the tick closures capture the reference by value.
        let tracer: &FlightRecorder = &self.tracer;
        let n = self.queries.len();
        let mut round_span = tracer.start("sched.round", at);
        if let Some(s) = round_span.as_mut() {
            s.attr_u64("queries", n as u64);
            s.attr_u64("workers", self.scheduler.workers.min(n).max(1) as u64);
        }
        // One query tick with its span bracket: span → contained tick →
        // outcome attributes. Returns the span id for the tick-duration
        // histogram's exemplar (0 = no span).
        let ticked = |name: &str, reg: &mut Registered| -> (Result<TickReport, String>, u64) {
            let mut tick_span = tracer.start("query.tick", at);
            if let Some(s) = tick_span.as_mut() {
                s.attr_str("query", name);
            }
            let result = {
                let _in_span = tick_span.as_ref().map(|s| s.enter());
                contain(|| reg.query.tick_with(invoker, sink))
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
        let last = self.queries.values().filter_map(|reg| reg.tick_ns);
        let (sum, count) = last.fold((0, 0), |(sum, n), ns| (sum + u128::from(ns), n + 1));
        let unticked = u128::checked_div(sum, count).map_or(1, |mean| mean as u64);
        type Outcome = (String, Result<TickReport, String>, Duration, Duration, u64);
        let mut slots: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
        {
            // Entered during submission so each job captures the round
            // span as its parent (`sched.job` spans bridge the thread
            // hop); the guard outlives the round, so job and tick spans
            // all close inside the round's interval.
            let _in_round = round_span.as_ref().map(|s| s.enter());
            let pool = WorkerPool::with_tracer(self.scheduler, Some(Arc::clone(&self.tracer)), at);
            pool.scope(|scope| {
                for (slot, (name, reg)) in slots.iter_mut().zip(self.queries.iter_mut()) {
                    let name = name.clone();
                    let ticked = &ticked;
                    scope.submit_weighted(reg.tick_ns.unwrap_or(unticked), move || {
                        let started = std::time::Instant::now();
                        let (result, sid) = ticked(&name, reg);
                        *slot = Some((name, result, started.elapsed(), scheduled.elapsed(), sid));
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
            .map(|(name, result, ran, lag, sid)| match result {
                Ok(report) => (name, report, lag, sid),
                Err(reason) => {
                    // The query's tick panicked (e.g. inside a stream
                    // closure, outside the β containment layer): fail this
                    // query for this instant with an empty delta and a
                    // Panicked error; its clock already advanced, so it
                    // stays in lock-step for the next round.
                    self.telemetry
                        .counter("serena_query_panics_total", &[("query", &name)])
                        .inc();
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
                        elapsed: ran,
                    };
                    (name, report, lag, sid)
                }
            })
            .collect();
        for (name, report, lag, sid) in &reports {
            let reg = self.queries.get_mut(name).expect("registered");
            let elapsed_ns = u128::min(report.elapsed.as_nanos(), u64::MAX as u128) as u64;
            reg.tick_ns = Some(elapsed_ns);
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
            let series = &reg.series;
            series.ticks.inc();
            series.tuples.add(inserted);
            series.errors.add(report.errors.len() as u64);
            // exemplar: the p99 tick links straight to its span tree
            series.tick_ns.record_with_exemplar(elapsed_ns, *sid);
            series.lag_ns.record_duration(*lag);
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
    use serena_core::prototype::Prototype;
    use serena_core::schema::XSchema;
    use serena_core::service::fixtures::example_registry;
    use serena_core::service::StaticRegistry;
    use serena_core::tuple;
    use serena_core::tuple::Tuple;
    use serena_core::value::{DataType, ServiceRef, Value};
    use serena_stream::source::TableHandle;

    /// A processor with a registry and a recorder of its own.
    fn processor(scheduler: SchedulerConfig) -> QueryProcessor {
        QueryProcessor::new(Arc::default(), Arc::default(), scheduler)
    }

    fn int_table() -> (TableHandle, SourceSet) {
        let schema = XSchema::builder().real("x", DataType::Int).build().unwrap();
        let table = TableHandle::new(schema);
        let mut sources = SourceSet::new();
        sources.add_table("t", table.clone());
        (table, sources)
    }

    #[test]
    fn lockstep_ticking_and_stats() {
        let mut qp = processor(SchedulerConfig::default());
        let (table, mut s1) = int_table();
        qp.register(
            "all",
            &StreamPlan::source("t"),
            &mut s1,
            ExecOptions::default(),
        )
        .unwrap();
        let mut s2 = SourceSet::new();
        s2.add_table("t", table.clone());
        qp.register(
            "big",
            &StreamPlan::source("t").select(Formula::gt_const("x", 10)),
            &mut s2,
            ExecOptions::default(),
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
        let mut qp = processor(SchedulerConfig::default());
        let (table, mut s1) = int_table();
        qp.register(
            "first",
            &StreamPlan::source("t"),
            &mut s1,
            ExecOptions::default(),
        )
        .unwrap();
        let reg = example_registry();
        table.insert(tuple![1]);
        qp.tick_all_with(&reg, &NoopMetrics);
        qp.tick_all_with(&reg, &NoopMetrics);
        // register a second query mid-run: it must see the existing tuple
        let mut s2 = SourceSet::new();
        s2.add_table("t", table.clone());
        qp.register(
            "late",
            &StreamPlan::source("t"),
            &mut s2,
            ExecOptions::default(),
        )
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
        let mut qp = processor(SchedulerConfig::default());
        let (_, mut s1) = int_table();
        qp.register(
            "q",
            &StreamPlan::source("t"),
            &mut s1,
            ExecOptions::default(),
        )
        .unwrap();
        let (_, mut s2) = int_table();
        assert!(matches!(
            qp.register("q", &StreamPlan::source("t"), &mut s2, ExecOptions::default()),
            Err(PemsError::DuplicateQuery(name)) if name == "q"
        ));
        assert!(qp.deregister("q"));
        assert!(!qp.deregister("q"));
        assert!(qp.names().is_empty());
    }

    #[test]
    fn rolling_stats_accumulate_beta_counters() {
        let mut qp = processor(SchedulerConfig::default());
        let table = TableHandle::new(serena_core::schema::examples::sensors_schema());
        let mut sources = SourceSet::new();
        sources.add_table("sensors", table.clone());
        qp.register(
            "temps",
            &StreamPlan::source("sensors").invoke("getTemperature", "sensor"),
            &mut sources,
            ExecOptions::default(),
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
    }

    #[test]
    fn telemetry_series_and_spans() {
        let registry = Arc::new(MetricsRegistry::new());
        let recorder = Arc::new(FlightRecorder::default());
        let mut qp = QueryProcessor::new(
            registry.clone(),
            Arc::clone(&recorder),
            SchedulerConfig::default(),
        );
        let (table, mut s1) = int_table();
        qp.register(
            "early",
            &StreamPlan::source("t"),
            &mut s1,
            ExecOptions::default(),
        )
        .unwrap();
        let mut s2 = SourceSet::new();
        s2.add_table("t", table.clone());
        qp.register(
            "late",
            &StreamPlan::source("t"),
            &mut s2,
            ExecOptions::default(),
        )
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

        let spans = recorder.snapshot();
        let registered: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "query.register")
            .map(|s| s.attr_str("query"))
            .collect();
        assert_eq!(registered, [Some("early"), Some("late")]);
        let ticks = spans.iter().filter(|s| s.name == "query.tick");
        assert_eq!(ticks.clone().count(), 4);
        assert!(ticks.clone().all(|s| s.attr_u64("errors") == Some(0)));
        assert_eq!(
            ticks.map(|s| s.attr_u64("inserted").unwrap()).sum::<u64>(),
            2
        );

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
            let mut qp = processor(SchedulerConfig::default());
            let mut s = SourceSet::new();
            s.add_table("t", table.clone());
            qp.register(
                "big",
                &StreamPlan::source("t").select(Formula::gt_const("x", 10)),
                &mut s,
                ExecOptions::default(),
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
        let mut other = processor(SchedulerConfig::default());
        other
            .register(
                "different",
                &StreamPlan::source("t"),
                &mut s3,
                ExecOptions::default(),
            )
            .unwrap();
        let _ = t3;
        let err = other.read_snapshot(&mut Reader::new(&qbytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    }

    /// A registry's services called one by one with nothing around them:
    /// unlike the default [`Invoker::invoke_all`], no call is contained, so
    /// a service that panics unwinds through the tick of the query calling
    /// it.
    struct Uncontained(StaticRegistry);

    impl Invoker for Uncontained {
        fn invoke(
            &self,
            prototype: &Prototype,
            service_ref: &ServiceRef,
            input: &Tuple,
            at: Instant,
        ) -> Result<Vec<Tuple>, EvalError> {
            self.0.invoke(prototype, service_ref, input, at)
        }

        fn invoke_all(
            &self,
            prototype: &Prototype,
            calls: &[(ServiceRef, Tuple)],
            at: Instant,
        ) -> Vec<Result<Vec<Tuple>, EvalError>> {
            let call = |(service, input): &(_, _)| self.invoke(prototype, service, input, at);
            calls.iter().map(call).collect()
        }

        fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
            self.0.providers_of(prototype)
        }
    }

    /// `βˢ getTemperature[sensor] every 1` over a `sensors` table of its
    /// own, and that table: the query calls every sensor the table holds
    /// at every instant.
    fn sampling() -> (StreamPlan, SourceSet, TableHandle) {
        let sensors = TableHandle::new(serena_core::schema::examples::sensors_schema());
        let mut sources = SourceSet::new();
        sources.add_table("sensors", sensors.clone());
        let plan = StreamPlan::source("sensors").sample_invoke("getTemperature", "sensor", 1);
        (plan, sources, sensors)
    }

    fn sensor(name: &str) -> Tuple {
        tuple![Value::service(name), "office"]
    }

    #[test]
    fn a_panicking_query_tick_fails_only_that_query() {
        use serena_core::service::fixtures::panicking_sensor;
        let services = StaticRegistry::new();
        services.register("sensor99", panicking_sensor());
        let reg = Uncontained(services);
        for workers in [1, 4] {
            let registry = Arc::new(MetricsRegistry::new());
            let scheduler = SchedulerConfig::new(workers);
            let mut qp = QueryProcessor::new(registry.clone(), Arc::default(), scheduler);
            let (table, mut s1) = int_table();
            qp.register(
                "healthy",
                &StreamPlan::source("t"),
                &mut s1,
                ExecOptions::default(),
            )
            .unwrap();
            let (plan, mut s2, sensors) = sampling();
            qp.register("doomed", &plan, &mut s2, ExecOptions::default())
                .unwrap();

            table.insert(tuple![1]);
            let first = qp.tick_all_with(&reg, &NoopMetrics);
            assert!(first.iter().all(|(_, r)| r.errors.is_empty()), "{workers}");

            // the doomed query's sensor joins after its first instant
            table.insert(tuple![2]);
            sensors.insert(sensor("sensor99"));
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
                        if service == "query:doomed" && reason.contains("firmware")
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
    fn a_panicked_tick_lasts_its_own_job_not_its_queue_wait() {
        use serena_core::service::fixtures::{panicking_sensor, temperature_sensor};
        use serena_services::fleet::SlowService;
        let registry = Arc::new(MetricsRegistry::new());
        let scheduler = SchedulerConfig::new(1);
        let mut qp = QueryProcessor::new(registry.clone(), Arc::default(), scheduler);
        let services = StaticRegistry::new();
        let slow = SlowService::wrap(temperature_sensor(1), Duration::from_millis(20));
        services.register("sensor01", slow);
        services.register("sensor99", panicking_sensor());
        for (query, name) in [("a_slow", "sensor01"), ("b_doomed", "sensor99")] {
            let (plan, mut sources, sensors) = sampling();
            sensors.insert(sensor(name));
            qp.register(query, &plan, &mut sources, ExecOptions::default())
                .unwrap();
        }
        let reports = qp.tick_all_with(&Uncontained(services), &NoopMetrics);
        let (slow, doomed) = (&reports[0].1, &reports[1].1);
        assert!(matches!(&doomed.errors[..], [EvalError::Panicked { .. }]));
        // On one worker the doomed job waited for the whole slow one: that
        // wait is in its lag, not in its tick (nor in its next weight). The
        // panic hook's own time (a backtrace) is the job's, so the tick is
        // bounded by the lag, not by a constant.
        let doomed_series = |name| registry.histogram(name, &[("query", "b_doomed")]).sum();
        let lag_ns = doomed_series("serena_query_lag_ns");
        assert_eq!(
            doomed_series("serena_query_tick_duration_ns"),
            doomed.elapsed.as_nanos() as u64
        );
        assert!(
            doomed.elapsed + slow.elapsed <= Duration::from_nanos(lag_ns),
            "tick {:?} + slow tick {:?} > lag {lag_ns} ns",
            doomed.elapsed,
            slow.elapsed
        );
    }

    #[test]
    fn a_round_is_cut_by_each_querys_last_tick() {
        use serena_core::service::fixtures::temperature_sensor;
        use serena_core::telemetry::span::SpanRecord;
        use serena_services::fleet::SlowService;
        // Three light βˢ queries (one 2 ms call a tick) named before four
        // heavy ones (one 40 ms call): no dedup here, so every query calls.
        // The light ones must not be negligible: a run ends after the job
        // that crosses its share, so `light + s0 + s1 ≥ s2 + s3` has to
        // hold against the jitter of the heavy calls.
        let run = |workers: usize| {
            let tracer = Arc::new(FlightRecorder::default());
            let scheduler = SchedulerConfig::new(workers);
            let mut qp = QueryProcessor::new(Arc::default(), tracer.clone(), scheduler);
            let reg = StaticRegistry::new();
            let plan = StreamPlan::source("sensors").sample_invoke("getTemperature", "sensor", 1);
            for (kind, queries, sensor, ms) in
                [("light", 3, "sensor06", 2), ("sampled", 4, "sensor01", 40)]
            {
                let delay = Duration::from_millis(ms);
                reg.register(sensor, SlowService::wrap(temperature_sensor(ms), delay));
                let sensors = TableHandle::new(serena_core::schema::examples::sensors_schema());
                sensors.insert(tuple![Value::service(sensor), "corridor"]);
                for i in 0..queries {
                    let mut s = SourceSet::new();
                    s.add_table("sensors", sensors.clone());
                    qp.register(format!("{kind}{i}"), &plan, &mut s, ExecOptions::default())
                        .unwrap();
                }
            }
            let reports: Vec<_> = (0..4)
                .flat_map(|_| qp.tick_all_with(&reg, &NoopMetrics))
                .map(|(name, r)| (name, r.at, r.delta, r.batch, r.errors))
                .collect();
            assert_eq!(tracer.dropped_total(), 0);
            (reports, tracer.snapshot())
        };
        let (serial, _) = run(1);
        let (reports, spans) = run(2);
        assert_eq!(reports, serial, "workers=2 diverged");
        assert!(reports.iter().all(|r| r.4.is_empty()), "{reports:?}");

        // per round, in instant order: the worker of each sampled query,
        // read from its `sched.job` span and that job's `query.tick` child
        let children = |parent: u64| {
            spans
                .iter()
                .filter(move |s: &&SpanRecord| s.parent == parent)
        };
        let mut rounds: Vec<&SpanRecord> =
            spans.iter().filter(|s| s.name == "sched.round").collect();
        rounds.sort_by_key(|s| s.at);
        let placed: Vec<Vec<u64>> = rounds
            .iter()
            .map(|round| {
                let mut at: Vec<(String, u64)> = children(round.id)
                    .map(|job| {
                        let tick = children(job.id).find(|s| s.name == "query.tick");
                        let query = tick.and_then(|t| t.attr_str("query")).expect("a tick");
                        (query.to_string(), job.attr_u64("worker").expect("a worker"))
                    })
                    .collect();
                at.sort();
                assert!(at[..3]
                    .iter()
                    .all(|(q, w)| q.starts_with("light") && *w == 0));
                at[3..].iter().map(|(_, w)| *w).collect()
            })
            .collect();
        // the first round cuts by count, three heavy queries on worker 1;
        // every later one by cost, two on each worker
        assert_eq!(
            placed,
            [
                vec![0, 1, 1, 1],
                vec![0, 0, 1, 1],
                vec![0, 0, 1, 1],
                vec![0, 0, 1, 1]
            ]
        );
    }

    #[test]
    fn worker_counts_do_not_change_results() {
        let run = |workers: usize| {
            let mut qp = processor(SchedulerConfig::new(workers));
            let (table, _) = int_table();
            for i in 0..6 {
                let mut s = SourceSet::new();
                s.add_table("t", table.clone());
                qp.register(
                    format!("q{i}"),
                    &StreamPlan::source("t").select(Formula::gt_const("x", i)),
                    &mut s,
                    ExecOptions::default(),
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
        let mut qp = processor(SchedulerConfig::default());
        let (table, _) = int_table();
        for i in 0..8 {
            let mut s = SourceSet::new();
            s.add_table("t", table.clone());
            qp.register(
                format!("q{i}"),
                &StreamPlan::source("t"),
                &mut s,
                ExecOptions::default(),
            )
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
