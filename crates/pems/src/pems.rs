//! The PEMS facade: Figure 1 assembled.
//!
//! A [`Pems`] instance wires together the core **Environment Resource
//! Manager** (the service directory, fed by the discovery bus), the
//! **Extended Table Manager** (named XD-Relations, DDL execution) and the
//! **Query Processor** (registered continuous queries on a shared logical
//! clock), plus the *service-discovery queries* that keep provider tables
//! (like the scenario's `cameras`) up to date.
//!
//! Each [`Pems::tick`] advances one logical instant:
//! 1. discovery messages due at this instant are delivered to the
//!    directory, and every linked peer is polled;
//! 2. discovery queries bring their provider tables up to date with what
//!    the directory logged since the previous tick;
//! 3. every registered continuous query evaluates the instant.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serena_core::dedup::{DedupLayer, DedupState};
use serena_core::env::Environment;
use serena_core::error::{EvalError, PlanError, SchemaError};
use serena_core::eval::EvalOutcome;
use serena_core::exec::{explain_analyze_text, ExecContext};
use serena_core::metrics::{ExecStats, MetricsSink, Tee};
use serena_core::physical::ExecOptions;
use serena_core::plan::Plan;
use serena_core::schema::SchemaRef;
use serena_core::service::{CatchPanicLayer, Invoker, InvokerStack};
use serena_core::snapshot::{self, Reader, SnapshotError, Writer};
use serena_core::telemetry::{
    chrome_trace, FlightRecorder, InstrumentedLayer, MetricsRegistry, RegistrySink, SpanRecord,
    TraceSink,
};
use serena_core::time::Instant;
use serena_core::value::ServiceRef;
use serena_ddl::ast::Statement;
use serena_ddl::resolve::{resolve_prototype, resolve_relation_schema, resolve_tuple, to_one_shot};
use serena_ddl::DdlError;
use serena_services::bus::{BusConfig, DiscoveryBus, LocalErm};
use serena_services::directory::{NodeDirectory, PeerStatus};
use serena_services::discovery::{Applied, DiscoveryQuery};
use serena_services::health::{HealthTracker, ServiceHealth};
use serena_services::node::{NodeHandle, RemoteNodeClient, ServiceNode};
use serena_services::resilience::{
    BreakerState, ResilienceCounters, ResiliencePolicy, ResilienceState, ResilientLayer,
};
use serena_services::transport::{Transport, TransportError};
use serena_stream::exec::TickReport;

use crate::processor::QueryProcessor;
use crate::recovery::{read_checkpoint, RecoveryManager};
use crate::scheduler::SchedulerConfig;
use crate::table_manager::ExtendedTableManager;

/// Errors surfaced by the PEMS API.
#[derive(Debug)]
pub enum PemsError {
    /// DDL parsing/resolution failed.
    Ddl(DdlError),
    /// Plan validation failed.
    Plan(PlanError),
    /// One-shot evaluation failed.
    Eval(EvalError),
    /// Schema/catalog failure.
    Schema(SchemaError),
    /// Checkpoint encoding/decoding or recovery failure.
    Snapshot(SnapshotError),
    /// Node-to-node transport failure (serve/connect/replicate).
    Transport(TransportError),
    /// A DDL `INSERT` / `DELETE` named a table a discovery query maintains
    /// ([`Pems::register_discovery`]): its rows are the directory's
    /// providers of `prototype`, and a user's write would last only until
    /// the next re-listing.
    DiscoveryMaintained {
        /// The table the statement named.
        table: String,
        /// The prototype whose providers the table lists.
        prototype: String,
    },
    /// `REGISTER QUERY` (or [`Pems::register_query`]) named a query that is
    /// already registered.
    DuplicateQuery(String),
    /// `UNREGISTER QUERY` named no registered query.
    UnknownQuery(String),
    /// Anything else.
    Other(String),
}

impl std::fmt::Display for PemsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PemsError::Ddl(e) => write!(f, "{e}"),
            PemsError::Plan(e) => write!(f, "{e}"),
            PemsError::Eval(e) => write!(f, "{e}"),
            PemsError::Schema(e) => write!(f, "{e}"),
            PemsError::Snapshot(e) => write!(f, "{e}"),
            PemsError::Transport(e) => write!(f, "{e}"),
            PemsError::DiscoveryMaintained { table, prototype } => write!(
                f,
                "table `{table}` is maintained by the discovery of `{prototype}` providers; \
                 deploy or withdraw the service instead of writing the row"
            ),
            PemsError::DuplicateQuery(name) => write!(f, "query `{name}` already registered"),
            PemsError::UnknownQuery(name) => write!(f, "unknown query `{name}`"),
            PemsError::Other(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for PemsError {}

impl From<DdlError> for PemsError {
    fn from(e: DdlError) -> Self {
        PemsError::Ddl(e)
    }
}
impl From<PlanError> for PemsError {
    fn from(e: PlanError) -> Self {
        PemsError::Plan(e)
    }
}
impl From<EvalError> for PemsError {
    fn from(e: EvalError) -> Self {
        PemsError::Eval(e)
    }
}
impl From<SchemaError> for PemsError {
    fn from(e: SchemaError) -> Self {
        PemsError::Schema(e)
    }
}
impl From<serena_ddl::ParseError> for PemsError {
    fn from(e: serena_ddl::ParseError) -> Self {
        PemsError::Ddl(DdlError::Parse(e))
    }
}
impl From<SnapshotError> for PemsError {
    fn from(e: SnapshotError) -> Self {
        PemsError::Snapshot(e)
    }
}
impl From<TransportError> for PemsError {
    fn from(e: TransportError) -> Self {
        PemsError::Transport(e)
    }
}

/// The result of executing one statement.
#[derive(Debug)]
pub enum ExecOutcome {
    /// A definition/mutation statement completed.
    Done,
    /// An `EXECUTE` one-shot query evaluated to this outcome.
    OneShot(EvalOutcome),
    /// A continuous query was registered under this name.
    Registered(String),
}

/// A one-shot plan annotated with what its evaluation actually did — the
/// result of [`Pems::explain_analyze`].
#[derive(Debug)]
pub struct ExplainAnalyze {
    /// The evaluation's result (relation + action set).
    pub outcome: EvalOutcome,
    /// Per-node observed statistics, keyed by pre-order node id.
    pub stats: ExecStats,
    /// The plan tree rendered with the observed counts inline.
    pub rendered: String,
}

impl std::fmt::Display for ExplainAnalyze {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.rendered)
    }
}

/// Step-by-step construction of a [`Pems`]: discovery-bus latency model,
/// starting logical instant, execution options, scheduler, checkpoints.
///
/// ```
/// # use serena_pems::pems::Pems;
/// # use serena_services::bus::BusConfig;
/// # use serena_core::time::Instant;
/// let pems = Pems::builder()
///     .bus(BusConfig::instant())
///     .clock(Instant(7))
///     .build();
/// assert_eq!(pems.clock(), Instant(7));
/// ```
pub struct PemsBuilder {
    bus: BusConfig,
    node_id: String,
    clock: Instant,
    exec_options: ExecOptions,
    trace: Option<Arc<dyn TraceSink>>,
    resilience: ResiliencePolicy,
    checkpoint: Option<(PathBuf, u64)>,
    scheduler: Option<SchedulerConfig>,
    dedup: Option<bool>,
    tracing: Option<bool>,
}

impl PemsBuilder {
    /// Defaults: default bus latency, clock at zero, serial execution, no
    /// trace sink, resilience disabled, scheduler and β dedup from the
    /// environment (`SERENA_SCHED_WORKERS` / `SERENA_SCHED_DEDUP`).
    pub fn new() -> Self {
        PemsBuilder {
            bus: BusConfig::default(),
            node_id: "node0".to_string(),
            clock: Instant::ZERO,
            exec_options: ExecOptions::default(),
            trace: None,
            resilience: ResiliencePolicy::disabled(),
            checkpoint: None,
            scheduler: None,
            dedup: None,
            tracing: None,
        }
    }

    /// Discovery-network latency model.
    pub fn bus(mut self, config: BusConfig) -> Self {
        self.bus = config;
        self
    }

    /// This runtime's node id in a multi-node deployment — what peers see
    /// in the handshake and in [`PeerStatus`]. Defaults to `"node0"`.
    pub fn node_id(mut self, id: impl Into<String>) -> Self {
        self.node_id = id.into();
        self
    }

    /// Logical instant the runtime starts at (first tick evaluates it).
    pub fn clock(mut self, at: Instant) -> Self {
        self.clock = at;
        self
    }

    /// Execution options applied to every one-shot evaluation and every
    /// continuous query registered after construction (β's degradation
    /// policy; fail the query by default).
    pub fn exec_options(mut self, options: ExecOptions) -> Self {
        self.exec_options = options;
        self
    }

    /// Structured trace sink receiving span-style [`TraceEvent`]s (query
    /// registered, tick start/end, invocation, failure) — e.g. a
    /// [`serena_core::telemetry::JsonlTrace`] over a file.
    ///
    /// [`TraceEvent`]: serena_core::telemetry::TraceEvent
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Resilience policy applied to every β invocation (one-shot and
    /// continuous): bounded retry with jittered exponential backoff and a
    /// per-service circuit breaker. Disabled by default —
    /// a disabled policy adds no layer to the invoker stack. Pair with
    /// [`ExecOptions::with_degrade`] (via [`Self::exec_options`]) to let
    /// queries survive the failures that remain after retries.
    pub fn resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = policy;
        self
    }

    /// Periodically checkpoint the runtime's dynamic state into `dir`:
    /// after every `every_n_ticks` completed ticks, a versioned snapshot
    /// (tables, query executors & stats, logical clock, breakers, health)
    /// is written atomically to `dir/serena.ckpt`. A crashed process
    /// recovers by re-running its static setup on a fresh [`Pems`] and
    /// calling [`Pems::restore_from`]. See [`crate::recovery`].
    pub fn checkpoint(mut self, dir: impl Into<PathBuf>, every_n_ticks: u64) -> Self {
        self.checkpoint = Some((dir.into(), every_n_ticks));
        self
    }

    /// Multi-query tick scheduler configuration: how many threads, the
    /// caller's included, a tick round splits the queries over. Defaults
    /// to [`SchedulerConfig::from_env`] (`SERENA_SCHED_WORKERS`, else one
    /// worker per core). Worker count never changes query output — see
    /// `tests/envgen_determinism.rs`.
    pub fn scheduler(mut self, config: SchedulerConfig) -> Self {
        self.scheduler = Some(config);
        self
    }

    /// Arm or disarm the cross-query β dedup layer
    /// ([`serena_core::dedup::DedupLayer`]): identical `(service, args)`
    /// invocations issued by different queries within one instant coalesce
    /// into a single upstream call. Sound because services are
    /// deterministic at an instant (§3.2). Defaults to the
    /// `SERENA_SCHED_DEDUP` environment variable (`0` disables), else on.
    pub fn dedup(mut self, enabled: bool) -> Self {
        self.dedup = Some(enabled);
        self
    }

    /// Arm or disarm the hierarchical span tracer's flight recorder
    /// ([`serena_core::telemetry::FlightRecorder`]). Armed by default;
    /// `SERENA_TRACE=0` disarms and `SERENA_TRACE_CAPACITY` bounds the
    /// retained spans (drop-oldest). The recorder is strictly
    /// observational: query outputs are byte-identical armed or disarmed
    /// (see `tests/envgen_determinism.rs`).
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = Some(enabled);
        self
    }

    /// Assemble the runtime.
    pub fn build(self) -> Pems {
        let bus = DiscoveryBus::new(self.bus);
        let telemetry = Arc::new(MetricsRegistry::new());
        let telemetry_sink = RegistrySink::new(&telemetry);
        let tracer = Arc::new(FlightRecorder::from_env());
        if let Some(on) = self.tracing {
            tracer.arm(on);
        }
        let mut processor = QueryProcessor::new();
        processor.seek(self.clock);
        processor.set_telemetry(Arc::clone(&telemetry), self.trace.clone());
        processor.set_scheduler(self.scheduler.unwrap_or_else(SchedulerConfig::from_env));
        processor.set_tracer(Arc::clone(&tracer));
        let dedup_enabled = self
            .dedup
            .unwrap_or_else(|| std::env::var("SERENA_SCHED_DEDUP").map_or(true, |v| v != "0"));
        // Eagerly register the dedup/trace/replication series so they render
        // (at zero) from the first `.metrics` call, armed or not.
        telemetry.counter("serena_beta_dedup_total", &[]);
        telemetry.counter("serena_trace_dropped_total", &[]);
        telemetry.counter("serena_replication_total", &[]);
        telemetry.counter("serena_replication_errors_total", &[]);
        Pems {
            bus,
            directory: Arc::new(NodeDirectory::new(self.node_id)),
            standby: None,
            tables: ExtendedTableManager::new(),
            processor,
            discoveries: Vec::new(),
            sql_counter: 0,
            exec_options: self.exec_options,
            telemetry,
            telemetry_sink,
            health: Arc::new(HealthTracker::new(serena_services::health::DEFAULT_WINDOW)),
            trace: self.trace,
            resilience_policy: self.resilience,
            resilience: Arc::new(ResilienceState::new()),
            dedup: Arc::new(DedupState::new()),
            dedup_enabled,
            recovery: self
                .checkpoint
                .map(|(dir, every)| RecoveryManager::new(dir, every)),
            snapshot_size_hint: std::sync::atomic::AtomicUsize::new(0),
            tracer,
            trace_dropped_seen: 0,
        }
    }
}

impl Default for PemsBuilder {
    fn default() -> Self {
        PemsBuilder::new()
    }
}

/// A Pervasive Environment Management System instance.
pub struct Pems {
    bus: Arc<DiscoveryBus>,
    directory: Arc<NodeDirectory>,
    /// Standby peer receiving a checkpoint stream after every tick, when
    /// configured via [`Pems::replicate_to`].
    standby: Option<RemoteNodeClient>,
    tables: ExtendedTableManager,
    processor: QueryProcessor,
    discoveries: Vec<(String, DiscoveryQuery)>,
    sql_counter: u64,
    exec_options: ExecOptions,
    /// Named metric series for the whole runtime (always on; lock-cheap).
    telemetry: Arc<MetricsRegistry>,
    /// Bridges per-operator observations into `telemetry`.
    telemetry_sink: RegistrySink,
    /// Rolling per-service health fed by every β invocation outcome.
    health: Arc<HealthTracker>,
    /// Structured trace sink. `None` unless configured: without a sink no
    /// layer builds a [`TraceEvent`](serena_core::telemetry::TraceEvent)
    /// at all, rather than building one for a sink that discards it.
    trace: Option<Arc<dyn TraceSink>>,
    /// Resilience policy the invoker stack is built with.
    resilience_policy: ResiliencePolicy,
    /// Breakers and retry/breaker counters, shared across rebuilt stacks.
    resilience: Arc<ResilienceState>,
    /// Cross-query β dedup memo + counters, shared across rebuilt stacks
    /// (the memo is per-instant; the counters are cumulative).
    dedup: Arc<DedupState>,
    /// Whether the dedup layer is armed ([`PemsBuilder::dedup`] /
    /// `SERENA_SCHED_DEDUP`).
    dedup_enabled: bool,
    /// Periodic checkpoint writer, when configured via
    /// [`PemsBuilder::checkpoint`].
    recovery: Option<RecoveryManager>,
    /// Size of the last snapshot, used to preallocate the next one.
    snapshot_size_hint: std::sync::atomic::AtomicUsize,
    /// Hierarchical span tracer: bounded in-memory flight recorder shared
    /// by the scheduler, the stream executor and the β invoker stack.
    tracer: Arc<FlightRecorder>,
    /// Recorder drop count already published to
    /// `serena_trace_dropped_total` (the counter is monotone; the recorder
    /// reports a cumulative total).
    trace_dropped_seen: u64,
}

impl Default for Pems {
    fn default() -> Self {
        Pems::builder().build()
    }
}

impl Pems {
    /// Start building a PEMS (bus config, clock, options).
    pub fn builder() -> PemsBuilder {
        PemsBuilder::new()
    }

    /// The service directory: registration, resolution, discovery
    /// metadata, the join/leave log and multi-node peer links. Local
    /// registrations go through [`NodeDirectory::register`] or a
    /// [`Pems::local_erm`]; remote services appear here automatically
    /// once [`Pems::connect_peer`] links their node.
    pub fn directory(&self) -> Arc<NodeDirectory> {
        Arc::clone(&self.directory)
    }

    /// This runtime's node id (see [`PemsBuilder::node_id`]).
    pub fn node_id(&self) -> &str {
        self.directory.node()
    }

    /// Expose this runtime's directory to peers at `addr` on `transport`:
    /// they can discover and invoke its locally hosted services and push
    /// standby checkpoints to it. Returns a handle whose drop shuts the
    /// endpoint down; [`NodeHandle::addr`] is the canonical re-connectable
    /// address (useful with `tcp:host:0`).
    pub fn serve(
        &self,
        transport: Arc<dyn Transport>,
        addr: &str,
    ) -> Result<NodeHandle, PemsError> {
        Ok(ServiceNode::serve(
            transport,
            addr,
            Arc::clone(&self.directory),
        )?)
    }

    /// Link a remote node into this runtime's directory: its services are
    /// proxied locally (discovery queries list them; β invocations relay
    /// over the transport) and kept current by per-tick heartbeat polling.
    /// Returns the peer's node id.
    pub fn connect_peer(
        &self,
        transport: Arc<dyn Transport>,
        addr: &str,
    ) -> Result<String, PemsError> {
        Ok(self.directory.connect_peer(transport, addr)?)
    }

    /// Stream a checkpoint of this runtime's dynamic state to the node at
    /// `addr` after **every** tick (independent of any on-disk
    /// [`PemsBuilder::checkpoint`] cadence). The standby retrieves the
    /// latest snapshot via [`NodeHandle::last_checkpoint`] and resumes a
    /// dead primary with [`Pems::restore_bytes`]. A failed send is counted
    /// (`serena_replication_errors_total`) and traced, never fatal.
    /// Returns the standby's node id.
    pub fn replicate_to(
        &mut self,
        transport: Arc<dyn Transport>,
        addr: &str,
    ) -> Result<String, PemsError> {
        let client = RemoteNodeClient::connect(transport, addr, self.node_id())?;
        let node = client.node().to_string();
        self.standby = Some(client);
        Ok(node)
    }

    /// Health of every linked peer (id, address, liveness, last-seen
    /// instant, proxied service count).
    pub fn peer_status(&self) -> Vec<PeerStatus> {
        self.directory.peer_status()
    }

    /// The runtime-wide metric registry: operator counters, β-invocation
    /// latency histograms, per-query tick/lag series. Always on.
    pub fn metrics_registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.telemetry)
    }

    /// Every metric series rendered in the Prometheus text exposition
    /// format — what the shell's `\metrics` command prints.
    pub fn render_metrics(&self) -> String {
        self.telemetry.render_prometheus()
    }

    /// Health snapshot of every service observed by a β invocation so far,
    /// ordered by service reference — what the shell's `\health` command
    /// prints. Reflects injected faults: a service wrapped in a
    /// [`serena_services::faults::FaultyService`] shows its failure rate
    /// here.
    pub fn service_health(&self) -> Vec<ServiceHealth> {
        self.health.report()
    }

    /// The rolling per-service health tracker behind
    /// [`Self::service_health`].
    pub fn health_tracker(&self) -> Arc<HealthTracker> {
        Arc::clone(&self.health)
    }

    /// Runtime-wide resilience counters: retries, breaker trips and
    /// breaker-rejected calls. All zero when no
    /// [`PemsBuilder::resilience`] policy was configured.
    pub fn resilience_counters(&self) -> ResilienceCounters {
        self.resilience.counters()
    }

    /// Per-service circuit-breaker states, ordered by service reference —
    /// shown by the shell's `\health` command next to the health report.
    pub fn breakers(&self) -> Vec<(ServiceRef, BreakerState)> {
        self.resilience.breakers()
    }

    /// The resilience policy the invoker stack is built with.
    pub fn resilience_policy(&self) -> ResiliencePolicy {
        self.resilience_policy
    }

    /// The full β invoker stack for *one-shot* evaluations — see
    /// [`build_invoker_stack`]. One-shots run between ticks and must
    /// observe directory hot-swaps immediately, so the cross-query dedup
    /// memo (valid only within one atomic tick round, where the directory
    /// is stable) is never armed here.
    fn invoker_stack(&self) -> Box<dyn Invoker + '_> {
        build_invoker_stack(
            &self.directory,
            &self.telemetry,
            &self.health,
            self.trace.as_deref(),
            &self.tracer,
            self.resilience_policy,
            Arc::clone(&self.resilience),
            Arc::clone(&self.dedup),
            false,
        )
    }

    /// Cumulative cross-query β dedup counters: `(hits, misses)` — calls
    /// served without an upstream invocation vs. upstream calls actually
    /// performed through the dedup layer. Both zero when dedup is
    /// disarmed.
    pub fn dedup_stats(&self) -> (u64, u64) {
        (self.dedup.hits(), self.dedup.misses())
    }

    /// The hierarchical span tracer's flight recorder: a bounded
    /// in-memory ring of closed [`SpanRecord`]s covering scheduler rounds,
    /// per-worker jobs, query ticks, operators and β invocations.
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.tracer)
    }

    /// Arm or disarm the span tracer on a built runtime (see
    /// [`PemsBuilder::tracing`]). Disarming keeps already-recorded spans;
    /// call [`FlightRecorder::clear`] via [`Self::flight_recorder`] to
    /// discard them.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.arm(enabled);
    }

    /// Export every span currently retained by the flight recorder as a
    /// Chrome/Perfetto `trace.json` (load it in `chrome://tracing` or
    /// [ui.perfetto.dev](https://ui.perfetto.dev)) — the shell's
    /// `.trace <file>` command. Returns the number of spans written.
    pub fn export_trace(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let spans = self.tracer.snapshot();
        std::fs::write(path, chrome_trace(&spans))?;
        Ok(spans.len())
    }

    /// Per-query profile from the flight recorder — the shell's
    /// `.profile <query>` command: recent tick timeline (duration, delta
    /// sizes, errors), the slowest operators by self time across the
    /// retained ticks, and the p99 tick with its exemplar span id.
    pub fn profile(&self, query: &str) -> String {
        let hist = self
            .telemetry
            .histogram("serena_query_tick_duration_ns", &[("query", query)]);
        profile_text(query, &self.tracer.snapshot(), hist.as_ref())
    }

    /// Live runtime dashboard — the shell's `.top` command: worker
    /// utilization over the retained scheduler rounds, per-query tick
    /// rates/latency/errors, and per-service health, latency and breaker
    /// state.
    pub fn top(&self) -> String {
        let mut out = String::new();
        let spans = self.tracer.snapshot();

        // -- scheduler ----------------------------------------------------
        let rounds: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "sched.round").collect();
        let window_ns: u64 = rounds.iter().map(|s| s.duration_ns()).sum();
        let mut busy: std::collections::BTreeMap<u64, (u64, u64)> =
            std::collections::BTreeMap::new();
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
            self.tracer.dropped_total(),
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
            let ticks = self
                .telemetry
                .counter_value("serena_query_ticks_total", &labels)
                .unwrap_or(0);
            let errors = self
                .telemetry
                .counter_value("serena_query_errors_total", &labels)
                .unwrap_or(0);
            let hist = self
                .telemetry
                .histogram("serena_query_tick_duration_ns", &labels);
            out.push_str(&format!(
                "  {name}: ticks={ticks} p50={:.2}ms p99={:.2}ms errors={errors}\n",
                hist.p50() as f64 / 1e6,
                hist.p99() as f64 / 1e6,
            ));
        }

        // -- services -----------------------------------------------------
        let breakers: std::collections::BTreeMap<String, BreakerState> = self
            .breakers()
            .into_iter()
            .map(|(r, b)| (r.as_str().to_string(), b))
            .collect();
        out.push_str("services\n");
        for h in self.service_health() {
            let service = h.reference.as_str();
            let hist = self
                .telemetry
                .histogram("serena_service_latency_ns", &[("service", service)]);
            let breaker = breakers
                .get(service)
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

    /// Replace the tick scheduler configuration (threads per round) on a
    /// built runtime — how the scale bench sweeps its worker axis.
    pub fn set_scheduler(&mut self, config: SchedulerConfig) {
        self.processor.set_scheduler(config);
    }

    /// Create a Local Environment Resource Manager attached to this PEMS's
    /// discovery bus.
    pub fn local_erm(&self, id: impl Into<String>) -> LocalErm {
        LocalErm::new(id, Arc::clone(&self.bus))
    }

    /// The Extended Table Manager.
    pub fn tables(&self) -> &ExtendedTableManager {
        &self.tables
    }

    /// Mutable access to the Extended Table Manager.
    pub fn tables_mut(&mut self) -> &mut ExtendedTableManager {
        &mut self.tables
    }

    /// The Query Processor.
    pub fn processor(&self) -> &QueryProcessor {
        &self.processor
    }

    /// The instant the next tick evaluates.
    pub fn clock(&self) -> Instant {
        self.processor.clock()
    }

    /// Register a service-discovery query maintaining finite table
    /// `table` as "providers of `prototype`", with the table's
    /// `service_attr` holding the references (§5.1). Each tick it looks
    /// again at the references the directory logged since the previous
    /// one (`serena_discovery_reconciled_total{table}` counts them) and
    /// lists the whole directory only on its first tick, after a restore,
    /// or when the log has wrapped past it
    /// (`serena_discovery_relist_total{table}`).
    pub fn register_discovery(
        &mut self,
        table: &str,
        prototype: &str,
        service_attr: &str,
    ) -> Result<(), PemsError> {
        let handle = self
            .tables
            .table(table)
            .ok_or_else(|| SchemaError::UnknownRelation(table.to_string()))?;
        let query = DiscoveryQuery::new(prototype, handle.schema(), service_attr)?;
        self.discoveries.push((table.to_string(), query));
        // both series render (at zero) from here on
        self.telemetry
            .counter("serena_discovery_relist_total", &[("table", table)]);
        self.telemetry
            .counter("serena_discovery_reconciled_total", &[("table", table)]);
        Ok(())
    }

    /// Register a continuous query by name and plan. The query runs with
    /// the runtime's configured [`ExecOptions`].
    pub fn register_query(
        &mut self,
        name: impl Into<String>,
        plan: &serena_stream::plan::StreamPlan,
    ) -> Result<(), PemsError> {
        let name = name.into();
        let mut sources = self.tables.source_set_for(plan);
        self.processor.register_with_options(
            name.as_str(),
            plan,
            &mut sources,
            self.exec_options,
        )?;
        Ok(())
    }

    /// Register a batch of continuous queries in declaration order,
    /// returning the registered names — the ergonomic path for
    /// [`crate::envspec::WorkloadSpec`]-sized workloads (hundreds of
    /// queries).
    pub fn register_queries<I, S>(&mut self, queries: I) -> Result<Vec<String>, PemsError>
    where
        I: IntoIterator<Item = (S, serena_stream::plan::StreamPlan)>,
        S: Into<String>,
    {
        let mut names = Vec::new();
        for (name, plan) in queries {
            let name = name.into();
            self.register_query(name.clone(), &plan)?;
            names.push(name);
        }
        Ok(names)
    }

    /// The schema a DDL `INSERT` / `DELETE` types its literals against: the
    /// table exists and is the user's to write. (The discovery fold writes
    /// its tables through [`ExtendedTableManager`] directly.)
    fn user_table_schema(&self, relation: &str) -> Result<SchemaRef, PemsError> {
        if let Some((table, query)) = self.discoveries.iter().find(|(t, _)| t == relation) {
            return Err(PemsError::DiscoveryMaintained {
                table: table.clone(),
                prototype: query.prototype().to_string(),
            });
        }
        self.tables
            .table(relation)
            .map(|t| t.schema())
            .ok_or_else(|| SchemaError::UnknownRelation(relation.to_string()).into())
    }

    /// Execute a parsed statement.
    pub fn run_statement(&mut self, stmt: &Statement) -> Result<ExecOutcome, PemsError> {
        match stmt {
            Statement::Prototype {
                name,
                input,
                output,
                active,
            } => {
                let p = resolve_prototype(name, input, output, *active)?;
                self.tables.declare_prototype(p)?;
                Ok(ExecOutcome::Done)
            }
            Statement::Service { name, prototypes } => {
                self.tables
                    .declare_service(name.clone(), prototypes.clone());
                Ok(ExecOutcome::Done)
            }
            Statement::ExtendedRelation {
                name,
                attrs,
                bindings,
                stream,
            } => {
                let schema = resolve_relation_schema(attrs, bindings, &self.tables)?;
                if *stream {
                    self.tables.define_push_stream(name.clone(), schema)?;
                } else {
                    self.tables.define_table(name.clone(), schema)?;
                }
                Ok(ExecOutcome::Done)
            }
            Statement::Insert { relation, tuples } => {
                let schema = self.user_table_schema(relation)?;
                for lits in tuples {
                    let t = resolve_tuple(lits, &schema)?;
                    self.tables.insert(relation, t)?;
                }
                Ok(ExecOutcome::Done)
            }
            Statement::Delete { relation, tuples } => {
                let schema = self.user_table_schema(relation)?;
                for lits in tuples {
                    let t = resolve_tuple(lits, &schema)?;
                    self.tables.delete(relation, t)?;
                }
                Ok(ExecOutcome::Done)
            }
            Statement::DropRelation { name } => {
                if !self.tables.drop_relation(name) {
                    return Err(SchemaError::UnknownRelation(name.clone()).into());
                }
                Ok(ExecOutcome::Done)
            }
            Statement::RegisterQuery { name, plan } => {
                self.register_query(name.clone(), plan)?;
                Ok(ExecOutcome::Registered(name.clone()))
            }
            Statement::UnregisterQuery { name } => {
                if !self.processor.deregister(name) {
                    return Err(PemsError::UnknownQuery(name.clone()));
                }
                Ok(ExecOutcome::Done)
            }
            Statement::Execute { plan } => {
                let plan = to_one_shot(plan).ok_or_else(|| {
                    PemsError::Other(
                        "continuous expression (window/stream); use REGISTER QUERY".into(),
                    )
                })?;
                Ok(ExecOutcome::OneShot(self.one_shot(&plan)?))
            }
        }
    }

    /// Execute a Serena SQL `SELECT` (see [`serena_ddl::sql`]): a
    /// statement without window/streaming parts evaluates one-shot;
    /// otherwise it is registered as a continuous query (under `name`, or
    /// an auto-generated `sql_N`).
    pub fn run_sql(&mut self, name: Option<&str>, sql: &str) -> Result<ExecOutcome, PemsError> {
        let plan = serena_ddl::sql::compile_select(sql, &self.tables)?;
        match to_one_shot(&plan) {
            Some(one_shot) => Ok(ExecOutcome::OneShot(self.one_shot(&one_shot)?)),
            None => {
                let name = match name {
                    Some(n) => n.to_string(),
                    None => {
                        self.sql_counter += 1;
                        format!("sql_{}", self.sql_counter)
                    }
                };
                self.register_query(name.clone(), &plan)?;
                Ok(ExecOutcome::Registered(name))
            }
        }
    }

    /// Parse and execute a `;`-separated program, statement by statement.
    /// A program is not a transaction: it stops at its first failing
    /// statement and returns that error, and the statements before it stay
    /// applied. A program that does not parse applies nothing.
    pub fn run_program(&mut self, text: &str) -> Result<Vec<ExecOutcome>, PemsError> {
        let stmts = serena_ddl::parse_program(text)?;
        let mut out = Vec::with_capacity(stmts.len());
        for s in &stmts {
            out.push(self.run_statement(s)?);
        }
        Ok(out)
    }

    /// Evaluate a one-shot query "now": against a snapshot of the finite
    /// tables, at the current logical instant, through the live directory.
    pub fn one_shot(&self, plan: &Plan) -> Result<EvalOutcome, PemsError> {
        self.evaluate(plan, &self.telemetry_sink)
    }

    /// Evaluate `plan` one-shot, reporting per-operator observations to
    /// `sink`.
    fn evaluate(&self, plan: &Plan, sink: &dyn MetricsSink) -> Result<EvalOutcome, PemsError> {
        let env = self.tables.snapshot_environment(Some(&plan.relations()));
        let invoker = self.invoker_stack();
        let ctx = ExecContext::with_metrics(&env, &*invoker, self.clock(), sink)
            .with_options(self.exec_options);
        Ok(ctx.execute(plan)?)
    }

    /// Evaluate `plan` one-shot and return the plan tree annotated with the
    /// observed per-node counts (rows out, tuples in, invocations, β-cache
    /// hits/misses, failures, wall time) — the classic `EXPLAIN ANALYZE`.
    /// Observations also flow to the runtime's metrics registry.
    pub fn explain_analyze(&self, plan: &Plan) -> Result<ExplainAnalyze, PemsError> {
        let stats = ExecStats::new();
        let outcome = self.evaluate(plan, &Tee(&stats, &self.telemetry_sink))?;
        let rendered = explain_analyze_text(plan, &stats);
        Ok(ExplainAnalyze {
            outcome,
            stats,
            rendered,
        })
    }

    /// The one-shot [`Environment`] of every finite table, as it is now —
    /// each relation shared with its table, none copied. A statement takes
    /// the same snapshot of only the tables its plan names.
    pub fn snapshot_environment(&self) -> Environment {
        self.tables.snapshot_environment(None)
    }

    /// The periodic checkpoint writer, when one was configured via
    /// [`PemsBuilder::checkpoint`].
    pub fn recovery(&self) -> Option<&RecoveryManager> {
        self.recovery.as_ref()
    }

    /// Serialize the runtime's full dynamic state into one versioned
    /// snapshot: table contents, per-query executor state and statistics,
    /// the logical clock, circuit breakers and service-health windows.
    /// Static setup (DDL, service registrations, query registrations) is
    /// *not* captured — see [`crate::recovery`] for the recovery model.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        use std::sync::atomic::Ordering;
        let hint = self.snapshot_size_hint.load(Ordering::Relaxed);
        let mut w = Writer::with_capacity(hint + hint / 4 + 256);
        snapshot::write_header(&mut w);
        self.tables.export_tables(&mut w);
        self.processor.write_snapshot(&mut w);
        self.resilience.export_state(&mut w);
        self.health.export_state(&mut w);
        self.snapshot_size_hint.store(w.len(), Ordering::Relaxed);
        w.into_bytes()
    }

    /// Restore dynamic state from [`Self::snapshot_bytes`] output. The
    /// static setup must already have been re-run on this instance (same
    /// tables, same queries, same plans); a disagreement surfaces as
    /// [`SnapshotError::Mismatch`].
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), PemsError> {
        let mut r = Reader::new(bytes);
        snapshot::read_header(&mut r)?;
        // the tables are about to hold what the checkpointed runtime's
        // did, not what this runtime's discovery queries wrote into them
        for (_, query) in &mut self.discoveries {
            query.forget();
        }
        self.tables.import_tables(&mut r)?;
        self.processor.read_snapshot(&mut r)?;
        self.resilience.import_state(&mut r)?;
        self.health.import_state(&mut r)?;
        if !r.is_at_end() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after snapshot",
                r.remaining()
            ))
            .into());
        }
        Ok(())
    }

    /// Restore from the checkpoint in `dir` (a checkpoint directory, or a
    /// direct path to a snapshot file). Call after re-running the static
    /// setup; the next [`Self::tick`] then evaluates exactly the instant
    /// the checkpointed runtime would have evaluated next.
    pub fn restore_from(&mut self, dir: impl AsRef<Path>) -> Result<(), PemsError> {
        let bytes = read_checkpoint(dir)?;
        self.restore_bytes(&bytes)
    }

    /// Write a checkpoint immediately through the configured
    /// [`RecoveryManager`] (error if [`PemsBuilder::checkpoint`] was not
    /// set). Returns the checkpoint path.
    pub fn checkpoint_now(&mut self) -> Result<PathBuf, PemsError> {
        let bytes = self.snapshot_bytes();
        self.write_checkpoint(&bytes)
    }

    /// Write already-cut snapshot bytes through the configured
    /// [`RecoveryManager`].
    fn write_checkpoint(&mut self, bytes: &[u8]) -> Result<PathBuf, PemsError> {
        let rm = self.recovery.as_mut().ok_or_else(|| {
            PemsError::Other("no checkpoint directory configured (PemsBuilder::checkpoint)".into())
        })?;
        let path = rm.write(bytes)?;
        self.telemetry.counter("serena_checkpoint_total", &[]).inc();
        Ok(path)
    }

    /// Write a one-off checkpoint of the current state into `dir`,
    /// independent of any configured cadence — the shell's `.checkpoint`
    /// command.
    pub fn checkpoint_to(&self, dir: impl AsRef<Path>) -> Result<PathBuf, PemsError> {
        let mut rm = RecoveryManager::new(dir.as_ref(), 1);
        let path = rm.write(&self.snapshot_bytes())?;
        self.telemetry.counter("serena_checkpoint_total", &[]).inc();
        Ok(path)
    }

    /// Advance one logical instant (see the module docs for the phase
    /// order). Returns each registered query's tick report.
    pub fn tick(&mut self) -> Vec<(String, TickReport)> {
        let now = self.processor.clock();
        // 1. apply due discovery traffic: the local bus first, then the
        // heartbeat/poll round over every linked peer (remote joins and
        // leaves land in the directory with the same this-tick visibility
        // as bus announcements)
        self.bus.deliver_due(now, &self.directory);
        self.directory.poll_peers(now);
        // 2. bring discovery-maintained provider tables up to date
        for (table, query) in &mut self.discoveries {
            let Some(handle) = self.tables.table(table) else {
                continue;
            };
            let (series, n) = match query.apply(&self.directory, &handle) {
                Applied::Reconciled(0) => continue,
                Applied::Reconciled(n) => ("serena_discovery_reconciled_total", n as u64),
                Applied::Relisted => ("serena_discovery_relist_total", 1),
            };
            self.telemetry.counter(series, &[("table", table)]).add(n);
        }
        // 3. evaluate every continuous query at `now`, through the same
        // instrumented + resilient stack one-shot queries use (disjoint
        // field borrows: the stack must not borrow all of `self` while the
        // processor ticks mutably)
        let invoker = build_invoker_stack(
            &self.directory,
            &self.telemetry,
            &self.health,
            self.trace.as_deref(),
            &self.tracer,
            self.resilience_policy,
            Arc::clone(&self.resilience),
            Arc::clone(&self.dedup),
            self.dedup_enabled,
        );
        let reports = self
            .processor
            .tick_all_with(&*invoker, &self.telemetry_sink);
        drop(invoker);
        // every subscription has polled: what a hub still holds is what a
        // live subscription skipped
        for (stream, retained) in self.tables.hub_retention() {
            self.telemetry
                .gauge("serena_hub_retained_tuples", &[("stream", &stream)])
                .set(retained as i64);
        }
        // publish the flight recorder's eviction count as a monotone series
        let dropped = self.tracer.dropped_total();
        if dropped > self.trace_dropped_seen {
            self.telemetry
                .counter("serena_trace_dropped_total", &[])
                .add(dropped - self.trace_dropped_seen);
            self.trace_dropped_seen = dropped;
        }
        // 4. the tick is complete — the snapshot cut is consistent here —
        // so cut one snapshot and fan it out: to disk if the cadence says
        // a checkpoint is due, and to the standby peer if one is linked.
        // Neither failure may take the runtime down: both are counted and
        // traced.
        let due = self
            .recovery
            .as_mut()
            .is_some_and(RecoveryManager::tick_completed);
        if due || self.standby.is_some() {
            let bytes = self.snapshot_bytes();
            if due {
                if let Err(e) = self.write_checkpoint(&bytes) {
                    self.telemetry
                        .counter("serena_checkpoint_errors_total", &[])
                        .inc();
                    self.trace_failure("checkpoint", self.processor.clock(), &e);
                }
            }
            if let Some(standby) = &self.standby {
                match standby.send_checkpoint(now.0, &bytes) {
                    Ok(()) => {
                        self.telemetry
                            .counter("serena_replication_total", &[])
                            .inc();
                    }
                    Err(e) => {
                        self.telemetry
                            .counter("serena_replication_errors_total", &[])
                            .inc();
                        self.trace_failure("replication", self.processor.clock(), &e);
                    }
                }
            }
        }
        reports
    }

    /// Tell the trace sink, when there is one, that `scope` failed.
    fn trace_failure(&self, scope: &str, at: Instant, error: &dyn std::fmt::Display) {
        if let Some(trace) = &self.trace {
            trace.emit(&serena_core::telemetry::TraceEvent::Failure {
                scope: scope.to_string(),
                at,
                message: error.to_string(),
            });
        }
    }

    /// Run `n` ticks, returning all reports flattened.
    pub fn run_ticks(&mut self, n: u64) -> Vec<(Instant, String, TickReport)> {
        let mut out = Vec::new();
        for _ in 0..n {
            let at = self.clock();
            for (name, report) in self.tick() {
                out.push((at, name, report));
            }
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

/// The full β invoker stack: directory → panic containment (innermost, so
/// a panicking service body becomes an [`EvalError::Panicked`] every outer
/// layer sees as an ordinary failure) → instrumentation (metrics, health,
/// trace) → resilience (retry/breaker, so every retry attempt is
/// individually observed and counted) → cross-query β dedup (outermost:
/// only the *first* logical caller of a `(service, args)` key at an
/// instant descends into resilience and performs — possibly retries — the
/// upstream call; coalesced callers share its final result and are
/// counted in `serena_beta_dedup_total`). The resilient layer is a no-op
/// pass-through when `policy` is disabled, the dedup layer when
/// `dedup_enabled` is false.
///
/// Built once per tick and per one-shot statement, which costs the four
/// boxes and nothing else: what a layer resolves or remembers per service
/// — series handles (`telemetry`'s bundles), breakers (`state`), the memo
/// (`dedup`), health windows — is owned by the arguments, which outlive
/// the stack. No sink, no [`TraceEvent`](serena_core::telemetry::TraceEvent).
#[allow(clippy::too_many_arguments)]
fn build_invoker_stack<'r>(
    directory: &'r NodeDirectory,
    telemetry: &'r Arc<MetricsRegistry>,
    health: &'r HealthTracker,
    trace: Option<&'r dyn TraceSink>,
    tracer: &'r Arc<FlightRecorder>,
    policy: ResiliencePolicy,
    state: Arc<ResilienceState>,
    dedup: Arc<DedupState>,
    dedup_enabled: bool,
) -> Box<dyn Invoker + 'r> {
    let mut instrumented = InstrumentedLayer::new()
        .registry(telemetry.as_ref())
        .observer(health)
        .tracer(tracer.as_ref());
    let mut resilient = ResilientLayer::new(policy, state)
        .health(health)
        .registry(telemetry.as_ref())
        .tracer(tracer.as_ref());
    if let Some(trace) = trace {
        instrumented = instrumented.trace(trace);
        resilient = resilient.trace(trace);
    }
    InvokerStack::new(directory)
        .layer(CatchPanicLayer::new())
        .layer(instrumented)
        .layer(resilient)
        .layer(
            DedupLayer::new(dedup)
                .registry(Arc::clone(telemetry))
                .enabled(dedup_enabled)
                .tracer(Arc::clone(tracer)),
        )
        .into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::tuple;
    use serena_core::value::Value;

    const SETUP: &str = "
        PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;
        PROTOTYPE getTemperature( ) : ( temperature REAL );
        SERVICE email IMPLEMENTS sendMessage;
        EXTENDED RELATION contacts (
          name STRING, address STRING, text STRING VIRTUAL,
          messenger SERVICE, sent BOOLEAN VIRTUAL
        ) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
        INSERT INTO contacts VALUES
          ('Nicolas', 'nicolas@elysee.fr', 'email'),
          ('Carla', 'carla@elysee.fr', 'email');
    ";

    fn pems_with_messenger() -> Pems {
        let pems = Pems::builder().bus(BusConfig::instant()).build();
        let (svc, _outbox) = serena_services::devices::messenger::SimMessenger::new(
            serena_services::devices::messenger::MessengerKind::Email,
        )
        .into_service();
        pems.directory().register("email", svc);
        pems
    }

    #[test]
    fn ddl_program_and_one_shot_execute() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        let outcomes = pems
            .run_program(
                "EXECUTE INVOKE[sendMessage[messenger]](ASSIGN[text := 'Hi'](SELECT[name = 'Nicolas'](contacts)));",
            )
            .unwrap();
        let ExecOutcome::OneShot(out) = &outcomes[0] else {
            panic!()
        };
        assert_eq!(out.relation.len(), 1);
        assert_eq!(out.actions.len(), 1);
    }

    #[test]
    fn register_continuous_query_via_ddl() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        pems.run_program("REGISTER QUERY watch AS SELECT[messenger = 'email'](contacts);")
            .unwrap();
        let reports = pems.tick();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].1.delta.inserts.len(), 2);
        // one-shot snapshot agrees with continuous state
        let rel = pems.processor().current_relation("watch").unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn discovery_query_maintains_provider_table() {
        let mut pems = Pems::builder().bus(BusConfig::instant()).build();
        pems.run_program(
            "PROTOTYPE getTemperature( ) : ( temperature REAL );
             EXTENDED RELATION sensors (
               sensor SERVICE, location STRING, temperature REAL VIRTUAL
             ) USING BINDING PATTERNS ( getTemperature[sensor] );",
        )
        .unwrap();
        pems.register_discovery("sensors", "getTemperature", "sensor")
            .unwrap();
        pems.register_query(
            "all_sensors",
            &serena_stream::plan::StreamPlan::source("sensors"),
        )
        .unwrap();

        // deploy a sensor through a LERM, with metadata
        let lerm = pems.local_erm("lab");
        lerm.register_service(
            "sensor01",
            serena_core::service::fixtures::temperature_sensor(1),
            pems.clock(),
        );
        pems.directory()
            .set("sensor01", "location", Value::str("corridor"));

        let reports = pems.tick(); // discovery applies, table refreshes, query sees row
        assert_eq!(reports[0].1.delta.inserts.len(), 1);
        // sensor leaves → row retracted
        lerm.unregister_service("sensor01", pems.clock());
        let reports = pems.tick();
        assert_eq!(reports[0].1.delta.deletes.len(), 1);
    }

    #[test]
    fn discovery_table_without_a_consumer_reads_the_same_on_every_tick() {
        // no registered query commits `sensors`, so every tick's refresh
        // lands on the previous tick's still-pending one
        let mut pems = Pems::builder().bus(BusConfig::instant()).build();
        pems.run_program(
            "PROTOTYPE getTemperature( ) : ( temperature REAL );
             EXTENDED RELATION sensors (
               sensor SERVICE, location STRING, temperature REAL VIRTUAL
             ) USING BINDING PATTERNS ( getTemperature[sensor] );",
        )
        .unwrap();
        pems.register_discovery("sensors", "getTemperature", "sensor")
            .unwrap();
        for name in ["sensor01", "sensor02"] {
            let sensor = serena_core::service::fixtures::temperature_sensor(1);
            pems.directory().register(name, sensor);
            pems.directory().set(name, "location", Value::str("lab"));
        }
        for tick in 0..5 {
            pems.tick();
            let out = pems.run_sql(None, "SELECT sensor FROM sensors").unwrap();
            let ExecOutcome::OneShot(out) = out else {
                panic!()
            };
            assert_eq!(out.relation.len(), 2, "tick {tick}");
        }
    }

    #[test]
    fn a_ddl_write_to_a_discovery_table_is_refused() {
        // the write used to be accepted and to last until the next
        // re-listing; the table is the directory's, not the user's
        let mut pems = Pems::builder().bus(BusConfig::instant()).build();
        pems.run_program(
            "PROTOTYPE getTemperature( ) : ( temperature REAL );
             EXTENDED RELATION sensors (
               sensor SERVICE, location STRING, temperature REAL VIRTUAL
             ) USING BINDING PATTERNS ( getTemperature[sensor] );
             EXTENDED RELATION rooms ( location STRING, floor INTEGER );",
        )
        .unwrap();
        pems.register_discovery("sensors", "getTemperature", "sensor")
            .unwrap();
        let sensor = serena_core::service::fixtures::temperature_sensor(1);
        pems.directory().register("sensor01", sensor);
        pems.directory()
            .set("sensor01", "location", Value::str("lab"));
        pems.tick();
        let sensors = |pems: &Pems| pems.tables().table("sensors").unwrap().relation();
        let before = sensors(&pems);
        assert_eq!(before.len(), 1);

        for write in [
            "INSERT INTO sensors VALUES ('ghost', 'attic');",
            "DELETE FROM sensors VALUES ('sensor01', 'lab');",
            // refused before its literals are typed against the schema
            "INSERT INTO sensors VALUES (1);",
        ] {
            let err = pems.run_program(write).unwrap_err();
            assert!(
                matches!(
                    &err,
                    PemsError::DiscoveryMaintained { table, prototype }
                        if table == "sensors" && prototype == "getTemperature"
                ),
                "{write}: {err}"
            );
            let message = err.to_string();
            assert!(message.contains("`sensors`") && message.contains("`getTemperature`"));
            assert_eq!(*sensors(&pems), *before, "{write}");
        }
        pems.tick();
        assert_eq!(*sensors(&pems), *before);

        // an ordinary table beside it is the user's to write
        pems.run_program("INSERT INTO rooms VALUES ('lab', 2), ('attic', 3);")
            .unwrap();
        pems.run_program("DELETE FROM rooms VALUES ('attic', 3);")
            .unwrap();
        assert_eq!(pems.tables().table("rooms").unwrap().relation().len(), 1);
        // and a table that does not exist is still "unknown", not "maintained"
        let err = pems
            .run_program("INSERT INTO ghost VALUES (1);")
            .unwrap_err();
        assert!(
            matches!(err, PemsError::Schema(SchemaError::UnknownRelation(_))),
            "{err}"
        );
    }

    /// A program stops at its first failing statement and leaves the
    /// statements before it applied.
    #[test]
    fn a_failing_statement_leaves_the_earlier_ones_applied() {
        let mut pems = Pems::default();
        let err = pems
            .run_program(
                "EXTENDED RELATION t ( x INTEGER );
                 INSERT INTO t VALUES (1);
                 INSERT INTO ghost VALUES (2);
                 INSERT INTO t VALUES (3);",
            )
            .unwrap_err();
        assert!(
            matches!(&err, PemsError::Schema(SchemaError::UnknownRelation(r)) if r == "ghost"),
            "{err:?}"
        );
        let t = pems.tables().table("t").expect("the table stays defined");
        assert_eq!(t.relation().tuples(), [tuple![1i64]]);
    }

    /// A DDL write to, or `DROP` of, a relation nobody defined is the typed
    /// `SchemaError::UnknownRelation` the table manager's API answers with.
    #[test]
    fn a_ddl_statement_on_an_unknown_relation_is_a_typed_error() {
        let mut pems = Pems::default();
        pems.run_program("EXTENDED RELATION t ( x INTEGER );")
            .unwrap();
        for statement in [
            "INSERT INTO ghost VALUES (1);",
            "DELETE FROM ghost VALUES (1);",
            "DROP RELATION ghost;",
        ] {
            let err = pems.run_program(statement).unwrap_err();
            assert!(
                matches!(&err, PemsError::Schema(SchemaError::UnknownRelation(r)) if r == "ghost"),
                "{statement}: {err:?}"
            );
            assert_eq!(err.to_string(), "unknown relation `ghost`");
        }
        // the relation beside it is untouched, and dropped only once
        pems.run_program("INSERT INTO t VALUES (1); DROP RELATION t;")
            .unwrap();
        let err = pems.run_program("DROP RELATION t;").unwrap_err();
        assert!(matches!(
            err,
            PemsError::Schema(SchemaError::UnknownRelation(_))
        ));
    }

    /// A discovery query over a table nobody defined is refused with the
    /// same typed error, and leaves no series behind.
    #[test]
    fn a_discovery_on_an_unknown_table_is_a_typed_error() {
        let mut pems = Pems::default();
        let err = pems
            .register_discovery("ghost", "getTemperature", "sensor")
            .unwrap_err();
        assert!(
            matches!(&err, PemsError::Schema(SchemaError::UnknownRelation(r)) if r == "ghost"),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "unknown relation `ghost`");
        assert!(!pems.render_metrics().contains("table=\"ghost\""));
    }

    #[test]
    fn query_names_taken_or_unknown_are_typed_errors() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        pems.run_program("REGISTER QUERY watch AS contacts;")
            .unwrap();
        let err = pems
            .run_program("REGISTER QUERY watch AS contacts;")
            .unwrap_err();
        assert!(
            matches!(&err, PemsError::DuplicateQuery(q) if q == "watch"),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "query `watch` already registered");
        assert_eq!(pems.processor().names(), ["watch"]);

        let err = pems.run_program("UNREGISTER QUERY ghost;").unwrap_err();
        assert!(
            matches!(&err, PemsError::UnknownQuery(q) if q == "ghost"),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "unknown query `ghost`");
        pems.run_program("UNREGISTER QUERY watch;").unwrap();
        assert!(pems.processor().names().is_empty());
    }

    #[test]
    fn insert_delete_via_ddl_affect_queries() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        pems.run_program("REGISTER QUERY watch AS contacts;")
            .unwrap();
        pems.tick();
        pems.run_program("DELETE FROM contacts VALUES ('Carla', 'carla@elysee.fr', 'email');")
            .unwrap();
        let reports = pems.tick();
        assert_eq!(reports[0].1.delta.deletes.len(), 1);
        assert_eq!(pems.processor().current_relation("watch").unwrap().len(), 1);
    }

    /// First column of a relation's rows, in the order it holds them.
    fn column(rel: &serena_core::xrelation::XRelation) -> Vec<String> {
        rel.iter().map(|t| t[0].to_string()).collect()
    }

    /// First column of a one-shot `SELECT`'s rows, in the order returned.
    fn first_column(pems: &mut Pems, sql: &str) -> Vec<String> {
        let ExecOutcome::OneShot(out) = pems.run_sql(None, sql).unwrap() else {
            panic!("`{sql}` is one-shot")
        };
        column(&out.relation)
    }

    /// A table's instant is shared: the statements between two writes to a
    /// table read one relation — whatever happens to other tables or to the
    /// clock — and a statement straight after a write sees it, while an
    /// environment taken before the write does not.
    #[test]
    fn statements_between_two_writes_share_a_tables_relation() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        pems.run_program("EXTENDED RELATION rooms ( room STRING, floor INTEGER );")
            .unwrap();
        const NAMES: &str = "SELECT name FROM contacts";
        let contacts = pems.tables().table("contacts").unwrap();
        let shared = contacts.relation();
        assert_eq!(first_column(&mut pems, NAMES), ["Carla", "Nicolas"]);
        pems.run_program("INSERT INTO rooms VALUES ('lab', 2);")
            .unwrap();
        pems.tick();
        assert_eq!(first_column(&mut pems, NAMES), ["Carla", "Nicolas"]);
        assert!(Arc::ptr_eq(&shared, &contacts.relation()));
        let env = pems.snapshot_environment();
        assert!(std::ptr::eq(env.relation("contacts").unwrap(), &*shared));
        assert_eq!(env.relation("rooms").unwrap().len(), 1);
        drop((shared, env));

        // a row enters at its sorted position, with the relation unheld …
        pems.run_program(
            "INSERT INTO contacts VALUES ('Francois', 'francois@im.gouv.fr', 'email');",
        )
        .unwrap();
        let all = ["Carla", "Francois", "Nicolas"];
        assert_eq!(first_column(&mut pems, NAMES), all);
        // … and leaves behind the back of whoever holds it
        let env = pems.snapshot_environment();
        pems.run_program("DELETE FROM contacts VALUES ('Carla', 'carla@elysee.fr', 'email');")
            .unwrap();
        assert_eq!(first_column(&mut pems, NAMES), ["Francois", "Nicolas"]);
        assert_eq!(column(env.relation("contacts").unwrap()), all);

        // a restore replaces the contents under the relation
        let bytes = pems.snapshot_bytes();
        pems.run_program("DELETE FROM contacts VALUES ('Nicolas', 'nicolas@elysee.fr', 'email');")
            .unwrap();
        assert_eq!(first_column(&mut pems, NAMES), ["Francois"]);
        pems.restore_bytes(&bytes).unwrap();
        assert_eq!(first_column(&mut pems, NAMES), ["Francois", "Nicolas"]);
    }

    /// Discovery writes through the same handle: a statement after the fold
    /// sees the fleet as the tick left it.
    #[test]
    fn a_statement_after_a_discovery_fold_sees_it() {
        let mut pems = Pems::builder().bus(BusConfig::instant()).build();
        pems.run_program(
            "PROTOTYPE getTemperature( ) : ( temperature REAL );
             EXTENDED RELATION sensors (
               sensor SERVICE, location STRING, temperature REAL VIRTUAL
             ) USING BINDING PATTERNS ( getTemperature[sensor] );",
        )
        .unwrap();
        pems.register_discovery("sensors", "getTemperature", "sensor")
            .unwrap();
        const SENSORS: &str = "SELECT sensor FROM sensors";
        let lerm = pems.local_erm("lab");
        let mut expected = Vec::new();
        for name in ["sensor07", "sensor02", "sensor05"] {
            let sensor = serena_core::service::fixtures::temperature_sensor(1);
            lerm.register_service(name, sensor, pems.clock());
            pems.directory().set(name, "location", Value::str("lab"));
            pems.tick();
            expected.push(name);
            expected.sort_unstable();
            assert_eq!(first_column(&mut pems, SENSORS), expected);
        }
        lerm.unregister_service("sensor05", pems.clock());
        pems.tick();
        assert_eq!(first_column(&mut pems, SENSORS), ["sensor02", "sensor07"]);
    }

    /// Executing a plan cannot write into a table: a scan lends the table's
    /// relation, ∪ — the one operator that grows an operand — copies a lent
    /// one first, and the one scan that still copies (the schema instance was
    /// replaced since compilation) leaves its source alone too.
    #[test]
    fn executing_a_plan_cannot_write_into_a_table() {
        use serena_core::physical::PhysicalPlan;
        use serena_core::tuple::Tuple;
        use serena_core::xrelation::XRelation;
        let mut pems = Pems::default();
        pems.run_program(
            "EXTENDED RELATION t ( x INTEGER, y STRING );
             EXTENDED RELATION u ( x INTEGER, y STRING );
             EXTENDED RELATION v ( x INTEGER, z STRING );
             INSERT INTO t VALUES (3, 'c'), (1, 'a'), (2, 'b');
             INSERT INTO u VALUES (2, 'b'), (4, 'd');
             INSERT INTO v VALUES (1, 'p'), (4, 'q');",
        )
        .unwrap();
        let [t, u, v] = ["t", "u", "v"].map(Plan::relation);
        let plans = [
            (t.clone().union(u.clone()), 4),
            (t.clone().intersect(u.clone()), 1),
            (t.clone().difference(u.clone()), 2),
            (t.clone().join(v), 1),
            (t.clone().union(t), 3),
            (u.clone().union(u.clone()).union(u), 2),
        ];
        let env = pems.snapshot_environment();
        let before: Vec<(String, Vec<Tuple>)> = env
            .relations()
            .map(|(name, rel)| (name.to_string(), rel.tuples().to_vec()))
            .collect();
        let nobody = serena_core::service::StaticRegistry::new();
        // the same tables under equivalent schemas built apart, columns
        // swapped: what a plan compiled against `env` must copy to scan
        let mut replaced = Environment::new();
        for name in ["t", "u", "v"] {
            let rel = env.relation(name).unwrap();
            let attrs = rel.schema().attrs().iter().rev();
            let schema = attrs
                .fold(serena_core::schema::XSchema::builder(), |b, a| {
                    b.real(a.name.as_str(), a.ty)
                })
                .build()
                .unwrap();
            let swapped = rel.iter().map(|t| Tuple::new([t[1].clone(), t[0].clone()]));
            replaced
                .define_relation(name, XRelation::from_tuples(schema, swapped))
                .unwrap();
        }
        let swapped_before: Vec<Vec<Tuple>> = replaced
            .relations()
            .map(|(_, rel)| rel.tuples().to_vec())
            .collect();
        for (plan, rows) in &plans {
            let physical = PhysicalPlan::compile(plan, &env).unwrap();
            let run = |env| physical.execute(&ExecContext::new(env, &nobody, Instant(0)));
            let (first, second) = (run(&env).unwrap(), run(&env).unwrap());
            assert_eq!(first.relation.len(), *rows, "{plan:?}");
            assert_eq!(first.relation.tuples(), second.relation.tuples());
            let copied = run(&replaced).unwrap();
            assert_eq!(copied.relation.tuples(), first.relation.tuples());
            assert_eq!(pems.one_shot(plan).unwrap().relation, first.relation);
        }
        // length, order and identity: each is still the table's own relation
        for (name, tuples) in &before {
            let rel = env.relation(name).unwrap();
            assert_eq!(rel.tuples(), tuples);
            let shared = pems.tables().table(name).unwrap().relation();
            assert!(std::ptr::eq(rel, &*shared), "{name}");
        }
        let swapped_after = replaced.relations().map(|(_, rel)| rel.tuples().to_vec());
        assert_eq!(swapped_after.collect::<Vec<_>>(), swapped_before);
        assert_eq!(first_column(&mut pems, "SELECT x FROM t"), ["1", "2", "3"]);
        assert_eq!(first_column(&mut pems, "SELECT x FROM u"), ["2", "4"]);
    }

    /// URSA is refused where the relation is defined — a defined table is
    /// never "unknown" to a statement — and a write to an undefined table
    /// says so.
    #[test]
    fn a_defined_table_is_known_to_every_statement() {
        let mut pems = Pems::default();
        pems.run_program("EXTENDED RELATION a ( x STRING );")
            .unwrap();
        let err = pems
            .run_program("EXTENDED RELATION b ( x INTEGER, y STRING );")
            .unwrap_err();
        assert!(
            matches!(&err, PemsError::Schema(SchemaError::UrsaViolation { attr, .. }) if attr == "x"),
            "{err}"
        );
        assert!(pems.tables().table("b").is_none());
        pems.run_program(
            "DROP RELATION a;
             EXTENDED RELATION b ( x INTEGER, y STRING );
             EXTENDED RELATION a ( z STRING );
             INSERT INTO b VALUES (1, 'q');",
        )
        .unwrap();
        assert_eq!(first_column(&mut pems, "SELECT y FROM b"), ["q"]);
        let err = pems.tables().insert("ghost", tuple![1]).unwrap_err();
        assert_eq!(err, SchemaError::UnknownRelation("ghost".into()));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut pems = Pems::default();
        assert!(pems.run_program("INSERT INTO ghost VALUES (1);").is_err());
        assert!(pems.run_program("DROP RELATION ghost;").is_err());
        assert!(pems
            .run_program("EXECUTE SELECT[x = 1](WINDOW[1](s));")
            .is_err());
        assert!(pems.run_program("this is not DDL").is_err());
    }

    /// A window/stream operator reaching a one-shot entry point is a typed
    /// plan error; `EXECUTE` says what to do instead.
    #[test]
    fn continuous_plans_are_refused_by_every_one_shot_entry_point() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        pems.run_program("EXTENDED RELATION s ( x INTEGER ) STREAM;")
            .unwrap();
        let is_status_mismatch = |e: &PemsError| {
            matches!(
                e,
                PemsError::Eval(EvalError::Plan(PlanError::StreamStatusMismatch { .. }))
            )
        };
        for plan in [
            Plan::source("s").window(1),
            Plan::source("contacts").stream(serena_stream::StreamKind::Heartbeat),
        ] {
            let err = pems.one_shot(&plan).unwrap_err();
            assert!(is_status_mismatch(&err), "{err}");
            let err = pems.explain_analyze(&plan).map(|_| ()).unwrap_err();
            assert!(is_status_mismatch(&err), "{err}");
        }
        let err = pems
            .run_program("EXECUTE SELECT[x = 1](WINDOW[1](s));")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "continuous expression (window/stream); use REGISTER QUERY"
        );
    }

    #[test]
    fn unregister_query_statement() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        pems.run_program("REGISTER QUERY watch AS contacts;")
            .unwrap();
        assert_eq!(pems.processor().names(), vec!["watch"]);
        pems.run_program("UNREGISTER QUERY watch;").unwrap();
        assert!(pems.processor().names().is_empty());
        assert!(pems.run_program("UNREGISTER QUERY watch;").is_err());
    }

    #[test]
    fn serena_sql_one_shot_and_continuous() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        // one-shot with WHERE-before-invocation semantics
        let outcome = pems
            .run_sql(
                None,
                "SELECT sent FROM contacts
                 WITH text := 'Hi'
                 USING sendMessage[messenger]
                 WHERE name = 'Nicolas'",
            )
            .unwrap();
        let ExecOutcome::OneShot(out) = outcome else {
            panic!()
        };
        assert_eq!(out.actions.len(), 1);
        assert_eq!(out.relation.len(), 1);

        // continuous: windowed source → auto-registered
        pems.run_program(
            "EXTENDED RELATION readings ( location STRING, temperature REAL ) STREAM;",
        )
        .unwrap();
        let outcome = pems
            .run_sql(
                None,
                "SELECT location FROM readings WINDOW 2 WHERE temperature > 30.0",
            )
            .unwrap();
        let ExecOutcome::Registered(name) = outcome else {
            panic!()
        };
        assert_eq!(name, "sql_1");
        pems.tables()
            .push_stream("readings", tuple!["office", 35.0]);
        let reports = pems.tick();
        let r = reports.iter().find(|(n, _)| *n == name).unwrap();
        assert_eq!(r.1.delta.inserts.len(), 1);

        // explicitly named registration
        let outcome = pems
            .run_sql(Some("hot2"), "SELECT location FROM readings WINDOW 1")
            .unwrap();
        assert!(matches!(outcome, ExecOutcome::Registered(n) if n == "hot2"));
        assert!(pems.processor().names().contains(&"hot2"));
        // name collisions are rejected
        assert!(pems
            .run_sql(Some("hot2"), "SELECT location FROM readings WINDOW 1")
            .is_err());
    }

    #[test]
    fn stream_relation_via_ddl_and_push() {
        let mut pems = Pems::default();
        pems.run_program(
            "EXTENDED RELATION readings ( location STRING, temperature REAL ) STREAM;
             REGISTER QUERY hot AS SELECT[temperature > 30.0](WINDOW[1](readings));",
        )
        .unwrap();
        assert!(pems
            .tables()
            .push_stream("readings", tuple!["office", 35.0]));
        let reports = pems.tick();
        assert_eq!(reports[0].1.delta.inserts.len(), 1);
    }

    #[test]
    fn explain_analyze_totals_match_result_cardinality() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        let plan = Plan::relation("contacts")
            .select(serena_core::formula::Formula::eq_const(
                "name",
                Value::str("Nicolas"),
            ))
            .assign_const("text", Value::str("Hi"))
            .invoke("sendMessage", "messenger");
        let ea = pems.explain_analyze(&plan).unwrap();

        // the annotated root agrees with the relation actually returned
        assert_eq!(
            ea.stats.root_tuples_out(),
            Some(ea.outcome.relation.len() as u64)
        );
        // one tuple survived the select, so exactly one β invocation
        assert_eq!(ea.stats.total_invocations(), 1);
        assert_eq!(ea.stats.total_failures(), 0);
        // rendering: one line per plan node, counts inline
        let lines: Vec<&str> = ea.rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Invoke sendMessage[messenger]"));
        assert!(lines[0].contains("rows=1"));
        assert!(lines[0].contains("invocations=1"));
        assert!(ea.to_string().contains("Relation contacts"));
    }

    #[test]
    fn builder_exec_options_apply_to_one_shot_and_continuous() {
        let build = |options: ExecOptions| {
            let mut pems = Pems::builder()
                .bus(BusConfig::instant())
                .exec_options(options)
                .build();
            let (svc, _outbox) = serena_services::devices::messenger::SimMessenger::new(
                serena_services::devices::messenger::MessengerKind::Email,
            )
            .into_service();
            pems.directory().register("email", svc);
            pems.run_program(SETUP).unwrap();
            // a contact whose messenger no provider implements
            pems.run_program("INSERT INTO contacts VALUES ('Denis', 'denis@elysee.fr', 'ghost');")
                .unwrap();
            pems
        };
        let plan = Plan::relation("contacts")
            .assign_const("text", Value::str("Hi"))
            .invoke("sendMessage", "messenger");

        let mut failing = build(ExecOptions::serial());
        let mut dropping =
            build(ExecOptions::serial().with_degrade(serena_core::ops::DegradePolicy::DropTuple));
        assert!(failing.one_shot(&plan).is_err());
        let b = dropping.one_shot(&plan).unwrap();
        assert_eq!(b.relation.len(), 2);

        // continuous registration inherits the runtime's options too
        for p in [&mut failing, &mut dropping] {
            p.run_program(
                "REGISTER QUERY send AS INVOKE[sendMessage[messenger]](ASSIGN[text := 'Hi'](contacts));",
            )
            .unwrap();
        }
        let ra = failing.tick();
        let rb = dropping.tick();
        assert_eq!(ra[0].1.errors.len(), 1);
        assert!(rb[0].1.errors.is_empty());
        assert_eq!(ra[0].1.delta, rb[0].1.delta);
        assert_eq!(rb[0].1.delta.inserts.len(), 2);
    }

    #[test]
    fn builder_configures_clock_and_observations_reach_the_registry() {
        let pems = Pems::builder()
            .bus(BusConfig::instant())
            .clock(Instant(7))
            .build();
        assert_eq!(pems.clock(), Instant(7));
        let applications = |pems: &Pems| {
            pems.metrics_registry()
                .counter_value("serena_op_applications_total", &[("op", "Relation")])
                .unwrap_or(0)
        };

        let mut pems = pems;
        let (svc, _outbox) = serena_services::devices::messenger::SimMessenger::new(
            serena_services::devices::messenger::MessengerKind::Email,
        )
        .into_service();
        pems.directory().register("email", svc);
        pems.run_program(SETUP).unwrap();

        // one-shot observations land in the registry...
        let before = applications(&pems);
        pems.one_shot(&Plan::relation("contacts")).unwrap();
        assert_eq!(applications(&pems), before + 1);
        assert_eq!(pems.run_ticks(1).len(), 0);

        // ...and a continuous tick's in its report and the registry
        pems.run_program("REGISTER QUERY watch AS contacts;")
            .unwrap();
        let before = applications(&pems);
        let reports = pems.tick();
        assert_eq!(reports.len(), 1);
        let stats = &reports[0].1.stats;
        let node = stats.node(serena_core::metrics::NodeId(0)).unwrap();
        assert_eq!(node.tuples_out, 2);
        assert_eq!(applications(&pems), before + 1);
        // ticks advanced the builder-seeded clock
        assert_eq!(pems.clock(), Instant(9));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("serena-pems-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn periodic_checkpoints_follow_the_cadence() {
        let dir = temp_dir("cadence");
        let mut pems = Pems::builder()
            .bus(BusConfig::instant())
            .checkpoint(&dir, 2)
            .build();
        let (svc, _outbox) = serena_services::devices::messenger::SimMessenger::new(
            serena_services::devices::messenger::MessengerKind::Email,
        )
        .into_service();
        pems.directory().register("email", svc);
        pems.run_program(SETUP).unwrap();
        pems.run_program("REGISTER QUERY watch AS contacts;")
            .unwrap();
        pems.run_ticks(5);
        let rm = pems.recovery().expect("configured");
        assert_eq!(rm.checkpoints_written(), 2); // after ticks 2 and 4
        assert!(rm.checkpoint_path().exists());
        assert_eq!(
            pems.metrics_registry()
                .counter_value("serena_checkpoint_total", &[]),
            Some(2)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_resumes_exactly_where_the_checkpoint_cut() {
        let dir = temp_dir("restore");
        let setup = || {
            let mut pems = pems_with_messenger();
            pems.run_program(SETUP).unwrap();
            pems.run_program("REGISTER QUERY watch AS SELECT[messenger = 'email'](contacts);")
                .unwrap();
            pems
        };

        let mut original = setup();
        original.run_ticks(2);
        original
            .run_program("DELETE FROM contacts VALUES ('Carla', 'carla@elysee.fr', 'email');")
            .unwrap();
        original.checkpoint_to(&dir).unwrap(); // pending delete captured

        // crash: re-run the static setup on a fresh process, rehydrate
        let mut recovered = setup();
        recovered.restore_from(&dir).unwrap();
        assert_eq!(recovered.clock(), original.clock());
        assert_eq!(
            recovered.processor().stats("watch"),
            original.processor().stats("watch")
        );

        // both runtimes tick forward in lock-step: the pending delete
        // commits identically
        let a = original.tick();
        let b = recovered.tick();
        assert_eq!(a[0].1.delta, b[0].1.delta);
        assert_eq!(a[0].1.delta.deletes.len(), 1);
        assert_eq!(
            recovered.processor().current_relation("watch").unwrap(),
            original.processor().current_relation("watch").unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_errors_are_reported_not_fatal() {
        // no configured manager → checkpoint_now is a typed error
        let mut pems = pems_with_messenger();
        assert!(matches!(pems.checkpoint_now(), Err(PemsError::Other(_))));
        // restoring garbage is a typed snapshot error
        assert!(matches!(
            pems.restore_bytes(b"not a snapshot"),
            Err(PemsError::Snapshot(_))
        ));
        // a checkpoint directory that cannot be created is counted and
        // traced, and the tick still succeeds
        use serena_core::telemetry::MemoryTrace;
        let trace = Arc::new(MemoryTrace::new());
        let mut pems = Pems::builder()
            .bus(BusConfig::instant())
            .trace(trace.clone())
            .checkpoint("/proc/serena-cannot-write-here", 1)
            .build();
        pems.run_program("EXTENDED RELATION t ( x INTEGER );")
            .unwrap();
        pems.run_program("REGISTER QUERY q AS t;").unwrap();
        let reports = pems.tick();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            pems.metrics_registry()
                .counter_value("serena_checkpoint_errors_total", &[]),
            Some(1)
        );
        assert!(trace.events().iter().any(|e| matches!(
            e,
            serena_core::telemetry::TraceEvent::Failure { scope, .. } if scope == "checkpoint"
        )));
    }

    /// Acceptance (PR 3): `service_health()` reflects injected
    /// [`FaultPolicy`] failures and `render_metrics()` produces valid
    /// Prometheus text for a scenario run.
    #[test]
    fn telemetry_health_and_prometheus_render() {
        use serena_core::telemetry::{MemoryTrace, TraceEvent};
        use serena_services::faults::{FaultPolicy, FaultyService};
        use serena_services::health::HealthStatus;

        let trace = Arc::new(MemoryTrace::new());
        let mut pems = Pems::builder()
            .bus(BusConfig::instant())
            .trace(trace.clone())
            .build();
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

        // the configured trace sink saw the failed invocations
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Invocation { ok: false, .. })));
    }
}
