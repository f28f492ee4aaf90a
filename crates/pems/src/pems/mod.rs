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
//! 3. every derived stream a query reads evaluates the instant, in
//!    definition order, and pushes its batch into its hub — the one way the
//!    environment enters a stream ([`Pems::define_stream_as`]);
//! 4. every registered continuous query evaluates the instant;
//! 5. the tick is complete, so a snapshot cut here is consistent: one is
//!    written if a checkpoint is due and streamed to a linked standby.
//!
//! This module owns the runtime, its registrations, its links to other
//! nodes and that phase order; each other concern is a submodule:
//! `builder`, `beta` (the β invoker stack), `statements`, `checkpoint` and
//! `introspection`.

mod beta;
mod builder;
mod checkpoint;
mod introspection;
mod statements;

pub use builder::PemsBuilder;
pub use statements::ExplainAnalyze;

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use serena_core::error::{EvalError, PlanError, SchemaError};
use serena_core::eval::EvalOutcome;
use serena_core::ops::DegradePolicy;
use serena_core::physical::ExecOptions;
use serena_core::snapshot::SnapshotError;
use serena_core::telemetry::RegistrySink;
use serena_core::time::Instant;
use serena_ddl::DdlError;
use serena_services::bus::{DiscoveryBus, LocalErm};
use serena_services::directory::{NodeDirectory, PeerStatus};
use serena_services::discovery::{Applied, DiscoveryQuery};
use serena_services::node::{NodeHandle, RemoteNodeClient, ServiceNode};
use serena_services::transport::{Transport, TransportError};
use serena_stream::exec::{ContinuousQuery, TickReport};
use serena_stream::plan::StreamPlan;

use crate::processor::QueryProcessor;
use crate::recovery::RecoveryManager;
use crate::scheduler::SchedulerConfig;
use crate::table_manager::ExtendedTableManager;
use beta::BetaStack;

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
    /// A DDL `INSERT`, `DELETE` or `DROP` named a table a discovery query
    /// maintains ([`Pems::register_discovery`]): its rows are the
    /// directory's providers of `prototype`, a user's write would last only
    /// until the next re-listing, and a dropped table would leave the
    /// discovery folding into a name it no longer owns.
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
                 deploy or withdraw the service instead of writing the table"
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
    /// Bridges per-operator observations into the registry.
    telemetry_sink: RegistrySink,
    /// What every β invoker stack is built from: the registry, health,
    /// tracers, breakers and dedup memo.
    beta: BetaStack,
    /// Periodic checkpoint writer, when configured via
    /// [`PemsBuilder::checkpoint`].
    recovery: Option<RecoveryManager>,
    /// Size of the last snapshot, used to preallocate the next one.
    snapshot_size_hint: AtomicUsize,
}

impl Default for Pems {
    fn default() -> Self {
        Pems::builder().build()
    }
}

impl Pems {
    /// Start building a PEMS (bus config, clock, options).
    pub fn builder() -> PemsBuilder {
        PemsBuilder::default()
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
    /// [`PemsBuilder::checkpoint`] cadence).
    /// The standby retrieves the latest snapshot via
    /// [`NodeHandle::last_checkpoint`] and resumes a dead primary with
    /// [`Pems::restore_bytes`]. A failed send is counted
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
        for series in [
            "serena_discovery_relist_total",
            "serena_discovery_reconciled_total",
        ] {
            self.beta.telemetry.counter(series, &[("table", table)]);
        }
        Ok(())
    }

    /// Define stream `name` as the output of `plan`, a continuous plan
    /// whose output is infinite — e.g. §5.2's temperatures,
    /// `S[heartbeat](π_{location,temperature}(W[1](βˢ[1]_{getTemperature[sensor]}(sensors))))`.
    /// At every instant a query reads `name`, the plan ticks before the
    /// queries, through the same β stack, and its batch is pushed into the
    /// stream's hub, which every reader shares. A call that fails or panics
    /// drops its row ([`DegradePolicy::DropTuple`]); while no query reads
    /// the stream, the plan does not tick and calls nothing. Its state is
    /// checkpointed with the queries'; it reports no tick of its own, and
    /// the stream takes no [`ExtendedTableManager::push_stream`].
    pub fn define_stream_as(
        &mut self,
        name: impl Into<String>,
        plan: &StreamPlan,
    ) -> Result<(), PemsError> {
        let options = ExecOptions::default().with_degrade(DegradePolicy::DropTuple);
        let mut sources = self.tables.source_set_for(plan);
        let query = ContinuousQuery::compile_with_options(plan, &mut sources, options)?;
        let schema = query.schema();
        if !schema.infinite {
            return Err(PlanError::StreamStatusMismatch {
                operator: "stream definition",
                detail: "a stream is defined by a plan whose output is infinite".into(),
            }
            .into());
        }
        let name = name.into();
        let hub = self
            .tables
            .define_stream(name.clone(), schema.schema.clone(), true)?;
        self.processor.define_stream(name, query, hub);
        Ok(())
    }

    /// Register a continuous query by name and plan. The query runs with
    /// the runtime's configured [`ExecOptions`].
    pub fn register_query(
        &mut self,
        name: impl Into<String>,
        plan: &StreamPlan,
    ) -> Result<(), PemsError> {
        let mut sources = self.tables.source_set_for(plan);
        self.processor
            .register(name, plan, &mut sources, self.exec_options)
    }

    /// Register a batch of continuous queries in declaration order,
    /// returning the registered names — the ergonomic path for
    /// [`crate::envspec::WorkloadSpec`]-sized workloads (hundreds of
    /// queries).
    pub fn register_queries<I, S>(&mut self, queries: I) -> Result<Vec<String>, PemsError>
    where
        I: IntoIterator<Item = (S, StreamPlan)>,
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

    /// Advance one logical instant (see the module docs for the phase
    /// order). Returns each registered query's tick report.
    pub fn tick(&mut self) -> Vec<(String, TickReport)> {
        let now = self.processor.clock();
        let telemetry = &self.beta.telemetry;
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
            telemetry.counter(series, &[("table", table)]).add(n);
        }
        // 3 and 4. evaluate the derived streams, then every continuous query,
        // at `now`, through the same stack one-shot queries use, with dedup
        // armed for the instant (disjoint field borrows: the stack must not
        // borrow all of `self` while the processor ticks mutably)
        let invoker = self.beta.tick_round(&self.directory);
        let panicked = self.processor.tick_streams(&*invoker, &self.telemetry_sink);
        for (stream, reason) in &panicked {
            self.trace_failure("stream", now, &format_args!("{stream}: {reason}"));
        }
        let reports = self
            .processor
            .tick_all_with(&*invoker, &self.telemetry_sink);
        drop(invoker);
        // every subscription has polled: what a hub still holds is what a
        // live subscription skipped
        for (stream, retained) in self.tables.hub_retention() {
            telemetry
                .gauge("serena_hub_retained_tuples", &[("stream", &stream)])
                .set(retained as i64);
        }
        // 5. checkpoint and replicate
        self.checkpoint_and_replicate(now);
        reports
    }

    /// Record that `scope` failed at `at`: a `pems.failure` span, opened
    /// and closed at once, carrying `scope` and the error's `message`.
    fn trace_failure(&self, scope: &'static str, at: Instant, error: &dyn std::fmt::Display) {
        if let Some(mut span) = self.beta.tracer.start("pems.failure", at) {
            span.attr_str("scope", scope);
            span.attr_str("message", error.to_string());
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

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use serena_core::plan::SchemaCatalog;
    use serena_core::tuple;
    use serena_core::value::Value;
    use serena_services::bus::BusConfig;
    use serena_stream::plan::StreamKind;

    pub(super) const SETUP: &str = "
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

    pub(super) fn pems_with_messenger() -> Pems {
        let pems = Pems::builder().bus(BusConfig::instant()).build();
        let (svc, _outbox) = serena_services::devices::messenger::SimMessenger::new(
            serena_services::devices::messenger::MessengerKind::Email,
        )
        .into_service();
        pems.directory().register("email", svc);
        pems
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

    /// A derived stream needs a plan whose output is infinite and a fresh
    /// name; refused either way, it leaves nothing defined. Defined, it
    /// takes no push: its plan alone feeds it.
    #[test]
    fn a_stream_is_derived_from_an_infinite_plan_under_a_fresh_name() {
        let mut pems = pems_with_messenger();
        pems.run_program(SETUP).unwrap();
        let finite = StreamPlan::source("contacts");
        let err = pems.define_stream_as("s", &finite).unwrap_err();
        assert!(
            matches!(err, PemsError::Plan(PlanError::StreamStatusMismatch { .. })),
            "{err:?}"
        );
        let derived = finite.project(["name"]).stream(StreamKind::Insertion);
        let err = pems.define_stream_as("contacts", &derived).unwrap_err();
        assert!(
            matches!(&err, PemsError::Schema(SchemaError::DuplicateRelation(n)) if n == "contacts"),
            "{err:?}"
        );
        assert!(pems.tables().schema_of("s").is_none());
        pems.define_stream_as("s", &derived).unwrap();
        assert!(pems.tables().schema_of("s").unwrap().infinite);
        assert!(!pems.tables().push_stream("s", tuple!["Nicolas"]));
    }

    /// A derived stream whose tick panics pushes nothing at that instant,
    /// and the failure is traced; its readers tick, and so does the stream
    /// at the next instant.
    #[test]
    fn a_panicking_derived_stream_pushes_nothing_and_is_traced() {
        let mut pems = Pems::default();
        let schema = serena_core::schema::XSchema::builder()
            .real("x", serena_core::value::DataType::Int)
            .real("y", serena_core::value::DataType::Int)
            .build()
            .unwrap();
        let s = pems.tables().define_push_stream("s", schema).unwrap();
        let plan = StreamPlan::source("s").window(1).project(["y"]);
        let derived = plan.stream(StreamKind::Insertion);
        pems.define_stream_as("ys", &derived).unwrap();
        let reader = StreamPlan::source("ys").window(1);
        pems.register_query("reader", &reader).unwrap();
        // a tuple one short, past `push_stream`'s check: π cannot take its `y`
        s.push(tuple![1]);
        let reports = pems.tick();
        assert!(reports[0].1.errors.is_empty());
        assert!(reports[0].1.delta.inserts.is_empty());
        let spans = pems.flight_recorder().snapshot();
        let failed = spans.iter().find(|s| s.name == "pems.failure").unwrap();
        assert_eq!(failed.attr_str("scope"), Some("stream"));
        assert!(pems.tables().push_stream("s", tuple![2, 7]));
        let reports = pems.tick();
        assert_eq!(reports[0].1.delta.inserts.len(), 1);
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
}
