//! The system under test: every call the benchmark makes into the product.
//!
//! This is the only module that names `serena_*` types. Everything else
//! talks to it through [`model`](crate::model) values and the opaque
//! handles below, so a product API rename is a diff to this file alone.
//! It uses the public API only and nothing from `serena_bench`.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant as Wall;

use serena_core::dedup::{DedupLayer, DedupState};
use serena_core::env::Environment;
use serena_core::eval::EvalOutcome;
use serena_core::exec::ExecContext;
use serena_core::formula::Formula;
use serena_core::metrics::NoopMetrics;
use serena_core::ops::{AggFun, AggSpec, DegradePolicy};
use serena_core::physical::{ExecOptions, PhysicalPlan};
use serena_core::plan::Plan;
use serena_core::prototype::Prototype;
use serena_core::rewrite::optimize;
use serena_core::schema::XSchema;
use serena_core::service::{CatchPanicLayer, Invoker, InvokerStack};
use serena_core::sync::Mutex;
use serena_core::telemetry::{InstrumentedLayer, MetricsRegistry, NoopTrace};
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::{DataType, ServiceRef, Value};
use serena_pems::hub::StreamHub;
use serena_pems::pems::{ExecOutcome, Pems};
use serena_pems::scheduler::{SchedulerConfig, WorkerPool};
use serena_services::bus::{BusConfig, LocalErm};
use serena_services::devices::camera::SimCamera;
use serena_services::devices::messenger::{MessengerKind, SentMessage, SimMessenger};
use serena_services::devices::temperature::SimTemperatureSensor;
use serena_services::directory::NodeDirectory;
use serena_services::fleet::{mix64, FailureProfile, FlakyService};
use serena_services::health::HealthTracker;
use serena_services::node::ServiceNode;
use serena_services::resilience::{ResiliencePolicy, ResilienceState, ResilientLayer};
use serena_services::transport::frame::Frame;
use serena_services::transport::{InProcTransport, SocketTransport, Transport};
use serena_stream::exec::{ContinuousQuery, TickReport};
use serena_stream::plan::StreamPlan;

use crate::model::{Agg, Cell, OpOutcome, QuerySpec, Row};
use crate::oracle::Fnv;

/// Environment variables the product reads ad hoc; any of them set would
/// silently change what is measured.
pub const PRODUCT_ENV_KNOBS: [&str; 7] = [
    "SERENA_ADAPTIVE",
    "SERENA_TRANSPORT",
    "SERENA_TRACE",
    "SERENA_TRACE_CAPACITY",
    "SERENA_SCHED_WORKERS",
    "SERENA_SCHED_DEDUP",
    "SERENA_NODE_ID",
];

const CATALOG: &str = "
    PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;
    PROTOTYPE getTemperature( ) : ( temperature REAL );
    PROTOTYPE checkPhoto( area STRING ) : ( quality INTEGER, delay REAL );
    EXTENDED RELATION sensors (
      sensor SERVICE, location STRING, temperature REAL VIRTUAL
    ) USING BINDING PATTERNS ( getTemperature[sensor] ( ) : ( temperature ) );
    EXTENDED RELATION cameras (
      camera SERVICE, area STRING, quality INTEGER VIRTUAL, delay REAL VIRTUAL
    ) USING BINDING PATTERNS ( checkPhoto[camera] ( area ) : ( quality, delay ) );
    EXTENDED RELATION contacts (
      name STRING, address STRING, location STRING, text STRING VIRTUAL,
      messenger SERVICE, sent BOOLEAN VIRTUAL
    ) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
    EXTENDED RELATION rooms ( location STRING, floor INTEGER, owner STRING );
";

/// What distinguishes one workload's runtime from another's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Scheduler worker-pool width.
    pub workers: usize,
    /// Sensors fail by a zipf profile (head 20 %), the resilience layer is
    /// armed (2 retries, breaker, no backoff sleep) and β null-fills.
    pub flaky: bool,
}

/// The fleet and the initial table contents, as generated from the seed.
pub struct Environment0 {
    pub fleet_seed: u64,
    pub areas: Vec<String>,
    pub sensors: usize,
    pub cameras: usize,
    pub messengers: usize,
    /// `(name, address, location, messenger)` rows.
    pub contacts: Vec<Row>,
    /// `(location, floor, owner)` rows.
    pub rooms: Vec<Row>,
}

/// A pre-materialised arrival batch for `readings`.
#[derive(Clone)]
pub struct Batch(Vec<Tuple>);

impl Batch {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// A pre-materialised table row.
#[derive(Clone)]
pub struct TableRow(Tuple);

/// What a tick returned, before it is summarised outside the timed region.
pub struct TickOut(Vec<(String, TickReport)>);

/// What a statement returned.
pub struct StmtOut(Result<Vec<ExecOutcome>, String>);

fn value_of(c: &Cell) -> Value {
    match c {
        Cell::S(s) => Value::str(s),
        Cell::Svc(s) => Value::service(s),
        Cell::I(i) => Value::Int(*i),
        Cell::R(r) => Value::Real(*r),
        Cell::B(b) => Value::Bool(*b),
    }
}

fn cell_of(v: &Value) -> Cell {
    match v {
        Value::Bool(b) => Cell::B(*b),
        Value::Int(i) => Cell::I(*i),
        Value::Real(r) => Cell::R(*r),
        Value::Str(s) => Cell::S(s.to_string()),
        Value::Service(s) => Cell::Svc(s.as_str().to_string()),
        Value::Blob(b) => Cell::I(b.as_slice().len() as i64),
    }
}

fn tuple_of(row: &Row) -> Tuple {
    Tuple::new(row.iter().map(value_of).collect::<Vec<_>>())
}

/// Materialise a generated batch as product tuples (before timing starts).
pub fn batch_of(rows: &[Row]) -> Batch {
    Batch(rows.iter().map(tuple_of).collect())
}

/// Materialise one table row.
pub fn table_row_of(row: &Row) -> TableRow {
    TableRow(tuple_of(row))
}

fn hash_tuple(t: &Tuple) -> u64 {
    let mut h = Fnv::new();
    for v in t.values() {
        // a type tag, then the value; reals on the oracle's 10⁻⁶ grid
        match v {
            Value::Bool(b) => h.bytes(&[0, u8::from(*b)]),
            Value::Int(i) => {
                h.byte(1);
                h.u64(*i as u64);
            }
            Value::Real(r) => {
                h.byte(2);
                h.u64((r * 1e6).round() as i64 as u64);
            }
            Value::Str(s) => {
                h.byte(3);
                h.bytes(s.as_bytes());
            }
            Value::Service(s) => {
                h.byte(4);
                h.bytes(s.as_str().as_bytes());
            }
            Value::Blob(b) => {
                h.byte(5);
                h.u64(b.as_slice().len() as u64);
            }
        }
    }
    h.finish()
}

/// Order-independent hash of a bag of tuples: the per-tuple hashes are
/// summed, so no sort is needed to make two runs agree.
fn hash_bag<'a>(tuples: impl Iterator<Item = (&'a Tuple, usize)>) -> u64 {
    tuples.fold(0u64, |acc, (t, n)| {
        acc.wrapping_add(hash_tuple(t).wrapping_mul(n as u64))
    })
}

fn plan_of(spec: &QuerySpec) -> StreamPlan {
    let readings = |w: u64| StreamPlan::source("readings").window(w);
    match spec {
        QuerySpec::Window { window } => readings(*window),
        QuerySpec::Hot { window, theta } => {
            readings(*window).select(Formula::gt_const("temperature", *theta))
        }
        QuerySpec::Area { window, area } => {
            readings(*window).select(Formula::eq_const("location", area.as_str()))
        }
        QuerySpec::Locations { window } => readings(*window).project(["location"]),
        QuerySpec::Inventory => StreamPlan::source("sensors"),
        QuerySpec::ContactsWatch => StreamPlan::source("contacts"),
        QuerySpec::GroupBy { window, agg } => {
            let fun = match agg {
                Agg::Avg => AggFun::Avg,
                Agg::Max => AggFun::Max,
                Agg::Count => AggFun::Count,
            };
            readings(*window).aggregate(["location"], vec![AggSpec::new(fun, "temperature")])
        }
        QuerySpec::JoinRooms { window, theta } => readings(*window)
            .select(Formula::gt_const("temperature", *theta))
            .join(StreamPlan::source("rooms")),
        QuerySpec::UnionRooms { window } => readings(*window)
            .project(["location"])
            .union(StreamPlan::source("rooms").project(["location"])),
        QuerySpec::RoomsMinusSeen { window } => StreamPlan::source("rooms")
            .project(["location"])
            .difference(readings(*window).project(["location"])),
        QuerySpec::Sample => {
            StreamPlan::source("sensors").sample_invoke("getTemperature", "sensor", 1)
        }
        QuerySpec::CameraCheck => StreamPlan::source("cameras").invoke("checkPhoto", "camera"),
        QuerySpec::Alert { theta } => StreamPlan::source("contacts")
            .join(readings(1).select(Formula::gt_const("temperature", *theta)))
            .assign_const("text", "Temperature alert!")
            .invoke("sendMessage", "messenger"),
    }
}

fn resilience_policy(flaky: bool) -> ResiliencePolicy {
    if flaky {
        // armed, but without backoff sleeps: no latency is injected
        ResiliencePolicy::standard()
            .with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO)
    } else {
        ResiliencePolicy::disabled()
    }
}

/// One PEMS runtime with the benchmark's catalog.
pub struct Runtime {
    pems: Pems,
    config: RuntimeConfig,
    lerm: LocalErm,
    fleet_seed: u64,
    fleet_size: usize,
    areas: Vec<String>,
    /// Names of the sensors currently deployed, oldest first.
    alive: std::collections::VecDeque<String>,
    next_sensor: usize,
    outboxes: Vec<Arc<Mutex<Vec<SentMessage>>>>,
    /// The `readings` hub, kept to read its log length.
    readings: Option<StreamHub>,
}

impl Runtime {
    /// `Pems::builder()` with the fixed configuration of the benchmark:
    /// `workers` scheduler threads, dedup on, span tracing off, adaptive
    /// off, no transport, β parallelism 1.
    pub fn build(config: RuntimeConfig) -> Runtime {
        let mut options = ExecOptions::serial();
        if config.flaky {
            options = options.with_degrade(DegradePolicy::NullFill);
        }
        let pems = Pems::builder()
            .bus(BusConfig::instant())
            .scheduler(SchedulerConfig::new(config.workers))
            .dedup(true)
            .tracing(false)
            .exec_options(options)
            .resilience(resilience_policy(config.flaky))
            .build();
        let lerm = pems.local_erm("bench");
        Runtime {
            pems,
            config,
            lerm,
            fleet_seed: 0,
            fleet_size: 0,
            areas: Vec::new(),
            alive: std::collections::VecDeque::new(),
            next_sensor: 0,
            outboxes: Vec::new(),
            readings: None,
        }
    }

    /// Declare prototypes, tables, the `readings` push stream and the two
    /// discovery queries.
    pub fn declare(&mut self) -> Result<(), String> {
        self.pems.run_program(CATALOG).map_err(|e| e.to_string())?;
        let readings = XSchema::builder()
            .real("location", DataType::Str)
            .real("temperature", DataType::Real)
            .build()
            .map_err(|e| e.to_string())?;
        self.readings = Some(
            self.pems
                .tables()
                .define_push_stream("readings", readings)
                .map_err(|e| e.to_string())?,
        );
        self.pems
            .register_discovery("sensors", "getTemperature", "sensor")
            .map_err(|e| e.to_string())?;
        self.pems
            .register_discovery("cameras", "checkPhoto", "camera")
            .map_err(|e| e.to_string())
    }

    fn sensor_name(index: usize) -> String {
        format!("sensor{index:05}")
    }

    fn deploy_sensor(&mut self, index: usize) {
        let name = Runtime::sensor_name(index);
        let area = self.areas[index % self.areas.len()].clone();
        let mut svc =
            SimTemperatureSensor::room(self.fleet_seed.wrapping_add(index as u64)).into_service();
        if self.config.flaky {
            // rank by slot in the original fleet so churned-in sensors
            // keep the zipf shape
            let slot = (index % self.fleet_size.max(1)) as u64;
            let rate = FailureProfile::new(0.2, 1.0).rate_for(
                self.fleet_seed,
                slot,
                self.fleet_size as u64,
            );
            svc = FlakyService::wrap(svc, mix64(self.fleet_seed, index as u64, 0xF1EE7), rate);
        }
        self.lerm
            .register_service(name.clone(), svc, self.pems.clock());
        self.pems
            .directory()
            .set(name.clone(), "location", Value::str(&area));
        self.alive.push_back(name);
    }

    /// Register the fleet behind the benchmark's LERM and load `contacts`
    /// and `rooms`.
    pub fn deploy(&mut self, env: &Environment0) -> Result<(), String> {
        self.fleet_seed = env.fleet_seed;
        self.fleet_size = env.sensors;
        self.areas = env.areas.clone();
        for i in 0..env.sensors {
            self.deploy_sensor(i);
        }
        self.next_sensor = env.sensors;
        let now = self.pems.clock();
        let directory = self.pems.directory();
        for i in 0..env.cameras {
            let name = format!("camera{i:04}");
            let area = env.areas[i % env.areas.len()].as_str();
            let camera = SimCamera::new(&name, env.fleet_seed.wrapping_add(i as u64), &[area]);
            self.lerm
                .register_service(name.clone(), camera.into_service(), now);
            directory.set(name, "area", Value::str(area));
        }
        // both kinds deliver to the `name@host` addresses of `contacts`
        const KINDS: [MessengerKind; 2] = [MessengerKind::Email, MessengerKind::Jabber];
        for i in 0..env.messengers {
            let (svc, outbox) = SimMessenger::new(KINDS[i % KINDS.len()]).into_service();
            self.lerm
                .register_service(format!("messenger{i:02}"), svc, now);
            self.outboxes.push(outbox);
        }
        for row in &env.contacts {
            self.pems
                .tables()
                .insert("contacts", tuple_of(row))
                .map_err(|e| e.to_string())?;
        }
        for row in &env.rooms {
            self.pems
                .tables()
                .insert("rooms", tuple_of(row))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// `Pems::register_query` for one spec.
    pub fn register(&mut self, name: &str, spec: &QuerySpec) -> Result<(), String> {
        self.pems
            .register_query(name, &plan_of(spec))
            .map_err(|e| e.to_string())
    }

    /// Push one instant's arrivals into `readings`.
    pub fn push(&self, batch: Batch) {
        let tables = self.pems.tables();
        for t in batch.0 {
            tables.push_stream("readings", t);
        }
    }

    /// Queue a `rooms` insertion.
    pub fn insert_room(&self, row: TableRow) {
        let _ = self.pems.tables().insert("rooms", row.0);
    }

    /// Queue a `rooms` deletion.
    pub fn delete_room(&self, row: TableRow) {
        let _ = self.pems.tables().delete("rooms", row.0);
    }

    /// The `n` oldest sensors leave and `n` new ones join through the LERM.
    pub fn churn(&mut self, n: usize) {
        let now = self.pems.clock();
        for _ in 0..n {
            if let Some(name) = self.alive.pop_front() {
                self.lerm.unregister_service(name, now);
            }
        }
        for _ in 0..n {
            let index = self.next_sensor;
            self.next_sensor += 1;
            self.deploy_sensor(index);
        }
    }

    /// Sensors currently deployed.
    pub fn sensors_alive(&self) -> usize {
        self.alive.len()
    }

    /// `Pems::tick()`.
    pub fn tick(&mut self) -> TickOut {
        TickOut(self.pems.tick())
    }

    /// One `run_sql` (for a `SELECT`) or `run_program` call.
    pub fn statement(&mut self, text: &str, is_select: bool) -> StmtOut {
        StmtOut(if is_select {
            self.pems
                .run_sql(None, text)
                .map(|o| vec![o])
                .map_err(|e| e.to_string())
        } else {
            self.pems.run_program(text).map_err(|e| e.to_string())
        })
    }

    /// A registered finite query's current relation: its attribute names
    /// and its tuples in that column order.
    pub fn relation(&self, query: &str) -> Option<(Vec<String>, BTreeSet<Row>)> {
        let rel = self.pems.processor().current_relation(query)?;
        let names = rel.schema().real_names().map(ToString::to_string).collect();
        let rows = rel
            .iter()
            .map(|t| t.values().map(cell_of).collect())
            .collect();
        Some((names, rows))
    }

    /// `(hits, misses)` of the cross-query dedup layer.
    pub fn dedup_stats(&self) -> (u64, u64) {
        self.pems.dedup_stats()
    }

    /// Summed `QueryStats` of the named queries.
    pub fn query_totals(&self, names: &[String]) -> QueryTotals {
        let mut out = QueryTotals::default();
        for n in names {
            if let Some(s) = self.pems.processor().stats(n) {
                out.ticks += s.ticks;
                out.invocations += s.invocations;
                out.actions += s.actions;
                out.errors += s.errors;
                out.cache_hits += s.cache_hits;
                out.cache_misses += s.cache_misses;
                out.inserted += s.inserted;
                out.deleted += s.deleted;
            }
        }
        out
    }

    /// `(retries, breaker trips, breaker-rejected calls)`.
    pub fn resilience_counts(&self) -> (u64, u64, u64) {
        let c = self.pems.resilience_counters();
        (c.retries, c.breaker_opened, c.rejected)
    }

    /// Degraded (null-filled) invocations, from the operator counters.
    pub fn degraded_total(&self) -> u64 {
        self.pems
            .metrics_registry()
            .sum_counters("serena_beta_degraded_total")
    }

    /// Messages delivered to all messenger outboxes.
    pub fn outbox_total(&self) -> u64 {
        self.outboxes.iter().map(|o| o.lock().len() as u64).sum()
    }

    /// Tuples the `readings` hub retains (its log is append-only).
    pub fn hub_len(&self) -> u64 {
        self.readings.as_ref().map_or(0, |h| h.len() as u64)
    }

    /// `serena_sched_steals_total`.
    pub fn steals(&self) -> u64 {
        self.pems
            .metrics_registry()
            .counter_value("serena_sched_steals_total", &[])
            .unwrap_or(0)
    }

    /// `render_metrics()`.
    pub fn scrape(&self) -> String {
        self.pems.render_metrics()
    }

    /// Arm or disarm the product's span tracer.
    pub fn set_span_tracing(&mut self, on: bool) {
        self.pems.set_tracing(on);
    }

    /// `checkpoint_to(dir)`.
    pub fn checkpoint_to(&self, dir: &Path) -> Result<(), String> {
        self.pems
            .checkpoint_to(dir)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// `restore_from(dir)`.
    pub fn restore_from(&mut self, dir: &Path) -> Result<(), String> {
        self.pems.restore_from(dir).map_err(|e| e.to_string())
    }

    /// `snapshot_bytes()`.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.pems.snapshot_bytes()
    }

    /// `restore_bytes()`.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.pems.restore_bytes(bytes).map_err(|e| e.to_string())
    }

    /// `snapshot_environment()`, timed by the caller.
    pub fn snapshot_env(&self) -> EnvH {
        EnvH(self.pems.snapshot_environment())
    }

    // -- the stages `run_sql` composes, for the traced one-shot path --------

    /// `sql::compile_select`.
    pub fn stage_compile_select(&self, text: &str) -> Result<StreamPlanH, String> {
        serena_ddl::sql::compile_select(text, self.pems.tables())
            .map(StreamPlanH)
            .map_err(|e| e.to_string())
    }

    /// `to_one_shot`.
    pub fn stage_to_one_shot(&self, plan: &StreamPlanH) -> Result<PlanH, String> {
        serena_ddl::to_one_shot(&plan.0)
            .map(PlanH)
            .ok_or_else(|| "continuous expression".to_string())
    }

    /// `PhysicalPlan::compile` against a snapshot.
    pub fn stage_physical_compile(&self, plan: &PlanH, env: &EnvH) -> Result<PhysicalH, String> {
        PhysicalPlan::compile(&plan.0, &env.0)
            .map(PhysicalH)
            .map_err(|e| e.to_string())
    }

    /// `ExecContext::execute` of the compiled plan, through the layers the
    /// one-shot stack has when resilience is disabled (registry →
    /// catch-panic → instrumented; dedup is never armed for one-shots).
    pub fn stage_execute(&self, physical: &PhysicalH, env: &EnvH) -> StmtOut {
        let directory = self.pems.directory();
        let telemetry = self.pems.metrics_registry();
        let health = self.pems.health_tracker();
        let stack = InvokerStack::new(&*directory)
            .layer(CatchPanicLayer::new())
            .layer(
                InstrumentedLayer::new()
                    .registry(telemetry.as_ref())
                    .observer(health.as_ref()),
            );
        let ctx = ExecContext::new(&env.0, &stack, self.pems.clock());
        StmtOut(
            physical
                .0
                .execute(&ctx)
                .map(|o| vec![ExecOutcome::OneShot(o)])
                .map_err(|e| e.to_string()),
        )
    }

    /// `parse_program` alone (the front half of `run_program`); returns the
    /// number of statements parsed.
    pub fn parse_only(text: &str) -> Result<usize, String> {
        serena_ddl::parse_program(text)
            .map(|s| s.len())
            .map_err(|e| e.to_string())
    }

    /// `optimize_plan` on a lowered one-shot plan.
    pub fn optimize(&self, plan: &PlanH, env: &EnvH) -> PlanH {
        PlanH(optimize(&plan.0, &env.0).plan)
    }

    /// Compile `spec` standalone against this runtime's tables — a bare
    /// registry, a no-op sink, no scheduler — and report what
    /// `source_set_for` and `ContinuousQuery::compile` took, in ns.
    pub fn standalone(&self, spec: &QuerySpec) -> Result<(Standalone, u64, u64), String> {
        let plan = plan_of(spec);
        let started = Wall::now();
        let mut sources = self.pems.tables().source_set_for(&plan);
        let source_set_ns = started.elapsed().as_nanos() as u64;
        let options = if self.config.flaky {
            ExecOptions::serial().with_degrade(DegradePolicy::NullFill)
        } else {
            ExecOptions::serial()
        };
        let started = Wall::now();
        let mut query = ContinuousQuery::compile_with_options(&plan, &mut sources, options)
            .map_err(|e| e.to_string())?;
        let compile_ns = started.elapsed().as_nanos() as u64;
        query.seek(self.pems.clock());
        let standalone = Standalone {
            query,
            directory: self.pems.directory(),
        };
        Ok((standalone, source_set_ns, compile_ns))
    }
}

/// Summed per-query statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryTotals {
    pub ticks: u64,
    pub inserted: u64,
    pub deleted: u64,
    pub actions: u64,
    pub errors: u64,
    pub invocations: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Opaque product handles the staged one-shot path passes between stages.
pub struct StreamPlanH(StreamPlan);
pub struct PlanH(Plan);
pub struct EnvH(Environment);
pub struct PhysicalH(PhysicalPlan);

/// A query compiled outside the runtime: `ContinuousQuery::compile` +
/// `tick_with` over the bare registry.
pub struct Standalone {
    query: ContinuousQuery,
    directory: Arc<NodeDirectory>,
}

impl Standalone {
    /// One `tick_with`; returns `(tuples out, live invocations)`.
    pub fn tick(&mut self) -> (u64, u64) {
        let report = self.query.tick_with(&*self.directory, &NoopMetrics);
        let out = report.delta.inserts.len() + report.delta.deletes.len() + report.batch.len();
        let invocations = report.stats.total_invocations();
        (out as u64, invocations)
    }

    /// Distinct tuples of the query's current relation.
    pub fn state_tuples(&self) -> u64 {
        self.query.current_relation().map_or(0, |r| r.len() as u64)
    }
}

impl TickOut {
    /// Reports the tick returned (one per registered query).
    pub fn reports(&self) -> u64 {
        self.0.len() as u64
    }

    /// Reduce the reports to counts and, with `digest`, a digest of every
    /// delta, batch and action (outside the timed region either way).
    pub fn summarize(&self, digest: bool) -> OpOutcome {
        let mut out = OpOutcome {
            attempted: self.0.len() as u64,
            reports: self.0.len() as u64,
            ..OpOutcome::default()
        };
        let mut h = Fnv::new();
        for (name, r) in &self.0 {
            if !r.errors.is_empty() {
                out.failed += 1;
            }
            out.tuples_out +=
                (r.delta.inserts.len() + r.delta.deletes.len() + r.batch.len()) as u64;
            out.actions += r.actions.len() as u64;
            if digest {
                h.bytes(name.as_bytes());
                h.u64(r.at.ticks());
                h.u64(hash_bag(r.delta.inserts.iter()));
                h.u64(hash_bag(r.delta.deletes.iter()));
                h.u64(hash_bag(r.batch.iter().map(|t| (t, 1))));
                h.u64(hash_bag(r.actions.iter().map(|a| (a.input(), 1))));
                h.u64(r.errors.len() as u64);
            }
        }
        if digest {
            out.digest = h.finish();
        }
        out
    }
}

impl StmtOut {
    /// A stage of the staged one-shot path failed.
    pub fn failed(error: String) -> StmtOut {
        StmtOut(Err(error))
    }

    /// Rows the statement returned, if it returned a relation.
    pub fn rows(&self) -> Option<usize> {
        match &self.0 {
            Ok(outs) => outs.iter().find_map(|o| match o {
                ExecOutcome::OneShot(EvalOutcome { relation, .. }) => Some(relation.len()),
                _ => None,
            }),
            Err(_) => None,
        }
    }

    /// The error text, if the statement failed.
    pub fn error(&self) -> Option<&str> {
        self.0.as_ref().err().map(String::as_str)
    }

    /// Reduce to counts and, with `digest`, a digest of the rows and
    /// actions returned.
    pub fn summarize(&self, digest: bool) -> OpOutcome {
        let mut out = OpOutcome {
            attempted: 1,
            ..OpOutcome::default()
        };
        let mut h = Fnv::new();
        match &self.0 {
            Err(_) => {
                out.failed = 1;
                h.byte(0xEE);
            }
            Ok(outs) => {
                for o in outs {
                    match o {
                        ExecOutcome::OneShot(EvalOutcome { relation, actions }) => {
                            out.tuples_out += relation.len() as u64;
                            out.actions += actions.len() as u64;
                            if digest {
                                h.u64(hash_bag(relation.iter().map(|t| (t, 1))));
                                h.u64(hash_bag(actions.iter().map(|a| (a.input(), 1))));
                            }
                        }
                        ExecOutcome::Registered(name) => h.bytes(name.as_bytes()),
                        ExecOutcome::Done => h.byte(1),
                    }
                }
            }
        }
        if digest {
            out.digest = h.finish();
        }
        out
    }
}

// -- layer probes: each calls one layer's public functions directly -------

fn per_op_ns(started: Wall, ops: u64) -> f64 {
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `WorkerPool::scope` with `jobs` empty jobs per round; ns per job.
pub fn probe_dispatch(workers: usize, jobs: usize, rounds: usize) -> f64 {
    let pool = WorkerPool::new(SchedulerConfig::new(workers));
    let sink = std::sync::atomic::AtomicU64::new(0);
    let run = |rounds: usize| {
        for _ in 0..rounds {
            pool.scope(|s| {
                for _ in 0..jobs {
                    s.submit(|| {
                        sink.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    });
                }
            });
        }
    };
    run(rounds / 10 + 1);
    let started = Wall::now();
    run(rounds);
    per_op_ns(started, (jobs * rounds) as u64)
}

/// Per-call cost of each layer of the β stack, peeled the way the runtime
/// composes it: `[registry, +catch-panic+instrumented, +resilient,
/// +dedup miss, dedup hit]` in ns per call over `services` × `rounds`.
pub fn probe_stack(seed: u64, services: usize, rounds: usize) -> [f64; 5] {
    let directory = NodeDirectory::new("probe");
    let refs: Vec<ServiceRef> = (0..services)
        .map(|i| {
            let name = format!("p{i:05}");
            directory.register(
                name.as_str(),
                SimTemperatureSensor::room(seed.wrapping_add(i as u64)).into_service(),
            );
            ServiceRef::new(name)
        })
        .collect();
    let proto: Arc<Prototype> = serena_core::prototype::examples::get_temperature();
    let input = Tuple::empty();
    let telemetry = Arc::new(MetricsRegistry::new());
    let health = HealthTracker::new(serena_services::health::DEFAULT_WINDOW);
    let trace = NoopTrace;
    let policy = resilience_policy(true);

    // every timed pass uses fresh instants so the dedup memo never serves
    // a "miss" pass from an earlier one
    let mut next_instant = 1u64;
    let mut pass = |invoker: &dyn Invoker, repeat: usize| -> f64 {
        let first = next_instant;
        next_instant += rounds as u64 + 1;
        let started = Wall::now();
        for r in 0..rounds {
            let at = Instant(first + r as u64);
            for _ in 0..repeat {
                for s in &refs {
                    let _ = std::hint::black_box(invoker.invoke(&proto, s, &input, at));
                }
            }
        }
        per_op_ns(started, (rounds * repeat * refs.len()) as u64)
    };

    // each stack is the one below plus one layer, as the runtime composes it
    let instrumented = || {
        InvokerStack::new(&directory)
            .layer(CatchPanicLayer::new())
            .layer(
                InstrumentedLayer::new()
                    .registry(telemetry.as_ref())
                    .observer(&health)
                    .trace(&trace),
            )
    };
    let resilient = || {
        instrumented().layer(
            ResilientLayer::new(policy, Arc::new(ResilienceState::new()))
                .health(&health)
                .registry(telemetry.as_ref())
                .trace(&trace),
        )
    };
    let bare = InvokerStack::new(&directory);
    let (instrumented, resilient, full) = (
        instrumented(),
        resilient(),
        resilient().layer(
            DedupLayer::new(Arc::new(DedupState::new()))
                .registry(Arc::clone(&telemetry))
                .enabled(true),
        ),
    );
    pass(&bare, 1); // warm the registry and the allocator
    let t_bare = pass(&bare, 1);
    let t_instr = pass(&instrumented, 1);
    let t_resil = pass(&resilient, 1);
    let t_miss = pass(&full, 1);
    // four callers per instant: one miss and three hits per key
    let t_four = pass(&full, 4);
    let t_hit = (4.0 * t_four - t_miss) / 3.0;
    [t_bare, t_instr, t_resil, t_miss, t_hit]
}

/// `(counter inc, histogram record)` in ns.
pub fn probe_telemetry(iters: u64) -> (f64, f64) {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("probe_total", &[("k", "v")]);
    let histogram = registry.histogram("probe_ns", &[("k", "v")]);
    let started = Wall::now();
    for _ in 0..iters {
        std::hint::black_box(&counter).inc();
    }
    let inc = per_op_ns(started, iters);
    let started = Wall::now();
    for i in 0..iters {
        std::hint::black_box(&histogram).record(1_000 + (i & 0xFFF));
    }
    (inc, per_op_ns(started, iters))
}

fn invoke_frame(i: u64) -> Frame {
    Frame::Invoke {
        service: ServiceRef::new(format!("p{:05}", i % 2000)),
        prototype: "getTemperature".to_string(),
        input: Tuple::empty(),
        at: i,
    }
}

/// `(encode, decode)` of an Invoke frame through the codec, ns per frame.
pub fn probe_frames(iters: u64) -> (f64, f64) {
    let frames: Vec<Frame> = (0..64).map(invoke_frame).collect();
    let started = Wall::now();
    let mut wire = Vec::new();
    for i in 0..iters {
        wire = std::hint::black_box(frames[(i % 64) as usize].to_wire());
    }
    let encode = per_op_ns(started, iters);
    let started = Wall::now();
    for _ in 0..iters {
        let _ = std::hint::black_box(Frame::from_wire(&wire));
    }
    (encode, per_op_ns(started, iters))
}

/// One remote β round trip over `transport`, µs (median of `calls`).
fn probe_rtt(transport: Arc<dyn Transport>, addr: &str, seed: u64, calls: usize) -> Option<f64> {
    let host = Arc::new(NodeDirectory::new("probe-host"));
    host.register("remote0", SimTemperatureSensor::room(seed).into_service());
    let mut handle = ServiceNode::serve(Arc::clone(&transport), addr, host).ok()?;
    let edge = NodeDirectory::new("probe-edge");
    edge.connect_peer(transport, handle.addr()).ok()?;
    let proto = serena_core::prototype::examples::get_temperature();
    let target = ServiceRef::new("remote0");
    let input = Tuple::empty();
    let mut samples = Vec::with_capacity(calls);
    for i in 0..calls + 20 {
        let started = Wall::now();
        let result = edge.invoke(&proto, &target, &input, Instant(i as u64 + 1));
        let us = started.elapsed().as_nanos() as f64 / 1e3;
        if result.is_err() {
            handle.shutdown();
            return None;
        }
        if i >= 20 {
            samples.push(us);
        }
    }
    drop(edge);
    handle.shutdown();
    Some(crate::stats::median(&mut samples))
}

/// In-process transport round trip, µs.
pub fn probe_inproc_rtt(seed: u64, calls: usize) -> Option<f64> {
    probe_rtt(
        Arc::new(InProcTransport::new()),
        "inproc:perf-probe-host",
        seed,
        calls,
    )
}

/// Unix-domain-socket round trip, µs; the socket is created at `path`.
pub fn probe_uds_rtt(seed: u64, calls: usize, path: &Path) -> Option<f64> {
    let out = probe_rtt(
        Arc::new(SocketTransport::new()),
        &format!("uds:{}", path.display()),
        seed,
        calls,
    );
    let _ = std::fs::remove_file(path);
    out
}
