//! [`PemsBuilder`]: every setting a runtime starts from, each passed by
//! its caller — the builder reads no environment variable.

use std::path::PathBuf;
use std::sync::Arc;

use serena_core::dedup::DedupState;
use serena_core::physical::ExecOptions;
use serena_core::telemetry::{FlightRecorder, MetricsRegistry, RegistrySink};
use serena_services::bus::{BusConfig, DiscoveryBus};
use serena_services::directory::NodeDirectory;
use serena_services::health::{HealthTracker, DEFAULT_WINDOW};
use serena_services::resilience::{ResiliencePolicy, ResilienceState};

use super::beta::BetaStack;
use super::Pems;
use crate::processor::QueryProcessor;
use crate::recovery::RecoveryManager;
use crate::scheduler::SchedulerConfig;
use crate::table_manager::ExtendedTableManager;

/// Step-by-step construction of a [`Pems`]: discovery-bus latency model,
/// execution options, scheduler, checkpoints. Every runtime starts at
/// instant 0; a restore sets the clock from its snapshot.
///
/// ```
/// # use serena_pems::pems::Pems;
/// # use serena_services::bus::BusConfig;
/// # use serena_core::time::Instant;
/// let pems = Pems::builder().bus(BusConfig::instant()).build();
/// assert_eq!(pems.clock(), Instant::ZERO);
/// ```
pub struct PemsBuilder {
    bus: BusConfig,
    node_id: String,
    exec_options: ExecOptions,
    resilience: ResiliencePolicy,
    checkpoint: Option<(PathBuf, u64)>,
    scheduler: SchedulerConfig,
    dedup: bool,
    tracing: bool,
}

impl Default for PemsBuilder {
    /// Default bus latency, node `"node0"`, serial execution, resilience
    /// disabled, no checkpoints, one scheduler worker per core, β dedup on,
    /// span tracing armed.
    fn default() -> Self {
        PemsBuilder {
            bus: BusConfig::default(),
            node_id: "node0".to_string(),
            exec_options: ExecOptions::default(),
            resilience: ResiliencePolicy::disabled(),
            checkpoint: None,
            scheduler: SchedulerConfig::default(),
            dedup: true,
            tracing: true,
        }
    }
}

impl PemsBuilder {
    /// Discovery-network latency model.
    pub fn bus(mut self, config: BusConfig) -> Self {
        self.bus = config;
        self
    }

    /// This runtime's node id in a multi-node deployment — what peers see
    /// in the handshake and in
    /// [`PeerStatus`](serena_services::directory::PeerStatus). Defaults to
    /// `"node0"`.
    pub fn node_id(mut self, id: impl Into<String>) -> Self {
        self.node_id = id.into();
        self
    }

    /// Execution options applied to every one-shot evaluation and every
    /// continuous query registered after construction (β's degradation
    /// policy; fail the query by default).
    pub fn exec_options(mut self, options: ExecOptions) -> Self {
        self.exec_options = options;
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
    /// to one worker per core. Worker count never changes query output —
    /// see `tests/envgen_determinism.rs`.
    pub fn scheduler(mut self, config: SchedulerConfig) -> Self {
        self.scheduler = config;
        self
    }

    /// Arm or disarm the cross-query β dedup layer
    /// ([`serena_core::dedup::DedupLayer`]): identical `(service, args)`
    /// invocations issued by different queries within one instant coalesce
    /// into a single upstream call. Sound because services are
    /// deterministic at an instant (§3.2). On by default.
    pub fn dedup(mut self, enabled: bool) -> Self {
        self.dedup = enabled;
        self
    }

    /// Arm or disarm the hierarchical span tracer's flight recorder
    /// ([`serena_core::telemetry::FlightRecorder`], holding the last
    /// [`DEFAULT_CAPACITY`](serena_core::telemetry::span::DEFAULT_CAPACITY)
    /// spans). Armed by default. The recorder is strictly observational:
    /// query outputs are byte-identical armed or disarmed (see
    /// `tests/envgen_determinism.rs`).
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Assemble the runtime.
    pub fn build(self) -> Pems {
        let telemetry = Arc::new(MetricsRegistry::new());
        // the recorder counts its evictions straight into the series
        let dropped = telemetry.counter("serena_trace_dropped_total", &[]);
        let tracer = Arc::new(FlightRecorder::new(dropped));
        tracer.arm(self.tracing);
        let processor =
            QueryProcessor::new(Arc::clone(&telemetry), Arc::clone(&tracer), self.scheduler);
        // Eagerly register the dedup/replication series so they render (at
        // zero) from the first `.metrics` call, armed or not.
        telemetry.counter("serena_beta_dedup_total", &[]);
        telemetry.counter("serena_replication_total", &[]);
        telemetry.counter("serena_replication_errors_total", &[]);
        Pems {
            bus: DiscoveryBus::new(self.bus),
            directory: Arc::new(NodeDirectory::new(self.node_id)),
            standby: None,
            tables: ExtendedTableManager::new(),
            processor,
            discoveries: Vec::new(),
            sql_counter: 0,
            exec_options: self.exec_options,
            telemetry_sink: RegistrySink::new(&telemetry),
            beta: BetaStack {
                telemetry,
                health: Arc::new(HealthTracker::new(DEFAULT_WINDOW)),
                tracer,
                policy: self.resilience,
                resilience: Arc::new(ResilienceState::new()),
                dedup: Arc::new(DedupState::new()),
                dedup_enabled: self.dedup,
            },
            recovery: self
                .checkpoint
                .map(|(dir, every)| RecoveryManager::new(dir, every)),
            snapshot_size_hint: std::sync::atomic::AtomicUsize::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pems::tests::SETUP;
    use serena_core::plan::Plan;
    use serena_core::value::Value;

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
    fn observations_reach_the_registry() {
        let applications = |pems: &Pems| {
            pems.metrics_registry()
                .counter_value("serena_op_applications_total", &[("op", "Relation")])
                .unwrap_or(0)
        };

        let mut pems = Pems::builder().bus(BusConfig::instant()).build();
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
    }

    /// The recorder counts its evictions into the registry's series, so the
    /// scrape and `.top` read its count with no tick in between.
    #[test]
    fn a_wrapped_recorder_counts_its_drops_in_the_scrape() {
        let mut pems = Pems::builder().bus(BusConfig::instant()).build();
        pems.run_program(SETUP).unwrap();
        pems.run_program("REGISTER QUERY watch AS contacts;")
            .unwrap();
        pems.run_ticks(2);
        let recorder = pems.flight_recorder();
        for _ in 0..=recorder.capacity() {
            recorder.start("op.select", pems.clock()).unwrap();
        }
        let dropped = recorder.dropped_total();
        assert!(dropped > 0, "the ring wrapped");
        let scraped = format!("\nserena_trace_dropped_total {dropped}\n");
        assert!(pems.render_metrics().contains(&scraped));
        assert!(pems.top().contains(&format!(" dropped={dropped}\n")));
        pems.tick();
        let dropped = recorder.dropped_total();
        let series = pems
            .metrics_registry()
            .counter_value("serena_trace_dropped_total", &[]);
        assert_eq!(series, Some(dropped));
    }

    /// The defaults are what the builder says, whatever the process
    /// environment holds: one worker per core and an armed recorder.
    #[test]
    fn defaults_are_one_worker_per_core_and_an_armed_recorder() {
        let pems = Pems::default();
        assert_eq!(pems.processor().scheduler(), SchedulerConfig::default());
        let recorder = pems.flight_recorder();
        assert!(recorder.armed());
        let quiet = Pems::builder().tracing(false).build();
        assert!(!quiet.flight_recorder().armed());
        assert_eq!(
            recorder.capacity(),
            FlightRecorder::default().capacity(),
            "DEFAULT_CAPACITY slots"
        );
    }
}
