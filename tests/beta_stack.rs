//! The β invoker stack across the instants that rebuild it (ISSUE 20).
//!
//! `Pems::tick` and every one-shot statement build a fresh
//! directory → catch-panic → instrumented → resilient → dedup stack; what
//! the layers count into is resolved once per service and kept by the
//! runtime's `MetricsRegistry`. These tests hold that arrangement to its
//! contract from outside: every per-service series is *exact* — equal to
//! what an independent counting service saw — through sixty rebuilt stacks,
//! churn, one-shot statements and both scheduler widths; and a call that
//! unwinds through the dedup layer costs its instant's callers an error,
//! never the tick.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use serena::core::dedup::{DedupLayer, DedupState};
use serena::core::metrics::NoopMetrics;
use serena::core::ops::DegradePolicy;
use serena::core::physical::ExecOptions;
use serena::core::plan::Plan;
use serena::core::prototype::Prototype;
use serena::core::schema::examples::sensors_schema;
use serena::core::service::{CatchPanicLayer, InvokerStack, Service, StaticRegistry};
use serena::core::telemetry::{ActiveSpan, InstrumentedLayer, TraceSink};
use serena::core::time::Instant;
use serena::core::tuple;
use serena::core::tuple::Tuple;
use serena::core::value::Value;
use serena::pems::envspec::{EnvSpec, QueryTemplate, WorkloadSpec};
use serena::pems::{Pems, QueryProcessor, SchedulerConfig};
use serena::services::devices::SimTemperatureSensor;
use serena::services::fleet::FlakyService;
use serena::services::resilience::ResiliencePolicy;
use serena::stream::exec::SourceSet;
use serena::stream::plan::StreamPlan;
use serena::stream::source::TableHandle;

const SENSORS: usize = 64;
const INSTANTS: u64 = 60;
/// The sensor that leaves at [`LEAVES`] and whose name rejoins at
/// [`REJOINS`] as a new service object.
const CHURNED: usize = 7;
const LEAVES: u64 = 20;
const REJOINS: u64 = 30;

/// Counts the invocations that physically reach the device — the
/// independent witness `serena_service_calls_total{service}` is held to.
struct Counting {
    inner: Arc<dyn Service>,
    seen: Arc<AtomicU64>,
}

impl Service for Counting {
    fn prototypes(&self) -> Vec<Arc<Prototype>> {
        self.inner.prototypes()
    }

    fn invoke(
        &self,
        prototype: &Prototype,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, String> {
        self.seen.fetch_add(1, Ordering::SeqCst);
        self.inner.invoke(prototype, input, at)
    }
}

/// Sensor `i`'s device: every third one fails at about a third of the
/// instants (for every caller of the instant alike, so outcomes do not
/// depend on scheduling), behind a counter shared by every service object
/// that ever carries the name.
fn sensor(i: usize, seen: &Arc<AtomicU64>) -> Arc<dyn Service> {
    let device = SimTemperatureSensor::room(900 + i as u64).into_service();
    let rate = [0.35, 0.0, 0.0][i % 3];
    Arc::new(Counting {
        inner: FlakyService::wrap(device, 77 + i as u64, rate),
        seen: Arc::clone(seen),
    })
}

/// Runs the scenario on `workers` workers, holds every per-service series
/// to its witness, and returns what must not depend on `workers`: every
/// `_total` sample and every histogram `_count` of the scrape, by series.
fn run(workers: usize) -> BTreeMap<String, String> {
    let spec = EnvSpec::new(20).sensors(SENSORS);
    let mut pems = Pems::builder()
        .scheduler(SchedulerConfig::new(workers))
        .dedup(true)
        .tracing(false)
        .resilience(
            ResiliencePolicy::standard()
                .with_backoff(Duration::ZERO, Duration::ZERO)
                .with_breaker(4, 2),
        )
        .exec_options(ExecOptions::serial().with_degrade(DegradePolicy::NullFill))
        .build();
    spec.install_catalog(&mut pems).expect("catalog installs");
    let lerm = pems.local_erm("building");
    let seen: Vec<Arc<AtomicU64>> = (0..SENSORS).map(|_| Arc::default()).collect();
    let join = |pems: &Pems, i: usize| {
        let name = spec.sensor_name(i);
        lerm.register_service(name.as_str(), sensor(i, &seen[i]), pems.clock());
        pems.directory()
            .set(name, "location", Value::str(spec.area_of(i)));
    };
    for i in 0..SENSORS {
        join(&pems, i);
    }
    WorkloadSpec::new()
        .queries(QueryTemplate::SampledTemperatures { every: 1 }, 4)
        .register_into(&mut pems, &spec)
        .expect("βˢ queries register");
    pems.register_query(
        "passive",
        &StreamPlan::source("sensors").invoke("getTemperature", "sensor"),
    )
    .expect("β query registers");

    let registry = pems.metrics_registry();
    let physical = || seen.iter().map(|n| n.load(Ordering::SeqCst)).sum::<u64>();
    let one_shot = Plan::relation("sensors").invoke("getTemperature", "sensor");
    for at in 0..INSTANTS {
        if at == LEAVES {
            lerm.unregister_service(spec.sensor_name(CHURNED).as_str(), pems.clock());
        }
        if at == REJOINS {
            join(&pems, CHURNED);
        }
        pems.tick();
        if at % 10 == 9 {
            // a one-shot statement builds a stack of its own (dedup never
            // armed): its calls land in the same per-service series
            let (before, dedup_before) = (physical(), pems.dedup_stats());
            let calls_before = registry.sum_counters("serena_service_calls_total");
            let rows = pems.one_shot(&one_shot).expect("degraded, not failed");
            assert!(rows.relation.len() >= SENSORS - 1, "at {at}");
            let made = physical() - before;
            assert!(made >= SENSORS as u64 - 1, "every listed sensor is called");
            assert_eq!(
                registry.sum_counters("serena_service_calls_total") - calls_before,
                made,
                "one-shot calls count into the tick's series (at {at})"
            );
            assert_eq!(pems.dedup_stats(), dedup_before, "never into dedup");
        }
    }

    // -- every service's series is what its device saw --
    for (i, seen) in seen.iter().enumerate() {
        let name = spec.sensor_name(i);
        let labels = [("service", name.as_str())];
        assert_eq!(
            registry.counter_value("serena_service_calls_total", &labels),
            Some(seen.load(Ordering::SeqCst)),
            "{name} at {workers} worker(s)"
        );
        assert_eq!(
            registry
                .histogram("serena_service_latency_ns", &labels)
                .count(),
            seen.load(Ordering::SeqCst),
            "{name}"
        );
    }
    let (hits, misses) = pems.dedup_stats();
    assert!(
        hits > 3 * misses / 2,
        "four βˢ share each call: {hits}/{misses}"
    );
    assert_eq!(registry.sum_counters("serena_beta_dedup_total"), hits);
    let counters = pems.resilience_counters();
    assert!(counters.retries > 0 && counters.breaker_opened > 0);
    assert_eq!(
        registry.sum_counters("serena_resilience_retries_total"),
        counters.retries
    );
    assert_eq!(
        registry.sum_counters("serena_resilience_rejected_total"),
        counters.rejected
    );

    // -- the rejoined name went on counting into the series it had --
    let text = pems.render_metrics();
    let churned = spec.sensor_name(CHURNED);
    let series = format!("serena_service_calls_total{{service=\"{churned}\"}} ");
    assert_eq!(text.matches(&series).count(), 1, "one series per name");
    let total = seen[CHURNED].load(Ordering::SeqCst);
    assert!(text.contains(&format!("{series}{total}\n")));
    // it was away for ten instants, so it was called less than a neighbour
    assert!(total < seen[CHURNED + 1].load(Ordering::SeqCst));

    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let name = series.split('{').next()?;
            let exact = name.ends_with("_total") || name.ends_with("_count");
            exact.then(|| (series.to_string(), value.to_string()))
        })
        .collect()
}

#[test]
fn per_service_series_are_exact_across_rebuilt_stacks() {
    let serial = run(1);
    let pooled = run(4);
    assert!(
        serial.len() > 5 * SENSORS,
        "per-service series rendered: {}",
        serial.len()
    );
    for (series, value) in &serial {
        assert_eq!(
            pooled.get(series),
            Some(value),
            "{series} differs between 1 and 4 workers"
        );
    }
    assert_eq!(serial.len(), pooled.len());
}

/// A sink that goes down for one instant: asked to open `beta.attempt`
/// at it, it panics. The instrumented layer asks *above* panic
/// containment, so the panic unwinds through the dedup layer.
struct DownAt(Instant);

impl TraceSink for DownAt {
    fn start(&self, name: &'static str, at: Instant) -> Option<ActiveSpan<'_>> {
        if name == "beta.attempt" && at == self.0 {
            panic!("trace sink is down");
        }
        None
    }
}

#[test]
fn a_call_that_unwinds_through_dedup_fails_its_instant_not_the_tick() {
    for workers in [1, 4] {
        let (reports, ticked) = mpsc::channel();
        let runtime = std::thread::spawn(move || {
            let directory = StaticRegistry::new();
            let sensors = TableHandle::new(sensors_schema());
            let mut qp = QueryProcessor::new(
                Arc::default(),
                Arc::default(),
                SchedulerConfig::new(workers),
            );
            let plan = StreamPlan::source("sensors").sample_invoke("getTemperature", "sensor", 1);
            for name in ["sampled0", "sampled1"] {
                let mut sources = SourceSet::new();
                sources.add_table("sensors", sensors.clone());
                qp.register(name, &plan, &mut sources, ExecOptions::default())
                    .expect("βˢ queries register");
            }
            let (sink, dedup) = (DownAt(Instant(2)), Arc::new(DedupState::new()));
            for at in 0..4 {
                // the fleet joins after instant 0, as a discovered one does
                if at == 1 {
                    for i in 0..4u64 {
                        let name = format!("sensor{i}");
                        let device = SimTemperatureSensor::room(7 + i).into_service();
                        directory.register(name.as_str(), device);
                        sensors.insert(tuple![Value::service(name), "office"]);
                    }
                }
                // the runtime's stack, less what this test does not need
                let stack = InvokerStack::new(&directory)
                    .layer(CatchPanicLayer::new())
                    .layer(InstrumentedLayer::new().trace(&sink))
                    .layer(DedupLayer::new(Arc::clone(&dedup)).enabled(true));
                if reports
                    .send(qp.tick_all_with(&stack, &NoopMetrics))
                    .is_err()
                {
                    return;
                }
            }
        });
        // A key left in flight by a caller the sink's panic unwound past
        // makes the other query wait on its latch for good, so the failure
        // this guards against is a tick that never returns: hence the
        // runtime on a thread of its own and a timeout per tick.
        let mut ticks = Vec::new();
        for at in 0..4 {
            let tick = ticked
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("tick {at} did not return at {workers} worker(s)"));
            ticks.push(tick);
        }
        runtime.join().expect("runtime thread");

        for (at, tick) in ticks.iter().enumerate() {
            assert_eq!(tick.len(), 2, "both queries report at {at}");
            let errors = |q: usize| {
                let mut e: Vec<String> = tick[q].1.errors.iter().map(|e| e.to_string()).collect();
                e.sort();
                e
            };
            // whichever query called first, the other was served its error
            assert_eq!(errors(0), errors(1), "at {at}, {workers} worker(s)");
            if at == 2 {
                assert_eq!(errors(0).len(), 4, "one per sensor: {:?}", errors(0));
                assert!(errors(0).iter().all(|e| e.contains("trace sink is down")));
            } else {
                // the fleet is discovered during instant 0 and sampled
                // from instant 1 on
                assert!(errors(0).is_empty(), "at {at}: {:?}", errors(0));
                assert_eq!(
                    tick[0].1.batch.len(),
                    if at == 0 { 0 } else { 4 },
                    "at {at}"
                );
                assert_eq!(tick[0].1.batch, tick[1].1.batch, "at {at}");
            }
        }
    }
}
