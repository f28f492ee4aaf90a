//! A stream the environment sources is one time → multiset mapping (§4.1),
//! and it enters the runtime one way: a derived stream
//! (`Pems::define_stream_as`), here `EnvSpec`'s `temperatures`,
//! `S[heartbeat](π_{location,temperature}(W[1](βˢ[1]_{getTemperature[sensor]}(sensors))))`.
//! Its plan ticks once per instant before the queries, through the β stack
//! every query calls through, and every query reading the stream at an
//! instant reads that one batch. So each sensor is called once an instant
//! however many queries read the stream, and not at all while none does;
//! every call counts in `serena_service_calls_total` and in the sensor's
//! health; a failing or panicking sensor's row is dropped, not the
//! readers' tick; and a sensor that always fails opens its breaker.

use std::time::Duration;

use serena::core::service::fixtures;
use serena::core::value::Value;
use serena::pems::envspec::EnvSpec;
use serena::pems::SchedulerConfig;
use serena::prelude::*;
use serena::services::bus::BusConfig;
use serena::services::faults::FaultPolicy;

/// A runtime with `spec`'s catalog and fleet, built on `builder`.
fn deployed(spec: &EnvSpec, builder: PemsBuilder) -> Pems {
    let mut pems = builder.bus(BusConfig::instant()).build();
    spec.install_catalog(&mut pems).unwrap();
    spec.deploy_into(&pems);
    pems
}

/// `serena_service_calls_total{service}` of each sensor `spec` deploys.
fn sensor_calls(pems: &Pems, spec: &EnvSpec, sensors: usize) -> Vec<u64> {
    let registry = pems.metrics_registry();
    (0..sensors)
        .map(|i| {
            let sensor = spec.sensor_name(i);
            let labels = [("service", sensor.as_str())];
            let calls = registry.counter_value("serena_service_calls_total", &labels);
            calls.unwrap_or(0)
        })
        .collect()
}

/// Two identical `W[1](temperatures)` queries over a sampled fleet in
/// which one sensor fails every second call: both read one sample of the
/// fleet per instant, so they report equal deltas, and the faulty sensor
/// is called once an instant — its reading is in every second window.
#[test]
fn identical_queries_over_a_sampled_stream_report_equal_deltas() {
    let spec = EnvSpec::new(11)
        .sensors(4)
        .sensor_fault(1, FaultPolicy::EveryNth(2));
    let (mut pems, _fleet) = spec.build().unwrap();
    let plan = StreamPlan::source("temperatures").window(1);
    pems.register_query("a", &plan).unwrap();
    pems.register_query("b", &plan).unwrap();
    let mut sizes = Vec::new();
    for _ in 0..8 {
        let reports = pems.tick();
        let [(_, a), (_, b)] = &reports[..] else {
            panic!("two queries tick");
        };
        assert_eq!(a.delta, b.delta, "instant {:?}", a.at);
        let current = |name| pems.processor().current_relation(name).unwrap().len();
        assert_eq!(current("a"), current("b"), "instant {:?}", a.at);
        sizes.push(current("a"));
    }
    assert_eq!(sizes, [3, 4, 3, 4, 3, 4, 3, 4]);
}

/// Each sensor is called not at all while no query reads `temperatures`,
/// then once per instant however many queries read it — one of them twice
/// — on one worker or four.
#[test]
fn a_sourced_stream_is_polled_once_per_instant() {
    const SENSORS: usize = 4;
    for workers in [1, 4] {
        let spec = EnvSpec::new(5).sensors(SENSORS);
        let builder = Pems::builder().scheduler(SchedulerConfig::new(workers));
        let mut pems = deployed(&spec, builder);
        pems.run_ticks(3);
        assert_eq!(sensor_calls(&pems, &spec, SENSORS), [0; SENSORS]);
        let s = || StreamPlan::source("temperatures");
        pems.register_query("w1", &s().window(1)).unwrap();
        pems.register_query("w3", &s().window(3)).unwrap();
        pems.register_query("both", &s().window(1).union(s().window(2)))
            .unwrap();
        for ticked in 1..=5 {
            for (name, report) in pems.tick() {
                assert!(report.errors.is_empty(), "{name}: {:?}", report.errors);
                assert!(!report.delta.inserts.is_empty(), "{name}");
            }
            let calls = sensor_calls(&pems, &spec, SENSORS);
            assert_eq!(calls, [ticked; SENSORS], "workers={workers}");
        }
        // nobody reads it any more: no sensor is called again
        for name in ["w1", "w3", "both"] {
            pems.run_program(&format!("UNREGISTER QUERY {name};"))
                .unwrap();
        }
        pems.run_ticks(2);
        assert_eq!(sensor_calls(&pems, &spec, SENSORS), [5; SENSORS]);
    }
}

/// With no other βˢ query, the scrape's `serena_service_calls_total` over
/// the sensors sums to sensors × instants the stream was read.
#[test]
fn every_sample_counts_in_the_service_calls_series() {
    const SENSORS: usize = 6;
    let spec = EnvSpec::new(8).sensors(SENSORS);
    let (mut pems, _fleet) = spec.build().unwrap();
    pems.run_ticks(2);
    let plan = StreamPlan::source("temperatures").window(2);
    pems.register_query("recent", &plan).unwrap();
    pems.run_ticks(7);
    let scraped: u64 = pems
        .render_metrics()
        .lines()
        .filter(|l| l.starts_with("serena_service_calls_total{service=\"sensor"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(scraped, SENSORS as u64 * 7);
}

/// A sensor whose body panics is contained by the β stack: its row is
/// dropped at every instant, the queries reading the stream tick without
/// an error, and the sensor shows, failing, in `service_health()`.
#[test]
fn a_panicking_sensor_drops_its_row_not_the_readers_tick() {
    for workers in [1, 4] {
        let spec = EnvSpec::new(3).sensors(3);
        let builder = Pems::builder().scheduler(SchedulerConfig::new(workers));
        let mut pems = deployed(&spec, builder);
        let directory = pems.directory();
        directory.register("sensor99", fixtures::panicking_sensor());
        directory.set("sensor99", "location", Value::str("attic"));
        for name in ["a", "b"] {
            let plan = StreamPlan::source("temperatures").window(1);
            pems.register_query(name, &plan).unwrap();
        }
        for at in 0..4u64 {
            for (name, report) in pems.tick() {
                assert!(
                    report.errors.is_empty(),
                    "{name} at {at}: {:?}",
                    report.errors
                );
                let rows = pems.processor().current_relation(&name).unwrap();
                assert_eq!(
                    rows.len(),
                    3,
                    "{name} at {at}: the three sensors that answer"
                );
            }
        }
        let health = pems.service_health();
        let panicking = health.iter().find(|h| h.reference.as_str() == "sensor99");
        let panicking = panicking.expect("the panicking sensor is tracked");
        assert_eq!(
            (panicking.attempts, panicking.failures),
            (4, 4),
            "workers={workers}"
        );
    }
}

/// Under a breaker policy, a sensor that fails every call opens its
/// breaker, and shows, failing, in `service_health()`; the others keep
/// their rows in the stream.
#[test]
fn a_sensor_that_always_fails_opens_its_breaker() {
    let spec = EnvSpec::new(9)
        .sensors(3)
        .sensor_fault(1, FaultPolicy::EveryNth(1));
    let policy = ResiliencePolicy {
        max_retries: 0,
        backoff_base: Duration::ZERO,
        backoff_cap: Duration::ZERO,
        breaker_threshold: 2,
        breaker_cooldown: 100,
    };
    let mut pems = deployed(&spec, Pems::builder().resilience(policy));
    let plan = StreamPlan::source("temperatures").window(1);
    pems.register_query("current", &plan).unwrap();
    for at in 0..5u64 {
        let reports = pems.tick();
        assert!(reports[0].1.errors.is_empty(), "at {at}");
        let rows = pems.processor().current_relation("current").unwrap();
        assert_eq!(
            rows.len(),
            2,
            "at {at}: the failing sensor's row is dropped"
        );
    }
    let failing = spec.sensor_name(1);
    let breakers = pems.breakers();
    let breaker = breakers.iter().find(|(s, _)| s.as_str() == failing);
    assert!(
        matches!(breaker, Some((_, BreakerState::Open { .. }))),
        "{breakers:?}"
    );
    let health = pems.service_health();
    let failing = health.iter().find(|h| h.reference.as_str() == failing);
    let failing = failing.expect("the failing sensor is tracked");
    assert_eq!(
        failing.failures, 2,
        "two calls fail, then the breaker rejects"
    );
    assert_eq!(failing.failure_rate, 1.0);
}
