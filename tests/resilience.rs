//! Acceptance tests for the β resilience layer (invoker middleware stack):
//! retries recover transient faults bit-for-bit, the circuit breaker opens
//! and half-opens through real query execution, and degradation policies
//! produce partial results whose degraded counts surface in `NodeStats`
//! and the Prometheus rendering.

use std::time::Duration;

use serena::prelude::*;
use serena::services::bus::BusConfig;
use serena::services::faults::{FaultPolicy, FaultyService};

/// A PEMS over four temperature sensors (two optionally faulty), with the
/// given resilience policy and degradation policy.
fn sensor_pems(
    policy: ResiliencePolicy,
    degrade: DegradePolicy,
    faulty: Option<FaultPolicy>,
) -> Pems {
    use serena::core::service::fixtures;
    let mut pems = Pems::builder()
        .bus(BusConfig::instant())
        .resilience(policy)
        .exec_options(ExecOptions::serial().with_degrade(degrade))
        .build();
    let reg = pems.directory();
    for (name, seed) in [
        ("sensor01", 1u64),
        ("sensor06", 6),
        ("sensor07", 7),
        ("sensor22", 22),
    ] {
        let svc = fixtures::temperature_sensor(seed);
        // the two even-numbered sensors misbehave when a fault is injected
        if seed % 2 == 0 {
            if let Some(fault) = &faulty {
                reg.register(name, FaultyService::new(svc, fault.clone()));
                continue;
            }
        }
        reg.register(name, svc);
    }
    pems.run_program(
        "PROTOTYPE getTemperature( ) : ( temperature REAL );
         EXTENDED RELATION sensors (
           sensor SERVICE, location STRING, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getTemperature[sensor] );
         INSERT INTO sensors VALUES
           ('sensor01', 'corridor'), ('sensor06', 'office'),
           ('sensor07', 'roof'), ('sensor22', 'kitchen');",
    )
    .unwrap();
    pems
}

fn read_all() -> Plan {
    Plan::relation("sensors").invoke("getTemperature", "sensor")
}

/// Acceptance: with enough retry budget, a query over transiently-failing
/// services returns *exactly* the fault-free result.
#[test]
fn retries_make_transient_faults_invisible() {
    // each faulty service fails its first call, then answers for a while
    let fault = FaultPolicy::Intermittent { fail: 1, ok: 99 };
    let policy = ResiliencePolicy::disabled()
        .with_retries(2)
        .with_backoff(Duration::from_micros(50), Duration::from_micros(400));

    let reference = sensor_pems(ResiliencePolicy::disabled(), DegradePolicy::FailQuery, None);
    let expected = reference.one_shot(&read_all()).unwrap();

    let resilient = sensor_pems(policy, DegradePolicy::FailQuery, Some(fault.clone()));
    let observed = resilient.one_shot(&read_all()).unwrap();

    assert_eq!(
        observed.relation, expected.relation,
        "retried output diverged from fault-free run"
    );
    assert_eq!(observed.actions, expected.actions);
    // the recovery really went through the retry path
    let c = resilient.resilience_counters();
    assert_eq!(c.retries, 2, "one retry per faulty sensor");
    assert_eq!(c.rejected, 0);

    // sanity: without retries the same faults fail the query outright
    let fragile = sensor_pems(
        ResiliencePolicy::disabled(),
        DegradePolicy::FailQuery,
        Some(fault.clone()),
    );
    assert!(fragile.one_shot(&read_all()).is_err());
}

/// Acceptance: the breaker opens after consecutive failures, rejects calls
/// while open, half-opens after the logical cooldown and closes on a
/// successful probe — all observed through `Pems` query execution.
#[test]
fn breaker_opens_half_opens_and_recovers() {
    // both faulty sensors are down for instants 0..=1, healthy from 2 on
    let fault = FaultPolicy::Outage {
        from: Instant(0),
        to: Instant(1),
    };
    let policy = ResiliencePolicy::disabled().with_breaker(2, 2);
    // DropTuple keeps the queries (and the probing) alive while services
    // are down
    let mut pems = sensor_pems(policy, DegradePolicy::DropTuple, Some(fault));
    let flaky = ServiceRef::new("sensor06");

    // τ=0: two one-shots → two consecutive failures per faulty service →
    // breakers open until τ+2
    for _ in 0..2 {
        let out = pems.one_shot(&read_all()).unwrap();
        assert_eq!(out.relation.len(), 2, "healthy sensors still answer");
    }
    assert_eq!(
        pems.breakers()
            .iter()
            .find(|(s, _)| *s == flaky)
            .map(|(_, b)| *b),
        Some(BreakerState::Open { until: Instant(2) })
    );
    let opened = pems.resilience_counters().breaker_opened;
    assert_eq!(opened, 2, "one trip per faulty service");

    // still τ=0: open breakers reject without touching the services
    pems.one_shot(&read_all()).unwrap();
    assert_eq!(pems.resilience_counters().rejected, 2);

    // advance the logical clock past the cooldown; the outage is over too
    pems.run_ticks(2);
    assert_eq!(pems.clock(), Instant(2));

    // τ=2: the half-open probe succeeds and the breakers close
    let out = pems.one_shot(&read_all()).unwrap();
    assert_eq!(out.relation.len(), 4, "recovered sensors answer again");
    assert!(pems
        .breakers()
        .iter()
        .all(|(_, b)| *b == BreakerState::Closed));
    assert_eq!(pems.resilience_counters().breaker_opened, opened);
}

/// Acceptance: `NullFill` and `DropTuple` produce partial results, and the
/// degraded counts are visible both in the `EXPLAIN ANALYZE` node stats and
/// in the Prometheus rendering.
#[test]
fn degradation_surfaces_partial_results_and_counters() {
    let dead = FaultPolicy::Intermittent { fail: 1, ok: 0 }; // the faulty sensors never answer

    // DropTuple: the two dead sensors vanish from the result
    let pems = sensor_pems(
        ResiliencePolicy::disabled(),
        DegradePolicy::DropTuple,
        Some(dead.clone()),
    );
    let ea = pems.explain_analyze(&read_all()).unwrap();
    assert_eq!(ea.outcome.relation.len(), 2);
    assert_eq!(ea.stats.total_degraded(), 2);
    assert!(ea.rendered.contains("degraded=2"), "{}", ea.rendered);
    assert!(
        pems.render_metrics()
            .contains("serena_beta_degraded_total{op=\"Invoke\"} 2"),
        "{}",
        pems.render_metrics()
    );

    // NullFill: every sensor is present; dead ones carry the type default
    let pems = sensor_pems(
        ResiliencePolicy::disabled(),
        DegradePolicy::NullFill,
        Some(dead),
    );
    let out = pems.one_shot(&read_all()).unwrap();
    assert_eq!(out.relation.len(), 4);
    let filled: Vec<&Tuple> = out
        .relation
        .iter()
        .filter(|t| t[2] == Value::Real(0.0))
        .collect();
    assert_eq!(filled.len(), 2, "dead sensors answer with the default");
}

/// The scrape has one breaker-open count: the `to="open"` transitions of
/// every service sum to the runtime's `breaker_opened` counter, also when a
/// half-open probe fails and the breaker opens again.
#[test]
fn breaker_opens_are_counted_once_in_the_scrape() {
    let fault = FaultPolicy::Outage {
        from: Instant(0),
        to: Instant(3),
    };
    let policy = ResiliencePolicy::disabled().with_breaker(2, 2);
    let mut pems = sensor_pems(policy, DegradePolicy::DropTuple, Some(fault));
    pems.run_program("REGISTER QUERY temps AS SAMPLE[getTemperature[sensor], 1](sensors);")
        .unwrap();
    pems.run_ticks(8);

    let opened = pems.resilience_counters().breaker_opened;
    assert!(
        opened > 2,
        "a failed probe opened a breaker again: {opened}"
    );
    let registry = pems.metrics_registry();
    let transitions: u64 = ["sensor01", "sensor06", "sensor07", "sensor22"]
        .iter()
        .filter_map(|service| {
            let labels = [("service", *service), ("to", "open")];
            registry.counter_value("serena_breaker_transitions_total", &labels)
        })
        .sum();
    assert_eq!(transitions, opened);
    let scrape = pems.render_metrics();
    assert!(!scrape.contains("serena_resilience_breaker_opened_total"));
}
