//! Cross-crate integration: DDL → PEMS → continuous queries → simulated
//! devices, including discovery churn and failure injection (§5.1–5.2).

use std::sync::Arc;

use serena::core::prelude::*;
use serena::core::tuple;
use serena::pems::scenario::{
    deploy_surveillance, rss_expected_matches, total_messages, RssConfig, SurveillanceConfig,
};
use serena::pems::Pems;
use serena::services::bus::BusConfig;
use serena::services::devices::messenger::{MessengerKind, SimMessenger};
use serena::services::devices::temperature::SimTemperatureSensor;
use serena::services::faults::{FaultPolicy, FaultyService};

#[test]
fn surveillance_scenario_full_lifecycle() {
    let config = SurveillanceConfig {
        sensors: 9,
        cameras: 6,
        contacts: 3,
        threshold: 30.0,
        heat_events: vec![
            (0, Instant(2), Instant(2), 42.0),
            (4, Instant(5), Instant(5), 38.0),
        ],
        ..SurveillanceConfig::default()
    };
    let mut s = deploy_surveillance(&config).unwrap();
    let mut actions_per_tick = Vec::new();
    for _ in 0..8 {
        let reports = s.pems.tick();
        let alerts = reports
            .iter()
            .find(|(n, _)| n == "alerts")
            .map(|(_, r)| r.actions.len())
            .unwrap();
        actions_per_tick.push(alerts);
    }
    // sensor0 (corridor, manager contact0) at τ2; sensor4 (office... areas
    // round robin: 0=corridor,1=office,2=roof,3=corridor,4=office) at τ5
    assert_eq!(actions_per_tick[2], 1);
    assert_eq!(actions_per_tick[5], 1);
    assert_eq!(actions_per_tick.iter().sum::<usize>(), 2);
    assert_eq!(total_messages(&s.outboxes), 2);
}

#[test]
fn discovery_latency_delays_stream_membership() {
    // announce latency 3: a sensor registered at τ0 only participates in
    // the temperature stream from τ3 on.
    let config = SurveillanceConfig {
        sensors: 0,
        cameras: 0,
        contacts: 1,
        bus: BusConfig {
            announce_latency: 3,
            leave_latency: 1,
            jitter: 0,
            seed: 7,
        },
        ..SurveillanceConfig::default()
    };
    let mut s = deploy_surveillance(&config).unwrap();
    let lerm = s.pems.local_erm("wing");
    let hot = SimTemperatureSensor::new(5, 50.0, 0.5);
    lerm.register_service("hot", hot.into_service(), Instant(0));
    s.pems
        .directory()
        .set("hot", "location", Value::str("corridor"));

    let mut first_alert_tick = None;
    for t in 0..8u64 {
        let reports = s.pems.tick();
        let alerts = reports
            .iter()
            .find(|(n, _)| n == "alerts")
            .map(|(_, r)| r.actions.len())
            .unwrap();
        if alerts > 0 && first_alert_tick.is_none() {
            first_alert_tick = Some(t);
        }
    }
    assert_eq!(first_alert_tick, Some(3), "bus latency gates discovery");
}

#[test]
fn failing_sensor_degrades_gracefully() {
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    pems.run_program(
        "PROTOTYPE getTemperature( ) : ( temperature REAL );
         EXTENDED RELATION sensors (
           sensor SERVICE, location STRING, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getTemperature[sensor] );
         REGISTER QUERY temps AS INVOKE[getTemperature[sensor]](sensors);",
    )
    .unwrap();
    // one healthy, one permanently faulty
    pems.directory().register(
        "good",
        serena::core::service::fixtures::temperature_sensor(1),
    );
    pems.directory().register(
        "bad",
        FaultyService::new(
            serena::core::service::fixtures::temperature_sensor(2),
            FaultPolicy::EveryNth(1),
        ),
    );
    pems.tables()
        .insert("sensors", tuple![Value::service("good"), "office"])
        .unwrap();
    pems.tables()
        .insert("sensors", tuple![Value::service("bad"), "roof"])
        .unwrap();

    let reports = pems.tick();
    let (_, report) = &reports[0];
    assert_eq!(report.errors.len(), 1, "the faulty invocation is surfaced");
    assert_eq!(report.delta.inserts.len(), 1, "the healthy reading lands");
    let stats = pems.processor().stats("temps").unwrap();
    assert_eq!(stats.errors, 1);
}

#[test]
fn rss_scenario_against_generator_oracle() {
    let config = RssConfig {
        window: 4,
        ..RssConfig::default()
    };
    let mut pems = serena::pems::scenario::deploy_rss(&config).unwrap();
    let ticks = 30u64;
    let mut inserted = 0;
    for _ in 0..ticks {
        inserted += pems.tick()[0].1.delta.inserts.len();
    }
    let keyword = serena::services::devices::rss::SimRssFeed::tracked_keyword();
    let expected = rss_expected_matches(&config, keyword, Instant(0), Instant(ticks - 1));
    assert_eq!(inserted, expected);
}

#[test]
fn one_shot_queries_coexist_with_continuous_ones() {
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    let (svc, outbox) = SimMessenger::new(MessengerKind::Email).into_service();
    pems.directory().register("email", svc);
    pems.run_program(
        "PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;
         EXTENDED RELATION contacts (
           name STRING, address STRING, text STRING VIRTUAL,
           messenger SERVICE, sent BOOLEAN VIRTUAL
         ) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
         INSERT INTO contacts VALUES ('Ada', 'ada@lovelace.org', 'email');
         REGISTER QUERY watch AS contacts;",
    )
    .unwrap();
    pems.tick();

    // one-shot Q1-style query, mid-run, through the same registry
    let outcomes = pems
        .run_program("EXECUTE INVOKE[sendMessage[messenger]](ASSIGN[text := 'Hello'](contacts));")
        .unwrap();
    let serena::pems::ExecOutcome::OneShot(out) = &outcomes[0] else {
        panic!()
    };
    assert_eq!(out.actions.len(), 1);
    assert_eq!(outbox.lock().len(), 1);
    assert_eq!(outbox.lock()[0].text, "Hello");

    // the continuous query is unaffected
    let reports = pems.tick();
    assert!(reports[0].1.delta.is_empty());
}

#[test]
fn service_replacement_changes_behaviour_not_schema() {
    // swap a sensor implementation under the same reference mid-query: the
    // query keeps running, values change — services are bound late (§2.1).
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    pems.run_program(
        "PROTOTYPE getTemperature( ) : ( temperature REAL );
         EXTENDED RELATION sensors (
           sensor SERVICE, location STRING, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getTemperature[sensor] );",
    )
    .unwrap();
    let fixed = |v: f64| {
        Arc::new(serena::core::service::FnService::new(
            vec![serena::core::prototype::examples::get_temperature()],
            move |_, _, _| Ok(vec![Tuple::new(vec![Value::Real(v)])]),
        )) as Arc<dyn serena::core::service::Service>
    };
    pems.directory().register("s1", fixed(20.0));
    pems.tables()
        .insert("sensors", tuple![Value::service("s1"), "lab"])
        .unwrap();

    let plan = serena::core::plan::Plan::relation("sensors").invoke("getTemperature", "sensor");
    let before = pems.one_shot(&plan).unwrap();
    assert!(before
        .relation
        .contains(&tuple![Value::service("s1"), "lab", 20.0]));

    pems.directory().register("s1", fixed(99.0)); // hot-swap
    let after = pems.one_shot(&plan).unwrap();
    assert!(after
        .relation
        .contains(&tuple![Value::service("s1"), "lab", 99.0]));
}

#[test]
fn insert_then_delete_between_two_ticks_leaves_no_row() {
    // queued statements take effect in statement order: the DELETE takes
    // back the INSERT before it, whether or not the table already held
    // the row — neither a one-shot nor a continuous reader ever sees it
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    pems.run_program(
        "EXTENDED RELATION rooms ( location STRING, floor INTEGER );
         INSERT INTO rooms VALUES ('lab', 1);
         REGISTER QUERY watch AS rooms;",
    )
    .unwrap();
    pems.tick();
    let rooms = serena::core::plan::Plan::relation("rooms");
    let held = |pems: &Pems| pems.one_shot(&rooms).unwrap().relation.into_tuples();

    pems.run_program(
        "INSERT INTO rooms VALUES ('attic', 3);
         DELETE FROM rooms VALUES ('attic', 3);",
    )
    .unwrap();
    assert_eq!(held(&pems), vec![tuple!["lab", 1]]);
    let reports = pems.tick();
    assert!(reports[0].1.delta.is_empty(), "{:?}", reports[0].1.delta);
    assert_eq!(held(&pems), vec![tuple!["lab", 1]]);
    let watched = pems.processor().current_relation("watch").unwrap();
    assert_eq!(watched.into_tuples(), vec![tuple!["lab", 1]]);

    // and the other order still ends with the row in place
    pems.run_program(
        "DELETE FROM rooms VALUES ('attic', 3);
         INSERT INTO rooms VALUES ('attic', 3);",
    )
    .unwrap();
    let reports = pems.tick();
    assert_eq!(reports[0].1.delta.inserts.len(), 1);
    assert_eq!(held(&pems).len(), 2);
}

#[test]
fn an_idle_directory_costs_a_discovery_relation_nothing() {
    // "idle" as a count: a tick with nothing logged neither lists the
    // directory nor looks at a single reference, and churn looks at
    // exactly the references it touched
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    pems.run_program(
        "PROTOTYPE getTemperature( ) : ( temperature REAL );
         EXTENDED RELATION sensors (
           sensor SERVICE, location STRING, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getTemperature[sensor] );
         REGISTER QUERY fleet AS sensors;",
    )
    .unwrap();
    pems.register_discovery("sensors", "getTemperature", "sensor")
        .unwrap();
    let lerm = pems.local_erm("wing");
    let directory = pems.directory();
    let deploy = |name: String, at: Instant| {
        lerm.register_service(
            name.clone(),
            SimTemperatureSensor::room(7).into_service(),
            at,
        );
        directory.set(name, "location", Value::str("office"));
    };
    for i in 0..50 {
        deploy(format!("s{i:02}"), pems.clock());
    }
    let registry = pems.metrics_registry();
    let count = |series: &str| {
        registry
            .counter_value(series, &[("table", "sensors")])
            .expect("registered with the discovery query")
    };
    let counts = || {
        (
            count("serena_discovery_relist_total"),
            count("serena_discovery_reconciled_total"),
        )
    };

    pems.tick();
    assert_eq!(counts(), (1, 0), "the first tick lists");
    assert_eq!(
        pems.processor().current_relation("fleet").unwrap().len(),
        50
    );
    for _ in 0..100 {
        let reports = pems.tick();
        assert!(reports[0].1.delta.is_empty());
    }
    assert_eq!(counts(), (1, 0), "100 churn-free ticks");

    // k = 5 leave, 5 fresh ones join, one that stays moves twice: 11
    // distinct references, however many entries they logged
    for i in 0..5 {
        lerm.unregister_service(format!("s{i:02}"), pems.clock());
        deploy(format!("s{}", 50 + i), pems.clock());
    }
    directory.set("s07", "location", Value::str("attic"));
    directory.set("s07", "location", Value::str("roof"));
    let reports = pems.tick();
    assert_eq!(counts(), (1, 11));
    assert_eq!(reports[0].1.delta.magnitude(), 12);
    let fleet = pems.processor().current_relation("fleet").unwrap();
    assert_eq!(fleet.len(), 50);
    assert!(fleet.contains(&tuple![Value::service("s07"), "roof"]));
    pems.tick();
    assert_eq!(counts(), (1, 11));
}
