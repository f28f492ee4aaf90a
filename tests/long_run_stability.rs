//! Long-run stability: the continuous engine must hold bounded state over
//! thousands of ticks (windows expire, invocation caches retract, outboxes
//! only grow with real deliveries) — the "robustness" assessment §5.2
//! leaves open.

use serena::core::prelude::*;
use serena::pems::scenario::{deploy_rss, deploy_surveillance, RssConfig, SurveillanceConfig};

#[test]
fn rss_window_state_is_bounded_over_5000_ticks() {
    let config = RssConfig {
        window: 10,
        ..RssConfig::default()
    };
    let mut pems = deploy_rss(&config).unwrap();
    let mut max_held = 0usize;
    let mut total_inserted = 0u64;
    for _ in 0..5_000u64 {
        let reports = pems.tick();
        total_inserted += reports[0].1.delta.inserts.len() as u64;
        let held = pems
            .processor()
            .current_relation("keyword_watch")
            .map(|r| r.len())
            .unwrap_or(0);
        max_held = max_held.max(held);
    }
    // 3 feeds × ≤2 items/tick × 10-tick window = hard bound 60
    assert!(max_held <= 60, "window state leaked: {max_held} items held");
    assert!(total_inserted > 500, "the stream must stay live");
    let stats = pems.processor().stats("keyword_watch").unwrap();
    assert_eq!(stats.ticks, 5_000);
    // every insertion that left the window was retracted
    assert!(stats.deleted >= stats.inserted - 60);
}

#[test]
fn surveillance_runs_1000_ticks_without_errors() {
    let config = SurveillanceConfig {
        sensors: 12,
        cameras: 6,
        contacts: 6,
        threshold: 22.9, // intermittent alerts: plenty of churn
        ..SurveillanceConfig::default()
    };
    let mut s = deploy_surveillance(&config).unwrap();
    let mut errors = 0u64;
    let mut actions = 0u64;
    for _ in 0..1_000u64 {
        for (_, r) in s.pems.tick() {
            errors += r.errors.len() as u64;
            actions += r.actions.len() as u64;
        }
    }
    assert_eq!(errors, 0, "healthy deployment must not surface errors");
    assert!(actions > 0, "the band-edge threshold must fire sometimes");
    // every action corresponds to a delivered message
    let delivered: usize = s.outboxes.values().map(|o| o.lock().len()).sum();
    assert_eq!(delivered as u64, actions);
    assert_eq!(s.pems.clock(), Instant(1_000));
}

#[test]
fn invocation_cache_retracts_under_sensor_churn() {
    // register/unregister a sensor repeatedly; the discovery table and the
    // β cache must not accumulate stale rows.
    use serena::pems::Pems;
    use serena::services::bus::BusConfig;

    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    pems.run_program(
        "PROTOTYPE getTemperature( ) : ( temperature REAL );
         EXTENDED RELATION sensors (
           sensor SERVICE, location STRING, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getTemperature[sensor] );
         REGISTER QUERY temps AS INVOKE[getTemperature[sensor]](sensors);",
    )
    .unwrap();
    pems.register_discovery("sensors", "getTemperature", "sensor")
        .unwrap();
    let lerm = pems.local_erm("wing");

    for round in 0..200u64 {
        let joining = round % 2 == 0;
        if joining {
            lerm.register_service(
                "s0",
                serena::core::service::fixtures::temperature_sensor(round),
                pems.clock(),
            );
            // metadata leaves with the service, so it is set per registration
            pems.directory().set("s0", "location", Value::str("office"));
        } else {
            lerm.unregister_service("s0", pems.clock());
        }
        pems.tick();
        let held = pems
            .processor()
            .current_relation("temps")
            .map(|r| r.len())
            .unwrap_or(0);
        assert_eq!(held, usize::from(joining), "at round {round}");
    }
}

#[test]
fn directory_state_plateaus_under_ten_thousand_device_churn() {
    // 10⁴ fresh-named sensors pass through a runtime that serves no peer —
    // nobody reads the directory's join/leave log, and it must stay bounded
    // all the same, as must the metadata of the departed.
    use serena::pems::Pems;
    use serena::services::bus::BusConfig;

    const BATCH: u64 = 20;
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
    let name = |round: u64, i: u64| format!("s{}", round * BATCH + i);

    for round in 0..500u64 {
        for i in 0..BATCH {
            if round > 0 {
                lerm.unregister_service(name(round - 1, i), pems.clock());
            }
            let sensor = serena::core::service::fixtures::temperature_sensor(i);
            lerm.register_service(name(round, i), sensor, pems.clock());
            directory.set(name(round, i), "location", Value::str("office"));
        }
        pems.tick();
        assert_eq!(directory.len(), BATCH as usize);
        let fleet = pems.processor().current_relation("fleet").unwrap();
        assert_eq!(fleet.len(), BATCH as usize, "at round {round}");
        if round > 0 {
            assert_eq!(directory.get(name(round - 1, 0), "location"), None);
        }
    }
    // 3·10⁴ − 20 entries were logged (a `set`, a join and a leave per
    // sensor) and only a window of them is kept: the start is gone, the
    // recent end still answers
    let (position, _) = directory.events_since(u64::MAX).unwrap();
    assert_eq!(position, 3 * 500 * BATCH - BATCH);
    assert!(directory.events_since(0).is_none());
    let (_, recent) = directory.events_since(position - 2 * BATCH).unwrap();
    assert_eq!(recent.len(), 2 * BATCH as usize);
}

#[test]
fn unconsumed_discovery_table_stays_at_fleet_size_over_ten_thousand_ticks() {
    // 10⁴ ticks, each with one sensor leaving and a fresh-named one joining,
    // on a discovery table no query reads: nothing ever commits it, so every
    // row a departed sensor had must be taken back out of the *queued*
    // mutations, and the rows the discovery query remembers must go with
    // the sensors. A second relation over the same directory, driven by
    // hand, shows the part `Pems` keeps to itself.
    use serena::core::snapshot::Writer;
    use serena::pems::Pems;
    use serena::services::bus::BusConfig;
    use serena::services::discovery::{Applied, DiscoveryQuery};
    use serena::stream::TableHandle;

    const FLEET: u64 = 20;
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
    let sensors = pems.tables().table("sensors").unwrap();
    let mut by_hand = DiscoveryQuery::new("getTemperature", sensors.schema(), "sensor").unwrap();
    let shadow = TableHandle::new(sensors.schema());
    let exported = |table: &TableHandle| {
        let mut w = Writer::new();
        table.export_state(&mut w);
        w.into_bytes().len()
    };

    let lerm = pems.local_erm("wing");
    let directory = pems.directory();
    let join = |index: u64, at: Instant| {
        // fixed-width names: every row encodes to the same number of bytes
        let name = format!("s{index:06}");
        let sensor = serena::core::service::fixtures::temperature_sensor(index);
        lerm.register_service(name.clone(), sensor, at);
        directory.set(name, "location", Value::str("office"));
    };
    for index in 0..FLEET {
        join(index, pems.clock());
    }
    pems.tick();
    assert_eq!(by_hand.apply(&directory, &shadow), Applied::Relisted);
    let plateau = exported(&sensors);
    assert_eq!(exported(&shadow), plateau);

    for tick in 0..10_000u64 {
        lerm.unregister_service(format!("s{tick:06}"), pems.clock());
        join(FLEET + tick, pems.clock());
        assert!(pems.tick().is_empty());
        // the leaver and the joiner, whose `set` and announcement are two
        // entries naming one reference
        let applied = by_hand.apply(&directory, &shadow);
        assert_eq!(applied, Applied::Reconciled(2), "at tick {tick}");
        assert_eq!(by_hand.held() as u64, FLEET, "at tick {tick}");
        if tick % 500 == 0 || tick == 9_999 {
            assert_eq!(sensors.projected().len() as u64, FLEET, "at tick {tick}");
            assert!(sensors.snapshot().is_empty(), "nothing commits the table");
            assert_eq!(exported(&sensors), plateau, "at tick {tick}");
            assert_eq!(exported(&shadow), plateau, "at tick {tick}");
        }
    }
    assert_eq!(directory.len() as u64, FLEET);
}

#[test]
fn hub_retention_stays_within_one_instant_over_ten_thousand_ticks() {
    // 10⁴ instants of pushes into one stream three queries read, one of them
    // deregistered halfway: a hub keeps a batch until its last live
    // subscription has read it, so after each tick it holds nothing — and
    // between the pushes and the tick, that instant's pushes and no more. A
    // departed query's cursor must not pin the log from there on.
    use serena::core::tuple;
    use serena::pems::Pems;

    const PER_INSTANT: usize = 8;
    let mut pems = Pems::builder().build();
    pems.run_program(
        "EXTENDED RELATION readings ( location STRING, temperature REAL ) STREAM;
         REGISTER QUERY hot AS SELECT[temperature > 30.0](WINDOW[4](readings));
         REGISTER QUERY places AS PROJECT[location](WINDOW[8](readings));
         REGISTER QUERY both AS UNION(WINDOW[1](readings), WINDOW[3](readings));",
    )
    .unwrap();
    let retained = |pems: &Pems| pems.tables().hub_retention()[0].1;
    let gauge = |pems: &Pems| {
        let stream = [("stream", "readings")];
        let registry = pems.metrics_registry();
        registry.gauge("serena_hub_retained_tuples", &stream).get()
    };
    let mut reported = 0usize;
    for at in 0..10_000u64 {
        if at == 5_000 {
            pems.run_program("UNREGISTER QUERY places;").unwrap();
        }
        for i in 0..PER_INSTANT as u64 {
            let temperature = 20.0 + ((at * 7 + i) % 15) as f64;
            let reading = tuple![format!("room{}", (at + i) % 5), temperature];
            assert!(pems.tables().push_stream("readings", reading));
        }
        assert_eq!(retained(&pems), PER_INSTANT, "before tick {at}");
        let reports = pems.tick();
        assert_eq!(reports.len(), if at < 5_000 { 3 } else { 2 });
        reported += reports
            .iter()
            .map(|(_, r)| r.delta.magnitude())
            .sum::<usize>();
        assert_eq!(retained(&pems), 0, "after tick {at}");
        assert_eq!(gauge(&pems), 0, "after tick {at}");
    }
    assert!(reported > 10_000 * PER_INSTANT, "the queries stayed live");
    // with no query left nothing is delivered to anybody: nothing is kept
    pems.run_program("UNREGISTER QUERY hot; UNREGISTER QUERY both;")
        .unwrap();
    assert!(pems.tables().push_stream("readings", tuple!["attic", 31.0]));
    assert_eq!(retained(&pems), 0);
}
