//! E6 — reproduce **Figure 1 + §5.2 scenario 1**: the full PEMS running
//! the temperature-surveillance experiment, with the architecture's module
//! interactions visible in the output: LERM registrations travelling the
//! discovery bus, the discovery query maintaining `cameras`, the
//! continuous alert query sending messages, and a sensor hot-plugged
//! mid-query.
//!
//! ```sh
//! cargo run -p serena-bench --bin fig1_surveillance
//! ```

use serena_bench::report;
use serena_core::prelude::*;
use serena_pems::scenario::{deploy_surveillance, total_messages, SurveillanceConfig};
use serena_services::bus::BusConfig;
use serena_services::devices::temperature::SimTemperatureSensor;

fn main() {
    println!(
        "{}",
        report::banner("Figure 1 — PEMS architecture, assembled")
    );
    println!(
        "core modules: Environment Resource Manager (discovery bus + registry),\n\
         Extended Table Manager (XD-Relations + DDL), Query Processor (continuous queries)\n\
         distributed: Local ERMs announcing services over the simulated network\n"
    );

    let config = SurveillanceConfig {
        sensors: 9,
        cameras: 6,
        contacts: 3,
        threshold: 30.0,
        heat_events: vec![
            (1, Instant(3), Instant(3), 41.0),
            (2, Instant(6), Instant(6), 39.0),
        ],
        bus: BusConfig {
            announce_latency: 1,
            leave_latency: 1,
            jitter: 0,
            seed: 11,
        },
        ..SurveillanceConfig::default()
    };
    let mut s = deploy_surveillance(&config).expect("deployment");
    println!(
        "deployed: {} sensors, {} cameras, {} contacts behind LERM 'building' (announce latency 1 tick)",
        config.sensors, config.cameras, config.contacts
    );

    let mut rows = Vec::new();
    for tick in 0..12u64 {
        let discovered = s.pems.directory().len();
        let reports = s.pems.tick();
        let mut alerts = 0;
        let mut photos = 0;
        let mut errors = 0;
        for (name, r) in &reports {
            match name.as_str() {
                "alerts" => {
                    alerts = r.actions.len();
                    errors += r.errors.len();
                }
                "photos" => photos = r.batch.len(),
                _ => {}
            }
        }
        rows.push(vec![
            format!("{tick}"),
            format!("{discovered}"),
            format!("{alerts}"),
            format!("{photos}"),
            format!("{errors}"),
        ]);
        if tick == 7 {
            let lerm = s.pems.local_erm("annex");
            lerm.register_service(
                "sensor99",
                SimTemperatureSensor::new(99, 45.0, 0.5).into_service(),
                s.pems.clock(),
            );
            s.pems
                .directory()
                .set("sensor99", "location", Value::str("office"));
            println!(">>> τ=7: hot-plugged sensor99 (45 °C, office) via LERM 'annex'");
        }
    }

    println!(
        "\n{}",
        report::table(
            &[
                "τ",
                "services discovered",
                "alerts sent",
                "photos emitted",
                "errors"
            ],
            &rows
        )
    );

    println!(
        "{}",
        report::banner(
            "delivered messages (the observable the paper verified by phone/mail client)"
        )
    );
    for (service, outbox) in &s.outboxes {
        for msg in outbox.lock().iter() {
            println!("  [{service}] {} → {}: {:?}", msg.at, msg.address, msg.text);
        }
    }

    let delivered = total_messages(&s.outboxes);
    assert!(delivered >= 2, "the two scripted heat events must alert");
    let hotplug_alerts: usize = s
        .outboxes
        .values()
        .flat_map(|o| o.lock().clone())
        .filter(|m| m.at.ticks() >= 9)
        .count();
    assert!(
        hotplug_alerts > 0,
        "the hot-plugged sensor must raise alerts without restarting the query"
    );
    println!(
        "\nOK: {delivered} messages delivered; late-joining sensor integrated mid-query ({hotplug_alerts} of them after the hot-plug)."
    );

    // ------------------------------------------------------------------
    // The FULL §5.2 scenario: one combined query over all four
    // XD-Relations, delivering the triggering camera shot as a photo
    // message (contacts extended "with an additional attribute allowing to
    // send a picture with a message").
    // ------------------------------------------------------------------
    println!(
        "{}",
        report::banner("full scenario — photo alerts (one combined query)")
    );
    let config = SurveillanceConfig {
        sensors: 6,
        cameras: 6,
        contacts: 3,
        threshold: 30.0,
        photo_alerts: true,
        heat_events: vec![(1, Instant(2), Instant(2), 44.0)],
        ..SurveillanceConfig::default()
    };
    let mut s = deploy_surveillance(&config).expect("full deployment");
    for _ in 0..6 {
        s.pems.tick();
    }
    let photo_msgs: Vec<_> = s
        .outboxes
        .values()
        .flat_map(|o| o.lock().clone())
        .filter(|m| m.attachment_bytes > 0)
        .collect();
    for m in &photo_msgs {
        println!(
            "  [{}] {} → {}: {:?} (+{} byte photo)",
            m.via.label(),
            m.at,
            m.address,
            m.text,
            m.attachment_bytes
        );
    }
    assert!(
        !photo_msgs.is_empty(),
        "the combined query must deliver a photo message"
    );
    println!(
        "OK: {} photo message(s) — implicit realization carried the camera shot into the contacts' virtual `photo`.",
        photo_msgs.len()
    );
}
