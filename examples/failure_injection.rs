//! Robustness under failing devices — the assessment §5.2 leaves open.
//!
//! A surveillance-style deployment built entirely from an [`EnvSpec`]:
//! three sensors, one suffering a scripted outage and one failing every
//! other call (per-device fault overrides on the spec). Invocation errors
//! surface in the tick reports, healthy sensors keep flowing, and when the
//! flaky device recovers, its readings resume — the continuous query never
//! stops.
//!
//! ```sh
//! cargo run --example failure_injection
//! ```

use serena::core::prelude::*;
use serena::pems::envspec::{EnvSpec, QueryTemplate, WorkloadSpec};
use serena::services::faults::FaultPolicy;

fn main() {
    let spec = EnvSpec::new(1)
        .sensors(3)
        .areas(["office", "roof", "lab"])
        .sensor_fault(
            1,
            FaultPolicy::Outage {
                from: Instant(2),
                to: Instant(4),
            },
        )
        .sensor_fault(2, FaultPolicy::Intermittent { fail: 1, ok: 1 });
    let (mut pems, fleet) = spec.build().expect("setup");
    let names = WorkloadSpec::new()
        .queries(QueryTemplate::SampledTemperatures { every: 1 }, 1)
        .register_into(&mut pems, &spec)
        .expect("register");
    let query = &names[0];

    println!("3 sensors: sensor00 steady | sensor01 down τ2–τ4 | sensor02 every 2nd call fails\n");
    for (sensor, area) in &fleet.sensors {
        println!("  {sensor} covers {area}");
    }
    println!();
    for t in 0..7u64 {
        let reports = pems.tick();
        let (_, report) = &reports[0];
        println!(
            "τ={t}: +{} readings, {} error(s){}",
            report.batch.len() + report.delta.inserts.len(),
            report.errors.len(),
            if report.errors.is_empty() {
                String::new()
            } else {
                format!(" — e.g. {}", report.errors[0])
            }
        );
    }

    let stats = pems.processor().stats(query).expect("registered");
    println!(
        "\nquery survived: {} ticks, {} readings, {} errors — and it is still registered.",
        stats.ticks, stats.inserted, stats.errors
    );
    println!("\n== service health (β-observed failure rates) ==");
    for h in pems.service_health() {
        println!(
            "  {}: {}/{} calls failed",
            h.reference, h.failures, h.attempts
        );
    }
}
