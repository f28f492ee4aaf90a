//! σ and π over one pushed stream share what they map: the queries whose
//! operators compute the same take one bag per batch, made by whichever
//! worker asks first. That is a race, and nothing a query reports or a
//! checkpoint holds may depend on who wins it. A `fanout`-shaped runtime —
//! duplicate σ/π window queries over one push stream — must tick to the
//! same reports and the same snapshot bytes at 1, 2 and 8 scheduler
//! workers, and a checkpoint cut at a seeded tick must resume to the
//! uninterrupted run. Which worker builds a batch's text lookup, which
//! `σ_{location=p ∧ …}` reads instead of scanning, is a race of the same
//! kind.

mod common;

use common::{Baseline, Handoff, Rng};
use serena::core::tuple;
use serena::pems::SchedulerConfig;
use serena::prelude::*;
use serena::services::bus::BusConfig;

const TICKS: u64 = 16;
const PLACES: [&str; 6] = ["office", "roof", "lab", "hall", "attic", "cellar"];

/// Duplicate σ and π window queries over one push stream, as `fanout`
/// registers them: σ_{temperature>θ} over four θ, σ_{location=·} over four
/// places, identical π_location, and one σπ chain, each several times;
/// and σ_{location=p ∧ temperature>θ}, which looks its rows up, beside
/// σ_{temperature>θ ∧ location=p}, whose equality is not leading and which
/// scans.
fn fanout_pems(workers: usize) -> Pems {
    let mut pems = Pems::builder()
        .bus(BusConfig::instant())
        .scheduler(SchedulerConfig::new(workers))
        .build();
    pems.run_program("EXTENDED RELATION readings ( location STRING, temperature REAL ) STREAM;")
        .unwrap();
    let window = |i: usize| StreamPlan::source("readings").window(2 + i as u64 % 3);
    let mut plans = Vec::new();
    for i in 0..12 {
        let theta = 10.0 + 5.0 * (i % 4) as f64;
        plans.push(window(i).select(Formula::gt_const("temperature", theta)));
        let place = PLACES[i % 4];
        plans.push(window(i).select(Formula::eq_const("location", place)));
    }
    for i in 0..6 {
        plans.push(window(i).project(["location"]));
        plans.push(
            window(i)
                .select(Formula::gt_const("temperature", 15.0))
                .project(["location"]),
        );
    }
    for i in 0..6 {
        let (place, theta) = (PLACES[i % 4], 10.0 + 5.0 * (i % 3) as f64);
        let (at, hot) = (
            || Formula::eq_const("location", place),
            || Formula::gt_const("temperature", theta),
        );
        plans.push(window(i).select(at().and(hot())));
        plans.push(window(i).select(hot().and(at())));
    }
    for (i, plan) in plans.iter().enumerate() {
        pems.register_query(format!("q{i:02}"), plan).unwrap();
    }
    pems
}

/// What the stream appends at `at`: 48 readings drawn from few enough
/// values that a batch repeats some of them.
fn push_readings(pems: &mut Pems, at: u64) {
    let mut rng = Rng::new(0x3201 + at);
    for _ in 0..48 {
        let place = *rng.pick(&PLACES);
        let reading = tuple![place, 5.0 + 2.5 * rng.below(12) as f64];
        assert!(pems.tables().push_stream("readings", reading));
    }
}

/// Every tick's reports and snapshot at `workers`.
fn run(workers: usize) -> Baseline<fn(&mut Pems, u64)> {
    Baseline::run(fanout_pems(workers), TICKS, push_readings)
}

#[test]
fn reports_and_snapshots_are_byte_identical_at_every_worker_count() {
    let serial = run(1).ticks;
    let moved = serial.iter().flat_map(|(obs, _)| obs);
    assert!(moved.filter(|o| o.delta_bytes.len() > 16).count() > 200);
    for workers in [2, 8] {
        for (at, (got, expected)) in run(workers).ticks.iter().zip(&serial).enumerate() {
            assert_eq!(got.0, expected.0, "reports at {at}, workers={workers}");
            assert!(got.1 == expected.1, "snapshot at {at}, workers={workers}");
        }
    }
}

#[test]
fn a_checkpoint_at_a_seeded_tick_resumes_the_uninterrupted_run() {
    let mut baseline = run(1);
    for seed in 0..3 {
        let kill = Rng::new(0x3202 + seed).u64_in(1, TICKS - 1);
        let workers = [2, 8, 2][seed as usize];
        let (doomed, fresh) = (fanout_pems(workers), fanout_pems(10 - workers));
        let context = format!("workers={workers}");
        baseline.crash_and_resume(kill, doomed, fresh, Handoff::Bytes, &context);
    }
}
