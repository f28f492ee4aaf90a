//! σ and π over one pushed stream share what they map: the queries whose
//! operators compute the same take one bag per batch, made by whichever
//! worker asks first. That is a race, and nothing a query reports or a
//! checkpoint holds may depend on who wins it. A `fanout`-shaped runtime —
//! duplicate σ/π window queries over one push stream — must tick to the
//! same reports and the same snapshot bytes at 1, 2 and 8 scheduler
//! workers, and a checkpoint cut at a seeded tick must resume to the
//! uninterrupted run.

mod common;

use common::Rng;
use serena::core::snapshot::Writer;
use serena::core::tuple;
use serena::pems::SchedulerConfig;
use serena::prelude::*;
use serena::services::bus::BusConfig;

const TICKS: u64 = 16;
const PLACES: [&str; 6] = ["office", "roof", "lab", "hall", "attic", "cellar"];

/// Duplicate σ and π window queries over one push stream, as `fanout`
/// registers them: σ_{temperature>θ} over four θ, σ_{location=·} over four
/// places, identical π_location, and one σπ chain, each several times.
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
    for (i, plan) in plans.iter().enumerate() {
        pems.register_query(format!("q{i:02}"), plan).unwrap();
    }
    pems
}

/// What the stream appends at `at`: 48 readings drawn from few enough
/// values that a batch repeats some of them.
fn push_readings(pems: &Pems, at: u64) {
    let mut rng = Rng::new(0x3201 + at);
    for _ in 0..48 {
        let place = *rng.pick(&PLACES);
        let reading = tuple![place, 5.0 + 2.5 * rng.below(12) as f64];
        assert!(pems.tables().push_stream("readings", reading));
    }
}

/// One query's tick in comparable form: the delta through its canonical
/// encoding, so equality is byte-level.
#[derive(Debug, PartialEq)]
struct Obs {
    query: String,
    at: Instant,
    delta: Vec<u8>,
    batch: Vec<Tuple>,
    actions: String,
    errors: Vec<String>,
}

fn observe(reports: Vec<(String, TickReport)>) -> Vec<Obs> {
    reports
        .into_iter()
        .map(|(query, r)| {
            let mut w = Writer::new();
            r.delta.encode(&mut w);
            Obs {
                query,
                at: r.at,
                delta: w.into_bytes(),
                batch: r.batch,
                actions: r.actions.to_string(),
                errors: r.errors.iter().map(|e| e.to_string()).collect(),
            }
        })
        .collect()
}

/// Every tick's reports and snapshot at `workers`.
fn run(workers: usize) -> Vec<(Vec<Obs>, Vec<u8>)> {
    let mut pems = fanout_pems(workers);
    (0..TICKS)
        .map(|at| {
            push_readings(&pems, at);
            let reports = observe(pems.tick());
            (reports, pems.snapshot_bytes())
        })
        .collect()
}

#[test]
fn reports_and_snapshots_are_byte_identical_at_every_worker_count() {
    let serial = run(1);
    let moved = serial.iter().flat_map(|(obs, _)| obs);
    assert!(moved.filter(|o| o.delta.len() > 16).count() > 200);
    for workers in [2, 8] {
        for (at, (got, expected)) in run(workers).iter().zip(&serial).enumerate() {
            assert_eq!(got.0, expected.0, "reports at {at}, workers={workers}");
            assert!(got.1 == expected.1, "snapshot at {at}, workers={workers}");
        }
    }
}

#[test]
fn a_checkpoint_at_a_seeded_tick_resumes_the_uninterrupted_run() {
    let expected = run(1);
    for seed in 0..3 {
        let kill = Rng::new(0x3202 + seed).u64_in(1, TICKS - 1);
        let workers = [2, 8, 2][seed as usize];
        let mut doomed = fanout_pems(workers);
        for at in 0..kill {
            push_readings(&doomed, at);
            doomed.tick();
        }
        let bytes = doomed.snapshot_bytes();
        drop(doomed);
        let mut recovered = fanout_pems(10 - workers);
        recovered.restore_bytes(&bytes).unwrap();
        assert!(recovered.snapshot_bytes() == expected[kill as usize - 1].1);
        for at in kill..TICKS {
            push_readings(&recovered, at);
            let got = (observe(recovered.tick()), recovered.snapshot_bytes());
            let context = format!("tick {at}, checkpoint after {kill}, workers={workers}");
            assert_eq!(got.0, expected[at as usize].0, "{context}");
            assert!(got.1 == expected[at as usize].1, "{context}");
        }
    }
}
