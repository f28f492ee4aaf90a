//! Crash-injection differential tests for checkpoint/recovery, plus the
//! panic-containment acceptance test.
//!
//! The contract under test: a runtime killed after any tick and recovered
//! from its snapshot (static setup re-run, dynamic state rehydrated)
//! produces **byte-identical** output from that point on — same per-tick
//! deltas (compared through their canonical snapshot encoding), same
//! batches, same action sets, same β invocation/cache counters — at every
//! kill point. And: a service whose body
//! panics never takes the process down; the panic surfaces as a contained
//! error visible in health, Prometheus and the tick report, honoring the
//! configured degradation policy.

use serena::core::snapshot::{SnapshotError, Writer};
use serena::core::tuple;
use serena::pems::SchedulerConfig;
use serena::prelude::*;
use serena::services::bus::BusConfig;

/// The number of ticks every differential run covers.
const TICKS: u64 = 6;

/// A deterministic PEMS: four simulated sensors, a finite `sensors` table
/// mutated by [`apply_script`], a `readings` stream that is a pure
/// function of the instant, and five continuous queries covering every
/// stateful executor node kind (table delta, β cache, window ring,
/// projection pipeline, βˢ sampling).
fn recovery_pems() -> Pems {
    recovery_pems_on(None)
}

/// [`recovery_pems`] with an explicit multi-query scheduler width
/// (`None` keeps the runtime default).
fn recovery_pems_on(workers: Option<usize>) -> Pems {
    use serena::core::service::fixtures;
    let mut builder = Pems::builder().bus(BusConfig::instant());
    if let Some(w) = workers {
        builder = builder.scheduler(SchedulerConfig::new(w));
    }
    let mut pems = builder.build();
    let reg = pems.directory();
    for (name, seed) in [
        ("sensor01", 1u64),
        ("sensor06", 6),
        ("sensor07", 7),
        ("sensor22", 22),
    ] {
        reg.register(name, fixtures::temperature_sensor(seed));
    }
    pems.run_program(
        "PROTOTYPE getTemperature( ) : ( temperature REAL );
         EXTENDED RELATION sensors (
           sensor SERVICE, location STRING, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getTemperature[sensor] );",
    )
    .unwrap();
    let schema = serena::core::schema::XSchema::builder()
        .real("location", serena::core::value::DataType::Str)
        .real("temperature", serena::core::value::DataType::Real)
        .build()
        .unwrap();
    pems.tables_mut()
        .define_stream_with("readings", schema, || {
            Box::new(serena::stream::FnStream(|at: Instant| {
                let t = at.ticks();
                vec![
                    tuple!["office", 15.0 + t as f64],
                    tuple!["roof", 5.0 + (t % 3) as f64],
                ]
            }))
        })
        .unwrap();
    pems.register_query("all", &StreamPlan::source("sensors"))
        .unwrap();
    pems.register_query(
        "temps",
        &StreamPlan::source("sensors").invoke("getTemperature", "sensor"),
    )
    .unwrap();
    pems.register_query(
        "hot",
        &StreamPlan::source("readings")
            .window(2)
            .select(Formula::gt_const("temperature", 16.0)),
    )
    .unwrap();
    pems.register_query(
        "recent",
        &StreamPlan::source("readings")
            .window(3)
            .project(["location"]),
    )
    .unwrap();
    pems.register_query(
        "sampled",
        &StreamPlan::source("sensors").sample_invoke("getTemperature", "sensor", 2),
    )
    .unwrap();
    pems
}

/// The scripted table mutations applied *before* tick `t` — the input the
/// driver keeps replaying after a recovery.
fn apply_script(pems: &mut Pems, t: u64) {
    let program = match t {
        0 => "INSERT INTO sensors VALUES ('sensor01', 'corridor'), ('sensor06', 'office');",
        2 => "INSERT INTO sensors VALUES ('sensor07', 'office');",
        // exercises exact retraction from a *restored* β cache
        3 => "DELETE FROM sensors VALUES ('sensor06', 'office');",
        4 => {
            "INSERT INTO sensors VALUES ('sensor22', 'roof');
              DELETE FROM sensors VALUES ('sensor01', 'corridor');"
        }
        _ => return,
    };
    pems.run_program(program).unwrap();
}

/// Everything observable about one query's tick, in comparable form. The
/// delta goes through its canonical snapshot encoding so equality is
/// byte-level, not just structural.
#[derive(Debug, PartialEq)]
struct Obs {
    query: String,
    at: Instant,
    delta_bytes: Vec<u8>,
    batch: Vec<serena::core::tuple::Tuple>,
    actions: String,
    errors: Vec<String>,
    invocations: u64,
    cache_hits: u64,
    cache_misses: u64,
    failures: u64,
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
                delta_bytes: w.into_bytes(),
                batch: r.batch.clone(),
                actions: r.actions.to_string(),
                errors: r.errors.iter().map(|e| e.to_string()).collect(),
                invocations: r.stats.total_invocations(),
                cache_hits: r.stats.total_cache_hits(),
                cache_misses: r.stats.total_cache_misses(),
                failures: r.stats.total_failures(),
            }
        })
        .collect()
}

/// Tentpole acceptance: kill the runtime after every instant `0..TICKS`,
/// recover from the snapshot, and compare every remaining tick against the
/// uninterrupted baseline.
#[test]
fn recovery_is_byte_identical_at_every_kill_point() {
    // the uninterrupted run
    let mut baseline = recovery_pems();
    let mut expected = Vec::new();
    for t in 0..TICKS {
        apply_script(&mut baseline, t);
        expected.push(observe(baseline.tick()));
    }

    for kill in 0..TICKS {
        // run a fresh instance up to the kill point, snapshot, "crash"
        let mut doomed = recovery_pems();
        for t in 0..kill {
            apply_script(&mut doomed, t);
            doomed.tick();
        }
        let snapshot = doomed.snapshot_bytes();
        drop(doomed);

        // recover: re-run the static setup, rehydrate, resume
        let mut recovered = recovery_pems();
        recovered
            .restore_bytes(&snapshot)
            .unwrap_or_else(|e| panic!("restore failed (kill={kill}): {e}"));
        assert_eq!(recovered.clock(), Instant(kill));
        for t in kill..TICKS {
            apply_script(&mut recovered, t);
            let got = observe(recovered.tick());
            assert_eq!(
                got, expected[t as usize],
                "tick {t} diverged after kill={kill}"
            );
        }

        // final aggregates agree with the uninterrupted run too
        for query in ["all", "temps", "hot", "recent", "sampled"] {
            assert_eq!(
                recovered.processor().stats(query),
                baseline.processor().stats(query),
                "stats for `{query}` diverged after kill={kill}"
            );
            assert_eq!(
                recovered.processor().current_relation(query),
                baseline.processor().current_relation(query),
                "result of `{query}` diverged after kill={kill}"
            );
        }
    }
}

/// ISSUE 7 satellite: a checkpoint cut while the multi-query scheduler is
/// splitting its rounds over 4 workers restores byte-identically — whether the
/// recovered runtime resumes on 4 workers or on a single one. The
/// snapshot format is scheduler-agnostic, so the uninterrupted
/// single-worker run is the ground truth for both resume widths.
#[test]
fn multi_worker_kill_restore_matches_single_worker_baseline() {
    let mut baseline = recovery_pems_on(Some(1));
    let mut expected = Vec::new();
    for t in 0..TICKS {
        apply_script(&mut baseline, t);
        expected.push(observe(baseline.tick()));
    }

    for kill in [2u64, 4] {
        // crash a 4-worker runtime mid-run…
        let mut doomed = recovery_pems_on(Some(4));
        for t in 0..kill {
            apply_script(&mut doomed, t);
            doomed.tick();
        }
        let snapshot = doomed.snapshot_bytes();
        drop(doomed);

        // …and resume on both pool widths: same bytes, same future.
        for resume_workers in [1usize, 4] {
            let mut recovered = recovery_pems_on(Some(resume_workers));
            recovered.restore_bytes(&snapshot).unwrap_or_else(|e| {
                panic!("restore failed (kill={kill}, resume workers={resume_workers}): {e}")
            });
            assert_eq!(recovered.clock(), Instant(kill));
            for t in kill..TICKS {
                apply_script(&mut recovered, t);
                let got = observe(recovered.tick());
                assert_eq!(
                    got, expected[t as usize],
                    "tick {t} diverged (kill={kill}, resume workers={resume_workers})"
                );
            }
            for query in ["all", "temps", "hot", "recent", "sampled"] {
                assert_eq!(
                    recovered.processor().current_relation(query),
                    baseline.processor().current_relation(query),
                    "result of `{query}` diverged (kill={kill}, resume workers={resume_workers})"
                );
            }
        }
    }
}

/// The periodic checkpoint a running PEMS writes is itself a valid
/// recovery point: restore from the *file* (not in-memory bytes) and the
/// remaining ticks match the baseline.
#[test]
fn recovery_from_checkpoint_file_resumes_identically() {
    let dir = std::env::temp_dir().join(format!("serena-recovery-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut baseline = recovery_pems();
    let mut expected = Vec::new();
    for t in 0..TICKS {
        apply_script(&mut baseline, t);
        expected.push(observe(baseline.tick()));
    }

    // checkpoint every second tick; crash after 4 ticks — the file on
    // disk was last cut after tick 3 completed (clock = 4)
    let mut doomed = recovery_pems();
    for t in 0..4u64 {
        apply_script(&mut doomed, t);
        doomed.tick();
        if (t + 1) % 2 == 0 {
            doomed.checkpoint_to(&dir).unwrap();
        }
    }
    drop(doomed);

    let mut recovered = recovery_pems();
    recovered.restore_from(&dir).unwrap();
    let resume = recovered.clock().ticks();
    assert_eq!(resume, 4, "checkpoint cut after tick 3");
    for t in resume..TICKS {
        apply_script(&mut recovered, t);
        let got = observe(recovered.tick());
        assert_eq!(
            got, expected[t as usize],
            "tick {t} diverged after file recovery"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite acceptance: a panicking service never aborts the process.
/// The panic is contained into an error, counted in health and
/// `serena_beta_panic_total`, honors the degradation policy, and the
/// runtime stays usable for subsequent ticks.
#[test]
fn panicking_service_is_contained_through_the_full_stack() {
    use serena::core::service::fixtures;

    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the contained panics quiet

    let run = |degrade: DegradePolicy| {
        let mut pems = Pems::builder()
            .bus(BusConfig::instant())
            .exec_options(ExecOptions::serial().with_degrade(degrade))
            .build();
        let reg = pems.directory();
        reg.register("sensor01", fixtures::temperature_sensor(1));
        reg.register("sensor06", fixtures::panicking_sensor());
        pems.run_program(
            "PROTOTYPE getTemperature( ) : ( temperature REAL );
             EXTENDED RELATION sensors (
               sensor SERVICE, location STRING, temperature REAL VIRTUAL
             ) USING BINDING PATTERNS ( getTemperature[sensor] );
             INSERT INTO sensors VALUES
               ('sensor01', 'corridor'), ('sensor06', 'office');
             REGISTER QUERY temps AS INVOKE[getTemperature[sensor]](sensors);",
        )
        .unwrap();
        pems
    };

    // DropTuple: the panicking sensor's tuple is dropped, the healthy
    // sensor's survives — across several ticks (nothing is poisoned)
    let mut pems = run(DegradePolicy::DropTuple);
    let first = pems.tick();
    assert_eq!(first[0].1.delta.inserts.len(), 1, "healthy tuple survives");
    pems.run_program("INSERT INTO sensors VALUES ('sensor06', 'roof');")
        .unwrap();
    let second = pems.tick();
    assert_eq!(
        second[0].1.delta.inserts.len(),
        0,
        "panicking tuple dropped again"
    );

    // the panic is visible end to end: health, Prometheus, breakers intact
    let health = pems.service_health();
    let bad = health
        .iter()
        .find(|h| h.reference.as_str() == "sensor06")
        .expect("panicking service observed by health");
    assert!(bad.failures >= 2, "{bad:?}");
    assert!(
        bad.last_error.as_deref().unwrap_or("").contains("panicked"),
        "{:?}",
        bad.last_error
    );
    let metrics = pems.metrics_registry();
    let panics = metrics
        .counter_value("serena_beta_panic_total", &[("op", "Invoke")])
        .unwrap_or(0);
    assert!(panics >= 2, "serena_beta_panic_total = {panics}");
    let rendered = pems.render_metrics();
    assert!(rendered.contains("serena_beta_panic_total"));

    // FailQuery (the default): the tick survives, the error carries the
    // panic, and the process is — evidently — still alive
    let mut strict = run(DegradePolicy::FailQuery);
    let reports = strict.tick();
    assert_eq!(reports[0].1.errors.len(), 1);
    assert!(
        reports[0].1.errors[0].to_string().contains("panicked"),
        "{}",
        reports[0].1.errors[0]
    );

    std::panic::set_hook(prev);
}

/// The `readings` of [`stateful_pems`]: six tuples an
/// instant over four locations, temperatures in tenths — sums of them round,
/// so a SUM or AVG that depended on fold order would show.
fn tenths(at: Instant) -> Vec<serena::core::tuple::Tuple> {
    let t = at.ticks();
    (0..6u64)
        .map(|i| {
            let location = ["office", "lab", "roof", "hall"][((t + i * i) % 4) as usize];
            tuple![location, 0.1 * ((t * 7 + i * 13) % 90) as f64]
        })
        .collect()
}

/// The `rooms` rows written before instant `t`: rooms come and go, so join
/// keys, ∪/− tuples and groups appear and vanish.
fn rooms_script(t: u64) -> Vec<(bool, serena::core::tuple::Tuple)> {
    let room = |i: u64| {
        tuple![
            ["office", "lab", "roof", "hall"][(i % 4) as usize],
            (i % 3) as i64
        ]
    };
    match t % 4 {
        0 => vec![(true, room(t / 4)), (true, room(t / 4 + 1))],
        2 => vec![(false, room(t / 4))],
        3 => vec![(true, room(t / 4 + 2)), (false, room(t / 4 + 1))],
        _ => vec![],
    }
}

/// ⋈, γ, ∪ and − — the operators whose state beside `current` is derived on
/// restore, not checkpointed — over `readings` windows and a churning
/// `rooms` table.
fn stateful_plans() -> Vec<(&'static str, StreamPlan)> {
    use serena::core::ops::{AggFun, AggSpec};
    let readings = |w: u64| StreamPlan::source("readings").window(w);
    let rooms = || StreamPlan::source("rooms");
    let every = |attr: &str| {
        [
            AggFun::Count,
            AggFun::Sum,
            AggFun::Avg,
            AggFun::Min,
            AggFun::Max,
        ]
        .map(|fun| AggSpec::new(fun, attr))
        .to_vec()
    };
    vec![
        ("joined", readings(3).join(rooms())),
        (
            "mean",
            readings(4).aggregate(["location"], every("temperature")),
        ),
        (
            "seen",
            readings(2)
                .project(["location"])
                .union(rooms().project(["location"])),
        ),
        (
            "unseen",
            rooms()
                .project(["location"])
                .difference(readings(2).project(["location"])),
        ),
        (
            "per_floor",
            readings(3)
                .join(rooms())
                .aggregate(["floor"], every("temperature")),
        ),
    ]
}

fn stateful_pems() -> Pems {
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    pems.run_program("EXTENDED RELATION rooms ( location STRING, floor INTEGER );")
        .unwrap();
    let schema = serena::core::schema::XSchema::builder()
        .real("location", serena::core::value::DataType::Str)
        .real("temperature", serena::core::value::DataType::Real)
        .build()
        .unwrap();
    pems.tables_mut()
        .define_stream_with("readings", schema, || {
            Box::new(serena::stream::FnStream(tenths))
        })
        .unwrap();
    for (name, plan) in stateful_plans() {
        pems.register_query(name, &plan).unwrap();
    }
    pems
}

fn apply_rooms_script(pems: &mut Pems, t: u64) {
    for (insert, row) in rooms_script(t) {
        if insert {
            pems.tables().insert("rooms", row).unwrap();
        } else {
            pems.tables().delete("rooms", row).unwrap();
        }
    }
}

/// ISSUE 14: the ⋈ indexes, the reordered set-operator operand and the γ
/// groups are not in the snapshot; a restore derives them from the restored
/// `current`s, and every later delta is byte-identical to the uninterrupted
/// run's — at kill points drawn from a seed.
#[test]
fn delta_native_operators_resume_byte_identically() {
    const RUN: u64 = 28;
    let mut baseline = stateful_pems();
    let mut expected = Vec::new();
    for t in 0..RUN {
        apply_rooms_script(&mut baseline, t);
        expected.push(observe(baseline.tick()));
    }
    let emitted: usize = expected.iter().flatten().map(|o| o.delta_bytes.len()).sum();
    assert!(emitted > 10_000, "the run must exercise the operators");

    let mut seed = 0x14_u64;
    for _ in 0..4 {
        // xorshift64: kill points in 3..RUN-3
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let kill = 3 + seed % (RUN - 6);
        let mut doomed = stateful_pems();
        for t in 0..kill {
            apply_rooms_script(&mut doomed, t);
            doomed.tick();
        }
        let snapshot = doomed.snapshot_bytes();
        drop(doomed);

        let mut recovered = stateful_pems();
        recovered
            .restore_bytes(&snapshot)
            .unwrap_or_else(|e| panic!("restore failed (kill={kill}): {e}"));
        assert_eq!(recovered.clock(), Instant(kill));
        for t in kill..RUN {
            apply_rooms_script(&mut recovered, t);
            let got = observe(recovered.tick());
            assert_eq!(got, expected[t as usize], "tick {t} diverged, kill={kill}");
        }
        for (query, _) in stateful_plans() {
            assert_eq!(
                recovered.processor().current_relation(query),
                baseline.processor().current_relation(query),
                "result of `{query}` diverged after kill={kill}"
            );
        }
    }
}

/// `σ(W[4](readings))`, whose window keeps no `current`, and
/// `γ(W[4](readings))`, whose window does, over one *pushed* stream: the two
/// rings hold the same `Arc`s until a restore gives each its own.
fn shared_window_pems() -> Pems {
    use serena::core::ops::{AggFun, AggSpec};
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    pems.run_program("EXTENDED RELATION readings ( location STRING, temperature REAL ) STREAM;")
        .unwrap();
    let window = || StreamPlan::source("readings").window(4);
    let warm = window().select(Formula::gt_const("temperature", 4.0));
    let mean = window().aggregate(
        ["location"],
        vec![
            AggSpec::new(AggFun::Avg, "temperature"),
            AggSpec::new(AggFun::Count, "temperature"),
        ],
    );
    pems.register_query("warm", &warm).unwrap();
    pems.register_query("mean", &mean).unwrap();
    pems
}

fn push_readings(pems: &Pems, t: u64) {
    for reading in tenths(Instant(t)) {
        assert!(pems.tables().push_stream("readings", reading));
    }
}

/// What `shared_window_pems().snapshot_bytes()` returned under snapshot
/// format v2 (an adaptive section, a bootstrap flag per window) after
/// instants 0 and 1 — the rings half-filled.
const V2_SNAPSHOT_AFTER_TWO_INSTANTS: &str = "\
    534552454e534e50020000000000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000200000000000000020000000000000004000000000000006d65616e0200000000000000\
    03030000000000000003000000000000000303000000000000006c616202cdcccccccccc0c40010600000000\
    000000010000000000000003000000000000000306000000000000006f666669636502cdcccccccccc044001\
    030000000000000001000000000000000300000000000000030400000000000000726f6f6602676666666666\
    1240010300000000000000010000000000000005040000000000000000020000000000000006000000000000\
    0002000000000000000306000000000000006f66666963650200000000000000000200000000000000030300\
    0000000000006c616202cdccccccccccf43f02000000000000000306000000000000006f666669636502cdcc\
    cccccccc044002000000000000000303000000000000006c6162023433333333330f40020000000000000003\
    06000000000000006f666669636502cdcccccccccc144002000000000000000303000000000000006c616202\
    0000000000001a40060000000000000002000000000000000303000000000000006c616202676666666666e6\
    3f0200000000000000030400000000000000726f6f6602000000000000004002000000000000000303000000\
    000000006c6162026766666666660a400200000000000000030400000000000000726f6f6602676666666666\
    124002000000000000000303000000000000006c6162029a9999999999174002000000000000000304000000\
    00000000726f6f6602cdcccccccccc1c40010200000000000000040000000000000001000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000000000000000030000000000\
    000000000000000000000b02000000000000000c000000000000000500000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
    000000198301000000000001000000000000000c02000000000000000c000000000000000c00000000000000\
    0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000002cbc000000000000020000000000000001020000000000000000000000000000\
    000c000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000008a1f00000000000004000000000000007761726d020000\
    000000000002050000000000000002000000000000000303000000000000006c6162029a9999999999174001\
    0000000000000002000000000000000303000000000000006c6162020000000000001a400100000000000000\
    02000000000000000306000000000000006f666669636502cdcccccccccc1440010000000000000002000000\
    00000000030400000000000000726f6f66026766666666661240010000000000000002000000000000000304\
    00000000000000726f6f6602cdcccccccccc1c40010000000000000005040000000000000000020000000000\
    0000060000000000000002000000000000000306000000000000006f66666963650200000000000000000200\
    0000000000000303000000000000006c616202cdccccccccccf43f0200000000000000030600000000000000\
    6f666669636502cdcccccccccc044002000000000000000303000000000000006c6162023433333333330f40\
    02000000000000000306000000000000006f666669636502cdcccccccccc1440020000000000000003030000\
    00000000006c6162020000000000001a40060000000000000002000000000000000303000000000000006c61\
    6202676666666666e63f0200000000000000030400000000000000726f6f6602000000000000004002000000\
    000000000303000000000000006c6162026766666666660a400200000000000000030400000000000000726f\
    6f6602676666666666124002000000000000000303000000000000006c6162029a9999999999174002000000\
    00000000030400000000000000726f6f6602cdcccccccccc1c40010200000000000000050000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
    000000030000000000000000000000000000000602000000000000000c000000000000000500000000000000\
    0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000001c5d00000000000001000000000000000c02000000000000000c000000000000\
    000c000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
    000000000000000000000000000000000000000000c4a4000000000000020000000000000001020000000000\
    000000000000000000000c000000000000000000000000000000000000000000000000000000000000000000\
    000000000000000000000000000000000000000000000000000000000000b719000000000000000000000000\
    000000000000000000000000000000000000000000000000000000000000000000000000000000000000";

fn unhex(hex: &str) -> Vec<u8> {
    let digit = |b: u8| (b as char).to_digit(16).unwrap() as u8;
    hex.as_bytes()
        .chunks(2)
        .map(|pair| digit(pair[0]) << 4 | digit(pair[1]))
        .collect()
}

/// A window's ring is `Arc<Batch>`es shared with the other queries over the
/// stream, and only some windows keep `current` — neither is in the
/// snapshot. Killed while the rings are part-filled (and once they are
/// full), both kinds of window resume byte-identically. A snapshot of the
/// previous format is refused with a typed error, and the runtime that
/// refused it is untouched.
#[test]
fn shared_window_rings_resume_byte_identically_and_from_a_parent_snapshot() {
    const RUN: u64 = 12;
    let mut baseline = shared_window_pems();
    let mut expected = Vec::new();
    for t in 0..RUN {
        push_readings(&baseline, t);
        expected.push(observe(baseline.tick()));
    }
    let resume = |snapshot: &[u8], kill: u64, from: &str| {
        let mut recovered = shared_window_pems();
        recovered
            .restore_bytes(snapshot)
            .unwrap_or_else(|e| panic!("restore failed ({from}, kill={kill}): {e}"));
        assert_eq!(recovered.clock(), Instant(kill));
        for t in kill..RUN {
            push_readings(&recovered, t);
            let got = observe(recovered.tick());
            assert_eq!(
                got, expected[t as usize],
                "tick {t} diverged ({from}, kill={kill})"
            );
        }
        for query in ["warm", "mean"] {
            assert_eq!(
                recovered.processor().current_relation(query),
                baseline.processor().current_relation(query),
                "result of `{query}` diverged ({from}, kill={kill})"
            );
            assert_eq!(
                recovered.processor().stats(query),
                baseline.processor().stats(query)
            );
        }
    };
    let v2 = unhex(V2_SNAPSHOT_AFTER_TWO_INSTANTS);
    for kill in [1u64, 2, 3, 7] {
        let mut doomed = shared_window_pems();
        for t in 0..kill {
            push_readings(&doomed, t);
            doomed.tick();
        }
        let snapshot = doomed.snapshot_bytes();
        drop(doomed);
        if kill == 2 {
            // v3 is v2 less the empty adaptive section (four 8-byte
            // counts) and the two windows' bootstrap flags, to the byte
            // count (the bytes themselves carry wall-clock operator timings)
            assert_eq!(snapshot.len() + 4 * 8 + 2, v2.len());
        }
        resume(&snapshot, kill, "own snapshot");
    }
    let mut refusing = shared_window_pems();
    push_readings(&refusing, 0);
    assert_eq!(observe(refusing.tick()), expected[0]);
    match refusing.restore_bytes(&v2) {
        Err(PemsError::Snapshot(SnapshotError::UnsupportedVersion(2))) => {}
        other => panic!("a v2 snapshot must be refused, got {other:?}"),
    }
    // the refusal happened at the header: nothing was restored
    assert_eq!(refusing.clock(), Instant(1));
    push_readings(&refusing, 1);
    assert_eq!(observe(refusing.tick()), expected[1]);
}

/// A runtime whose `sensors` table is maintained by a discovery query, read
/// by one continuous query (`fleet`) and left alone by nothing else.
fn discovered_pems() -> Pems {
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
    pems
}

/// The directory churn applied *before* tick `t`: joins with and without
/// a location, a location that arrives late, one that changes, a leave, a
/// return, and an instant where nothing moves.
fn apply_directory_script(pems: &Pems, t: u64) {
    use serena::core::service::fixtures::temperature_sensor;
    let directory = pems.directory();
    let place = |name: &str, location: &str| directory.set(name, "location", Value::str(location));
    match t {
        0 => {
            directory.register("s1", temperature_sensor(1));
            place("s1", "office");
            directory.register("s2", temperature_sensor(2));
        }
        1 => place("s2", "roof"),
        2 => {
            directory.deregister("s1");
            directory.register("s3", temperature_sensor(3));
            place("s3", "lab");
        }
        3 => place("s3", "attic"),
        5 => {
            directory.register("s1", temperature_sensor(1));
            place("s1", "hall");
            directory.deregister("s2");
        }
        _ => {}
    }
}

/// ISSUE 17: what a discovery query remembers — its cursor into the
/// directory's log and the rows it wrote — is not in the snapshot, and a
/// restore must not trust it: the tables go back to the checkpoint while
/// the directory stays where it is. A *live* runtime that is checkpointed,
/// ticks on through the next churn and is then restored re-lists, and from
/// there reports the `sensors` deltas of the uninterrupted run.
#[test]
fn discovery_relations_relist_after_a_restore_on_a_live_runtime() {
    let mut baseline = discovered_pems();
    let mut expected = Vec::new();
    for t in 0..TICKS {
        apply_directory_script(&baseline, t);
        expected.push(observe(baseline.tick()));
    }
    // an empty delta encodes as two empty multisets, 8 bytes each
    let moved = expected
        .iter()
        .flatten()
        .filter(|o| o.delta_bytes.len() > 16);
    assert!(moved.count() >= 5, "the script must move `sensors`");

    for kill in 0..TICKS {
        let mut live = discovered_pems();
        for t in 0..kill {
            apply_directory_script(&live, t);
            live.tick();
        }
        let snapshot = live.snapshot_bytes();
        // the runtime lives on: instant `kill` happens, the discovery
        // query folds its churn in, and only then is the snapshot restored
        apply_directory_script(&live, kill);
        assert_eq!(observe(live.tick()), expected[kill as usize]);
        live.restore_bytes(&snapshot).unwrap();
        assert_eq!(live.clock(), Instant(kill));
        assert_eq!(
            observe(live.tick()),
            expected[kill as usize],
            "tick {kill} diverged after the restore"
        );
        for t in kill + 1..TICKS {
            apply_directory_script(&live, t);
            let got = observe(live.tick());
            assert_eq!(got, expected[t as usize], "tick {t} diverged, kill={kill}");
        }
        assert_eq!(
            live.processor().current_relation("fleet"),
            baseline.processor().current_relation("fleet"),
        );
        // and the table itself, queued mutations included, byte for byte
        let sensors = |pems: &Pems| {
            let mut w = Writer::new();
            pems.tables().table("sensors").unwrap().export_state(&mut w);
            w.into_bytes()
        };
        assert_eq!(sensors(&live), sensors(&baseline), "kill={kill}");
    }
}

/// A runtime with one pushed stream and the query that names it twice —
/// registered from DDL text, the way a user writes it.
fn self_union_pems() -> Pems {
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    pems.run_program(
        "EXTENDED RELATION readings ( location STRING, temperature REAL ) STREAM;
         REGISTER QUERY both AS UNION(WINDOW[1](readings), WINDOW[3](readings));",
    )
    .unwrap();
    pems
}

/// A plan may name one stream under several leaves (it used to fail with
/// `unknown relation`: the first leaf took the name's only subscription).
/// Each leaf gets a hub cursor of its own, both see the same batch at an
/// instant, and a kill mid-run restores both rings.
#[test]
fn a_stream_named_twice_in_one_plan_registers_ticks_and_resumes() {
    use serena::stream::Multiset;
    const RUN: u64 = 8;
    let push = |pems: &Pems, t: u64| {
        for tuple in tenths(Instant(t)) {
            assert!(pems.tables().push_stream("readings", tuple));
        }
    };

    // the result is the bag union of the last batch and the last three
    let mut baseline = self_union_pems();
    let mut held = Multiset::new();
    let mut expected = Vec::new();
    for t in 0..RUN {
        push(&baseline, t);
        let reports = baseline.tick();
        held.apply(&reports[0].1.delta);
        let reference: Multiset = (t.saturating_sub(2)..=t)
            .chain([t])
            .flat_map(|b| tenths(Instant(b)))
            .collect();
        assert_eq!(held, reference, "instant {t}");
        expected.push(observe(reports));
    }

    const KILL: u64 = 4;
    let mut doomed = self_union_pems();
    for t in 0..KILL {
        push(&doomed, t);
        doomed.tick();
    }
    let snapshot = doomed.snapshot_bytes();
    drop(doomed);
    let mut recovered = self_union_pems();
    recovered.restore_bytes(&snapshot).unwrap();
    for t in KILL..RUN {
        push(&recovered, t);
        assert_eq!(observe(recovered.tick()), expected[t as usize], "tick {t}");
    }
    assert_eq!(
        recovered.processor().current_relation("both"),
        baseline.processor().current_relation("both")
    );
}
