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

mod common;

use common::{observe, Baseline, Handoff};
use serena::core::snapshot::{SnapshotError, Writer};
use serena::core::tuple;
use serena::pems::{PemsBuilder, SchedulerConfig};
use serena::prelude::*;
use serena::services::bus::BusConfig;

/// The number of ticks every differential run covers.
const TICKS: u64 = 6;

/// A deterministic PEMS: four simulated sensors, a finite `sensors` table
/// mutated by [`apply_script`], a `readings` stream it pushes into — a pure
/// function of the instant — and five continuous queries covering every
/// stateful executor node kind (table delta, β cache, window ring,
/// projection pipeline, βˢ sampling).
fn recovery_pems() -> Pems {
    recovery_pems_from(Pems::builder())
}

/// [`recovery_pems`] with an explicit multi-query scheduler width.
fn recovery_pems_on(workers: usize) -> Pems {
    recovery_pems_from(Pems::builder().scheduler(SchedulerConfig::new(workers)))
}

/// [`recovery_pems`] built from `builder`.
fn recovery_pems_from(builder: PemsBuilder) -> Pems {
    use serena::core::service::fixtures;
    let mut pems = builder.bus(BusConfig::instant()).build();
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
         ) USING BINDING PATTERNS ( getTemperature[sensor] );
         EXTENDED RELATION readings ( location STRING, temperature REAL ) STREAM;",
    )
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

/// The scripted table mutations and `readings` pushes applied *before*
/// tick `t` — the input the test keeps replaying after a recovery.
fn apply_script(pems: &mut Pems, t: u64) {
    for reading in [
        tuple!["office", 15.0 + t as f64],
        tuple!["roof", 5.0 + (t % 3) as f64],
    ] {
        assert!(pems.tables().push_stream("readings", reading));
    }
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

/// Tentpole acceptance: kill the runtime after every instant `0..TICKS`,
/// recover from the snapshot, and compare every remaining tick against the
/// uninterrupted baseline.
#[test]
fn recovery_is_byte_identical_at_every_kill_point() {
    let mut baseline = Baseline::run(recovery_pems(), TICKS, apply_script);
    for kill in 0..TICKS {
        baseline.crash_and_resume(kill, recovery_pems(), recovery_pems(), Handoff::Bytes, "");
    }
}

/// ISSUE 7 satellite: a checkpoint cut while the multi-query scheduler is
/// splitting its rounds over 4 workers restores byte-identically — whether the
/// recovered runtime resumes on 4 workers or on a single one. The
/// snapshot format is scheduler-agnostic, so the uninterrupted
/// single-worker run is the ground truth for both resume widths.
#[test]
fn multi_worker_kill_restore_matches_single_worker_baseline() {
    let mut baseline = Baseline::run(recovery_pems_on(1), TICKS, apply_script);
    // crash a 4-worker runtime mid-run, and resume on both pool widths:
    // same bytes, same future
    for kill in [2u64, 4] {
        for resume_workers in [1usize, 4] {
            baseline.crash_and_resume(
                kill,
                recovery_pems_on(4),
                recovery_pems_on(resume_workers),
                Handoff::Bytes,
                &format!("resume workers={resume_workers}"),
            );
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

    let mut baseline = Baseline::run(recovery_pems(), TICKS, apply_script);
    // checkpoint every second tick; crash after 4 ticks — the file on
    // disk was last cut after tick 3 completed (clock = 4)
    let doomed = recovery_pems_from(Pems::builder().checkpoint(&dir, 2));
    baseline.crash_and_resume(
        4,
        doomed,
        recovery_pems(),
        Handoff::File(&dir),
        "from the file",
    );
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

/// `readings` as a derived stream, the way the environment enters one:
/// `getReadings` of the one `gateways` row, a service answering
/// [`tenths`] of the instant, sampled every instant.
fn stateful_pems() -> Pems {
    use serena::core::service::FnService;
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    pems.run_program(
        "EXTENDED RELATION rooms ( location STRING, floor INTEGER );
         PROTOTYPE getReadings( ) : ( location STRING, temperature REAL );
         EXTENDED RELATION gateways (
           gateway SERVICE, location STRING VIRTUAL, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getReadings[gateway] );
         INSERT INTO gateways VALUES ('gateway');",
    )
    .unwrap();
    let get_readings = pems.tables().prototype("getReadings").unwrap();
    let gateway = FnService::new(vec![get_readings], |_, _, at| Ok(tenths(at)));
    pems.directory()
        .register("gateway", std::sync::Arc::new(gateway));
    let readings = StreamPlan::source("gateways")
        .sample_invoke("getReadings", "gateway", 1)
        .window(1)
        .project(["location", "temperature"])
        .stream(StreamKind::Heartbeat);
    pems.define_stream_as("readings", &readings).unwrap();
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
    let mut baseline = Baseline::run(stateful_pems(), RUN, apply_rooms_script);
    let emitted: usize = baseline
        .ticks
        .iter()
        .flat_map(|(obs, _)| obs)
        .map(|o| o.delta_bytes.len())
        .sum();
    assert!(emitted > 10_000, "the run must exercise the operators");
    // the kill points xorshift64 drew from 0x14 in 3..RUN-3
    for kill in [23, 9, 3, 20] {
        baseline.crash_and_resume(kill, stateful_pems(), stateful_pems(), Handoff::Bytes, "");
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

fn push_readings(pems: &mut Pems, t: u64) {
    for reading in tenths(Instant(t)) {
        assert!(pems.tables().push_stream("readings", reading));
    }
}

/// What `shared_window_pems().snapshot_bytes()` returned under snapshot
/// format v3 (each query's rolling per-node statistics after its totals)
/// after instants 0 and 1 — the rings half-filled.
const V3_SNAPSHOT_AFTER_TWO_INSTANTS: &str = "\
    534552454e534e50030000000000000000000000020000000000000002000000000000000400000000000000\
    6d65616e020000000000000003030000000000000003000000000000000303000000000000006c616202cdcc\
    cccccccc0c40010600000000000000010000000000000003000000000000000306000000000000006f666669\
    636502cdcccccccccc0440010300000000000000010000000000000003000000000000000304000000000000\
    00726f6f66026766666666661240010300000000000000010000000000000005040000000000000002000000\
    00000000060000000000000002000000000000000306000000000000006f6666696365020000000000000000\
    02000000000000000303000000000000006c616202cdccccccccccf43f020000000000000003060000000000\
    00006f666669636502cdcccccccccc044002000000000000000303000000000000006c616202343333333333\
    0f4002000000000000000306000000000000006f666669636502cdcccccccccc144002000000000000000303\
    000000000000006c6162020000000000001a4006000000000000000200000000000000030300000000000000\
    6c616202676666666666e63f0200000000000000030400000000000000726f6f660200000000000000400200\
    0000000000000303000000000000006c6162026766666666660a400200000000000000030400000000000000\
    726f6f6602676666666666124002000000000000000303000000000000006c6162029a999999999917400200\
    000000000000030400000000000000726f6f6602cdcccccccccc1c4001020000000000000004000000000000\
    0001000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
    0000000000030000000000000000000000000000000b02000000000000000c00000000000000050000000000\
    0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000323401000000000001000000000000000c02000000000000000c00000000\
    0000000c00000000000000000000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000000000000000000000000001eb700000000000002000000000000000102000000\
    0000000000000000000000000c00000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000000000000000000000000000000000000000000007d2a00000000000004000000\
    000000007761726d020000000000000002050000000000000002000000000000000303000000000000006c61\
    62029a99999999991740010000000000000002000000000000000303000000000000006c6162020000000000\
    001a40010000000000000002000000000000000306000000000000006f666669636502cdcccccccccc144001\
    000000000000000200000000000000030400000000000000726f6f6602676666666666124001000000000000\
    000200000000000000030400000000000000726f6f6602cdcccccccccc1c4001000000000000000504000000\
    000000000200000000000000060000000000000002000000000000000306000000000000006f666669636502\
    000000000000000002000000000000000303000000000000006c616202cdccccccccccf43f02000000000000\
    000306000000000000006f666669636502cdcccccccccc044002000000000000000303000000000000006c61\
    62023433333333330f4002000000000000000306000000000000006f666669636502cdcccccccccc14400200\
    0000000000000303000000000000006c6162020000000000001a400600000000000000020000000000000003\
    03000000000000006c616202676666666666e63f0200000000000000030400000000000000726f6f66020000\
    00000000004002000000000000000303000000000000006c6162026766666666660a40020000000000000003\
    0400000000000000726f6f6602676666666666124002000000000000000303000000000000006c6162029a99\
    9999999917400200000000000000030400000000000000726f6f6602cdcccccccccc1c400102000000000000\
    0005000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000000030000000000000000000000000000000602000000000000000c0000000000\
    0000050000000000000000000000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000000000000000000000000ef3c01000000000001000000000000000c0200000000\
    0000000c000000000000000c0000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000000000000000000000000000000000000000000aa120000000000000200000000\
    00000001020000000000000000000000000000000c0000000000000000000000000000000000000000000000\
    000000000000000000000000000000000000000000000000000000000000000000000000000000008ba30000\
    0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000";

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
    let mut baseline = Baseline::run(shared_window_pems(), RUN, push_readings);
    for kill in [1u64, 2, 3, 7] {
        baseline.crash_and_resume(
            kill,
            shared_window_pems(),
            shared_window_pems(),
            Handoff::Bytes,
            "",
        );
    }
    // the snapshot after two instants is v3 less each query's per-node
    // statistics (v4; v3's bytes carry wall-clock self-times) and less the
    // resilience state's deadline-timeout counter (v5), to the byte count:
    // per query a node count, per node its id, kind and eleven counters —
    // `warm` has three nodes, `mean` three — and one `u64`
    let v3 = unhex(V3_SNAPSHOT_AFTER_TWO_INSTANTS);
    let per_node = 8 + 1 + 11 * 8;
    let after_two = &baseline.ticks[1].1;
    assert_eq!(after_two.len() + 2 * 8 + 6 * per_node + 8, v3.len());
    let expected: Vec<_> = baseline.ticks.into_iter().map(|(obs, _)| obs).collect();
    let mut refusing = shared_window_pems();
    push_readings(&mut refusing, 0);
    assert_eq!(observe(refusing.tick()), expected[0]);
    match refusing.restore_bytes(&v3) {
        Err(PemsError::Snapshot(SnapshotError::UnsupportedVersion(3))) => {}
        other => panic!("a v3 snapshot must be refused, got {other:?}"),
    }
    // the refusal happened at the header: nothing was restored
    assert_eq!(refusing.clock(), Instant(1));
    push_readings(&mut refusing, 1);
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

/// A live runtime restored to a checkpoint resumes at an instant its
/// derived stream has already sampled: the stream samples its gateway
/// there again, so every query over `readings` reports the uninterrupted
/// run's deltas from the restored instant on — no empty batch at the
/// replayed instant, no window that drifts after it.
#[test]
fn a_sourced_stream_is_polled_again_after_a_restore_on_a_live_runtime() {
    const RUN: u64 = 12;
    let mut baseline = stateful_pems();
    let mut expected = Vec::new();
    for t in 0..RUN {
        apply_rooms_script(&mut baseline, t);
        expected.push(observe(baseline.tick()));
    }
    for kill in 0..RUN {
        let mut live = stateful_pems();
        for t in 0..kill {
            apply_rooms_script(&mut live, t);
            live.tick();
        }
        let snapshot = live.snapshot_bytes();
        // instant `kill` happens, then the checkpoint before it is restored
        apply_rooms_script(&mut live, kill);
        assert_eq!(observe(live.tick()), expected[kill as usize]);
        live.restore_bytes(&snapshot).unwrap();
        assert_eq!(live.clock(), Instant(kill));
        for t in kill..RUN {
            apply_rooms_script(&mut live, t);
            let got = observe(live.tick());
            assert_eq!(got, expected[t as usize], "tick {t} diverged, kill={kill}");
        }
        for (query, _) in stateful_plans() {
            assert_eq!(
                live.processor().current_relation(query),
                baseline.processor().current_relation(query),
                "result of `{query}` diverged after kill={kill}"
            );
        }
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
    use serena::core::snapshot::Reader;
    use serena::stream::{Delta, Multiset};
    const RUN: u64 = 8;
    let mut baseline = Baseline::run(self_union_pems(), RUN, push_readings);

    // the result is the bag union of the last batch and the last three
    let mut held = Multiset::new();
    for (t, (obs, _)) in (0..RUN).zip(&baseline.ticks) {
        let delta = Delta::decode(&mut Reader::new(&obs[0].delta_bytes)).unwrap();
        held.apply(&delta);
        let reference: Multiset = (t.saturating_sub(2)..=t)
            .chain([t])
            .flat_map(|b| tenths(Instant(b)))
            .collect();
        assert_eq!(held, reference, "instant {t}");
    }

    baseline.crash_and_resume(4, self_union_pems(), self_union_pems(), Handoff::Bytes, "");
}
