//! The overhead table (E13–E15, E18, E19, E25): what each optional layer costs on
//! the path it sits on, every row measured the same way —
//! [`harness::paired`] alternates batches of a *base* and a *variant*
//! closure and takes the median per-round ratio — and every gated row held
//! under [`harness::GATE_PCT`].
//!
//! ```sh
//! cargo bench -p serena-bench --bench overhead
//! ```
//!
//! Prints the table, writes `target/overhead.json` and exits non-zero if a
//! gated row is over the bound. Each workload below only *builds* its two
//! closures; sizes and round counts are constants, not options.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use serena_bench::envgen::ScaleConfig;
use serena_bench::harness::{self, Json, OverheadRow, Paired};
use serena_bench::workload;

use serena_core::dedup::{DedupLayer, DedupState};
use serena_core::exec::ExecContext;
use serena_core::metrics::NoopMetrics;
use serena_core::physical::PhysicalPlan;
use serena_core::plan::Plan;
use serena_core::prelude::{Formula, Instant};
use serena_core::service::{fixtures, InvokerStack};
use serena_core::telemetry::{InstrumentedLayer, MetricsRegistry, RegistrySink};
use serena_pems::Pems;
use serena_services::bus::BusConfig;
use serena_services::directory::NodeDirectory;
use serena_services::node::ServiceNode;
use serena_services::resilience::{ResiliencePolicy, ResilienceState, ResilientLayer};
use serena_services::transport::{InProcTransport, SocketTransport, Transport};
use serena_stream::plan::StreamPlan;

const SENSOR_DDL: &str = "
    PROTOTYPE getTemperature( ) : ( temperature REAL );
    EXTENDED RELATION sensors (
      sensor SERVICE, location STRING, temperature REAL VIRTUAL
    ) USING BINDING PATTERNS ( getTemperature[sensor] );";

/// A row whose headline is the variant's cost on top of the base; ungated
/// rows are informational.
fn row(label: &'static str, measured: Paired, gated: bool) -> OverheadRow {
    OverheadRow {
        label,
        pct: measured.overhead_pct(),
        measured,
        gated,
    }
}

/// A β fan-out over the scaled sensors table: every row is a live call (the
/// one-shot operator does not cache), so a pass is pure invocation work.
fn beta_plan() -> Plan {
    Plan::relation("sensors").invoke("getTemperature", "sensor")
}

/// E13 — the same compiled σ → π pipeline over 1 000 rows under
/// [`NoopMetrics`] vs the [`MetricsRegistry`]-backed sink, which sees one
/// record per operator per pass.
fn telemetry() -> Vec<OverheadRow> {
    let env = workload::scaled_environment(1_000, 0, 0);
    let reg = workload::scaled_registry(0, 0);
    let plan = Plan::relation("sensors")
        .select(Formula::eq_const("location", "office"))
        .project(["location"]);
    let physical = PhysicalPlan::compile(&plan, &env).unwrap();
    let noop = NoopMetrics;
    let bare = ExecContext::with_metrics(&env, &reg, Instant(1), &noop);
    let registry = Arc::new(MetricsRegistry::new());
    let sink = RegistrySink::new(&registry);
    let metered = ExecContext::with_metrics(&env, &reg, Instant(1), &sink);
    let m = harness::paired(
        100,
        10,
        || physical.execute(&bare).unwrap(),
        || physical.execute(&metered).unwrap(),
    );
    vec![row("telemetry_sink", m, true)]
}

/// E14 — 200 live β calls through the bare registry vs the recommended
/// resilience stack (retry budget + breaker) with no faults injected.
fn resilience() -> Vec<OverheadRow> {
    let env = workload::scaled_environment(200, 0, 0);
    let reg = workload::scaled_registry(200, 0);
    let plan = beta_plan();
    let bare = ExecContext::new(&env, &reg, Instant(1));
    let armed = InvokerStack::new(&reg).layer(ResilientLayer::new(
        ResiliencePolicy::standard(),
        Arc::new(ResilienceState::new()),
    ));
    let ctx = ExecContext::new(&env, &armed, Instant(1));
    let m = harness::paired(
        100,
        10,
        || bare.execute(&plan).unwrap(),
        || ctx.execute(&plan).unwrap(),
    );
    vec![row("resilience_stack", m, true)]
}

/// E25 — what rebuilding the β stack costs. `Pems::tick` builds a fresh
/// instrumented → dedup stack every instant over the runtime's one registry
/// and one memo; a pass here is an instant of two identical 200-sensor β
/// scans (200 physical calls, 200 coalesced ones) through one stack, which
/// the base keeps for the whole run and the variant builds anew per pass.
/// What a layer resolves per service must therefore outlive the stack: a
/// layer that keeps its series handles in its own fields resolves them cold
/// on every pass of the variant and is far over the gate.
fn beta_stack() -> Vec<OverheadRow> {
    let env = workload::scaled_environment(200, 0, 0);
    let reg = workload::scaled_registry(200, 0);
    let physical = PhysicalPlan::compile(&beta_plan(), &env).unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let memo = Arc::new(DedupState::new());
    let build = || {
        InvokerStack::new(&reg)
            .layer(InstrumentedLayer::new().registry(&registry))
            .layer(DedupLayer::new(Arc::clone(&memo)).registry(Arc::clone(&registry)))
    };
    // every pass is an instant of its own, so its first scan is all misses
    let clock = Cell::new(0u64);
    let instant = |stack: &InvokerStack| {
        clock.set(clock.get() + 1);
        let ctx = ExecContext::new(&env, stack, Instant(clock.get()));
        (
            physical.execute(&ctx).unwrap(),
            physical.execute(&ctx).unwrap(),
        )
    };
    let kept = build();
    let m = harness::paired(100, 10, || instant(&kept), || instant(&build()));
    let (hits, misses) = (memo.hits(), memo.misses());
    assert_eq!(hits, misses, "each pass: one scan called, one coalesced");
    vec![row("beta_stack_rebuilt", m, true)]
}

/// A runtime in steady state: a `W[64]` stream query whose ring is full, a
/// β query whose cache holds all 16 sensors, and a βˢ query re-sampling
/// them every tick (the paper's continuous-sensing workload).
fn steady_pems() -> Pems {
    const WINDOW: u64 = 64;
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    let rows: Vec<String> = (0..16u64)
        .map(|i| {
            pems.directory()
                .register(format!("s{i}"), fixtures::temperature_sensor(i));
            format!("('s{i}', 'room{i}')")
        })
        .collect();
    pems.run_program(&format!(
        "{SENSOR_DDL} INSERT INTO sensors VALUES {};",
        rows.join(",")
    ))
    .expect("setup program");
    pems.run_program("EXTENDED RELATION readings ( location STRING, temperature REAL ) STREAM;")
        .expect("readings stream");
    let sensors = || StreamPlan::source("sensors");
    for (name, plan) in [
        ("hot", StreamPlan::source("readings").window(WINDOW)),
        ("temps", sensors().invoke("getTemperature", "sensor")),
        (
            "sampled",
            sensors().sample_invoke("getTemperature", "sensor", 1),
        ),
    ] {
        pems.register_query(name, &plan).expect("steady query");
    }
    // fill the window ring and warm the β cache
    for _ in 0..WINDOW + 8 {
        tick_steady(&mut pems);
    }
    pems
}

/// One tick of [`steady_pems`], after pushing that instant's two readings.
fn tick_steady(pems: &mut Pems) -> Vec<(String, serena_stream::exec::TickReport)> {
    let t = pems.clock().ticks();
    for i in 0..2u64 {
        let reading = serena_core::tuple![format!("room{i}"), 10.0 + ((t + i) % 17) as f64];
        pems.tables().push_stream("readings", reading);
    }
    pems.tick()
}

/// E15 — what one `snapshot_bytes()` of a steady-state runtime costs as a
/// share of one tick of the same runtime: the price of per-tick recovery.
fn checkpoint() -> Vec<OverheadRow> {
    // one runtime, as in service: the snapshot follows the tick it covers
    let pems = RefCell::new(steady_pems());
    let measured = harness::paired(
        60,
        5,
        || tick_steady(&mut pems.borrow_mut()),
        || pems.borrow().snapshot_bytes(),
    );
    vec![OverheadRow {
        label: "checkpoint_share_of_tick",
        pct: measured.ratio * 100.0,
        measured,
        gated: true,
    }]
}

/// E18 — a small-but-real generated fleet (window maintenance, β calls,
/// scheduler rounds) ticked with the flight recorder disarmed (wired
/// through every layer, recording nothing) vs armed.
fn trace() -> Vec<OverheadRow> {
    let cfg = ScaleConfig {
        seed: 42,
        devices: 200,
        cameras: 8,
        messengers: 4,
        queries: 16,
        ticks: 0, // unused: this bench drives ticks itself
        mean_arrivals: 64,
        workers: 0,
    };
    let deploy = |tracing: bool| {
        let spec = cfg.spec();
        let (mut pems, _fleet) = spec.build().expect("trace bench spec deploys");
        pems.set_tracing(tracing);
        cfg.workload()
            .register_into(&mut pems, &spec)
            .expect("trace bench workload registers");
        // fill windows, warm β caches, settle discovery
        pems.run_ticks(4);
        pems
    };
    let mut disarmed = deploy(false);
    let mut armed = deploy(true);
    let m = harness::paired(100, 10, || disarmed.tick(), || armed.tick());
    assert!(
        !armed.flight_recorder().snapshot().is_empty(),
        "armed run retained no spans — the bench measured nothing"
    );
    vec![row("trace_armed", m, true)]
}

/// E19 — the price of distribution. Gated: 64 live β calls against core's
/// `StaticRegistry` vs the [`NodeDirectory`] hosting the same fleet. The
/// `remote_*_ns_per_call` rows proxy the fleet from a served host over each
/// transport; they quantify the wire, not a regression, and their `base_ns`
/// / `variant_ns` are per β call, not per pass.
fn remote() -> Vec<OverheadRow> {
    const SENSORS: usize = 64;
    let env = workload::scaled_environment(SENSORS, 0, 0);
    let reg = workload::scaled_registry(SENSORS, 0);
    let plan = beta_plan();
    let raw = ExecContext::new(&env, &reg, Instant(1));
    let hosting = |node: &str| {
        let dir = Arc::new(NodeDirectory::new(node));
        for i in 0..SENSORS {
            dir.register(format!("s{i}"), fixtures::temperature_sensor(i as u64));
        }
        dir
    };
    let against = |dir: &NodeDirectory, rounds| {
        let ctx = ExecContext::new(&env, dir, Instant(1));
        harness::paired(
            rounds,
            10,
            || raw.execute(&plan).unwrap(),
            || ctx.execute(&plan).unwrap(),
        )
    };
    let wire = |label, transport: Arc<dyn Transport>, addr: &str| {
        // the handle keeps the host endpoint alive while the edge relays
        let host =
            ServiceNode::serve(Arc::clone(&transport), addr, hosting("host")).expect("host serves");
        let edge = NodeDirectory::new("edge");
        edge.connect_peer(transport, host.addr())
            .expect("edge links host");
        let m = against(&edge, 20);
        let per_call = Paired {
            base_ns: m.base_ns / SENSORS as f64,
            variant_ns: m.variant_ns / SENSORS as f64,
            ..m
        };
        row(label, per_call, false)
    };
    let socket = || Arc::new(SocketTransport::new());
    let mut rows = vec![
        row("remote_directory", against(&hosting("local"), 100), true),
        wire(
            "remote_inproc_ns_per_call",
            Arc::new(InProcTransport::new()),
            "inproc:bench-remote-host",
        ),
    ];
    #[cfg(unix)]
    rows.push(wire(
        "remote_uds_ns_per_call",
        socket(),
        &format!(
            "uds:{}",
            std::env::temp_dir()
                .join(format!("serena-bench-remote-{}.sock", std::process::id()))
                .display()
        ),
    ));
    rows.push(wire("remote_tcp_ns_per_call", socket(), "tcp:127.0.0.1:0"));
    rows
}

fn main() {
    let workloads: [fn() -> Vec<OverheadRow>; 6] =
        [telemetry, resilience, beta_stack, checkpoint, trace, remote];
    let mut rows = Vec::new();
    for workload in workloads {
        for row in workload() {
            println!(
                "{:<28} {:>8.2}%  {:>12.0} ns base {:>12.0} ns variant  {}",
                row.label,
                row.pct,
                row.measured.base_ns,
                row.measured.variant_ns,
                if row.gated { "gated" } else { "info" }
            );
            rows.push(row);
        }
    }
    let report = Json::obj([
        ("gate_pct", Json::Num(harness::GATE_PCT)),
        (
            "rows",
            Json::Arr(rows.iter().map(OverheadRow::to_json).collect()),
        ),
    ]);
    harness::write_report("overhead", &report);
    if let Err(breach) = harness::gate(&rows) {
        eprintln!("{breach}");
        std::process::exit(1);
    }
    println!("every gated row within {}%", harness::GATE_PCT);
}
