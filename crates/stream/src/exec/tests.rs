use super::tick::{map_bag, map_slide};
use super::*;
use crate::multiset::Mapping;
use crate::plan::StreamPlan;
use serena_core::formula::Formula;
use serena_core::metrics::NoopMetrics;
use serena_core::ops::{AggFun, AggSpec, DegradePolicy};
use serena_core::schema::XSchema;
use serena_core::service::fixtures::example_registry;
use serena_core::tuple;
use serena_core::value::{DataType, Value};

fn int_schema(name: &str) -> SchemaRef {
    XSchema::builder()
        .real(name, DataType::Int)
        .build()
        .unwrap()
}

/// Push what `batch` appends at `q`'s next instant into `hub`, then tick `q`
/// over the example registry.
fn tick_fed(
    q: &mut ContinuousQuery,
    hub: &StreamHub,
    batch: impl Fn(Instant) -> Vec<Tuple>,
) -> TickReport {
    batch(q.next_instant())
        .into_iter()
        .for_each(|t| hub.push(t));
    q.tick_with(&example_registry(), &NoopMetrics)
}

#[test]
fn table_select_project_pipeline() {
    let mut sources = SourceSet::new();
    let table = TableHandle::new(
        XSchema::builder()
            .real("x", DataType::Int)
            .real("y", DataType::Str)
            .build()
            .unwrap(),
    );
    sources.add_table("t", table.clone());
    let plan = StreamPlan::source("t")
        .select(Formula::gt_const("x", 10))
        .project(["y"]);
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reg = example_registry();

    table.insert(tuple![5, "small"]);
    table.insert(tuple![20, "big"]);
    let r = q.tick_with(&reg, &NoopMetrics);
    assert_eq!(r.delta.inserts.sorted_occurrences(), vec![tuple!["big"]]);

    table.delete(tuple![20, "big"]);
    let r = q.tick_with(&reg, &NoopMetrics);
    assert_eq!(r.delta.deletes.sorted_occurrences(), vec![tuple!["big"]]);
    assert!(q.current_relation().unwrap().is_empty());
}

#[test]
fn window_slides_and_expires() {
    let mut sources = SourceSet::new();
    let push = StreamHub::new();
    sources.add_stream("s", int_schema("x"), push.clone());
    let plan = StreamPlan::source("s").window(2);
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reg = example_registry();

    push.push(tuple![1]);
    let r = q.tick_with(&reg, &NoopMetrics); // window {1}
    assert_eq!(r.delta.inserts.len(), 1);

    push.push(tuple![2]);
    let r = q.tick_with(&reg, &NoopMetrics); // window {1, 2}
    assert_eq!(r.delta.inserts.len(), 1);
    assert!(r.delta.deletes.is_empty());

    push.push(tuple![3]);
    let r = q.tick_with(&reg, &NoopMetrics); // window {2, 3}; 1 expires
    assert_eq!(r.delta.inserts.sorted_occurrences(), vec![tuple![3]]);
    assert_eq!(r.delta.deletes.sorted_occurrences(), vec![tuple![1]]);

    let r = q.tick_with(&reg, &NoopMetrics); // window {3}; 2 expires
    assert_eq!(r.delta.deletes.sorted_occurrences(), vec![tuple![2]]);
    let r = q.tick_with(&reg, &NoopMetrics); // window {}; 3 expires
    assert_eq!(r.delta.deletes.sorted_occurrences(), vec![tuple![3]]);
    assert!(q.current_relation().unwrap().is_empty());
}

#[test]
fn stream_insertion_emits_deltas_only() {
    let mut sources = SourceSet::new();
    let table = TableHandle::new(int_schema("x"));
    sources.add_table("t", table.clone());
    let plan = StreamPlan::source("t").stream(StreamKind::Insertion);
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reg = example_registry();

    table.insert(tuple![1]);
    assert_eq!(q.tick_with(&reg, &NoopMetrics).batch, vec![tuple![1]]);
    // no change → empty batch
    assert!(q.tick_with(&reg, &NoopMetrics).batch.is_empty());
    table.delete(tuple![1]);
    assert!(q.tick_with(&reg, &NoopMetrics).batch.is_empty()); // deletions invisible to S[insertion]
}

#[test]
fn stream_heartbeat_repeats_current() {
    let mut sources = SourceSet::new();
    let table = TableHandle::new(int_schema("x"));
    sources.add_table("t", table.clone());
    let plan = StreamPlan::source("t").stream(StreamKind::Heartbeat);
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reg = example_registry();
    table.insert(tuple![1]);
    assert_eq!(q.tick_with(&reg, &NoopMetrics).batch.len(), 1);
    assert_eq!(q.tick_with(&reg, &NoopMetrics).batch.len(), 1); // repeated while present
    table.delete(tuple![1]);
    assert!(q.tick_with(&reg, &NoopMetrics).batch.is_empty());
}

#[test]
fn incremental_join_tracks_both_sides() {
    let mut sources = SourceSet::new();
    let left = TableHandle::new(
        XSchema::builder()
            .real("k", DataType::Int)
            .real("a", DataType::Str)
            .build()
            .unwrap(),
    );
    let right = TableHandle::new(
        XSchema::builder()
            .real("k", DataType::Int)
            .real("b", DataType::Str)
            .build()
            .unwrap(),
    );
    sources.add_table("l", left.clone());
    sources.add_table("r", right.clone());
    let plan = StreamPlan::source("l").join(StreamPlan::source("r"));
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reg = example_registry();

    left.insert(tuple![1, "x"]);
    let r1 = q.tick_with(&reg, &NoopMetrics);
    assert!(r1.delta.is_empty()); // no right match yet

    right.insert(tuple![1, "y"]);
    let r2 = q.tick_with(&reg, &NoopMetrics);
    assert_eq!(
        r2.delta.inserts.sorted_occurrences(),
        vec![tuple![1, "x", "y"]]
    );

    left.delete(tuple![1, "x"]);
    let r3 = q.tick_with(&reg, &NoopMetrics);
    assert_eq!(
        r3.delta.deletes.sorted_occurrences(),
        vec![tuple![1, "x", "y"]]
    );
}

#[test]
fn continuous_invoke_only_new_tuples() {
    use serena_core::value::ServiceRef;
    let mut sources = SourceSet::new();
    let table = TableHandle::new(serena_core::schema::examples::sensors_schema());
    sources.add_table("sensors", table.clone());
    let plan = StreamPlan::source("sensors").invoke("getTemperature", "sensor");
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reg = example_registry();
    let counting = serena_core::eval::CountingInvoker::new(&reg);

    table.insert(tuple![Value::service("sensor01"), "corridor"]);
    q.tick_with(&counting, &NoopMetrics);
    assert_eq!(counting.count_of("getTemperature"), 1);
    // stable table → no further invocations despite more ticks
    q.tick_with(&counting, &NoopMetrics);
    q.tick_with(&counting, &NoopMetrics);
    assert_eq!(counting.count_of("getTemperature"), 1);
    // new sensor → exactly one more invocation
    table.insert(tuple![Value::service("sensor06"), "office"]);
    q.tick_with(&counting, &NoopMetrics);
    assert_eq!(counting.count_of("getTemperature"), 2);
    let _ = ServiceRef::new("sensor01");
}

#[test]
fn invoke_retracts_cached_outputs_on_delete() {
    let mut sources = SourceSet::new();
    let table = TableHandle::new(serena_core::schema::examples::sensors_schema());
    sources.add_table("sensors", table.clone());
    let plan = StreamPlan::source("sensors").invoke("getTemperature", "sensor");
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reg = example_registry();

    table.insert(tuple![Value::service("sensor01"), "corridor"]);
    let r = q.tick_with(&reg, &NoopMetrics);
    let produced = r.delta.inserts.sorted_occurrences();
    assert_eq!(produced.len(), 1);

    table.delete(tuple![Value::service("sensor01"), "corridor"]);
    let r = q.tick_with(&reg, &NoopMetrics);
    // the retracted tuple is exactly the cached extension (same value,
    // even though the *current* instant would read differently)
    assert_eq!(r.delta.deletes.sorted_occurrences(), produced);
    assert!(q.current_relation().unwrap().is_empty());
}

#[test]
fn invoke_failure_surfaces_error_and_continues() {
    let mut sources = SourceSet::new();
    let table = TableHandle::new(serena_core::schema::examples::sensors_schema());
    sources.add_table("sensors", table.clone());
    let plan = StreamPlan::source("sensors").invoke("getTemperature", "sensor");
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reg = example_registry(); // has no `deadbeef` service

    table.insert(tuple![Value::service("deadbeef"), "void"]);
    table.insert(tuple![Value::service("sensor01"), "corridor"]);
    let r = q.tick_with(&reg, &NoopMetrics);
    assert_eq!(r.errors.len(), 1);
    assert_eq!(r.delta.inserts.len(), 1); // the healthy sensor got through
}

/// A plan naming one stream twice holds a subscription per leaf, and both
/// read the instant's one batch — an idle instant's too. The hub is read
/// exactly while the query lives: a compile that fails keeps nothing.
#[test]
fn each_leaf_over_a_stream_reads_the_instants_one_batch() {
    let (mut sources, s) = (SourceSet::new(), StreamHub::new());
    sources.add_stream("s", int_schema("x"), s.clone());
    let twice = StreamPlan::source("s")
        .window(2)
        .union(StreamPlan::source("s").window(3));
    let failing = twice.clone().join(StreamPlan::source("nope"));
    assert!(ContinuousQuery::compile(&failing, &mut sources).is_err());
    assert!(!s.is_read());
    let mut q = ContinuousQuery::compile(&twice, &mut sources).unwrap();
    assert!(s.is_read());
    let leaves = q.root.children.iter().map(|w| &w.children[0].op);
    assert_eq!(
        leaves.filter(|op| matches!(op, Op::Stream { .. })).count(),
        2
    );
    for at in 0..4 {
        let idle = |at: Instant| match at.ticks() {
            2 => vec![],
            n => vec![tuple![n as i64]],
        };
        tick_fed(&mut q, &s, idle);
        let newest = |w: &Node| match &w.op {
            Op::Window { ring, .. } => Arc::clone(ring.back().expect("a batch entered")),
            _ => panic!("a window under ∪"),
        };
        let [a, b] = [0, 1].map(|i| newest(&q.root.children[i]));
        assert!(Arc::ptr_eq(&a, &b), "instant {at}");
        assert_eq!(a.is_empty(), at == 2);
    }
    drop(q);
    assert!(!s.is_read());
}

#[test]
fn windowed_aggregate_mean_temperature() {
    let mut sources = SourceSet::new();
    let schema = XSchema::builder()
        .real("location", DataType::Str)
        .real("temperature", DataType::Real)
        .build()
        .unwrap();
    // synthetic stream: at tick t, one reading (office, 20+t)
    let temps = StreamHub::new();
    let reading = |at: Instant| vec![tuple!["office", 20.0 + at.ticks() as f64]];
    sources.add_stream("temps", schema, temps.clone());
    let plan = StreamPlan::source("temps").window(2).aggregate(
        ["location"],
        vec![AggSpec::new(AggFun::Avg, "temperature").named("mean")],
    );
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();

    tick_fed(&mut q, &temps, reading); // window {20} → mean 20
    let rel = q.current_relation().unwrap();
    assert!(rel.contains(&tuple!["office", 20.0]));
    tick_fed(&mut q, &temps, reading); // window {20, 21} → mean 20.5
    let rel = q.current_relation().unwrap();
    assert!(rel.contains(&tuple!["office", 20.5]));
    tick_fed(&mut q, &temps, reading); // window {21, 22} → mean 21.5
    let rel = q.current_relation().unwrap();
    assert!(rel.contains(&tuple!["office", 21.5]));
}

#[test]
fn set_ops_multiset_semantics() {
    let mut sources = SourceSet::new();
    let a = TableHandle::new(int_schema("x"));
    let b = TableHandle::new(int_schema("x"));
    sources.add_table("a", a.clone());
    sources.add_table("b", b.clone());
    let plan = StreamPlan::source("a").difference(StreamPlan::source("b"));
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reg = example_registry();
    a.insert(tuple![1]);
    a.insert(tuple![2]);
    q.tick_with(&reg, &NoopMetrics);
    assert_eq!(q.current_relation().unwrap().len(), 2);
    b.insert(tuple![1]);
    let r = q.tick_with(&reg, &NoopMetrics);
    assert_eq!(r.delta.deletes.sorted_occurrences(), vec![tuple![1]]);
    assert_eq!(q.current_relation().unwrap().len(), 1);
}

#[test]
fn q3_sends_hot_alerts_once_per_reading() {
    // End-to-end Q3 over a scripted temperature stream.
    let mut sources = SourceSet::new();
    let temps_schema = XSchema::builder()
        .real("location", DataType::Str)
        .real("temperature", DataType::Real)
        .build()
        .unwrap();
    // hot reading only at tick 3
    let temperatures = StreamHub::new();
    let reading = |at: Instant| {
        if at.ticks() == 3 {
            vec![tuple!["office", 40.0]]
        } else {
            vec![tuple!["office", 20.0]]
        }
    };
    sources.add_stream("temperatures", temps_schema, temperatures.clone());
    let contacts = TableHandle::with_tuples(
        serena_core::schema::examples::contacts_schema(),
        serena_core::xrelation::examples::contacts().into_tuples(),
    );
    sources.add_table("contacts", contacts);
    let mut q = ContinuousQuery::compile(&crate::plan::examples::q3(), &mut sources).unwrap();

    let mut total_actions = 0;
    for t in 0..6 {
        let r = tick_fed(&mut q, &temperatures, reading);
        if t == 3 {
            // 3 contacts × 1 hot reading
            assert_eq!(r.actions.len(), 3, "tick {t}");
        } else {
            assert!(r.actions.is_empty(), "tick {t}: {:?}", r.actions);
        }
        total_actions += r.actions.len();
    }
    assert_eq!(total_actions, 3);
}

#[test]
fn sample_invoke_streams_periodic_readings() {
    // βˢ[2] getTemperature[sensor] (sensors): every 2 ticks, sample
    // every sensor currently in the table.
    let mut sources = SourceSet::new();
    let table = TableHandle::with_tuples(
        serena_core::schema::examples::sensors_schema(),
        vec![
            tuple![Value::service("sensor01"), "corridor"],
            tuple![Value::service("sensor06"), "office"],
        ],
    );
    sources.add_table("sensors", table.clone());
    let plan = StreamPlan::source("sensors").sample_invoke("getTemperature", "sensor", 2);
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    assert!(q.schema().infinite);
    assert!(q.schema().schema.is_real("temperature"));
    let reg = example_registry();

    // τ0: sample (2 sensors); τ1: quiet; τ2: sample again
    assert_eq!(q.tick_with(&reg, &NoopMetrics).batch.len(), 2);
    assert_eq!(q.tick_with(&reg, &NoopMetrics).batch.len(), 0);
    let b2 = q.tick_with(&reg, &NoopMetrics).batch;
    assert_eq!(b2.len(), 2);
    // new sensor joins → next sampling includes it
    table.insert(tuple![Value::service("sensor22"), "roof"]);
    assert_eq!(q.tick_with(&reg, &NoopMetrics).batch.len(), 0); // τ3 off-period
    assert_eq!(q.tick_with(&reg, &NoopMetrics).batch.len(), 3); // τ4
}

#[test]
fn sample_invoke_rejects_active_bp_and_surfaces_errors() {
    // active BP → static rejection
    let mut sources = SourceSet::new();
    sources.add_table(
        "contacts",
        TableHandle::with_tuples(
            serena_core::schema::examples::contacts_schema(),
            serena_core::xrelation::examples::contacts().into_tuples(),
        ),
    );
    let plan = StreamPlan::source("contacts")
        .assign_const("text", "hi")
        .sample_invoke("sendMessage", "messenger", 1);
    assert!(matches!(
        ContinuousQuery::compile(&plan, &mut sources),
        Err(PlanError::StreamStatusMismatch { .. })
    ));

    // unknown service → per-tick error, healthy sensors still sampled
    let mut sources = SourceSet::new();
    sources.add_table(
        "sensors",
        TableHandle::with_tuples(
            serena_core::schema::examples::sensors_schema(),
            vec![
                tuple![Value::service("sensor01"), "corridor"],
                tuple![Value::service("ghost"), "void"],
            ],
        ),
    );
    let plan = StreamPlan::source("sensors").sample_invoke("getTemperature", "sensor", 1);
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let r = q.tick_with(&example_registry(), &NoopMetrics);
    assert_eq!(r.batch.len(), 1);
    assert_eq!(r.errors.len(), 1);
}

/// Under `FailQuery` a βˢ's errors come in its operand's order, so two
/// copies of one plan report the same list, unsorted, at every instant —
/// not each in its own node's `RandomState` order.
#[test]
fn two_copies_of_a_sampler_report_the_same_errors_in_order() {
    let schema = serena_core::schema::examples::sensors_schema();
    let ghost = |i: usize| tuple![Value::service(format!("ghost{i:02}")), "void"];
    let mut rows: Vec<Tuple> = (0..12).map(ghost).collect();
    rows.push(tuple![Value::service("sensor01"), "corridor"]);
    let table = TableHandle::with_tuples(schema, rows);
    let plan = StreamPlan::source("sensors").sample_invoke("getTemperature", "sensor", 1);
    let compile = || {
        let mut sources = SourceSet::new();
        sources.add_table("sensors", table.clone());
        ContinuousQuery::compile(&plan, &mut sources).unwrap()
    };
    let (mut a, mut b) = (compile(), compile());
    let reg = example_registry();
    for at in 0..6 {
        // the fleet changes under the samplers: the view is rebuilt
        if at % 2 == 1 {
            table.insert(ghost(20 + at));
            table.delete(ghost(at));
        }
        let (ra, rb) = (
            a.tick_with(&reg, &NoopMetrics),
            b.tick_with(&reg, &NoopMetrics),
        );
        assert!(ra.errors.len() >= 8, "instant {at}: {:?}", ra.errors);
        assert_eq!(ra.errors, rb.errors, "instant {at}");
        assert_eq!(ra.batch, rb.batch, "instant {at}");
    }
}

#[test]
fn sample_invoke_feeds_windows_downstream() {
    // the full future-work composition: sensors →βˢ→ stream →W[1]→ σ
    let mut sources = SourceSet::new();
    sources.add_table(
        "sensors",
        TableHandle::with_tuples(
            serena_core::schema::examples::sensors_schema(),
            vec![tuple![Value::service("sensor01"), "corridor"]],
        ),
    );
    let plan = StreamPlan::source("sensors")
        .sample_invoke("getTemperature", "sensor", 1)
        .window(1)
        .select(Formula::gt_const("temperature", -1000.0));
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    assert!(!q.schema().infinite);
    let reg = example_registry();
    let r = q.tick_with(&reg, &NoopMetrics);
    assert_eq!(r.delta.inserts.len(), 1);
}

#[test]
fn tick_stats_track_beta_cache_hits_and_misses() {
    let mut sources = SourceSet::new();
    let table = TableHandle::new(serena_core::schema::examples::sensors_schema());
    sources.add_table("sensors", table.clone());
    let plan = StreamPlan::source("sensors").invoke("getTemperature", "sensor");
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reg = example_registry();
    // pre-order: 0 = Invoke (root), 1 = Table
    let beta = NodeId(0);

    // a brand-new tuple is a cache miss → one live invocation
    table.insert(tuple![Value::service("sensor01"), "corridor"]);
    let r = q.tick_with(&reg, &NoopMetrics);
    let s = r.stats.node(beta).unwrap();
    assert_eq!(s.op, OpKind::Invoke);
    assert_eq!((s.cache_misses, s.cache_hits, s.invocations), (1, 0, 1));
    assert_eq!(r.stats.node(NodeId(1)).unwrap().op, OpKind::Relation);

    // a quiet tick records the node with all-zero counters
    let r = q.tick_with(&reg, &NoopMetrics);
    let s = r.stats.node(beta).unwrap();
    assert_eq!((s.cache_misses, s.cache_hits, s.invocations), (0, 0, 0));

    // re-inserting the same tuple (still cached) is a hit — no call
    table.insert(tuple![Value::service("sensor01"), "corridor"]);
    let r = q.tick_with(&reg, &NoopMetrics);
    let s = r.stats.node(beta).unwrap();
    assert_eq!((s.cache_misses, s.cache_hits, s.invocations), (0, 1, 0));

    // a different tuple is a miss again
    table.insert(tuple![Value::service("sensor06"), "office"]);
    let r = q.tick_with(&reg, &NoopMetrics);
    let s = r.stats.node(beta).unwrap();
    assert_eq!((s.cache_misses, s.cache_hits, s.invocations), (1, 0, 1));

    // a failed invocation is counted as miss + failure, no output
    table.insert(tuple![Value::service("ghost"), "void"]);
    let r = q.tick_with(&reg, &NoopMetrics);
    let s = r.stats.node(beta).unwrap();
    assert_eq!((s.cache_misses, s.failures, s.invocations), (1, 1, 1));
    assert_eq!(r.errors.len(), 1);
}

/// β's statistics over a batch that mixes hits, misses and failures: every
/// miss and failure is counted once, and the degrading policies count each
/// failure as degraded.
#[test]
fn beta_stats_count_hits_misses_and_failures() {
    use serena_core::metrics::NodeStats;
    fn run(degrade: DegradePolicy) -> Vec<std::collections::BTreeMap<NodeId, NodeStats>> {
        let mut sources = SourceSet::new();
        let table = TableHandle::new(serena_core::schema::examples::sensors_schema());
        sources.add_table("sensors", table.clone());
        let plan = StreamPlan::source("sensors").invoke("getTemperature", "sensor");
        let mut q = ContinuousQuery::compile_with_options(
            &plan,
            &mut sources,
            ExecOptions::serial().with_degrade(degrade),
        )
        .unwrap();
        let reg = example_registry();
        let mut per_tick = Vec::new();

        // tick 0: a cold batch with two failures mixed in
        for (sref, loc) in [
            ("sensor01", "corridor"),
            ("sensor06", "office"),
            ("sensor07", "roof"),
            ("ghost", "void"),
            ("deadbeef", "void"),
        ] {
            table.insert(tuple![Value::service(sref), loc]);
        }
        per_tick.push(q.tick_with(&reg, &NoopMetrics).stats.nodes());
        // tick 1: re-insert a cached tuple (hit) + one new miss
        table.insert(tuple![Value::service("sensor01"), "corridor"]);
        table.insert(tuple![Value::service("sensor22"), "kitchen"]);
        per_tick.push(q.tick_with(&reg, &NoopMetrics).stats.nodes());
        per_tick
    }

    let serial = run(DegradePolicy::FailQuery);
    let beta0 = &serial[0][&NodeId(0)];
    assert_eq!((beta0.cache_misses, beta0.failures), (5, 2));
    let beta1 = &serial[1][&NodeId(0)];
    assert_eq!((beta1.cache_hits, beta1.cache_misses), (1, 1));
    let dropped = run(DegradePolicy::DropTuple);
    assert_eq!(dropped[0][&NodeId(0)].degraded, 2);
}

/// Tentpole: β degradation in the incremental executor. `DropTuple`
/// suppresses the error and contributes nothing; `NullFill` emits (and
/// caches) a type-default filler extension so a later deletion retracts
/// exactly what was emitted.
#[test]
fn degrade_policies_shape_stream_deltas() {
    fn query(degrade: DegradePolicy) -> (TableHandle, ContinuousQuery) {
        let mut sources = SourceSet::new();
        let table = TableHandle::new(serena_core::schema::examples::sensors_schema());
        sources.add_table("sensors", table.clone());
        let plan = StreamPlan::source("sensors").invoke("getTemperature", "sensor");
        let q = ContinuousQuery::compile_with_options(
            &plan,
            &mut sources,
            ExecOptions::default().with_degrade(degrade),
        )
        .unwrap();
        (table, q)
    }
    let reg = example_registry();

    // DropTuple: the dead sensor vanishes, the healthy one survives.
    let (table, mut q) = query(DegradePolicy::DropTuple);
    table.insert(tuple![Value::service("sensor01"), "corridor"]);
    table.insert(tuple![Value::service("ghost"), "void"]);
    let r = q.tick_with(&reg, &NoopMetrics);
    assert!(r.errors.is_empty());
    assert_eq!(r.delta.inserts.len(), 1);
    let s = r.stats.node(NodeId(0)).unwrap();
    assert_eq!((s.failures, s.degraded), (1, 1));

    // NullFill: the dead sensor yields a type-default extension…
    let (table, mut q) = query(DegradePolicy::NullFill);
    table.insert(tuple![Value::service("ghost"), "void"]);
    let r = q.tick_with(&reg, &NoopMetrics);
    assert!(r.errors.is_empty());
    let filler = tuple![Value::service("ghost"), "void", 0.0];
    assert_eq!(r.delta.inserts.iter().collect::<Vec<_>>(), [(&filler, 1)]);
    assert_eq!(r.stats.node(NodeId(0)).unwrap().degraded, 1);

    // …which is cached: deleting the input retracts the filler exactly.
    table.delete(tuple![Value::service("ghost"), "void"]);
    let r = q.tick_with(&reg, &NoopMetrics);
    assert!(r.errors.is_empty());
    assert_eq!(r.delta.deletes.iter().collect::<Vec<_>>(), [(&filler, 1)]);
}

#[test]
fn tick_with_accumulates_into_external_sink() {
    let mut sources = SourceSet::new();
    let table = TableHandle::new(int_schema("x"));
    sources.add_table("t", table.clone());
    let plan = StreamPlan::source("t").select(Formula::gt_const("x", 0));
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reg = example_registry();
    let rolling = ExecStats::new();

    table.insert(tuple![1]);
    q.tick_with(&reg, &rolling);
    table.insert(tuple![2]);
    let r = q.tick_with(&reg, &rolling);

    // the per-tick report sees only this tick…
    assert_eq!(r.stats.node(NodeId(0)).unwrap().tuples_out, 1);
    assert_eq!(r.stats.node(NodeId(0)).unwrap().applications, 1);
    // …while the external sink accumulates across ticks
    let total = rolling.node(NodeId(0)).unwrap();
    assert_eq!(total.applications, 2);
    assert_eq!(total.tuples_out, 2);
    assert_eq!(total.op, OpKind::Select);
}

#[test]
fn snapshot_restores_window_and_clock_mid_stream() {
    // deterministic stream: one reading per tick, value = tick
    let reading = |at: Instant| vec![tuple![at.ticks() as i64]];
    fn make() -> (SourceSet, StreamPlan, StreamHub) {
        let (mut sources, s) = (SourceSet::new(), StreamHub::new());
        sources.add_stream("s", int_schema("x"), s.clone());
        (sources, StreamPlan::source("s").window(2), s)
    }

    // uninterrupted run: 6 ticks
    let (mut sources, plan, s) = make();
    let mut baseline = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let mut expected = Vec::new();
    for t in 0..6u64 {
        let r = tick_fed(&mut baseline, &s, reading);
        if t >= 3 {
            expected.push((
                r.delta.inserts.sorted_occurrences(),
                r.delta.deletes.sorted_occurrences(),
            ));
        }
    }

    // interrupted run: 3 ticks, snapshot, "crash", restore, 3 more
    let (mut sources, plan, s) = make();
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    for _ in 0..3 {
        tick_fed(&mut q, &s, reading);
    }
    let mut w = Writer::new();
    q.write_snapshot(&mut w);
    let bytes = w.into_bytes();
    drop(q);

    let (mut sources, plan, s) = make();
    let mut restored = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    restored.read_snapshot(&mut Reader::new(&bytes)).unwrap();
    assert_eq!(restored.next_instant(), Instant(3));
    let got: Vec<_> = (0..3)
        .map(|_| {
            let r = tick_fed(&mut restored, &s, reading);
            (
                r.delta.inserts.sorted_occurrences(),
                r.delta.deletes.sorted_occurrences(),
            )
        })
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn snapshot_restores_beta_cache_exactly() {
    // the cached extension (not a re-invocation) must be retracted
    // after restore, even though a live call would read differently
    fn make(table: &TableHandle) -> ContinuousQuery {
        let mut sources = SourceSet::new();
        sources.add_table("sensors", table.clone());
        let plan = StreamPlan::source("sensors").invoke("getTemperature", "sensor");
        ContinuousQuery::compile(&plan, &mut sources).unwrap()
    }
    let reg = example_registry();
    let table = TableHandle::new(serena_core::schema::examples::sensors_schema());
    let mut q = make(&table);
    table.insert(tuple![Value::service("sensor01"), "corridor"]);
    let produced = q
        .tick_with(&reg, &NoopMetrics)
        .delta
        .inserts
        .sorted_occurrences();
    let mut w = Writer::new();
    q.write_snapshot(&mut w);
    let mut tw = Writer::new();
    table.export_state(&mut tw);
    let (qb, tb) = (w.into_bytes(), tw.into_bytes());
    drop((q, table));

    let table = TableHandle::new(serena_core::schema::examples::sensors_schema());
    table.import_state(&mut Reader::new(&tb)).unwrap();
    let mut q = make(&table);
    q.read_snapshot(&mut Reader::new(&qb)).unwrap();
    let counting = serena_core::eval::CountingInvoker::new(&reg);
    table.delete(tuple![Value::service("sensor01"), "corridor"]);
    let r = q.tick_with(&counting, &NoopMetrics);
    assert_eq!(r.delta.deletes.sorted_occurrences(), produced);
    assert_eq!(counting.count_of("getTemperature"), 0); // served from cache
}

#[test]
fn snapshot_shape_mismatch_is_a_typed_error() {
    let mut sources = SourceSet::new();
    let table = TableHandle::new(int_schema("x"));
    sources.add_table("t", table.clone());
    let q = ContinuousQuery::compile(&StreamPlan::source("t"), &mut sources).unwrap();
    let mut w = Writer::new();
    q.write_snapshot(&mut w);
    let bytes = w.into_bytes();

    // restore into a structurally different query
    let mut sources = SourceSet::new();
    sources.add_table("t", table.clone());
    let plan = StreamPlan::source("t").select(Formula::gt_const("x", 0));
    let mut other = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    assert!(matches!(
        other.read_snapshot(&mut Reader::new(&bytes)),
        Err(SnapshotError::Mismatch(_))
    ));
}

#[test]
fn q4_emits_photo_stream_on_cold_readings() {
    let mut sources = SourceSet::new();
    let temps_schema = XSchema::builder()
        .real("location", DataType::Str)
        .real("temperature", DataType::Real)
        .build()
        .unwrap();
    let temperatures = StreamHub::new();
    let reading = |at: Instant| {
        if at.ticks() == 2 {
            vec![tuple!["office", 5.0]]
        } else {
            vec![tuple!["office", 20.0]]
        }
    };
    sources.add_stream("temperatures", temps_schema, temperatures.clone());
    let cameras = TableHandle::with_tuples(
        serena_core::schema::examples::cameras_schema(),
        serena_core::xrelation::examples::cameras().into_tuples(),
    );
    sources.add_table("cameras", cameras);
    let mut q = ContinuousQuery::compile(&crate::plan::examples::q4(), &mut sources).unwrap();

    for t in 0..5 {
        let r = tick_fed(&mut q, &temperatures, reading);
        if t == 2 {
            // two cameras cover "office" (camera01, webcam07)
            assert_eq!(r.batch.len(), 2, "tick {t}");
            assert!(r.actions.is_empty()); // both prototypes passive
        } else {
            assert!(r.batch.is_empty(), "tick {t}");
        }
    }
}

/// What stream `temps` appends at `at`.
fn temps_batch(at: Instant) -> Vec<Tuple> {
    let t = at.ticks() as f64;
    vec![tuple!["office", 20.0 + t], tuple!["lab", 15.0 - t]]
}

/// One plan holding every node kind: table, stream, σ, π, ρ, α, ∪, ⋈,
/// γ, β, W, S[insertion], βˢ — the stream `temps` read from `hub`.
fn every_node_kind(sensors: &TableHandle, rooms: &TableHandle, hub: &StreamHub) -> ContinuousQuery {
    let mut sources = SourceSet::new();
    sources.add_table("sensors", sensors.clone());
    sources.add_table("rooms", rooms.clone());
    let temps = XSchema::builder()
        .real("location", DataType::Str)
        .real("temperature", DataType::Real)
        .build()
        .unwrap();
    sources.add_stream("temps", temps, hub.clone());
    let readings = |p: StreamPlan| p.project(["location", "temperature"]);
    let plan = StreamPlan::source("temps")
        .window(3)
        .union(readings(
            StreamPlan::source("sensors").invoke("getTemperature", "sensor"),
        ))
        .union(readings(
            StreamPlan::source("sensors")
                .sample_invoke("getTemperature", "sensor", 2)
                .window(2),
        ))
        .join(StreamPlan::source("rooms"))
        .select(Formula::gt_const("temperature", -1000.0))
        .rename("floor", "level")
        .assign_const("note", "ok")
        .aggregate(
            ["location"],
            vec![AggSpec::new(AggFun::Avg, "temperature").named("mean")],
        )
        .stream(StreamKind::Insertion);
    ContinuousQuery::compile(&plan, &mut sources).unwrap()
}

/// FNV-1a 64 of a query's snapshot bytes, with the byte count.
fn digest(q: &ContinuousQuery) -> (usize, String) {
    let mut w = Writer::new();
    q.write_snapshot(&mut w);
    let bytes = w.into_bytes();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in &bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (bytes.len(), format!("{h:016x}"))
}

/// Snapshot format guard: the digest was recorded from the executor of
/// snapshot `VERSION = 3` (tags 0–7, field order; a window writes its period
/// and its ring). Same-build round trips cannot see a format change; this
/// does.
#[test]
fn snapshot_bytes_match_the_recorded_format() {
    let sensors = TableHandle::with_tuples(
        serena_core::schema::examples::sensors_schema(),
        vec![
            tuple![Value::service("sensor01"), "corridor"],
            tuple![Value::service("sensor06"), "office"],
        ],
    );
    let rooms = TableHandle::with_tuples(
        XSchema::builder()
            .real("location", DataType::Str)
            .real("floor", DataType::Int)
            .virt("note", DataType::Str)
            .build()
            .unwrap(),
        vec![tuple!["office", 1], tuple!["corridor", 0], tuple!["lab", 2]],
    );
    let temps = StreamHub::new();
    let mut q = every_node_kind(&sensors, &rooms, &temps);
    let r = tick_fed(&mut q, &temps, temps_batch);
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert!(!r.batch.is_empty());
    sensors.insert(tuple![Value::service("sensor22"), "lab"]);
    sensors.insert(tuple![Value::service("sensor06"), "office"]);
    sensors.delete(tuple![Value::service("sensor01"), "corridor"]);
    let r = tick_fed(&mut q, &temps, temps_batch);
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    // populated β cache, W[3] holding two of three batches
    assert_eq!(digest(&q), (2802, "f3518726fb22c236".into()));
}

// ---------------------------------------------------------------------
// The delta-native ⋈, ∪/∩/− and γ against the naive tick they refine.
// ---------------------------------------------------------------------

/// xorshift64*, as `tests/common::Rng`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, bound: u64) -> i64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound) as i64
    }
}

/// The reference: the instantaneous output of ⋈, ∪, ∩, − or γ rebuilt from
/// its operands' whole `current`. Until PR 14 this *was* the tick of these
/// operators (followed by `Multiset::diff_to` against the previous output);
/// the delta-native operators must be a refinement of it.
fn recompute(op: &CompiledOp, children: &[Node]) -> Multiset {
    let left = &children[0].current;
    let mut out = Multiset::new();
    match op {
        CompiledOp::Union { .. } | CompiledOp::Intersect { .. } | CompiledOp::Difference { .. } => {
            // the right operand's state in the left operand's coordinates
            let mut right = Multiset::new();
            for (t, c) in children[1].current.iter() {
                right.insert(op.reorder_rhs(t), c);
            }
            if matches!(op, CompiledOp::Union { .. }) {
                out = left.clone();
                for (t, c) in right.iter() {
                    out.insert(t.clone(), c);
                }
            } else {
                let common = matches!(op, CompiledOp::Intersect { .. });
                for (t, c) in left.iter() {
                    let r = right.count(t);
                    let m = if common {
                        c.min(r)
                    } else {
                        c.saturating_sub(r)
                    };
                    out.insert(t.clone(), m);
                }
            }
        }
        CompiledOp::Join {
            key_left,
            key_right,
            ..
        } => {
            for (tl, cl) in left.iter() {
                for (tr, cr) in children[1].current.iter() {
                    if tl.project_positions(key_left) == tr.project_positions(key_right) {
                        out.insert(op.join_tuple(tl, tr), cl * cr);
                    }
                }
            }
        }
        CompiledOp::Aggregate {
            in_schema,
            group,
            aggs,
        } => {
            // over the child's *distinct* tuples, as the one-shot operator
            let rel =
                XRelation::from_tuples(in_schema.clone(), left.iter().map(|(t, _)| t.clone()));
            let out_rel = serena_core::ops::aggregate(&rel, group, aggs).unwrap();
            out = out_rel.into_tuples().into_iter().collect();
        }
        _ => unreachable!("{} keeps no state", op.kind()),
    }
    out
}

/// Seeded sources for the differential runs: tables `t(x, y)`, `u(y, x)` —
/// `t`'s attributes in the other order — and `r(x, z)`, a stream `s(x, y)`
/// and a stream `m` of located sensors (a service attribute for β, a
/// virtual one for α). Attribute domains are small, so tuples repeat
/// (counts above one, in a table, inside a batch and across a window's
/// batches), and `x` drifts upwards, so join keys and groups appear and
/// vanish for good. Every query compiled against the world reads the same
/// tables and hubs.
struct World {
    seed: u64,
    t: TableHandle,
    u: TableHandle,
    r: TableHandle,
    s: StreamHub,
    m: StreamHub,
}

fn drift(at: u64) -> i64 {
    (at / 16) as i64
}

/// What stream `s` appends at `at`.
fn s_batch(seed: u64, at: Instant) -> Vec<Tuple> {
    let mut rng = Rng::new(seed ^ (at.ticks() + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    (0..rng.below(7))
        .map(|_| tuple![drift(at.ticks()) + rng.below(4), rng.below(3)])
        .collect()
}

/// What stream `m` appends at `at`: one reading twice at every instant — a
/// duplicate inside the batch, and a tuple the entering and the expiring
/// batch of any window both hold — and a few that come and go.
fn m_batch(seed: u64, at: Instant) -> Vec<Tuple> {
    let mut rng = Rng::new(seed ^ (at.ticks() + 1).wrapping_mul(0x9FB2_1C65_1E98_DF25));
    let reading = |sensor: &str, room: i64| tuple![Value::service(sensor), format!("room{room}")];
    let mut batch = vec![reading("sensor01", 0), reading("sensor01", 0)];
    for _ in 0..rng.below(4) {
        let sensor = ["sensor01", "sensor06", "sensor07", "sensor22"][rng.below(4) as usize];
        batch.push(reading(sensor, rng.below(2)));
    }
    batch
}

impl World {
    fn new(seed: u64) -> World {
        let ints = |a: &str, b: &str| {
            XSchema::builder()
                .real(a, DataType::Int)
                .real(b, DataType::Int)
                .build()
                .unwrap()
        };
        let xz = XSchema::builder()
            .real("x", DataType::Int)
            .real("z", DataType::Real)
            .build()
            .unwrap();
        World {
            seed,
            t: TableHandle::new(ints("x", "y")),
            u: TableHandle::new(ints("y", "x")),
            r: TableHandle::new(xz),
            s: StreamHub::new(),
            m: StreamHub::new(),
        }
    }

    /// A source set of this world for one more query.
    fn sources(&self) -> SourceSet {
        let mut sources = SourceSet::new();
        sources.add_table("t", self.t.clone());
        sources.add_table("u", self.u.clone());
        sources.add_table("r", self.r.clone());
        sources.add_stream("s", self.t.schema(), self.s.clone());
        let located = serena_core::schema::examples::sensors_schema();
        sources.add_stream("m", located, self.m.clone());
        sources
    }

    /// Push what the streams append at instant `at`.
    fn push(&self, at: Instant) {
        s_batch(self.seed, at)
            .into_iter()
            .for_each(|t| self.s.push(t));
        m_batch(self.seed, at)
            .into_iter()
            .for_each(|t| self.m.push(t));
    }

    /// The table writes before instant `at`: a few deletions of tuples the
    /// table holds, a few insertions — some of a tuple it already holds,
    /// some of one deleted in this same instant.
    fn churn(&self, rng: &mut Rng, at: u64) {
        let x = |rng: &mut Rng| drift(at) + rng.below(4);
        for (table, fresh) in [
            (
                &self.t,
                &(|rng: &mut Rng| tuple![x(rng), rng.below(3)]) as &dyn Fn(&mut Rng) -> Tuple,
            ),
            (&self.u, &|rng: &mut Rng| tuple![rng.below(3), x(rng)]),
            // quarters: every sum is exact, whatever order it is taken in
            (&self.r, &|rng: &mut Rng| {
                tuple![x(rng), rng.below(12) as f64 * 0.25]
            }),
        ] {
            let held = table.snapshot().sorted_occurrences();
            let mut deleted = Vec::new();
            for _ in 0..rng.below(4) {
                if !held.is_empty() {
                    let t = &held[rng.below(held.len() as u64) as usize];
                    table.delete(t.clone());
                    deleted.push(t.clone());
                }
            }
            for _ in 0..rng.below(4) {
                let t = match rng.below(4) {
                    0 if !deleted.is_empty() => deleted[0].clone(),
                    1 if !held.is_empty() => held[rng.below(held.len() as u64) as usize].clone(),
                    _ => fresh(rng),
                };
                table.insert(t);
            }
        }
    }
}

fn keeps_state(node: &Node) -> Option<&CompiledOp> {
    match &node.op {
        Op::Serena { op, state } if !matches!(state, OpState::Stateless | OpState::Ring { .. }) => {
            Some(op)
        }
        _ => None,
    }
}

/// σ, π, ρ, α over a bag, tuple by tuple.
fn mapped(op: &CompiledOp, bag: &Multiset) -> Multiset {
    let mut out = Multiset::new();
    for (t, c) in bag.iter() {
        if let Some(m) = op.map_tuple(t).unwrap() {
            out.insert(m, c);
        }
    }
    out
}

/// The per-node half of [`differential`], over `node`'s subtree. `read` says
/// whether the node's parent reads its `current` — stated here from the
/// operators' definitions, not taken from what `build` decided.
fn check_node(node: &Node, read: bool, context: &str) {
    let context = &format!("node {} of {context}", node.id);
    assert_eq!(node.read, read, "{context}");
    let operand = || node.children[0].content();
    // a sliding node keeps `current` — its ring's bags as one — only where
    // it is read
    if let Some(bags) = node.ring() {
        if read {
            assert_eq!(node.current, union(bags), "{context}");
        } else {
            assert!(node.current.is_empty(), "unread, but kept: {context}");
        }
    }
    let reads_operands = match &node.op {
        Op::Window { ring, period } => {
            assert!(ring.len() as u64 <= *period, "{context}");
            false
        }
        // σ, π, ρ, α rebuilt from the operand's whole content; over a
        // sliding operand, one bag per operand bag, each that bag mapped
        Op::Serena {
            op,
            state: state @ (OpState::Stateless | OpState::Ring { .. }),
        } => {
            assert_eq!(*node.content(), mapped(op, &operand()), "{context}");
            let slides = node.children[0].ring();
            assert_eq!(matches!(state, OpState::Ring { .. }), slides.is_some());
            if let (Some(bags), Some(operand_bags)) = (node.ring(), slides) {
                assert_eq!(bags.len(), operand_bags.len(), "{context}");
                for (bag, operand_bag) in bags.into_iter().zip(operand_bags) {
                    assert_eq!(**bag, mapped(op, operand_bag), "{context}");
                }
            }
            false
        }
        Op::Serena { op, .. } => {
            assert_eq!(node.current, recompute(op, &node.children), "{context}");
            true
        }
        // β holds, per operand tuple, the extensions it was invoked for
        Op::Invoke { cache, .. } => {
            let operand = operand();
            assert_eq!(cache.len(), operand.distinct(), "{context}");
            let mut rebuilt = Multiset::new();
            for (t, c) in operand.iter() {
                assert_eq!(cache[t].count, c, "{t:?} in {context}");
                for o in &cache[t].outputs {
                    rebuilt.insert(o.clone(), c);
                }
            }
            assert_eq!(node.current, rebuilt, "{context}");
            false
        }
        Op::StreamOf(kind) => *kind == StreamKind::Heartbeat,
        Op::SampleInvoke { .. } => true,
        Op::Table { .. } | Op::Stream { .. } => false,
    };
    for child in &node.children {
        check_node(child, reads_operands, context);
    }
}

/// Run every plan, and every subplan of it rooted at a ⋈, ∪, ∩, − or γ, as
/// a query of its own over one world for `instants` instants. After each
/// instant every node of every query must hold what the reference rebuilds
/// from its operands' whole content — a sliding node in its ring, and in
/// `current` only where its parent reads it — and each query must have reported
/// exactly the diff of its root, so every ⋈, ∪, ∩, − and γ's own delta is
/// checked, as the root of some query.
fn differential(seed: u64, plans: &[StreamPlan], instants: u64) {
    fn subplans<'a>(plan: &'a StreamPlan, out: &mut Vec<&'a StreamPlan>) {
        use StreamPlan::*;
        if matches!(
            plan,
            Union(..) | Intersect(..) | Difference(..) | Join(..) | Aggregate(..)
        ) {
            out.push(plan);
        }
        for child in plan.children() {
            subplans(child, out);
        }
    }
    let world = World::new(seed);
    let mut rooted = Vec::new();
    for plan in plans {
        subplans(plan, &mut rooted);
        if !rooted.iter().any(|seen| std::ptr::eq(*seen, plan)) {
            rooted.push(plan);
        }
    }
    let mut queries: Vec<ContinuousQuery> = rooted
        .iter()
        .map(|plan| ContinuousQuery::compile(plan, &mut world.sources()).unwrap())
        .collect();
    let reg = example_registry();
    let mut rng = Rng::new(seed);
    let (mut emitted, mut held) = (0, 0);
    for at in 0..instants {
        world.churn(&mut rng, at);
        world.push(Instant(at));
        for (q, plan) in queries.iter_mut().zip(&rooted) {
            let before = q.root.content().into_owned();
            let report = q.tick_with(&reg, &NoopMetrics);
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            let context = format!("seed {seed}, instant {at}, {}", plan.to_algebra());
            // the query's reader derives the root's content
            check_node(&q.root, false, &context);
            // ⋈, ∪, ∩, − and γ emit net deltas; a window's, and what σ, π, ρ,
            // α and β make of it, may name one tuple on both sides
            let moved = before.diff_to(&q.root.content());
            if keeps_state(&q.root).is_some() {
                assert_eq!(report.delta, moved, "{context}");
            } else {
                assert_eq!(report.delta.clone().net(), moved, "{context}");
            }
            if matches!(q.root.op, Op::StreamOf(StreamKind::Heartbeat)) {
                let repeated = q.root.children[0].content().sorted_occurrences();
                assert_eq!(report.batch, repeated, "{context}");
            }
            emitted += report.delta.magnitude() + report.batch.len();
            held += q.root.content().len();
        }
    }
    // the runs are not vacuous
    assert!(emitted > 40 * queries.len() && held > 40 * queries.len());
}

fn s_window(period: u64) -> StreamPlan {
    StreamPlan::source("s").window(period)
}

fn table(name: &str) -> StreamPlan {
    StreamPlan::source(name)
}

#[test]
fn delta_native_join_matches_the_reference() {
    let plans = [
        // window slide on one side, table churn on the other
        s_window(3).join(table("r")),
        // π makes the left delta name one tuple on both sides, with counts
        // above one; two key attributes, in the other order on the right
        s_window(4).project(["x"]).join(table("t")),
        table("t").join(table("u")),
        // no common attribute: every pair matches
        s_window(2).project(["y"]).join(table("r").project(["z"])),
        // ⋈ over ⋈: the inner one's net delta feeds the outer one's index
        s_window(2).join(table("r")).join(table("u")),
    ];
    differential(0x14_01, &plans, 520);
    differential(0x14_02, &plans[..3], 520);
}

#[test]
fn delta_native_set_operators_match_the_reference() {
    type SetOp = fn(StreamPlan, StreamPlan) -> StreamPlan;
    let set_ops: [SetOp; 3] = [
        StreamPlan::union,
        StreamPlan::intersect,
        StreamPlan::difference,
    ];
    let mut plans = Vec::new();
    for op in set_ops {
        // (x, y) against (y, x): the right operand is held reordered
        plans.push(op(s_window(3), table("u")));
        plans.push(op(table("u"), table("t")));
        // both deltas name tuples on both sides, with counts above one
        plans.push(op(s_window(4).project(["x"]), table("t").project(["x"])));
        plans.push(op(table("t"), s_window(2)));
        // one stream under both operands: each leaf polls a subscription of
        // its own and sees the same batch at an instant
        plans.push(op(s_window(1), s_window(3)));
        plans.push(op(s_window(3), s_window(1)));
    }
    // set operators over set operators
    plans.push(
        table("t")
            .difference(s_window(2))
            .intersect(table("u"))
            .union(table("t")),
    );
    differential(0x14_03, &plans, 520);
}

#[test]
fn delta_native_aggregate_matches_the_reference() {
    let every_fun = |attr: &str| {
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
    let plans = [
        s_window(4).aggregate(["x"], every_fun("y")),
        // one global group, over reals; it dies when `r` empties
        table("r").aggregate(Vec::<&str>::new(), every_fun("z")),
        // duplicates collapse: γ is over the operand's distinct tuples
        s_window(5)
            .project(["x"])
            .aggregate(["x"], vec![AggSpec::new(AggFun::Count, "x")]),
        // groups on two attributes, a ⋈ and a ∪ below
        s_window(3)
            .union(table("t"))
            .join(table("r"))
            .aggregate(["y", "x"], every_fun("z")),
        // γ over γ
        s_window(4)
            .aggregate(
                ["x", "y"],
                vec![AggSpec::new(AggFun::Count, "x").named("n")],
            )
            .aggregate(["y"], every_fun("n")),
    ];
    differential(0x14_04, &plans, 520);
    differential(0x14_05, &plans[..2], 520);
}

/// A sliding node — a window, or σ, π, ρ, α over one — under each kind of
/// parent. σ, π, ρ, α, β and `S[insertion]` see it only through the entered
/// and the expired bag, and the query's reader derives the root's content,
/// so there it keeps no `current`; ⋈, ∪, −, γ, `S[heartbeat]` and βˢ do read
/// it, so there it does. Stream `m` repeats one tuple inside every batch —
/// so in every entering *and* every expiring one — and `s` does both often.
#[test]
fn a_window_keeps_current_only_where_it_is_read() {
    let m_window = |period| StreamPlan::source("m").window(period);
    let count = || vec![AggSpec::new(AggFun::Count, "y")];
    let positive = || Formula::gt_const("y", 0);
    let plans = [
        // not read
        s_window(3).select(positive()),
        s_window(4).project(["y"]),
        s_window(2).rename("x", "k"),
        m_window(3).assign_const("temperature", 20.5),
        m_window(2).invoke("getTemperature", "sensor"),
        s_window(2).stream(StreamKind::Insertion),
        m_window(1).stream(StreamKind::Deletion),
        s_window(4),
        m_window(3),
        // chains: each link maps what the one below it handed on
        s_window(3).project(["x", "y"]).select(positive()),
        s_window(1).select(positive()).rename("x", "k"),
        m_window(2)
            .project(["location"])
            .stream(StreamKind::Insertion),
        // read
        s_window(3).aggregate(["x"], count()),
        m_window(2).project(["location"]).join(m_window(3)),
        s_window(2).union(table("t")),
        table("t").difference(s_window(3)),
        s_window(3).stream(StreamKind::Heartbeat),
        m_window(2).sample_invoke("getTemperature", "sensor", 2),
        s_window(2).select(positive()).stream(StreamKind::Heartbeat),
        // a linear chain as the left operand of ⋈, and under γ
        s_window(3)
            .select(positive())
            .project(["x"])
            .join(table("r")),
        s_window(4)
            .rename("y", "w")
            .select(Formula::gt_const("w", 0))
            .aggregate(["x"], vec![AggSpec::new(AggFun::Count, "w")]),
        // both in one plan: the σ-parented window of a ∪ whose other operand
        // is a window itself
        s_window(1).select(positive()).union(s_window(3)),
    ];
    let seed = 0x19_01;
    differential(seed, &plans, 260);
    // `s` too names a tuple in the entering and the expiring batch of W[3],
    // and twice in one batch, at a good share of the instants
    let bag = |at: u64| Multiset::from_tuples(s_batch(seed, Instant(at)));
    let both_sides = |at: &u64| bag(*at).iter().any(|(t, _)| bag(at - 3).contains(t));
    let duplicate = |at: &u64| bag(*at).distinct() < bag(*at).len();
    assert!((3..260).filter(both_sides).count() > 40);
    assert!((0..260).filter(duplicate).count() > 40);
}

/// σ over W[3] and π over W[4], checkpointed after each of the instants
/// 0…6 and restored into a fresh compile: the snapshot holds no mapped bag,
/// the restore rebuilds them from the window's ring, and the next six
/// reports and results are the uninterrupted run's.
#[test]
fn a_restored_ring_continues_the_uninterrupted_run() {
    let world = World::new(0x29_01);
    let reg = example_registry();
    let compile = |plan: &StreamPlan| ContinuousQuery::compile(plan, &mut world.sources()).unwrap();
    let next = |q: &mut ContinuousQuery| {
        world.push(q.next_instant());
        let r = q.tick_with(&reg, &NoopMetrics);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        (r.at, r.delta, q.current_relation().unwrap())
    };
    let plans = [
        (s_window(3).select(Formula::gt_const("y", 0)), 3),
        (s_window(4).project(["x"]), 4),
    ];
    for (plan, period) in &plans {
        let mut uninterrupted = compile(plan);
        let run: Vec<_> = (0..13).map(|_| next(&mut uninterrupted)).collect();
        for at in 0..=6 {
            let mut q = compile(plan);
            for _ in 0..at {
                next(&mut q);
            }
            let mut w = Writer::new();
            q.write_snapshot(&mut w);
            let (bytes, written) = (w.into_bytes(), digest(&q));
            drop(q);
            let mut restored = compile(plan);
            restored.read_snapshot(&mut Reader::new(&bytes)).unwrap();
            let Op::Serena {
                state: OpState::Ring { bags, .. },
                ..
            } = &restored.root.op
            else {
                panic!("σ and π over a window keep a ring")
            };
            assert_eq!(bags.len(), at.min(*period));
            assert_eq!(digest(&restored), written);
            for (i, expected) in run[at..at + 6].iter().enumerate() {
                let context = format!("{} from {at}, instant {}", plan.to_algebra(), at + i);
                assert_eq!(&next(&mut restored), expected, "{context}");
            }
        }
    }
}

/// A tuple σ fails on is reported once, at the instant its batch enters the
/// window — not again when the batch expires, since the expired side is the
/// bag the batch mapped to on entry, which does not hold it.
#[test]
fn a_bad_tuple_is_one_error_when_it_enters() {
    let (mut sources, s) = (SourceSet::new(), StreamHub::new());
    // instant 1 appends a STRING where `x` is an INTEGER
    let batch = |at: Instant| match at.ticks() {
        1 => vec![tuple!["oops"], tuple![7]],
        n => vec![tuple![n as i64]],
    };
    sources.add_stream("s", int_schema("x"), s.clone());
    let plan = StreamPlan::source("s")
        .window(3)
        .select(Formula::gt_const("x", 0))
        .rename("x", "k");
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reports: Vec<_> = (0..8).map(|_| tick_fed(&mut q, &s, batch)).collect();
    let errors: Vec<usize> = reports.iter().map(|r| r.errors.len()).collect();
    assert_eq!(errors, [0, 1, 0, 0, 0, 0, 0, 0]);
    assert!(
        reports[1].errors[0]
            .to_string()
            .contains("incomparable values"),
        "{}",
        reports[1].errors[0]
    );
    // the good tuple of that batch enters and expires as any other
    assert_eq!(reports[1].delta.inserts.sorted_occurrences(), [tuple![7]]);
    assert_eq!(reports[4].delta.deletes.sorted_occurrences(), [tuple![7]]);
}

// ---------------------------------------------------------------------
// σ, π, ρ, α over one shared batch: mapped once per distinct operator.
// ---------------------------------------------------------------------

/// Stream `s(x, y)`, with a virtual `note` for α, over one hub: the first
/// query to tick at an instant pushes the instant's batch, and every
/// subscription polling that instant gets the same `Arc<Batch>`, which the
/// broadcast keeps so a test can look at it afterwards. The queries over it
/// tick in lock-step.
struct Broadcast {
    hub: StreamHub,
    /// Polled right after each push: it seals the instant's batch.
    witness: serena_core::sync::Mutex<(HubSubscription, HashMap<u64, Arc<Batch>>)>,
    batch: fn(Instant) -> Vec<Tuple>,
}

impl Broadcast {
    fn new(batch: fn(Instant) -> Vec<Tuple>) -> Self {
        let hub = StreamHub::new();
        let witness = serena_core::sync::Mutex::new((hub.subscribe(), HashMap::new()));
        Broadcast {
            hub,
            witness,
            batch,
        }
    }

    /// `plan` over subscriptions of its own, its clock at `at`.
    fn compile(&self, plan: &StreamPlan, at: u64) -> ContinuousQuery {
        let schema = XSchema::builder()
            .real("x", DataType::Int)
            .real("y", DataType::Int)
            .virt("note", DataType::Str)
            .build()
            .unwrap();
        let mut sources = SourceSet::new();
        sources.add_stream("s", schema, self.hub.clone());
        let mut q = ContinuousQuery::compile(plan, &mut sources).unwrap();
        q.seek(Instant(at));
        q
    }

    /// Tick `q`, the instant's batch pushed first if no query has ticked at
    /// it yet.
    fn tick(&self, q: &mut ContinuousQuery) -> TickReport {
        let at = q.next_instant();
        let (witness, made) = &mut *self.witness.lock();
        made.entry(at.ticks()).or_insert_with(|| {
            (self.batch)(at).into_iter().for_each(|t| self.hub.push(t));
            witness.poll()
        });
        q.tick_with(&example_registry(), &NoopMetrics)
    }

    fn made(&self, at: u64) -> Arc<Batch> {
        Arc::clone(&self.witness.lock().1[&at])
    }
}

fn broadcast_batch(at: Instant) -> Vec<Tuple> {
    s_batch(0x30_01, at)
}

/// What one instant of a query shows: its report and its result.
type Shown = (Delta, Vec<Tuple>, ActionSet, usize, Option<XRelation>);

fn shown(hub: &Broadcast, q: &mut ContinuousQuery) -> Shown {
    let r = hub.tick(q);
    let (delta, batch, actions, errors) = (r.delta, r.batch, r.actions, r.errors.len());
    (delta, batch, actions, errors, q.current_relation())
}

/// The bag a σ, π, ρ, α root over a window mapped the last batch to, and
/// the key it asked the memo under.
fn newest(q: &ContinuousQuery) -> (Arc<SharedBag>, &Mapping) {
    match &q.root.op {
        Op::Serena {
            state: OpState::Ring { mapping, bags },
            ..
        } => (Arc::clone(bags.back().expect("a batch entered")), mapping),
        _ => panic!("σ, π, ρ, α over a window keep a ring"),
    }
}

#[test]
fn equal_operators_over_one_batch_hand_on_one_bag() {
    let hub = Broadcast::new(broadcast_batch);
    let over = |f: Formula| s_window(3).select(f);
    let plans = [
        over(Formula::gt_const("x", 1)),
        over(Formula::gt_const("x", 1)),
        // another θ
        over(Formula::gt_const("x", 2)),
        // `y` is coordinate 1 of `s`; under ρ_{y→z} then ρ_{x→y} it names
        // coordinate 0, which is what σ_{x>1}(s) reads
        over(Formula::gt_const("y", 1)),
        s_window(3)
            .rename("y", "z")
            .rename("x", "y")
            .select(Formula::gt_const("y", 1)),
    ];
    let mut queries: Vec<_> = plans.iter().map(|p| hub.compile(p, 0)).collect();
    for at in 0..4 {
        queries.iter_mut().for_each(|q| drop(shown(&hub, q)));
        let [equal, again, theta, named, renamed] = [0, 1, 2, 3, 4].map(|i| newest(&queries[i]));
        assert!(Arc::ptr_eq(&equal.0, &again.0), "instant {at}");
        assert!(!Arc::ptr_eq(&equal.0, &theta.0), "instant {at}");
        assert!(!Arc::ptr_eq(&named.0, &renamed.0), "instant {at}");
        // the key is what σ computes, not what it is called
        assert!(equal.1 == again.1 && equal.1 != theta.1);
        assert!(named.1 != renamed.1 && renamed.1 == equal.1);
        // … and ρ's bag is a bag of its own, so σ over it shares nothing
        // with σ over the bare window, whose key it has
        assert!(!Arc::ptr_eq(&renamed.0, &equal.0), "instant {at}");
        assert_eq!(**renamed.0, **equal.0, "instant {at}");
        // the entering batch's bag holds one entry per distinct operator
        let batch = hub.made(at);
        assert_eq!(batch.bag().memoized().len(), 4, "instant {at}");
    }
}

/// A window root's report hands its slide on: two queries over one window
/// each report the entering batch's bag as `delta.inserts`, and the expired
/// one's as `delta.deletes`, reading the batches' own tables. A write into
/// one report's delta copies the table for that report alone: the other
/// query's report, the ring's batches and every later report are what a
/// query shows alone.
#[test]
fn a_report_shares_the_windows_bags_until_it_is_written() {
    let (hub, apart) = (
        Broadcast::new(broadcast_batch),
        Broadcast::new(broadcast_batch),
    );
    let plan = s_window(2);
    let (mut a, mut b, mut alone) = (
        hub.compile(&plan, 0),
        hub.compile(&plan, 0),
        apart.compile(&plan, 0),
    );
    let mut written = 0;
    for at in 0..8u64 {
        let (mut ra, rb, unshared) = (hub.tick(&mut a), hub.tick(&mut b), apart.tick(&mut alone));
        let expired = at.checked_sub(2).map(|at| hub.made(at));
        for r in [&ra, &rb] {
            assert_eq!(r.delta, unshared.delta, "instant {at}");
            assert!(
                r.delta.inserts.shares_table_with(hub.made(at).bag()),
                "instant {at}"
            );
            if let Some(expired) = &expired {
                assert!(
                    r.delta.deletes.shares_table_with(expired.bag()),
                    "instant {at}"
                );
            }
        }
        // `a`'s report takes a tuple out of each side and puts one in
        for side in [&mut ra.delta.inserts, &mut ra.delta.deletes] {
            let first = side.iter().next().map(|(t, _)| t.clone());
            written += first.map_or(0, |t| side.remove(&t, 1));
            side.insert(tuple![-1, -1], 1);
        }
        assert!(
            !ra.delta.inserts.shares_table_with(hub.made(at).bag()),
            "instant {at}"
        );
        assert_eq!(rb.delta, unshared.delta, "instant {at}");
        assert!(
            rb.delta.inserts.shares_table_with(hub.made(at).bag()),
            "instant {at}"
        );
        for at in at.saturating_sub(1)..=at {
            let batch: Multiset = broadcast_batch(Instant(at)).into_iter().collect();
            assert_eq!(***hub.made(at).bag(), batch, "instant {at}");
        }
        assert_eq!(
            a.current_relation(),
            alone.current_relation(),
            "instant {at}"
        );
        assert_eq!(
            b.current_relation(),
            alone.current_relation(),
            "instant {at}"
        );
    }
    // the writes took tuples out of shared bags, not only out of empty ones
    assert!(written > 8, "{written}");
}

/// Queries that share mappings with others — σ, π, ρ, α and chains of
/// them, some twice — each show, instant for instant, what the same plan
/// shows compiled alone over a stream of its own: a query registered at
/// instant 5 starts from an empty window, one restored beside a live
/// sharer continues its uninterrupted run, a tuple σ fails on is one error
/// per query at entry; and once every query has gone, no memo keeps a
/// mapped bag alive.
#[test]
fn sharing_queries_show_what_they_show_alone() {
    // instant 2 appends a STRING where `x` is an INTEGER
    fn batch(at: Instant) -> Vec<Tuple> {
        let mut tuples = broadcast_batch(at);
        if at.ticks() == 2 {
            tuples.push(tuple!["oops", 1]);
        }
        tuples
    }
    let positive = || Formula::gt_const("x", 0);
    // per plan, the errors it reports: one, at instant 2, if a σ reads `x`
    let fails = [1, 1, 0, 0, 1, 0, 1, 1, 1];
    let plans = [
        s_window(3).select(positive()),
        s_window(3).select(positive()),
        s_window(4).project(["y"]),
        s_window(4).project(["y"]),
        s_window(2)
            .rename("x", "k")
            .select(Formula::gt_const("k", 0)),
        s_window(3)
            .assign_const("note", "hot")
            .project(["x", "note"]),
        s_window(3).select(positive()).project(["x"]),
        s_window(3).select(positive()).project(["x"]),
        s_window(1).project(["x"]).select(positive()),
    ];
    const INSTANTS: u64 = 12;
    let alone: Vec<Vec<Shown>> = plans
        .iter()
        .map(|plan| {
            let own = Broadcast::new(batch);
            let mut q = own.compile(plan, 0);
            (0..INSTANTS).map(|_| shown(&own, &mut q)).collect()
        })
        .collect();
    let late: Vec<Vec<Shown>> = plans
        .iter()
        .map(|plan| {
            let own = Broadcast::new(batch);
            let mut q = own.compile(plan, 5);
            (5..INSTANTS).map(|_| shown(&own, &mut q)).collect()
        })
        .collect();
    let hub = Broadcast::new(batch);
    let mut early: Vec<_> = plans.iter().map(|p| hub.compile(p, 0)).collect();
    let mut registered_late = Vec::new();
    let mut restored: Vec<Option<ContinuousQuery>> = plans.iter().map(|_| None).collect();
    for at in 0..INSTANTS {
        if at == 5 {
            registered_late = plans.iter().map(|p| hub.compile(p, 5)).collect();
        }
        for (i, q) in early.iter_mut().enumerate() {
            let context = format!("{} at {at}", plans[i].to_algebra());
            let now = shown(&hub, q);
            assert_eq!(now, alone[i][at as usize], "{context}");
            assert_eq!(now.3, if at == 2 { fails[i] } else { 0 }, "{context}");
        }
        for (i, q) in registered_late.iter_mut().enumerate() {
            let now = shown(&hub, q);
            let context = format!("{} registered at 5, at {at}", plans[i].to_algebra());
            assert_eq!(now, late[i][at as usize - 5], "{context}");
        }
        // checkpointed and restored after instant 3, then run beside the
        // live sharers for six instants
        for (i, q) in restored.iter_mut().enumerate() {
            match at {
                3 => {
                    let mut w = Writer::new();
                    early[i].write_snapshot(&mut w);
                    let mut fresh = hub.compile(&plans[i], 0);
                    fresh
                        .read_snapshot(&mut Reader::new(&w.into_bytes()))
                        .unwrap();
                    *q = Some(fresh);
                }
                4..=9 => {
                    let q = q.as_mut().expect("restored");
                    let context = format!("{} restored, at {at}", plans[i].to_algebra());
                    assert_eq!(shown(&hub, q), alone[i][at as usize], "{context}");
                }
                _ => {}
            }
        }
    }
    // every query gone: the batches are alive (the stream keeps them), the
    // bags their memos point at are not
    let mapped = (0..INSTANTS).map(|at| hub.made(at)).collect::<Vec<_>>();
    let weak: Vec<_> = mapped.iter().flat_map(|b| b.bag().memoized()).collect();
    assert!(weak.iter().any(|bag| bag.strong_count() > 0));
    drop((early, registered_late, restored));
    assert!(weak.len() > 4 * INSTANTS as usize);
    assert!(weak.iter().all(|bag| bag.strong_count() == 0));
}

/// σ over a shared bag that looks up the rows of its leading text equality
/// maps what the scan maps, with the scan's errors in the scan's order, over
/// bags whose `a` and `s` hold `Str`, `Service` and now and then an INTEGER
/// (where the bag refuses a lookup and σ scans); and σ with distinct texts
/// over one bag build one lookup per coordinate, also when two threads ask
/// at once.
#[test]
fn a_looked_up_slide_selection_is_the_scan_row_for_row() {
    use serena_core::formula::{CmpOp, Expr};
    use std::cell::Cell;
    use std::sync::Barrier;

    const TEXTS: [&str; 4] = ["x", "y", "z", "w"];
    let schema = XSchema::builder()
        .real("a", DataType::Str)
        .real("s", DataType::Service)
        .real("n", DataType::Int)
        .build()
        .unwrap();
    let mut rng = Rng::new(0x46_01);
    let pick =
        |rng: &mut Rng, items: &[&'static str]| items[rng.below(items.len() as u64) as usize];
    // how a bag's `a` and `s` values are drawn: 0 `Str` only, 1 `Service`
    // only, 2 either, 3 either and now and then an INTEGER in `s`
    let text = |rng: &mut Rng, kind: u64, t: &str| match (kind, rng.below(2)) {
        (0, _) | (2 | 3, 0) => Value::str(t),
        _ => Value::service(t),
    };
    let draw = |rng: &mut Rng, kind: u64| {
        let (a, s) = (pick(rng, &TEXTS), pick(rng, &TEXTS));
        let a = text(rng, kind, a);
        let s = if kind == 3 && rng.below(8) == 0 {
            Value::Int(rng.below(3))
        } else {
            text(rng, kind, s)
        };
        Tuple::new(vec![a, s, Value::Int(rng.below(4))])
    };
    // `attr = 'text'`, either way round; or `n = 2`, whose constant is no text
    let equality = |rng: &mut Rng| {
        if rng.below(6) == 0 {
            return Formula::eq_const("n", rng.below(4));
        }
        let attr = Expr::attr(pick(rng, &["a", "s"]));
        let t = pick(rng, &["x", "y", "z", "w", "nothing"]);
        let constant = Expr::Const(text(rng, 2, t));
        match rng.below(2) {
            0 => Formula::Cmp(attr, CmpOp::Eq, constant),
            _ => Formula::Cmp(constant, CmpOp::Eq, attr),
        }
    };
    // anything else; `s CONTAINS` and `s = …` fail on an INTEGER
    let other = |rng: &mut Rng| match rng.below(5) {
        0 => Formula::gt_const("n", rng.below(4)),
        1 => Formula::eq_const("n", rng.below(4)),
        2 => Formula::contains_const("s", pick(rng, &TEXTS)),
        3 => Formula::ne_const("a", pick(rng, &TEXTS)),
        _ => Formula::eq_const("s", pick(rng, &TEXTS)),
    };
    let formula = |rng: &mut Rng| {
        let (lead, rest) = (equality(rng), other(rng));
        match rng.below(7) {
            0 => lead,
            1 => lead.and(rest),
            2 => lead.and(rest).and(other(rng)),
            3 => rest.and(lead),
            4 => lead.or(rest),
            5 => lead.not().and(rest),
            _ => lead.and(rest.or(other(rng))),
        }
    };
    let select = |f: &Formula| CompiledOp::Select {
        formula: f.compile(&schema).unwrap(),
    };
    let (mut looked_up, mut scanned, mut errors) = (0, 0, 0);
    for round in 0..400 {
        let kind = round % 4;
        let bag = SharedBag::from(Multiset::from_tuples(
            (0..1 + rng.below(40)).map(|_| draw(&mut rng, kind)),
        ));
        for _ in 0..8 {
            let f = formula(&mut rng);
            let compiled = f.compile(&schema).unwrap();
            match compiled.leading_text_eq() {
                Some((c, t)) if bag.text_lookup(c, t).is_some() => looked_up += 1,
                _ => scanned += 1,
            }
            let op = CompiledOp::Select { formula: compiled };
            let (mut got, mut expected) = (Vec::new(), Vec::new());
            let mapping = Arc::new(Mapping::of(&op));
            let lookup = map_slide(&op, &mapping, &bag, &mut got, None);
            let scan = map_bag(&op, bag.iter(), &mut expected, None);
            assert_eq!(**lookup, scan, "{f}");
            assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{f}");
            errors += got.len();
        }
    }
    assert!(
        looked_up > 1_000 && scanned > 1_000,
        "{looked_up} / {scanned}"
    );
    assert!(errors > 100, "{errors}");

    // distinct texts over one bag: one build per coordinate asked …
    let builds = || crate::multiset::LOOKUP_BUILDS.with(Cell::get);
    let bag = SharedBag::from(Multiset::from_tuples((0..64).map(|_| draw(&mut rng, 2))));
    let at_start = builds();
    for attr in ["a", "s"] {
        for text in TEXTS {
            let op = select(&Formula::eq_const(attr, text).and(Formula::gt_const("n", 0)));
            let mapping = Arc::new(Mapping::of(&op));
            map_slide(&op, &mapping, &bag, &mut Vec::new(), None);
        }
    }
    assert_eq!(builds() - at_start, 2);
    // … also when two workers ask for it at once: one builds, the other
    // waits for that build
    let bag = SharedBag::from(Multiset::from_tuples((0..256).map(|_| draw(&mut rng, 2))));
    let start = Barrier::new(2);
    let built: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|worker| {
                let (bag, start) = (&bag, &start);
                scope.spawn(move || {
                    start.wait();
                    for text in TEXTS.iter().cycle().skip(worker).take(TEXTS.len()) {
                        let op = select(&Formula::eq_const("a", *text));
                        let mapping = Arc::new(Mapping::of(&op));
                        let mut errors = Vec::new();
                        let mapped = map_slide(&op, &mapping, bag, &mut errors, None);
                        assert_eq!(**mapped, map_bag(&op, bag.iter(), &mut errors, None));
                    }
                    builds()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert_eq!(built, 1);
}

/// SUM and AVG over values whose sums round: the continuous γ folds each
/// group in the ascending order of its values, so the result is a function
/// of what the group holds — not of the map instance holding it, nor of the
/// deltas that built it.
#[test]
fn continuous_avg_is_a_function_of_the_group_content() {
    let schema = XSchema::builder()
        .real("location", DataType::Str)
        .real("seq", DataType::Int)
        .real("temperature", DataType::Real)
        .build()
        .unwrap();
    let readings = TableHandle::new(schema);
    let plan = StreamPlan::source("readings").aggregate(
        ["location"],
        vec![
            AggSpec::new(AggFun::Avg, "temperature").named("mean"),
            AggSpec::new(AggFun::Sum, "temperature").named("total"),
        ],
    );
    let compile = || {
        let mut sources = SourceSet::new();
        sources.add_table("readings", readings.clone());
        ContinuousQuery::compile(&plan, &mut sources).unwrap()
    };
    let (mut a, mut b) = (compile(), compile());
    let reg = example_registry();
    let mut rng = Rng::new(0x14_06);
    let reading = |rng: &mut Rng, location: &str, seq: i64| {
        tuple![
            location,
            seq,
            [0.1, 0.2, 0.3][rng.below(3) as usize] * (1 + rng.below(9)) as f64
        ]
    };
    let mut seq = 0;
    for at in 0..40 {
        // "roof" is written in the first instant only, "office" and "lab"
        // gain a few dozen readings and lose some every instant
        let mut locations = vec!["office", "lab"];
        if at == 0 {
            locations.push("roof");
        }
        for location in locations {
            for _ in 0..24 + rng.below(24) {
                seq += 1;
                readings.insert(reading(&mut rng, location, seq));
            }
        }
        if at > 0 {
            let held = readings.snapshot().sorted_occurrences();
            for _ in 0..30 {
                let t = &held[rng.below(held.len() as u64) as usize];
                if t[0] != Value::str("roof") {
                    readings.delete(t.clone());
                }
            }
        }
        let (ra, rb) = (
            a.tick_with(&reg, &NoopMetrics),
            b.tick_with(&reg, &NoopMetrics),
        );
        // two queries of one plan agree to the bit …
        assert_eq!(ra.delta, rb.delta, "instant {at}");
        assert_eq!(a.root.current, b.root.current, "instant {at}");
        // … on the fold of each group's values in ascending order
        let mut groups: std::collections::BTreeMap<Value, Vec<f64>> = Default::default();
        for (t, _) in readings.snapshot().iter() {
            let temperature = t[2].as_real().unwrap();
            groups.entry(t[0].clone()).or_default().push(temperature);
        }
        assert_eq!(a.root.current.distinct(), groups.len());
        for (location, mut values) in groups {
            values.sort_by(f64::total_cmp);
            let total = values.iter().fold(0.0, |sum, v| sum + v);
            let mean = total / values.len() as f64;
            let expected = Tuple::new(vec![location, Value::Real(mean), Value::Real(total)]);
            assert!(a.root.current.contains(&expected), "{expected:?} at {at}");
        }
        // a group no delta touched emits nothing
        if at > 0 {
            let roof = |m: &Multiset| m.iter().any(|(t, _)| t[0] == Value::str("roof"));
            assert!(!roof(&ra.delta.inserts) && !roof(&ra.delta.deletes));
        }
    }
}

/// Boundedness: join and group keys that never recur leave nothing behind
/// once they slide out of the windows.
#[test]
fn indexes_and_groups_hold_only_what_the_operands_hold() {
    let pair = |a: &str, b: &str| {
        XSchema::builder()
            .real(a, DataType::Int)
            .real(b, DataType::Int)
            .build()
            .unwrap()
    };
    let (mut sources, hubs) = (SourceSet::new(), [StreamHub::new(), StreamHub::new()]);
    for ((name, schema), hub) in [("s", pair("k", "a")), ("p", pair("k", "b"))]
        .into_iter()
        .zip(&hubs)
    {
        sources.add_stream(name, schema, hub.clone());
    }
    let plan = StreamPlan::source("s")
        .window(4)
        .join(StreamPlan::source("p").window(4))
        .aggregate(["k"], vec![AggSpec::new(AggFun::Count, "a")]);
    let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
    let reg = example_registry();
    for _ in 0..2_000 {
        // two tuples an instant under a key no other instant uses
        let k = q.next_instant().ticks() as i64;
        for hub in &hubs {
            hub.push(tuple![k, 0]);
            hub.push(tuple![k, 1]);
        }
        q.tick_with(&reg, &NoopMetrics);
    }
    let distinct_keys = |m: &Multiset| {
        let keys: std::collections::HashSet<Value> = m.iter().map(|(t, _)| t[0].clone()).collect();
        keys.len()
    };
    let join = &q.root.children[0];
    let Op::Serena {
        state: OpState::Join { left, right },
        ..
    } = &join.op
    else {
        panic!("⋈ under γ")
    };
    assert_eq!(left.keys(), distinct_keys(&join.children[0].current));
    assert_eq!(right.keys(), distinct_keys(&join.children[1].current));
    assert_eq!(left.keys(), 4);
    let Op::Serena {
        state: OpState::Groups(groups),
        ..
    } = &q.root.op
    else {
        panic!("γ at the root")
    };
    assert_eq!(groups.live(), distinct_keys(&join.current));
    assert_eq!(groups.live(), 4);
    assert_eq!(q.root.current.len(), 4);
}
