//! Property-based tests of the continuous layer (§4).
//!
//! The central invariant: **delta consistency** — for any random sequence
//! of table mutations and stream batches, replaying every per-tick delta
//! reconstructs exactly the operator's instantaneous state, and the
//! continuous result of a query equals the one-shot evaluation of the same
//! query over the final table contents.

mod common;

use common::{reference, Rng};
use serena::core::formula::Formula;
use serena::core::ops::{AggFun, AggSpec};
use serena::core::prelude::*;
use serena::core::rewrite::optimize;
use serena::core::schema::examples as schemas;
use serena::core::schema::XSchema;
use serena::core::service::fixtures::example_registry;
use serena::core::tuple;
use serena::stream::{
    ContinuousQuery, Delta, Multiset, SourceSet, StreamHub, StreamKind, StreamPlan, TableHandle,
};

fn int_schema() -> SchemaRef {
    XSchema::builder()
        .real("x", DataType::Int)
        .real("y", DataType::Int)
        .build()
        .unwrap()
}

/// One scripted mutation.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Delete(i64, i64),
    TickOnly,
}

/// `plan` evaluated once by the reference over `relations`, each under
/// its name.
fn one_shot(plan: &Plan, relations: Vec<(&str, XRelation)>) -> XRelation {
    let mut env = Environment::new();
    for (name, relation) in relations {
        env.define_relation(name, relation).unwrap();
    }
    let reg = example_registry();
    reference(plan, &env, &reg, Instant::ZERO, &mut ActionSet::new())
}

fn gen_ops(rng: &mut Rng) -> Vec<Op> {
    rng.vec_of(1, 30, |r| match r.below(3) {
        0 => Op::Insert(r.i64_in(0, 5), r.i64_in(0, 5)),
        1 => Op::Delete(r.i64_in(0, 5), r.i64_in(0, 5)),
        _ => Op::TickOnly,
    })
}

fn gen_formula(rng: &mut Rng) -> Formula {
    match rng.below(4) {
        0 => Formula::True,
        1 => Formula::gt_const("x", rng.i64_in(0, 5)),
        2 => Formula::ne_const("y", rng.i64_in(0, 5)),
        _ => Formula::gt_const("x", rng.i64_in(0, 5)).and(Formula::le_const("y", rng.i64_in(0, 5))),
    }
}

/// Continuous σ/π over a mutating table: the accumulated deltas equal
/// the one-shot answer over the final state, at every prefix.
#[test]
fn continuous_select_equals_one_shot() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x5100 + case);
        let ops = gen_ops(&mut rng);
        let f = gen_formula(&mut rng);

        let table = TableHandle::new(int_schema());
        let mut sources = SourceSet::new();
        sources.add_table("t", table.clone());
        let plan = StreamPlan::source("t").select(f.clone());
        let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
        let reg = example_registry();

        let mut replayed = Multiset::new();
        for op in &ops {
            match op {
                Op::Insert(x, y) => table.insert(tuple![*x, *y]),
                Op::Delete(x, y) => table.delete(tuple![*x, *y]),
                Op::TickOnly => {}
            }
            let report = q.tick_with(&reg, &NoopMetrics);
            // replaying deltas reconstructs the instantaneous state…
            let missing = replayed.apply(&report.delta);
            assert_eq!(missing, 0, "delta deleted tuples that were absent");
            let current = q.current_relation().unwrap();
            assert_eq!(current.len(), replayed.distinct());

            // …and matches the one-shot evaluation over the table's state.
            let snapshot =
                XRelation::from_tuples(int_schema(), table.snapshot().iter_occurrences().cloned());
            let plan = Plan::relation("t").select(f.clone());
            assert_eq!(current, one_shot(&plan, vec![("t", snapshot)]));
        }
    }
}

/// The window `W[p]` always contains exactly the batches of the last
/// `p` instants.
#[test]
fn window_contents_match_definition() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x5200 + case);
        let batches: Vec<Vec<(i64, i64)>> = rng.vec_of(1, 20, |r| {
            r.vec_of(0, 4, |r| (r.i64_in(0, 9), r.i64_in(0, 9)))
        });
        let period = rng.u64_in(1, 5);

        let push = StreamHub::new();
        let mut sources = SourceSet::new();
        sources.add_stream("s", int_schema(), push.clone());
        let plan = StreamPlan::source("s").window(period);
        let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
        let reg = example_registry();

        for (i, batch) in batches.iter().enumerate() {
            for &(x, y) in batch {
                push.push(tuple![x, y]);
            }
            q.tick_with(&reg, &NoopMetrics);
            // expected: the union of the last `period` batches
            let lo = (i + 1).saturating_sub(period as usize);
            let expected: Multiset = batches[lo..=i]
                .iter()
                .flatten()
                .map(|&(x, y)| tuple![x, y])
                .collect();
            let current = q.current_relation().unwrap();
            assert_eq!(current.len(), expected.distinct());
            for (t, _) in expected.iter() {
                assert!(current.contains(t), "missing {t} at tick {i}");
            }
        }
    }
}

/// `S[insertion]` emits exactly the per-tick insert deltas;
/// `S[heartbeat]` repeats the full state.
#[test]
fn streaming_operators_echo_deltas() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x5300 + case);
        let ops = gen_ops(&mut rng);

        let table = TableHandle::new(int_schema());
        let mut s1 = SourceSet::new();
        s1.add_table("t", table.clone());
        let mut ins = ContinuousQuery::compile(
            &StreamPlan::source("t").stream(StreamKind::Insertion),
            &mut s1,
        )
        .unwrap();
        let mut s2 = SourceSet::new();
        s2.add_table("t", table.clone());
        let mut hb = ContinuousQuery::compile(
            &StreamPlan::source("t").stream(StreamKind::Heartbeat),
            &mut s2,
        )
        .unwrap();
        let mut s3 = SourceSet::new();
        s3.add_table("t", table.clone());
        let mut raw = ContinuousQuery::compile(&StreamPlan::source("t"), &mut s3).unwrap();

        let reg = example_registry();
        let mut state = Multiset::new();
        for op in &ops {
            match op {
                Op::Insert(x, y) => table.insert(tuple![*x, *y]),
                Op::Delete(x, y) => table.delete(tuple![*x, *y]),
                Op::TickOnly => {}
            }
            let r_raw = raw.tick_with(&reg, &NoopMetrics);
            let r_ins = ins.tick_with(&reg, &NoopMetrics);
            let r_hb = hb.tick_with(&reg, &NoopMetrics);
            state.apply(&r_raw.delta);
            // S[insertion] batch == the finite node's insert delta
            let expected: Vec<Tuple> = r_raw.delta.inserts.sorted_occurrences();
            assert_eq!(&r_ins.batch, &expected);
            // S[heartbeat] batch == the full current *multiset* state
            // (occurrences, not distinct tuples)
            assert_eq!(&r_hb.batch, &state.sorted_occurrences());
        }
    }
}

/// One aggregate of every function over `y`.
fn every_aggregate() -> Vec<AggSpec> {
    [
        AggFun::Count,
        AggFun::Sum,
        AggFun::Avg,
        AggFun::Min,
        AggFun::Max,
    ]
    .map(|fun| AggSpec::new(fun, "y"))
    .to_vec()
}

/// Continuous ∪/∩/−, ⋈ and γ over operands that declare the same attributes
/// in a different order: right-operand tuples are matched in the left
/// operand's coordinate order, exactly as the one-shot operators do, and
/// the deltas reported along the way add up to the one-shot answer.
#[test]
fn continuous_set_ops_equal_one_shot() {
    type Continuous = fn(StreamPlan, StreamPlan) -> StreamPlan;
    type OneShot = fn(Plan, Plan) -> Plan;
    let set_ops: [(Continuous, OneShot); 5] = [
        (StreamPlan::union, Plan::union),
        (StreamPlan::intersect, Plan::intersect),
        (StreamPlan::difference, Plan::difference),
        // on both attributes, the key's coordinates swapped on the right
        (StreamPlan::join, Plan::join),
        (
            |l, r| l.union(r).aggregate(["x"], every_aggregate()),
            |l, r| l.union(r).aggregate(["x"], every_aggregate()),
        ),
    ];
    let yx_schema = XSchema::builder()
        .real("y", DataType::Int)
        .real("x", DataType::Int)
        .build()
        .unwrap();
    // tables are multisets, the one-shot operators are sets: keep every
    // tuple at one occurrence so `−` means the same thing on both sides
    let apply = |table: &TableHandle, op: &Op| match op {
        Op::Insert(a, b) if !table.projected().contains(&tuple![*a, *b]) => {
            table.insert(tuple![*a, *b])
        }
        Op::Delete(a, b) => table.delete(tuple![*a, *b]),
        _ => {}
    };
    for case in 0..64u64 {
        let mut rng = Rng::new(0x5500 + case);
        let left_ops = gen_ops(&mut rng);
        let right_ops = gen_ops(&mut rng);
        for (continuous, one_shot_op) in set_ops {
            let l = TableHandle::new(int_schema());
            let r = TableHandle::new(yx_schema.clone());
            let mut sources = SourceSet::new();
            sources.add_table("l", l.clone());
            sources.add_table("r", r.clone());
            let plan = continuous(StreamPlan::source("l"), StreamPlan::source("r"));
            let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
            let reg = example_registry();

            let mut replayed = Multiset::new();
            for i in 0..left_ops.len().max(right_ops.len()) {
                if let Some(op) = left_ops.get(i) {
                    apply(&l, op);
                }
                if let Some(op) = right_ops.get(i) {
                    apply(&r, op);
                }
                let report = q.tick_with(&reg, &NoopMetrics);
                assert_eq!(replayed.apply(&report.delta), 0);
            }
            let l_rel =
                XRelation::from_tuples(int_schema(), l.snapshot().iter_occurrences().cloned());
            let r_rel =
                XRelation::from_tuples(yx_schema.clone(), r.snapshot().iter_occurrences().cloned());
            let once = one_shot_op(Plan::relation("l"), Plan::relation("r"));
            let expected = one_shot(&once, vec![("l", l_rel), ("r", r_rel)]);
            let replayed = XRelation::from_tuples(
                q.schema().schema.clone(),
                replayed.iter_occurrences().cloned(),
            );
            for continuous in [q.current_relation().unwrap(), replayed] {
                assert_eq!(continuous, expected, "case {case}: {}", plan.to_algebra());
            }
        }
    }
}

/// Join deltas are consistent: replaying them equals recomputing the
/// join of the final states.
#[test]
fn incremental_join_consistency() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x5400 + case);
        let left_ops = gen_ops(&mut rng);
        let right_ops = gen_ops(&mut rng);

        let l = TableHandle::new(int_schema());
        let r_schema = XSchema::builder()
            .real("x", DataType::Int)
            .real("z", DataType::Int)
            .build()
            .unwrap();
        let r = TableHandle::new(r_schema.clone());
        let mut sources = SourceSet::new();
        sources.add_table("l", l.clone());
        sources.add_table("r", r.clone());
        let plan = StreamPlan::source("l").join(StreamPlan::source("r"));
        let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
        let reg = example_registry();

        let steps = left_ops.len().max(right_ops.len());
        let mut replayed = Multiset::new();
        for i in 0..steps {
            if let Some(op) = left_ops.get(i) {
                match op {
                    Op::Insert(x, y) => l.insert(tuple![*x, *y]),
                    Op::Delete(x, y) => l.delete(tuple![*x, *y]),
                    Op::TickOnly => {}
                }
            }
            if let Some(op) = right_ops.get(i) {
                match op {
                    Op::Insert(x, z) => r.insert(tuple![*x, *z]),
                    Op::Delete(x, z) => r.delete(tuple![*x, *z]),
                    Op::TickOnly => {}
                }
            }
            let report = q.tick_with(&reg, &NoopMetrics);
            assert_eq!(replayed.apply(&report.delta), 0);
        }
        // recompute from scratch over the final snapshots
        let l_rel = XRelation::from_tuples(int_schema(), l.snapshot().iter_occurrences().cloned());
        let r_rel = XRelation::from_tuples(r_schema, r.snapshot().iter_occurrences().cloned());
        let plan = Plan::relation("l").join(Plan::relation("r"));
        let expected = one_shot(&plan, vec![("l", l_rel), ("r", r_rel)]);
        assert_eq!(q.current_relation().unwrap(), expected);
        let _ = Delta::new();
    }
}

// ---------------------------------------------------------------------
// optimizer soundness on continuous plans
// ---------------------------------------------------------------------

const STREAM_KINDS: [StreamKind; 3] = [
    StreamKind::Insertion,
    StreamKind::Deletion,
    StreamKind::Heartbeat,
];

fn readings_schema() -> SchemaRef {
    XSchema::builder()
        .real("location", DataType::Str)
        .real("temperature", DataType::Real)
        .build()
        .unwrap()
}

/// The XD-Relations the generated plans read: the running example's three
/// tables and the `temperatures` stream, each shared by every query
/// compiled against the world, as in the PEMS.
struct World {
    tables: Vec<(&'static str, TableHandle, Vec<Tuple>)>,
    temperatures: StreamHub,
}

impl World {
    fn new() -> World {
        let service = Value::service;
        let rows = |name, schema, rows: Vec<Tuple>| (name, TableHandle::new(schema), rows);
        World {
            tables: vec![
                rows(
                    "sensors",
                    schemas::sensors_schema(),
                    vec![
                        tuple![service("sensor01"), "corridor"],
                        tuple![service("sensor06"), "office"],
                        tuple![service("sensor07"), "office"],
                        tuple![service("sensor22"), "roof"],
                    ],
                ),
                rows(
                    "contacts",
                    schemas::contacts_schema(),
                    vec![
                        tuple!["Nicolas", "nicolas@elysee.fr", service("email")],
                        tuple!["Carla", "carla@elysee.fr", service("email")],
                        tuple!["Francois", "francois@im.gouv.fr", service("jabber")],
                    ],
                ),
                rows(
                    "cameras",
                    schemas::cameras_schema(),
                    vec![
                        tuple![service("camera01"), "office"],
                        tuple![service("camera02"), "corridor"],
                        tuple![service("webcam07"), "roof"],
                    ],
                ),
            ],
            temperatures: StreamHub::new(),
        }
    }

    fn sources(&self) -> SourceSet {
        let mut sources = SourceSet::new();
        for (name, handle, _) in &self.tables {
            sources.add_table(*name, handle.clone());
        }
        let temperatures = self.temperatures.clone();
        sources.add_stream("temperatures", readings_schema(), temperatures);
        sources
    }

    /// Append what `temperatures` holds at instant `t`: a reading per place
    /// at two instants in three.
    fn push_readings(&self, t: u64) {
        let places = ["corridor", "office", "roof"].iter().enumerate();
        for (i, place) in places.filter(|(i, _)| !(t + *i as u64).is_multiple_of(3)) {
            let reading = 8.0 + ((t * 5 + i as u64 * 11) % 30) as f64;
            self.temperatures.push(tuple![*place, reading]);
        }
    }

    /// Insert or delete one pooled row of one table (both no-ops when the
    /// row is already present resp. absent).
    fn mutate(&self, rng: &mut Rng) {
        let (_, handle, pool) = rng.pick(&self.tables);
        let row = rng.pick(pool).clone();
        if handle.projected().contains(&row) {
            handle.delete(row);
        } else {
            handle.insert(row);
        }
    }
}

/// A selection over one real attribute of `schema`, constants drawn from
/// the values the world actually holds.
fn gen_selection(rng: &mut Rng, schema: &XSchema) -> Option<Formula> {
    let places = ["corridor", "office", "roof"];
    let mut options = Vec::new();
    for a in schema.attrs().iter().filter(|a| a.is_real()) {
        options.push(match a.name.as_str() {
            "location" | "area" => Formula::eq_const(a.name.as_str(), *rng.pick(&places)),
            "temperature" => Formula::gt_const("temperature", 10.0 + rng.below(20) as f64),
            "name" => Formula::ne_const("name", *rng.pick(&["Carla", "Nicolas"])),
            "quality" => Formula::ge_const("quality", rng.i64_in(2, 8)),
            "n" => Formula::ge_const("n", rng.i64_in(1, 3)),
            _ => continue,
        });
    }
    if options.len() >= 2 && rng.below(4) == 0 {
        let second = options.swap_remove(rng.below(options.len()));
        let first = options.swap_remove(rng.below(options.len()));
        return Some(first.and(second));
    }
    (!options.is_empty()).then(|| options.swap_remove(rng.below(options.len())))
}

/// One more operator on top of a finite `plan`, drawn from those its
/// schema admits: σ, π, ρ, α, β (passive and active) or γ.
fn grow(rng: &mut Rng, plan: StreamPlan, cat: &SourceSet) -> StreamPlan {
    use serena::core::ops::{AggFun, AggSpec};
    let schema = plan.schema(cat).unwrap();
    let mut options = Vec::new();
    options.extend(gen_selection(rng, &schema).map(|f| plan.clone().select(f)));
    let keep: Vec<_> = schema
        .names()
        .filter(|_| rng.below(3) != 0)
        .cloned()
        .collect();
    if !keep.is_empty() {
        options.push(plan.clone().project(keep));
    }
    options.push(plan.clone().rename("location", "area"));
    // the realization operators are what Table 5 is about: offered twice
    for _ in 0..2 {
        options.push(
            plan.clone()
                .assign_const("text", *rng.pick(&["Hot!", "Hi"])),
        );
        for bp in schema.binding_patterns() {
            options.push(
                plan.clone()
                    .invoke(bp.prototype().name(), bp.service_attr().clone()),
            );
        }
    }
    // γ leaves little to build on: offered to a third of the draws
    if let Some(a) = schema
        .attrs()
        .iter()
        .find(|a| a.is_real() && rng.below(3) == 0)
    {
        let count = AggSpec::new(AggFun::Count, a.name.as_str()).named("n");
        options.push(plan.clone().aggregate([a.name.clone()], vec![count]));
    }
    options.retain(|p| p.stream_schema(cat).is_ok());
    if options.is_empty() {
        return plan;
    }
    options.swap_remove(rng.below(options.len()))
}

/// A finite region with `location` and `temperature` real, projected onto
/// them in the given order — the operands of the set operators.
fn gen_readings(rng: &mut Rng, order: [&str; 2]) -> StreamPlan {
    let sampled =
        |every| StreamPlan::source("sensors").sample_invoke("getTemperature", "sensor", every);
    match rng.below(3) {
        0 => StreamPlan::source("temperatures").window(rng.u64_in(1, 4)),
        1 => sampled(rng.u64_in(1, 3)).window(rng.u64_in(1, 4)),
        _ => StreamPlan::source("sensors").invoke("getTemperature", "sensor"),
    }
    .project(order)
}

/// A well-typed finite plan: a leaf (table, windowed stream, or a window
/// over a re-streamed or sampled finite region — i.e. finite regions
/// *below* windows), grown by unary operators, joined or set-combined.
fn gen_finite(rng: &mut Rng, cat: &SourceSet, depth: usize) -> StreamPlan {
    let mut plan = match rng.below(if depth == 0 { 5 } else { 9 }) {
        0 => StreamPlan::source("sensors"),
        1 => StreamPlan::source("contacts"),
        2 => StreamPlan::source("cameras"),
        3 => StreamPlan::source("temperatures").window(rng.u64_in(1, 4)),
        // the active invocation no σ or π may cross (Q1 / Q3)
        4 => StreamPlan::source("contacts")
            .assign_const("text", "Hot!")
            .invoke("sendMessage", "messenger"),
        5 | 6 => {
            // W∘S over a finite region, half of the time directly under a σ
            let below = gen_finite(rng, cat, depth - 1);
            let windowed = below
                .stream(*rng.pick(&STREAM_KINDS))
                .window(rng.u64_in(1, 4));
            if rng.bool() {
                grow_with_selection(rng, windowed, cat)
            } else {
                windowed
            }
        }
        7 => {
            // W∘βˢ over the (possibly filtered) sensors, mostly under a σ
            let mut sensors = StreamPlan::source("sensors");
            if rng.bool() {
                sensors = grow_with_selection(rng, sensors, cat);
            }
            let windowed = sensors
                .sample_invoke("getTemperature", "sensor", rng.u64_in(1, 3))
                .window(rng.u64_in(1, 4));
            if rng.below(3) != 0 {
                grow_with_selection(rng, windowed, cat)
            } else {
                windowed
            }
        }
        _ => {
            let set_op = *rng.pick(&[
                StreamPlan::union as fn(StreamPlan, StreamPlan) -> StreamPlan,
                StreamPlan::intersect,
                StreamPlan::difference,
            ]);
            // the right operand declares the attributes in the other order
            set_op(
                gen_readings(rng, ["location", "temperature"]),
                gen_readings(rng, ["temperature", "location"]),
            )
        }
    };
    for _ in 0..rng.below(4) {
        plan = grow(rng, plan, cat);
    }
    if depth > 0 && rng.below(3) == 0 {
        let other = gen_finite(rng, cat, depth - 1);
        let joined = plan.clone().join(other);
        if joined.stream_schema(cat).is_ok() {
            plan = joined;
        }
        for _ in 0..rng.below(3) {
            plan = grow(rng, plan, cat);
        }
    }
    plan
}

fn grow_with_selection(rng: &mut Rng, plan: StreamPlan, cat: &SourceSet) -> StreamPlan {
    match gen_selection(rng, &plan.schema(cat).unwrap()) {
        Some(f) => plan.select(f),
        None => plan,
    }
}

/// The optimizer on continuous plans, checked against what the algebra
/// promises rather than against how it is built: an optimized plan has the
/// same schema and status, and — ticked beside the original over the same
/// tables, the same stream and the same services — the same deltas, stream
/// batches and action sets at every instant (Definition 9, per instant).
#[test]
fn optimized_continuous_plans_tick_like_the_original() {
    const PLANS: u64 = 240;
    let (mut rewritten, mut crossed_a_window, mut streams, mut moved_invocations) = (0, 0, 0, 0);
    for case in 0..PLANS {
        let mut rng = Rng::new(0x5600 + case);
        let world = World::new();
        let cat = world.sources();
        let mut plan = gen_finite(&mut rng, &cat, 2);
        if rng.below(3) == 0 {
            plan = plan.stream(*rng.pick(&STREAM_KINDS));
            streams += 1;
        }
        let schema = plan
            .stream_schema(&cat)
            .unwrap_or_else(|e| panic!("case {case}: generated an ill-typed plan {plan}: {e}"));

        let report = optimize(&plan, &cat);
        let optimized = report.plan;
        assert_eq!(
            optimized.stream_schema(&cat).as_ref(),
            Ok(&schema),
            "case {case}: {plan}  ⇒  {optimized}"
        );
        rewritten += usize::from(optimized != plan);
        crossed_a_window += usize::from(
            report
                .applied
                .iter()
                .any(|(rule, _)| rule.starts_with("select-past-windowed")),
        );

        // Known gap, left out of the tick comparison (DESIGN § 4,
        // *Rewriting*):
        // `invoke-into-join` moves a passive β from the join's tuples to one
        // operand's, i.e. from the instant the *pair* appears to the instant
        // the operand's tuple did. Equivalent at one instant (Table 5), not
        // over time when the service's answer depends on the instant.
        if report.applied.iter().any(|(r, _)| *r == "invoke-into-join") {
            moved_invocations += 1;
            continue;
        }
        let mut original = ContinuousQuery::compile(&plan, &mut world.sources()).unwrap();
        let mut candidate = ContinuousQuery::compile(&optimized, &mut world.sources()).unwrap();
        let reg = example_registry();
        for (_, handle, rows) in &world.tables {
            for row in rows.iter().filter(|_| rng.below(4) != 0) {
                handle.insert(row.clone());
            }
        }
        for instant in 0..8 {
            world.push_readings(instant);
            let a = original.tick_with(&reg, &NoopMetrics);
            let b = candidate.tick_with(&reg, &NoopMetrics);
            let context = format!("case {case} instant {instant}: {plan}  ⇒  {optimized}");
            assert_eq!(a.delta, b.delta, "{context}");
            let sorted = |mut batch: Vec<Tuple>| {
                batch.sort();
                batch
            };
            assert_eq!(sorted(a.batch), sorted(b.batch), "{context}");
            assert_eq!(a.actions, b.actions, "{context}");
            assert_eq!(a.errors.len(), b.errors.len(), "{context}");
            for _ in 0..rng.below(3) {
                world.mutate(&mut rng);
            }
        }
    }
    // the generator reaches the cases the property is about
    assert!(rewritten >= 100, "only {rewritten} plans were rewritten");
    assert!(
        crossed_a_window >= 30,
        "only {crossed_a_window} selections crossed a window"
    );
    assert!(streams >= 40, "only {streams} stream-valued plans");
    assert!(
        moved_invocations <= 24,
        "{moved_invocations} plans left out of the tick comparison"
    );
}

// ---------------------------------------------------------------------
// σ, π, ρ, α over one shared batch
// ---------------------------------------------------------------------

/// `temperatures` with a virtual `text` for α to realize.
fn texted_readings_schema() -> SchemaRef {
    XSchema::builder()
        .real("location", DataType::Str)
        .real("temperature", DataType::Real)
        .virt("text", DataType::Str)
        .build()
        .unwrap()
}

/// What `temperatures` appends at `at`: a reading per place at most instants,
/// and every fifth instant one whose temperature is a STRING, which a σ on
/// `temperature` fails on.
fn texted_readings(at: u64) -> Vec<Tuple> {
    let mut batch: Vec<Tuple> = ["corridor", "office", "roof"]
        .iter()
        .enumerate()
        .filter(|(i, _)| !(at + *i as u64).is_multiple_of(4))
        .map(|(i, place)| tuple![*place, 8.0 + ((at * 7 + i as u64 * 11) % 30) as f64])
        .collect();
    if at % 5 == 2 {
        batch.push(tuple!["attic", "hot"]);
    }
    batch
}

/// A query over `hub`.
fn over_hub(hub: &StreamHub, plan: &StreamPlan) -> ContinuousQuery {
    let mut sources = SourceSet::new();
    sources.add_stream("temperatures", texted_readings_schema(), hub.clone());
    ContinuousQuery::compile(plan, &mut sources).unwrap()
}

/// One to four σ, π, ρ, α over a window of `temperatures`, sometimes under
/// `S[..]`.
fn gen_chain(rng: &mut Rng, cat: &SourceSet) -> StreamPlan {
    let mut plan = StreamPlan::source("temperatures").window(rng.u64_in(1, 3));
    for _ in 0..rng.u64_in(1, 4) {
        let schema = plan.schema(cat).unwrap();
        let mut options = Vec::new();
        options.extend(gen_selection(rng, &schema).map(|f| plan.clone().select(f)));
        let keep: Vec<_> = schema
            .names()
            .filter(|_| rng.below(3) != 0)
            .cloned()
            .collect();
        if !keep.is_empty() {
            options.push(plan.clone().project(keep));
        }
        options.push(plan.clone().rename("location", "area"));
        options.push(plan.clone().rename("area", "location"));
        options.push(
            plan.clone()
                .assign_const("text", *rng.pick(&["Hot!", "Hi"])),
        );
        options.push(plan.clone().assign_attr("text", "location"));
        options.retain(|p| p.stream_schema(cat).is_ok());
        if options.is_empty() {
            break;
        }
        plan = options.swap_remove(rng.below(options.len()));
    }
    if rng.below(4) == 0 {
        plan = plan.stream(*rng.pick(&STREAM_KINDS));
    }
    plan
}

/// A chain compiled twice over one hub — whose subscriptions receive the
/// same `Arc<Batch>` at an instant, so the second maps nothing the first
/// did — beside a different chain that maps first, shows at every instant
/// what the chain shows compiled alone over a hub of its own: the same
/// delta, batch, actions and error count.
#[test]
fn chains_sharing_a_batch_tick_like_the_chain_alone() {
    const PLANS: u64 = 128;
    let mut cat = SourceSet::new();
    let schema = texted_readings_schema();
    cat.add_stream("temperatures", schema, StreamHub::new());
    let (mut errors, mut operators) = (0, [0; 4]);
    for case in 0..PLANS {
        let mut rng = Rng::new(0x5700 + case);
        let chain = gen_chain(&mut rng, &cat);
        let other = loop {
            let other = gen_chain(&mut rng, &cat);
            if other != chain {
                break other;
            }
        };
        let (hub, own) = (StreamHub::new(), StreamHub::new());
        let mut shared = [
            over_hub(&hub, &other),
            over_hub(&hub, &chain),
            over_hub(&hub, &chain),
        ];
        let mut alone = over_hub(&own, &chain);
        let reg = example_registry();
        for at in 0..10 {
            for t in texted_readings(at) {
                hub.push(t.clone());
                own.push(t);
            }
            let reports = shared.each_mut().map(|q| q.tick_with(&reg, &NoopMetrics));
            let expected = alone.tick_with(&reg, &NoopMetrics);
            errors += expected.errors.len();
            let sorted = |batch: &[Tuple]| {
                let mut batch = batch.to_vec();
                batch.sort();
                batch
            };
            for got in &reports[1..] {
                let context = format!("case {case} instant {at}: {chain} beside {other}");
                assert_eq!(got.delta, expected.delta, "{context}");
                assert_eq!(sorted(&got.batch), sorted(&expected.batch), "{context}");
                assert_eq!(got.actions, expected.actions, "{context}");
                assert_eq!(got.errors.len(), expected.errors.len(), "{context}");
            }
        }
        let algebra = chain.to_algebra();
        for (n, op) in operators.iter_mut().zip(["σ", "π", "ρ", "α"]) {
            *n += usize::from(algebra.contains(op));
        }
    }
    // every operator is drawn, and σ meets the mistyped reading
    assert!(operators.iter().all(|&n| n >= 40), "{operators:?}");
    assert!(errors >= 30, "only {errors} errors");
}
