//! Property-based tests of the continuous layer (§4).
//!
//! The central invariant: **delta consistency** — for any random sequence
//! of table mutations and stream batches, replaying every per-tick delta
//! reconstructs exactly the operator's instantaneous state, and the
//! continuous result of a query equals the one-shot evaluation of the same
//! query over the final table contents.

mod common;

use common::Rng;
use serena::core::formula::Formula;
use serena::core::prelude::*;
use serena::core::schema::XSchema;
use serena::core::service::fixtures::example_registry;
use serena::core::tuple;
use serena::stream::{
    ContinuousQuery, Delta, Multiset, PushStream, SourceSet, StreamKind, StreamPlan, TableHandle,
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
            let mut env = serena::core::env::Environment::new();
            let snapshot =
                XRelation::from_tuples(int_schema(), table.snapshot().iter_occurrences().cloned());
            env.define_relation("t", snapshot).unwrap();
            let one_shot = ExecContext::new(&env, &reg, Instant::ZERO)
                .execute(&serena::core::plan::Plan::relation("t").select(f.clone()))
                .unwrap();
            assert_eq!(current, one_shot.relation);
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

        let push = PushStream::new();
        let mut sources = SourceSet::new();
        sources.add_stream("s", int_schema(), Box::new(push.clone()));
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

/// Continuous ∪/∩/− over operands that declare the same attributes in a
/// different order: right-operand tuples are matched in the left operand's
/// coordinate order, exactly as the one-shot operators do.
#[test]
fn continuous_set_ops_equal_one_shot() {
    type Continuous = fn(StreamPlan, StreamPlan) -> StreamPlan;
    type OneShot = fn(&XRelation, &XRelation) -> Result<XRelation, PlanError>;
    let set_ops: [(Continuous, OneShot); 3] = [
        (StreamPlan::union, serena::core::ops::union),
        (StreamPlan::intersect, serena::core::ops::intersect),
        (StreamPlan::difference, serena::core::ops::difference),
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
        for (continuous, one_shot) in set_ops {
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
            let expected = one_shot(&l_rel, &r_rel).unwrap();
            assert_eq!(
                q.current_relation().unwrap(),
                expected,
                "case {case}: {}",
                plan.to_algebra()
            );
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
        let expected = serena::core::ops::join(&l_rel, &r_rel).unwrap();
        assert_eq!(q.current_relation().unwrap(), expected);
        let _ = Delta::new();
    }
}
