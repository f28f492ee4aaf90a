//! Differential testing: compiled (physical) execution vs a reference
//! evaluator.
//!
//! The reference (`tests/common`'s `reference`) folds a plan over the
//! `ops::*` executors, one operator at a time, with no compilation step —
//! the fold `property_stream` checks continuous plans against too: each
//! node's operands are evaluated into
//! whole X-Relations and handed to `ops::union`, `ops::select`,
//! `ops::join`, …. For every example plan and every instant 0..5,
//! [`PhysicalPlan`] compiled once and executed must produce the X-Relation
//! and action set the reference produces (both compared as sets) —
//! compilation is an optimisation, never a semantic change.
//!
//! The reference is independent of the physical executor for σ, π, ρ, ⋈,
//! ∪, ∩, − and α only. `ops::invoke` prepares the same `InvokeRecipe` the
//! physical β runs, and the physical γ calls `ops::aggregate`, so a fault
//! inside either is shared by both sides and shows here only as far as it
//! moves what the operators around it see.

mod common;

use common::reference;
use serena::core::action::ActionSet;
use serena::core::env::examples::example_environment;
use serena::core::env::Environment;
use serena::core::eval::CountingInvoker;
use serena::core::ops::{AggFun, AggSpec};
use serena::core::plan::examples::{q1, q1_prime, q2, q2_prime};
use serena::core::prelude::*;
use serena::core::schema::examples::sensors_schema;
use serena::core::service::fixtures::{example_registry, temperature_sensor};
use serena::core::xrelation::XRelation;

/// Every example plan exercised below: the paper's four queries plus
/// aggregate, rename and join pipelines covering the remaining operators.
fn example_plans() -> Vec<(&'static str, Plan)> {
    vec![
        ("q1", q1()),
        ("q1_prime", q1_prime()),
        ("q2", q2()),
        ("q2_prime", q2_prime()),
        (
            "aggregate",
            Plan::relation("sensors")
                .invoke("getTemperature", "sensor")
                .project(["location", "temperature"])
                .aggregate(
                    ["location"],
                    vec![AggSpec::new(AggFun::Avg, "temperature").named("mean")],
                ),
        ),
        (
            "rename",
            Plan::relation("sensors")
                .select(Formula::ne_const("location", "roof"))
                .rename("location", "place")
                .project(["place"]),
        ),
        (
            "join",
            Plan::relation("sensors")
                .join(Plan::relation("sensors").project(["location"]))
                .invoke("getTemperature", "sensor"),
        ),
        (
            "set_ops",
            Plan::relation("contacts")
                .select(Formula::eq_const("messenger", "email"))
                .union(Plan::relation("contacts"))
                .difference(Plan::relation("contacts").select(Formula::eq_const("name", "Carla"))),
        ),
    ]
}

/// Compiled execution is indistinguishable from the reference evaluator on
/// every example plan and instant.
#[test]
fn compiled_matches_reference_evaluator() {
    let env = example_environment();
    let reg = example_registry();
    for (name, plan) in example_plans() {
        let physical = PhysicalPlan::compile(&plan, &env)
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        for t in 0..=5u64 {
            let mut actions = ActionSet::new();
            let relation = reference(&plan, &env, &reg, Instant(t), &mut actions);
            let compiled = physical
                .execute(&ExecContext::new(&env, &reg, Instant(t)))
                .unwrap_or_else(|e| panic!("{name} compiled failed at t={t}: {e}"));
            assert_eq!(
                compiled.relation, relation,
                "{name} relation diverged at t={t}"
            );
            assert_eq!(
                compiled.actions, actions,
                "{name} actions diverged at t={t}"
            );
        }
    }
}

/// `CountingInvoker` called from several threads at once, as a tick round
/// calls one invoker stack from each of its threads: 4 threads each running
/// a 64-tuple β must count exactly 256 invocations — the mutex-guarded
/// counters lose nothing to races.
#[test]
fn counting_invoker_is_exact_under_concurrency() {
    const N: usize = 64;
    const THREADS: usize = 4;
    let mut env = Environment::new();
    env.declare_prototype(serena::core::prototype::examples::get_temperature())
        .unwrap();
    let rel = XRelation::from_tuples(
        sensors_schema(),
        (0..N).map(|i| {
            Tuple::new(vec![
                Value::service(format!("s{i}")),
                Value::str(format!("room{i}")),
            ])
        }),
    );
    env.define_relation("sensors", rel).unwrap();
    let reg = StaticRegistry::new();
    for i in 0..N {
        reg.register(format!("s{i}"), temperature_sensor(i as u64));
    }

    let plan = Plan::relation("sensors").invoke("getTemperature", "sensor");
    let physical = PhysicalPlan::compile(&plan, &env).unwrap();

    let counting = CountingInvoker::new(&reg);
    let outs: Vec<_> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    physical
                        .execute(&ExecContext::new(&env, &counting, Instant(1)))
                        .unwrap()
                })
            })
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    assert_eq!(counting.total(), (THREADS * N) as u64);
    assert_eq!(counting.count_of("getTemperature"), (THREADS * N) as u64);

    // and each thread's result is the reference evaluator's
    let serial = reference(&plan, &env, &reg, Instant(1), &mut ActionSet::new());
    for out in outs {
        assert_eq!(out.relation.len(), N);
        assert_eq!(out.relation, serial);
    }
}
