//! Differential testing: compiled (physical) execution vs the reference
//! evaluator.
//!
//! For every example plan and every instant 0..5, [`PhysicalPlan`] compiled
//! once and executed must produce the exact X-Relation and action set the
//! reference evaluator produces — compilation is an optimisation, never a
//! semantic change.

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
            let ctx = ExecContext::new(&env, &reg, Instant(t));
            let reference = ctx
                .execute(&plan)
                .unwrap_or_else(|e| panic!("{name} reference failed at t={t}: {e}"));
            let compiled = physical
                .execute(&ctx)
                .unwrap_or_else(|e| panic!("{name} compiled failed at t={t}: {e}"));
            assert_eq!(
                compiled.relation, reference.relation,
                "{name} relation diverged at t={t}"
            );
            assert_eq!(
                compiled.actions, reference.actions,
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
    let serial = ExecContext::new(&env, &reg, Instant(1))
        .execute(&plan)
        .unwrap();
    for out in outs {
        assert_eq!(out.relation.len(), N);
        assert_eq!(out.relation, serial.relation);
    }
}
