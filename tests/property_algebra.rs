//! Property-based tests of the Serena algebra's laws.
//!
//! Randomized relations, formulas and plans check the algebraic identities
//! the rewrite rules rely on, and the optimizer's core guarantee: every
//! optimized plan is Definition 9-equivalent (same result X-Relation, same
//! action set) to its input, across random environments and instants.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use common::Rng;
use serena::core::env::Environment;
use serena::core::equiv::check_at;
use serena::core::formula::{CmpOp, Formula};
use serena::core::ops;
use serena::core::prelude::*;
use serena::core::rewrite::{apply_everywhere, optimize, RULES};
use serena::core::schema::XSchema;
use serena::core::service::{FnService, StaticRegistry};
use serena::core::tuple;

fn int_schema() -> SchemaRef {
    XSchema::builder()
        .real("x", DataType::Int)
        .real("y", DataType::Int)
        .build()
        .unwrap()
}

fn int_relation(pairs: &[(i64, i64)]) -> XRelation {
    XRelation::from_tuples(int_schema(), pairs.iter().map(|&(x, y)| tuple![x, y]))
}

fn gen_int_relation(rng: &mut Rng) -> XRelation {
    let pairs = rng.vec_of(0, 24, |r| (r.i64_in(0, 6), r.i64_in(0, 6)));
    int_relation(&pairs)
}

fn gen_formula(rng: &mut Rng, depth: usize) -> Formula {
    if depth > 0 && rng.below(2) == 0 {
        match rng.below(3) {
            0 => gen_formula(rng, depth - 1).and(gen_formula(rng, depth - 1)),
            1 => gen_formula(rng, depth - 1).or(gen_formula(rng, depth - 1)),
            _ => gen_formula(rng, depth - 1).not(),
        }
    } else {
        match rng.below(7) {
            0 => Formula::True,
            1 => Formula::False,
            2 => Formula::eq_const("x", rng.i64_in(0, 6)),
            3 => Formula::ne_const("y", rng.i64_in(0, 6)),
            4 => Formula::gt_const("x", rng.i64_in(0, 6)),
            5 => Formula::le_const("y", rng.i64_in(0, 6)),
            _ => Formula::cmp_attrs("x", CmpOp::Lt, "y"),
        }
    }
}

#[test]
fn set_operator_laws() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x5E70 + case);
        let a = gen_int_relation(&mut rng);
        let b = gen_int_relation(&mut rng);
        let c = gen_int_relation(&mut rng);
        // commutativity
        assert_eq!(ops::union(&a, &b).unwrap(), ops::union(&b, &a).unwrap());
        assert_eq!(
            ops::intersect(&a, &b).unwrap(),
            ops::intersect(&b, &a).unwrap()
        );
        // associativity of ∪
        assert_eq!(
            ops::union(&ops::union(&a, &b).unwrap(), &c).unwrap(),
            ops::union(&a, &ops::union(&b, &c).unwrap()).unwrap()
        );
        // idempotence
        assert_eq!(ops::union(&a, &a).unwrap(), a.clone());
        assert_eq!(ops::intersect(&a, &a).unwrap(), a.clone());
        assert!(ops::difference(&a, &a).unwrap().is_empty());
        // partition: (a − b) ∪ (a ∩ b) = a
        let partitioned = ops::union(
            &ops::difference(&a, &b).unwrap(),
            &ops::intersect(&a, &b).unwrap(),
        )
        .unwrap();
        assert_eq!(partitioned, a);
    }
}

#[test]
fn selection_laws() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x5E1E + case);
        let r = gen_int_relation(&mut rng);
        let f = gen_formula(&mut rng, 3);
        let g = gen_formula(&mut rng, 3);
        let sf = ops::select(&r, &f).unwrap();
        // σ_F(r) ⊆ r
        assert!(sf.iter().all(|t| r.contains(t)));
        // idempotence
        assert_eq!(ops::select(&sf, &f).unwrap(), sf.clone());
        // σ_{F∧G} = σ_F ∘ σ_G
        let both = ops::select(&r, &f.clone().and(g.clone())).unwrap();
        let cascade = ops::select(&ops::select(&r, &g).unwrap(), &f).unwrap();
        assert_eq!(both, cascade);
        // σ_{F∨G} = σ_F ∪ σ_G
        let either = ops::select(&r, &f.clone().or(g.clone())).unwrap();
        let unioned = ops::union(&sf, &ops::select(&r, &g).unwrap()).unwrap();
        assert_eq!(either, unioned);
        // σ_{¬F} = r − σ_F
        let negated = ops::select(&r, &f.clone().not()).unwrap();
        assert_eq!(negated, ops::difference(&r, &sf).unwrap());
    }
}

#[test]
fn projection_and_join_laws() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x7010 + case);
        let a = gen_int_relation(&mut rng);
        let b = gen_int_relation(&mut rng);
        let attrs = [serena::core::attr::attr("x")];
        // projection absorbs itself
        let p = ops::project(&a, &attrs).unwrap();
        assert_eq!(ops::project(&p, &attrs).unwrap(), p.clone());
        assert!(p.len() <= a.len());
        // join: commutative (as sets), self-join is identity, bounded size
        let ab = ops::join(&a, &b).unwrap();
        assert_eq!(ab.clone(), ops::join(&b, &a).unwrap());
        assert!(ab.len() <= a.len() * b.len());
        assert_eq!(ops::join(&a, &a).unwrap(), a.clone());
        // join over identical schemas = intersection
        assert_eq!(ab, ops::intersect(&a, &b).unwrap());
    }
}

#[test]
fn rename_round_trip() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0xE4AE + case);
        let r = gen_int_relation(&mut rng);
        let from = serena::core::attr::attr("x");
        let to = serena::core::attr::attr("z");
        let there = ops::rename(&r, &from, &to).unwrap();
        let back = ops::rename(&there, &to, &from).unwrap();
        assert_eq!(back, r);
    }
}

// ---------------------------------------------------------------------
// optimizer soundness over a service-enabled environment
// ---------------------------------------------------------------------

fn sensor_env(rows: &[(u64, &str)]) -> (Environment, StaticRegistry) {
    let mut env = Environment::new();
    let schema = serena::core::schema::examples::sensors_schema();
    let rel = XRelation::from_tuples(
        schema,
        rows.iter()
            .map(|(id, loc)| tuple![Value::service(format!("s{id}")), *loc]),
    );
    env.define_relation("sensors", rel).unwrap();
    env.define_relation("contacts", serena::core::xrelation::examples::contacts())
        .unwrap();

    let reg = StaticRegistry::new();
    for (id, _) in rows {
        let seed = *id;
        reg.register(
            format!("s{seed}"),
            Arc::new(FnService::new(
                vec![serena::core::prototype::examples::get_temperature()],
                move |_, _, at| {
                    let v = 10.0 + ((seed * 31 + at.ticks() * 7) % 25) as f64;
                    Ok(vec![Tuple::new(vec![Value::Real(v)])])
                },
            )),
        );
    }
    (env, reg)
}

const LOCATIONS: [&str; 3] = ["office", "corridor", "roof"];

fn gen_sensor_rows(rng: &mut Rng) -> Vec<(u64, &'static str)> {
    rng.vec_of(0, 10, |r| (r.u64_in(0, 12), *r.pick(&LOCATIONS)))
}

/// Random service-oriented plans: selections before/after a passive
/// invocation, projections, joins with contacts — then one wrapper that
/// gives a further rewrite rule something to match (σ_true, σ∧, a pushable
/// σ over a stuck one, ∪, ρ, π∘π, σ over ⋈, α over ⋈).
fn gen_sensor_plan(rng: &mut Rng) -> Plan {
    let pre = match rng.below(3) {
        0 => None,
        1 => Some(Formula::eq_const("location", *rng.pick(&LOCATIONS))),
        _ => Some(Formula::ne_const("location", *rng.pick(&LOCATIONS))),
    };
    let post = match rng.below(2) {
        0 => None,
        _ => Some(Formula::gt_const("temperature", rng.i64_in(15, 30) as f64)),
    };
    let shape = rng.below(4);
    let mut plan = Plan::relation("sensors");
    if shape == 2 {
        plan = plan.join(Plan::relation("contacts").project(["name", "address"]));
    }
    plan = plan.invoke("getTemperature", "sensor");
    // selections stacked *above* the invocation: pushdown fodder
    if let Some(f) = pre {
        plan = plan.select(f);
    }
    if let Some(f) = post {
        plan = plan.select(f);
    }
    if shape == 3 {
        plan = plan.project(["sensor", "location", "temperature"]);
    }
    let pushable = Formula::eq_const("location", *rng.pick(&LOCATIONS));
    let stuck = Formula::gt_const("temperature", rng.i64_in(15, 30) as f64);
    let kept = ["sensor", "location", "temperature"];
    match rng.below(10) {
        0 => plan,
        1 => plan.select(Formula::True),
        2 => plan.select(pushable.and(stuck)),
        3 => plan.select(stuck).select(pushable),
        4 => plan.clone().union(plan).select(pushable),
        5 => plan
            .rename("location", "place")
            .select(Formula::ne_const("place", *rng.pick(&LOCATIONS))),
        6 => plan.project(kept).select(pushable),
        7 => plan.project(kept).project(["sensor", "temperature"]),
        8 => plan.join(Plan::relation("contacts")).select(pushable),
        _ => {
            let assigned = plan
                .join(Plan::relation("contacts"))
                .assign_const("text", "Hi");
            if rng.bool() {
                assigned.select(pushable)
            } else {
                assigned.project(["sensor", "location", "name", "text"])
            }
        }
    }
}

#[test]
fn optimizer_is_sound_on_random_plans() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0x0971 + case);
        let rows = gen_sensor_rows(&mut rng);
        let plan = gen_sensor_plan(&mut rng);
        let t = rng.u64_in(0, 6);
        let (env, reg) = sensor_env(&rows);
        if plan.schema(&env).is_err() {
            continue;
        }
        let optimized = optimize(&plan, &env).plan;
        let report = check_at(&plan, &optimized, &env, &reg, Instant(t)).unwrap();
        assert!(
            report.equivalent(),
            "{plan} vs {optimized} at τ={t}: {report:?}"
        );
    }
}

#[test]
fn optimizer_never_increases_invocations() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0x13B0 + case);
        let rows = gen_sensor_rows(&mut rng);
        let plan = gen_sensor_plan(&mut rng);
        let (env, reg) = sensor_env(&rows);
        if plan.schema(&env).is_err() {
            continue;
        }
        let optimized = optimize(&plan, &env).plan;
        let c_orig = serena::core::eval::CountingInvoker::new(&reg);
        ExecContext::new(&env, &c_orig, Instant::ZERO)
            .execute(&plan)
            .unwrap();
        let c_opt = serena::core::eval::CountingInvoker::new(&reg);
        ExecContext::new(&env, &c_opt, Instant::ZERO)
            .execute(&optimized)
            .unwrap();
        assert!(
            c_opt.total() <= c_orig.total(),
            "optimization increased invocations: {} → {} for {plan}",
            c_orig.total(),
            c_opt.total()
        );
    }
}

#[test]
fn every_rewrite_rule_is_individually_sound() {
    let mut fired: BTreeMap<&str, usize> = RULES.iter().map(|r| (r.name, 0)).collect();
    for case in 0..96u64 {
        let mut rng = Rng::new(0xA77E + case);
        let rows = gen_sensor_rows(&mut rng);
        let plan = gen_sensor_plan(&mut rng);
        let t = rng.u64_in(0, 4);
        let (env, reg) = sensor_env(&rows);
        if plan.schema(&env).is_err() {
            continue;
        }
        for rule in &RULES {
            let (rewritten, n) = apply_everywhere(&plan, rule, &env);
            if n == 0 {
                continue;
            }
            *fired.get_mut(rule.name).unwrap() += 1;
            let report = check_at(&plan, &rewritten, &env, &reg, Instant(t)).unwrap();
            assert!(
                report.equivalent(),
                "rule {} broke equivalence: {plan} vs {rewritten}",
                rule.name
            );
        }
    }
    // The windowed rows need a continuous plan; `property_stream` covers
    // them. Every other row must have met a case it rewrites.
    for (name, n) in fired {
        assert!(
            n > 0 || name.starts_with("select-past-windowed"),
            "no generated plan fired {name}"
        );
    }
}
