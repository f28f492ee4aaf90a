//! Heuristic logical optimizer (§3.3 applied).
//!
//! A fixpoint pipeline over the rows of [`super::rules`], one array of
//! rows per phase:
//!
//! 1. **normalize** — split conjunctive selections, drop trivial ones;
//! 2. **pushdown** — drive every selection as far toward the leaves as the
//!    Table 5 preconditions allow: past assignments, past *passive*
//!    invocations, into joins, set operators and renamings. Because remote
//!    invocations dominate cost, filtering before invoking is the dominant
//!    win (cf. `Q2` vs `Q2'`);
//! 3. **place** — sink α and passive β into the join operand they need;
//! 4. **cleanup** — merge re-adjacent selections and absorb stacked
//!    projections.
//!
//! Invocations of *active* binding patterns are never crossed (the rules
//! refuse), so optimization provably preserves action sets: the optimizer
//! output is Definition 9-equivalent to its input.
//!
//! A continuous plan goes through the same pipeline: `W`, `S` and `βˢ`
//! stop every Table 5 rule, so each finite region is optimized on its own,
//! and two pushdown rules carry a selection from the region above a
//! `W∘S` / `W∘βˢ` pair into the region below it.

use crate::plan::{Plan, SchemaCatalog};

use super::rules::*;

/// What the optimizer did to a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizerReport {
    /// The optimized plan.
    pub plan: Plan,
    /// `(rule name, number of applications)` in application order.
    pub applied: Vec<(&'static str, usize)>,
    /// Number of fixpoint iterations of the pushdown phase.
    pub iterations: usize,
}

const MAX_ITERATIONS: usize = 32;

/// Phase 1: normalize.
const NORMALIZE: [Rule; 2] = [SPLIT_CONJUNCTIVE_SELECT, DROP_TRUE_SELECT];

/// Phase 2, run to a fixpoint: push selections (and projections) down.
const PUSHDOWN: [Rule; 12] = [
    SELECT_PAST_SELECT,
    SELECT_PAST_PROJECT,
    SELECT_PAST_ASSIGN,
    SELECT_PAST_INVOKE,
    SELECT_INTO_JOIN,
    SELECT_INTO_SET_OP,
    SELECT_PAST_RENAME,
    SELECT_PAST_WINDOWED_STREAM,
    SELECT_PAST_WINDOWED_SAMPLE,
    PROJECT_PAST_ASSIGN,
    PROJECT_PAST_INVOKE,
    SPLIT_CONJUNCTIVE_SELECT,
];

/// Phase 3: realization-operator placement across joins (reduce the tuple
/// count seen by α/β when one join side is irrelevant).
const PLACE: [Rule; 2] = [ASSIGN_INTO_JOIN, INVOKE_INTO_JOIN];

/// Phase 4: cleanup.
const CLEANUP: [Rule; 2] = [MERGE_SELECTS, MERGE_PROJECTS];

/// Optimize `plan` against `catalog`. Always returns a plan
/// Definition 9-equivalent to the input (rules preserve result relations
/// and action sets by construction).
pub fn optimize(plan: &Plan, catalog: &dyn SchemaCatalog) -> OptimizerReport {
    let mut applied: Vec<(&'static str, usize)> = Vec::new();
    let mut run = |plan: Plan, phase: &[Rule]| {
        phase.iter().fold(plan, |plan, rule| {
            let (next, n) = apply_everywhere(&plan, rule, catalog);
            if n > 0 {
                applied.push((rule.name, n));
            }
            next
        })
    };

    let mut current = run(plan.clone(), &NORMALIZE);
    let mut iterations = 0;
    loop {
        iterations += 1;
        let before = current.clone();
        current = run(current, &PUSHDOWN);
        if current == before || iterations >= MAX_ITERATIONS {
            break;
        }
    }
    current = run(current, &PLACE);
    current = run(current, &CLEANUP);

    OptimizerReport {
        plan: current,
        applied,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::examples::example_environment;
    use crate::equiv::check_over_instants;
    use crate::eval::CountingInvoker;
    use crate::exec::ExecContext;
    use crate::formula::Formula;
    use crate::plan::examples::{q1, q1_prime, q2, q2_prime};
    use crate::plan::StreamKind;
    use crate::service::fixtures::example_registry;
    use crate::time::Instant;

    #[test]
    fn optimizer_turns_q2_prime_into_q2_shape() {
        let env = example_environment();
        let report = optimize(&q2_prime(), &env);
        assert!(!report.applied.is_empty());
        // invocation counts now match the hand-written Q2
        let reg = example_registry();
        let c_opt = CountingInvoker::new(&reg);
        ExecContext::new(&env, &c_opt, Instant::ZERO)
            .execute(&report.plan)
            .unwrap();
        let c_q2 = CountingInvoker::new(&reg);
        ExecContext::new(&env, &c_q2, Instant::ZERO)
            .execute(&q2())
            .unwrap();
        assert_eq!(c_opt.snapshot(), c_q2.snapshot());
    }

    #[test]
    fn optimizer_preserves_equivalence() {
        let env = example_environment();
        let reg = example_registry();
        for plan in [q1(), q1_prime(), q2(), q2_prime()] {
            let optimized = optimize(&plan, &env).plan;
            let report =
                check_over_instants(&plan, &optimized, &env, &reg, (0..5).map(Instant)).unwrap();
            assert!(report.equivalent(), "{plan}  vs  {optimized}: {report:?}");
        }
    }

    #[test]
    fn optimizer_never_crosses_active_invocations() {
        let env = example_environment();
        // Q1' has σ above an active β — it must stay above.
        let report = optimize(&q1_prime(), &env);
        let reg = example_registry();
        let ctx = ExecContext::new(&env, &reg, Instant::ZERO);
        let before = ctx.execute(&q1_prime()).unwrap();
        let after = ctx.execute(&report.plan).unwrap();
        assert_eq!(before.actions, after.actions);
        assert_eq!(before.actions.len(), 3); // Carla still messaged
    }

    #[test]
    fn optimizer_is_idempotent() {
        let env = example_environment();
        let once = optimize(&q2_prime(), &env).plan;
        let twice = optimize(&once, &env).plan;
        assert_eq!(once, twice);
    }

    #[test]
    fn pushdown_through_join_and_rename() {
        let env = example_environment();
        let plan = Plan::relation("sensors")
            .join(Plan::relation("contacts").project(["name", "address"]))
            .rename("location", "place")
            .select(Formula::eq_const("place", "office").and(Formula::ne_const("name", "Carla")));
        let report = optimize(&plan, &env);
        assert!(report.applied.iter().map(|(_, n)| n).sum::<usize>() >= 3);
        let reg = example_registry();
        let r = check_over_instants(&plan, &report.plan, &env, &reg, (0..3).map(Instant)).unwrap();
        assert!(r.equivalent());
        // the σ on place should now sit directly on sensors (below ⋈, ρ)
        let rendered = report.plan.to_algebra();
        assert!(
            rendered.contains("σ location = 'office' (sensors)"),
            "unexpected plan: {rendered}"
        );
    }

    /// The E20 shape: filter a windowed periodic sampling of the sensor
    /// fleet down to one location.
    fn naive_sampler() -> Plan {
        Plan::source("sensors")
            .sample_invoke("getTemperature", "sensor", 1)
            .window(1)
            .select(Formula::eq_const("location", "corridor"))
    }

    fn same_stream_schema(a: &Plan, b: &Plan, catalog: &dyn SchemaCatalog) -> bool {
        a.stream_schema(catalog).unwrap() == b.stream_schema(catalog).unwrap()
    }

    #[test]
    fn selection_pushes_below_sampling_invocation() {
        let env = example_environment();
        let pushed = Plan::source("sensors")
            .select(Formula::eq_const("location", "corridor"))
            .sample_invoke("getTemperature", "sensor", 1)
            .window(1);
        let opt = optimize(&naive_sampler(), &env).plan;
        assert_eq!(opt, pushed, "{opt}");
        assert!(same_stream_schema(&naive_sampler(), &opt, &env));
        // an already-pushed plan is a fixpoint
        assert_eq!(optimize(&pushed, &env).plan, pushed);
    }

    #[test]
    fn selection_on_realized_attr_stays_put() {
        // temperature is *realized by* the sampling invocation — the
        // filter cannot move below it
        let env = example_environment();
        let plan = Plan::source("sensors")
            .sample_invoke("getTemperature", "sensor", 1)
            .window(1)
            .select(Formula::gt_const("temperature", 35.5));
        assert_eq!(optimize(&plan, &env).plan, plan);
    }

    #[test]
    fn selection_pushes_below_stream_of() {
        let env = example_environment();
        let plan = Plan::source("contacts")
            .stream(StreamKind::Insertion)
            .window(2)
            .select(Formula::eq_const("name", "Alice"));
        let expected = Plan::source("contacts")
            .select(Formula::eq_const("name", "Alice"))
            .stream(StreamKind::Insertion)
            .window(2);
        assert_eq!(optimize(&plan, &env).plan, expected);
    }

    #[test]
    fn table_5_rules_reach_regions_above_windows() {
        // σ above a projection above a window: the window bounds the
        // region, inside it σ moves below π as in a one-shot plan
        let env = example_environment();
        let plan = Plan::source("contacts")
            .stream(StreamKind::Insertion)
            .window(1)
            .project(["name", "address"])
            .select(Formula::eq_const("name", "Alice"));
        let opt = optimize(&plan, &env).plan;
        let text = opt.to_algebra();
        let sigma = text.find('\u{3c3}').expect("selection survives");
        let pi = text.find('\u{3c0}').expect("projection survives");
        assert!(
            sigma > pi,
            "selection should sit below the projection: {text}"
        );
        assert!(same_stream_schema(&plan, &opt, &env));
    }

    /// The continuous catalog of `serena_stream::plan::examples`' tests:
    /// an infinite `temperatures` beside finite `contacts` and `cameras`.
    fn stream_catalog() -> std::collections::BTreeMap<String, crate::plan::StreamSchema> {
        use crate::plan::StreamSchema;
        use crate::schema::{examples as schemas, XSchema};
        use crate::value::DataType;
        let temperatures = XSchema::builder()
            .real("location", DataType::Str)
            .real("temperature", DataType::Real)
            .build()
            .unwrap();
        [
            ("temperatures", StreamSchema::infinite(temperatures)),
            ("contacts", StreamSchema::finite(schemas::contacts_schema())),
            ("cameras", StreamSchema::finite(schemas::cameras_schema())),
        ]
        .into_iter()
        .map(|(name, s)| (name.to_string(), s))
        .collect()
    }

    /// `Q3` and `Q4` as `serena_stream::plan::examples` builds them (that
    /// crate depends on this one, so its examples cannot be imported here).
    fn q3() -> Plan {
        Plan::source("temperatures")
            .window(1)
            .select(Formula::gt_const("temperature", 35.5))
            .project(["temperature"])
            .join(Plan::source("contacts"))
            .assign_const("text", "Hot!")
            .invoke("sendMessage", "messenger")
    }

    fn q4() -> Plan {
        Plan::source("temperatures")
            .window(1)
            .select(Formula::lt_const("temperature", 12.0))
            .rename("location", "area")
            .project(["area"])
            .join(Plan::source("cameras"))
            .invoke("checkPhoto", "camera")
            .invoke("takePhoto", "camera")
            .project(["photo"])
            .stream(StreamKind::Insertion)
    }

    /// The optimizer's whole output on the paper's queries and the E20
    /// sampler, pinned: the rewritten algebra, which rules fired how often
    /// in which order, and the pushdown phase's iteration count.
    #[test]
    fn optimizer_output_is_pinned_on_the_paper_queries() {
        let env = example_environment();
        let cat = stream_catalog();
        type Pinned = (&'static str, &'static [(&'static str, usize)], usize);
        let cases: [(Plan, &dyn SchemaCatalog, Pinned); 7] = [
            (
                q1(),
                &env,
                (
                    "β sendMessage[messenger] (α text:='Bonjour!' (σ name <> 'Carla' (contacts)))",
                    &[],
                    1,
                ),
            ),
            (
                q1_prime(),
                &env,
                (
                    "σ name <> 'Carla' (β sendMessage[messenger] (α text:='Bonjour!' (contacts)))",
                    &[],
                    1,
                ),
            ),
            (
                q2(),
                &env,
                (
                    "π photo (β takePhoto[camera] (σ quality >= 5 (β checkPhoto[camera] \
                     (σ area = 'office' (cameras)))))",
                    &[],
                    1,
                ),
            ),
            (
                q2_prime(),
                &env,
                (
                    "π photo (β takePhoto[camera] (σ quality >= 5 (β checkPhoto[camera] \
                     (σ area = 'office' (cameras)))))",
                    &[
                        ("split-conjunctive-select", 1),
                        ("select-past-select", 1),
                        ("select-past-invoke", 1),
                    ],
                    2,
                ),
            ),
            (
                q3(),
                &cat,
                (
                    "β sendMessage[messenger] ((π temperature (σ temperature > 35.5 \
                     (W[1] (temperatures))) ⋈ α text:='Hot!' (contacts)))",
                    &[("assign-into-join", 1)],
                    1,
                ),
            ),
            (
                q4(),
                &cat,
                (
                    "S[insertion] (π photo ((π area (ρ location→area (σ temperature < 12.0 \
                     (W[1] (temperatures)))) ⋈ β takePhoto[camera] (β checkPhoto[camera] \
                     (cameras)))))",
                    &[("invoke-into-join", 2)],
                    1,
                ),
            ),
            (
                naive_sampler(),
                &env,
                (
                    "W[1] (βˢ[1] getTemperature[sensor] (σ location = 'corridor' (sensors)))",
                    &[("select-past-windowed-sample", 1)],
                    2,
                ),
            ),
        ];
        for (plan, catalog, (algebra, applied, iterations)) in cases {
            let r = optimize(&plan, catalog);
            assert_eq!(r.plan.to_algebra(), algebra, "{plan}");
            assert_eq!(r.applied, applied, "{plan}");
            assert_eq!(r.iterations, iterations, "{plan}");
        }
    }

    #[test]
    fn report_lists_applied_rules() {
        let env = example_environment();
        let report = optimize(&q2_prime(), &env);
        let names: Vec<&str> = report.applied.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"split-conjunctive-select"));
        assert!(names.contains(&"select-past-invoke"));
    }
}
