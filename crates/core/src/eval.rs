//! One-shot query evaluation (§3.2 evaluation model).
//!
//! "The evaluation of query q over a relational pervasive environment p
//! occurs at a given instant τ: service invocations, through invocation
//! operators, are defined by the corresponding invocation functions at the
//! given instant." The evaluator — [`ExecContext`](crate::exec::ExecContext)
//! — interprets a [`Plan`](crate::plan::Plan) against an
//! [`Environment`](crate::env::Environment), resolving service invocations
//! through an [`Invoker`] at a fixed [`Instant`], and collects the query's
//! action set (Definition 8) along the way. This module keeps the shared
//! evaluation vocabulary: [`EvalOutcome`] and the [`CountingInvoker`]
//! instrument.

use crate::action::ActionSet;
use crate::error::EvalError;
use crate::service::Invoker;
use crate::time::Instant;
use crate::xrelation::XRelation;

/// The result of evaluating a query: the output X-Relation and the action
/// set of the active invocations it triggered.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// The resulting X-Relation.
    pub relation: XRelation,
    /// `Actions_p(q)` (Definition 8).
    pub actions: ActionSet,
}

/// An [`Invoker`] decorator counting invocations per prototype — the
/// instrument behind the optimizer benchmarks (how many service calls did a
/// plan actually make?).
///
/// Like every [`Invoker`], this type is `Send + Sync` and safe to call from
/// several threads at once: the counters live behind a mutex, so when a
/// tick round runs queries over one invoker on several threads, each
/// concurrent call still increments exactly once and no count is lost.
pub struct CountingInvoker<'a> {
    inner: &'a dyn Invoker,
    counts: crate::sync::Mutex<std::collections::BTreeMap<String, u64>>,
}

impl<'a> CountingInvoker<'a> {
    /// Wrap an invoker.
    pub fn new(inner: &'a dyn Invoker) -> Self {
        CountingInvoker {
            inner,
            counts: crate::sync::Mutex::new(Default::default()),
        }
    }

    /// Total number of invocations across all prototypes.
    pub fn total(&self) -> u64 {
        self.counts.lock().values().sum()
    }

    /// Invocations of one prototype.
    pub fn count_of(&self, prototype: &str) -> u64 {
        self.counts.lock().get(prototype).copied().unwrap_or(0)
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> std::collections::BTreeMap<String, u64> {
        self.counts.lock().clone()
    }
}

impl Invoker for CountingInvoker<'_> {
    fn invoke(
        &self,
        prototype: &crate::prototype::Prototype,
        service_ref: &crate::value::ServiceRef,
        input: &crate::tuple::Tuple,
        at: Instant,
    ) -> Result<Vec<crate::tuple::Tuple>, EvalError> {
        *self
            .counts
            .lock()
            .entry(prototype.name().to_string())
            .or_insert(0) += 1;
        self.inner.invoke(prototype, service_ref, input, at)
    }

    fn providers_of(&self, prototype: &str) -> Vec<crate::value::ServiceRef> {
        self.inner.providers_of(prototype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Environment;
    use crate::exec::ExecContext;
    use crate::plan::Plan;

    /// Test-local shorthand for the one-shot evaluation path — the public
    /// entrypoint is `ExecContext::new(env, invoker, at).execute(plan)`.
    fn evaluate(
        plan: &Plan,
        env: &Environment,
        invoker: &dyn Invoker,
        at: Instant,
    ) -> Result<EvalOutcome, EvalError> {
        ExecContext::new(env, invoker, at).execute(plan)
    }
    use crate::env::examples::example_environment;
    use crate::formula::Formula;
    use crate::plan::examples::{q1, q1_prime, q2, q2_prime};
    use crate::service::fixtures::example_registry;
    use crate::tuple;

    #[test]
    fn q1_evaluation_matches_example_6() {
        let env = example_environment();
        let reg = example_registry();
        let out = evaluate(&q1(), &env, &reg, Instant::ZERO).unwrap();
        assert_eq!(out.relation.len(), 2);
        let rendered: Vec<String> = out.actions.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            rendered,
            vec![
                "(sendMessage[messenger], email, (nicolas@elysee.fr, Bonjour!))",
                "(sendMessage[messenger], jabber, (francois@im.gouv.fr, Bonjour!))",
            ]
        );
    }

    #[test]
    fn q1_prime_messages_carla_too() {
        let env = example_environment();
        let reg = example_registry();
        let out = evaluate(&q1_prime(), &env, &reg, Instant::ZERO).unwrap();
        // result excludes Carla, but the action set includes her
        assert_eq!(out.relation.len(), 2);
        assert_eq!(out.actions.len(), 3);
        assert!(out
            .actions
            .iter()
            .any(|a| a.input().to_string().contains("carla@elysee.fr")));
    }

    #[test]
    fn q2_produces_photos_with_empty_action_set() {
        let env = example_environment();
        let reg = example_registry();
        let out = evaluate(&q2(), &env, &reg, Instant(1)).unwrap();
        assert!(out.actions.is_empty());
        // whether photos exist depends on quality ≥ 5 at instant 1 — just
        // check schema & determinism
        let out2 = evaluate(&q2(), &env, &reg, Instant(1)).unwrap();
        assert_eq!(out.relation, out2.relation);
    }

    #[test]
    fn q2_and_q2_prime_agree() {
        let env = example_environment();
        let reg = example_registry();
        for t in 0..5 {
            let a = evaluate(&q2(), &env, &reg, Instant(t)).unwrap();
            let b = evaluate(&q2_prime(), &env, &reg, Instant(t)).unwrap();
            assert_eq!(a.relation, b.relation, "at instant {t}");
            assert_eq!(a.actions, b.actions);
        }
    }

    #[test]
    fn counting_invoker_measures_pushdown_benefit() {
        let env = example_environment();
        let reg = example_registry();
        let counting = CountingInvoker::new(&reg);
        evaluate(&q2(), &env, &counting, Instant(0)).unwrap();
        let pushed = counting.count_of("checkPhoto");
        let counting2 = CountingInvoker::new(&reg);
        evaluate(&q2_prime(), &env, &counting2, Instant(0)).unwrap();
        let unpushed = counting2.count_of("checkPhoto");
        // Q2 filters area='office' (2 of 3 cameras) before checkPhoto.
        assert_eq!(pushed, 2);
        assert_eq!(unpushed, 3);
    }

    #[test]
    fn set_and_relational_plan_evaluation() {
        let env = example_environment();
        let reg = example_registry();
        let p = Plan::relation("contacts")
            .select(Formula::eq_const("messenger", "email"))
            .union(Plan::relation("contacts").select(Formula::eq_const("messenger", "jabber")));
        let out = evaluate(&p, &env, &reg, Instant::ZERO).unwrap();
        assert_eq!(out.relation.len(), 3);
        assert!(out.actions.is_empty());
    }

    #[test]
    fn mean_temperature_pipeline() {
        use crate::ops::{AggFun, AggSpec};
        let env = example_environment();
        let reg = example_registry();
        // γ_{location; avg(temperature)}(β_{getTemperature[sensor]}(sensors))
        let p = Plan::relation("sensors")
            .invoke("getTemperature", "sensor")
            .aggregate(
                ["location"],
                vec![AggSpec::new(AggFun::Avg, "temperature").named("mean_temp")],
            );
        let out = evaluate(&p, &env, &reg, Instant(2)).unwrap();
        assert_eq!(out.relation.len(), 3); // corridor, office, roof
        assert!(out.actions.is_empty());
    }

    #[test]
    fn unknown_relation_fails() {
        let env = example_environment();
        let reg = example_registry();
        assert!(evaluate(&Plan::relation("ghost"), &env, &reg, Instant::ZERO).is_err());
    }

    #[test]
    fn rename_then_join_plan() {
        let env = example_environment();
        let reg = example_registry();
        // rename contacts.name→manager then join with itself projected
        let p = Plan::relation("contacts")
            .project(["name", "address"])
            .rename("name", "who");
        let out = evaluate(&p, &env, &reg, Instant::ZERO).unwrap();
        assert!(out.relation.schema().is_real("who"));
        assert_eq!(out.relation.len(), 3);
        assert!(out
            .relation
            .contains(&tuple!["Nicolas", "nicolas@elysee.fr"]));
    }
}
