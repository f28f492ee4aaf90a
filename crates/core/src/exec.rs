//! Instrumented one-shot execution: [`ExecContext`].
//!
//! An `ExecContext` bundles everything an evaluation needs — the
//! [`Environment`] (the catalog of X-Relations), the [`Invoker`] resolving
//! service calls, the evaluation [`Instant`] τ, and a [`MetricsSink`]
//! receiving one [`crate::metrics::OpObservation`] per operator
//! application: tuples in/out,
//! β invocation counts and failures, and wall-clock self-time per node.
//!
//! [`ExecContext::new(env, invoker, at).execute(plan)`](ExecContext::execute)
//! is *the* one-shot evaluation entrypoint (the historical free function
//! `evaluate` was a thin wrapper over it and has been removed).
//!
//! Plan nodes are numbered by **pre-order index** (root = 0, children left
//! to right) — the same numbering [`explain_analyze_text`] uses to line
//! recorded statistics back up with the plan tree.

use crate::env::Environment;
use crate::error::EvalError;
use crate::eval::EvalOutcome;
use crate::metrics::{ExecStats, MetricsSink, NodeId, NoopMetrics};
use crate::physical::{ExecOptions, PhysicalPlan};
use crate::plan::Plan;
use crate::service::Invoker;
use crate::time::Instant;

static NOOP: NoopMetrics = NoopMetrics;

/// Everything a one-shot evaluation needs, plus where its per-operator
/// observations go.
pub struct ExecContext<'a> {
    /// The relational pervasive environment `p`.
    pub env: &'a Environment,
    /// Service invocation resolver.
    pub invoker: &'a dyn Invoker,
    /// Evaluation instant τ.
    pub at: Instant,
    /// Observation sink ([`NoopMetrics`] by default).
    pub metrics: &'a dyn MetricsSink,
    /// Execution knobs (β's degradation policy).
    pub options: ExecOptions,
}

impl<'a> ExecContext<'a> {
    /// Context with the default (discarding) metrics sink.
    pub fn new(env: &'a Environment, invoker: &'a dyn Invoker, at: Instant) -> Self {
        ExecContext {
            env,
            invoker,
            at,
            metrics: &NOOP,
            options: ExecOptions::default(),
        }
    }

    /// Context reporting every operator application to `metrics`.
    pub fn with_metrics(
        env: &'a Environment,
        invoker: &'a dyn Invoker,
        at: Instant,
        metrics: &'a dyn MetricsSink,
    ) -> Self {
        ExecContext {
            env,
            invoker,
            at,
            metrics,
            options: ExecOptions::default(),
        }
    }

    /// Replace the execution options (builder style).
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Evaluate `plan`: compile it against the context's environment
    /// ([`PhysicalPlan::compile`]) and execute the compiled form, reporting
    /// one observation per operator to the context's sink. Node ids are
    /// assigned in pre-order.
    ///
    /// Callers evaluating the same plan repeatedly should compile once and
    /// call [`PhysicalPlan::execute`] directly; this convenience wrapper
    /// recompiles on every call.
    pub fn execute(&self, plan: &Plan) -> Result<EvalOutcome, EvalError> {
        let physical = PhysicalPlan::compile(plan, self.env).map_err(EvalError::from)?;
        physical.execute(self)
    }
}

/// Render `plan` as an `EXPLAIN ANALYZE`-style tree: the plan's operators
/// annotated with the statistics `stats` recorded for them (matched by
/// pre-order [`NodeId`]). Nodes without recorded stats (e.g. never reached
/// because an earlier sibling failed) are annotated `[not executed]`.
pub fn explain_analyze_text(plan: &Plan, stats: &ExecStats) -> String {
    let mut out = String::new();
    let mut next_id = 0usize;
    render_node(plan, stats, 0, &mut next_id, &mut out);
    out
}

fn render_node(
    plan: &Plan,
    stats: &ExecStats,
    depth: usize,
    next_id: &mut usize,
    out: &mut String,
) {
    let id = NodeId(*next_id);
    *next_id += 1;
    out.push_str(&"  ".repeat(depth));
    out.push_str(&plan.explain_label());
    match stats.node(id) {
        Some(s) => {
            out.push_str(&format!("  [{s}]"));
        }
        None => out.push_str("  [not executed]"),
    }
    out.push('\n');
    for c in plan.children() {
        render_node(c, stats, depth + 1, next_id, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::examples::example_environment;
    use crate::formula::Formula;
    use crate::metrics::OpKind;
    use crate::ops::{AggFun, AggSpec};
    use crate::plan::examples::q1;
    use crate::service::fixtures::example_registry;

    /// Per-operator counters: a σ/π/β/γ pipeline over the running example.
    #[test]
    fn exec_stats_counts_per_operator() {
        let env = example_environment();
        let reg = example_registry();
        // γ(π(β(σ(sensors)))) — pre-order: 0=γ 1=π 2=β 3=σ 4=Relation
        let plan = Plan::relation("sensors")
            .select(Formula::ne_const("location", "roof"))
            .invoke("getTemperature", "sensor")
            .project(["location", "temperature"])
            .aggregate(
                ["location"],
                vec![AggSpec::new(AggFun::Avg, "temperature").named("mean")],
            );
        let stats = ExecStats::new();
        let out = ExecContext::with_metrics(&env, &reg, Instant(1), &stats)
            .execute(&plan)
            .unwrap();

        let nodes = stats.nodes();
        assert_eq!(nodes.len(), 5);
        assert_eq!(nodes[&NodeId(0)].op, OpKind::Aggregate);
        assert_eq!(nodes[&NodeId(1)].op, OpKind::Project);
        assert_eq!(nodes[&NodeId(2)].op, OpKind::Invoke);
        assert_eq!(nodes[&NodeId(3)].op, OpKind::Select);
        assert_eq!(nodes[&NodeId(4)].op, OpKind::Relation);

        // sensors has 4 rows, 3 of them off the roof
        assert_eq!(nodes[&NodeId(4)].tuples_out, 4);
        assert_eq!(nodes[&NodeId(3)].tuples_in, 4);
        assert_eq!(nodes[&NodeId(3)].tuples_out, 3);
        // β invokes once per surviving tuple — all cold misses one-shot
        assert_eq!(nodes[&NodeId(2)].invocations, 3);
        assert_eq!(nodes[&NodeId(2)].cache_misses, 3);
        assert_eq!(nodes[&NodeId(2)].cache_hits, 0);
        assert_eq!(nodes[&NodeId(2)].failures, 0);
        assert_eq!(stats.total_invocations(), 3);
        // the root observation matches the returned cardinality
        assert_eq!(stats.root_tuples_out(), Some(out.relation.len() as u64));
        assert_eq!(nodes[&NodeId(0)].applications, 1);
    }

    /// Binary operators report combined child cardinality as tuples_in.
    #[test]
    fn binary_operators_report_both_inputs() {
        let env = example_environment();
        let reg = example_registry();
        let plan = Plan::relation("contacts")
            .select(Formula::eq_const("messenger", "email"))
            .union(Plan::relation("contacts"));
        let stats = ExecStats::new();
        ExecContext::with_metrics(&env, &reg, Instant::ZERO, &stats)
            .execute(&plan)
            .unwrap();
        let union = stats.node(NodeId(0)).unwrap();
        assert_eq!(union.op, OpKind::Union);
        // contacts has 3 rows; 2 use email
        assert_eq!(union.tuples_in, 2 + 3);
        assert_eq!(union.tuples_out, 3);
    }

    /// A failing invocation is recorded (invocations attempted, failure
    /// counted) before the error propagates.
    #[test]
    fn failures_are_recorded_before_error_propagates() {
        let env = example_environment();
        // q1 over an empty registry: sendMessage resolution fails on the
        // first tuple.
        let empty = crate::service::StaticRegistry::new();
        let stats = ExecStats::new();
        let err = ExecContext::with_metrics(&env, &empty, Instant::ZERO, &stats).execute(&q1());
        assert!(err.is_err());
        assert_eq!(stats.total_failures(), 1);
        assert_eq!(stats.total_invocations(), 1);
        // the noop path still errors identically
        assert!(ExecContext::new(&env, &empty, Instant::ZERO)
            .execute(&q1())
            .is_err());
    }

    /// A continuous plan handed to the one-shot side is a typed error, and
    /// nothing is invoked on the way to it.
    #[test]
    fn continuous_plan_is_a_typed_error_not_a_panic() {
        let env = example_environment();
        let reg = example_registry();
        let stats = ExecStats::new();
        let plan = q1().stream(crate::plan::StreamKind::Insertion).window(1);
        let err = ExecContext::with_metrics(&env, &reg, Instant::ZERO, &stats)
            .execute(&plan)
            .unwrap_err();
        assert!(
            matches!(
                err,
                crate::error::EvalError::Plan(crate::error::PlanError::StreamStatusMismatch { .. })
            ),
            "{err}"
        );
        assert_eq!(stats.total_invocations(), 0);
    }

    #[test]
    fn explain_analyze_text_lines_up_with_plan() {
        let env = example_environment();
        let reg = example_registry();
        let plan = Plan::relation("cameras")
            .select(Formula::eq_const("area", "office"))
            .invoke("checkPhoto", "camera");
        let stats = ExecStats::new();
        ExecContext::with_metrics(&env, &reg, Instant(0), &stats)
            .execute(&plan)
            .unwrap();
        let text = explain_analyze_text(&plan, &stats);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("Invoke checkPhoto[camera]"), "{text}");
        assert!(lines[0].contains("invocations=2"), "{text}");
        assert!(lines[1].trim_start().starts_with("Select"), "{text}");
        assert!(
            lines[2].trim_start().starts_with("Relation cameras"),
            "{text}"
        );
        // a node never executed renders as such
        let cold = ExecStats::new();
        let cold_text = explain_analyze_text(&plan, &cold);
        assert!(cold_text.contains("[not executed]"));
    }
}
