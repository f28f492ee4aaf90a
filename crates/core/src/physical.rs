//! The physical execution layer: [`PhysicalPlan`].
//!
//! A logical [`Plan`] describes *what* to compute; compiling it against a
//! [`SchemaCatalog`] produces a physical operator tree where everything the
//! interpreter used to re-derive on every evaluation is resolved **once**,
//! one [`CompiledOp`] per node: projection coordinate vectors, the β
//! [`InvokeRecipe`](crate::ops::InvokeRecipe) (input coordinates, service
//! coordinate, output-assembly recipe), join column pairings and output
//! slots, set-operator reorder maps, compiled selection formulas and derived
//! output schemas. Executing the compiled plan then only moves tuples.
//!
//! Each physical node carries the **same pre-order [`NodeId`]** (root = 0,
//! children left to right) the interpreter assigned, so recorded
//! [`ExecStats`](crate::metrics::ExecStats) keep lining up with
//! [`explain_analyze_text`](crate::exec::explain_analyze_text) over the
//! logical plan — the NodeId stability contract.
//!
//! β invocation can additionally be fanned out across a bounded worker pool
//! ([`ExecOptions::invoke_parallelism`], default serial): the batch is
//! invoked on up to that many threads and reassembled in input-tuple order,
//! so the output [`XRelation`] and [`ActionSet`] are identical to serial
//! execution, as are the invocation/failure tallies.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::time::Instant as WallClock;

use crate::action::ActionSet;
use crate::error::{EvalError, PlanError};
use crate::eval::EvalOutcome;
use crate::exec::ExecContext;
use crate::formula::CompiledFormula;
use crate::metrics::{NodeId, OpKind, OpObservation};
use crate::ops::{self, CompiledOp, DegradePolicy, InvokeTally};
use crate::plan::{Plan, SchemaCatalog};
use crate::schema::SchemaRef;
use crate::tuple::Tuple;
use crate::xrelation::XRelation;

/// Execution knobs, separate from the data-plane [`ExecContext`] fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Maximum number of worker threads one β δ-batch is fanned across.
    /// `1` (the default) invokes serially — fully deterministic invocation
    /// order, no threads spawned.
    pub invoke_parallelism: usize,
    /// How β reacts when one tuple's invocation fails (default:
    /// [`DegradePolicy::FailQuery`], the historical fail-the-query
    /// behaviour).
    pub degrade: DegradePolicy,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            invoke_parallelism: 1,
            degrade: DegradePolicy::FailQuery,
        }
    }
}

impl ExecOptions {
    /// Serial execution (the default).
    pub fn serial() -> Self {
        ExecOptions::default()
    }

    /// Fan β invocations across up to `workers` threads (clamped to ≥ 1).
    pub fn parallel(workers: usize) -> Self {
        ExecOptions {
            invoke_parallelism: workers.max(1),
            ..ExecOptions::default()
        }
    }

    /// Replace the β degradation policy.
    pub fn with_degrade(mut self, degrade: DegradePolicy) -> Self {
        self.degrade = degrade;
        self
    }
}

/// A [`Plan`] compiled once against a [`SchemaCatalog`]: a tree of physical
/// operators with all per-call state pre-resolved, reusable across
/// arbitrarily many executions.
pub struct PhysicalPlan {
    root: PhysNode,
    node_count: usize,
}

impl PhysicalPlan {
    /// Validate `plan` against `catalog` and pre-resolve every operator.
    /// Fails with exactly the [`PlanError`] static validation
    /// ([`Plan::schema`]) would report; a plan that is not one-shot — a
    /// continuous operator, or a scan of an infinite XD-Relation — fails
    /// with [`PlanError::StreamStatusMismatch`].
    pub fn compile(plan: &Plan, catalog: &dyn SchemaCatalog) -> Result<PhysicalPlan, PlanError> {
        let mut next_id = 0usize;
        let root = PhysNode::compile(plan, catalog, &mut next_id)?;
        Ok(PhysicalPlan {
            root,
            node_count: next_id,
        })
    }

    /// The derived output schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.root.schema
    }

    /// Number of physical nodes (= plan nodes; NodeIds are `0..node_count`).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Execute against `ctx`, reporting one [`OpObservation`] per node to
    /// the context's metrics sink under the node's compile-time [`NodeId`].
    pub fn execute(&self, ctx: &ExecContext<'_>) -> Result<EvalOutcome, EvalError> {
        let mut actions = ActionSet::new();
        let relation = self.root.execute(ctx, &mut actions)?.into_owned();
        Ok(EvalOutcome { relation, actions })
    }
}

/// One compiled node: stable id, pre-derived output schema, resolved
/// physical state, children in plan order.
struct PhysNode {
    id: NodeId,
    schema: SchemaRef,
    op: PhysOp,
    children: Vec<PhysNode>,
}

enum PhysOp {
    Scan { name: String },
    Op(CompiledOp),
}

impl PhysNode {
    /// Pre-order compilation: this node takes the next id, then its
    /// operands left to right — the same numbering the instrumented
    /// interpreter assigned at runtime.
    fn compile(
        plan: &Plan,
        catalog: &dyn SchemaCatalog,
        next_id: &mut usize,
    ) -> Result<PhysNode, PlanError> {
        let id = NodeId(*next_id);
        *next_id += 1;
        let mut children = Vec::new();
        let mut operand = |p: &Plan| {
            let node = PhysNode::compile(p, catalog, next_id)?;
            let schema = node.schema.clone();
            children.push(node);
            Ok::<_, PlanError>(schema)
        };
        let not_one_shot = |detail: &str| PlanError::StreamStatusMismatch {
            operator: "one-shot evaluation",
            detail: detail.into(),
        };
        let op = |(schema, op)| (schema, PhysOp::Op(op));
        let (schema, op) = match plan {
            Plan::Relation(name) => {
                let source = catalog
                    .schema_of(name)
                    .ok_or_else(|| PlanError::UnknownRelation(name.clone()))?;
                if source.infinite {
                    return Err(not_one_shot(
                        "scan of an infinite XD-Relation; apply a window and register the query",
                    ));
                }
                (source.schema, PhysOp::Scan { name: name.clone() })
            }
            Plan::Union(a, b) => {
                let (sa, sb) = (operand(a)?, operand(b)?);
                op(CompiledOp::union(&sa, &sb)?)
            }
            Plan::Intersect(a, b) => {
                let (sa, sb) = (operand(a)?, operand(b)?);
                op(CompiledOp::intersect(&sa, &sb)?)
            }
            Plan::Difference(a, b) => {
                let (sa, sb) = (operand(a)?, operand(b)?);
                op(CompiledOp::difference(&sa, &sb)?)
            }
            Plan::Project(p, attrs) => op(CompiledOp::project(&operand(p)?, attrs)?),
            Plan::Select(p, f) => op(CompiledOp::select(&operand(p)?, f)?),
            Plan::Rename(p, from, to) => op(CompiledOp::rename(&operand(p)?, from, to)?),
            Plan::Join(a, b) => {
                let (sa, sb) = (operand(a)?, operand(b)?);
                op(CompiledOp::join(&sa, &sb)?)
            }
            Plan::Assign(p, attr, src) => op(CompiledOp::assign(&operand(p)?, attr, src)?),
            Plan::Invoke(p, proto, sa) => op(CompiledOp::invoke(&operand(p)?, proto, sa.as_str())?),
            Plan::Aggregate(p, group, aggs) => {
                op(CompiledOp::aggregate(&operand(p)?, group, aggs)?)
            }
            // refused before its operand compiles, so the outermost
            // continuous operator is the one reported
            Plan::Window(..) | Plan::Stream(..) | Plan::SampleInvoke(..) => {
                return Err(not_one_shot(
                    "continuous operator (window/stream); register the query instead",
                ))
            }
        };
        Ok(PhysNode {
            id,
            schema,
            op,
            children,
        })
    }

    /// Execute this node, recording one observation (children record their
    /// own first). Mirrors the interpreter's accounting: binary operators
    /// report combined child cardinality as `tuples_in`, `elapsed` is
    /// self-time, a failed application records before the error propagates.
    ///
    /// A scan lends the environment's relation instead of copying it, and
    /// every operator but ∪ only iterates its operands, so executing a plan
    /// cannot write into the environment.
    fn execute<'a>(
        &self,
        ctx: &ExecContext<'a>,
        actions: &mut ActionSet,
    ) -> Result<Cow<'a, XRelation>, EvalError> {
        let kind = match &self.op {
            PhysOp::Scan { .. } => OpKind::Relation,
            PhysOp::Op(op) => op.kind(),
        };
        let mut obs = OpObservation::new(self.id, kind);
        let result = self.operands(ctx, actions).and_then(|inputs| {
            obs.tuples_in = inputs.iter().map(|r| r.len() as u64).sum();
            let started = WallClock::now();
            let result = self.apply(inputs, ctx, actions, &mut obs);
            obs.elapsed = started.elapsed();
            result
        });
        match &result {
            Ok(r) => obs.tuples_out = r.len() as u64,
            // Invocation failures are already tallied; everything else
            // counts as one failed application of this operator.
            Err(_) => obs.failures = obs.failures.max(1),
        }
        ctx.metrics.record(&obs);
        result
    }

    /// Evaluate the children, left to right.
    fn operands<'a>(
        &self,
        ctx: &ExecContext<'a>,
        actions: &mut ActionSet,
    ) -> Result<Vec<Cow<'a, XRelation>>, EvalError> {
        self.children
            .iter()
            .map(|c| c.execute(ctx, actions))
            .collect()
    }

    /// Apply this node's operator to its evaluated operands.
    fn apply<'a>(
        &self,
        inputs: Vec<Cow<'a, XRelation>>,
        ctx: &ExecContext<'a>,
        actions: &mut ActionSet,
        obs: &mut OpObservation,
    ) -> Result<Cow<'a, XRelation>, EvalError> {
        let op = match &self.op {
            PhysOp::Scan { name } => return self.scan(ctx, name),
            PhysOp::Op(op) => op,
        };
        let mut inputs = inputs.into_iter();
        let mut next = || inputs.next().expect("one operand per child");
        let ra = next();
        Ok(Cow::Owned(match op {
            CompiledOp::Select { formula } => select(&self.schema, formula, ra)?,
            CompiledOp::Project { .. } | CompiledOp::Rename | CompiledOp::Assign { .. } => {
                let mut out = XRelation::empty(self.schema.clone());
                for t in ra.iter() {
                    if let Some(mapped) = op.map_tuple(t)? {
                        out.insert(mapped);
                    }
                }
                out
            }
            CompiledOp::Union { .. } => {
                // the one operator that grows an operand in place: a lent
                // relation is copied first
                let mut out = ra.into_owned();
                for t in next().iter() {
                    out.insert(op.reorder_rhs(t));
                }
                out
            }
            CompiledOp::Intersect { .. } | CompiledOp::Difference { .. } => {
                let rhs: HashSet<Tuple> = next().iter().map(|t| op.reorder_rhs(t)).collect();
                let keep = matches!(op, CompiledOp::Intersect { .. });
                XRelation::from_tuples(
                    self.schema.clone(),
                    ra.iter().filter(|t| rhs.contains(*t) == keep).cloned(),
                )
            }
            CompiledOp::Join {
                key_left,
                key_right,
                ..
            } => {
                // an empty key (no shared real attribute) pairs everything:
                // the cross product
                let rb = next();
                let mut table: HashMap<Tuple, Vec<&Tuple>> = HashMap::new();
                for t2 in rb.iter() {
                    table
                        .entry(t2.project_positions(key_right))
                        .or_default()
                        .push(t2);
                }
                let mut out = XRelation::empty(self.schema.clone());
                for t1 in ra.iter() {
                    for t2 in table
                        .get(&t1.project_positions(key_left))
                        .into_iter()
                        .flatten()
                    {
                        out.insert(op.join_tuple(t1, t2));
                    }
                }
                out
            }
            CompiledOp::Invoke { recipe } => {
                let mut tally = InvokeTally::default();
                let tuples: Vec<&Tuple> = ra.iter().collect();
                let result = recipe.invoke_batch_observed(
                    &tuples,
                    ctx.invoker,
                    ctx.at,
                    ctx.options.invoke_parallelism,
                    actions,
                    &mut tally,
                    ctx.options.degrade,
                );
                tally.record_into(obs);
                obs.cache_misses = tally.invocations;
                XRelation::from_tuples(self.schema.clone(), result?)
            }
            CompiledOp::Aggregate { group, aggs, .. } => ops::aggregate(&ra, group, aggs)?,
        }))
    }

    /// Look up the scanned relation and lend it; only if the stored schema
    /// instance was replaced by an equivalent one since compilation is it
    /// copied, its tuples normalized into the compile-time coordinate
    /// order. An incompatible replacement is a runtime error: downstream
    /// coordinate maps would be meaningless.
    fn scan<'a>(&self, ctx: &ExecContext<'a>, name: &str) -> Result<Cow<'a, XRelation>, EvalError> {
        let r = ctx
            .env
            .relation(name)
            .ok_or_else(|| EvalError::Plan(PlanError::UnknownRelation(name.to_string())))?;
        if SchemaRef::ptr_eq(r.schema(), &self.schema) {
            return Ok(Cow::Borrowed(r));
        }
        if !r.schema().compatible_with(&self.schema) {
            return Err(EvalError::Value(format!(
                "relation `{name}` schema changed since compilation"
            )));
        }
        let map = self
            .schema
            .reorder_map(r.schema())
            .expect("checked compatible");
        Ok(Cow::Owned(XRelation::from_tuples(
            self.schema.clone(),
            r.iter().map(|t| t.project_positions(&map)),
        )))
    }
}

/// `σ`: the operand's tuples that satisfy `formula`, in operand order.
///
/// A relation the environment lends looks its rows up instead of scanning
/// (DESIGN § 4, *A statement looks up the rows its equality selects*) when
/// the formula's first conjunct is `attr = 'text'` and every tuple holds
/// text at that attribute: the scan rejects every tuple outside that text's
/// bucket without evaluating anything else and without an error, so
/// evaluating the whole formula on the bucket, in order, yields the scan's
/// rows in the scan's order, or its first error. Only a lent relation
/// outlives the statement, and the lookup built on it with it; anything
/// else scans.
fn select(
    schema: &SchemaRef,
    formula: &CompiledFormula,
    operand: Cow<'_, XRelation>,
) -> Result<XRelation, EvalError> {
    let bucket = match &operand {
        Cow::Borrowed(r) => formula
            .leading_text_eq()
            .and_then(|(coord, text)| r.text_lookup(coord, text)),
        Cow::Owned(_) => None,
    };
    let (rows, capacity) = match bucket {
        Some(rows) => (rows, rows.len()),
        None => (operand.tuples(), 0),
    };
    let mut out = XRelation::with_capacity(schema.clone(), capacity);
    for t in rows {
        if formula.matches(t)? {
            out.insert(t.clone());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::examples::example_environment;
    use crate::eval::CountingInvoker;
    use crate::metrics::ExecStats;
    use crate::plan::examples::{q1, q1_prime, q2, q2_prime};
    use crate::service::fixtures::example_registry;
    use crate::time::Instant;

    #[test]
    fn compiled_plan_matches_interpreter_outputs() {
        let env = example_environment();
        let reg = example_registry();
        for plan in [q1(), q1_prime(), q2(), q2_prime()] {
            let physical = PhysicalPlan::compile(&plan, &env).unwrap();
            for t in 0..4 {
                let ctx = ExecContext::new(&env, &reg, Instant(t));
                let a = physical.execute(&ctx).unwrap();
                let b = ctx.execute(&plan).unwrap();
                assert_eq!(a.relation, b.relation);
                assert_eq!(a.actions, b.actions);
            }
        }
    }

    #[test]
    fn compiled_schema_matches_static_validation() {
        let env = example_environment();
        for plan in [q1(), q2()] {
            let physical = PhysicalPlan::compile(&plan, &env).unwrap();
            assert_eq!(*physical.schema(), plan.schema(&env).unwrap());
        }
    }

    #[test]
    fn compile_rejects_what_validation_rejects() {
        let env = example_environment();
        let bad = Plan::relation("no_such_relation");
        assert!(matches!(
            PhysicalPlan::compile(&bad, &env),
            Err(PlanError::UnknownRelation(_))
        ));
    }

    #[test]
    fn compile_refuses_continuous_plans_with_a_typed_error() {
        use crate::plan::{StreamKind, StreamSchema};
        let env = example_environment();
        let is_status_mismatch = |r: Result<PhysicalPlan, PlanError>| {
            matches!(r, Err(PlanError::StreamStatusMismatch { .. }))
        };
        // the operator is refused before its operand is looked up: the
        // environment has no `temperatures`, and that is not what is wrong
        for plan in [
            Plan::source("temperatures").window(1),
            Plan::source("contacts").stream(StreamKind::Insertion),
            Plan::source("sensors").sample_invoke("getTemperature", "sensor", 1),
            Plan::relation("contacts").join(Plan::source("temperatures").window(1)),
        ] {
            assert!(is_status_mismatch(PhysicalPlan::compile(&plan, &env)));
        }
        // a bare scan of a stream, through a catalog that knows streams
        let mut cat = std::collections::BTreeMap::new();
        let schema = crate::schema::examples::sensors_schema();
        cat.insert("readings".to_string(), StreamSchema::infinite(schema));
        assert!(is_status_mismatch(PhysicalPlan::compile(
            &Plan::relation("readings"),
            &cat
        )));
    }

    #[test]
    fn node_ids_are_pre_order_and_stable_across_runs() {
        let env = example_environment();
        let reg = example_registry();
        let physical = PhysicalPlan::compile(&q1(), &env).unwrap();
        assert_eq!(physical.node_count(), 4);
        let stats = ExecStats::new();
        let ctx = ExecContext::with_metrics(&env, &reg, Instant(0), &stats);
        physical.execute(&ctx).unwrap();
        physical.execute(&ctx).unwrap();
        // q1 pre-order: 0=β 1=α 2=σ 3=Relation — two applications each.
        let nodes = stats.nodes();
        assert_eq!(nodes.len(), 4);
        assert_eq!(nodes[&NodeId(0)].op, OpKind::Invoke);
        assert_eq!(nodes[&NodeId(3)].op, OpKind::Relation);
        assert!(nodes.values().all(|n| n.applications == 2));
    }

    #[test]
    fn parallel_invoke_is_output_identical_and_counts_once_per_tuple() {
        let env = example_environment();
        let reg = example_registry();
        let plan = q2_prime(); // β before σ: invokes every camera
        let physical = PhysicalPlan::compile(&plan, &env).unwrap();
        let serial_counting = CountingInvoker::new(&reg);
        let serial = {
            let ctx = ExecContext::new(&env, &serial_counting, Instant(1));
            physical.execute(&ctx).unwrap()
        };
        for workers in [2, 4, 16] {
            let counting = CountingInvoker::new(&reg);
            let stats = ExecStats::new();
            let ctx = ExecContext::with_metrics(&env, &counting, Instant(1), &stats)
                .with_options(ExecOptions::parallel(workers));
            let out = physical.execute(&ctx).unwrap();
            assert_eq!(out.relation, serial.relation);
            assert_eq!(out.actions, serial.actions);
            assert_eq!(counting.snapshot(), serial_counting.snapshot());
            assert_eq!(stats.total_invocations(), serial_counting.total());
            assert_eq!(stats.total_failures(), 0);
        }
    }

    /// A seeded xorshift64* stream: core has no `tests/common`.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len())]
        }
    }

    /// A `σ` that looks its rows up returns what the scan returns — the same
    /// rows in the same order, or the same error — over relations whose
    /// lookups are built once and then patched by every kind of write, while
    /// a relation held across a write never sees it.
    #[test]
    fn a_looked_up_selection_is_the_scan_row_for_row() {
        use crate::formula::{CmpOp, Expr, Formula};
        use crate::schema::XSchema;
        use crate::value::{DataType, Value};
        use std::sync::Arc;

        const TEXTS: [&str; 4] = ["x", "y", "z", "w"];
        let schema = XSchema::builder()
            .real("a", DataType::Str)
            .real("s", DataType::Service)
            .real("n", DataType::Int)
            .build()
            .unwrap();
        // how a relation's `a` and `s` values are drawn: 0 `Str` only,
        // 1 `Service` only, 2 either, 3 either and now and then an INTEGER
        // in `s` (a SERVICE attribute admits one)
        let text = |rng: &mut Rng, kind: usize, t: &str| match (kind, rng.below(2)) {
            (0, _) | (2 | 3, 0) => Value::str(t),
            _ => Value::service(t),
        };
        let draw = |rng: &mut Rng, kind: usize| {
            let (a, s) = (*rng.pick(&TEXTS), *rng.pick(&TEXTS));
            let a = text(rng, kind, a);
            let s = if kind == 3 && rng.below(8) == 0 {
                Value::Int(rng.below(3) as i64)
            } else {
                text(rng, kind, s)
            };
            Tuple::new(vec![a, s, Value::Int(rng.below(4) as i64)])
        };
        // the first conjunct evaluated: `attr = 'text'`, either way round
        let leading = |rng: &mut Rng| {
            let attr = Expr::attr(*rng.pick(&["a", "s"]));
            let t = *rng.pick(&["x", "y", "z", "w", "nothing"]);
            let constant = Expr::Const(text(rng, 2, t));
            match rng.below(2) {
                0 => Formula::Cmp(attr, CmpOp::Eq, constant),
                _ => Formula::Cmp(constant, CmpOp::Eq, attr),
            }
        };
        // anything else; `s CONTAINS` and `s = …` fail on an INTEGER
        let other = |rng: &mut Rng| match rng.below(5) {
            0 => Formula::gt_const("n", rng.below(4) as i64),
            1 => Formula::eq_const("n", rng.below(4) as i64),
            2 => Formula::contains_const("s", *rng.pick(&TEXTS)),
            3 => Formula::ne_const("a", *rng.pick(&TEXTS)),
            _ => Formula::eq_const("s", *rng.pick(&TEXTS)),
        };
        let formula = |rng: &mut Rng| {
            let (lead, rest) = (leading(rng), other(rng));
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

        let mut rng = Rng(0x5EED_1A2B_3C4D_5E6F);
        // four kinds × {kept in ascending order, in insertion order}
        let mut rels: Vec<Arc<XRelation>> = (0..8)
            .map(|_| Arc::new(XRelation::empty(schema.clone())))
            .collect();
        let mut held: Vec<Option<(Arc<XRelation>, Vec<Tuple>)>> = vec![None; 8];
        let (mut looked_up, mut refused, mut errors, mut held_checks) = (0, 0, 0, 0);
        for _ in 0..12_000 {
            let i = rng.below(rels.len());
            let (kind, sorted) = (i / 2, i.is_multiple_of(2));
            match rng.below(10) {
                0..=2 => {
                    let t = draw(&mut rng, kind);
                    let rel = Arc::make_mut(&mut rels[i]);
                    let in_order = rel.tuples().last().is_none_or(|last| *last < t);
                    if !sorted || (in_order && rng.below(2) == 0) {
                        rel.insert(t);
                    } else {
                        rel.insert_sorted(t);
                    }
                }
                3..=4 => {
                    let t = match rels[i].len() {
                        0 => draw(&mut rng, kind),
                        n => rels[i].tuples()[rng.below(n)].clone(),
                    };
                    let rel = Arc::make_mut(&mut rels[i]);
                    if sorted && rng.below(2) == 0 {
                        rel.remove_sorted(&t);
                    } else {
                        rel.remove(&t);
                    }
                }
                5 => {
                    // take the relation and what `a = 'x'` selects now, or
                    // check and let go of the one taken
                    held[i] = match held[i].take() {
                        None => {
                            let rel = Arc::clone(&rels[i]);
                            let x = rel.iter().filter(|t| t[0].as_str() == Some("x"));
                            let x = x.cloned().collect();
                            Some((rel, x))
                        }
                        Some((rel, x)) => {
                            let f = Formula::eq_const("a", "x").compile(&schema).unwrap();
                            let out = select(&schema, &f, Cow::Borrowed(&*rel)).unwrap();
                            assert_eq!(out.tuples(), x);
                            held_checks += 1;
                            None
                        }
                    }
                }
                _ => {
                    let f = formula(&mut rng);
                    let compiled = f.compile(&schema).unwrap();
                    let rel = &*rels[i];
                    match compiled.leading_text_eq() {
                        Some((c, t)) if rel.text_lookup(c, t).is_some() => looked_up += 1,
                        Some(_) => refused += 1,
                        None => {}
                    }
                    let lookup = select(&schema, &compiled, Cow::Borrowed(rel));
                    let scan = select(&schema, &compiled, Cow::Owned(rel.clone()));
                    match (lookup, scan) {
                        (Ok(a), Ok(b)) => assert_eq!(a.tuples(), b.tuples(), "{f}"),
                        (Err(a), Err(b)) => {
                            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{f}");
                            errors += 1;
                        }
                        (a, b) => panic!("{f}: looked up {a:?}, scanned {b:?}"),
                    }
                }
            }
        }
        assert!(
            looked_up > 1_000 && refused > 100,
            "{looked_up} / {refused}"
        );
        assert!(errors > 50 && held_checks > 100, "{errors} / {held_checks}");
    }

    /// A β call lost to an unreachable peer is tallied as such on the
    /// one-shot path too, not only by the continuous executor.
    #[test]
    fn unreachable_peer_is_counted_in_one_shot_stats() {
        use crate::prototype::Prototype;
        use crate::value::ServiceRef;

        /// `sensor06` lives on a peer that is gone.
        struct EvictedPeer<I>(I);
        impl<I: crate::service::Invoker> crate::service::Invoker for EvictedPeer<I> {
            fn invoke(
                &self,
                prototype: &Prototype,
                service_ref: &ServiceRef,
                input: &Tuple,
                at: Instant,
            ) -> Result<Vec<Tuple>, EvalError> {
                if service_ref.as_str() == "sensor06" {
                    return Err(EvalError::RemoteUnavailable {
                        service: service_ref.to_string(),
                        prototype: prototype.name().to_string(),
                        node: "peer-b".into(),
                        reason: "connection closed".into(),
                    });
                }
                self.0.invoke(prototype, service_ref, input, at)
            }
            fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
                self.0.providers_of(prototype)
            }
        }

        let env = example_environment();
        let invoker = EvictedPeer(example_registry());
        let plan = Plan::relation("sensors").invoke("getTemperature", "sensor");
        let physical = PhysicalPlan::compile(&plan, &env).unwrap();
        let stats = ExecStats::new();
        let ctx = ExecContext::with_metrics(&env, &invoker, Instant(1), &stats)
            .with_options(ExecOptions::serial().with_degrade(DegradePolicy::DropTuple));
        let out = physical.execute(&ctx).unwrap();
        assert_eq!(out.relation.len(), 3); // 4 sensors, the evicted one dropped
        let beta = &stats.nodes()[&NodeId(0)];
        assert_eq!((beta.failures, beta.degraded), (1, 1));
        assert_eq!(beta.remote_unavailable, 1);
        assert_eq!(stats.total_remote_unavailable(), 1);
    }
}
