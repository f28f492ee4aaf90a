//! Logical query plans: compositions of Serena operators (Definition 7).
//!
//! "A query over a relational pervasive environment is a well-formed
//! expression composed of a finite number of Serena algebra operators whose
//! operands are X-Relations." [`Plan`] is that expression tree; it carries
//! no data and can be statically validated (schema inference per Table 3)
//! against any catalog of relation schemas, rewritten (Table 5), displayed
//! (`EXPLAIN`-style) and evaluated ([`crate::eval`]).
//!
//! §4.2 keeps these operators for continuous queries over XD-Relations and
//! adds two, so the same tree carries them: **window** `W[period]`
//! (infinite → finite: the tuples inserted during the last `period`
//! instants) and **streaming** `S[kind]` (finite → infinite), plus the
//! streaming binding pattern `βˢ` of §7. Every Table 3 operator reads
//! instantaneous relations and so requires *finite* operands;
//! [`Plan::stream_schema`] checks that status together with Table 3. A plan
//! without `W`/`S`/`βˢ` over finite relations is a one-shot query; only those
//! compile to a [`crate::physical::PhysicalPlan`], the others run in
//! `serena-stream`'s executor.

use std::fmt;
use std::sync::Arc;

use crate::attr::AttrName;
use crate::error::PlanError;
use crate::formula::Formula;
use crate::ops::{self, AggSpec, AssignSource};
use crate::prototype::Prototype;
use crate::schema::SchemaRef;

/// Streaming operator flavour (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Emit tuples inserted at each instant.
    Insertion,
    /// Emit tuples deleted at each instant.
    Deletion,
    /// Emit the full instantaneous relation at each instant.
    Heartbeat,
}

impl fmt::Display for StreamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StreamKind::Insertion => "insertion",
            StreamKind::Deletion => "deletion",
            StreamKind::Heartbeat => "heartbeat",
        })
    }
}

/// Schema of an XD-Relation: an extended relation schema plus its
/// finite/infinite status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSchema {
    /// The extended relation schema.
    pub schema: SchemaRef,
    /// Whether the XD-Relation is infinite (a stream).
    pub infinite: bool,
}

impl StreamSchema {
    /// A finite XD-Relation schema.
    pub fn finite(schema: SchemaRef) -> Self {
        StreamSchema {
            schema,
            infinite: false,
        }
    }

    /// An infinite XD-Relation schema.
    pub fn infinite(schema: SchemaRef) -> Self {
        StreamSchema {
            schema,
            infinite: true,
        }
    }
}

/// What a name of the environment denotes (§2.3.2): an XD-Relation, for
/// plan typing and SQL lowering, or a prototype, for SQL lowering and
/// `EXTENDED RELATION` resolution. Implemented by
/// [`crate::env::Environment`] (all finite), by a map of stream schemas in
/// schema-only contexts, and by the runtime's table manager.
pub trait SchemaCatalog {
    /// Schema and finite/infinite status of the named XD-Relation, if
    /// defined.
    fn schema_of(&self, name: &str) -> Option<StreamSchema>;

    /// The declared prototype named `name`. A catalog of relations alone
    /// knows none.
    fn prototype_of(&self, _name: &str) -> Option<Arc<Prototype>> {
        None
    }
}

impl SchemaCatalog for crate::env::Environment {
    fn schema_of(&self, name: &str) -> Option<StreamSchema> {
        self.relation(name)
            .map(|r| StreamSchema::finite(r.schema_ref()))
    }

    fn prototype_of(&self, name: &str) -> Option<Arc<Prototype>> {
        self.prototype(name).cloned()
    }
}

impl SchemaCatalog for std::collections::BTreeMap<String, StreamSchema> {
    fn schema_of(&self, name: &str) -> Option<StreamSchema> {
        self.get(name).cloned()
    }
}

/// A Serena algebra expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Leaf: a named XD-Relation of the environment (finite table or
    /// infinite stream).
    Relation(String),
    /// `r1 ∪ r2`
    Union(Box<Plan>, Box<Plan>),
    /// `r1 ∩ r2`
    Intersect(Box<Plan>, Box<Plan>),
    /// `r1 − r2`
    Difference(Box<Plan>, Box<Plan>),
    /// `π_Y(r)`
    Project(Box<Plan>, Vec<AttrName>),
    /// `σ_F(r)`
    Select(Box<Plan>, Formula),
    /// `ρ_{A→B}(r)`
    Rename(Box<Plan>, AttrName, AttrName),
    /// `r1 ⋈ r2`
    Join(Box<Plan>, Box<Plan>),
    /// `α_{A:=src}(r)`
    Assign(Box<Plan>, AttrName, AssignSource),
    /// `β_{proto[service_attr]}(r)`
    Invoke(Box<Plan>, String, AttrName),
    /// `γ_{group; aggs}(r)` — extension, see [`crate::ops::aggregate`].
    Aggregate(Box<Plan>, Vec<AttrName>, Vec<AggSpec>),
    /// `W[period](r)` (infinite operand → finite output).
    Window(Box<Plan>, u64),
    /// `S[kind](r)` (finite operand → infinite output).
    Stream(Box<Plan>, StreamKind),
    /// `βˢ[period]_{proto[service]}(r)` — **streaming binding pattern**
    /// (the paper's §7 future work: "a new notion of streaming binding
    /// pattern to homogeneously integrate in our framework streams
    /// provided by services"). Every `period` instants, the (passive)
    /// binding pattern is invoked on *every* tuple of the finite operand
    /// and the extended tuples are appended to the output stream — the
    /// algebraic form of a periodic sensor sampler. Finite operand →
    /// infinite output.
    SampleInvoke(Box<Plan>, String, AttrName, u64),
}

impl Plan {
    /// Leaf plan scanning the named relation.
    pub fn relation(name: impl Into<String>) -> Plan {
        Plan::Relation(name.into())
    }

    /// [`Plan::relation`] under the name continuous queries use for their
    /// leaves (an XD-Relation *source*).
    pub fn source(name: impl Into<String>) -> Plan {
        Plan::relation(name)
    }

    /// `self ∪ other`.
    pub fn union(self, other: Plan) -> Plan {
        Plan::Union(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    pub fn intersect(self, other: Plan) -> Plan {
        Plan::Intersect(Box::new(self), Box::new(other))
    }

    /// `self − other`.
    pub fn difference(self, other: Plan) -> Plan {
        Plan::Difference(Box::new(self), Box::new(other))
    }

    /// `π_Y(self)`.
    pub fn project<I, A>(self, attrs: I) -> Plan
    where
        I: IntoIterator<Item = A>,
        A: Into<AttrName>,
    {
        Plan::Project(Box::new(self), attrs.into_iter().map(Into::into).collect())
    }

    /// `σ_F(self)`.
    pub fn select(self, formula: Formula) -> Plan {
        Plan::Select(Box::new(self), formula)
    }

    /// `ρ_{A→B}(self)`.
    pub fn rename(self, from: impl Into<AttrName>, to: impl Into<AttrName>) -> Plan {
        Plan::Rename(Box::new(self), from.into(), to.into())
    }

    /// `self ⋈ other`.
    pub fn join(self, other: Plan) -> Plan {
        Plan::Join(Box::new(self), Box::new(other))
    }

    /// `α_{A:=constant}(self)`.
    pub fn assign_const(
        self,
        attr: impl Into<AttrName>,
        value: impl Into<crate::value::Value>,
    ) -> Plan {
        Plan::Assign(Box::new(self), attr.into(), AssignSource::constant(value))
    }

    /// `α_{A:=B}(self)`.
    pub fn assign_attr(self, attr: impl Into<AttrName>, source: impl Into<AttrName>) -> Plan {
        Plan::Assign(
            Box::new(self),
            attr.into(),
            AssignSource::Attr(source.into()),
        )
    }

    /// `β_{prototype[service_attr]}(self)`.
    pub fn invoke(self, prototype: impl Into<String>, service_attr: impl Into<AttrName>) -> Plan {
        Plan::Invoke(Box::new(self), prototype.into(), service_attr.into())
    }

    /// `γ_{group; aggs}(self)` — extension operator.
    pub fn aggregate<I, A>(self, group: I, aggs: Vec<AggSpec>) -> Plan
    where
        I: IntoIterator<Item = A>,
        A: Into<AttrName>,
    {
        Plan::Aggregate(
            Box::new(self),
            group.into_iter().map(Into::into).collect(),
            aggs,
        )
    }

    /// `W[period](self)`.
    pub fn window(self, period: u64) -> Plan {
        Plan::Window(Box::new(self), period)
    }

    /// `S[kind](self)`.
    pub fn stream(self, kind: StreamKind) -> Plan {
        Plan::Stream(Box::new(self), kind)
    }

    /// `βˢ[period]_{prototype[service_attr]}(self)` — streaming binding
    /// pattern (extension, §7 future work). The prototype must be passive.
    pub fn sample_invoke(
        self,
        prototype: impl Into<String>,
        service_attr: impl Into<AttrName>,
        period: u64,
    ) -> Plan {
        Plan::SampleInvoke(
            Box::new(self),
            prototype.into(),
            service_attr.into(),
            period.max(1),
        )
    }

    /// Static validation & schema inference: derive the output schema per
    /// Table 3, failing exactly where an executor would. The schema half of
    /// [`Plan::stream_schema`].
    pub fn schema(&self, catalog: &dyn SchemaCatalog) -> Result<SchemaRef, PlanError> {
        self.stream_schema(catalog).map(|s| s.schema)
    }

    /// Static validation: derive the output schema and its finite/infinite
    /// status, checking both the Table 3 constraints and the operand status
    /// rules of §4.2.
    pub fn stream_schema(&self, catalog: &dyn SchemaCatalog) -> Result<StreamSchema, PlanError> {
        let finite = |p: &Plan, operator: &'static str| -> Result<SchemaRef, PlanError> {
            let s = p.stream_schema(catalog)?;
            if s.infinite {
                return Err(PlanError::StreamStatusMismatch {
                    operator,
                    detail: "operand is an infinite XD-Relation; apply a window first".into(),
                });
            }
            Ok(s.schema)
        };
        let schema = match self {
            Plan::Relation(name) => {
                return catalog
                    .schema_of(name)
                    .ok_or_else(|| PlanError::UnknownRelation(name.clone()))
            }
            Plan::Union(a, b) | Plan::Intersect(a, b) | Plan::Difference(a, b) => {
                let sa = finite(a, "set operator")?;
                let sb = finite(b, "set operator")?;
                ops::set_op_schema(&sa, &sb)?
            }
            Plan::Project(p, attrs) => {
                let s = finite(p, "projection")?;
                ops::project_schema(&s, attrs)?
            }
            Plan::Select(p, f) => {
                let s = finite(p, "selection")?;
                ops::select_schema(&s, f)?
            }
            Plan::Rename(p, from, to) => {
                let s = finite(p, "renaming")?;
                ops::rename_schema(&s, from, to)?
            }
            Plan::Join(a, b) => {
                let sa = finite(a, "join")?;
                let sb = finite(b, "join")?;
                ops::join_schema(&sa, &sb)?
            }
            Plan::Assign(p, attr, src) => {
                let s = finite(p, "assignment")?;
                ops::assign_schema(&s, attr, src)?
            }
            Plan::Invoke(p, proto, service_attr) => {
                let s = finite(p, "invocation")?;
                ops::invoke_schema(&s, proto, service_attr.as_str())?.0
            }
            Plan::Aggregate(p, group, aggs) => {
                let s = finite(p, "aggregation")?;
                ops::aggregate_schema(&s, group, aggs)?
            }
            Plan::Window(p, _) => {
                let s = p.stream_schema(catalog)?;
                if !s.infinite {
                    return Err(PlanError::StreamStatusMismatch {
                        operator: "window",
                        detail: "operand is already finite".into(),
                    });
                }
                s.schema
            }
            Plan::Stream(p, _) => return Ok(StreamSchema::infinite(finite(p, "streaming")?)),
            Plan::SampleInvoke(p, proto, service_attr, _) => {
                let s = finite(p, "streaming invocation")?;
                let (out, bp) = ops::invoke_schema(&s, proto, service_attr.as_str())?;
                if bp.is_active() {
                    return Err(PlanError::StreamStatusMismatch {
                        operator: "streaming invocation",
                        detail: format!(
                            "binding pattern {} is active; periodic sampling would \
                             repeat its side effect every period",
                            bp.key()
                        ),
                    });
                }
                return Ok(StreamSchema::infinite(out));
            }
        };
        Ok(StreamSchema::finite(schema))
    }

    /// Whether the plan contains a continuous operator (`W`, `S` or `βˢ`)
    /// — such a plan has no one-shot evaluation.
    pub fn is_continuous(&self) -> bool {
        matches!(
            self,
            Plan::Window(..) | Plan::Stream(..) | Plan::SampleInvoke(..)
        ) || self.children().iter().any(|c| c.is_continuous())
    }

    /// Child subplans (0, 1 or 2).
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Relation(_) => vec![],
            Plan::Union(a, b)
            | Plan::Intersect(a, b)
            | Plan::Difference(a, b)
            | Plan::Join(a, b) => vec![a, b],
            Plan::Project(p, _)
            | Plan::Select(p, _)
            | Plan::Rename(p, _, _)
            | Plan::Assign(p, _, _)
            | Plan::Invoke(p, _, _)
            | Plan::Aggregate(p, _, _)
            | Plan::Window(p, _)
            | Plan::Stream(p, _)
            | Plan::SampleInvoke(p, _, _, _) => vec![p],
        }
    }

    /// Rebuild this node with new children (same arity as
    /// [`Plan::children`]).
    ///
    /// # Panics
    /// Panics if `children` has the wrong arity.
    pub fn with_children(&self, mut children: Vec<Plan>) -> Plan {
        let mut next = || children.remove(0);
        match self {
            Plan::Relation(n) => Plan::Relation(n.clone()),
            Plan::Union(..) => {
                let a = next();
                Plan::Union(Box::new(a), Box::new(next()))
            }
            Plan::Intersect(..) => {
                let a = next();
                Plan::Intersect(Box::new(a), Box::new(next()))
            }
            Plan::Difference(..) => {
                let a = next();
                Plan::Difference(Box::new(a), Box::new(next()))
            }
            Plan::Join(..) => {
                let a = next();
                Plan::Join(Box::new(a), Box::new(next()))
            }
            Plan::Project(_, attrs) => Plan::Project(Box::new(next()), attrs.clone()),
            Plan::Select(_, f) => Plan::Select(Box::new(next()), f.clone()),
            Plan::Rename(_, a, b) => Plan::Rename(Box::new(next()), a.clone(), b.clone()),
            Plan::Assign(_, a, s) => Plan::Assign(Box::new(next()), a.clone(), s.clone()),
            Plan::Invoke(_, p, s) => Plan::Invoke(Box::new(next()), p.clone(), s.clone()),
            Plan::Aggregate(_, g, a) => Plan::Aggregate(Box::new(next()), g.clone(), a.clone()),
            Plan::Window(_, period) => Plan::Window(Box::new(next()), *period),
            Plan::Stream(_, kind) => Plan::Stream(Box::new(next()), *kind),
            Plan::SampleInvoke(_, p, s, k) => {
                Plan::SampleInvoke(Box::new(next()), p.clone(), s.clone(), *k)
            }
        }
    }

    /// Apply `f` bottom-up to every node, rebuilding the tree.
    pub fn transform_up(&self, f: &mut impl FnMut(Plan) -> Plan) -> Plan {
        let children = self
            .children()
            .into_iter()
            .map(|c| c.transform_up(f))
            .collect();
        f(self.with_children(children))
    }

    /// Number of operator nodes.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Names of the relations scanned by this plan (deduplicated, in
    /// left-to-right first-occurrence order).
    pub fn relations(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_relations(&mut out);
        out
    }

    fn collect_relations<'a>(&'a self, out: &mut Vec<&'a str>) {
        if let Plan::Relation(n) = self {
            if !out.contains(&n.as_str()) {
                out.push(n);
            }
        }
        for c in self.children() {
            c.collect_relations(out);
        }
    }

    /// One-line algebra notation, e.g.
    /// `β sendMessage[messenger] (α text:='Bonjour!' (σ name <> 'Carla' (contacts)))`.
    pub fn to_algebra(&self) -> String {
        match self {
            Plan::Relation(n) => n.clone(),
            Plan::Union(a, b) => format!("({} ∪ {})", a.to_algebra(), b.to_algebra()),
            Plan::Intersect(a, b) => format!("({} ∩ {})", a.to_algebra(), b.to_algebra()),
            Plan::Difference(a, b) => format!("({} − {})", a.to_algebra(), b.to_algebra()),
            Plan::Project(p, attrs) => {
                let list = attrs
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                format!("π {list} ({})", p.to_algebra())
            }
            Plan::Select(p, f) => format!("σ {f} ({})", p.to_algebra()),
            Plan::Rename(p, a, b) => format!("ρ {a}→{b} ({})", p.to_algebra()),
            Plan::Join(a, b) => format!("({} ⋈ {})", a.to_algebra(), b.to_algebra()),
            Plan::Assign(p, a, s) => format!("α {a}:={s} ({})", p.to_algebra()),
            Plan::Invoke(p, proto, sa) => format!("β {proto}[{sa}] ({})", p.to_algebra()),
            Plan::Aggregate(p, group, aggs) => {
                let g = group
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                let a = aggs
                    .iter()
                    .map(|s| format!("{:?}({})→{}", s.fun, s.attr, s.as_name))
                    .collect::<Vec<_>>()
                    .join(",");
                format!("γ [{g}; {a}] ({})", p.to_algebra())
            }
            Plan::Window(p, period) => format!("W[{period}] ({})", p.to_algebra()),
            Plan::Stream(p, kind) => format!("S[{kind}] ({})", p.to_algebra()),
            Plan::SampleInvoke(p, proto, sa, period) => {
                format!("βˢ[{period}] {proto}[{sa}] ({})", p.to_algebra())
            }
        }
    }

    /// Multi-line `EXPLAIN`-style tree, with inferred schemas when a
    /// catalog is supplied.
    pub fn explain(&self, catalog: Option<&dyn SchemaCatalog>) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, catalog);
        out
    }

    /// The one-line `EXPLAIN` label of this node (operator + arguments,
    /// children excluded) — shared by [`Plan::explain`] and the
    /// `EXPLAIN ANALYZE` rendering in [`crate::exec`].
    pub fn explain_label(&self) -> String {
        match self {
            Plan::Relation(n) => format!("Relation {n}"),
            Plan::Union(..) => "Union".to_string(),
            Plan::Intersect(..) => "Intersect".to_string(),
            Plan::Difference(..) => "Difference".to_string(),
            Plan::Project(_, attrs) => format!(
                "Project [{}]",
                attrs
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Plan::Select(_, f) => format!("Select {f}"),
            Plan::Rename(_, a, b) => format!("Rename {a} → {b}"),
            Plan::Join(..) => "NaturalJoin".to_string(),
            Plan::Assign(_, a, s) => format!("Assign {a} := {s}"),
            Plan::Invoke(_, p, sa) => format!("Invoke {p}[{sa}]"),
            Plan::Aggregate(_, g, a) => format!(
                "Aggregate group=[{}] aggs={}",
                g.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                a.len()
            ),
            Plan::Window(_, period) => format!("Window [{period}]"),
            Plan::Stream(_, kind) => format!("Stream [{kind}]"),
            Plan::SampleInvoke(_, p, sa, period) => format!("SampleInvoke [{period}] {p}[{sa}]"),
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize, catalog: Option<&dyn SchemaCatalog>) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.explain_label());
        if let Some(cat) = catalog {
            match self.schema(cat) {
                Ok(s) => out.push_str(&format!("  {s:?}")),
                Err(e) => out.push_str(&format!("  !{e}")),
            }
        }
        out.push('\n');
        for c in self.children() {
            c.explain_into(out, depth + 1, catalog);
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_algebra())
    }
}

/// The one-shot example queries of Table 4, as plan constructors. `Q3`/`Q4`
/// (the continuous queries) are in `serena-stream::plan::examples`, beside
/// the executor that runs them.
pub mod examples {
    use super::*;
    use crate::formula::Formula;

    /// `Q1 = β_{sendMessage[messenger]}(α_{text:='Bonjour!'}(σ_{name≠'Carla'}(contacts)))`
    pub fn q1() -> Plan {
        Plan::relation("contacts")
            .select(Formula::ne_const("name", "Carla"))
            .assign_const("text", "Bonjour!")
            .invoke("sendMessage", "messenger")
    }

    /// `Q1' = σ_{name≠'Carla'}(β_{sendMessage[messenger]}(α_{text:='Bonjour!'}(contacts)))`
    /// — *not* equivalent to `Q1`: it also messages Carla (Example 6).
    pub fn q1_prime() -> Plan {
        Plan::relation("contacts")
            .assign_const("text", "Bonjour!")
            .invoke("sendMessage", "messenger")
            .select(Formula::ne_const("name", "Carla"))
    }

    /// `Q2 = π_photo(β_{takePhoto[camera]}(σ_{quality≥5}(β_{checkPhoto[camera]}(σ_{area='office'}(cameras)))))`
    pub fn q2() -> Plan {
        Plan::relation("cameras")
            .select(Formula::eq_const("area", "office"))
            .invoke("checkPhoto", "camera")
            .select(Formula::ge_const("quality", 5))
            .invoke("takePhoto", "camera")
            .project(["photo"])
    }

    /// `Q2'`: the un-pushed version of `Q2` — all selections after
    /// `checkPhoto` — equivalent to `Q2` because `checkPhoto` is passive
    /// (Example 7).
    pub fn q2_prime() -> Plan {
        Plan::relation("cameras")
            .invoke("checkPhoto", "camera")
            .select(Formula::eq_const("area", "office").and(Formula::ge_const("quality", 5)))
            .invoke("takePhoto", "camera")
            .project(["photo"])
    }
}

#[cfg(test)]
mod tests {
    use super::examples::*;
    use super::*;
    use crate::env::examples::example_environment;
    use crate::formula::Formula;

    #[test]
    fn q1_schema_inference() {
        let env = example_environment();
        let s = q1().schema(&env).unwrap();
        // after β, both text and sent are real; no BPs remain
        assert!(s.is_real("text"));
        assert!(s.is_real("sent"));
        assert!(s.binding_patterns().is_empty());
    }

    #[test]
    fn q2_schema_inference() {
        let env = example_environment();
        let s = q2().schema(&env).unwrap();
        let names: Vec<String> = s.names().map(|a| a.to_string()).collect();
        assert_eq!(names, vec!["photo"]);
        assert!(s.is_real("photo"));
    }

    #[test]
    fn invalid_plans_rejected_statically() {
        let env = example_environment();
        // selection on virtual attr
        let bad = Plan::relation("contacts").select(Formula::eq_const("sent", true));
        assert!(matches!(
            bad.schema(&env),
            Err(PlanError::SelectionOnVirtual(_))
        ));
        // invoke with virtual input
        let bad = Plan::relation("contacts").invoke("sendMessage", "messenger");
        assert!(matches!(
            bad.schema(&env),
            Err(PlanError::InvokeInputNotReal { .. })
        ));
        // unknown relation
        assert!(matches!(
            Plan::relation("nope").schema(&env),
            Err(PlanError::UnknownRelation(_))
        ));
    }

    #[test]
    fn algebra_rendering() {
        assert_eq!(
            q1().to_algebra(),
            "β sendMessage[messenger] (α text:='Bonjour!' (σ name <> 'Carla' (contacts)))"
        );
    }

    #[test]
    fn explain_renders_tree_with_schemas() {
        let env = example_environment();
        let text = q2().explain(Some(&env));
        assert!(text.contains("Project [photo]"));
        assert!(text.contains("Invoke takePhoto[camera]"));
        assert!(text.contains("Relation cameras"));
        assert!(text.contains("\n  "));
    }

    #[test]
    fn transform_up_identity() {
        let p = q2();
        let q = p.transform_up(&mut |n| n);
        assert_eq!(p, q);
    }

    #[test]
    fn node_count_and_relations() {
        assert_eq!(q1().node_count(), 4);
        assert_eq!(q1().relations(), vec!["contacts"]);
        let j = Plan::relation("a").join(Plan::relation("b").join(Plan::relation("a")));
        assert_eq!(j.relations(), vec!["a", "b"]);
    }

    #[test]
    fn with_children_rebuilds() {
        let p = Plan::relation("x").select(Formula::True);
        let rebuilt = p.with_children(vec![Plan::relation("y")]);
        assert_eq!(rebuilt, Plan::relation("y").select(Formula::True));
    }

    /// temperatures (infinite, the sensor stream of §1.2) beside the
    /// finite contacts table.
    fn xd_catalog() -> std::collections::BTreeMap<String, StreamSchema> {
        let temperatures = crate::schema::XSchema::builder()
            .real("location", crate::value::DataType::Str)
            .real("temperature", crate::value::DataType::Real)
            .build()
            .unwrap();
        [
            ("temperatures", StreamSchema::infinite(temperatures)),
            (
                "contacts",
                StreamSchema::finite(crate::schema::examples::contacts_schema()),
            ),
        ]
        .into_iter()
        .map(|(n, s)| (n.to_string(), s))
        .collect()
    }

    #[test]
    fn window_requires_infinite_operand() {
        let err = Plan::source("contacts")
            .window(1)
            .stream_schema(&xd_catalog())
            .unwrap_err();
        assert!(matches!(err, PlanError::StreamStatusMismatch { .. }));
    }

    #[test]
    fn relational_ops_require_finite_operands() {
        let err = Plan::source("temperatures")
            .select(Formula::gt_const("temperature", 30.0))
            .stream_schema(&xd_catalog())
            .unwrap_err();
        assert!(matches!(
            err,
            PlanError::StreamStatusMismatch {
                operator: "selection",
                ..
            }
        ));
    }

    #[test]
    fn streaming_requires_finite_operand() {
        let err = Plan::source("temperatures")
            .stream(StreamKind::Insertion)
            .stream_schema(&xd_catalog())
            .unwrap_err();
        assert!(matches!(err, PlanError::StreamStatusMismatch { .. }));
    }

    #[test]
    fn window_then_stream_round_trips_status() {
        let s = Plan::source("temperatures")
            .window(5)
            .stream(StreamKind::Heartbeat)
            .stream_schema(&xd_catalog())
            .unwrap();
        assert!(s.infinite);
    }

    #[test]
    fn unknown_source_rejected() {
        assert!(matches!(
            Plan::source("ghost").stream_schema(&xd_catalog()),
            Err(PlanError::UnknownRelation(_))
        ));
    }

    #[test]
    fn continuous_operators_are_detected_anywhere_in_the_tree() {
        assert!(!q2().is_continuous());
        let windowed = Plan::source("temperatures").window(1);
        assert!(Plan::relation("contacts").join(windowed).is_continuous());
    }
}
