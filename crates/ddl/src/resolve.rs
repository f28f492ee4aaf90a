//! Resolution: name-based AST → core schema objects and executable plans.
//!
//! `EXTENDED RELATION` statements reference prototypes by name, so
//! resolution needs a [`PrototypeCatalog`] (the environment's declared
//! prototypes). Query expressions resolve without context into
//! [`StreamPlan`]s (core's [`Plan`], under its continuous-query name) —
//! schema validation happens at plan-compilation time, as for
//! programmatically-built plans.

use std::sync::Arc;

use serena_core::attr::AttrName;
use serena_core::error::{PlanError, SchemaError};
use serena_core::formula::{CmpOp, Expr, Formula};
use serena_core::ops::{AggFun, AggSpec, AssignSource};
use serena_core::plan::Plan;
use serena_core::prototype::{Prototype, RelationSchema};
use serena_core::schema::{Attribute, SchemaRef, XSchema};
use serena_core::tuple::Tuple;
use serena_core::value::{DataType, Value};
use serena_stream::plan::{StreamKind, StreamPlan};

use crate::ast::*;
use crate::parser::ParseError;

/// Errors across the DDL pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum DdlError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Schema construction failed.
    Schema(SchemaError),
    /// Plan validation failed.
    Plan(PlanError),
    /// `EXTENDED RELATION` references an undeclared prototype.
    UnknownPrototype(String),
    /// The restated input/output list of a binding declaration contradicts
    /// the prototype's schemas.
    BindingMismatch {
        /// The prototype.
        prototype: String,
        /// What disagreed.
        detail: String,
    },
    /// A literal tuple does not fit the target schema.
    Value(String),
}

impl std::fmt::Display for DdlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DdlError::Parse(e) => write!(f, "{e}"),
            DdlError::Schema(e) => write!(f, "{e}"),
            DdlError::Plan(e) => write!(f, "{e}"),
            DdlError::UnknownPrototype(n) => write!(f, "unknown prototype `{n}`"),
            DdlError::BindingMismatch { prototype, detail } => {
                write!(f, "binding pattern for `{prototype}`: {detail}")
            }
            DdlError::Value(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for DdlError {}

impl From<ParseError> for DdlError {
    fn from(e: ParseError) -> Self {
        DdlError::Parse(e)
    }
}

impl From<SchemaError> for DdlError {
    fn from(e: SchemaError) -> Self {
        DdlError::Schema(e)
    }
}

impl From<PlanError> for DdlError {
    fn from(e: PlanError) -> Self {
        DdlError::Plan(e)
    }
}

/// Where `EXTENDED RELATION` resolution finds its prototypes.
pub trait PrototypeCatalog {
    /// The declared prototype named `name`.
    fn lookup_prototype(&self, name: &str) -> Option<Arc<Prototype>>;
}

impl PrototypeCatalog for serena_core::env::Environment {
    fn lookup_prototype(&self, name: &str) -> Option<Arc<Prototype>> {
        self.prototype(name).cloned()
    }
}

impl PrototypeCatalog for std::collections::BTreeMap<String, Arc<Prototype>> {
    fn lookup_prototype(&self, name: &str) -> Option<Arc<Prototype>> {
        self.get(name).cloned()
    }
}

/// Resolve a `PROTOTYPE` statement into a core prototype.
pub fn resolve_prototype(
    name: &str,
    input: &[(String, DataType)],
    output: &[(String, DataType)],
    active: bool,
) -> Result<Arc<Prototype>, DdlError> {
    let mk = |xs: &[(String, DataType)]| {
        RelationSchema::new(xs.iter().map(|(a, t)| (AttrName::new(a), *t)))
    };
    Ok(Prototype::new(name, mk(input)?, mk(output)?, active)?)
}

/// Resolve an `EXTENDED RELATION` statement into its schema.
pub fn resolve_relation_schema(
    attrs: &[AttrDecl],
    bindings: &[BindingDecl],
    catalog: &dyn PrototypeCatalog,
) -> Result<SchemaRef, DdlError> {
    let attributes: Vec<Attribute> = attrs
        .iter()
        .map(|a| {
            if a.virtual_ {
                Attribute::virt(a.name.as_str(), a.ty)
            } else {
                Attribute::real(a.name.as_str(), a.ty)
            }
        })
        .collect();
    let mut bps = Vec::with_capacity(bindings.len());
    for b in bindings {
        let proto = catalog
            .lookup_prototype(&b.prototype)
            .ok_or_else(|| DdlError::UnknownPrototype(b.prototype.clone()))?;
        // the restated lists, when present, must match the prototype
        let check = |given: &[String], actual: &RelationSchema, side: &str| {
            if given.is_empty() {
                return Ok(());
            }
            let actual_names: Vec<&str> = actual.names().map(|a| a.as_str()).collect();
            let given_names: Vec<&str> = given.iter().map(|s| s.as_str()).collect();
            if actual_names != given_names {
                return Err(DdlError::BindingMismatch {
                    prototype: b.prototype.clone(),
                    detail: format!(
                        "{side} attributes restated as {given_names:?} but the prototype declares {actual_names:?}"
                    ),
                });
            }
            Ok(())
        };
        check(&b.input, proto.input(), "input")?;
        check(&b.output, proto.output(), "output")?;
        bps.push(serena_core::binding::BindingPattern::new(
            proto,
            b.service_attr.as_str(),
        ));
    }
    Ok(XSchema::from_attrs(attributes, bps)?)
}

/// Convert a literal to a value.
pub fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Str(s) => Value::str(s),
        Literal::Int(i) => Value::Int(*i),
        Literal::Real(r) => Value::Real(*r),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

/// Build a tuple over `schema` from a literal list, coercing strings into
/// SERVICE attributes and checking arity/types.
pub fn resolve_tuple(lits: &[Literal], schema: &XSchema) -> Result<Tuple, DdlError> {
    let real: Vec<&Attribute> = schema.attrs().iter().filter(|a| a.is_real()).collect();
    if lits.len() != real.len() {
        return Err(DdlError::Value(format!(
            "expected {} values (one per real attribute), got {}",
            real.len(),
            lits.len()
        )));
    }
    let mut out = Vec::with_capacity(lits.len());
    for (lit, attr) in lits.iter().zip(&real) {
        let v = literal_value(lit);
        let v = match (&v, attr.ty) {
            (Value::Str(s), DataType::Service) => Value::service(&**s),
            _ => v,
        };
        if !v.conforms_to(attr.ty) {
            return Err(DdlError::Value(format!(
                "attribute `{}`: expected {}, got {} ({v})",
                attr.name,
                attr.ty,
                v.data_type()
            )));
        }
        out.push(v);
    }
    Ok(Tuple::new(out))
}

/// Resolve a formula AST into a core formula.
pub fn resolve_formula(ast: &FormulaAst) -> Formula {
    let term = |t: &TermAst| match t {
        TermAst::Attr(a) => Expr::Attr(AttrName::new(a)),
        TermAst::Lit(l) => Expr::Const(literal_value(l)),
    };
    match ast {
        FormulaAst::True => Formula::True,
        FormulaAst::False => Formula::False,
        FormulaAst::Contains(attr, needle) => {
            Formula::contains_const(attr.as_str(), needle.clone())
        }
        FormulaAst::Cmp(l, op, r) => {
            let op = match op {
                CmpOpAst::Eq => CmpOp::Eq,
                CmpOpAst::Ne => CmpOp::Ne,
                CmpOpAst::Lt => CmpOp::Lt,
                CmpOpAst::Le => CmpOp::Le,
                CmpOpAst::Gt => CmpOp::Gt,
                CmpOpAst::Ge => CmpOp::Ge,
            };
            Formula::Cmp(term(l), op, term(r))
        }
        FormulaAst::And(a, b) => resolve_formula(a).and(resolve_formula(b)),
        FormulaAst::Or(a, b) => resolve_formula(a).or(resolve_formula(b)),
        FormulaAst::Not(a) => resolve_formula(a).not(),
    }
}

/// Resolve an algebra expression into a continuous plan.
pub fn resolve_query(expr: &QueryExpr) -> StreamPlan {
    match expr {
        QueryExpr::Source(n) => StreamPlan::source(n.clone()),
        QueryExpr::Select(e, f) => resolve_query(e).select(resolve_formula(f)),
        QueryExpr::Project(e, attrs) => resolve_query(e).project(attrs.iter().map(AttrName::new)),
        QueryExpr::Rename(e, from, to) => resolve_query(e).rename(from.as_str(), to.as_str()),
        QueryExpr::Join(a, b) => resolve_query(a).join(resolve_query(b)),
        QueryExpr::Union(a, b) => resolve_query(a).union(resolve_query(b)),
        QueryExpr::Intersect(a, b) => resolve_query(a).intersect(resolve_query(b)),
        QueryExpr::Difference(a, b) => resolve_query(a).difference(resolve_query(b)),
        QueryExpr::Assign(e, attr, src) => {
            let plan = resolve_query(e);
            match src {
                AssignAst::Attr(b) => plan.assign_attr(attr.as_str(), b.as_str()),
                AssignAst::Lit(l) => StreamPlan::Assign(
                    Box::new(plan),
                    AttrName::new(attr),
                    AssignSource::Const(literal_value(l)),
                ),
            }
        }
        QueryExpr::Invoke(e, proto, sa) => resolve_query(e).invoke(proto.clone(), sa.as_str()),
        QueryExpr::Aggregate(e, group, aggs) => {
            let specs: Vec<AggSpec> = aggs
                .iter()
                .map(|a| {
                    let fun = match a.fun {
                        AggFunAst::Count => AggFun::Count,
                        AggFunAst::Sum => AggFun::Sum,
                        AggFunAst::Avg => AggFun::Avg,
                        AggFunAst::Min => AggFun::Min,
                        AggFunAst::Max => AggFun::Max,
                    };
                    let spec = AggSpec::new(fun, a.attr.as_str());
                    match &a.as_name {
                        Some(n) => spec.named(n.as_str()),
                        None => spec,
                    }
                })
                .collect();
            resolve_query(e).aggregate(group.iter().map(AttrName::new), specs)
        }
        QueryExpr::Window(e, n) => resolve_query(e).window(*n),
        QueryExpr::Sample(e, proto, sa, n) => {
            resolve_query(e).sample_invoke(proto.clone(), sa.as_str(), *n)
        }
        QueryExpr::Stream(e, kind) => resolve_query(e).stream(match kind {
            StreamKindAst::Insertion => StreamKind::Insertion,
            StreamKindAst::Deletion => StreamKind::Deletion,
            StreamKindAst::Heartbeat => StreamKind::Heartbeat,
        }),
    }
}

/// The plan itself when it is one-shot — free of window/streaming
/// operators — and `None` otherwise. `EXECUTE` evaluates the former ("one-shot
/// queries like Q1 and Q2 are still possible over finite XD-Relations",
/// §4.2); the latter must be registered.
pub fn to_one_shot(plan: &StreamPlan) -> Option<Plan> {
    (!plan.is_continuous()).then(|| plan.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query};
    use serena_core::env::examples::example_environment;

    #[test]
    fn table_2_round_trips_to_example_schema() {
        let env = example_environment();
        let program = "
            EXTENDED RELATION contacts (
              name STRING, address STRING, text STRING VIRTUAL,
              messenger SERVICE, sent BOOLEAN VIRTUAL
            ) USING BINDING PATTERNS (
              sendMessage[messenger] ( address, text ) : ( sent )
            );
        ";
        let stmts = parse_program(program).unwrap();
        let Statement::ExtendedRelation {
            attrs, bindings, ..
        } = &stmts[0]
        else {
            panic!()
        };
        let schema = resolve_relation_schema(attrs, bindings, &env).unwrap();
        assert!(schema.compatible_with(&serena_core::schema::examples::contacts_schema()));
    }

    #[test]
    fn binding_restatement_checked() {
        let env = example_environment();
        let program = "
            EXTENDED RELATION broken (
              address STRING, text STRING VIRTUAL,
              messenger SERVICE, sent BOOLEAN VIRTUAL
            ) USING BINDING PATTERNS (
              sendMessage[messenger] ( text, address ) : ( sent )
            );
        ";
        let stmts = parse_program(program).unwrap();
        let Statement::ExtendedRelation {
            attrs, bindings, ..
        } = &stmts[0]
        else {
            panic!()
        };
        let err = resolve_relation_schema(attrs, bindings, &env).unwrap_err();
        assert!(matches!(err, DdlError::BindingMismatch { .. }));
    }

    #[test]
    fn unknown_prototype_reported() {
        let env = example_environment();
        let program = "
            EXTENDED RELATION x ( s SERVICE, v REAL VIRTUAL )
            USING BINDING PATTERNS ( mystery[s] );
        ";
        let stmts = parse_program(program).unwrap();
        let Statement::ExtendedRelation {
            attrs, bindings, ..
        } = &stmts[0]
        else {
            panic!()
        };
        assert_eq!(
            resolve_relation_schema(attrs, bindings, &env).unwrap_err(),
            DdlError::UnknownPrototype("mystery".into())
        );
    }

    #[test]
    fn tuples_coerce_service_refs() {
        let schema = serena_core::schema::examples::contacts_schema();
        let t = resolve_tuple(
            &[
                Literal::Str("Nicolas".into()),
                Literal::Str("n@e.fr".into()),
                Literal::Str("email".into()),
            ],
            &schema,
        )
        .unwrap();
        assert_eq!(t[2], Value::service("email"));
        // arity mismatch
        assert!(resolve_tuple(&[Literal::Int(1)], &schema).is_err());
        // type mismatch
        assert!(resolve_tuple(
            &[
                Literal::Int(1),
                Literal::Str("n@e.fr".into()),
                Literal::Str("email".into()),
            ],
            &schema,
        )
        .is_err());
    }

    #[test]
    fn q1_text_round_trips_to_plan_and_evaluates() {
        use serena_core::exec::ExecContext;
        use serena_core::service::fixtures::example_registry;
        use serena_core::time::Instant;
        let env = example_environment();
        let expr = parse_query(
            "INVOKE[sendMessage[messenger]](ASSIGN[text := 'Bonjour!'](SELECT[name <> 'Carla'](contacts)))",
        )
        .unwrap();
        let plan = to_one_shot(&resolve_query(&expr)).unwrap();
        assert_eq!(plan, serena_core::plan::examples::q1());
        let out = ExecContext::new(&env, &example_registry(), Instant::ZERO)
            .execute(&plan)
            .unwrap();
        assert_eq!(out.actions.len(), 2);
    }

    #[test]
    fn continuous_expression_has_no_one_shot_form() {
        let expr = parse_query("SELECT[temperature > 35.5](WINDOW[1](temperatures))").unwrap();
        let plan = resolve_query(&expr);
        assert!(to_one_shot(&plan).is_none());
    }

    #[test]
    fn formula_resolution_full_surface() {
        let expr =
            parse_query("SELECT[NOT (a = 1 AND b <> 'x') OR c >= 2.5 AND d = TRUE](t)").unwrap();
        let QueryExpr::Select(_, f) = expr else {
            panic!()
        };
        let formula = resolve_formula(&f);
        let rendered = formula.to_string();
        assert!(rendered.contains("¬"));
        assert!(rendered.contains("∨"));
        assert!(rendered.contains("∧"));
        assert!(rendered.contains("2.5"));
    }

    #[test]
    fn aggregate_resolution_defaults_names() {
        let expr = parse_query("AGGREGATE[location; avg(temperature)](readings)").unwrap();
        let plan = resolve_query(&expr);
        let StreamPlan::Aggregate(_, group, aggs) = plan else {
            panic!()
        };
        assert_eq!(group, vec![AttrName::new("location")]);
        assert_eq!(aggs[0].as_name.as_str(), "avg_temperature");
    }

    #[test]
    fn prototype_resolution_enforces_core_constraints() {
        // overlapping input/output rejected by the core constructor
        let err = resolve_prototype(
            "echo",
            &[("x".into(), DataType::Int)],
            &[("x".into(), DataType::Int)],
            false,
        )
        .unwrap_err();
        assert!(matches!(err, DdlError::Schema(_)));
    }
}
