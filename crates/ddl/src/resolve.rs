//! Resolution: name-based declarations → core schema objects and tuples.
//!
//! `EXTENDED RELATION` statements reference prototypes by name, so
//! resolution asks the environment's [`SchemaCatalog`] for them
//! ([`SchemaCatalog::prototype_of`]), and `INSERT` / `DELETE` literals are
//! typed against the target relation's schema. Query expressions need no
//! resolution: the parser builds [`Plan`]s, and schema validation happens
//! at plan-compilation time, as for programmatically-built plans.

use std::sync::Arc;

use serena_core::attr::AttrName;
use serena_core::error::{PlanError, SchemaError};
use serena_core::plan::{Plan, SchemaCatalog};
use serena_core::prototype::{Prototype, RelationSchema};
use serena_core::schema::{Attribute, SchemaRef, XSchema};
use serena_core::tuple::Tuple;
use serena_core::value::{DataType, Value};

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
    catalog: &dyn SchemaCatalog,
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
            .prototype_of(&b.prototype)
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

/// Build a tuple over `schema` from a literal list, coercing strings into
/// SERVICE attributes and checking arity/types.
pub fn resolve_tuple(lits: &[Value], schema: &XSchema) -> Result<Tuple, DdlError> {
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
        let v = match (lit, attr.ty) {
            (Value::Str(s), DataType::Service) => Value::service(&**s),
            _ => lit.clone(),
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

/// The plan itself when it is one-shot — free of window/streaming
/// operators — and `None` otherwise. `EXECUTE` evaluates the former ("one-shot
/// queries like Q1 and Q2 are still possible over finite XD-Relations",
/// §4.2); the latter must be registered.
pub fn to_one_shot(plan: &Plan) -> Option<Plan> {
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
                Value::str("Nicolas"),
                Value::str("n@e.fr"),
                Value::str("email"),
            ],
            &schema,
        )
        .unwrap();
        assert_eq!(t[2], Value::service("email"));
        // arity mismatch
        assert!(resolve_tuple(&[Value::Int(1)], &schema).is_err());
        // type mismatch
        assert!(resolve_tuple(
            &[Value::Int(1), Value::str("n@e.fr"), Value::str("email"),],
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
        let plan = parse_query(
            "INVOKE[sendMessage[messenger]](ASSIGN[text := 'Bonjour!'](SELECT[name <> 'Carla'](contacts)))",
        )
        .unwrap();
        let plan = to_one_shot(&plan).unwrap();
        assert_eq!(plan, serena_core::plan::examples::q1());
        let out = ExecContext::new(&env, &example_registry(), Instant::ZERO)
            .execute(&plan)
            .unwrap();
        assert_eq!(out.actions.len(), 2);
    }

    #[test]
    fn continuous_expression_has_no_one_shot_form() {
        let plan = parse_query("SELECT[temperature > 35.5](WINDOW[1](temperatures))").unwrap();
        assert!(to_one_shot(&plan).is_none());
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
