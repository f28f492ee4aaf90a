//! Error types for the Serena core.
//!
//! All errors are typed enums; the crate has no panicking public API apart
//! from index-out-of-bounds style programming errors that are documented on
//! the respective functions.

use std::fmt;

use crate::attr::AttrName;
use crate::value::DataType;

/// Errors arising while constructing schemas, prototypes, binding patterns or
/// environments (the *static* side of the model, §2.3 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// An attribute name appears twice in a schema; `attr_R` must be
    /// injective (Definition 2).
    DuplicateAttribute(AttrName),
    /// A prototype's output schema is empty, violating
    /// `schema(Output_psi) != {}` (§2.3.1).
    EmptyPrototypeOutput {
        /// The prototype involved.
        prototype: String,
    },
    /// A prototype's input and output schemas overlap, violating
    /// `schema(Input) ∩ schema(Output) = ∅` (§2.3.1).
    PrototypeInputOutputOverlap {
        /// The prototype involved.
        prototype: String,
        /// The offending attribute.
        attr: AttrName,
    },
    /// A binding pattern's service-reference attribute is not a *real*
    /// attribute of the relation schema (Definition 2).
    ServiceAttrNotReal {
        /// The prototype involved.
        prototype: String,
        /// The offending attribute.
        attr: AttrName,
    },
    /// A binding pattern's prototype input attribute is missing from the
    /// relation schema (`schema(Input) ⊆ schema(R)`).
    InputAttrMissing {
        /// The prototype involved.
        prototype: String,
        /// The offending attribute.
        attr: AttrName,
    },
    /// A binding pattern's prototype output attribute is not a *virtual*
    /// attribute of the relation schema (`schema(Output) ⊆ virtualSchema(R)`).
    OutputAttrNotVirtual {
        /// The prototype involved.
        prototype: String,
        /// The offending attribute.
        attr: AttrName,
    },
    /// Attribute type disagreement between a prototype parameter and the
    /// relation attribute with the same name.
    TypeMismatch {
        /// The offending attribute.
        attr: AttrName,
        /// The type required here.
        expected: DataType,
        /// The type actually present.
        found: DataType,
    },
    /// Under the Universal Relation Schema Assumption, the same attribute
    /// name must denote the same type in every relation of the environment.
    UrsaViolation {
        /// The offending attribute.
        attr: AttrName,
        /// Type seen first for this attribute.
        first: DataType,
        /// Conflicting type seen later.
        second: DataType,
    },
    /// Attribute not present in the schema at all.
    UnknownAttribute(AttrName),
    /// A relation with this name is already defined in the environment.
    DuplicateRelation(String),
    /// No relation with this name is defined in the environment.
    UnknownRelation(String),
    /// A prototype with this name is already declared.
    DuplicatePrototype(String),
    /// Referenced prototype is not declared in the environment.
    UnknownPrototype(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateAttribute(a) => {
                write!(f, "duplicate attribute `{a}` in schema (attr_R must be injective)")
            }
            SchemaError::EmptyPrototypeOutput { prototype } => {
                write!(f, "prototype `{prototype}` has an empty output schema")
            }
            SchemaError::PrototypeInputOutputOverlap { prototype, attr } => write!(
                f,
                "prototype `{prototype}`: attribute `{attr}` appears in both input and output schemas"
            ),
            SchemaError::ServiceAttrNotReal { prototype, attr } => write!(
                f,
                "binding pattern for `{prototype}`: service attribute `{attr}` is not a real attribute"
            ),
            SchemaError::InputAttrMissing { prototype, attr } => write!(
                f,
                "binding pattern for `{prototype}`: input attribute `{attr}` is not in the relation schema"
            ),
            SchemaError::OutputAttrNotVirtual { prototype, attr } => write!(
                f,
                "binding pattern for `{prototype}`: output attribute `{attr}` is not a virtual attribute"
            ),
            SchemaError::TypeMismatch { attr, expected, found } => write!(
                f,
                "attribute `{attr}`: expected type {expected}, found {found}"
            ),
            SchemaError::UrsaViolation { attr, first, second } => write!(
                f,
                "URSA violation: attribute `{attr}` has type {first} in one relation and {second} in another"
            ),
            SchemaError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
            SchemaError::DuplicateRelation(n) => write!(f, "relation `{n}` already defined"),
            SchemaError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            SchemaError::DuplicatePrototype(n) => write!(f, "prototype `{n}` already declared"),
            SchemaError::UnknownPrototype(n) => write!(f, "unknown prototype `{n}`"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Errors arising while *building or validating* an algebra expression
/// (the static checks of Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Underlying schema construction failed.
    Schema(SchemaError),
    /// Set operators require both operands to share the same extended schema
    /// (§3.1.1).
    SetOperandSchemaMismatch {
        /// Left operand schema (debug rendering).
        left: String,
        /// Right operand schema (debug rendering).
        right: String,
    },
    /// Selection formulas may reference only real attributes (Table 3(b)).
    SelectionOnVirtual(AttrName),
    /// Projection target attribute not in the operand schema.
    ProjectionUnknownAttribute(AttrName),
    /// Renaming target already exists in the schema (`B ∉ schema(R)`).
    RenameTargetExists(AttrName),
    /// Renaming source missing from the schema.
    RenameSourceMissing(AttrName),
    /// Assignment applies only to virtual attributes (Table 3(e)).
    AssignTargetNotVirtual(AttrName),
    /// Assignment source must be a real attribute.
    AssignSourceNotReal(AttrName),
    /// Assignment of a constant whose type disagrees with the attribute.
    AssignTypeMismatch {
        /// The offending attribute.
        attr: AttrName,
        /// The type required here.
        expected: DataType,
        /// The type actually present.
        found: DataType,
    },
    /// Invocation requires the binding pattern to belong to the operand's
    /// schema (Table 3(f)).
    UnknownBindingPattern {
        /// The prototype involved.
        prototype: String,
    },
    /// Invocation requires all prototype input attributes to be real
    /// (`schema(Input) ⊆ realSchema(R)`, Table 3(f)).
    InvokeInputNotReal {
        /// The prototype involved.
        prototype: String,
        /// The offending attribute.
        attr: AttrName,
    },
    /// Relation name not found in the environment.
    UnknownRelation(String),
    /// A formula compares attributes/constants of incompatible types.
    FormulaTypeMismatch {
        /// Where the mismatch occurred.
        context: String,
        /// Left-hand type.
        left: DataType,
        /// Right-hand type.
        right: DataType,
    },
    /// Window/streaming operators applied where the finite/infinite status
    /// does not match (continuous extension, §4.2).
    StreamStatusMismatch {
        /// The operator that failed.
        operator: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// Aggregation (extension operator) misuse.
    Aggregate(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Schema(e) => write!(f, "schema error: {e}"),
            PlanError::SetOperandSchemaMismatch { left, right } => write!(
                f,
                "set operator operands have different extended schemas: {left} vs {right}"
            ),
            PlanError::SelectionOnVirtual(a) => write!(
                f,
                "selection formula references virtual attribute `{a}` (only real attributes have values)"
            ),
            PlanError::ProjectionUnknownAttribute(a) => {
                write!(f, "projection references unknown attribute `{a}`")
            }
            PlanError::RenameTargetExists(a) => {
                write!(f, "rename target `{a}` already present in schema")
            }
            PlanError::RenameSourceMissing(a) => {
                write!(f, "rename source `{a}` not present in schema")
            }
            PlanError::AssignTargetNotVirtual(a) => {
                write!(f, "assignment target `{a}` is not a virtual attribute")
            }
            PlanError::AssignSourceNotReal(a) => {
                write!(f, "assignment source `{a}` is not a real attribute")
            }
            PlanError::AssignTypeMismatch { attr, expected, found } => write!(
                f,
                "assignment to `{attr}`: expected {expected}, found {found}"
            ),
            PlanError::UnknownBindingPattern { prototype } => write!(
                f,
                "no binding pattern for prototype `{prototype}` on this relation"
            ),
            PlanError::InvokeInputNotReal { prototype, attr } => write!(
                f,
                "invocation of `{prototype}`: input attribute `{attr}` is still virtual (realize it first)"
            ),
            PlanError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            PlanError::FormulaTypeMismatch { context, left, right } => {
                write!(f, "type mismatch in {context}: {left} vs {right}")
            }
            PlanError::StreamStatusMismatch { operator, detail } => {
                write!(f, "{operator}: {detail}")
            }
            PlanError::Aggregate(d) => write!(f, "aggregate: {d}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<SchemaError> for PlanError {
    fn from(e: SchemaError) -> Self {
        PlanError::Schema(e)
    }
}

/// Errors arising at *query evaluation* time (the dynamic side: Definition 1
/// invocation functions, missing services, runtime type failures).
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Static validation failed before execution.
    Plan(PlanError),
    /// The service reference does not name a registered service.
    UnknownService {
        /// The unresolved service reference.
        reference: String,
    },
    /// The referenced service does not implement the requested prototype.
    PrototypeNotImplemented {
        /// The service reference involved.
        service: String,
        /// The prototype involved.
        prototype: String,
    },
    /// The service implementation failed (simulated network error, device
    /// fault, …). Carries a human-readable reason.
    InvocationFailed {
        /// The service reference involved.
        service: String,
        /// The prototype involved.
        prototype: String,
        /// The failure reason reported by the service.
        reason: String,
    },
    /// A service returned tuples that do not match the prototype output
    /// schema.
    MalformedInvocationResult {
        /// The service reference involved.
        service: String,
        /// The prototype involved.
        prototype: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The resilience layer rejected the call without invoking anything:
    /// the service's circuit breaker is open after repeated failures.
    CircuitOpen {
        /// The service reference involved.
        service: String,
    },
    /// The service implementation panicked during the invocation. The
    /// panic was contained (`catch_unwind`) instead of aborting the
    /// process; the payload, when it was a string, is carried as `reason`.
    Panicked {
        /// The service reference involved.
        service: String,
        /// The prototype involved.
        prototype: String,
        /// The panic payload, if it was a string (`"<non-string panic>"`
        /// otherwise).
        reason: String,
    },
    /// The service lives on a remote node that could not be reached: the
    /// transport failed before (or while) relaying the invocation, so the
    /// service itself never reported an outcome. Distinct from
    /// [`EvalError::InvocationFailed`] — the *node*, not the service, is at
    /// fault — and transient for the resilience layer (retry/breaker) just
    /// like a local invocation failure.
    RemoteUnavailable {
        /// The service reference involved.
        service: String,
        /// The prototype involved.
        prototype: String,
        /// The remote node (peer id or address) that was unreachable.
        node: String,
        /// Transport-level failure detail.
        reason: String,
    },
    /// A tuple's arity or value types disagree with the relation schema.
    TupleSchemaMismatch {
        /// The relation involved.
        relation: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Arithmetic/comparison failure at runtime (e.g. comparing BLOBs).
    Value(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Plan(e) => write!(f, "plan error: {e}"),
            EvalError::UnknownService { reference } => {
                write!(f, "no registered service with reference `{reference}`")
            }
            EvalError::PrototypeNotImplemented { service, prototype } => write!(
                f,
                "service `{service}` does not implement prototype `{prototype}`"
            ),
            EvalError::InvocationFailed {
                service,
                prototype,
                reason,
            } => write!(
                f,
                "invocation of `{prototype}` on `{service}` failed: {reason}"
            ),
            EvalError::MalformedInvocationResult {
                service,
                prototype,
                detail,
            } => write!(
                f,
                "service `{service}` returned malformed result for `{prototype}`: {detail}"
            ),
            EvalError::CircuitOpen { service } => {
                write!(f, "circuit breaker open for service `{service}`")
            }
            EvalError::Panicked {
                service,
                prototype,
                reason,
            } => write!(
                f,
                "invocation of `{prototype}` on `{service}` panicked: {reason}"
            ),
            EvalError::RemoteUnavailable {
                service,
                prototype,
                node,
                reason,
            } => write!(
                f,
                "invocation of `{prototype}` on `{service}` failed: remote node `{node}` unreachable: {reason}"
            ),
            EvalError::TupleSchemaMismatch { relation, detail } => {
                write!(f, "tuple does not match schema of `{relation}`: {detail}")
            }
            EvalError::Value(d) => write!(f, "value error: {d}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<PlanError> for EvalError {
    fn from(e: PlanError) -> Self {
        EvalError::Plan(e)
    }
}

impl From<SchemaError> for EvalError {
    fn from(e: SchemaError) -> Self {
        EvalError::Plan(PlanError::Schema(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrName;

    #[test]
    fn display_schema_error() {
        let e = SchemaError::DuplicateAttribute(AttrName::new("temp"));
        assert!(e.to_string().contains("temp"));
        let e = SchemaError::UrsaViolation {
            attr: AttrName::new("x"),
            first: DataType::Int,
            second: DataType::Str,
        };
        assert!(e.to_string().contains("URSA"));
    }

    #[test]
    fn error_conversions_chain() {
        let s = SchemaError::DuplicateRelation("r".into());
        let p: PlanError = s.clone().into();
        let ev: EvalError = p.clone().into();
        assert_eq!(ev, EvalError::Plan(PlanError::Schema(s)));
    }

    #[test]
    fn display_plan_and_eval_errors() {
        let p = PlanError::SelectionOnVirtual(AttrName::new("photo"));
        assert!(p.to_string().contains("photo"));
        let e = EvalError::UnknownService {
            reference: "cam9".into(),
        };
        assert!(e.to_string().contains("cam9"));
    }
}
