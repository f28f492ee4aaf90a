//! Parsed statements of the Serena DDL and the Serena Algebra Language.
//!
//! Declarations stay name-based — [`crate::resolve`] turns them into core
//! schema objects against a prototype catalog — while an algebra expression
//! is parsed straight into the one query tree, core's [`Plan`].

use serena_core::plan::Plan;
use serena_core::value::{DataType, Value};

/// One attribute declaration inside `EXTENDED RELATION`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDecl {
    /// Attribute name.
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// `VIRTUAL` marker.
    pub virtual_: bool,
}

/// One binding-pattern declaration:
/// `sendMessage[messenger] ( address, text ) : ( sent )`.
/// The input/output lists restate the prototype's schemas (as in Table 2)
/// and are validated against it at resolution time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindingDecl {
    /// Prototype name.
    pub prototype: String,
    /// Service-reference attribute.
    pub service_attr: String,
    /// Restated input attribute names (may be empty = unchecked).
    pub input: Vec<String>,
    /// Restated output attribute names (may be empty = unchecked).
    pub output: Vec<String>,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `PROTOTYPE name( in... ) : ( out... ) [ACTIVE];`
    Prototype {
        /// Prototype name.
        name: String,
        /// Input parameters.
        input: Vec<(String, DataType)>,
        /// Output parameters.
        output: Vec<(String, DataType)>,
        /// `ACTIVE` tag.
        active: bool,
    },
    /// `SERVICE ref IMPLEMENTS p1, p2;` — a static service declaration
    /// (Table 1). Every prototype it names must be declared; it is stored
    /// nowhere: a service exists for the runtime once it registers with
    /// the directory.
    Service {
        /// Service reference.
        name: String,
        /// Implemented prototype names.
        prototypes: Vec<String>,
    },
    /// `EXTENDED RELATION name ( attrs ) [USING BINDING PATTERNS ( ... )]
    /// [STREAM];` — `STREAM` marks an infinite XD-Relation (extension: the
    /// paper's DDL example shows only finite relations).
    ExtendedRelation {
        /// Relation name.
        name: String,
        /// Attribute declarations.
        attrs: Vec<AttrDecl>,
        /// Binding-pattern declarations.
        bindings: Vec<BindingDecl>,
        /// Infinite XD-Relation marker.
        stream: bool,
    },
    /// `INSERT INTO name VALUES (…), (…);`
    Insert {
        /// Target relation.
        relation: String,
        /// Tuples of literals, typed against the relation's schema by
        /// [`crate::resolve::resolve_tuple`].
        tuples: Vec<Vec<Value>>,
    },
    /// `DELETE FROM name VALUES (…);`
    Delete {
        /// Target relation.
        relation: String,
        /// Tuples of literals, typed against the relation's schema by
        /// [`crate::resolve::resolve_tuple`].
        tuples: Vec<Vec<Value>>,
    },
    /// `DROP RELATION name;`
    DropRelation {
        /// Relation to drop.
        name: String,
    },
    /// `REGISTER QUERY name AS <expr>;` — continuous registration (§5.1).
    RegisterQuery {
        /// Query name.
        name: String,
        /// The algebra expression.
        plan: Plan,
    },
    /// `UNREGISTER QUERY name;` — stop and remove a continuous query.
    UnregisterQuery {
        /// Query name.
        name: String,
    },
    /// `EXECUTE <expr>;` — one-shot evaluation.
    Execute {
        /// The algebra expression.
        plan: Plan,
    },
}
