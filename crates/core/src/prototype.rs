//! Prototypes: declarations of distributed functionalities (§2.1, §2.3.1).
//!
//! A prototype `ψ ∈ P` is declared by two disjoint *plain* relation schemas
//! — `Input_ψ` and `Output_ψ` (the latter non-empty) — and an active/passive
//! tag. Services *implement* prototypes; the algebra only ever manipulates
//! prototypes, never concrete methods (§2.1: "methods provided by services
//! may remain implicit and can be safely hidden").

use std::fmt;
use std::sync::Arc;

use crate::attr::AttrName;
use crate::error::SchemaError;
use crate::value::DataType;

/// A *plain* relation schema: an ordered list of typed attributes with
/// injective names (§2.3.1 preliminaries). Used for prototype input/output
/// schemas; extended relation schemas live in [`crate::schema`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RelationSchema {
    attrs: Arc<[(AttrName, DataType)]>,
}

impl RelationSchema {
    /// Build a schema, checking name injectivity.
    pub fn new(attrs: impl IntoIterator<Item = (AttrName, DataType)>) -> Result<Self, SchemaError> {
        let attrs: Vec<_> = attrs.into_iter().collect();
        for (i, (a, _)) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|(b, _)| b == a) {
                return Err(SchemaError::DuplicateAttribute(a.clone()));
            }
        }
        Ok(RelationSchema {
            attrs: attrs.into(),
        })
    }

    /// The empty schema (`D^0`), legal for prototype inputs such as
    /// `getTemperature()`.
    pub fn empty() -> Self {
        RelationSchema {
            attrs: Arc::from(Vec::new()),
        }
    }

    /// Number of attributes (`type(R)`).
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// True iff the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Attributes in declaration order.
    pub fn attrs(&self) -> impl Iterator<Item = &(AttrName, DataType)> {
        self.attrs.iter()
    }

    /// Attribute names in declaration order.
    pub fn names(&self) -> impl Iterator<Item = &AttrName> {
        self.attrs.iter().map(|(a, _)| a)
    }

    /// Position of `name`, if present (0-based).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|(a, _)| a.as_str() == name)
    }

    /// Whether `name` is an attribute of this schema.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// Type of attribute `name`.
    pub fn type_of(&self, name: &str) -> Option<DataType> {
        self.attrs
            .iter()
            .find(|(a, _)| a.as_str() == name)
            .map(|(_, t)| *t)
    }
}

impl fmt::Debug for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (a, t)) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a} {t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A prototype `ψ ∈ P` (§2.3.1).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Prototype {
    /// Shared, so a per-call key naming the prototype (the β dedup memo's)
    /// clones a handle instead of the text.
    name: Arc<str>,
    input: RelationSchema,
    output: RelationSchema,
    active: bool,
}

impl Prototype {
    /// Declare a prototype, enforcing the paper's constraints:
    /// `schema(Output_ψ) ≠ ∅` and `schema(Input_ψ) ∩ schema(Output_ψ) = ∅`.
    pub fn new(
        name: impl Into<String>,
        input: RelationSchema,
        output: RelationSchema,
        active: bool,
    ) -> Result<Arc<Self>, SchemaError> {
        let name = name.into();
        if output.is_empty() {
            return Err(SchemaError::EmptyPrototypeOutput { prototype: name });
        }
        if let Some(a) = input.names().find(|a| output.contains(a.as_str())) {
            return Err(SchemaError::PrototypeInputOutputOverlap {
                prototype: name,
                attr: a.clone(),
            });
        }
        Ok(Arc::new(Prototype {
            name: name.into(),
            input,
            output,
            active,
        }))
    }

    /// Convenience builder from `(name, type)` pairs.
    pub fn declare(
        name: &str,
        input: &[(&str, DataType)],
        output: &[(&str, DataType)],
        active: bool,
    ) -> Result<Arc<Self>, SchemaError> {
        let mk = |xs: &[(&str, DataType)]| {
            RelationSchema::new(xs.iter().map(|(a, t)| (AttrName::new(a), *t)))
        };
        Prototype::new(name, mk(input)?, mk(output)?, active)
    }

    /// Prototype name.
    pub fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// `Input_ψ`.
    pub fn input(&self) -> &RelationSchema {
        &self.input
    }

    /// `Output_ψ`.
    pub fn output(&self) -> &RelationSchema {
        &self.output
    }

    /// `active(ψ)` — whether invocations have a non-negligible side effect
    /// on the physical environment (§2.1).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Render as the paper's pseudo-DDL (Table 1).
    pub fn to_ddl(&self) -> String {
        let fmt_schema = |s: &RelationSchema| {
            s.attrs()
                .map(|(a, t)| format!("{a} {t}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "PROTOTYPE {}( {} ) : ( {} ){};",
            self.name,
            fmt_schema(&self.input),
            fmt_schema(&self.output),
            if self.active { " ACTIVE" } else { "" }
        )
    }
}

impl fmt::Debug for Prototype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{} : {}",
            self.name,
            self.input,
            if self.active { " [active]" } else { "" },
            self.output
        )
    }
}

impl fmt::Display for Prototype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// The four prototypes of the paper's running example (Table 1), used
/// throughout unit tests, examples and benchmarks.
pub mod examples {
    use super::*;

    /// `PROTOTYPE sendMessage(address STRING, text STRING) : (sent BOOLEAN) ACTIVE;`
    pub fn send_message() -> Arc<Prototype> {
        Prototype::declare(
            "sendMessage",
            &[("address", DataType::Str), ("text", DataType::Str)],
            &[("sent", DataType::Bool)],
            true,
        )
        .expect("valid prototype")
    }

    /// `PROTOTYPE checkPhoto(area STRING) : (quality INTEGER, delay REAL);`
    pub fn check_photo() -> Arc<Prototype> {
        Prototype::declare(
            "checkPhoto",
            &[("area", DataType::Str)],
            &[("quality", DataType::Int), ("delay", DataType::Real)],
            false,
        )
        .expect("valid prototype")
    }

    /// `PROTOTYPE takePhoto(area STRING, quality INTEGER) : (photo BLOB);`
    pub fn take_photo() -> Arc<Prototype> {
        Prototype::declare(
            "takePhoto",
            &[("area", DataType::Str), ("quality", DataType::Int)],
            &[("photo", DataType::Blob)],
            false,
        )
        .expect("valid prototype")
    }

    /// `PROTOTYPE getTemperature() : (temperature REAL);`
    pub fn get_temperature() -> Arc<Prototype> {
        Prototype::declare(
            "getTemperature",
            &[],
            &[("temperature", DataType::Real)],
            false,
        )
        .expect("valid prototype")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_schema_rejects_duplicates() {
        let err = RelationSchema::new(vec![
            (AttrName::new("a"), DataType::Int),
            (AttrName::new("a"), DataType::Str),
        ])
        .unwrap_err();
        assert_eq!(err, SchemaError::DuplicateAttribute(AttrName::new("a")));
    }

    #[test]
    fn relation_schema_lookup() {
        let s = RelationSchema::new(vec![
            (AttrName::new("x"), DataType::Int),
            (AttrName::new("y"), DataType::Real),
        ])
        .unwrap();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.index_of("y"), Some(1));
        assert_eq!(s.type_of("x"), Some(DataType::Int));
        assert!(!s.contains("z"));
    }

    #[test]
    fn prototype_requires_nonempty_output() {
        let err = Prototype::declare("nop", &[("a", DataType::Int)], &[], false).unwrap_err();
        assert!(matches!(err, SchemaError::EmptyPrototypeOutput { .. }));
    }

    #[test]
    fn prototype_rejects_input_output_overlap() {
        let err = Prototype::declare(
            "echo",
            &[("x", DataType::Int)],
            &[("x", DataType::Int)],
            false,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SchemaError::PrototypeInputOutputOverlap { .. }
        ));
    }

    #[test]
    fn empty_input_is_allowed() {
        let p = examples::get_temperature();
        assert!(p.input().is_empty());
        assert_eq!(p.output().arity(), 1);
        assert!(!p.is_active());
    }

    #[test]
    fn ddl_round_trip_text_matches_table_1() {
        assert_eq!(
            examples::send_message().to_ddl(),
            "PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;"
        );
        assert_eq!(
            examples::get_temperature().to_ddl(),
            "PROTOTYPE getTemperature(  ) : ( temperature REAL );"
        );
    }
}
