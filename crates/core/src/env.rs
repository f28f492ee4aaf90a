//! Relational pervasive environments (§2.3.2, Definition 5/6 region).
//!
//! A relational pervasive environment is a set of named X-Relations,
//! "similarly to the notion of database representing a set of relations",
//! together with the declared prototypes. The paper keeps the Universal
//! Relation Schema Assumption (URSA): if an attribute appears in several
//! relation schemas it denotes the same data — we enforce the checkable
//! fragment (same name ⇒ same declared type).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::attr::AttrName;
use crate::error::SchemaError;
use crate::prototype::Prototype;
use crate::value::DataType;
use crate::xrelation::XRelation;

/// A relational pervasive environment: named X-Relations + declared
/// prototypes. A relation is held by `Arc`, so an environment can share one
/// with whoever built it (a table's instant, handed to every statement
/// between two writes); nothing here can write into a relation once defined.
#[derive(Default, Clone)]
pub struct Environment {
    relations: BTreeMap<String, Arc<XRelation>>,
    prototypes: BTreeMap<String, Arc<Prototype>>,
    /// URSA ledger: attribute name → type first seen with.
    attr_types: BTreeMap<AttrName, DataType>,
}

impl Environment {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a prototype. Binding patterns inside relation schemas may
    /// reference prototypes without prior declaration (they carry their own
    /// `Arc<Prototype>`), but a declared catalog is what the DDL layer and
    /// discovery queries enumerate.
    pub fn declare_prototype(&mut self, p: Arc<Prototype>) -> Result<(), SchemaError> {
        if self.prototypes.contains_key(p.name()) {
            return Err(SchemaError::DuplicatePrototype(p.name().to_string()));
        }
        // URSA also covers prototype parameters.
        for (name, ty) in p.input().attrs().chain(p.output().attrs()) {
            self.check_ursa(name, *ty)?;
        }
        for (name, ty) in p.input().attrs().chain(p.output().attrs()) {
            self.attr_types.insert(name.clone(), *ty);
        }
        self.prototypes.insert(p.name().to_string(), p);
        Ok(())
    }

    /// Look up a declared prototype.
    pub fn prototype(&self, name: &str) -> Option<&Arc<Prototype>> {
        self.prototypes.get(name)
    }

    /// All declared prototypes (sorted by name).
    pub fn prototypes(&self) -> impl Iterator<Item = &Arc<Prototype>> {
        self.prototypes.values()
    }

    fn check_ursa(&self, attr: &AttrName, ty: DataType) -> Result<(), SchemaError> {
        if let Some(prev) = self.attr_types.get(attr) {
            if *prev != ty {
                return Err(SchemaError::UrsaViolation {
                    attr: attr.clone(),
                    first: *prev,
                    second: ty,
                });
            }
        }
        Ok(())
    }

    /// Define a named X-Relation, owned or shared. Enforces name uniqueness
    /// and URSA.
    pub fn define_relation(
        &mut self,
        name: impl Into<String>,
        relation: impl Into<Arc<XRelation>>,
    ) -> Result<(), SchemaError> {
        let (name, relation) = (name.into(), relation.into());
        if self.relations.contains_key(&name) {
            return Err(SchemaError::DuplicateRelation(name));
        }
        for a in relation.schema().attrs() {
            self.check_ursa(&a.name, a.ty)?;
        }
        for a in relation.schema().attrs() {
            self.attr_types.insert(a.name.clone(), a.ty);
        }
        self.relations.insert(name, relation);
        Ok(())
    }

    /// Remove a relation. Returns it if present.
    pub fn drop_relation(&mut self, name: &str) -> Option<Arc<XRelation>> {
        self.relations.remove(name)
    }

    /// Look up a relation.
    pub fn relation(&self, name: &str) -> Option<&XRelation> {
        self.relations.get(name).map(|r| &**r)
    }

    /// Iterate `(name, relation)` sorted by name.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &XRelation)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), &**r))
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True iff no relations are defined.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

impl std::fmt::Debug for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Environment({} relations: {:?}; {} prototypes: {:?})",
            self.relations.len(),
            self.relations.keys().collect::<Vec<_>>(),
            self.prototypes.len(),
            self.prototypes.keys().collect::<Vec<_>>()
        )
    }
}

/// The full running-example environment (Tables 1–2 + §1.2 sensor table).
pub mod examples {
    use super::*;
    use crate::prototype::examples as protos;
    use crate::xrelation::examples as rels;

    /// Environment with the 4 prototypes of Table 1 and the three example
    /// X-Relations (`contacts`, `cameras`, `sensors`).
    pub fn example_environment() -> Environment {
        let fixture = "example environment is statically valid";
        let mut env = Environment::new();
        env.declare_prototype(protos::send_message())
            .expect(fixture);
        env.declare_prototype(protos::check_photo()).expect(fixture);
        env.declare_prototype(protos::take_photo()).expect(fixture);
        env.declare_prototype(protos::get_temperature())
            .expect(fixture);
        env.define_relation("contacts", rels::contacts())
            .expect(fixture);
        env.define_relation("cameras", rels::cameras())
            .expect(fixture);
        env.define_relation("sensors", rels::sensors())
            .expect(fixture);
        env
    }
}

#[cfg(test)]
mod tests {
    use super::examples::example_environment;
    use super::*;
    use crate::prototype::examples as protos;
    use crate::schema::XSchema;

    #[test]
    fn example_environment_is_complete() {
        let env = example_environment();
        assert_eq!(env.len(), 3);
        assert_eq!(env.prototypes().count(), 4);
        assert!(env.relation("contacts").is_some());
        assert!(env.prototype("sendMessage").is_some());
        assert!(env.prototype("nope").is_none());
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut env = example_environment();
        let err = env
            .define_relation("contacts", crate::xrelation::examples::contacts())
            .unwrap_err();
        assert!(matches!(err, SchemaError::DuplicateRelation(_)));
    }

    #[test]
    fn duplicate_prototype_rejected() {
        let mut env = example_environment();
        let err = env.declare_prototype(protos::send_message()).unwrap_err();
        assert!(matches!(err, SchemaError::DuplicatePrototype(_)));
    }

    #[test]
    fn ursa_violation_detected() {
        let mut env = example_environment();
        // `temperature` is REAL everywhere; try to define it as INTEGER.
        let bad = XSchema::builder()
            .real("temperature", crate::value::DataType::Int)
            .build()
            .unwrap();
        let err = env
            .define_relation("bad", XRelation::empty(bad))
            .unwrap_err();
        assert!(matches!(err, SchemaError::UrsaViolation { .. }));
    }

    #[test]
    fn ursa_allows_consistent_reuse() {
        let mut env = example_environment();
        // `area` STRING appears in cameras; reusing it as STRING is fine.
        let ok = XSchema::builder()
            .real("area", crate::value::DataType::Str)
            .real("manager", crate::value::DataType::Str)
            .build()
            .unwrap();
        env.define_relation("surveillance", XRelation::empty(ok))
            .unwrap();
    }

    #[test]
    fn a_shared_relation_is_defined_without_a_copy() {
        let shared = Arc::new(crate::xrelation::examples::contacts());
        let mut env = Environment::new();
        env.define_relation("contacts", Arc::clone(&shared))
            .unwrap();
        assert!(std::ptr::eq(env.relation("contacts").unwrap(), &*shared));
        // a copy of the environment shares it too
        let copy = env.clone();
        assert!(std::ptr::eq(copy.relation("contacts").unwrap(), &*shared));

        let dropped = env.drop_relation("contacts").unwrap();
        assert!(Arc::ptr_eq(&dropped, &shared));
        assert!(env.relation("contacts").is_none());
        assert!(env.drop_relation("contacts").is_none());
    }
}
