//! Extended relation schemas (Definition 2) and the δ projection mapping
//! (Definition 4).
//!
//! An extended relation schema partitions its attributes into a *real*
//! schema and a *virtual* schema and carries a finite set of binding
//! patterns. Tuples over the schema store coordinates for real attributes
//! only; `δ_R(i)` maps the i-th attribute of the full schema to its
//! coordinate among the real attributes.
//!
//! Standard relation schemas are the special case with no virtual
//! attributes and no binding patterns (§2.3.2).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::attr::AttrName;
use crate::binding::BindingPattern;
use crate::error::SchemaError;
use crate::tuple::Tuple;
use crate::value::DataType;

/// Real/virtual status of an attribute (the partition of Definition 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// Member of `realSchema(R)`: has a coordinate in every tuple.
    Real,
    /// Member of `virtualSchema(R)`: declared at schema level only.
    Virtual,
}

/// One attribute of an extended relation schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name (`attr_R(i)`).
    pub name: AttrName,
    /// Declared data type.
    pub ty: DataType,
    /// Real/virtual status.
    pub kind: AttrKind,
}

impl Attribute {
    /// A real attribute.
    pub fn real(name: impl Into<AttrName>, ty: DataType) -> Self {
        Attribute {
            name: name.into(),
            ty,
            kind: AttrKind::Real,
        }
    }

    /// A virtual attribute.
    pub fn virt(name: impl Into<AttrName>, ty: DataType) -> Self {
        Attribute {
            name: name.into(),
            ty,
            kind: AttrKind::Virtual,
        }
    }

    /// Whether this attribute is real.
    pub fn is_real(&self) -> bool {
        self.kind == AttrKind::Real
    }
}

/// Shared handle to an extended relation schema.
pub type SchemaRef = Arc<XSchema>;

/// An extended relation schema (Definition 2).
///
/// Construct via [`XSchema::builder`] or [`XSchema::from_attrs`]; both
/// enforce attribute-name injectivity and binding-pattern validity.
#[derive(Clone, PartialEq, Eq)]
pub struct XSchema {
    attrs: Vec<Attribute>,
    bps: Vec<BindingPattern>,
    /// `delta[i]` = coordinate of attribute `i` among real attributes, i.e.
    /// the paper's `δ_R(i+1) - 1`, or `None` for virtual attributes.
    delta: Vec<Option<usize>>,
    real_count: usize,
}

impl XSchema {
    /// Start building a schema.
    pub fn builder() -> XSchemaBuilder {
        XSchemaBuilder::default()
    }

    /// Build directly from attribute and binding-pattern lists, validating
    /// all Definition 2 constraints.
    pub fn from_attrs(
        attrs: Vec<Attribute>,
        bps: Vec<BindingPattern>,
    ) -> Result<SchemaRef, SchemaError> {
        // attr_R must be injective.
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(SchemaError::DuplicateAttribute(a.name.clone()));
            }
        }
        let mut delta = Vec::with_capacity(attrs.len());
        let mut real_count = 0usize;
        for a in &attrs {
            if a.is_real() {
                delta.push(Some(real_count));
                real_count += 1;
            } else {
                delta.push(None);
            }
        }
        let schema = XSchema {
            attrs,
            bps: Vec::new(),
            delta,
            real_count,
        };
        // Validate binding patterns against the finished attribute layout.
        let mut validated = Vec::with_capacity(bps.len());
        for bp in bps {
            schema.check_binding_pattern(&bp)?;
            // Deduplicate (BP(R) is a set).
            if !validated.contains(&bp) {
                validated.push(bp);
            }
        }
        Ok(Arc::new(XSchema {
            bps: validated,
            ..schema
        }))
    }

    /// Validate one binding pattern against this schema's layout
    /// (Definition 2 restrictions plus type agreement).
    fn check_binding_pattern(&self, bp: &BindingPattern) -> Result<(), SchemaError> {
        let proto = bp.prototype();
        let pname = proto.name().to_string();
        // service_bp ∈ realSchema(R), with a service-capable type.
        match self.attr_by_name(bp.service_attr().as_str()) {
            Some(a) if a.is_real() && a.ty.can_reference_service() => {}
            _ => {
                return Err(SchemaError::ServiceAttrNotReal {
                    prototype: pname,
                    attr: bp.service_attr().clone(),
                })
            }
        }
        // schema(Input_ψ) ⊆ schema(R), types agree.
        for (name, ty) in proto.input().attrs() {
            match self.attr_by_name(name.as_str()) {
                None => {
                    return Err(SchemaError::InputAttrMissing {
                        prototype: pname,
                        attr: name.clone(),
                    })
                }
                Some(a) if a.ty != *ty => {
                    return Err(SchemaError::TypeMismatch {
                        attr: name.clone(),
                        expected: *ty,
                        found: a.ty,
                    })
                }
                Some(_) => {}
            }
        }
        // schema(Output_ψ) ⊆ virtualSchema(R), types agree.
        for (name, ty) in proto.output().attrs() {
            match self.attr_by_name(name.as_str()) {
                Some(a) if !a.is_real() => {
                    if a.ty != *ty {
                        return Err(SchemaError::TypeMismatch {
                            attr: name.clone(),
                            expected: *ty,
                            found: a.ty,
                        });
                    }
                }
                _ => {
                    return Err(SchemaError::OutputAttrNotVirtual {
                        prototype: pname,
                        attr: name.clone(),
                    })
                }
            }
        }
        Ok(())
    }

    /// `type(R)`: total number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Number of real attributes, i.e. the tuple arity (Definition 3).
    pub fn real_arity(&self) -> usize {
        self.real_count
    }

    /// Attributes in declaration order (`attr_R`).
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Attribute at 0-based position `i`.
    pub fn attr(&self, i: usize) -> Option<&Attribute> {
        self.attrs.get(i)
    }

    /// Look up an attribute by name.
    pub fn attr_by_name(&self, name: &str) -> Option<&Attribute> {
        self.attrs.iter().find(|a| a.name.as_str() == name)
    }

    /// 0-based position of `name` in the full schema.
    fn position_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name.as_str() == name)
    }

    /// `schema(R)` as an ordered name set.
    pub fn names(&self) -> impl Iterator<Item = &AttrName> {
        self.attrs.iter().map(|a| &a.name)
    }

    /// `realSchema(R)` in declaration order.
    pub fn real_names(&self) -> impl Iterator<Item = &AttrName> {
        self.attrs.iter().filter(|a| a.is_real()).map(|a| &a.name)
    }

    /// `virtualSchema(R)` in declaration order.
    pub fn virtual_names(&self) -> impl Iterator<Item = &AttrName> {
        self.attrs.iter().filter(|a| !a.is_real()).map(|a| &a.name)
    }

    /// `schema(R)` as a `BTreeSet` for set-algebraic checks.
    pub fn name_set(&self) -> BTreeSet<&str> {
        self.names().map(|a| a.as_str()).collect()
    }

    /// `realSchema(R)` as a set.
    pub fn real_name_set(&self) -> BTreeSet<&str> {
        self.real_names().map(|a| a.as_str()).collect()
    }

    /// `virtualSchema(R)` as a set.
    pub fn virtual_name_set(&self) -> BTreeSet<&str> {
        self.virtual_names().map(|a| a.as_str()).collect()
    }

    /// Whether `name` belongs to `schema(R)`.
    pub fn contains(&self, name: &str) -> bool {
        self.attr_by_name(name).is_some()
    }

    /// Whether `name` belongs to `realSchema(R)`.
    pub fn is_real(&self, name: &str) -> bool {
        self.attr_by_name(name).is_some_and(|a| a.is_real())
    }

    /// Whether `name` belongs to `virtualSchema(R)`.
    pub fn is_virtual(&self, name: &str) -> bool {
        self.attr_by_name(name).is_some_and(|a| !a.is_real())
    }

    /// Declared type of `name`.
    pub fn type_of(&self, name: &str) -> Option<DataType> {
        self.attr_by_name(name).map(|a| a.ty)
    }

    /// The paper's `δ_R`: coordinate (0-based) of the attribute at 0-based
    /// position `i` within tuples; `None` if the attribute is virtual.
    pub fn delta(&self, i: usize) -> Option<usize> {
        self.delta.get(i).copied().flatten()
    }

    /// Tuple coordinate of the real attribute `name` (Definition 4).
    pub fn coord_of(&self, name: &str) -> Option<usize> {
        let i = self.position_of(name)?;
        self.delta(i)
    }

    /// Tuple coordinates for a list of real attributes, for use with
    /// [`Tuple::project_positions`]. Returns `None` if any attribute is
    /// missing or virtual (tuples cannot be projected onto virtual
    /// attributes, Definition 4).
    pub fn coords_of<'a, I>(&self, names: I) -> Option<Vec<usize>>
    where
        I: IntoIterator<Item = &'a str>,
    {
        names.into_iter().map(|n| self.coord_of(n)).collect()
    }

    /// Project a tuple onto one real attribute (`t[A]`).
    pub fn project_tuple_attr(&self, t: &Tuple, name: &str) -> Option<crate::value::Value> {
        self.coord_of(name).and_then(|c| t.get(c).cloned())
    }

    /// `BP(R)`.
    pub fn binding_patterns(&self) -> &[BindingPattern] {
        &self.bps
    }

    /// Find a binding pattern by prototype name *and* service attribute.
    pub fn find_bp_exact(&self, prototype: &str, service_attr: &str) -> Option<&BindingPattern> {
        self.bps.iter().find(|bp| {
            bp.prototype().name() == prototype && bp.service_attr().as_str() == service_attr
        })
    }

    /// Check a tuple against this schema: right arity, each coordinate
    /// conforms to the declared type of the corresponding real attribute.
    /// Returns a human-readable description of the first violation.
    pub fn check_tuple(&self, t: &Tuple) -> Result<(), String> {
        if t.arity() != self.real_count {
            return Err(format!(
                "arity mismatch: tuple has {} coordinates, realSchema has {}",
                t.arity(),
                self.real_count
            ));
        }
        for a in self.attrs.iter().filter(|a| a.is_real()) {
            let c = self.coord_of(a.name.as_str()).expect("real attr has coord");
            let v = &t[c];
            if !v.conforms_to(a.ty) {
                return Err(format!(
                    "attribute `{}`: expected {}, got {} ({v})",
                    a.name,
                    a.ty,
                    v.data_type()
                ));
            }
        }
        Ok(())
    }

    /// Set-operator compatibility (§3.1.1): same attribute set with
    /// identical types and real/virtual status, and the same binding-pattern
    /// set. Attribute *order* may differ; use [`XSchema::reorder_map`] to
    /// permute tuples of `other` into this schema's coordinate order.
    pub fn compatible_with(&self, other: &XSchema) -> bool {
        if self.attrs.len() != other.attrs.len() || self.bps.len() != other.bps.len() {
            return false;
        }
        for a in &self.attrs {
            match other.attr_by_name(a.name.as_str()) {
                Some(b) if b.ty == a.ty && b.kind == a.kind => {}
                _ => return false,
            }
        }
        self.bps.iter().all(|bp| other.bps.contains(bp))
    }

    /// For `other` compatible with `self`: coordinates in `other`'s tuples,
    /// listed in `self`'s real-attribute order, so that
    /// `t.project_positions(&map)` re-expresses `other`'s tuples over `self`.
    pub fn reorder_map(&self, other: &XSchema) -> Option<Vec<usize>> {
        self.attrs
            .iter()
            .filter(|a| a.is_real())
            .map(|a| other.coord_of(a.name.as_str()))
            .collect()
    }

    /// Whether this is a *standard* relation schema (no virtual attributes,
    /// no binding patterns) — the degenerate case of §2.3.2.
    pub fn is_standard(&self) -> bool {
        self.real_count == self.attrs.len() && self.bps.is_empty()
    }

    /// Render as the paper's pseudo-DDL (Table 2), given a relation name.
    pub fn to_ddl(&self, name: &str) -> String {
        let mut out = format!("EXTENDED RELATION {name} (\n");
        for (i, a) in self.attrs.iter().enumerate() {
            let virt = if a.is_real() { "" } else { " VIRTUAL" };
            let comma = if i + 1 < self.attrs.len() { "," } else { "" };
            out.push_str(&format!("  {} {}{}{}\n", a.name, a.ty, virt, comma));
        }
        out.push(')');
        if !self.bps.is_empty() {
            out.push_str("\nUSING BINDING PATTERNS (\n");
            for (i, bp) in self.bps.iter().enumerate() {
                let comma = if i + 1 < self.bps.len() { "," } else { "" };
                out.push_str(&format!("  {}{}\n", bp.to_ddl(), comma));
            }
            out.push(')');
        }
        out.push(';');
        out
    }
}

impl fmt::Debug for XSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}{}", a.name, if a.is_real() { "" } else { "*" })?;
        }
        write!(f, "}}")?;
        if !self.bps.is_empty() {
            write!(f, " BP{:?}", self.bps)?;
        }
        Ok(())
    }
}

/// Fluent builder for [`XSchema`].
#[derive(Default)]
pub struct XSchemaBuilder {
    attrs: Vec<Attribute>,
    bps: Vec<BindingPattern>,
}

impl XSchemaBuilder {
    /// Append a real attribute.
    pub fn real(mut self, name: impl Into<AttrName>, ty: DataType) -> Self {
        self.attrs.push(Attribute::real(name, ty));
        self
    }

    /// Append a virtual attribute.
    pub fn virt(mut self, name: impl Into<AttrName>, ty: DataType) -> Self {
        self.attrs.push(Attribute::virt(name, ty));
        self
    }

    /// Attach a binding pattern.
    pub fn binding(mut self, bp: BindingPattern) -> Self {
        self.bps.push(bp);
        self
    }

    /// Attach a binding pattern built from a prototype + service attribute.
    pub fn bind(
        self,
        prototype: Arc<crate::prototype::Prototype>,
        service_attr: impl Into<AttrName>,
    ) -> Self {
        self.binding(BindingPattern::new(prototype, service_attr))
    }

    /// Validate and build.
    pub fn build(self) -> Result<SchemaRef, SchemaError> {
        XSchema::from_attrs(self.attrs, self.bps)
    }
}

/// The running example's schemas (Table 2), shared by tests/examples/benches.
pub mod examples {
    use super::*;
    use crate::prototype::examples as protos;

    /// `EXTENDED RELATION contacts` from Table 2.
    pub fn contacts_schema() -> SchemaRef {
        XSchema::builder()
            .real("name", DataType::Str)
            .real("address", DataType::Str)
            .virt("text", DataType::Str)
            .real("messenger", DataType::Service)
            .virt("sent", DataType::Bool)
            .bind(protos::send_message(), "messenger")
            .build()
            .expect("contacts schema is valid")
    }

    /// `EXTENDED RELATION cameras` from Table 2.
    pub fn cameras_schema() -> SchemaRef {
        XSchema::builder()
            .real("camera", DataType::Service)
            .real("area", DataType::Str)
            .virt("quality", DataType::Int)
            .virt("delay", DataType::Real)
            .virt("photo", DataType::Blob)
            .bind(protos::check_photo(), "camera")
            .bind(protos::take_photo(), "camera")
            .build()
            .expect("cameras schema is valid")
    }

    /// The temperature-sensor table from §1.2 (sensor, location,
    /// temperature*) with `getTemperature[sensor]`.
    pub fn sensors_schema() -> SchemaRef {
        XSchema::builder()
            .real("sensor", DataType::Service)
            .real("location", DataType::Str)
            .virt("temperature", DataType::Real)
            .bind(protos::get_temperature(), "sensor")
            .build()
            .expect("sensors schema is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::examples::*;
    use super::*;
    use crate::binding::BindingPattern;
    use crate::prototype::examples as protos;
    use crate::tuple;

    #[test]
    fn contacts_partition_matches_example_4() {
        let s = contacts_schema();
        assert_eq!(s.arity(), 5);
        assert_eq!(s.real_arity(), 3);
        assert_eq!(
            s.real_name_set().into_iter().collect::<Vec<_>>(),
            vec!["address", "messenger", "name"]
        );
        assert_eq!(
            s.virtual_name_set().into_iter().collect::<Vec<_>>(),
            vec!["sent", "text"]
        );
        assert_eq!(s.binding_patterns().len(), 1);
        assert_eq!(s.binding_patterns()[0].key(), "sendMessage[messenger]");
    }

    #[test]
    fn delta_mapping_matches_example_4() {
        let s = contacts_schema();
        // attrs: name(1,real) address(2,real) text(3,virt) messenger(4,real) sent(5,virt)
        // δ(4) = 3 in 1-based paper terms → coord 2 in 0-based terms.
        assert_eq!(s.delta(0), Some(0));
        assert_eq!(s.delta(1), Some(1));
        assert_eq!(s.delta(2), None);
        assert_eq!(s.delta(3), Some(2));
        assert_eq!(s.delta(4), None);
        assert_eq!(s.coord_of("messenger"), Some(2));
        assert_eq!(s.coord_of("text"), None);
    }

    #[test]
    fn tuple_projection_matches_example_4() {
        let s = contacts_schema();
        let t = tuple!["Nicolas", "nicolas@elysee.fr", "email"];
        assert_eq!(
            s.project_tuple_attr(&t, "messenger"),
            Some(crate::value::Value::str("email"))
        );
        let coords = s.coords_of(["address", "messenger"]).unwrap();
        assert_eq!(
            t.project_positions(&coords),
            tuple!["nicolas@elysee.fr", "email"]
        );
    }

    #[test]
    fn bp_requires_real_service_attr() {
        // service attribute virtual → rejected
        let err = XSchema::builder()
            .virt("messenger", DataType::Service)
            .real("address", DataType::Str)
            .virt("text", DataType::Str)
            .virt("sent", DataType::Bool)
            .bind(protos::send_message(), "messenger")
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::ServiceAttrNotReal { .. }));
    }

    #[test]
    fn bp_requires_output_virtual() {
        // `sent` real → output not virtual → rejected
        let err = XSchema::builder()
            .real("messenger", DataType::Service)
            .real("address", DataType::Str)
            .virt("text", DataType::Str)
            .real("sent", DataType::Bool)
            .bind(protos::send_message(), "messenger")
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::OutputAttrNotVirtual { .. }));
    }

    #[test]
    fn bp_requires_input_present() {
        // missing `address` → input attr missing
        let err = XSchema::builder()
            .real("messenger", DataType::Service)
            .virt("text", DataType::Str)
            .virt("sent", DataType::Bool)
            .bind(protos::send_message(), "messenger")
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::InputAttrMissing { .. }));
    }

    #[test]
    fn bp_type_agreement_enforced() {
        // `text` declared INTEGER but prototype says STRING
        let err = XSchema::builder()
            .real("messenger", DataType::Service)
            .real("address", DataType::Str)
            .virt("text", DataType::Int)
            .virt("sent", DataType::Bool)
            .bind(protos::send_message(), "messenger")
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::TypeMismatch { .. }));
    }

    #[test]
    fn duplicate_attributes_rejected() {
        let err = XSchema::builder()
            .real("a", DataType::Int)
            .virt("a", DataType::Int)
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::DuplicateAttribute(_)));
    }

    #[test]
    fn duplicate_bps_deduplicated() {
        let s = XSchema::builder()
            .real("sensor", DataType::Service)
            .virt("temperature", DataType::Real)
            .bind(protos::get_temperature(), "sensor")
            .bind(protos::get_temperature(), "sensor")
            .build()
            .unwrap();
        assert_eq!(s.binding_patterns().len(), 1);
    }

    #[test]
    fn check_tuple_arity_and_types() {
        let s = contacts_schema();
        assert!(s.check_tuple(&tuple!["Nicolas", "n@e.fr", "email"]).is_ok());
        assert!(s.check_tuple(&tuple!["Nicolas", "n@e.fr"]).is_err());
        assert!(s.check_tuple(&tuple!["Nicolas", "n@e.fr", true]).is_err());
    }

    #[test]
    fn compatibility_is_order_insensitive() {
        let a = XSchema::builder()
            .real("x", DataType::Int)
            .real("y", DataType::Str)
            .build()
            .unwrap();
        let b = XSchema::builder()
            .real("y", DataType::Str)
            .real("x", DataType::Int)
            .build()
            .unwrap();
        assert!(a.compatible_with(&b));
        let map = a.reorder_map(&b).unwrap();
        // b-tuples are (y, x); reordered into a's order (x, y) → [1, 0]
        assert_eq!(map, vec![1, 0]);
        let t = tuple!["hello", 7];
        assert_eq!(t.project_positions(&map), tuple![7, "hello"]);
    }

    #[test]
    fn incompatible_when_kinds_differ() {
        let a = XSchema::builder().real("x", DataType::Int).build().unwrap();
        let b = XSchema::builder().virt("x", DataType::Int).build().unwrap();
        assert!(!a.compatible_with(&b));
    }

    #[test]
    fn incompatible_when_bps_differ() {
        let a = sensors_schema();
        let b = XSchema::builder()
            .real("sensor", DataType::Service)
            .real("location", DataType::Str)
            .virt("temperature", DataType::Real)
            .build()
            .unwrap();
        assert!(!a.compatible_with(&b));
    }

    #[test]
    fn standard_schema_detection() {
        let std = XSchema::builder()
            .real("a", DataType::Int)
            .real("b", DataType::Str)
            .build()
            .unwrap();
        assert!(std.is_standard());
        assert!(!contacts_schema().is_standard());
    }

    #[test]
    fn ddl_rendering_matches_table_2_shape() {
        let ddl = contacts_schema().to_ddl("contacts");
        assert!(ddl.starts_with("EXTENDED RELATION contacts ("));
        assert!(ddl.contains("text STRING VIRTUAL,"));
        assert!(ddl.contains("messenger SERVICE,"));
        assert!(ddl.contains("USING BINDING PATTERNS ("));
        assert!(ddl.contains("sendMessage[messenger] ( address, text ) : ( sent )"));
        assert!(ddl.ends_with(");"));
    }

    #[test]
    fn cameras_schema_has_two_bps() {
        let s = cameras_schema();
        assert_eq!(s.binding_patterns().len(), 2);
        assert!(s.find_bp_exact("checkPhoto", "camera").is_some());
        assert!(s.find_bp_exact("takePhoto", "camera").is_some());
        assert!(s.find_bp_exact("takePhoto", "webcam").is_none());
    }

    #[test]
    fn service_ref_via_string_attr_allowed() {
        // §2.2: service references are classical data values — a STRING
        // attribute may serve as service reference.
        let s = XSchema::builder()
            .real("sensor", DataType::Str)
            .virt("temperature", DataType::Real)
            .bind(protos::get_temperature(), "sensor")
            .build();
        assert!(s.is_ok());
    }

    #[test]
    fn service_ref_via_real_typed_attr_rejected() {
        let bp = BindingPattern::new(protos::get_temperature(), "sensor");
        let err = XSchema::from_attrs(
            vec![
                Attribute::real("sensor", DataType::Real),
                Attribute::virt("temperature", DataType::Real),
            ],
            vec![bp],
        )
        .unwrap_err();
        assert!(matches!(err, SchemaError::ServiceAttrNotReal { .. }));
    }
}
