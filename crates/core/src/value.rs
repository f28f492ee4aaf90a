//! Constants (the countable set `D` of the paper, §2.3.1) and their types.
//!
//! The paper's pseudo-DDL (Tables 1 and 2) uses the types `STRING`,
//! `BOOLEAN`, `INTEGER`, `REAL`, `BLOB` and `SERVICE`. Service references
//! are "classical data values identifying services" (§2.2); we give them a
//! dedicated [`DataType::Service`] so DDL can declare them, but a service
//! reference value is just a [`Value::Str`]-like identifier wrapped in
//! [`ServiceRef`].
//!
//! `Value` implements total `Eq`/`Ord`/`Hash` (REAL values compare via IEEE
//! `total_cmp` and hash by bit pattern) so tuples can live in hash sets and
//! be joined/deduplicated — X-Relations are *sets* of tuples (Definition 3).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An immutable, cheaply clonable binary payload (BLOB values).
///
/// A thin wrapper over `Arc<[u8]>` providing the slice of the bytes via
/// [`Deref`](std::ops::Deref) — enough for the paper's photo payloads
/// without an external dependency.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// Copy a slice of bytes into a new payload.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Arc::from(data))
    }

    /// The payload as a byte slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.0.len())
    }
}

/// A reference identifying a service (`id(ω) ∈ D`, §2.3.1).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceRef(Arc<str>);

impl ServiceRef {
    /// Create a service reference from its identifier.
    pub fn new(id: impl AsRef<str>) -> Self {
        ServiceRef(Arc::from(id.as_ref()))
    }

    /// The identifier string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for ServiceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ServiceRef({})", self.as_str())
    }
}

impl fmt::Display for ServiceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&ServiceRef> for ServiceRef {
    fn from(r: &ServiceRef) -> Self {
        r.clone()
    }
}

impl From<&str> for ServiceRef {
    fn from(s: &str) -> Self {
        ServiceRef::new(s)
    }
}

impl From<String> for ServiceRef {
    fn from(s: String) -> Self {
        ServiceRef(Arc::from(s))
    }
}

/// Data types of attribute values, mirroring the paper's pseudo-DDL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataType {
    /// `BOOLEAN`
    Bool,
    /// `INTEGER` (64-bit signed)
    Int,
    /// `REAL` (IEEE-754 double)
    Real,
    /// `STRING`
    Str,
    /// `BLOB` (binary payloads, e.g. photos)
    Blob,
    /// `SERVICE` — a service reference attribute
    Service,
}

impl DataType {
    /// DDL keyword for this type.
    fn ddl_name(&self) -> &'static str {
        match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "INTEGER",
            DataType::Real => "REAL",
            DataType::Str => "STRING",
            DataType::Blob => "BLOB",
            DataType::Service => "SERVICE",
        }
    }

    /// Whether values of this type admit ordering comparisons (`<`, `<=`…).
    /// BLOBs are equality-only in selection formulas.
    pub fn is_ordered(&self) -> bool {
        !matches!(self, DataType::Blob)
    }

    /// Whether this type may carry a service reference for a binding
    /// pattern. The paper allows any "classical data value" (integers or
    /// strings, §2.2) as a service reference.
    pub fn can_reference_service(&self) -> bool {
        matches!(self, DataType::Service | DataType::Str | DataType::Int)
    }

    /// The neutral filler value of this type, used by
    /// [`DegradePolicy::NullFill`](crate::ops::DegradePolicy) when a failed
    /// β invocation is degraded into a placeholder output. The domain `D`
    /// has no NULL (the paper's `*` marks absent coordinates, not a null
    /// value), so degradation substitutes each type's zero value.
    pub fn default_value(&self) -> Value {
        match self {
            DataType::Bool => Value::Bool(false),
            DataType::Int => Value::Int(0),
            DataType::Real => Value::Real(0.0),
            DataType::Str => Value::str(""),
            DataType::Blob => Value::blob(Vec::new()),
            DataType::Service => Value::service(""),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.ddl_name())
    }
}

/// A constant from the domain `D`.
///
/// There is no NULL: the paper's `*` marks the *absence of a coordinate* for
/// virtual attributes (tuples simply do not store them), not a null value.
#[derive(Clone)]
pub enum Value {
    /// Boolean constant.
    Bool(bool),
    /// Integer constant.
    Int(i64),
    /// Real constant.
    Real(f64),
    /// String constant (cheaply clonable).
    Str(Arc<str>),
    /// Binary payload.
    Blob(Bytes),
    /// Service reference.
    Service(ServiceRef),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build a service-reference value.
    pub fn service(s: impl AsRef<str>) -> Self {
        Value::Service(ServiceRef::new(s))
    }

    /// Build a blob value.
    pub fn blob(b: impl Into<Bytes>) -> Self {
        Value::Blob(b.into())
    }

    /// The runtime type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Real(_) => DataType::Real,
            Value::Str(_) => DataType::Str,
            Value::Blob(_) => DataType::Blob,
            Value::Service(_) => DataType::Service,
        }
    }

    /// Whether this value is accepted for an attribute declared with `ty`.
    ///
    /// Exactly one coercion exists: a `Str` or `Int` value may populate a
    /// `SERVICE` attribute and vice versa a `Service` value may populate a
    /// `STRING` attribute — service references are classical data values
    /// (§2.2).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        let own = self.data_type();
        own == ty
            || (ty == DataType::Service && own.can_reference_service())
            || (own == DataType::Service && ty == DataType::Str)
    }

    /// Interpret this value as a service reference, if its type allows it.
    pub fn as_service_ref(&self) -> Option<ServiceRef> {
        match self {
            Value::Service(r) => Some(r.clone()),
            Value::Str(s) => Some(ServiceRef::new(&**s)),
            Value::Int(i) => Some(ServiceRef::new(i.to_string())),
            _ => None,
        }
    }

    /// Integer accessor.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Real accessor (integers widen to real).
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Service(r) => Some(r.as_str()),
            _ => None,
        }
    }

    /// Blob accessor.
    pub fn as_blob(&self) -> Option<&Bytes> {
        match self {
            Value::Blob(b) => Some(b),
            _ => None,
        }
    }

    /// Compare two values for selection formulas. Values of different types
    /// are comparable only through the Int↔Real widening and the
    /// Service↔Str identification; all other cross-type comparisons yield
    /// `None` (a formula type error surfaced earlier at validation time).
    pub fn partial_cmp_typed(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Real(a), Real(b)) => Some(a.total_cmp(b)),
            (Int(a), Real(b)) => Some((*a as f64).total_cmp(b)),
            (Real(a), Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Service(a), Service(b)) => Some(a.cmp(b)),
            (Str(a), Service(b)) => Some((**a).cmp(b.as_str())),
            (Service(a), Str(b)) => Some(a.as_str().cmp(&**b)),
            (Blob(a), Blob(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order across all values: first by a type rank, then by value.
    /// This is the *storage* order used for canonical tuple ordering and
    /// hashing; the *query* comparison semantics live in
    /// [`Value::partial_cmp_typed`].
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Bool(_) => 0,
                Value::Int(_) => 1,
                Value::Real(_) => 2,
                Value::Str(_) => 3,
                Value::Blob(_) => 4,
                Value::Service(_) => 5,
            }
        }
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Real(a), Real(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Blob(a), Blob(b)) => a.cmp(b),
            (Service(a), Service(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Bool(b) => {
                state.write_u8(0);
                b.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(1);
                i.hash(state);
            }
            Value::Real(r) => {
                state.write_u8(2);
                r.to_bits().hash(state);
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Blob(b) => {
                state.write_u8(4);
                b.hash(state);
            }
            Value::Service(s) => {
                state.write_u8(5);
                s.hash(state);
            }
        }
    }
}

impl Value {
    /// Shared Display/Debug body: values print like the paper's tables
    /// (`email`, `28.5`, `true`, blob as `<blob N bytes>`).
    fn fmt_value(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => {
                if r.fract() == 0.0 && r.is_finite() && r.abs() < 1e15 {
                    write!(f, "{r:.1}")
                } else {
                    write!(f, "{r}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Blob(b) => write!(f, "<blob {} bytes>", b.len()),
            Value::Service(s) => write!(f, "{s}"),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_value(f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_value(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(r: f64) -> Self {
        Value::Real(r)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s))
    }
}
impl From<ServiceRef> for Value {
    fn from(s: ServiceRef) -> Self {
        Value::Service(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn typed_comparison_widens_int_to_real() {
        assert_eq!(
            Value::Int(3).partial_cmp_typed(&Value::Real(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Real(2.5).partial_cmp_typed(&Value::Int(3)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn typed_comparison_rejects_mixed_types() {
        assert_eq!(Value::Bool(true).partial_cmp_typed(&Value::Int(1)), None);
        assert_eq!(
            Value::blob(vec![1u8]).partial_cmp_typed(&Value::str("x")),
            None
        );
    }

    #[test]
    fn service_and_string_interchange() {
        let s = Value::service("email");
        assert_eq!(s.as_str(), Some("email"));
        assert!(s.conforms_to(DataType::Str));
        assert!(Value::str("email").conforms_to(DataType::Service));
        assert!(Value::Int(7).conforms_to(DataType::Service));
        assert!(!Value::Bool(true).conforms_to(DataType::Service));
        assert_eq!(
            Value::str("email").partial_cmp_typed(&Value::service("email")),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn total_order_is_consistent_for_reals() {
        let nan = Value::Real(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan, nan.clone());
        let mut set = HashSet::new();
        set.insert(nan.clone());
        assert!(set.contains(&nan));
    }

    #[test]
    fn hash_eq_coherence() {
        use std::hash::{DefaultHasher, Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::Int(5)), h(&Value::Int(5)));
        assert_eq!(h(&Value::Real(1.5)), h(&Value::Real(1.5)));
        assert_eq!(h(&Value::str("a")), h(&Value::str("a")));
    }

    #[test]
    fn display_matches_paper_tables() {
        assert_eq!(Value::str("email").to_string(), "email");
        assert_eq!(Value::Real(28.0).to_string(), "28.0");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::blob(vec![0u8; 3]).to_string(), "<blob 3 bytes>");
    }

    #[test]
    fn as_real_widens() {
        assert_eq!(Value::Int(2).as_real(), Some(2.0));
        assert_eq!(Value::str("x").as_real(), None);
    }

    #[test]
    fn as_service_ref_variants() {
        assert_eq!(Value::Int(42).as_service_ref(), Some(ServiceRef::new("42")));
        assert_eq!(Value::Bool(false).as_service_ref(), None);
    }

    #[test]
    fn data_type_properties() {
        assert!(DataType::Real.is_ordered());
        assert!(!DataType::Blob.is_ordered());
        assert!(DataType::Service.can_reference_service());
        assert!(!DataType::Real.can_reference_service());
        assert_eq!(DataType::Blob.ddl_name(), "BLOB");
    }
}
