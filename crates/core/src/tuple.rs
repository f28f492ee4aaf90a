//! Tuples over (extended) relation schemas.
//!
//! Per Definition 3, a tuple over an extended relation schema `R` is an
//! element of `D^|realSchema(R)|`: *only real attributes have coordinates*.
//! The mapping from attribute positions to coordinates (the paper's
//! `δ_R(i)`, Definition 4) lives on the schema; a `Tuple` is just the
//! ordered coordinate vector.
//!
//! Tuples are immutable and cheap to clone (`Arc<[Value]>`): operators share
//! tuples freely between input and output relations.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::value::Value;

/// An immutable tuple: an element of `D^n`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: impl Into<Vec<Value>>) -> Self {
        Tuple(values.into().into())
    }

    /// The empty tuple (element of `D^0`), used for zero-input prototypes
    /// such as `getTemperature()`.
    pub fn empty() -> Self {
        Tuple(Arc::from(Vec::new()))
    }

    /// Number of coordinates.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// True iff the tuple has no coordinates.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Coordinate accessor (0-based).
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// Iterate coordinates in order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }

    /// All coordinates as a slice.
    pub fn as_slice(&self) -> &[Value] {
        &self.0
    }

    /// Project onto the given coordinate positions (generalized Definition 4;
    /// position resolution from attribute names is done by the schema).
    ///
    /// # Panics
    /// Panics if a position is out of bounds — positions must come from a
    /// schema that matches this tuple.
    pub fn project_positions(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenate two tuples (used by joins and invocation output
    /// extension).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple(v.into())
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple(v.into())
    }
}

/// Convenience macro: `tuple!["Nicolas", "nicolas@elysee.fr", "email"]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple!["Nicolas", "nicolas@elysee.fr", "email"];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::str("Nicolas"));
        assert_eq!(t.get(3), None);
        assert!(!t.is_empty());
        assert!(Tuple::empty().is_empty());
    }

    #[test]
    fn projection_matches_example_4() {
        // Example 4: t = (Nicolas, nicolas@elysee.fr, email);
        // t[{address, messenger}] = (nicolas@elysee.fr, email)
        // positions resolved by the schema would be [1, 2].
        let t = tuple!["Nicolas", "nicolas@elysee.fr", "email"];
        let p = t.project_positions(&[1, 2]);
        assert_eq!(p, tuple!["nicolas@elysee.fr", "email"]);
        // single-attribute: t[messenger] = (email)
        assert_eq!(t.project_positions(&[2]), tuple!["email"]);
    }

    #[test]
    fn concat_appends() {
        let a = tuple![1, 2];
        let b = tuple!["x"];
        assert_eq!(a.concat(&b), tuple![1, 2, "x"]);
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(tuple![1, "a"], tuple![1, "a"]);
        assert_ne!(tuple![1, "a"], tuple!["a", 1]);
    }

    #[test]
    fn display_parenthesized() {
        assert_eq!(tuple!["a", 1, true].to_string(), "(a, 1, true)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }

    #[test]
    fn from_iterator() {
        let t: Tuple = vec![Value::Int(1), Value::Int(2)].into_iter().collect();
        assert_eq!(t, tuple![1, 2]);
    }
}
