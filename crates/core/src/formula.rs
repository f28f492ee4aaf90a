//! Selection formulas over real schemas (Table 3(b)).
//!
//! "Selection formulas can only apply on attributes from the real schema,
//! as virtual attributes do not have a value." Validation against a schema
//! rejects virtual or unknown attributes and type-incoherent comparisons at
//! plan time; evaluation then implements the logical implication `t ⊨ F`.

use std::collections::BTreeSet;
use std::fmt;

use crate::attr::AttrName;
use crate::error::{EvalError, PlanError};
use crate::schema::XSchema;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// A term of a comparison: a (real) attribute or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Attribute reference — must be real at validation time.
    Attr(AttrName),
    /// Constant from `D`.
    Const(Value),
}

impl Expr {
    /// Attribute term.
    pub fn attr(name: impl Into<AttrName>) -> Expr {
        Expr::Attr(name.into())
    }

    /// Constant term.
    pub fn val(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// Declared/static type of the term under `schema`, if resolvable.
    fn static_type(&self, schema: &XSchema) -> Option<DataType> {
        match self {
            Expr::Attr(a) => schema.type_of(a.as_str()),
            Expr::Const(v) => Some(v.data_type()),
        }
    }

    fn eval<'a>(&'a self, schema: &XSchema, t: &'a Tuple) -> Result<Value, EvalError> {
        match self {
            Expr::Attr(a) => schema
                .project_tuple_attr(t, a.as_str())
                .ok_or_else(|| EvalError::Value(format!("attribute `{a}` has no value"))),
            Expr::Const(v) => Ok(v.clone()),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Attr(a) => write!(f, "{a}"),
            Expr::Const(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Const(v) => write!(f, "{v}"),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn needs_order(self) -> bool {
        !matches!(self, CmpOp::Eq | CmpOp::Ne)
    }

    fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A selection formula `F` over a real schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// Always true (neutral element for ∧).
    True,
    /// Always false.
    False,
    /// `lhs op rhs`
    Cmp(Expr, CmpOp, Expr),
    /// `attr CONTAINS 'needle'` — substring match on a STRING attribute.
    /// Extension beyond the paper's selection formulas, required by its own
    /// RSS experiment (§5.2: "continuous queries providing the last RSS
    /// items containing a given word").
    Contains(AttrName, String),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Negation.
    Not(Box<Formula>),
}

impl Formula {
    /// `attr op const` comparison.
    pub fn cmp(attr: impl Into<AttrName>, op: CmpOp, v: impl Into<Value>) -> Formula {
        Formula::Cmp(Expr::Attr(attr.into()), op, Expr::Const(v.into()))
    }

    /// `attr = const`.
    pub fn eq_const(attr: impl Into<AttrName>, v: impl Into<Value>) -> Formula {
        Formula::cmp(attr, CmpOp::Eq, v)
    }

    /// `attr <> const`.
    pub fn ne_const(attr: impl Into<AttrName>, v: impl Into<Value>) -> Formula {
        Formula::cmp(attr, CmpOp::Ne, v)
    }

    /// `attr > const`.
    pub fn gt_const(attr: impl Into<AttrName>, v: impl Into<Value>) -> Formula {
        Formula::cmp(attr, CmpOp::Gt, v)
    }

    /// `attr >= const`.
    pub fn ge_const(attr: impl Into<AttrName>, v: impl Into<Value>) -> Formula {
        Formula::cmp(attr, CmpOp::Ge, v)
    }

    /// `attr < const`.
    pub fn lt_const(attr: impl Into<AttrName>, v: impl Into<Value>) -> Formula {
        Formula::cmp(attr, CmpOp::Lt, v)
    }

    /// `attr <= const`.
    pub fn le_const(attr: impl Into<AttrName>, v: impl Into<Value>) -> Formula {
        Formula::cmp(attr, CmpOp::Le, v)
    }

    /// `a op b` between two attributes.
    pub fn cmp_attrs(a: impl Into<AttrName>, op: CmpOp, b: impl Into<AttrName>) -> Formula {
        Formula::Cmp(Expr::Attr(a.into()), op, Expr::Attr(b.into()))
    }

    /// `attr CONTAINS 'needle'` (extension; see [`Formula::Contains`]).
    pub fn contains_const(attr: impl Into<AttrName>, needle: impl Into<String>) -> Formula {
        Formula::Contains(attr.into(), needle.into())
    }

    /// Conjunction.
    pub fn and(self, other: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// The set of attributes referenced by the formula (`A ∉ F` tests in
    /// the rewrite rules of Table 5).
    pub fn attrs(&self) -> BTreeSet<AttrName> {
        let mut out = BTreeSet::new();
        self.collect_attrs(&mut out);
        out
    }

    fn collect_attrs(&self, out: &mut BTreeSet<AttrName>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Contains(a, _) => {
                out.insert(a.clone());
            }
            Formula::Cmp(l, _, r) => {
                if let Expr::Attr(a) = l {
                    out.insert(a.clone());
                }
                if let Expr::Attr(a) = r {
                    out.insert(a.clone());
                }
            }
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.collect_attrs(out);
                b.collect_attrs(out);
            }
            Formula::Not(a) => a.collect_attrs(out),
        }
    }

    /// Whether the formula references `attr`.
    pub fn references(&self, attr: &str) -> bool {
        self.attrs().iter().any(|a| a.as_str() == attr)
    }

    /// Validate against a schema: every referenced attribute must be a
    /// *real* attribute (Table 3(b)) and comparisons must be type-coherent.
    pub fn validate(&self, schema: &XSchema) -> Result<(), PlanError> {
        match self {
            Formula::True | Formula::False => Ok(()),
            Formula::Contains(a, _) => {
                if !schema.contains(a.as_str()) {
                    return Err(PlanError::Schema(
                        crate::error::SchemaError::UnknownAttribute(a.clone()),
                    ));
                }
                if !schema.is_real(a.as_str()) {
                    return Err(PlanError::SelectionOnVirtual(a.clone()));
                }
                let ty = schema.type_of(a.as_str()).expect("present");
                if !matches!(ty, DataType::Str | DataType::Service) {
                    return Err(PlanError::FormulaTypeMismatch {
                        context: format!("{a} CONTAINS …"),
                        left: ty,
                        right: DataType::Str,
                    });
                }
                Ok(())
            }
            Formula::Cmp(l, op, r) => {
                for e in [l, r] {
                    if let Expr::Attr(a) = e {
                        if !schema.contains(a.as_str()) {
                            return Err(PlanError::Schema(
                                crate::error::SchemaError::UnknownAttribute(a.clone()),
                            ));
                        }
                        if !schema.is_real(a.as_str()) {
                            return Err(PlanError::SelectionOnVirtual(a.clone()));
                        }
                    }
                }
                let lt = l.static_type(schema).expect("checked above");
                let rt = r.static_type(schema).expect("checked above");
                let coherent = lt == rt
                    || matches!(
                        (lt, rt),
                        (DataType::Int, DataType::Real)
                            | (DataType::Real, DataType::Int)
                            | (DataType::Str, DataType::Service)
                            | (DataType::Service, DataType::Str)
                    );
                if !coherent {
                    return Err(PlanError::FormulaTypeMismatch {
                        context: format!("{l} {op} {r}"),
                        left: lt,
                        right: rt,
                    });
                }
                if op.needs_order() && !(lt.is_ordered() && rt.is_ordered()) {
                    return Err(PlanError::FormulaTypeMismatch {
                        context: format!("{l} {op} {r} (type not ordered)"),
                        left: lt,
                        right: rt,
                    });
                }
                Ok(())
            }
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.validate(schema)?;
                b.validate(schema)
            }
            Formula::Not(a) => a.validate(schema),
        }
    }

    /// `t ⊨ F`: evaluate over a tuple of `schema`. The formula must have
    /// been validated against `schema`.
    pub fn eval(&self, schema: &XSchema, t: &Tuple) -> Result<bool, EvalError> {
        match self {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Contains(a, needle) => {
                let v = schema
                    .project_tuple_attr(t, a.as_str())
                    .ok_or_else(|| EvalError::Value(format!("attribute `{a}` has no value")))?;
                let s = v
                    .as_str()
                    .ok_or_else(|| EvalError::Value(format!("`{a}` is not a string")))?;
                Ok(s.contains(needle.as_str()))
            }
            Formula::Cmp(l, op, r) => {
                let lv = l.eval(schema, t)?;
                let rv = r.eval(schema, t)?;
                let ord = lv.partial_cmp_typed(&rv).ok_or_else(|| {
                    EvalError::Value(format!(
                        "incomparable values {lv} ({}) and {rv} ({})",
                        lv.data_type(),
                        rv.data_type()
                    ))
                })?;
                Ok(op.test(ord))
            }
            Formula::And(a, b) => Ok(a.eval(schema, t)? && b.eval(schema, t)?),
            Formula::Or(a, b) => Ok(a.eval(schema, t)? || b.eval(schema, t)?),
            Formula::Not(a) => Ok(!a.eval(schema, t)?),
        }
    }

    /// A copy with every reference to attribute `from` renamed to `to`
    /// (used when commuting σ with ρ).
    pub fn rename_attr(&self, from: &str, to: &AttrName) -> Formula {
        let fix = |e: &Expr| match e {
            Expr::Attr(a) if a.as_str() == from => Expr::Attr(to.clone()),
            other => other.clone(),
        };
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Contains(a, needle) => {
                let a = if a.as_str() == from {
                    to.clone()
                } else {
                    a.clone()
                };
                Formula::Contains(a, needle.clone())
            }
            Formula::Cmp(l, op, r) => Formula::Cmp(fix(l), *op, fix(r)),
            Formula::And(a, b) => Formula::And(
                Box::new(a.rename_attr(from, to)),
                Box::new(b.rename_attr(from, to)),
            ),
            Formula::Or(a, b) => Formula::Or(
                Box::new(a.rename_attr(from, to)),
                Box::new(b.rename_attr(from, to)),
            ),
            Formula::Not(a) => Formula::Not(Box::new(a.rename_attr(from, to))),
        }
    }

    /// Compile against a schema: resolve attribute coordinates once so the
    /// hot selection path avoids name lookups per tuple (performance-guide
    /// idiom: hoist invariant work out of the per-tuple loop).
    pub fn compile(&self, schema: &XSchema) -> Result<CompiledFormula, PlanError> {
        self.validate(schema)?;
        Ok(CompiledFormula {
            prog: CompiledNode::build(self, schema),
        })
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Contains(a, needle) => write!(f, "{a} CONTAINS '{needle}'"),
            Formula::Cmp(l, op, r) => write!(f, "{l} {op} {r}"),
            Formula::And(a, b) => write!(f, "({a} ∧ {b})"),
            Formula::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Formula::Not(a) => write!(f, "¬({a})"),
        }
    }
}

/// Coordinate-resolved formula for fast per-tuple evaluation. Two are equal
/// when they evaluate the same coordinates against the same constants,
/// whatever attribute names they were written with.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompiledFormula {
    prog: CompiledNode,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CompiledExpr {
    Coord(usize),
    Const(Value),
}

impl CompiledExpr {
    #[inline]
    fn eval<'a>(&'a self, t: &'a Tuple) -> &'a Value {
        match self {
            CompiledExpr::Coord(c) => &t[*c],
            CompiledExpr::Const(v) => v,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CompiledNode {
    Bool(bool),
    Contains(usize, String),
    Cmp(CompiledExpr, CmpOp, CompiledExpr),
    And(Box<CompiledNode>, Box<CompiledNode>),
    Or(Box<CompiledNode>, Box<CompiledNode>),
    Not(Box<CompiledNode>),
}

impl CompiledNode {
    fn build(f: &Formula, schema: &XSchema) -> CompiledNode {
        let cexpr = |e: &Expr| match e {
            Expr::Attr(a) => {
                CompiledExpr::Coord(schema.coord_of(a.as_str()).expect("validated: real attr"))
            }
            Expr::Const(v) => CompiledExpr::Const(v.clone()),
        };
        match f {
            Formula::True => CompiledNode::Bool(true),
            Formula::False => CompiledNode::Bool(false),
            Formula::Contains(a, needle) => CompiledNode::Contains(
                schema.coord_of(a.as_str()).expect("validated: real attr"),
                needle.clone(),
            ),
            Formula::Cmp(l, op, r) => CompiledNode::Cmp(cexpr(l), *op, cexpr(r)),
            Formula::And(a, b) => CompiledNode::And(
                Box::new(CompiledNode::build(a, schema)),
                Box::new(CompiledNode::build(b, schema)),
            ),
            Formula::Or(a, b) => CompiledNode::Or(
                Box::new(CompiledNode::build(a, schema)),
                Box::new(CompiledNode::build(b, schema)),
            ),
            Formula::Not(a) => CompiledNode::Not(Box::new(CompiledNode::build(a, schema))),
        }
    }

    fn eval(&self, t: &Tuple) -> Result<bool, EvalError> {
        match self {
            CompiledNode::Bool(b) => Ok(*b),
            CompiledNode::Contains(c, needle) => {
                let v = &t[*c];
                let s = v
                    .as_str()
                    .ok_or_else(|| EvalError::Value(format!("{v} is not a string")))?;
                Ok(s.contains(needle.as_str()))
            }
            CompiledNode::Cmp(l, op, r) => {
                let lv = l.eval(t);
                let rv = r.eval(t);
                let ord = lv.partial_cmp_typed(rv).ok_or_else(|| {
                    EvalError::Value(format!("incomparable values {lv} and {rv}"))
                })?;
                Ok(op.test(ord))
            }
            CompiledNode::And(a, b) => Ok(a.eval(t)? && b.eval(t)?),
            CompiledNode::Or(a, b) => Ok(a.eval(t)? || b.eval(t)?),
            CompiledNode::Not(a) => Ok(!a.eval(t)?),
        }
    }
}

impl CompiledFormula {
    /// Evaluate `t ⊨ F`.
    #[inline]
    pub fn matches(&self, t: &Tuple) -> Result<bool, EvalError> {
        self.prog.eval(t)
    }

    /// The first conjunct [`CompiledFormula::matches`] evaluates — the
    /// leftmost leaf of the `∧` spine, never one under `∨` or `¬` — when it
    /// is `attr = 'text'`, the constant on either side: the attribute's
    /// coordinate and the text. A tuple whose coordinate holds another text
    /// fails the whole formula with nothing else evaluated, and without an
    /// error: text compares with text.
    pub fn leading_text_eq(&self) -> Option<(usize, &str)> {
        let mut first = &self.prog;
        while let CompiledNode::And(a, _) = first {
            first = a;
        }
        match first {
            CompiledNode::Cmp(CompiledExpr::Coord(c), CmpOp::Eq, CompiledExpr::Const(v))
            | CompiledNode::Cmp(CompiledExpr::Const(v), CmpOp::Eq, CompiledExpr::Coord(c)) => {
                Some((*c, v.as_str()?))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::examples::contacts_schema;
    use crate::tuple;

    fn nicolas() -> Tuple {
        tuple!["Nicolas", "nicolas@elysee.fr", "email"]
    }

    #[test]
    fn q1_formula_from_table_4() {
        // name <> 'Carla'
        let f = Formula::ne_const("name", "Carla");
        let s = contacts_schema();
        f.validate(&s).unwrap();
        assert!(f.eval(&s, &nicolas()).unwrap());
        assert!(!f
            .eval(&s, &tuple!["Carla", "carla@elysee.fr", "email"])
            .unwrap());
    }

    #[test]
    fn virtual_attribute_rejected() {
        let s = contacts_schema();
        let f = Formula::eq_const("sent", true);
        assert!(matches!(
            f.validate(&s),
            Err(PlanError::SelectionOnVirtual(_))
        ));
    }

    #[test]
    fn unknown_attribute_rejected() {
        let s = contacts_schema();
        let f = Formula::eq_const("ghost", 1);
        assert!(f.validate(&s).is_err());
    }

    #[test]
    fn type_incoherent_comparison_rejected() {
        let s = contacts_schema();
        // name STRING vs 1 INTEGER
        let f = Formula::eq_const("name", 1);
        assert!(matches!(
            f.validate(&s),
            Err(PlanError::FormulaTypeMismatch { .. })
        ));
    }

    #[test]
    fn ordering_comparison_on_service_str_allowed() {
        let s = contacts_schema();
        let f = Formula::eq_const("messenger", "email");
        f.validate(&s).unwrap();
        assert!(f.eval(&s, &nicolas()).unwrap());
    }

    #[test]
    fn connectives() {
        let s = contacts_schema();
        let f = Formula::eq_const("name", "Nicolas")
            .and(Formula::eq_const("messenger", "email"))
            .or(Formula::False)
            .not()
            .not();
        f.validate(&s).unwrap();
        assert!(f.eval(&s, &nicolas()).unwrap());
    }

    #[test]
    fn attrs_collection_and_references() {
        let f = Formula::eq_const("a", 1)
            .and(Formula::cmp_attrs("b", CmpOp::Lt, "c"))
            .or(Formula::ne_const("a", 2));
        let names: Vec<String> = f.attrs().iter().map(|a| a.to_string()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(f.references("b"));
        assert!(!f.references("d"));
    }

    #[test]
    fn rename_rewrites_references() {
        let f = Formula::eq_const("name", "Carla").and(Formula::ne_const("addr", "x"));
        let g = f.rename_attr("name", &AttrName::new("who"));
        assert!(g.references("who"));
        assert!(!g.references("name"));
        assert!(g.references("addr"));
    }

    #[test]
    fn compiled_formula_agrees_with_interpreted() {
        let s = contacts_schema();
        let f = Formula::ne_const("name", "Carla").and(Formula::eq_const("messenger", "email"));
        let c = f.compile(&s).unwrap();
        for t in crate::xrelation::examples::contacts().iter() {
            assert_eq!(c.matches(t).unwrap(), f.eval(&s, t).unwrap());
        }
    }

    #[test]
    fn numeric_widening_in_comparison() {
        let s = crate::schema::XSchema::builder()
            .real("x", DataType::Int)
            .build()
            .unwrap();
        let f = Formula::gt_const("x", 1.5);
        f.validate(&s).unwrap();
        assert!(f.eval(&s, &tuple![2]).unwrap());
        assert!(!f.eval(&s, &tuple![1]).unwrap());
    }

    #[test]
    fn display_is_readable() {
        let f = Formula::eq_const("name", "Carla").not();
        assert_eq!(f.to_string(), "¬(name = 'Carla')");
    }
}
