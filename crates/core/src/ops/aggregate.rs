//! Aggregation γ — **extension beyond the paper**.
//!
//! §1.2 motivates queries that "compute a mean temperature for a given
//! location", but the Serena algebra of §3 defines no aggregate operator.
//! We provide a standard grouping operator as a clearly-flagged extension:
//! it participates in plans and the continuous executor, but is excluded
//! from the Table 5 rewrite-rule reproduction and from the equivalence
//! property tests.
//!
//! Semantics: group the operand by a list of *real* attributes and compute
//! aggregates over real attributes. The output schema contains only the
//! group attributes and the aggregate columns — all real, no virtual
//! attributes, no binding patterns (aggregation collapses tuple identity,
//! so per-tuple service references are no longer meaningful).
//!
//! The one-shot operator ([`aggregate`]) finds a row's group by a key that
//! borrows the row — hashed and compared over the row's group coordinates —
//! and builds one key tuple per *group*, from the group's first row, when
//! it emits the group (DESIGN § 4, *A statement looks up the rows its
//! equality selects*). Groups come out in order of first appearance, each
//! folded in operand order, so a `SUM` / `AVG` over REAL is the same float,
//! bit for bit, as when every row built its own key tuple.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::attr::AttrName;
use crate::error::{EvalError, PlanError};
use crate::schema::{Attribute, SchemaRef, XSchema};
use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use crate::xrelation::XRelation;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFun {
    /// Row count (argument attribute ignored for counting semantics but
    /// kept for naming).
    Count,
    /// Sum over INTEGER/REAL. Floating-point addition does not associate,
    /// so the value depends on the fold order: the one-shot operator folds
    /// a group in the operand's insertion order, the continuous γ in the
    /// ascending order of the group's aggregated values — a function of the
    /// group's content alone, whatever sequence of deltas produced it.
    Sum,
    /// Arithmetic mean over INTEGER/REAL; result is REAL. The sum under it
    /// is folded in [`AggFun::Sum`]'s order.
    Avg,
    /// Minimum (any ordered type).
    Min,
    /// Maximum (any ordered type).
    Max,
}

impl AggFun {
    fn name(&self) -> &'static str {
        match self {
            AggFun::Count => "count",
            AggFun::Sum => "sum",
            AggFun::Avg => "avg",
            AggFun::Min => "min",
            AggFun::Max => "max",
        }
    }

    /// The aggregate of one non-empty group's values, folded in the order
    /// given.
    pub fn fold<'a>(self, values: impl IntoIterator<Item = &'a Value>) -> Value {
        let mut acc = Accumulator::new(self);
        for v in values {
            acc.push(v);
        }
        acc.finish()
    }

    fn output_type(&self, input: DataType) -> Result<DataType, PlanError> {
        match self {
            AggFun::Count => Ok(DataType::Int),
            AggFun::Avg => match input {
                DataType::Int | DataType::Real => Ok(DataType::Real),
                other => Err(PlanError::Aggregate(format!(
                    "avg requires a numeric attribute, got {other}"
                ))),
            },
            AggFun::Sum => match input {
                DataType::Int => Ok(DataType::Int),
                DataType::Real => Ok(DataType::Real),
                other => Err(PlanError::Aggregate(format!(
                    "sum requires a numeric attribute, got {other}"
                ))),
            },
            AggFun::Min | AggFun::Max => {
                if input.is_ordered() {
                    Ok(input)
                } else {
                    Err(PlanError::Aggregate(format!(
                        "min/max require an ordered type, got {input}"
                    )))
                }
            }
        }
    }
}

/// One aggregate column: `fun(attr) AS name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// Function to apply.
    pub fun: AggFun,
    /// Real attribute to aggregate.
    pub attr: AttrName,
    /// Output column name.
    pub as_name: AttrName,
}

impl AggSpec {
    /// `fun(attr) AS {fun}_{attr}`.
    pub fn new(fun: AggFun, attr: impl Into<AttrName>) -> Self {
        let attr = attr.into();
        let as_name = AttrName::new(format!("{}_{}", fun.name(), attr));
        AggSpec { fun, attr, as_name }
    }

    /// Override the output column name.
    pub fn named(mut self, name: impl Into<AttrName>) -> Self {
        self.as_name = name.into();
        self
    }
}

/// Output schema of `γ_{group; aggs}(r)`.
pub fn aggregate_schema(
    schema: &XSchema,
    group: &[AttrName],
    aggs: &[AggSpec],
) -> Result<SchemaRef, PlanError> {
    if aggs.is_empty() {
        return Err(PlanError::Aggregate(
            "at least one aggregate required".into(),
        ));
    }
    let mut attrs = Vec::with_capacity(group.len() + aggs.len());
    for g in group {
        match schema.attr_by_name(g.as_str()) {
            Some(a) if a.is_real() => attrs.push(a.clone()),
            Some(_) => {
                return Err(PlanError::Aggregate(format!(
                    "group attribute `{g}` is virtual"
                )))
            }
            None => {
                return Err(PlanError::Aggregate(format!(
                    "unknown group attribute `{g}`"
                )))
            }
        }
    }
    for spec in aggs {
        let input_ty = match schema.attr_by_name(spec.attr.as_str()) {
            Some(a) if a.is_real() => a.ty,
            Some(_) => {
                return Err(PlanError::Aggregate(format!(
                    "aggregated attribute `{}` is virtual",
                    spec.attr
                )))
            }
            None => {
                return Err(PlanError::Aggregate(format!(
                    "unknown aggregated attribute `{}`",
                    spec.attr
                )))
            }
        };
        attrs.push(Attribute::real(
            spec.as_name.clone(),
            spec.fun.output_type(input_ty)?,
        ));
    }
    XSchema::from_attrs(attrs, Vec::new()).map_err(PlanError::Schema)
}

/// One aggregate of one group, fed a value at a time.
struct Accumulator {
    fun: AggFun,
    count: i64,
    sum: f64,
    int_only: bool,
    /// The least (MIN) or greatest (MAX) value so far; the first of equals.
    extreme: Option<Value>,
}

impl Accumulator {
    fn new(fun: AggFun) -> Self {
        Accumulator {
            fun,
            count: 0,
            sum: 0.0,
            int_only: true,
            extreme: None,
        }
    }

    fn push(&mut self, v: &Value) {
        self.count += 1;
        let wanted = match self.fun {
            AggFun::Count => return,
            AggFun::Sum | AggFun::Avg => {
                if let Some(r) = v.as_real() {
                    self.sum += r;
                }
                if !matches!(v, Value::Int(_)) {
                    self.int_only = false;
                }
                return;
            }
            AggFun::Min => std::cmp::Ordering::Less,
            AggFun::Max => std::cmp::Ordering::Greater,
        };
        let better = self
            .extreme
            .as_ref()
            .is_none_or(|m| v.partial_cmp_typed(m) == Some(wanted));
        if better {
            self.extreme = Some(v.clone());
        }
    }

    fn finish(self) -> Value {
        match self.fun {
            AggFun::Count => Value::Int(self.count),
            AggFun::Sum => {
                if self.int_only {
                    Value::Int(self.sum as i64)
                } else {
                    Value::Real(self.sum)
                }
            }
            AggFun::Avg => Value::Real(if self.count == 0 {
                f64::NAN
            } else {
                self.sum / self.count as f64
            }),
            AggFun::Min | AggFun::Max => self.extreme.expect("group is non-empty"),
        }
    }
}

/// A row's group key, borrowed: hashed and compared over `row[c]` for each
/// group coordinate `c`, with `Value`'s storage `Eq` — what a key tuple
/// projected out of the row would hash and compare, without building one.
struct GroupKey<'a> {
    row: &'a Tuple,
    coords: &'a [usize],
}

impl Hash for GroupKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &c in self.coords {
            self.row[c].hash(state);
        }
    }
}

impl PartialEq for GroupKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.coords.iter().all(|&c| self.row[c] == other.row[c])
    }
}

impl Eq for GroupKey<'_> {}

/// `γ_{group; aggs}(r)`: one output tuple per group, groups in order of
/// first appearance, each folded in operand order.
pub fn aggregate(
    r: &XRelation,
    group: &[AttrName],
    aggs: &[AggSpec],
) -> Result<XRelation, EvalError> {
    let out_schema = aggregate_schema(r.schema(), group, aggs)?;
    let in_schema = r.schema();
    let group_coords: Vec<usize> = group
        .iter()
        .map(|g| in_schema.coord_of(g.as_str()).expect("validated real"))
        .collect();
    let agg_coords: Vec<usize> = aggs
        .iter()
        .map(|s| in_schema.coord_of(s.attr.as_str()).expect("validated real"))
        .collect();

    // each group's first row (its key values) and accumulators, in order of
    // first appearance; the map finds a row's group without a key tuple
    let mut groups: Vec<(&Tuple, Vec<Accumulator>)> = Vec::new();
    let mut slot_of: HashMap<GroupKey<'_>, usize> = HashMap::new();
    for t in r.iter() {
        let key = GroupKey {
            row: t,
            coords: &group_coords,
        };
        let slot = *slot_of.entry(key).or_insert_with(|| {
            groups.push((t, aggs.iter().map(|s| Accumulator::new(s.fun)).collect()));
            groups.len() - 1
        });
        for (acc, &c) in groups[slot].1.iter_mut().zip(&agg_coords) {
            acc.push(&t[c]);
        }
    }

    let mut out = XRelation::with_capacity(out_schema, groups.len());
    for (first, accs) in groups {
        let key = group_coords.iter().map(|&c| first[c].clone());
        out.insert(
            key.chain(accs.into_iter().map(Accumulator::finish))
                .collect(),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::attr;
    use crate::schema::XSchema;
    use crate::tuple;

    fn readings() -> XRelation {
        let s = XSchema::builder()
            .real("location", DataType::Str)
            .real("temperature", DataType::Real)
            .build()
            .unwrap();
        XRelation::from_tuples(
            s,
            vec![
                tuple!["office", 20.0],
                tuple!["office", 22.0],
                tuple!["roof", 31.0],
            ],
        )
    }

    #[test]
    fn mean_temperature_per_location() {
        // the §1.2 motivating query: mean temperature for a given location
        let out = aggregate(
            &readings(),
            &[attr("location")],
            &[AggSpec::new(AggFun::Avg, "temperature").named("mean_temp")],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple!["office", 21.0]));
        assert!(out.contains(&tuple!["roof", 31.0]));
        assert!(out.schema().is_standard());
    }

    #[test]
    fn count_sum_min_max() {
        let out = aggregate(
            &readings(),
            &[],
            &[
                AggSpec::new(AggFun::Count, "temperature"),
                AggSpec::new(AggFun::Sum, "temperature"),
                AggSpec::new(AggFun::Min, "temperature"),
                AggSpec::new(AggFun::Max, "temperature"),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![3, 73.0, 20.0, 31.0]));
    }

    #[test]
    fn sum_of_integers_stays_integer() {
        let s = XSchema::builder().real("n", DataType::Int).build().unwrap();
        let r = XRelation::from_tuples(s, vec![tuple![1], tuple![2], tuple![4]]);
        let out = aggregate(&r, &[], &[AggSpec::new(AggFun::Sum, "n")]).unwrap();
        assert!(out.contains(&tuple![7]));
    }

    #[test]
    fn group_attr_must_be_real() {
        let c = crate::xrelation::examples::contacts();
        assert!(aggregate(&c, &[attr("sent")], &[AggSpec::new(AggFun::Count, "name")]).is_err());
    }

    #[test]
    fn numeric_requirements_enforced() {
        let c = crate::xrelation::examples::contacts();
        assert!(aggregate(&c, &[], &[AggSpec::new(AggFun::Sum, "name")]).is_err());
        assert!(aggregate(&c, &[], &[AggSpec::new(AggFun::Count, "name")]).is_ok());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let r = XRelation::empty(readings().schema_ref());
        let out = aggregate(
            &r,
            &[attr("location")],
            &[AggSpec::new(AggFun::Avg, "temperature")],
        )
        .unwrap();
        assert!(out.is_empty());
    }

    /// The per-row-key γ this operator replaced, kept as the oracle: every
    /// row projects its key tuple and looks its group up by it.
    fn aggregate_per_row_key(r: &XRelation, group: &[AttrName], aggs: &[AggSpec]) -> XRelation {
        let in_schema = r.schema();
        let coord = |a: &AttrName| in_schema.coord_of(a.as_str()).unwrap();
        let group_coords: Vec<usize> = group.iter().map(coord).collect();
        let agg_coords: Vec<usize> = aggs.iter().map(|s| coord(&s.attr)).collect();
        let mut groups: HashMap<Tuple, Vec<Accumulator>> = HashMap::new();
        let mut order: Vec<Tuple> = Vec::new();
        for t in r.iter() {
            let key = t.project_positions(&group_coords);
            let accs = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                aggs.iter().map(|s| Accumulator::new(s.fun)).collect()
            });
            for (acc, &c) in accs.iter_mut().zip(&agg_coords) {
                acc.push(&t[c]);
            }
        }
        let mut out = XRelation::empty(aggregate_schema(in_schema, group, aggs).unwrap());
        for key in order {
            let accs = groups.remove(&key).unwrap();
            let mut values: Vec<Value> = key.values().cloned().collect();
            values.extend(accs.into_iter().map(Accumulator::finish));
            out.insert(Tuple::new(values));
        }
        out
    }

    /// γ groups by borrowed keys and returns what the per-row-key γ did: the
    /// same groups in the same order, every aggregate the same value — REAL
    /// sums and means bit for bit — over 0–3 group attributes, all five
    /// functions, keys shared across groups and empty input.
    #[test]
    fn borrowed_keys_group_like_per_row_key_tuples() {
        let schema = XSchema::builder()
            .real("g", DataType::Str)
            .real("h", DataType::Int)
            .real("k", DataType::Service)
            .real("x", DataType::Real)
            .real("y", DataType::Int)
            .build()
            .unwrap();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        };
        let funs = [
            AggFun::Count,
            AggFun::Sum,
            AggFun::Avg,
            AggFun::Min,
            AggFun::Max,
        ];
        let (mut groups_seen, mut reals_seen) = (0, 0);
        for case in 0..400 {
            let rows = if case % 20 == 0 { 0 } else { below(120) };
            let tuples = (0..rows).map(|_| {
                // few distinct values per column: keys repeat across groups
                let x = (below(2_000) as f64 - 1_000.0) / [3.0, 7.0, 10.0][below(3) as usize];
                Tuple::new(vec![
                    Value::str(["p", "q", "r"][below(3) as usize]),
                    Value::Int(below(3) as i64),
                    Value::service(["s1", "s2"][below(2) as usize]),
                    Value::Real(x),
                    Value::Int(below(50) as i64 - 25),
                ])
            });
            let r = XRelation::from_tuples(schema.clone(), tuples.collect::<Vec<_>>());
            let group: Vec<AttrName> = ["g", "h", "k"]
                .into_iter()
                .filter(|_| below(2) == 0)
                .map(AttrName::new)
                .collect();
            let aggs: Vec<AggSpec> = funs
                .iter()
                .flat_map(|&f| {
                    [
                        AggSpec::new(f, "x"),
                        AggSpec::new(f, "y").named(format!("{}_y2", f.name())),
                    ]
                })
                .collect();
            let out = aggregate(&r, &group, &aggs).unwrap();
            let oracle = aggregate_per_row_key(&r, &group, &aggs);
            assert_eq!(out.schema(), oracle.schema());
            // `Value`'s equality on REAL is `total_cmp`: equal means the
            // same bits; the loop below says so out loud
            assert_eq!(out.tuples(), oracle.tuples(), "case {case}");
            for (a, b) in out.iter().zip(oracle.iter()) {
                for (u, v) in a.values().zip(b.values()) {
                    if let (Value::Real(u), Value::Real(v)) = (u, v) {
                        assert_eq!(u.to_bits(), v.to_bits(), "case {case}");
                        reals_seen += 1;
                    }
                }
            }
            groups_seen += out.len();
        }
        assert!(
            groups_seen > 1_000 && reals_seen > 5_000,
            "{groups_seen} / {reals_seen}"
        );
    }

    #[test]
    fn output_schema_drops_bps_and_virtuals() {
        let sensors = crate::xrelation::examples::sensors();
        let out = aggregate(
            &sensors,
            &[attr("location")],
            &[AggSpec::new(AggFun::Count, "sensor").named("n")],
        )
        .unwrap();
        assert!(out.schema().binding_patterns().is_empty());
        assert!(out.schema().virtual_name_set().is_empty());
        assert!(out.contains(&tuple!["office", 2]));
    }
}
