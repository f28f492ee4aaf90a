//! The compiled form of Table 3's operators, shared by the one-shot
//! physical plan and the continuous executor.

use crate::attr::AttrName;
use crate::error::{EvalError, PlanError};
use crate::formula::{CompiledFormula, Formula};
use crate::metrics::OpKind;
use crate::ops::{self, AggSpec, AssignSource, InvokeRecipe};
use crate::schema::{SchemaRef, XSchema};
use crate::tuple::Tuple;

/// Where one coordinate of an output tuple is copied from, for the operators
/// that build each output tuple out of two inputs: ⋈ (left and right operand
/// tuple), α (input tuple and the constant row) and β (input tuple and one
/// row of the service's answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// Coordinate in the first input.
    Left(usize),
    /// Coordinate in the second input.
    Right(usize),
}

impl Slot {
    /// One slot per real attribute of `out`: [`Slot::Left`] where `left`
    /// holds the attribute as a real one, else whatever `other` resolves.
    pub(crate) fn resolve(
        out: &XSchema,
        left: &XSchema,
        other: impl Fn(&str) -> Slot,
    ) -> Vec<Slot> {
        out.real_names()
            .map(|a| {
                left.coord_of(a.as_str())
                    .map_or_else(|| other(a.as_str()), Slot::Left)
            })
            .collect()
    }

    /// Build the output tuple `slots` describes from its two inputs.
    pub(crate) fn gather(slots: &[Slot], left: &Tuple, right: &Tuple) -> Tuple {
        slots
            .iter()
            .map(|s| match s {
                Slot::Left(c) => left[*c].clone(),
                Slot::Right(c) => right[*c].clone(),
            })
            .collect()
    }
}

/// One Serena operator resolved **once** against its operand schemas.
///
/// A `CompiledOp` is what is left of an operator after everything that
/// depends only on schemas has been worked out: projection coordinates, the
/// compiled σ formula, α and ⋈ output slots, ⋈ key pairs, the set-operator
/// right-operand permutation, the β [`InvokeRecipe`]. Its constructors take
/// the operand schemas and the operator's parameters — not a plan node — so
/// the one-shot [`PhysicalPlan`](crate::physical::PhysicalPlan) and the
/// continuous executor compile through the same code, and its per-tuple
/// appliers are the only place a coordinate map is interpreted. What differs
/// between the executors (set vs multiset state, one evaluation vs deltas)
/// stays with them.
pub enum CompiledOp {
    /// `∪`. `rhs_reorder` permutes right-operand tuples into the left
    /// operand's coordinate order; `None` when the operands already agree.
    Union {
        /// See [`CompiledOp::reorder_rhs`].
        rhs_reorder: Option<Vec<usize>>,
    },
    /// `∩`.
    Intersect {
        /// See [`CompiledOp::reorder_rhs`].
        rhs_reorder: Option<Vec<usize>>,
    },
    /// `−`.
    Difference {
        /// See [`CompiledOp::reorder_rhs`].
        rhs_reorder: Option<Vec<usize>>,
    },
    /// `π`.
    Project {
        /// Input coordinates of the output's real attributes.
        coords: Vec<usize>,
    },
    /// `σ`.
    Select {
        /// The formula, compiled against the operand schema.
        formula: CompiledFormula,
    },
    /// `ρ` — schema-only: tuples pass through untouched.
    Rename,
    /// `⋈` on the attributes real in both operands.
    Join {
        /// Key coordinates in the left operand.
        key_left: Vec<usize>,
        /// The same key attributes' coordinates in the right operand.
        key_right: Vec<usize>,
        /// Output slots over (left tuple, right tuple).
        slots: Vec<Slot>,
    },
    /// `α`.
    Assign {
        /// Output slots over (input tuple, `constant`).
        slots: Vec<Slot>,
        /// The assigned constant as a one-coordinate row (empty when the
        /// source is an attribute).
        constant: Tuple,
    },
    /// `β`.
    Invoke {
        /// Input projection, service coordinate and output assembly.
        recipe: InvokeRecipe,
    },
    /// `γ` (extension).
    Aggregate {
        /// The operand schema, for executors that keep bare tuples.
        in_schema: SchemaRef,
        /// Grouping attributes.
        group: Vec<AttrName>,
        /// Aggregates computed per group.
        aggs: Vec<AggSpec>,
    },
}

/// A compiled operator with its derived output schema.
type Compiled = Result<(SchemaRef, CompiledOp), PlanError>;

/// The set operators' shared state: output schema and right-operand
/// permutation.
fn set_op(
    left: &SchemaRef,
    right: &SchemaRef,
) -> Result<(SchemaRef, Option<Vec<usize>>), PlanError> {
    let schema = ops::set_op_schema(left, right)?;
    let map = schema.reorder_map(right).expect("checked compatible");
    let identity = map.iter().copied().eq(0..schema.real_arity());
    Ok((schema, (!identity).then_some(map)))
}

impl CompiledOp {
    /// `left ∪ right`.
    pub fn union(left: &SchemaRef, right: &SchemaRef) -> Compiled {
        let (schema, rhs_reorder) = set_op(left, right)?;
        Ok((schema, CompiledOp::Union { rhs_reorder }))
    }

    /// `left ∩ right`.
    pub fn intersect(left: &SchemaRef, right: &SchemaRef) -> Compiled {
        let (schema, rhs_reorder) = set_op(left, right)?;
        Ok((schema, CompiledOp::Intersect { rhs_reorder }))
    }

    /// `left − right`.
    pub fn difference(left: &SchemaRef, right: &SchemaRef) -> Compiled {
        let (schema, rhs_reorder) = set_op(left, right)?;
        Ok((schema, CompiledOp::Difference { rhs_reorder }))
    }

    /// `π_attrs(child)`.
    pub fn project(child: &SchemaRef, attrs: &[AttrName]) -> Compiled {
        let schema = ops::project_schema(child, attrs)?;
        let coords = child
            .coords_of(schema.real_names().map(|a| a.as_str()))
            .expect("real in input schema");
        Ok((schema, CompiledOp::Project { coords }))
    }

    /// `σ_formula(child)`.
    pub fn select(child: &SchemaRef, formula: &Formula) -> Compiled {
        let schema = ops::select_schema(child, formula)?;
        let formula = formula.compile(&schema)?;
        Ok((schema, CompiledOp::Select { formula }))
    }

    /// `ρ_{from→to}(child)`.
    pub fn rename(child: &SchemaRef, from: &AttrName, to: &AttrName) -> Compiled {
        Ok((ops::rename_schema(child, from, to)?, CompiledOp::Rename))
    }

    /// `left ⋈ right`.
    pub fn join(left: &SchemaRef, right: &SchemaRef) -> Compiled {
        let schema = ops::join_schema(left, right)?;
        let right_coord = |a: &str| right.coord_of(a).expect("real in right operand");
        // Join predicate: attributes real in BOTH operands.
        let keys = || left.real_names().filter(|a| right.is_real(a.as_str()));
        let key_left = left.coords_of(keys().map(|a| a.as_str())).expect("real");
        let key_right = keys().map(|a| right_coord(a.as_str())).collect();
        // Output slots: pull from the left operand when real there.
        let slots = Slot::resolve(&schema, left, |a| Slot::Right(right_coord(a)));
        Ok((
            schema,
            CompiledOp::Join {
                key_left,
                key_right,
                slots,
            },
        ))
    }

    /// `α_{attr:=source}(child)`.
    pub fn assign(child: &SchemaRef, attr: &AttrName, source: &AssignSource) -> Compiled {
        let schema = ops::assign_schema(child, attr, source)?;
        // `attr` is the one output attribute not real in the input.
        let (new, constant) = match source {
            AssignSource::Attr(b) => (
                Slot::Left(child.coord_of(b.as_str()).expect("validated real")),
                Tuple::empty(),
            ),
            AssignSource::Const(v) => (Slot::Right(0), Tuple::new(vec![v.clone()])),
        };
        let slots = Slot::resolve(&schema, child, |_| new);
        Ok((schema, CompiledOp::Assign { slots, constant }))
    }

    /// `β_{prototype[service_attr]}(child)`.
    pub fn invoke(child: &SchemaRef, prototype: &str, service_attr: &str) -> Compiled {
        let recipe = InvokeRecipe::prepare(child, prototype, service_attr)?;
        Ok((recipe.out_schema().clone(), CompiledOp::Invoke { recipe }))
    }

    /// `γ_{group; aggs}(child)`.
    pub fn aggregate(child: &SchemaRef, group: &[AttrName], aggs: &[AggSpec]) -> Compiled {
        let schema = ops::aggregate_schema(child, group, aggs)?;
        Ok((
            schema,
            CompiledOp::Aggregate {
                in_schema: child.clone(),
                group: group.to_vec(),
                aggs: aggs.to_vec(),
            },
        ))
    }

    /// The operator's kind, for observations and EXPLAIN.
    pub fn kind(&self) -> OpKind {
        match self {
            CompiledOp::Union { .. } => OpKind::Union,
            CompiledOp::Intersect { .. } => OpKind::Intersect,
            CompiledOp::Difference { .. } => OpKind::Difference,
            CompiledOp::Project { .. } => OpKind::Project,
            CompiledOp::Select { .. } => OpKind::Select,
            CompiledOp::Rename => OpKind::Rename,
            CompiledOp::Join { .. } => OpKind::Join,
            CompiledOp::Assign { .. } => OpKind::Assign,
            CompiledOp::Invoke { .. } => OpKind::Invoke,
            CompiledOp::Aggregate { .. } => OpKind::Aggregate,
        }
    }

    /// Apply a tuple-at-a-time operator (σ, π, ρ, α) to one tuple: the
    /// output tuple, or `None` when σ rejects it.
    ///
    /// # Panics
    /// On any other operator.
    pub fn map_tuple(&self, t: &Tuple) -> Result<Option<Tuple>, EvalError> {
        Ok(match self {
            CompiledOp::Select { formula } => formula.matches(t)?.then(|| t.clone()),
            CompiledOp::Project { coords } => Some(t.project_positions(coords)),
            CompiledOp::Rename => Some(t.clone()),
            CompiledOp::Assign { slots, constant } => Some(Slot::gather(slots, t, constant)),
            _ => unreachable!("{} maps no single tuple", self.kind()),
        })
    }

    /// A right-operand tuple of ∪/∩/− in the left operand's coordinate
    /// order.
    ///
    /// # Panics
    /// On any other operator.
    pub fn reorder_rhs(&self, t: &Tuple) -> Tuple {
        match self {
            CompiledOp::Union { rhs_reorder }
            | CompiledOp::Intersect { rhs_reorder }
            | CompiledOp::Difference { rhs_reorder } => match rhs_reorder {
                None => t.clone(),
                Some(map) => t.project_positions(map),
            },
            _ => unreachable!("{} has no right operand to reorder", self.kind()),
        }
    }

    /// The ⋈ output tuple of a matching pair.
    ///
    /// # Panics
    /// On any other operator.
    pub fn join_tuple(&self, left: &Tuple, right: &Tuple) -> Tuple {
        match self {
            CompiledOp::Join { slots, .. } => Slot::gather(slots, left, right),
            _ => unreachable!("{} joins no tuples", self.kind()),
        }
    }
}
