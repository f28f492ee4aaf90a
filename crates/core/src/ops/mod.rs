//! The Serena algebra operators (§3.1, Table 3).
//!
//! Three operator families:
//!
//! * **set operators** (§3.1.1): [`union`], [`intersect`], [`difference`] —
//!   same-schema operands, standard set semantics;
//! * **relational operators** (§3.1.2): [`project`] (π), [`select`] (σ),
//!   [`rename`] (ρ), [`join`] (⋈) — extended to propagate the real/virtual
//!   partition and binding patterns per Table 3;
//! * **realization operators** (§3.1.3): [`assign`] (α), [`invoke`] (β) —
//!   turn virtual attributes into real ones, the latter by invoking a
//!   binding pattern on per-tuple services.
//!
//! Each operator comes in two halves: a `*_schema` function deriving the
//! output [`XSchema`](crate::schema::XSchema) (used for static plan validation) and an executor
//! producing the output [`XRelation`](crate::xrelation::XRelation). Executors always go through the
//! schema derivation, so a plan that validates cannot fail on schema grounds
//! at runtime. A [`CompiledOp`] is both halves resolved once against the
//! operand schemas — what the physical and the continuous executor run.
//!
//! [`aggregate`] (γ) is an **extension** beyond the paper (motivated by the
//! "mean temperature" queries of §1.2) and is excluded from the
//! equivalence-rule reproduction.

mod aggregate;
mod assign;
mod compiled;
mod invoke;
mod join;
mod project;
mod rename;
mod select;
mod set;

pub use aggregate::{aggregate, aggregate_schema, AggFun, AggSpec};
pub use assign::{assign, assign_schema, AssignSource};
pub use compiled::{CompiledOp, Slot};
pub use invoke::{invoke, invoke_schema, DegradePolicy, InvokeRecipe, InvokeTally};
pub use join::{join, join_schema};
pub use project::{project, project_schema};
pub use rename::{rename, rename_schema};
pub use select::{select, select_schema};
pub use set::{difference, intersect, set_op_schema, union};

use crate::binding::BindingPattern;
use std::collections::BTreeSet;

/// Shared binding-pattern survival test: a pattern remains valid for a
/// schema with attribute set `names`, real set `reals` and virtual set
/// `virtuals` iff its service attribute is a real attribute, its prototype
/// input attributes are all present, and its output attributes are all still
/// virtual (Definition 2 restated over the new schema).
pub(crate) fn bp_survives(
    bp: &BindingPattern,
    names: &BTreeSet<&str>,
    reals: &BTreeSet<&str>,
    virtuals: &BTreeSet<&str>,
) -> bool {
    reals.contains(bp.service_attr().as_str())
        && bp
            .prototype()
            .input()
            .names()
            .all(|a| names.contains(a.as_str()))
        && bp
            .prototype()
            .output()
            .names()
            .all(|a| virtuals.contains(a.as_str()))
}
