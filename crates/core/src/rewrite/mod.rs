//! Query rewriting (§3.3, Table 5).
//!
//! Equivalence-preserving transformations over [`Plan`]s:
//!
//! * [`rules`] — the rule table, [`RULES`]: the Table 5 rules commuting
//!   realization operators (α, β) with π, σ and ⋈, plus the "well-known
//!   rewriting rules of the relational algebra" the paper declares still
//!   pertinent, one [`Rule`] row each. A row holds a pattern, its side
//!   condition (e.g. `A ∉ F`) and its replacement; [`Rule::try_apply`]
//!   re-derives the output schema after every row as a safety net;
//! * [`optimizer`] — a heuristic fixpoint pipeline that pushes selections
//!   toward the leaves and below *passive* invocation operators,
//!   minimising service invocations. Active binding patterns are never
//!   moved: "active binding patterns limit the possibility of rewriting".

pub mod optimizer;
pub mod rules;

pub use optimizer::{optimize, OptimizerReport};
pub use rules::{apply_everywhere, Rule, RULES};

#[allow(unused_imports)]
use crate::plan::Plan;
