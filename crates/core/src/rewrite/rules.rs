//! The rewrite rules of Table 5 (and the classic relational rules the
//! paper keeps), as one table.
//!
//! Each rule is a row: a [`Rule`] `const` whose `rewrite` holds the
//! root-level pattern and its replacement, documented with the Table 5
//! cell it reproduces. [`RULES`] lists every row. [`Rule::try_apply`] fires
//! only when the *top* node of the given plan matches and the side
//! condition holds; [`apply_everywhere`] walks a plan bottom-up applying a
//! rule at every node.
//!
//! Two things every row shares are written once:
//!
//! * the schema safety net, `checked`: every application re-derives the
//!   rewritten plan's schema and requires it to be *compatible* with the
//!   original's (same attribute set, types, real/virtual partition, binding
//!   patterns). The side conditions are proved on paper; `try_apply` runs
//!   the check after every rewrite, so no row can skip it;
//! * the σ side conditions, `select_crosses`: for each operator, whether a
//!   selection may cross it. Every σ row, and the oracle of
//!   `select-past-select`, asks it.
//!
//! Active binding patterns are the hard wall (§3.3): no rule moves a σ or
//! π past an invocation of an *active* binding pattern, because doing so
//! changes the action set (see `Q1` vs `Q1'` in Example 6).
//!
//! The continuous operators `W`, `S` and `βˢ` are walls too: every rule
//! matches a pair of Table 3 operators, so none reaches across them, and
//! each finite region of a continuous plan is rewritten on its own. The two
//! exceptions are the selection pushdowns of the last section, which cross
//! a window *together with* the streaming operator under it.

use crate::formula::Formula;
use crate::ops::AssignSource;
use crate::plan::{Plan, SchemaCatalog};
use crate::schema::XSchema;

/// A row of the rule table: a named, root-level plan transformation.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Rule name, for reports.
    pub name: &'static str,
    /// Pattern, side condition and replacement; `None` when the root of
    /// the plan does not match or the condition fails.
    rewrite: fn(&Plan, &dyn SchemaCatalog) -> Option<Plan>,
}

impl Rule {
    /// Apply at the root of `plan` if the pattern matches, the side
    /// condition holds and the result passes the schema safety net; `None`
    /// otherwise.
    pub fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        checked(plan, (self.rewrite)(plan, catalog)?, catalog)
    }
}

/// Verify the rewritten plan is schema-compatible with the original —
/// returns `Some(rewritten)` only when both validate and agree, in schema
/// and in finite/infinite status.
fn checked(original: &Plan, rewritten: Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
    let before = original.stream_schema(catalog).ok()?;
    let after = rewritten.stream_schema(catalog).ok()?;
    if before.infinite == after.infinite && before.schema.compatible_with(&after.schema) {
        Some(rewritten)
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// The σ side conditions
// ---------------------------------------------------------------------

/// Whether `σ_F` may cross `node`, the top operator of its operand: the
/// one statement of each σ column of Table 5 and of the classic σ rules.
/// Looks through chains of selections (the question `select-past-select`
/// asks).
fn select_crosses(f: &Formula, node: &Plan, catalog: &dyn SchemaCatalog) -> bool {
    match node {
        Plan::Select(inner, _) => select_crosses(f, inner, catalog),
        // α_{A:=s}: if `A ∉ F`.
        Plan::Assign(_, attr, _) => !f.references(attr.as_str()),
        // β_bp: if `bp` is passive and `F` references none of `Output_ψ`.
        Plan::Invoke(r, proto, sa) => r.schema(catalog).is_ok_and(|s| {
            s.find_bp_exact(proto, sa.as_str()).is_some_and(|bp| {
                let psi = bp.prototype();
                !bp.is_active() && !psi.output().names().any(|o| f.references(o.as_str()))
            })
        }),
        // ⋈: if `F` only references real attributes of one operand.
        Plan::Join(r1, r2) => join_operand(f, r1, r2, catalog).is_some(),
        // ∪, ∩, −, ρ (renaming F), π (F's attributes are real in π_L(r),
        // hence in r): always.
        Plan::Union(..) | Plan::Intersect(..) | Plan::Difference(..) => true,
        Plan::Rename(..) | Plan::Project(..) => true,
        // W∘S, W∘βˢ: if `F` only references real attributes of the finite
        // `q` under the streaming operator, which passes them through
        // unchanged (realization only turns virtual attributes real).
        Plan::Window(x, _) => match x.as_ref() {
            Plan::Stream(q, _) | Plan::SampleInvoke(q, ..) => {
                matches!(q.stream_schema(catalog), Ok(s) if !s.infinite && real_in(f, &s.schema))
            }
            _ => false,
        },
        Plan::Relation(_) | Plan::Aggregate(..) | Plan::Stream(..) | Plan::SampleInvoke(..) => {
            false
        }
    }
}

/// Every attribute `F` references is real in `s`.
fn real_in(f: &Formula, s: &XSchema) -> bool {
    f.attrs().iter().all(|a| s.is_real(a.as_str()))
}

/// The operand of `r1 ⋈ r2` that `σ_F` descends into — `Some(true)` for
/// `r1`, `Some(false)` for `r2` — when `F` only references real attributes
/// of one of them.
fn join_operand(f: &Formula, r1: &Plan, r2: &Plan, catalog: &dyn SchemaCatalog) -> Option<bool> {
    let (s1, s2) = (r1.schema(catalog).ok()?, r2.schema(catalog).ok()?);
    if real_in(f, &s1) {
        Some(true)
    } else {
        real_in(f, &s2).then_some(false)
    }
}

/// `plan` as `σ_F(node)`.
fn as_select(plan: &Plan) -> Option<(&Formula, &Plan)> {
    match plan {
        Plan::Select(node, f) => Some((f, node)),
        _ => None,
    }
}

/// `σ_F(x(r)) ⇒ x(σ_F(r))` for a unary `x` that σ_F may cross (below
/// `ρ_{A→B}`, `F` becomes `F[B↦A]`).
fn push_select(f: &Formula, x: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
    if !select_crosses(f, x, catalog) {
        return None;
    }
    let below = match x {
        Plan::Rename(_, from, to) => f.rename_attr(to.as_str(), from),
        _ => f.clone(),
    };
    Some(x.with_children(vec![x.children()[0].clone().select(below)]))
}

// ---------------------------------------------------------------------
// Table 5, assignment row: α vs σ / π / ⋈
// ---------------------------------------------------------------------

/// `σ_F(α_{A:=s}(r)) ⇒ α_{A:=s}(σ_F(r))` if `A ∉ F` — Table 5, selection
/// column of the assignment row.
pub const SELECT_PAST_ASSIGN: Rule = Rule {
    name: "select-past-assign",
    rewrite: |plan, catalog| match as_select(plan)? {
        (f, x @ Plan::Assign(..)) => push_select(f, x, catalog),
        _ => None,
    },
};

/// `π_L(α_{A:=s}(r)) ⇒ α_{A:=s}(π_L(r))` if `A ∈ L` (and `B ∈ L` for an
/// attribute source) — Table 5, projection column of the assignment row.
pub const PROJECT_PAST_ASSIGN: Rule = Rule {
    name: "project-past-assign",
    rewrite: |plan, _| {
        let Plan::Project(inner, attrs) = plan else {
            return None;
        };
        let Plan::Assign(r, attr, src) = inner.as_ref() else {
            return None;
        };
        let keeps_source = match src {
            AssignSource::Attr(b) => attrs.contains(b),
            _ => true,
        };
        (attrs.contains(attr) && keeps_source).then(|| {
            Plan::Assign(
                Box::new(Plan::Project(r.clone(), attrs.clone())),
                attr.clone(),
                src.clone(),
            )
        })
    },
};

/// `α_{A:=s}(r1 ⋈ r2) ⇒ α_{A:=s}(r1) ⋈ r2` if `A` (and source `B`) belong
/// to `schema(R1)` and `A ∉ realSchema(R2)` — Table 5, join column of the
/// assignment row. Symmetric in the join: `r1` is tried first.
pub const ASSIGN_INTO_JOIN: Rule = Rule {
    name: "assign-into-join",
    rewrite: |plan, catalog| {
        let Plan::Assign(inner, attr, src) = plan else {
            return None;
        };
        let Plan::Join(r1, r2) = inner.as_ref() else {
            return None;
        };
        let (s1, s2) = (r1.schema(catalog).ok()?, r2.schema(catalog).ok()?);
        let takes = |this: &XSchema, other: &XSchema| {
            this.is_virtual(attr.as_str())
                && !other.is_real(attr.as_str())
                && match src {
                    AssignSource::Attr(b) => this.is_real(b.as_str()),
                    _ => true,
                }
        };
        let assign =
            |r: &Plan| Box::new(Plan::Assign(Box::new(r.clone()), attr.clone(), src.clone()));
        if takes(&s1, &s2) {
            Some(Plan::Join(assign(r1), r2.clone()))
        } else {
            takes(&s2, &s1).then(|| Plan::Join(r1.clone(), assign(r2)))
        }
    },
};

// ---------------------------------------------------------------------
// Table 5, invocation row: β vs σ / π / ⋈ — passive binding patterns only
// ---------------------------------------------------------------------

/// `σ_F(β_bp(r)) ⇒ β_bp(σ_F(r))` if `bp` is **passive** and `F` references
/// none of `Output_ψ` — Table 5, selection column of the invocation row.
/// This is the key optimization: filtering before invoking reduces the
/// number of service calls.
pub const SELECT_PAST_INVOKE: Rule = Rule {
    name: "select-past-invoke",
    rewrite: |plan, catalog| match as_select(plan)? {
        (f, x @ Plan::Invoke(..)) => push_select(f, x, catalog),
        _ => None,
    },
};

/// `π_L(β_bp(r)) ⇒ β_bp(π_L(r))` if `bp` is **passive** and `L` retains the
/// service attribute, every `Input_ψ` attribute and every `Output_ψ`
/// attribute — Table 5, projection column of the invocation row.
pub const PROJECT_PAST_INVOKE: Rule = Rule {
    name: "project-past-invoke",
    rewrite: |plan, catalog| {
        let Plan::Project(inner, attrs) = plan else {
            return None;
        };
        let Plan::Invoke(r, proto, sa) = inner.as_ref() else {
            return None;
        };
        let s = r.schema(catalog).ok()?;
        let bp = s.find_bp_exact(proto, sa.as_str())?;
        let has = |name: &str| attrs.iter().any(|a| a.as_str() == name);
        let psi = bp.prototype();
        let keeps = has(bp.service_attr().as_str())
            && psi.input().names().all(|a| has(a.as_str()))
            && psi.output().names().all(|a| has(a.as_str()));
        (!bp.is_active() && keeps).then(|| {
            Plan::Invoke(
                Box::new(Plan::Project(r.clone(), attrs.clone())),
                proto.clone(),
                sa.clone(),
            )
        })
    },
};

/// `β_bp(r1 ⋈ r2) ⇒ β_bp(r1) ⋈ r2` if `bp` is **passive**, belongs to
/// `BP(R1)` with all input attributes real in `R1`, and none of `Output_ψ`
/// appears in `schema(R2)` — Table 5, join column of the invocation row.
/// Symmetric in the join: `r1` is tried first.
pub const INVOKE_INTO_JOIN: Rule = Rule {
    name: "invoke-into-join",
    rewrite: |plan, catalog| {
        let Plan::Invoke(inner, proto, sa) = plan else {
            return None;
        };
        let Plan::Join(r1, r2) = inner.as_ref() else {
            return None;
        };
        let (s1, s2) = (r1.schema(catalog).ok()?, r2.schema(catalog).ok()?);
        let takes = |this: &XSchema, other: &XSchema| {
            this.find_bp_exact(proto, sa.as_str()).is_some_and(|bp| {
                let psi = bp.prototype();
                !bp.is_active()
                    && psi.input().names().all(|a| this.is_real(a.as_str()))
                    && !psi.output().names().any(|o| other.contains(o.as_str()))
            })
        };
        let invoke =
            |r: &Plan| Box::new(Plan::Invoke(Box::new(r.clone()), proto.clone(), sa.clone()));
        if takes(&s1, &s2) {
            Some(Plan::Join(invoke(r1), r2.clone()))
        } else {
            takes(&s2, &s1).then(|| Plan::Join(r1.clone(), invoke(r2)))
        }
    },
};

// ---------------------------------------------------------------------
// Classic relational rules the paper keeps (§3.3: "Some well-known
// rewriting rules of the relational algebra are still pertinent")
// ---------------------------------------------------------------------

/// `σ_{F∧G}(r) ⇒ σ_F(σ_G(r))` — conjunction split, enabling independent
/// pushdown of each conjunct.
pub const SPLIT_CONJUNCTIVE_SELECT: Rule = Rule {
    name: "split-conjunctive-select",
    rewrite: |plan, _| match as_select(plan)? {
        (Formula::And(f, g), r) => Some(r.clone().select((**g).clone()).select((**f).clone())),
        _ => None,
    },
};

/// `σ_F(σ_G(r)) ⇒ σ_{F∧G}(r)` — merge adjacent selections (cleanup pass).
pub const MERGE_SELECTS: Rule = Rule {
    name: "merge-selects",
    rewrite: |plan, _| match as_select(plan)? {
        (f, Plan::Select(r, g)) => Some(Plan::Select(r.clone(), f.clone().and(g.clone()))),
        _ => None,
    },
};

/// `σ_F(r1 ⋈ r2) ⇒ σ_F(r1) ⋈ r2` (resp. right) when `F` only references
/// real attributes of one operand.
pub const SELECT_INTO_JOIN: Rule = Rule {
    name: "select-into-join",
    rewrite: |plan, catalog| {
        let (f, Plan::Join(r1, r2)) = as_select(plan)? else {
            return None;
        };
        let select = |r: &Plan| Box::new(r.clone().select(f.clone()));
        Some(if join_operand(f, r1, r2, catalog)? {
            Plan::Join(select(r1), r2.clone())
        } else {
            Plan::Join(r1.clone(), select(r2))
        })
    },
};

/// `σ_F(r1 ∪ r2) ⇒ σ_F(r1) ∪ σ_F(r2)` (and likewise for ∩ and −).
pub const SELECT_INTO_SET_OP: Rule = Rule {
    name: "select-into-set-op",
    rewrite: |plan, catalog| match as_select(plan)? {
        (f, x @ (Plan::Union(..) | Plan::Intersect(..) | Plan::Difference(..)))
            if select_crosses(f, x, catalog) =>
        {
            let operands = x.children().into_iter();
            Some(x.with_children(operands.map(|r| r.clone().select(f.clone())).collect()))
        }
        _ => None,
    },
};

/// `σ_F(ρ_{A→B}(r)) ⇒ ρ_{A→B}(σ_{F[B↦A]}(r))`.
pub const SELECT_PAST_RENAME: Rule = Rule {
    name: "select-past-rename",
    rewrite: |plan, catalog| match as_select(plan)? {
        (f, x @ Plan::Rename(..)) => push_select(f, x, catalog),
        _ => None,
    },
};

/// `σ_F(σ_G(x)) ⇒ σ_G(σ_F(x))` when `F` can descend below `x` but `G`
/// cannot — a pushable conjunct hops over a stuck one. The asymmetric
/// condition guarantees termination (re-swapping would need the opposite
/// pushability).
pub const SELECT_PAST_SELECT: Rule = Rule {
    name: "select-past-select",
    rewrite: |plan, catalog| {
        let (f, Plan::Select(x, g)) = as_select(plan)? else {
            return None;
        };
        (select_crosses(f, x, catalog) && !select_crosses(g, x, catalog))
            .then(|| x.as_ref().clone().select(f.clone()).select(g.clone()))
    },
};

/// `σ_F(π_L(r)) ⇒ π_L(σ_F(r))` — always valid: every attribute of `F` is a
/// real attribute of `π_L(r)`, hence of `r`.
pub const SELECT_PAST_PROJECT: Rule = Rule {
    name: "select-past-project",
    rewrite: |plan, catalog| match as_select(plan)? {
        (f, x @ Plan::Project(..)) => push_select(f, x, catalog),
        _ => None,
    },
};

/// `σ_true(r) ⇒ r` — trivial-selection elimination.
pub const DROP_TRUE_SELECT: Rule = Rule {
    name: "drop-true-select",
    rewrite: |plan, _| match as_select(plan)? {
        (Formula::True, r) => Some(r.clone()),
        _ => None,
    },
};

/// `π_L1(π_L2(r)) ⇒ π_L1(r)` — projection absorption (valid because π_L1
/// over π_L2 requires `L1 ⊆ L2`).
pub const MERGE_PROJECTS: Rule = Rule {
    name: "merge-projects",
    rewrite: |plan, _| {
        let Plan::Project(inner, l1) = plan else {
            return None;
        };
        let Plan::Project(r, _) = inner.as_ref() else {
            return None;
        };
        Some(Plan::Project(r.clone(), l1.clone()))
    },
};

// ---------------------------------------------------------------------
// Continuous plans (§4.2): σ past a window over a streaming operator
// ---------------------------------------------------------------------

/// `σ_F(W[p](X(q))) ⇒ W[p](X(σ_F(q)))` for the streaming operator `X`
/// accepted by `is_streamer`, when σ_F may cross the pair.
fn select_past_windowed(
    plan: &Plan,
    catalog: &dyn SchemaCatalog,
    is_streamer: fn(&Plan) -> bool,
) -> Option<Plan> {
    let (f, window @ Plan::Window(streamer, _)) = as_select(plan)? else {
        return None;
    };
    if !is_streamer(streamer) || !select_crosses(f, window, catalog) {
        return None;
    }
    let q = streamer.children()[0].clone();
    Some(window.with_children(vec![streamer.with_children(vec![q.select(f.clone())])]))
}

/// `σ_F(W[p](S[kind](q))) ⇒ W[p](S[kind](σ_F(q)))` when `F` references
/// only real attributes of `q`: `S` re-emits `q`'s tuples verbatim for all
/// three kinds, so the selection commutes per tuple.
pub const SELECT_PAST_WINDOWED_STREAM: Rule = Rule {
    name: "select-past-windowed-stream",
    rewrite: |plan, catalog| select_past_windowed(plan, catalog, |x| matches!(x, Plan::Stream(..))),
};

/// `σ_F(W[p](βˢ[k]_bp(q))) ⇒ W[p](βˢ[k]_bp(σ_F(q)))` when `F` references
/// only real attributes of `q`: the sampling invocation (always passive)
/// copies them through unchanged, so filtering before sampling removes
/// exactly the rows whose outputs the selection would have dropped — and
/// saves their service calls.
pub const SELECT_PAST_WINDOWED_SAMPLE: Rule = Rule {
    name: "select-past-windowed-sample",
    rewrite: |plan, catalog| {
        select_past_windowed(plan, catalog, |x| matches!(x, Plan::SampleInvoke(..)))
    },
};

/// Every row of the table, in the order the optimizer's phases run them:
/// normalize, pushdown, join placement, cleanup.
pub const RULES: [Rule; 17] = [
    SPLIT_CONJUNCTIVE_SELECT,
    DROP_TRUE_SELECT,
    SELECT_PAST_SELECT,
    SELECT_PAST_PROJECT,
    SELECT_PAST_ASSIGN,
    SELECT_PAST_INVOKE,
    SELECT_INTO_JOIN,
    SELECT_INTO_SET_OP,
    SELECT_PAST_RENAME,
    SELECT_PAST_WINDOWED_STREAM,
    SELECT_PAST_WINDOWED_SAMPLE,
    PROJECT_PAST_ASSIGN,
    PROJECT_PAST_INVOKE,
    ASSIGN_INTO_JOIN,
    INVOKE_INTO_JOIN,
    MERGE_SELECTS,
    MERGE_PROJECTS,
];

/// Apply `rule` at every node (bottom-up), returning the rewritten plan and
/// the number of applications.
pub fn apply_everywhere(plan: &Plan, rule: &Rule, catalog: &dyn SchemaCatalog) -> (Plan, usize) {
    let mut count = 0usize;
    let out = plan.transform_up(&mut |node| match rule.try_apply(&node, catalog) {
        Some(next) => {
            count += 1;
            next
        }
        None => node,
    });
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::examples::example_environment;
    use crate::equiv::check_over_instants;
    use crate::plan::examples::{q1, q2, q2_prime};
    use crate::service::fixtures::example_registry;
    use crate::time::Instant;

    fn assert_equiv(p: &Plan, q: &Plan) {
        let env = example_environment();
        let reg = example_registry();
        let report = check_over_instants(p, q, &env, &reg, (0..5).map(Instant)).unwrap();
        assert!(report.equivalent(), "{p} should ≡ {q}: {report:?}");
    }

    #[test]
    fn select_past_assign_fires_and_preserves_equivalence() {
        let env = example_environment();
        // σ_{name≠'Carla'} above α_{text:=...}
        let p = Plan::relation("contacts")
            .assign_const("text", "Bonjour!")
            .select(crate::formula::Formula::ne_const("name", "Carla"));
        let rewritten = SELECT_PAST_ASSIGN.try_apply(&p, &env).unwrap();
        assert!(matches!(rewritten, Plan::Assign(..)));
        assert_equiv(&p, &rewritten);
    }

    #[test]
    fn select_past_assign_blocked_when_formula_uses_target() {
        let env = example_environment();
        let p = Plan::relation("contacts")
            .assign_const("text", "Bonjour!")
            .select(crate::formula::Formula::eq_const("text", "Bonjour!"));
        assert!(SELECT_PAST_ASSIGN.try_apply(&p, &env).is_none());
    }

    #[test]
    fn select_past_invoke_rewrites_q2_prime_toward_q2() {
        let env = example_environment();
        // σ_{area∧quality}(β_checkPhoto(cameras)): split, hop the pushable
        // area conjunct over the stuck quality conjunct, then cross the
        // passive β.
        let p = q2_prime();
        let (split, n) = apply_everywhere(&p, &SPLIT_CONJUNCTIVE_SELECT, &env);
        assert_eq!(n, 1);
        let (swapped, n) = apply_everywhere(&split, &SELECT_PAST_SELECT, &env);
        assert_eq!(n, 1, "area conjunct should hop over quality: {split}");
        let (pushed, n) = apply_everywhere(&swapped, &SELECT_PAST_INVOKE, &env);
        assert!(n >= 1, "expected select to cross checkPhoto: {swapped}");
        assert_equiv(&p, &pushed);
    }

    #[test]
    fn select_past_select_requires_asymmetry() {
        let env = example_environment();
        // both conjuncts stuck (reference checkPhoto outputs) → no swap
        let p = Plan::relation("cameras")
            .invoke("checkPhoto", "camera")
            .select(crate::formula::Formula::ge_const("quality", 5))
            .select(crate::formula::Formula::lt_const("delay", 1.0));
        assert!(SELECT_PAST_SELECT.try_apply(&p, &env).is_none());
        // both pushable → no swap either (order is irrelevant, avoid churn)
        let p = Plan::relation("cameras")
            .invoke("checkPhoto", "camera")
            .select(crate::formula::Formula::eq_const("area", "office"))
            .select(crate::formula::Formula::eq_const("camera", "camera01"));
        assert!(SELECT_PAST_SELECT.try_apply(&p, &env).is_none());
    }

    #[test]
    fn select_past_project_fires() {
        let env = example_environment();
        let p = Plan::relation("contacts")
            .project(["name", "address"])
            .select(crate::formula::Formula::ne_const("name", "Carla"));
        let rewritten = SELECT_PAST_PROJECT.try_apply(&p, &env).unwrap();
        assert!(matches!(rewritten, Plan::Project(..)));
        assert_equiv(&p, &rewritten);
    }

    #[test]
    fn select_never_crosses_active_invoke() {
        let env = example_environment();
        // σ_{name≠'Carla'}(β_sendMessage(α_text(contacts))) — Q1'
        let p = crate::plan::examples::q1_prime();
        let (rewritten, n) = apply_everywhere(&p, &SELECT_PAST_INVOKE, &env);
        assert_eq!(n, 0);
        assert_eq!(rewritten, p);
    }

    #[test]
    fn select_past_invoke_blocked_on_output_reference() {
        let env = example_environment();
        // σ_{quality≥5} references checkPhoto's output → must not cross
        let p = Plan::relation("cameras")
            .invoke("checkPhoto", "camera")
            .select(crate::formula::Formula::ge_const("quality", 5));
        assert!(SELECT_PAST_INVOKE.try_apply(&p, &env).is_none());
    }

    #[test]
    fn project_past_invoke_requires_bp_attrs() {
        let env = example_environment();
        let p = Plan::relation("cameras")
            .invoke("checkPhoto", "camera")
            .project(["camera", "area", "quality", "delay"]);
        let rewritten = PROJECT_PAST_INVOKE.try_apply(&p, &env);
        // photo (takePhoto's output) is dropped by the projection; the BP
        // attrs of checkPhoto are all retained → rule fires.
        let rewritten = rewritten.expect("rule should fire");
        assert_equiv(&p, &rewritten);

        // dropping `delay` (an output of checkPhoto) blocks the rule
        let p = Plan::relation("cameras")
            .invoke("checkPhoto", "camera")
            .project(["camera", "area", "quality"]);
        assert!(PROJECT_PAST_INVOKE.try_apply(&p, &env).is_none());
    }

    #[test]
    fn invoke_into_join_fires_for_passive_bp() {
        let env = example_environment();
        // β_getTemperature(sensors ⋈ contactsProj) — contacts projected to
        // an unrelated attribute set to avoid attr collisions.
        let p = Plan::relation("sensors")
            .join(Plan::relation("contacts").project(["name", "address"]))
            .invoke("getTemperature", "sensor");
        let rewritten = INVOKE_INTO_JOIN.try_apply(&p, &env).expect("fires");
        assert!(matches!(rewritten, Plan::Join(..)));
        assert_equiv(&p, &rewritten);
    }

    #[test]
    fn assign_into_join_fires() {
        let env = example_environment();
        let p = Plan::relation("contacts")
            .join(Plan::relation("sensors").project(["sensor", "location"]))
            .assign_const("text", "hi");
        let rewritten = ASSIGN_INTO_JOIN.try_apply(&p, &env).expect("fires");
        assert!(matches!(rewritten, Plan::Join(..)));
        assert_equiv(&p, &rewritten);
    }

    #[test]
    fn assign_and_invoke_into_join_fire_on_right_operand() {
        let env = example_environment();
        // contacts is the RIGHT join operand here: the symmetric halves of
        // the rules must still sink α/β into it.
        let p = Plan::relation("sensors")
            .project(["sensor", "location"])
            .join(Plan::relation("contacts"))
            .assign_const("text", "hi");
        let rewritten = ASSIGN_INTO_JOIN
            .try_apply(&p, &env)
            .expect("fires on right");
        let Plan::Join(_, r) = &rewritten else {
            panic!("expected join on top")
        };
        assert!(matches!(**r, Plan::Assign(..)));
        assert_equiv(&p, &rewritten);

        let p = Plan::relation("contacts")
            .project(["name", "address"])
            .join(Plan::relation("sensors"))
            .invoke("getTemperature", "sensor");
        let rewritten = INVOKE_INTO_JOIN
            .try_apply(&p, &env)
            .expect("fires on right");
        let Plan::Join(_, r) = &rewritten else {
            panic!("expected join on top")
        };
        assert!(matches!(**r, Plan::Invoke(..)));
        assert_equiv(&p, &rewritten);
    }

    #[test]
    fn classic_rules_fire_and_preserve() {
        let env = example_environment();
        let f = crate::formula::Formula::eq_const("messenger", "email");
        let g = crate::formula::Formula::ne_const("name", "Carla");

        // split / merge round trip
        let p = Plan::relation("contacts").select(f.clone().and(g.clone()));
        let split = SPLIT_CONJUNCTIVE_SELECT.try_apply(&p, &env).unwrap();
        assert_equiv(&p, &split);
        let merged = MERGE_SELECTS.try_apply(&split, &env).unwrap();
        assert_equiv(&p, &merged);

        // σ into ∪
        let u = Plan::relation("contacts")
            .union(Plan::relation("contacts"))
            .select(f.clone());
        let pushed = SELECT_INTO_SET_OP.try_apply(&u, &env).unwrap();
        assert_equiv(&u, &pushed);

        // σ past ρ
        let p = Plan::relation("contacts")
            .rename("name", "who")
            .select(crate::formula::Formula::ne_const("who", "Carla"));
        let pushed = SELECT_PAST_RENAME.try_apply(&p, &env).unwrap();
        assert_equiv(&p, &pushed);

        // drop σ_true
        let p = Plan::relation("contacts").select(crate::formula::Formula::True);
        assert_eq!(
            DROP_TRUE_SELECT.try_apply(&p, &env).unwrap(),
            Plan::relation("contacts")
        );

        // π absorption
        let p = Plan::relation("contacts")
            .project(["name", "address"])
            .project(["name"]);
        let merged = MERGE_PROJECTS.try_apply(&p, &env).unwrap();
        assert_equiv(&p, &merged);
    }

    #[test]
    fn select_into_join_left_and_right() {
        let env = example_environment();
        let join =
            Plan::relation("sensors").join(Plan::relation("contacts").project(["name", "address"]));
        // left-side predicate
        let p = join
            .clone()
            .select(crate::formula::Formula::eq_const("location", "office"));
        let rewritten = SELECT_INTO_JOIN.try_apply(&p, &env).unwrap();
        assert_equiv(&p, &rewritten);
        // right-side predicate
        let p = join.select(crate::formula::Formula::ne_const("name", "Carla"));
        let rewritten = SELECT_INTO_JOIN.try_apply(&p, &env).unwrap();
        assert_equiv(&p, &rewritten);
    }

    #[test]
    fn q1_admits_no_rule_that_changes_its_action_set() {
        let env = example_environment();
        let reg = example_registry();
        let ctx = crate::exec::ExecContext::new(&env, &reg, Instant::ZERO);
        let before = ctx.execute(&q1()).unwrap();
        for rule in &RULES {
            let (rewritten, _) = apply_everywhere(&q1(), rule, &env);
            let after = ctx.execute(&rewritten).unwrap();
            assert_eq!(
                before.actions, after.actions,
                "rule {} changed Q1's action set",
                rule.name
            );
            assert_eq!(before.relation, after.relation);
        }
    }

    #[test]
    fn q2_pushdown_pipeline_reduces_invocations() {
        let env = example_environment();
        let reg = example_registry();
        // rewrite Q2' step by step toward Q2 and verify invocation savings
        let mut plan = q2_prime();
        for rule in &RULES {
            let (next, _) = apply_everywhere(&plan, rule, &env);
            plan = next;
        }
        let c1 = crate::eval::CountingInvoker::new(&reg);
        crate::exec::ExecContext::new(&env, &c1, Instant::ZERO)
            .execute(&q2_prime())
            .unwrap();
        let c2 = crate::eval::CountingInvoker::new(&reg);
        crate::exec::ExecContext::new(&env, &c2, Instant::ZERO)
            .execute(&plan)
            .unwrap();
        assert!(
            c2.count_of("checkPhoto") < c1.count_of("checkPhoto"),
            "rewritten plan {plan} should invoke checkPhoto less"
        );
        assert_equiv(&q2_prime(), &plan);
        // and matches the hand-optimized Q2's invocation count
        let c3 = crate::eval::CountingInvoker::new(&reg);
        crate::exec::ExecContext::new(&env, &c3, Instant::ZERO)
            .execute(&q2())
            .unwrap();
        assert_eq!(c2.count_of("checkPhoto"), c3.count_of("checkPhoto"));
    }
}
