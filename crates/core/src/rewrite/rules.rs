//! The rewrite rules of Table 5 (and the classic relational rules the
//! paper keeps).
//!
//! Each rule is a root-level pattern: [`RewriteRule::try_apply`] fires only
//! when the *top* node of the given plan matches and all preconditions
//! hold; [`apply_everywhere`] walks a plan bottom-up applying a rule at
//! every node.
//!
//! Every application additionally re-derives the rewritten plan's schema
//! and requires it to be *compatible* with the original's (same attribute
//! set, types, real/virtual partition, binding patterns): the preconditions
//! are proved on paper, the schema check is the belt-and-braces safety net.
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

use crate::error::PlanError;
use crate::formula::Formula;
use crate::plan::{Plan, SchemaCatalog};

/// A rewrite rule: a named, precondition-checked plan transformation.
pub trait RewriteRule: Sync {
    /// Rule name, for reports.
    fn name(&self) -> &'static str;

    /// Apply at the root of `plan` if the pattern matches and the
    /// preconditions hold; `None` otherwise.
    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan>;
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

/// Is `plan`'s top node an invocation of a *passive* binding pattern?
fn invoke_is_passive(
    child: &Plan,
    proto: &str,
    service_attr: &str,
    catalog: &dyn SchemaCatalog,
) -> Result<bool, PlanError> {
    let s = child.schema(catalog)?;
    let (_, bp) = crate::ops::invoke_schema(&s, proto, service_attr)?;
    Ok(!bp.is_active())
}

// ---------------------------------------------------------------------
// Table 5, assignment row: α vs σ / π / ⋈
// ---------------------------------------------------------------------

/// `σ_F(α_{A:=s}(r)) ⇒ α_{A:=s}(σ_F(r))` if `A ∉ F` (Table 5, selection
/// column of the assignment row).
pub struct SelectPastAssign;

impl RewriteRule for SelectPastAssign {
    fn name(&self) -> &'static str {
        "select-past-assign"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Select(inner, f) = plan else {
            return None;
        };
        let Plan::Assign(r, attr, src) = inner.as_ref() else {
            return None;
        };
        if f.references(attr.as_str()) {
            return None;
        }
        let rewritten = Plan::Assign(
            Box::new(Plan::Select(r.clone(), f.clone())),
            attr.clone(),
            src.clone(),
        );
        checked(plan, rewritten, catalog)
    }
}

/// `π_L(α_{A:=s}(r)) ⇒ α_{A:=s}(π_L(r))` if `A ∈ L` (and `B ∈ L` for an
/// attribute source) — Table 5, projection column of the assignment row.
pub struct ProjectPastAssign;

impl RewriteRule for ProjectPastAssign {
    fn name(&self) -> &'static str {
        "project-past-assign"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Project(inner, attrs) = plan else {
            return None;
        };
        let Plan::Assign(r, attr, src) = inner.as_ref() else {
            return None;
        };
        if !attrs.contains(attr) {
            return None;
        }
        if let crate::ops::AssignSource::Attr(b) = src {
            if !attrs.contains(b) {
                return None;
            }
        }
        let rewritten = Plan::Assign(
            Box::new(Plan::Project(r.clone(), attrs.clone())),
            attr.clone(),
            src.clone(),
        );
        checked(plan, rewritten, catalog)
    }
}

/// `α_{A:=s}(r1 ⋈ r2) ⇒ α_{A:=s}(r1) ⋈ r2` if `A` (and source `B`) belong
/// to `schema(R1)` and `A ∉ realSchema(R2)` — Table 5, join column of the
/// assignment row.
pub struct AssignIntoJoin;

impl RewriteRule for AssignIntoJoin {
    fn name(&self) -> &'static str {
        "assign-into-join"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Assign(inner, attr, src) = plan else {
            return None;
        };
        let Plan::Join(r1, r2) = inner.as_ref() else {
            return None;
        };
        let s1 = r1.schema(catalog).ok()?;
        let s2 = r2.schema(catalog).ok()?;
        // try each operand (the rule is symmetric in the join).
        for (this, other, this_plan, other_plan, left) in
            [(&s1, &s2, r1, r2, true), (&s2, &s1, r2, r1, false)]
        {
            if !this.is_virtual(attr.as_str()) || other.is_real(attr.as_str()) {
                continue;
            }
            if let crate::ops::AssignSource::Attr(b) = src {
                if !this.is_real(b.as_str()) {
                    continue;
                }
            }
            let assigned = Box::new(Plan::Assign(this_plan.clone(), attr.clone(), src.clone()));
            let rewritten = if left {
                Plan::Join(assigned, other_plan.clone())
            } else {
                Plan::Join(other_plan.clone(), assigned)
            };
            if let Some(ok) = checked(plan, rewritten, catalog) {
                return Some(ok);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Table 5, invocation row: β vs σ / π / ⋈ — passive binding patterns only
// ---------------------------------------------------------------------

/// `σ_F(β_bp(r)) ⇒ β_bp(σ_F(r))` if `bp` is **passive** and `F` references
/// none of `Output_ψ` — Table 5, selection column of the invocation row.
/// This is the key optimization: filtering before invoking reduces the
/// number of service calls.
pub struct SelectPastInvoke;

impl RewriteRule for SelectPastInvoke {
    fn name(&self) -> &'static str {
        "select-past-invoke"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Select(inner, f) = plan else {
            return None;
        };
        let Plan::Invoke(r, proto, sa) = inner.as_ref() else {
            return None;
        };
        if !invoke_is_passive(r, proto, sa.as_str(), catalog).ok()? {
            return None;
        }
        let s = r.schema(catalog).ok()?;
        let bp = s.find_bp_exact(proto, sa.as_str())?;
        if bp
            .prototype()
            .output()
            .names()
            .any(|o| f.references(o.as_str()))
        {
            return None;
        }
        let rewritten = Plan::Invoke(
            Box::new(Plan::Select(r.clone(), f.clone())),
            proto.clone(),
            sa.clone(),
        );
        checked(plan, rewritten, catalog)
    }
}

/// `π_L(β_bp(r)) ⇒ β_bp(π_L(r))` if `bp` is **passive** and `L` retains the
/// service attribute, every `Input_ψ` attribute and every `Output_ψ`
/// attribute — Table 5, projection column of the invocation row.
pub struct ProjectPastInvoke;

impl RewriteRule for ProjectPastInvoke {
    fn name(&self) -> &'static str {
        "project-past-invoke"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Project(inner, attrs) = plan else {
            return None;
        };
        let Plan::Invoke(r, proto, sa) = inner.as_ref() else {
            return None;
        };
        if !invoke_is_passive(r, proto, sa.as_str(), catalog).ok()? {
            return None;
        }
        let s = r.schema(catalog).ok()?;
        let bp = s.find_bp_exact(proto, sa.as_str())?;
        let has = |name: &str| attrs.iter().any(|a| a.as_str() == name);
        if !has(bp.service_attr().as_str()) {
            return None;
        }
        if !bp.prototype().input().names().all(|a| has(a.as_str())) {
            return None;
        }
        if !bp.prototype().output().names().all(|a| has(a.as_str())) {
            return None;
        }
        let rewritten = Plan::Invoke(
            Box::new(Plan::Project(r.clone(), attrs.clone())),
            proto.clone(),
            sa.clone(),
        );
        checked(plan, rewritten, catalog)
    }
}

/// `β_bp(r1 ⋈ r2) ⇒ β_bp(r1) ⋈ r2` if `bp` is **passive**, belongs to
/// `BP(R1)` with all input attributes real in `R1`, and none of `Output_ψ`
/// appears in `schema(R2)` — Table 5, join column of the invocation row.
pub struct InvokeIntoJoin;

impl RewriteRule for InvokeIntoJoin {
    fn name(&self) -> &'static str {
        "invoke-into-join"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Invoke(inner, proto, sa) = plan else {
            return None;
        };
        let Plan::Join(r1, r2) = inner.as_ref() else {
            return None;
        };
        let s1 = r1.schema(catalog).ok()?;
        let s2 = r2.schema(catalog).ok()?;
        // try each operand (the rule is symmetric in the join).
        for (this, other, this_plan, other_plan, left) in
            [(&s1, &s2, r1, r2, true), (&s2, &s1, r2, r1, false)]
        {
            let Some(bp) = this.find_bp_exact(proto, sa.as_str()) else {
                continue;
            };
            if bp.is_active() {
                continue;
            }
            if !bp
                .prototype()
                .input()
                .names()
                .all(|a| this.is_real(a.as_str()))
            {
                continue;
            }
            if bp
                .prototype()
                .output()
                .names()
                .any(|o| other.contains(o.as_str()))
            {
                continue;
            }
            let invoked = Box::new(Plan::Invoke(this_plan.clone(), proto.clone(), sa.clone()));
            let rewritten = if left {
                Plan::Join(invoked, other_plan.clone())
            } else {
                Plan::Join(other_plan.clone(), invoked)
            };
            if let Some(ok) = checked(plan, rewritten, catalog) {
                return Some(ok);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Classic relational rules the paper keeps (§3.3: "Some well-known
// rewriting rules of the relational algebra are still pertinent")
// ---------------------------------------------------------------------

/// `σ_{F∧G}(r) ⇒ σ_F(σ_G(r))` — conjunction split, enabling independent
/// pushdown of each conjunct.
pub struct SplitConjunctiveSelect;

impl RewriteRule for SplitConjunctiveSelect {
    fn name(&self) -> &'static str {
        "split-conjunctive-select"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Select(inner, Formula::And(f, g)) = plan else {
            return None;
        };
        let rewritten = Plan::Select(
            Box::new(Plan::Select(inner.clone(), (**g).clone())),
            (**f).clone(),
        );
        checked(plan, rewritten, catalog)
    }
}

/// `σ_F(σ_G(r)) ⇒ σ_{F∧G}(r)` — merge adjacent selections (cleanup pass).
pub struct MergeSelects;

impl RewriteRule for MergeSelects {
    fn name(&self) -> &'static str {
        "merge-selects"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Select(inner, f) = plan else {
            return None;
        };
        let Plan::Select(r, g) = inner.as_ref() else {
            return None;
        };
        let rewritten = Plan::Select(r.clone(), f.clone().and(g.clone()));
        checked(plan, rewritten, catalog)
    }
}

/// `σ_F(r1 ⋈ r2) ⇒ σ_F(r1) ⋈ r2` (resp. right) when `F` only references
/// real attributes of one operand.
pub struct SelectIntoJoin;

impl RewriteRule for SelectIntoJoin {
    fn name(&self) -> &'static str {
        "select-into-join"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Select(inner, f) = plan else {
            return None;
        };
        let Plan::Join(r1, r2) = inner.as_ref() else {
            return None;
        };
        let s1 = r1.schema(catalog).ok()?;
        let s2 = r2.schema(catalog).ok()?;
        let attrs = f.attrs();
        if attrs.iter().all(|a| s1.is_real(a.as_str())) {
            let rewritten = Plan::Join(Box::new(Plan::Select(r1.clone(), f.clone())), r2.clone());
            return checked(plan, rewritten, catalog);
        }
        if attrs.iter().all(|a| s2.is_real(a.as_str())) {
            let rewritten = Plan::Join(r1.clone(), Box::new(Plan::Select(r2.clone(), f.clone())));
            return checked(plan, rewritten, catalog);
        }
        None
    }
}

/// `σ_F(r1 ∪ r2) ⇒ σ_F(r1) ∪ σ_F(r2)` (and likewise for ∩ and −).
pub struct SelectIntoSetOp;

impl RewriteRule for SelectIntoSetOp {
    fn name(&self) -> &'static str {
        "select-into-set-op"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Select(inner, f) = plan else {
            return None;
        };
        let push = |a: &Plan, b: &Plan, mk: fn(Box<Plan>, Box<Plan>) -> Plan| {
            mk(
                Box::new(Plan::Select(Box::new(a.clone()), f.clone())),
                Box::new(Plan::Select(Box::new(b.clone()), f.clone())),
            )
        };
        let rewritten = match inner.as_ref() {
            Plan::Union(a, b) => push(a, b, Plan::Union),
            Plan::Intersect(a, b) => push(a, b, Plan::Intersect),
            Plan::Difference(a, b) => push(a, b, Plan::Difference),
            _ => return None,
        };
        checked(plan, rewritten, catalog)
    }
}

/// `σ_F(ρ_{A→B}(r)) ⇒ ρ_{A→B}(σ_{F[B↦A]}(r))`.
pub struct SelectPastRename;

impl RewriteRule for SelectPastRename {
    fn name(&self) -> &'static str {
        "select-past-rename"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Select(inner, f) = plan else {
            return None;
        };
        let Plan::Rename(r, from, to) = inner.as_ref() else {
            return None;
        };
        let pushed = f.rename_attr(to.as_str(), from);
        let rewritten = Plan::Rename(
            Box::new(Plan::Select(r.clone(), pushed)),
            from.clone(),
            to.clone(),
        );
        checked(plan, rewritten, catalog)
    }
}

/// Whether `σ_F` could be pushed one step below `node` (the one-step
/// pushability oracle used by [`SelectPastSelect`]). Looks through chains
/// of selections.
fn can_push_below(f: &Formula, node: &Plan, catalog: &dyn SchemaCatalog) -> bool {
    match node {
        Plan::Select(inner, _) => can_push_below(f, inner, catalog),
        Plan::Assign(_, attr, _) => !f.references(attr.as_str()),
        Plan::Invoke(child, proto, sa) => {
            let Ok(true) = invoke_is_passive(child, proto, sa.as_str(), catalog) else {
                return false;
            };
            let Ok(s) = child.schema(catalog) else {
                return false;
            };
            let Some(bp) = s.find_bp_exact(proto, sa.as_str()) else {
                return false;
            };
            let crosses = !bp
                .prototype()
                .output()
                .names()
                .any(|o| f.references(o.as_str()));
            crosses
        }
        Plan::Join(a, b) => {
            let (Ok(sa), Ok(sb)) = (a.schema(catalog), b.schema(catalog)) else {
                return false;
            };
            let attrs = f.attrs();
            attrs.iter().all(|x| sa.is_real(x.as_str()))
                || attrs.iter().all(|x| sb.is_real(x.as_str()))
        }
        Plan::Union(..) | Plan::Intersect(..) | Plan::Difference(..) => true,
        Plan::Rename(..) | Plan::Project(..) => true,
        Plan::Window(streamer, _) => passes_through_streamer(f, streamer, catalog),
        Plan::Relation(_) | Plan::Aggregate(..) | Plan::Stream(..) | Plan::SampleInvoke(..) => {
            false
        }
    }
}

/// `σ_F(σ_G(x)) ⇒ σ_G(σ_F(x))` when `F` can descend below `x` but `G`
/// cannot — a pushable conjunct hops over a stuck one. The asymmetric
/// condition guarantees termination (re-swapping would need the opposite
/// pushability).
pub struct SelectPastSelect;

impl RewriteRule for SelectPastSelect {
    fn name(&self) -> &'static str {
        "select-past-select"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Select(inner, f) = plan else {
            return None;
        };
        let Plan::Select(x, g) = inner.as_ref() else {
            return None;
        };
        if !can_push_below(f, x, catalog) || can_push_below(g, x, catalog) {
            return None;
        }
        let rewritten = Plan::Select(Box::new(Plan::Select(x.clone(), f.clone())), g.clone());
        checked(plan, rewritten, catalog)
    }
}

/// `σ_F(π_L(r)) ⇒ π_L(σ_F(r))` — always valid: every attribute of `F` is a
/// real attribute of `π_L(r)`, hence of `r`.
pub struct SelectPastProject;

impl RewriteRule for SelectPastProject {
    fn name(&self) -> &'static str {
        "select-past-project"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Select(inner, f) = plan else {
            return None;
        };
        let Plan::Project(r, attrs) = inner.as_ref() else {
            return None;
        };
        let rewritten = Plan::Project(Box::new(Plan::Select(r.clone(), f.clone())), attrs.clone());
        checked(plan, rewritten, catalog)
    }
}

/// `σ_true(r) ⇒ r` — trivial-selection elimination.
pub struct DropTrueSelect;

impl RewriteRule for DropTrueSelect {
    fn name(&self) -> &'static str {
        "drop-true-select"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Select(inner, Formula::True) = plan else {
            return None;
        };
        checked(plan, (**inner).clone(), catalog)
    }
}

/// `π_L1(π_L2(r)) ⇒ π_L1(r)` — projection absorption (valid because π_L1
/// over π_L2 requires `L1 ⊆ L2`).
pub struct MergeProjects;

impl RewriteRule for MergeProjects {
    fn name(&self) -> &'static str {
        "merge-projects"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        let Plan::Project(inner, l1) = plan else {
            return None;
        };
        let Plan::Project(r, _) = inner.as_ref() else {
            return None;
        };
        let rewritten = Plan::Project(r.clone(), l1.clone());
        checked(plan, rewritten, catalog)
    }
}

// ---------------------------------------------------------------------
// Continuous plans (§4.2): σ past a window over a streaming operator
// ---------------------------------------------------------------------

/// `streamer` is `S[kind](q)` or `βˢ(q)` and every attribute `f`
/// references is *real* in `q`'s schema — i.e. the streaming operator
/// passes it through unchanged (realization only turns virtual attributes
/// real), so `σ_f` commutes with it per tuple.
fn passes_through_streamer(f: &Formula, streamer: &Plan, catalog: &dyn SchemaCatalog) -> bool {
    let (Plan::Stream(q, _) | Plan::SampleInvoke(q, ..)) = streamer else {
        return false;
    };
    match q.stream_schema(catalog) {
        Ok(s) if !s.infinite => f.attrs().iter().all(|a| s.schema.is_real(a.as_str())),
        _ => false,
    }
}

/// `σ_F(W[p](X(q))) ⇒ W[p](X(σ_F(q)))` for a streaming operator `X`
/// accepted by `is_streamer`, when `F` only touches attributes `X` passes
/// through.
fn select_past_windowed(
    plan: &Plan,
    catalog: &dyn SchemaCatalog,
    is_streamer: fn(&Plan) -> bool,
) -> Option<Plan> {
    let Plan::Select(window, f) = plan else {
        return None;
    };
    let Plan::Window(streamer, _) = window.as_ref() else {
        return None;
    };
    if !is_streamer(streamer) || !passes_through_streamer(f, streamer, catalog) {
        return None;
    }
    let q = streamer.children()[0].clone();
    let rewritten = window.with_children(vec![streamer.with_children(vec![q.select(f.clone())])]);
    checked(plan, rewritten, catalog)
}

/// `σ_F(W[p](S[kind](q))) ⇒ W[p](S[kind](σ_F(q)))` when `F` references
/// only real attributes of `q`: `S` re-emits `q`'s tuples verbatim for all
/// three kinds, so the selection commutes per tuple.
pub struct SelectPastWindowedStream;

impl RewriteRule for SelectPastWindowedStream {
    fn name(&self) -> &'static str {
        "select-past-windowed-stream"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        select_past_windowed(plan, catalog, |p| matches!(p, Plan::Stream(..)))
    }
}

/// `σ_F(W[p](βˢ[k]_bp(q))) ⇒ W[p](βˢ[k]_bp(σ_F(q)))` when `F` references
/// only real attributes of `q`: the sampling invocation (always passive)
/// copies them through unchanged, so filtering before sampling removes
/// exactly the rows whose outputs the selection would have dropped — and
/// saves their service calls.
pub struct SelectPastWindowedSample;

impl RewriteRule for SelectPastWindowedSample {
    fn name(&self) -> &'static str {
        "select-past-windowed-sample"
    }

    fn try_apply(&self, plan: &Plan, catalog: &dyn SchemaCatalog) -> Option<Plan> {
        select_past_windowed(plan, catalog, |p| matches!(p, Plan::SampleInvoke(..)))
    }
}

/// All rules, in the order the optimizer's pushdown phase tries them.
pub fn all_rules() -> Vec<Box<dyn RewriteRule>> {
    vec![
        Box::new(SplitConjunctiveSelect),
        Box::new(DropTrueSelect),
        Box::new(SelectPastSelect),
        Box::new(SelectPastProject),
        Box::new(SelectPastAssign),
        Box::new(SelectPastInvoke),
        Box::new(SelectIntoJoin),
        Box::new(SelectIntoSetOp),
        Box::new(SelectPastRename),
        Box::new(SelectPastWindowedStream),
        Box::new(SelectPastWindowedSample),
        Box::new(ProjectPastAssign),
        Box::new(ProjectPastInvoke),
        Box::new(AssignIntoJoin),
        Box::new(InvokeIntoJoin),
        Box::new(MergeProjects),
    ]
}

/// Apply `rule` at every node (bottom-up), returning the rewritten plan and
/// the number of applications.
pub fn apply_everywhere(
    plan: &Plan,
    rule: &dyn RewriteRule,
    catalog: &dyn SchemaCatalog,
) -> (Plan, usize) {
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
        let rewritten = SelectPastAssign.try_apply(&p, &env).unwrap();
        assert!(matches!(rewritten, Plan::Assign(..)));
        assert_equiv(&p, &rewritten);
    }

    #[test]
    fn select_past_assign_blocked_when_formula_uses_target() {
        let env = example_environment();
        let p = Plan::relation("contacts")
            .assign_const("text", "Bonjour!")
            .select(crate::formula::Formula::eq_const("text", "Bonjour!"));
        assert!(SelectPastAssign.try_apply(&p, &env).is_none());
    }

    #[test]
    fn select_past_invoke_rewrites_q2_prime_toward_q2() {
        let env = example_environment();
        // σ_{area∧quality}(β_checkPhoto(cameras)): split, hop the pushable
        // area conjunct over the stuck quality conjunct, then cross the
        // passive β.
        let p = q2_prime();
        let (split, n) = apply_everywhere(&p, &SplitConjunctiveSelect, &env);
        assert_eq!(n, 1);
        let (swapped, n) = apply_everywhere(&split, &SelectPastSelect, &env);
        assert_eq!(n, 1, "area conjunct should hop over quality: {split}");
        let (pushed, n) = apply_everywhere(&swapped, &SelectPastInvoke, &env);
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
        assert!(SelectPastSelect.try_apply(&p, &env).is_none());
        // both pushable → no swap either (order is irrelevant, avoid churn)
        let p = Plan::relation("cameras")
            .invoke("checkPhoto", "camera")
            .select(crate::formula::Formula::eq_const("area", "office"))
            .select(crate::formula::Formula::eq_const("camera", "camera01"));
        assert!(SelectPastSelect.try_apply(&p, &env).is_none());
    }

    #[test]
    fn select_past_project_fires() {
        let env = example_environment();
        let p = Plan::relation("contacts")
            .project(["name", "address"])
            .select(crate::formula::Formula::ne_const("name", "Carla"));
        let rewritten = SelectPastProject.try_apply(&p, &env).unwrap();
        assert!(matches!(rewritten, Plan::Project(..)));
        assert_equiv(&p, &rewritten);
    }

    #[test]
    fn select_never_crosses_active_invoke() {
        let env = example_environment();
        // σ_{name≠'Carla'}(β_sendMessage(α_text(contacts))) — Q1'
        let p = crate::plan::examples::q1_prime();
        let (rewritten, n) = apply_everywhere(&p, &SelectPastInvoke, &env);
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
        assert!(SelectPastInvoke.try_apply(&p, &env).is_none());
    }

    #[test]
    fn project_past_invoke_requires_bp_attrs() {
        let env = example_environment();
        let p = Plan::relation("cameras")
            .invoke("checkPhoto", "camera")
            .project(["camera", "area", "quality", "delay"]);
        let rewritten = ProjectPastInvoke.try_apply(&p, &env);
        // photo (takePhoto's output) is dropped by the projection; the BP
        // attrs of checkPhoto are all retained → rule fires.
        let rewritten = rewritten.expect("rule should fire");
        assert_equiv(&p, &rewritten);

        // dropping `delay` (an output of checkPhoto) blocks the rule
        let p = Plan::relation("cameras")
            .invoke("checkPhoto", "camera")
            .project(["camera", "area", "quality"]);
        assert!(ProjectPastInvoke.try_apply(&p, &env).is_none());
    }

    #[test]
    fn invoke_into_join_fires_for_passive_bp() {
        let env = example_environment();
        // β_getTemperature(sensors ⋈ contactsProj) — contacts projected to
        // an unrelated attribute set to avoid attr collisions.
        let p = Plan::relation("sensors")
            .join(Plan::relation("contacts").project(["name", "address"]))
            .invoke("getTemperature", "sensor");
        let rewritten = InvokeIntoJoin.try_apply(&p, &env).expect("fires");
        assert!(matches!(rewritten, Plan::Join(..)));
        assert_equiv(&p, &rewritten);
    }

    #[test]
    fn assign_into_join_fires() {
        let env = example_environment();
        let p = Plan::relation("contacts")
            .join(Plan::relation("sensors").project(["sensor", "location"]))
            .assign_const("text", "hi");
        let rewritten = AssignIntoJoin.try_apply(&p, &env).expect("fires");
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
        let rewritten = AssignIntoJoin.try_apply(&p, &env).expect("fires on right");
        let Plan::Join(_, r) = &rewritten else {
            panic!("expected join on top")
        };
        assert!(matches!(**r, Plan::Assign(..)));
        assert_equiv(&p, &rewritten);

        let p = Plan::relation("contacts")
            .project(["name", "address"])
            .join(Plan::relation("sensors"))
            .invoke("getTemperature", "sensor");
        let rewritten = InvokeIntoJoin.try_apply(&p, &env).expect("fires on right");
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
        let split = SplitConjunctiveSelect.try_apply(&p, &env).unwrap();
        assert_equiv(&p, &split);
        let merged = MergeSelects.try_apply(&split, &env).unwrap();
        assert_equiv(&p, &merged);

        // σ into ∪
        let u = Plan::relation("contacts")
            .union(Plan::relation("contacts"))
            .select(f.clone());
        let pushed = SelectIntoSetOp.try_apply(&u, &env).unwrap();
        assert_equiv(&u, &pushed);

        // σ past ρ
        let p = Plan::relation("contacts")
            .rename("name", "who")
            .select(crate::formula::Formula::ne_const("who", "Carla"));
        let pushed = SelectPastRename.try_apply(&p, &env).unwrap();
        assert_equiv(&p, &pushed);

        // drop σ_true
        let p = Plan::relation("contacts").select(crate::formula::Formula::True);
        assert_eq!(
            DropTrueSelect.try_apply(&p, &env).unwrap(),
            Plan::relation("contacts")
        );

        // π absorption
        let p = Plan::relation("contacts")
            .project(["name", "address"])
            .project(["name"]);
        let merged = MergeProjects.try_apply(&p, &env).unwrap();
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
        let rewritten = SelectIntoJoin.try_apply(&p, &env).unwrap();
        assert_equiv(&p, &rewritten);
        // right-side predicate
        let p = join.select(crate::formula::Formula::ne_const("name", "Carla"));
        let rewritten = SelectIntoJoin.try_apply(&p, &env).unwrap();
        assert_equiv(&p, &rewritten);
    }

    #[test]
    fn q1_admits_no_rule_that_changes_its_action_set() {
        let env = example_environment();
        let reg = example_registry();
        let ctx = crate::exec::ExecContext::new(&env, &reg, Instant::ZERO);
        let before = ctx.execute(&q1()).unwrap();
        for rule in all_rules() {
            let (rewritten, _) = apply_everywhere(&q1(), rule.as_ref(), &env);
            let after = ctx.execute(&rewritten).unwrap();
            assert_eq!(
                before.actions,
                after.actions,
                "rule {} changed Q1's action set",
                rule.name()
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
        for rule in all_rules() {
            let (next, _) = apply_everywhere(&plan, rule.as_ref(), &env);
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
