//! What a plan hot-swap needs from the logical layer.
//!
//! Continuous plans are optimized by the one optimizer,
//! [`serena_core::rewrite::optimize`]: a continuous plan is a
//! [`serena_core::plan::Plan`], `W`/`S`/`βˢ` bound its finite regions, and the
//! two selection pushdowns past `W∘S` and `W∘βˢ` sit in its pushdown phase;
//! [`serena_core::rewrite::MeasuredCosts::estimate`] costs it per instant. This module
//! adds the two things only a *running* query needs:
//!
//! * [`candidates_for`] — the deterministic candidate set the adaptive
//!   re-optimizer ranks: the original plan plus, when different, the
//!   optimized one. Pure function of (plan, catalog) so every replay
//!   regenerates the same candidates in the same order;
//! * [`state_keys`] / [`migration_pairs`] — the plan-level inventory of
//!   state-carrying nodes (window rings, β caches) that lets a hot-swap
//!   carry state from the outgoing plan into the incoming one when the
//!   subtree feeding a node is unchanged.

use serena_core::plan::SchemaCatalog;
use serena_core::rewrite::optimize;

use crate::plan::StreamPlan;

/// The deterministic candidate set for adaptive re-optimization:
/// `[0]` is always the original plan; the optimized plan follows when it
/// differs. Replays regenerate identical candidates from the same inputs.
pub fn candidates_for(plan: &StreamPlan, catalog: &dyn SchemaCatalog) -> Vec<StreamPlan> {
    let mut out = vec![plan.clone()];
    let opt = optimize(plan, catalog).plan;
    if !out.contains(&opt) {
        out.push(opt);
    }
    out
}

// ---------------------------------------------------------------------
// state-carryover inventory for plan hot-swaps
// ---------------------------------------------------------------------

/// Signatures of a plan's state-carrying nodes, each list in the
/// executor's pre-order (the order [`crate::exec::ContinuousQuery`]
/// assigns node ids: node first, then children left to right).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StateKeys {
    /// One signature per `W[p]` node: period plus the full rendering of
    /// the subtree feeding it — a ring is only portable when its feeding
    /// subtree is unchanged.
    pub windows: Vec<String>,
    /// One signature per `β` node: prototype, service attribute and the
    /// operand's *schema* — a cache keyed on input tuples is portable
    /// exactly when the input tuple layout is unchanged (a different
    /// subset of the same-shaped inputs is fine; unused entries idle).
    pub invokes: Vec<String>,
}

/// Inventory `plan`'s state-carrying nodes.
pub fn state_keys(plan: &StreamPlan, catalog: &dyn SchemaCatalog) -> StateKeys {
    let mut keys = StateKeys::default();
    collect_keys(plan, catalog, &mut keys);
    keys
}

fn collect_keys(plan: &StreamPlan, catalog: &dyn SchemaCatalog, keys: &mut StateKeys) {
    match plan {
        StreamPlan::Window(child, period) => {
            keys.windows
                .push(format!("W[{period}] {}", child.to_algebra()));
        }
        StreamPlan::Invoke(child, proto, sa) => {
            let operand = match child.schema(catalog) {
                Ok(s) => format!("{s:?}"),
                // fall back to structural identity when the schema cannot
                // be derived (conservative: only identical subtrees match)
                Err(_) => child.to_algebra(),
            };
            keys.invokes
                .push(format!("\u{3b2} {proto}[{sa}] over {operand}"));
        }
        _ => {}
    }
    for c in plan.children() {
        collect_keys(c, catalog, keys);
    }
}

/// Which state a hot-swap can carry over: `(new_position, old_position)`
/// pairs per node kind, positions counting same-kind nodes in pre-order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MigrationMap {
    /// Window-ring adoptions.
    pub windows: Vec<(usize, usize)>,
    /// β-cache adoptions.
    pub invokes: Vec<(usize, usize)>,
}

impl MigrationMap {
    /// No state carried over (cold swap).
    pub fn empty() -> Self {
        Self::default()
    }
}

/// Match the state-carrying nodes of the incoming plan against the
/// outgoing plan's: each new node adopts the first not-yet-claimed old
/// node with an identical signature.
pub fn migration_pairs(old: &StateKeys, new: &StateKeys) -> MigrationMap {
    MigrationMap {
        windows: greedy_match(&old.windows, &new.windows),
        invokes: greedy_match(&old.invokes, &new.invokes),
    }
}

fn greedy_match(old: &[String], new: &[String]) -> Vec<(usize, usize)> {
    let mut used = vec![false; old.len()];
    let mut out = Vec::new();
    for (ni, key) in new.iter().enumerate() {
        if let Some(oi) = (0..old.len()).find(|&i| !used[i] && old[i] == *key) {
            used[oi] = true;
            out.push((ni, oi));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{StreamKind, StreamSchema};
    use serena_core::formula::Formula;
    use serena_core::schema::examples as schemas;
    use std::collections::BTreeMap;

    fn catalog() -> BTreeMap<String, StreamSchema> {
        let temperatures = serena_core::schema::XSchema::builder()
            .real("location", serena_core::value::DataType::Str)
            .real("temperature", serena_core::value::DataType::Real)
            .build()
            .unwrap();
        [
            ("sensors", StreamSchema::finite(schemas::sensors_schema())),
            ("contacts", StreamSchema::finite(schemas::contacts_schema())),
            ("cameras", StreamSchema::finite(schemas::cameras_schema())),
            ("temperatures", StreamSchema::infinite(temperatures)),
        ]
        .into_iter()
        .map(|(n, s)| (n.to_string(), s))
        .collect()
    }

    /// The E20 shape: filter a windowed periodic sampling of the sensor
    /// fleet down to one location (also the plan of `tests/adaptive.rs` and
    /// the `adaptive` workload of `benches/overhead.rs`).
    fn naive_sampler() -> StreamPlan {
        StreamPlan::source("sensors")
            .sample_invoke("getTemperature", "sensor", 1)
            .window(1)
            .select(Formula::eq_const("location", "corridor"))
    }

    fn pushed_sampler() -> StreamPlan {
        StreamPlan::source("sensors")
            .select(Formula::eq_const("location", "corridor"))
            .sample_invoke("getTemperature", "sensor", 1)
            .window(1)
    }

    #[test]
    fn candidates_are_deterministic_and_original_first() {
        let cat = catalog();
        let a = candidates_for(&naive_sampler(), &cat);
        let b = candidates_for(&naive_sampler(), &cat);
        assert_eq!(a, b);
        assert_eq!(a[0], naive_sampler());
        assert_eq!(a.len(), 2);
        // an already-optimal plan yields a single candidate
        assert_eq!(candidates_for(&pushed_sampler(), &cat).len(), 1);
    }

    /// Adaptive checkpoints store a candidate *index*: the candidate lists
    /// recorded before the two plan trees were merged must not change.
    #[test]
    fn candidate_lists_match_the_recorded_ones() {
        let rendered = |plan: StreamPlan| -> Vec<String> {
            candidates_for(&plan, &catalog())
                .iter()
                .map(|c| c.to_algebra())
                .collect()
        };
        assert_eq!(
            rendered(crate::plan::examples::q3()),
            [
                "β sendMessage[messenger] (α text:='Hot!' ((π temperature (σ temperature > 35.5 \
                 (W[1] (temperatures))) ⋈ contacts)))",
                "β sendMessage[messenger] ((π temperature (σ temperature > 35.5 \
                 (W[1] (temperatures))) ⋈ α text:='Hot!' (contacts)))",
            ]
        );
        assert_eq!(
            rendered(crate::plan::examples::q4()),
            [
                "S[insertion] (π photo (β takePhoto[camera] (β checkPhoto[camera] ((π area \
                 (ρ location→area (σ temperature < 12.0 (W[1] (temperatures)))) ⋈ cameras)))))",
                "S[insertion] (π photo ((π area (ρ location→area (σ temperature < 12.0 \
                 (W[1] (temperatures)))) ⋈ β takePhoto[camera] (β checkPhoto[camera] (cameras)))))",
            ]
        );
        assert_eq!(
            rendered(naive_sampler()),
            [
                "σ location = 'corridor' (W[1] (βˢ[1] getTemperature[sensor] (sensors)))",
                "W[1] (βˢ[1] getTemperature[sensor] (σ location = 'corridor' (sensors)))",
            ]
        );
    }

    /// A real relation may be named like the `⟨wN⟩` leaves the optimizer
    /// once stood in for window subtrees: the plan over it must come back
    /// as itself, not with the window spliced in its place.
    #[test]
    fn relation_named_like_a_placeholder_yields_no_false_candidate() {
        let mut cat = catalog();
        cat.insert(
            "\u{27e8}w0\u{27e9}".to_string(),
            StreamSchema::finite(schemas::sensors_schema()),
        );
        let plan = StreamPlan::source("\u{27e8}w0\u{27e9}").union(
            StreamPlan::source("sensors")
                .stream(StreamKind::Insertion)
                .window(3),
        );
        assert_eq!(candidates_for(&plan, &cat), [plan]);
    }

    #[test]
    fn q3_and_q4_keep_their_schema_and_status_when_optimized() {
        let cat = catalog();
        for q in [crate::plan::examples::q3(), crate::plan::examples::q4()] {
            let opt = optimize(&q, &cat).plan;
            assert_eq!(
                q.stream_schema(&cat).unwrap(),
                opt.stream_schema(&cat).unwrap(),
                "{q} vs {opt}"
            );
        }
    }

    #[test]
    fn state_keys_track_feeding_subtrees() {
        let cat = catalog();
        let old = state_keys(&naive_sampler(), &cat);
        let new = state_keys(&pushed_sampler(), &cat);
        assert_eq!(old.windows.len(), 1);
        assert_eq!(new.windows.len(), 1);
        // the subtree feeding the window changed → the ring is not portable
        let pairs = migration_pairs(&old, &new);
        assert!(pairs.windows.is_empty());

        // an unchanged β keeps its cache portable
        let q = StreamPlan::source("contacts")
            .assign_const("text", "hi")
            .invoke("sendMessage", "messenger");
        let keys = state_keys(&q, &cat);
        assert_eq!(keys.invokes.len(), 1);
        let pairs = migration_pairs(&keys, &keys);
        assert_eq!(pairs.invokes, vec![(0, 0)]);
    }

    #[test]
    fn invoke_cache_portable_across_selection_change_below() {
        // σ-pushdown below a β filters *which* inputs arrive but not their
        // layout — the cache stays portable (schema-keyed, not tree-keyed)
        let cat = catalog();
        let wide = StreamPlan::source("contacts")
            .assign_const("text", "hi")
            .invoke("sendMessage", "messenger");
        let narrow = StreamPlan::source("contacts")
            .select(Formula::eq_const("name", "Alice"))
            .assign_const("text", "hi")
            .invoke("sendMessage", "messenger");
        let pairs = migration_pairs(&state_keys(&wide, &cat), &state_keys(&narrow, &cat));
        assert_eq!(pairs.invokes, vec![(0, 0)]);
    }
}
