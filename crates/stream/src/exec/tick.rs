//! Evaluating one instant: the per-node tick and the operators' delta
//! semantics.

use std::borrow::Cow;

use serena_core::action::Action;
use serena_core::metrics::OpObservation;
use serena_core::ops::{self, DegradePolicy, InvokeTally};

use super::*;

pub(super) struct Ctx<'a> {
    pub(super) at: Instant,
    pub(super) invoker: &'a dyn Invoker,
    pub(super) actions: &'a mut ActionSet,
    pub(super) errors: &'a mut Vec<EvalError>,
    pub(super) metrics: &'a dyn MetricsSink,
    /// β worker-pool width for one δ-batch (1 = serial).
    pub(super) parallelism: usize,
    /// How β/βˢ reacts when one tuple's invocation fails.
    pub(super) degrade: DegradePolicy,
    /// Armed flight recorder for per-operator spans (`None` = no tracing).
    pub(super) tracer: Option<&'a FlightRecorder>,
}

/// Per-tick node output: a finite delta or a stream batch.
pub(super) enum Out {
    Finite(Delta),
    Batch(Vec<Tuple>),
}

impl Out {
    fn size(&self) -> u64 {
        match self {
            Out::Finite(d) => (d.inserts.len() + d.deletes.len()) as u64,
            Out::Batch(b) => b.len() as u64,
        }
    }
}

fn finite(input: Option<Out>) -> Delta {
    match input {
        Some(Out::Finite(d)) => d,
        _ => unreachable!("type-checked: finite operand expected"),
    }
}

fn batch(input: Option<Out>) -> Vec<Tuple> {
    match input {
        Some(Out::Batch(b)) => b,
        _ => unreachable!("type-checked: stream operand expected"),
    }
}

/// Tick one node, recording one [`OpObservation`] under its compile-time
/// pre-order [`NodeId`] (delta sizes, β counters, operator self-time) —
/// and, when a flight recorder is armed, one span per node. The span's
/// wall interval is *inclusive* (children run inside it, nesting the tree
/// naturally); the observation's `elapsed` stays self-time.
pub(super) fn tick_node(node: &mut Node, ctx: &mut Ctx<'_>) -> Out {
    let (_, kind, span_name) = node.op.meta();
    let mut obs = OpObservation::new(node.id, kind);
    let mut span = ctx.tracer.and_then(|t| t.start(span_name, ctx.at));
    let out = {
        let _in_span = span.as_ref().map(|s| s.enter());
        // Children first, left to right. Only the first child's output is
        // handed on: the binary operators read their operands' `current`.
        let mut input = None;
        for child in &mut node.children {
            let out = tick_node(child, ctx);
            obs.tuples_in += out.size();
            input.get_or_insert(out);
        }
        let started_at = std::time::Instant::now();
        let out = node
            .op
            .tick(input, &node.children, &mut node.current, ctx, &mut obs);
        obs.elapsed = started_at.elapsed();
        out
    };
    obs.tuples_out = out.size();
    if let Some(s) = span.as_mut() {
        s.attr_u64("node", node.id.0 as u64);
        s.attr_u64("tuples_in", obs.tuples_in);
        s.attr_u64("tuples_out", obs.tuples_out);
        s.attr_u64(
            "self_ns",
            u128::min(obs.elapsed.as_nanos(), u64::MAX as u128) as u64,
        );
        if obs.invocations > 0 {
            s.attr_u64("invocations", obs.invocations);
            s.attr_u64("cache_hits", obs.cache_hits);
            s.attr_u64("failures", obs.failures);
            s.attr_u64("degraded", obs.degraded);
            if obs.remote_unavailable > 0 {
                s.attr_u64("remote_unavailable", obs.remote_unavailable);
            }
        }
    }
    drop(span);
    ctx.metrics.record(&obs);
    out
}

impl Op {
    /// One instant of this operator: consume the first child's `input`,
    /// bring `current` up to date, produce the node's output.
    fn tick(
        &mut self,
        input: Option<Out>,
        children: &[Node],
        current: &mut Multiset,
        ctx: &mut Ctx<'_>,
        obs: &mut OpObservation,
    ) -> Out {
        let delta = match self {
            Op::Table { handle, started } => {
                let delta = handle.tick_at(ctx.at, !*started);
                *started = true;
                delta
            }
            Op::Stream { source } => return Out::Batch(source.poll(ctx.at)),
            Op::Linear(op) => map_delta(op, &finite(input), ctx),
            Op::Recompute(op) => {
                let new = recompute(op, children, ctx);
                let delta = current.diff_to(&new);
                *current = new;
                return Out::Finite(delta);
            }
            Op::Invoke { recipe, cache } => apply_invoke(recipe, cache, &finite(input), ctx, obs),
            Op::Window { period, ring, warm } => {
                let batch = batch(input);
                let mut delta = Delta::new();
                for t in &batch {
                    delta.inserts.insert(t.clone(), 1);
                }
                ring.push_back(batch);
                if ring.len() as u64 > *period {
                    let expired = ring.pop_front().expect("nonempty");
                    for t in expired {
                        delta.deletes.insert(t, 1);
                    }
                }
                current.apply(&delta);
                if *warm {
                    // bootstrap tick after a hot-swap adopted this ring: the
                    // nodes downstream are cold, so replace the incremental
                    // delta with the full post-update content as insertions
                    *warm = false;
                    delta = Delta::new();
                    for (t, c) in current.iter() {
                        delta.inserts.insert(t.clone(), c);
                    }
                }
                return Out::Finite(delta);
            }
            Op::StreamOf(kind) => {
                let delta = finite(input);
                return Out::Batch(match kind {
                    StreamKind::Insertion => delta.inserts.sorted_occurrences(),
                    StreamKind::Deletion => delta.deletes.sorted_occurrences(),
                    StreamKind::Heartbeat => children[0].current.sorted_occurrences(),
                });
            }
            Op::SampleInvoke { recipe, period } => {
                if !ctx.at.ticks().is_multiple_of(*period) {
                    return Out::Batch(Vec::new());
                }
                return Out::Batch(sample(recipe, &children[0].current, ctx, obs));
            }
        };
        current.apply(&delta);
        Out::Finite(delta)
    }
}

/// σ/π/ρ/α over a delta: each side maps tuple by tuple.
fn map_delta(op: &CompiledOp, child_delta: &Delta, ctx: &mut Ctx<'_>) -> Delta {
    let mut out = Delta::new();
    for (side, mapped) in [
        (&child_delta.inserts, &mut out.inserts),
        (&child_delta.deletes, &mut out.deletes),
    ] {
        for (t, c) in side.iter() {
            match op.map_tuple(t) {
                Ok(Some(m)) => mapped.insert(m, c),
                Ok(None) => {}
                Err(e) => ctx.errors.push(e),
            }
        }
    }
    out
}

/// The instantaneous output of a nonlinear operator, from its operands'
/// current states.
fn recompute(op: &CompiledOp, children: &[Node], ctx: &mut Ctx<'_>) -> Multiset {
    let left = &children[0].current;
    let mut out = Multiset::new();
    match op {
        CompiledOp::Union { rhs_reorder }
        | CompiledOp::Intersect { rhs_reorder }
        | CompiledOp::Difference { rhs_reorder } => {
            // the right operand's state in the left operand's coordinates
            let mut right = Cow::Borrowed(&children[1].current);
            if rhs_reorder.is_some() {
                let mut reordered = Multiset::new();
                for (t, c) in right.iter() {
                    reordered.insert(op.reorder_rhs(t), c);
                }
                right = Cow::Owned(reordered);
            }
            if matches!(op, CompiledOp::Union { .. }) {
                out = left.clone();
                for (t, c) in right.iter() {
                    out.insert(t.clone(), c);
                }
            } else {
                let common = matches!(op, CompiledOp::Intersect { .. });
                for (t, c) in left.iter() {
                    let r = right.count(t);
                    let m = if common {
                        c.min(r)
                    } else {
                        c.saturating_sub(r)
                    };
                    if m > 0 {
                        out.insert(t.clone(), m);
                    }
                }
            }
        }
        CompiledOp::Join {
            key_left,
            key_right,
            ..
        } => {
            let mut index: HashMap<Tuple, Vec<(&Tuple, usize)>> = HashMap::new();
            for (t, c) in children[1].current.iter() {
                index
                    .entry(t.project_positions(key_right))
                    .or_default()
                    .push((t, c));
            }
            for (tl, cl) in left.iter() {
                if let Some(matches) = index.get(&tl.project_positions(key_left)) {
                    for (tr, cr) in matches {
                        out.insert(op.join_tuple(tl, tr), cl * cr);
                    }
                }
            }
        }
        CompiledOp::Aggregate {
            in_schema,
            group,
            aggs,
        } => {
            // Aggregate over the child's *distinct* tuples (set semantics,
            // matching the one-shot operator).
            let rel =
                XRelation::from_tuples(in_schema.clone(), left.iter().map(|(t, _)| t.clone()));
            match ops::aggregate(&rel, group, aggs) {
                Ok(out_rel) => out = out_rel.into_tuples().into_iter().collect(),
                Err(e) => ctx.errors.push(e),
            }
        }
        _ => unreachable!("{} keeps its state incrementally", op.kind()),
    }
    out
}

/// β over a delta (§4.2): deletions retract the cached extensions,
/// insertions invoke only tuples the cache has not seen.
fn apply_invoke(
    recipe: &InvokeRecipe,
    cache: &mut HashMap<Tuple, CacheEntry>,
    child_delta: &Delta,
    ctx: &mut Ctx<'_>,
    obs: &mut OpObservation,
) -> Delta {
    let mut out = Delta::new();
    // Deletions first: retract the cached extensions.
    for (t, c) in child_delta.deletes.iter() {
        if let Some(entry) = cache.get_mut(t) {
            let retract = c.min(entry.count);
            for o in &entry.outputs {
                out.deletes.insert(o.clone(), retract);
            }
            entry.count -= retract;
            if entry.count == 0 {
                cache.remove(t);
            }
        }
    }
    // Insertions: §4.2 — invoke only for newly inserted tuples. Cache hits
    // re-emit their cached extensions; the misses of one δ-batch are fanned
    // across the worker pool together.
    let mut misses: Vec<(&Tuple, usize)> = Vec::new();
    for (t, c) in child_delta.inserts.iter() {
        if let Some(entry) = cache.get_mut(t) {
            // the same tuple re-inserted reuses its cached invocation
            obs.cache_hits += 1;
            entry.count += c;
            for o in &entry.outputs {
                out.inserts.insert(o.clone(), c);
            }
            continue;
        }
        misses.push((t, c));
    }
    if misses.is_empty() {
        return out;
    }
    let tuples: Vec<&Tuple> = misses.iter().map(|(t, _)| *t).collect();
    let outcomes = recipe.call_batch(&tuples, ctx.invoker, ctx.at, ctx.parallelism);
    let mut tally = InvokeTally::default();
    for ((t, c), outcome) in misses.into_iter().zip(outcomes) {
        obs.cache_misses += 1;
        tally.invocations += 1;
        let settled = match outcome {
            Ok(call) => {
                // the action is recorded whether or not the call succeeded,
                // matching the one-shot operator
                if recipe.binding_pattern().is_active() {
                    ctx.actions.record(Action::new(
                        recipe.binding_pattern().clone(),
                        call.sref,
                        call.input,
                    ));
                }
                recipe.settle(t, call.result, ctx.degrade, &mut tally)
            }
            Err(e) => {
                // the tuple's service attribute held no service reference:
                // nothing was invoked, no action recorded
                tally.failures += 1;
                Err(e)
            }
        };
        match settled {
            // the extensions (a filler under NullFill) are cached so a later
            // deletion retracts exactly what was emitted
            Ok(Some(outputs)) => {
                for o in &outputs {
                    out.inserts.insert(o.clone(), c);
                }
                cache.insert(t.clone(), CacheEntry { count: c, outputs });
            }
            // dropped, not cached — a later re-insertion retries the service
            Ok(None) => {}
            // the tuple contributes nothing this tick, the error surfaces
            Err(e) => ctx.errors.push(e),
        }
    }
    tally.record_into(obs);
    out
}

/// βˢ on a sampling instant: invoke the *whole* current relation (distinct
/// tuples; each occurrence contributes one output copy). The BP is passive
/// (statically checked), so no actions are recorded.
fn sample(
    recipe: &InvokeRecipe,
    current: &Multiset,
    ctx: &mut Ctx<'_>,
    obs: &mut OpObservation,
) -> Vec<Tuple> {
    let entries: Vec<(&Tuple, usize)> = current.iter().collect();
    let tuples: Vec<&Tuple> = entries.iter().map(|(t, _)| *t).collect();
    let outcomes = recipe.call_batch(&tuples, ctx.invoker, ctx.at, ctx.parallelism);
    let mut tally = InvokeTally::default();
    let mut batch = Vec::new();
    for ((t, count), outcome) in entries.into_iter().zip(outcomes) {
        tally.invocations += 1;
        let result = outcome.and_then(|call| call.result);
        match recipe.settle(t, result, ctx.degrade, &mut tally) {
            Ok(outputs) => {
                for o in outputs.unwrap_or_default() {
                    batch.extend(std::iter::repeat_n(o, count));
                }
            }
            Err(e) => ctx.errors.push(e),
        }
    }
    batch.sort();
    tally.record_into(obs);
    batch
}
