//! Evaluating one instant: the per-node tick and the operators' delta
//! semantics.

use std::sync::OnceLock;

use serena_core::action::Action;
use serena_core::metrics::OpObservation;
use serena_core::ops::{DegradePolicy, InvokeTally};

use super::stateful::{join_delta, setop_delta};
use super::*;

pub(super) struct Ctx<'a> {
    pub(super) at: Instant,
    pub(super) invoker: &'a dyn Invoker,
    pub(super) actions: &'a mut ActionSet,
    pub(super) errors: &'a mut Vec<EvalError>,
    pub(super) metrics: &'a dyn MetricsSink,
    /// How β/βˢ reacts when one tuple's invocation fails.
    pub(super) degrade: DegradePolicy,
    /// Armed flight recorder for per-operator spans (`None` = no tracing).
    pub(super) tracer: Option<&'a FlightRecorder>,
}

/// Per-tick node output: a finite change or a stream batch.
pub(super) enum Out {
    Finite(Delta),
    /// A sliding node's change, by reference: the bag of the batch that
    /// entered inserts, the bag of the one that expired — if one did —
    /// deletes. A window's are the batches' own, shared with every other
    /// query over the stream; σ, π, ρ, α over a slide hand on the bags the
    /// batches mapped to when they entered, shared with every query whose
    /// operator computes the same. No per-query delta is built. As any
    /// operand delta, it may name one tuple on both sides.
    Slide {
        entered: Arc<SharedBag>,
        expired: Option<Arc<SharedBag>>,
    },
    Batch(Arc<Batch>),
}

impl Out {
    fn size(&self) -> u64 {
        let [inserts, deletes] = match self {
            Out::Batch(b) => return b.len() as u64,
            finite => finite.sides(),
        };
        (inserts.len() + deletes.len()) as u64
    }

    /// A finite output's inserted and deleted bags, where they lie.
    fn sides(&self) -> [&Multiset; 2] {
        static NOTHING: OnceLock<SharedBag> = OnceLock::new();
        match self {
            Out::Finite(d) => [&d.inserts, &d.deletes],
            Out::Slide { entered, expired } => [
                entered,
                expired
                    .as_deref()
                    .unwrap_or_else(|| NOTHING.get_or_init(|| Multiset::new().into())),
            ],
            Out::Batch(_) => unreachable!("type-checked: finite operand expected"),
        }
    }

    /// A finite output as a delta of its own: a shared bag of a slide is
    /// copied (a table copy — nothing is hashed again), one nothing else
    /// holds is taken.
    pub(super) fn into_delta(self) -> Delta {
        match self {
            Out::Finite(d) => d,
            Out::Slide { entered, expired } => Delta {
                inserts: entered.into_bag(),
                deletes: expired.map(SharedBag::into_bag).unwrap_or_default(),
            },
            Out::Batch(_) => unreachable!("type-checked: finite operand expected"),
        }
    }
}

fn finite(input: Option<Out>) -> Delta {
    input.expect("operator has this operand").into_delta()
}

fn batch(input: Option<Out>) -> Arc<Batch> {
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
        // Children first, left to right; no operator has more than two.
        let mut inputs = [None, None];
        debug_assert!(node.children.len() <= inputs.len());
        for (input, child) in inputs.iter_mut().zip(&mut node.children) {
            let out = tick_node(child, ctx);
            obs.tuples_in += out.size();
            *input = Some(out);
        }
        let started_at = std::time::Instant::now();
        let (id, children, current) = (node.id, &node.children, &mut node.current);
        let out = node.op.tick(id, inputs, children, current, ctx, &mut obs);
        // a sliding node keeps `current` only where its parent reads it
        if node.read && matches!(out, Out::Slide { .. }) {
            apply(id, current, out.sides());
        }
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
    /// One instant of this operator: consume the children's outputs, bring
    /// `current` up to date, produce the node's output — except that a
    /// slide's `current` is [`tick_node`]'s to keep, where it is read.
    fn tick(
        &mut self,
        id: NodeId,
        inputs: [Option<Out>; 2],
        children: &[Node],
        current: &mut Multiset,
        ctx: &mut Ctx<'_>,
        obs: &mut OpObservation,
    ) -> Out {
        let [input, second] = inputs;
        let delta = match self {
            Op::Table { handle, started } => {
                let delta = handle.tick_at(ctx.at, !*started);
                *started = true;
                delta
            }
            Op::Stream { source } => return Out::Batch(source.poll(ctx.at)),
            Op::Serena { op, state } => match state {
                OpState::Stateless => map_delta(op, sides(&input), ctx),
                OpState::Ring { mapping, bags } => {
                    let Some(Out::Slide { entered, expired }) = input else {
                        unreachable!("a ring is kept over a sliding operand")
                    };
                    let like = bags.back().map(|bag| &***bag);
                    let entered = entered.mapped(mapping, ctx.errors, |bag, errors| {
                        map_bag(op, bag, errors, like)
                    });
                    bags.push_back(Arc::clone(&entered));
                    // what the expiring batch mapped to when it entered
                    let expired = expired.map(|_| bags.pop_front().expect("a bag per batch"));
                    return Out::Slide { entered, expired };
                }
                OpState::Join { left, right } => {
                    join_delta(op, left, right, &finite(input), &finite(second))
                }
                OpState::SetOp { right } => {
                    let (delta, second) = (&finite(input), &finite(second));
                    setop_delta(op, right, delta, second, children, current)
                }
                OpState::Groups(groups) => groups.delta(&finite(input), &children[0].current),
            },
            Op::Invoke { recipe, cache } => apply_invoke(recipe, cache, sides(&input), ctx, obs),
            Op::Window { period, ring } => {
                let batch = batch(input);
                let entered = Arc::clone(batch.bag());
                ring.push_back(batch);
                let expired = (ring.len() as u64 > *period)
                    .then(|| Arc::clone(ring.pop_front().expect("nonempty").bag()));
                return Out::Slide { entered, expired };
            }
            Op::StreamOf(kind) => {
                let [inserts, deletes] = sides(&input);
                let batch = match kind {
                    StreamKind::Insertion => inserts.sorted_occurrences(),
                    StreamKind::Deletion => deletes.sorted_occurrences(),
                    StreamKind::Heartbeat => children[0].current.sorted_occurrences(),
                };
                return Out::Batch(Arc::new(batch.into()));
            }
            Op::SampleInvoke { recipe, period } => {
                let batch = if ctx.at.ticks().is_multiple_of(*period) {
                    sample(recipe, &children[0].current, ctx, obs)
                } else {
                    Vec::new()
                };
                return Out::Batch(Arc::new(batch.into()));
            }
        };
        apply(id, current, [&delta.inserts, &delta.deletes]);
        Out::Finite(delta)
    }
}

/// A finite operand's inserted and deleted bags, where they lie.
fn sides(input: &Option<Out>) -> [&Multiset; 2] {
    input.as_ref().expect("operator has this operand").sides()
}

/// Bring a node's `current` up to date with the change it emits. A change
/// that retracts what `current` does not hold would be clamped and leave
/// every operator downstream — which carries state across ticks — out of
/// step with it for good.
fn apply(id: NodeId, current: &mut Multiset, [inserts, deletes]: [&Multiset; 2]) {
    let missing = current.apply_sides(inserts, deletes);
    debug_assert_eq!(missing, 0, "node {id} retracted tuples it does not hold");
}

/// σ/π/ρ/α over a finite delta: each side maps tuple by tuple. (Over a
/// sliding operand only the entering side is mapped, once per distinct
/// operator: see [`OpState::Ring`].)
fn map_delta(op: &CompiledOp, [inserts, deletes]: [&Multiset; 2], ctx: &mut Ctx<'_>) -> Delta {
    Delta {
        inserts: map_bag(op, inserts, ctx.errors, None),
        deletes: map_bag(op, deletes, ctx.errors, None),
    }
}

/// σ/π/ρ/α over one bag, tuple by tuple; a tuple the operator fails on
/// contributes nothing and its error goes to `errors`. A tuple π or α builds
/// that `like` — a ring's newest bag — holds is kept as `like`'s copy: a
/// ring whose π bags each held their own cost `fanout` ≈ 10 % of its peak
/// RSS. (σ and ρ hand on the operand's own tuples.)
pub(super) fn map_bag(
    op: &CompiledOp,
    bag: &Multiset,
    errors: &mut Vec<EvalError>,
    like: Option<&Multiset>,
) -> Multiset {
    let builds = matches!(op, CompiledOp::Project { .. } | CompiledOp::Assign { .. });
    let like = like.filter(|_| builds);
    let mut mapped = Multiset::new();
    for (t, c) in bag.iter() {
        match op.map_tuple(t) {
            Ok(Some(m)) => mapped.insert_like(m, c, like),
            Ok(None) => {}
            Err(e) => errors.push(e),
        }
    }
    mapped
}

/// β over a change (§4.2): deletions retract the cached extensions,
/// insertions invoke only tuples the cache has not seen.
fn apply_invoke(
    recipe: &InvokeRecipe,
    cache: &mut HashMap<Tuple, CacheEntry>,
    [inserts, deletes]: [&Multiset; 2],
    ctx: &mut Ctx<'_>,
    obs: &mut OpObservation,
) -> Delta {
    let mut out = Delta::new();
    // Deletions first: retract the cached extensions.
    for (t, c) in deletes.iter() {
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
    // re-emit their cached extensions; each miss is invoked in turn.
    let mut tally = InvokeTally::default();
    for (t, c) in inserts.iter() {
        if let Some(entry) = cache.get_mut(t) {
            // the same tuple re-inserted reuses its cached invocation
            obs.cache_hits += 1;
            entry.count += c;
            for o in &entry.outputs {
                out.inserts.insert(o.clone(), c);
            }
            continue;
        }
        obs.cache_misses += 1;
        tally.invocations += 1;
        let settled = match recipe.call(t, ctx.invoker, ctx.at) {
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
    let mut tally = InvokeTally::default();
    let mut batch = Vec::new();
    for (t, count) in current.iter() {
        tally.invocations += 1;
        let result = recipe
            .call(t, ctx.invoker, ctx.at)
            .and_then(|call| call.result);
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
