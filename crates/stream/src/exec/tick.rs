//! Evaluating one instant: the per-node tick and the operators' delta
//! semantics.

use std::sync::OnceLock;

use serena_core::action::Action;
use serena_core::metrics::OpObservation;
use serena_core::ops::{DegradePolicy, InvokeTally};

use super::stateful::{join_delta, setop_delta};
use super::*;
use crate::multiset::Mapping;

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

    /// A finite output as a delta of its own. A slide's two bags are handed
    /// on, not copied: each side shares the table of the bag it names (a
    /// pointer copy) until someone writes into it, and the first write
    /// copies the table only while another holder still reads it.
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
            Op::Stream { source } => return Out::Batch(source.poll()),
            Op::Serena { op, state } => match state {
                OpState::Stateless => map_delta(op, sides(&input), ctx),
                OpState::Ring { mapping, bags } => {
                    let Some(Out::Slide { entered, expired }) = input else {
                        unreachable!("a ring is kept over a sliding operand")
                    };
                    let like = bags.back().map(|bag| &***bag);
                    let entered = map_slide(op, mapping, &entered, ctx.errors, like);
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
                    sample(recipe, &children[0], ctx, obs)
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
        inserts: map_bag(op, inserts.iter(), ctx.errors, None),
        deletes: map_bag(op, deletes.iter(), ctx.errors, None),
    }
}

/// What σ/π/ρ/α make of a slide's entering bag `bag` (see
/// [`OpState::Ring`]): the bag the memo holds under `mapping`, else
/// [`map_bag`]'s, its errors appended to `errors`. A σ whose first conjunct
/// is `attr = 'text'` maps only that text's rows when `bag` can look them up
/// (DESIGN § 4, *A statement looks up the rows its equality selects*): every
/// other tuple fails that conjunct without an error and with nothing else
/// evaluated, and the rows come in bag order, so the bag and the errors are
/// the scan's.
pub(super) fn map_slide(
    op: &CompiledOp,
    mapping: &Arc<Mapping>,
    bag: &SharedBag,
    errors: &mut Vec<EvalError>,
    like: Option<&Multiset>,
) -> Arc<SharedBag> {
    bag.mapped(mapping, errors, |whole, errors| {
        let rows = match op {
            CompiledOp::Select { formula } => formula
                .leading_text_eq()
                .and_then(|(coord, text)| bag.text_lookup(coord, text)),
            _ => None,
        };
        match rows {
            Some(rows) => map_bag(op, rows.iter().map(|(t, c)| (t, *c)), errors, like),
            None => map_bag(op, whole.iter(), errors, like),
        }
    })
}

/// σ/π/ρ/α over a bag's `rows` (distinct tuples and their counts), tuple by
/// tuple; a tuple the operator fails on contributes nothing and its error
/// goes to `errors`. A tuple π or α builds that `like` — a ring's newest
/// bag — holds is kept as `like`'s copy: a ring whose π bags each held
/// their own cost `fanout` ≈ 10 % of its peak RSS. (σ and ρ hand on the
/// operand's own tuples.)
pub(super) fn map_bag<'t>(
    op: &CompiledOp,
    rows: impl Iterator<Item = (&'t Tuple, usize)>,
    errors: &mut Vec<EvalError>,
    like: Option<&Multiset>,
) -> Multiset {
    let builds = matches!(op, CompiledOp::Project { .. } | CompiledOp::Assign { .. });
    let like = like.filter(|_| builds);
    let mut mapped = Multiset::new();
    for (t, c) in rows {
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
    // re-emit their cached extensions; the misses are invoked together.
    let mut misses = Vec::new();
    for (t, c) in inserts.iter() {
        let Some(entry) = cache.get_mut(t) else {
            misses.push((t, c));
            continue;
        };
        // the same tuple re-inserted reuses its cached invocation
        entry.count += c;
        for o in &entry.outputs {
            out.inserts.insert(o.clone(), c);
        }
    }
    obs.cache_hits += (inserts.distinct() - misses.len()) as u64;
    obs.cache_misses += misses.len() as u64;
    invoke_each(recipe, misses.into_iter(), ctx, obs, |t, c, outputs| {
        // the extensions (a filler under NullFill) are cached so a later
        // deletion retracts exactly what was emitted; a dropped tuple is
        // not cached, so a later re-insertion retries the service
        let Some(outputs) = outputs else { return };
        for o in &outputs {
            out.inserts.insert(o.clone(), c);
        }
        cache.insert(t.clone(), CacheEntry { count: c, outputs });
    });
    out
}

/// β over `tuples` (each with its count): prepare each, hand the stack
/// every call at once ([`Invoker::invoke_all`]), settle each in order. An
/// active call is recorded whether or not it succeeded, as in one-shot β;
/// a tuple that names no service calls nothing and fails. `emit` gets each
/// tuple that did not fail with its extensions (`None`: dropped).
fn invoke_each<'t>(
    recipe: &InvokeRecipe,
    tuples: impl Iterator<Item = (&'t Tuple, usize)> + Clone,
    ctx: &mut Ctx<'_>,
    obs: &mut OpObservation,
    mut emit: impl FnMut(&'t Tuple, usize, Option<Vec<Tuple>>),
) {
    let bp = recipe.binding_pattern();
    let mut calls = Vec::with_capacity(tuples.size_hint().0);
    // few fail here: their errors are kept by position, not a slot per call
    let mut unprepared = Vec::new();
    for (i, (t, _)) in tuples.clone().enumerate() {
        match recipe.prepare_call(t) {
            Ok(call) => calls.push(call),
            Err(e) => unprepared.push((i, e)),
        }
    }
    let results = ctx.invoker.invoke_all(bp.prototype(), &calls, ctx.at);
    // kept only to record an active pattern's actions: a passive one's go
    // before the outputs are built
    let mut calls = if bp.is_active() {
        calls.into_iter()
    } else {
        drop(calls);
        Vec::new().into_iter()
    };
    let mut results = results.into_iter();
    let mut unprepared = unprepared.into_iter().peekable();
    let mut tally = InvokeTally::default();
    for (i, (t, c)) in tuples.enumerate() {
        tally.invocations += 1;
        let settled = match unprepared.next_if(|(j, _)| *j == i) {
            Some((_, e)) => {
                tally.failures += 1;
                Err(e)
            }
            None => {
                if let Some((sref, input)) = calls.next() {
                    ctx.actions.record(Action::new(bp.clone(), sref, input));
                }
                let result = results.next().expect("an answer per call");
                recipe.settle(t, result, ctx.degrade, &mut tally)
            }
        };
        match settled {
            Ok(outputs) => emit(t, c, outputs),
            Err(e) => ctx.errors.push(e),
        }
    }
    tally.record_into(obs);
}

/// βˢ on a sampling instant: invoke the *whole* current relation of
/// `operand` (distinct tuples; each occurrence contributes one output
/// copy), in ascending order. The BP is passive (statically checked), so
/// no actions are recorded.
fn sample(
    recipe: &InvokeRecipe,
    operand: &Node,
    ctx: &mut Ctx<'_>,
    obs: &mut OpObservation,
) -> Vec<Tuple> {
    let mut batch = Vec::with_capacity(operand.current.len());
    let emit = |_: &Tuple, count, outputs: Option<Vec<Tuple>>| {
        for o in outputs.unwrap_or_default() {
            batch.extend(std::iter::repeat_n(o, count));
        }
    };
    match &operand.op {
        // a table leaf's `current` is the table's committed contents
        // (`state.rs`), which the table keeps in order for every reader
        Op::Table { handle, .. } => {
            let ordered = handle.ordered();
            debug_assert_eq!(ordered.len(), operand.current.distinct());
            invoke_each(recipe, ordered.iter().map(|(t, c)| (t, *c)), ctx, obs, emit);
        }
        _ => {
            let mut sorted: Vec<(&Tuple, usize)> = operand.current.iter().collect();
            sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
            invoke_each(recipe, sorted.into_iter(), ctx, obs, emit);
        }
    }
    // born in the operand's order, so usually sorted already: one pass
    batch.sort_unstable();
    batch
}
