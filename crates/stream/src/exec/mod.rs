//! The incremental continuous-query executor (§4.2, §5.1 Query Processor).
//!
//! A [`ContinuousQuery`] compiles a [`StreamPlan`] once into a tree of nodes
//! and ticks it over discrete time. The Serena operators inside it are the
//! same [`CompiledOp`]s the one-shot physical plan runs (§4: the continuous
//! operators *are* Table 3's, applied to instantaneous relations); this
//! module adds only what is continuous. Each node keeps its instantaneous
//! state (a multiset, per §4.1) and produces a per-tick [`Delta`]:
//!
//! * **σ, π, ρ, α** map their child's delta tuple by tuple — over a sliding
//!   operand (a window, or σ, π, ρ, α over one) only the entering batch,
//!   keeping the bag it mapped to until the batch expires. That bag is a
//!   [`SharedBag`]'s mapping, so a query whose operator computes what
//!   another's over the same batch does takes the other's bag and maps
//!   nothing;
//! * **⋈, ∪/∩/−, γ** consume both operands' deltas and emit the net change
//!   of their output — ⋈ through one key→tuples index per operand, the set
//!   operators by re-deciding only the tuples a delta touched, γ by
//!   re-finishing only the groups whose membership changed — so a tick
//!   costs what changed, not what the windows hold (`stateful`);
//! * **β (invocation)** follows §4.2 exactly: "a binding pattern is
//!   actually invoked only for newly inserted tuples, and not for every
//!   tuple from the relation at each time instant". Results are cached per
//!   input tuple so a later deletion retracts exactly the tuples the
//!   insertion produced;
//! * **W\[p\]** holds the last `p` stream [`Batch`]es — the same
//!   `Arc<Batch>` every other query over the stream holds — and hands its
//!   parent the entered and the expired one's bag by reference; **S\[kind\]**
//!   converts a finite node's delta back into a stream.
//!
//! A plan compiles against a [`SourceSet`]: one shared handle per relation
//! it names — a [`TableHandle`], or a stream's [`StreamHub`]. The compile
//! subscribes each leaf over a stream to the hub, so the query owns its
//! subscriptions, drops them with itself, and a compile that fails keeps
//! none.
//!
//! A sliding node keeps `current` only where its parent reads it; the
//! query's result is the root's content (`Node::content`), derived where it
//! is not kept.
//!
//! Invocation failures (a sensor dying mid-query) do not abort the query:
//! the affected input tuple contributes nothing this tick and the error is
//! surfaced in the [`TickReport`] — the robustness behaviour §5.2 calls
//! for.
//!
//! Layout: this file holds the node shape and the public API; `build`
//! compiles a plan into nodes, `tick` evaluates one instant, `stateful` is
//! ⋈, ∪/∩/− and γ over deltas, `state` is everything that outlives a tick
//! boundary (checkpoint, restore).

mod build;
mod state;
mod stateful;
#[cfg(test)]
mod tests;
mod tick;

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use serena_core::action::ActionSet;
use serena_core::error::{EvalError, PlanError};
use serena_core::metrics::{ExecStats, MetricsSink, NodeId, OpKind, Tee};
use serena_core::ops::{CompiledOp, InvokeRecipe};
use serena_core::physical::ExecOptions;
use serena_core::schema::SchemaRef;
use serena_core::service::Invoker;
use serena_core::snapshot::{Reader, SnapshotError, Writer};
use serena_core::telemetry::FlightRecorder;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::xrelation::XRelation;

use crate::multiset::{Delta, Multiset, SharedBag};
use crate::plan::{StreamKind, StreamPlan, StreamSchema};
use crate::source::{Batch, HubSubscription, StreamHub, TableHandle};
use stateful::OpState;

/// The named XD-Relations a continuous query runs over: a shared handle per
/// table and per stream. Compiling a plan subscribes each of its leaves
/// over a stream to the stream's hub, so a plan that names a stream twice
/// reads it through two subscriptions, and both read one batch an instant.
#[derive(Default)]
pub struct SourceSet {
    tables: HashMap<String, TableHandle>,
    streams: HashMap<String, (SchemaRef, StreamHub)>,
}

impl SourceSet {
    /// Empty source set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a finite XD-Relation (a dynamic table).
    pub fn add_table(&mut self, name: impl Into<String>, table: TableHandle) -> &mut Self {
        self.tables.insert(name.into(), table);
        self
    }

    /// Add an infinite XD-Relation (a stream) with its schema.
    pub fn add_stream(
        &mut self,
        name: impl Into<String>,
        schema: SchemaRef,
        hub: StreamHub,
    ) -> &mut Self {
        self.streams.insert(name.into(), (schema, hub));
        self
    }

    /// Handle to a registered table.
    pub fn table(&self, name: &str) -> Option<&TableHandle> {
        self.tables.get(name)
    }
}

impl serena_core::plan::SchemaCatalog for SourceSet {
    fn schema_of(&self, name: &str) -> Option<StreamSchema> {
        if let Some(t) = self.tables.get(name) {
            return Some(StreamSchema::finite(t.schema()));
        }
        self.streams
            .get(name)
            .map(|(s, _)| StreamSchema::infinite(s.clone()))
    }
}

/// What one tick produced.
#[derive(Debug)]
pub struct TickReport {
    /// The instant that was evaluated.
    pub at: Instant,
    /// Root delta (finite roots). A sliding root's shares the tables of
    /// the bags its slide named with every query over the same stream; a
    /// write into it copies what it writes into, never theirs.
    pub delta: Delta,
    /// Root stream batch (infinite roots; empty for finite roots).
    pub batch: Vec<Tuple>,
    /// Active invocations triggered this tick (Definition 8, per-tick).
    pub actions: ActionSet,
    /// Invocation errors survived this tick.
    pub errors: Vec<EvalError>,
    /// Per-node statistics of this tick (delta sizes, β invocations and
    /// cache hits/misses, self-time), keyed by the plan's pre-order
    /// [`NodeId`]s.
    pub stats: ExecStats,
    /// Wall-clock duration of the whole tick (all nodes, β calls
    /// included) — the sample behind per-query tick-duration histograms,
    /// and the query's weight when the Query Processor cuts the next tick
    /// round into runs of equal cost.
    pub elapsed: std::time::Duration,
}

/// One node of a running query. Every node has this shape — whatever an
/// operator carries across ticks beyond its instantaneous multiset lives in
/// its [`Op`] — so checkpoint and restore are one pre-order traversal
/// ([`Node::walk`]) plus a per-operator step.
struct Node {
    /// Stable pre-order id (this node, then children left to right),
    /// assigned once at compile time and reused every tick so per-tick and
    /// rolling statistics line up across the query's lifetime.
    id: NodeId,
    op: Op,
    children: Vec<Node>,
    /// Whether the node's parent reads its `current`: it is ⋈, ∪/∩/−, γ,
    /// `S[heartbeat]` or βˢ (decided by `build`; the root's reader derives
    /// [`Node::content`] instead). A sliding node — a window, or σ, π, ρ, α
    /// over one — maintains `current` only then; every other node always.
    read: bool,
    /// The node's instantaneous multiset after its last tick (§4.1). Stays
    /// empty on stream-valued nodes, which have no instantaneous state, and
    /// on a sliding node whose parent does not read it.
    current: Multiset,
}

enum Op {
    Table {
        handle: TableHandle,
        /// Whether this node has ticked before (first tick bootstraps the
        /// node from the table's current contents — queries registered
        /// mid-run start from the live state, §5.1).
        started: bool,
    },
    Stream {
        source: HubSubscription,
    },
    /// σ, π, ρ, α, ∪, ∩, −, ⋈, γ: operand deltas in, the output's delta
    /// out (σ, π, ρ, α over a sliding operand slide themselves). `state` is
    /// what the operator keeps between ticks besides the node's `current`;
    /// it is a function of the children's `current` or ring, so a checkpoint
    /// leaves it out and a restore derives it.
    Serena {
        op: CompiledOp,
        state: OpState,
    },
    Invoke {
        recipe: InvokeRecipe,
        cache: HashMap<Tuple, CacheEntry>,
    },
    Window {
        period: u64,
        /// The last `period` batches, oldest first, each shared with every
        /// other query over the stream that polled it.
        ring: VecDeque<Arc<Batch>>,
    },
    StreamOf(StreamKind),
    /// Streaming binding pattern `βˢ` (extension, §7 future work):
    /// periodically invoke a passive BP over the whole finite child and
    /// stream the extended tuples.
    SampleInvoke {
        recipe: InvokeRecipe,
        period: u64,
    },
}

struct CacheEntry {
    count: usize,
    outputs: Vec<Tuple>,
}

impl Op {
    /// The operator's snapshot tag (stable: shape verification across
    /// checkpoint/restore), observation kind and span name.
    fn meta(&self) -> (u8, OpKind, &'static str) {
        let (tag, kind) = match self {
            Op::Table { .. } => (0, OpKind::Relation),
            Op::Stream { .. } => (1, OpKind::Source),
            // the tags predate the single arm: 2 is the tuple-at-a-time
            // operators, 3 the ones whose state is a function of `current`
            Op::Serena { op, state } => {
                let tuple_at_a_time = matches!(state, OpState::Stateless | OpState::Ring { .. });
                (if tuple_at_a_time { 2 } else { 3 }, op.kind())
            }
            Op::Invoke { .. } => (4, OpKind::Invoke),
            Op::Window { .. } => (5, OpKind::Window),
            Op::StreamOf(_) => (6, OpKind::StreamOf),
            Op::SampleInvoke { .. } => (7, OpKind::SampleInvoke),
        };
        let span = match kind {
            OpKind::Relation => "op.table",
            OpKind::Source => "op.stream",
            OpKind::Union => "op.union",
            OpKind::Intersect => "op.intersect",
            OpKind::Difference => "op.difference",
            OpKind::Project => "op.project",
            OpKind::Select => "op.select",
            OpKind::Rename => "op.rename",
            OpKind::Join => "op.join",
            OpKind::Assign => "op.assign",
            OpKind::Invoke => "op.invoke",
            OpKind::Aggregate => "op.aggregate",
            OpKind::Window => "op.window",
            OpKind::StreamOf => "op.streamof",
            OpKind::SampleInvoke => "op.sample_invoke",
        };
        (tag, kind, span)
    }
}

impl Node {
    /// Visit this subtree in pre-order — the order [`NodeId`]s and snapshot
    /// records count in.
    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Node)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }

    /// A sliding node's bags, oldest first — a window's batches, or what
    /// σ, π, ρ, α over one mapped them to — and `None` for any other node.
    fn ring(&self) -> Option<Vec<&SharedBag>> {
        match &self.op {
            Op::Window { ring, .. } => Some(ring.iter().map(|batch| &**batch.bag()).collect()),
            Op::Serena {
                state: OpState::Ring { bags, .. },
                ..
            } => Some(bags.iter().map(|bag| &**bag).collect()),
            _ => None,
        }
    }

    /// What the node holds at this instant (§4.1), as its reader sees it:
    /// `current`, or — for a sliding node that keeps none — its ring's bags
    /// as one.
    fn content(&self) -> Cow<'_, Multiset> {
        match self.ring() {
            Some(bags) if !self.read => Cow::Owned(union(bags)),
            _ => Cow::Borrowed(&self.current),
        }
    }
}

/// Bags as one: each tuple with the sum of its counts.
fn union(bags: Vec<&SharedBag>) -> Multiset {
    let mut all = Multiset::new();
    for (t, c) in bags.into_iter().flat_map(|bag| bag.iter()) {
        all.insert(t.clone(), c);
    }
    all
}

/// A running continuous query.
pub struct ContinuousQuery {
    root: Node,
    schema: StreamSchema,
    next: Instant,
    options: ExecOptions,
    tracer: Option<Arc<FlightRecorder>>,
}

impl ContinuousQuery {
    /// Compile `plan` against `sources`, subscribing each of its leaves over
    /// a stream to the stream's hub; the subscriptions go with the query.
    /// Performs full static validation first.
    pub fn compile(plan: &StreamPlan, sources: &mut SourceSet) -> Result<Self, PlanError> {
        Self::compile_with_options(plan, sources, ExecOptions::default())
    }

    /// [`ContinuousQuery::compile`] with explicit execution options
    /// (β's degradation policy).
    pub fn compile_with_options(
        plan: &StreamPlan,
        sources: &mut SourceSet,
        options: ExecOptions,
    ) -> Result<Self, PlanError> {
        let schema = plan.stream_schema(sources)?;
        // the query's result is the root's content, derived where not kept
        let (root, _) = build::build(plan, sources, &mut 0, false)?;
        Ok(ContinuousQuery {
            root,
            schema,
            next: Instant::ZERO,
            options,
            tracer: None,
        })
    }

    /// Attach a flight recorder: every tick then records one span per
    /// plan node, keyed by the compile-time [`NodeId`], with delta sizes
    /// and β counters as attributes. Purely observational — results are
    /// byte-identical with or without a recorder.
    pub fn set_tracer(&mut self, tracer: Arc<FlightRecorder>) {
        self.tracer = Some(tracer);
    }

    /// The query's output schema and finite/infinite status.
    pub fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    /// The instant the next `tick` will evaluate.
    pub fn next_instant(&self) -> Instant {
        self.next
    }

    /// Align the query's clock so its next tick evaluates `at` — used when
    /// registering a query mid-run so it joins the global tick cadence.
    pub fn seek(&mut self, at: Instant) {
        self.next = at;
    }

    /// Evaluate one instant, additionally duplicating this tick's
    /// per-node observations into `sink` — the hook the Query Processor
    /// uses to accumulate rolling per-query statistics. The per-tick
    /// statistics are always available in the returned
    /// [`TickReport::stats`].
    pub fn tick_with(&mut self, invoker: &dyn Invoker, sink: &dyn MetricsSink) -> TickReport {
        let started = std::time::Instant::now();
        let at = self.next;
        self.next = at.next();
        let mut actions = ActionSet::new();
        let mut errors = Vec::new();
        let stats = ExecStats::new();
        let out = {
            let tee = Tee(&stats, sink);
            let mut ctx = tick::Ctx {
                at,
                invoker,
                actions: &mut actions,
                errors: &mut errors,
                metrics: &tee,
                degrade: self.options.degrade,
                tracer: self.tracer.as_deref().filter(|r| r.armed()),
            };
            tick::tick_node(&mut self.root, &mut ctx)
        };
        let (delta, batch) = match out {
            tick::Out::Batch(b) => (Delta::new(), b.into_tuples()),
            finite => (finite.into_delta(), Vec::new()),
        };
        TickReport {
            at,
            delta,
            batch,
            actions,
            errors,
            stats,
            elapsed: started.elapsed(),
        }
    }

    /// Snapshot the current instantaneous result as an [`XRelation`]
    /// (finite queries only; multiplicities collapse to set semantics).
    pub fn current_relation(&self) -> Option<XRelation> {
        if self.schema.infinite {
            return None;
        }
        let mut rel = XRelation::empty(self.schema.schema.clone());
        for t in self.root.content().sorted_occurrences() {
            rel.insert(t);
        }
        Some(rel)
    }

    /// Serialize the query's dynamic state into a checkpoint: the logical
    /// clock plus, per node in pre-order, whatever the operator carries
    /// across ticks (instantaneous multisets, the β cache, window rings,
    /// the table bootstrap flag). Static structure — the plan shape,
    /// schemas, compiled recipes — is *not* captured: restore recompiles
    /// the plan and [`ContinuousQuery::read_snapshot`] verifies the shapes
    /// agree.
    ///
    /// Table *contents* are shared state owned by [`TableHandle`]s and are
    /// checkpointed separately (see [`TableHandle::export_state`]).
    pub fn write_snapshot(&self, w: &mut Writer) {
        w.u64(self.next.ticks());
        self.root.walk(&mut |n| n.snapshot(w));
    }

    /// Restore dynamic state written by [`ContinuousQuery::write_snapshot`]
    /// into a freshly compiled query over the same plan. Fails with
    /// [`SnapshotError::Mismatch`] if the snapshot's node tree does not
    /// match this query's shape; on any error the query's state is
    /// unspecified and the query should be discarded.
    pub fn read_snapshot(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let next = r.u64()?;
        self.root.restore(r)?;
        self.next = Instant(next);
        Ok(())
    }
}
