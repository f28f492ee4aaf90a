//! Per-operator execution metrics — the observability layer.
//!
//! Every operator application (one-shot evaluation in [`crate::exec`], or a
//! per-tick node evaluation in the continuous executor) produces one
//! [`OpObservation`] and reports it to a [`MetricsSink`]. The default sink
//! is [`NoopMetrics`] (zero overhead beyond a virtual call); [`ExecStats`]
//! is the concrete collector aggregating observations per plan node —
//! tuples in/out, service invocations, β-cache hits/misses, survived
//! failures and wall-clock self-time.
//!
//! Plan nodes are identified by [`NodeId`]: the node's **pre-order index**
//! in its plan tree (root = 0, then children left to right). Both the
//! one-shot evaluator and the continuous executor number nodes the same
//! way, so `EXPLAIN ANALYZE`-style renderings can re-traverse the plan and
//! line observations up with operators.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::sync::Mutex;

/// Identifier of a plan node: its pre-order index in the plan tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The operator kind an observation refers to (Table 3, plus the
/// continuous-layer operators of §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Leaf scan of a named X-Relation (or continuous table source).
    Relation,
    /// Leaf poll of an infinite stream source.
    Source,
    /// `∪`
    Union,
    /// `∩`
    Intersect,
    /// `−`
    Difference,
    /// `π`
    Project,
    /// `σ`
    Select,
    /// `ρ`
    Rename,
    /// `⋈`
    Join,
    /// `α`
    Assign,
    /// `β`
    Invoke,
    /// `γ` (extension)
    Aggregate,
    /// `W[p]` (continuous)
    Window,
    /// `S[kind]` (continuous)
    StreamOf,
    /// `βˢ` periodic sampling invocation (continuous extension)
    SampleInvoke,
}

impl OpKind {
    /// Number of operator kinds.
    pub const COUNT: usize = 15;

    /// All operator kinds, in declaration order; `ALL[k.index()] == k`.
    pub const ALL: [OpKind; OpKind::COUNT] = [
        OpKind::Relation,
        OpKind::Source,
        OpKind::Union,
        OpKind::Intersect,
        OpKind::Difference,
        OpKind::Project,
        OpKind::Select,
        OpKind::Rename,
        OpKind::Join,
        OpKind::Assign,
        OpKind::Invoke,
        OpKind::Aggregate,
        OpKind::Window,
        OpKind::StreamOf,
        OpKind::SampleInvoke,
    ];

    /// Dense index of this kind within [`OpKind::ALL`] — lets per-operator
    /// telemetry use a flat array instead of a map.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// What one operator application did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpObservation {
    /// Which plan node (pre-order index).
    pub node: NodeId,
    /// Which operator.
    pub op: OpKind,
    /// Tuples consumed from child operators (delta occurrences, for the
    /// continuous executor).
    pub tuples_in: u64,
    /// Tuples produced (delta occurrences, for the continuous executor).
    pub tuples_out: u64,
    /// Service invocations actually performed (β/βˢ only).
    pub invocations: u64,
    /// β-cache hits: re-inserted tuples served from the invocation cache.
    pub cache_hits: u64,
    /// β-cache misses: newly seen tuples requiring a live invocation.
    pub cache_misses: u64,
    /// Invocation failures (survived in continuous mode, fatal one-shot).
    pub failures: u64,
    /// Tuples degraded under a non-failing
    /// [`DegradePolicy`](crate::ops::DegradePolicy): dropped or null-filled
    /// instead of failing the query (β/βˢ only).
    pub degraded: u64,
    /// Invocations whose service implementation panicked; the panic was
    /// contained and surfaced as
    /// [`EvalError::Panicked`](crate::error::EvalError) (β/βˢ only).
    pub panics: u64,
    /// Invocations that failed because the remote node hosting the service
    /// proxy was unreachable
    /// ([`EvalError::RemoteUnavailable`](crate::error::EvalError), β/βˢ
    /// only).
    pub remote_unavailable: u64,
    /// Wall-clock self-time of the operator application (children
    /// excluded).
    pub elapsed: Duration,
}

impl OpObservation {
    /// A zeroed observation for `node`/`op`.
    pub fn new(node: NodeId, op: OpKind) -> Self {
        OpObservation {
            node,
            op,
            tuples_in: 0,
            tuples_out: 0,
            invocations: 0,
            cache_hits: 0,
            cache_misses: 0,
            failures: 0,
            degraded: 0,
            panics: 0,
            remote_unavailable: 0,
            elapsed: Duration::ZERO,
        }
    }
}

/// Destination for operator observations.
///
/// Implementations must be cheap and non-blocking: sinks are called once
/// per operator per evaluation (one-shot) or per tick (continuous).
pub trait MetricsSink: Send + Sync {
    /// Report one operator application.
    fn record(&self, obs: &OpObservation);
}

/// The default sink: discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopMetrics;

impl MetricsSink for NoopMetrics {
    fn record(&self, _obs: &OpObservation) {}
}

/// A sink duplicating every observation to two other sinks.
pub struct Tee<'a>(pub &'a dyn MetricsSink, pub &'a dyn MetricsSink);

impl MetricsSink for Tee<'_> {
    fn record(&self, obs: &OpObservation) {
        self.0.record(obs);
        self.1.record(obs);
    }
}

/// Aggregated statistics of one plan node across applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// The operator kind observed at this node.
    pub op: OpKind,
    /// Number of applications (1 for a one-shot evaluation; the tick count
    /// for a continuous node).
    pub applications: u64,
    /// Total tuples consumed.
    pub tuples_in: u64,
    /// Total tuples produced.
    pub tuples_out: u64,
    /// Total service invocations.
    pub invocations: u64,
    /// Total β-cache hits.
    pub cache_hits: u64,
    /// Total β-cache misses.
    pub cache_misses: u64,
    /// Total failures.
    pub failures: u64,
    /// Total degraded tuples (dropped or null-filled instead of failing).
    pub degraded: u64,
    /// Total contained service panics.
    pub panics: u64,
    /// Total failures due to an unreachable remote node.
    pub remote_unavailable: u64,
    /// Total wall-clock self-time.
    pub elapsed: Duration,
}

impl NodeStats {
    fn new(op: OpKind) -> Self {
        NodeStats {
            op,
            applications: 0,
            tuples_in: 0,
            tuples_out: 0,
            invocations: 0,
            cache_hits: 0,
            cache_misses: 0,
            failures: 0,
            degraded: 0,
            panics: 0,
            remote_unavailable: 0,
            elapsed: Duration::ZERO,
        }
    }

    fn absorb(&mut self, obs: &OpObservation) {
        self.applications += 1;
        self.tuples_in += obs.tuples_in;
        self.tuples_out += obs.tuples_out;
        self.invocations += obs.invocations;
        self.cache_hits += obs.cache_hits;
        self.cache_misses += obs.cache_misses;
        self.failures += obs.failures;
        self.degraded += obs.degraded;
        self.panics += obs.panics;
        self.remote_unavailable += obs.remote_unavailable;
        self.elapsed += obs.elapsed;
    }

    /// One-line summary of this node's counters — the annotation
    /// `EXPLAIN ANALYZE` prints next to each operator. Invocation counters
    /// appear only for β nodes (or when invocations were observed);
    /// failures only when non-zero.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "rows={} in={} time={:?}",
            self.tuples_out, self.tuples_in, self.elapsed
        );
        if self.op == OpKind::Invoke || self.op == OpKind::SampleInvoke || self.invocations > 0 {
            out.push_str(&format!(
                " invocations={} cache_hits={} cache_misses={}",
                self.invocations, self.cache_hits, self.cache_misses
            ));
        }
        if self.failures > 0 {
            out.push_str(&format!(" failures={}", self.failures));
        }
        if self.degraded > 0 {
            out.push_str(&format!(" degraded={}", self.degraded));
        }
        if self.panics > 0 {
            out.push_str(&format!(" panics={}", self.panics));
        }
        if self.remote_unavailable > 0 {
            out.push_str(&format!(" remote_unavailable={}", self.remote_unavailable));
        }
        out
    }
}

impl std::fmt::Display for NodeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Thread-safe collector aggregating observations per node — the concrete
/// [`MetricsSink`] behind `EXPLAIN ANALYZE` and `TickReport::stats`.
#[derive(Debug, Default)]
pub struct ExecStats {
    nodes: Mutex<BTreeMap<NodeId, NodeStats>>,
}

impl ExecStats {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of one node's aggregated stats.
    pub fn node(&self, id: NodeId) -> Option<NodeStats> {
        self.nodes.lock().get(&id).cloned()
    }

    /// Snapshot of all nodes, ordered by [`NodeId`].
    pub fn nodes(&self) -> BTreeMap<NodeId, NodeStats> {
        self.nodes.lock().clone()
    }

    /// True iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.lock().is_empty()
    }

    /// Drop all recorded data.
    pub fn clear(&self) {
        self.nodes.lock().clear();
    }

    /// Total service invocations across all nodes.
    pub fn total_invocations(&self) -> u64 {
        self.nodes.lock().values().map(|s| s.invocations).sum()
    }

    /// Total β-cache hits across all nodes.
    pub fn total_cache_hits(&self) -> u64 {
        self.nodes.lock().values().map(|s| s.cache_hits).sum()
    }

    /// Total β-cache misses across all nodes.
    pub fn total_cache_misses(&self) -> u64 {
        self.nodes.lock().values().map(|s| s.cache_misses).sum()
    }

    /// Total failures across all nodes.
    pub fn total_failures(&self) -> u64 {
        self.nodes.lock().values().map(|s| s.failures).sum()
    }

    /// Total degraded tuples (dropped or null-filled) across all nodes.
    pub fn total_degraded(&self) -> u64 {
        self.nodes.lock().values().map(|s| s.degraded).sum()
    }

    /// Total remote-unreachable failures across all nodes.
    pub fn total_remote_unavailable(&self) -> u64 {
        self.nodes
            .lock()
            .values()
            .map(|s| s.remote_unavailable)
            .sum()
    }

    /// The root node's total output tuples (node 0), if observed.
    pub fn root_tuples_out(&self) -> Option<u64> {
        self.nodes.lock().get(&NodeId(0)).map(|s| s.tuples_out)
    }
}

impl std::fmt::Display for ExecStats {
    /// One-line roll-up across all nodes:
    /// `nodes=5 rows_out=2 invocations=3 cache_hits=1 cache_misses=2 failures=0`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nodes = self.nodes.lock();
        let rows_out = nodes.get(&NodeId(0)).map(|s| s.tuples_out).unwrap_or(0);
        let (mut inv, mut hits, mut misses, mut failures) = (0u64, 0u64, 0u64, 0u64);
        for s in nodes.values() {
            inv += s.invocations;
            hits += s.cache_hits;
            misses += s.cache_misses;
            failures += s.failures;
        }
        write!(
            f,
            "nodes={} rows_out={rows_out} invocations={inv} cache_hits={hits} \
             cache_misses={misses} failures={failures}",
            nodes.len()
        )
    }
}

impl MetricsSink for ExecStats {
    fn record(&self, obs: &OpObservation) {
        self.nodes
            .lock()
            .entry(obs.node)
            .or_insert_with(|| NodeStats::new(obs.op))
            .absorb(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_stats_aggregates_observations() {
        let stats = ExecStats::new();
        let mut obs = OpObservation::new(NodeId(0), OpKind::Select);
        obs.tuples_in = 10;
        obs.tuples_out = 4;
        stats.record(&obs);
        stats.record(&obs);
        let node = stats.node(NodeId(0)).unwrap();
        assert_eq!(node.applications, 2);
        assert_eq!(node.tuples_in, 20);
        assert_eq!(node.tuples_out, 8);
        assert_eq!(node.op, OpKind::Select);
        assert_eq!(stats.root_tuples_out(), Some(8));
    }

    #[test]
    fn tee_duplicates_and_noop_discards() {
        let a = ExecStats::new();
        let b = ExecStats::new();
        let tee = Tee(&a, &b);
        tee.record(&OpObservation::new(NodeId(0), OpKind::Join));
        assert_eq!(a.node(NodeId(0)).unwrap().applications, 1);
        assert_eq!(b.node(NodeId(0)).unwrap().applications, 1);
        NoopMetrics.record(&OpObservation::new(NodeId(0), OpKind::Join));
        assert!(!a.is_empty());
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn panics_counter_aggregates_and_shows_in_summary() {
        let stats = ExecStats::new();
        let mut obs = OpObservation::new(NodeId(0), OpKind::Invoke);
        obs.invocations = 2;
        obs.panics = 1;
        stats.record(&obs);
        stats.record(&obs);
        let node = stats.node(NodeId(0)).unwrap();
        assert_eq!(node.panics, 2);
        assert!(node.summary().contains("panics=2"));
        // zero panics stay out of the summary
        let quiet = ExecStats::new();
        quiet.record(&OpObservation::new(NodeId(0), OpKind::Invoke));
        assert!(!quiet.node(NodeId(0)).unwrap().summary().contains("panics"));
    }
}
