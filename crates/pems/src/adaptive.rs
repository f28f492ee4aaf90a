//! Adaptive re-optimization under degradation: bookkeeping for the
//! telemetry-fed replan loop ([`crate::pems::Pems::tick`] phase 3½).
//!
//! The controller decides *when* to re-rank a query's candidate plans —
//! from logically-timed signals only, so two runs with the same fault
//! schedule replan at the same instants — and remembers *which* candidate
//! each query currently runs, so a restored node resumes with the adapted
//! plan. The ranking itself (candidate generation + measured-cost
//! estimation + hot swap) lives in the PEMS facade, which owns the
//! tables, telemetry and processor the decision consumes.
//!
//! Triggers, all derived from instant-scoped state:
//! - a **circuit-breaker transition** (closed → open, open → half-open,
//!   …) on any tracked service — the crispest degradation edge;
//! - **sustained degradation**: some service's rolling failure rate at or
//!   above a threshold for N consecutive ticks.
//!
//! Wall-clock latency histograms are deliberately *not* triggers and are
//! excluded from the replan-time cost model
//! ([`MeasuredCosts::deterministic`]): replay determinism is a core
//! invariant (`tests/envgen_determinism.rs`), and decisions fed by timing
//! would diverge between byte-identical replays.
//!
//! [`MeasuredCosts::deterministic`]: serena_core::rewrite::MeasuredCosts::deterministic

use std::collections::BTreeMap;

use serena_core::snapshot::{Reader, SnapshotError, Writer};
use serena_core::time::Instant;
use serena_services::resilience::BreakerState;
use serena_stream::plan::StreamPlan;

/// When the runtime re-evaluates its queries' plan choices.
///
/// Adaptivity is **off by default**: a plain-built PEMS never swaps a
/// running plan. Opt in with `PemsBuilder::adaptive(policy)` or the
/// `SERENA_ADAPTIVE=1` environment variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplanPolicy {
    /// Re-evaluate when any circuit breaker changes state. On by default:
    /// breaker edges are sparse, logically timed, and mark exactly the
    /// moments the measured cost surface moved.
    pub on_breaker_transition: bool,
    /// Re-evaluate when some service's rolling failure rate stays at or
    /// above this threshold (`0.0 ..= 1.0`) for
    /// [`sustain_ticks`](Self::sustain_ticks) consecutive ticks — catches
    /// degradation too soft to trip a breaker (or runtimes with no
    /// breaker configured).
    pub degraded_failure_rate: f64,
    /// Consecutive degraded ticks before the failure-rate trigger fires.
    pub sustain_ticks: u64,
    /// Minimum ticks between two replans of the same query (flap
    /// damping): a half-open breaker bouncing must not thrash the plan.
    pub cooldown_ticks: u64,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        ReplanPolicy {
            on_breaker_transition: true,
            degraded_failure_rate: 0.5,
            sustain_ticks: 3,
            cooldown_ticks: 8,
        }
    }
}

/// Why a replan was evaluated — the `reason` label of
/// `serena_replan_total` and an attribute of the `query.replan` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanReason {
    /// A circuit breaker changed state this tick.
    BreakerTransition,
    /// A service's failure rate stayed over the policy threshold.
    SustainedDegradation,
    /// Explicitly requested (`Pems::force_replan` / the shell's
    /// `.replan` command).
    Forced,
}

impl ReplanReason {
    /// Stable metric-label form.
    pub fn label(self) -> &'static str {
        match self {
            ReplanReason::BreakerTransition => "breaker",
            ReplanReason::SustainedDegradation => "degraded",
            ReplanReason::Forced => "forced",
        }
    }

    fn tag(self) -> u8 {
        match self {
            ReplanReason::BreakerTransition => 0,
            ReplanReason::SustainedDegradation => 1,
            ReplanReason::Forced => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, SnapshotError> {
        Ok(match tag {
            0 => ReplanReason::BreakerTransition,
            1 => ReplanReason::SustainedDegradation,
            2 => ReplanReason::Forced,
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown replan reason tag {other}"
                )))
            }
        })
    }
}

impl std::fmt::Display for ReplanReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One applied plan swap, as kept in the replan history (and in every
/// checkpoint — recovery replays these to rebuild the adapted plans
/// before rehydrating executor state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplanEvent {
    /// Logical instant whose tick boundary applied the swap.
    pub at: Instant,
    /// The query whose plan was swapped.
    pub query: String,
    /// What triggered the evaluation.
    pub reason: ReplanReason,
    /// Index into [`serena_stream::candidates_for`]'s deterministic
    /// candidate list that the query switched to.
    pub candidate: usize,
}

/// Per-query adaptive bookkeeping.
struct AdaptiveQuery {
    /// The plan as registered — candidate generation always starts here,
    /// so candidate indices mean the same thing on every node and replay.
    original: StreamPlan,
    /// Currently-running candidate index (0 = the original plan).
    candidate: usize,
    /// Instant of the last applied swap, for cooldown damping.
    last_replan: Option<Instant>,
}

/// The adaptive re-optimization controller: policy, per-query candidate
/// state, trigger edge-detection and the replan history.
pub struct AdaptiveController {
    policy: ReplanPolicy,
    queries: BTreeMap<String, AdaptiveQuery>,
    history: Vec<ReplanEvent>,
    /// Breaker state (discriminant only — `Open.until` is stable while
    /// open, but `HalfOpen.probes_left` counts down without being a
    /// *transition*) per service, as of the last evaluated tick.
    breakers_seen: BTreeMap<String, u8>,
    /// Consecutive ticks some service was over the failure-rate
    /// threshold.
    degraded_streak: u64,
}

fn breaker_tag(state: &BreakerState) -> u8 {
    match state {
        BreakerState::Closed => 0,
        BreakerState::Open { .. } => 1,
        BreakerState::HalfOpen { .. } => 2,
    }
}

impl AdaptiveController {
    /// A controller with no queries and a clean trigger state.
    pub fn new(policy: ReplanPolicy) -> Self {
        AdaptiveController {
            policy,
            queries: BTreeMap::new(),
            history: Vec::new(),
            breakers_seen: BTreeMap::new(),
            degraded_streak: 0,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> ReplanPolicy {
        self.policy
    }

    /// Track a newly registered query (running its original plan).
    pub fn track(&mut self, name: impl Into<String>, plan: StreamPlan) {
        self.queries.insert(
            name.into(),
            AdaptiveQuery {
                original: plan,
                candidate: 0,
                last_replan: None,
            },
        );
    }

    /// Stop tracking a deregistered query (its history entries remain).
    pub fn untrack(&mut self, name: &str) {
        self.queries.remove(name);
    }

    /// Names of all tracked queries, sorted.
    pub fn tracked(&self) -> Vec<&str> {
        self.queries.keys().map(|s| s.as_str()).collect()
    }

    /// The plan a query was registered with, if tracked.
    pub fn original(&self, name: &str) -> Option<&StreamPlan> {
        self.queries.get(name).map(|q| &q.original)
    }

    /// The candidate index a query currently runs (0 = original).
    pub fn candidate(&self, name: &str) -> Option<usize> {
        self.queries.get(name).map(|q| q.candidate)
    }

    /// Every applied swap, in application order.
    pub fn history(&self) -> &[ReplanEvent] {
        &self.history
    }

    /// Fold this tick's breaker states into the edge detector. Returns
    /// whether any service's breaker *changed* state since the last call
    /// (a service appearing with a non-closed breaker counts as an edge;
    /// one appearing closed does not).
    pub fn observe_breakers(
        &mut self,
        breakers: &[(serena_core::value::ServiceRef, BreakerState)],
    ) -> bool {
        let mut edge = false;
        for (service, state) in breakers {
            let tag = breaker_tag(state);
            match self.breakers_seen.insert(service.as_str().to_string(), tag) {
                Some(prev) if prev != tag => edge = true,
                None if tag != 0 => edge = true,
                _ => {}
            }
        }
        edge
    }

    /// Fold this tick's worst observed failure rate into the sustained-
    /// degradation counter. Returns whether the streak just reached the
    /// policy's `sustain_ticks` (exactly — so one sustained episode fires
    /// once, not every tick it persists).
    pub fn observe_degradation(&mut self, worst_failure_rate: f64) -> bool {
        if worst_failure_rate >= self.policy.degraded_failure_rate {
            self.degraded_streak += 1;
            self.degraded_streak == self.policy.sustain_ticks.max(1)
        } else {
            self.degraded_streak = 0;
            false
        }
    }

    /// Whether a replan of `name` at `at` is allowed by the cooldown.
    pub fn cooled_down(&self, name: &str, at: Instant) -> bool {
        match self.queries.get(name).and_then(|q| q.last_replan) {
            Some(last) => at.ticks().saturating_sub(last.ticks()) >= self.policy.cooldown_ticks,
            None => true,
        }
    }

    /// Record an applied swap: update the query's current candidate and
    /// cooldown clock, append to the history.
    pub fn record(&mut self, at: Instant, name: &str, reason: ReplanReason, candidate: usize) {
        if let Some(q) = self.queries.get_mut(name) {
            q.candidate = candidate;
            q.last_replan = Some(at);
        }
        self.history.push(ReplanEvent {
            at,
            query: name.to_string(),
            reason,
            candidate,
        });
    }

    /// Serialize the controller's dynamic state: replan history, per-query
    /// candidate indices and cooldown clocks, and the trigger edge state
    /// (breaker discriminants, degradation streak). The policy and the
    /// original plans are static setup and are *not* captured.
    pub fn export_state(&self, w: &mut Writer) {
        w.usize(self.history.len());
        for e in &self.history {
            w.u64(e.at.ticks());
            w.str(&e.query);
            w.u8(e.reason.tag());
            w.usize(e.candidate);
        }
        w.usize(self.queries.len());
        for (name, q) in &self.queries {
            w.str(name);
            w.usize(q.candidate);
            match q.last_replan {
                Some(at) => {
                    w.bool(true);
                    w.u64(at.ticks());
                }
                None => {
                    w.bool(false);
                }
            }
        }
        w.u64(self.degraded_streak);
        w.usize(self.breakers_seen.len());
        for (service, tag) in &self.breakers_seen {
            w.str(service);
            w.u8(*tag);
        }
    }

    /// The adaptive snapshot section of a runtime with adaptivity
    /// disabled — all-empty, so the snapshot format does not depend on
    /// the feature being on.
    pub fn export_empty(w: &mut Writer) {
        w.usize(0).usize(0).u64(0).usize(0);
    }

    /// Restore state written by [`Self::export_state`]. The same queries
    /// must already be tracked (static setup re-ran); a disagreement
    /// surfaces as [`SnapshotError::Mismatch`].
    pub fn import_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let n = r.usize()?;
        let mut history = Vec::with_capacity(n);
        for _ in 0..n {
            let at = Instant(r.u64()?);
            let query = r.str()?.to_string();
            let reason = ReplanReason::from_tag(r.u8()?)?;
            let candidate = r.usize()?;
            history.push(ReplanEvent {
                at,
                query,
                reason,
                candidate,
            });
        }
        let n = r.usize()?;
        if n != self.queries.len() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot tracks {n} adaptive queries, {} registered",
                self.queries.len()
            )));
        }
        for (name, q) in &mut self.queries {
            let stored = r.str()?;
            if stored != *name {
                return Err(SnapshotError::Mismatch(format!(
                    "snapshot adaptive query `{stored}` does not match registered `{name}`"
                )));
            }
            q.candidate = r.usize()?;
            q.last_replan = if r.bool()? {
                Some(Instant(r.u64()?))
            } else {
                None
            };
        }
        self.history = history;
        self.degraded_streak = r.u64()?;
        let n = r.usize()?;
        let mut seen = BTreeMap::new();
        for _ in 0..n {
            let service = r.str()?.to_string();
            seen.insert(service, r.u8()?);
        }
        self.breakers_seen = seen;
        Ok(())
    }

    /// Skip (and validate) an adaptive section on a runtime with
    /// adaptivity disabled. Errors with [`SnapshotError::Mismatch`] when
    /// the snapshot carries adaptive state — a node restored without the
    /// policy would silently run un-adapted plans against executor state
    /// shaped by the adapted ones.
    pub fn import_disabled(r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let events = r.usize()?;
        let queries = r.usize()?;
        if events != 0 || queries != 0 {
            return Err(SnapshotError::Mismatch(
                "snapshot is from an adaptive runtime; rebuild with the same \
                 replan policy before restoring"
                    .into(),
            ));
        }
        let _streak = r.u64()?;
        let breakers = r.usize()?;
        for _ in 0..breakers {
            let _service = r.str()?;
            let _tag = r.u8()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::value::ServiceRef;

    fn plan() -> StreamPlan {
        StreamPlan::source("t")
    }

    #[test]
    fn breaker_edges_are_transitions_not_states() {
        let mut c = AdaptiveController::new(ReplanPolicy::default());
        let s = ServiceRef::new("svc");
        assert!(!c.observe_breakers(&[(s.clone(), BreakerState::Closed)]));
        assert!(c.observe_breakers(&[(s.clone(), BreakerState::Open { until: Instant(9) })]));
        // still open: the (stable) `until` field is not an edge
        assert!(!c.observe_breakers(&[(s.clone(), BreakerState::Open { until: Instant(9) })]));
        assert!(c.observe_breakers(&[(s.clone(), BreakerState::HalfOpen { probes_left: 2 })]));
        // probe budget counting down is not an edge either
        assert!(!c.observe_breakers(&[(s.clone(), BreakerState::HalfOpen { probes_left: 1 })]));
        assert!(c.observe_breakers(&[(s, BreakerState::Closed)]));
    }

    #[test]
    fn a_service_first_seen_open_is_an_edge() {
        let mut c = AdaptiveController::new(ReplanPolicy::default());
        let s = ServiceRef::new("svc");
        assert!(c.observe_breakers(&[(s, BreakerState::Open { until: Instant(4) })]));
    }

    #[test]
    fn sustained_degradation_fires_once_per_episode() {
        let mut c = AdaptiveController::new(ReplanPolicy {
            sustain_ticks: 3,
            ..ReplanPolicy::default()
        });
        assert!(!c.observe_degradation(0.9));
        assert!(!c.observe_degradation(0.9));
        assert!(c.observe_degradation(0.9), "streak reaches 3");
        assert!(!c.observe_degradation(0.9), "already fired this episode");
        assert!(!c.observe_degradation(0.0), "recovery resets");
        assert!(!c.observe_degradation(0.9));
        assert!(!c.observe_degradation(0.9));
        assert!(c.observe_degradation(0.9), "a new episode fires again");
    }

    #[test]
    fn cooldown_dampens_flapping() {
        let mut c = AdaptiveController::new(ReplanPolicy {
            cooldown_ticks: 5,
            ..ReplanPolicy::default()
        });
        c.track("q", plan());
        assert!(c.cooled_down("q", Instant(0)));
        c.record(Instant(2), "q", ReplanReason::BreakerTransition, 1);
        assert!(!c.cooled_down("q", Instant(3)));
        assert!(!c.cooled_down("q", Instant(6)));
        assert!(c.cooled_down("q", Instant(7)));
        assert_eq!(c.candidate("q"), Some(1));
    }

    #[test]
    fn state_round_trips_and_empty_section_matches_disabled() {
        let mut c = AdaptiveController::new(ReplanPolicy::default());
        c.track("a", plan());
        c.track("b", plan());
        c.observe_breakers(&[(
            ServiceRef::new("svc"),
            BreakerState::Open { until: Instant(7) },
        )]);
        c.observe_degradation(0.8);
        c.record(Instant(4), "b", ReplanReason::SustainedDegradation, 1);

        let mut w = Writer::new();
        c.export_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = AdaptiveController::new(ReplanPolicy::default());
        restored.track("a", plan());
        restored.track("b", plan());
        restored
            .import_state(&mut Reader::new(&bytes))
            .expect("import");
        assert_eq!(restored.history(), c.history());
        assert_eq!(restored.candidate("b"), Some(1));
        assert_eq!(restored.candidate("a"), Some(0));
        // edge state survives: the still-open breaker is not a fresh edge
        assert!(!restored.observe_breakers(&[(
            ServiceRef::new("svc"),
            BreakerState::Open { until: Instant(7) },
        )]));

        // a populated section refuses to restore into a disabled runtime
        let err = AdaptiveController::import_disabled(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");

        // the disabled runtime's empty section round-trips both ways
        let mut w = Writer::new();
        AdaptiveController::export_empty(&mut w);
        let empty = w.into_bytes();
        AdaptiveController::import_disabled(&mut Reader::new(&empty)).expect("empty section");
        let mut none = AdaptiveController::new(ReplanPolicy::default());
        none.import_state(&mut Reader::new(&empty))
            .expect("empty into fresh controller");
        assert!(none.history().is_empty());
    }

    #[test]
    fn import_rejects_mismatched_query_sets() {
        let mut c = AdaptiveController::new(ReplanPolicy::default());
        c.track("a", plan());
        let mut w = Writer::new();
        c.export_state(&mut w);
        let bytes = w.into_bytes();
        let mut other = AdaptiveController::new(ReplanPolicy::default());
        other.track("different", plan());
        let err = other.import_state(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    }
}
