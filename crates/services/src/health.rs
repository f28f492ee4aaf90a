//! Per-service health tracking fed by invocation outcomes.
//!
//! The paper's robustness concern (§5.2) is exactly this: services in a
//! pervasive environment come and go, fail intermittently, and the system
//! must keep answering. A [`HealthTracker`] implements
//! [`serena_core::telemetry::InvocationObserver`] — plug it into an
//! [`serena_core::telemetry::InstrumentedLayer`] and every β invocation
//! outcome (including injected [`crate::faults::FaultyService`] errors)
//! updates a per-[`ServiceRef`] record: total attempts/failures, the
//! **rolling failure rate** over the last [`HealthTracker::window`]
//! outcomes, the **consecutive-error count**, and the **last-seen logical
//! instant**. [`HealthTracker::report`] snapshots everything as
//! [`ServiceHealth`] rows — the data behind `Pems::service_health()` and
//! the shell's `\health` command.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use serena_core::error::EvalError;
use serena_core::snapshot::{Reader, SnapshotError, Writer};
use serena_core::sync::Mutex;
use serena_core::telemetry::InvocationObserver;
use serena_core::time::Instant;
use serena_core::value::ServiceRef;

/// Default rolling-window length (outcomes) for failure-rate estimation.
pub const DEFAULT_WINDOW: usize = 32;

/// Consecutive errors at which a service is reported [`HealthStatus::Down`].
const DOWN_AFTER: u64 = 3;

#[derive(Debug, Default)]
struct HealthEntry {
    attempts: u64,
    failures: u64,
    consecutive_errors: u64,
    last_seen: Option<Instant>,
    last_error: Option<String>,
    /// Most recent outcomes, `true` = success; bounded by the window.
    recent: VecDeque<bool>,
}

/// Coarse health classification derived from the rolling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// No failures in the rolling window.
    Healthy,
    /// Some failures in the window, but the service still answers.
    Degraded,
    /// At least three consecutive errors — presumed gone.
    Down,
}

impl std::fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthStatus::Healthy => write!(f, "healthy"),
            HealthStatus::Degraded => write!(f, "degraded"),
            HealthStatus::Down => write!(f, "down"),
        }
    }
}

/// Snapshot of one service's health.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceHealth {
    /// The service.
    pub reference: ServiceRef,
    /// Total invocation attempts observed (matches
    /// [`crate::faults::FaultyService::attempts`] when the tracker sees
    /// every call).
    pub attempts: u64,
    /// Total failed attempts.
    pub failures: u64,
    /// Failures since the last success.
    pub consecutive_errors: u64,
    /// Failure rate over the rolling window (`0.0 ..= 1.0`).
    pub failure_rate: f64,
    /// Outcomes currently in the rolling window.
    pub window_len: usize,
    /// Logical instant of the most recent attempt.
    pub last_seen: Option<Instant>,
    /// Message of the most recent failure, if any.
    pub last_error: Option<String>,
}

impl ServiceHealth {
    /// Classify this snapshot.
    pub fn status(&self) -> HealthStatus {
        if self.consecutive_errors >= DOWN_AFTER {
            HealthStatus::Down
        } else if self.failure_rate > 0.0 {
            HealthStatus::Degraded
        } else {
            HealthStatus::Healthy
        }
    }
}

/// Rolling per-service health, fed by invocation outcomes.
#[derive(Debug)]
pub struct HealthTracker {
    window: usize,
    entries: Mutex<BTreeMap<ServiceRef, HealthEntry>>,
}

impl Default for HealthTracker {
    fn default() -> Self {
        Self::new(DEFAULT_WINDOW)
    }
}

impl HealthTracker {
    /// Tracker with a rolling window of `window` outcomes per service
    /// (clamped to at least 1).
    pub fn new(window: usize) -> Self {
        HealthTracker {
            window: window.max(1),
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configured rolling-window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Record one outcome directly (the [`InvocationObserver`] impl calls
    /// this; tests may too).
    pub fn record(&self, service: &ServiceRef, at: Instant, error: Option<&str>) {
        let mut entries = self.entries.lock();
        let e = entries.entry(service.clone()).or_default();
        e.attempts += 1;
        e.last_seen = Some(at);
        if let Some(msg) = error {
            e.failures += 1;
            e.consecutive_errors += 1;
            e.last_error = Some(msg.to_string());
        } else {
            e.consecutive_errors = 0;
        }
        e.recent.push_back(error.is_none());
        while e.recent.len() > self.window {
            e.recent.pop_front();
        }
    }

    /// Snapshot one service's health, if it has been observed.
    pub fn health_of(&self, service: &ServiceRef) -> Option<ServiceHealth> {
        self.entries
            .lock()
            .get(service)
            .map(|e| snapshot(service.clone(), e))
    }

    /// Snapshot every observed service, ordered by reference.
    pub fn report(&self) -> Vec<ServiceHealth> {
        self.entries
            .lock()
            .iter()
            .map(|(r, e)| snapshot(r.clone(), e))
            .collect()
    }

    /// Number of services observed so far.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True iff no invocations have been observed.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Serialize every per-service record (totals, streaks, rolling
    /// windows) into a checkpoint, in sorted service order.
    pub fn export_state(&self, w: &mut Writer) {
        let entries = self.entries.lock();
        w.usize(entries.len());
        let mut packed = Vec::new();
        for (s, e) in entries.iter() {
            w.str(s.as_str())
                .u64(e.attempts)
                .u64(e.failures)
                .u64(e.consecutive_errors);
            match e.last_seen {
                Some(at) => w.bool(true).u64(at.ticks()),
                None => w.bool(false),
            };
            match &e.last_error {
                Some(msg) => w.bool(true).str(msg),
                None => w.bool(false),
            };
            // same wire format as one bool byte per outcome, written as a
            // single length-prefixed run instead of per-byte pushes
            packed.clear();
            packed.extend(e.recent.iter().map(|&ok| ok as u8));
            w.bytes(&packed);
        }
    }

    /// Restore records written by [`HealthTracker::export_state`],
    /// replacing all entries wholesale. Rolling windows longer than this
    /// tracker's configured window keep only their most recent outcomes.
    pub fn import_state(&self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let n = r.usize()?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let sref = ServiceRef::new(r.str()?);
            let attempts = r.u64()?;
            let failures = r.u64()?;
            let consecutive_errors = r.u64()?;
            let last_seen = if r.bool()? {
                Some(Instant(r.u64()?))
            } else {
                None
            };
            let last_error = if r.bool()? {
                Some(r.str()?.to_string())
            } else {
                None
            };
            let packed = r.bytes()?;
            let mut recent = VecDeque::with_capacity(packed.len());
            for &b in packed {
                recent.push_back(match b {
                    0 => false,
                    1 => true,
                    b => {
                        return Err(SnapshotError::Corrupt(format!("bad outcome byte {b}")));
                    }
                });
            }
            while recent.len() > self.window {
                recent.pop_front();
            }
            map.insert(
                sref,
                HealthEntry {
                    attempts,
                    failures,
                    consecutive_errors,
                    last_seen,
                    last_error,
                    recent,
                },
            );
        }
        *self.entries.lock() = map;
        Ok(())
    }
}

fn snapshot(reference: ServiceRef, e: &HealthEntry) -> ServiceHealth {
    let window_failures = e.recent.iter().filter(|ok| !**ok).count();
    ServiceHealth {
        reference,
        attempts: e.attempts,
        failures: e.failures,
        consecutive_errors: e.consecutive_errors,
        failure_rate: if e.recent.is_empty() {
            0.0
        } else {
            window_failures as f64 / e.recent.len() as f64
        },
        window_len: e.recent.len(),
        last_seen: e.last_seen,
        last_error: e.last_error.clone(),
    }
}

impl InvocationObserver for HealthTracker {
    fn observe_invocation(
        &self,
        service: &ServiceRef,
        _prototype: &str,
        at: Instant,
        _latency: Duration,
        error: Option<&EvalError>,
    ) {
        let message = error.map(|e| e.to_string());
        self.record(service, at, message.as_deref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPolicy, FaultyService};
    use serena_core::prototype::examples as protos;
    use serena_core::service::{fixtures, Invoker, InvokerStack, StaticRegistry};
    use serena_core::telemetry::InstrumentedLayer;
    use serena_core::tuple::Tuple;

    #[test]
    fn rolling_window_and_consecutive_errors() {
        let tracker = HealthTracker::new(4);
        let s = ServiceRef::new("s");
        // 2 failures, then 2 successes, then 3 failures
        tracker.record(&s, Instant(0), Some("boom"));
        tracker.record(&s, Instant(1), Some("boom"));
        tracker.record(&s, Instant(2), None);
        tracker.record(&s, Instant(3), None);
        let h = tracker.health_of(&s).unwrap();
        assert_eq!(h.attempts, 4);
        assert_eq!(h.failures, 2);
        assert_eq!(h.consecutive_errors, 0);
        assert_eq!(h.failure_rate, 0.5);
        assert_eq!(h.status(), HealthStatus::Degraded);

        for t in 4..7 {
            tracker.record(&s, Instant(t), Some("gone"));
        }
        let h = tracker.health_of(&s).unwrap();
        // window of 4: [ok, fail, fail, fail]
        assert_eq!(h.failure_rate, 0.75);
        assert_eq!(h.consecutive_errors, 3);
        assert_eq!(h.status(), HealthStatus::Down);
        assert_eq!(h.last_seen, Some(Instant(6)));
        assert_eq!(h.last_error.as_deref(), Some("gone"));
    }

    /// Satellite (PR 3): an `Intermittent` fault policy produces exactly
    /// its duty-cycle failure rate in the rolling window, and the health
    /// report's `attempts` agrees with `FaultyService::attempts()`.
    #[test]
    fn intermittent_policy_failure_rate_window() {
        let faulty = FaultyService::new(
            fixtures::temperature_sensor(1),
            // cycle: 1 failure then 3 successes → 25% failure rate
            FaultPolicy::Intermittent { fail: 1, ok: 3 },
        );
        let reg = StaticRegistry::new();
        reg.register("flaky", faulty.clone());

        let tracker = HealthTracker::new(16);
        let invoker = InvokerStack::new(&reg).layer(InstrumentedLayer::new().observer(&tracker));
        let sref = ServiceRef::new("flaky");
        for t in 0..16u64 {
            let _ = invoker.invoke(
                &protos::get_temperature(),
                &sref,
                &Tuple::empty(),
                Instant(t),
            );
        }

        let h = tracker.health_of(&sref).unwrap();
        assert_eq!(h.attempts, 16);
        assert_eq!(h.attempts, faulty.attempts());
        assert_eq!(h.failures, 4);
        assert_eq!(h.failure_rate, 0.25);
        assert_eq!(h.window_len, 16);
        assert_eq!(h.status(), HealthStatus::Degraded);
        assert!(h.last_error.is_some());
    }

    #[test]
    fn health_state_round_trips_through_snapshot() {
        let tracker = HealthTracker::new(4);
        let s = ServiceRef::new("s");
        tracker.record(&s, Instant(0), Some("boom"));
        tracker.record(&s, Instant(1), None);
        tracker.record(&s, Instant(2), Some("boom again"));
        tracker.record(&ServiceRef::new("quiet"), Instant(2), None);

        let mut w = Writer::new();
        tracker.export_state(&mut w);
        let bytes = w.into_bytes();

        let restored = HealthTracker::new(4);
        restored.import_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.report(), tracker.report());
        // narrower windows keep the most recent outcomes
        let narrow = HealthTracker::new(2);
        narrow.import_state(&mut Reader::new(&bytes)).unwrap();
        let h = narrow.health_of(&s).unwrap();
        assert_eq!(h.window_len, 2);
        assert_eq!(h.failure_rate, 0.5); // [ok, fail]
    }

    #[test]
    fn report_is_sorted_and_healthy_stays_healthy() {
        let tracker = HealthTracker::default();
        assert!(tracker.is_empty());
        tracker.record(&ServiceRef::new("zeta"), Instant(0), None);
        tracker.record(&ServiceRef::new("alpha"), Instant(0), None);
        let report = tracker.report();
        assert_eq!(tracker.len(), 2);
        assert_eq!(report[0].reference.as_str(), "alpha");
        assert_eq!(report[1].reference.as_str(), "zeta");
        assert!(report.iter().all(|h| h.status() == HealthStatus::Healthy));
    }
}
