//! Failure injection for robustness testing.
//!
//! §5.2 closes with "further experiments need to be conducted to assess the
//! scalability and the robustness of our proposal" — this module provides
//! the fault models those robustness tests need: one decorator,
//! [`FaultyService`], whose [`FaultPolicy`] makes a service fail
//! intermittently, at a seeded rate, or during a scripted outage. Latency
//! is injected by [`SlowService`](crate::fleet::SlowService).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serena_core::prototype::Prototype;
use serena_core::service::Service;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;

use crate::fleet::mix64;

/// When a wrapped service misbehaves.
///
/// `Outage`, `Rate` and `None` are **pure per instant**: whether a call
/// fails is a function of its instant alone, so every caller at τ sees the
/// same outcome however many there are and in whatever order they call.
/// `EveryNth` and `Intermittent` **count calls**: the outcome depends on
/// how many calls came before, so they are deterministic only with one
/// caller per instant — the derived stream that samples the service, dedup
/// on, or a single query.
#[derive(Debug, Clone)]
pub enum FaultPolicy {
    /// Every `n`-th invocation fails (1-based; `n = 1` fails always).
    EveryNth(u64),
    /// Fails during the inclusive instant range.
    Outage {
        /// First failing instant.
        from: Instant,
        /// Last failing instant.
        to: Instant,
    },
    /// Fails at instant τ when `mix64(seed, τ) % 100 < percent`: a
    /// long-run failure rate of `percent` %, drawn per instant.
    Rate {
        /// Seed of the per-instant draw.
        seed: u64,
        /// Failing instants per hundred (100 or more fails always).
        percent: u64,
    },
    /// A repeating duty cycle: `fail` consecutive failing calls, then `ok`
    /// consecutive successful calls. Long-run failure rate is
    /// `fail / (fail + ok)` — the predictable signal health trackers are
    /// tested against.
    ///
    /// Zero-length phases degenerate cleanly: `fail = 0` never fails
    /// (whatever `ok` is, including 0), and `ok = 0` with `fail > 0` always
    /// fails.
    Intermittent {
        /// Failing calls at the start of each cycle.
        fail: u64,
        /// Successful calls completing each cycle.
        ok: u64,
    },
    /// Never fails (control case).
    None,
}

impl FaultPolicy {
    /// A long-run failure `rate` (clamped to `0.0..=1.0`, rounded to whole
    /// percent) as [`FaultPolicy::Rate`] drawn from `seed`, or
    /// [`FaultPolicy::None`] when it rounds to zero.
    pub fn rate(seed: u64, rate: f64) -> FaultPolicy {
        match (rate.clamp(0.0, 1.0) * 100.0).round() as u64 {
            0 => FaultPolicy::None,
            percent => FaultPolicy::Rate { seed, percent },
        }
    }
}

/// A decorator injecting faults into any [`Service`].
pub struct FaultyService {
    inner: Arc<dyn Service>,
    policy: FaultPolicy,
    calls: AtomicU64,
    error: String,
}

impl FaultyService {
    /// Wrap `inner` with `policy`.
    pub fn new(inner: Arc<dyn Service>, policy: FaultPolicy) -> Arc<Self> {
        FaultyService::with_error(inner, policy, "injected fault: device unreachable")
    }

    /// Wrap with a custom error message.
    pub fn with_error(
        inner: Arc<dyn Service>,
        policy: FaultPolicy,
        error: impl Into<String>,
    ) -> Arc<Self> {
        Arc::new(FaultyService {
            inner,
            policy,
            calls: AtomicU64::new(0),
            error: error.into(),
        })
    }

    /// Total invocation attempts observed (including failed ones).
    pub fn attempts(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Whether the call with 0-based index `call` at instant `at` fails.
    fn should_fail(&self, call: u64, at: Instant) -> bool {
        match &self.policy {
            FaultPolicy::EveryNth(n) => *n > 0 && call.is_multiple_of(*n),
            FaultPolicy::Outage { from, to } => *from <= at && at <= *to,
            FaultPolicy::Rate { seed, percent } => {
                mix64(*seed, at.ticks(), 0xF1A6) % 100 < *percent
            }
            FaultPolicy::Intermittent { fail, ok } => {
                // saturating: a cycle longer than u64::MAX never wraps back
                // into the failing phase within one counter lifetime.
                let period = fail.saturating_add(*ok);
                period > 0 && call % period < *fail
            }
            FaultPolicy::None => false,
        }
    }
}

impl Service for FaultyService {
    fn prototypes(&self) -> Vec<Arc<Prototype>> {
        self.inner.prototypes()
    }

    fn invoke(
        &self,
        prototype: &Prototype,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, String> {
        // Claim this call's index and bump the counter in one atomic add,
        // so concurrent invocations (queries ticking in one round) each see
        // a distinct position in the duty cycle.
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.should_fail(call, at) {
            return Err(self.error.clone());
        }
        self.inner.invoke(prototype, input, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::prototype::examples as protos;
    use serena_core::service::fixtures;

    #[test]
    fn every_nth_fails_periodically() {
        // n=2 → calls 0, 2, 4… fail
        let svc = FaultyService::new(fixtures::temperature_sensor(1), FaultPolicy::EveryNth(2));
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            outcomes.push(
                svc.invoke(&protos::get_temperature(), &Tuple::empty(), Instant(0))
                    .is_ok(),
            );
        }
        assert_eq!(outcomes, vec![false, true, false, true, false, true]);
        assert_eq!(svc.attempts(), 6);
    }

    #[test]
    fn outage_window() {
        let svc = FaultyService::new(
            fixtures::temperature_sensor(1),
            FaultPolicy::Outage {
                from: Instant(5),
                to: Instant(7),
            },
        );
        assert!(svc
            .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(4))
            .is_ok());
        for t in 5..=7 {
            assert!(svc
                .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(t))
                .is_err());
        }
        assert!(svc
            .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(8))
            .is_ok());
    }

    #[test]
    fn intermittent_duty_cycle() {
        // 2 failures then 2 successes, repeating
        let svc = FaultyService::new(
            fixtures::temperature_sensor(1),
            FaultPolicy::Intermittent { fail: 2, ok: 2 },
        );
        let outcomes: Vec<bool> = (0..8)
            .map(|_| {
                svc.invoke(&protos::get_temperature(), &Tuple::empty(), Instant(0))
                    .is_ok()
            })
            .collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, true, false, false, true, true]
        );
        assert_eq!(svc.attempts(), 8);
    }

    fn outcomes_of(policy: FaultPolicy, calls: usize) -> Vec<bool> {
        let svc = FaultyService::new(fixtures::temperature_sensor(1), policy);
        (0..calls)
            .map(|_| {
                svc.invoke(&protos::get_temperature(), &Tuple::empty(), Instant(0))
                    .is_ok()
            })
            .collect()
    }

    #[test]
    fn intermittent_zero_fail_phase_never_fails() {
        let outcomes = outcomes_of(FaultPolicy::Intermittent { fail: 0, ok: 3 }, 7);
        assert!(outcomes.iter().all(|ok| *ok));
    }

    #[test]
    fn intermittent_zero_ok_phase_always_fails() {
        let outcomes = outcomes_of(FaultPolicy::Intermittent { fail: 3, ok: 0 }, 7);
        assert!(outcomes.iter().all(|ok| !*ok));
    }

    #[test]
    fn intermittent_both_phases_zero_never_fails() {
        let outcomes = outcomes_of(FaultPolicy::Intermittent { fail: 0, ok: 0 }, 5);
        assert!(outcomes.iter().all(|ok| *ok));
    }

    #[test]
    fn intermittent_phase_boundaries_are_exact() {
        // fail=1, ok=2: exactly call 0 of every 3-call cycle fails.
        let outcomes = outcomes_of(FaultPolicy::Intermittent { fail: 1, ok: 2 }, 9);
        assert_eq!(
            outcomes,
            vec![false, true, true, false, true, true, false, true, true]
        );
        // fail=3, ok=1: only the last call of every 4-call cycle succeeds.
        let outcomes = outcomes_of(FaultPolicy::Intermittent { fail: 3, ok: 1 }, 8);
        assert_eq!(
            outcomes,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn intermittent_huge_phases_do_not_overflow() {
        // fail + ok would overflow u64; the first calls sit in the failing
        // phase and must not panic.
        let outcomes = outcomes_of(
            FaultPolicy::Intermittent {
                fail: u64::MAX,
                ok: 2,
            },
            3,
        );
        assert!(outcomes.iter().all(|ok| !*ok));
    }

    #[test]
    fn rate_is_pure_per_instant() {
        // every caller at τ sees the draw `mix64(seed, τ) % 100 < percent`,
        // however many calls came before
        let svc = FaultyService::new(
            fixtures::temperature_sensor(2),
            FaultPolicy::Rate {
                seed: 9,
                percent: 50,
            },
        );
        let proto = protos::get_temperature();
        let mut failures = 0;
        for t in 0..100 {
            let a = svc.invoke(&proto, &Tuple::empty(), Instant(t));
            let b = svc.invoke(&proto, &Tuple::empty(), Instant(t));
            assert_eq!(a.is_err(), b.is_err());
            assert_eq!(a.is_err(), mix64(9, t, 0xF1A6) % 100 < 50);
            if let Err(e) = a {
                assert_eq!(e, "injected fault: device unreachable");
                failures += 1;
            }
        }
        assert!((25..=75).contains(&failures), "{failures} failures");
        assert_eq!(svc.attempts(), 200);
    }

    #[test]
    fn none_policy_is_transparent() {
        let svc = FaultyService::new(fixtures::temperature_sensor(1), FaultPolicy::None);
        for t in 0..5 {
            assert!(svc
                .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(t))
                .is_ok());
        }
        assert_eq!(svc.prototypes().len(), 1);
    }

    #[test]
    fn custom_error_propagates() {
        let svc = FaultyService::with_error(
            fixtures::temperature_sensor(1),
            FaultPolicy::EveryNth(1),
            "battery dead",
        );
        let err = svc
            .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(0))
            .unwrap_err();
        assert_eq!(err, "battery dead");
    }
}
