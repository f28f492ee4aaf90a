//! Deterministic fleet parameterization for massive simulated
//! environments.
//!
//! §7 of the paper names a "benchmark for pervasive environments" as future
//! work; building one needs fleets of 10⁴–10⁶ devices whose per-service
//! latencies and failure rates follow realistic, *skewed* distributions —
//! a handful of slow or flaky devices, a long tail of fast healthy ones.
//! This module provides those draws as pure functions of `(seed, index)`:
//! no RNG state, no wall clock, so the same specification replays
//! byte-identically (the property the scale benchmarks and the determinism
//! regression tests are built on).
//!
//! * [`mix64`] — the splitmix64 finalizer shared with the simulated
//!   devices, exported for downstream spec builders;
//! * [`LatencyProfile`] — zipf-skewed per-service wall-clock latencies;
//! * [`FailureProfile`] — zipf-skewed per-service failure rates, realized
//!   as [`FaultPolicy::Rate`]: a failure is a pure function of
//!   `(seed, instant)`, so every caller at an instant sees the same
//!   outcome — the property the determinism regression relies on;
//! * [`SlowService`] — the latency decorator. Sleeping never affects
//!   logical outputs, so latency injection preserves determinism.

use std::sync::Arc;
use std::time::Duration;

use serena_core::prototype::Prototype;
use serena_core::service::Service;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;

use crate::faults::{FaultPolicy, FaultyService};

/// Deterministic 64-bit mix (splitmix64 finalizer): the simulated devices
/// derive per-instant pseudo-random behaviour from `(seed, instant, salt)`
/// with it, and environment generators per-device parameters from
/// `(seed, index, salt)`, without any RNG state.
pub fn mix64(seed: u64, t: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(t.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(salt.wrapping_mul(0x94D049BB133111EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A device's zipf rank in a fleet of `n`: a deterministic pseudo-random
/// value in `1..=n` drawn from `(seed, index, salt)`. Rank 1 is the "head"
/// of the distribution (slowest / flakiest); most devices land deep in the
/// tail.
fn zipf_rank(seed: u64, index: u64, n: u64, salt: u64) -> u64 {
    1 + mix64(seed, index, salt) % n.max(1)
}

/// Zipf-skewed per-service latencies: the rank-1 service sleeps `max`, the
/// rank-r service sleeps `max / r^exponent`. With the default exponent of
/// 1.0 a 10⁴-device fleet has a handful of millisecond-slow devices and a
/// long tail of effectively instant ones — the traffic shape a pervasive
/// deployment actually presents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Latency of the rank-1 (slowest) service.
    pub max: Duration,
    /// Zipf exponent `s` (≥ 0; 0 makes every service equally slow).
    pub exponent: f64,
}

impl LatencyProfile {
    /// A profile with the given head latency and exponent.
    pub fn new(max: Duration, exponent: f64) -> Self {
        LatencyProfile { max, exponent }
    }

    /// The latency of device `index` in a fleet of `fleet_size`, drawn
    /// deterministically from `seed`.
    pub fn latency_for(&self, seed: u64, index: u64, fleet_size: u64) -> Duration {
        let rank = zipf_rank(seed, index, fleet_size, 0x1A7E) as f64;
        let ns = self.max.as_nanos() as f64 / rank.powf(self.exponent);
        Duration::from_nanos(ns as u64)
    }
}

/// Zipf-skewed per-service failure rates: the rank-1 service fails at
/// `max_rate`, the rank-r service at `max_rate / r^exponent`.
///
/// Rates are *realized* by [`FaultPolicy::rate`] as a per-instant draw, so
/// the failures a query observes are a replayable function of the seed and
/// the instant — not of how many calls came before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureProfile {
    /// Failure rate of the rank-1 (flakiest) service, in `0.0..=1.0`.
    pub max_rate: f64,
    /// Zipf exponent `s` (≥ 0; 0 makes every service equally flaky).
    pub exponent: f64,
}

impl FailureProfile {
    /// A profile with the given head failure rate and exponent.
    pub fn new(max_rate: f64, exponent: f64) -> Self {
        FailureProfile {
            max_rate: max_rate.clamp(0.0, 1.0),
            exponent,
        }
    }

    /// The long-run failure rate of device `index` in a fleet of
    /// `fleet_size`, drawn deterministically from `seed`.
    pub fn rate_for(&self, seed: u64, index: u64, fleet_size: u64) -> f64 {
        let rank = zipf_rank(seed, index, fleet_size, 0xFA11) as f64;
        self.max_rate / rank.powf(self.exponent)
    }
}

/// The constructor for a service failing at a long-run rate. Nothing of
/// this type exists: [`FlakyService::wrap`] builds a
/// [`FaultyService`] under [`FaultPolicy::Rate`].
pub enum FlakyService {}

impl FlakyService {
    /// Wrap `inner` so invocations at instant τ fail with long-run
    /// frequency `rate` (see [`FaultPolicy::rate`]). A rate rounding to
    /// zero returns `inner` unwrapped.
    pub fn wrap(inner: Arc<dyn Service>, seed: u64, rate: f64) -> Arc<dyn Service> {
        match FaultPolicy::rate(seed, rate) {
            FaultPolicy::None => inner,
            policy => FaultyService::new(inner, policy),
        }
    }
}

/// A decorator adding a fixed wall-clock latency to one [`Service`]. The
/// sleep happens on the invoking thread and never changes the inner
/// service's logical output, so injected latency is invisible to the
/// algebra — only to the clock.
pub struct SlowService {
    inner: Arc<dyn Service>,
    delay: Duration,
}

impl SlowService {
    /// Wrap `inner` so every invocation sleeps `delay` first. A zero delay
    /// returns `inner` unwrapped (no decoration cost for the fleet tail).
    pub fn wrap(inner: Arc<dyn Service>, delay: Duration) -> Arc<dyn Service> {
        if delay.is_zero() {
            inner
        } else {
            Arc::new(SlowService { inner, delay })
        }
    }

    /// The injected per-call latency.
    pub fn delay(&self) -> Duration {
        self.delay
    }
}

impl Service for SlowService {
    fn prototypes(&self) -> Vec<Arc<Prototype>> {
        self.inner.prototypes()
    }

    fn invoke(
        &self,
        prototype: &Prototype,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, String> {
        std::thread::sleep(self.delay);
        self.inner.invoke(prototype, input, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::prototype::examples as protos;
    use serena_core::service::fixtures;

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(7, 3, 1), mix64(7, 3, 1));
        assert_ne!(mix64(7, 3, 1), mix64(7, 3, 2));
        assert_ne!(mix64(7, 3, 1), mix64(7, 4, 1));
        assert_ne!(mix64(7, 3, 1), mix64(8, 3, 1));
    }

    #[test]
    fn latency_profile_is_skewed_and_replayable() {
        let p = LatencyProfile::new(Duration::from_millis(10), 1.0);
        let n = 1000u64;
        let draws: Vec<Duration> = (0..n).map(|i| p.latency_for(42, i, n)).collect();
        // replayable
        assert_eq!(
            draws,
            (0..n).map(|i| p.latency_for(42, i, n)).collect::<Vec<_>>()
        );
        // every draw is bounded by the head latency
        assert!(draws.iter().all(|d| *d <= Duration::from_millis(10)));
        // skew: the median is far below the mean (long tail of fast devices)
        let mut sorted = draws.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let mean_ns: u64 = draws.iter().map(|d| d.as_nanos() as u64).sum::<u64>() / n;
        assert!(
            median.as_nanos() < mean_ns as u128,
            "median {median:?} not below mean {mean_ns}ns"
        );
        // a different seed draws a different assignment
        assert_ne!(
            draws,
            (0..n).map(|i| p.latency_for(43, i, n)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn failure_profile_rates_decay_with_rank() {
        let p = FailureProfile::new(0.5, 1.0);
        let n = 500u64;
        let rates: Vec<f64> = (0..n).map(|i| p.rate_for(9, i, n)).collect();
        assert!(rates.iter().all(|r| (0.0..=0.5).contains(r)));
        // most devices round to a zero-failure policy under the skew
        let healthy = rates
            .iter()
            .filter(|r| matches!(FaultPolicy::rate(9, **r), FaultPolicy::None))
            .count();
        assert!(
            healthy > n as usize / 2,
            "only {healthy}/{n} devices healthy"
        );
        // at least the head of the distribution does fail
        assert!(rates
            .iter()
            .any(|r| !matches!(FaultPolicy::rate(9, *r), FaultPolicy::None)));
    }

    #[test]
    fn failure_policy_realizes_the_rate() {
        let rate = FailureProfile::new(1.0, 0.0).rate_for(1, 0, 10); // every device at 100%
        assert!(matches!(
            FaultPolicy::rate(7, rate),
            FaultPolicy::Rate {
                seed: 7,
                percent: 100
            }
        ));
        let none = FailureProfile::new(0.0, 1.0).rate_for(1, 0, 10);
        assert!(matches!(FaultPolicy::rate(7, none), FaultPolicy::None));
    }

    #[test]
    fn flaky_service_is_pure_per_instant() {
        let flaky = FlakyService::wrap(fixtures::temperature_sensor(2), 9, 0.5);
        let proto = protos::get_temperature();
        let mut failures = 0;
        for t in 0..100 {
            let a = flaky.invoke(&proto, &Tuple::empty(), Instant(t));
            let b = flaky.invoke(&proto, &Tuple::empty(), Instant(t));
            // every caller at the same instant sees the same outcome
            assert_eq!(a.is_err(), b.is_err());
            if a.is_err() {
                failures += 1;
            }
        }
        // the long-run rate is in the right ballpark for a 50% draw
        assert!((25..=75).contains(&failures), "{failures} failures");
        // zero rate is the identity
        let inner = fixtures::temperature_sensor(2);
        let plain = FlakyService::wrap(Arc::clone(&inner), 9, 0.001);
        assert!(Arc::ptr_eq(&inner, &plain));
    }

    #[test]
    fn slow_service_delays_but_preserves_output() {
        let inner = fixtures::temperature_sensor(4);
        let plain = inner
            .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(3))
            .unwrap();
        let slow = SlowService::wrap(fixtures::temperature_sensor(4), Duration::from_millis(3));
        let started = std::time::Instant::now();
        let out = slow
            .invoke(&protos::get_temperature(), &Tuple::empty(), Instant(3))
            .unwrap();
        assert!(started.elapsed() >= Duration::from_millis(3));
        assert_eq!(out, plain);
        assert_eq!(slow.prototypes().len(), 1);
    }

    #[test]
    fn zero_delay_wrap_is_identity() {
        let inner = fixtures::temperature_sensor(4);
        let wrapped = SlowService::wrap(Arc::clone(&inner), Duration::ZERO);
        assert!(Arc::ptr_eq(&inner, &wrapped));
    }
}
