//! Export/import round-trips for the resilience layer's tick-surviving
//! state at rolling-window boundaries: `HealthTracker` windows that are
//! empty, exactly full, and mid-rotation (older outcomes already pushed
//! out), plus `ResilienceState` breakers caught in every phase of the
//! closed → open → half-open cycle. These states were previously only
//! exercised incidentally through full-engine recovery tests.

use std::sync::Arc;

use serena_core::prototype::examples as protos;
use serena_core::service::{fixtures, Invoker, InvokerStack, StaticRegistry};
use serena_core::snapshot::{Reader, Writer};
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::ServiceRef;
use serena_services::faults::{FaultPolicy, FaultyService};
use serena_services::health::HealthTracker;
use serena_services::resilience::{
    BreakerState, ResiliencePolicy, ResilienceState, ResilientLayer,
};

fn roundtrip_health(src: &HealthTracker, dst: &HealthTracker) {
    let mut w = Writer::new();
    src.export_state(&mut w);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    dst.import_state(&mut r).expect("import");
    assert!(r.is_at_end(), "trailing bytes after health import");
    // byte-identity of a re-export is the strongest equality check the
    // tracker offers (it covers the packed window bits, not just the
    // derived report)
    let mut w2 = Writer::new();
    dst.export_state(&mut w2);
    assert_eq!(bytes, w2.into_bytes(), "re-export differs");
}

fn roundtrip_resilience(src: &ResilienceState, dst: &ResilienceState) {
    let mut w = Writer::new();
    src.export_state(&mut w);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    dst.import_state(&mut r).expect("import");
    assert!(r.is_at_end(), "trailing bytes after resilience import");
    let mut w2 = Writer::new();
    dst.export_state(&mut w2);
    assert_eq!(bytes, w2.into_bytes(), "re-export differs");
}

fn flaky_registry(policy: FaultPolicy) -> StaticRegistry {
    let faulty = FaultyService::new(fixtures::temperature_sensor(1), policy);
    let reg = StaticRegistry::new();
    reg.register("flaky", faulty);
    reg
}

fn call(
    invoker: &dyn Invoker,
    sref: &ServiceRef,
    at: Instant,
) -> Result<Vec<Tuple>, serena_core::error::EvalError> {
    invoker.invoke(&protos::get_temperature(), sref, &Tuple::empty(), at)
}

#[test]
fn health_empty_window_round_trips() {
    let src = HealthTracker::new(8);
    let dst = HealthTracker::new(8);
    roundtrip_health(&src, &dst);
    assert!(dst.is_empty());

    // a tracked service whose window holds outcomes but no failures is
    // distinct from an untracked one
    let sref = ServiceRef::new("s1");
    src.record(&sref, Instant(0), None);
    roundtrip_health(&src, &dst);
    assert_eq!(dst.health_of(&sref).unwrap().attempts, 1);
    assert_eq!(dst.health_of(&sref).unwrap().failure_rate, 0.0);
}

#[test]
fn health_exactly_full_window_round_trips() {
    let window = 8;
    let src = HealthTracker::new(window);
    let sref = ServiceRef::new("s1");
    // exactly `window` outcomes, alternating failure/success
    for i in 0..window as u64 {
        let err = (i % 2 == 0).then_some("boom");
        src.record(&sref, Instant(i), err);
    }
    let dst = HealthTracker::new(window);
    roundtrip_health(&src, &dst);
    let h = dst.health_of(&sref).unwrap();
    assert_eq!(h.window_len, window);
    assert_eq!(h.failure_rate, 0.5);
    assert_eq!(h.attempts, window as u64);
}

#[test]
fn health_mid_rotation_window_round_trips() {
    let window = 4;
    let src = HealthTracker::new(window);
    let sref = ServiceRef::new("s1");
    // 10 outcomes through a window of 4: the first 6 have rotated out.
    // Failures land only in the first 6, so the surviving window is all
    // successes even though `failures` remembers them.
    for i in 0..6u64 {
        src.record(&sref, Instant(i), Some("early"));
    }
    for i in 6..10u64 {
        src.record(&sref, Instant(i), None);
    }
    let dst = HealthTracker::new(window);
    roundtrip_health(&src, &dst);
    let h = dst.health_of(&sref).unwrap();
    assert_eq!(h.attempts, 10);
    assert_eq!(h.failures, 6);
    assert_eq!(h.window_len, window);
    assert_eq!(h.failure_rate, 0.0, "rotated-out failures must not leak");
    assert_eq!(h.last_seen, Some(Instant(9)));
}

#[test]
fn health_import_truncates_wider_windows() {
    // a snapshot from a node configured with a wider window keeps only
    // the most recent outcomes the importing window can hold
    let src = HealthTracker::new(8);
    let sref = ServiceRef::new("s1");
    for i in 0..8u64 {
        // failures only in the older half
        src.record(&sref, Instant(i), (i < 4).then_some("old"));
    }
    let dst = HealthTracker::new(4);
    let mut w = Writer::new();
    src.export_state(&mut w);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    dst.import_state(&mut r).expect("import");
    let h = dst.health_of(&sref).unwrap();
    assert_eq!(h.window_len, 4);
    assert_eq!(h.failure_rate, 0.0, "kept the most recent outcomes");
}

#[test]
fn resilience_fresh_state_round_trips() {
    let src = ResilienceState::new();
    let dst = ResilienceState::new();
    roundtrip_resilience(&src, &dst);
    assert!(dst.breakers().is_empty());
}

/// Drive a breaker through its cycle with an always-failing service,
/// snapshotting at each phase: failure streak (closed, record present),
/// open, reopened after a failed probe.
#[test]
fn resilience_breaker_phases_round_trip() {
    let reg = flaky_registry(FaultPolicy::Intermittent { fail: 1, ok: 0 }); // always fails
    let policy = ResiliencePolicy::disabled().with_breaker(3, 4);
    let state = Arc::new(ResilienceState::new());
    let invoker = InvokerStack::new(&reg).layer(ResilientLayer::new(policy, state.clone()));
    let sref = ServiceRef::new("flaky");

    // phase 1: one failure — breaker still closed but a streak record
    // exists (the mid-rotation analogue for breakers)
    assert!(call(&invoker, &sref, Instant(0)).is_err());
    assert_eq!(state.breaker_of(&sref), BreakerState::Closed);
    let dst = ResilienceState::new();
    roundtrip_resilience(&state, &dst);
    assert_eq!(dst.breaker_of(&sref), BreakerState::Closed);

    // phase 2: trip it open
    assert!(call(&invoker, &sref, Instant(1)).is_err());
    assert!(call(&invoker, &sref, Instant(2)).is_err());
    let opened = state.breaker_of(&sref);
    assert!(matches!(opened, BreakerState::Open { .. }), "{opened}");
    roundtrip_resilience(&state, &dst);
    assert_eq!(dst.breaker_of(&sref), opened);

    // phase 3: cooldown elapsed — the probe fails half-open and reopens
    assert!(call(&invoker, &sref, Instant(6)).is_err());
    let reopened = state.breaker_of(&sref);
    assert!(matches!(reopened, BreakerState::Open { .. }), "{reopened}");
    roundtrip_resilience(&state, &dst);
    assert_eq!(dst.breaker_of(&sref), reopened);
    assert_eq!(dst.counters(), state.counters());
}

/// An open breaker survives export/import and the restored copy finishes
/// the cycle — half-open probe, then closed — exactly like the original
/// would.
#[test]
fn resilience_half_open_mid_probe_round_trips() {
    let reg = flaky_registry(FaultPolicy::Intermittent { fail: 3, ok: 100 });
    let policy = ResiliencePolicy::disabled().with_breaker(3, 4);
    let state = Arc::new(ResilienceState::new());
    let invoker = InvokerStack::new(&reg).layer(ResilientLayer::new(policy, state.clone()));
    let sref = ServiceRef::new("flaky");
    for t in 0..3u64 {
        assert!(call(&invoker, &sref, Instant(t)).is_err());
    }
    assert!(matches!(state.breaker_of(&sref), BreakerState::Open { .. }));
    // snapshot the open breaker, restore it into a fresh state, and let
    // the restored copy run the half-open probe (fault cycle now in its
    // ok phase): the probe succeeds and the breaker closes.
    let mut w = Writer::new();
    state.export_state(&mut w);
    let bytes = w.into_bytes();
    let restored = Arc::new(ResilienceState::new());
    restored
        .import_state(&mut Reader::new(&bytes))
        .expect("import");
    let invoker2 = InvokerStack::new(&reg).layer(ResilientLayer::new(policy, restored.clone()));
    assert!(call(&invoker2, &sref, Instant(6)).is_ok());
    assert_eq!(restored.breaker_of(&sref), BreakerState::Closed);
    // the original, run the same way, agrees
    assert!(call(&invoker, &sref, Instant(6)).is_ok());
    assert_eq!(state.breaker_of(&sref), BreakerState::Closed);
}

#[test]
fn resilience_counters_round_trip_independently_of_breakers() {
    let reg = flaky_registry(FaultPolicy::Intermittent { fail: 1, ok: 0 });
    let policy = ResiliencePolicy::disabled()
        .with_breaker(2, 10)
        .with_retries(1);
    let state = Arc::new(ResilienceState::new());
    let invoker = InvokerStack::new(&reg).layer(ResilientLayer::new(policy, state.clone()));
    let sref = ServiceRef::new("flaky");
    for t in 0..4u64 {
        let _ = call(&invoker, &sref, Instant(t));
    }
    let c = state.counters();
    assert!(c.retries >= 1);
    assert!(c.breaker_opened >= 1);
    assert!(c.rejected >= 1);
    let dst = ResilienceState::new();
    roundtrip_resilience(&state, &dst);
    assert_eq!(dst.counters(), c);
}
