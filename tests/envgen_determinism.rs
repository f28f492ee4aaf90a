//! Determinism regression for the environment generator (ISSUE 6
//! acceptance): the same `EnvSpec` seed replays **byte-identically** —
//! across independent runs, across scheduler worker counts {1, 2, 8} and
//! with cross-query β dedup on or off, with `temperatures` replaying the
//! arrival trace or sampling the fleet.
//!
//! This is the property that lets future scheduler/operator PRs claim
//! "byte-identical output vs serial" on realistic massive-scale workloads:
//! every per-query delta (through its canonical snapshot encoding), every
//! batch, action set, error multiset and β-cache statistic must agree, and
//! so must the final per-query relations, the service-health report and the
//! runtime's checkpoint, byte for byte.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{observe, Obs};
use serena::core::snapshot::fnv1a;
use serena::core::time::Instant;
use serena::pems::envspec::{ArrivalTrace, EnvSpec, QueryTemplate, WorkloadSpec};
use serena::pems::{Pems, SchedulerConfig};
use serena::services::faults::FaultPolicy;
use serena::services::fleet::FailureProfile;
use serena::services::transport::{InProcTransport, SocketTransport, Transport};

const TICKS: u64 = 8;

fn spec() -> EnvSpec {
    sampled_spec().arrivals(ArrivalTrace::new(1234).mean_per_tick(24))
}

/// [`spec`] without its arrival trace: `temperatures` then samples every
/// discovered sensor, failures included, once an instant. The profile's
/// sensors fail at a seeded per-instant rate; sensor 5 instead has an
/// outage, so both pure-per-instant fault paths run.
fn sampled_spec() -> EnvSpec {
    EnvSpec::new(1234)
        .sensors(64)
        .cameras(8)
        .failures(FailureProfile::new(0.3, 1.0))
        .sensor_fault(
            5,
            FaultPolicy::Outage {
                from: Instant(2),
                to: Instant(5),
            },
        )
        .heat_event(3, Instant(2), Instant(4), 40.0)
}

fn workload() -> WorkloadSpec {
    WorkloadSpec::new()
        .queries(
            QueryTemplate::HotAreas {
                window: 3,
                threshold: 30.0,
            },
            4,
        )
        .queries(QueryTemplate::AreaWatch { window: 2 }, 3)
        .queries(QueryTemplate::RecentReadings { window: 4 }, 2)
        .queries(QueryTemplate::SensorInventory, 1)
        // β-bearing: live invocations through the invoker stack, which
        // every thread of a round calls — the part a round could perturb.
        .queries(QueryTemplate::SampledTemperatures { every: 1 }, 2)
}

/// Deploy the spec'd environment on a single-worker runtime, run `TICKS`
/// instants, and return every observation plus a canonical rendering of
/// the final runtime state: each query's current relation (sorted
/// occurrences) and the full service-health report.
fn run() -> (Vec<Obs>, Vec<String>) {
    run_with(&spec(), 1, true)
}

/// [`run`] generalised over the spec and the multi-query scheduler axes:
/// pool width (`SchedulerConfig::workers`) and cross-query β dedup. The
/// returned state keeps the service-health report *last*, after one entry
/// per query, so callers can strip it when comparing dedup on/off (dedup
/// changes how many *physical* calls back the same logical result — health
/// attempt counts legitimately differ; everything a query observes must
/// not).
fn run_with(s: &EnvSpec, workers: usize, dedup: bool) -> (Vec<Obs>, Vec<String>) {
    run_traced(s, workers, dedup, false)
}

/// [`run_with`] with the span tracer's flight recorder explicitly armed or
/// disarmed (ISSUE 8): recording spans must be strictly observational.
fn run_traced(s: &EnvSpec, workers: usize, dedup: bool, tracing: bool) -> (Vec<Obs>, Vec<String>) {
    let mut pems = Pems::builder()
        .scheduler(SchedulerConfig::new(workers))
        .dedup(dedup)
        .tracing(tracing)
        .build();
    s.install_catalog(&mut pems).expect("catalog installs");
    s.deploy_into(&pems);
    let names = workload()
        .register_into(&mut pems, s)
        .expect("workload registers");
    let mut obs = Vec::new();
    for _ in 0..TICKS {
        obs.extend(observe(pems.tick()));
    }
    (obs, collect_state(&pems, &names))
}

/// Canonical rendering of the final runtime state: one entry per query
/// (its current relation, sorted), then the full service-health report,
/// then the length and FNV-1a digest of `Pems::snapshot_bytes`.
fn collect_state(pems: &Pems, names: &[String]) -> Vec<String> {
    let mut state = Vec::new();
    for name in names {
        // βˢ-rooted queries emit batches rather than maintaining a
        // relation, so `current_relation` can legitimately be absent.
        // Where present, sort: the backing Vec order follows delta
        // application order, which is not part of the contract — its
        // contents are.
        match pems.processor().current_relation(name) {
            Some(rel) => {
                let mut tuples = rel.tuples().to_vec();
                tuples.sort();
                state.push(format!("{name}: {tuples:?}"));
            }
            None => state.push(format!("{name}: <no relation>")),
        }
    }
    for h in pems.service_health() {
        state.push(format!(
            "{} attempts={} failures={} consecutive={} last_seen={:?} last_error={:?} window={}",
            h.reference,
            h.attempts,
            h.failures,
            h.consecutive_errors,
            h.last_seen,
            h.last_error,
            h.window_len
        ));
    }
    let snapshot = pems.snapshot_bytes();
    state.push(format!(
        "snapshot: {} bytes, fnv1a {:016x}",
        snapshot.len(),
        fnv1a(&snapshot)
    ));
    state
}

/// [`run`] split across two nodes (ISSUE 9 acceptance): a **host** PEMS
/// owns the generated fleet and serves its directory on `transport`,
/// while an **edge** PEMS registers the catalog and the workload but
/// deploys nothing — every sensor it discovers is a proxy, and every βˢ
/// invocation relays over the wire. The two runtimes tick in lockstep
/// (host first, so membership changes land with the same one-tick bus
/// latency a local deployment has), and the edge's observations must be
/// byte-identical to a single-node run — including the health report,
/// because relayed errors re-surface structurally.
fn run_distributed(transport: Arc<dyn Transport>, addr: &str) -> (Vec<Obs>, Vec<String>) {
    let s = spec();
    let mut host = Pems::builder().node_id("host").build();
    s.install_catalog(&mut host).expect("host catalog installs");
    s.deploy_into(&host);
    let handle = host
        .serve(Arc::clone(&transport), addr)
        .expect("host serves");

    let mut edge = Pems::builder()
        .node_id("edge")
        .scheduler(SchedulerConfig::new(1))
        .dedup(true)
        .build();
    s.install_catalog(&mut edge).expect("edge catalog installs");
    let names = workload()
        .register_into(&mut edge, &s)
        .expect("workload registers");
    let peer = edge
        .connect_peer(Arc::clone(&transport), handle.addr())
        .expect("edge links host");
    assert_eq!(peer, "host");

    let mut obs = Vec::new();
    for _ in 0..TICKS {
        host.tick();
        obs.extend(observe(edge.tick()));
    }
    (obs, collect_state(&edge, &names))
}

/// A collision-free UDS path for this test binary.
fn fresh_uds_addr() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "serena-envgen-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    format!("uds:{}", path.display())
}

#[test]
fn same_seed_replays_byte_identically() {
    let (a_obs, a_state) = run();
    let (b_obs, b_state) = run();
    assert!(!a_obs.is_empty());
    assert_eq!(a_obs, b_obs, "two runs of the same spec diverged");
    assert_eq!(a_state, b_state, "final runtime state diverged");
    // the workload actually did something worth protecting
    assert!(a_obs.iter().any(|o| !o.delta_bytes.is_empty()));
    assert!(a_obs.iter().map(|o| o.invocations).sum::<u64>() > 0);
    assert!(
        a_obs.iter().map(|o| o.errors.len()).sum::<usize>() > 0,
        "the failure profile must surface some injected faults"
    );
}

#[test]
fn worker_counts_replay_byte_identically() {
    // ISSUE 7 acceptance: per-query deltas, actions and final relations
    // are byte-identical whether the tick round runs on one worker or
    // is split over several — and so is the health report and checkpoint.
    // With the dedup memo armed the *physical* call set is deterministic;
    // with it off every query calls the fleet itself, and the faults are
    // still a function of the instant alone, so no call order shows.
    // Without `arrivals`, `temperatures` samples the fleet behind one hub:
    // whichever worker's query reads it first at an instant polls it, and
    // nothing a query observes may depend on which one it is.
    for s in [spec(), sampled_spec()] {
        for dedup in [true, false] {
            let (base_obs, base_state) = run_with(&s, 1, dedup);
            assert!(base_obs.iter().any(|o| !o.delta_bytes.is_empty()));
            let outage = s.sensor_name(5);
            assert!(
                base_obs
                    .iter()
                    .any(|o| o.errors.iter().any(|e| e.contains(outage.as_str()))),
                "the outage of {outage} must surface"
            );
            for workers in [2, 8] {
                let (obs, state) = run_with(&s, workers, dedup);
                assert_eq!(
                    base_obs, obs,
                    "workers={workers} dedup={dedup} diverged from the single-worker run"
                );
                assert_eq!(
                    base_state, state,
                    "workers={workers} dedup={dedup} final state diverged from the single-worker run"
                );
            }
        }
    }
}

#[test]
fn dedup_toggle_changes_no_query_observable() {
    let queries = workload().total();
    for s in [spec(), sampled_spec()] {
        let (on_obs, on_state) = run_with(&s, 4, true);
        let (off_obs, off_state) = run_with(&s, 4, false);
        assert_eq!(on_obs, off_obs, "β dedup changed a query's tick output");
        // Final relations must agree entry for entry; the trailing health
        // report and checkpoint are excluded — coalescing shrinks physical
        // attempt counts.
        assert_eq!(
            on_state[..queries],
            off_state[..queries],
            "β dedup changed a final relation"
        );
        assert!(
            on_state.len() > queries + 1,
            "health report missing from state"
        );
    }
}

#[test]
fn flight_recorder_changes_no_query_observable() {
    // ISSUE 8 acceptance: the span tracer is a pure observer. Every
    // per-query delta, batch, action set, error multiset, β statistic,
    // final relation *and the health report* must be byte-identical with
    // the flight recorder armed vs disarmed — on a 4-wide round, where
    // spans actually record on every layer.
    let (armed_obs, armed_state) = run_traced(&spec(), 4, true, true);
    let (off_obs, off_state) = run_traced(&spec(), 4, true, false);
    assert_eq!(
        armed_obs, off_obs,
        "an armed flight recorder changed a query's tick output"
    );
    assert_eq!(
        armed_state, off_state,
        "an armed flight recorder changed the final runtime state"
    );
}

#[test]
fn two_node_inproc_replay_is_byte_identical_to_local() {
    // ISSUE 9 acceptance: splitting the environment across a host node
    // (fleet) and an edge node (queries) linked by the in-proc transport
    // changes *nothing* a query observes — deltas, batches, actions,
    // error multisets, β statistics, final relations and the health
    // report all replay byte-identically.
    let (local_obs, local_state) = run();
    let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
    let (dist_obs, dist_state) = run_distributed(transport, "inproc:envgen-host");
    assert_eq!(
        local_obs, dist_obs,
        "two-node in-proc run diverged from local"
    );
    assert_eq!(
        local_state, dist_state,
        "two-node in-proc final state diverged from local"
    );
    // the workload really crossed the wire: β invocations happened
    assert!(dist_obs.iter().map(|o| o.invocations).sum::<u64>() > 0);
}

#[test]
#[cfg(unix)]
fn two_node_uds_replay_is_byte_identical_to_local() {
    // Same property over a real socket: length-prefixed frames on a
    // Unix-domain socket must relay β calls and directory events without
    // perturbing a single byte of query output.
    let (local_obs, local_state) = run();
    let transport: Arc<dyn Transport> = Arc::new(SocketTransport::new());
    let (dist_obs, dist_state) = run_distributed(transport, &fresh_uds_addr());
    assert_eq!(local_obs, dist_obs, "two-node UDS run diverged from local");
    assert_eq!(
        local_state, dist_state,
        "two-node UDS final state diverged from local"
    );
}

#[test]
fn generated_environment_and_trace_are_pure_functions_of_the_seed() {
    let a = spec();
    let b = spec();
    // fleet naming and metadata
    assert_eq!(
        (0..64).map(|i| a.sensor_name(i)).collect::<Vec<_>>(),
        (0..64).map(|i| b.sensor_name(i)).collect::<Vec<_>>()
    );
    // the tuple trace, instant by instant
    let (ta, tb) = (
        a.arrival_trace().expect("trace set"),
        b.arrival_trace().expect("trace set"),
    );
    let areas: Vec<String> = a.area_names().to_vec();
    for t in 0..TICKS {
        assert_eq!(
            ta.tuples_at(Instant(t), &areas),
            tb.tuples_at(Instant(t), &areas)
        );
    }
    // a different seed really generates a different trace
    let other = ArrivalTrace::new(77).mean_per_tick(24).devices(64);
    assert!(
        (0..TICKS).any(|t| other.tuples_at(Instant(t), &areas) != ta.tuples_at(Instant(t), &areas)),
        "distinct seeds should not collide on the whole trace"
    );
}
