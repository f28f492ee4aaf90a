//! Two-node lifecycle tests for the distributed PEMS (ISSUE 9): an edge
//! runtime joins a fleet-hosting node over a real loopback socket, serves
//! β invocations through proxied services, is killed mid-run, and a
//! standby resumes **byte-identically** from the replicated checkpoint.
//! Plus: peer death evicts proxies fail-fast and recovery re-syncs them,
//! the edge's trace-driven stream reads its own trace before and after the
//! host dies, and a served endpoint survives hostile bytes on the wire.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::observe;
use serena::core::time::Instant;
use serena::core::value::ServiceRef;
use serena::pems::envspec::{ArrivalTrace, EnvSpec, QueryTemplate, WorkloadSpec};
use serena::pems::Pems;
use serena::services::directory::NodeDirectory;
use serena::services::fleet::FailureProfile;
use serena::services::node::{NodeHandle, ServiceNode};
use serena::services::transport::{InProcTransport, SocketTransport, Transport};
use serena::stream::plan::StreamPlan;

const TICKS: u64 = 8;
const KILL: u64 = 4;

/// A small deterministic environment: enough fleet for discovery and
/// faults to matter, small enough to keep the socket matrix fast.
fn spec() -> EnvSpec {
    EnvSpec::new(77)
        .sensors(16)
        .cameras(4)
        .failures(FailureProfile::new(0.25, 1.0))
        .arrivals(ArrivalTrace::new(77).mean_per_tick(8))
}

fn workload() -> WorkloadSpec {
    WorkloadSpec::new()
        .queries(
            QueryTemplate::HotAreas {
                window: 3,
                threshold: 30.0,
            },
            2,
        )
        .queries(QueryTemplate::RecentReadings { window: 4 }, 1)
        .queries(QueryTemplate::SensorInventory, 1)
        .queries(QueryTemplate::SampledTemperatures { every: 1 }, 2)
}

/// A fleet-hosting node served on `addr`: owns every generated service,
/// runs no queries.
fn host_on(transport: &Arc<dyn Transport>, addr: &str) -> (Pems, NodeHandle) {
    let s = spec();
    let mut host = Pems::builder().node_id("host").build();
    s.install_catalog(&mut host).expect("host catalog installs");
    s.deploy_into(&host);
    let handle = host
        .serve(Arc::clone(transport), addr)
        .expect("host serves");
    (host, handle)
}

/// An edge node linked to the host at `host_addr`: catalog + workload,
/// hosting only its own trace gateway — every fleet β call relays over
/// the wire.
fn edge_on(transport: &Arc<dyn Transport>, host_addr: &str) -> (Pems, Vec<String>) {
    let s = spec();
    let mut edge = Pems::builder().node_id("edge").build();
    s.install_catalog(&mut edge).expect("edge catalog installs");
    let names = workload()
        .register_into(&mut edge, &s)
        .expect("workload registers");
    edge.connect_peer(Arc::clone(transport), host_addr)
        .expect("edge links host");
    (edge, names)
}

/// A collision-free UDS address for this test binary.
fn fresh_uds_addr() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "serena-dist-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    format!("uds:{}", path.display())
}

/// The full lifecycle over real loopback sockets: the edge joins, serves
/// β through proxies, replicates every tick to a standby endpoint, dies
/// after tick `KILL-1`, and a successor rehydrated from the standby's
/// replicated checkpoint replays ticks `KILL..TICKS` byte-identically
/// against an uninterrupted baseline.
#[test]
#[cfg(unix)]
fn standby_resumes_byte_identically_from_replicated_checkpoint() {
    let transport: Arc<dyn Transport> = Arc::new(SocketTransport::new());

    // Uninterrupted baseline pair.
    let (mut base_host, base_handle) = host_on(&transport, &fresh_uds_addr());
    let (mut base_edge, names) = edge_on(&transport, base_handle.addr());
    let mut expected = Vec::new();
    for _ in 0..TICKS {
        base_host.tick();
        expected.push(observe(base_edge.tick()));
    }
    assert!(
        expected
            .iter()
            .flatten()
            .map(|o| o.invocations)
            .sum::<u64>()
            > 0,
        "baseline workload must relay β invocations"
    );

    // Doomed pair + standby endpoint receiving per-tick checkpoints.
    let standby_dir = Arc::new(NodeDirectory::new("standby"));
    let standby = ServiceNode::serve(Arc::clone(&transport), &fresh_uds_addr(), standby_dir)
        .expect("standby serves");
    let (mut host, handle) = host_on(&transport, &fresh_uds_addr());
    let (mut edge, _) = edge_on(&transport, handle.addr());
    let peer = edge
        .replicate_to(Arc::clone(&transport), standby.addr())
        .expect("edge replicates to standby");
    assert_eq!(peer, "standby");

    for t in 0..KILL {
        host.tick();
        let got = observe(edge.tick());
        assert_eq!(
            got, expected[t as usize],
            "replication must be observationally neutral (tick {t})"
        );
    }
    drop(edge); // the primary dies mid-run

    let (tick, bytes) = standby
        .last_checkpoint()
        .expect("standby holds a replicated checkpoint");
    assert_eq!(tick, KILL - 1, "checkpoint streamed after every tick");

    // Successor: same static setup against the *still running* host,
    // dynamic state rehydrated from the replicated snapshot.
    let (mut successor, succ_names) = edge_on(&transport, handle.addr());
    successor
        .restore_bytes(&bytes)
        .expect("successor restores the replicated checkpoint");
    assert_eq!(successor.clock(), Instant(KILL));
    for t in KILL..TICKS {
        host.tick();
        let got = observe(successor.tick());
        assert_eq!(
            got, expected[t as usize],
            "tick {t} diverged after takeover"
        );
    }

    // Final aggregates agree with the uninterrupted run too.
    assert_eq!(names, succ_names);
    for name in &names {
        assert_eq!(
            successor.processor().stats(name),
            base_edge.processor().stats(name),
            "stats for `{name}` diverged after takeover"
        );
        assert_eq!(
            successor.processor().current_relation(name),
            base_edge.processor().current_relation(name),
            "result of `{name}` diverged after takeover"
        );
    }
}

/// Peer death marks the link down on the next poll and evicts every
/// proxied service, so discovery shrinks and β fails fast instead of
/// hanging; re-serving the same endpoint re-syncs the full listing.
#[test]
fn peer_death_evicts_proxies_and_reconnect_resyncs() {
    let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
    let (mut host, handle) = host_on(&transport, "inproc:dist-host");
    let (mut edge, _) = edge_on(&transport, handle.addr());

    // Two ticks: bus announcements land on the host, proxies adopt.
    for _ in 0..2 {
        host.tick();
        edge.tick();
    }
    // the one service the edge hosts itself: its trace gateway
    let own = vec![ServiceRef::new("arrivals")];
    let adopted = edge.directory().len() - own.len();
    assert!(adopted > 0, "edge must have adopted the host's fleet");
    let status = edge.peer_status();
    assert_eq!(status.len(), 1);
    assert!(status[0].alive);
    assert_eq!(status[0].services, adopted);

    // Kill the host endpoint (keep the host runtime alive).
    let mut handle = handle;
    handle.shutdown();
    host.tick();
    edge.tick();
    let status = edge.peer_status();
    assert!(!status[0].alive, "dead peer must be marked down");
    assert_eq!(status[0].services, 0, "proxies must be evicted");
    assert_eq!(edge.directory().references(), own);

    // Re-serve the same address: the next poll re-syncs everything.
    let _handle2 = host
        .serve(Arc::clone(&transport), "inproc:dist-host")
        .expect("host re-serves");
    host.tick();
    edge.tick();
    let status = edge.peer_status();
    assert!(status[0].alive, "recovered peer must be live again");
    assert_eq!(status[0].services, adopted, "full listing must re-sync");
    assert_eq!(edge.directory().len(), adopted + own.len());
}

/// The edge reads `temperatures` from its own trace gateway, whatever
/// the peer it links to serves: a host that runs the same catalog over
/// another trace feeds the edge none of its rows, and once the host's
/// endpoint is gone the edge's readers go on, row for row as a runtime
/// that never linked.
#[test]
fn the_edge_reads_its_own_trace_while_linked_and_after_the_host_dies() {
    let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
    let other = spec().arrivals(ArrivalTrace::new(78).mean_per_tick(8));
    let mut host = Pems::builder().node_id("host").build();
    other
        .install_catalog(&mut host)
        .expect("host catalog installs");
    other.deploy_into(&host);
    let mut handle = host
        .serve(Arc::clone(&transport), "inproc:dist-trace-host")
        .expect("host serves");
    let (mut edge, _) = edge_on(&transport, handle.addr());
    let mut alone = Pems::default();
    spec()
        .install_catalog(&mut alone)
        .expect("catalog installs");
    let readings = StreamPlan::source("temperatures").window(1);
    for pems in [&mut edge, &mut alone] {
        pems.register_query("readings", &readings)
            .expect("registers");
    }
    let rows = |pems: &Pems| {
        let held = pems.processor().current_relation("readings");
        held.expect("readings is registered").into_tuples()
    };
    let mut read = 0;
    for t in 0..TICKS {
        if t == KILL {
            handle.shutdown();
        }
        host.tick();
        edge.tick();
        alone.tick();
        assert_eq!(rows(&edge), rows(&alone), "instant {t}");
        read += rows(&edge).len();
    }
    assert!(!edge.peer_status()[0].alive, "the host is down");
    assert!(read > 0, "the trace feeds the stream");
}

/// A node must refuse to link to itself, and a served endpoint must
/// refuse to *relay* a β invocation for a service it merely proxies —
/// either hole turns a misconfigured link into an infinite relay loop
/// (edge resolves a proxy, relays to the server, which resolves the
/// same proxy, relays back, …).
#[test]
fn self_links_and_proxy_relays_are_refused() {
    use serena::core::tuple::Tuple;
    use serena::services::transport::Frame;

    let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
    let (mut host, handle) = host_on(&transport, "inproc:dist-loop-host");
    host.tick();

    // A node refuses to link to its own endpoint.
    let err = host
        .connect_peer(Arc::clone(&transport), handle.addr())
        .expect_err("self-link must be refused");
    assert!(
        err.to_string().contains("itself"),
        "unexpected self-link error: {err}"
    );

    // An edge that adopted the host's fleet and serves its own endpoint
    // refuses to relay an Invoke for a host-origin (proxied) service.
    let (mut edge, _) = edge_on(&transport, handle.addr());
    let edge_handle = edge
        .serve(Arc::clone(&transport), "inproc:dist-loop-edge")
        .expect("edge serves");
    host.tick();
    edge.tick();
    let proxied = edge
        .directory()
        .references()
        .into_iter()
        .find(|r| edge.directory().hosted_by(r).is_some())
        .expect("edge adopted the host's fleet");

    let mut conn = transport
        .connect(edge_handle.addr())
        .expect("raw client connects");
    conn.send(&Frame::Hello {
        node: "prober".into(),
    })
    .expect("hello sent");
    match conn.recv().expect("hello answered") {
        Frame::Welcome { node } => assert_eq!(node, "edge"),
        other => panic!("unexpected handshake reply: {other:?}"),
    }
    conn.send(&Frame::Invoke {
        service: proxied.clone(),
        prototype: "getTemperature".into(),
        input: Tuple::new(Vec::new()),
        at: 1,
    })
    .expect("invoke sent");
    match conn.recv().expect("invoke answered") {
        Frame::InvokeErr { error } => {
            let rendered = error.to_string();
            assert!(
                rendered.contains(&proxied.to_string()),
                "relay refusal must name the proxied service: {rendered}"
            );
        }
        other => panic!("proxied invoke must error, got {other:?}"),
    }
}

/// A served endpoint must survive hostile bytes on a real socket: junk
/// that is not a frame gets the connection dropped with a typed error
/// server-side, and well-formed clients keep working afterwards.
#[test]
#[cfg(unix)]
fn served_endpoint_survives_hostile_bytes() {
    use std::io::{Read, Write};

    let transport: Arc<dyn Transport> = Arc::new(SocketTransport::new());
    let (mut host, handle) = host_on(&transport, &fresh_uds_addr());
    // two ticks: bus announcements carry one tick of latency, so the
    // served listing is only non-empty from instant 1 on
    host.tick();
    host.tick();

    let path = handle
        .addr()
        .strip_prefix("uds:")
        .expect("uds address")
        .to_string();

    // Not a frame at all.
    let mut s = std::os::unix::net::UnixStream::connect(&path).expect("connects");
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("writes junk");
    let mut buf = [0u8; 16];
    // server closes without a reply frame; a clean EOF (Ok(0)) or reset
    // both count as "rejected"
    let n = s.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "junk must not elicit a reply");
    drop(s);

    // A declared length far beyond MAX_FRAME_LEN.
    let mut s = std::os::unix::net::UnixStream::connect(&path).expect("connects");
    let mut evil = Vec::from(*b"SRNF");
    evil.extend_from_slice(&u32::MAX.to_le_bytes());
    s.write_all(&evil).expect("writes oversized header");
    let n = s.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "oversized frame must not elicit a reply");
    drop(s);

    // The endpoint still serves well-formed clients.
    let edge_dir = Arc::new(NodeDirectory::new("late-edge"));
    let node = edge_dir
        .connect_peer(Arc::clone(&transport), handle.addr())
        .expect("well-formed client still connects");
    assert_eq!(node, "host");
    edge_dir.poll_peers(Instant(1));
    assert!(
        !edge_dir.is_empty(),
        "listing still served after hostile bytes"
    );
}

/// Metadata the host sets *after* the edge has polled the join reaches
/// the edge on its next poll: the `set` is in the host's log, the poll
/// answers it with the service's current advertisement, and the edge's
/// discovery relation re-evaluates the re-adopted proxy.
fn metadata_set_after_the_join_reaches_the_edge(transport: Arc<dyn Transport>, addr: &str) {
    use serena::core::service::fixtures::temperature_sensor;
    use serena::core::tuple;
    use serena::core::value::Value;

    let host = Pems::builder().node_id("host").build();
    host.directory().register("moves", temperature_sensor(1));
    host.directory()
        .set("moves", "location", Value::str("office"));
    host.directory().register("late", temperature_sensor(2));
    let handle = host.serve(Arc::clone(&transport), addr).expect("serves");

    let mut edge = Pems::builder().node_id("edge").build();
    edge.run_program(
        "PROTOTYPE getTemperature( ) : ( temperature REAL );
         EXTENDED RELATION sensors (
           sensor SERVICE, location STRING, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getTemperature[sensor] );
         REGISTER QUERY fleet AS sensors;",
    )
    .expect("edge catalog installs");
    edge.register_discovery("sensors", "getTemperature", "sensor")
        .expect("discovery registers");
    edge.connect_peer(transport, handle.addr()).expect("links");
    let fleet = |edge: &Pems| {
        let held = edge.processor().current_relation("fleet");
        held.expect("fleet is registered").into_tuples()
    };

    // the edge has polled both joins; `late` is not describable yet
    edge.tick();
    edge.tick();
    assert_eq!(
        fleet(&edge),
        vec![tuple![Value::service("moves"), "office"]]
    );

    host.directory()
        .set("moves", "location", Value::str("roof"));
    host.directory()
        .set("late", "location", Value::str("attic"));
    edge.tick();
    assert_eq!(
        fleet(&edge),
        vec![
            tuple![Value::service("late"), "attic"],
            tuple![Value::service("moves"), "roof"],
        ]
    );
    assert_eq!(
        edge.directory().get("moves", "location"),
        Some(Value::str("roof"))
    );
}

#[test]
fn metadata_set_after_the_join_is_relayed_in_proc() {
    let transport = Arc::new(InProcTransport::new());
    metadata_set_after_the_join_reaches_the_edge(transport, "inproc:dist-late-metadata");
}

#[test]
#[cfg(unix)]
fn metadata_set_after_the_join_is_relayed_over_uds() {
    let transport = Arc::new(SocketTransport::new());
    metadata_set_after_the_join_reaches_the_edge(transport, &fresh_uds_addr());
}
