//! Two-node smoke: a host PEMS serves a generated sensor fleet over the
//! transport selected by `SERENA_TRANSPORT` (default: in-proc; `socket`
//! for a Unix-domain socket), an edge PEMS joins it and runs a full
//! continuous workload for 20 ticks with per-tick checkpoint replication
//! back to the host, and every runtime counter is checked for
//! well-formedness at the end. This is what CI runs as its distributed
//! smoke test.
//!
//! ```sh
//! cargo run --release --example two_node
//! SERENA_TRANSPORT=socket cargo run --release --example two_node
//! ```

use std::sync::Arc;

use serena::pems::envspec::{ArrivalTrace, EnvSpec, QueryTemplate, WorkloadSpec};
use serena::pems::Pems;
use serena::services::fleet::FailureProfile;
use serena::services::transport::{self, Transport};

const TICKS: u64 = 20;

fn main() {
    let transport: Arc<dyn Transport> = transport::from_env();
    let addr = match transport.name() {
        "socket" => format!(
            "uds:{}",
            std::env::temp_dir()
                .join(format!("serena-two-node-{}.sock", std::process::id()))
                .display()
        ),
        _ => "inproc:two-node-host".to_string(),
    };

    let spec = EnvSpec::new(42)
        .sensors(32)
        .cameras(4)
        .failures(FailureProfile::new(0.2, 1.0))
        .arrivals(ArrivalTrace::new(42).mean_per_tick(12));
    let workload = WorkloadSpec::new()
        .queries(
            QueryTemplate::HotAreas {
                window: 3,
                threshold: 30.0,
            },
            2,
        )
        .queries(QueryTemplate::RecentReadings { window: 4 }, 1)
        .queries(QueryTemplate::SensorInventory, 1)
        .queries(QueryTemplate::SampledTemperatures { every: 1 }, 2);

    // The host owns the fleet and serves its directory.
    let mut host = Pems::builder().node_id("host").build();
    spec.install_catalog(&mut host).expect("host catalog");
    spec.deploy_into(&host);
    let handle = host
        .serve(Arc::clone(&transport), &addr)
        .expect("host serves");
    println!("host `{}` serving on {}", host.node_id(), handle.addr());

    // The edge runs the queries; every β call relays to the host, and
    // its state replicates back to the host after every tick.
    let mut edge = Pems::builder().node_id("edge").dedup(true).build();
    spec.install_catalog(&mut edge).expect("edge catalog");
    let names = workload
        .register_into(&mut edge, &spec)
        .expect("workload registers");
    let peer = edge
        .connect_peer(Arc::clone(&transport), handle.addr())
        .expect("edge links host");
    let standby = edge
        .replicate_to(Arc::clone(&transport), handle.addr())
        .expect("edge replicates");
    println!(
        "edge `{}` joined `{peer}` over {}, replicating to `{standby}`",
        edge.node_id(),
        transport.name()
    );

    let (mut reports, mut invocations, mut errors) = (0u64, 0u64, 0u64);
    for _ in 0..TICKS {
        host.tick();
        for (_, r) in edge.tick() {
            reports += 1;
            invocations += r.stats.total_invocations();
            errors += r.errors.len() as u64;
        }
    }

    // Liveness and membership are intact after 20 ticks.
    let peers = edge.peer_status();
    assert_eq!(peers.len(), 1, "one directory link to the host");
    assert!(peers.iter().any(|p| p.alive && p.services > 0));

    // The workload really ran, over the wire.
    assert_eq!(reports, TICKS * names.len() as u64);
    assert!(invocations > 0, "no β invocations relayed");
    assert!(errors > 0, "the 20% failure profile must surface faults");

    // The replicated checkpoint stream kept up: the host's latest copy
    // is the edge's final tick.
    let (tick, bytes) = handle.last_checkpoint().expect("replicated checkpoint");
    assert_eq!(tick, TICKS - 1);
    assert!(!bytes.is_empty());

    // Runtime counters are well-formed: replication matches ticks and
    // nothing failed; β health saw every attempt it reports.
    let metrics = edge.render_metrics();
    let counter = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    assert_eq!(counter("serena_replication_total"), TICKS);
    assert_eq!(counter("serena_replication_errors_total"), 0);
    let health: Vec<_> = edge.service_health();
    let attempts: u64 = health.iter().map(|h| h.attempts).sum();
    let failures: u64 = health.iter().map(|h| h.failures).sum();
    // with the dedup memo armed, physical attempts can undercut the
    // per-query logical invocation sum — but never vanish or invert
    assert!(attempts > 0, "health saw no β attempts");
    assert!(failures <= attempts, "failures exceed attempts");

    println!(
        "{TICKS} ticks over `{}`: {reports} reports, {invocations} β invocations, \
         {errors} surfaced faults, {attempts} attempts / {failures} failures in health, \
         checkpoint tick {tick} ({} bytes)",
        transport.name(),
        bytes.len()
    );
    println!("two-node smoke OK");
}
