//! E11 (criterion half) — discovery machinery: registry operations, bus
//! message throughput, discovery-relation refresh cost.
//!
//! ```sh
//! cargo bench -p serena-bench --bench discovery
//! ```

use serena_bench::harness::{BenchmarkId, Criterion, Throughput};
use serena_bench::{criterion_group, criterion_main};

use serena_core::service::{fixtures, Invoker as _};
use serena_core::time::Instant;
use serena_core::value::Value;
use serena_services::bus::{BusConfig, DiscoveryBus, LocalErm};
use serena_services::directory::NodeDirectory;
use serena_services::discovery::DiscoveryQuery;

fn bench_registry_ops(c: &mut Criterion) {
    c.bench_function("registry_register_unregister", |b| {
        let reg = NodeDirectory::new("bench");
        let mut i = 0u64;
        b.iter(|| {
            let name = format!("s{i}");
            reg.register(name.clone(), fixtures::temperature_sensor(i));
            reg.deregister(name);
            i += 1;
        });
    });

    let mut group = c.benchmark_group("providers_of");
    for n in [10usize, 100, 1_000] {
        let reg = NodeDirectory::new("bench");
        for i in 0..n {
            reg.register(format!("s{i}"), fixtures::temperature_sensor(i as u64));
        }
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &reg, |b, reg| {
            b.iter(|| reg.providers_of("getTemperature"))
        });
    }
    group.finish();
}

fn bench_bus_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("bus_announce_drain");
    for n in [10usize, 100, 1_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let bus = DiscoveryBus::new(BusConfig::instant());
                let lerm = LocalErm::new("L", std::sync::Arc::clone(&bus));
                let core = NodeDirectory::new("bench");
                for i in 0..n {
                    lerm.register_service(
                        format!("s{i}"),
                        fixtures::temperature_sensor(i as u64),
                        Instant(0),
                    );
                }
                bus.deliver_due(Instant(0), &core)
            });
        });
    }
    group.finish();
}

fn bench_discovery_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("discovery_refresh");
    for n in [10usize, 100, 1_000] {
        let dir = NodeDirectory::new("bench");
        for i in 0..n {
            dir.register(format!("s{i}"), fixtures::temperature_sensor(i as u64));
            dir.set(format!("s{i}"), "location", Value::str("office"));
        }
        let query = DiscoveryQuery::new(
            "getTemperature",
            serena_core::schema::examples::sensors_schema(),
            "sensor",
        )
        .unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| query.refresh_in(&dir))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_registry_ops,
    bench_bus_throughput,
    bench_discovery_refresh
);
criterion_main!(benches);
