//! E11 (criterion half) — discovery machinery: registry operations, bus
//! message throughput, and what a discovery relation costs to evaluate
//! from the whole directory (`discovery_refresh`, O(fleet)) against what it
//! costs to maintain from the directory's log (`discovery_apply`,
//! O(changes)).
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
use serena_services::discovery::{Applied, DiscoveryQuery};
use serena_stream::source::TableHandle;

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

fn join(dir: &NodeDirectory, i: usize) {
    dir.register(format!("s{i}"), fixtures::temperature_sensor(i as u64));
    dir.set(format!("s{i}"), "location", Value::str("office"));
}

/// A directory of `n` located sensors and the `sensors` relation over it.
fn sensor_fleet(n: usize) -> (NodeDirectory, DiscoveryQuery) {
    let dir = NodeDirectory::new("bench");
    (0..n).for_each(|i| join(&dir, i));
    let schema = serena_core::schema::examples::sensors_schema();
    let query = DiscoveryQuery::new("getTemperature", schema, "sensor").unwrap();
    (dir, query)
}

fn bench_discovery_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("discovery_refresh");
    for n in [10usize, 100, 1_000, 10_000] {
        let (dir, query) = sensor_fleet(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| query.refresh_in(&dir))
        });
    }
    group.finish();
}

/// One iteration: 1 % of the fleet leaves, as many fresh sensors join, and
/// the relation is brought up to date from the log. The churn itself is
/// inside the timing — like `apply`, it is proportional to the changes.
fn bench_discovery_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("discovery_apply");
    for n in [100usize, 1_000, 10_000] {
        let (dir, mut query) = sensor_fleet(n);
        let table = TableHandle::new(query.schema().clone());
        assert_eq!(query.apply(&dir, &table), Applied::Relisted);
        let churn = n / 100;
        let mut oldest = 0;
        group.throughput(Throughput::Elements(churn as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                for i in oldest..oldest + churn {
                    dir.deregister(format!("s{i}"));
                    join(&dir, i + n);
                }
                oldest += churn;
                // a leave and a join (with its `set`) per churned sensor
                assert_eq!(query.apply(&dir, &table), Applied::Reconciled(2 * churn));
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_registry_ops,
    bench_bus_throughput,
    bench_discovery_refresh,
    bench_discovery_apply
);
criterion_main!(benches);
