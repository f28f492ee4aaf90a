//! E10 (criterion half) — continuous-engine tick latency: windowed
//! selection, incremental join, and the full surveillance deployment.
//!
//! ```sh
//! cargo bench -p serena-bench --bench continuous
//! ```

use serena_bench::harness::{BenchmarkId, Criterion, Throughput};
use serena_bench::{criterion_group, criterion_main};

use serena_core::formula::Formula;
use serena_core::metrics::NoopMetrics;
use serena_core::schema::XSchema;
use serena_core::service::fixtures::example_registry;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::{DataType, Value};
use serena_pems::scenario::{deploy_surveillance, SurveillanceConfig};
use serena_stream::plan::StreamPlan;
use serena_stream::{ContinuousQuery, FnStream, SourceSet};

fn bench_windowed_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("windowed_select_tick");
    for rate in [10usize, 100, 1_000] {
        // `rate` tuples per tick through W[4] + σ
        group.throughput(Throughput::Elements(rate as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rate), &rate, |b, &rate| {
            let schema = XSchema::builder()
                .real("location", DataType::Str)
                .real("temperature", DataType::Real)
                .build()
                .unwrap();
            let mut sources = SourceSet::new();
            sources.add_stream(
                "temps",
                schema,
                Box::new(FnStream(move |at: Instant| {
                    (0..rate)
                        .map(|i| {
                            Tuple::new(vec![
                                Value::str(format!("area{}", i % 7)),
                                Value::Real(15.0 + ((at.ticks() as usize + i) % 20) as f64),
                            ])
                        })
                        .collect()
                })),
            );
            let plan = StreamPlan::source("temps")
                .window(4)
                .select(Formula::gt_const("temperature", 30.0));
            let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
            let reg = example_registry();
            b.iter(|| q.tick_with(&reg, &NoopMetrics));
        });
    }
    group.finish();
}

fn bench_incremental_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_join_tick");
    for right_size in [10usize, 100, 1_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(right_size),
            &right_size,
            |b, &right_size| {
                let left_schema = XSchema::builder()
                    .real("k", DataType::Int)
                    .real("v", DataType::Real)
                    .build()
                    .unwrap();
                let right_schema = XSchema::builder()
                    .real("k", DataType::Int)
                    .real("w", DataType::Str)
                    .build()
                    .unwrap();
                let mut sources = SourceSet::new();
                // streaming left side: 10 tuples per tick through W[2]
                sources.add_stream(
                    "l",
                    left_schema,
                    Box::new(FnStream(move |at: Instant| {
                        (0..10)
                            .map(|i| {
                                Tuple::new(vec![
                                    Value::Int(((at.ticks() as i64) + i) % right_size as i64),
                                    Value::Real(i as f64),
                                ])
                            })
                            .collect()
                    })),
                );
                let right = serena_stream::TableHandle::with_tuples(
                    right_schema,
                    (0..right_size).map(|i| {
                        Tuple::new(vec![Value::Int(i as i64), Value::str(format!("w{i}"))])
                    }),
                );
                sources.add_table("r", right);
                let plan = StreamPlan::source("l")
                    .window(2)
                    .join(StreamPlan::source("r"));
                let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
                let reg = example_registry();
                b.iter(|| q.tick_with(&reg, &NoopMetrics));
            },
        );
    }
    group.finish();
}

fn bench_surveillance_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("surveillance_tick");
    for sensors in [10usize, 50, 200] {
        group.bench_with_input(
            BenchmarkId::from_parameter(sensors),
            &sensors,
            |b, &sensors| {
                let config = SurveillanceConfig {
                    sensors,
                    cameras: 10,
                    contacts: 10,
                    threshold: 22.0, // some alerts fire
                    ..SurveillanceConfig::default()
                };
                let mut s = deploy_surveillance(&config).unwrap();
                s.pems.run_ticks(2); // discovery settles
                b.iter(|| s.pems.tick());
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_windowed_select,
    bench_incremental_join,
    bench_surveillance_tick
);
criterion_main!(benches);
