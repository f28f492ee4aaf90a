//! E10 (criterion half) — continuous-engine tick latency: windowed
//! selection, incremental join, N queries over one shared push stream, N
//! queries sampling one shared fleet, and the full surveillance deployment.
//!
//! ```sh
//! cargo bench -p serena-bench --bench continuous
//! ```

use std::sync::Arc;

use serena_bench::harness::{take_records, BenchmarkId, Criterion, Throughput};
use serena_bench::{criterion_group, criterion_main};

use serena_core::formula::Formula;
use serena_core::metrics::NoopMetrics;
use serena_core::physical::ExecOptions;
use serena_core::schema::XSchema;
use serena_core::service::fixtures::example_registry;
use serena_core::telemetry::FlightRecorder;
use serena_core::tuple::Tuple;
use serena_core::value::{DataType, Value};
use serena_pems::envspec::{EnvSpec, QueryTemplate, WorkloadSpec};
use serena_pems::processor::QueryProcessor;
use serena_pems::scenario::{deploy_surveillance, SurveillanceConfig};
use serena_pems::table_manager::ExtendedTableManager;
use serena_pems::{Pems, SchedulerConfig};
use serena_stream::plan::StreamPlan;
use serena_stream::{ContinuousQuery, SourceSet, StreamHub};

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
            let temps = StreamHub::new();
            let mut sources = SourceSet::new();
            sources.add_stream("temps", schema, temps.clone());
            let plan = StreamPlan::source("temps")
                .window(4)
                .select(Formula::gt_const("temperature", 30.0));
            let mut q = ContinuousQuery::compile(&plan, &mut sources).unwrap();
            let reg = example_registry();
            b.iter(|| {
                let at = q.next_instant().ticks() as usize;
                for i in 0..rate {
                    temps.push(Tuple::new(vec![
                        Value::str(format!("area{}", i % 7)),
                        Value::Real(15.0 + ((at + i) % 20) as f64),
                    ]));
                }
                q.tick_with(&reg, &NoopMetrics)
            });
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
                let left = StreamHub::new();
                sources.add_stream("l", left_schema, left.clone());
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
                b.iter(|| {
                    let at = q.next_instant().ticks() as i64;
                    for i in 0..10 {
                        left.push(Tuple::new(vec![
                            Value::Int((at + i) % right_size as i64),
                            Value::Real(i as f64),
                        ]));
                    }
                    q.tick_with(&reg, &NoopMetrics)
                });
            },
        );
    }
    group.finish();
}

/// Print what one element cost in each `<group>N` record just taken: a tick
/// of N queries is N × `per_query` elements.
fn report_per_element(group: &str, per_query: usize, element: &str) {
    for record in take_records() {
        let Some(queries) = record.label.strip_prefix(group) else {
            continue;
        };
        let elements = queries.parse::<usize>().unwrap() * per_query;
        let ns = record.mean_ns as f64 / elements as f64;
        println!("{:<44} {ns:>9.1} ns per {element}", record.label);
    }
}

/// N × `σ_{temperature>θᵢ}(W[4](readings))` over one push stream, 256 tuples
/// an instant, ticked serially: the instant's batch is sealed and bagged
/// once whatever N is, so what one more query costs is its own σ over the
/// two shared bags. Temperatures and thresholds are `perf`'s `fanout`'s (a
/// 1/8 °C grid over 15–33 °C, θ from 28 to 31.5: a sixth of the readings
/// pass). Reported per tuple-query (a tick is N × 256 of them).
fn bench_shared_stream_tick(c: &mut Criterion) {
    const PER_INSTANT: usize = 256;
    let mut group = c.benchmark_group("shared_stream_tick");
    for queries in [1usize, 16, 128] {
        group.throughput(Throughput::Elements((queries * PER_INSTANT) as u64));
        let id = BenchmarkId::from_parameter(queries);
        group.bench_with_input(id, &queries, |b, &queries| {
            let schema = XSchema::builder()
                .real("location", DataType::Str)
                .real("temperature", DataType::Real)
                .build()
                .unwrap();
            let tables = ExtendedTableManager::new();
            let hub = tables.define_push_stream("readings", schema).unwrap();
            let recorder = Arc::new(FlightRecorder::default());
            recorder.arm(false);
            let mut processor =
                QueryProcessor::new(Arc::default(), recorder, SchedulerConfig::new(1));
            for i in 0..queries {
                let theta = 28.0 + (i % 8) as f64 * 0.5;
                let plan = StreamPlan::source("readings")
                    .window(4)
                    .select(Formula::gt_const("temperature", theta));
                let mut sources = tables.source_set_for(&plan);
                processor
                    .register(
                        format!("q{i:03}"),
                        &plan,
                        &mut sources,
                        ExecOptions::default(),
                    )
                    .unwrap();
            }
            // eight instants of arrivals, materialised before timing
            let arrivals: Vec<Vec<Tuple>> = (0..8usize)
                .map(|at| {
                    (0..PER_INSTANT)
                        .map(|i| {
                            Tuple::new(vec![
                                Value::str(format!("area{}", i % 64)),
                                Value::Real(15.0 + ((at * 31 + i * 7) % 145) as f64 * 0.125),
                            ])
                        })
                        .collect()
                })
                .collect();
            let reg = example_registry();
            let mut at = 0usize;
            b.iter(|| {
                for t in &arrivals[at % arrivals.len()] {
                    hub.push(t.clone());
                }
                at += 1;
                processor.tick_all_with(&reg, &NoopMetrics)
            });
        });
    }
    group.finish();
    report_per_element("shared_stream_tick/", PER_INSTANT, "tuple-query");
}

/// N × `βˢ getTemperature[sensor] every 1` over one 2 000-sensor fleet,
/// through `Pems::tick` on one worker: every instant builds a fresh β stack,
/// the first query's 2 000 calls are physical and the other N − 1 queries'
/// are served from the instant's memo, so what one more identical query
/// costs is N's slope. Reported per logical call (a tick is N × 2 000).
fn bench_shared_beta_tick(c: &mut Criterion) {
    const SENSORS: usize = 2_000;
    let mut group = c.benchmark_group("shared_beta_tick");
    for queries in [1usize, 4, 16] {
        group.throughput(Throughput::Elements((queries * SENSORS) as u64));
        let id = BenchmarkId::from_parameter(queries);
        group.bench_with_input(id, &queries, |b, &queries| {
            let spec = EnvSpec::new(25).sensors(SENSORS);
            let mut pems = Pems::builder()
                .scheduler(SchedulerConfig::new(1))
                .dedup(true)
                .tracing(false)
                .build();
            spec.install_catalog(&mut pems).unwrap();
            spec.deploy_into(&pems);
            WorkloadSpec::new()
                .queries(QueryTemplate::SampledTemperatures { every: 1 }, queries)
                .register_into(&mut pems, &spec)
                .unwrap();
            pems.run_ticks(2); // discovery settles, every series exists
            b.iter(|| pems.tick());
            let (hits, misses) = pems.dedup_stats();
            assert_eq!(hits, misses * (queries as u64 - 1), "all but one coalesce");
        });
    }
    group.finish();
    report_per_element("shared_beta_tick/", SENSORS, "logical call");
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
    bench_shared_stream_tick,
    bench_shared_beta_tick,
    bench_surveillance_tick
);
criterion_main!(benches);
