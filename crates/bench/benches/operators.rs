//! E8 — operator micro-benchmarks: throughput of every Serena operator vs
//! relation size, on the scaled workload.
//!
//! ```sh
//! cargo bench -p serena-bench --bench operators
//! ```

use serena_bench::harness::{BenchmarkId, Criterion, Throughput};
use serena_bench::{criterion_group, criterion_main};

use serena_bench::workload;
use serena_core::attr::attr;
use serena_core::formula::Formula;
use serena_core::ops;
use serena_core::time::Instant;

const SIZES: [usize; 3] = [100, 1_000, 10_000];

fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("select");
    for n in SIZES {
        let rel = workload::sensors_relation(n);
        let f = Formula::eq_const("location", "office");
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &rel, |b, rel| {
            b.iter(|| ops::select(rel, &f).unwrap())
        });
    }
    group.finish();
}

fn bench_project(c: &mut Criterion) {
    let mut group = c.benchmark_group("project");
    for n in SIZES {
        let rel = workload::sensors_relation(n);
        let attrs = [attr("location")];
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &rel, |b, rel| {
            b.iter(|| ops::project(rel, &attrs).unwrap())
        });
    }
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("join");
    for n in [100usize, 1_000, 5_000] {
        // sensors ⋈ surveillance on `location`
        let sensors = workload::sensors_relation(n);
        let surveillance = serena_core::xrelation::XRelation::from_tuples(
            serena_core::schema::XSchema::builder()
                .real("location", serena_core::value::DataType::Str)
                .real("manager", serena_core::value::DataType::Str)
                .build()
                .unwrap(),
            workload::AREAS.iter().enumerate().map(|(i, a)| {
                serena_core::tuple::Tuple::new(vec![
                    serena_core::value::Value::str(*a),
                    serena_core::value::Value::str(format!("m{i}")),
                ])
            }),
        );
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &sensors, |b, sensors| {
            b.iter(|| ops::join(sensors, &surveillance).unwrap())
        });
    }
    group.finish();
}

fn bench_assign(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign");
    for n in SIZES {
        let rel = workload::contacts_relation(n);
        let src = ops::AssignSource::constant("Hello!");
        let target = attr("text");
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &rel, |b, rel| {
            b.iter(|| ops::assign(rel, &target, &src).unwrap())
        });
    }
    group.finish();
}

fn bench_invoke(c: &mut Criterion) {
    let mut group = c.benchmark_group("invoke");
    for n in [100usize, 1_000, 5_000] {
        let rel = workload::sensors_relation(n);
        let reg = workload::scaled_registry(n, 0);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &rel, |b, rel| {
            b.iter(|| {
                let mut actions = serena_core::action::ActionSet::new();
                ops::invoke(
                    rel,
                    "getTemperature",
                    "sensor",
                    &reg,
                    Instant(1),
                    &mut actions,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregate");
    for n in SIZES {
        // pre-invoked readings, grouped by location
        let rel = {
            let sensors = workload::sensors_relation(n);
            let reg = workload::scaled_registry(n, 0);
            let mut actions = serena_core::action::ActionSet::new();
            ops::invoke(
                &sensors,
                "getTemperature",
                "sensor",
                &reg,
                Instant(1),
                &mut actions,
            )
            .unwrap()
        };
        let group_attrs = [attr("location")];
        let aggs = [ops::AggSpec::new(ops::AggFun::Avg, "temperature")];
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &rel, |b, rel| {
            b.iter(|| ops::aggregate(rel, &group_attrs, &aggs).unwrap())
        });
    }
    group.finish();
}

/// Ablation: the compiled (coordinate-resolved) selection path vs
/// re-interpreting the formula with per-tuple name lookups — the design
/// choice DESIGN.md calls out for the hot path.
fn bench_formula_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("formula_compiled_vs_interpreted");
    let n = 10_000usize;
    let rel = workload::sensors_relation(n);
    let f = Formula::eq_const("location", "office").or(Formula::eq_const("location", "lab"));
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("compiled", |b| {
        let compiled = f.compile(rel.schema()).unwrap();
        b.iter(|| rel.iter().filter(|t| compiled.matches(t).unwrap()).count())
    });
    group.bench_function("interpreted", |b| {
        b.iter(|| {
            rel.iter()
                .filter(|t| f.eval(rel.schema(), t).unwrap())
                .count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_select,
    bench_project,
    bench_join,
    bench_assign,
    bench_invoke,
    bench_aggregate,
    bench_formula_ablation
);
criterion_main!(benches);
