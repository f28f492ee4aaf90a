//! E9 (criterion half) — end-to-end latency of the Q2 family, naive vs
//! optimized, and the optimizer's own rewrite latency.
//!
//! ```sh
//! cargo bench -p serena-bench --bench optimizer
//! ```

use serena_bench::harness::{BenchmarkId, Criterion};
use serena_bench::{criterion_group, criterion_main};

use serena_bench::workload;
use serena_core::exec::ExecContext;
use serena_core::rewrite::optimize;
use serena_core::time::Instant;

fn bench_q2_family(c: &mut Criterion) {
    let mut group = c.benchmark_group("q2_naive_vs_optimized");
    for n in [10usize, 100, 1_000] {
        let env = workload::scaled_environment(0, n, 0);
        let reg = workload::scaled_registry(0, n);
        let naive = workload::q2_family(false, 5);
        let optimized = optimize(&naive, &env).plan;

        group.bench_with_input(BenchmarkId::new("naive", n), &naive, |b, plan| {
            b.iter(|| {
                ExecContext::new(&env, &reg, Instant(1))
                    .execute(plan)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("optimized", n), &optimized, |b, plan| {
            b.iter(|| {
                ExecContext::new(&env, &reg, Instant(1))
                    .execute(plan)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_optimize_latency(c: &mut Criterion) {
    let env = workload::scaled_environment(10, 10, 10);
    let plan = workload::q2_family(false, 5);
    c.bench_function("optimize_q2_prime", |b| b.iter(|| optimize(&plan, &env)));
    // a deeper plan: joins + renames + stacked selections
    let deep = serena_core::plan::Plan::relation("sensors")
        .join(serena_core::plan::Plan::relation("contacts").project(["name", "address"]))
        .rename("location", "place")
        .select(
            serena_core::formula::Formula::eq_const("place", "office")
                .and(serena_core::formula::Formula::ne_const("name", "contact0"))
                .and(serena_core::formula::Formula::eq_const("sensor", "s1")),
        )
        .invoke("getTemperature", "sensor")
        .select(serena_core::formula::Formula::gt_const("temperature", 20.0));
    c.bench_function("optimize_deep_plan", |b| b.iter(|| optimize(&deep, &env)));
}

criterion_group!(benches, bench_q2_family, bench_optimize_latency);
criterion_main!(benches);
