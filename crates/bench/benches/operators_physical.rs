//! E12 — physical-plan execution: compile-once vs recompile-per-call; E26 —
//! one σπ statement through
//! `Pems::run_sql`, straight after another read and straight after a
//! one-row write; E27 — the benchmark's two-table join statement; E28 —
//! its `GROUP BY` statement.
//!
//! ```sh
//! cargo bench -p serena-bench --bench operators_physical
//! ```
//!
//! Besides the usual printed report, this harness writes every measurement
//! to `target/physical.json`.

use serena_bench::criterion_group;
use serena_bench::harness::{take_records, write_report, BenchmarkId, Criterion, Json, Throughput};
use serena_bench::workload;

use serena_core::exec::ExecContext;
use serena_core::formula::Formula;
use serena_core::physical::PhysicalPlan;
use serena_core::plan::Plan;
use serena_core::schema::{examples as schemas, XSchema};
use serena_core::time::Instant;
use serena_core::tuple;
use serena_core::tuple::Tuple;
use serena_core::value::{DataType, Value};
use serena_pems::Pems;

/// A service-free pipeline where per-call overhead is pure plan work:
/// σ → π over the scaled sensors table.
fn passive_plan() -> Plan {
    Plan::relation("sensors")
        .select(Formula::eq_const("location", "office"))
        .project(["location"])
}

/// Compiling once and re-executing vs the convenience wrapper that
/// recompiles the logical plan on every call.
fn bench_compile_once_vs_recompile(c: &mut Criterion) {
    let mut group = c.benchmark_group("physical_compile");
    for n in [100usize, 1_000, 10_000] {
        let env = workload::scaled_environment(n, 0, 0);
        let reg = workload::scaled_registry(0, 0);
        let plan = passive_plan();
        let ctx = ExecContext::new(&env, &reg, Instant(1));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("compile_once", n), &plan, |b, plan| {
            let physical = PhysicalPlan::compile(plan, &env).unwrap();
            b.iter(|| physical.execute(&ctx).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("recompile_each", n), &plan, |b, plan| {
            b.iter(|| ctx.execute(plan).unwrap())
        });
    }
    group.finish();
}

/// A statement after a one-row write pays for one row: the same σπ over a
/// 1 000-row table, with nothing written since the last statement and with
/// one row inserted or deleted (in turn, so the table keeps its size) before
/// each. The table's relation is shared between the reads and patched in
/// place by the writes; re-sorting the table per statement, or dropping the
/// relation on a write, would show as `after_write` a multiple of
/// `after_read`. Beside them, `join_selective`: a `sensors ⋈ rooms`
/// statement whose conjuncts keep one area and one floor.
fn bench_one_shot_select(c: &mut Criterion) {
    const ROWS: usize = 1_000;
    const SELECT: &str = "SELECT name, address FROM contacts WHERE name = 'contact500'";
    let mut group = c.benchmark_group("one_shot_select");
    let mut pems = Pems::default();
    let contacts = pems
        .tables()
        .define_table("contacts", schemas::contacts_schema())
        .unwrap();
    let rows = workload::contacts_relation(ROWS + 1).into_tuples();
    let (extra, rows) = rows.split_last().unwrap();
    rows.iter().for_each(|t| contacts.insert(t.clone()));
    group.bench_function("after_read", |b| {
        b.iter(|| pems.run_sql(None, SELECT).unwrap())
    });
    let mut present = false;
    group.bench_function("after_write", |b| {
        b.iter(|| {
            if present {
                contacts.delete(extra.clone());
            } else {
                contacts.insert(extra.clone());
            }
            present = !present;
            pems.run_sql(None, SELECT).unwrap()
        })
    });
    // E27 — the perf benchmark's join statement at half its size: 1 000
    // sensors over 32 areas, `rooms` with a row per (area, floor). Each
    // conjunct filters the table that binds it before `⋈` pairs them, so the
    // statement hashes ≈ 31 + 1 rows and reads 55–85 µs; joined first it
    // paired 8 000 and read 4–7 ms.
    const AREAS: usize = 32;
    let sensors = pems
        .tables()
        .define_table("sensors", schemas::sensors_schema())
        .unwrap();
    for i in 0..ROWS {
        let area = format!("area{}", i % AREAS);
        sensors.insert(Tuple::new(vec![
            Value::service(format!("s{i}")),
            Value::str(area),
        ]));
    }
    let rooms_schema = XSchema::builder()
        .real("location", DataType::Str)
        .real("floor", DataType::Int)
        .real("owner", DataType::Str)
        .build()
        .unwrap();
    let rooms = pems.tables().define_table("rooms", rooms_schema).unwrap();
    for i in 0..256 {
        let (area, floor) = (i % AREAS, (i / AREAS) as i64);
        rooms.insert(tuple![format!("area{area}"), floor, format!("owner{i}")]);
    }
    group.bench_function("join_selective", |b| {
        b.iter(|| {
            let sql = "SELECT sensor, owner FROM sensors, rooms \
                       WHERE location = 'area7' AND floor = 3";
            pems.run_sql(None, sql).unwrap()
        })
    });
    // E28 — the benchmark's `GROUP BY` statement at half its size: γ over
    // the 1 000 sensors into 32 groups, each found by a key that borrows the
    // row: 60–100 µs; a key tuple built per row read 180–210 µs.
    group.bench_function("group_by", |b| {
        b.iter(|| {
            let sql = "SELECT location, count(sensor) AS n FROM sensors GROUP BY location";
            pems.run_sql(None, sql).unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compile_once_vs_recompile,
    bench_one_shot_select
);

fn main() {
    benches();
    let report = vec![("results".to_string(), Json::records(&take_records()))];
    write_report("physical", &Json::Obj(report));
}
