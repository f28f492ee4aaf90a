//! Massive-scale benchmark (DESIGN § 4, *Scale benchmark & environment
//! generator*; §7's "benchmark for pervasive environments"): a 10⁴-device zipf-skewed fleet, trace-driven arrivals,
//! and 120 concurrent continuous queries, measured end to end.
//!
//! ```sh
//! cargo bench -p serena-bench --bench scale
//! ```
//!
//! Writes `target/scale.json` with the objective indicators: tuples/sec, merged p99
//! tick latency and memory per query, plus a `scaling` curve — the same
//! workload re-run at each scheduler width in `SERENA_SCALE_WORKER_COUNTS`
//! (default `1,2,4,8`), gated so the widest pool is at least as fast as the
//! single-worker run and (on overlapping workloads) cross-query β dedup
//! actually fired.
//! Scale down for smokes with `SERENA_SCALE_DEVICES`,
//! `SERENA_SCALE_QUERIES`, `SERENA_SCALE_TICKS` … (see
//! [`serena_bench::envgen::ScaleConfig::from_env`]).

use serena_bench::criterion_group;
use serena_bench::envgen::{run_scale, ScaleConfig, ScaleOutcome};
use serena_bench::harness::{take_records, write_report, BenchmarkId, Criterion, Json};

fn bench_scale(c: &mut Criterion) {
    let config = ScaleConfig::from_env();
    let mut group = c.benchmark_group("scale");

    // Steady-state tick cost of the full environment under load.
    let (mut pems, _names) = config.deploy();
    pems.run_ticks(4); // fill windows, warm β caches, settle discovery
    group.bench_with_input(
        BenchmarkId::new("tick", format!("{}dev-{}q", config.devices, config.queries)),
        &(),
        |b, ()| {
            b.iter(|| pems.tick());
        },
    );
    group.finish();
}

criterion_group!(benches, bench_scale);

/// Scheduler widths for the scaling curve: `SERENA_SCALE_WORKER_COUNTS`
/// (comma-separated), default `1,2,4,8` — the CI smoke uses `1,4`.
fn worker_counts() -> Vec<usize> {
    std::env::var("SERENA_SCALE_WORKER_COUNTS")
        .unwrap_or_else(|_| "1,2,4,8".to_string())
        .split(',')
        .filter_map(|w| w.trim().parse().ok())
        .filter(|&w| w > 0)
        .collect()
}

fn main() {
    let config = ScaleConfig::from_env();
    println!(
        "scale run: {} sensors + {} cameras + {} messengers, {} queries, {} ticks",
        config.devices, config.cameras, config.messengers, config.queries, config.ticks
    );

    benches();
    let records = take_records();

    // The scaling curve: the identical workload at each scheduler width.
    let counts = worker_counts();
    let mut curve: Vec<ScaleOutcome> = Vec::new();
    for &workers in &counts {
        let outcome = run_scale(&config.with_workers(workers));
        println!(
            "  {workers} worker(s): {:.0} tuples/s, p99 tick {:.3} ms, \
             {} β calls deduped",
            outcome.tuples_per_sec,
            outcome.p99_tick_ns as f64 / 1e6,
            outcome.beta_dedup,
        );
        curve.push(outcome);
    }
    // Headline = the best point on the curve (the widest pool on real
    // multi-core hardware; the single worker on a one-core host).
    let outcome = curve
        .iter()
        .max_by(|a, b| a.tuples_per_sec.total_cmp(&b.tuples_per_sec))
        .expect("at least one worker count")
        .clone();
    println!(
        "{} devices / {} queries over {} ticks: {:.0} tuples/s in \
         ({} ingested, {} emitted, {} errors survived), p99 tick {:.3} ms, \
         {} B snapshot ({} B/query)",
        outcome.devices,
        outcome.queries,
        outcome.ticks,
        outcome.tuples_per_sec,
        outcome.tuples_in,
        outcome.tuples_out,
        outcome.errors,
        outcome.p99_tick_ns as f64 / 1e6,
        outcome.mem_bytes,
        outcome.mem_per_query,
    );

    // Sanity gates: an empty run must fail loudly, not write plausible JSON.
    if outcome.tuples_in == 0 || outcome.tuples_out == 0 || outcome.p99_tick_ns == 0 {
        eprintln!("scale run produced no work: {outcome:?}");
        std::process::exit(1);
    }

    // Scaling gate: the widest pool must not be slower than one worker.
    // Only meaningful where the host can actually run workers side by
    // side — on a single-core machine extra workers just interleave the
    // same CPU-bound ticks and the curve is legitimately flat-to-negative.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let single = curve.iter().find(|o| o.workers == 1);
    let widest = curve.iter().max_by_key(|o| o.workers);
    if cores < 2 {
        println!("single-core host: scaling gate skipped (curve still recorded)");
    } else if let (Some(single), Some(widest)) = (single, widest) {
        if widest.workers > 1 && widest.tuples_per_sec < single.tuples_per_sec {
            eprintln!(
                "scaling regression: {} workers ran at {:.0} tuples/s, \
                 below the single-worker {:.0}",
                widest.workers, widest.tuples_per_sec, single.tuples_per_sec
            );
            std::process::exit(1);
        }
    }

    // Dedup gate: with ≥ 2 overlapping `sampled` queries the cross-query
    // memo must have fired somewhere along the curve.
    let overlapping = config.queries / 20 >= 2;
    if overlapping && curve.iter().all(|o| o.beta_dedup == 0) {
        eprintln!("overlapping workload saw zero cross-query β dedup");
        std::process::exit(1);
    }

    let scaling = curve.iter().map(|o| {
        Json::obj([
            ("workers", Json::Num(o.workers as f64)),
            ("tuples_per_sec", Json::Num(o.tuples_per_sec)),
            ("p99_tick_ns", Json::Num(o.p99_tick_ns as f64)),
            ("elapsed_ns", Json::Num(o.elapsed_ns as f64)),
            ("beta_dedup", Json::Num(o.beta_dedup as f64)),
        ])
    });
    let report = Json::obj([
        ("results", Json::records(&records)),
        ("devices", Json::Num(outcome.devices as f64)),
        ("queries", Json::Num(outcome.queries as f64)),
        ("ticks", Json::Num(outcome.ticks as f64)),
        ("tuples_per_sec", Json::Num(outcome.tuples_per_sec)),
        ("tuples_in", Json::Num(outcome.tuples_in as f64)),
        ("tuples_out", Json::Num(outcome.tuples_out as f64)),
        ("errors", Json::Num(outcome.errors as f64)),
        ("elapsed_ns", Json::Num(outcome.elapsed_ns as f64)),
        ("p99_tick_ns", Json::Num(outcome.p99_tick_ns as f64)),
        ("mem_bytes", Json::Num(outcome.mem_bytes as f64)),
        (
            "mem_per_query_bytes",
            Json::Num(outcome.mem_per_query as f64),
        ),
        ("scaling", Json::Arr(scaling.collect())),
    ]);
    write_report("scale", &report);
}
