//! Massive-scale environment generation and the scale-benchmark driver
//! (the §7 "benchmark for pervasive environments"; DESIGN § 4, *Scale
//! benchmark & environment generator*).
//!
//! Thin orchestration over the public [`EnvSpec`] / [`WorkloadSpec`]
//! builders from `serena-pems`: [`ScaleConfig`] describes a run (device
//! counts, query count, instants — overridable via `SERENA_SCALE_*`
//! environment variables for the CI smoke), [`run_scale`] deploys the
//! fleet, registers the workload, ticks the runtime and reports the
//! objective indicators the paper asks for — tuples/sec, end-to-end p99
//! tick latency (merged from the per-query telemetry histograms), and
//! memory per query (from the snapshot codec).
//!
//! The generated environment is a pure function of the seed: two
//! [`run_scale`] calls with the same [`ScaleConfig`] produce identical
//! tuple counts, query outputs and snapshot bytes (wall-clock fields
//! aside) — see `tests/envgen_determinism.rs`.

use std::time::Duration;

use serena_pems::envspec::{ArrivalTrace, EnvSpec, QueryTemplate, WorkloadSpec};
use serena_pems::pems::Pems;
use serena_pems::scheduler::SchedulerConfig;
use serena_services::bus::BusConfig;
use serena_services::fleet::{FailureProfile, LatencyProfile};

/// Parameters of one scale-benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Deterministic seed for the whole environment.
    pub seed: u64,
    /// Temperature sensors in the fleet.
    pub devices: usize,
    /// Cameras in the fleet.
    pub cameras: usize,
    /// Messengers in the fleet (indexed, kinds round-robin).
    pub messengers: usize,
    /// Concurrent continuous queries.
    pub queries: usize,
    /// Logical instants to run.
    pub ticks: u64,
    /// Mean tuple arrivals per instant on the `temperatures` stream.
    pub mean_arrivals: usize,
    /// Scheduler worker-pool width for the multi-query tick rounds
    /// (`0` keeps the builder's default, one worker per available core;
    /// the runtime reads no environment variable, only `pems_shell` reads
    /// `SERENA_SCHED_WORKERS`).
    pub workers: usize,
}

impl Default for ScaleConfig {
    /// The headline configuration: ≥ 10⁴ devices, ≥ 100 concurrent
    /// queries (the ISSUE's acceptance floor), no environment variables
    /// required.
    fn default() -> Self {
        ScaleConfig {
            seed: 42,
            devices: 10_000,
            cameras: 200,
            messengers: 30,
            queries: 120,
            ticks: 20,
            mean_arrivals: 256,
            workers: 0,
        }
    }
}

impl ScaleConfig {
    /// The default configuration with `SERENA_SCALE_{DEVICES, CAMERAS,
    /// MESSENGERS, QUERIES, TICKS, ARRIVALS}` overrides applied — how the
    /// CI smoke shrinks the run to 2·10³ devices.
    pub fn from_env() -> Self {
        fn read<T: std::str::FromStr>(var: &str, default: T) -> T {
            std::env::var(var)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        let d = ScaleConfig::default();
        ScaleConfig {
            devices: read("SERENA_SCALE_DEVICES", d.devices),
            cameras: read("SERENA_SCALE_CAMERAS", d.cameras),
            messengers: read("SERENA_SCALE_MESSENGERS", d.messengers),
            queries: read("SERENA_SCALE_QUERIES", d.queries),
            ticks: read("SERENA_SCALE_TICKS", d.ticks),
            mean_arrivals: read("SERENA_SCALE_ARRIVALS", d.mean_arrivals),
            ..d
        }
    }

    /// This run's configuration with a different scheduler width — the
    /// scaling-curve sweep in `benches/scale.rs`.
    pub fn with_workers(&self, workers: usize) -> Self {
        ScaleConfig { workers, ..*self }
    }

    /// The environment this configuration describes: a zipf-skewed fleet
    /// (failure head rate 20%, latency head 2 ms falling off quadratically)
    /// fed by a trace-driven arrival schedule.
    pub fn spec(&self) -> EnvSpec {
        EnvSpec::new(self.seed)
            .sensors(self.devices)
            .cameras(self.cameras)
            .messengers(serena_pems::envspec::MessengerFleet::Indexed(
                self.messengers,
            ))
            .failures(FailureProfile::new(0.2, 1.0))
            .latencies(LatencyProfile::new(Duration::from_millis(2), 2.0))
            .arrivals(
                ArrivalTrace::new(self.seed)
                    .mean_per_tick(self.mean_arrivals)
                    .activity_exponent(2.0),
            )
    }

    /// The query mix: mostly windowed stream queries over `temperatures`
    /// (hot-area thresholds, per-area watches, recent-location projections)
    /// plus a few inventory and live-sampling (βˢ) queries, scaled
    /// proportionally to [`Self::queries`].
    pub fn workload(&self) -> WorkloadSpec {
        let q = self.queries;
        let inventory = (q / 30).max(1);
        let sampled = (q / 20).max(1);
        let area = q * 30 / 100;
        let recent = q * 25 / 100;
        let hot = q.saturating_sub(area + recent + inventory + sampled).max(1);
        WorkloadSpec::new()
            .queries(
                QueryTemplate::HotAreas {
                    window: 4,
                    threshold: 30.0,
                },
                hot,
            )
            .queries(QueryTemplate::AreaWatch { window: 4 }, area)
            .queries(QueryTemplate::RecentReadings { window: 8 }, recent)
            .queries(QueryTemplate::SensorInventory, inventory)
            .queries(QueryTemplate::SampledTemperatures { every: 2 }, sampled)
    }

    /// Deploy the environment and register the workload — the shared setup
    /// of [`run_scale`] and the per-tick Criterion measurement.
    pub fn deploy(&self) -> (Pems, Vec<String>) {
        let spec = self.spec();
        let mut builder = Pems::builder().bus(BusConfig::instant());
        if self.workers > 0 {
            builder = builder.scheduler(SchedulerConfig::new(self.workers));
        }
        let mut pems = builder.build();
        spec.install_catalog(&mut pems).expect("scale spec deploys");
        spec.deploy_into(&pems);
        let names = self
            .workload()
            .register_into(&mut pems, &spec)
            .expect("scale workload registers");
        (pems, names)
    }
}

/// Objective indicators of one scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleOutcome {
    /// Devices deployed (sensors + cameras + messengers).
    pub devices: usize,
    /// Queries registered.
    pub queries: usize,
    /// Instants run.
    pub ticks: u64,
    /// Tuples ingested across all query subscriptions (trace arrivals ×
    /// stream subscribers + live βˢ invocations).
    pub tuples_in: u64,
    /// Result tuples emitted (inserts + deletes + stream batches).
    pub tuples_out: u64,
    /// Invocation errors survived (injected faults surfacing).
    pub errors: u64,
    /// Wall-clock nanoseconds for the tick loop.
    pub elapsed_ns: u128,
    /// Ingested tuples per wall-clock second — the headline throughput.
    pub tuples_per_sec: f64,
    /// 99th-percentile per-query tick latency in nanoseconds, merged from
    /// every `serena_query_tick_duration_ns` histogram.
    pub p99_tick_ns: u64,
    /// Total snapshot size after the run.
    pub mem_bytes: usize,
    /// Snapshot bytes per registered query.
    pub mem_per_query: usize,
    /// Threads per tick round the run executed on (0 = runtime default).
    pub workers: usize,
    /// Cross-query β invocations coalesced onto an identical in-flight or
    /// memoized call (`serena_beta_dedup_total`).
    pub beta_dedup: u64,
}

/// Run the scale benchmark: deploy, register, tick, measure.
pub fn run_scale(config: &ScaleConfig) -> ScaleOutcome {
    let (mut pems, names) = config.deploy();
    let spec = config.spec();
    let trace = *spec.arrival_trace().expect("scale spec is trace-driven");

    let start = std::time::Instant::now();
    let mut tuples_out = 0u64;
    let mut errors = 0u64;
    for _ in 0..config.ticks {
        for (_, report) in pems.tick() {
            tuples_out += (report.delta.inserts.len()
                + report.delta.deletes.len()
                + report.batch.len()) as u64;
            errors += report.errors.len() as u64;
        }
    }
    let elapsed = start.elapsed();

    // Ingest accounting: every stream subscriber consumed the full trace;
    // βˢ queries additionally invoked live services (counted in stats).
    let arrivals: u64 = (0..config.ticks)
        .map(|t| trace.count_at(serena_core::time::Instant(t)) as u64)
        .sum();
    let stream_subscribers = names
        .iter()
        .filter(|n| n.starts_with("hot") || n.starts_with("area") || n.starts_with("recent"))
        .count() as u64;
    let invocations: u64 = names
        .iter()
        .filter_map(|n| pems.processor().stats(n))
        .map(|s| s.invocations)
        .sum();
    let tuples_in = arrivals * stream_subscribers + invocations;

    let p99_tick_ns = merged_p99_tick_ns(&pems, &names);
    let mem_bytes = pems.snapshot_bytes().len();
    let (beta_dedup, _misses) = pems.dedup_stats();

    ScaleOutcome {
        devices: config.devices + config.cameras + config.messengers,
        queries: names.len(),
        ticks: config.ticks,
        tuples_in,
        tuples_out,
        errors,
        elapsed_ns: elapsed.as_nanos(),
        tuples_per_sec: tuples_in as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        p99_tick_ns,
        mem_bytes,
        mem_per_query: mem_bytes / names.len().max(1),
        workers: config.workers,
        beta_dedup,
    }
}

/// End-to-end p99 tick latency across *all* queries: per-query
/// `serena_query_tick_duration_ns` histograms merged bucket-wise, then the
/// 99th-percentile bucket bound of the merged distribution.
pub fn merged_p99_tick_ns(pems: &Pems, names: &[String]) -> u64 {
    let registry = pems.metrics_registry();
    let mut merged: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for name in names {
        let h = registry.histogram("serena_query_tick_duration_ns", &[("query", name)]);
        let mut prev = 0u64;
        for (bound, cum) in h.cumulative_buckets() {
            *merged.entry(bound).or_insert(0) += cum - prev;
            prev = cum;
        }
    }
    let total: u64 = merged.values().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * 0.99).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (bound, count) in &merged {
        seen += count;
        if seen >= rank {
            return *bound;
        }
    }
    *merged.keys().next_back().unwrap_or(&0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleConfig {
        ScaleConfig {
            seed: 7,
            devices: 60,
            cameras: 6,
            messengers: 3,
            queries: 12,
            ticks: 6,
            mean_arrivals: 16,
            workers: 2,
        }
    }

    #[test]
    fn workload_scales_to_the_requested_query_count() {
        assert_eq!(ScaleConfig::default().workload().total(), 120);
        assert_eq!(tiny().workload().total(), 12);
        let sixteen = ScaleConfig {
            queries: 16,
            ..tiny()
        };
        assert_eq!(sixteen.workload().total(), 16);
    }

    #[test]
    fn run_scale_reports_nonzero_indicators() {
        let outcome = run_scale(&tiny());
        assert_eq!(outcome.queries, 12);
        assert_eq!(outcome.ticks, 6);
        assert!(outcome.tuples_in > 0, "no tuples ingested");
        assert!(outcome.tuples_out > 0, "no tuples emitted");
        assert!(outcome.p99_tick_ns > 0, "no tick latency recorded");
        assert!(outcome.mem_per_query > 0, "no snapshot payload");
        assert!(outcome.tuples_per_sec > 0.0);
    }

    #[test]
    fn scale_runs_are_deterministic_wall_clock_aside() {
        let a = run_scale(&tiny());
        let b = run_scale(&tiny());
        assert_eq!(a.tuples_in, b.tuples_in);
        assert_eq!(a.tuples_out, b.tuples_out);
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.mem_bytes, b.mem_bytes);
        assert_eq!(a.beta_dedup, b.beta_dedup);
    }

    #[test]
    fn overlapping_sampled_queries_coalesce_invocations() {
        // 40 queries ⇒ two `sampled` instances issuing the identical
        // getTemperature fan-out at the same instants — the second one
        // must ride the first one's calls.
        let config = ScaleConfig {
            queries: 40,
            ..tiny()
        };
        let outcome = run_scale(&config);
        assert!(
            outcome.beta_dedup > 0,
            "no cross-query dedup on an overlapping workload: {outcome:?}"
        );
    }

    #[test]
    fn worker_counts_do_not_change_scale_indicators() {
        let serial = run_scale(&tiny().with_workers(1));
        let wide = run_scale(&tiny().with_workers(8));
        assert_eq!(serial.tuples_in, wide.tuples_in);
        assert_eq!(serial.tuples_out, wide.tuples_out);
        assert_eq!(serial.errors, wide.errors);
        assert_eq!(serial.mem_bytes, wide.mem_bytes);
    }
}
