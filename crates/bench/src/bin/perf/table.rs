//! The metric table: every name the benchmark emits, with unit, direction,
//! bound and meaning. `BENCHMARK.json` is checked against it, `perf list`
//! prints it, and `perf compare` judges by it.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// How it is measured; for a layer metric, also what it should move.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every one is measured on every
/// workload, with tracing off; an operation is one instant (push + churn +
/// `Pems::tick()`) or one one-shot statement.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25, "build + DDL + fleet deploy + registration + warm-up operations; median of 15 set-ups spread over the run, each at reference speed by the kernel samples on either side of it"),
    e2e("op_p50_ms", "ms", Lower, 0.25, "median latency of one operation at reference speed (its time / how much slower than 600 us the reference kernel ran beside it), over the slices the hypervisor left alone"),
    e2e("ops_per_s", "1/s", Higher, 0.25, "operations per second of driver time (operations + scrapes + one-shot inventory ticks) at reference speed; median over the one-second slices the hypervisor left alone"),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25, "process user+system CPU per operation at reference speed; median over the top-up phase's one-second slices the hypervisor left alone"),
    e2e("peak_rss_mb", "MB", Lower, 0.1, "VmHWM at the end of the counted phase"),
];

/// Single layers; layer = module, the prefix names it. From the traced
/// loop of the selected workload (`loop`), from its side runs (`side`), or
/// from probes that are the same whatever the workload (`probe`). Each is
/// a session with a span log of its own; `loop+probe` and `side+probe`
/// take the workload's own session where it exercises the layer and the
/// probe session only where it does not — never a blend of the two.
pub const PER_LAYER: [MetricDef; 72] = [
    layer("pems.op_p50_raw_ms", "ms", Lower, "loop: median operation of the untraced reference loop as the clock read it, not brought to reference speed; against op_p50_ms it says how far the host was from that speed"),
    layer("pems.op_p90_ms", "ms", Lower, "loop: 90th percentile of the op spans (push + churn + tick, or one statement)"),
    layer("pems.op_p99_ms", "ms", Lower, "loop: 99th percentile of the op spans; below 1000 spans fewer than ten lie beyond it, so it reads as the slowest few"),
    layer("pems.tick_ms", "ms", Lower, "loop: mean of the pems.tick spans - the end-to-end figure itself, traced"),
    layer("pems.tick_p99_ms", "ms", Lower, "loop: 99th percentile of the pems.tick spans (same caveat as pems.op_p99_ms)"),
    layer("pems.tick_max_ms", "ms", Lower, "loop: slowest pems.tick span"),
    layer("pems.reports_per_tick", "count", Higher, "loop: reports returned per tick (exact)"),
    layer("pems.idle_tick_ms", "ms", Lower, "side: tick() on the workload's fleet with zero queries (bus, peer poll, discovery refresh, stack build); fixed floor of op_p50_ms on every tick workload"),
    layer("pems.build_ms", "ms", Lower, "loop: Pems::builder().build(); moves setup_s"),
    layer("pems.register_ms_per_query", "ms", Lower, "loop: register_query span / queries; moves setup_s, and pems.op_p90_ms on oneshot_sql (REGISTER)"),
    layer("pems.render_metrics_ms", "ms", Lower, "loop: one render_metrics() scrape; moves ops_per_s and cpu_ms_per_op on fanout, beta_sampling"),
    layer("pems.render_metrics_kb", "kB", Lower, "loop: size of the scrape"),
    layer("pems.overhead_1w_pct", "%", Lower, "side: (tick at 1 worker - stream.serial_tick_ms - pems.idle_tick_ms) / tick at 1 worker: the unexplained remainder, reported not hidden"),
    layer("telemetry.series", "count", Lower, "loop: sample lines in the scrape; per-query and per-service series move peak_rss_mb"),
    layer("telemetry.counter_inc_ns", "ns", Lower, "probe: MetricsRegistry counter inc; moves op_p50_ms on fanout (per-query series), beta_sampling (per-service series)"),
    layer("telemetry.histogram_record_ns", "ns", Lower, "probe: MetricsRegistry histogram record"),
    layer("span.armed_overhead_pct", "%", Lower, "probe: fanout ticks with set_tracing(true) against off, interleaved; the roadmap's < 5 % gate"),
    layer("tables.source_set_us", "us", Lower, "side: source_set_for per query of the workload; moves setup_s"),
    layer("tables.push_us_per_tuple", "us", Lower, "loop+probe: tables.push span / tuples pushed; moves op_p50_ms on fanout"),
    layer("tables.mutate_us", "us", Lower, "loop+probe: insert/delete span / rows; moves op_p50_ms on join_window, oneshot_sql"),
    layer("tables.snapshot_env_us", "us", Lower, "loop+probe: snapshot_environment(); dominates op_p50_ms and ops_per_s on oneshot_sql"),
    layer("hub.log_tuples", "count", Lower, "loop: tuples the readings hub retains at the end (append-only log); moves peak_rss_mb on tick workloads"),
    layer("stream.compile_us_per_query", "us", Lower, "side: ContinuousQuery::compile per query of the workload; moves setup_s"),
    layer("stream.serial_tick_ms", "ms", Lower, "side: every query of the workload compiled standalone and ticked serially over the bare registry with the same inputs; ideal tick is about serial / 2"),
    layer("stream.window_us_per_tuple", "us", Lower, "side+probe: standalone W[4](readings) / tuples in; moves op_p50_ms on fanout"),
    layer("stream.linear_us_per_tuple", "us", Lower, "side+probe: standalone sigma/pi window queries / tuples in; moves op_p50_ms on fanout"),
    layer("stream.recompute_us_per_state_tuple", "us", Lower, "side+probe: time in aggregate, join and set-operator queries / state tuples they hold; what delta-native operators must cut on join_window"),
    layer("stream.join_ms", "ms", Lower, "side+probe: mean tick of one standalone sigma(W) join rooms query; sets pems.op_p90_ms on join_window (the slowest job sets the tick)"),
    layer("stream.aggregate_ms", "ms", Lower, "side+probe: mean tick of one standalone group-by query"),
    layer("stream.setop_ms", "ms", Lower, "side+probe: mean tick of one standalone union/difference query"),
    layer("stream.state_tuples", "count", Lower, "side+probe: tuples a recompute query holds, mean per query tick (exact); moves snapshot.checkpoint_ms, peak_rss_mb"),
    layer("stream.delta_out_per_tick", "count", Lower, "side+probe: tuples a recompute query emits per tick (exact)"),
    layer("stream.sample_invoke_us_per_call", "us", Lower, "side+probe: standalone sampling query over the bare registry / calls; moves op_p50_ms on beta_sampling"),
    layer("sched.dispatch_us_per_job", "us", Lower, "probe: WorkerPool::scope with 120 empty jobs / jobs; moves op_p50_ms on fanout"),
    layer("sched.speedup_2w", "ratio", Higher, "side: median operation at 1 worker / at 2 workers, the same operations in alternating blocks; the issue expects > 1.5 on fanout, flat on beta_sampling and oneshot_sql"),
    layer("sched.steals_per_tick", "count", Lower, "loop: serena_sched_steals_total / ticks"),
    layer("sched.cpu_per_wall", "ratio", Higher, "side: process CPU / wall over untraced operations at 2 workers; cores kept busy"),
    layer("bench.host_speedup_2t", "ratio", Higher, "probe: a fixed arithmetic loop on two threads at once against twice on one: the host's own ceiling for sched.speedup_2w (2.0 on two free cores)"),
    layer("registry.invoke_ns", "ns", Lower, "probe: one call through the bare directory, 2000 services; moves op_p50_ms, cpu_ms_per_op on beta_sampling"),
    layer("instr.layer_ns", "ns", Lower, "probe: + catch-panic + instrumented layers, difference to the one below"),
    layer("resil.layer_ns", "ns", Lower, "probe: + resilient layer, difference to the one below"),
    layer("dedup.miss_ns", "ns", Lower, "probe: + dedup layer on a first call, difference to the one below"),
    layer("dedup.hit_ns", "ns", Lower, "probe: a coalesced call through the whole stack; weighs 3x dedup.miss_ns on beta_sampling"),
    layer("beta.calls_per_tick", "count", Lower, "loop: beta calls the queries issued per tick, dedup hits included (exact); pems.tick_ms / this = ns per call"),
    layer("dedup.hit_ratio", "ratio", Higher, "loop: dedup hits / calls (exact); a changed ratio means changed semantics, not speed"),
    layer("beta.cache_hit_ratio", "ratio", Higher, "loop: beta-cache hits / lookups (exact)"),
    layer("resil.retries_per_call", "ratio", Lower, "loop: retries / upstream calls (exact)"),
    layer("resil.breaker_opens", "count", Lower, "loop: breaker transitions to open (exact)"),
    layer("beta.degraded_per_call", "ratio", Lower, "loop: null-filled invocations / calls (exact)"),
    layer("beta.actions_per_tick", "count", Lower, "loop: active invocations reported per tick (exact)"),
    layer("discovery.churn_ms", "ms", Lower, "loop+probe: 20 sensors leave and 20 join through a LERM; moves pems.op_p90_ms on beta_sampling"),
    layer("ddl.compile_select_us", "us", Lower, "loop+probe: sql::compile_select; moves op_p50_ms on oneshot_sql"),
    layer("ddl.parse_program_us", "us", Lower, "probe: parse_program on the write statements"),
    layer("physical.compile_us", "us", Lower, "loop+probe: PhysicalPlan::compile against the snapshot"),
    layer("physical.execute_us", "us", Lower, "loop+probe: ExecContext execute of the compiled plan"),
    layer("physical.rows_out_per_stmt", "count", Lower, "loop+probe: rows a SELECT returns (exact)"),
    layer("oneshot.unexplained_pct", "%", Lower, "probe: (run_sql - sum of its five stages) / run_sql"),
    layer("rewrite.optimize_us", "us", Lower, "probe: optimize on each one-shot plan - not on run_sql's path today, recorded so wiring it in can be costed"),
    layer("snapshot.checkpoint_ms", "ms", Lower, "loop: median of 15 checkpoint_to(dir) at the end state (too dependent on the file system to carry a bound)"),
    layer("snapshot.restore_ms", "ms", Lower, "loop: median of 7 restore_from(dir) into fresh, identically declared runtimes"),
    layer("snapshot.encode_ms", "ms", Lower, "loop: snapshot_bytes() at the end state; the CPU share of snapshot.checkpoint_ms"),
    layer("snapshot.bytes", "bytes", Lower, "loop: size of that snapshot (exact)"),
    layer("snapshot.write_ms", "ms", Lower, "loop: checkpoint_to - encode"),
    layer("snapshot.decode_ms", "ms", Lower, "loop: restore_bytes() into a fresh runtime; the CPU share of snapshot.restore_ms"),
    layer("transport.frame_encode_ns", "ns", Lower, "probe: Invoke frame to wire bytes (CPU only; no workload uses the transport)"),
    layer("transport.frame_decode_ns", "ns", Lower, "probe: wire bytes to Invoke frame"),
    layer("transport.inproc_rtt_us", "us", Lower, "probe: one remote beta round trip in process (informational: it times the OS scheduler)"),
    layer("transport.uds_rtt_us", "us", Lower, "probe: one remote beta round trip over a Unix socket (informational)"),
    layer("bench.trace_overhead_pct", "%", Lower, "loop: mean traced operation against untraced; harness health"),
    layer("bench.gen_ms", "ms", Lower, "loop: generating and materialising the run's inputs; harness health"),
    layer("bench.ref_kernel_us", "us", Lower, "loop: median sample of the reference kernel beside the untraced reference loop (600 us is the reference speed): the host's speed, not the program's"),
    layer("bench.host_steal_pct", "%", Lower, "share of the guest's CPU time the hypervisor withheld over the traced run (/proc/stat steal): the host's state, not the program's"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Names are `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`, as `BENCHMARK.json` asks.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Units are at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.what.len() <= 200 || m.bound.is_none());
        }
        assert!(!valid_name("has space") && !valid_name(".dot") && !valid_name(""));
        assert!(valid_name("bench.gen_ms") && valid_unit("1/s") && !valid_unit("µs"));
    }

    #[test]
    fn bounds_are_set_exactly_on_end_to_end_metrics() {
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "set-up takes the largest bound");
    }
}
