//! The traced run: the selected workload's loop under the benchmark's own
//! spans, its side runs, and the layer probes.
//!
//! Every per-layer number is `f(span log, counts)` of one session: the
//! sessions are configured differently (B registers the queries at two
//! workers, S ticks them standalone on the driver, D has sizes of its own),
//! so each records into a tracer of its own and a number is never a blend.
//! A layer metric comes from the workload's own session where the workload
//! exercises the layer, and from the probe session ([`Workload::probe`],
//! the same whatever workload was selected) only where it does not.
//!
//! Sessions of one traced run:
//!
//! | session | what | yields |
//! |---|---|---|
//! | A | the loop, untraced | the reference digest, `sched.cpu_per_wall`, `pems.op_p50_raw_ms`, `bench.ref_kernel_us` |
//! | C | the loop at one worker, then in blocks alternating with A | `sched.speedup_2w`, `pems.overhead_1w_pct` |
//! | B | the loop under spans | `pems.*`, `tables.*`, one-shot stages, exact β counts, `snapshot.*` |
//! | S | the workload's queries standalone, serial | `stream.serial_tick_ms`, `pems.idle_tick_ms`, operator families |
//! | D | the probe query set standalone + one-shot stages | every family and stage the workload lacks |
//! | F | `fanout` with the product's span tracer off / armed | `span.armed_overhead_pct` |

use std::time::Instant;

use crate::host;
use crate::runner::{
    counted_phase, spans_path, unique_dir, Measured, RunOptions, RunReport, Timed,
};
use crate::stats;
use crate::sut::{self, Runtime};
use crate::trace::{self, Tracer};
use crate::workloads::{staged_select, Session, Workload, WORKERS};

fn mean_ms(tr: &Tracer, span: &str) -> f64 {
    stats::mean(&tr.durations(span)) / 1e6
}

/// The workload's own session if it recorded a span or count called `key`,
/// else the probe session.
fn source<'a>(own: &'a Tracer, probe: &'a Tracer, key: &str) -> &'a Tracer {
    if own.has(key) {
        own
    } else {
        probe
    }
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// The one-shot stages on the probe session: `SELECT`s of the statement
/// generator run once through `run_sql` and once staged under spans, the
/// write statements through `parse_program`, every distinct plan through
/// the optimizer. Returns `(run_sql mean ns, staged mean ns)`.
fn one_shot_stages(d: &mut Session<'_>, seed: u64, tr: &mut Tracer) -> Result<(f64, f64), String> {
    let mut mix = d.w.stmt_mix();
    mix.cycle = mix.interval * 2;
    let stmts = crate::gen::statements(seed, mix);
    let (selects, writes): (Vec<_>, Vec<_>) = stmts.iter().partition(|s| s.class.is_select());
    let mut plain = Vec::with_capacity(selects.len());
    let mut staged = Vec::with_capacity(selects.len());
    // alternate so drift hits both sides alike
    for s in &selects {
        let started = Instant::now();
        let out = d.rt.statement(&s.text, true);
        plain.push(started.elapsed().as_nanos() as f64);
        if let Some(e) = out.error() {
            return Err(format!("probe statement failed: {e}: {}", s.text));
        }
        let started = Instant::now();
        let out = staged_select(&d.rt, &s.text, tr);
        staged.push(started.elapsed().as_nanos() as f64);
        if let Some(e) = out.error() {
            return Err(format!("staged probe statement failed: {e}: {}", s.text));
        }
        let plan = d.rt.stage_compile_select(&s.text)?;
        let one_shot = d.rt.stage_to_one_shot(&plan)?;
        let env = d.rt.snapshot_env();
        tr.span("rewrite.optimize", |_| {
            std::hint::black_box(d.rt.optimize(&one_shot, &env));
        });
    }
    for s in &writes {
        tr.span("ddl.parse_program", |_| Runtime::parse_only(&s.text))?;
    }
    Ok((stats::mean(&plain), stats::mean(&staged)))
}

/// `fanout` ticks with the product's span tracer disarmed and armed, in
/// interleaved blocks; the armed overhead in percent.
fn armed_overhead_pct(seed: u64, smoke: bool) -> Result<f64, String> {
    let w = Workload::named("fanout", smoke, None).ok_or("no fanout workload")?;
    let inputs = w.inputs(seed);
    let mut off = Tracer::off();
    let mut s = Session::setup(&w, &inputs, WORKERS, &mut off)?;
    let block = (w.sizes.counted / 6).max(2);
    let mut disarmed = Vec::new();
    let mut armed = Vec::new();
    for round in 0..6 {
        let on = round % 2 == 1;
        s.rt.set_span_tracing(on);
        for _ in 0..block {
            let r = s.op(&mut off, false)?;
            (if on { &mut armed } else { &mut disarmed }).push(r.ns as f64);
        }
    }
    let base = stats::median(&mut disarmed);
    Ok(if base > 0.0 {
        (stats::median(&mut armed) - base) / base * 100.0
    } else {
        0.0
    })
}

/// The traced run: every per-layer metric.
pub fn run_traced(w: &Workload, opts: &RunOptions) -> Result<RunReport, String> {
    let smoke = opts.smoke;
    let inputs = w.inputs(opts.seed);
    let m = w.sizes.counted;
    let mut off = Tracer::off();
    let began = (Instant::now(), host::steal_jiffies());

    // spans per operation: op + push + tick (+ churn/mutate), or op + five
    // stages; the probes add a few thousand
    let mut tr = Tracer::on(m * 8 + 32_768);
    let run = tr.begin("run");

    // -- A: untraced reference; C: the loop at one worker -------------------
    let probe = tr.begin("probe.widths");
    let mut a = Session::setup(w, &inputs, WORKERS, &mut off)?;
    let mut ta = Timed::start();
    counted_phase(&mut a, m, &mut off, &mut ta)?;
    let mut trc = Tracer::on(m * 16 + 1_024);
    let mut c = Session::setup(w, &inputs, 1, &mut off)?;
    counted_phase(&mut c, m, &mut trc, &mut Timed::start())?;
    // Both then go on with the same operations in alternating blocks, so
    // that the host's drift hits both widths alike. No digest work here:
    // process CPU is read around A's blocks.
    let block = (m / 6).max(1);
    let (mut two_ns, mut one_ns) = (Vec::new(), Vec::new());
    let (mut cpu_s, mut wall_s) = (0.0, 0.0);
    for _ in 0..6 {
        let cpu_before = host::cpu_seconds();
        let wall = Instant::now();
        for _ in 0..block {
            two_ns.push(a.op(&mut off, false)?.ns as f64);
        }
        wall_s += wall.elapsed().as_secs_f64();
        if let (Some(x), Some(y)) = (cpu_before, host::cpu_seconds()) {
            cpu_s += y - x;
        }
        for _ in 0..block {
            one_ns.push(c.op(&mut trc, false)?.ns as f64);
        }
    }
    let cpu_per_wall = if wall_s > 0.0 { cpu_s / wall_s } else { 0.0 };
    let speedup_2w = stats::median(&mut one_ns) / stats::median(&mut two_ns).max(1.0);
    let steals_per_tick = per(a.rt.steals() as f64, a.totals.ticks);
    let tick_1w_ms = mean_ms(&trc, "pems.tick");
    drop(a);
    drop(c);
    tr.end(probe);

    // -- B: the same loop under spans ---------------------------------------
    let mut b = Session::setup(w, &inputs, WORKERS, &mut tr)?;
    let mut tb = Timed::start();
    let oracle_checks = counted_phase(&mut b, m, &mut tr, &mut tb)?;
    if ta.digest != tb.digest {
        return Err(format!(
            "digest: traced run {:016x} differs from untraced run {:016x} of seed {}",
            tb.digest, ta.digest, opts.seed
        ));
    }
    b.scrape(&mut tr);
    let totals = b.totals;
    let names = b.query_names();
    let q = b.rt.query_totals(&names);
    let (dedup_hits, dedup_misses) = b.rt.dedup_stats();
    let (retries, breaker_opens, _rejected) = b.rt.resilience_counts();
    let degraded = b.rt.degraded_total();
    let hub_len = b.rt.hub_len();
    let tick_spans = tr.durations("pems.tick");
    let op_traced = stats::mean(&tb.latencies);
    let op_untraced = stats::mean(&ta.latencies);

    // snapshot: checkpoint, encode, write, restore, decode at the end state
    let probe = tr.begin("probe.snapshot");
    let mut checkpoint = Vec::new();
    let mut restore = Vec::new();
    let mut encode = Vec::new();
    let mut write = Vec::new();
    let mut decode = Vec::new();
    let dir = unique_dir(&opts.scratch, "snap");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut bytes = Vec::new();
    for _ in 0..15 {
        let started = Instant::now();
        bytes = b.rt.snapshot_bytes();
        let e = started.elapsed().as_nanos() as f64;
        let started = Instant::now();
        let written = b.rt.checkpoint_to(&dir);
        let c = started.elapsed().as_nanos() as f64;
        if let Err(e) = written {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(e);
        }
        checkpoint.push(c);
        encode.push(e);
        write.push((c - e).max(0.0));
    }
    for _ in 0..7 {
        let mut target = b.restore_target(WORKERS)?;
        let started = Instant::now();
        let restored = target.rt.restore_from(&dir);
        restore.push(started.elapsed().as_nanos() as f64);
        if let Err(e) = restored {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(e);
        }
        let mut target = b.restore_target(WORKERS)?;
        let started = Instant::now();
        target.rt.restore_bytes(&bytes)?;
        decode.push(started.elapsed().as_nanos() as f64);
    }
    let _ = std::fs::remove_dir_all(&dir);
    tr.end(probe);
    drop(b);

    // -- S: the workload's queries standalone, serial -----------------------
    let mut ts = Tracer::on(m * (w.queries().len() + 8) + 1_024);
    let probe = ts.begin("probe.serial");
    let mut s = Session::serial(w, &inputs, "pems.idle_tick", "stream.serial_tick", &mut ts)?;
    if w.is_oneshot() {
        // only the inventory ticks matter here; statements are skipped
        for _ in 0..(m / w.sizes.tick_every).max(2) {
            s.tick(&mut ts);
        }
    } else {
        for _ in 0..m {
            s.op(&mut ts, false)?;
        }
    }
    drop(s);
    ts.end(probe);
    let serial_tick_ms = mean_ms(&ts, "stream.serial_tick");
    let idle_tick_ms = mean_ms(&ts, "pems.idle_tick");

    // -- D: the probe query set and the one-shot stages ---------------------
    let pw = Workload::probe(smoke);
    let pinputs = pw.inputs(opts.seed);
    let mut td = Tracer::on(pw.sizes.counted * (pw.queries().len() + 8) + 8_192);
    let probe = td.begin("probe.layers");
    let mut d = Session::serial(
        &pw,
        &pinputs,
        "probe.idle_tick",
        "probe.serial_tick",
        &mut td,
    )?;
    for _ in 0..pw.sizes.counted {
        d.op(&mut td, false)?;
    }
    let (run_sql_ns, staged_ns) = one_shot_stages(&mut d, opts.seed, &mut td)?;
    drop(d);
    td.end(probe);

    // -- F and the micro-probes ---------------------------------------------
    let probe = tr.begin("probe.micro");
    let armed_pct = armed_overhead_pct(opts.seed, smoke)?;
    let scale = if smoke { 20 } else { 1 };
    let dispatch_ns = sut::probe_dispatch(WORKERS, 120, 400 / scale);
    let stack = sut::probe_stack(opts.seed, w.sizes.sensors, 40 / scale.min(10));
    let (counter_ns, histogram_ns) = sut::probe_telemetry(2_000_000 / scale as u64);
    let (frame_encode_ns, frame_decode_ns) = sut::probe_frames(400_000 / scale as u64);
    let inproc_rtt = sut::probe_inproc_rtt(opts.seed, 2_000 / scale);
    let uds_rtt = sut::probe_uds_rtt(opts.seed, 2_000 / scale, &unique_dir(&opts.scratch, "uds"));
    let host_speedup = host::thread_speedup(if smoke { 2_000_000 } else { 40_000_000 });
    tr.end(probe);
    tr.end(run);
    let steal_pct = match (began.1, host::steal_jiffies()) {
        (Some(a), Some(b)) => {
            b.saturating_sub(a) as f64 / (began.0.elapsed().as_secs_f64() * host::cpus())
        }
        _ => 0.0,
    };

    let all = trace::merged(&tr, &[&ts, &td]);
    let spans = spans_path(&opts.scratch, w.name);
    trace::write_jsonl(&all, &spans).map_err(|e| format!("writing {}: {e}", spans.display()))?;

    let mut self_ms: Vec<(&'static str, f64)> = trace::self_time_by_name(&all)
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / 1e6))
        .collect();
    self_ms.sort_by(|a, b| b.1.total_cmp(&a.1));

    // -- the per-layer table ------------------------------------------------
    let mut tick_sorted = tick_spans.clone();
    let ticks = tick_spans.len() as u64;
    let calls = q.invocations;
    // the recompute families come from one session: S if the workload has
    // such a query, else D
    let recompute = source(&ts, &td, "stream.recompute.ticks");
    let recompute_ns = recompute.total_ns("stream.aggregate")
        + recompute.total_ns("stream.join")
        + recompute.total_ns("stream.setop");
    let recompute_ticks = recompute.counted("stream.recompute.ticks");
    let mut metrics: Vec<Measured> = Vec::new();
    let mut put =
        |name: &'static str, value: f64, n: u64| metrics.push(Measured { name, value, n });
    // mean duration of the spans called `$span` in session `$own` (or in
    // the probe session, if the workload has none), in units of `$scale` ns
    macro_rules! put_span_mean {
        ($name:expr, $own:expr, $span:expr, $scale:expr) => {{
            let d = source($own, &td, $span).durations($span);
            put($name, stats::mean(&d) / $scale, d.len() as u64)
        }};
    }
    // the same spans' total, divided by a count taken at the same boundary
    macro_rules! put_per_count {
        ($name:expr, $own:expr, $span:expr, $scale:expr, $count:expr) => {{
            let from = source($own, &td, $span);
            let n = from.counted($count);
            put($name, per(from.total_ns($span) / $scale, n), n)
        }};
    }

    put(
        "pems.op_p50_raw_ms",
        stats::median(&mut ta.latencies.clone()) / 1e6,
        m as u64,
    );
    let mut op_sorted = tb.latencies.clone();
    put(
        "pems.op_p90_ms",
        stats::percentile(&mut op_sorted, 0.9) / 1e6,
        m as u64,
    );
    put(
        "pems.op_p99_ms",
        stats::percentile(&mut op_sorted, 0.99) / 1e6,
        m as u64,
    );
    put("pems.tick_ms", stats::mean(&tick_spans) / 1e6, ticks);
    put(
        "pems.tick_p99_ms",
        stats::percentile(&mut tick_sorted, 0.99) / 1e6,
        ticks,
    );
    put(
        "pems.tick_max_ms",
        tick_sorted.last().copied().unwrap_or(0.0) / 1e6,
        ticks,
    );
    put(
        "pems.reports_per_tick",
        per(tr.counted("pems.tick.reports") as f64, ticks),
        ticks,
    );
    put(
        "pems.idle_tick_ms",
        idle_tick_ms,
        ts.durations("pems.idle_tick").len() as u64,
    );
    put("pems.build_ms", mean_ms(&tr, "pems.build"), 1);
    put(
        "pems.register_ms_per_query",
        per(
            tr.total_ns("pems.register") / 1e6,
            tr.counted("pems.register.queries"),
        ),
        tr.counted("pems.register.queries"),
    );
    put(
        "pems.render_metrics_ms",
        mean_ms(&tr, "pems.render_metrics"),
        totals.scrapes + 1,
    );
    put(
        "pems.render_metrics_kb",
        per(totals.scrape_bytes as f64 / 1024.0, totals.scrapes.max(1)),
        totals.scrapes + 1,
    );
    put(
        "pems.overhead_1w_pct",
        if tick_1w_ms > 0.0 {
            (tick_1w_ms - serial_tick_ms - idle_tick_ms) / tick_1w_ms * 100.0
        } else {
            0.0
        },
        ticks,
    );
    put(
        "telemetry.series",
        per(totals.scrape_series as f64, totals.scrapes.max(1)),
        1,
    );
    put(
        "telemetry.counter_inc_ns",
        counter_ns,
        2_000_000 / scale as u64,
    );
    put(
        "telemetry.histogram_record_ns",
        histogram_ns,
        2_000_000 / scale as u64,
    );
    put("span.armed_overhead_pct", armed_pct, 1);
    // every workload has queries, so these two are always S's
    let compiled = ts.counted("stream.compile.queries");
    put(
        "tables.source_set_us",
        per(ts.counted("tables.source_set.ns") as f64 / 1e3, compiled),
        compiled,
    );
    put_per_count!(
        "tables.push_us_per_tuple",
        &tr,
        "tables.push",
        1e3,
        "tables.push.tuples"
    );
    put_per_count!(
        "tables.mutate_us",
        &tr,
        "tables.mutate",
        1e3,
        "tables.mutate.rows"
    );
    put_span_mean!("tables.snapshot_env_us", &tr, "tables.snapshot_env", 1e3);
    put("hub.log_tuples", hub_len as f64, 1);
    put(
        "stream.compile_us_per_query",
        per(ts.counted("stream.compile.ns") as f64 / 1e3, compiled),
        compiled,
    );
    put(
        "stream.serial_tick_ms",
        serial_tick_ms,
        ts.durations("stream.serial_tick").len() as u64,
    );
    put_per_count!(
        "stream.window_us_per_tuple",
        &ts,
        "stream.window",
        1e3,
        "stream.window.tuples_in"
    );
    put_per_count!(
        "stream.linear_us_per_tuple",
        &ts,
        "stream.linear",
        1e3,
        "stream.linear.tuples_in"
    );
    let state_tuples = recompute.counted("stream.recompute.state_tuples");
    put(
        "stream.recompute_us_per_state_tuple",
        per(recompute_ns / 1e3, state_tuples),
        state_tuples,
    );
    put_span_mean!("stream.join_ms", &ts, "stream.join", 1e6);
    put_span_mean!("stream.aggregate_ms", &ts, "stream.aggregate", 1e6);
    put_span_mean!("stream.setop_ms", &ts, "stream.setop", 1e6);
    put(
        "stream.state_tuples",
        per(state_tuples as f64, recompute_ticks),
        recompute_ticks,
    );
    put(
        "stream.delta_out_per_tick",
        per(
            recompute.counted("stream.recompute.delta_out") as f64,
            recompute_ticks,
        ),
        recompute_ticks,
    );
    put_per_count!(
        "stream.sample_invoke_us_per_call",
        &ts,
        "stream.sample",
        1e3,
        "stream.sample.calls"
    );
    put(
        "sched.dispatch_us_per_job",
        dispatch_ns / 1e3,
        (120 * 400 / scale) as u64,
    );
    put("sched.speedup_2w", speedup_2w, (6 * block) as u64);
    put("sched.steals_per_tick", steals_per_tick, ticks);
    put("sched.cpu_per_wall", cpu_per_wall, (6 * block) as u64);
    put("bench.host_speedup_2t", host_speedup, 3);
    let stack_n = (w.sizes.sensors * (40 / scale.min(10))) as u64;
    put("registry.invoke_ns", stack[0], stack_n);
    put("instr.layer_ns", stack[1] - stack[0], stack_n);
    put("resil.layer_ns", stack[2] - stack[1], stack_n);
    put("dedup.miss_ns", stack[3] - stack[2], stack_n);
    put("dedup.hit_ns", stack[4], stack_n * 3);
    put(
        "beta.calls_per_tick",
        per(calls as f64, totals.ticks),
        totals.ticks,
    );
    put(
        "dedup.hit_ratio",
        per(dedup_hits as f64, dedup_hits + dedup_misses),
        dedup_hits + dedup_misses,
    );
    put(
        "beta.cache_hit_ratio",
        per(q.cache_hits as f64, q.cache_hits + q.cache_misses),
        q.cache_hits + q.cache_misses,
    );
    put(
        "resil.retries_per_call",
        per(retries as f64, dedup_misses),
        dedup_misses,
    );
    put("resil.breaker_opens", breaker_opens as f64, 1);
    put("beta.degraded_per_call", per(degraded as f64, calls), calls);
    put(
        "beta.actions_per_tick",
        per(totals.actions as f64, totals.ticks),
        totals.ticks,
    );
    put_span_mean!("discovery.churn_ms", &tr, "discovery.churn", 1e6);
    put_span_mean!("ddl.compile_select_us", &tr, "ddl.compile_select", 1e3);
    put_span_mean!("ddl.parse_program_us", &td, "ddl.parse_program", 1e3);
    put_span_mean!("physical.compile_us", &tr, "physical.compile", 1e3);
    put_span_mean!("physical.execute_us", &tr, "physical.execute", 1e3);
    let staged = source(&tr, &td, "physical.statements");
    put(
        "physical.rows_out_per_stmt",
        per(
            staged.counted("physical.rows_out") as f64,
            staged.counted("physical.statements"),
        ),
        staged.counted("physical.statements"),
    );
    put(
        "oneshot.unexplained_pct",
        if run_sql_ns > 0.0 {
            (run_sql_ns - staged_ns) / run_sql_ns * 100.0
        } else {
            0.0
        },
        1,
    );
    put_span_mean!("rewrite.optimize_us", &td, "rewrite.optimize", 1e3);
    put(
        "snapshot.checkpoint_ms",
        stats::median(&mut checkpoint) / 1e6,
        15,
    );
    put("snapshot.restore_ms", stats::median(&mut restore) / 1e6, 7);
    put("snapshot.encode_ms", stats::median(&mut encode) / 1e6, 15);
    put("snapshot.bytes", bytes.len() as f64, 1);
    put("snapshot.write_ms", stats::median(&mut write) / 1e6, 15);
    put("snapshot.decode_ms", stats::median(&mut decode) / 1e6, 7);
    put(
        "transport.frame_encode_ns",
        frame_encode_ns,
        400_000 / scale as u64,
    );
    put(
        "transport.frame_decode_ns",
        frame_decode_ns,
        400_000 / scale as u64,
    );
    put(
        "transport.inproc_rtt_us",
        inproc_rtt.unwrap_or(0.0),
        (2_000 / scale) as u64,
    );
    put(
        "transport.uds_rtt_us",
        uds_rtt.unwrap_or(0.0),
        (2_000 / scale) as u64,
    );
    put(
        "bench.trace_overhead_pct",
        if op_untraced > 0.0 {
            (op_traced - op_untraced) / op_untraced * 100.0
        } else {
            0.0
        },
        m as u64,
    );
    put("bench.gen_ms", inputs.gen_ms, 1);
    put(
        "bench.ref_kernel_us",
        stats::median(&mut ta.ref_samples) / 1e3,
        ta.ref_samples.len() as u64,
    );
    put("bench.host_steal_pct", steal_pct, 1);

    Ok(RunReport {
        workload: w.name,
        window: w.sizes.window,
        seed: opts.seed,
        traced: true,
        attempted: ta.attempted + tb.attempted,
        failed: ta.failed + tb.failed,
        digest: tb.digest,
        oracle_checks,
        metrics,
        exact: vec![
            ("counted_ops", m as u64),
            ("ticks", totals.ticks),
            ("statements", totals.statements),
            ("reports", totals.reports),
            ("tuples_pushed", totals.tuples_pushed),
            ("tuples_out", totals.tuples_out),
            ("actions", totals.actions),
            ("dedup_hits", dedup_hits),
            ("dedup_misses", dedup_misses),
            ("snapshot_bytes", bytes.len() as u64),
        ],
        self_ms,
        host_state: Vec::new(),
    })
}
