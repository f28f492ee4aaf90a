//! The four workloads: what runs, at what size, and one operation of each.
//!
//! The unit of work is the state transition — one instant (push the
//! instant's batch and churn, then `Pems::tick()`) or one one-shot
//! statement. The loop is closed: one driver thread issues the next
//! operation when the previous one returns.

use std::collections::BTreeSet;
use std::time::Instant;

use crate::gen::{self, StmtMix};
use crate::model::{Agg, OpOutcome, QuerySpec, Row, Stmt};
use crate::oracle;
use crate::sut::{self, Batch, Environment0, Runtime, RuntimeConfig, Standalone};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fanout,
    JoinWindow,
    BetaSampling,
    OneshotSql,
    /// Not a workload: the fixed query set and inputs the layer probes of a
    /// traced run use, whatever workload was selected.
    Probe,
}

/// Name and reason of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(Kind, &str, &str); 4] = [
    (
        Kind::Fanout,
        "fanout",
        "120 light sigma/pi window queries over 256 tuples/instant: ingest, scheduler dispatch, window ring, shard reads and per-query telemetry are the whole tick; no beta, no recompute node",
    ),
    (
        Kind::JoinWindow,
        "join_window",
        "10 heavy queries (aggregate, join, union, difference) over W[32] with table writes beside reads: all time is in recompute(), cost tracks window size, not delta",
    ),
    (
        Kind::BetaSampling,
        "beta_sampling",
        "8000 beta calls/instant on 2000 flaky sensors through registry, instrumented, resilient and dedup layers, with sensor churn through a LERM; windows and sigma/pi are negligible",
    ),
    (
        Kind::OneshotSql,
        "oneshot_sql",
        "the same operators, beta stack and table manager driven by one-shot statements: parse, lower, snapshot_environment, compile, execute, with INSERT/DELETE beside reads",
    ),
];

/// Scheduler width of every measured run: one worker per core of the
/// 2-core reference host, so that at most `nproc` threads are runnable
/// (the driver thread waits while the workers tick). What one worker does
/// is the layer metric `sched.speedup_2w`.
pub const WORKERS: usize = 2;

/// Everything that scales between the full run and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub areas: usize,
    pub sensors: usize,
    pub cameras: usize,
    pub messengers: usize,
    pub contacts: usize,
    pub rooms: usize,
    /// `readings` tuples pushed per instant.
    pub per_instant: usize,
    /// Window of the heavy queries (`--window` overrides it).
    pub window: u64,
    /// Operations before timing starts.
    pub warmup: usize,
    /// Operations of the counted phase: digest, exact counts and the
    /// oracle are taken over exactly these.
    pub counted: usize,
    /// Sensors that leave and join every `churn_every` instants.
    pub churn: usize,
    pub churn_every: usize,
    /// `rooms` rows inserted and deleted per instant.
    pub room_churn: usize,
    /// A `render_metrics()` scrape every this many instants.
    pub scrape_every: usize,
    /// Statements in the one-shot cycle, and between inventory ticks.
    pub stmt_cycle: usize,
    pub tick_every: usize,
}

/// Instants a `rooms` row lives before the driver deletes it again.
const ROOM_LAG: usize = 8;

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub sizes: Sizes,
}

impl Workload {
    fn base_sizes(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                areas: 8,
                sensors: 48,
                cameras: 6,
                messengers: 3,
                contacts: 24,
                rooms: 32,
                per_instant: 16,
                window: 8,
                warmup: 4,
                counted: 24,
                churn: 2,
                churn_every: 5,
                room_churn: 2,
                scrape_every: 10,
                stmt_cycle: 200,
                tick_every: 20,
            }
        } else {
            Sizes {
                areas: 64,
                sensors: 2_000,
                cameras: 200,
                messengers: 30,
                contacts: 100,
                rooms: 512,
                per_instant: 256,
                window: 32,
                warmup: 10,
                counted: 120,
                churn: 20,
                churn_every: 10,
                room_churn: 2,
                scrape_every: 100,
                stmt_cycle: 2_000,
                tick_every: 100,
            }
        }
    }

    pub fn named(name: &str, smoke: bool, window: Option<u64>) -> Option<Workload> {
        let (kind, name, _) = *WORKLOADS.iter().find(|(_, n, _)| *n == name)?;
        let mut sizes = Workload::base_sizes(smoke);
        match (kind, smoke) {
            (Kind::JoinWindow, false) => {
                sizes.per_instant = 64;
                sizes.warmup = 36;
                sizes.counted = 240;
            }
            (Kind::BetaSampling, false) => {
                sizes.per_instant = 32;
                sizes.warmup = 4;
                sizes.counted = 100;
            }
            (Kind::OneshotSql, false) => {
                sizes.contacts = 1_000;
                // one whole interval of the statement cycle: every interval
                // holds the same statements by class, half of one holds
                // whichever the seed put first, and `setup_s` then differs
                // by a third from seed to seed
                sizes.warmup = sizes.tick_every;
                sizes.counted = 2_000;
            }
            (Kind::OneshotSql, true) => sizes.counted = sizes.stmt_cycle,
            _ => {}
        }
        if let Some(w) = window {
            sizes.window = w;
        }
        Some(Workload { kind, name, sizes })
    }

    /// The layer probes' own environment: every operator family once, 64
    /// tuples/instant, `rooms` writes and sensor churn.
    pub fn probe(smoke: bool) -> Workload {
        let mut sizes = Workload::base_sizes(smoke);
        if !smoke {
            sizes.per_instant = 64;
            sizes.warmup = 36;
            sizes.counted = 64;
        }
        Workload {
            kind: Kind::Probe,
            name: "probe",
            sizes,
        }
    }

    pub fn is_oneshot(&self) -> bool {
        self.kind == Kind::OneshotSql
    }

    fn writes_rooms(&self) -> bool {
        matches!(self.kind, Kind::JoinWindow | Kind::Probe)
    }

    fn churns_sensors(&self) -> bool {
        matches!(self.kind, Kind::BetaSampling | Kind::Probe)
    }

    pub fn runtime_config(&self, workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            workers,
            flaky: self.kind == Kind::BetaSampling,
        }
    }

    fn heavy_queries(&self, add: &mut dyn FnMut(&str, QuerySpec)) {
        let w = self.sizes.window;
        let half = (w / 2).max(1);
        for (agg, window) in [
            (Agg::Avg, w),
            (Agg::Max, w),
            (Agg::Count, w),
            (Agg::Max, half),
        ] {
            add("agg", QuerySpec::GroupBy { window, agg });
        }
        for i in 0..4 {
            add(
                "join",
                QuerySpec::JoinRooms {
                    window: w,
                    theta: 30.0 + i as f64 * 0.5,
                },
            );
        }
        add("union", QuerySpec::UnionRooms { window: half });
        add("minus", QuerySpec::RoomsMinusSeen { window: half });
    }

    /// The registered queries, in registration order.
    pub fn queries(&self) -> Vec<(String, QuerySpec)> {
        let s = &self.sizes;
        let mut out: Vec<(String, QuerySpec)> = Vec::new();
        let mut add = |prefix: &str, spec: QuerySpec| {
            let n = out.iter().filter(|(q, _)| q.starts_with(prefix)).count();
            out.push((format!("{prefix}{n:03}"), spec));
        };
        let inventory = |add: &mut dyn FnMut(&str, QuerySpec)| {
            for _ in 0..6 {
                add("inventory", QuerySpec::Inventory);
            }
        };
        match self.kind {
            Kind::Fanout => {
                for i in 0..48 {
                    add(
                        "hot",
                        QuerySpec::Hot {
                            window: 4,
                            theta: 28.0 + (i % 8) as f64 * 0.5,
                        },
                    );
                }
                for i in 0..36 {
                    add(
                        "area",
                        QuerySpec::Area {
                            window: 4,
                            area: gen::area_name(i % s.areas),
                        },
                    );
                }
                for _ in 0..30 {
                    add("recent", QuerySpec::Locations { window: 8 });
                }
                inventory(&mut add);
            }
            Kind::JoinWindow => self.heavy_queries(&mut add),
            Kind::BetaSampling => {
                for _ in 0..4 {
                    add("sampled", QuerySpec::Sample);
                }
                for _ in 0..2 {
                    add("cameras", QuerySpec::CameraCheck);
                }
                add("alert", QuerySpec::Alert { theta: 32.25 });
            }
            Kind::OneshotSql => {
                inventory(&mut add);
                // commits the one-shot writes to `contacts` at every tick
                add("contacts", QuerySpec::ContactsWatch);
            }
            Kind::Probe => {
                add("window", QuerySpec::Window { window: 4 });
                add(
                    "hot",
                    QuerySpec::Hot {
                        window: 4,
                        theta: 30.0,
                    },
                );
                add(
                    "area",
                    QuerySpec::Area {
                        window: 4,
                        area: gen::area_name(0),
                    },
                );
                add("recent", QuerySpec::Locations { window: 8 });
                self.heavy_queries(&mut add);
                add("sampled", QuerySpec::Sample);
                add("inventory", QuerySpec::Inventory);
                add("contacts", QuerySpec::ContactsWatch);
            }
        }
        out
    }

    /// The fleet and the initial tables.
    pub fn environment(&self, seed: u64) -> Environment0 {
        let s = &self.sizes;
        let mut contacts: Vec<Row> = (0..s.contacts)
            .map(|i| gen::contact(i, s.areas, s.messengers))
            .collect();
        if self.is_oneshot() {
            contacts.extend(self.stmt_mix().preloaded_contacts());
        }
        Environment0 {
            fleet_seed: seed,
            areas: (0..s.areas).map(gen::area_name).collect(),
            sensors: s.sensors,
            cameras: s.cameras,
            messengers: s.messengers,
            contacts,
            rooms: (0..s.rooms).map(|i| gen::room(i, s.areas)).collect(),
        }
    }

    pub fn stmt_mix(&self) -> StmtMix {
        let s = &self.sizes;
        StmtMix {
            cycle: s.stmt_cycle,
            interval: s.tick_every,
            areas: s.areas,
            sensors: s.sensors,
            base_contacts: s.contacts,
            base_rooms: s.rooms,
            messengers: s.messengers,
        }
    }

    /// Materialise every input of a run before timing starts.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let started = Instant::now();
        let s = &self.sizes;
        let env = self.environment(seed);
        let (rows, stmts) = if self.is_oneshot() {
            (Vec::new(), gen::statements(seed, self.stmt_mix()))
        } else {
            (
                gen::arrivals(seed, s.areas, s.per_instant, s.warmup + s.counted),
                Vec::new(),
            )
        };
        let batches = rows.iter().map(|b| sut::batch_of(b)).collect();
        Inputs {
            env,
            rows,
            batches,
            stmts,
            gen_ms: started.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// One run's inputs: generated rows (for the oracle), the same as product
/// tuples (for the driver), and the statement cycle.
pub struct Inputs {
    pub env: Environment0,
    pub rows: Vec<Vec<Row>>,
    pub batches: Vec<Batch>,
    pub stmts: Vec<Stmt>,
    pub gen_ms: f64,
}

/// What one operation cost and returned.
pub struct OpResult {
    /// The latency sample: the instant's push + churn + tick, or the
    /// statement.
    pub ns: u64,
    /// Driver work beside it that still belongs to the timed wall: a
    /// metrics scrape, or the one-shot workload's inventory tick.
    pub aux_ns: u64,
    pub outcome: OpOutcome,
}

/// Exact counts a session accumulates over every operation since set-up.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub ticks: u64,
    pub statements: u64,
    pub attempted: u64,
    pub failed: u64,
    pub reports: u64,
    pub tuples_pushed: u64,
    pub tuples_out: u64,
    pub actions: u64,
    pub scrapes: u64,
    pub scrape_bytes: u64,
    pub scrape_series: u64,
    pub churn_steps: u64,
    /// Σ over ticks of the sensors deployed at that tick.
    pub sensor_ticks: u64,
}

/// The workload's queries compiled standalone and ticked serially on the
/// driver thread after an idle `Pems::tick()`, instead of registered.
struct Serial {
    queries: Vec<(QuerySpec, Standalone)>,
    /// Span around the idle tick and around all standalone ticks.
    idle_span: &'static str,
    tick_span: &'static str,
}

/// A runtime set up for a workload plus the driver's own state.
pub struct Session<'a> {
    pub w: &'a Workload,
    pub inputs: &'a Inputs,
    pub rt: Runtime,
    pub queries: Vec<(String, QuerySpec)>,
    serial: Option<Serial>,
    /// Operations issued so far (warm-up included).
    pub next_op: usize,
    /// `rooms` as committed by the last tick, for the oracle.
    rooms: BTreeSet<Row>,
    pub totals: Totals,
}

impl<'a> Session<'a> {
    /// Build + DDL + fleet deploy + registration, without warm-up.
    fn declared(
        w: &'a Workload,
        inputs: &'a Inputs,
        workers: usize,
        register_queries: bool,
        tr: &mut Tracer,
    ) -> Result<Session<'a>, String> {
        let mut rt = tr.span("pems.build", |_| Runtime::build(w.runtime_config(workers)));
        tr.span("ddl.catalog", |_| rt.declare())?;
        tr.span("fleet.deploy", |_| rt.deploy(&inputs.env))?;
        let queries = w.queries();
        if register_queries {
            let id = tr.begin("pems.register");
            for (name, spec) in &queries {
                rt.register(name, spec)?;
            }
            tr.end(id);
            tr.count("pems.register.queries", queries.len() as u64);
        }
        Ok(Session {
            w,
            inputs,
            rt,
            queries,
            serial: None,
            next_op: 0,
            rooms: inputs.env.rooms.iter().cloned().collect(),
            totals: Totals::default(),
        })
    }

    fn warm_up(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let warm = tr.begin("warmup");
        if self.w.is_oneshot() {
            // discovery lands and the inventory queries commit `sensors`
            // before the first statement reads it
            self.tick(&mut Tracer::off());
        }
        for _ in 0..self.w.sizes.warmup {
            self.op(&mut Tracer::off(), false)?;
        }
        tr.end(warm);
        Ok(())
    }

    /// The whole set-up: build + DDL + fleet deploy + registration +
    /// warm-up operations.
    pub fn setup(
        w: &'a Workload,
        inputs: &'a Inputs,
        workers: usize,
        tr: &mut Tracer,
    ) -> Result<Session<'a>, String> {
        let id = tr.begin("setup");
        let mut s = Session::declared(w, inputs, workers, true, tr)?;
        s.warm_up(tr)?;
        tr.end(id);
        Ok(s)
    }

    /// Like [`Session::setup`], but nothing is registered: every query is
    /// compiled standalone and each tick is an idle `Pems::tick()` under
    /// `idle_span` followed by the standalone ticks, serially, under
    /// `tick_span`.
    pub fn serial(
        w: &'a Workload,
        inputs: &'a Inputs,
        idle_span: &'static str,
        tick_span: &'static str,
        tr: &mut Tracer,
    ) -> Result<Session<'a>, String> {
        let mut s = Session::declared(w, inputs, 1, false, &mut Tracer::off())?;
        let mut queries = Vec::with_capacity(s.queries.len());
        for (_, spec) in &s.queries {
            let (q, source_set_ns, compile_ns) = s.rt.standalone(spec)?;
            tr.count("tables.source_set.ns", source_set_ns);
            tr.count("stream.compile.ns", compile_ns);
            tr.count("stream.compile.queries", 1);
            queries.push((spec.clone(), q));
        }
        s.serial = Some(Serial {
            queries,
            idle_span,
            tick_span,
        });
        s.warm_up(tr)?;
        Ok(s)
    }

    /// A fresh, identically declared runtime holding the sensors this
    /// session's churn has left deployed — what a restore needs, since a
    /// checkpoint does not carry service registrations.
    pub fn restore_target(&self, workers: usize) -> Result<Session<'a>, String> {
        let mut t = Session::declared(self.w, self.inputs, workers, true, &mut Tracer::off())?;
        for _ in 0..self.totals.churn_steps {
            t.rt.churn(self.w.sizes.churn);
        }
        if self.w.is_oneshot() {
            // LERM announcements reach the registry at a tick, and the
            // first operation after the restore is a statement: let
            // discovery land before the restore overwrites the state
            t.rt.tick();
        }
        t.next_op = self.next_op;
        t.rooms = self.rooms.clone();
        t.totals = self.totals;
        Ok(t)
    }

    fn account(&mut self, o: &OpOutcome) {
        self.totals.attempted += o.attempted;
        self.totals.failed += o.failed;
        self.totals.reports += o.reports;
        self.totals.tuples_out += o.tuples_out;
        self.totals.actions += o.actions;
    }

    /// One `Pems::tick()` — and, in serial mode, every standalone query
    /// after it, each under the span of its operator family.
    pub fn tick(&mut self, tr: &mut Tracer) -> sut::TickOut {
        self.totals.ticks += 1;
        self.totals.sensor_ticks += self.rt.sensors_alive() as u64;
        let Some(serial) = &mut self.serial else {
            let out = tr.span("pems.tick", |_| self.rt.tick());
            tr.count("pems.tick.reports", out.reports());
            return out;
        };
        let out = tr.span(serial.idle_span, |_| self.rt.tick());
        let pushed = self.w.sizes.per_instant as u64;
        let all = tr.begin(serial.tick_span);
        for (spec, q) in &mut serial.queries {
            let family = spec.family();
            let id = tr.begin(family);
            let (tuples_out, invocations) = q.tick();
            tr.end(id);
            if !tr.enabled() {
                continue;
            }
            match family {
                "stream.window" => tr.count("stream.window.tuples_in", pushed),
                "stream.linear" => tr.count("stream.linear.tuples_in", pushed),
                "stream.sample" => tr.count("stream.sample.calls", invocations),
                _ => {}
            }
            if spec.recomputes() {
                tr.count("stream.recompute.state_tuples", q.state_tuples());
                tr.count("stream.recompute.delta_out", tuples_out);
                tr.count("stream.recompute.ticks", 1);
            }
        }
        tr.end(all);
        out
    }

    /// One `render_metrics()` scrape; returns what it took, in ns.
    pub fn scrape(&mut self, tr: &mut Tracer) -> u64 {
        let started = Instant::now();
        let text = tr.span("pems.render_metrics", |_| self.rt.scrape());
        let ns = started.elapsed().as_nanos() as u64;
        self.totals.scrapes += 1;
        self.totals.scrape_bytes += text.len() as u64;
        self.totals.scrape_series += text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .count() as u64;
        ns
    }

    /// Issue the next operation. With `digest`, the outcome carries the
    /// digest of everything the product returned (computed outside the
    /// timed region); without, only the counts.
    pub fn op(&mut self, tr: &mut Tracer, digest: bool) -> Result<OpResult, String> {
        let i = self.next_op;
        self.next_op += 1;
        tr.set_op(Some(i));
        let result = if self.w.is_oneshot() {
            self.statement_op(i, tr, digest)
        } else {
            self.instant_op(i, tr, digest)
        };
        tr.set_op(None);
        result
    }

    fn instant_op(&mut self, i: usize, tr: &mut Tracer, digest: bool) -> Result<OpResult, String> {
        let s = self.w.sizes;
        // -- untimed: this instant's inputs ------------------------------
        let batch = self.inputs.batches[i % self.inputs.batches.len()].clone();
        let pushed = batch.len() as u64;
        let (room_in, room_out) = if self.w.writes_rooms() {
            gen::room_churn(s.rooms, s.areas, s.room_churn, ROOM_LAG, i)
        } else {
            (Vec::new(), Vec::new())
        };
        let room_in_t: Vec<_> = room_in.iter().map(sut::table_row_of).collect();
        let room_out_t: Vec<_> = room_out.iter().map(sut::table_row_of).collect();
        let mutate_rows = (room_in_t.len() + room_out_t.len()) as u64;
        let churn_now = self.w.churns_sensors() && i > 0 && i.is_multiple_of(s.churn_every);

        // -- timed: push, churn, tick ------------------------------------
        let started = Instant::now();
        let op = tr.begin("op");
        tr.span("tables.push", |_| self.rt.push(batch));
        tr.count("tables.push.tuples", pushed);
        if churn_now {
            tr.span("discovery.churn", |_| self.rt.churn(s.churn));
        }
        if mutate_rows > 0 {
            let id = tr.begin("tables.mutate");
            for r in room_in_t {
                self.rt.insert_room(r);
            }
            for r in room_out_t {
                self.rt.delete_room(r);
            }
            tr.end(id);
            tr.count("tables.mutate.rows", mutate_rows);
        }
        let out = self.tick(tr);
        tr.end(op);
        let ns = started.elapsed().as_nanos() as u64;

        // -- untimed again -----------------------------------------------
        self.totals.tuples_pushed += pushed;
        if churn_now {
            self.totals.churn_steps += 1;
        }
        for r in room_out {
            self.rooms.remove(&r);
        }
        self.rooms.extend(room_in);
        let outcome = out.summarize(digest);
        drop(out);
        self.account(&outcome);
        let aux_ns = if (i + 1).is_multiple_of(s.scrape_every) {
            self.scrape(tr)
        } else {
            0
        };
        Ok(OpResult {
            ns,
            aux_ns,
            outcome,
        })
    }

    fn statement_op(
        &mut self,
        i: usize,
        tr: &mut Tracer,
        digest: bool,
    ) -> Result<OpResult, String> {
        let stmt = &self.inputs.stmts[i % self.inputs.stmts.len()];
        let is_select = stmt.class.is_select();
        let started = Instant::now();
        let op = tr.begin("op");
        let out = if is_select && tr.enabled() {
            staged_select(&self.rt, &stmt.text, tr)
        } else {
            self.rt.statement(&stmt.text, is_select)
        };
        tr.end(op);
        let ns = started.elapsed().as_nanos() as u64;
        let mut outcome = out.summarize(digest);
        Session::check_statement(stmt, &out, &outcome)?;
        drop(out);
        self.totals.statements += 1;
        let mut aux_ns = 0;
        if (i + 1).is_multiple_of(self.w.sizes.tick_every) {
            let started = Instant::now();
            let out = self.tick(tr);
            aux_ns = started.elapsed().as_nanos() as u64;
            let tick = out.summarize(digest);
            outcome.attempted += tick.attempted;
            outcome.failed += tick.failed;
            outcome.reports += tick.reports;
            outcome.tuples_out += tick.tuples_out;
            outcome.digest = oracle::chain(outcome.digest, 0, tick.digest);
        }
        self.account(&outcome);
        Ok(OpResult {
            ns,
            aux_ns,
            outcome,
        })
    }

    /// The statement must not fail, and where a naive scan of the
    /// generated rows predicts a row or action count, it must match.
    fn check_statement(stmt: &Stmt, out: &sut::StmtOut, o: &OpOutcome) -> Result<(), String> {
        if let Some(e) = out.error() {
            return Err(format!("statement failed: {e}: {}", stmt.text));
        }
        if let (Some(want), got) = (stmt.expect_rows, out.rows()) {
            if got != Some(want) {
                return Err(format!(
                    "oracle: {} returned {got:?} rows, a naive scan gives {want}",
                    stmt.text
                ));
            }
        }
        if o.actions != stmt.expect_actions as u64 {
            return Err(format!(
                "oracle: {} reported {} actions, expected {}",
                stmt.text, o.actions, stmt.expect_actions
            ));
        }
        Ok(())
    }

    /// Compare every windowed query's current relation with the naive
    /// recomputation at the instant just ticked. Returns queries checked.
    pub fn check_relations(&self) -> Result<usize, String> {
        if self.next_op == 0 || self.next_op > self.inputs.rows.len() || self.serial.is_some() {
            return Ok(0);
        }
        let at = self.next_op - 1;
        let mut checked = 0;
        for (name, spec) in self.queries.iter().filter(|(_, s)| s.oracle_checked()) {
            let (names, got) = self
                .rt
                .relation(name)
                .ok_or_else(|| format!("oracle: query {name} has no current relation"))?;
            let want = oracle::expected(spec, &self.inputs.rows, at, &self.rooms)
                .ok_or_else(|| format!("oracle: no recomputation for {name}"))?;
            oracle::compare(name, at, &names, &got, want)?;
            checked += 1;
        }
        Ok(checked)
    }

    /// Names of the registered queries.
    pub fn query_names(&self) -> Vec<String> {
        self.queries.iter().map(|(n, _)| n.clone()).collect()
    }

    /// The closed forms: every message in an outbox is an action some
    /// report carried; on `beta_sampling` the sampling queries issued
    /// exactly four calls per deployed sensor per instant, the dedup layer
    /// saw every call the queries issued, and it let through one call per
    /// sensor and instant, one per camera and one per message.
    pub fn check_counts(&self) -> Result<(), String> {
        let outbox = self.rt.outbox_total();
        if outbox != self.totals.actions {
            return Err(format!(
                "oracle: {outbox} messages in the outboxes, {} actions reported",
                self.totals.actions
            ));
        }
        if self.w.kind != Kind::BetaSampling {
            return Ok(());
        }
        let sampled: Vec<String> = self
            .queries
            .iter()
            .filter(|(_, s)| *s == QuerySpec::Sample)
            .map(|(n, _)| n.clone())
            .collect();
        let issued = self.rt.query_totals(&sampled).invocations;
        let want = sampled.len() as u64 * self.totals.sensor_ticks;
        if issued != want {
            return Err(format!(
                "oracle: sampling queries issued {issued} calls, closed form gives {want}"
            ));
        }
        let total = self.rt.query_totals(&self.query_names()).invocations;
        let (hits, misses) = self.rt.dedup_stats();
        if hits + misses != total {
            return Err(format!(
                "oracle: dedup saw {hits}+{misses} calls, the queries issued {total}"
            ));
        }
        let want_misses = self.totals.sensor_ticks + self.w.sizes.cameras as u64 + outbox;
        if misses != want_misses {
            return Err(format!(
                "oracle: {misses} upstream calls, closed form gives {want_misses}"
            ));
        }
        Ok(())
    }
}

/// A `SELECT` executed through the stages `run_sql` composes, each under
/// its own span. Must return what `run_sql` returns: the digest of a
/// traced run is compared with the untraced run's.
pub fn staged_select(rt: &Runtime, text: &str, tr: &mut Tracer) -> sut::StmtOut {
    let run = |tr: &mut Tracer| -> Result<sut::StmtOut, String> {
        let plan = tr.span("ddl.compile_select", |_| rt.stage_compile_select(text))?;
        let one_shot = tr.span("ddl.to_one_shot", |_| rt.stage_to_one_shot(&plan))?;
        let env = tr.span("tables.snapshot_env", |_| rt.snapshot_env());
        let physical = tr.span("physical.compile", |_| {
            rt.stage_physical_compile(&one_shot, &env)
        })?;
        let out = tr.span("physical.execute", |_| rt.stage_execute(&physical, &env));
        tr.count("physical.rows_out", out.rows().unwrap_or(0) as u64);
        tr.count("physical.statements", 1);
        Ok(out)
    };
    run(tr).unwrap_or_else(sut::StmtOut::failed)
}
