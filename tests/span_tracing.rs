//! ISSUE 8 acceptance — hierarchical span tracing: on a realistic
//! generated workload, the flight recorder's span tree is well formed
//! under every scheduler shape (workers {1, 4} × cross-query β dedup
//! on/off):
//!
//! * every retained span is **closed** (`end_ns ≥ start_ns > 0`) — the
//!   ring only ever holds completed spans;
//! * every child whose parent is still in the snapshot nests **within**
//!   its parent's interval (the RAII guards bracket inner work, including
//!   across the scheduler's thread hop);
//! * per query, the `query.tick` spans' logical instants are monotone;
//! * the Chrome/Perfetto export is syntactically valid JSON with the
//!   expected event structure and attributes.

use serena::core::telemetry::{chrome_trace, SpanRecord};
use serena::core::time::Instant;
use serena::pems::envspec::{ArrivalTrace, EnvSpec, QueryTemplate, WorkloadSpec};
use serena::pems::{Pems, SchedulerConfig};
use serena::services::fleet::FailureProfile;
use serena::services::resilience::ResiliencePolicy;

const TICKS: u64 = 6;

/// The E16-small environment (the determinism suite's spec): 64 flaky
/// sensors, 8 cameras, a heat event and trace-driven arrivals.
fn spec() -> EnvSpec {
    EnvSpec::new(1234)
        .sensors(64)
        .cameras(8)
        .failures(FailureProfile::new(0.3, 1.0))
        .heat_event(3, Instant(2), Instant(4), 40.0)
        .arrivals(ArrivalTrace::new(1234).mean_per_tick(24))
}

fn workload() -> WorkloadSpec {
    WorkloadSpec::new()
        .queries(
            QueryTemplate::HotAreas {
                window: 3,
                threshold: 30.0,
            },
            4,
        )
        .queries(QueryTemplate::AreaWatch { window: 2 }, 3)
        .queries(QueryTemplate::RecentReadings { window: 4 }, 2)
        .queries(QueryTemplate::SensorInventory, 1)
        // β-bearing: real invocations → beta/beta.attempt spans
        .queries(QueryTemplate::SampledTemperatures { every: 1 }, 2)
}

fn run(workers: usize, dedup: bool, resilience: bool) -> (Pems, Vec<SpanRecord>) {
    let s = spec();
    let mut builder = Pems::builder()
        .scheduler(SchedulerConfig::new(workers))
        .dedup(dedup)
        .tracing(true);
    if resilience {
        builder = builder.resilience(ResiliencePolicy::standard());
    }
    let mut pems = builder.build();
    s.install_catalog(&mut pems).expect("catalog installs");
    s.deploy_into(&pems);
    workload()
        .register_into(&mut pems, &s)
        .expect("workload registers");
    for _ in 0..TICKS {
        pems.tick();
    }
    let spans = pems.flight_recorder().snapshot();
    (pems, spans)
}

fn assert_span_tree_invariants(spans: &[SpanRecord], label: &str) {
    use std::collections::HashMap;
    assert!(!spans.is_empty(), "{label}: no spans retained");
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "{label}: duplicate span ids");
    for s in spans {
        assert_ne!(s.id, 0, "{label}: span id 0 is reserved for 'no parent'");
        assert!(
            s.end_ns >= s.start_ns && s.end_ns > 0,
            "{label}: span {} ({}) retained unclosed",
            s.id,
            s.name
        );
        if s.parent != 0 {
            if let Some(p) = by_id.get(&s.parent) {
                assert!(
                    s.start_ns >= p.start_ns && s.end_ns <= p.end_ns,
                    "{label}: span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                    s.id,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    p.id,
                    p.name,
                    p.start_ns,
                    p.end_ns
                );
                assert_eq!(
                    s.at, p.at,
                    "{label}: span {} ({}) is not at its parent {} ({})'s instant",
                    s.id, s.name, p.id, p.name
                );
            }
        }
    }
    // per query, tick instants are monotone in recording order (the
    // snapshot is sorted by start time)
    let mut per_query: HashMap<&str, Vec<&SpanRecord>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "query.tick") {
        let q = s.attr_str("query").expect("query.tick has a query attr");
        per_query.entry(q).or_default().push(s);
    }
    assert!(!per_query.is_empty(), "{label}: no query.tick spans");
    for (q, ticks) in per_query {
        for w in ticks.windows(2) {
            assert!(
                w[0].at.ticks() <= w[1].at.ticks(),
                "{label}: query {q} tick instants regressed: {:?} then {:?}",
                w[0].at,
                w[1].at
            );
        }
    }
}

#[test]
fn span_tree_invariants_hold_across_workers_and_dedup() {
    for workers in [1usize, 4] {
        for dedup in [true, false] {
            let label = format!("workers={workers} dedup={dedup}");
            let (pems, spans) = run(workers, dedup, false);
            assert_span_tree_invariants(&spans, &label);

            let names: std::collections::HashSet<&str> = spans.iter().map(|s| s.name).collect();
            assert!(names.contains("sched.round"), "{label}: no round spans");
            assert!(names.contains("query.tick"), "{label}: no tick spans");
            assert!(
                names.iter().any(|n| n.starts_with("op.")),
                "{label}: no operator spans"
            );
            assert!(
                names.contains("beta.attempt"),
                "{label}: no β attempt spans"
            );
            // the dedup layer only exists (and only spans) when armed
            assert_eq!(
                names.contains("beta"),
                dedup,
                "{label}: dedup span mismatch"
            );
            // every round runs its queries as jobs, on the caller alone at
            // one worker; a job carries its worker, queue wait and weight
            // and nothing else, and hangs off its round span, across the
            // thread hop too
            let jobs: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "sched.job").collect();
            assert!(jobs.iter().all(|j| {
                let keys: Vec<&str> = j.attrs.iter().map(|(k, _)| *k).collect();
                keys == ["queue_wait_ns", "worker", "weight_ns"]
                    && j.attr_u64("worker").is_some()
                    && j.attr_u64("queue_wait_ns").is_some()
                    && j.attr_u64("weight_ns").is_some()
            }));
            assert_eq!(pems.flight_recorder().dropped_total(), 0, "{label}");
            for round in spans.iter().filter(|s| s.name == "sched.round") {
                assert!(
                    jobs.iter().any(|j| j.parent == round.id),
                    "{label}: round {} has no job span",
                    round.id
                );
            }
            if workers == 1 {
                assert!(jobs.iter().all(|j| j.attr_u64("worker") == Some(0)));
            }
        }
    }
}

#[test]
fn retries_and_dedup_attributes_surface_in_spans() {
    let (_pems, spans) = run(4, true, true);
    assert_span_tree_invariants(&spans, "resilient run");
    // the resilient layer wraps every call: attempts/retries/breaker/ok
    let calls: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "beta.call").collect();
    assert!(!calls.is_empty(), "no beta.call spans under resilience");
    assert!(calls.iter().all(|c| {
        c.attr_u64("attempts").is_some()
            && c.attr_u64("retries").is_some()
            && c.attr_str("breaker").is_some()
            && c.attr_u64("ok").is_some()
    }));
    // the 30%-flaky fleet forces some retries within the retained window
    assert!(
        calls.iter().any(|c| c.attr_u64("retries") > Some(0)),
        "no retried call retained despite the failure profile"
    );
    // dedup spans classify every β entry as call/hit/wait
    let betas: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "beta").collect();
    assert!(!betas.is_empty());
    assert!(betas
        .iter()
        .all(|b| matches!(b.attr_str("dedup"), Some("call" | "hit" | "wait"))));
}

#[test]
fn chrome_trace_export_is_valid_json_with_nested_events() {
    let (pems, spans) = run(4, true, true);
    let text = chrome_trace(&spans);
    let mut p = Json::new(&text);
    p.value();
    p.skip_ws();
    assert!(p.ok, "chrome trace is not valid JSON near byte {}", p.pos);
    assert_eq!(p.pos, p.bytes.len(), "trailing garbage after JSON value");

    assert!(text.contains("\"traceEvents\""));
    for name in ["sched.round", "query.tick", "beta.call", "beta.attempt"] {
        assert!(
            text.contains(&format!("\"name\":\"{name}\"")),
            "{name} missing"
        );
    }
    for attr in ["\"retries\"", "\"dedup\"", "\"breaker\"", "\"parent\""] {
        assert!(text.contains(attr), "{attr} missing from event args");
    }

    // the shell's `.trace` path writes the same bytes
    let path = std::env::temp_dir().join(format!("serena-trace-{}.json", std::process::id()));
    let written = pems.export_trace(&path).expect("export writes");
    assert_eq!(written, spans.len());
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    let _ = std::fs::remove_file(&path);
}

/// CI smoke artifact: a scheduler+dedup+resilience run exported to
/// `target/trace_smoke.json`, validated structurally by the workflow's
/// python step (valid JSON, nested spans, worker/dedup/retry attributes).
#[test]
fn ci_smoke_trace_export() {
    let (pems, spans) = run(4, true, true);
    assert!(!spans.is_empty());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    let _ = std::fs::create_dir_all(&dir);
    let n = pems
        .export_trace(dir.join("trace_smoke.json"))
        .expect("smoke export writes");
    assert_eq!(n, spans.len());
}

/// A minimal JSON syntax checker — just enough to assert the exported
/// trace *parses*, without pulling a serde dependency into the workspace.
struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
    ok: bool,
}

impl<'a> Json<'a> {
    fn new(text: &'a str) -> Self {
        Json {
            bytes: text.as_bytes(),
            pos: 0,
            ok: true,
        }
    }
    fn fail(&mut self) {
        self.ok = false;
    }
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }
    fn expect(&mut self, b: u8) {
        if self.peek() == Some(b) {
            self.pos += 1;
        } else {
            self.fail();
        }
    }
    fn value(&mut self) {
        if !self.ok {
            return;
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.fail(),
        }
    }
    fn object(&mut self) {
        self.expect(b'{');
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return;
        }
        loop {
            self.skip_ws();
            self.string();
            self.skip_ws();
            self.expect(b':');
            self.value();
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return;
                }
                _ => return self.fail(),
            }
            if !self.ok {
                return;
            }
        }
    }
    fn array(&mut self) {
        self.expect(b'[');
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return;
        }
        loop {
            self.value();
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return;
                }
                _ => return self.fail(),
            }
            if !self.ok {
                return;
            }
        }
    }
    fn string(&mut self) {
        self.expect(b'"');
        while self.ok {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return self.fail(),
                                }
                            }
                        }
                        _ => return self.fail(),
                    }
                }
                Some(c) if c >= 0x20 => self.pos += 1,
                _ => return self.fail(),
            }
        }
    }
    fn number(&mut self) {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let start = p.pos;
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > start
        };
        if !digits(self) {
            return self.fail();
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return self.fail();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                self.fail();
            }
        }
    }
    fn literal(&mut self, word: &[u8]) {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
        } else {
            self.fail();
        }
    }
}
