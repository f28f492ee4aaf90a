//! Cross-crate telemetry integration: a PEMS scenario with injected faults
//! drives the whole observability pipeline — per-service health, the metric
//! registry's Prometheus export, and the flight recorder's spans.

use std::sync::Arc;

use serena::pems::Pems;
use serena::services::bus::BusConfig;
use serena::services::faults::{FaultPolicy, FaultyService};
use serena::services::health::HealthStatus;

/// Registers a healthy and an always-failing temperature sensor, an
/// extended `sensors` relation bound to `getTemperature`, and a continuous
/// query invoking it.
fn deploy(pems: &mut Pems) -> Arc<FaultyService> {
    use serena::core::service::fixtures;
    let reg = pems.directory();
    reg.register("steady", fixtures::temperature_sensor(1));
    let flaky = FaultyService::new(
        fixtures::temperature_sensor(2),
        // period 1, zero successes → every call fails
        FaultPolicy::Intermittent { fail: 1, ok: 0 },
    );
    reg.register("flaky", flaky.clone());
    pems.run_program(
        "PROTOTYPE getTemperature( ) : ( temperature REAL );
         EXTENDED RELATION sensors (
           sensor SERVICE, location STRING, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getTemperature[sensor] );
         INSERT INTO sensors VALUES ('steady', 'office'), ('flaky', 'roof');
         REGISTER QUERY temps AS INVOKE[getTemperature[sensor]](sensors);",
    )
    .unwrap();
    flaky
}

#[test]
fn faulty_service_health_and_prometheus_through_ticks() {
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    let flaky = deploy(&mut pems);

    let ticks = 4u64;
    for _ in 0..ticks {
        pems.tick();
    }

    // -- health reflects the injected fault policy exactly --
    let health = pems.service_health();
    assert_eq!(health.len(), 2);
    let by_name = |n: &str| health.iter().find(|h| h.reference.as_str() == n).unwrap();
    let steady = by_name("steady");
    assert_eq!(steady.status(), HealthStatus::Healthy);
    assert_eq!(steady.failures, 0);
    let bad = by_name("flaky");
    assert_eq!(bad.attempts, flaky.attempts(), "tracker sees every attempt");
    assert!(bad.failures > 0);
    assert_eq!(bad.failure_rate, 1.0);
    if bad.consecutive_errors >= 3 {
        assert_eq!(bad.status(), HealthStatus::Down);
    } else {
        assert_eq!(bad.status(), HealthStatus::Degraded);
    }

    // -- the flight recorder saw the whole lifecycle --
    let spans = pems.flight_recorder().snapshot();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("query.register"), 1);
    assert_eq!(count("query.tick"), ticks as usize);
    assert!(count("beta.attempt") >= 2, "β invocations traced");
    // every failed attempt names its service and carries its error text
    let failed: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "beta.attempt" && s.attr_u64("ok") == Some(0))
        .collect();
    assert!(!failed.is_empty(), "injected faults traced");
    for s in &failed {
        assert_eq!(s.attr_str("service"), Some("flaky"));
        assert_eq!(s.attr_str("prototype"), Some("getTemperature"));
        assert!(s.attr_str("error").is_some_and(|e| !e.is_empty()), "{s:?}");
    }
    let errors: u64 = spans
        .iter()
        .filter(|s| s.name == "query.tick")
        .map(|s| s.attr_u64("errors").unwrap())
        .sum();
    assert_eq!(
        errors,
        failed.len() as u64,
        "one query error per failed call"
    );

    // -- Prometheus export is well-formed and carries the query series --
    let text = pems.render_metrics();
    assert_prometheus_well_formed(&text);
    assert!(text.contains(&format!(
        "serena_query_ticks_total{{query=\"temps\"}} {ticks}"
    )));
    assert!(text.contains("serena_query_tick_duration_ns_bucket{query=\"temps\""));
    assert!(text.contains("serena_query_lag_ns_count{query=\"temps\"}"));
    assert!(text.contains("serena_service_failures_total{service=\"flaky\"}"));
    assert!(text.contains("serena_queries_registered 1"));
}

/// Parse a Prometheus label block (the text between `{` and `}`) into
/// `(name, escaped-value)` pairs, validating the escaping as it goes.
/// Unlike a naive `split(',')`, this respects quoting: label *values* may
/// contain commas, spaces, braces and `le="…"` look-alikes, and use the
/// exposition escapes `\\`, `\"`, `\n` (plus this codebase's `\r`).
fn parse_labels(block: &str, line: &str) -> Vec<(String, String)> {
    let bytes = block.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let key_start = i;
        while i < bytes.len() && bytes[i] != b'=' {
            i += 1;
        }
        let key = &block[key_start..i];
        assert!(
            !key.is_empty()
                && key
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '+'),
            "invalid label name `{key}` in: {line}"
        );
        i += 1; // '='
        assert_eq!(bytes.get(i), Some(&b'"'), "unquoted label value in: {line}");
        i += 1;
        let val_start = i;
        loop {
            match bytes.get(i) {
                Some(b'"') => break,
                Some(b'\\') => match bytes.get(i + 1) {
                    Some(b'\\' | b'"' | b'n' | b'r') => i += 2,
                    other => panic!("invalid escape \\{other:?} in: {line}"),
                },
                Some(b'\n' | b'\r') => panic!("raw control char in label value: {line}"),
                Some(_) => i += 1,
                None => panic!("unterminated label value in: {line}"),
            }
        }
        out.push((key.to_string(), block[val_start..i].to_string()));
        i += 1; // closing '"'
        match bytes.get(i) {
            Some(b',') => i += 1,
            None => break,
            Some(other) => panic!("junk `{}` after label value in: {line}", *other as char),
        }
    }
    out
}

/// Undo [`parse_labels`]' escaped value — the round-trip check for hostile
/// label values.
fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => panic!("invalid escape \\{other:?}"),
        }
    }
    out
}

/// Minimal Prometheus text-format validator: every line is a comment or
/// `name{labels} value` with properly quoted/escaped label values;
/// histogram buckets are cumulative, end at `+Inf`, and agree with their
/// `_count` series.
fn assert_prometheus_well_formed(text: &str) {
    use std::collections::HashMap;
    let mut last_bucket: HashMap<String, u64> = HashMap::new();
    let mut inf_bucket: HashMap<String, u64> = HashMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("not `series value`: {line}");
        });
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("non-numeric sample value in: {line}");
        });
        assert!(value >= 0.0, "negative sample in: {line}");
        if let Some((name, rest)) = series.split_once('{') {
            assert!(rest.ends_with('}'), "unterminated labels: {line}");
            let labels = parse_labels(&rest[..rest.len() - 1], line);
            if let Some(stripped) = name.strip_suffix("_bucket") {
                // key the bucket run by series-without-le
                let others: Vec<String> = labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}=\"{v}\""))
                    .collect();
                let key = format!("{stripped}{{{}}}", others.join(","));
                let cum = value as u64;
                let prev = last_bucket.insert(key.clone(), cum).unwrap_or(0);
                assert!(cum >= prev, "non-cumulative bucket in: {line}");
                if labels.iter().any(|(k, v)| k == "le" && v == "+Inf") {
                    inf_bucket.insert(key, cum);
                }
            }
        }
    }
    assert!(!inf_bucket.is_empty(), "no histogram rendered");
    for (key, cum) in &inf_bucket {
        let (name, labels) = key.split_once('{').unwrap();
        let count_line = format!("{name}_count{{{labels} {cum}");
        assert!(
            text.contains(&count_line),
            "`+Inf` bucket disagrees with _count for {key}"
        );
    }
}

/// Regression (ISSUE 8 satellite): a service whose *name* contains every
/// character the exposition format is sensitive to — quotes, backslashes,
/// newlines, carriage returns, commas, spaces, braces, even an `le="+Inf"`
/// decoy — must render as escaped label values the validator parses, and
/// the escaped value must round-trip back to the original name.
#[test]
fn hostile_service_names_render_escaped_and_round_trip() {
    use serena::core::service::fixtures;
    use serena::core::value::Value;

    let hostile = "sensor \"A\"\\roof\n{office},le=\"+Inf\" \r v2";
    let mut pems = Pems::builder().bus(BusConfig::instant()).build();
    pems.directory()
        .register(hostile, fixtures::temperature_sensor(3));
    pems.run_program(
        "PROTOTYPE getTemperature( ) : ( temperature REAL );
         EXTENDED RELATION sensors (
           sensor SERVICE, location STRING, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getTemperature[sensor] );
         REGISTER QUERY temps AS INVOKE[getTemperature[sensor]](sensors);",
    )
    .unwrap();
    pems.tables()
        .insert(
            "sensors",
            serena::core::tuple![Value::service(hostile), Value::str("roof")],
        )
        .unwrap();
    pems.tick();

    let text = pems.render_metrics();
    assert_prometheus_well_formed(&text);
    assert!(
        !text.contains('\r'),
        "raw carriage return leaked into the exposition"
    );
    // find the per-service series and round-trip its escaped label value
    let mut seen = false;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, _)) = line.rsplit_once(' ') else {
            continue;
        };
        let Some((name, rest)) = series.split_once('{') else {
            continue;
        };
        if !name.starts_with("serena_service_") {
            continue;
        }
        for (k, v) in parse_labels(&rest[..rest.len() - 1], line) {
            if k == "service" {
                assert_eq!(unescape_label(&v), hostile, "escaping did not round-trip");
                seen = true;
            }
        }
    }
    assert!(seen, "no per-service series rendered for the hostile name");
}
