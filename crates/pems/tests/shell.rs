//! Black-box tests of the `pems_shell` binary: scripted sessions over
//! stdin, asserting on stdout — the way a user (or a CI pipeline) drives
//! the PEMS without writing Rust.

use std::io::Write;
use std::process::{Command, Output, Stdio};

/// The shell run over `script` with `vars` set in its environment.
fn run_shell_with(vars: &[(&str, &str)], script: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pems_shell"))
        .envs(vars.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("shell binary spawns");
    // a shell that refuses its environment exits before it reads stdin
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes());
    child.wait_with_output().expect("shell exits")
}

fn run_shell(script: &str) -> String {
    let out = run_shell_with(&[], script);
    assert!(out.status.success(), "shell exited with {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn demo_one_shot_query_via_algebra_language() {
    let out = run_shell(
        ".demo\n\
         EXECUTE PROJECT[name](SELECT[messenger = 'email'](contacts));\n\
         .quit\n",
    );
    assert!(out.contains("loaded the paper's running example"));
    assert!(out.contains("Nicolas"));
    assert!(out.contains("Carla"));
    assert!(
        !out.contains("Francois"),
        "jabber contact must be filtered:\n{out}"
    );
}

#[test]
fn demo_sql_and_ticks() {
    let out = run_shell(
        ".demo\n\
         SELECT location, avg(temperature) AS mean FROM sensors USING getTemperature[sensor] GROUP BY location;\n\
         REGISTER QUERY watch AS sensors;\n\
         .tick 3\n\
         .queries\n\
         .quit\n",
    );
    assert!(out.contains("mean"));
    assert!(out.contains("office"));
    assert!(out.contains("registered continuous query `watch`"));
    assert!(out.contains("clock = τ=3"));
    assert!(out.contains("watch: 3 ticks"));
}

#[test]
fn errors_do_not_kill_the_session() {
    let out = run_shell(
        "EXECUTE PROJECT[name](ghost);\n\
         .nonsense\n\
         .demo\n\
         .show contacts\n\
         .quit\n",
    );
    assert!(out.contains("error:"));
    assert!(out.contains("unknown command"));
    // the session survived both errors and still loaded the demo
    assert!(out.contains("nicolas@elysee.fr"));
}

/// Acceptance (PR 3): `\metrics` renders valid Prometheus text (counters +
/// histogram buckets) for a scenario run, and `\health` reports every
/// service the run invoked. Backslash aliases exercise the psql-style
/// prefix; the query invokes β so service series exist.
#[test]
fn metrics_and_health_commands() {
    let out = run_shell(
        ".demo\n\
         REGISTER QUERY temps AS INVOKE[getTemperature[sensor]](sensors);\n\
         \\tick 2\n\
         \\metrics\n\
         \\health\n\
         .quit\n",
    );
    // Prometheus text: TYPE headers, counters, histogram buckets
    assert!(out.contains("# TYPE serena_op_applications_total counter"));
    assert!(out.contains("# TYPE serena_service_latency_ns histogram"));
    assert!(out.contains("serena_service_latency_ns_bucket"));
    assert!(out.contains("le=\"+Inf\""));
    assert!(out.contains("serena_query_ticks_total{query=\"temps\"} 2"));
    assert!(out.contains("serena_queries_registered 1"));
    // health table: every sensor invoked, all healthy
    assert!(out.contains("service"));
    for sensor in ["sensor01", "sensor06", "sensor07", "sensor22"] {
        assert!(out.contains(sensor), "missing {sensor} in:\n{out}");
    }
    assert!(out.contains("healthy"));
    assert!(!out.contains("unknown command"), "alias failed:\n{out}");
}

#[test]
fn tables_and_result_commands() {
    let out = run_shell(
        ".demo\n\
         REGISTER QUERY emails AS SELECT[messenger = 'email'](contacts);\n\
         .tick 1\n\
         .result emails\n\
         .tables\n\
         .quit\n",
    );
    assert!(out.contains("carla@elysee.fr"));
    assert!(out.contains("contacts (3 tuples)"));
    assert!(out.contains("sensors (4 tuples)"));
}

/// `.explain` shows where the lowering put each `WHERE` conjunct — on the
/// `FROM` items that bind it, under the join — and executes nothing: the
/// active `sendMessage` of the second statement sends no message.
#[test]
fn explain_prints_the_lowered_algebra_without_executing() {
    let out = run_shell(
        ".demo\n\
         EXTENDED RELATION rooms ( location STRING, floor INTEGER );\n\
         .explain SELECT sensor, floor FROM sensors, rooms WHERE location = 'office' AND floor = 2;\n\
         \\explain SELECT sent FROM contacts WITH text := 'Hi' USING sendMessage[messenger] WHERE name <> 'Carla'\n\
         .explain SELECT FROM contacts USING teleport[messenger];\n\
         .explain\n\
         .plan watch\n\
         .help\n\
         .metrics\n\
         .quit\n",
    );
    assert!(
        out.contains(
            "π sensor,floor ((σ location = 'office' (sensors) \
             ⋈ σ floor = 2 (σ location = 'office' (rooms))))"
        ),
        "σ under ⋈ on both sides:\n{out}"
    );
    assert!(
        out.contains(
            "π sent (β sendMessage[messenger] (α text:='Hi' (σ name <> 'Carla' (contacts))))"
        ),
        "a single-item statement lowers as it always did:\n{out}"
    );
    assert!(!out.contains("actions:"), "nothing is executed:\n{out}");
    assert!(!out.contains("serena_service_calls_total{"), "{out}");
    assert!(out.contains("error: unknown prototype `teleport`"), "{out}");
    assert!(out.contains("usage: .explain <SELECT …>"));
    assert!(out.contains(".explain <SELECT …> | .checkpoint <dir> | .restore <dir>"));
    assert!(!out.contains(".plan <query>"), "{out}");
    assert!(out.contains("unknown command `.plan` — try .help"), "{out}");
}

/// `.tick` with a count it cannot read names the count and ticks nothing;
/// without a count it ticks once.
#[test]
fn a_malformed_tick_count_is_an_error_not_one_tick() {
    let out = run_shell(
        ".demo\n\
         REGISTER QUERY watch AS contacts;\n\
         .tick abc\n\
         .tick -3\n\
         .tick 2.5\n\
         .queries\n\
         .tick\n\
         .queries\n\
         .quit\n",
    );
    for count in ["abc", "-3", "2.5"] {
        assert!(
            out.contains(&format!("error: .tick {count}: expected a count of ticks")),
            "{count}: {out}"
        );
    }
    let ticks: Vec<&str> = out.lines().filter(|l| l.starts_with("watch: ")).collect();
    assert_eq!(ticks.len(), 2, "{out}");
    assert!(ticks[0].starts_with("watch: 0 ticks"), "{out}");
    assert!(ticks[1].starts_with("watch: 1 ticks"), "{out}");
    assert_eq!(out.matches("clock = ").count(), 1, "{out}");
}

/// A worker count the shell cannot use stops it before it starts, with a
/// message naming the variable and its value — never a silent default.
#[test]
fn a_malformed_worker_count_stops_the_shell_and_names_it() {
    for value in ["abc", "0", "-2", ""] {
        let out = run_shell_with(&[("SERENA_SCHED_WORKERS", value)], ".demo\n.quit\n");
        assert!(
            !out.status.success(),
            "SERENA_SCHED_WORKERS={value:?} was accepted"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("SERENA_SCHED_WORKERS={value}:")),
            "{value:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{value:?}: the session ran");
    }
}

/// The worker count the environment names is the one the rounds run on:
/// `.top` shows the caller and one scoped thread.
#[test]
fn a_worker_count_from_the_environment_shows_in_top() {
    let out = run_shell_with(
        &[("SERENA_SCHED_WORKERS", "2")],
        ".demo\n\
         REGISTER QUERY a AS contacts;\n\
         REGISTER QUERY b AS contacts;\n\
         .tick 3\n\
         .top\n\
         .quit\n",
    );
    assert!(out.status.success(), "shell exited with {:?}", out.status);
    let out = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.contains("  worker 0: "), "{out}");
    assert!(out.contains("  worker 1: "), "{out}");
    assert!(!out.contains("  worker 2: "), "{out}");
}

/// A transport name nobody serves is an error from `.serve`, not an
/// in-proc endpoint; the session goes on.
#[test]
fn an_unknown_transport_is_an_error_not_an_inproc_endpoint() {
    let out = run_shell_with(
        &[("SERENA_TRANSPORT", "sokcet")],
        ".serve inproc:shell-unknown-transport\n\
         .connect inproc:shell-unknown-transport\n\
         .demo\n\
         .quit\n",
    );
    assert!(out.status.success(), "shell exited with {:?}", out.status);
    let out = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(!out.contains("serving node"), "{out}");
    let errors = out
        .lines()
        .filter(|l| l.starts_with("error: SERENA_TRANSPORT:"));
    for line in errors.clone() {
        assert!(line.contains("unknown transport `sokcet`"), "{line}");
    }
    assert_eq!(errors.count(), 2, "{out}");
    assert!(out.contains("loaded the paper's running example"), "{out}");
}
