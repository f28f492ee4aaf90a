//! `pems-shell` — an interactive (or scripted) PEMS session.
//!
//! The GUI of the paper's prototype ("Through the PEMS GUI, XD-Relations
//! have been created … and continuous queries have been registered"),
//! reduced to a line shell:
//!
//! * any Serena DDL / algebra statement terminated by `;` is executed;
//! * dot-commands drive the runtime:
//!   * `.tick [n]` — advance n logical instants (default 1), printing each
//!     query's delta/batch/actions;
//!   * `.tables` — list relations; `.show <rel>` — print a table snapshot;
//!   * `.queries` — registered queries with stats;
//!   * `.result <query>` — current result of a finite continuous query;
//!   * `.metrics` — every telemetry series in the Prometheus text format;
//!   * `.health` — per-service health (attempts, failure rate, status);
//!   * `.top` — live dashboard: worker utilization, per-query tick
//!     latency, per-service health and breakers;
//!   * `.profile <query>` — per-query tick timeline and slowest operators
//!     from the flight recorder;
//!   * `.trace <file>` — export the retained spans as a Chrome/Perfetto
//!     `trace.json` (the recorder keeps the last 16 384);
//!   * `.explain <SELECT …>` — the algebra expression a Serena SQL
//!     statement lowers to (where each `WHERE` conjunct went); nothing is
//!     executed, so an active `USING` prototype sends nothing;
//!   * `.demo` — load the paper's running example (Tables 1–2, Example 4's
//!     tuples, simulated services);
//!   * `.checkpoint <dir>` — write a snapshot of the dynamic state;
//!     `.restore <dir>` — rehydrate it (after re-running the static
//!     setup, e.g. `.demo` and the `REGISTER QUERY` statements);
//!   * `.help`, `.quit`.
//!
//! Every dot-command also accepts a backslash prefix (`\metrics`,
//! `\health`, `\tick` …), psql-style.
//!
//! The shell reads four environment variables (the library reads none):
//! `SERENA_SCHED_WORKERS` (threads per tick round, ≥ 1; a malformed value
//! stops the shell), `SERENA_NODE_ID`, `SERENA_TRANSPORT` (`inproc` or
//! `socket`, for `.serve` / `.connect` / `.replicate`) and
//! `PEMS_SHELL_INTERACTIVE`.
//!
//! ```sh
//! cargo run -p serena-pems --bin pems-shell            # interactive
//! echo '.demo
//! EXECUTE PROJECT[name](contacts);
//! .quit' | cargo run -p serena-pems --bin pems-shell   # scripted
//! ```

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use serena_pems::{ExecOutcome, Pems, PemsError, SchedulerConfig};
use serena_services::bus::BusConfig;
use serena_services::node::NodeHandle;
use serena_services::transport::{self, Transport};

fn main() {
    let stdin = io::stdin();
    let node_id = std::env::var("SERENA_NODE_ID").unwrap_or_else(|_| "node0".to_string());
    let mut builder = Pems::builder().bus(BusConfig::instant()).node_id(node_id);
    if let Some(value) = std::env::var_os("SERENA_SCHED_WORKERS") {
        let value = value.to_string_lossy();
        let Some(n) = value.parse().ok().filter(|&n: &usize| n > 0) else {
            eprintln!("error: SERENA_SCHED_WORKERS={value}: expected a worker count of at least 1");
            std::process::exit(2);
        };
        builder = builder.scheduler(SchedulerConfig::new(n));
    }
    let mut pems = builder.build();
    let mut nodes: Vec<NodeHandle> = Vec::new();
    let mut buffer = String::new();
    // whether to print prompts: stdout-is-a-terminal cannot be asked
    // portably without libc, and the prompt is cosmetic
    let interactive = std::env::var("PEMS_SHELL_INTERACTIVE").is_ok_and(|v| v != "0");

    if interactive {
        println!("Serena PEMS shell — `.help` for commands, statements end with `;`");
    }
    prompt(interactive, &buffer);
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if buffer.is_empty() && (trimmed.starts_with('.') || trimmed.starts_with('\\')) {
            // `\metrics` and `.metrics` are the same command
            let cmd = match trimmed.strip_prefix('\\') {
                Some(rest) => format!(".{rest}"),
                None => trimmed.to_string(),
            };
            if !dot_command(&cmd, &mut pems, &mut nodes) {
                break;
            }
            prompt(interactive, &buffer);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        // execute once the buffer holds at least one full statement
        if trimmed.ends_with(';') {
            let program = std::mem::take(&mut buffer);
            // a leading SELECT is Serena SQL; everything else is DDL /
            // algebra-language statements
            let is_sql = program
                .trim_start()
                .get(..6)
                .is_some_and(|s| s.eq_ignore_ascii_case("select"));
            if is_sql {
                match pems.run_sql(None, &program) {
                    Ok(outcome) => print_outcome(outcome),
                    Err(e) => println!("error: {e}"),
                }
            } else {
                match pems.run_program(&program) {
                    Ok(outcomes) => {
                        for outcome in outcomes {
                            print_outcome(outcome);
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
        }
        prompt(interactive, &buffer);
    }
}

fn prompt(interactive: bool, buffer: &str) {
    if interactive {
        print!(
            "{}",
            if buffer.is_empty() {
                "serena> "
            } else {
                "   ...> "
            }
        );
        let _ = io::stdout().flush();
    }
}

fn print_outcome(outcome: ExecOutcome) {
    match outcome {
        ExecOutcome::Done => println!("ok"),
        ExecOutcome::Registered(name) => println!("registered continuous query `{name}`"),
        ExecOutcome::OneShot(out) => {
            print!("{}", out.relation.to_table());
            if !out.actions.is_empty() {
                println!("actions: {}", out.actions);
            }
        }
    }
}

/// The transport `SERENA_TRANSPORT` names (in-proc when unset).
fn named_transport() -> Result<Arc<dyn Transport>, PemsError> {
    let name = std::env::var("SERENA_TRANSPORT").ok();
    transport::select(name.as_deref())
        .map_err(|e| PemsError::Other(format!("SERENA_TRANSPORT: {e}")))
}

fn dot_command(cmd: &str, pems: &mut Pems, nodes: &mut Vec<NodeHandle>) -> bool {
    let mut parts = cmd.split_whitespace();
    match parts.next().unwrap_or("") {
        ".quit" | ".exit" => return false,
        ".help" => {
            println!(
                ".tick [n] | .tables | .show <rel> | .queries | .result <query>\n\
                 .metrics | .health | .top | .profile <query> | .trace <file>\n\
                 .explain <SELECT …> | .checkpoint <dir> | .restore <dir>\n\
                 .demo | .quit\n\
                 .serve <addr> | .connect <addr> | .replicate <addr> | .peers\n\
                 (backslash aliases work: \\metrics)\n\
                 …or any Serena DDL / algebra statement ending with `;`"
            );
        }
        ".tick" => {
            let arg = parts.next().unwrap_or("1");
            let Ok(n) = arg.parse::<u64>() else {
                println!("error: .tick {arg}: expected a count of ticks");
                return true;
            };
            for _ in 0..n {
                let at = pems.clock();
                for (name, report) in pems.tick() {
                    let mut notes = Vec::new();
                    if !report.delta.is_empty() {
                        notes.push(format!(
                            "+{} −{}",
                            report.delta.inserts.len(),
                            report.delta.deletes.len()
                        ));
                    }
                    if !report.batch.is_empty() {
                        notes.push(format!("batch {}", report.batch.len()));
                    }
                    if !report.actions.is_empty() {
                        notes.push(format!("actions {}", report.actions));
                    }
                    if !report.errors.is_empty() {
                        notes.push(format!("errors {}", report.errors.len()));
                    }
                    if !notes.is_empty() {
                        println!("{at} [{name}] {}", notes.join(" | "));
                    }
                }
            }
            println!("clock = {}", pems.clock());
        }
        ".tables" => {
            let env = pems.snapshot_environment();
            for (name, rel) in env.relations() {
                println!("{name} ({} tuples) {:?}", rel.len(), rel.schema());
            }
        }
        ".show" => match parts.next() {
            Some(name) => {
                let env = pems.snapshot_environment();
                match env.relation(name) {
                    Some(rel) => print!("{}", rel.to_table()),
                    None => println!("no finite relation `{name}`"),
                }
            }
            None => println!("usage: .show <relation>"),
        },
        ".queries" => {
            for name in pems.processor().names() {
                let stats = pems.processor().stats(name).expect("registered");
                println!(
                    "{name}: {} ticks, +{} −{} tuples, {} actions, {} errors",
                    stats.ticks, stats.inserted, stats.deleted, stats.actions, stats.errors
                );
            }
        }
        ".result" => match parts.next() {
            Some(name) => match pems.processor().current_relation(name) {
                Some(rel) => print!("{}", rel.to_table()),
                None => println!("no finite continuous query `{name}`"),
            },
            None => println!("usage: .result <query>"),
        },
        ".metrics" => print!("{}", pems.render_metrics()),
        ".health" => {
            let report = pems.service_health();
            if report.is_empty() {
                println!("no services observed yet — run a query that invokes β");
            } else {
                let breakers: std::collections::HashMap<_, _> =
                    pems.breakers().into_iter().collect();
                println!(
                    "{:<16} {:>8} {:>8} {:>6} {:>6}  {:<10} status",
                    "service", "attempts", "failures", "rate", "consec", "breaker"
                );
                for h in report {
                    let breaker = breakers
                        .get(&h.reference)
                        .copied()
                        .unwrap_or(serena_services::resilience::BreakerState::Closed);
                    println!(
                        "{:<16} {:>8} {:>8} {:>5.0}% {:>6}  {:<10} {}",
                        h.reference.as_str(),
                        h.attempts,
                        h.failures,
                        h.failure_rate * 100.0,
                        h.consecutive_errors,
                        format!("{breaker}"),
                        h.status()
                    );
                }
                let c = pems.resilience_counters();
                if !pems.resilience_policy().is_disabled() {
                    println!(
                        "resilience: {} retries, breaker opened {}×, {} rejected",
                        c.retries, c.breaker_opened, c.rejected
                    );
                }
            }
        }
        ".top" => print!("{}", pems.top()),
        ".profile" => match parts.next() {
            Some(query) => print!("{}", pems.profile(query)),
            None => println!("usage: .profile <query>"),
        },
        ".explain" => {
            let sql = cmd[".explain".len()..].trim();
            if sql.is_empty() {
                println!("usage: .explain <SELECT …>");
            } else {
                match serena_ddl::sql::compile_select(sql, pems.tables()) {
                    Ok(plan) => println!("{}", plan.to_algebra()),
                    Err(e) => println!("error: {e}"),
                }
            }
        }
        ".trace" => match parts.next() {
            Some(path) => match pems.export_trace(path) {
                Ok(n) => println!("wrote {n} spans to {path}"),
                Err(e) => println!("error: {e}"),
            },
            None => println!("usage: .trace <file>"),
        },
        ".checkpoint" => match parts.next() {
            Some(dir) => match pems.checkpoint_to(dir) {
                Ok(path) => println!("checkpoint written to {}", path.display()),
                Err(e) => println!("error: {e}"),
            },
            None => println!("usage: .checkpoint <dir>"),
        },
        ".restore" => match parts.next() {
            Some(dir) => match pems.restore_from(dir) {
                Ok(()) => println!("restored; clock = {}", pems.clock()),
                Err(e) => println!("error: {e}"),
            },
            None => println!("usage: .restore <dir>"),
        },
        ".serve" => match parts.next() {
            // SERENA_TRANSPORT=socket for tcp:/uds: addresses
            Some(addr) => match named_transport().and_then(|t| pems.serve(t, addr)) {
                Ok(handle) => {
                    println!("serving node `{}` at {}", pems.node_id(), handle.addr());
                    nodes.push(handle);
                }
                Err(e) => println!("error: {e}"),
            },
            None => println!("usage: .serve <addr>   (e.g. tcp:127.0.0.1:0, uds:/tmp/a.sock)"),
        },
        ".connect" => match parts.next() {
            Some(addr) => match named_transport().and_then(|t| pems.connect_peer(t, addr)) {
                Ok(node) => println!("linked peer `{node}` at {addr}"),
                Err(e) => println!("error: {e}"),
            },
            None => println!("usage: .connect <addr>"),
        },
        ".replicate" => match parts.next() {
            Some(addr) => match named_transport().and_then(|t| pems.replicate_to(t, addr)) {
                Ok(node) => println!("replicating checkpoints to `{node}` at {addr}"),
                Err(e) => println!("error: {e}"),
            },
            None => println!("usage: .replicate <addr>"),
        },
        ".peers" => {
            let peers = pems.peer_status();
            if peers.is_empty() {
                println!("no linked peers — use .connect <addr>");
            } else {
                for p in peers {
                    println!(
                        "{} at {} — {} ({} proxied services, last seen t={})",
                        p.node,
                        p.addr,
                        if p.alive { "alive" } else { "down" },
                        p.services,
                        p.last_seen.0,
                    );
                }
            }
        }
        ".demo" => match load_demo(pems) {
            Ok(()) => println!("loaded the paper's running example (Tables 1–2, Example 4)"),
            Err(e) => println!("error: {e}"),
        },
        other => println!("unknown command `{other}` — try .help"),
    }
    true
}

fn load_demo(pems: &mut Pems) -> Result<(), serena_pems::PemsError> {
    use serena_core::service::fixtures;
    let dir = pems.directory();
    dir.register("email", fixtures::messenger());
    dir.register("jabber", fixtures::messenger());
    for (name, seed) in [
        ("sensor01", 1u64),
        ("sensor06", 6),
        ("sensor07", 7),
        ("sensor22", 22),
    ] {
        dir.register(name, fixtures::temperature_sensor(seed));
    }
    for (name, seed) in [("camera01", 1u64), ("camera02", 2), ("webcam07", 7)] {
        dir.register(name, fixtures::camera(seed));
    }
    pems.run_program(
        "PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;
         PROTOTYPE checkPhoto( area STRING ) : ( quality INTEGER, delay REAL );
         PROTOTYPE takePhoto( area STRING, quality INTEGER ) : ( photo BLOB );
         PROTOTYPE getTemperature( ) : ( temperature REAL );
         EXTENDED RELATION contacts (
           name STRING, address STRING, text STRING VIRTUAL,
           messenger SERVICE, sent BOOLEAN VIRTUAL
         ) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
         EXTENDED RELATION cameras (
           camera SERVICE, area STRING, quality INTEGER VIRTUAL,
           delay REAL VIRTUAL, photo BLOB VIRTUAL
         ) USING BINDING PATTERNS (
           checkPhoto[camera] ( area ) : ( quality, delay ),
           takePhoto[camera] ( area, quality ) : ( photo )
         );
         EXTENDED RELATION sensors (
           sensor SERVICE, location STRING, temperature REAL VIRTUAL
         ) USING BINDING PATTERNS ( getTemperature[sensor] );
         INSERT INTO contacts VALUES
           ('Nicolas', 'nicolas@elysee.fr', 'email'),
           ('Carla', 'carla@elysee.fr', 'email'),
           ('Francois', 'francois@im.gouv.fr', 'jabber');
         INSERT INTO cameras VALUES
           ('camera01', 'office'), ('camera02', 'corridor'), ('webcam07', 'office');
         INSERT INTO sensors VALUES
           ('sensor01', 'corridor'), ('sensor06', 'office'),
           ('sensor07', 'office'), ('sensor22', 'roof');",
    )?;
    Ok(())
}
