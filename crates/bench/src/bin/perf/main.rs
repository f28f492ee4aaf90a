//! `perf` — the repo's benchmark: four workloads, five end-to-end
//! metrics, per-layer probes and a traced run. See `README.md` beside this
//! file; `BENCHMARK.json` at the repo root is checked against `table.rs`.
//!
//! ```text
//! perf --workload <w> --seed <n> --seconds <s> --trace <0|1>   # the driver's call
//! perf run --workload <w> --seed <n> [--seconds s] [--traced] [--smoke] [--window n] [--out f]
//! perf all [--seed n] [--seconds s] [--smoke] [--window n] [--out f]
//! perf list [--json]
//! perf compare A.jsonl B.jsonl
//! perf selfcheck [--runs n] [--seconds s] [--smoke] [--window n] [--out prefix]
//! ```

mod gen;
mod host;
mod json;
mod model;
mod oracle;
mod probes;
mod report;
mod runner;
mod stats;
mod sut;
mod table;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use runner::{RunOptions, RunReport};
use workloads::{Workload, WORKLOADS};

/// What `BENCHMARK.json` tells the driver to run, and for how long.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "crates/bench/src/bin/perf/Cargo.toml",
    "--",
];
const PATHS: [&str; 1] = ["crates/bench/src/bin/perf"];
const RUN_SECONDS: u32 = 24;

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    window: Option<u64>,
    out: Option<PathBuf>,
    runs: usize,
    json: bool,
    files: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        runs: 3,
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            a.command = it.next().cloned();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |s: String| -> Result<f64, String> {
            s.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{flag}: `{s}` is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                let s = value("a seed")?;
                a.seed = s
                    .parse()
                    .map_err(|_| format!("--seed: `{s}` is not a whole number"))?;
            }
            "--seconds" => a.seconds = Some(number(value("seconds")?)?),
            "--trace" => a.trace = number(value("0 or 1")?)? != 0.0,
            "--traced" => a.trace = true,
            "--smoke" => a.smoke = true,
            "--json" => a.json = true,
            "--window" => a.window = Some(number(value("a window")?)?.max(1.0) as u64),
            "--runs" => a.runs = (number(value("a count")?)? as usize).max(2),
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            file => a.files.push(file.to_string()),
        }
    }
    Ok(a)
}

/// Checkpoints, sockets and span files go next to the binary, which cargo
/// puts under the target directory — inside the checkout, and ignored.
fn scratch_dir() -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("perf-scratch")))
        .unwrap_or_else(|| PathBuf::from("target/perf-scratch"));
    // relative to the working directory where possible: a Unix socket path
    // must fit in about a hundred bytes
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(PathBuf::from).unwrap_or(dir),
        Err(_) => dir,
    }
}

fn options(a: &Args) -> RunOptions {
    RunOptions {
        seed: a.seed,
        seconds: a
            .seconds
            .unwrap_or(if a.smoke { 0.2 } else { f64::from(RUN_SECONDS) }),
        smoke: a.smoke,
        scratch: scratch_dir(),
    }
}

fn run_one(name: &str, a: &Args, traced: bool) -> Result<RunReport, String> {
    let w = Workload::named(name, a.smoke, a.window).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|(_, n, _)| *n).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let opts = options(a);
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("{}: {e}", opts.scratch.display()))?;
    if traced {
        probes::run_traced(&w, &opts)
    } else {
        runner::run_untraced(&w, &opts)
    }
}

/// One `perf run` in a process of its own — peak memory and CPU are
/// per-process figures, so runs must not share one. Returns the table the
/// child printed and its report line.
fn run_in_child(name: &str, a: &Args, seed: u64, traced: bool) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &seed.to_string()]);
    if let Some(seconds) = a.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if a.smoke {
        cmd.arg("--smoke");
    }
    if let Some(window) = a.window {
        cmd.args(["--window", &window.to_string()]);
    }
    if traced {
        cmd.arg("--traced");
    }
    // `output()` waits for the child to end
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{name} seed {seed}: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{name} seed {seed}: no report line"))?;
    Ok((table.to_string(), line.to_string()))
}

fn append(out: &Option<PathBuf>, line: &str) -> Result<(), String> {
    use std::io::Write;
    let Some(path) = out else {
        return Ok(());
    };
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = parse_args(&argv)?;

    // hygiene: the product reads these ad hoc and they would silently
    // change what is measured
    let set = host::set_knobs(&sut::PRODUCT_ENV_KNOBS);
    if !set.is_empty() && a.command.as_deref() != Some("list") {
        return Err(format!(
            "refusing to measure with {} set: unset {} first",
            set.join(", "),
            if set.len() == 1 { "it" } else { "them" }
        ));
    }
    let host = host::Host::detect();
    let scaling_valid = host.nproc >= 2;
    if !scaling_valid {
        eprintln!(
            "warning: {} core: wall-clock scaling metrics (sched.speedup_2w, sched.cpu_per_wall, \
             pems.overhead_1w_pct) say nothing on this host",
            host.nproc
        );
    }

    match a.command.as_deref() {
        // the driver's call: flags only, one JSON object as the last line
        None => {
            // run from the root of a checkout, the contract is at hand:
            // refuse to measure under a BENCHMARK.json this build does not
            // implement
            if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
                report::check_benchmark_json(&text)?;
            }
            let name = a.workload.as_deref().ok_or("--workload is required")?;
            let r = run_one(name, &a, a.trace)?;
            eprintln!("{}", report::report_json(&r, &host));
            println!("{}", report::driver_line(&r));
            Ok(())
        }
        Some("run") => {
            let name = a.workload.as_deref().ok_or("--workload is required")?;
            let r = run_one(name, &a, a.trace)?;
            report::print_table(&r, scaling_valid);
            let line = report::report_json(&r, &host);
            if a.out.is_some() {
                append(&a.out, &line)
            } else {
                println!("{line}");
                Ok(())
            }
        }
        Some("all") => {
            for (_, name, _) in WORKLOADS {
                for traced in [false, true] {
                    let (table, line) = run_in_child(name, &a, a.seed, traced)?;
                    println!("{table}\n");
                    append(&a.out, &line)?;
                }
            }
            Ok(())
        }
        Some("list") => {
            if a.json {
                print!("{}", report::benchmark_json(&COMMAND, &PATHS, RUN_SECONDS));
            } else {
                report::print_list();
            }
            Ok(())
        }
        Some("compare") => {
            let [fa, fb] = a.files.as_slice() else {
                return Err("compare needs two files of report lines".to_string());
            };
            let load = |f: &String| -> Result<_, String> {
                let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
                report::load_runs(&text).map_err(|e| format!("{f}: {e}"))
            };
            let (regressed, unresolved, changed) = report::compare(&load(fa)?, &load(fb)?);
            println!(
                "{regressed} regressed, {unresolved} unresolved, {changed} exact fields changed"
            );
            if regressed > 0 {
                return Err(format!(
                    "{regressed} metric(s) regressed beyond their bound"
                ));
            }
            Ok(())
        }
        Some("selfcheck") => {
            // two sets of runs of the same build, interleaved, same seeds:
            // every end-to-end metric must agree within its bound and every
            // exact count exactly
            let mut sets = [String::new(), String::new()];
            for run in 0..a.runs {
                for set in &mut sets {
                    for (_, name, _) in WORKLOADS {
                        let seed = a.seed + run as u64;
                        let (_, line) = run_in_child(name, &a, seed, false)?;
                        eprintln!("selfcheck: {name} seed {seed} done");
                        set.push_str(&line);
                        set.push('\n');
                    }
                }
            }
            if let Some(out) = &a.out {
                // keep both sets for `perf compare` and for a closer look
                for (set, suffix) in sets.iter().zip(["a", "b"]) {
                    let path = out.with_extension(format!("{suffix}.jsonl"));
                    std::fs::write(&path, set).map_err(|e| format!("{}: {e}", path.display()))?;
                }
            }
            let (regressed, unresolved, mismatched) =
                report::compare(&report::load_runs(&sets[0])?, &report::load_runs(&sets[1])?);
            println!(
                "{regressed} beyond bound, {unresolved} unresolved, {mismatched} exact mismatches"
            );
            if regressed + mismatched > 0 {
                return Err("two sets of runs of the same build disagree".to_string());
            }
            if unresolved > 0 {
                // agreement was not shown: a side's own runs spread wider
                // than the bound, so its median says nothing
                return Err(format!(
                    "{unresolved} metric(s) unresolved: nothing was checked for them; \
                     use more --runs, or a steadier host"
                ));
            }
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown command `{other}` (run, all, list, compare, selfcheck)"
        )),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // no result line: a run that is not correct prints no metrics
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str, seed: u64, traced: bool) -> RunReport {
        let args = Args {
            seed,
            smoke: true,
            ..Args::default()
        };
        run_one(name, &args, traced).unwrap_or_else(|e| panic!("{name} smoke run: {e}"))
    }

    fn names(r: &RunReport) -> Vec<&'static str> {
        r.metrics.iter().map(|m| m.name).collect()
    }

    /// `BENCHMARK.json` sits at the repo root, above whichever manifest
    /// built this test (the workspace's or the package's own).
    fn benchmark_json() -> String {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                return std::fs::read_to_string(candidate).unwrap();
            }
            assert!(dir.pop(), "no BENCHMARK.json above CARGO_MANIFEST_DIR");
        }
    }

    #[test]
    fn benchmark_json_is_the_metric_table() {
        let text = benchmark_json();
        report::check_benchmark_json(&text).unwrap();
        assert_eq!(
            text,
            report::benchmark_json(&COMMAND, &PATHS, RUN_SECONDS),
            "BENCHMARK.json differs from `perf list --json`"
        );
    }

    #[test]
    fn smoke_runs_emit_exactly_the_named_metrics_and_agree_on_the_digest() {
        let end_to_end: Vec<&str> = table::END_TO_END.iter().map(|m| m.name).collect();
        let per_layer: Vec<&str> = table::PER_LAYER.iter().map(|m| m.name).collect();
        for (_, name, _) in WORKLOADS {
            let untraced = smoke(name, 5, false);
            assert_eq!(names(&untraced), end_to_end, "{name}");
            assert_eq!(untraced.failed, 0, "{name}");
            assert!(untraced.attempted > 0, "{name}");
            assert!(
                untraced
                    .metrics
                    .iter()
                    .all(|m| m.value.is_finite() && m.value > 0.0),
                "{name}: an end-to-end metric is zero: {:?}",
                untraced.metrics
            );
            // the traced run replays the same counted operations: same
            // digest, same exact counts, every per-layer name
            let traced = smoke(name, 5, true);
            assert_eq!(names(&traced), per_layer, "{name}");
            assert_eq!(traced.digest, untraced.digest, "{name}");
            assert_eq!(traced.exact, untraced.exact, "{name}");
            assert!(traced.metrics.iter().all(|m| m.value.is_finite()), "{name}");
        }
    }

    #[test]
    fn a_seed_repeats_exactly_and_another_seed_differs() {
        let a = smoke("join_window", 7, false);
        let b = smoke("join_window", 7, false);
        let c = smoke("join_window", 8, false);
        assert_eq!((a.digest, &a.exact), (b.digest, &b.exact));
        assert_ne!(a.digest, c.digest);
        assert!(
            a.oracle_checks > 0,
            "no relation was compared with the oracle"
        );
    }

    #[test]
    fn a_narrower_window_is_a_probe_not_a_workload() {
        let args = Args {
            seed: 3,
            smoke: true,
            window: Some(2),
            ..Args::default()
        };
        let narrow = run_one("join_window", &args, false).unwrap();
        assert_ne!(narrow.digest, smoke("join_window", 3, false).digest);
        assert!(run_one("no_such_workload", &args, false).is_err());
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload fanout --seed 9 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (
                a.command.as_deref(),
                a.workload.as_deref(),
                a.seed,
                a.seconds,
                a.trace
            ),
            (None, Some("fanout"), 9, Some(20.0), true)
        );
        let a = parse_args(&argv("run --workload oneshot_sql --window 8 --smoke")).unwrap();
        assert_eq!(
            (a.command.as_deref(), a.window, a.smoke, a.trace),
            (Some("run"), Some(8), true, false)
        );
        assert_eq!(
            parse_args(&argv("compare a.jsonl b.jsonl"))
                .unwrap()
                .files
                .len(),
            2
        );
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--seconds -1")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }

    #[test]
    fn a_set_product_knob_is_detected() {
        // a name of the test's own, so no other test races on it
        std::env::set_var("SERENA_PERF_TEST_KNOB", "1");
        assert_eq!(
            host::set_knobs(&["SERENA_PERF_TEST_KNOB", "SERENA_PERF_TEST_UNSET"]),
            vec!["SERENA_PERF_TEST_KNOB"]
        );
        assert!(sut::PRODUCT_ENV_KNOBS
            .iter()
            .all(|k| k.starts_with("SERENA_")));
    }

    #[test]
    fn only_sut_names_the_product_crates() {
        let sources = [
            ("gen.rs", include_str!("gen.rs")),
            ("host.rs", include_str!("host.rs")),
            ("json.rs", include_str!("json.rs")),
            ("main.rs", include_str!("main.rs")),
            ("model.rs", include_str!("model.rs")),
            ("oracle.rs", include_str!("oracle.rs")),
            ("probes.rs", include_str!("probes.rs")),
            ("report.rs", include_str!("report.rs")),
            ("runner.rs", include_str!("runner.rs")),
            ("stats.rs", include_str!("stats.rs")),
            ("table.rs", include_str!("table.rs")),
            ("trace.rs", include_str!("trace.rs")),
            ("workloads.rs", include_str!("workloads.rs")),
        ];
        for krate in ["core", "stream", "services", "ddl", "pems", "bench"] {
            // spelled in two halves so that this test does not find itself
            let path = format!("{}_{krate}::", "serena");
            for (file, text) in sources {
                assert!(!text.contains(&path), "{file} names {path}");
            }
            if krate != "bench" {
                assert!(include_str!("sut.rs").contains(&path), "sut.rs lost {path}");
            }
        }
    }

    #[test]
    fn report_lines_round_trip_through_compare() {
        let r = smoke("oneshot_sql", 2, false);
        let host = host::Host::detect();
        let line = report::report_json(&r, &host);
        let doc = json::parse(&line).unwrap();
        for key in [
            "schema",
            "workload",
            "seed",
            "git_commit",
            "rustc",
            "profile",
            "nproc",
            "workers",
            "cpu_model",
        ] {
            assert!(doc.get(key).is_some(), "report lacks `{key}`");
        }
        let driver = json::parse(&report::driver_line(&r)).unwrap();
        let keys: Vec<&str> = driver
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let both = format!("{line}\n{line}\n{line}\n");
        let set = report::load_runs(&both).unwrap();
        // the smoke sizes' window: a run is keyed by what it measured
        assert!(set.0.contains_key("oneshot_sql W[8]"));
        assert_eq!(report::compare(&set, &set), (0, 0, 0));
    }
}
