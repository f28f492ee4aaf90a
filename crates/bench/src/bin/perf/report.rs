//! Reports: the JSON a run writes, the line the driver reads, the table a
//! person reads, and the comparison of two sets of reports.

use std::collections::BTreeMap;

use crate::host::Host;
use crate::json::{self, Json};
use crate::runner::RunReport;
use crate::stats;
use crate::table::{self, Better, MetricDef};
use crate::workloads::WORKERS;

pub const SCHEMA: &str = "serena-perf/1";

fn number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps every digit the measurement has
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `name: {value, unit[, n]}` for every metric of the report.
fn metrics_json(r: &RunReport, with_n: bool) -> String {
    r.metrics
        .iter()
        .map(|m| {
            let unit = table::find(m.name).map_or("", |d| d.unit);
            let n = if with_n {
                format!(",\"n\":{}", m.n)
            } else {
                String::new()
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{n}}}",
                json::quote(m.name),
                number(m.value),
                json::quote(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The whole report as one JSON line: host header, verdict, metrics with
/// unit and sample count, exact counts.
pub fn report_json(r: &RunReport, host: &Host) -> String {
    let metrics = metrics_json(r, true);
    let exact: Vec<String> = r
        .exact
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::quote(k)))
        .collect();
    let pairs = |v: &[(&'static str, f64)]| -> String {
        v.iter()
            .map(|(k, v)| format!("{}:{}", json::quote(k), number(*v)))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"schema\":{},\"workload\":{},\"seed\":{},\"git_commit\":{},\"rustc\":{},\
         \"profile\":{},\"nproc\":{},\"workers\":{},\"cpu_model\":{},\"window\":{},\"traced\":{},\
         \"correct\":true,\"attempted\":{},\"failed\":{},\"digest\":\"{:016x}\",\
         \"oracle_checks\":{},\"metrics\":{{{}}},\"exact\":{{{}}},\"self_ms\":{{{}}},\
         \"host_state\":{{{}}}}}",
        json::quote(SCHEMA),
        json::quote(r.workload),
        r.seed,
        json::quote(&host.git_commit),
        json::quote(&host.rustc),
        json::quote(host.profile),
        host.nproc,
        WORKERS,
        json::quote(&host.cpu_model),
        r.window,
        r.traced,
        r.attempted,
        r.failed,
        r.digest,
        r.oracle_checks,
        metrics,
        exact.join(","),
        pairs(&r.self_ms),
        pairs(&r.host_state),
    )
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics` (name → value, unit).
pub fn driver_line(r: &RunReport) -> String {
    format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics_json(r, false)
    )
}

/// Every metric by name with unit and sample count, for a person.
pub fn print_table(r: &RunReport, scaling_valid: bool) {
    println!(
        "# {} seed {} {} — digest {:016x}, {} operations attempted, {} failed, {} relations checked",
        r.workload,
        r.seed,
        if r.traced { "traced" } else { "untraced" },
        r.digest,
        r.attempted,
        r.failed,
        r.oracle_checks
    );
    for m in &r.metrics {
        let unit = table::find(m.name).map_or("", |d| d.unit);
        let scaling = matches!(
            m.name,
            "sched.speedup_2w" | "sched.cpu_per_wall" | "pems.overhead_1w_pct"
        );
        if matches!(m.name, "pems.op_p99_ms" | "pems.tick_p99_ms") {
            let q = stats::highest_supported_quantile(m.n as usize);
            println!(
                "{:<38} {:>14.4} {:<6} n={} (a sample of this size supports up to p{})",
                m.name,
                m.value,
                unit,
                m.n,
                q * 100.0
            );
        } else if scaling && !scaling_valid {
            println!(
                "{:<38} {:>14} {:<6} (one core: no wall-clock scaling claim)",
                m.name, "n/a", unit
            );
        } else {
            println!("{:<38} {:>14.4} {:<6} n={}", m.name, m.value, unit, m.n);
        }
    }
    for (k, v) in &r.exact {
        println!("{:<38} {:>14} exact", k, v);
    }
    for (k, v) in &r.host_state {
        println!("{:<38} {:>14.4} host", k, v);
    }
    if !r.self_ms.is_empty() {
        let total: f64 = r.self_ms.iter().map(|(_, v)| v).sum();
        println!("self time by span (sums to the run's {total:.1} ms):");
        for (name, v) in &r.self_ms {
            println!("  {:<36} {:>12.3} ms {:>5.1} %", name, v, v / total * 100.0);
        }
    }
}

/// `perf list`: every metric with unit, direction, bound and meaning.
pub fn print_list() {
    println!("workloads:");
    for (_, name, why) in crate::workloads::WORKLOADS {
        println!("  {name:<14} {why}");
    }
    println!("\nend-to-end (every workload, tracing off):");
    for m in table::END_TO_END {
        println!(
            "  {:<16} {:<6} {:<7} bound {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0),
            m.what
        );
    }
    println!("\nper-layer (traced run; no bound):");
    for m in table::PER_LAYER {
        println!(
            "  {:<36} {:<6} {:<7} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
}

/// Check `BENCHMARK.json` against the table: same workloads, same metrics,
/// same units, directions and bounds, in both directions.
pub fn check_benchmark_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
    };
    let field = |j: &Json, key: &str| -> Result<String, String> {
        j.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry lacks `{key}`"))
    };
    let workloads = list("workloads")?;
    let names: Vec<String> = workloads
        .iter()
        .map(|w| field(w, "name"))
        .collect::<Result<_, _>>()?;
    let ours: Vec<&str> = crate::workloads::WORKLOADS
        .iter()
        .map(|(_, n, _)| *n)
        .collect();
    if names != ours {
        return Err(format!(
            "BENCHMARK.json workloads {names:?}, the benchmark runs {ours:?}"
        ));
    }
    for (w, (_, name, why)) in workloads.iter().zip(crate::workloads::WORKLOADS) {
        if field(w, "why")? != why {
            return Err(format!(
                "BENCHMARK.json: `why` of {name} differs from the benchmark's"
            ));
        }
    }
    let check = |key: &str, defs: &[MetricDef]| -> Result<(), String> {
        let entries = list(key)?;
        if entries.len() != defs.len() {
            return Err(format!(
                "BENCHMARK.json lists {} {key} metrics, the benchmark emits {}",
                entries.len(),
                defs.len()
            ));
        }
        for (e, d) in entries.iter().zip(defs) {
            let name = field(e, "name")?;
            if !table::valid_name(&name) || !table::valid_unit(&field(e, "unit")?) {
                return Err(format!(
                    "BENCHMARK.json: `{name}` or its unit is outside the allowed characters"
                ));
            }
            if name != d.name
                || field(e, "unit")? != d.unit
                || field(e, "better")? != d.better.as_str()
            {
                return Err(format!(
                    "BENCHMARK.json: {key} entry `{name}` differs from `{}`",
                    d.name
                ));
            }
            if e.get("bound").and_then(Json::as_f64) != d.bound {
                return Err(format!("BENCHMARK.json: bound of `{name}` differs"));
            }
        }
        Ok(())
    };
    check("end_to_end", &table::END_TO_END)?;
    check("per_layer", &table::PER_LAYER)
}

/// `BENCHMARK.json` as the table defines it (what the committed file must
/// equal; `perf list --json` prints it).
pub fn benchmark_json(command: &[&str], paths: &[&str], run_seconds: u32) -> String {
    let strings = |v: &[&str]| {
        v.iter()
            .map(|s| json::quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", strings(command)));
    out.push_str(&format!("  \"paths\": [{}],\n", strings(paths)));
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    let n = crate::workloads::WORKLOADS.len();
    for (i, (_, name, why)) in crate::workloads::WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json::quote(name),
            json::quote(why),
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in table::END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better.as_str()),
            number(m.bound.unwrap_or(0.0)),
            if i + 1 < table::END_TO_END.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in table::PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better.as_str()),
            if i + 1 < table::PER_LAYER.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Values of one side of a comparison: workload and window → metric → runs.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Exact fields of one side: workload → (seed, traced?) → field → value.
pub type Exact = BTreeMap<String, BTreeMap<String, BTreeMap<String, String>>>;

/// Read a file of report lines (one JSON report per line).
pub fn load_runs(text: &str) -> Result<(Runs, Exact), String> {
    let mut runs = Runs::new();
    let mut exact = Exact::new();
    for (lineno, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let name = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", lineno + 1))?;
        // a `--window` probe is not the workload: keyed apart, the two are
        // never compared with each other
        let workload = match doc.get("window").and_then(Json::as_f64) {
            Some(w) => format!("{name} W[{w}]"),
            None => name.to_string(),
        };
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("line {}: no metrics", lineno + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
        let seed = doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0);
        let fields = exact
            .entry(workload)
            .or_default()
            .entry(format!("seed {seed}"))
            .or_default();
        if let Some(d) = doc.get("digest").and_then(Json::as_str) {
            fields.insert("digest".to_string(), d.to_string());
        }
        for (k, v) in doc.get("exact").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(n) = v.as_f64() {
                fields.insert(k.clone(), format!("{n}"));
            }
        }
    }
    Ok((runs, exact))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The two sides' own spread exceeds the bound: neither "unchanged"
    /// nor "regressed" can be said.
    Unresolved,
}

/// Judge one end-to-end metric: `b` against `a` (the parent). Returns the
/// verdict, by what share B's median is worse, and the larger of the two
/// sides' own spreads.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let ma = stats::median(&mut a.to_vec());
    let mb = stats::median(&mut b.to_vec());
    let worse = if ma == 0.0 {
        0.0
    } else {
        match def.better {
            Better::Lower => (mb - ma) / ma.abs(),
            Better::Higher => (ma - mb) / ma.abs(),
        }
    };
    let spread = stats::spread(a)
        .unwrap_or(0.0)
        .max(stats::spread(b).unwrap_or(0.0));
    // every run of one side better than every run of the other settles it
    // whatever the spread
    let range = |v: &[f64]| {
        (
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let b_all_better = match def.better {
        Better::Lower => b_hi < a_lo,
        Better::Higher => b_lo > a_hi,
    };
    let verdict = if b_all_better {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse, spread)
}

/// Compare two sets of reports; prints one row per workload × end-to-end
/// metric and every exact field (digest, counts) that differs between runs
/// of the same seed — between two builds that means the program's outputs
/// changed. Returns `(regressed, unresolved, exact mismatches)`.
pub fn compare(a: &(Runs, Exact), b: &(Runs, Exact)) -> (usize, usize, usize) {
    let (mut regressed, mut unresolved, mut mismatched) = (0, 0, 0);
    println!(
        "{:<19} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound", "spread"
    );
    for (workload, metrics_a) in &a.0 {
        let Some(metrics_b) = b.0.get(workload) else {
            continue;
        };
        for def in &table::END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(def.name), metrics_b.get(def.name)) else {
                continue;
            };
            let (verdict, worse, spread) = judge(def, va, vb);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{:<19} {:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>6.0}% {:>6.1}%  {}",
                workload,
                def.name,
                stats::median(&mut va.clone()),
                stats::median(&mut vb.clone()),
                worse * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                spread * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (Some(ea), Some(eb)) = (a.1.get(workload), b.1.get(workload)) else {
            continue;
        };
        for (run, fields_a) in ea {
            let Some(fields_b) = eb.get(run) else {
                continue;
            };
            for (k, va) in fields_a {
                if let Some(vb) = fields_b.get(k) {
                    if va != vb {
                        mismatched += 1;
                        println!("{workload:<19} {run}: exact `{k}` differs: {va} vs {vb}");
                    }
                }
            }
        }
    }
    (regressed, unresolved, mismatched)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        table::find(name).unwrap()
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let p50 = def("op_p50_ms"); // lower is better
        let bound = p50.bound.unwrap();
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let scaled = |f: f64| a.map(|x| x * f);
        assert_eq!(judge(p50, &a, &scaled(1.0 + bound / 2.0)).0, Verdict::Ok);
        assert_eq!(
            judge(p50, &a, &scaled(1.0 + bound * 1.5)).0,
            Verdict::Regressed
        );
        // a side whose own runs spread wider than the bound settles nothing
        let wide = [7.0, 14.5, 10.0, 13.5, 8.0];
        assert!(stats::spread(&wide).unwrap() > bound);
        assert_eq!(judge(p50, &a, &wide).0, Verdict::Unresolved);
        // … unless every run of B beats every run of A
        assert_eq!(judge(p50, &a, &[3.0, 8.0, 5.0, 7.0, 9.0]).0, Verdict::Ok);
        let rate = def("ops_per_s"); // higher is better
        let slower = 1.0 - rate.bound.unwrap() * 1.5;
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(rate, &base, &base.map(|x| x * slower)).0,
            Verdict::Regressed
        );
        assert_eq!(judge(rate, &base, &base.map(|x| x * 1.2)).0, Verdict::Ok);
    }

    #[test]
    fn generated_benchmark_json_passes_its_own_check() {
        let text = benchmark_json(&["cargo", "run"], &["dir"], 10);
        check_benchmark_json(&text).unwrap();
        assert!(check_benchmark_json(&text.replace("op_p50_ms", "tick_p50_ms")).is_err());
        assert!(check_benchmark_json(&text.replace("\"bound\": 0.1}", "\"bound\": 0.2}")).is_err());
    }
}
