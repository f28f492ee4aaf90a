//! A self-contained micro-benchmark harness.
//!
//! The workspace builds without registry access, so the benches cannot pull
//! in Criterion. This module provides the narrow slice of Criterion's API
//! the experiment harnesses use — `Criterion::benchmark_group`,
//! `bench_with_input`, `Throughput`, `criterion_group!`/`criterion_main!` —
//! backed by a simple calibrated timing loop: each benchmark is warmed up,
//! the iteration count is scaled to fill the measurement window, and the
//! mean/best per-iteration time (plus derived element throughput) is
//! printed as one line per benchmark.
//!
//! It also owns the three things every overhead comparison needs exactly
//! once: the paired measurement ([`paired`], arithmetic in
//! [`median_of_pairs`]), the [`GATE_PCT`] bound ([`gate`]) and the report
//! file under the workspace `target/` ([`write_report`]).

use std::fmt::{self, Display};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed benchmark measurement, as recorded by the timing loop.
///
/// Records accumulate in a process-wide buffer as benchmarks run; a bench
/// binary's `main` can drain them with [`take_records`] to persist results
/// (e.g. as JSON) in addition to the printed report.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Full benchmark label (`group/bench/param`).
    pub label: String,
    /// Mean per-iteration time in nanoseconds across all batches.
    pub mean_ns: u128,
    /// Best (least-noise) batch's per-iteration time in nanoseconds.
    pub best_ns: u128,
}

static RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Drain every [`BenchRecord`] accumulated since the last call (or process
/// start), in execution order.
pub fn take_records() -> Vec<BenchRecord> {
    std::mem::take(&mut RECORDS.lock().unwrap_or_else(|p| p.into_inner()))
}

/// Declared throughput of one benchmark, used to derive rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark processes this many logical elements per iteration.
    Elements(u64),
}

/// A benchmark identifier: function name plus an optional parameter.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Identify a benchmark by name and parameter (`name/param`).
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{parameter}", name.into()),
        }
    }

    /// Identify a benchmark by its parameter only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

/// The timing loop driver handed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Run `f` repeatedly, timing the whole batch.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Top-level benchmark registry/driver.
pub struct Criterion {
    /// Target measurement window per benchmark.
    measure_for: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // Keep whole-suite runtime modest: the harness exists to surface
        // relative costs, not publishable statistics.
        let ms = std::env::var("SERENA_BENCH_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(200u64);
        Criterion {
            measure_for: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name}");
        BenchmarkGroup {
            criterion: self,
            name,
            throughput: None,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function(&mut self, id: impl Into<BenchmarkId>, f: impl FnMut(&mut Bencher)) {
        let id = id.into();
        run_bench(&id.label, self.measure_for, None, f);
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark `f` against one input value.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.label);
        run_bench(&label, self.criterion.measure_for, self.throughput, |b| {
            f(b, input)
        });
        self
    }

    /// Benchmark a closure with no explicit input.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into().label);
        run_bench(&label, self.criterion.measure_for, self.throughput, f);
        self
    }

    /// End the group.
    pub fn finish(&mut self) {}
}

fn run_bench(
    label: &str,
    measure_for: Duration,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    // Calibrate: run single iterations until we know roughly how long one
    // takes (also serves as warm-up).
    let mut probe = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut probe);
    let mut per_iter = probe.elapsed.max(Duration::from_nanos(1));
    let iters = (measure_for.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

    // Measure in a few batches, keeping the best (least-noise) batch.
    let batches = 3;
    let mut best = Duration::MAX;
    let mut total = Duration::ZERO;
    let mut total_iters = 0u64;
    for _ in 0..batches {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let batch_per_iter = b.elapsed / iters.max(1) as u32;
        best = best.min(batch_per_iter);
        total += b.elapsed;
        total_iters += iters;
    }
    per_iter = total / total_iters.max(1) as u32;

    let rate = match throughput {
        Some(Throughput::Elements(n)) if per_iter > Duration::ZERO => {
            let per_sec = n as f64 / per_iter.as_secs_f64();
            format!("  {per_sec:>12.0} elem/s")
        }
        _ => String::new(),
    };
    println!(
        "{label:<44} mean {:>12} best {:>12}{rate}",
        fmt_duration(per_iter),
        fmt_duration(best)
    );
    RECORDS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(BenchRecord {
            label: label.to_string(),
            mean_ns: per_iter.as_nanos(),
            best_ns: best.as_nanos(),
        });
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

/// One base-vs-variant comparison, as measured by [`paired`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    /// Median over rounds of `variant_ns / base_ns` within the round.
    pub ratio: f64,
    /// Median nanoseconds per pass of the base closure.
    pub base_ns: f64,
    /// Median nanoseconds per pass of the variant closure.
    pub variant_ns: f64,
}

impl Paired {
    /// What the variant costs on top of the base, in percent.
    pub fn overhead_pct(&self) -> f64 {
        (self.ratio - 1.0) * 100.0
    }
}

/// The arithmetic of [`paired`]: `rounds` holds one `(base_ns, variant_ns)`
/// pair per round, each the wall time of `passes` back-to-back runs. The
/// ratio is taken *within* a round and the median *across* rounds, so a
/// load spike that hits one batch of one round moves nothing — a
/// mean-of-totals comparison absorbs it wholesale.
pub fn median_of_pairs(rounds: &[(f64, f64)], passes: usize) -> Paired {
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let per_pass = |ns: f64| ns / passes as f64;
    Paired {
        ratio: median(rounds.iter().map(|&(b, v)| v / b).collect()),
        base_ns: median(rounds.iter().map(|&(b, _)| per_pass(b)).collect()),
        variant_ns: median(rounds.iter().map(|&(_, v)| per_pass(v)).collect()),
    }
}

/// Measure `variant` against `base`. Running all of A and then all of B is
/// biased by clock and allocator drift (B reliably measures faster than A
/// on shared machines, whichever B is), so after a warm-up this alternates
/// batches of `passes` runs of each for `rounds` rounds and reduces the
/// recorded pairs with [`median_of_pairs`].
pub fn paired<A, B>(
    rounds: usize,
    passes: usize,
    mut base: impl FnMut() -> A,
    mut variant: impl FnMut() -> B,
) -> Paired {
    let batch = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..passes {
            f();
        }
        start.elapsed().as_nanos() as f64
    };
    let mut base = || drop(std::hint::black_box(base()));
    let mut variant = || drop(std::hint::black_box(variant()));
    for _ in 0..4 {
        batch(&mut base);
        batch(&mut variant);
    }
    let pairs: Vec<(f64, f64)> = (0..rounds)
        .map(|_| (batch(&mut base), batch(&mut variant)))
        .collect();
    median_of_pairs(&pairs, passes)
}

/// The bound every gated overhead row must stay under, in percent.
pub const GATE_PCT: f64 = 5.0;

/// One line of an overhead report.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Which comparison this is.
    pub label: &'static str,
    /// The headline percentage (an overhead, or a share of the base).
    pub pct: f64,
    /// The measurement behind it.
    pub measured: Paired,
    /// Whether [`gate`] holds `pct` under [`GATE_PCT`]; ungated rows are
    /// informational.
    pub gated: bool,
}

impl OverheadRow {
    /// The row as a report object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::Str(self.label.to_string())),
            ("gated", Json::Bool(self.gated)),
            ("pct", Json::Num(self.pct)),
            ("base_ns", Json::Num(self.measured.base_ns)),
            ("variant_ns", Json::Num(self.measured.variant_ns)),
        ])
    }
}

/// Check every gated row against [`GATE_PCT`]; the error names each row
/// over the bound.
pub fn gate(rows: &[OverheadRow]) -> Result<(), String> {
    let over: Vec<String> = rows
        .iter()
        .filter(|r| r.gated && r.pct > GATE_PCT)
        .map(|r| format!("{} {:.2}%", r.label, r.pct))
        .collect();
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("over the {GATE_PCT}% bound: {}", over.join(", ")))
    }
}

/// A JSON value, for bench reports (the workspace has no serde).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The harness's accumulated measurements as an array of objects.
    pub fn records(records: &[BenchRecord]) -> Json {
        Json::Arr(
            records
                .iter()
                .map(|r| {
                    Json::obj([
                        ("label", Json::Str(r.label.clone())),
                        ("mean_ns", Json::Num(r.mean_ns as f64)),
                        ("best_ns", Json::Num(r.best_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

fn write_json_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_json_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    let sep = if i > 0 { "," } else { "" };
                    write!(f, "{sep}\n{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i > 0 { ", " } else { "" })?;
                    write_json_str(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Write `report` to `target/<name>.json` under the workspace root and say
/// so. The path is anchored at this crate's manifest, not the cwd: cargo
/// runs a bench with the *package* root as cwd, so a relative path lands in
/// `crates/bench/` where nothing reads it.
pub fn write_report(name: &str, report: &Json) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir
        .canonicalize()
        .unwrap_or(dir)
        .join(format!("{name}.json"));
    std::fs::write(&path, format!("{report}\n")).expect("write bench report");
    println!("wrote {}", path.display());
    path
}

/// Group benchmark functions under one runner, Criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Entry point running every registered group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn bench_harness_runs_and_reports() {
        let mut c = Criterion {
            measure_for: Duration::from_millis(5),
        };
        // a body the optimizer cannot fold: a release build runs `1 + 1` in
        // under a nanosecond, and the integer mean of that is 0
        let work = |x: u64| (0..black_box(64)).fold(x, |acc, i| acc ^ black_box(i));
        let mut ran = 0u64;
        {
            let mut g = c.benchmark_group("smoke");
            g.throughput(Throughput::Elements(10));
            g.bench_with_input(BenchmarkId::from_parameter(1), &3u64, |b, &x| {
                b.iter(|| {
                    ran += 1;
                    work(x)
                })
            });
            g.finish();
        }
        c.bench_function("standalone", |b| b.iter(|| work(1)));
        assert!(ran > 0);
        let records = take_records();
        assert!(records.iter().any(|r| r.label == "smoke/1"));
        assert!(records.iter().any(|r| r.label == "standalone"));
        assert!(records.iter().all(|r| r.mean_ns > 0));
        // drained: a second take is empty
        assert!(take_records().is_empty());
    }

    #[test]
    fn median_of_pairs_known_answers() {
        // odd round count: ratios 1.1, 1.2, 1.3 → 1.2
        let m = median_of_pairs(&[(100.0, 130.0), (100.0, 110.0), (200.0, 240.0)], 10);
        assert_eq!(m.ratio, 1.2);
        assert_eq!((m.base_ns, m.variant_ns), (10.0, 13.0));
        assert!((m.overhead_pct() - 20.0).abs() < 1e-9);
        // even round count takes the upper middle: 1.0, 1.5, 2.0, 4.0 → 2.0
        let m = median_of_pairs(&[(10.0, 40.0), (10.0, 10.0), (10.0, 20.0), (10.0, 15.0)], 1);
        assert_eq!(m.ratio, 2.0);
        assert_eq!((m.base_ns, m.variant_ns), (10.0, 20.0));
    }

    #[test]
    fn one_spiked_round_does_not_move_the_median() {
        let calm = vec![(1000.0, 1030.0); 9];
        let quiet = median_of_pairs(&calm, 10);
        for spike in [(10_000.0, 1030.0), (1000.0, 10_300.0)] {
            let mut rounds = calm.clone();
            rounds[4] = spike;
            assert_eq!(median_of_pairs(&rounds, 10), quiet);
            // a comparison of totals would have swallowed it
            let (b, v) = rounds
                .iter()
                .fold((0.0, 0.0), |(b, v), r| (b + r.0, v + r.1));
            assert!((v / b - quiet.ratio).abs() > 0.4);
        }
    }

    #[test]
    fn paired_runs_both_closures_equally() {
        let (mut a, mut b) = (0u32, 0u32);
        let m = paired(3, 5, || a += 1, || b += 1);
        assert_eq!((a, b), ((4 + 3) * 5, (4 + 3) * 5));
        assert!(m.ratio > 0.0 && m.base_ns >= 0.0 && m.variant_ns >= 0.0);
    }

    fn row(label: &'static str, pct: f64, gated: bool) -> OverheadRow {
        let ratio = 1.0 + pct / 100.0;
        OverheadRow {
            label,
            pct,
            measured: Paired {
                ratio,
                base_ns: 1000.0,
                variant_ns: 1000.0 * ratio,
            },
            gated,
        }
    }

    #[test]
    fn gate_fails_rows_over_the_bound_by_name() {
        let ok = [
            row("small", 3.0, true),
            row("faster", -2.5, true),
            row("wire", 4000.0, false),
        ];
        assert_eq!(gate(&ok), Ok(()));
        let mut rows = ok.to_vec();
        rows.push(row("heavy", 7.0, true));
        let err = gate(&rows).unwrap_err();
        assert!(err.contains("heavy 7.00%"), "{err}");
        assert!(!err.contains("small") && !err.contains("wire"), "{err}");
    }

    #[test]
    fn report_is_json_and_lands_under_target() {
        let report = Json::obj([
            ("gate_pct", Json::Num(GATE_PCT)),
            ("rows", Json::Arr(vec![row("a\"b", 3.0, true).to_json()])),
            ("nan", Json::Num(f64::NAN)),
            ("empty", Json::Arr(vec![])),
        ]);
        let expected = "{\"gate_pct\": 5, \"rows\": [\n{\"label\": \"a\\\"b\", \
                        \"gated\": true, \"pct\": 3, \"base_ns\": 1000, \
                        \"variant_ns\": 1030}], \"nan\": null, \"empty\": []}";
        assert_eq!(report.to_string(), expected);
        assert_eq!(Json::Str("\\\n".into()).to_string(), "\"\\\\\\u000a\"");

        let name = format!("harness_selftest_{}", std::process::id());
        let path = write_report(&name, &report);
        assert!(path.parent().unwrap().ends_with("target"));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{expected}\n")
        );
        let _ = std::fs::remove_file(&path);
    }
}
