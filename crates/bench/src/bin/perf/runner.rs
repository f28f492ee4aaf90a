//! The untraced run, which yields every end-to-end metric. (The traced
//! run, which yields every per-layer metric, is `probes.rs`.)
//!
//! An untraced run has two timed phases. The *counted* phase issues a
//! fixed number of operations, so the digest, the exact counts, the state
//! a checkpoint holds and the peak memory repeat exactly for a seed. The
//! *top-up* phase then keeps issuing operations — no digest, no oracle —
//! until `--seconds` of operation time have been measured; process CPU is
//! taken from this phase only, where the harness adds next to nothing.
//!
//! The recording host's speed changes by tens of percent within a second
//! and the hypervisor withholds its CPUs for seconds at a time (README,
//! "The recording host"), so a time as the clock reads it says as much
//! about the minute it was taken in as about the program. [`Timed`]
//! therefore samples a fixed reference kernel beside the operations and
//! reports every operation *at reference speed*: its time divided by how
//! much slower (or faster) than [`REF_KERNEL_NS`] the kernel ran around it.
//! And it cuts the loop into one-second slices and leaves out those during
//! which `/proc/stat` shows the hypervisor withholding more than
//! [`STEAL_LIMIT`] of the guest's CPU time.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::host;
use crate::oracle;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Inputs, OpResult, Session, Workload, WORKERS};

/// How a run was asked for.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// Operation time to measure, in seconds.
    pub seconds: f64,
    /// Tiny sizes (tests and a quick look), not the benchmark.
    pub smoke: bool,
    /// Directory for checkpoints, sockets and span files.
    pub scratch: PathBuf,
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: u64,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: &'static str,
    /// Window of the heavy queries: the workload's own unless `--window`
    /// made the run a probe.
    pub window: u64,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Digest over the counted phase.
    pub digest: u64,
    /// Relations compared with the naive recomputation.
    pub oracle_checks: u64,
    pub metrics: Vec<Measured>,
    /// Counts that must repeat exactly for a seed.
    pub exact: Vec<(&'static str, u64)>,
    /// Traced runs: total self time per span name, ms (a span's duration
    /// minus what its children cover), largest first.
    pub self_ms: Vec<(&'static str, f64)>,
    /// Untraced runs: what the host did meanwhile (median reference-kernel
    /// sample, share of CPU time withheld, slices kept) and the median
    /// latency as the clock read it; says how far a figure was corrected.
    pub host_state: Vec<(&'static str, f64)>,
}

/// Driver time after which a slice closes: one second.
const SLICE_NS: u64 = 1_000_000_000;

/// Driver time after which the reference kernel is sampled again.
const BLOCK_NS: u64 = 50_000_000;

/// The reference speed: a host on which the reference kernel takes this
/// long, in ns — what the recording host needs in a steady minute, so that
/// a time at reference speed reads about as the clock would there.
pub const REF_KERNEL_NS: f64 = 600_000.0;

/// A slice during which the hypervisor withheld more than this share of the
/// guest's CPU time is left out of the figures.
const STEAL_LIMIT: f64 = 0.10;

/// How much slower than the reference speed the host ran between two
/// samples of the reference kernel: their mean over [`REF_KERNEL_NS`].
fn slowdown(before_ns: f64, after_ns: f64) -> f64 {
    ((before_ns + after_ns) / 2.0 / REF_KERNEL_NS).max(f64::MIN_POSITIVE)
}

/// The slices to keep, given the share of CPU time withheld during each:
/// those at or below [`STEAL_LIMIT`] — or, where fewer than a quarter are,
/// the quietest quarter, so that a run the hypervisor disturbed from end to
/// end still reports its best seconds.
fn quiet(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|a, b| steal[*a].total_cmp(&steal[*b]));
    let least = steal.len().div_ceil(4);
    let within = order.iter().filter(|i| steal[**i] <= STEAL_LIMIT).count();
    order.truncate(within.max(least));
    order
}

/// About a second of the timed loop, at reference speed.
#[derive(Default)]
struct Slice {
    /// Per-operation latency at reference speed, ns.
    latencies: Vec<f64>,
    /// Driver time (latency + auxiliary work) as the clock read it, ns.
    raw_ns: u64,
    /// The same at reference speed.
    scaled_ns: f64,
    /// Share of the guest's CPU time the hypervisor withheld meanwhile.
    steal: f64,
    /// Process CPU meanwhile, s, without what [`Timed::aside`] work and the
    /// reference kernel took.
    cpu_s: f64,
    /// Digests or oracle checks ran between its operations: its CPU is not
    /// the program's alone.
    harness: bool,
}

/// Clock, steal and process CPU readings when a slice began.
struct Opened {
    at: Instant,
    steal: Option<u64>,
    cpu_s: Option<f64>,
}

impl Opened {
    fn now() -> Opened {
        Opened {
            at: Instant::now(),
            steal: host::steal_jiffies(),
            cpu_s: host::cpu_seconds(),
        }
    }
}

/// What the kept slices of a timed loop say.
pub struct Figures {
    /// Median latency at reference speed over the operations of the kept
    /// slices, ns, and how many those are.
    pub op_p50_ns: f64,
    pub ops: u64,
    /// Median over the kept slices of operations per second of driver time
    /// at reference speed.
    pub ops_per_s: f64,
    /// Median over the kept slices without harness work of process CPU per
    /// operation at reference speed, ms, and their operations.
    pub cpu_ms_per_op: f64,
    pub cpu_ops: u64,
    pub slices_kept: u64,
    pub slices: u64,
}

/// Timed loop state shared by the counted and top-up phases.
pub struct Timed {
    /// Per-operation latency samples as the clock read them, ns.
    pub latencies: Vec<f64>,
    /// Σ latency + auxiliary driver work as the clock read it, ns.
    pub wall_ns: u64,
    /// Samples of the reference kernel, ns.
    pub ref_samples: Vec<f64>,
    /// Operations since the last sample: (latency, auxiliary work), ns.
    block: Vec<(u64, u64)>,
    block_ns: u64,
    open: Slice,
    opened: Opened,
    /// Process CPU of [`Timed::aside`] work and of the reference kernel
    /// since the open slice began, s.
    aside_cpu_s: f64,
    slices: Vec<Slice>,
    cpus: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
}

impl Timed {
    pub fn start() -> Timed {
        // the first execution pays for page faults and cold code
        host::reference_kernel_ns();
        let first = host::reference_kernel_ns();
        Timed {
            latencies: Vec::new(),
            wall_ns: 0,
            ref_samples: vec![first as f64],
            block: Vec::new(),
            block_ns: 0,
            open: Slice::default(),
            opened: Opened::now(),
            aside_cpu_s: 0.0,
            slices: Vec::new(),
            cpus: host::cpus(),
            attempted: 0,
            failed: 0,
            digest: 0,
        }
    }

    fn add(&mut self, index: usize, r: &OpResult, with_digest: bool) {
        self.latencies.push(r.ns as f64);
        self.wall_ns += r.ns + r.aux_ns;
        self.block.push((r.ns, r.aux_ns));
        self.block_ns += r.ns + r.aux_ns;
        if self.block_ns >= BLOCK_NS {
            self.calibrate();
        }
        self.attempted += r.outcome.attempted;
        self.failed += r.outcome.failed;
        if with_digest {
            self.digest = oracle::chain(self.digest, index as u64, r.outcome.digest);
            self.open.harness = true;
        }
    }

    /// Sample the reference kernel and bring the operations since the last
    /// sample to reference speed, by the mean of the samples on either side
    /// of them. Returns the sample, ns.
    pub fn calibrate(&mut self) -> f64 {
        let before = self.ref_samples.last().copied().unwrap_or(REF_KERNEL_NS);
        let after = host::reference_kernel_ns() as f64;
        self.ref_samples.push(after);
        // one thread, no waiting: what the kernel took is the CPU it took
        self.aside_cpu_s += after / 1e9;
        let slow = slowdown(before, after);
        for (ns, aux_ns) in std::mem::take(&mut self.block) {
            self.open.latencies.push(ns as f64 / slow);
            self.open.raw_ns += ns + aux_ns;
            self.open.scaled_ns += (ns + aux_ns) as f64 / slow;
        }
        self.block_ns = 0;
        if self.open.raw_ns >= SLICE_NS {
            self.close_slice();
        }
        after
    }

    /// Harness work between two operations, with a sample on either side of
    /// it, so that no operation is scaled by a stale one, and its CPU kept
    /// out of the slice's. Returns what the work returned and how much
    /// slower than the reference speed the host ran meanwhile.
    pub fn aside<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let before = self.calibrate();
        let cpu_before = host::cpu_seconds();
        let out = work();
        if let (Some(a), Some(b)) = (cpu_before, host::cpu_seconds()) {
            self.aside_cpu_s += b - a;
        }
        let after = self.calibrate();
        (out, slowdown(before, after))
    }

    fn close_slice(&mut self) {
        let now = Opened::now();
        let guest_cpu_s = now.at.duration_since(self.opened.at).as_secs_f64() * self.cpus;
        if let (Some(a), Some(b), true) = (self.opened.steal, now.steal, guest_cpu_s > 0.0) {
            self.open.steal = b.saturating_sub(a) as f64 / 100.0 / guest_cpu_s;
        }
        if let (Some(a), Some(b)) = (self.opened.cpu_s, now.cpu_s) {
            self.open.cpu_s = (b - a - self.aside_cpu_s).max(0.0);
        }
        self.slices.push(std::mem::take(&mut self.open));
        self.opened = now;
        self.aside_cpu_s = 0.0;
    }

    /// Scale what is left and say what the kept slices show. A loop too
    /// short to close a slice is one slice.
    pub fn figures(&mut self) -> Figures {
        self.calibrate();
        if self.slices.is_empty() {
            self.close_slice();
        }
        let steal: Vec<f64> = self.slices.iter().map(|s| s.steal).collect();
        let kept = quiet(&steal);
        let mut latencies: Vec<f64> = kept
            .iter()
            .flat_map(|i| self.slices[*i].latencies.iter().copied())
            .collect();
        let kept: Vec<&Slice> = kept
            .iter()
            .map(|i| &self.slices[*i])
            .filter(|s| s.scaled_ns > 0.0)
            .collect();
        let mut rates: Vec<f64> = kept
            .iter()
            .map(|s| s.latencies.len() as f64 * 1e9 / s.scaled_ns)
            .collect();
        // a loop with harness work throughout (a smoke run) has no better
        let own = kept.iter().any(|s| !s.harness);
        let cpu: Vec<&&Slice> = kept.iter().filter(|s| !(own && s.harness)).collect();
        let mut cpu_ms: Vec<f64> = cpu
            .iter()
            .map(|s| {
                let slow = s.raw_ns as f64 / s.scaled_ns;
                s.cpu_s * 1e3 / s.latencies.len() as f64 / slow
            })
            .collect();
        Figures {
            op_p50_ns: stats::median(&mut latencies),
            ops: latencies.len() as u64,
            ops_per_s: stats::median(&mut rates),
            cpu_ms_per_op: stats::median(&mut cpu_ms),
            cpu_ops: cpu.iter().map(|s| s.latencies.len() as u64).sum(),
            slices_kept: kept.len() as u64,
            slices: self.slices.len() as u64,
        }
    }
}

/// Issue `count` operations with digests, checking the oracle at six
/// evenly spaced instants (the last operation included).
pub fn counted_phase(
    s: &mut Session<'_>,
    count: usize,
    tr: &mut Tracer,
    timed: &mut Timed,
) -> Result<u64, String> {
    let mut checks = 0u64;
    let stride = (count / 6).max(1);
    for k in 0..count {
        let index = s.next_op;
        let r = s.op(tr, true)?;
        timed.add(index, &r, true);
        if (k + 1).is_multiple_of(stride) || k + 1 == count {
            checks += s.check_relations()? as u64;
        }
    }
    s.check_counts()?;
    Ok(checks)
}

/// A directory name no other run (or test thread) of this process uses.
pub fn unique_dir(scratch: &Path, what: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    scratch.join(format!("{what}-{}-{n}", std::process::id()))
}

/// Where a traced run writes its spans.
pub fn spans_path(scratch: &Path, workload: &str) -> PathBuf {
    scratch.join(format!("{workload}.spans.jsonl"))
}

/// Checkpoint the session, restore a fresh and identically declared
/// runtime from the file, and demand that it then returns the original's
/// outcome for the next three operations.
pub fn check_restore(s: &mut Session<'_>, opts: &RunOptions) -> Result<(), String> {
    let dir = unique_dir(&opts.scratch, "ckpt");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let result = (|| {
        s.rt.checkpoint_to(&dir)?;
        let mut restored = s.restore_target(WORKERS)?;
        restored.rt.restore_from(&dir)?;
        for _ in 0..3 {
            let a = s.op(&mut Tracer::off(), true)?;
            let b = restored.op(&mut Tracer::off(), true)?;
            if a.outcome != b.outcome {
                return Err(format!(
                    "restore: operation {} diverged after restore_from: {:?} vs {:?}",
                    s.next_op - 1,
                    a.outcome,
                    b.outcome
                ));
            }
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// A whole set-up and the seconds it took.
fn timed_setup<'a>(w: &'a Workload, inputs: &'a Inputs) -> Result<(Session<'a>, f64), String> {
    let started = Instant::now();
    let s = Session::setup(w, inputs, WORKERS, &mut Tracer::off())?;
    Ok((s, started.elapsed().as_secs_f64()))
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(w: &Workload, opts: &RunOptions) -> Result<RunReport, String> {
    let inputs = w.inputs(opts.seed);
    let mut off = Tracer::off();
    let began = (Instant::now(), host::steal_jiffies());
    let mut timed = Timed::start();
    // every set-up is brought to reference speed by the samples around it
    let (first, slow) = timed.aside(|| timed_setup(w, &inputs));
    let (mut s, first_setup_s) = first?;
    let mut setups_s = vec![first_setup_s / slow];

    // -- counted phase: exact work, digest, oracle -------------------------
    let oracle_checks = counted_phase(&mut s, w.sizes.counted, &mut off, &mut timed)?;
    let digest = timed.digest;
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    let (dedup_hits, dedup_misses) = s.rt.dedup_stats();
    let snapshot_bytes = s.rt.snapshot_bytes().len() as u64;
    let counted_totals = s.totals;
    timed.aside(|| check_restore(&mut s, opts)).0?;

    // -- top-up phase: until `seconds` of operation time are measured ------
    // The other set-ups are taken at even marks of this phase rather than
    // back to back, so that one slow second of the host does not
    // decide their median.
    let budget_ns = ((opts.seconds * 1e9) as u64).max(1);
    let min_topup = (w.sizes.counted / 2).max(1);
    let topup_from = timed.wall_ns;
    let span_ns = budget_ns.saturating_sub(topup_from).max(1);
    let mut topup = 0usize;
    while timed.wall_ns < budget_ns || topup < min_topup {
        let index = s.next_op;
        let r = s.op(&mut off, false)?;
        timed.add(index, &r, false);
        topup += 1;
        let done_ns = timed.wall_ns.saturating_sub(topup_from);
        if setups_s.len() < SETUPS && done_ns * SETUPS as u64 >= setups_s.len() as u64 * span_ns {
            // the runtime is let go inside, so that its CPU stays aside too
            let (wall_s, slow) = timed.aside(|| timed_setup(w, &inputs).map(|again| again.1));
            setups_s.push(wall_s? / slow);
        }
    }
    drop(s);
    // a run too short to reach every mark still sets up fifteen times
    while setups_s.len() < SETUPS {
        let (wall_s, slow) = timed.aside(|| timed_setup(w, &inputs).map(|again| again.1));
        setups_s.push(wall_s? / slow);
    }

    let figures = timed.figures();
    let steal_pct = match (began.1, host::steal_jiffies()) {
        (Some(a), Some(b)) => {
            let cpu_s = began.0.elapsed().as_secs_f64() * host::cpus();
            b.saturating_sub(a) as f64 / cpu_s
        }
        _ => 0.0,
    };
    let metrics = vec![
        Measured {
            name: "setup_s",
            value: stats::median(&mut setups_s),
            n: SETUPS as u64,
        },
        Measured {
            name: "op_p50_ms",
            value: figures.op_p50_ns / 1e6,
            n: figures.ops,
        },
        Measured {
            name: "ops_per_s",
            value: figures.ops_per_s,
            n: figures.slices_kept,
        },
        Measured {
            name: "cpu_ms_per_op",
            value: figures.cpu_ms_per_op,
            n: figures.cpu_ops,
        },
        Measured {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            n: 1,
        },
    ];
    // what the host did meanwhile, and the median as the clock read it
    let host_state = vec![
        ("ref_kernel_us", stats::median(&mut timed.ref_samples) / 1e3),
        ("steal_pct", steal_pct),
        ("slices", figures.slices as f64),
        ("slices_kept", figures.slices_kept as f64),
        ("op_p50_raw_ms", stats::median(&mut timed.latencies) / 1e6),
    ];
    Ok(RunReport {
        workload: w.name,
        window: w.sizes.window,
        seed: opts.seed,
        traced: false,
        attempted: timed.attempted,
        failed: timed.failed,
        digest,
        oracle_checks,
        metrics,
        exact: vec![
            ("counted_ops", w.sizes.counted as u64),
            ("ticks", counted_totals.ticks),
            ("statements", counted_totals.statements),
            ("reports", counted_totals.reports),
            ("tuples_pushed", counted_totals.tuples_pushed),
            ("tuples_out", counted_totals.tuples_out),
            ("actions", counted_totals.actions),
            ("dedup_hits", dedup_hits),
            ("dedup_misses", dedup_misses),
            ("snapshot_bytes", snapshot_bytes),
        ],
        self_ms: Vec::new(),
        host_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_are_scaled_by_the_samples_on_either_side() {
        // the kernel at reference speed on both sides: times stand
        assert_eq!(slowdown(REF_KERNEL_NS, REF_KERNEL_NS), 1.0);
        // a host half as fast before and after: times halve
        assert_eq!(slowdown(2.0 * REF_KERNEL_NS, 2.0 * REF_KERNEL_NS), 2.0);
        // a change between the samples counts half
        assert_eq!(slowdown(REF_KERNEL_NS, 2.0 * REF_KERNEL_NS), 1.5);
        assert!(slowdown(0.0, 0.0) > 0.0);
    }

    #[test]
    fn slices_the_hypervisor_disturbed_are_left_out() {
        // all quiet: all kept
        assert_eq!(quiet(&[0.0, 0.01, 0.0, 0.02]).len(), 4);
        // two disturbed ones go
        let mut kept = quiet(&[0.0, 0.30, 0.02, 0.0, 0.11, 0.10, 0.0, 0.0]);
        kept.sort_unstable();
        assert_eq!(kept, [0, 2, 3, 5, 6, 7]);
        // a run disturbed from end to end keeps its quietest quarter
        let mut kept = quiet(&[0.4, 0.2, 0.5, 0.3, 0.6, 0.25, 0.7, 0.8]);
        kept.sort_unstable();
        assert_eq!(kept, [1, 5]);
        assert_eq!(quiet(&[0.9]), [0]);
        assert!(quiet(&[]).is_empty());
    }

    #[test]
    fn a_loop_too_short_for_a_slice_still_has_figures() {
        let mut t = Timed::start();
        let r = OpResult {
            ns: 2_000_000,
            aux_ns: 500_000,
            outcome: Default::default(),
        };
        for i in 0..10 {
            t.add(i, &r, false);
        }
        let f = t.figures();
        assert_eq!((f.ops, f.slices, f.slices_kept), (10, 1, 1));
        assert!(f.op_p50_ns > 0.0 && f.ops_per_s > 0.0);
        // rate and latency are on the same clock: 2.5 ms of driver time
        // per 2 ms operation
        let per_op_ns = 1e9 / f.ops_per_s;
        assert!((per_op_ns / f.op_p50_ns - 1.25).abs() < 1e-9);
        assert_eq!(t.wall_ns, 25_000_000);
        assert_eq!(f.cpu_ops, 10);
    }

    #[test]
    fn the_reference_kernel_does_the_same_work_every_time() {
        assert_eq!(host::reference_work(), host::reference_work());
        assert!(host::reference_kernel_ns() > 0);
    }
}
