//! The host a number was taken on, and the process's own resource use.

use std::collections::{BTreeMap, HashMap};
use std::process::Command;

/// Header every JSON result carries.
#[derive(Debug, Clone)]
pub struct Host {
    pub git_commit: String,
    pub rustc: String,
    pub profile: &'static str,
    pub nproc: usize,
    pub cpu_model: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Host {
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            // a driver's checkout is not a git repository
            git_commit: command_line("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            nproc: cpus() as usize,
            cpu_model,
        }
    }
}

/// Names of the environment variables in `knobs` that are set.
pub fn set_knobs(knobs: &[&'static str]) -> Vec<&'static str> {
    knobs
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

/// Process user+system CPU seconds so far, from `/proc/self/stat`
/// (`None` off Linux).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // the command name may hold spaces; fields resume after the last ')'
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI
    Some((utime + stime) / 100.0)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPUs this process may run on.
pub fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// Jiffies (1/100 s) the hypervisor withheld from the guest's CPUs since
/// boot: the `steal` column of `/proc/stat`, all CPUs together (`None` off
/// Linux).
pub fn steal_jiffies() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .nth(7)?
        .parse()
        .ok()
}

/// The reference kernel's work: a fixed sequence of what the product spends
/// its time on — formatted string keys, ordered and hashed maps, growing
/// vectors, allocation and release. Returns a checksum of what it built.
pub fn reference_work() -> u64 {
    let mut by_key: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..1_500u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        by_key
            .entry(format!("area-{:03}-{}", x % 512, i % 7))
            .or_default()
            .push(x);
    }
    let mut sums: HashMap<String, u64> = HashMap::new();
    for (key, values) in &by_key {
        let sum = values.iter().fold(0u64, |a, v| a.wrapping_add(*v));
        *sums.entry(key.clone()).or_insert(0) += sum;
    }
    sums.values()
        .fold(by_key.len() as u64, |a, v| a.wrapping_add(*v))
}

/// One execution of the reference kernel, in ns: how fast the host runs
/// this kind of code right now. The same work every time, so two samples
/// differ by the host alone.
pub fn reference_kernel_ns() -> u64 {
    let started = std::time::Instant::now();
    std::hint::black_box(reference_work());
    started.elapsed().as_nanos() as u64
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x = (x ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
    }
    std::hint::black_box(x)
}

/// How much faster two threads finish two fixed arithmetic loops than one
/// thread finishes them in turn (best of three): 2.0 on two free cores,
/// about 1 where the "cores" share one.
pub fn thread_speedup(iters: u64) -> f64 {
    let best = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let started = std::time::Instant::now();
                f();
                started.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let serial = best(&|| {
        spin(iters);
        spin(iters);
    });
    let parallel = best(&|| {
        std::thread::scope(|s| {
            s.spawn(|| spin(iters));
            spin(iters);
        });
    });
    if parallel > 0.0 {
        serial / parallel
    } else {
        0.0
    }
}
