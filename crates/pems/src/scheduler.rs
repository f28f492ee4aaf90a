//! The multi-query tick scheduler (DESIGN § 4, *Multi-query scheduler &
//! β dedup*). A tick round submits one weighted job per registered query,
//! in name order; [`WorkerPool::scope`] cuts the list into at most
//! `workers` contiguous runs of about equal weight (with equal weights,
//! job `i` goes to run `i · runs / jobs`), runs the first on the calling
//! thread and each other on a `std::thread::scope` thread spawned for the
//! round, and returns when every run has finished. A round with one
//! worker or one job spawns no thread. A panicking job is caught where it
//! runs; the jobs after it in its run still run.
//!
//! The jobs are independent — one per query, each writing its own result
//! slot, read back in name order — so output is byte-identical at every
//! worker count and whatever the weights (`tests/envgen_determinism.rs`).

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use serena_core::telemetry::{span, FlightRecorder};
use serena_core::time::Instant;

/// How the processor runs a multi-query tick round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Threads a round runs on, the calling thread included.
    pub workers: usize,
}

impl Default for SchedulerConfig {
    /// One worker per available core.
    fn default() -> Self {
        SchedulerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl SchedulerConfig {
    /// Exactly `workers` threads per round (floored at 1).
    pub fn new(workers: usize) -> Self {
        SchedulerConfig {
            workers: workers.max(1),
        }
    }
}

/// A submitted job, its weight, and the span it was submitted under and
/// when (both zero when no recorder is armed), so its `sched.job` span can
/// cross threads.
struct Tracked<'env> {
    job: Box<dyn FnOnce() + Send + 'env>,
    weight: u64,
    parent: u64,
    submitted_ns: u64,
}

/// Runs rounds of scoped jobs; holds no thread between rounds.
pub struct WorkerPool {
    workers: usize,
    tracer: Option<Arc<FlightRecorder>>,
    /// The logical instant every `sched.job` span carries.
    at: Instant,
}

impl WorkerPool {
    /// Rounds of `config.workers` threads (at least 1).
    pub fn new(config: SchedulerConfig) -> Self {
        Self::with_tracer(config, None, Instant::ZERO)
    }

    /// [`WorkerPool::new`] recording one `sched.job` span per executed
    /// job into `tracer` (worker, queue wait vs run time), stamped with
    /// the logical instant `at` its rounds tick.
    pub fn with_tracer(
        config: SchedulerConfig,
        tracer: Option<Arc<FlightRecorder>>,
        at: Instant,
    ) -> Self {
        WorkerPool {
            workers: config.workers.max(1),
            tracer,
            at,
        }
    }

    /// Threads a round runs on, the caller's included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run one round: `f` submits any number of jobs borrowing from the
    /// caller's stack via [`Scope::submit_weighted`]; they start once `f`
    /// returns, and `scope` returns when every one has finished. If `f`
    /// panics, the jobs it submitted are dropped without running.
    pub fn scope<'env, F>(&self, f: F)
    where
        F: FnOnce(&Scope<'env, '_>),
    {
        let tracer = self.tracer.as_deref().filter(|r| r.armed());
        let scope = Scope {
            tracer,
            jobs: RefCell::new(Vec::new()),
        };
        f(&scope);
        let mut jobs = scope.jobs.into_inner();
        let runs = self.workers.min(jobs.len());
        let weight = |t: &Tracked<'_>| u128::from(t.weight.max(1));
        let total: u128 = jobs.iter().map(weight).sum();
        // Run `r` starts at the first job whose predecessors weigh at least
        // `r / runs` of the round, moved on so that no run is empty.
        let (mut starts, mut i, mut before) = (vec![0], 0, 0);
        for r in 1..runs {
            let cap = jobs.len() - (runs - r);
            while i == starts[r - 1] || (i < cap && before * (runs as u128) < (r as u128) * total) {
                before += weight(&jobs[i]);
                i += 1;
            }
            starts.push(i);
        }
        let at = self.at;
        std::thread::scope(|threads| {
            for (r, &start) in starts.iter().enumerate().skip(1).rev() {
                let tail = jobs.split_off(start);
                threads.spawn(move || run(tail, r, tracer, at));
            }
            run(jobs, 0, tracer, at);
        });
    }
}

/// Run one contiguous run of a round at instant `at`, in order, as worker
/// `worker`.
fn run(jobs: Vec<Tracked<'_>>, worker: usize, tracer: Option<&FlightRecorder>, at: Instant) {
    for tracked in jobs {
        let mut job_span = tracer.and_then(|r| r.start_with("sched.job", tracked.parent, at));
        if let Some(s) = job_span.as_mut() {
            let wait = tracer.map_or(0, |r| r.now_ns().saturating_sub(tracked.submitted_ns));
            s.attr_u64("queue_wait_ns", wait);
            s.attr_u64("worker", worker as u64);
            s.attr_u64("weight_ns", tracked.weight);
        }
        let _in_span = job_span.as_ref().map(|s| s.enter());
        // a panicking job must not stop the rest of its run
        let _ = std::panic::catch_unwind(AssertUnwindSafe(tracked.job));
    }
}

/// The submission handle of one round. Jobs may borrow from the `'env`
/// stack frame: every one finishes before [`WorkerPool::scope`] returns.
pub struct Scope<'env, 'pool> {
    tracer: Option<&'pool FlightRecorder>,
    jobs: RefCell<Vec<Tracked<'env>>>,
}

impl<'env> Scope<'env, '_> {
    /// Submit a job that may borrow from `'env`, weighing 1.
    pub fn submit<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.submit_weighted(1, f);
    }

    /// Submit a job that may borrow from `'env` and is expected to cost
    /// `weight` (any unit shared by the round; 0 counts as 1). The weight
    /// decides only which thread runs the job.
    pub fn submit_weighted<F>(&self, weight: u64, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.jobs.borrow_mut().push(Tracked {
            job: Box::new(f),
            weight,
            parent: self.tracer.map_or(0, |_| span::current()),
            submitted_ns: self.tracer.map_or(0, |r| r.now_ns()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    #[test]
    fn config_floors_at_one_worker() {
        assert_eq!(SchedulerConfig::new(0).workers, 1);
        assert_eq!(SchedulerConfig::new(5).workers, 5);
        assert!(SchedulerConfig::default().workers >= 1);
    }

    #[test]
    fn scope_runs_every_job_and_blocks_until_done() {
        let pool = WorkerPool::new(SchedulerConfig::new(4));
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..64 {
                scope.submit(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        // scope() returned ⇒ all jobs finished; borrows of `counter` done.
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn rounds_reuse_the_same_pool() {
        let pool = WorkerPool::new(SchedulerConfig::new(2));
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.scope(|scope| {
                for _ in 0..8 {
                    scope.submit(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 80);
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn results_can_be_written_into_stack_slots() {
        let pool = WorkerPool::new(SchedulerConfig::new(3));
        let mut slots: Vec<Option<usize>> = vec![None; 16];
        pool.scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                scope.submit(move || {
                    *slot = Some(i * i);
                });
            }
        });
        let got: Vec<usize> = slots.into_iter().map(|s| s.expect("slot filled")).collect();
        assert_eq!(got, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new(SchedulerConfig::new(2));
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            // first in the caller's run, with the rest of that run after it
            scope.submit(|| panic!("tick exploded"));
            for _ in 0..4 {
                scope.submit(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        // the pool still works for the next round
        pool.scope(|scope| {
            scope.submit(|| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn single_worker_pool_is_exact() {
        let pool = WorkerPool::new(SchedulerConfig::new(1));
        let sum = AtomicUsize::new(0);
        pool.scope(|scope| {
            for i in 1..=100 {
                let sum = &sum;
                scope.submit(move || {
                    sum.fetch_add(i, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(sum.load(Ordering::SeqCst), 5050);
    }

    /// The thread each of `jobs` jobs ran on, at `workers`.
    fn threads_of(workers: usize, jobs: usize) -> Vec<ThreadId> {
        let pool = WorkerPool::new(SchedulerConfig::new(workers));
        let mut ran: Vec<Option<ThreadId>> = vec![None; jobs];
        pool.scope(|scope| {
            for slot in ran.iter_mut() {
                scope.submit(move || *slot = Some(std::thread::current().id()));
            }
        });
        ran.into_iter().map(|t| t.expect("job ran")).collect()
    }

    #[test]
    fn a_round_is_a_contiguous_split_led_by_the_caller() {
        let caller = std::thread::current().id();
        for (workers, jobs) in [(2, 2), (2, 5), (3, 7), (4, 10), (4, 4), (8, 20)] {
            let ran = threads_of(workers, jobs);
            let runs = workers.min(jobs);
            for (i, thread) in ran.iter().enumerate() {
                // job `i` shares a thread exactly with the jobs of its run
                for (j, other) in ran.iter().enumerate() {
                    let same_run = i * runs / jobs == j * runs / jobs;
                    assert_eq!(
                        thread == other,
                        same_run,
                        "{workers}w/{jobs}: jobs {i}, {j}"
                    );
                }
                assert_eq!(
                    *thread == caller,
                    i * runs / jobs == 0,
                    "{workers}w/{jobs}: {i}"
                );
            }
        }
        // a one-job round and a one-worker round never leave the caller
        assert_eq!(threads_of(4, 1), vec![caller]);
        assert_eq!(threads_of(1, 9), vec![caller; 9]);
    }

    /// The job ranges a round at `workers` runs on one thread each, in
    /// order, for jobs weighing `weights`.
    fn runs_of(workers: usize, weights: &[u64]) -> Vec<std::ops::Range<usize>> {
        let pool = WorkerPool::new(SchedulerConfig::new(workers));
        let mut ran: Vec<Option<ThreadId>> = vec![None; weights.len()];
        pool.scope(|scope| {
            for (slot, &weight) in ran.iter_mut().zip(weights) {
                scope.submit_weighted(weight, move || {
                    *slot = Some(std::thread::current().id());
                });
            }
        });
        let ran: Vec<ThreadId> = ran.into_iter().map(|t| t.expect("job ran")).collect();
        let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
        for (i, thread) in ran.iter().enumerate() {
            match runs.last_mut() {
                Some(run) if ran[run.start] == *thread => run.end = i + 1,
                _ => runs.push(i..i + 1),
            }
        }
        runs
    }

    #[test]
    fn a_round_is_cut_by_weight() {
        // three light jobs before four heavy ones: two heavy ones a run
        assert_eq!(runs_of(2, &[1, 1, 1, 9, 9, 9, 9]), [0..5, 5..7]);
        // one job heavier than all the others leaves no run empty
        assert_eq!(runs_of(4, &[100, 1, 1, 1, 1]), [0..1, 1..2, 2..3, 3..5]);
        assert_eq!(runs_of(4, &[1, 1, 1, 1, 100]), [0..2, 2..3, 3..4, 4..5]);
        // a weight of 0 counts as 1
        assert_eq!(runs_of(2, &[0; 4]), [0..2, 2..4]);
        assert_eq!(runs_of(2, &[2, 0, 0, 0]), [0..2, 2..4]);
    }
}
