//! Helpers shared by the suites under `tests/`, each written once: the
//! seeded generator, one tick observation, the crash-and-resume loop and
//! the one-shot reference evaluator.
//!
//! The generator is `serena_testkit::Rng`, the one the crates' unit tests
//! draw from too: the same seed generates the same cases on every run,
//! which keeps failures reproducible (re-run the named test).

#![allow(dead_code)]

use std::path::Path;

use serena::core::ops;
use serena::core::snapshot::Writer;
use serena::core::xrelation::XRelation;
use serena::prelude::*;

pub use serena_testkit::Rng;

/// Everything observable about one query's tick, in comparable form. The
/// delta goes through its canonical snapshot encoding, so equality is
/// byte-level, not just structural. Errors are a sorted multiset: *which*
/// invocations fail at an instant is part of the determinism contract, but
/// their order follows β invocation order, which is unspecified.
#[derive(Debug, PartialEq)]
pub struct Obs {
    pub query: String,
    pub at: Instant,
    pub delta_bytes: Vec<u8>,
    pub batch: Vec<Tuple>,
    pub actions: String,
    pub errors: Vec<String>,
    pub invocations: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub failures: u64,
}

/// One tick's reports, each observed.
pub fn observe(reports: Vec<(String, TickReport)>) -> Vec<Obs> {
    reports
        .into_iter()
        .map(|(query, r)| {
            let mut w = Writer::new();
            r.delta.encode(&mut w);
            let mut errors: Vec<String> = r.errors.iter().map(|e| e.to_string()).collect();
            errors.sort();
            Obs {
                query,
                at: r.at,
                delta_bytes: w.into_bytes(),
                batch: r.batch,
                actions: r.actions.to_string(),
                errors,
                invocations: r.stats.total_invocations(),
                cache_hits: r.stats.total_cache_hits(),
                cache_misses: r.stats.total_cache_misses(),
                failures: r.stats.total_failures(),
            }
        })
        .collect()
}

/// How a crashed runtime's state reaches the fresh one.
pub enum Handoff<'a> {
    /// Its `snapshot_bytes`, cut after its last tick.
    Bytes,
    /// The checkpoint it last wrote into this directory.
    File(&'a Path),
}

/// An uninterrupted run, and the input it and every crashed run replay:
/// `feed(pems, t)` writes instant `t`'s input before its tick.
pub struct Baseline<F> {
    /// The runtime after its last tick.
    pems: Pems,
    /// Each tick's observations, and the snapshot cut after it.
    pub ticks: Vec<(Vec<Obs>, Vec<u8>)>,
    feed: F,
}

impl<F: FnMut(&mut Pems, u64)> Baseline<F> {
    /// Tick `pems` through instants `0..ticks`.
    pub fn run(mut pems: Pems, ticks: u64, mut feed: F) -> Self {
        let ticks = (0..ticks)
            .map(|t| {
                feed(&mut pems, t);
                (observe(pems.tick()), pems.snapshot_bytes())
            })
            .collect();
        Baseline { pems, ticks, feed }
    }

    /// Crash and resume: `doomed` ticks through instants `0..kill` and is
    /// dropped; its state reaches `fresh`, built by the same static setup,
    /// by `handoff`; and `fresh` ticks on to the baseline's end. It must
    /// resume at instant `kill` with the baseline's snapshot, then match
    /// every later tick's observations and snapshot, and at the end each
    /// query's result and statistics.
    pub fn crash_and_resume(
        &mut self,
        kill: u64,
        mut doomed: Pems,
        mut fresh: Pems,
        handoff: Handoff<'_>,
        context: &str,
    ) {
        let context = format!("kill={kill} {context}");
        for t in 0..kill {
            (self.feed)(&mut doomed, t);
            doomed.tick();
        }
        let restored = match handoff {
            Handoff::Bytes => {
                let bytes = doomed.snapshot_bytes();
                drop(doomed);
                fresh.restore_bytes(&bytes)
            }
            Handoff::File(dir) => {
                drop(doomed);
                fresh.restore_from(dir)
            }
        };
        restored.unwrap_or_else(|e| panic!("restore failed ({context}): {e}"));
        assert_eq!(fresh.clock(), Instant(kill), "{context}");
        if let Some(last) = kill.checked_sub(1) {
            let snapshot = &self.ticks[last as usize].1;
            assert!(
                fresh.snapshot_bytes() == *snapshot,
                "restored snapshot, {context}"
            );
        }
        for t in kill..self.ticks.len() as u64 {
            (self.feed)(&mut fresh, t);
            let got = observe(fresh.tick());
            let (obs, snapshot) = &self.ticks[t as usize];
            assert_eq!(&got, obs, "tick {t} diverged, {context}");
            assert!(
                fresh.snapshot_bytes() == *snapshot,
                "snapshot after tick {t} diverged, {context}"
            );
        }
        let (last, _) = self.ticks.last().expect("a baseline of at least one tick");
        let (got, expected) = (fresh.processor(), self.pems.processor());
        for query in last.iter().map(|o| o.query.as_str()) {
            assert_eq!(
                got.current_relation(query),
                expected.current_relation(query),
                "result of `{query}` diverged, {context}"
            );
            assert_eq!(
                got.stats(query),
                expected.stats(query),
                "stats of `{query}`, {context}"
            );
        }
    }
}

/// The one-shot reference: `plan` evaluated at `at` by folding it over the
/// `ops::*` executors, one operator at a time, with no compilation step —
/// each node's operands evaluated into whole X-Relations and handed to
/// `ops::union`, `ops::select`, `ops::join`, …. Active invocations are
/// recorded into `actions`. One-shot plans only.
pub fn reference(
    plan: &Plan,
    env: &Environment,
    invoker: &dyn Invoker,
    at: Instant,
    actions: &mut ActionSet,
) -> XRelation {
    let mut eval = |p: &Plan| reference(p, env, invoker, at, actions);
    match plan {
        Plan::Relation(name) => env.relation(name).expect("relation defined").clone(),
        Plan::Union(a, b) => ops::union(&eval(a), &eval(b)).unwrap(),
        Plan::Intersect(a, b) => ops::intersect(&eval(a), &eval(b)).unwrap(),
        Plan::Difference(a, b) => ops::difference(&eval(a), &eval(b)).unwrap(),
        Plan::Project(r, attrs) => ops::project(&eval(r), attrs).unwrap(),
        Plan::Select(r, f) => ops::select(&eval(r), f).unwrap(),
        Plan::Rename(r, from, to) => ops::rename(&eval(r), from, to).unwrap(),
        Plan::Join(a, b) => ops::join(&eval(a), &eval(b)).unwrap(),
        Plan::Assign(r, attr, source) => ops::assign(&eval(r), attr, source).unwrap(),
        Plan::Aggregate(r, group, aggs) => ops::aggregate(&eval(r), group, aggs).unwrap(),
        Plan::Invoke(r, prototype, service_attr) => {
            let operand = eval(r);
            ops::invoke(
                &operand,
                prototype,
                service_attr.as_str(),
                invoker,
                at,
                actions,
            )
            .unwrap()
        }
        Plan::Window(..) | Plan::Stream(..) | Plan::SampleInvoke(..) => {
            unreachable!("continuous operator in a one-shot plan: {plan}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(5) < 5);
            let v = r.i64_in(-3, 9);
            assert!((-3..9).contains(&v));
        }
    }
}
