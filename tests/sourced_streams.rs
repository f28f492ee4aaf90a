//! A sourced stream is one time → multiset mapping (§4.1): every query
//! reading it at an instant reads the batch of one poll of its source. The
//! first query to read the stream at an instant polls the source; the
//! others read what that poll returned. A source nobody reads is never
//! polled, and a source that panics fails, at that instant, exactly the
//! queries that read it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serena::core::error::EvalError;
use serena::core::time::Instant;
use serena::core::tuple;
use serena::pems::envspec::EnvSpec;
use serena::pems::SchedulerConfig;
use serena::prelude::*;
use serena::services::bus::BusConfig;
use serena::services::faults::FaultPolicy;
use serena::stream::FnStream;

fn int_schema() -> SchemaRef {
    XSchema::builder().real("x", DataType::Int).build().unwrap()
}

/// Two identical `W[1](temperatures)` queries over a sampled fleet in
/// which one sensor fails every second call: both read one sample of the
/// fleet per instant, so they report equal deltas, and the faulty sensor
/// is called once an instant — its reading is in every second window.
#[test]
fn identical_queries_over_a_sampled_stream_report_equal_deltas() {
    let spec = EnvSpec::new(11)
        .sensors(4)
        .sensor_fault(1, FaultPolicy::EveryNth(2));
    let (mut pems, _fleet) = spec.build().unwrap();
    let plan = StreamPlan::source("temperatures").window(1);
    pems.register_query("a", &plan).unwrap();
    pems.register_query("b", &plan).unwrap();
    let mut sizes = Vec::new();
    for _ in 0..8 {
        let reports = pems.tick();
        let [(_, a), (_, b)] = &reports[..] else {
            panic!("two queries tick");
        };
        assert_eq!(a.delta, b.delta, "instant {:?}", a.at);
        let current = |name| pems.processor().current_relation(name).unwrap().len();
        assert_eq!(current("a"), current("b"), "instant {:?}", a.at);
        sizes.push(current("a"));
    }
    assert_eq!(sizes, [3, 4, 3, 4, 3, 4, 3, 4]);
}

/// A counting source is polled not at all while no query reads it, then
/// once per instant however many queries read it, on one worker or four.
#[test]
fn a_sourced_stream_is_polled_once_per_instant() {
    for workers in [1, 4] {
        let mut pems = Pems::builder()
            .bus(BusConfig::instant())
            .scheduler(SchedulerConfig::new(workers))
            .build();
        let polls = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&polls);
        let source = FnStream(move |at: Instant| {
            counted.fetch_add(1, Ordering::Relaxed);
            vec![tuple![at.ticks() as i64]]
        });
        pems.tables()
            .define_stream_with("s", int_schema(), source)
            .unwrap();
        pems.run_ticks(3);
        assert_eq!(polls.load(Ordering::Relaxed), 0, "workers={workers}");
        let s = || StreamPlan::source("s");
        pems.register_query("w1", &s().window(1)).unwrap();
        pems.register_query("w3", &s().window(3)).unwrap();
        pems.register_query("both", &s().window(1).union(s().window(2)))
            .unwrap();
        for ticked in 1..=5 {
            for (name, report) in pems.tick() {
                assert!(report.errors.is_empty(), "{name}: {:?}", report.errors);
                let now = tuple![report.at.ticks() as i64];
                assert!(report.delta.inserts.contains(&now), "{name}");
            }
            assert_eq!(polls.load(Ordering::Relaxed), ticked, "workers={workers}");
        }
    }
}

/// A source that panics at instant 2 fails the tick of every query that
/// reads it at 2, and of no other; at 3 all of them read the source's
/// batch again.
#[test]
fn a_panicking_source_fails_every_query_that_reads_it_at_that_instant() {
    for workers in [1, 4] {
        let mut pems = Pems::builder()
            .bus(BusConfig::instant())
            .scheduler(SchedulerConfig::new(workers))
            .build();
        let source = FnStream(|at: Instant| {
            assert_ne!(at, Instant(2), "the source fails at 2");
            vec![tuple![at.ticks() as i64]]
        });
        pems.tables()
            .define_stream_with("s", int_schema(), source)
            .unwrap();
        pems.tables()
            .define_push_stream("pushed", int_schema())
            .unwrap();
        for name in ["a", "b", "c"] {
            let plan = StreamPlan::source("s").window(1);
            pems.register_query(name, &plan).unwrap();
        }
        let pushed = StreamPlan::source("pushed").window(1);
        pems.register_query("pushed", &pushed).unwrap();
        for at in 0..4u64 {
            assert!(pems.tables().push_stream("pushed", tuple![at as i64]));
            for (name, report) in pems.tick() {
                assert_eq!(report.at, Instant(at));
                let panicked = matches!(&report.errors[..], [EvalError::Panicked { .. }]);
                let reads_source = name != "pushed";
                assert_eq!(panicked, reads_source && at == 2, "{name} at {at}");
                if !panicked {
                    assert!(report.errors.is_empty(), "{name} at {at}");
                    let now = tuple![at as i64];
                    assert!(report.delta.inserts.contains(&now), "{name} at {at}");
                }
            }
        }
    }
}
