//! Stream plumbing: broadcast hubs and environment-fed stream sources.
//!
//! Several registered queries may read the same infinite XD-Relation, and
//! each [`serena_stream::source::StreamSource`] is single-consumer, so the
//! Extended Table Manager hands each query its own subscription:
//!
//! * [`StreamHub`] — an append-only log with per-subscriber cursors, for
//!   externally pushed streams (DDL-declared `STREAM` relations);
//! * [`SensorSampler`] — the temperature stream of the surveillance
//!   scenario: each tick, sample every currently-discovered provider of a
//!   prototype (new sensors join the stream as soon as discovery sees
//!   them — "without the need to stop the continuous query", §5.2);
//! * [`RssStream`] — the RSS wrapper of scenario 2: merge the items the
//!   simulated feeds publish at each instant.

use std::sync::Arc;

use serena_core::sync::Mutex;

use serena_core::prototype::Prototype;
use serena_core::service::Invoker;
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::Value;
use serena_services::devices::rss::SimRssFeed;
use serena_services::directory::NodeDirectory;
use serena_stream::source::StreamSource;

/// An append-only broadcast log: every subscriber sees every tuple pushed
/// after it subscribed.
#[derive(Clone, Default)]
pub struct StreamHub {
    log: Arc<Mutex<Vec<Tuple>>>,
}

impl StreamHub {
    /// Empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a tuple; every live subscription will deliver it on its next
    /// poll.
    pub fn push(&self, t: Tuple) {
        self.log.lock().push(t);
    }

    /// Total tuples ever pushed.
    pub fn len(&self) -> usize {
        self.log.lock().len()
    }

    /// True iff nothing was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.log.lock().is_empty()
    }

    /// A new subscription starting at the current end of the log (streams
    /// are append-only: history is not replayed).
    pub fn subscribe(&self) -> HubSubscription {
        HubSubscription {
            log: Arc::clone(&self.log),
            offset: self.log.lock().len(),
        }
    }
}

/// One subscriber's cursor over a [`StreamHub`].
pub struct HubSubscription {
    log: Arc<Mutex<Vec<Tuple>>>,
    offset: usize,
}

impl StreamSource for HubSubscription {
    fn poll(&mut self, _at: Instant) -> Vec<Tuple> {
        let log = self.log.lock();
        let out = log[self.offset..].to_vec();
        self.offset = log.len();
        out
    }
}

/// A stream that samples every discovered provider of a prototype each
/// tick, emitting `(…metadata attrs…, …output attrs…)` tuples.
///
/// For the surveillance scenario: prototype `getTemperature`, metadata
/// attribute `location` → stream `(location, temperature)`.
pub struct SensorSampler {
    directory: Arc<NodeDirectory>,
    prototype: Arc<Prototype>,
    /// Metadata keys prepended to each output tuple (e.g. `["location"]`).
    metadata_attrs: Vec<String>,
    errors: Arc<Mutex<u64>>,
}

impl SensorSampler {
    /// Sample providers of `prototype`, prefixing outputs with the given
    /// directory metadata attributes.
    pub fn new(
        directory: Arc<NodeDirectory>,
        prototype: Arc<Prototype>,
        metadata_attrs: &[&str],
    ) -> Self {
        SensorSampler {
            directory,
            prototype,
            metadata_attrs: metadata_attrs.iter().map(|s| s.to_string()).collect(),
            errors: Arc::new(Mutex::new(0)),
        }
    }

    /// Shared counter of sampling failures (dead sensors etc.).
    pub fn error_counter(&self) -> Arc<Mutex<u64>> {
        Arc::clone(&self.errors)
    }
}

impl StreamSource for SensorSampler {
    fn poll(&mut self, at: Instant) -> Vec<Tuple> {
        let mut out = Vec::new();
        let (_, providers) = self
            .directory
            .described_providers(self.prototype.name(), &self.metadata_attrs);
        for (reference, prefix) in providers {
            match self
                .directory
                .invoke(&self.prototype, &reference, &Tuple::empty(), at)
            {
                Ok(results) => {
                    for r in results {
                        let mut values = prefix.clone();
                        values.extend(r.values().cloned());
                        out.push(Tuple::new(values));
                    }
                }
                Err(_) => {
                    *self.errors.lock() += 1;
                }
            }
        }
        out
    }
}

/// Merge the per-instant items of several simulated RSS feeds into one
/// `(source, title)` stream.
pub struct RssStream {
    feeds: Vec<SimRssFeed>,
}

impl RssStream {
    /// A stream over the given feeds.
    pub fn new(feeds: Vec<SimRssFeed>) -> Self {
        RssStream { feeds }
    }
}

impl StreamSource for RssStream {
    fn poll(&mut self, at: Instant) -> Vec<Tuple> {
        self.feeds
            .iter()
            .flat_map(|f| f.items_at(at))
            .map(|item| Tuple::new(vec![Value::str(&item.source), Value::str(&item.title)]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::prototype::examples as protos;
    use serena_core::tuple;

    #[test]
    fn hub_broadcasts_to_all_subscribers() {
        let hub = StreamHub::new();
        let mut a = hub.subscribe();
        hub.push(tuple![1]);
        let mut b = hub.subscribe(); // subscribes after push → misses it
        hub.push(tuple![2]);
        assert_eq!(a.poll(Instant(0)), vec![tuple![1], tuple![2]]);
        assert_eq!(b.poll(Instant(0)), vec![tuple![2]]);
        assert!(a.poll(Instant(1)).is_empty());
        assert_eq!(hub.len(), 2);
    }

    #[test]
    fn sensor_sampler_emits_located_readings() {
        let dir = Arc::new(NodeDirectory::new("test"));
        dir.register(
            "sensor01",
            serena_core::service::fixtures::temperature_sensor(1),
        );
        dir.register(
            "sensor06",
            serena_core::service::fixtures::temperature_sensor(6),
        );
        dir.set("sensor01", "location", Value::str("corridor"));
        dir.set("sensor06", "location", Value::str("office"));
        let mut sampler = SensorSampler::new(dir, protos::get_temperature(), &["location"]);
        let batch = sampler.poll(Instant(3));
        assert_eq!(batch.len(), 2);
        for t in &batch {
            assert_eq!(t.arity(), 2);
            assert!(t[1].as_real().is_some());
        }
        // deterministic at the instant
        assert_eq!(batch, sampler.poll(Instant(3)));
    }

    #[test]
    fn sensor_sampler_skips_undescribed_and_counts_failures() {
        let dir = Arc::new(NodeDirectory::new("test"));
        dir.register(
            "sensor01",
            serena_core::service::fixtures::temperature_sensor(1),
        );
        // a registered-but-faulty sensor
        let flaky = serena_services::faults::FaultyService::new(
            serena_core::service::fixtures::temperature_sensor(2),
            serena_services::faults::FaultPolicy::EveryNth(1),
        );
        dir.register("sensor02", flaky);
        dir.set("sensor01", "location", Value::str("corridor"));
        dir.set("sensor02", "location", Value::str("roof"));
        // sensor03 registered but no metadata
        dir.register(
            "sensor03",
            serena_core::service::fixtures::temperature_sensor(3),
        );
        let mut sampler = SensorSampler::new(dir, protos::get_temperature(), &["location"]);
        let errors = sampler.error_counter();
        let batch = sampler.poll(Instant(0));
        assert_eq!(batch.len(), 1); // only sensor01 delivers
        assert_eq!(*errors.lock(), 1);
    }

    #[test]
    fn rss_stream_merges_feeds() {
        let feeds = vec![
            SimRssFeed::new("lemonde", 17, 100, 30),
            SimRssFeed::new("figaro", 29, 100, 30),
        ];
        let expected: usize = feeds.iter().map(|f| f.items_at(Instant(4)).len()).sum();
        let mut s = RssStream::new(feeds);
        let batch = s.poll(Instant(4));
        assert_eq!(batch.len(), expected);
        assert!(batch.iter().all(|t| t.arity() == 2));
    }
}
