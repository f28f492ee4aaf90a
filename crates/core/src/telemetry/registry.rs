//! Named metric series: counters, gauges, histograms, Prometheus text.
//!
//! A [`MetricsRegistry`] is a concurrent map from *(metric name, sorted
//! label set)* to a shared metric instrument. Lookups take a read lock and
//! return an [`Arc`] handle; hot paths resolve their handles once and then
//! update them with plain atomic operations — the registry lock is never
//! held while recording. A resolution is not cheap (it builds the key's
//! strings and descends a map ordered by them), so "once" has to mean once
//! per series, not once per object that happens to do the recording.
//!
//! For series labelled by *service* the registry keeps that promise itself:
//! [`MetricsRegistry::bundle`] maps a [`ServiceRef`] to a caller-defined
//! struct of handles, resolved on the service's first call and kept for the
//! registry's life. The β invoker stack is rebuilt every tick, so a layer
//! that kept its handles in its own fields would resolve them again every
//! tick; the bundles live here because the handles are this registry's
//! series — a bundle cannot count into a registry it was not resolved from,
//! and [`MetricsRegistry::remove_matching`] retires a service's series and
//! its bundles in one place.
//!
//! [`MetricsRegistry::render_prometheus`] serialises every series in the
//! [Prometheus text exposition format](https://prometheus.io/docs/instrumenting/exposition_formats/):
//! `# TYPE` headers, `name{label="value"} sample` lines, and cumulative
//! `_bucket`/`_sum`/`_count` series for histograms.

use std::any::{Any, TypeId};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::RwLock;
use crate::value::ServiceRef;

use super::histogram::Histogram;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// `(name, sorted labels)` — the identity of one series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// A concurrent registry of named counters, gauges and histograms with a
/// Prometheus text renderer.
///
/// Names should follow Prometheus conventions (`snake_case`, counters
/// ending in `_total`, unit suffixes like `_ns`). A name must be used for
/// only one instrument kind.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<SeriesKey, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<SeriesKey, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<SeriesKey, Arc<Histogram>>>,
    bundles: RwLock<Bundles>,
}

type Bundle = Arc<dyn Any + Send + Sync>;

/// Per-service handle bundles, one per bundle type that has recorded for
/// the service (at most three: the β layers'). Keyed by service first so a
/// call pays one hash of the reference it already holds.
#[derive(Debug, Default)]
struct Bundles {
    by_service: HashMap<ServiceRef, Vec<(TypeId, Bundle)>>,
    /// How many services [`MetricsRegistry::remove_matching`] has retired:
    /// handles resolved before a retirement may be the retired series'.
    retirements: u64,
}

impl Bundles {
    fn find<S: Any + Send + Sync>(&self, service: &ServiceRef) -> Option<Arc<S>> {
        let (_, bundle) = self
            .by_service
            .get(service)?
            .iter()
            .find(|(id, _)| *id == TypeId::of::<S>())?;
        Some(Arc::clone(bundle).downcast().expect("stored under S's id"))
    }
}

fn get_or_create<T: Default>(
    map: &RwLock<BTreeMap<SeriesKey, Arc<T>>>,
    name: &str,
    labels: &[(&str, &str)],
) -> Arc<T> {
    let key = SeriesKey::new(name, labels);
    if let Some(existing) = map.read().get(&key) {
        return Arc::clone(existing);
    }
    Arc::clone(map.write().entry(key).or_default())
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle to the counter `name{labels}` (created on first use).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        get_or_create(&self.counters, name, labels)
    }

    /// Handle to the gauge `name{labels}` (created on first use).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        get_or_create(&self.gauges, name, labels)
    }

    /// Handle to the histogram `name{labels}` (created on first use).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        get_or_create(&self.histograms, name, labels)
    }

    /// The handles a hot path keeps for `service`: `resolve` runs on the
    /// first call for this `(S, service)` and its result is kept for the
    /// registry's life (or until [`Self::remove_matching`] retires the
    /// service), so every later call is one hash lookup under a read lock
    /// — no series key built, no series map descended. `S` is the caller's
    /// own struct of [`Counter`] / [`Histogram`] handles labelled
    /// `service=<service>`; two callers asking for the same `S` share one
    /// bundle.
    ///
    /// `resolve` runs outside the map's lock — it allocates series under
    /// the series maps' own locks, and a first call must not stall every
    /// other worker's lookups for that long — so two workers first-calling
    /// one service may both resolve; the series are the same, one bundle is
    /// kept and both are handed it. A bundle resolved while a service was
    /// being retired is resolved again rather than kept.
    pub fn bundle<S: Any + Send + Sync>(
        &self,
        service: &ServiceRef,
        resolve: impl Fn(&MetricsRegistry) -> S,
    ) -> Arc<S> {
        let mut seen = {
            let bundles = self.bundles.read();
            if let Some(kept) = bundles.find(service) {
                return kept;
            }
            bundles.retirements
        };
        loop {
            let fresh = Arc::new(resolve(self));
            let mut bundles = self.bundles.write();
            if let Some(raced) = bundles.find(service) {
                return raced;
            }
            if bundles.retirements == seen {
                bundles
                    .by_service
                    .entry(service.clone())
                    .or_default()
                    .push((TypeId::of::<S>(), Arc::clone(&fresh) as Bundle));
                return fresh;
            }
            seen = bundles.retirements;
        }
    }

    /// How many services [`Self::remove_matching`] has retired: a handle
    /// kept from a bundle since a lower count may count into a retired
    /// series.
    pub(crate) fn retirements(&self) -> u64 {
        self.bundles.read().retirements
    }

    /// Current value of a counter series, if it exists.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .read()
            .get(&SeriesKey::new(name, labels))
            .map(|c| c.get())
    }

    /// The histogram series `name{labels}`, if it exists: unlike
    /// [`Self::histogram`], a read never creates the series it asks for.
    pub fn histogram_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<Arc<Histogram>> {
        self.histograms
            .read()
            .get(&SeriesKey::new(name, labels))
            .map(Arc::clone)
    }

    /// Sum of all counter series sharing `name` (across label sets).
    pub fn sum_counters(&self, name: &str) -> u64 {
        self.counters
            .read()
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, c)| c.get())
            .sum()
    }

    /// Remove every series (counter, gauge or histogram, any metric name)
    /// carrying the label `label_key="label_value"`, returning how many
    /// series were dropped.
    ///
    /// This is how per-entity series are retired when the entity goes
    /// away — e.g. deregistering a continuous query must not leave its
    /// `query="…"` gauges frozen at their last values forever. Retiring
    /// `service="x"` also drops `x`'s [`bundles`](Self::bundle), after the
    /// series and in one step with counting the retirement: a handle
    /// resolved before the sweep is never kept past it, so the service's
    /// next call counts into a live, rendered series.
    pub fn remove_matching(&self, label_key: &str, label_value: &str) -> usize {
        fn sweep<T>(
            map: &RwLock<BTreeMap<SeriesKey, Arc<T>>>,
            label_key: &str,
            label_value: &str,
        ) -> usize {
            let mut map = map.write();
            let before = map.len();
            map.retain(|k, _| {
                !k.labels
                    .iter()
                    .any(|(lk, lv)| lk == label_key && lv == label_value)
            });
            before - map.len()
        }
        let removed = sweep(&self.counters, label_key, label_value)
            + sweep(&self.gauges, label_key, label_value)
            + sweep(&self.histograms, label_key, label_value);
        if label_key == "service" {
            let mut bundles = self.bundles.write();
            bundles.retirements += 1;
            bundles.by_service.remove(&ServiceRef::new(label_value));
        }
        removed
    }

    /// Render every series in the Prometheus text exposition format.
    ///
    /// Series are ordered by name then label set; each family gets one
    /// `# TYPE` header. Histograms emit cumulative `_bucket` lines for
    /// their non-empty buckets plus the `+Inf` bucket, `_sum` and
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();

        let counters = self.counters.read();
        let mut last = None::<&str>;
        for (key, c) in counters.iter() {
            type_header(&mut out, &mut last, &key.name, "counter");
            let _ = writeln!(out, "{}{} {}", key.name, labels(&key.labels, None), c.get());
        }
        drop(counters);

        let gauges = self.gauges.read();
        let mut last = None::<&str>;
        for (key, g) in gauges.iter() {
            type_header(&mut out, &mut last, &key.name, "gauge");
            let _ = writeln!(out, "{}{} {}", key.name, labels(&key.labels, None), g.get());
        }
        drop(gauges);

        let histograms = self.histograms.read();
        let mut last = None::<&str>;
        for (key, h) in histograms.iter() {
            type_header(&mut out, &mut last, &key.name, "histogram");
            for (le, cum) in h.cumulative_buckets() {
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    key.name,
                    labels(&key.labels, Some(&le.to_string())),
                    cum
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                key.name,
                labels(&key.labels, Some("+Inf")),
                h.count()
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                key.name,
                labels(&key.labels, None),
                h.sum()
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                key.name,
                labels(&key.labels, None),
                h.count()
            );
        }
        out
    }
}

/// Write a `# TYPE` header the first time `name` is seen.
fn type_header<'a>(out: &mut String, last: &mut Option<&'a str>, name: &'a str, kind: &str) {
    if *last != Some(name) {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        *last = Some(name);
    }
}

/// Format a label set as `{k="v",…}` (empty string for no labels); `le`
/// appends the histogram bucket bound label.
fn labels(pairs: &[(String, String)], le: Option<&str>) -> String {
    if pairs.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in pairs {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Escape a label value per the Prometheus text format (`\`, `"`, `\n`).
///
/// A raw carriage return would also break the line-oriented exposition
/// format (the spec defines no escape for it), so `\r` is rendered as the
/// two characters `\r` too — scrapers stay parseable even when a hostile
/// service name embeds one.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_lock_free_to_update() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("serena_ticks_total", &[("query", "q1")]);
        let b = reg.counter("serena_ticks_total", &[("query", "q1")]);
        a.inc();
        b.add(2);
        assert_eq!(
            reg.counter_value("serena_ticks_total", &[("query", "q1")]),
            Some(3)
        );
        // label order is normalised
        let c = reg.counter("multi", &[("b", "2"), ("a", "1")]);
        c.inc();
        assert_eq!(
            reg.counter_value("multi", &[("a", "1"), ("b", "2")]),
            Some(1)
        );
    }

    #[test]
    fn sum_counters_spans_label_sets() {
        let reg = MetricsRegistry::new();
        reg.counter("calls_total", &[("service", "s1")]).add(2);
        reg.counter("calls_total", &[("service", "s2")]).add(3);
        reg.counter("other_total", &[]).add(100);
        assert_eq!(reg.sum_counters("calls_total"), 5);
        assert_eq!(reg.sum_counters("missing"), 0);
    }

    #[test]
    fn render_prometheus_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("serena_invocations_total", &[("service", "sensor01")])
            .add(4);
        reg.gauge("serena_services", &[]).set(2);
        let h = reg.histogram("serena_latency_ns", &[("service", "sensor01")]);
        h.record(100);
        h.record(5_000);

        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE serena_invocations_total counter"));
        assert!(text.contains("serena_invocations_total{service=\"sensor01\"} 4"));
        assert!(text.contains("# TYPE serena_services gauge"));
        assert!(text.contains("serena_services 2"));
        assert!(text.contains("# TYPE serena_latency_ns histogram"));
        assert!(text.contains("serena_latency_ns_bucket{service=\"sensor01\",le=\"+Inf\"} 2"));
        assert!(text.contains("serena_latency_ns_sum{service=\"sensor01\"} 5100"));
        assert!(text.contains("serena_latency_ns_count{service=\"sensor01\"} 2"));

        // Every non-comment line is `name_or_labels value` with a numeric
        // sample — the grammar Prometheus scrapers expect.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("sample separator");
            assert!(!series.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad sample in {line:?}");
        }
    }

    #[test]
    fn type_header_emitted_once_per_family() {
        let reg = MetricsRegistry::new();
        reg.counter("family_total", &[("k", "a")]).inc();
        reg.counter("family_total", &[("k", "b")]).inc();
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE family_total counter").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", &[("name", "a\"b\\c\nd\re")]).inc();
        let text = reg.render_prometheus();
        assert!(text.contains(r#"c_total{name="a\"b\\c\nd\re"} 1"#));
        // the rendered text stays strictly line-oriented
        assert!(!text.contains('\r'));
    }

    #[test]
    fn remove_matching_retires_an_entitys_series() {
        let reg = MetricsRegistry::new();
        reg.counter("ticks_total", &[("query", "q1")]).inc();
        reg.counter("ticks_total", &[("query", "q2")]).inc();
        reg.gauge("freshness", &[("query", "q1")]).set(5);
        reg.histogram("tick_ns", &[("query", "q1")]).record(100);
        reg.counter("global_total", &[]).inc();

        assert_eq!(reg.remove_matching("query", "q1"), 3);
        let text = reg.render_prometheus();
        assert!(!text.contains("query=\"q1\""), "q1 series linger:\n{text}");
        assert!(text.contains("ticks_total{query=\"q2\"} 1"));
        assert!(text.contains("global_total 1"));
        // removing again is a no-op
        assert_eq!(reg.remove_matching("query", "q1"), 0);
    }

    /// A layer's bundle, as the β layers define theirs.
    struct Calls(Arc<Counter>);

    fn calls(reg: &MetricsRegistry, service: &ServiceRef) -> Arc<Calls> {
        reg.bundle(service, |r| {
            Calls(r.counter("calls_total", &[("service", service.as_str())]))
        })
    }

    #[test]
    fn a_bundle_is_resolved_once_per_service_and_type() {
        let reg = MetricsRegistry::new();
        let (s1, s2) = (ServiceRef::new("s1"), ServiceRef::new("s2"));
        let resolved = AtomicU64::new(0);
        let get = |service: &ServiceRef| {
            reg.bundle(service, |r| {
                resolved.fetch_add(1, Ordering::SeqCst);
                Calls(r.counter("calls_total", &[("service", service.as_str())]))
            })
        };
        let first = get(&s1);
        assert!(Arc::ptr_eq(&first, &get(&s1)));
        assert!(!Arc::ptr_eq(&first, &get(&s2)));
        assert_eq!(resolved.load(Ordering::SeqCst), 2, "one resolution each");
        // another bundle type for the same service is its own entry
        struct Other(Arc<Counter>);
        let other = reg.bundle(&s1, |r| Other(r.counter("other_total", &[])));
        other.0.inc();
        first.0.inc();
        assert_eq!(
            reg.counter_value("calls_total", &[("service", "s1")]),
            Some(1)
        );
        assert_eq!(reg.counter_value("other_total", &[]), Some(1));
    }

    #[test]
    fn concurrent_first_calls_share_one_bundle_and_lose_no_increment() {
        const ROUNDS: usize = 200;
        const PER_THREAD: u64 = 500;
        let reg = MetricsRegistry::new();
        for round in 0..ROUNDS {
            let service = ServiceRef::new(format!("s{round}"));
            let resolved = AtomicU64::new(0);
            // both threads leave the barrier into the service's first call
            let start = std::sync::Barrier::new(2);
            let bundles: Vec<Arc<Calls>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            let mut kept = None;
                            for _ in 0..PER_THREAD {
                                let bundle = reg.bundle(&service, |r| {
                                    resolved.fetch_add(1, Ordering::SeqCst);
                                    Calls(
                                        r.counter("calls_total", &[("service", service.as_str())]),
                                    )
                                });
                                bundle.0.inc();
                                kept = Some(bundle);
                            }
                            kept.expect("PER_THREAD > 0")
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("caller thread"))
                    .collect()
            });
            // both may have resolved (the same series); one bundle is kept
            assert!((1..=2).contains(&resolved.load(Ordering::SeqCst)));
            assert!(Arc::ptr_eq(&bundles[0], &bundles[1]), "round {round}");
            assert_eq!(
                reg.counter_value("calls_total", &[("service", service.as_str())]),
                Some(2 * PER_THREAD),
                "round {round}"
            );
        }
    }

    #[test]
    fn a_bundle_resolved_across_a_retirement_is_resolved_again() {
        let reg = MetricsRegistry::new();
        let service = ServiceRef::new("s");
        let resolutions = AtomicU64::new(0);
        let bundle = reg.bundle(&service, |r| {
            let calls = Calls(r.counter("calls_total", &[("service", "s")]));
            // the service is retired after this resolution, before its
            // handles are kept: they are the swept series'
            if resolutions.fetch_add(1, Ordering::SeqCst) == 0 {
                assert_eq!(r.remove_matching("service", "s"), 1);
            }
            calls
        });
        assert_eq!(resolutions.load(Ordering::SeqCst), 2);
        bundle.0.inc();
        assert_eq!(
            reg.counter_value("calls_total", &[("service", "s")]),
            Some(1),
            "the kept handle counts into the live series"
        );
        assert!(Arc::ptr_eq(&bundle, &calls(&reg, &service)));
    }

    #[test]
    fn retiring_a_service_drops_its_bundles_with_its_series() {
        let reg = MetricsRegistry::new();
        let (gone, stays) = (ServiceRef::new("gone"), ServiceRef::new("stays"));
        calls(&reg, &gone).0.add(7);
        calls(&reg, &stays).0.add(1);
        assert_eq!(reg.remove_matching("service", "gone"), 1);
        assert!(!reg.render_prometheus().contains("gone"));
        // the next call counts into a live, rendered series — not into the
        // retired one through a handle kept past its retirement
        calls(&reg, &gone).0.inc();
        assert_eq!(
            reg.counter_value("calls_total", &[("service", "gone")]),
            Some(1)
        );
        assert!(reg
            .render_prometheus()
            .contains("calls_total{service=\"gone\"} 1"));
        // a bystander's bundle is untouched, and so is any other label's
        calls(&reg, &stays).0.inc();
        reg.remove_matching("query", "stays");
        calls(&reg, &stays).0.inc();
        assert_eq!(
            reg.counter_value("calls_total", &[("service", "stays")]),
            Some(3)
        );
    }
}
