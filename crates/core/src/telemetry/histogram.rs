//! Lock-free log-linear histograms.
//!
//! A [`Histogram`] buckets `u64` samples (latencies in nanoseconds, batch
//! sizes, …) into **log-linear** buckets: each power-of-two octave is split
//! into `SUBS` linear sub-buckets, bounding the relative quantile error
//! at `1 / SUBS` (12.5%) while keeping the whole table at a fixed
//! `BUCKET_COUNT` slots. Recording is a handful of relaxed atomic
//! increments — no locks, no allocation — so histograms can sit on hot
//! paths shared across executor threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Linear sub-buckets per power-of-two octave (relative error ≤ 1/SUBS).
const SUBS: u64 = 8;

/// log2(SUBS) — samples below `SUBS` get an exact bucket each.
const SUB_BITS: u32 = 3;

/// Total bucket count: the exact linear region plus 61 octaves × SUBS.
const BUCKET_COUNT: usize = (SUBS as usize) * 62;

/// Map a sample to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUBS - 1)) as usize;
    group * SUBS as usize + sub
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` value).
fn bucket_upper_bound(i: usize) -> u64 {
    let subs = SUBS as usize;
    if i < subs {
        return i as u64;
    }
    let group = (i / subs) as u32;
    let sub = (i % subs) as u64;
    let bound = ((SUBS + sub + 1) as u128) << (group - 1);
    u128::min(bound - 1, u64::MAX as u128) as u64
}

/// A fixed-size log-linear histogram with atomic buckets.
///
/// Tracks count, sum, max and the full bucket table; quantiles are
/// estimated from bucket upper bounds (relative error ≤ 12.5%, capped at
/// the exact observed maximum).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    /// Last span id recorded into each bucket (0 = none) — **exemplars**:
    /// a quantile estimate links back to a concrete recorded span tree.
    /// Allocated by the first stamped sample: span ids exist only while
    /// the flight recorder is armed, and a table as large as the buckets
    /// on each of a fleet's per-service histograms is otherwise half of
    /// what they weigh.
    exemplars: OnceLock<Box<[AtomicU64]>>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    /// An empty histogram.
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            exemplars: OnceLock::new(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record one sample and stamp `span_id` as its bucket's exemplar, so
    /// quantile lookups can link back to the span that produced an
    /// outlier. A `span_id` of 0 records the sample without an exemplar.
    pub fn record_with_exemplar(&self, v: u64, span_id: u64) {
        let idx = bucket_index(v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        if span_id != 0 {
            let exemplars = self
                .exemplars
                .get_or_init(|| (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect());
            exemplars[idx].store(span_id, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// The exemplar span id for the bucket holding the `q`-quantile rank
    /// (`None` when the histogram is empty, was never stamped, or no
    /// exemplar was stamped there).
    pub fn exemplar_for_quantile(&self, q: f64) -> Option<u64> {
        let exemplars = self.exemplars.get()?;
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                let id = exemplars[i].load(Ordering::Relaxed);
                return (id != 0).then_some(id);
            }
        }
        None
    }

    /// Record a [`std::time::Duration`] in nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u128::min(d.as_nanos(), u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wraps on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (exact; 0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the bucket table.
    ///
    /// Returns the upper bound of the bucket holding the rank-`⌈q·n⌉`
    /// sample, capped at the exact observed [`Histogram::max`]. Returns 0
    /// when empty.
    fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return u64::min(bucket_upper_bound(i), self.max());
            }
        }
        self.max()
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Cumulative `(le, count)` pairs for every non-empty bucket, in
    /// ascending `le` order — the Prometheus `_bucket` series (the implicit
    /// `+Inf` bucket is [`Histogram::count`]).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                cum += c;
                out.push((bucket_upper_bound(i), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every sample lands in a bucket whose bounds contain it, and
        // bucket indices never decrease as values grow.
        let mut prev_idx = 0usize;
        for v in (0..10_000u64).chain([1 << 20, 1 << 40, u64::MAX - 1, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i < BUCKET_COUNT, "index {i} out of range for {v}");
            assert!(v <= bucket_upper_bound(i), "{v} above bound of bucket {i}");
            if i > 0 {
                assert!(
                    v > bucket_upper_bound(i - 1),
                    "{v} not above bucket {}'s bound",
                    i - 1
                );
            }
            assert!(i >= prev_idx || v < 10_000, "index regressed at {v}");
            prev_idx = i;
        }
        assert_eq!(bucket_upper_bound(BUCKET_COUNT - 1), u64::MAX);
    }

    #[test]
    fn exact_for_small_values() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 16);
        assert_eq!(h.max(), 7);
        assert_eq!(h.p50(), 2); // rank 3 of [0,1,2,3,3,7]
        assert_eq!(h.quantile(1.0), 7);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn quantile_error_is_bounded() {
        // Deterministic pseudo-random samples; histogram quantiles must be
        // within 1/SUBS of the exact order statistics.
        let h = Histogram::default();
        let mut samples: Vec<u64> = (0u64..10_000)
            .map(|i| (i.wrapping_mul(2654435761) % 1_000_000) + 1)
            .collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = samples[((q * samples.len() as f64).ceil() as usize - 1).min(9999)];
            let est = h.quantile(q);
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(
                rel <= 1.0 / SUBS as f64,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(h.max(), *samples.last().unwrap());
    }

    #[test]
    fn cumulative_buckets_end_at_count() {
        let h = Histogram::default();
        for v in [5u64, 100, 100, 4096, 1 << 30] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        assert_eq!(buckets.last().unwrap().1, h.count());
        // cumulative counts are non-decreasing, bounds strictly increasing
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn exemplars_link_quantiles_to_spans() {
        let h = Histogram::default();
        assert_eq!(h.exemplar_for_quantile(0.99), None);
        for _ in 0..99 {
            h.record_with_exemplar(10, 7); // fast bucket, exemplar 7
        }
        h.record_with_exemplar(1 << 20, 42); // the outlier
        assert_eq!(h.exemplar_for_quantile(0.5), Some(7));
        assert_eq!(h.exemplar_for_quantile(1.0), Some(42));
        // recording without a span id keeps the previous exemplar
        h.record_with_exemplar(1 << 20, 0);
        assert_eq!(h.exemplar_for_quantile(1.0), Some(42));
    }

    #[test]
    fn an_unstamped_histogram_holds_no_exemplar_table() {
        let h = Histogram::default();
        for v in [10u64, 1 << 20] {
            h.record(v);
            h.record_with_exemplar(v, 0); // tracing off: span id 0
        }
        assert!(h.exemplars.get().is_none(), "no span id, no table");
        assert_eq!(h.exemplar_for_quantile(0.5), None);
        assert_eq!(h.count(), 4);
        // the first stamped sample allocates it, and its quantile links
        h.record_with_exemplar(1 << 20, 42);
        assert_eq!(h.exemplars.get().map(|t| t.len()), Some(BUCKET_COUNT));
        assert_eq!(h.exemplar_for_quantile(1.0), Some(42));
        assert_eq!(h.exemplar_for_quantile(0.1), None, "bucket never stamped");
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.cumulative_buckets().is_empty());
    }
}
