//! Atomic metric primitives, the global registry, and the one histogram
//! layout that [`Histogram`] and [`crate::StreamHistogram`] share.
//!
//! All updates are relaxed atomic operations on `&'static` handles; the
//! registry mutex is touched only at first registration and at snapshot
//! time, so the steady-state fast path is lock-free.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::Json;

/// Number of log2-scaled buckets in [`Histogram`] and
/// [`crate::StreamHistogram`] (one per power of two of the recorded value
/// — covers the full `u64` nanosecond range).
pub const HIST_BUCKETS: usize = 64;

/// Index of the bucket holding `v` (0 and 1 share bucket 0).
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        v.ilog2() as usize
    }
}

/// Representative value of bucket `i`: the geometric middle of `[2^i,
/// 2^(i+1))`, capped to stay in `u64`.
fn bucket_mid(i: usize) -> u64 {
    if i == 0 {
        1
    } else if i >= 63 {
        u64::MAX / 2 + 1
    } else {
        (1u64 << i) + (1u64 << (i - 1))
    }
}

/// The 1-based nearest rank of the `q`-quantile among `n` ordered values:
/// `max(1, ⌈q·n⌉)`, with `q` clamped to `[0, 1]` so the rank never
/// exceeds `n` (for `n ≥ 1`).
pub fn nearest_rank(q: f64, n: u64) -> u64 {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// The `q`-quantile of `total` values bucketed as `counts` (in bucket
/// order): the representative value of the bucket holding the
/// nearest-rank value — exact to within a factor of two. 0 when empty.
pub(crate) fn bucket_quantile(q: f64, total: u64, counts: impl IntoIterator<Item = u64>) -> u64 {
    if total == 0 {
        return 0;
    }
    let target = nearest_rank(q, total);
    let mut cum = 0u64;
    for (i, c) in counts.into_iter().enumerate() {
        cum += c;
        if cum >= target {
            return bucket_mid(i);
        }
    }
    bucket_mid(HIST_BUCKETS - 1)
}

/// A monotonically increasing event/quantity counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n`: a relaxed `fetch_add` when recording is on, nothing
    /// when it is off.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Relaxed);
        }
    }

    /// Adds one.
    #[inline(always)]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Relaxed);
    }
}

/// A last-value-wins `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// A fresh gauge at `0.0`.
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0),
        }
    }

    /// Stores `v` (relaxed; nothing when recording is off).
    #[inline(always)]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Relaxed);
        }
    }

    /// Last stored value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Relaxed);
    }
}

/// A log2-bucketed distribution, sized for nanosecond latencies: bucket
/// `i` holds values whose integer log2 is `i`, so quantiles are exact to
/// within a factor of two across the whole `u64` range at 64×8 bytes of
/// storage per histogram.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observation: three relaxed `fetch_add`s when
    /// recording is on, nothing when it is off.
    #[inline(always)]
    pub fn record(&self, value: u64) {
        if crate::enabled() {
            self.buckets[bucket_of(value)].fetch_add(1, Relaxed);
            self.count.fetch_add(1, Relaxed);
            self.sum.fetch_add(value, Relaxed);
        }
    }

    /// Records a duration in nanoseconds.
    #[inline(always)]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the representative value
    /// of the bucket the nearest-rank quantile falls in — exact to within
    /// a factor of two. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        bucket_quantile(
            q,
            self.count(),
            self.buckets.iter().map(|b| b.load(Relaxed)),
        )
    }

    fn reset(&self) {
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }
}

/// RAII timer recording its lifetime into a [`Histogram`] on drop
/// (nanoseconds). Constructed via the [`crate::time_hist!`] macro.
pub struct HistTimer {
    inner: Option<(&'static Histogram, Instant)>,
}

impl HistTimer {
    /// Starts the timer (an inert one when recording is off).
    #[inline(always)]
    pub fn new(hist: &'static Histogram) -> Self {
        HistTimer {
            inner: crate::enabled().then(|| (hist, Instant::now())),
        }
    }
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some((hist, t0)) = self.inner.take() {
            hist.record_duration(t0.elapsed());
        }
    }
}

/// The process-wide metric registry. Handles are `&'static` (registered
/// metrics live for the process); the maps are only locked on first
/// registration, [`Registry::snapshot`] and [`Registry::reset`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static R: OnceLock<Registry> = OnceLock::new();
    R.get_or_init(Registry::default)
}

impl Registry {
    /// The counter registered as `name` (registering it on first use,
    /// whether or not recording is on).
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = self.counters.lock().expect("metric registry poisoned");
        if let Some(c) = map.get(name) {
            return c;
        }
        let leaked: &'static Counter = Box::leak(Box::default());
        map.insert(name.to_owned(), leaked);
        leaked
    }

    /// The gauge registered as `name` (see [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut map = self.gauges.lock().expect("metric registry poisoned");
        if let Some(g) = map.get(name) {
            return g;
        }
        let leaked: &'static Gauge = Box::leak(Box::default());
        map.insert(name.to_owned(), leaked);
        leaked
    }

    /// The histogram registered as `name` (see [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut map = self.histograms.lock().expect("metric registry poisoned");
        if let Some(h) = map.get(name) {
            return h;
        }
        let leaked: &'static Histogram = Box::leak(Box::default());
        map.insert(name.to_owned(), leaked);
        leaked
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("metric registry poisoned")
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("metric registry poisoned")
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metric registry poisoned")
            .iter()
            .map(|(n, h)| HistogramSnapshot {
                name: n.clone(),
                count: h.count(),
                sum: h.sum(),
                mean: h.mean(),
                p50: h.quantile(0.50),
                p95: h.quantile(0.95),
                p99: h.quantile(0.99),
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Zeroes every registered metric (handles stay valid). Profiling
    /// binaries use this to separate phases, e.g. training vs inference.
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .expect("metric registry poisoned")
            .values()
        {
            c.reset();
        }
        for g in self
            .gauges
            .lock()
            .expect("metric registry poisoned")
            .values()
        {
            g.reset();
        }
        for h in self
            .histograms
            .lock()
            .expect("metric registry poisoned")
            .values()
        {
            h.reset();
        }
    }
}

/// Aggregated view of one histogram inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Mean observed value.
    pub mean: f64,
    /// Median (bucket-resolution, see [`Histogram::quantile`]).
    pub p50: u64,
    /// 95th percentile (bucket-resolution).
    pub p95: u64,
    /// 99th percentile (bucket-resolution).
    pub p99: u64,
}

/// A point-in-time copy of the registry, name-sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, total)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, f64)>,
    /// One aggregate per histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// The snapshotted total of counter `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The snapshotted value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The snapshotted aggregate of histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The snapshot as one JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{..}}`, each keyed by
    /// metric name.
    pub fn to_json(&self) -> Json {
        let histogram = |h: &HistogramSnapshot| {
            Json::object([
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("mean", h.mean.into()),
                ("p50", h.p50.into()),
                ("p95", h.p95.into()),
                ("p99", h.p99.into()),
            ])
        };
        Json::object([
            (
                "counters",
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), (*v).into()))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Object(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), (*v).into()))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Object(
                    self.histograms
                        .iter()
                        .map(|h| (h.name.clone(), histogram(h)))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        crate::set_enabled(true);
        let c = registry().counter("test.metrics.counter_accumulates");
        let before = c.get();
        c.add(3);
        c.incr();
        assert_eq!(c.get(), before + 4);
    }

    #[test]
    fn macro_returns_same_handle_as_registry() {
        crate::set_enabled(true);
        let a = crate::counter!("test.metrics.same_handle");
        let b = registry().counter("test.metrics.same_handle");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn gauge_is_last_value_wins() {
        crate::set_enabled(true);
        let g = registry().gauge("test.metrics.gauge");
        g.set(1.25);
        g.set(-7.5);
        assert_eq!(g.get(), -7.5);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn nearest_rank_is_max_one_ceil_q_n() {
        assert_eq!(nearest_rank(0.5, 4), 2);
        assert_eq!(nearest_rank(0.95, 4), 4);
        assert_eq!(nearest_rank(0.99, 100), 99);
        assert_eq!(nearest_rank(0.0, 4), 1, "rank clamps up to 1");
        assert_eq!(nearest_rank(1.0, 4), 4);
        assert_eq!(nearest_rank(1.5, 4), 4, "q clamps to 1");
        assert_eq!(nearest_rank(-0.5, 4), 1, "q clamps to 0");
        assert_eq!(nearest_rank(f64::NAN, 4), 1);
        assert_eq!(nearest_rank(0.5, u64::MAX), 1 << 63);
    }

    #[test]
    fn histogram_quantiles_are_bucket_accurate() {
        crate::set_enabled(true);
        let h = Histogram::new();
        // 90 small values (~100) and 10 large ones (~100_000)
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 90 * 100 + 10 * 100_000);
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        // bucket-resolution: within a factor of two of the true value
        assert!((64..256).contains(&p50), "p50 = {p50}");
        assert!((65_536..262_144).contains(&p95), "p95 = {p95}");
        assert!(h.quantile(0.0) <= h.quantile(1.0));
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn snapshot_json_is_parseable_and_escaped() {
        crate::set_enabled(true);
        let snap = Snapshot {
            counters: vec![("weird \"name\"\n".to_owned(), 3)],
            gauges: vec![("g".to_owned(), f64::NAN)],
            histograms: vec![HistogramSnapshot {
                name: "h_ns".to_owned(),
                count: 2,
                sum: 10,
                mean: 5.0,
                p50: 6,
                p95: 6,
                p99: 6,
            }],
        };
        let parsed = crate::Json::parse(&snap.to_json().to_string()).expect("valid JSON");
        assert_eq!(parsed["counters"]["weird \"name\"\n"].as_u64(), Some(3));
        assert!(
            parsed["gauges"]["g"].is_null(),
            "NaN must serialise as null"
        );
        assert_eq!(parsed["histograms"]["h_ns"]["count"].as_u64(), Some(2));
        assert_eq!(parsed["histograms"]["h_ns"]["mean"].as_f64(), Some(5.0));
    }
}
