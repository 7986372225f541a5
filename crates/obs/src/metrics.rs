//! The unified metrics registry: counters, gauges, fixed-bucket
//! histograms, and deterministic point-in-time snapshots.
//!
//! # Determinism
//!
//! Counter cells are sharded over a fixed array of atomics; each thread
//! picks one shard (assigned round-robin from a process-wide counter, no
//! thread-id hashing, no randomness) and a snapshot sums all shards.
//! Addition over `u64` is associative and commutative, so the snapshot is
//! independent of which threads incremented what, and a run with
//! `--threads 8` snapshots byte-identically to the same run with
//! `--threads 1`. Histograms store only integer bucket counts and an
//! integer sum, for the same reason — no float accumulation whose result
//! depends on merge order.
//!
//! # Label cardinality
//!
//! Labels are baked into the registry key at resolution time. Callers are
//! expected to keep cardinality bounded and deterministic: participant
//! indices (`user="p0007"`), interface names, endpoint names, fault
//! kinds. Nothing derived from racy state (thread ids, arrival order)
//! may appear in a label — see DESIGN.md § 5e.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde_json::{Number, Value};

/// Shards per counter cell. Small enough to stay cheap to sum, large
/// enough that a handful of worker threads rarely share a shard.
const COUNTER_SHARDS: usize = 8;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_INDEX: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// The shard this thread writes counters to, assigned on first use.
fn shard_index() -> usize {
    SHARD_INDEX.with(|cell| {
        let v = cell.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
            cell.set(v);
            v
        }
    })
}

#[derive(Debug)]
struct CounterCell {
    shards: [AtomicU64; COUNTER_SHARDS],
}

impl CounterCell {
    fn new() -> Self {
        CounterCell {
            shards: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn sum(&self) -> u64 {
        self.shards.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

/// A monotonically increasing counter handle.
///
/// Cloning is cheap; clones share the same cell. The no-op form (from a
/// disabled [`Obs`](crate::Obs)) makes every operation an inlined branch
/// on `None`.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<CounterCell>>);

impl Counter {
    /// A handle that records nothing and reads zero.
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.shards[shard_index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across shards (zero for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.sum())
    }

    /// Overwrites the total. Meant for re-seeding a handle from durable
    /// state (checkpoint restore, re-binding to a new registry); not safe
    /// to race with concurrent `add`s.
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.0 {
            for (i, shard) in cell.shards.iter().enumerate() {
                shard.store(if i == 0 { value } else { 0 }, Ordering::Relaxed);
            }
        }
    }
}

/// A gauge: a value that can move both ways.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A handle that records nothing and reads zero.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value (zero for a no-op handle).
    pub fn get(&self) -> i64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCell {
    /// Inclusive upper bounds; `buckets` has one extra slot for overflow.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCell {
    fn new(bounds: &[u64]) -> Self {
        HistogramCell {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram over integer values.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    /// A handle that records nothing.
    pub fn noop() -> Histogram {
        Histogram(None)
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(cell) = &self.0 {
            let idx = cell.bounds.partition_point(|&b| b < value);
            cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// The number of observations so far.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// The sum of observed values so far.
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
enum MetricEntry {
    Counter(Arc<CounterCell>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCell>),
}

/// The registry: a name+labels → metric map shared by every layer.
///
/// Resolution (`counter`/`gauge`/`histogram`) takes a lock and is meant
/// to happen once, at component construction; the returned handles are
/// lock-free. Resolving the same name and labels twice yields handles on
/// the same cell. Resolving a name as two different metric types is a
/// programming error and panics.
pub struct MetricsRegistry {
    entries: Mutex<BTreeMap<String, MetricEntry>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("len", &self.entries.lock().len())
            .finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders the canonical key `name{k1="v1",k2="v2"}` with labels sorted
/// by key. The snapshot's map order (and therefore its JSON byte order)
/// follows from this rendering.
fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '"' => key.push_str("\\\""),
                '\\' => key.push_str("\\\\"),
                other => key.push(other),
            }
        }
        key.push('"');
    }
    key.push('}');
    key
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    /// Resolves (creating if needed) the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = metric_key(name, labels);
        let mut entries = self.entries.lock();
        let entry = entries
            .entry(key.clone())
            .or_insert_with(|| MetricEntry::Counter(Arc::new(CounterCell::new())));
        match entry {
            MetricEntry::Counter(cell) => Counter(Some(cell.clone())),
            _ => panic!("metric {key} already registered with a different type"),
        }
    }

    /// Resolves (creating if needed) the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = metric_key(name, labels);
        let mut entries = self.entries.lock();
        let entry = entries
            .entry(key.clone())
            .or_insert_with(|| MetricEntry::Gauge(Arc::new(AtomicI64::new(0))));
        match entry {
            MetricEntry::Gauge(cell) => Gauge(Some(cell.clone())),
            _ => panic!("metric {key} already registered with a different type"),
        }
    }

    /// Resolves (creating if needed) the histogram `name{labels}` with the
    /// given inclusive bucket upper bounds (an overflow bucket is added).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        let key = metric_key(name, labels);
        let mut entries = self.entries.lock();
        let entry = entries
            .entry(key.clone())
            .or_insert_with(|| MetricEntry::Histogram(Arc::new(HistogramCell::new(bounds))));
        match entry {
            MetricEntry::Histogram(cell) => {
                assert_eq!(
                    cell.bounds, bounds,
                    "metric {key} already registered with different bucket bounds"
                );
                Histogram(Some(cell.clone()))
            }
            _ => panic!("metric {key} already registered with a different type"),
        }
    }

    /// A point-in-time snapshot of every registered metric.
    ///
    /// Taken between simulation phases (not while writers race) the
    /// snapshot is exact; taken concurrently it is a consistent-enough
    /// relaxed read of each cell.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock();
        let mut out = BTreeMap::new();
        for (key, entry) in entries.iter() {
            let value = match entry {
                MetricEntry::Counter(cell) => SnapshotValue::Counter(cell.sum()),
                MetricEntry::Gauge(cell) => SnapshotValue::Gauge(cell.load(Ordering::Relaxed)),
                MetricEntry::Histogram(cell) => SnapshotValue::Histogram(HistogramSnapshot {
                    bounds: cell.bounds.clone(),
                    buckets: cell
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                    count: cell.count.load(Ordering::Relaxed),
                    sum: cell.sum.load(Ordering::Relaxed),
                }),
            };
            out.insert(key.clone(), value);
        }
        MetricsSnapshot { entries: out }
    }
}

/// A frozen histogram, as captured by [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; one extra overflow bucket at the end.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Exact bucket-resolution quantile: the inclusive upper bound of the
    /// bucket holding the rank-⌈q·count⌉ observation (observations within
    /// a bucket are indistinguishable, so the bound *is* the tightest
    /// value the histogram can certify the quantile to be ≤). Overflow
    /// observations report [`u64::MAX`]; an empty histogram has no
    /// quantiles at all and answers `None`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Observations certifiably ≤ `target`: the sum of buckets whose
    /// upper bound is ≤ `target`. Bucket-conservative — an observation in
    /// a bucket straddling the target counts as a miss.
    pub fn count_within(&self, target: u64) -> u64 {
        self.bounds
            .iter()
            .zip(&self.buckets)
            .take_while(|(&bound, _)| bound <= target)
            .map(|(_, &bucket)| bucket)
            .sum()
    }

    /// SLO attainment against a latency target (same unit as the
    /// observations, canonically microseconds).
    pub fn slo_report(&self, target_us: u64) -> SloReport {
        let p50_us = self.quantile(0.50).unwrap_or(0);
        let p99_us = self.quantile(0.99).unwrap_or(0);
        SloReport {
            target_us,
            count: self.count,
            within: self.count_within(target_us),
            p50_us,
            p99_us,
            p999_us: self.quantile(0.999).unwrap_or(0),
            attained: p99_us <= target_us,
        }
    }
}

/// A latency histogram summarized against an SLO target — the shape the
/// `slo_report` surfaces render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloReport {
    /// The target the report was evaluated against.
    pub target_us: u64,
    /// Total observations.
    pub count: u64,
    /// Observations certifiably within the target (bucket-conservative).
    pub within: u64,
    /// Median, at bucket resolution (0 when empty).
    pub p50_us: u64,
    /// 99th percentile, at bucket resolution (0 when empty).
    pub p99_us: u64,
    /// 99.9th percentile, at bucket resolution (0 when empty).
    pub p999_us: u64,
    /// Whether the p99 meets the target (vacuously true when empty).
    pub attained: bool,
}

impl SloReport {
    /// Attained fraction in `[0, 1]` (1.0 when empty).
    pub fn attainment(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            self.within as f64 / self.count as f64
        }
    }
}

/// One frozen metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotValue {
    /// A counter total.
    Counter(u64),
    /// A gauge value.
    Gauge(i64),
    /// A histogram.
    Histogram(HistogramSnapshot),
}

/// A point-in-time capture of the whole registry, key-sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, SnapshotValue>,
}

impl MetricsSnapshot {
    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a metric by its canonical key, e.g.
    /// `device_samples_total{interface="gsm",user="p0003"}`.
    pub fn get(&self, key: &str) -> Option<&SnapshotValue> {
        self.entries.get(key)
    }

    /// The counter total under `key`, or zero if absent or not a counter.
    pub fn counter_value(&self, key: &str) -> u64 {
        match self.entries.get(key) {
            Some(SnapshotValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Sums every counter whose canonical key starts with `prefix`.
    pub fn counter_sum_with_prefix(&self, prefix: &str) -> u64 {
        self.entries
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| match v {
                SnapshotValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Iterates `(key, value)` in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SnapshotValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sums every histogram whose canonical key starts with `prefix`
    /// into one snapshot — e.g. all `cloud_request_latency_us{…}` label
    /// combinations into an all-endpoints latency distribution. `None`
    /// when no histogram matches.
    ///
    /// # Panics
    ///
    /// Panics when matching histograms carry different bucket bounds —
    /// a prefix that mixes families is a caller bug, not data.
    pub fn merged_histogram(&self, prefix: &str) -> Option<HistogramSnapshot> {
        let mut merged: Option<HistogramSnapshot> = None;
        for (key, value) in self.iter() {
            if !key.starts_with(prefix) {
                continue;
            }
            let SnapshotValue::Histogram(h) = value else {
                continue;
            };
            match &mut merged {
                None => merged = Some(h.clone()),
                Some(m) => {
                    assert_eq!(
                        m.bounds, h.bounds,
                        "histogram prefix {prefix:?} mixes bucket bounds"
                    );
                    for (slot, bucket) in m.buckets.iter_mut().zip(&h.buckets) {
                        *slot += bucket;
                    }
                    m.count += h.count;
                    m.sum += h.sum;
                }
            }
        }
        merged
    }

    /// Deterministic JSON: one key-sorted object whose values are either
    /// `{"type":"counter","value":n}`, `{"type":"gauge","value":n}`, or
    /// `{"type":"histogram","bounds":[…],"buckets":[…],"count":n,"sum":n}`.
    /// Same facts ⇒ same bytes, regardless of thread count.
    pub fn to_json(&self) -> String {
        let mut root = BTreeMap::new();
        for (key, value) in &self.entries {
            let rendered = match value {
                SnapshotValue::Counter(v) => {
                    let mut obj = BTreeMap::new();
                    obj.insert("type".to_string(), Value::String("counter".to_string()));
                    obj.insert("value".to_string(), Value::Number(Number::PosInt(*v)));
                    Value::Object(obj)
                }
                SnapshotValue::Gauge(v) => {
                    let mut obj = BTreeMap::new();
                    obj.insert("type".to_string(), Value::String("gauge".to_string()));
                    obj.insert("value".to_string(), Value::Number(Number::from_i64(*v)));
                    Value::Object(obj)
                }
                SnapshotValue::Histogram(h) => {
                    let mut obj = BTreeMap::new();
                    obj.insert("type".to_string(), Value::String("histogram".to_string()));
                    obj.insert(
                        "bounds".to_string(),
                        Value::Array(
                            h.bounds
                                .iter()
                                .map(|&b| Value::Number(Number::PosInt(b)))
                                .collect(),
                        ),
                    );
                    obj.insert(
                        "buckets".to_string(),
                        Value::Array(
                            h.buckets
                                .iter()
                                .map(|&b| Value::Number(Number::PosInt(b)))
                                .collect(),
                        ),
                    );
                    obj.insert("count".to_string(), Value::Number(Number::PosInt(h.count)));
                    obj.insert("sum".to_string(), Value::Number(Number::PosInt(h.sum)));
                    Value::Object(obj)
                }
            };
            root.insert(key.clone(), rendered);
        }
        Value::Object(root).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = registry.clone();
            handles.push(std::thread::spawn(move || {
                let c = r.counter("work_total", &[("stage", "a")]);
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            registry.counter("work_total", &[("stage", "a")]).get(),
            4000
        );
    }

    #[test]
    fn merged_histogram_sums_label_combinations() {
        let registry = MetricsRegistry::new();
        let bounds = [10, 100, 1000];
        registry
            .histogram("latency_us", &[("endpoint", "a")], &bounds)
            .observe(5);
        registry
            .histogram("latency_us", &[("endpoint", "b")], &bounds)
            .observe(50);
        registry
            .histogram("latency_us", &[("endpoint", "b")], &bounds)
            .observe(5000);
        registry.counter("latency_us_shed", &[]).inc();
        let merged = registry
            .snapshot()
            .merged_histogram("latency_us{")
            .expect("histograms present");
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 5055);
        assert_eq!(merged.buckets, vec![1, 1, 0, 1]);
        assert_eq!(merged.quantile(0.5), Some(100));
        assert!(registry.snapshot().merged_histogram("nope").is_none());
    }

    #[test]
    fn snapshot_is_merge_order_independent() {
        // Two registries fed the same facts from different "thread"
        // interleavings snapshot to the same bytes.
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("x", &[]).add(7);
        a.counter("y", &[("u", "p1")]).add(2);
        b.counter("y", &[("u", "p1")]).add(2);
        b.counter("x", &[]).add(3);
        b.counter("x", &[]).add(4);
        assert_eq!(a.snapshot().to_json(), b.snapshot().to_json());
    }

    #[test]
    fn label_order_is_canonical() {
        let r = MetricsRegistry::new();
        r.counter("m", &[("b", "2"), ("a", "1")]).inc();
        let handle = r.counter("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(handle.get(), 1, "label order must not create a second cell");
        assert!(r.snapshot().get("m{a=\"1\",b=\"2\"}").is_some());
    }

    #[test]
    fn histogram_buckets() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat", &[], &[10, 100, 1000]);
        for v in [1, 10, 11, 99, 5000] {
            h.observe(v);
        }
        let snap = r.snapshot();
        match snap.get("lat") {
            Some(SnapshotValue::Histogram(hs)) => {
                assert_eq!(hs.buckets, vec![2, 2, 0, 1]);
                assert_eq!(hs.count, 5);
                assert_eq!(hs.sum, 1 + 10 + 11 + 99 + 5000);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn counter_set_reseeds() {
        let r = MetricsRegistry::new();
        let c = r.counter("durable", &[]);
        c.add(5);
        c.set(42);
        assert_eq!(c.get(), 42);
        c.inc();
        assert_eq!(c.get(), 43);
    }

    #[test]
    fn prefix_sum() {
        let r = MetricsRegistry::new();
        r.counter("req_total", &[("e", "a")]).add(1);
        r.counter("req_total", &[("e", "b")]).add(2);
        r.counter("other", &[]).add(99);
        assert_eq!(r.snapshot().counter_sum_with_prefix("req_total"), 3);
    }

    /// Pins the histogram snapshot JSON shape — bucket bounds must be in
    /// the export, or the counts are uninterpretable without reading the
    /// registering call site.
    #[test]
    fn histogram_json_carries_bounds() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat_us", &[("endpoint", "sync")], &[100, 1_000]);
        h.observe(50);
        h.observe(700);
        h.observe(9_999);
        assert_eq!(
            r.snapshot().to_json(),
            "{\"lat_us{endpoint=\\\"sync\\\"}\":{\"bounds\":[100,1000],\
             \"buckets\":[1,1,1],\"count\":3,\"sum\":10749,\"type\":\"histogram\"}}"
        );
    }

    fn snap(bounds: &[u64], values: &[u64]) -> HistogramSnapshot {
        let r = MetricsRegistry::new();
        let h = r.histogram("q", &[], bounds);
        for &v in values {
            h.observe(v);
        }
        match r.snapshot().get("q") {
            Some(SnapshotValue::Histogram(hs)) => hs.clone(),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let hs = snap(&[10, 100], &[]);
        assert_eq!(hs.quantile(0.5), None);
        assert_eq!(hs.quantile(0.99), None);
        let report = hs.slo_report(50);
        assert_eq!(report.p99_us, 0);
        assert!(report.attained, "an empty histogram misses no target");
        assert_eq!(report.attainment(), 1.0);
    }

    #[test]
    fn quantile_single_bucket() {
        // Every observation in one bucket: every quantile is its bound.
        let hs = snap(&[10, 100, 1000], &[20, 30, 40, 50]);
        assert_eq!(hs.quantile(0.0), Some(100));
        assert_eq!(hs.quantile(0.5), Some(100));
        assert_eq!(hs.quantile(0.99), Some(100));
        assert_eq!(hs.quantile(0.999), Some(100));
        assert_eq!(hs.quantile(1.0), Some(100));
    }

    #[test]
    fn quantile_overflow_bucket_is_max() {
        let hs = snap(&[10], &[5, 5, 99]);
        assert_eq!(hs.quantile(0.5), Some(10), "rank 2 of 3 is in bucket 0");
        assert_eq!(hs.quantile(0.99), Some(u64::MAX), "rank 3 overflowed");
        assert!(!hs.slo_report(10).attained);
    }

    #[test]
    fn quantile_pins_p50_p99_p999() {
        // 1000 observations: 900 in ≤100, 90 in ≤1000, 9 in ≤10_000, 1
        // overflow. Ranks: p50→500 (≤100), p99→990 (≤1000), p999→999
        // (≤10_000).
        let mut values = Vec::new();
        values.extend(std::iter::repeat_n(50u64, 900));
        values.extend(std::iter::repeat_n(500u64, 90));
        values.extend(std::iter::repeat_n(5_000u64, 9));
        values.push(99_999);
        let hs = snap(&[100, 1_000, 10_000], &values);
        assert_eq!(hs.quantile(0.50), Some(100));
        assert_eq!(hs.quantile(0.99), Some(1_000));
        assert_eq!(hs.quantile(0.999), Some(10_000));
        assert_eq!(hs.quantile(1.0), Some(u64::MAX));
        let report = hs.slo_report(1_000);
        assert_eq!(report.within, 990);
        assert!(report.attained);
        assert!(!hs.slo_report(100).attained);
    }

    #[test]
    fn count_within_is_bucket_conservative() {
        let hs = snap(&[10, 100], &[5, 50]);
        // A target between bounds certifies only the ≤10 bucket.
        assert_eq!(hs.count_within(99), 1);
        assert_eq!(hs.count_within(100), 2);
        assert_eq!(hs.count_within(9), 0);
    }
}

#[cfg(test)]
mod quantile_properties {
    use super::*;
    use proptest::prelude::*;

    /// The bucket bound the naive oracle puts `value` in.
    fn bound_of(bounds: &[u64], value: u64) -> u64 {
        bounds
            .iter()
            .copied()
            .find(|&b| value <= b)
            .unwrap_or(u64::MAX)
    }

    proptest! {
        /// The histogram quantile must equal the bucket bound of the
        /// naive sorted-vec quantile at the same rank, for any values and
        /// any (sorted, deduplicated) bounds.
        #[test]
        fn quantile_matches_sorted_vec_oracle(
            mut bounds in prop::collection::vec(1u64..10_000, 1..6),
            values in prop::collection::vec(0u64..20_000, 1..200),
            q in 0.0f64..=1.0,
        ) {
            bounds.sort_unstable();
            bounds.dedup();
            let r = MetricsRegistry::new();
            let h = r.histogram("p", &[], &bounds);
            for &v in &values {
                h.observe(v);
            }
            let hs = match r.snapshot().get("p") {
                Some(SnapshotValue::Histogram(hs)) => hs.clone(),
                _ => unreachable!(),
            };
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let oracle = sorted[rank - 1];
            prop_assert_eq!(hs.quantile(q), Some(bound_of(&bounds, oracle)));
            // And count_within agrees with the oracle exactly at bounds.
            for &b in &bounds {
                let naive = sorted.iter().filter(|&&v| v <= b).count() as u64;
                prop_assert_eq!(hs.count_within(b), naive);
            }
        }
    }
}
