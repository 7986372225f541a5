//! Metric lists, order statistics and the wall-time breakdown of a traced
//! run.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::trace::{Leaf, Span};

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Value {
        let map: BTreeMap<&str, Value> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                (name.as_str(), json!({"value": value, "unit": unit}))
            })
            .collect();
        json!(map)
    }
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` of sorted `values`; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Calls, total and self time, and durations of the spans of one name.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Spans.
    pub calls: u64,
    /// Σ duration.
    pub dur_ns: u64,
    /// Σ self time.
    pub self_ns: u64,
    /// Durations, sorted.
    pub durations: Vec<u64>,
}

impl SpanTotals {
    /// Mean duration in nanoseconds (0 with no spans).
    pub fn mean_ns(&self) -> f64 {
        self.dur_ns as f64 / self.calls.max(1) as f64
    }
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += s.self_ns();
        t.durations.push(s.dur_ns());
    }
    for t in out.values_mut() {
        t.durations.sort_unstable();
    }
    out
}

/// Where a traced run's wall time went, in wall-clock nanoseconds.
///
/// Work on `threads` parallel workers (everything under the
/// `bench.parallel` span) counts `1/threads` of its host time, so that a
/// phase's layers plus its idle share add up to the phase's wall time. The
/// self time of the benchmark's own root and per-participant spans is
/// `unattributed`; the benchmark's timed bookkeeping (`bench.wire_bytes`,
/// `bench.copy`, `bench.check`) shows as rows of its own.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Wall time of the root span.
    pub wall_ns: f64,
    /// Self time per layer (span or leaf name).
    pub layers: BTreeMap<&'static str, f64>,
    /// Worker time left idle in the parallel phase.
    pub idle_ns: f64,
    /// Root and per-participant glue not inside any layer call.
    pub unattributed_ns: f64,
}

/// Names whose self time is benchmark glue rather than a layer.
const GLUE: [&str; 3] = ["bench.cohort", "bench.participant", "bench.replay"];
/// The parallel phase: replaced by its workers' spans plus idle time.
const PARALLEL: &str = "bench.parallel";

/// Computes the breakdown of `spans`; the wall time is that of the spans
/// without a parent. Leaf time is charged to the worker threads.
pub fn breakdown(spans: &[Span], leaves: &[(&'static str, Leaf)], threads: usize) -> Breakdown {
    let threads = threads.max(1) as f64;
    let parent: BTreeMap<u64, (u64, &str)> =
        spans.iter().map(|s| (s.id, (s.parent, s.name))).collect();
    let in_parallel = |mut id: u64| {
        while let Some(&(p, name)) = parent.get(&id) {
            if name == PARALLEL {
                return true;
            }
            id = p;
        }
        false
    };
    let mut b = Breakdown::default();
    let mut worker_busy = 0.0;
    let mut parallel_wall = 0.0;
    for s in spans {
        if s.parent == 0 {
            b.wall_ns += s.dur_ns() as f64;
        }
        if s.name == PARALLEL {
            parallel_wall += s.dur_ns() as f64;
            continue;
        }
        let weight = if in_parallel(s.parent) {
            1.0 / threads
        } else {
            1.0
        };
        if s.name == "bench.participant" {
            worker_busy += s.dur_ns() as f64;
        }
        let self_ns = s.self_ns() as f64 * weight;
        if GLUE.contains(&s.name) {
            b.unattributed_ns += self_ns;
        } else {
            *b.layers.entry(s.name).or_default() += self_ns;
        }
    }
    for (name, leaf) in leaves {
        *b.layers.entry(name).or_default() += leaf.ns as f64 / threads;
    }
    if parallel_wall > 0.0 {
        b.idle_ns = (threads * parallel_wall - worker_busy).max(0.0) / threads;
    }
    b
}

impl Breakdown {
    /// Σ layers + idle + unattributed, as a share of wall time.
    pub fn accounted_frac(&self) -> f64 {
        (self.layers.values().sum::<f64>() + self.idle_ns + self.unattributed_ns)
            / self.wall_ns.max(1.0)
    }

    /// JSON form: milliseconds and shares of wall time per layer.
    pub fn to_json(&self) -> Value {
        let wall = self.wall_ns.max(1.0);
        let mut rows: Vec<(&str, f64)> = self.layers.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        let layers: Vec<Value> = rows
            .iter()
            .map(|(name, ns)| json!({"layer": name, "self_ms": ns / 1e6, "share": ns / wall}))
            .collect();
        json!({
            "wall_ms": self.wall_ns / 1e6,
            "layers": layers,
            "idle_ms": self.idle_ns / 1e6,
            "unattributed_ms": self.unattributed_ns / 1e6,
            "unattributed_share": self.unattributed_ns / wall,
            "accounted_share": self.accounted_frac(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64, child: u64) -> Span {
        Span {
            id,
            parent,
            name,
            actor: 0,
            start_ns: start,
            end_ns: end,
            child_ns: child,
        }
    }

    #[test]
    fn parallel_layers_idle_and_glue_add_up_to_wall() {
        // Root 0..100: setup 0..20, parallel 20..100 on two workers; one
        // worker busy 20..100 (a 60 ns layer inside), the other 20..60.
        let spans = vec![
            span(1, 0, "bench.cohort", 0, 100, 100),
            span(2, 1, "world.build", 0, 20, 0),
            span(3, 1, "bench.parallel", 20, 100, 0),
            span(4, 3, "bench.participant", 20, 100, 60),
            span(5, 4, "core.pms.run", 25, 85, 10),
            span(6, 3, "bench.participant", 20, 60, 40),
            span(7, 6, "core.pms.run", 20, 60, 0),
        ];
        let leaves = vec![("mobility.position", Leaf { calls: 1, ns: 10 })];
        let b = breakdown(&spans, &leaves, 2);
        assert_eq!(b.wall_ns, 100.0);
        assert_eq!(b.idle_ns, 20.0);
        assert_eq!(b.layers["world.build"], 20.0);
        assert_eq!(b.layers["core.pms.run"], 45.0);
        assert_eq!(b.layers["mobility.position"], 5.0);
        assert_eq!(b.unattributed_ns, 10.0);
        assert!((b.accounted_frac() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
