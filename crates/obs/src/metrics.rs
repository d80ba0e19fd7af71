//! Counters and histograms over recorded events.
//!
//! The registry is the aggregate face of a [`Recording`](crate::Recording)
//! — exact counters per event kind plus log₂-bucketed histograms for the
//! latency distributions (migration round trip, future-body duration)
//! the paper's cost model is calibrated against. Deliberately simple:
//! `BTreeMap`s for deterministic iteration order, `u64` values, no
//! labels/tags — names like `events.migrate-send` carry the structure.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log₂ buckets: value 0 lands in bucket 0, value `v > 0` in
/// bucket `64 - v.leading_zeros()` (so bucket `i` holds values in
/// `[2^(i-1), 2^i)`), and `u64::MAX` in bucket 64.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (tick counts or
/// nanoseconds). Fixed-size and allocation-free so a recorder can carry
/// one on a hot path if a later PR wants online aggregation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in [0, 1]); 0 when empty. Log₂ resolution — good enough to
    /// tell a 2× regression from noise, which is all CI needs.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        self.max
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "empty".to_string();
        }
        format!(
            "n={} mean={:.1} min={} p50≤{} p99≤{} max={}",
            self.count,
            self.mean(),
            self.min,
            self.quantile(0.5),
            self.quantile(0.99),
            self.max
        )
    }
}

/// Named counters and histograms with deterministic iteration order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Merge a whole histogram under `name`.
    pub fn observe_all(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Counter value (0 when absent — counters that never fired read as
    /// zero, matching how `RunStats` fields behave).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Human-readable dump, one metric per line, sorted by name.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:width$}  {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "{name:width$}  {}", h.summary());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 106);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert!((h.mean() - 26.5).abs() < 1e-9);
        assert!(h.quantile(0.5) >= 2);
        assert!(h.quantile(1.0) >= 100 / 2); // bucket upper bound ≥ sample/2
        assert_eq!(Histogram::new().quantile(0.5), 0);
        assert_eq!(Histogram::new().summary(), "empty");
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.observe(1);
        let mut b = Histogram::new();
        b.observe(1000);
        a.merge(&b);
        assert_eq!((a.count, a.min, a.max), (2, 1, 1000));
        a.merge(&Histogram::new()); // empty merge is a no-op
        assert_eq!(a.count, 2);
    }

    #[test]
    fn registry_is_deterministic_and_zero_defaulting() {
        let mut r = MetricsRegistry::new();
        r.add("b", 2);
        r.add("a", 1);
        r.add("b", 3);
        r.observe("lat", 7);
        assert_eq!(r.counter("b"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.histogram("lat").unwrap().count, 1);
        let names: Vec<&str> = r.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(r.render().contains("lat"));
    }
}
