//! Deterministic metrics: counters, gauges, and sim-time histograms.
//!
//! Every map is a `BTreeMap` keyed by the metric's `&'static str` name,
//! so iteration (and therefore rendering and serialization) is stable
//! by name regardless of registration order, and recording into an
//! existing metric allocates nothing. Values are only ever derived from simulation state — never
//! wall clock — so two identical runs produce identical snapshots.

use opml_simkernel::SimDuration;
use serde::Serialize;
use std::collections::BTreeMap;

/// Histogram bucket upper bounds, in simulated minutes. Chosen to
/// resolve the durations the paper cares about: minutes-long API calls
/// up through multi-day reservations.
pub const HISTOGRAM_BOUNDS_MIN: [u64; 10] = [15, 30, 60, 120, 240, 480, 960, 1920, 3840, 10080];

/// A histogram over simulated durations with fixed minute buckets
/// (plus an implicit overflow bucket).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SimTimeHistogram {
    /// Per-bucket counts; `buckets[i]` counts samples `<=
    /// HISTOGRAM_BOUNDS_MIN[i]`, the final slot counts the overflow.
    pub buckets: Vec<u64>,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples, in minutes.
    pub sum_minutes: u64,
    /// Largest recorded sample, in minutes.
    pub max_minutes: u64,
}

impl Default for SimTimeHistogram {
    fn default() -> Self {
        SimTimeHistogram {
            buckets: vec![0; HISTOGRAM_BOUNDS_MIN.len() + 1],
            count: 0,
            sum_minutes: 0,
            max_minutes: 0,
        }
    }
}

impl SimTimeHistogram {
    /// Record one duration sample.
    pub fn observe(&mut self, d: SimDuration) {
        let idx = HISTOGRAM_BOUNDS_MIN
            .iter()
            .position(|&b| d.0 <= b)
            .unwrap_or(HISTOGRAM_BOUNDS_MIN.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_minutes += d.0;
        self.max_minutes = self.max_minutes.max(d.0);
    }

    /// Fold another histogram into this one (bucketwise sum; shared
    /// fixed bounds make this exact and order-independent).
    pub fn merge(&mut self, other: &SimTimeHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_minutes += other.sum_minutes;
        self.max_minutes = self.max_minutes.max(other.max_minutes);
    }

    /// Mean sample in fractional hours (0 when empty).
    pub fn mean_hours(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_minutes as f64 / self.count as f64 / 60.0
        }
    }

    /// Mean sample in whole ticks, rounded to nearest (0 when empty).
    /// "Minutes" is the batch-simulation reading of a tick; service
    /// mode reads the same value as seconds.
    pub fn mean_minutes(&self) -> u64 {
        (self.sum_minutes + self.count / 2)
            .checked_div(self.count)
            .unwrap_or(0)
    }

    /// Upper-bound estimate of the `q`-quantile in minutes, or `None`
    /// when the histogram is empty.
    ///
    /// Fixed buckets only bound a quantile from above: the result is
    /// the upper bound of the first bucket whose cumulative count
    /// reaches `ceil(q * count)`, clamped to `max_minutes` (which makes
    /// the estimate exact whenever the largest sample falls below the
    /// selected bound, and keeps the overflow bucket finite). `q` is
    /// clamped to `[0, 1]`.
    pub fn percentile_minutes(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= target {
                let bound = HISTOGRAM_BOUNDS_MIN
                    .get(idx)
                    .copied()
                    .unwrap_or(self.max_minutes);
                return Some(bound.min(self.max_minutes));
            }
        }
        Some(self.max_minutes)
    }

    /// Median upper bound in minutes (`None` when empty).
    pub fn p50_minutes(&self) -> Option<u64> {
        self.percentile_minutes(0.50)
    }

    /// 90th-percentile upper bound in minutes (`None` when empty).
    pub fn p90_minutes(&self) -> Option<u64> {
        self.percentile_minutes(0.90)
    }

    /// 99th-percentile upper bound in minutes (`None` when empty).
    pub fn p99_minutes(&self) -> Option<u64> {
        self.percentile_minutes(0.99)
    }
}

/// The mutable metrics store behind a [`crate::Telemetry`] handle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, SimTimeHistogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (created at zero).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set the named gauge to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Raise the named gauge to `value` if larger (high-water mark).
    pub fn gauge_max(&mut self, name: &'static str, value: f64) {
        let g = self.gauges.entry(name).or_insert(f64::MIN);
        if value > *g {
            *g = value;
        }
    }

    /// Record a duration sample in the named histogram.
    pub fn observe(&mut self, name: &'static str, d: SimDuration) {
        self.histograms.entry(name).or_default().observe(d);
    }

    /// Fold a (per-shard) snapshot into this registry.
    ///
    /// Merge laws, chosen so that folding shard snapshots in any order
    /// or grouping yields the same registry: counters **add** (exact
    /// `u64` sums), gauges take the **high-water maximum** (every gauge
    /// the simulator sets is a high-water reading, and `max` is the only
    /// order-free fold for them), histograms merge **bucketwise**.
    pub fn merge_snapshot(&mut self, snap: &MetricsSnapshot) {
        for (&name, &delta) in &snap.counters {
            self.counter_add(name, delta);
        }
        for (&name, &value) in &snap.gauges {
            self.gauge_max(name, value);
        }
        for (&name, hist) in &snap.histograms {
            self.histograms.entry(name).or_default().merge(hist);
        }
    }

    /// Immutable, name-sorted snapshot for rendering/export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

/// A point-in-time copy of the registry, name-sorted and serializable.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Monotone event counts.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-value / high-water readings.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Sim-duration distributions.
    pub histograms: BTreeMap<&'static str, SimTimeHistogram>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut m = MetricsRegistry::new();
        m.counter_add("b.count", 2);
        m.counter_add("a.count", 1);
        m.counter_add("b.count", 3);
        m.gauge_set("depth", 4.0);
        m.gauge_max("depth.max", 2.0);
        m.gauge_max("depth.max", 7.0);
        m.gauge_max("depth.max", 5.0);
        let snap = m.snapshot();
        // BTreeMap: names iterate sorted.
        let names: Vec<&str> = snap.counters.keys().copied().collect();
        assert_eq!(names, vec!["a.count", "b.count"]);
        assert_eq!(snap.counters["b.count"], 5);
        assert_eq!(snap.gauges["depth"], 4.0);
        assert_eq!(snap.gauges["depth.max"], 7.0);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = SimTimeHistogram::default();
        h.observe(SimDuration::minutes(10)); // bucket 0 (<=15)
        h.observe(SimDuration::minutes(15)); // bucket 0 (inclusive bound)
        h.observe(SimDuration::minutes(90)); // bucket 3 (<=120)
        h.observe(SimDuration::weeks(3)); // overflow
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[HISTOGRAM_BOUNDS_MIN.len()], 1);
        assert_eq!(h.count, 4);
        assert_eq!(h.max_minutes, 3 * 7 * 24 * 60);
    }

    #[test]
    fn mean_hours() {
        let mut h = SimTimeHistogram::default();
        assert_eq!(h.mean_hours(), 0.0);
        h.observe(SimDuration::hours(1));
        h.observe(SimDuration::hours(3));
        assert!((h.mean_hours() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_on_known_uniform_distribution() {
        // 100 samples of 1..=100 minutes. Bucket occupancy against the
        // bounds [15, 30, 60, 120, ...]: 15, 15, 30, 40, 0, ...
        let mut h = SimTimeHistogram::default();
        for m in 1..=100 {
            h.observe(SimDuration::minutes(m));
        }
        // p50 target = 50th sample; cumulative 15, 30, 60 -> bucket
        // bound 60 is the tightest upper bound the histogram can give.
        assert_eq!(h.p50_minutes(), Some(60));
        // p90 and p99 land in the <=120 bucket, clamped to max 100.
        assert_eq!(h.p90_minutes(), Some(100));
        assert_eq!(h.p99_minutes(), Some(100));
        assert_eq!(h.percentile_minutes(0.15), Some(15));
        assert_eq!(h.percentile_minutes(0.0), Some(15));
        assert_eq!(h.percentile_minutes(1.0), Some(100));
    }

    #[test]
    fn percentiles_single_sample_and_overflow() {
        let mut h = SimTimeHistogram::default();
        assert_eq!(h.p50_minutes(), None);
        h.observe(SimDuration::minutes(10));
        // One 10-minute sample: bound 15 clamps to the exact max.
        assert_eq!(h.p50_minutes(), Some(10));
        assert_eq!(h.p99_minutes(), Some(10));

        let mut h = SimTimeHistogram::default();
        h.observe(SimDuration::weeks(3)); // overflow bucket
        let three_weeks = 3 * 7 * 24 * 60;
        assert_eq!(h.p50_minutes(), Some(three_weeks));
        assert_eq!(h.p99_minutes(), Some(three_weeks));
    }

    #[test]
    fn percentiles_survive_merge() {
        let mut a = SimTimeHistogram::default();
        let mut b = SimTimeHistogram::default();
        for m in 1..=50 {
            a.observe(SimDuration::minutes(m));
        }
        for m in 51..=100 {
            b.observe(SimDuration::minutes(m));
        }
        a.merge(&b);
        let mut whole = SimTimeHistogram::default();
        for m in 1..=100 {
            whole.observe(SimDuration::minutes(m));
        }
        assert_eq!(a.p50_minutes(), whole.p50_minutes());
        assert_eq!(a.p90_minutes(), whole.p90_minutes());
        assert_eq!(a.p99_minutes(), whole.p99_minutes());
    }

    #[test]
    fn snapshot_is_deterministic() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        // Different insertion orders, same content.
        a.counter_add("x", 1);
        a.counter_add("y", 2);
        b.counter_add("y", 2);
        b.counter_add("x", 1);
        assert_eq!(a.snapshot(), b.snapshot());
    }
}
