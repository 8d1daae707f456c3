//! Statistics for the evaluation and for the monitoring/drift substrate.
//!
//! Three consumers drive this module's contents:
//!
//! 1. The **evaluation harness** needs per-student summaries (mean, median,
//!    percentiles, max) and histograms — Fig. 2 of the paper is a histogram
//!    of per-student cost; §5 quotes "75% of students would have exceeded"
//!    the expected cost, which is a quantile query.
//! 2. The **behaviour model** samples from the distributions in
//!    [`crate::rng`]; this module supplies the descriptive side.
//! 3. The **drift detector** (Unit 7's lab substrate) uses the two-sample
//!    Kolmogorov–Smirnov statistic and the Population Stability Index,
//!    implemented here so `opml-mlops` and the tests share one definition.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance via Welford's algorithm, plus min/max.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator (parallel-reduction friendly; Chan et al.).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator; 0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

/// A full descriptive summary of a finite sample, with exact percentiles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Sum of observations.
    pub sum: f64,
}

impl Summary {
    /// Summarize a sample. Returns an all-zero summary for an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                p25: 0.0,
                p50: 0.0,
                p75: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
                sum: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let mut acc = OnlineStats::new();
        for &v in values {
            acc.push(v);
        }
        Summary {
            count: values.len(),
            mean: acc.mean(),
            std_dev: acc.std_dev(),
            min: sorted[0],
            p25: percentile_sorted(&sorted, 25.0),
            p50: percentile_sorted(&sorted, 50.0),
            p75: percentile_sorted(&sorted, 75.0),
            p90: percentile_sorted(&sorted, 90.0),
            p99: percentile_sorted(&sorted, 99.0),
            max: sorted[sorted.len() - 1],
            sum: acc.sum(),
        }
    }
}

/// Percentile of a **sorted** sample via linear interpolation
/// (the "linear" / type-7 method used by NumPy's default).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Fraction of the sample strictly exceeding `threshold`.
///
/// §5 of the paper: "75% of students would have exceeded this cost on AWS,
/// and 73% would have exceeded this cost on GCP".
pub fn fraction_above(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v > threshold).count() as f64 / values.len() as f64
}

/// A fixed-width histogram over `[lo, hi)` with overflow/underflow buckets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width buckets over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            // Floating-point edge: clamp to the last bucket.
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Record every value in a slice.
    pub fn record_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.record(x);
        }
    }

    /// Bucket counts (excludes under/overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(bucket_lo, bucket_hi, count)` triples.
    pub fn buckets(&self) -> Vec<(f64, f64, u64)> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w, c))
            .collect()
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Two-sample Kolmogorov–Smirnov statistic (max |F1 − F2|).
///
/// Used by the drift detector on continuous features (e.g. prediction
/// confidence). Both samples must be non-empty.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "KS needs non-empty samples");
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("NaN in KS sample"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("NaN in KS sample"));
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let (xa, xb) = (sa[i], sb[j]);
        if xa <= xb {
            i += 1;
        }
        if xb <= xa {
            j += 1;
        }
        let fa = i as f64 / sa.len() as f64;
        let fb = j as f64 / sb.len() as f64;
        d = d.max((fa - fb).abs());
    }
    d
}

/// Critical value for the two-sample KS test at significance `alpha`
/// (asymptotic formula `c(α)·√((n+m)/(n·m))`).
pub fn ks_critical(n: usize, m: usize, alpha: f64) -> f64 {
    let c = (-0.5 * (alpha / 2.0).ln()).sqrt();
    c * (((n + m) as f64) / ((n * m) as f64)).sqrt()
}

/// Population Stability Index between two samples over shared equal-width
/// buckets. PSI < 0.1 is conventionally "no shift"; > 0.25 "major shift".
pub fn psi(expected: &[f64], actual: &[f64], bins: usize) -> f64 {
    assert!(
        !expected.is_empty() && !actual.is_empty(),
        "PSI needs non-empty samples"
    );
    assert!(bins > 0);
    let lo = expected
        .iter()
        .chain(actual)
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let hi = expected
        .iter()
        .chain(actual)
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let hi = if hi > lo { hi } else { lo + 1.0 };
    let mut he = Histogram::new(lo, hi + 1e-9, bins);
    let mut ha = Histogram::new(lo, hi + 1e-9, bins);
    he.record_all(expected);
    ha.record_all(actual);
    let ne = expected.len() as f64;
    let na = actual.len() as f64;
    // Laplace smoothing so empty buckets don't blow up the log-ratio.
    let eps = 1e-4;
    he.counts()
        .iter()
        .zip(ha.counts())
        .map(|(&ce, &ca)| {
            let pe = (ce as f64 / ne).max(eps);
            let pa = (ca as f64 / na).max(eps);
            (pa - pe) * (pa / pe).ln()
        })
        .sum()
}

/// Two-proportion z-statistic (pooled), used by the A/B-test substrate.
pub fn two_proportion_z(success_a: u64, n_a: u64, success_b: u64, n_b: u64) -> f64 {
    assert!(n_a > 0 && n_b > 0, "z-test needs non-empty groups");
    let pa = success_a as f64 / n_a as f64;
    let pb = success_b as f64 / n_b as f64;
    let pool = (success_a + success_b) as f64 / (n_a + n_b) as f64;
    let se = (pool * (1.0 - pool) * (1.0 / n_a as f64 + 1.0 / n_b as f64)).sqrt();
    if se == 0.0 {
        0.0
    } else {
        (pa - pb) / se
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..300] {
            left.push(x);
        }
        for &x in &xs[300..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        a.push(5.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolation() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 4.0);
        assert!((percentile_sorted(&sorted, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile_sorted(&sorted, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 30.0);
        assert_eq!(s.p50, 30.0);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 50.0);
        assert_eq!(s.sum, 150.0);
    }

    #[test]
    fn summary_of_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0.0);
    }

    #[test]
    fn fraction_above_counts_strict() {
        assert_eq!(fraction_above(&[1.0, 2.0, 3.0, 4.0], 2.0), 0.5);
        assert_eq!(fraction_above(&[], 1.0), 0.0);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record_all(&[-1.0, 0.0, 1.9, 2.0, 9.99, 10.0, 55.0]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.total(), 7);
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 5);
        assert_eq!(buckets[0].0, 0.0);
        assert_eq!(buckets[4].1, 10.0);
    }

    #[test]
    fn ks_identical_samples_zero() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(ks_statistic(&a, &a) < 1e-12);
    }

    #[test]
    fn ks_disjoint_samples_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_detects_shift() {
        let mut r = Rng::new(99);
        let a: Vec<f64> = (0..2000).map(|_| r.normal()).collect();
        let b: Vec<f64> = (0..2000).map(|_| r.normal() + 1.0).collect();
        let d = ks_statistic(&a, &b);
        assert!(d > ks_critical(2000, 2000, 0.05), "shift undetected: D={d}");
        let c: Vec<f64> = (0..2000).map(|_| r.normal()).collect();
        let d0 = ks_statistic(&a, &c);
        assert!(
            d0 < ks_critical(2000, 2000, 0.001),
            "false positive: D={d0}"
        );
    }

    #[test]
    fn psi_zero_for_same_distribution() {
        let mut r = Rng::new(7);
        let a: Vec<f64> = (0..5000).map(|_| r.normal()).collect();
        let b: Vec<f64> = (0..5000).map(|_| r.normal()).collect();
        assert!(psi(&a, &b, 10) < 0.05);
    }

    #[test]
    fn psi_large_for_shifted_distribution() {
        let mut r = Rng::new(8);
        let a: Vec<f64> = (0..5000).map(|_| r.normal()).collect();
        let b: Vec<f64> = (0..5000).map(|_| r.normal() + 2.0).collect();
        assert!(psi(&a, &b, 10) > 0.25);
    }

    #[test]
    fn z_test_detects_difference() {
        // 60% vs 50% on 1000 each: z ≈ 4.5.
        let z = two_proportion_z(600, 1000, 500, 1000);
        assert!(z > 3.0, "z={z}");
        let z0 = two_proportion_z(500, 1000, 500, 1000);
        assert!(z0.abs() < 1e-12);
    }
}
