//! Deterministic random-number generation.
//!
//! The simulation's reproducibility contract requires that every entity
//! (student, project group, job arrival process, …) draws from its **own**
//! stream, derived from a master seed and a stable entity identifier. That
//! way, adding parallelism or reordering the entity loop cannot perturb any
//! other entity's draws.
//!
//! The stream generator is **xoshiro256++** (Blackman & Vigna), seeded via
//! **SplitMix64** as its authors recommend. Both are implemented here, in
//! ~60 lines, to pin the exact stream across toolchain and dependency
//! upgrades.

/// Derive a child seed from a master seed and a stable stream identifier.
///
/// Uses one SplitMix64 step over `master ^ golden·id`, which decorrelates
/// even adjacent ids. The same `(master, id)` pair always yields the same
/// child seed.
#[inline]
pub fn split_seed(master: u64, id: u64) -> u64 {
    splitmix64(master ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ pseudo-random generator with convenience samplers.
///
/// Not cryptographic; period 2^256 − 1; passes BigCrush. All samplers are
/// inherent methods so call sites need no trait imports.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed (expanded with SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix64(z);
        }
        // xoshiro256++ must not be seeded with the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x1234_5678_9ABC_DEF0;
        }
        Rng { s }
    }

    /// Create the stream for entity `id` under `master`.
    pub fn for_stream(master: u64, id: u64) -> Self {
        Rng::new(split_seed(master, id))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `(0, 1]` — safe to pass to `ln()`.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method (unbiased).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: lo > hi");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform f64 in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via the Marsaglia polar method.
    pub fn normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Lognormal: `exp(N(mu, sigma))`.
    ///
    /// Lab-duration overruns in the behaviour model are lognormal — the
    /// paper's Fig. 2 long tail is the sum of a handful of these.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential with the given mean (`mean = 1/λ`).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * self.f64_open().ln()
    }

    /// Gamma(shape k, scale θ) via Marsaglia–Tsang, with the standard boost
    /// for `k < 1`.
    pub fn gamma(&mut self, k: f64, theta: f64) -> f64 {
        assert!(k > 0.0 && theta > 0.0, "gamma requires positive parameters");
        if k < 1.0 {
            // Boost: Gamma(k) = Gamma(k+1) * U^(1/k)
            let g = self.gamma(k + 1.0, 1.0);
            let u = self.f64_open();
            return g * u.powf(1.0 / k) * theta;
        }
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.f64_open();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v * theta;
            }
        }
    }

    /// Beta(a, b) via the two-gamma construction.
    ///
    /// The per-student "neglect propensity" trait is Beta-distributed: most
    /// students tear instances down, a minority reliably forget.
    pub fn beta(&mut self, a: f64, b: f64) -> f64 {
        let x = self.gamma(a, 1.0);
        let y = self.gamma(b, 1.0);
        x / (x + y)
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Sample an index from unnormalized non-negative weights: a slice,
    /// or any sequence that can be walked twice (once to sum, once to
    /// pick), so callers holding `(item, weight)` pairs need not collect
    /// the weights first.
    pub fn weighted_index<'a, W>(&mut self, weights: W) -> usize
    where
        W: IntoIterator<Item = &'a f64>,
        W::IntoIter: Clone,
    {
        let weights = weights.into_iter();
        let total: f64 = weights.clone().sum();
        assert!(total > 0.0, "weighted_index: weights sum to zero");
        let mut target = self.f64() * total;
        let mut last = 0;
        for (i, &w) in weights.enumerate() {
            if target < w {
                return i;
            }
            target -= w;
            last = i;
        }
        last
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_seed_is_stable_and_decorrelated() {
        assert_eq!(split_seed(7, 3), split_seed(7, 3));
        assert_ne!(split_seed(7, 3), split_seed(7, 4));
        assert_ne!(split_seed(7, 3), split_seed(8, 3));
        // Adjacent ids should not produce adjacent seeds.
        let d = split_seed(7, 3) ^ split_seed(7, 4);
        assert!(d.count_ones() > 8, "adjacent stream seeds too similar");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(5);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_open_never_zero() {
        let mut r = Rng::new(5);
        for _ in 0..10_000 {
            assert!(r.f64_open() > 0.0);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Rng::new(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_500..11_500).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn range_u64_inclusive_bounds_hit() {
        let mut r = Rng::new(13);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match r.range_u64(3, 5) {
                3 => saw_lo = true,
                5 => saw_hi = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(17);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut r = Rng::new(19);
        let mut xs: Vec<f64> = (0..50_001).map(|_| r.lognormal(1.0, 0.7)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        // Median of lognormal(mu, sigma) is exp(mu).
        assert!((median - 1.0f64.exp()).abs() < 0.1, "median {median}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::new(23);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn gamma_mean_matches() {
        let mut r = Rng::new(31);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.gamma(2.5, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}"); // k*theta = 5
    }

    #[test]
    fn gamma_small_shape() {
        let mut r = Rng::new(37);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.gamma(0.5, 1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn beta_bounds_and_mean() {
        let mut r = Rng::new(41);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.beta(2.0, 5.0);
            assert!((0.0..=1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 2.0 / 7.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = Rng::new(43);
        let mut counts = [0u32; 3];
        for _ in 0..90_000 {
            counts[r.weighted_index(&[1.0, 2.0, 6.0])] += 1;
        }
        assert!((counts[0] as f64 - 10_000.0).abs() < 1_500.0);
        assert!((counts[1] as f64 - 20_000.0).abs() < 2_000.0);
        assert!((counts[2] as f64 - 60_000.0).abs() < 3_000.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(47);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(53);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }
}
