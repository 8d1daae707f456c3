//! Property-based tests for the simulation kernel.

use opml_simkernel::dethash::{DetHasher, FnvConst};
use opml_simkernel::event::EventQueue;
use opml_simkernel::parallel::indexed_map;
use opml_simkernel::rng::{split_seed, Rng};
use opml_simkernel::stats::{fraction_above, percentile_sorted, Histogram, OnlineStats, Summary};
use opml_simkernel::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::hash::Hasher;

proptest! {
    /// Events pop in nondecreasing time order regardless of push order.
    #[test]
    fn event_queue_pops_in_time_order(times in prop::collection::vec(0u64..100_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let mut last = SimTime(0);
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Same-time events preserve insertion order (stable FIFO).
    #[test]
    fn event_queue_fifo_at_equal_times(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime(42), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// OnlineStats merge is equivalent to sequential accumulation at any
    /// split point.
    #[test]
    fn online_stats_merge_any_split(
        xs in prop::collection::vec(-1e6f64..1e6, 2..300),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-5 * (1.0 + whole.variance()));
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentiles_monotone_and_bounded(
        mut xs in prop::collection::vec(-1e9f64..1e9, 1..200),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let vlo = percentile_sorted(&xs, lo);
        let vhi = percentile_sorted(&xs, hi);
        prop_assert!(vlo <= vhi);
        prop_assert!(vlo >= xs[0] && vhi <= xs[xs.len() - 1]);
    }

    /// Summary is internally consistent.
    #[test]
    fn summary_consistency(xs in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let s = Summary::of(&xs);
        prop_assert_eq!(s.count, xs.len());
        prop_assert!(s.min <= s.p25 && s.p25 <= s.p50);
        prop_assert!(s.p50 <= s.p75 && s.p75 <= s.p90);
        prop_assert!(s.p90 <= s.p99 && s.p99 <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!((s.sum - xs.iter().sum::<f64>()).abs() < 1e-4 * (1.0 + s.sum.abs()));
    }

    /// Histogram conserves its observations.
    #[test]
    fn histogram_conserves_counts(
        xs in prop::collection::vec(-100.0f64..200.0, 0..500),
        bins in 1usize..50,
    ) {
        let mut h = Histogram::new(0.0, 100.0, bins);
        h.record_all(&xs);
        let bucketed: u64 = h.counts().iter().sum();
        prop_assert_eq!(bucketed + h.underflow() + h.overflow(), xs.len() as u64);
        prop_assert_eq!(h.total(), xs.len() as u64);
    }

    /// fraction_above is a proper CDF complement.
    #[test]
    fn fraction_above_bounds(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        t in -2e3f64..2e3,
    ) {
        let f = fraction_above(&xs, t);
        prop_assert!((0.0..=1.0).contains(&f));
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if t >= max {
            prop_assert_eq!(f, 0.0);
        }
    }

    /// Stream splitting: child streams are deterministic and (pairwise)
    /// distinct for distinct ids.
    #[test]
    fn split_seed_injective_enough(master in any::<u64>(), a in 0u64..10_000, b in 0u64..10_000) {
        prop_assert_eq!(split_seed(master, a), split_seed(master, a));
        if a != b {
            prop_assert_ne!(split_seed(master, a), split_seed(master, b));
        }
    }

    /// below(n) is always < n; range_u64 respects bounds.
    #[test]
    fn rng_bounds(seed in any::<u64>(), n in 1u64..1_000_000, lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
            let v = rng.range_u64(lo, lo + span);
            prop_assert!((lo..=lo + span).contains(&v));
        }
    }

    /// Sim time arithmetic is consistent: (t + d) − t == d.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..1_000_000, d in 0u64..1_000_000) {
        let base = SimTime(t);
        let dur = SimDuration(d);
        prop_assert_eq!((base + dur) - base, dur);
        prop_assert_eq!((base + dur).since(base), dur);
    }

    /// Folding a prepared constant leaves the state that writing its
    /// bytes one at a time leaves, from any state.
    #[test]
    fn a_folded_constant_equals_its_written_bytes(
        state in any::<u64>(),
        bytes in prop::collection::vec(any::<u8>(), 0..301),
    ) {
        let mut written = DetHasher::with_state(state);
        written.write(&bytes);
        let mut folded = DetHasher::with_state(state);
        folded.write_const(&FnvConst::new(&bytes));
        prop_assert_eq!(folded.finish(), written.finish());
    }

    /// Folding two constants in turn equals folding their concatenation.
    #[test]
    fn two_folds_equal_the_fold_of_the_concatenation(
        state in any::<u64>(),
        a in prop::collection::vec(any::<u8>(), 0..151),
        b in prop::collection::vec(any::<u8>(), 0..151),
    ) {
        let mut twice = DetHasher::with_state(state);
        twice.write_const(&FnvConst::new(&a));
        twice.write_const(&FnvConst::new(&b));
        let mut once = DetHasher::with_state(state);
        once.write_const(&FnvConst::new(&[a, b].concat()));
        prop_assert_eq!(twice.finish(), once.finish());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-entity streams: `indexed_map` results equal the sequential
    /// per-stream computation, at any rayon thread count (DESIGN.md §7).
    #[test]
    fn indexed_map_matches_sequential_at_any_thread_count(
        master in any::<u64>(),
        n in 1usize..48,
    ) {
        let sequential: Vec<(u64, u64)> = (0..n)
            .map(|i| {
                let mut rng = Rng::for_stream(master, i as u64);
                (rng.next_u64(), rng.below(1000))
            })
            .collect();
        for threads in [1usize, 4] {
            let parallel = opml_simkernel::parallel::with_thread_count(threads, || {
                indexed_map(n, master, |_, seed| {
                    let mut rng = Rng::new(seed);
                    (rng.next_u64(), rng.below(1000))
                })
            });
            prop_assert_eq!(&parallel, &sequential, "threads={}", threads);
        }
    }

    /// Adding entities never perturbs existing streams: the first `m`
    /// results of an `n`-entity fan-out equal the `m`-entity fan-out.
    #[test]
    fn streams_are_prefix_stable(master in any::<u64>(), m in 1usize..24, extra in 0usize..24) {
        let n = m + extra;
        let small = indexed_map(m, master, |i, seed| (i, Rng::new(seed).next_u64()));
        let large = indexed_map(n, master, |i, seed| (i, Rng::new(seed).next_u64()));
        prop_assert_eq!(&large[..m], &small[..]);
    }
}
