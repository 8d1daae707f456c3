//! Order-stable parallel fan-out.
//!
//! The semester simulation is embarrassingly parallel over students and over
//! replications (seeds). Per the determinism contract, each unit of work
//! derives its own RNG stream from `(master_seed, index)`, and results are
//! collected **by index**, so the output is identical whether rayon runs the
//! closures on 1 thread or 64.

use crate::rng::split_seed;
use rayon::prelude::*;

/// Run `f(index, child_seed)` for `0..n` in parallel; results are returned
/// in index order regardless of execution order.
pub fn indexed_map<R, F>(n: usize, master_seed: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, u64) -> R + Sync,
{
    (0..n)
        .into_par_iter()
        .map(|i| f(i, split_seed(master_seed, i as u64)))
        .collect()
}

/// Run independent replications of a whole simulation under distinct seeds
/// and return per-replication results in seed order.
///
/// Used by the experiment harness to average Table 1 over seeds and to put
/// spread bars on the figure reproductions.
pub fn replications<R, F>(n_reps: usize, master_seed: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    (0..n_reps)
        .into_par_iter()
        .map(|rep| f(split_seed(master_seed, (1u64 << 63) | rep as u64)))
        .collect()
}

/// Run `f` inside a rayon pool pinned to exactly `threads` worker
/// threads, restoring the ambient pool configuration afterwards.
///
/// This is the **one** sanctioned way to pin a thread count: the
/// runtime verifiers (`verify-determinism`, the chaos zero-rate arm),
/// the scale sweep, and the thread-invariance tests all route through
/// it so pool construction cannot drift between callers. `threads == 0`
/// is normalized to 1 (a zero-thread pool cannot make progress).
pub fn with_thread_count<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("build pinned thread pool")
        .install(f)
}

/// Number of worker threads in the rayon pool the caller is running
/// under (the pinned pool inside [`with_thread_count`], the ambient
/// global pool otherwise). Benchmarks record this next to the requested
/// count so a report can never silently claim parallelism it did not
/// have.
pub fn effective_thread_count() -> usize {
    rayon::current_num_threads()
}

/// Parallel map over a slice with index-stable output.
pub fn map_slice<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    items.par_iter().enumerate().map(|(i, t)| f(i, t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The rayon shim keeps the pinned thread count in one process-global
    /// override; every test that pins it holds this lock, so one test's
    /// pin is never read by another running on a parallel test thread.
    static THREAD_PIN_LOCK: Mutex<()> = Mutex::new(());

    fn thread_pin_lock() -> MutexGuard<'static, ()> {
        THREAD_PIN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn indexed_map_is_deterministic() {
        let a = indexed_map(64, 42, |i, seed| (i, seed));
        let b = indexed_map(64, 42, |i, seed| (i, seed));
        assert_eq!(a, b);
        // Seeds are all distinct.
        let mut seeds: Vec<u64> = a.iter().map(|&(_, s)| s).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn indexed_map_matches_sequential() {
        let par = indexed_map(100, 7, |i, seed| i as u64 + seed % 1000);
        let seq: Vec<u64> = (0..100)
            .map(|i| i as u64 + split_seed(7, i as u64) % 1000)
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn replications_distinct_seeds() {
        let seeds = replications(16, 5, |seed| seed);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 16);
        // And distinct from the per-entity namespace of the same master.
        let entity = indexed_map(16, 5, |_, seed| seed);
        for s in &seeds {
            assert!(!entity.contains(s));
        }
    }

    #[test]
    fn map_slice_preserves_order() {
        let items = vec![10, 20, 30, 40];
        let out = map_slice(&items, |i, &x| x + i as i32);
        assert_eq!(out, vec![10, 21, 32, 43]);
    }

    #[test]
    fn with_thread_count_pins_and_restores() {
        let _pin = thread_pin_lock();
        let ambient = rayon::current_num_threads();
        let inside = with_thread_count(3, effective_thread_count);
        assert_eq!(inside, 3);
        assert_eq!(rayon::current_num_threads(), ambient, "pool must restore");
        // Nesting: the innermost pin wins, and unwinding restores outward.
        let (outer, inner) = with_thread_count(2, || {
            let inner = with_thread_count(5, rayon::current_num_threads);
            (rayon::current_num_threads(), inner)
        });
        assert_eq!((outer, inner), (2, 5));
        // A zero request is normalized to one worker, not a stuck pool.
        assert_eq!(with_thread_count(0, rayon::current_num_threads), 1);
    }

    #[test]
    fn with_thread_count_results_match_across_counts() {
        let _pin = thread_pin_lock();
        let runs: Vec<Vec<(usize, u64)>> = [1usize, 2, 8]
            .iter()
            .map(|&t| with_thread_count(t, || indexed_map(32, 9, |i, seed| (i, seed))))
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }
}
