//! Golden determinism gate for the self-profiler (`run-experiments
//! profile`): the digested `counts` subtree, the digested `alloc`
//! subtree, and the folded flamegraph stacks must be byte-identical
//! across repeated runs and across thread counts. Wall times and RSS
//! are measurements and may vary; everything the digests cover may
//! not.
//!
//! This binary installs the counting allocator process-wide (the same
//! wrapper `run-experiments --features alloc-profile` installs), so
//! the per-phase allocation ceilings below are measured for real —
//! they pin the hot-path allocation pass and fail if per-event string
//! churn creeps back into `shard.sim` or the merge phases.

use opml_experiments::profile::{run, ProfileConfig, ProfileReport};
use opml_profiler::Json;
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static COUNTING_ALLOC: opml_profiler::CountingAlloc = opml_profiler::CountingAlloc;

/// `run` mutates process-global profiler state (phase slots, the
/// counting flag, the global alloc totals), and so does the
/// `counting_allocator_installed` probe; hold this across every use of
/// either so the harness's test threads cannot interleave them.
static PROFILE_LOCK: Mutex<()> = Mutex::new(());

fn profile_lock() -> MutexGuard<'static, ()> {
    PROFILE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn run_locked(config: &ProfileConfig) -> ProfileReport {
    let _guard = profile_lock();
    run(config)
}

fn config(threads: usize) -> ProfileConfig {
    ProfileConfig {
        seed: 42,
        enrollment: 1_500,
        threads,
        ..ProfileConfig::default()
    }
}

/// Per-phase allocation-count ceilings for `config()` (seed 42, 1,500
/// students, default shard size), with ~25% headroom over the measured
/// post-optimization counts. The pre-optimization profiler measured
/// over 3x the `shard.sim` ceiling (per-event name `String`s plus sink
/// record clones) and ~250k in `merge.replay_restamp` (clone-and-
/// restamp), so a regression to either pattern lands far outside the
/// ceiling rather than flaking against it.
const SHARD_SIM_ALLOC_CEILING: u64 = 360_000;
const MERGE_REPLAY_ALLOC_CEILING: u64 = 50;
const MERGE_METRICS_ALLOC_CEILING: u64 = 4;
/// The in-memory merge sorts the one cohort ledger in place and the
/// sink adopts its buffer, so it allocates nothing at all.
const MERGE_LEDGER_ALLOC_CEILING: u64 = 0;

fn phase_allocs(report: &ProfileReport, phase: &str) -> u64 {
    let alloc = Json::parse(&report.alloc_json).expect("alloc subtree parses");
    let phases = alloc
        .get("phases")
        .and_then(Json::as_array)
        .expect("alloc.phases");
    phases
        .iter()
        .find(|p| p.get("phase").and_then(Json::as_str) == Some(phase))
        .and_then(|p| p.get("allocs"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("phase `{phase}` missing from alloc subtree"))
}

#[test]
fn profile_counts_are_stable_across_runs() {
    let a = run_locked(&config(2));
    let b = run_locked(&config(2));
    assert_eq!(a.counts_json, b.counts_json);
    assert_eq!(a.counts_digest, b.counts_digest);
    assert_eq!(a.folded, b.folded);
    assert_eq!(
        a.alloc_json, b.alloc_json,
        "user-phase allocation counts must be reproducible across runs"
    );
    assert_eq!(a.alloc_digest, b.alloc_digest);
}

#[test]
fn profile_counts_are_thread_count_invariant() {
    let one = run_locked(&config(1));
    let eight = run_locked(&config(8));
    assert_eq!(
        one.counts_json, eight.counts_json,
        "counts subtree must not depend on the rayon pool size"
    );
    assert_eq!(one.counts_digest, eight.counts_digest);
    assert_eq!(one.folded, eight.folded);
    assert_eq!(
        one.alloc_json, eight.alloc_json,
        "user-phase allocation counts must not depend on the rayon pool size"
    );
    assert_eq!(one.alloc_digest, eight.alloc_digest);
}

#[test]
fn profile_names_merge_phases_separately_from_shard_sim() {
    let report = run_locked(&config(2));
    for phase in [
        "shard.sim",
        "merge.replay_restamp",
        "merge.metrics",
        "merge.ledger",
    ] {
        assert!(
            report.text.contains(phase),
            "phase `{phase}` missing from the rendered table:\n{}",
            report.text
        );
    }
    // The folded stacks carry the sim-time span hierarchy.
    assert!(report.folded.contains("semester.plan"));
    assert!(report.events > 0);
}

#[test]
fn phase_alloc_counts_stay_under_the_optimized_ceilings() {
    let _guard = profile_lock();
    // The probe toggles the counting flag and reads the global totals,
    // which a concurrent `run` resets: it must hold the lock too.
    if !opml_profiler::counting_allocator_installed() {
        // Defensive: this binary declares the allocator above, so the
        // probe can only fail if the declaration is removed.
        panic!("counting allocator not installed in the test binary");
    }
    let report = run(&config(2));
    for (phase, ceiling) in [
        ("shard.sim", SHARD_SIM_ALLOC_CEILING),
        ("merge.replay_restamp", MERGE_REPLAY_ALLOC_CEILING),
        ("merge.metrics", MERGE_METRICS_ALLOC_CEILING),
        ("merge.ledger", MERGE_LEDGER_ALLOC_CEILING),
    ] {
        let allocs = phase_allocs(&report, phase);
        assert!(
            allocs <= ceiling,
            "phase `{phase}` allocated {allocs} times, ceiling is {ceiling} — \
             the hot-path allocation pass regressed"
        );
        assert!(
            allocs > 0 || phase != "shard.sim",
            "shard.sim cannot be alloc-free"
        );
    }
}

#[test]
fn pool_machinery_is_fenced_into_runtime_pool() {
    let report = run_locked(&config(8));
    // The digested subtrees must not mention the pool phase: its
    // numbers are thread-count dependent by design.
    assert!(
        !report.counts_json.contains("runtime.pool"),
        "runtime.pool leaked into the digested counts subtree"
    );
    assert!(
        !report.alloc_json.contains("runtime.pool"),
        "runtime.pool leaked into the digested alloc subtree"
    );
    // But the full profile document reports it, with the pool's
    // bookkeeping allocations attributed to it rather than to a user
    // phase.
    let doc = Json::parse(&report.json).expect("profile.json parses");
    let phases = doc
        .get("wall")
        .and_then(|w| w.get("phases"))
        .and_then(Json::as_array)
        .expect("wall.phases");
    let pool = phases
        .iter()
        .find(|p| p.get("phase").and_then(Json::as_str) == Some("runtime.pool"))
        .expect("runtime.pool phase missing from wall.phases");
    assert!(
        pool.get("enters").and_then(Json::as_u64).unwrap_or(0) > 0,
        "pool hooks never fired"
    );
    assert!(
        pool.get("allocs").and_then(Json::as_u64).unwrap_or(0) > 0,
        "pool dispatch at 8 threads must allocate (worker result buffers), \
         and those allocations must land in runtime.pool"
    );
}
