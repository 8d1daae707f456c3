//! Differential test for the sharded semester driver (tier 1).
//!
//! The paper course (one shard) under every [`Storage`] and thread
//! count, the forced multi-shard course in memory at every thread
//! count, the streamed digest's seed sensitivity, and the thread
//! invariance of the experiment results built on top. The harness
//! itself, and the contract it checks, are in `differential/mod.rs`.
//!
//! [`Storage`]: ml_ops_course::cohort::semester::Storage

mod differential;

use differential::{arms, every_arm_matches_the_reference, forced_multi_shard, run, THREAD_COUNTS};
use ml_ops_course::cohort::semester::SemesterConfig;
use ml_ops_course::experiments::{capacity, fig1, fig2, fig3, headline, project_cost, table1};
use ml_ops_course::simkernel::fnv1a64;
use ml_ops_course::simkernel::parallel::with_thread_count;

const SUITE: &str = "sharded_differential";

#[test]
fn paper_course_parallel_matches_serial_at_every_thread_count() {
    // The paper course fits in a single shard (the legacy path): no
    // merge and no disk under any storage, and the trace and ledger must
    // still be invariant to the ambient pool size.
    let config = SemesterConfig::paper_course();
    assert_eq!(config.shards().len(), 1);
    every_arm_matches_the_reference(&config, SUITE, "paper", |_| true);
}

#[test]
fn forced_multi_shard_is_byte_identical_to_serial() {
    // The spill arms of this config are `spill_differential`'s.
    let reference =
        every_arm_matches_the_reference(&forced_multi_shard(), SUITE, "sharded", |arm| {
            !arm.spills()
        });
    assert!(
        reference.trace.contains("\"shard\""),
        "multi-shard trace should carry shard annotations"
    );
}

#[test]
fn streaming_digest_is_seed_sensitive() {
    // Guard against a digest that ignores the stream: two seeds must
    // disagree through the same spill pipeline.
    let config = forced_multi_shard();
    let arm = arms(SUITE, "seeds")
        .into_iter()
        .find(|arm| arm.spills() && arm.threads == 8 && !arm.streaming_serial)
        .expect("an 8-thread spill arm");
    let (a, _) = run(&config, 42, &arm);
    let (b, _) = run(&config, 7, &arm);
    assert_ne!(a.digest, b.digest, "different seeds digested identically");
}

#[test]
fn experiments_results_digest_is_thread_invariant() {
    // Build the same JSON document `run-experiments` writes to
    // experiments_results.json (the per-context sections) at each
    // thread count, and require identical digests.
    let digest_at = |threads: usize| {
        with_thread_count(threads, || {
            let ctx = ml_ops_course::experiments::run_paper_course(42);
            let sections = [
                table1::run(&ctx).1,
                fig1::run(&ctx).1,
                fig2::run(&ctx).1,
                fig3::run(&ctx).1,
                project_cost::run(&ctx).1,
                headline::run(&ctx).1,
                capacity::run(&ctx).1,
            ];
            let json = serde_json::json!({ "seed": 42u64, "comparisons": sections });
            fnv1a64(
                serde_json::to_string_pretty(&json)
                    .expect("serialize results")
                    .as_bytes(),
            )
        })
    };
    let digests: Vec<u64> = THREAD_COUNTS.iter().map(|&t| digest_at(t)).collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "experiments results digests differ across thread counts: {digests:016x?}"
    );
}
