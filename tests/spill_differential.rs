//! Differential test for the out-of-core streaming pipeline (tier 1).
//!
//! The spill contract: on a cohort that really shards, spill storage
//! reproduces the 1-thread in-memory reference byte for byte — trace,
//! ledger records in canonical merge order, metrics, scalar counters
//! and fault stats, streamed outcome digest and folded stacks — at 1, 2
//! and 8 threads, and through `simulate_semester_streaming_serial`,
//! which runs the shards one after another on the calling thread even
//! from inside an 8-thread pool, and leaves no run file behind. The
//! harness is in `differential/mod.rs`.

mod differential;

use differential::{every_arm_matches_the_reference, forced_multi_shard};

const SUITE: &str = "spill_differential";

#[test]
fn streaming_serial_matches_in_memory_serial() {
    every_arm_matches_the_reference(&forced_multi_shard(), SUITE, "serial", |arm| {
        arm.streaming_serial
    });
}

#[test]
fn streaming_matches_in_memory_at_every_thread_count() {
    every_arm_matches_the_reference(&forced_multi_shard(), SUITE, "pool", |arm| {
        arm.spills() && !arm.streaming_serial
    });
}
