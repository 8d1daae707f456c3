//! Differential test for the out-of-core streaming pipeline (tier 1).
//!
//! The spill contract: on a cohort that really shards, spill storage
//! reproduces the serial in-memory reference byte for byte — trace,
//! ledger records in canonical merge order, metrics, scalar counters
//! and fault stats, streamed outcome digest and folded stacks — under
//! the serial schedule and on the pool at 1, 2 and 8 threads, and
//! leaves no run file behind. The harness is in `differential/mod.rs`.

mod differential;

use differential::{every_exec_matches_the_reference, forced_multi_shard};

const SUITE: &str = "spill_differential";

#[test]
fn streaming_serial_matches_in_memory_serial() {
    every_exec_matches_the_reference(&forced_multi_shard(), SUITE, "serial", |arm| {
        arm.spills() && arm.threads.is_none()
    });
}

#[test]
fn streaming_matches_in_memory_at_every_thread_count() {
    every_exec_matches_the_reference(&forced_multi_shard(), SUITE, "pool", |arm| {
        arm.spills() && arm.threads.is_some()
    });
}
