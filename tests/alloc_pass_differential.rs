//! Differential byte-identity test for the hot-path allocation pass
//! (tier 1).
//!
//! Event names are `&'static str` literals, the shard fold restamps the
//! owned shard event buffers in place (`Telemetry::replay_owned`), and
//! shard buffers and ledgers are pre-sized; none of it may change a
//! byte. On a cohort cut into many small shards, so the restamp crosses
//! a shard boundary seven times, the in-memory runs at 2 and 8 threads
//! must reproduce the 1-thread in-memory reference (harness in
//! `differential/mod.rs`). The 48-student shards are
//! `sharded_differential`'s.

mod differential;

use differential::{every_arm_matches_the_reference, forced_multi_shard};
use ml_ops_course::cohort::semester::SemesterConfig;

const SUITE: &str = "alloc_pass_differential";

#[test]
fn interning_and_owned_restamp_are_byte_invisible_at_any_thread_count() {
    let config = SemesterConfig {
        shard_students: 24,
        ..forced_multi_shard()
    };
    assert_eq!(
        config.shards().len(),
        8,
        "191 students in 24-student shards"
    );
    let reference = every_arm_matches_the_reference(&config, SUITE, "restamp", |arm| !arm.spills());
    assert!(
        reference.trace.contains("\"shard\":7"),
        "the last shard's events must reach the merged trace"
    );
}
