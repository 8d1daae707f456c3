//! Differential byte-identity test for the hot-path allocation pass
//! (tier 1).
//!
//! Event names are interned [`Sym`]s, the shard fold restamps owned
//! event buffers in place, and shard buffers and ledgers are pre-sized;
//! none of it may change a byte. At the forced multi-shard config the
//! pool schedule must reproduce the serial in-memory reference at 1, 2
//! and 8 threads (harness in `differential/mod.rs`), and the intern
//! table must stop growing once a run's vocabulary has settled — the
//! zero-allocation regression probe for the emit hot path.
//!
//! [`Sym`]: ml_ops_course::telemetry::intern::Sym

mod differential;

use differential::{arms, every_exec_matches_the_reference, forced_multi_shard, intern_lock, run};
use ml_ops_course::telemetry::intern::interned_count;

const SUITE: &str = "alloc_pass_differential";

#[test]
fn interning_and_owned_restamp_are_byte_invisible_at_any_thread_count() {
    let _guard = intern_lock();
    every_exec_matches_the_reference(&forced_multi_shard(), SUITE, "restamp", |arm| !arm.spills());
}

#[test]
fn intern_table_settles_after_the_first_run() {
    let _guard = intern_lock();
    let config = forced_multi_shard();
    let pool: Vec<_> = arms(SUITE, "settle")
        .into_iter()
        .filter(|arm| !arm.spills() && arm.threads.is_some())
        .collect();
    let two = pool
        .iter()
        .find(|arm| arm.threads == Some(2))
        .expect("a 2-thread memory arm");
    // First run may intern names that no earlier test touched.
    let _ = run(&config, 42, two);
    let settled = interned_count();
    assert!(settled > 0, "a telemetry-enabled run must intern names");
    // Re-running — at any thread count — must not grow the table: the
    // emit hot path only ever sees the read-lock fast path once the
    // vocabulary exists, which is what keeps it allocation-free.
    for arm in &pool {
        let _ = run(&config, 42, arm);
        assert_eq!(
            interned_count(),
            settled,
            "intern table grew on a repeat {} run",
            arm.name
        );
    }
}
