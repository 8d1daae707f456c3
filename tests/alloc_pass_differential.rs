//! Differential byte-identity harness for the hot-path allocation
//! pass (tier 1).
//!
//! The allocation pass changed *how* the hot paths produce their data
//! — event names became interned [`Sym`]s, the shard merge moved from
//! clone-and-restamp to an owned batched restamp, and the shard
//! buffers/ledgers are pre-sized — while promising that *what* they
//! produce is byte-for-byte unchanged. This harness pins that promise
//! at a forced multi-shard configuration (`shard_students = 48`):
//! trace JSONL bytes, ledger digest, metrics digest, and folded-stack
//! output must be identical between the sequential reference and the
//! parallel driver at 1, 2, and 8 threads; the committed golden trace
//! fixture must be reproduced exactly; and the intern table must stop
//! growing once a run's vocabulary has settled (the zero-allocation
//! regression probe for the emit hot path).

use ml_ops_course::cohort::semester::{
    simulate_semester_serial_with, simulate_semester_with, SemesterConfig,
};
use ml_ops_course::experiments::digest::fnv1a64;
use ml_ops_course::experiments::trace::{capture_trace, TraceConfig};
use ml_ops_course::simkernel::parallel::with_thread_count;
use ml_ops_course::telemetry::intern::interned_count;
use ml_ops_course::telemetry::{export_jsonl, MemorySink, Telemetry};
use std::sync::{Mutex, MutexGuard};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Every test here interns event names into the process-global intern
/// table, and `intern_table_settles_after_the_first_run` asserts the
/// table does not grow; hold this in every test so no other test can
/// intern concurrently with that check.
static INTERN_LOCK: Mutex<()> = Mutex::new(());

fn intern_lock() -> MutexGuard<'static, ()> {
    INTERN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Everything the allocation pass promised not to change, as
/// comparable digests/bytes. `threads == None` runs the sequential
/// reference.
#[derive(Debug, PartialEq)]
struct RunBytes {
    trace: String,
    ledger_digest: u64,
    metrics_digest: u64,
    folded: String,
}

fn forced_multi_shard() -> SemesterConfig {
    let config = SemesterConfig {
        shard_students: 48,
        ..SemesterConfig::paper_course()
    };
    assert!(config.shards().len() > 1, "config must actually shard");
    config
}

fn run_bytes(config: &SemesterConfig, seed: u64, threads: Option<usize>) -> RunBytes {
    let sink = MemorySink::new();
    let telemetry = Telemetry::with_sink(sink.clone());
    let outcome = match threads {
        None => simulate_semester_serial_with(config, seed, &telemetry),
        Some(t) => with_thread_count(t, || simulate_semester_with(config, seed, &telemetry)),
    };
    let events = sink.take_events();
    let ledger = serde_json::to_string(outcome.ledger.records()).expect("ledger serializes");
    let metrics = serde_json::to_string(&telemetry.metrics_snapshot()).expect("metrics serialize");
    RunBytes {
        trace: export_jsonl(&events),
        ledger_digest: fnv1a64(ledger.as_bytes()),
        metrics_digest: fnv1a64(metrics.as_bytes()),
        folded: ml_ops_course::profiler::profile_spans(&events).to_folded(),
    }
}

#[test]
fn interning_and_owned_restamp_are_byte_invisible_at_any_thread_count() {
    let _guard = intern_lock();
    let config = forced_multi_shard();
    let reference = run_bytes(&config, 42, None);
    assert!(
        !reference.trace.is_empty() && !reference.folded.is_empty(),
        "reference run must produce a trace and folded stacks"
    );
    for t in THREAD_COUNTS {
        let parallel = run_bytes(&config, 42, Some(t));
        assert_eq!(
            reference.ledger_digest, parallel.ledger_digest,
            "ledger digest diverged from the sequential reference at {t} threads"
        );
        assert_eq!(
            reference.metrics_digest, parallel.metrics_digest,
            "metrics digest diverged from the sequential reference at {t} threads"
        );
        assert_eq!(
            reference.folded, parallel.folded,
            "folded stacks diverged from the sequential reference at {t} threads"
        );
        assert_eq!(
            reference.trace, parallel.trace,
            "trace JSONL bytes diverged from the sequential reference at {t} threads"
        );
    }
}

#[test]
fn trace_golden_fixture_survives_the_allocation_pass() {
    let _guard = intern_lock();
    // The committed fixture predates the interner; reproducing it
    // byte-for-byte is the proof that `Sym` resolution (not symbol
    // ids) reaches the wire.
    let golden = include_str!("golden/trace_tiny_seed7.jsonl");
    let artifacts = capture_trace(&TraceConfig {
        seed: 7,
        enrollment: 3,
        labs_only: true,
    });
    assert_eq!(
        artifacts.jsonl, golden,
        "interned trace export no longer matches tests/golden/trace_tiny_seed7.jsonl"
    );
}

#[test]
fn intern_table_settles_after_the_first_run() {
    let _guard = intern_lock();
    let config = forced_multi_shard();
    // First run may intern names that no earlier test touched.
    let _ = run_bytes(&config, 42, Some(2));
    let settled = interned_count();
    assert!(settled > 0, "a telemetry-enabled run must intern names");
    // Re-running — at any thread count — must not grow the table: the
    // emit hot path only ever sees the read-lock fast path once the
    // vocabulary exists, which is what keeps it allocation-free.
    for t in THREAD_COUNTS {
        let _ = run_bytes(&config, 42, Some(t));
        assert_eq!(
            interned_count(),
            settled,
            "intern table grew on a repeat run at {t} threads"
        );
    }
}
