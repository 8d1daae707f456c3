//! Golden-file contract for the telemetry trace: the JSONL export of a
//! small fixed-seed scenario must be byte-identical to the committed
//! fixture. Any change to event ordering, attribute sets, or JSON
//! rendering shows up as a diff here and must be made deliberately (by
//! regenerating the fixture with
//! `run-experiments trace --seed 7 --enrollment 3 --labs-only`).
//!
//! Two fault-injected traces are pinned by digest instead: the FNV-1a
//! of each JSONL export must equal the hex value committed beside it.
//! They cover the executor's failure arms (crash, leak, breaker, quota
//! retry) that the fault-free fixture never reaches.

use ml_ops_course::cohort::semester::{simulate_semester_with, SemesterConfig};
use ml_ops_course::experiments::trace::{capture_trace, TraceConfig};
use ml_ops_course::faults::FaultProfile;
use ml_ops_course::simkernel::fnv1a64;
use ml_ops_course::telemetry::{export_jsonl, MemorySink, Telemetry};

const GOLDEN: &str = include_str!("golden/trace_tiny_seed7.jsonl");

fn tiny() -> TraceConfig {
    TraceConfig {
        seed: 7,
        enrollment: 3,
        labs_only: true,
    }
}

#[test]
fn jsonl_trace_matches_golden_file() {
    let artifacts = capture_trace(&tiny());
    if artifacts.jsonl != GOLDEN {
        // Point at the first differing line so the failure is actionable.
        let mut line = 0usize;
        for (got, want) in artifacts.jsonl.lines().zip(GOLDEN.lines()) {
            line += 1;
            assert_eq!(
                got, want,
                "trace diverges from tests/golden/trace_tiny_seed7.jsonl at line {line}"
            );
        }
        panic!(
            "trace length changed: got {} lines, golden has {}",
            artifacts.jsonl.lines().count(),
            GOLDEN.lines().count()
        );
    }
}

#[test]
fn golden_scenario_covers_the_event_vocabulary() {
    // The fixture should keep exercising the hot-seam event names; if a
    // rename drops one, fail here rather than silently shrinking coverage.
    for name in [
        "stage.semester",
        "semester.plan",
        "semester.exec",
        "semester.week_start",
        "semester.finalize",
        "lease.accept",
        "instance.launch",
        "instance.terminate",
        "queue.pop",
    ] {
        assert!(
            GOLDEN.contains(&format!("\"name\":\"{name}\"")),
            "golden trace no longer contains event `{name}`"
        );
    }
}

/// The FNV-1a of the JSONL trace of a 20%-chaos semester at seed 7,
/// projects on.
fn chaos_trace_digest(enrollment: u32, shard_students: u32) -> String {
    let sink = MemorySink::new();
    let telemetry = Telemetry::with_sink(sink.clone());
    let config = SemesterConfig {
        enrollment,
        shard_students,
        faults: FaultProfile::chaos(0.2),
        ..SemesterConfig::paper_course()
    };
    simulate_semester_with(&config, 7, &telemetry);
    format!("{:016x}", fnv1a64(export_jsonl(&sink.events()).as_bytes()))
}

fn assert_matches_golden(got: &str, committed: &str, file: &str) {
    assert_eq!(
        got,
        committed.trim(),
        "chaos trace digest differs from {file}"
    );
}

#[test]
fn small_chaos_trace_matches_golden_digest() {
    // Eight students on one campus: crashes, leaks and revocations.
    assert_matches_golden(
        &chaos_trace_digest(8, 191),
        include_str!("golden/chaos_trace_8_seed7.digest"),
        "tests/golden/chaos_trace_8_seed7.digest",
    );
}

#[test]
fn crowded_chaos_trace_matches_golden_digest() {
    // 400 students on one campus hit quota, so this trace also covers
    // the quota-retry arm and the breaker.
    assert_matches_golden(
        &chaos_trace_digest(400, 400),
        include_str!("golden/chaos_trace_400_seed7.digest"),
        "tests/golden/chaos_trace_400_seed7.digest",
    );
}
