//! Golden-file contract for the telemetry trace: the JSONL and Chrome
//! exports of a small fixed-seed scenario must be byte-identical to the
//! committed fixtures. Any change to event ordering, attribute sets, or
//! JSON rendering shows up as a diff here and must be made deliberately
//! (by regenerating both fixtures with
//! `run-experiments trace --seed 7 --enrollment 3 --labs-only`, which
//! writes them as `trace.jsonl` and `trace_chrome.json`).
//!
//! Three fault-injected runs are pinned by digest instead: the FNV-1a
//! of each JSONL export, and of each metrics snapshot's JSON, must equal
//! the hex value committed in `tests/golden/`. They cover the executor's
//! failure arms (crash, leak, breaker, quota retry) that the fault-free
//! fixture never reaches, and the sharded one covers the merge: shard
//! traces replayed in shard order and shard metrics folded together.
//! The sharded run's Chrome export and the `verify-determinism` digest
//! are pinned the same way.

use ml_ops_course::cohort::semester::{simulate_semester_with, SemesterConfig};
use ml_ops_course::experiments::trace::{capture_trace, TraceConfig};
use ml_ops_course::experiments::verify::verify_determinism;
use ml_ops_course::faults::FaultProfile;
use ml_ops_course::profiler::Json;
use ml_ops_course::simkernel::{fnv1a64, SimTime};
use ml_ops_course::telemetry::{
    export_chrome_trace, export_jsonl, EventPhase, Telemetry, TelemetryEvent,
};

const GOLDEN: &str = include_str!("golden/trace_tiny_seed7.jsonl");
const GOLDEN_CHROME: &str = include_str!("golden/trace_tiny_seed7_chrome.json");

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
fn chrome_trace_matches_golden_file() {
    let chrome = capture_trace(&tiny()).chrome;
    if chrome != GOLDEN_CHROME {
        // The export is one line; point at the first differing byte.
        let at = chrome
            .bytes()
            .zip(GOLDEN_CHROME.bytes())
            .position(|(got, want)| got != want)
            .unwrap_or(chrome.len().min(GOLDEN_CHROME.len()));
        panic!(
            "Chrome export diverges from tests/golden/trace_tiny_seed7_chrome.json at byte {at} \
             (got {} bytes, golden has {})",
            chrome.len(),
            GOLDEN_CHROME.len()
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

#[test]
fn chrome_trace_is_well_formed_json() {
    let trace_events = |what: &str, doc: &str| {
        let json = Json::parse(doc).unwrap_or_else(|e| panic!("{what}: {e}"));
        let events = json
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{what}: no traceEvents array"))
            .to_vec();
        assert!(events.len() > 2, "{what}: only thread metadata exported");
        events
    };
    trace_events("fixture run", &capture_trace(&tiny()).chrome);

    let ev = |seq: u64, phase: EventPhase, name: &'static str| TelemetryEvent {
        seq,
        time: SimTime(10 * (seq + 1)),
        phase,
        name,
        attrs: Vec::new(),
    };
    let quoted = trace_events(
        "quoted span names",
        &export_chrome_trace(&[
            ev(0, EventPhase::Begin, "span \"quoted\""),
            ev(1, EventPhase::Instant, "tick"),
            ev(2, EventPhase::End, "span \"quoted\""),
        ]),
    );
    // After the two thread-name records, the span's begin comes first.
    assert_eq!(
        quoted[2].get("name").and_then(Json::as_str),
        Some("span \"quoted\"")
    );
}

/// The FNV-1a digests, as hex, of the JSONL trace, of the metrics
/// snapshot's JSON and of the Chrome export from a 20%-chaos semester
/// at seed 7, projects on.
fn chaos_digests(enrollment: u32, shard_students: u32) -> (String, String, String) {
    let telemetry = Telemetry::recording();
    let config = SemesterConfig {
        enrollment,
        shard_students,
        faults: FaultProfile::chaos(0.2),
        ..SemesterConfig::paper_course()
    };
    simulate_semester_with(&config, 7, &telemetry);
    let metrics = serde_json::to_string(&telemetry.metrics_snapshot()).expect("metrics serialize");
    let events = telemetry.take_events();
    (
        hex_digest(export_jsonl(&events).as_bytes()),
        hex_digest(metrics.as_bytes()),
        hex_digest(export_chrome_trace(&events).as_bytes()),
    )
}

fn hex_digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

fn assert_matches_golden(got: &str, committed: &str, file: &str) {
    assert_eq!(got, committed.trim(), "digest differs from {file}");
}

#[test]
fn small_chaos_trace_matches_golden_digest() {
    // Eight students on one campus: crashes, leaks and revocations.
    let (trace, metrics, _) = chaos_digests(8, 191);
    assert_matches_golden(
        &trace,
        include_str!("golden/chaos_trace_8_seed7.digest"),
        "tests/golden/chaos_trace_8_seed7.digest",
    );
    assert_matches_golden(
        &metrics,
        include_str!("golden/chaos_metrics_8_seed7.digest"),
        "tests/golden/chaos_metrics_8_seed7.digest",
    );
}

#[test]
fn crowded_chaos_trace_matches_golden_digest() {
    // 400 students on one campus hit quota, so this trace also covers
    // the quota-retry arm and the breaker.
    let (trace, metrics, _) = chaos_digests(400, 400);
    assert_matches_golden(
        &trace,
        include_str!("golden/chaos_trace_400_seed7.digest"),
        "tests/golden/chaos_trace_400_seed7.digest",
    );
    assert_matches_golden(
        &metrics,
        include_str!("golden/chaos_metrics_400_seed7.digest"),
        "tests/golden/chaos_metrics_400_seed7.digest",
    );
}

#[test]
fn sharded_chaos_trace_matches_golden_digest() {
    // The same 400 students in three shards: each shard's trace is
    // replayed in shard order and its metrics folded into the parent's.
    // The Chrome export re-sorts the merged stream by (time, seq), so
    // its digest also pins the restamped sequence numbers.
    let config = SemesterConfig {
        enrollment: 400,
        shard_students: 191,
        ..SemesterConfig::paper_course()
    };
    assert_eq!(config.shards().len(), 3);
    let (trace, metrics, chrome) = chaos_digests(400, 191);
    assert_matches_golden(
        &trace,
        include_str!("golden/chaos_trace_400x191_seed7.digest"),
        "tests/golden/chaos_trace_400x191_seed7.digest",
    );
    assert_matches_golden(
        &metrics,
        include_str!("golden/chaos_metrics_400x191_seed7.digest"),
        "tests/golden/chaos_metrics_400x191_seed7.digest",
    );
    assert_matches_golden(
        &chrome,
        include_str!("golden/chaos_chrome_400x191_seed7.digest"),
        "tests/golden/chaos_chrome_400x191_seed7.digest",
    );
}

#[test]
fn verify_determinism_matches_golden_digest() {
    let outcome = verify_determinism(42, &[1]);
    assert_eq!(outcome.digests.len(), 2, "two repetitions at one thread");
    for run in &outcome.digests {
        assert_matches_golden(
            &format!("{:016x}", run.hash),
            include_str!("golden/verify_determinism_seed42.digest"),
            "tests/golden/verify_determinism_seed42.digest",
        );
    }
}
