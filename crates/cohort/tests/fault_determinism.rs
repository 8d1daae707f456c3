//! Determinism of the fault-injected semester: the chaos trace must be
//! byte-identical across rayon thread counts, and a zero-rate chaos
//! profile must be indistinguishable from running with no faults at all.

use opml_cohort::semester::{simulate_semester_with, SemesterConfig};
use opml_faults::FaultProfile;
use opml_simkernel::parallel::with_thread_count;
use opml_telemetry::{export_jsonl, Telemetry};

/// Run one semester under `threads` rayon threads and export its trace.
fn trace(faults: FaultProfile, threads: usize) -> String {
    with_thread_count(threads, || {
        let telemetry = Telemetry::recording();
        let config = SemesterConfig {
            enrollment: 8,
            run_projects: true,
            vm_auto_terminate_after: None,
            faults,
            shard_students: 191,
        };
        simulate_semester_with(&config, 7, &telemetry);
        export_jsonl(&telemetry.events())
    })
}

#[test]
fn sharded_chaos_trace_is_thread_count_invariant() {
    // Force multiple shards (8 students, 3 per shard) so the buffered
    // replay path — not just the legacy single-campus path — is covered
    // under fault injection.
    let sharded = |threads: usize| {
        with_thread_count(threads, || {
            let telemetry = Telemetry::recording();
            let config = SemesterConfig {
                enrollment: 8,
                run_projects: true,
                vm_auto_terminate_after: None,
                faults: FaultProfile::chaos(0.2),
                shard_students: 3,
            };
            simulate_semester_with(&config, 7, &telemetry);
            export_jsonl(&telemetry.events())
        })
    };
    let serial = sharded(1);
    let parallel = sharded(8);
    assert!(serial.contains("fault.inject"));
    assert_eq!(
        serial, parallel,
        "sharded chaos trace differs across thread counts"
    );
}

#[test]
fn chaos_trace_is_thread_count_invariant() {
    let serial = trace(FaultProfile::chaos(0.2), 1);
    let parallel = trace(FaultProfile::chaos(0.2), 8);
    assert!(
        serial.contains("fault.inject"),
        "a 20% chaos run should inject something"
    );
    assert_eq!(serial, parallel, "chaos trace differs across thread counts");
}

#[test]
fn zero_rate_chaos_equals_no_fault_baseline() {
    let baseline = trace(FaultProfile::none(), 1);
    let zero_rate = trace(FaultProfile::chaos(0.0), 8);
    assert!(!baseline.contains("fault.inject"));
    assert_eq!(
        baseline, zero_rate,
        "an inert chaos profile must reproduce the baseline byte-for-byte"
    );
}
