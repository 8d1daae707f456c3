//! Property-based tests for the cohort simulator.

use opml_cohort::semester::{simulate_semester, SemesterConfig};
use opml_faults::FaultProfile;
use opml_metering::rollup::AssignmentRollup;
use opml_simkernel::SimDuration;
use opml_testbed::ledger::UsageKind;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary (small) cohorts and seeds, the semester upholds its
    /// structural invariants: records well-formed, leased usage
    /// auto-terminated, per-student normalization consistent.
    #[test]
    fn semester_invariants(enrollment in 4u32..24, seed in any::<u64>()) {
        let config = SemesterConfig {
            enrollment,
            run_projects: false,
            vm_auto_terminate_after: None,
            faults: FaultProfile::none(),
            shard_students: 191,
        };
        let outcome = simulate_semester(&config, seed);
        let end = opml_simkernel::SimTime::at(15, 0, 0, 0);
        for r in outcome.ledger.records() {
            prop_assert!(r.end >= r.start, "{} ends before start", r.name);
            prop_assert!(r.end <= end, "{} survives finalize", r.name);
        }
        // Leased flavors are always closed by auto-termination.
        for r in outcome.ledger.records() {
            if let UsageKind::Instance { flavor, auto_terminated } = r.kind {
                if flavor.requires_lease() {
                    prop_assert!(auto_terminated, "{} leased but user-closed", r.name);
                }
            }
        }
        let rollup = AssignmentRollup::from_ledger(&outcome.ledger, enrollment as usize);
        let total: f64 = rollup.rows.iter().map(|x| x.instance_hours).sum();
        prop_assert!((total - outcome.ledger.instance_hours(None)).abs() < 1e-6);
    }

    /// The VM auto-termination cap is a true upper bound on every VM
    /// record's duration.
    #[test]
    fn cap_bounds_every_vm_record(cap_hours in 4u64..48, seed in any::<u64>()) {
        let config = SemesterConfig {
            enrollment: 10,
            run_projects: false,
            vm_auto_terminate_after: Some(SimDuration::hours(cap_hours)),
            faults: FaultProfile::none(),
            shard_students: 191,
        };
        let outcome = simulate_semester(&config, seed);
        for r in outcome.ledger.records() {
            if let UsageKind::Instance { flavor, .. } = r.kind {
                if !flavor.requires_lease() {
                    prop_assert!(
                        r.hours() <= cap_hours as f64 + 1e-9,
                        "{}: {} h exceeds the {cap_hours} h cap",
                        r.name,
                        r.hours()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// At any injection rate, labs or the full course, the semester
    /// never panics, every ledger record is balanced, and nothing
    /// survives past finalize.
    #[test]
    fn semester_survives_arbitrary_faults(
        seed in any::<u64>(),
        rate in 0.0f64..1.0,
        projects in any::<bool>(),
    ) {
        let config = SemesterConfig {
            enrollment: 5,
            run_projects: projects,
            vm_auto_terminate_after: None,
            faults: FaultProfile::chaos(rate),
            shard_students: 191,
        };
        let outcome = simulate_semester(&config, seed);
        let end = opml_simkernel::SimTime::at(15, 0, 0, 0);
        for r in outcome.ledger.records() {
            prop_assert!(r.end >= r.start, "{} ends before start", r.name);
            prop_assert!(r.end <= end, "{} survives finalize", r.name);
        }
        // Counter coherence: leaks are a subset of abandonments, and
        // nothing is counted without an injection or denial behind it.
        let f = outcome.faults;
        prop_assert!(f.leaked <= f.abandoned, "leaked {} > abandoned {}", f.leaked, f.abandoned);
        if f.total() > 0 {
            prop_assert!(
                f.injected > 0 || outcome.quota_denials > 0,
                "recovery work with nothing injected: {f:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Replay equivalence at the cohort level: a seeded semester and its
    /// rollups serialize identically whether rayon runs on 1 thread or 8.
    #[test]
    fn rollup_invariant_to_thread_count(enrollment in 4u32..12, seed in any::<u64>()) {
        let config = SemesterConfig {
            enrollment,
            run_projects: false,
            vm_auto_terminate_after: None,
            faults: FaultProfile::none(),
            shard_students: 191,
        };
        let run = |threads: usize| {
            opml_simkernel::parallel::with_thread_count(threads, || {
                let outcome = simulate_semester(&config, seed);
                let rollup = AssignmentRollup::from_ledger(&outcome.ledger, enrollment as usize);
                let per_student =
                    opml_metering::rollup::PerStudentUsage::from_ledger(&outcome.ledger);
                (
                    outcome.ledger.records().len(),
                    serde_json::to_string(&rollup).expect("serialize rollup"),
                    serde_json::to_string(&per_student).expect("serialize per-student"),
                )
            })
        };
        let serial = run(1);
        let parallel = run(8);
        prop_assert_eq!(serial, parallel);
    }
}
