//! Property-based tests for attribution and rollups.

use opml_metering::attribution::{group_name, parse_name, student_name, Owner};
use opml_metering::rollup::AssignmentRollup;
use opml_simkernel::SimTime;
use opml_testbed::flavor::FlavorId;
use opml_testbed::ledger::{Ledger, UsageKind, UsageRecord};
use proptest::prelude::*;

fn tag_strategy() -> impl Strategy<Value = String> {
    "(lab[1-8]|lab[45]-multi|lab[45]-single|proj)".prop_map(|s| s)
}

proptest! {
    /// Naming convention roundtrips for any tag and id.
    #[test]
    fn student_name_roundtrip(tag in tag_strategy(), id in 0u32..10_000) {
        let a = parse_name(&student_name(&tag, id));
        prop_assert_eq!(a.tag, tag);
        prop_assert_eq!(a.owner, Owner::Student(id));
    }

    /// Group names roundtrip with arbitrary suffixes.
    #[test]
    fn group_name_roundtrip(tag in tag_strategy(), id in 0u32..99, suffix in "[a-z]{0,8}") {
        let a = parse_name(&group_name(&tag, id, &suffix));
        prop_assert_eq!(a.tag, tag);
        prop_assert_eq!(a.owner, Owner::Group(id));
    }

    /// Rollup conserves hours: the sum over cells equals the ledger's
    /// total instance hours, for arbitrary record sets.
    #[test]
    fn rollup_conserves_hours(
        records in prop::collection::vec(
            (0u32..50, 0usize..4, 0u64..100, 1u64..50),
            1..100,
        ),
    ) {
        let flavors = [
            FlavorId::M1Small,
            FlavorId::M1Medium,
            FlavorId::M1Large,
            FlavorId::GpuV100,
        ];
        let mut ledger = Ledger::new();
        for (student, flavor_idx, start, len) in records {
            ledger.push(UsageRecord {
                name: student_name("lab2", student).into(),
                kind: UsageKind::Instance {
                    flavor: flavors[flavor_idx],
                    auto_terminated: false,
                },
                start: SimTime(start * 60),
                end: SimTime((start + len) * 60),
            });
        }
        let rollup = AssignmentRollup::from_ledger(&ledger, 191);
        let cell_sum: f64 = rollup.rows.iter().map(|r| r.instance_hours).sum();
        let ledger_sum = ledger.instance_hours(None);
        prop_assert!((cell_sum - ledger_sum).abs() < 1e-9);
    }

    /// Per-student rollup: summing any student's cells reproduces that
    /// student's ledger hours.
    #[test]
    fn per_student_conserves(
        records in prop::collection::vec((0u32..10, 1u64..30), 1..60),
    ) {
        use opml_metering::rollup::PerStudentUsage;
        let mut ledger = Ledger::new();
        let mut expected: std::collections::HashMap<u32, f64> = Default::default();
        for (student, len) in records {
            ledger.push(UsageRecord {
                name: student_name("lab7", student).into(),
                kind: UsageKind::Instance {
                    flavor: FlavorId::M1Medium,
                    auto_terminated: false,
                },
                start: SimTime(0),
                end: SimTime(len * 60),
            });
            *expected.entry(student).or_insert(0.0) += len as f64;
        }
        let per = PerStudentUsage::from_ledger(&ledger);
        for (student, hours) in expected {
            prop_assert!((per.student_hours(student, "lab7") - hours).abs() < 1e-9);
        }
    }
}
