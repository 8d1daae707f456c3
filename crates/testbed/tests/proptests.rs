//! Property-based tests for the testbed's invariants.

use opml_simkernel::SimTime;
use opml_testbed::cloud::Cloud;
use opml_testbed::error::CloudError;
use opml_testbed::flavor::FlavorId;
use opml_testbed::lease::ReservationCalendar;
use opml_testbed::quota::{Quota, QuotaUsage};
use proptest::prelude::*;

proptest! {
    /// The reservation calendar never admits more than capacity at any
    /// instant, for arbitrary request sequences.
    #[test]
    fn calendar_never_oversubscribes(
        capacity in 1u32..6,
        requests in prop::collection::vec((0u64..200, 1u64..24, 1u32..4), 1..60),
    ) {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::GpuV100, capacity);
        let mut admitted = Vec::new();
        for (start, len, count) in requests {
            let s = SimTime(start * 60);
            let e = SimTime((start + len) * 60);
            if let Ok(lease) = cal.reserve(FlavorId::GpuV100, count, s, e) {
                admitted.push(lease);
            }
        }
        // Check the invariant at every lease boundary.
        for probe in admitted.iter().flat_map(|l| [l.start, SimTime(l.end.0 - 1)]) {
            let in_use: u32 = admitted
                .iter()
                .filter(|l| l.start <= probe && probe < l.end)
                .map(|l| l.count)
                .sum();
            prop_assert!(in_use <= capacity, "{in_use} > {capacity} at {probe:?}");
        }
    }

    /// earliest_slot always returns a window that then admits.
    #[test]
    fn earliest_slot_is_admissible(
        capacity in 1u32..4,
        pre in prop::collection::vec((0u64..100, 1u64..12), 0..20),
        len in 1u64..8,
        from in 0u64..100,
    ) {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::ComputeGigaio, capacity);
        for (start, l) in pre {
            let _ = cal.reserve(
                FlavorId::ComputeGigaio,
                1,
                SimTime(start * 60),
                SimTime((start + l) * 60),
            );
        }
        let dur = opml_simkernel::SimDuration(len * 60);
        let slot = cal.earliest_slot(FlavorId::ComputeGigaio, 1, dur, SimTime(from * 60));
        let start = slot.expect("capacity >= 1 always yields a slot");
        prop_assert!(start >= SimTime(from * 60));
        prop_assert!(cal.reserve(FlavorId::ComputeGigaio, 1, start, start + dur).is_ok());
    }

    /// Quota usage can never exceed configured limits under any sequence
    /// of takes and releases.
    #[test]
    fn quota_never_exceeded(
        limit_inst in 1u64..20,
        limit_cores in 1u64..60,
        ops in prop::collection::vec((any::<bool>(), 1u64..8, 1u64..16), 1..100),
    ) {
        let quota = Quota {
            instances: limit_inst,
            cores: limit_cores,
            ram_gb: u64::MAX,
            ..Quota::unlimited()
        };
        let mut usage = QuotaUsage::default();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (take, vcpus, ram) in ops {
            if take {
                if usage.take_instance(&quota, vcpus, ram).is_ok() {
                    live.push((vcpus, ram));
                }
            } else if let Some((v, r)) = live.pop() {
                usage.release_instance(v, r);
            }
            prop_assert!(usage.instances <= limit_inst);
            prop_assert!(usage.cores <= limit_cores);
            prop_assert_eq!(usage.instances as usize, live.len());
        }
    }

    /// Ledger conservation: whatever mix of create/advance/delete happens,
    /// finalize closes every record and total hours equal the sum of
    /// per-instance lifetimes.
    #[test]
    fn ledger_conserves_hours(
        ops in prop::collection::vec((0u64..3, 1u64..50), 1..80),
    ) {
        let mut cloud = Cloud::new(Quota::unlimited());
        let mut live: Vec<opml_testbed::InstanceId> = Vec::new();
        let mut expected_hours = 0.0f64;
        let mut created: std::collections::HashMap<_, SimTime> = Default::default();
        for (op, arg) in ops {
            match op {
                0 => {
                    let id = cloud
                        .create_instance(&format!("lab1-s{:03}", arg % 100), FlavorId::M1Small)
                        .expect("unlimited quota");
                    created.insert(id, cloud.now());
                    live.push(id);
                }
                1 => {
                    cloud.advance(opml_simkernel::SimDuration::hours(arg % 10));
                }
                _ => {
                    if let Some(id) = live.pop() {
                        let start = created[&id];
                        expected_hours += cloud.now().since(start).as_hours_f64();
                        cloud.delete_instance(id).expect("live instance");
                    }
                }
            }
        }
        let end = cloud.now();
        for id in live {
            expected_hours += end.since(created[&id]).as_hours_f64();
        }
        cloud.finalize(end);
        let total = cloud.ledger().instance_hours(None);
        prop_assert!((total - expected_hours).abs() < 1e-9, "{total} vs {expected_hours}");
    }

    /// Double-delete always fails, never corrupts accounting.
    #[test]
    fn double_delete_rejected(n in 1usize..10) {
        let mut cloud = Cloud::new(Quota::unlimited());
        let ids: Vec<_> = (0..n)
            .map(|i| cloud.create_instance(&format!("x-s{i:03}"), FlavorId::M1Small).unwrap())
            .collect();
        for id in &ids {
            cloud.delete_instance(*id).unwrap();
            prop_assert_eq!(cloud.delete_instance(*id), Err(CloudError::AlreadyDeleted));
        }
        prop_assert_eq!(cloud.active_instances(), 0);
        prop_assert_eq!(cloud.ledger().records().len(), n);
    }
}
