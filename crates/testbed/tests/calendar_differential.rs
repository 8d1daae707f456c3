//! Differential property test: the sweep-line [`ReservationCalendar`]
//! must be **byte-identical** to the naive `O(L²)` reference it
//! replaced, on arbitrary operation sequences.
//!
//! The unit tests in `lease.rs` pin specific scripted scenarios; this
//! test lets proptest explore the space — overlapping windows, repeated
//! revocations, zero-progress revokes, interleavings over every flavor
//! (some with zero capacity), queries over empty flavors, lookups and
//! revocations of ids that were never issued — and requires every
//! observable output (slot choices, admission decisions, concrete
//! `CloudError`s, peaks, revocation outcomes) to match exactly. A
//! failing case reports its inputs, which is how the scripted
//! regression tests in `lease.rs` were found in the first place.

use opml_simkernel::{SimDuration, SimTime};
use opml_testbed::error::CloudError;
use opml_testbed::flavor::FlavorId;
use opml_testbed::lease::naive::NaiveCalendar;
use opml_testbed::lease::ReservationCalendar;
use opml_testbed::LeaseId;
use proptest::prelude::*;

const FLAVORS: [FlavorId; 13] = FlavorId::ALL;

/// Flavor for a draw in `0..2 * FLAVORS.len()`: the lower half spreads
/// over every flavor, the upper half lands on two hot flavors so
/// bookings still contend and `earliest_slot` has to search.
fn flavor_for(draw: usize) -> FlavorId {
    const HOT: [FlavorId; 2] = [FlavorId::GpuA100Pcie, FlavorId::GpuV100];
    FLAVORS.get(draw).copied().unwrap_or(HOT[draw % 2])
}

/// A lease id that was never issued, given how many were: the next id
/// due, a little past it, past any `u32` index, or up at `u64::MAX`.
fn never_issued(issued: usize, nth: usize) -> LeaseId {
    let k = (nth / 4 % 4) as u64;
    LeaseId(match nth / 16 % 4 {
        0 => issued as u64,
        1 => issued as u64 + 1 + k,
        2 => (1 << 32) + k,
        _ => u64::MAX - k,
    })
}

/// One abstract calendar operation; indices are resolved modulo the
/// number of admitted leases at replay time so scripts stay valid under
/// shrinking.
#[derive(Debug, Clone)]
enum Op {
    Reserve {
        flavor: FlavorId,
        count: u32,
        start: u64,
        len: u64,
    },
    EarliestSlot {
        flavor: FlavorId,
        count: u32,
        len: u64,
        from: u64,
        /// Book the returned slot, as the semester workflow does.
        then_reserve: bool,
    },
    Peak {
        flavor: FlavorId,
        start: u64,
        len: u64,
    },
    /// Revoke an admitted lease, or (one time in four) a never-issued id.
    Revoke { nth: usize, at: u64 },
    /// Probe a lease id (admitted index or a never-issued id) through
    /// `get` and `is_revoked`.
    Get { nth: usize },
}

/// Weighted op generator, written against the vendored proptest shim:
/// one flat tuple mapped through a selector (the shim has no
/// `prop_oneof`). Weights favor the booking ops so sequences build up
/// enough contention for `earliest_slot` to have to search.
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u8..14,
        0usize..2 * FLAVORS.len(),
        1u32..4,
        0u64..120,
        1u64..16,
        any::<usize>(),
    )
        .prop_map(|(sel, draw, count, x, y, nth)| {
            let flavor = flavor_for(draw);
            match sel {
                0..=4 => Op::Reserve {
                    flavor,
                    count,
                    start: x,
                    len: y,
                },
                5..=8 => Op::EarliestSlot {
                    flavor,
                    count,
                    len: y,
                    from: x,
                    then_reserve: nth % 2 == 0,
                },
                // Zero-width and empty windows included deliberately.
                9 | 10 => Op::Peak {
                    flavor,
                    start: x,
                    len: (y - 1) * 2,
                },
                11 | 12 => Op::Revoke { nth, at: x + y },
                _ => Op::Get { nth },
            }
        })
}

/// Everything observable about one op's outcome, comparable across
/// implementations. Lease ids are included: allocation order is part of
/// the byte-identity contract (ids feed downstream digests).
#[derive(Debug, PartialEq)]
enum Observed {
    Admitted(u64),
    Denied(CloudError),
    Slot(Option<u64>),
    Peak(u32),
    Revoked,
    RevokeErr(CloudError),
    RevokeSkipped,
    Lease(Option<(u64, u64, u64, u32)>, bool),
}

macro_rules! replay {
    ($cal:expr, $ops:expr) => {{
        let cal = $cal;
        let mut seen: Vec<Observed> = Vec::new();
        let mut admitted: Vec<LeaseId> = Vec::new();
        for op in $ops {
            match *op {
                Op::Reserve {
                    flavor,
                    count,
                    start,
                    len,
                } => {
                    let s = SimTime(start * 30);
                    let e = SimTime((start + len) * 30);
                    match cal.reserve(flavor, count, s, e) {
                        Ok(lease) => {
                            admitted.push(lease.id);
                            seen.push(Observed::Admitted(lease.id.0));
                        }
                        Err(err) => seen.push(Observed::Denied(err)),
                    }
                }
                Op::EarliestSlot {
                    flavor,
                    count,
                    len,
                    from,
                    then_reserve,
                } => {
                    let dur = SimDuration(len * 30);
                    let slot = cal.earliest_slot(flavor, count, dur, SimTime(from * 30));
                    seen.push(Observed::Slot(slot.map(|t| t.0)));
                    if let (true, Some(start)) = (then_reserve, slot) {
                        match cal.reserve(flavor, count, start, start + dur) {
                            Ok(lease) => {
                                admitted.push(lease.id);
                                seen.push(Observed::Admitted(lease.id.0));
                            }
                            Err(err) => seen.push(Observed::Denied(err)),
                        }
                    }
                }
                Op::Peak { flavor, start, len } => {
                    let s = SimTime(start * 30);
                    seen.push(Observed::Peak(cal.peak_reserved(
                        flavor,
                        s,
                        SimTime((start + len) * 30),
                    )));
                }
                Op::Revoke { nth, at } => {
                    let id = if nth % 4 == 3 {
                        Some(never_issued(admitted.len(), nth))
                    } else if admitted.is_empty() {
                        None
                    } else {
                        Some(admitted[nth % admitted.len()])
                    };
                    match id.map(|id| cal.revoke(id, SimTime(at * 30))) {
                        None => seen.push(Observed::RevokeSkipped),
                        Some(Ok(())) => seen.push(Observed::Revoked),
                        Some(Err(err)) => seen.push(Observed::RevokeErr(err)),
                    }
                }
                Op::Get { nth } => {
                    // Odd probes target ids that were never issued.
                    let id = if admitted.is_empty() || nth % 2 == 1 {
                        never_issued(admitted.len(), nth)
                    } else {
                        admitted[nth % admitted.len()]
                    };
                    seen.push(Observed::Lease(
                        cal.get(id).map(|l| (l.id.0, l.start.0, l.end.0, l.count)),
                        cal.is_revoked(id),
                    ));
                }
            }
        }
        (seen, admitted)
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary op sequences produce identical observable behavior on
    /// the sweep-line calendar and the naive reference, including the
    /// exact error variants and the `is_revoked` view afterwards.
    #[test]
    fn sweep_line_matches_naive(
        caps in prop::collection::vec(0u32..5, FLAVORS.len()),
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let mut sweep = ReservationCalendar::new();
        let mut naive = NaiveCalendar::new();
        // A zero capacity makes its flavor reject everything, which must
        // be rejected *identically* on both sides.
        for (&flavor, &cap) in FLAVORS.iter().zip(&caps) {
            sweep.set_capacity(flavor, cap);
            naive.set_capacity(flavor, cap);
        }

        let (seen_sweep, admitted_sweep) = replay!(&mut sweep, &ops);
        let (seen_naive, admitted_naive) = replay!(&mut naive, &ops);
        prop_assert_eq!(&seen_sweep, &seen_naive);
        prop_assert_eq!(&admitted_sweep, &admitted_naive);

        // Post-state agrees too: every admitted lease reads back the
        // same, with the same revocation flag.
        for id in &admitted_sweep {
            let ls = sweep.get(*id).expect("admitted lease readable");
            let ln = naive.get(*id).expect("admitted lease readable");
            prop_assert_eq!(
                (ls.start, ls.end, ls.count, ls.flavor),
                (ln.start, ln.end, ln.count, ln.flavor)
            );
            prop_assert_eq!(sweep.is_revoked(*id), naive.is_revoked(*id));
        }

        // And the usage-analysis archive view is order-identical.
        for flavor in FLAVORS {
            let ids_sweep: Vec<u64> = sweep.leases_for(flavor).iter().map(|l| l.id.0).collect();
            let ids_naive: Vec<u64> = naive.leases_for(flavor).iter().map(|l| l.id.0).collect();
            prop_assert_eq!(ids_sweep, ids_naive);
        }

        // Ids never issued read as absent, whatever their size: the id
        // indexes a `Vec`, so a huge one must miss it, not panic.
        for nth in (0..64).step_by(4) {
            let id = never_issued(admitted_sweep.len(), nth);
            prop_assert!(sweep.get(id).is_none(), "{:?} readable", id);
            prop_assert!(!sweep.is_revoked(id), "{:?} revoked", id);
            prop_assert_eq!(sweep.revoke(id, SimTime(0)), Err(CloudError::NoSuchLease));
        }
    }
}
