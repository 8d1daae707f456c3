//! Advance reservations (leases) for bare-metal and edge resources.
//!
//! §4 of the paper: course staff reserved specific bare-metal GPU nodes for
//! week-long blocks aligned with the course schedule; within a block,
//! students reserved short 2–3-hour slots without contending with other
//! testbed users. At the end of a reservation the instance is **terminated
//! automatically** — which is why Fig. 1(b) shows actual ≈ expected for
//! bare-metal labs, unlike the VM labs of Fig. 1(a).
//!
//! The calendar is a per-flavor interval structure: a lease for `count`
//! nodes of a flavor over `[start, end)` is admitted iff, at every instant
//! of the window, the sum of overlapping leases plus `count` does not
//! exceed the flavor's node capacity.
//!
//! # Sweep-line profile
//!
//! Admission control runs on an incrementally-maintained sweep-line
//! profile per flavor (the private `FlavorProfile`): a `Vec` of interval
//! boundaries sorted strictly by time, where each entry carries the
//! occupancy *delta* at that boundary and the cached occupancy *level*
//! on the segment up to the next boundary. Every lookup is one
//! `partition_point` binary search, which makes
//!
//! * [`peak_reserved`] an `O(log L + W)` range-max (`W` = boundaries
//!   inside the queried window),
//! * [`reserve`] one search per window end, one contiguous level update
//!   over the `W` boundaries inside, and at most two inserts and two
//!   removes, each an `O(tail)` memmove, and
//! * [`earliest_slot`] a forward sweep over candidate starts with an
//!   `O(log L + W)` feasibility check each,
//!
//! replacing the naive re-scan of every lease ever admitted (`O(L²)` per
//! query, `O(L³)` per placement — see [`naive`], kept as the differential
//! reference). The memmove tail was measured short, at seed 42, on
//! every workload that books through this calendar: 70 boundaries moved
//! per insert or remove on average in 191-student semester shards, 46
//! to 90 in one calendar for a whole 800- to 10,000-student cohort, and
//! under 4 in the service soak, which books along an advancing frontier
//! (DESIGN.md §11 has the table). Candidate starts for `earliest_slot` are
//! tracked exactly as the naive code enumerated them — the multiset of
//! current lease *ends* — so slot choices are byte-identical by
//! construction, not just equivalent-by-argument.
//!
//! Per-flavor state sits in an array indexed by `FlavorId as usize` (the
//! [`FlavorId::ALL`] position), and lease ids, issued densely from 0,
//! index one `Vec` that also carries the revoked flag, so no calendar
//! operation hashes. The append-only per-flavor lease archive is
//! retained solely for the usage analysis ([`leases_for`] and the
//! Fig. 1/3 rollups read it); admission decisions never scan it.
//!
//! [`peak_reserved`]: ReservationCalendar::peak_reserved
//! [`reserve`]: ReservationCalendar::reserve
//! [`earliest_slot`]: ReservationCalendar::earliest_slot
//! [`leases_for`]: ReservationCalendar::leases_for

use crate::error::CloudError;
use crate::flavor::FlavorId;
use opml_simkernel::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Opaque lease identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LeaseId(pub u64);

/// An admitted reservation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Lease {
    /// Identifier.
    pub id: LeaseId,
    /// Reserved flavor.
    pub flavor: FlavorId,
    /// Number of nodes reserved.
    pub count: u32,
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive) — instances are auto-terminated here.
    pub end: SimTime,
}

impl Lease {
    /// Whether `t` falls inside the lease window.
    pub fn covers(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// One profile boundary: the instant, the occupancy change there, and
/// the cached occupancy level on the segment from here to the next
/// boundary.
///
/// Invariants (checked by `debug_assert_invariants` in tests):
/// * boundaries are strictly increasing in `at`;
/// * `delta != 0` for every stored boundary (zero-delta boundaries are
///   merged away);
/// * `level = predecessor.level + delta` (with an implicit level of 0
///   before the first boundary).
#[derive(Debug, Clone, Copy)]
struct Seg {
    at: SimTime,
    delta: i64,
    level: i64,
}

/// Per-flavor sweep-line occupancy profile plus the exact candidate-start
/// multiset for [`ReservationCalendar::earliest_slot`].
#[derive(Debug, Clone, Default)]
struct FlavorProfile {
    /// Boundaries, strictly increasing in time.
    segs: Vec<Seg>,
    /// Multiset of current lease end times as `(end, refcount)`, strictly
    /// increasing in time, every refcount at least 1. Revocation moves a
    /// lease's end here, exactly as it truncates the archived lease, so
    /// the candidate set matches the naive enumeration of `l.end` over
    /// all leases byte-for-byte.
    ends: Vec<(SimTime, u32)>,
}

impl FlavorProfile {
    /// Occupancy just before boundary `i`: the level of the segment that
    /// boundary `i - 1` opens (0 before the first boundary).
    fn level_before(&self, i: usize) -> i64 {
        i.checked_sub(1)
            .and_then(|p| self.segs.get(p))
            .map_or(0, |s| s.level)
    }

    /// Max occupancy over `[start, end)`: the level at `start` plus every
    /// boundary level strictly inside the window. `O(log L + W)`.
    ///
    /// An empty window (`end <= start`) still samples the instant
    /// `start` — the naive scan always probes `start` itself — so the
    /// two implementations agree there too.
    fn peak(&self, start: SimTime, end: SimTime) -> i64 {
        let inside = self.segs.partition_point(|s| s.at <= start);
        let mut peak = self.level_before(inside);
        if start < end {
            for seg in self.segs.iter().skip(inside).take_while(|s| s.at < end) {
                peak = peak.max(seg.level);
            }
        }
        peak
    }

    /// Index of the boundary at `t`, first inserting one (delta 0, level
    /// inherited from the containing segment) if none exists. Every
    /// boundary before index `from` must be earlier than `t`.
    fn boundary(&mut self, t: SimTime, from: usize) -> usize {
        let i = from
            + self
                .segs
                .get(from..)
                .map_or(0, |tail| tail.partition_point(|s| s.at < t));
        if self.segs.get(i).is_none_or(|s| s.at != t) {
            let level = self.level_before(i);
            self.segs.insert(
                i,
                Seg {
                    at: t,
                    delta: 0,
                    level,
                },
            );
        }
        i
    }

    /// Add `delta` to the change at boundary `i`, removing the boundary
    /// if it cancels to 0: a zero-delta boundary's level equals its
    /// predecessor's, so removing it preserves the step function.
    fn shift_delta(&mut self, i: usize, delta: i64) {
        if let Some(seg) = self.segs.get_mut(i) {
            seg.delta += delta;
            if seg.delta == 0 {
                self.segs.remove(i);
            }
        }
    }

    /// Add `count` (may be negative, for revocation) to the occupancy on
    /// `[start, end)`, merging away boundaries whose delta cancels to 0.
    fn add(&mut self, start: SimTime, end: SimTime, count: i64) {
        if start >= end || count == 0 {
            return;
        }
        let first = self.boundary(start, 0);
        let last = self.boundary(end, first + 1);
        for seg in self.segs.get_mut(first..last).unwrap_or_default() {
            seg.level += count;
        }
        // `last` first: removing it cannot move `first`.
        self.shift_delta(last, -count);
        self.shift_delta(first, count);
    }

    /// Record a lease end as an `earliest_slot` candidate.
    fn push_end(&mut self, t: SimTime) {
        let i = self.ends.partition_point(|&(e, _)| e < t);
        match self.ends.get_mut(i) {
            Some((e, n)) if *e == t => *n += 1,
            _ => self.ends.insert(i, (t, 1)),
        }
    }

    /// Move one end candidate from `from` to `to` (revocation truncates
    /// the lease window).
    fn move_end(&mut self, from: SimTime, to: SimTime) {
        if from == to {
            return;
        }
        let i = self.ends.partition_point(|&(e, _)| e < from);
        if let Some((e, n)) = self.ends.get_mut(i) {
            if *e == from {
                *n -= 1;
                if *n == 0 {
                    self.ends.remove(i);
                }
            }
        }
        self.push_end(to);
    }
}

/// Everything the calendar keeps for one flavor.
#[derive(Debug, Default)]
struct FlavorState {
    /// Number of physical nodes (0 until registered).
    capacity: u32,
    /// Admitted leases in admission order (append-only; expired leases
    /// retained for the usage analysis — admission control never scans
    /// this).
    archive: Vec<Lease>,
    /// Sweep-line occupancy profile.
    profile: FlavorProfile,
}

/// Where an issued lease lives, and whether it was revoked.
#[derive(Debug, Clone, Copy)]
struct LeaseSlot {
    flavor: FlavorId,
    /// Index into the flavor's archive.
    index: usize,
    /// Revoked before its window ended.
    revoked: bool,
}

/// Per-flavor reservation calendar with capacity admission control.
#[derive(Debug, Default)]
pub struct ReservationCalendar {
    /// Per-flavor state, indexed by `FlavorId as usize`; the discriminants
    /// are the [`FlavorId::ALL`] positions, so every flavor has a slot.
    flavors: [FlavorState; FlavorId::ALL.len()],
    /// Lease id → slot. Ids are issued densely from 0 and never reused,
    /// so the id is the index.
    slots: Vec<LeaseSlot>,
}

impl ReservationCalendar {
    /// Empty calendar; flavors must be registered with [`set_capacity`]
    /// before they can be leased.
    ///
    /// [`set_capacity`]: ReservationCalendar::set_capacity
    pub fn new() -> Self {
        Self::default()
    }

    fn state(&self, flavor: FlavorId) -> Option<&FlavorState> {
        self.flavors.get(flavor as usize)
    }

    fn slot(&self, id: LeaseId) -> Option<&LeaseSlot> {
        usize::try_from(id.0).ok().and_then(|i| self.slots.get(i))
    }

    /// Register (or update) the number of nodes for a flavor.
    pub fn set_capacity(&mut self, flavor: FlavorId, nodes: u32) {
        if let Some(state) = self.flavors.get_mut(flavor as usize) {
            state.capacity = nodes;
        }
    }

    /// Node count for a flavor (0 if unregistered).
    pub fn capacity(&self, flavor: FlavorId) -> u32 {
        self.state(flavor).map_or(0, |s| s.capacity)
    }

    /// Peak number of nodes of `flavor` already reserved at any instant of
    /// `[start, end)`. `O(log L + W)` on the sweep-line profile.
    pub fn peak_reserved(&self, flavor: FlavorId, start: SimTime, end: SimTime) -> u32 {
        // Occupancy is a sum of admitted counts, each bounded by the
        // flavor capacity at admission; it is never negative and fits u32.
        self.state(flavor)
            .map_or(0, |s| s.profile.peak(start, end).max(0) as u32)
    }

    /// Try to admit a reservation; returns the lease on success.
    pub fn reserve(
        &mut self,
        flavor: FlavorId,
        count: u32,
        start: SimTime,
        end: SimTime,
    ) -> Result<Lease, CloudError> {
        if end <= start {
            return Err(CloudError::InvalidLeaseWindow);
        }
        // Every flavor has a slot; a missing one reads as unregistered.
        let Some(state) = self.flavors.get_mut(flavor as usize) else {
            return Err(CloudError::NoCapacity {
                flavor,
                capacity: 0,
            });
        };
        let cap = state.capacity;
        if count > cap || state.profile.peak(start, end).max(0) as u32 + count > cap {
            return Err(CloudError::NoCapacity {
                flavor,
                capacity: cap,
            });
        }
        let lease = Lease {
            id: LeaseId(self.slots.len() as u64),
            flavor,
            count,
            start,
            end,
        };
        self.slots.push(LeaseSlot {
            flavor,
            index: state.archive.len(),
            revoked: false,
        });
        state.archive.push(lease);
        state.profile.add(start, end, i64::from(count));
        state.profile.push_end(end);
        Ok(lease)
    }

    /// Find the earliest admissible start ≥ `earliest` for a window of the
    /// given length, scanning existing lease boundaries. Returns the start
    /// time, or `None` if `count` exceeds capacity outright.
    ///
    /// This models the student workflow of "grab the next free 3-hour GPU
    /// slot this week". Candidate starts are `earliest` and every current
    /// lease end after it — the same set the naive reference enumerates —
    /// swept forward with an `O(log L + W)` range-max per candidate.
    pub fn earliest_slot(
        &self,
        flavor: FlavorId,
        count: u32,
        length: SimDuration,
        earliest: SimTime,
    ) -> Option<SimTime> {
        let state = self.state(flavor)?;
        let cap = state.capacity;
        if count > cap {
            return None;
        }
        let profile = &state.profile;
        let fits = |s: SimTime| profile.peak(s, s + length).max(0) as u32 + count <= cap;
        if fits(earliest) {
            return Some(earliest);
        }
        let later = profile.ends.partition_point(|&(e, _)| e <= earliest);
        profile
            .ends
            .iter()
            .skip(later)
            .map(|&(e, _)| e)
            .find(|&s| fits(s))
    }

    /// Revoke an admitted lease at `at`: its window is truncated (freeing
    /// the nodes for rebooking) and further provisioning against it is
    /// refused with [`CloudError::LeaseRevoked`].
    pub fn revoke(&mut self, id: LeaseId, at: SimTime) -> Result<(), CloudError> {
        let slot = usize::try_from(id.0)
            .ok()
            .and_then(|i| self.slots.get_mut(i))
            .ok_or(CloudError::NoSuchLease)?;
        if slot.revoked {
            return Err(CloudError::LeaseRevoked);
        }
        // Both lookups hit: a slot always names a live (flavor, index).
        let state = self
            .flavors
            .get_mut(slot.flavor as usize)
            .ok_or(CloudError::NoSuchLease)?;
        let lease = state
            .archive
            .get_mut(slot.index)
            .ok_or(CloudError::NoSuchLease)?;
        if lease.end <= at {
            // Already over; nothing to revoke.
            return Err(CloudError::OutsideLease);
        }
        let old_end = lease.end;
        let new_end = at.max(lease.start);
        lease.end = new_end;
        state.profile.add(new_end, old_end, -i64::from(lease.count));
        state.profile.move_end(old_end, new_end);
        slot.revoked = true;
        Ok(())
    }

    /// Whether a lease has been revoked.
    pub fn is_revoked(&self, id: LeaseId) -> bool {
        self.slot(id).is_some_and(|s| s.revoked)
    }

    /// Look up an admitted lease.
    pub fn get(&self, id: LeaseId) -> Option<&Lease> {
        let slot = self.slot(id)?;
        self.state(slot.flavor)?.archive.get(slot.index)
    }

    /// All leases for a flavor, in admission order.
    pub fn leases_for(&self, flavor: FlavorId) -> &[Lease] {
        self.state(flavor).map_or(&[], |s| s.archive.as_slice())
    }

    /// Check the profile invariants against the lease archive: boundaries
    /// and end candidates are strictly increasing in time, every boundary
    /// has a nonzero delta, levels are running sums of deltas, both
    /// deltas and end candidates reconstruct exactly from the
    /// (truncation-adjusted) archive, and every archived lease is the one
    /// its id's slot names. Test-only.
    #[cfg(test)]
    fn debug_assert_invariants(&self) {
        use std::collections::BTreeMap;
        let mut archived = 0;
        for (flavor, state) in FlavorId::ALL.into_iter().zip(&self.flavors) {
            let profile = &state.profile;
            assert!(
                profile.segs.windows(2).all(|w| w[0].at < w[1].at),
                "boundaries not strictly increasing for {flavor:?}"
            );
            assert!(
                profile.ends.windows(2).all(|w| w[0].0 < w[1].0),
                "end candidates not strictly increasing for {flavor:?}"
            );
            let mut level = 0i64;
            for seg in &profile.segs {
                assert_ne!(seg.delta, 0, "zero-delta boundary at {:?}", seg.at);
                level += seg.delta;
                assert_eq!(seg.level, level, "stale cached level at {:?}", seg.at);
            }
            assert_eq!(level, 0, "profile does not return to 0 for {flavor:?}");
            let mut deltas: BTreeMap<SimTime, i64> = BTreeMap::new();
            let mut ends: BTreeMap<SimTime, u32> = BTreeMap::new();
            for (index, l) in state.archive.iter().enumerate() {
                let slot = self.slot(l.id).expect("archived lease has a slot");
                assert_eq!((slot.flavor, slot.index), (flavor, index), "{:?}", l.id);
                *ends.entry(l.end).or_insert(0) += 1;
                if l.start < l.end && l.count > 0 {
                    *deltas.entry(l.start).or_insert(0) += i64::from(l.count);
                    *deltas.entry(l.end).or_insert(0) -= i64::from(l.count);
                }
            }
            archived += state.archive.len();
            deltas.retain(|_, d| *d != 0);
            let got: BTreeMap<SimTime, i64> =
                profile.segs.iter().map(|s| (s.at, s.delta)).collect();
            assert_eq!(got, deltas, "profile deltas diverge from archive");
            let got: BTreeMap<SimTime, u32> = profile.ends.iter().copied().collect();
            assert_eq!(got, ends, "end candidates diverge from archive");
        }
        assert_eq!(archived, self.slots.len(), "issued ids != archived leases");
    }
}

/// The pre-sweep-line calendar, with ordered maps in place of its hash
/// maps and otherwise verbatim: `peak_reserved` re-scans every
/// lease ever admitted (`O(L²)` per query) and `earliest_slot` tries
/// every lease end against full rescans (`O(L³)`).
///
/// Kept as the differential reference for the sweep-line rewrite: the
/// proptest in `crates/testbed/tests/calendar_differential.rs` drives
/// arbitrary operation sequences through both and demands identical
/// decisions, errors, and slot choices, and `bench_calendar` measures
/// the speedup. Not for production use.
#[doc(hidden)]
pub mod naive {
    use super::{Lease, LeaseId};
    use crate::error::CloudError;
    use crate::flavor::FlavorId;
    use opml_simkernel::SimTime;
    use std::collections::BTreeMap;

    /// Naive reference calendar (see module docs).
    #[derive(Debug, Default)]
    pub struct NaiveCalendar {
        capacity: BTreeMap<FlavorId, u32>,
        leases: BTreeMap<FlavorId, Vec<Lease>>,
        revoked: Vec<LeaseId>,
        next_id: u64,
    }

    impl NaiveCalendar {
        /// Empty calendar.
        pub fn new() -> Self {
            Self::default()
        }

        /// Register (or update) the number of nodes for a flavor.
        pub fn set_capacity(&mut self, flavor: FlavorId, nodes: u32) {
            self.capacity.insert(flavor, nodes);
        }

        /// Node count for a flavor (0 if unregistered).
        pub fn capacity(&self, flavor: FlavorId) -> u32 {
            self.capacity.get(&flavor).copied().unwrap_or(0)
        }

        /// Peak reserved nodes over `[start, end)` by full re-scan.
        pub fn peak_reserved(&self, flavor: FlavorId, start: SimTime, end: SimTime) -> u32 {
            let Some(leases) = self.leases.get(&flavor) else {
                return 0;
            };
            let mut points: Vec<SimTime> = vec![start];
            for l in leases {
                if l.end > start && l.start < end {
                    points.push(l.start.max(start));
                }
            }
            points
                .iter()
                .map(|&p| {
                    leases
                        .iter()
                        .filter(|l| l.start <= p && p < l.end)
                        .map(|l| l.count)
                        .sum()
                })
                .max()
                .unwrap_or(0)
        }

        /// Try to admit a reservation.
        pub fn reserve(
            &mut self,
            flavor: FlavorId,
            count: u32,
            start: SimTime,
            end: SimTime,
        ) -> Result<Lease, CloudError> {
            if end <= start {
                return Err(CloudError::InvalidLeaseWindow);
            }
            let cap = self.capacity(flavor);
            if count > cap {
                return Err(CloudError::NoCapacity {
                    flavor,
                    capacity: cap,
                });
            }
            if self.peak_reserved(flavor, start, end) + count > cap {
                return Err(CloudError::NoCapacity {
                    flavor,
                    capacity: cap,
                });
            }
            let id = LeaseId(self.next_id);
            self.next_id += 1;
            let lease = Lease {
                id,
                flavor,
                count,
                start,
                end,
            };
            self.leases.entry(flavor).or_default().push(lease);
            Ok(lease)
        }

        /// Earliest admissible start ≥ `earliest` by candidate re-scan.
        pub fn earliest_slot(
            &self,
            flavor: FlavorId,
            count: u32,
            length: opml_simkernel::SimDuration,
            earliest: SimTime,
        ) -> Option<SimTime> {
            let cap = self.capacity(flavor);
            if count > cap {
                return None;
            }
            let mut candidates = vec![earliest];
            if let Some(leases) = self.leases.get(&flavor) {
                for l in leases {
                    if l.end > earliest {
                        candidates.push(l.end);
                    }
                }
            }
            candidates.sort_unstable();
            candidates
                .into_iter()
                .find(|&s| self.peak_reserved(flavor, s, s + length) + count <= cap)
        }

        /// Revoke an admitted lease at `at` by linear scan.
        pub fn revoke(&mut self, id: LeaseId, at: SimTime) -> Result<(), CloudError> {
            if self.is_revoked(id) {
                return Err(CloudError::LeaseRevoked);
            }
            let lease = self
                .leases
                .values_mut()
                .flatten()
                .find(|l| l.id == id)
                .ok_or(CloudError::NoSuchLease)?;
            if lease.end <= at {
                return Err(CloudError::OutsideLease);
            }
            lease.end = at.max(lease.start);
            self.revoked.push(id);
            Ok(())
        }

        /// Whether a lease has been revoked.
        pub fn is_revoked(&self, id: LeaseId) -> bool {
            self.revoked.contains(&id)
        }

        /// Look up an admitted lease by linear scan.
        pub fn get(&self, id: LeaseId) -> Option<&Lease> {
            self.leases.values().flatten().find(|l| l.id == id)
        }

        /// All leases ever admitted for `flavor`, in admission order.
        pub fn leases_for(&self, flavor: FlavorId) -> &[Lease] {
            self.leases.get(&flavor).map(Vec::as_slice).unwrap_or(&[])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opml_simkernel::SimDuration;

    fn t(h: u64) -> SimTime {
        SimTime::at(0, 0, h, 0)
    }

    #[test]
    fn reserve_within_capacity() {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::GpuA100Pcie, 2);
        cal.reserve(FlavorId::GpuA100Pcie, 1, t(0), t(3)).unwrap();
        cal.reserve(FlavorId::GpuA100Pcie, 1, t(1), t(4)).unwrap();
        // Both nodes busy in [1,3): a third overlapping lease is refused.
        let err = cal
            .reserve(FlavorId::GpuA100Pcie, 1, t(2), t(5))
            .unwrap_err();
        assert!(matches!(err, CloudError::NoCapacity { .. }));
        // Back-to-back is fine (end is exclusive).
        cal.reserve(FlavorId::GpuA100Pcie, 2, t(4), t(6)).unwrap();
        cal.debug_assert_invariants();
    }

    #[test]
    fn unregistered_flavor_has_no_capacity() {
        let mut cal = ReservationCalendar::new();
        let err = cal.reserve(FlavorId::GpuV100, 1, t(0), t(1)).unwrap_err();
        assert_eq!(
            err,
            CloudError::NoCapacity {
                flavor: FlavorId::GpuV100,
                capacity: 0
            }
        );
    }

    #[test]
    fn invalid_window_rejected() {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::GpuV100, 1);
        assert_eq!(
            cal.reserve(FlavorId::GpuV100, 1, t(5), t(5)).unwrap_err(),
            CloudError::InvalidLeaseWindow
        );
    }

    #[test]
    fn peak_reserved_counts_overlap() {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::GpuP100, 4);
        cal.reserve(FlavorId::GpuP100, 2, t(0), t(2)).unwrap();
        cal.reserve(FlavorId::GpuP100, 1, t(1), t(3)).unwrap();
        assert_eq!(cal.peak_reserved(FlavorId::GpuP100, t(0), t(4)), 3);
        assert_eq!(cal.peak_reserved(FlavorId::GpuP100, t(2), t(4)), 1);
        assert_eq!(cal.peak_reserved(FlavorId::GpuP100, t(3), t(4)), 0);
        cal.debug_assert_invariants();
    }

    #[test]
    fn earliest_slot_skips_busy_windows() {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::ComputeGigaio, 1);
        cal.reserve(FlavorId::ComputeGigaio, 1, t(0), t(5)).unwrap();
        let slot = cal
            .earliest_slot(FlavorId::ComputeGigaio, 1, SimDuration::hours(2), t(1))
            .unwrap();
        assert_eq!(slot, t(5));
        // With capacity 2 the requested time itself is free.
        cal.set_capacity(FlavorId::ComputeGigaio, 2);
        let slot2 = cal
            .earliest_slot(FlavorId::ComputeGigaio, 1, SimDuration::hours(2), t(1))
            .unwrap();
        assert_eq!(slot2, t(1));
    }

    #[test]
    fn earliest_slot_none_when_over_capacity() {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::ComputeLiqid, 3);
        assert!(cal
            .earliest_slot(FlavorId::ComputeLiqid, 4, SimDuration::hours(1), t(0))
            .is_none());
    }

    #[test]
    fn earliest_slot_without_any_lease_is_immediate() {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::GpuMi100, 2);
        assert_eq!(
            cal.earliest_slot(FlavorId::GpuMi100, 2, SimDuration::hours(3), t(7)),
            Some(t(7))
        );
    }

    #[test]
    fn revoke_truncates_and_frees_capacity() {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::GpuV100, 1);
        let lease = cal.reserve(FlavorId::GpuV100, 1, t(0), t(10)).unwrap();
        // Node busy all decade: nobody else fits.
        assert!(cal.reserve(FlavorId::GpuV100, 1, t(4), t(6)).is_err());
        cal.revoke(lease.id, t(3)).unwrap();
        cal.debug_assert_invariants();
        assert!(cal.is_revoked(lease.id));
        assert!(!cal.get(lease.id).unwrap().covers(t(5)));
        // Window truncated at t(3): the slot is free again.
        cal.reserve(FlavorId::GpuV100, 1, t(4), t(6)).unwrap();
        // Double revocation and unknown ids are typed errors.
        assert_eq!(cal.revoke(lease.id, t(4)), Err(CloudError::LeaseRevoked));
        assert_eq!(cal.revoke(LeaseId(999), t(4)), Err(CloudError::NoSuchLease));
        cal.debug_assert_invariants();
    }

    #[test]
    fn revoke_after_end_is_refused() {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::GpuP100, 1);
        let lease = cal.reserve(FlavorId::GpuP100, 1, t(0), t(2)).unwrap();
        assert_eq!(cal.revoke(lease.id, t(2)), Err(CloudError::OutsideLease));
    }

    #[test]
    fn revoke_before_start_cancels_whole_window() {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::GpuV100, 1);
        let lease = cal.reserve(FlavorId::GpuV100, 1, t(5), t(9)).unwrap();
        cal.revoke(lease.id, t(2)).unwrap();
        cal.debug_assert_invariants();
        // The window collapsed to zero length at its start; the whole
        // span is free again and the truncated end is still a candidate.
        assert_eq!(cal.get(lease.id).unwrap().end, t(5));
        assert_eq!(cal.peak_reserved(FlavorId::GpuV100, t(0), t(12)), 0);
        assert_eq!(
            cal.earliest_slot(FlavorId::GpuV100, 1, SimDuration::hours(2), t(4)),
            Some(t(4))
        );
    }

    #[test]
    fn lease_covers() {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::RaspberryPi5, 7);
        let lease = cal.reserve(FlavorId::RaspberryPi5, 1, t(2), t(4)).unwrap();
        assert!(!lease.covers(t(1)));
        assert!(lease.covers(t(2)));
        assert!(lease.covers(t(3)));
        assert!(!lease.covers(t(4)));
    }

    #[test]
    fn profile_boundaries_merge_on_adjacent_leases() {
        let mut cal = ReservationCalendar::new();
        cal.set_capacity(FlavorId::GpuP100, 2);
        // Back-to-back equal-count leases: the shared boundary's delta
        // cancels and the profile stores a single [0, 4) plateau.
        cal.reserve(FlavorId::GpuP100, 2, t(0), t(2)).unwrap();
        cal.reserve(FlavorId::GpuP100, 2, t(2), t(4)).unwrap();
        cal.debug_assert_invariants();
        let profile = &cal.state(FlavorId::GpuP100).unwrap().profile;
        assert_eq!(profile.segs.len(), 2, "shared boundary must merge away");
        assert_eq!(cal.peak_reserved(FlavorId::GpuP100, t(0), t(4)), 2);
        assert_eq!(cal.peak_reserved(FlavorId::GpuP100, t(1), t(3)), 2);
    }

    #[test]
    fn matches_naive_on_a_scripted_sequence() {
        let flavor = FlavorId::GpuA100Pcie;
        let mut fast = ReservationCalendar::new();
        let mut slow = naive::NaiveCalendar::new();
        fast.set_capacity(flavor, 3);
        slow.set_capacity(flavor, 3);
        let script: [(u32, u64, u64); 7] = [
            (1, 0, 3),
            (2, 1, 4),
            (1, 2, 5),
            (3, 4, 6),
            (1, 3, 4),
            (2, 6, 8),
            (1, 0, 10),
        ];
        let mut ids = Vec::new();
        for (count, s, e) in script {
            let a = fast.reserve(flavor, count, t(s), t(e));
            let b = slow.reserve(flavor, count, t(s), t(e));
            assert_eq!(a.is_ok(), b.is_ok(), "admission diverged at {s}..{e}");
            assert_eq!(a.clone().err(), b.err());
            if let Ok(l) = a {
                ids.push(l.id);
            }
        }
        assert_eq!(fast.revoke(ids[1], t(2)), slow.revoke(ids[1], t(2)));
        for (s, e) in [(0, 10), (1, 2), (3, 7), (9, 12)] {
            assert_eq!(
                fast.peak_reserved(flavor, t(s), t(e)),
                slow.peak_reserved(flavor, t(s), t(e)),
                "peak diverged on {s}..{e}"
            );
        }
        for from in 0..10 {
            assert_eq!(
                fast.earliest_slot(flavor, 2, SimDuration::hours(2), t(from)),
                slow.earliest_slot(flavor, 2, SimDuration::hours(2), t(from)),
                "slot choice diverged from t({from})"
            );
        }
        fast.debug_assert_invariants();
    }

    /// Regression found by `tests/calendar_differential.rs`: an empty
    /// query window (`end <= start`) panicked the sweep-line range-max,
    /// while the naive scan answers with the occupancy at `start`.
    #[test]
    fn peak_over_empty_window_samples_the_instant() {
        let flavor = FlavorId::GpuV100;
        let mut fast = ReservationCalendar::new();
        let mut slow = naive::NaiveCalendar::new();
        fast.set_capacity(flavor, 4);
        slow.set_capacity(flavor, 4);
        fast.reserve(flavor, 3, t(1), t(5)).unwrap();
        slow.reserve(flavor, 3, t(1), t(5)).unwrap();
        for (s, e) in [(2, 2), (5, 2), (0, 0), (5, 5), (9, 9)] {
            assert_eq!(
                fast.peak_reserved(flavor, t(s), t(e)),
                slow.peak_reserved(flavor, t(s), t(e)),
                "empty-window peak diverged on {s}..{e}"
            );
        }
        assert_eq!(fast.peak_reserved(flavor, t(2), t(2)), 3);
        assert_eq!(fast.peak_reserved(flavor, t(5), t(5)), 0);
    }
}
