//! The cloud facade: one object that owns the clock, quota, reservation
//! calendar, live resources, and the usage ledger.
//!
//! Semantics follow §4–§5 of the paper:
//!
//! * VM instances are created on demand against the project quota and run
//!   **until explicitly deleted** (or until [`Cloud::finalize`] closes the
//!   books at semester end).
//! * Bare-metal and edge instances can only be created inside an admitted
//!   lease window and are **auto-terminated** when the simulation clock
//!   passes the lease end.
//! * Floating IPs, private networks, volumes, and buckets are tracked and
//!   metered the same way.

use crate::error::CloudError;
use crate::flavor::{FlavorId, SiteKind};
use crate::instance::{Instance, InstanceId, InstanceState};
use crate::lease::{Lease, LeaseId, ReservationCalendar};
use crate::ledger::{Ledger, UsageKind, UsageRecord};
use crate::network::{FloatingIp, FloatingIpId, NetworkId, PrivateNetwork};
use crate::quota::{Quota, QuotaUsage};
use crate::storage::{Bucket, Volume, VolumeId, VolumeState};
use opml_simkernel::{det_hash_map, DetHashMap};
use opml_simkernel::{EventQueue, SimDuration, SimTime};
use opml_telemetry::Telemetry;

/// The simulated research cloud.
#[derive(Debug)]
pub struct Cloud {
    now: SimTime,
    quota: Quota,
    usage: QuotaUsage,
    calendar: ReservationCalendar,
    instances: DetHashMap<InstanceId, Instance>,
    fips: DetHashMap<FloatingIpId, FloatingIp>,
    networks: DetHashMap<NetworkId, PrivateNetwork>,
    volumes: DetHashMap<VolumeId, Volume>,
    buckets: DetHashMap<String, Bucket>,
    lease_instances: DetHashMap<LeaseId, Vec<InstanceId>>,
    lease_ends: EventQueue<LeaseId>,
    ledger: Ledger,
    next_id: u64,
    telemetry: Telemetry,
}

impl Cloud {
    /// A cloud with the given project quota and an empty bare-metal
    /// calendar (register node counts with [`Cloud::set_node_capacity`]).
    pub fn new(quota: Quota) -> Self {
        Cloud {
            now: SimTime::ZERO,
            quota,
            usage: QuotaUsage::default(),
            calendar: ReservationCalendar::new(),
            instances: det_hash_map(),
            fips: det_hash_map(),
            networks: det_hash_map(),
            volumes: det_hash_map(),
            buckets: det_hash_map(),
            lease_instances: det_hash_map(),
            lease_ends: EventQueue::new(),
            ledger: Ledger::new(),
            next_id: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle (builder style). The cloud emits
    /// `instance.launch`/`instance.terminate`, `lease.accept`/`lease.deny`
    /// and `quota.deny` events plus the `cloud.*` counters through it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Pre-size the usage ledger (builder style). Callers that know the
    /// expected record volume — the shard driver derives one from the
    /// shard's student count — use this so the close-record hot loop
    /// never grows the ledger mid-run.
    pub fn with_ledger_capacity(mut self, capacity: usize) -> Self {
        self.ledger = Ledger::with_capacity(capacity);
        self
    }

    /// A cloud configured like the paper's course: the §4 KVM\@TACC quota
    /// plus representative bare-metal/edge node counts (GPU nodes are
    /// scarce — that is why staff pre-reserved week-long blocks).
    pub fn paper_course() -> Self {
        let mut cloud = Cloud::new(Quota::paper_course());
        cloud.set_node_capacity(FlavorId::GpuA100Pcie, 4);
        cloud.set_node_capacity(FlavorId::GpuV100, 6);
        cloud.set_node_capacity(FlavorId::ComputeGigaio, 8);
        cloud.set_node_capacity(FlavorId::ComputeLiqid, 8);
        cloud.set_node_capacity(FlavorId::ComputeLiqid2, 4);
        cloud.set_node_capacity(FlavorId::GpuMi100, 8);
        cloud.set_node_capacity(FlavorId::GpuP100, 8);
        cloud.set_node_capacity(FlavorId::RaspberryPi5, 7); // §4: 7 devices
        cloud.set_node_capacity(FlavorId::ComputeCascadeLake, 12);
        cloud
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Register the number of physical nodes backing a leased flavor.
    pub fn set_node_capacity(&mut self, flavor: FlavorId, nodes: u32) {
        self.calendar.set_capacity(flavor, nodes);
    }

    /// Advance the clock, auto-terminating instances whose lease expired.
    pub fn advance_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        while let Some(end_time) = self.lease_ends.peek_time() {
            if end_time > t {
                break;
            }
            // detlint::allow(DL008): guarded by the peek in the loop condition
            let (end_time, lease_id) = self.lease_ends.pop().expect("peeked");
            // `None` is legitimate here — the lease was admitted but never
            // provisioned against, or was revoked early (revoke_lease
            // already drained its instances). Anything else is a bug.
            let ids = self.lease_instances.remove(&lease_id).unwrap_or_default();
            for id in ids {
                if self.instances.get(&id).is_some_and(Instance::is_active) {
                    self.close_instance(id, end_time, InstanceState::AutoTerminated);
                }
            }
        }
        self.now = t;
    }

    /// Advance the clock by a span.
    pub fn advance(&mut self, d: SimDuration) {
        self.advance_to(self.now + d);
    }

    // ---------------------------------------------------------- instances

    /// Create an on-demand VM instance. Fails for leased flavors.
    pub fn create_instance(
        &mut self,
        name: &str,
        flavor: FlavorId,
    ) -> Result<InstanceId, CloudError> {
        if flavor.requires_lease() {
            return Err(CloudError::LeaseRequired(flavor));
        }
        let spec = flavor.spec();
        if let Err(e) = self
            .usage
            .take_instance(&self.quota, spec.vcpus as u64, spec.ram_gb as u64)
        {
            self.quota_deny("instance", name);
            return Err(e);
        }
        let id = InstanceId(self.fresh_id());
        self.instances.insert(
            id,
            Instance {
                id,
                name: name.to_string(),
                flavor,
                created: self.now,
                deleted: None,
                state: InstanceState::Active,
                lease: None,
            },
        );
        self.note_launch(name, flavor, false);
        Ok(id)
    }

    /// Read-only headroom probe: would one more instance of `flavor`
    /// fit the project quota right now? Consumes nothing and emits no
    /// `quota.deny` telemetry (it is a check, not a denied request).
    pub fn quota_check(&self, flavor: FlavorId) -> Result<(), CloudError> {
        if flavor.requires_lease() {
            return Err(CloudError::LeaseRequired(flavor));
        }
        let spec = flavor.spec();
        self.usage
            .can_take_instance(&self.quota, spec.vcpus as u64, spec.ram_gb as u64)
    }

    /// Create a bare-metal/edge instance inside an admitted lease.
    pub fn create_leased_instance(
        &mut self,
        name: &str,
        lease_id: LeaseId,
    ) -> Result<InstanceId, CloudError> {
        if self.calendar.is_revoked(lease_id) {
            return Err(CloudError::LeaseRevoked);
        }
        let lease = self.calendar.get(lease_id).ok_or(CloudError::NoSuchLease)?;
        if !lease.covers(self.now) {
            return Err(CloudError::OutsideLease);
        }
        let flavor = lease.flavor;
        let id = InstanceId(self.fresh_id());
        self.instances.insert(
            id,
            Instance {
                id,
                name: name.to_string(),
                flavor,
                created: self.now,
                deleted: None,
                state: InstanceState::Active,
                lease: Some(lease_id),
            },
        );
        self.lease_instances.entry(lease_id).or_default().push(id);
        self.note_launch(name, flavor, true);
        Ok(id)
    }

    fn note_launch(&self, name: &str, flavor: FlavorId, leased: bool) {
        self.telemetry.instant(self.now, "instance.launch", || {
            vec![
                ("name", name.to_string().into()),
                ("flavor", flavor.name().into()),
                ("leased", leased.into()),
            ]
        });
        self.telemetry.counter_add("cloud.instances_launched", 1);
    }

    fn quota_deny(&self, resource: &'static str, name: &str) {
        self.telemetry.instant(self.now, "quota.deny", || {
            vec![
                ("resource", resource.into()),
                ("name", name.to_string().into()),
            ]
        });
        self.telemetry.counter_add("cloud.quota_denials", 1);
    }

    /// Delete an instance now.
    pub fn delete_instance(&mut self, id: InstanceId) -> Result<(), CloudError> {
        match self.instances.get(&id) {
            None => Err(CloudError::NoSuchInstance),
            Some(inst) if !inst.is_active() => Err(CloudError::AlreadyDeleted),
            Some(_) => {
                self.close_instance(id, self.now, InstanceState::Deleted);
                Ok(())
            }
        }
    }

    fn close_instance(&mut self, id: InstanceId, at: SimTime, state: InstanceState) {
        let inst = self
            .instances
            .get_mut(&id)
            // detlint::allow(DL008): callers pass ids taken from self.instances
            .expect("close_instance: unknown id");
        inst.deleted = Some(at);
        inst.state = state;
        let spec = inst.flavor.spec();
        if spec.site == SiteKind::Vm {
            self.usage
                .release_instance(spec.vcpus as u64, spec.ram_gb as u64);
        }
        self.ledger.push(UsageRecord {
            name: inst.name.clone(),
            kind: UsageKind::Instance {
                flavor: inst.flavor,
                auto_terminated: state == InstanceState::AutoTerminated,
            },
            start: inst.created,
            end: at,
        });
        let (flavor, created) = (inst.flavor, inst.created);
        let auto = state == InstanceState::AutoTerminated;
        // The closure runs only when telemetry is on, so the name is
        // cloned only then.
        let name = &inst.name;
        self.telemetry.instant(at, "instance.terminate", || {
            vec![
                ("name", name.clone().into()),
                ("flavor", flavor.name().into()),
                ("auto_terminated", auto.into()),
                ("lifetime_min", at.since(created).0.into()),
            ]
        });
        self.telemetry
            .observe("instance.lifetime", at.since(created));
        if auto {
            self.telemetry.counter_add("cloud.auto_terminations", 1);
        }
    }

    /// Kill a running instance mid-flight (hardware failure or injected
    /// fault). The instance stops metering now; whatever workload it ran
    /// is the caller's problem to relaunch.
    pub fn crash_instance(&mut self, id: InstanceId) -> Result<(), CloudError> {
        match self.instances.get(&id) {
            None => Err(CloudError::NoSuchInstance),
            Some(inst) if !inst.is_active() => Err(CloudError::AlreadyDeleted),
            Some(inst) => {
                let name = inst.name.clone();
                let flavor = inst.flavor;
                self.telemetry.instant(self.now, "instance.crash", || {
                    vec![("name", name.into()), ("flavor", flavor.name().into())]
                });
                self.telemetry.counter_add("cloud.crashes", 1);
                self.close_instance(id, self.now, InstanceState::Crashed);
                Ok(())
            }
        }
    }

    /// Look up an instance.
    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.get(&id)
    }

    /// Number of currently active instances.
    pub fn active_instances(&self) -> usize {
        self.instances.values().filter(|i| i.is_active()).count()
    }

    // ------------------------------------------------------------- leases

    /// Request an advance reservation.
    pub fn reserve(
        &mut self,
        flavor: FlavorId,
        count: u32,
        start: SimTime,
        end: SimTime,
        owner: &str,
    ) -> Result<Lease, CloudError> {
        // VM flavors may be reserved too: Chameleon later added VM
        // reservations, the ablation experiment reserves VM flavors, and
        // VMs created under the lease auto-terminate.
        match self.calendar.reserve(flavor, count, start, end) {
            Ok(lease) => {
                self.lease_ends.push(lease.end, lease.id);
                self.telemetry.instant(self.now, "lease.accept", || {
                    vec![
                        ("owner", owner.to_string().into()),
                        ("flavor", flavor.name().into()),
                        ("count", count.into()),
                        ("start_min", start.0.into()),
                        ("end_min", end.0.into()),
                    ]
                });
                self.telemetry.counter_add("cloud.leases_accepted", 1);
                Ok(lease)
            }
            Err(e) => {
                self.telemetry.instant(self.now, "lease.deny", || {
                    vec![
                        ("owner", owner.to_string().into()),
                        ("flavor", flavor.name().into()),
                        ("count", count.into()),
                        ("start_min", start.0.into()),
                    ]
                });
                self.telemetry.counter_add("cloud.lease_denials", 1);
                Err(e)
            }
        }
    }

    /// Revoke an admitted lease now: its window is truncated in the
    /// calendar (freeing the nodes for rebooking) and any instances
    /// running under it are auto-terminated immediately. Returns the ids
    /// of the instances that were terminated.
    pub fn revoke_lease(&mut self, lease_id: LeaseId) -> Result<Vec<InstanceId>, CloudError> {
        self.calendar.revoke(lease_id, self.now)?;
        // `None` just means nothing was provisioned against the lease yet.
        let ids = self.lease_instances.remove(&lease_id).unwrap_or_default();
        let mut terminated = Vec::new();
        for id in ids {
            if self.instances.get(&id).is_some_and(Instance::is_active) {
                self.close_instance(id, self.now, InstanceState::AutoTerminated);
                terminated.push(id);
            }
        }
        self.telemetry.instant(self.now, "lease.revoke", || {
            vec![
                ("lease", lease_id.0.into()),
                ("terminated", (terminated.len() as u64).into()),
            ]
        });
        self.telemetry.counter_add("cloud.lease_revocations", 1);
        Ok(terminated)
    }

    /// Earliest admissible slot for a reservation (student "next free slot"
    /// workflow).
    pub fn earliest_slot(
        &self,
        flavor: FlavorId,
        count: u32,
        length: SimDuration,
        earliest: SimTime,
    ) -> Option<SimTime> {
        self.calendar.earliest_slot(flavor, count, length, earliest)
    }

    /// Reservation calendar (read access for capacity planning).
    pub fn calendar(&self) -> &ReservationCalendar {
        &self.calendar
    }

    // ----------------------------------------------------------- networks

    /// Allocate a floating IP (counts against quota; metered on release).
    pub fn allocate_fip(&mut self, name: &str) -> Result<FloatingIpId, CloudError> {
        if let Err(e) = self.usage.take_fip(&self.quota) {
            self.quota_deny("floating_ip", name);
            return Err(e);
        }
        let id = FloatingIpId(self.fresh_id());
        self.fips.insert(
            id,
            FloatingIp {
                id,
                name: name.to_string(),
                allocated: self.now,
                released: None,
            },
        );
        Ok(id)
    }

    /// Release a floating IP now.
    pub fn release_fip(&mut self, id: FloatingIpId) -> Result<(), CloudError> {
        let fip = self.fips.get_mut(&id).ok_or(CloudError::NoSuchFip)?;
        if fip.released.is_some() {
            return Err(CloudError::AlreadyDeleted);
        }
        fip.released = Some(self.now);
        self.usage.release_fip();
        self.ledger.push(UsageRecord {
            name: fip.name.clone(),
            kind: UsageKind::FloatingIp,
            start: fip.allocated,
            end: self.now,
        });
        Ok(())
    }

    /// Create a private network + router pair.
    pub fn create_network(&mut self, name: &str) -> Result<NetworkId, CloudError> {
        if let Err(e) = self.usage.take_network(&self.quota) {
            self.quota_deny("network", name);
            return Err(e);
        }
        if let Err(e) = self.usage.take_router(&self.quota) {
            self.usage.release_network();
            self.quota_deny("router", name);
            return Err(e);
        }
        let id = NetworkId(self.fresh_id());
        self.networks.insert(
            id,
            PrivateNetwork {
                id,
                name: name.to_string(),
                created: self.now,
                deleted: None,
            },
        );
        Ok(id)
    }

    /// Delete a private network + its router.
    pub fn delete_network(&mut self, id: NetworkId) -> Result<(), CloudError> {
        let net = self
            .networks
            .get_mut(&id)
            .ok_or(CloudError::NoSuchNetwork)?;
        if net.deleted.is_some() {
            return Err(CloudError::AlreadyDeleted);
        }
        net.deleted = Some(self.now);
        self.usage.release_network();
        self.usage.release_router();
        Ok(())
    }

    // ------------------------------------------------------------ storage

    /// Create a block volume.
    pub fn create_volume(&mut self, name: &str, size_gb: u64) -> Result<VolumeId, CloudError> {
        if let Err(e) = self.usage.take_volume(&self.quota, size_gb) {
            self.quota_deny("volume", name);
            return Err(e);
        }
        let id = VolumeId(self.fresh_id());
        self.volumes.insert(
            id,
            Volume {
                id,
                name: name.to_string(),
                size_gb,
                created: self.now,
                deleted: None,
                state: VolumeState::Available,
                attached_to: None,
                formatted: false,
            },
        );
        Ok(id)
    }

    /// Attach a volume to an instance.
    pub fn attach_volume(&mut self, vol: VolumeId, inst: InstanceId) -> Result<(), CloudError> {
        if !self.instances.get(&inst).is_some_and(Instance::is_active) {
            return Err(CloudError::NoSuchInstance);
        }
        let v = self.volumes.get_mut(&vol).ok_or(CloudError::NoSuchVolume)?;
        if v.state == VolumeState::Deleted {
            return Err(CloudError::NoSuchVolume);
        }
        if v.state == VolumeState::InUse && v.attached_to != Some(inst) {
            return Err(CloudError::VolumeInUse);
        }
        v.state = VolumeState::InUse;
        v.attached_to = Some(inst);
        Ok(())
    }

    /// Detach a volume (data persists — that is the point of Unit 8).
    pub fn detach_volume(&mut self, vol: VolumeId) -> Result<(), CloudError> {
        let v = self.volumes.get_mut(&vol).ok_or(CloudError::NoSuchVolume)?;
        if v.state != VolumeState::InUse {
            return Err(CloudError::VolumeNotAttached);
        }
        v.state = VolumeState::Available;
        v.attached_to = None;
        Ok(())
    }

    /// Format a volume (must be attached).
    pub fn format_volume(&mut self, vol: VolumeId) -> Result<(), CloudError> {
        let v = self.volumes.get_mut(&vol).ok_or(CloudError::NoSuchVolume)?;
        if v.state != VolumeState::InUse {
            return Err(CloudError::VolumeInUse);
        }
        v.formatted = true;
        Ok(())
    }

    /// Delete a volume; refused while attached.
    pub fn delete_volume(&mut self, vol: VolumeId) -> Result<(), CloudError> {
        let v = self.volumes.get_mut(&vol).ok_or(CloudError::NoSuchVolume)?;
        if v.state == VolumeState::InUse {
            return Err(CloudError::VolumeInUse);
        }
        if v.state == VolumeState::Deleted {
            return Err(CloudError::AlreadyDeleted);
        }
        v.state = VolumeState::Deleted;
        v.deleted = Some(self.now);
        self.usage.release_volume(v.size_gb);
        self.ledger.push(UsageRecord {
            name: v.name.clone(),
            kind: UsageKind::Volume { size_gb: v.size_gb },
            start: v.created,
            end: self.now,
        });
        Ok(())
    }

    /// Create (or get) an object-store bucket.
    pub fn bucket(&mut self, name: &str) -> &mut Bucket {
        let now = self.now;
        self.buckets
            .entry(name.to_string())
            .or_insert_with(|| Bucket {
                name: name.to_string(),
                stored_gb: 0.0,
                created: now,
                object_count: 0,
            })
    }

    // ----------------------------------------------------------- closing

    /// Close the books: advance to `end`, auto-terminate expired leases,
    /// close every still-open instance/FIP/volume record at `end`, and emit
    /// one object-storage record per bucket.
    pub fn finalize(&mut self, end: SimTime) {
        self.advance_to(end);
        // Close in id order: closing appends ledger records, so the order
        // must not follow hash-map iteration (DL002).
        let mut open: Vec<InstanceId> = self
            .instances
            .values()
            .filter(|i| i.is_active())
            .map(|i| i.id)
            .collect();
        open.sort_unstable();
        for id in open {
            self.close_instance(id, end, InstanceState::Deleted);
        }
        let mut open_fips: Vec<FloatingIpId> = self
            .fips
            .values()
            .filter(|f| f.is_held())
            .map(|f| f.id)
            .collect();
        open_fips.sort_unstable();
        for id in open_fips {
            // detlint::allow(DL008): `id` came from self.fips and is held, so release succeeds
            self.release_fip(id).expect("open fip must release");
        }
        let mut open_vols: Vec<VolumeId> = self
            .volumes
            .values()
            .filter(|v| v.state != VolumeState::Deleted)
            .map(|v| v.id)
            .collect();
        open_vols.sort_unstable();
        for id in open_vols {
            let _ = self.detach_volume(id);
            // detlint::allow(DL008): `id` came from self.volumes and was just detached
            self.delete_volume(id).expect("open volume must delete");
        }
        let mut bucket_names: Vec<String> = self.buckets.keys().cloned().collect();
        bucket_names.sort_unstable();
        for name in bucket_names {
            // detlint::allow(DL008): `name` came from self.buckets.keys()
            let b = &self.buckets[&name];
            self.ledger.push(UsageRecord {
                name: b.name.clone(),
                kind: UsageKind::ObjectStorage { gb: b.stored_gb },
                start: b.created,
                end,
            });
        }
        self.buckets.clear();
    }

    /// The usage ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Take the ledger out of the cloud (after [`Cloud::finalize`]).
    pub fn into_ledger(self) -> Ledger {
        self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(h: u64) -> SimTime {
        SimTime(h * 60)
    }

    #[test]
    fn vm_lifecycle_and_metering() {
        let mut cloud = Cloud::new(Quota::unlimited());
        let id = cloud
            .create_instance("lab1-alice", FlavorId::M1Small)
            .unwrap();
        cloud.advance(SimDuration::hours(3));
        cloud.delete_instance(id).unwrap();
        assert_eq!(cloud.ledger().instance_hours(None), 3.0);
        assert_eq!(cloud.active_instances(), 0);
    }

    #[test]
    fn vm_runs_until_finalize_if_neglected() {
        // The core mechanism of the paper's long tail.
        let mut cloud = Cloud::new(Quota::unlimited());
        cloud
            .create_instance("lab2-forgetful", FlavorId::M1Medium)
            .unwrap();
        cloud.finalize(t(500));
        assert_eq!(cloud.ledger().instance_hours(None), 500.0);
    }

    #[test]
    fn bare_metal_requires_lease() {
        let mut cloud = Cloud::paper_course();
        let err = cloud
            .create_instance("lab4-x", FlavorId::GpuA100Pcie)
            .unwrap_err();
        assert_eq!(err, CloudError::LeaseRequired(FlavorId::GpuA100Pcie));
    }

    #[test]
    fn leased_instance_auto_terminates() {
        let mut cloud = Cloud::paper_course();
        let lease = cloud
            .reserve(FlavorId::GpuA100Pcie, 1, t(0), t(3), "lab4-alice")
            .unwrap();
        let id = cloud
            .create_leased_instance("lab4-alice", lease.id)
            .unwrap();
        // Student walks away; the lease ends at hour 3 and the node is
        // reclaimed even though the clock advances to hour 10.
        cloud.advance_to(t(10));
        let inst = cloud.instance(id).unwrap();
        assert_eq!(inst.state, InstanceState::AutoTerminated);
        assert_eq!(
            cloud.ledger().instance_hours(Some(FlavorId::GpuA100Pcie)),
            3.0
        );
    }

    #[test]
    fn cannot_provision_outside_lease() {
        let mut cloud = Cloud::paper_course();
        let lease = cloud
            .reserve(FlavorId::GpuV100, 1, t(5), t(8), "lab4-bob")
            .unwrap();
        assert_eq!(
            cloud
                .create_leased_instance("lab4-bob", lease.id)
                .unwrap_err(),
            CloudError::OutsideLease
        );
        cloud.advance_to(t(5));
        cloud.create_leased_instance("lab4-bob", lease.id).unwrap();
    }

    #[test]
    fn quota_blocks_and_releases() {
        let quota = Quota {
            instances: 1,
            ..Quota::unlimited()
        };
        let mut cloud = Cloud::new(quota);
        let a = cloud.create_instance("a", FlavorId::M1Small).unwrap();
        assert!(cloud.create_instance("b", FlavorId::M1Small).is_err());
        cloud.delete_instance(a).unwrap();
        cloud.create_instance("b", FlavorId::M1Small).unwrap();
    }

    #[test]
    fn fip_metering_matches_hold_time() {
        let mut cloud = Cloud::new(Quota::unlimited());
        let fip = cloud.allocate_fip("lab2-carol").unwrap();
        cloud.advance(SimDuration::hours(7));
        cloud.release_fip(fip).unwrap();
        assert_eq!(cloud.ledger().fip_hours(), 7.0);
        assert!(cloud.release_fip(fip).is_err(), "double release refused");
    }

    #[test]
    fn network_router_quota_pairs() {
        let quota = Quota {
            networks: 5,
            routers: 1,
            ..Quota::unlimited()
        };
        let mut cloud = Cloud::new(quota);
        let n = cloud.create_network("net1").unwrap();
        // Router quota (1) is exhausted; network allocation must roll back.
        assert!(cloud.create_network("net2").is_err());
        cloud.delete_network(n).unwrap();
        cloud.create_network("net3").unwrap();
    }

    #[test]
    fn volume_lifecycle_unit8() {
        let mut cloud = Cloud::new(Quota::unlimited());
        let inst = cloud
            .create_instance("lab8-dan", FlavorId::M1Large)
            .unwrap();
        let vol = cloud.create_volume("lab8-dan-vol", 2).unwrap();
        cloud.attach_volume(vol, inst).unwrap();
        cloud.format_volume(vol).unwrap();
        // Deleting while attached is refused.
        assert_eq!(
            cloud.delete_volume(vol).unwrap_err(),
            CloudError::VolumeInUse
        );
        cloud.detach_volume(vol).unwrap();
        cloud.advance(SimDuration::hours(4));
        cloud.delete_volume(vol).unwrap();
        let gb_hours: f64 = cloud
            .ledger()
            .records()
            .iter()
            .filter_map(|r| match r.kind {
                UsageKind::Volume { size_gb } => Some(size_gb as f64 * r.hours()),
                _ => None,
            })
            .sum();
        assert_eq!(gb_hours, 8.0);
    }

    #[test]
    fn bucket_put_and_finalize() {
        let mut cloud = Cloud::new(Quota::unlimited());
        cloud.bucket("food11").put(1000, 1.2);
        cloud.finalize(t(100));
        assert!((cloud.ledger().object_gb() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn finalize_closes_everything() {
        let mut cloud = Cloud::new(Quota::unlimited());
        cloud.create_instance("x", FlavorId::M1Medium).unwrap();
        cloud.allocate_fip("x").unwrap();
        cloud.create_volume("xv", 10).unwrap();
        cloud.finalize(t(10));
        assert_eq!(cloud.active_instances(), 0);
        let l = cloud.ledger();
        assert_eq!(l.instance_hours(None), 10.0);
        assert_eq!(l.fip_hours(), 10.0);
        assert_eq!(l.peak_block_gb(), 10);
    }

    #[test]
    fn telemetry_records_lifecycle_and_denials() {
        let telemetry = Telemetry::recording();
        let quota = Quota {
            instances: 1,
            ..Quota::unlimited()
        };
        let mut cloud = Cloud::new(quota).with_telemetry(telemetry.clone());
        let id = cloud.create_instance("a", FlavorId::M1Small).unwrap();
        assert!(cloud.create_instance("b", FlavorId::M1Small).is_err());
        cloud.advance(SimDuration::hours(2));
        cloud.delete_instance(id).unwrap();

        let names: Vec<String> = telemetry
            .events()
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        assert_eq!(
            names,
            vec!["instance.launch", "quota.deny", "instance.terminate"]
        );
        let metrics = cloud.telemetry.metrics_snapshot();
        assert_eq!(metrics.counters["cloud.instances_launched"], 1);
        assert_eq!(metrics.counters["cloud.quota_denials"], 1);
        assert_eq!(metrics.histograms["instance.lifetime"].sum_minutes, 120);
    }

    #[test]
    fn crash_stops_metering_and_is_typed() {
        let mut cloud = Cloud::new(Quota::unlimited());
        let id = cloud
            .create_instance("lab3-eve", FlavorId::M1Small)
            .unwrap();
        cloud.advance(SimDuration::hours(2));
        cloud.crash_instance(id).unwrap();
        cloud.advance(SimDuration::hours(5));
        assert_eq!(cloud.ledger().instance_hours(None), 2.0);
        assert_eq!(cloud.instance(id).unwrap().state, InstanceState::Crashed);
        assert_eq!(cloud.crash_instance(id), Err(CloudError::AlreadyDeleted));
        assert_eq!(
            cloud.crash_instance(InstanceId(999)),
            Err(CloudError::NoSuchInstance)
        );
        // Quota was released on crash: a replacement fits.
        cloud
            .create_instance("lab3-eve-2", FlavorId::M1Small)
            .unwrap();
    }

    #[test]
    fn revoke_lease_terminates_and_frees_slot() {
        let mut cloud = Cloud::paper_course();
        let lease = cloud
            .reserve(FlavorId::GpuA100Pcie, 4, t(0), t(10), "staff")
            .unwrap();
        let id = cloud.create_leased_instance("lab4-fay", lease.id).unwrap();
        cloud.advance_to(t(2));
        let terminated = cloud.revoke_lease(lease.id).unwrap();
        assert_eq!(terminated, vec![id]);
        assert_eq!(
            cloud.instance(id).unwrap().state,
            InstanceState::AutoTerminated
        );
        assert_eq!(
            cloud.ledger().instance_hours(Some(FlavorId::GpuA100Pcie)),
            2.0
        );
        // Provisioning against the revoked lease is a typed refusal.
        assert_eq!(
            cloud.create_leased_instance("lab4-fay", lease.id),
            Err(CloudError::LeaseRevoked)
        );
        // The nodes are free again for a rebooking.
        cloud
            .reserve(FlavorId::GpuA100Pcie, 4, t(3), t(6), "lab4-fay")
            .unwrap();
        // Passing the original lease end must not double-terminate.
        cloud.advance_to(t(11));
        assert_eq!(
            cloud.ledger().instance_hours(Some(FlavorId::GpuA100Pcie)),
            2.0
        );
    }

    #[test]
    fn typed_errors_on_fip_network_volume_paths() {
        let mut cloud = Cloud::new(Quota::unlimited());
        assert_eq!(
            cloud.release_fip(FloatingIpId(7)),
            Err(CloudError::NoSuchFip)
        );
        assert_eq!(
            cloud.delete_network(NetworkId(7)),
            Err(CloudError::NoSuchNetwork)
        );
        let vol = cloud.create_volume("v", 1).unwrap();
        assert_eq!(cloud.detach_volume(vol), Err(CloudError::VolumeNotAttached));
        let a = cloud.create_instance("a", FlavorId::M1Small).unwrap();
        let b = cloud.create_instance("b", FlavorId::M1Small).unwrap();
        cloud.attach_volume(vol, a).unwrap();
        // Attaching an in-use volume to another instance is refused.
        assert_eq!(cloud.attach_volume(vol, b), Err(CloudError::VolumeInUse));
        // Re-attaching to the same instance is idempotent.
        cloud.attach_volume(vol, a).unwrap();
    }

    #[test]
    fn gpu_slot_contention() {
        // 4 A100 nodes, 5 students want the same 3-hour window: the fifth
        // is pushed to the next slot.
        let mut cloud = Cloud::paper_course();
        for i in 0..4 {
            cloud
                .reserve(FlavorId::GpuA100Pcie, 1, t(0), t(3), &format!("s{i}"))
                .unwrap();
        }
        assert!(cloud
            .reserve(FlavorId::GpuA100Pcie, 1, t(1), t(4), "s4")
            .is_err());
        let slot = cloud
            .earliest_slot(FlavorId::GpuA100Pcie, 1, SimDuration::hours(3), t(0))
            .unwrap();
        assert_eq!(slot, t(3));
    }
}
