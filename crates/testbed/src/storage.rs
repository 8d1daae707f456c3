//! Persistent storage: block volumes and object-store buckets (Unit 8).
//!
//! The Unit 8 lab provisions a 2 GB block volume (attach/format/mount) and
//! ~1.2 GB of object storage; project work consumed 9 TB of block volumes
//! and 1,541 GB of object storage (§5).

use crate::instance::InstanceId;
use opml_simkernel::SimTime;
use serde::{Deserialize, Serialize};

/// Opaque volume identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VolumeId(pub u64);

/// Block-volume lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VolumeState {
    /// Created, not attached.
    Available,
    /// Attached to an instance.
    InUse,
    /// Deleted.
    Deleted,
}

/// A block-storage volume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Volume {
    /// Identifier.
    pub id: VolumeId,
    /// Attribution key.
    pub name: String,
    /// Size in GB.
    pub size_gb: u64,
    /// Creation time.
    pub created: SimTime,
    /// Deletion time, once deleted.
    pub deleted: Option<SimTime>,
    /// Lifecycle state.
    pub state: VolumeState,
    /// Attached instance, if any.
    pub attached_to: Option<InstanceId>,
    /// Whether the volume has been formatted with a filesystem.
    pub formatted: bool,
}

impl Volume {
    /// GB-hours accrued as of `now` (volumes bill on existence, not
    /// attachment — exactly why "persist data across ephemeral compute"
    /// works).
    pub fn gb_hours(&self, now: SimTime) -> f64 {
        let end = self.deleted.unwrap_or(now);
        self.size_gb as f64 * end.since(self.created).as_hours_f64()
    }
}

/// An object-store bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bucket {
    /// Bucket name (attribution key).
    pub name: String,
    /// Stored bytes, in GB (fractional — the Unit 8 dataset is 1.2 GB).
    pub stored_gb: f64,
    /// Creation time.
    pub created: SimTime,
    /// Objects stored (count only; contents are out of scope).
    pub object_count: u64,
}

impl Bucket {
    /// Add objects totalling `gb`.
    pub fn put(&mut self, objects: u64, gb: f64) {
        self.object_count += objects;
        self.stored_gb += gb;
    }

    /// GB-hours accrued as of `now` (flat model: current size × lifetime;
    /// adequate because the evaluation only reports final stored GB).
    pub fn gb_hours(&self, now: SimTime) -> f64 {
        self.stored_gb * now.since(self.created).as_hours_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opml_simkernel::SimDuration;

    #[test]
    fn volume_gb_hours() {
        let v = Volume {
            id: VolumeId(0),
            name: "lab8-bob".into(),
            size_gb: 2,
            created: SimTime::ZERO,
            deleted: Some(SimTime::ZERO + SimDuration::hours(10)),
            state: VolumeState::Deleted,
            attached_to: None,
            formatted: true,
        };
        assert_eq!(v.gb_hours(SimTime::ZERO + SimDuration::hours(99)), 20.0);
    }

    #[test]
    fn bucket_accumulates() {
        let mut b = Bucket {
            name: "food11".into(),
            stored_gb: 0.0,
            created: SimTime::ZERO,
            object_count: 0,
        };
        b.put(100, 0.7);
        b.put(50, 0.5);
        assert_eq!(b.object_count, 150);
        assert!((b.stored_gb - 1.2).abs() < 1e-12);
        assert!((b.gb_hours(SimTime::ZERO + SimDuration::hours(2)) - 2.4).abs() < 1e-9);
    }
}
