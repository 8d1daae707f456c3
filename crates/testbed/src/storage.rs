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
}

/// An object-store bucket. The cloud keys buckets by name, which is
/// also the attribution key of their usage record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bucket {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_accumulates() {
        let mut b = Bucket {
            stored_gb: 0.0,
            created: SimTime::ZERO,
            object_count: 0,
        };
        b.put(100, 0.7);
        b.put(50, 0.5);
        assert_eq!(b.object_count, 150);
        assert!((b.stored_gb - 1.2).abs() < 1e-12);
    }
}
