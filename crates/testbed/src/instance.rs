//! Compute instances and their lifecycle.

use crate::flavor::FlavorId;
use crate::lease::LeaseId;
use opml_simkernel::SimTime;
use serde::{Deserialize, Serialize};

/// Opaque instance identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceId(pub u64);

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceState {
    /// Running (accruing instance-hours).
    Active,
    /// Deleted by the user.
    Deleted,
    /// Terminated automatically at lease end (bare metal / edge only).
    AutoTerminated,
    /// Died mid-run (hardware failure or injected fault); stops metering.
    Crashed,
}

/// A compute instance.
///
/// `name` follows the course's naming convention
/// (`<assignment-tag>-<student-netid>[-suffix]`); §5 notes that the
/// convention is what let the authors attribute instances to assignments,
/// and `opml-metering` relies on it the same way.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    /// Instance name (attribution key).
    pub name: String,
    /// Flavor / node type.
    pub flavor: FlavorId,
    /// Creation time.
    pub created: SimTime,
    /// Deletion time, once deleted.
    pub deleted: Option<SimTime>,
    /// Lifecycle state.
    pub state: InstanceState,
    /// The lease backing this instance (bare metal / edge only).
    pub lease: Option<LeaseId>,
}

impl Instance {
    /// Whether the instance is still running.
    pub fn is_active(&self) -> bool {
        self.state == InstanceState::Active
    }
}
