//! Networking resources: private networks, routers, floating IPs.
//!
//! Each lab deployment provisions a private network for inter-VM traffic
//! and **one publicly routable floating IP** for SSH and UI access (§3.2,
//! §3.3). Floating-IP hold time is metered — it is the second hours column
//! of Table 1 and is billed on commercial clouds (AWS charges for public
//! IPv4 since Feb 2024; GCP charges for in-use external IPs).

use opml_simkernel::SimTime;
use serde::{Deserialize, Serialize};

/// Opaque floating-IP identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FloatingIpId(pub u64);

/// Opaque network identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetworkId(pub u64);

/// A floating IP held by a deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FloatingIp {
    /// Attribution key (deployment name).
    pub name: String,
    /// Allocation time.
    pub allocated: SimTime,
    /// Release time, once released.
    pub released: Option<SimTime>,
}

/// A private network with its router (modelled together: every lab that
/// created a network also created a router to the external network).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrivateNetwork {
    /// Attribution key (deployment name).
    pub name: String,
    /// Creation time.
    pub created: SimTime,
    /// Deletion time, once deleted.
    pub deleted: Option<SimTime>,
}
