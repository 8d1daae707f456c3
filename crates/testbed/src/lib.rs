//! # opml-testbed
//!
//! An OpenStack-like research-cloud simulator modelled on the Chameleon
//! Cloud testbed used in *The Cost of Teaching Operational ML* (SC
//! Workshops '25), §4.
//!
//! The paper's cost analysis rests entirely on the testbed's **usage
//! semantics**, which this crate reproduces:
//!
//! * **On-demand VM instances** (the KVM\@TACC site): provisioned instantly
//!   against a project quota, and — crucially — **not terminated
//!   automatically**. §5: "VM instances, however, often persisted beyond
//!   expected durations — sometimes intentionally …, other times due to
//!   neglect." This is the mechanism behind the paper's long-tail cost.
//! * **Bare-metal and edge instances**: require an **advance reservation**
//!   (lease) and are **automatically terminated** when the lease ends, so
//!   actual usage closely tracks expected usage (Fig. 1b).
//! * **Quotas** (§4 "Logistics for classroom use"): 600 VM instances, 1,200
//!   cores, 2.5 TB RAM, 300 floating IPs, 200 routers, 100 security groups,
//!   200 block-storage volumes, 10 TB block storage.
//! * **Floating IPs, networks, routers** — each lab deployment holds one
//!   publicly routable IP for its wall-clock duration; Table 1's second
//!   hours column meters exactly this.
//! * **Block and object storage** (Unit 8 and project work).
//!
//! Everything a simulation does is appended to a [`ledger::Ledger`], the
//! single source of truth consumed by `opml-metering` and `opml-pricing`.

pub mod cloud;
pub mod error;
pub mod flavor;
pub mod instance;
pub mod lease;
pub mod ledger;
pub mod network;
pub mod quota;
pub mod storage;

pub use cloud::Cloud;
pub use error::CloudError;
pub use flavor::{FlavorId, FlavorSpec, GpuModel};
pub use instance::{Instance, InstanceId, InstanceState};
pub use lease::{Lease, LeaseId};
pub use ledger::{Ledger, RecordName, UsageKind, UsageRecord};
pub use quota::Quota;
