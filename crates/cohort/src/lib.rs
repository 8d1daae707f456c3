//! # opml-cohort
//!
//! The course itself: lab specifications from §3 of the paper, a
//! per-student behaviour model calibrated to §5's observed usage, the
//! project-phase model, and the semester driver that plays the whole
//! 14-week course against an [`opml_testbed::Cloud`].
//!
//! * [`labspec`] — the 12 Table 1 lab/part specifications: flavors, node
//!   counts, expected durations, reservation slot lengths, storage.
//! * [`behavior`] — the student model. VM labs overrun their expected
//!   durations (no auto-termination: "sometimes intentionally …, other
//!   times due to neglect", §5); bare-metal labs quantize to reservation
//!   slots. Per-student latent traits (tidiness, neglect propensity) are
//!   shared across labs, which is what produces Fig. 2's long tail.
//! * [`project`] — 48 groups of 3–4 students (191 total) with
//!   light/medium/heavy intensity classes generating the §5 project-phase
//!   usage (VM services, GPU training sessions, bare-metal data
//!   pipelines, edge deployments, block/object storage), booked into
//!   the same event queue as the students' labs, kind by kind.
//! * [`semester`] — the discrete-event simulation. Each shard samples every
//!   student's draws from the student's own stream, books them against
//!   the reservation calendar into one event queue, then executes the
//!   queue time-ordered against the cloud and returns the closed usage
//!   ledger.
//!
//! Lab durations come from [`labspec`] and [`behavior`]'s calibrated
//! model, not from running any lab, so this crate depends on neither
//! course substrate (`opml-mlops`, `opml-sched`).

pub mod behavior;
pub mod labspec;
pub mod project;
pub mod semester;
pub mod spill;

pub use behavior::StudentProfile;
pub use labspec::{lab_specs, LabSpec};
pub use semester::{simulate_semester, SemesterConfig, SemesterOutcome};
