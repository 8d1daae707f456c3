//! # ml-ops-course
//!
//! Facade crate for the reproduction of *The Cost of Teaching Operational
//! ML* (Fund et al., SC Workshops '25). Re-exports every subsystem crate so
//! downstream users depend on a single package.
//!
//! Every paper number comes from these:
//!
//! * [`simkernel`] — discrete-event kernel, RNG streams, statistics.
//! * [`testbed`] — OpenStack-like research-cloud simulator (Chameleon model).
//! * [`pricing`] — AWS/GCP pricing catalogs and the cheapest-adequate-instance
//!   cost model.
//! * [`faults`] — deterministic fault injection plans, retry/backoff
//!   policies, circuit breaker.
//! * [`cohort`] — course structure, student behaviour model, semester driver.
//! * [`metering`] — usage-ledger aggregation and attribution.
//! * [`telemetry`] — deterministic sim-time tracing and metrics, kept by
//!   the telemetry handle itself; JSONL / Chrome trace-event export.
//! * [`report`] — tables, histograms, comparison records.
//! * [`experiments`] — one entry point per paper table/figure.
//! * [`serve`] — the campus cloud as a long-running multi-tenant service
//!   under ramping load.
//! * [`profiler`] — wall-phase attribution, counting allocator, RSS
//!   sampling.
//!
//! The course substrate is a demonstration that feeds no paper number:
//!
//! * [`sched`] — GPU-cluster job scheduler (FCFS / backfill / gang / fair share).
//! * [`mlops`] — the operational-ML mechanisms the course teaches: tensors and
//!   models, ring all-reduce and distributed training, experiment tracking,
//!   model registry, DAG pipelines, serving with dynamic batching,
//!   monitoring, drift detection, data systems, CI/CD.
//! * [`labwork`] — each unit's lab workload run on those two substrates.
//!
//! ## Quickstart
//!
//! ```
//! use ml_ops_course::prelude::*;
//!
//! // Simulate one 191-student semester and price it on commercial clouds.
//! let config = SemesterConfig::paper_course();
//! let outcome = simulate_semester(&config, 42);
//! let rollup = AssignmentRollup::from_ledger(&outcome.ledger, config.enrollment as usize);
//! let table = price_lab_assignments(&rollup);
//! assert!(table.total.instance_hours > 50_000.0);
//! ```

pub mod labwork;

pub use opml_cohort as cohort;
pub use opml_experiments as experiments;
pub use opml_faults as faults;
pub use opml_metering as metering;
pub use opml_mlops as mlops;
pub use opml_pricing as pricing;
pub use opml_profiler as profiler;
pub use opml_report as report;
pub use opml_sched as sched;
pub use opml_serve as serve;
pub use opml_simkernel as simkernel;
pub use opml_telemetry as telemetry;
pub use opml_testbed as testbed;

/// The most common imports for driving a full simulation. To trace one,
/// pass a `Telemetry::recording()` handle to `simulate_semester_with`
/// and read the events back from the handle:
///
/// ```
/// use ml_ops_course::prelude::*;
///
/// let config = SemesterConfig {
///     enrollment: 3,
///     run_projects: false,
///     ..SemesterConfig::paper_course()
/// };
/// let telemetry = Telemetry::recording();
/// simulate_semester_with(&config, 7, &telemetry);
/// assert!(telemetry.events().iter().any(|e| e.name == "instance.launch"));
/// ```
pub mod prelude {
    pub use opml_cohort::semester::{
        simulate_semester, simulate_semester_with, SemesterConfig, SemesterOutcome,
    };
    pub use opml_faults::{FaultPlan, FaultProfile, RetryPolicy};
    pub use opml_metering::rollup::AssignmentRollup;
    pub use opml_pricing::estimate::price_lab_assignments;
    pub use opml_simkernel::{Rng, SimDuration, SimTime};
    pub use opml_telemetry::Telemetry;
    pub use opml_testbed::cloud::Cloud;
}
