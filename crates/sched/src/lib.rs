//! # opml-sched
//!
//! A GPU-cluster job scheduler implementing the HPC scheduling concepts the
//! course's Unit 5 lecture teaches "specifically for ML training jobs"
//! (§3.5 of the paper): **FCFS**, **EASY backfilling**, **gang placement**,
//! and **fair sharing**, evaluated on a synthetic trace modelled on the
//! Alibaba MLaaS workload analysis the lecture cites (Weng et al.,
//! NSDI '22: mostly short 1-GPU jobs with a heavy tail of large
//! long-running ones).
//!
//! The crate is a real scheduler, not a sketch: admission, placement with
//! node-boundary constraints, shadow-time reservation for backfilling, and
//! usage-ordered fair-share queues are all implemented and tested
//! (`tests/mlops_stack.rs` checks the lecture's qualitative claims —
//! backfilling recovers utilization lost to head-of-line blocking; fair
//! share protects light users' service).
//!
//! ```
//! use opml_sched::{Cluster, Placement, Policy, SchedSim, workload};
//!
//! let jobs = workload::ml_trace(200, 0.7, 42);
//! let cluster = Cluster::homogeneous(8, 4); // 8 nodes × 4 GPUs
//! let fcfs = SchedSim::new(cluster.clone(), Policy::Fcfs, Placement::Packed).run(&jobs);
//! let easy = SchedSim::new(cluster, Policy::EasyBackfill, Placement::Packed).run(&jobs);
//! assert!(easy.metrics().mean_wait_hours <= fcfs.metrics().mean_wait_hours + 1e-9);
//! ```

pub mod cluster;
pub mod job;
pub mod metrics;
pub mod policy;
pub mod sim;
pub mod workload;

pub use cluster::{Cluster, Placement};
pub use job::{Job, JobId, JobOutcome};
pub use metrics::ScheduleMetrics;
pub use policy::Policy;
pub use sim::{SchedError, SchedSim, Schedule};
