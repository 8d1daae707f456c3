//! # opml-experiments
//!
//! One module per evaluation artifact in the paper. Each experiment
//! returns rendered text (the table/figure) plus a
//! [`opml_report::ComparisonSet`] of paper-vs-measured quantities.
//! [`paper_sections`] runs them in report order, and
//! [`experiments_markdown`] assembles that list into EXPERIMENTS.md.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — usage and estimated cost per assignment |
//! | [`fig1`] | Fig. 1(a,b) — expected vs actual duration per student |
//! | [`fig2`] | Fig. 2 — per-student commercial-cloud cost distribution |
//! | [`fig3`] | Fig. 3 — project usage by instance type |
//! | [`project_cost`] | §5 project-phase totals and cost |
//! | [`headline`] | 186,692 hours; ≈$250/student; <$50k |
//! | [`ablation`] | §5 discussion — VM advance reservations |
//! | [`seeds`] | seed-robustness of the headline quantities |
//! | [`capacity`] | §4 quota validation via peak concurrency |
//! | [`spot_ablation`] | extension — spot pricing with the interruption tax |
//! | [`chaos`] | extension — fault-injection sweep (`run-experiments chaos`) |
//! | [`verify`] | replay-equivalence verifier (`verify-determinism`) |
//! | [`trace`] | telemetry trace capture (`run-experiments trace`) |
//! | [`scale`] | extension — sharded large-cohort sweep (`run-experiments scale`) |
//! | [`serve`] | extension — ramping service soak (`run-experiments serve`) |

pub mod ablation;
pub mod capacity;
pub mod chaos;
pub mod context;
pub mod digest;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod headline;
pub mod paper;
pub mod profile;
pub mod project_cost;
pub mod scale;
pub mod seeds;
pub mod serve;
pub mod spot_ablation;
pub mod table1;
pub mod trace;
pub mod verify;

pub use context::{
    experiments_markdown, paper_sections, run_paper_course, run_paper_course_with, tolerance_count,
    ExperimentContext, PaperSection,
};
