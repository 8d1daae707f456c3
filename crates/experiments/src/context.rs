//! Shared experiment context: one simulated semester plus its rollups,
//! and the list of paper sections rendered from it.

use crate::{
    ablation, capacity, fig1, fig2, fig3, headline, project_cost, seeds, spot_ablation, table1,
};
use opml_cohort::semester::{simulate_semester_with, SemesterConfig, SemesterOutcome};
use opml_metering::rollup::{AssignmentRollup, PerStudentUsage};
use opml_pricing::estimate::{price_lab_assignments, ProjectUsageSummary, Table1};
use opml_report::compare::ComparisonSet;
use opml_telemetry::Telemetry;

/// Everything the figure/table reproductions consume.
#[derive(Debug)]
pub struct ExperimentContext {
    /// The raw semester outcome (ledger + counters).
    pub outcome: SemesterOutcome,
    /// Per-assignment rollup.
    pub rollup: AssignmentRollup,
    /// Per-student usage.
    pub per_student: PerStudentUsage,
    /// Priced Table 1.
    pub table: Table1,
    /// Project-phase summary.
    pub project: ProjectUsageSummary,
    /// Seed used.
    pub seed: u64,
}

/// Simulate the paper's course (191 students, projects on) and derive
/// every rollup the experiments need.
pub fn run_paper_course(seed: u64) -> ExperimentContext {
    run_paper_course_with(seed, &Telemetry::disabled())
}

/// Like [`run_paper_course`], with the semester simulation emitting its
/// trace and metrics through `telemetry`.
pub fn run_paper_course_with(seed: u64, telemetry: &Telemetry) -> ExperimentContext {
    let config = SemesterConfig::paper_course();
    let outcome = simulate_semester_with(&config, seed, telemetry);
    let rollup = AssignmentRollup::from_ledger(&outcome.ledger, config.enrollment as usize);
    let per_student = PerStudentUsage::from_ledger(&outcome.ledger);
    let table = price_lab_assignments(&rollup);
    let project = ProjectUsageSummary::from_ledger(&outcome.ledger);
    ExperimentContext {
        outcome,
        rollup,
        per_student,
        table,
        project,
        seed,
    }
}

/// One evaluation section: its heading, the rendered table or figure,
/// and its paper-vs-measured comparisons.
#[derive(Debug)]
pub struct PaperSection {
    /// Section heading, e.g. `Table 1: Usage and estimated cost by lab
    /// assignment`.
    pub title: &'static str,
    /// The rendered table or figure.
    pub text: String,
    /// Paper-vs-measured comparisons.
    pub comparisons: ComparisonSet,
}

/// Every section `run-experiments` reproduces, in report order. The
/// seed-robustness sweep runs 5 seeds and the VM-reservation ablation a
/// 64-student cohort, both from `ctx.seed`; everything else reads `ctx`.
pub fn paper_sections(ctx: &ExperimentContext) -> Vec<PaperSection> {
    let section = |title, (text, comparisons)| PaperSection {
        title,
        text,
        comparisons,
    };
    vec![
        section(
            "Table 1: Usage and estimated cost by lab assignment",
            table1::run(ctx),
        ),
        section(
            "Figure 1: Expected vs actual duration per student",
            fig1::run(ctx),
        ),
        section("Figure 2: Per-student cost distribution", fig2::run(ctx)),
        section("Figure 3: Project usage by instance type", fig3::run(ctx)),
        section("Project phase: usage and cost", project_cost::run(ctx)),
        section("Headline numbers", headline::run(ctx)),
        section("Capacity: quota validation", capacity::run(ctx)),
        section("Seed robustness", {
            let (text, cmp, _) = seeds::run(ctx.seed, 5);
            (text, cmp)
        }),
        section(
            "Ablation: spot/preemptible GPU pricing",
            spot_ablation::run(ctx, ctx.seed),
        ),
        section("Ablation: VM advance reservations", {
            let (text, cmp, _) = ablation::run(ctx.seed, 64);
            (text, cmp)
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_populates_every_view() {
        let ctx = run_paper_course(31);
        assert!(ctx.table.total.instance_hours > 10_000.0);
        assert_eq!(ctx.per_student.students.len(), 191);
        assert!(ctx.project.vm_hours > 10_000.0);
        assert!(!ctx.rollup.rows.is_empty());
    }
}
