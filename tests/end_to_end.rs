//! End-to-end integration: simulate the course, meter it, price it, and
//! check the paper's headline shape — across crate boundaries, through
//! the facade's public API only.

use ml_ops_course::metering::rollup::PerStudentUsage;
use ml_ops_course::prelude::*;
use ml_ops_course::pricing::catalog::Provider;
use ml_ops_course::pricing::estimate::{per_student_lab_costs, price_project, ProjectUsageSummary};
use ml_ops_course::simkernel::stats::Summary;

fn small_course(enrollment: u32, projects: bool, seed: u64) -> SemesterOutcome {
    let config = SemesterConfig {
        enrollment,
        run_projects: projects,
        vm_auto_terminate_after: None,
        faults: ml_ops_course::faults::FaultProfile::none(),
        shard_students: 191,
    };
    simulate_semester(&config, seed)
}

#[test]
fn ledger_to_dollars_pipeline() {
    let outcome = small_course(32, false, 1);
    let rollup = AssignmentRollup::from_ledger(&outcome.ledger, 32);
    let table = price_lab_assignments(&rollup);
    // Every non-edge row got priced on both providers.
    for row in &table.rows {
        if row.flavor.name() == "raspberrypi5" {
            assert!(row.aws_usd.is_none());
        } else {
            assert!(row.aws_usd.is_some(), "{} unpriced", row.tag);
            assert!(row.gcp_usd.is_some(), "{} unpriced", row.tag);
        }
    }
    assert!(table.total.aws_usd > 0.0);
    assert!(table.total.instance_hours > 0.0);
}

#[test]
fn vm_labs_dominate_instance_hours() {
    // The paper's core cost observation: the long-tailed VM labs (2, 3,
    // 7, 8) dwarf the auto-terminated GPU labs in hours.
    let outcome = small_course(32, false, 2);
    let rollup = AssignmentRollup::from_ledger(&outcome.ledger, 32);
    let vm_hours: f64 = ["lab1", "lab2", "lab3", "lab7", "lab8"]
        .iter()
        .map(|t| {
            rollup
                .rows_for(t)
                .iter()
                .map(|r| r.instance_hours)
                .sum::<f64>()
        })
        .sum();
    let leased_hours: f64 = [
        "lab4-multi",
        "lab4-single",
        "lab5-multi",
        "lab5-single",
        "lab6-opt",
        "lab6-edge",
        "lab6-system",
    ]
    .iter()
    .map(|t| {
        rollup
            .rows_for(t)
            .iter()
            .map(|r| r.instance_hours)
            .sum::<f64>()
    })
    .sum();
    assert!(
        vm_hours > 10.0 * leased_hours,
        "VM {vm_hours:.0} h vs leased {leased_hours:.0} h"
    );
}

#[test]
fn gpu_labs_cost_more_per_hour_but_less_overall_than_k8s_labs() {
    // Despite GPU rates being ~400x the t3.medium rate, the
    // non-terminated Kubernetes labs cost the same order of magnitude —
    // Table 1's most counterintuitive property.
    let outcome = small_course(48, false, 3);
    let rollup = AssignmentRollup::from_ledger(&outcome.ledger, 48);
    let table = price_lab_assignments(&rollup);
    let cost = |tag: &str| -> f64 {
        table
            .rows
            .iter()
            .filter(|r| r.tag == tag)
            .filter_map(|r| r.aws_usd)
            .sum()
    };
    let lab2 = cost("lab2");
    let lab4 = cost("lab4-multi");
    assert!(lab2 > 0.0 && lab4 > 0.0);
    let ratio = lab4 / lab2;
    assert!(
        (0.5..8.0).contains(&ratio),
        "GPU lab vs k8s lab cost ratio {ratio:.2} out of the paper's regime"
    );
}

#[test]
fn per_student_distribution_is_long_tailed() {
    let outcome = small_course(96, false, 4);
    let per = PerStudentUsage::from_ledger(&outcome.ledger);
    let costs: Vec<f64> = per_student_lab_costs(&per, Provider::Aws)
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    assert_eq!(costs.len(), 96);
    let s = Summary::of(&costs);
    assert!(s.max > 2.5 * s.mean, "max {} mean {}", s.max, s.mean);
    assert!(s.p50 < s.mean, "long tail ⇒ median below mean");
}

#[test]
fn projects_roughly_double_the_bill() {
    // §5: labs ≈ $23.7k AWS, projects ≈ $25.9k AWS.
    let outcome = small_course(191, true, 5);
    let rollup = AssignmentRollup::from_ledger(&outcome.ledger, 191);
    let table = price_lab_assignments(&rollup);
    let project = ProjectUsageSummary::from_ledger(&outcome.ledger);
    let proj_aws = price_project(&project, Provider::Aws);
    let ratio = proj_aws / table.total.aws_usd;
    assert!(
        (0.7..1.6).contains(&ratio),
        "projects/labs cost ratio {ratio:.2}, expected ≈ 1.1"
    );
}

#[test]
fn quota_pressure_appears_at_scale_only() {
    let small = small_course(24, false, 6);
    assert_eq!(small.quota_denials, 0);
    // At 191 students the negotiated quota should still mostly hold; the
    // simulation reports, rather than hides, any pressure.
    let full = small_course(191, false, 6);
    let peak = full.ledger.peak_concurrent_instances();
    assert!(peak <= 600, "peak {peak} exceeded the negotiated quota");
    assert!(peak > 100, "peak {peak} implausibly low for 191 students");
}

#[test]
fn same_seed_same_bill() {
    let a = small_course(40, true, 7);
    let b = small_course(40, true, 7);
    let price = |o: &SemesterOutcome| {
        let rollup = AssignmentRollup::from_ledger(&o.ledger, 40);
        price_lab_assignments(&rollup).total.aws_usd
    };
    assert_eq!(price(&a), price(&b));
}
