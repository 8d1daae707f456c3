//! Capacity planning for instructors: how do quota needs, GPU-slot
//! contention, and commercial cost scale with enrollment?
//!
//! §6 of the paper warns that commercial clouds are "risky and
//! potentially cost-prohibitive" for courses like this; this example
//! sweeps enrollment and reports what an instructor would need to
//! request (the paper's course negotiated 600 instances / 1,200 cores /
//! 2.5 TB RAM / 300 floating IPs for 191 students).
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use ml_ops_course::cohort::semester::{simulate_semester, SemesterConfig};
use ml_ops_course::metering::rollup::AssignmentRollup;
use ml_ops_course::pricing::estimate::price_lab_assignments;
use ml_ops_course::report::table::{fmt_num, fmt_usd, Table};
use ml_ops_course::testbed::quota::Quota;

fn main() {
    let mut table = Table::new(&[
        "Enrollment",
        "Peak instances",
        "Peak cores",
        "Quota denials",
        "Slot pushbacks",
        "Lab AWS cost",
        "Cost/student",
    ]);
    for enrollment in [48u32, 96, 191, 280] {
        let config = SemesterConfig {
            enrollment,
            run_projects: false,
            vm_auto_terminate_after: None,
            faults: ml_ops_course::faults::FaultProfile::none(),
            shard_students: 191,
        };
        let outcome = simulate_semester(&config, 42);
        let rollup = AssignmentRollup::from_ledger(&outcome.ledger, enrollment as usize);
        let priced = price_lab_assignments(&rollup);
        table.row(&[
            enrollment.to_string(),
            fmt_num(outcome.ledger.peak_concurrent_instances() as f64, 0),
            fmt_num(outcome.ledger.peak_concurrent_cores() as f64, 0),
            outcome.quota_denials.to_string(),
            outcome.slot_pushbacks.to_string(),
            fmt_usd(priced.total.aws_usd),
            fmt_usd(priced.total.aws_per_student),
        ]);
    }
    println!("Lab-phase capacity and cost vs enrollment (seed 42):\n");
    println!("{}", table.render());

    let q = Quota::paper_course();
    println!(
        "Paper-course quota for reference: {} instances, {} cores, {} GB RAM, {} floating IPs.",
        q.instances, q.cores, q.ram_gb, q.floating_ips
    );
    println!(
        "The default per-project quota ({} instances, {} cores) would deadlock the course\n\
         in week 1 — which is why §4 describes negotiating the increase in advance.",
        Quota::chameleon_default().instances,
        Quota::chameleon_default().cores
    );
}
