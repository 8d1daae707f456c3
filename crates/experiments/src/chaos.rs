//! Chaos ablation: what does unreliability cost?
//!
//! The paper's cost pathologies — idle reservations, forgotten
//! deployments, leaked floating IPs — all have the same shape: a student
//! hits friction, walks away, and the meter keeps running. This
//! experiment injects that friction deliberately. The same cohort is
//! re-simulated under a [`FaultProfile::chaos`] plan at increasing
//! injection rates, and the instance-hour and commercial-cost deltas
//! against the fault-free baseline are reported.
//!
//! Determinism contract: the zero-rate arm must produce a byte-identical
//! trace-and-ledger digest to the fault-free baseline (an inert plan
//! draws nothing), and every arm replays byte-identically for a fixed
//! seed. `run-experiments chaos` exits nonzero if the zero-rate arm
//! diverges.

use opml_cohort::semester::{simulate_semester_with, SemesterConfig};
use opml_faults::{site_key, FaultProfile, FaultStats};
use opml_metering::rollup::AssignmentRollup;
use opml_pricing::estimate::price_lab_assignments;
use opml_report::latency::{latency_table, LatencyUnit};
use opml_report::table::{fmt_num, fmt_usd, Table};
use opml_telemetry::{export_jsonl, MetricsSnapshot, Telemetry};

/// What to sweep.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Semester seed (also seeds the fault plan).
    pub seed: u64,
    /// Cohort size (default 191, the paper's enrollment).
    pub enrollment: u32,
    /// Injection rates to sweep. A zero rate is always prepended so the
    /// inert-plan identity is checked on every run.
    pub rates: Vec<f64>,
    /// Rayon threads every arm is pinned to (via
    /// [`opml_simkernel::parallel::with_thread_count`], the shared pool
    /// helper) so the inert-plan identity is checked under a known
    /// schedule.
    pub threads: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 42,
            enrollment: 191,
            rates: vec![0.05, 0.2],
            threads: 1,
        }
    }
}

/// One arm of the sweep.
#[derive(Debug, Clone)]
pub struct ChaosArm {
    /// Injection rate (`None` = the fault-free baseline profile).
    pub rate: Option<f64>,
    /// FNV-1a digest over the exported telemetry trace and the closed
    /// usage ledger — byte-identity proxy for the whole run.
    pub digest: u64,
    /// Total metered instance hours.
    pub instance_hours: f64,
    /// Lab AWS cost.
    pub aws_usd: f64,
    /// Lab GCP cost.
    pub gcp_usd: f64,
    /// Failure-path counters from the run.
    pub stats: FaultStats,
    /// Quota denials (faults can amplify these).
    pub quota_denials: u64,
    /// Metrics snapshot from the arm's run (histograms feed the
    /// latency tables; not part of the digest).
    pub metrics: MetricsSnapshot,
}

impl ChaosArm {
    /// Human label for the arm ("fault-free baseline" / "chaos rate R").
    pub fn label(&self) -> String {
        match self.rate {
            None => "fault-free baseline".to_string(),
            Some(r) => format!("chaos rate {r:.2}"),
        }
    }
}

/// Sweep outcome: the rendered table, all arms (baseline first), and
/// whether the zero-rate arm reproduced the baseline digest.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Rendered comparison table.
    pub text: String,
    /// Baseline arm followed by one arm per requested rate.
    pub arms: Vec<ChaosArm>,
    /// Zero-rate digest == baseline digest (the inert-plan identity).
    pub zero_rate_matches_baseline: bool,
}

fn run_arm(seed: u64, enrollment: u32, rate: Option<f64>) -> ChaosArm {
    let telemetry = Telemetry::recording();
    let config = SemesterConfig {
        enrollment,
        run_projects: false,
        vm_auto_terminate_after: None,
        faults: match rate {
            None => FaultProfile::none(),
            Some(r) => FaultProfile::chaos(r),
        },
        shard_students: 191,
    };
    let outcome = simulate_semester_with(&config, seed, &telemetry);
    let jsonl = export_jsonl(&telemetry.take_events());
    let ledger_json = serde_json::to_string(&outcome.ledger).expect("ledger serializes");
    let digest = site_key(&jsonl) ^ site_key(&ledger_json).rotate_left(1);
    let rollup = AssignmentRollup::from_ledger(&outcome.ledger, enrollment as usize);
    let priced = price_lab_assignments(&rollup);
    ChaosArm {
        rate,
        digest,
        instance_hours: priced.total.instance_hours,
        aws_usd: priced.total.aws_usd,
        gcp_usd: priced.total.gcp_usd,
        stats: outcome.faults,
        quota_denials: outcome.quota_denials,
        metrics: telemetry.metrics_snapshot(),
    }
}

/// Run the sweep: fault-free baseline, then a zero-rate chaos arm (the
/// identity check), then each requested rate. All arms execute inside
/// one pinned pool of `config.threads` rayon threads.
pub fn run(config: &ChaosConfig) -> ChaosReport {
    let (baseline, arms) = opml_simkernel::parallel::with_thread_count(config.threads, || {
        let baseline = run_arm(config.seed, config.enrollment, None);
        let mut arms = vec![baseline.clone()];
        arms.push(run_arm(config.seed, config.enrollment, Some(0.0)));
        for &rate in &config.rates {
            if rate > 0.0 {
                arms.push(run_arm(config.seed, config.enrollment, Some(rate)));
            }
        }
        (baseline, arms)
    });
    let zero_rate_matches_baseline = arms[1].digest == baseline.digest;

    let mut table = Table::new(&[
        "Arm",
        "Injected",
        "Abandoned",
        "Leaked",
        "Instance hours",
        "Δ hours",
        "AWS cost",
        "Δ AWS",
        "GCP cost",
    ]);
    for arm in &arms {
        table.row(&[
            arm.label(),
            arm.stats.injected.to_string(),
            arm.stats.abandoned.to_string(),
            arm.stats.leaked.to_string(),
            fmt_num(arm.instance_hours, 0),
            fmt_num(arm.instance_hours - baseline.instance_hours, 0),
            fmt_usd(arm.aws_usd),
            fmt_usd(arm.aws_usd - baseline.aws_usd),
            fmt_usd(arm.gcp_usd),
        ]);
    }
    let mut text = table.render();
    text.push_str(&format!(
        "\nzero-rate digest {} baseline ({:#018x} vs {:#018x})\n",
        if zero_rate_matches_baseline {
            "matches"
        } else {
            "DIVERGES FROM"
        },
        arms[1].digest,
        baseline.digest,
    ));
    // Per-arm latency tables, in the same shape as the metrics summary
    // and the serve report (count/mean/p50/p90/p99/max).
    for arm in &arms {
        if arm.metrics.histograms.is_empty() {
            continue;
        }
        text.push_str(&format!("\n{} — sim-time latency:\n", arm.label()));
        text.push_str(&latency_table(
            "histogram (sim time)",
            LatencyUnit::Hours,
            arm.metrics.histograms.iter().map(|(&n, h)| (n, h)),
        ));
    }
    ChaosReport {
        text,
        arms,
        zero_rate_matches_baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(rates: Vec<f64>) -> ChaosConfig {
        ChaosConfig {
            seed: 7,
            enrollment: 6,
            rates,
            threads: 2,
        }
    }

    #[test]
    fn zero_rate_is_byte_identical_to_baseline() {
        let report = run(&tiny(vec![]));
        assert!(report.zero_rate_matches_baseline, "{}", report.text);
        assert_eq!(report.arms[0].instance_hours, report.arms[1].instance_hours);
        assert_eq!(report.arms[1].stats.total(), 0);
    }

    #[test]
    fn latency_tables_render_per_arm() {
        let report = run(&tiny(vec![]));
        assert!(
            report.text.contains("— sim-time latency:"),
            "per-arm latency tables missing:\n{}",
            report.text
        );
        assert!(
            report.text.contains("p50 h") && report.text.contains("p99 h"),
            "percentile columns missing:\n{}",
            report.text
        );
        assert!(
            report.text.contains("instance.lifetime"),
            "instance.lifetime histogram missing:\n{}",
            report.text
        );
    }

    #[test]
    fn faults_cost_money_and_replay_deterministically() {
        let report = run(&tiny(vec![0.25]));
        let chaotic = &report.arms[2];
        assert!(chaotic.stats.injected > 0, "nothing injected at 25%");
        assert_ne!(
            chaotic.digest, report.arms[0].digest,
            "chaos arm should perturb the trace"
        );
        let again = run(&tiny(vec![0.25]));
        assert_eq!(chaotic.digest, again.arms[2].digest, "chaos must replay");
    }
}
