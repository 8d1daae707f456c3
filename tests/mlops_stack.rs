//! Cross-crate integration of the operational-ML substrate: the course's
//! full technical loop executed through the facade crate, plus the
//! unit-by-unit lab workloads.

use ml_ops_course::labwork;
use ml_ops_course::mlops::allreduce::ReduceAlgo;
use ml_ops_course::mlops::cicd::{CicdConfig, CicdSystem, Commit, DeployOutcome};
use ml_ops_course::mlops::ddp::{train_ddp, DdpConfig};
use ml_ops_course::mlops::model::Dataset;
use ml_ops_course::mlops::registry::Stage;
use ml_ops_course::mlops::tracking::artifact_to_params;
use ml_ops_course::sched::{workload, Cluster, Placement, Policy, SchedSim};

#[test]
fn every_unit_lab_workload_passes() {
    for outcome in labwork::run_all_units(1000) {
        assert!(
            outcome.passed,
            "unit {} lab workload failed: {:?}",
            outcome.unit, outcome.metrics
        );
    }
}

#[test]
fn cicd_artifacts_are_loadable_models() {
    // The registry's production artifact deserializes into a model whose
    // flat-parameter size matches the configured architecture.
    let data = Dataset::blobs(550, 8, 11, 0.6, 2000);
    let (train, holdout) = data.split(0.8, 2001);
    let mut sys = CicdSystem::new("m", CicdConfig::default());
    match sys.run_commit(&Commit::healthy(1, "ship it"), &train, &holdout) {
        DeployOutcome::Promoted { .. } => {}
        other => panic!("expected promotion: {other:?}"),
    }
    let prod = sys
        .registry
        .in_stage("m", Stage::Production)
        .expect("production");
    let params = artifact_to_params(&prod.artifact);
    // [8, 32, 11] → 8·32 + 32 + 32·11 + 11 parameters.
    assert_eq!(params.len(), 8 * 32 + 32 + 32 * 11 + 11);
    assert!(params.iter().any(|&p| p != 0.0));
}

#[test]
fn ddp_collective_choice_does_not_change_learning() {
    // Ring, tree and parameter-server must agree (they compute the same
    // sum): accuracies within noise of each other on the same seed.
    let data = Dataset::blobs(330, 8, 11, 0.6, 2002);
    let mut accs = Vec::new();
    for algo in ReduceAlgo::ALL {
        let (_, report) = train_ddp(
            &DdpConfig {
                sizes: vec![8, 24, 11],
                workers: 4,
                epochs: 10,
                batch_size: 16,
                lr: 0.1,
                momentum: 0.9,
                algo,
                seed: 2003,
            },
            &data,
        );
        accs.push(report.history.last().unwrap().1);
    }
    let spread = accs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - accs.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 0.05, "collectives disagree: {accs:?}");
}

#[test]
fn scheduler_policies_preserve_work_conservation() {
    // Whatever the policy, total executed GPU-hours are identical — only
    // waiting changes.
    let jobs = workload::ml_trace(400, 0.8, 2004);
    let work: f64 = jobs
        .iter()
        .map(|j| j.gpus as f64 * j.duration.as_hours_f64())
        .sum();
    for policy in Policy::ALL {
        let schedule =
            SchedSim::new(Cluster::homogeneous(8, 4), policy, Placement::Packed).run(&jobs);
        let executed: f64 = schedule
            .outcomes()
            .iter()
            .map(|o| o.job.gpus as f64 * o.job.duration.as_hours_f64())
            .sum();
        assert!(
            (executed - work).abs() < 1e-6,
            "{} lost work",
            policy.name()
        );
    }
}

#[test]
fn backfilling_beats_fcfs_on_ml_traces() {
    // The Unit 5 lecture's claim, reproduced on the MLaaS-like trace.
    let jobs = workload::ml_trace(600, 1.0, 2005);
    let cluster = Cluster::homogeneous(8, 4);
    let fcfs = SchedSim::new(cluster.clone(), Policy::Fcfs, Placement::Packed)
        .run(&jobs)
        .metrics();
    let easy = SchedSim::new(cluster, Policy::EasyBackfill, Placement::Packed)
        .run(&jobs)
        .metrics();
    assert!(
        easy.mean_wait_hours < fcfs.mean_wait_hours,
        "backfill {:.2} h vs fcfs {:.2} h",
        easy.mean_wait_hours,
        fcfs.mean_wait_hours
    );
    assert!(easy.utilization >= fcfs.utilization - 1e-9);
}

#[test]
fn fair_share_protects_light_users() {
    // Fair share's promise is that users with small demand are not
    // starved by heavy users. Measure the mean wait of the lightest
    // quartile of users (by demanded GPU-hours), seed-averaged.
    let light_user_wait = |policy: Policy, seed: u64| -> f64 {
        use std::collections::HashMap;
        let jobs = workload::ml_trace(600, 1.1, seed);
        let schedule =
            SchedSim::new(Cluster::homogeneous(8, 4), policy, Placement::Packed).run(&jobs);
        let mut demand: HashMap<u32, f64> = HashMap::new();
        for j in &jobs {
            *demand.entry(j.user).or_insert(0.0) += j.gpus as f64 * j.duration.as_hours_f64();
        }
        let mut users: Vec<(u32, f64)> = demand.into_iter().collect();
        users.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        let light: Vec<u32> = users[..users.len() / 4].iter().map(|&(u, _)| u).collect();
        let waits: Vec<f64> = schedule
            .outcomes()
            .iter()
            .filter(|o| light.contains(&o.job.user))
            .map(|o| o.wait_hours())
            .collect();
        waits.iter().sum::<f64>() / waits.len().max(1) as f64
    };
    let seeds = [2006u64, 2007, 2008, 2009, 2010];
    let easy: f64 = seeds
        .iter()
        .map(|&s| light_user_wait(Policy::EasyBackfill, s))
        .sum::<f64>()
        / seeds.len() as f64;
    let fair: f64 = seeds
        .iter()
        .map(|&s| light_user_wait(Policy::FairShare { backfill: true }, s))
        .sum::<f64>()
        / seeds.len() as f64;
    assert!(
        fair <= easy * 1.05,
        "fair share should not make light users wait longer: fair {fair:.2} h vs easy {easy:.2} h"
    );
}
