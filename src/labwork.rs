//! The labs' *actual workloads*, executed against the real substrates.
//!
//! Each unit's lab body runs the mechanism it teaches (§3) on the
//! [`mlops`](crate::mlops) and [`sched`](crate::sched) substrates, at
//! laptop scale. This is a demonstration of the course's content and
//! feeds no paper number: lab durations and costs come from
//! `opml-cohort`'s calibrated behaviour model and the semester driver.
//! `tests/mlops_stack.rs` runs every unit through [`run_all_units`].

use opml_mlops::allreduce::ReduceAlgo;
use opml_mlops::cicd::{CicdConfig, CicdSystem, Commit, DeployOutcome};
use opml_mlops::data::{
    drop_invalid, fit_normalizer, normalize, run_streaming_job, EtlPipeline, FeatureStore, Record,
};
use opml_mlops::ddp::{train_ddp, DdpConfig};
use opml_mlops::drift::{DriftDetector, DriftStatus};
use opml_mlops::eval::{evaluate, run_behavioral_suite, BehavioralTest};
use opml_mlops::model::{train_epoch, Dataset, Mlp, Sgd};
use opml_mlops::modelparallel::{train_pipeline, PipelineConfig};
use opml_mlops::monitoring::{evaluate_alerts, AlertRule, Cmp, MetricsStore};
use opml_mlops::optimize::{fused_predict, model_bytes, QuantizedMlp};
use opml_mlops::pipeline::{Context, Workflow};
use opml_mlops::precision::{train_epoch_bf16, training_memory_gb, TrainingMemoryConfig};
use opml_mlops::raycluster::{tune, RayCluster};
use opml_mlops::serving::{simulate, LoadSpec, ModelProfile, ServerConfig};
use opml_mlops::tracking::{ExperimentTracker, RunStatus};
use opml_sched::{workload, Cluster, Placement, Policy, SchedSim};
use opml_simkernel::Rng;

/// Outcome of one unit's lab workload.
#[derive(Debug, Clone)]
pub struct LabWorkOutcome {
    /// Which unit ran.
    pub unit: u8,
    /// Named scalar results (accuracy, speedups, detection delay, …).
    pub metrics: Vec<(String, f64)>,
    /// Whether every check in the lab body held.
    pub passed: bool,
}

fn food11(seed: u64) -> Dataset {
    Dataset::blobs(440, 8, 11, 0.6, seed)
}

/// Unit 2: cloud computing — provision the three-VM cluster on the
/// testbed, "install Kubernetes", deploy GourmetGram with replicas and
/// load balancing, survive a pod crash, and scale horizontally.
pub fn unit2_cloud_computing(seed: u64) -> LabWorkOutcome {
    use opml_mlops::orchestrator::{Autoscaler, DeploymentSpec, Orchestrator, PodPhase, Service};
    use opml_testbed::{Cloud, FlavorId};
    // Infrastructure: 3 × m1.medium + network + floating IP (§3.2).
    let mut cloud = Cloud::paper_course();
    let mut ids = Vec::new();
    for k in 0..3 {
        ids.push(
            cloud
                .create_instance(&format!("lab2-s000-node{k}"), FlavorId::M1Medium)
                .expect("quota headroom"),
        );
    }
    let net = cloud.create_network("lab2-s000").expect("network quota");
    let fip = cloud.allocate_fip("lab2-s000").expect("fip quota");
    let provisioned = cloud.active_instances() == 3;
    // Platform: the food-classifier deployment with 3 replicas.
    let mut rng = Rng::new(seed);
    let mut orch = Orchestrator::new();
    orch.apply(&[DeploymentSpec {
        name: "gourmetgram".into(),
        image: "food11:v1".into(),
        replicas: 3,
        max_unavailable: 1,
    }]);
    for _ in 0..4 {
        orch.tick(&mut rng);
    }
    let deployed = orch.ready_pods("gourmetgram").len() == 3;
    // Load balancing across replicas.
    let mut svc = Service::new();
    let mut served = std::collections::BTreeSet::new();
    for _ in 0..9 {
        if let Some(pod) = svc.route(&orch, "gourmetgram") {
            served.insert(pod);
        }
    }
    let balanced = served.len() == 3;
    // Self-healing: kill everything, watch it come back.
    orch.crash_probability = 1.0;
    orch.tick(&mut rng);
    orch.crash_probability = 0.0;
    let crashed = orch.ready_pods("gourmetgram").is_empty()
        || orch
            .pods_of("gourmetgram")
            .iter()
            .any(|p| p.phase != PodPhase::Ready);
    for _ in 0..4 {
        orch.tick(&mut rng);
    }
    let healed = orch.ready_pods("gourmetgram").len() == 3;
    // Horizontal scaling under a traffic spike.
    let hpa = Autoscaler {
        min_replicas: 3,
        max_replicas: 8,
        target_load_per_pod: 40.0,
    };
    hpa.reconcile(&mut orch, "gourmetgram", 260.0);
    for _ in 0..4 {
        orch.tick(&mut rng);
    }
    let scaled = orch.ready_pods("gourmetgram").len() == 7; // ceil(260/40)
                                                            // Teardown (the tidy-student path).
    for id in ids {
        cloud.delete_instance(id).expect("active instance");
    }
    cloud.release_fip(fip).expect("held fip");
    cloud.delete_network(net).expect("active network");
    LabWorkOutcome {
        unit: 2,
        metrics: vec![
            ("vms_provisioned".into(), 3.0),
            ("replicas_ready".into(), 3.0),
            (
                "replicas_after_spike".into(),
                orch.ready_pods("gourmetgram").len() as f64,
            ),
        ],
        passed: provisioned && deployed && balanced && crashed && healed && scaled,
    }
}

/// Unit 3: IaC-style pipeline — train → evaluation gate → register →
/// staged deploy with rollback, on the DAG engine + CI/CD system.
pub fn unit3_mlops(seed: u64) -> LabWorkOutcome {
    let (train, holdout) = food11(seed).split(0.8, seed + 1);
    let mut sys = CicdSystem::new("gourmetgram", CicdConfig::default());
    let healthy = sys.run_commit(&Commit::healthy(1, "initial"), &train, &holdout);
    let mut bad = Commit::healthy(2, "regression");
    bad.latency_regression = 0.6;
    let rolled = sys.run_commit(&bad, &train, &holdout);
    // Also exercise the raw DAG engine with the lab's dummy steps.
    let mut wf = Workflow::new();
    wf.add_task("register", &[], 0, |ctx| {
        ctx.set("version", "1");
        Ok(())
    })
    .expect("fresh name");
    wf.add_task("promote", &["register"], 0, |ctx| {
        ctx.get("version")
            .map(|_| ())
            .ok_or_else(|| "missing version".into())
    })
    .expect("fresh name");
    let wf_ok = wf.run(&Context::new()).succeeded();
    let promoted = matches!(healthy, DeployOutcome::Promoted { .. });
    let rolled_back = matches!(rolled, DeployOutcome::RolledBack { .. });
    LabWorkOutcome {
        unit: 3,
        metrics: vec![
            ("pipeline_waves".into(), 2.0),
            ("promoted".into(), f64::from(promoted)),
            ("rolled_back".into(), f64::from(rolled_back)),
        ],
        passed: promoted && rolled_back && wf_ok,
    }
}

/// Unit 4: memory math for the 13B model, bf16 training, and 4-way DDP
/// with ring all-reduce.
pub fn unit4_train_at_scale(seed: u64) -> LabWorkOutcome {
    let full_gb = training_memory_gb(&TrainingMemoryConfig::llm_13b_full_f32());
    let qlora_gb = training_memory_gb(&TrainingMemoryConfig::llm_13b_qlora());
    let data = food11(seed);
    // Single-GPU part: bf16 + (implicit) gradient accumulation.
    let mut rng = Rng::new(seed);
    let mut model = Mlp::new(&[8, 24, 11], &mut rng);
    let mut opt = Sgd::new(0.1, 0.9);
    let mut bf16_acc = 0.0;
    for _ in 0..20 {
        bf16_acc = train_epoch_bf16(&mut model, &data, &mut opt, 32, &mut rng).1;
    }
    // Multi-GPU part: DDP over 4 workers.
    let (_, ddp) = train_ddp(
        &DdpConfig {
            sizes: vec![8, 24, 11],
            workers: 4,
            epochs: 10,
            batch_size: 16,
            lr: 0.1,
            momentum: 0.9,
            algo: ReduceAlgo::Ring,
            seed,
        },
        &data,
    );
    let ddp_acc = ddp.history.last().map(|&(_, a)| a).unwrap_or(0.0);
    // The lecture's third paradigm: pipeline model parallelism.
    let (_, pipe) = train_pipeline(
        &PipelineConfig {
            sizes: vec![8, 24, 24, 11],
            stages: 3,
            micro_batches: 4,
            micro_batch_size: 16,
            steps: 120,
            lr: 0.1,
            seed,
        },
        &data,
    );
    LabWorkOutcome {
        unit: 4,
        metrics: vec![
            ("full_f32_memory_gb".into(), full_gb),
            ("qlora_memory_gb".into(), qlora_gb),
            ("bf16_accuracy".into(), bf16_acc),
            ("ddp_accuracy".into(), ddp_acc),
            ("pipeline_accuracy".into(), pipe.accuracy),
            ("pipeline_bubble".into(), pipe.bubble_fraction),
        ],
        passed: full_gb > 80.0
            && qlora_gb < 80.0
            && bf16_acc > 0.8
            && ddp_acc > 0.8
            && ddp.in_sync
            && pipe.accuracy > 0.8
            && (pipe.bubble_fraction - 2.0 / 6.0).abs() < 1e-9,
    }
}

/// Unit 5: experiment tracking + hyperparameter search, and cluster
/// scheduling with backfilling.
pub fn unit5_training_infra(seed: u64) -> LabWorkOutcome {
    let data = food11(seed);
    let tracker = ExperimentTracker::new();
    // Ray-Tune-style sweep, runs logged concurrently.
    let lrs = [0.01f32, 0.05, 0.1, 0.2];
    std::thread::scope(|s| {
        for (i, &lr) in lrs.iter().enumerate() {
            let tracker = tracker.clone();
            let data = data.clone();
            s.spawn(move || {
                let run = tracker.start_run("sweep");
                tracker.log_param(run, "lr", &lr.to_string());
                let mut rng = Rng::new(seed + i as u64);
                let mut model = Mlp::new(&[8, 24, 11], &mut rng);
                let mut opt = Sgd::new(lr, 0.9);
                for epoch in 0..15 {
                    let (loss, acc) = train_epoch(&mut model, &data, &mut opt, 32, &mut rng);
                    tracker.log_metric(run, "loss", epoch, loss as f64);
                    tracker.log_metric(run, "acc", epoch, acc);
                    tracker.log_system_metric(run, "gpu_util", epoch, 0.9);
                }
                tracker.end_run(run, RunStatus::Finished);
            });
        }
    });
    let best = tracker.best_run("sweep", "acc", true).expect("sweep ran");
    let best_acc = best.last_metric("acc").unwrap_or(0.0);
    // Ray part: hyperparameter search with ASHA on the task cluster.
    let tune_report = tune(
        &RayCluster::lab_cluster(),
        &tracker,
        &data,
        8,
        5,
        10,
        seed + 50,
    );
    // Scheduling part: backfill vs FCFS on an ML trace.
    let jobs = workload::ml_trace(300, 0.9, seed);
    let fcfs = SchedSim::new(Cluster::homogeneous(8, 4), Policy::Fcfs, Placement::Packed)
        .run(&jobs)
        .metrics();
    let easy = SchedSim::new(
        Cluster::homogeneous(8, 4),
        Policy::EasyBackfill,
        Placement::Packed,
    )
    .run(&jobs)
    .metrics();
    LabWorkOutcome {
        unit: 5,
        metrics: vec![
            ("best_sweep_accuracy".into(), best_acc),
            ("ray_tune_best_accuracy".into(), tune_report.best_accuracy),
            (
                "ray_tune_early_stopped".into(),
                tune_report.early_stopped as f64,
            ),
            ("fcfs_mean_wait_h".into(), fcfs.mean_wait_hours),
            ("backfill_mean_wait_h".into(), easy.mean_wait_hours),
        ],
        passed: best_acc > 0.85
            && tune_report.best_accuracy > 0.85
            && tune_report.early_stopped == 4
            && easy.mean_wait_hours <= fcfs.mean_wait_hours + 1e-9,
    }
}

/// Unit 6: model optimization (int8, fusion) + dynamic-batching serving.
pub fn unit6_serving(seed: u64) -> LabWorkOutcome {
    let data = food11(seed);
    let mut rng = Rng::new(seed);
    let mut model = Mlp::new(&[8, 32, 11], &mut rng);
    let mut opt = Sgd::new(0.1, 0.9);
    for _ in 0..25 {
        train_epoch(&mut model, &data, &mut opt, 32, &mut rng);
    }
    let fp32_acc = data.accuracy(&mut model);
    let q = QuantizedMlp::from_model(&model);
    let int8_acc = q.accuracy(&data);
    let compression = model_bytes(&model) as f64 / q.bytes() as f64;
    let fused_same = fused_predict(&model, &data.x) == model.predict(&data.x);
    let load = LoadSpec {
        rps: 150.0,
        requests: 2000,
    };
    let base = simulate(
        ModelProfile::fp32_server_gpu(),
        ServerConfig::baseline(),
        load,
        seed,
    );
    let batched = simulate(
        ModelProfile::int8_server_gpu(),
        ServerConfig {
            replicas: 2,
            max_batch: 8,
            max_queue_delay_ms: 5.0,
        },
        load,
        seed,
    );
    let edge = simulate(
        ModelProfile::int8_edge_pi5(),
        ServerConfig::baseline(),
        LoadSpec {
            rps: 2.0,
            requests: 100,
        },
        seed,
    );
    LabWorkOutcome {
        unit: 6,
        metrics: vec![
            ("fp32_accuracy".into(), fp32_acc),
            ("int8_accuracy".into(), int8_acc),
            ("compression_ratio".into(), compression),
            ("baseline_p95_ms".into(), base.p95_latency_ms),
            ("optimized_p95_ms".into(), batched.p95_latency_ms),
            ("edge_mean_ms".into(), edge.mean_latency_ms),
        ],
        passed: fp32_acc - int8_acc < 0.05
            && compression > 3.0
            && fused_same
            && batched.p95_latency_ms < base.p95_latency_ms
            && edge.mean_latency_ms > batched.mean_latency_ms,
    }
}

/// Unit 7: offline evaluation, behavioural tests, live monitoring with
/// alerts, and drift detection on a label-free signal.
pub fn unit7_monitoring(seed: u64) -> LabWorkOutcome {
    let data = food11(seed);
    let mut rng = Rng::new(seed);
    let mut model = Mlp::new(&[8, 32, 11], &mut rng);
    let mut opt = Sgd::new(0.1, 0.9);
    for _ in 0..25 {
        train_epoch(&mut model, &data, &mut opt, 32, &mut rng);
    }
    let report = evaluate(&mut model, &data);
    let behav = run_behavioral_suite(
        &mut model,
        &data,
        &[
            BehavioralTest::NoiseInvariance {
                noise: 0.05,
                max_flip_rate: 0.05,
            },
            BehavioralTest::Determinism,
        ],
        seed,
    );
    // Live monitoring: latency degrades, alert fires.
    let mut store = MetricsStore::new();
    for i in 0..200 {
        let lat = if i < 100 { 40.0 } else { 180.0 };
        store.record("latency_ms", i as f64 * 10.0, lat);
    }
    let alerts = evaluate_alerts(
        &store,
        &[AlertRule {
            name: "slo-breach".into(),
            metric: "latency_ms".into(),
            threshold: 100.0,
            cmp: Cmp::Above,
            window_ms: 300.0,
            min_samples: 5,
        }],
        1990.0,
    );
    // Drift: feed feature[0] of clean then shifted data.
    let reference: Vec<f64> = (0..data.len()).map(|i| data.x.get(i, 0) as f64).collect();
    let mut det = DriftDetector::new(reference, 100, 0.01);
    let shifted = data.shifted(2.0);
    let mut drift_seen = false;
    for i in 0..shifted.len() {
        if let Some(r) = det.push(shifted.x.get(i, 0) as f64) {
            if r.status == DriftStatus::Drift {
                drift_seen = true;
                break;
            }
        }
    }
    LabWorkOutcome {
        unit: 7,
        metrics: vec![
            ("accuracy".into(), report.accuracy),
            ("macro_f1".into(), report.macro_f1()),
            ("alerts_fired".into(), alerts.len() as f64),
            ("drift_detected".into(), f64::from(drift_seen)),
        ],
        passed: report.accuracy > 0.85
            && behav.iter().all(|b| b.passed)
            && alerts.len() == 1
            && drift_seen,
    }
}

/// Unit 8: ETL, streaming, and the feature store's point-in-time
/// consistency.
pub fn unit8_data(seed: u64) -> LabWorkOutcome {
    let mut rng = Rng::new(seed);
    let raw: Vec<Record> = (0..500)
        .map(|i| Record {
            entity: i % 50,
            ts_ms: i * 10,
            features: if i % 25 == 0 {
                vec![f64::NAN, 0.0]
            } else {
                vec![rng.normal() * 3.0 + 5.0, rng.normal()]
            },
            label: if i % 17 == 0 {
                None
            } else {
                Some((i % 11) as u32)
            },
        })
        .collect();
    let cleaned_input = raw.clone();
    let pipeline = EtlPipeline::new().stage("drop_invalid", drop_invalid);
    let (cleaned, lineage) = pipeline.run(cleaned_input);
    let (means, stds) = fit_normalizer(&cleaned);
    let normalized = normalize(cleaned.clone(), &means, &stds);
    let (post_means, _) = fit_normalizer(&normalized);
    // Streaming: 3 producers, 4 consumers, exactly-once.
    let batches: Vec<Vec<Record>> = cleaned
        .chunks(cleaned.len() / 3 + 1)
        .map(<[Record]>::to_vec)
        .collect();
    let n_in: usize = batches.iter().map(Vec::len).sum();
    let streamed = run_streaming_job(batches, 4, |r| r);
    // Feature store: point-in-time correctness.
    let mut fs = FeatureStore::new();
    fs.ingest_batch(normalized.clone());
    fs.materialize();
    let pit_ok = normalized
        .iter()
        .take(20)
        .all(|r| fs.get_historical(r.entity, r.ts_ms).is_some());
    let consistency = fs
        .get_online(normalized[0].entity)
        .and_then(|online| {
            let hist = fs.get_historical(normalized[0].entity, u64::MAX)?;
            Some(online == &hist.features)
        })
        .unwrap_or(false);
    LabWorkOutcome {
        unit: 8,
        metrics: vec![
            ("rows_in".into(), lineage[0].1 as f64),
            ("rows_clean".into(), cleaned.len() as f64),
            ("streamed".into(), streamed.len() as f64),
            ("post_norm_mean".into(), post_means[0].abs()),
        ],
        passed: cleaned.len() < raw.len()
            && post_means[0].abs() < 1e-9
            && streamed.len() == n_in
            && pit_ok
            && consistency,
    }
}

/// Run every unit's workload; returns one outcome per unit.
pub fn run_all_units(seed: u64) -> Vec<LabWorkOutcome> {
    run_all_units_with(seed, &opml_telemetry::Telemetry::disabled())
}

/// Run every unit's workload like [`run_all_units`], emitting one
/// `lab.unit` event per unit through `telemetry`.
///
/// The lab bodies run at laptop scale outside the semester clock, so
/// their events sit on the harness track at `SimTime::ZERO`.
pub fn run_all_units_with(seed: u64, telemetry: &opml_telemetry::Telemetry) -> Vec<LabWorkOutcome> {
    use opml_simkernel::SimTime;
    use opml_telemetry::{HARNESS_TRACK, TRACK_ATTR};
    type UnitBody = fn(u64) -> LabWorkOutcome;
    let units: [(UnitBody, u64); 7] = [
        (unit2_cloud_computing, seed),
        (unit3_mlops, seed),
        (unit4_train_at_scale, seed + 1),
        (unit5_training_infra, seed + 2),
        (unit6_serving, seed + 3),
        (unit7_monitoring, seed + 4),
        (unit8_data, seed + 5),
    ];
    let mut outcomes = Vec::with_capacity(units.len());
    for (body, unit_seed) in units {
        let outcome = body(unit_seed);
        telemetry.instant(SimTime::ZERO, "lab.unit", || {
            vec![
                (TRACK_ATTR, HARNESS_TRACK.into()),
                ("unit", u64::from(outcome.unit).into()),
                ("passed", outcome.passed.into()),
                ("metrics", outcome.metrics.len().into()),
            ]
        });
        telemetry.counter_add(
            if outcome.passed {
                "labwork.units_passed"
            } else {
                "labwork.units_failed"
            },
            1,
        );
        outcomes.push(outcome);
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit2_cloud_cluster_lifecycle() {
        let o = unit2_cloud_computing(99);
        assert!(o.passed, "{:?}", o.metrics);
    }

    #[test]
    fn unit3_pipeline_promotes_and_rolls_back() {
        assert!(unit3_mlops(100).passed);
    }

    #[test]
    fn unit4_memory_and_distributed_training() {
        let o = unit4_train_at_scale(101);
        assert!(o.passed, "{:?}", o.metrics);
    }

    #[test]
    fn unit5_tracking_and_scheduling() {
        let o = unit5_training_infra(102);
        assert!(o.passed, "{:?}", o.metrics);
    }

    #[test]
    fn unit6_serving_optimizations() {
        let o = unit6_serving(103);
        assert!(o.passed, "{:?}", o.metrics);
    }

    #[test]
    fn unit7_monitoring_and_drift() {
        let o = unit7_monitoring(104);
        assert!(o.passed, "{:?}", o.metrics);
    }

    #[test]
    fn unit8_data_systems() {
        let o = unit8_data(105);
        assert!(o.passed, "{:?}", o.metrics);
    }
}
