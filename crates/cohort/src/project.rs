//! Project-phase usage model (§3.11, §5).
//!
//! 191 students form 48 groups (47×4 + 1×3). Each group owns a
//! multi-service ML system for the last ~6.5 weeks of the semester.
//! Groups fall into intensity classes — §5: "some groups requiring
//! extremely large-scale data processing capabilities or extended time on
//! multi-GPU nodes for training, and others having less intensive
//! requirements."
//!
//! Calibration targets (§5 project totals): 70,259 VM hours, 5,446 GPU
//! hours, 975 bare-metal CPU hours, 175 edge hours, 9 TB block storage,
//! 1,541 GB object storage. Fig. 3's per-instance-type split is not
//! numerically given in the paper; the flavor mixes here are our
//! documented assumption (see EXPERIMENTS.md).

use crate::semester::{Ev, PlannedVm, PlannedVolume};
use opml_simkernel::{split_seed, EventQueue, Rng, SimDuration, SimTime};
use opml_testbed::flavor::FlavorId;
use opml_testbed::Cloud;
use serde::{Deserialize, Serialize};

/// Number of project groups (47 groups of 4 + 1 group of 3 = 191).
pub const GROUPS: u32 = 48;

/// §5 calibration targets.
pub mod targets {
    /// Total VM hours without GPU.
    pub const VM_HOURS: f64 = 70_259.0;
    /// Total GPU instance hours.
    pub const GPU_HOURS: f64 = 5_446.0;
    /// Bare-metal CPU hours.
    pub const BAREMETAL_HOURS: f64 = 975.0;
    /// Edge-device hours.
    pub const EDGE_HOURS: f64 = 175.0;
    /// Block storage (GB).
    pub const BLOCK_GB: f64 = 9_216.0;
    /// Object storage (GB).
    pub const OBJECT_GB: f64 = 1_541.0;
}

/// VM flavor mix by hours (our documented assumption for Fig. 3).
const VM_MIX: [(FlavorId, f64); 4] = [
    (FlavorId::M1Medium, 0.55),
    (FlavorId::M1Large, 0.30),
    (FlavorId::M1Xlarge, 0.10),
    (FlavorId::M1Small, 0.05),
];

/// GPU flavor mix by hours.
const GPU_MIX: [(FlavorId, f64); 6] = [
    (FlavorId::ComputeGigaio, 0.39),
    (FlavorId::ComputeLiqid, 0.39),
    (FlavorId::ComputeLiqid2, 0.07),
    (FlavorId::GpuMi100, 0.08),
    (FlavorId::GpuP100, 0.05),
    (FlavorId::GpuA100Pcie, 0.02),
];

/// A group's intensity class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Intensity {
    /// Lean system (×0.5 resources).
    Light,
    /// Typical system (×1.0).
    Medium,
    /// Data/GPU-heavy system (×1.6).
    Heavy,
}

impl Intensity {
    /// Sample with weights 0.30/0.45/0.25 (mean multiplier exactly 1.0).
    pub fn sample(rng: &mut Rng) -> Intensity {
        match rng.weighted_index(&[0.30, 0.45, 0.25]) {
            0 => Intensity::Light,
            1 => Intensity::Medium,
            _ => Intensity::Heavy,
        }
    }

    /// Resource multiplier.
    pub fn multiplier(self) -> f64 {
        match self {
            Intensity::Light => 0.5,
            Intensity::Medium => 1.0,
            Intensity::Heavy => 1.6,
        }
    }
}

/// Book project-phase usage for a contiguous range of **global** group
/// ids (the sharded semester gives each shard its own id range) into
/// the shard's event queue. Leases are admitted against the cloud's
/// reservation calendar here (reservations are future-dated); the
/// shard then executes the queue in time order.
///
/// Group `g`'s RNG stream, resource names (`proj-g<g>-…`) and per-group
/// budgets depend only on `g` and `seed` — never on the range bounds —
/// so planning groups `0..48` in one call or in two split calls against
/// independent campuses draws identical per-group decisions (only
/// calendar contention differs, and each shard owns its own calendar).
///
/// Same-minute events pop in push order, and projects queue kind by
/// kind: every group's VMs, then every lease, volume and bucket.
pub(crate) fn plan_projects_range(
    cloud: &mut Cloud,
    queue: &mut EventQueue<Ev>,
    window_start: SimTime,
    window_end: SimTime,
    seed: u64,
    groups: std::ops::Range<u32>,
) {
    assert!(window_end > window_start);
    let window_h = (window_end - window_start).as_hours_f64();
    let vm_weights: Vec<f64> = VM_MIX.iter().map(|&(_, w)| w).collect();
    let gpu_weights: Vec<f64> = GPU_MIX.iter().map(|&(_, w)| w).collect();
    let (mut leases, mut volumes, mut buckets) = (Vec::new(), Vec::new(), Vec::new());

    let mut total_block_gb = 0u64;
    for g in groups {
        let mut rng = Rng::new(split_seed(seed, 0x50_0000 + g as u64));
        let intensity = Intensity::sample(&mut rng);
        let m = intensity.multiplier();
        let gname = |suffix: &str| format!("proj-g{g:02}-{suffix}");
        // Reserve one `hours`-long session under the name `kind`, and
        // keep its lease-up, which runs as `kind<index>`. A session the
        // calendar cannot place, or cannot end by `latest_end`, is
        // skipped.
        let mut book = |kind: &str,
                        index: u32,
                        flavor: FlavorId,
                        preferred: SimTime,
                        hours: f64,
                        latest_end: Option<SimTime>| {
            let dur = SimDuration::from_hours_f64(hours);
            let Some(start) = cloud.earliest_slot(flavor, 1, dur, preferred) else {
                return;
            };
            if latest_end.is_some_and(|end| start + dur > end) {
                return;
            }
            // Slot search admitted this window, so the reserve should
            // succeed; if it races anything, skip the session rather
            // than abort the plan.
            if let Ok(lease) = cloud.reserve(flavor, 1, start, start + dur, &gname(kind)) {
                let ev = Ev::LeaseUp {
                    name: gname(&format!("{kind}{index}")),
                    lease: lease.id,
                    fip_until: start + dur,
                    attempt: 0,
                };
                leases.push((start, ev));
            }
        };

        // ---- VM services -------------------------------------------
        let mut vm_budget = targets::VM_HOURS / GROUPS as f64 * m * rng.lognormal(-0.06125, 0.35);
        let mut svc = 0;
        while vm_budget > 1.0 {
            let hours = rng.range_f64(150.0, 900.0).min(vm_budget).min(window_h);
            // detlint::allow(DL008): weighted_index returns an index < vm_weights.len() == VM_MIX.len()
            let flavor = VM_MIX[rng.weighted_index(&vm_weights)].0;
            let latest_start = window_h - hours;
            let start_h = rng.range_f64(0.0, latest_start.max(1e-6));
            queue.push(
                window_start + SimDuration::from_hours_f64(start_h),
                Ev::VmUp(PlannedVm {
                    name: gname(&format!("svc{svc}")),
                    flavor,
                    node_count: 1,
                    wall: SimDuration::from_hours_f64(hours),
                    fip: svc % 3 == 0, // every third service is public-facing
                    network: svc == 0, // one private network per group
                    attempts: 0,
                    fault_attempts: 0,
                }),
            );
            vm_budget -= hours;
            svc += 1;
        }

        // ---- GPU training sessions ---------------------------------
        let mut gpu_budget = targets::GPU_HOURS / GROUPS as f64 * m * rng.lognormal(-0.125, 0.5);
        let mut session = 0;
        while gpu_budget > 0.5 {
            let hours = rng.range_f64(2.0, 8.0).min(gpu_budget.max(2.0));
            // detlint::allow(DL008): weighted_index returns an index < gpu_weights.len() == GPU_MIX.len()
            let flavor = GPU_MIX[rng.weighted_index(&gpu_weights)].0;
            let preferred =
                window_start + SimDuration::from_hours_f64(rng.range_f64(0.0, window_h - hours));
            // Only training must end within a week of the window.
            let latest_end = window_end + SimDuration::weeks(1);
            book("train", session, flavor, preferred, hours, Some(latest_end));
            gpu_budget -= hours;
            session += 1;
        }

        // ---- Bare-metal data processing (≈25% of groups) -----------
        if rng.chance(0.25) {
            let mut bm_budget =
                targets::BAREMETAL_HOURS / GROUPS as f64 / 0.25 * m * rng.lognormal(-0.08, 0.4);
            let mut batch = 0;
            while bm_budget > 1.0 {
                let hours = rng.range_f64(4.0, 12.0).min(bm_budget.max(4.0));
                let preferred = window_start
                    + SimDuration::from_hours_f64(rng.range_f64(0.0, window_h - hours));
                let flavor = FlavorId::ComputeCascadeLake;
                book("etl", batch, flavor, preferred, hours, None);
                bm_budget -= hours;
                batch += 1;
            }
        }

        // ---- Edge deployments (≈20% of groups) ---------------------
        if rng.chance(0.20) {
            let mut edge_budget =
                targets::EDGE_HOURS / GROUPS as f64 / 0.20 * rng.lognormal(-0.08, 0.4);
            let mut dev = 0;
            while edge_budget > 0.5 {
                let hours = rng.range_f64(2.0, 5.0).min(edge_budget.max(2.0));
                let preferred = window_start
                    + SimDuration::from_hours_f64(rng.range_f64(0.0, window_h - hours));
                book("edge", dev, FlavorId::RaspberryPi5, preferred, hours, None);
                edge_budget -= hours;
                dev += 1;
            }
        }

        // ---- Storage ------------------------------------------------
        let want_gb = (targets::BLOCK_GB / GROUPS as f64 * m * rng.lognormal(-0.08, 0.4)) as u64;
        // Respect the 10 TB project quota across all groups.
        let gb = want_gb.min(10_240u64.saturating_sub(total_block_gb)).max(2);
        total_block_gb += gb;
        volumes.push((
            window_start + SimDuration::hours(rng.range_u64(0, 48)),
            Ev::VolUp(PlannedVolume {
                name: gname("data"),
                gb,
                end: window_end,
                attempts: 0,
            }),
        ));
        let bucket_gb = targets::OBJECT_GB / GROUPS as f64 * m * rng.lognormal(-0.08, 0.4);
        let bucket_at = window_start + SimDuration::hours(rng.range_u64(0, 72));
        let bucket = Ev::BucketPut {
            name: gname("bucket"),
            gb: bucket_gb,
        };
        buckets.push((bucket_at, bucket));
    }
    // The VMs are already queued; the other kinds follow in turn.
    for (at, ev) in leases.into_iter().chain(volumes).chain(buckets) {
        queue.push(at, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plan all groups against a fresh campus and pop the queue in time
    /// order.
    fn plan_fixture(seed: u64) -> (Cloud, Vec<(SimTime, Ev)>) {
        let mut cloud = Cloud::paper_course();
        let mut queue = EventQueue::new();
        let start = SimTime::at(8, 3, 12, 0);
        let end = SimTime::at(15, 0, 0, 0);
        plan_projects_range(&mut cloud, &mut queue, start, end, seed, 0..GROUPS);
        let events = std::iter::from_fn(|| queue.pop()).collect();
        (cloud, events)
    }

    fn vms(events: &[(SimTime, Ev)]) -> impl Iterator<Item = &PlannedVm> {
        events.iter().filter_map(|(_, ev)| match ev {
            Ev::VmUp(vm) => Some(vm),
            _ => None,
        })
    }

    fn volumes(events: &[(SimTime, Ev)]) -> impl Iterator<Item = &PlannedVolume> {
        events.iter().filter_map(|(_, ev)| match ev {
            Ev::VolUp(v) => Some(v),
            _ => None,
        })
    }

    #[test]
    fn vm_hours_near_target() {
        let (_, events) = plan_fixture(1);
        let total: f64 = vms(&events).map(|v| v.wall.as_hours_f64()).sum();
        assert!(
            (total / targets::VM_HOURS - 1.0).abs() < 0.15,
            "VM hours {total:.0} vs target {}",
            targets::VM_HOURS
        );
    }

    #[test]
    fn gpu_hours_near_target() {
        let (_, events) = plan_fixture(2);
        let gpu: f64 = events
            .iter()
            .filter_map(|(start, ev)| match ev {
                Ev::LeaseUp {
                    name, fip_until, ..
                } if name.contains("train") => Some((*fip_until - *start).as_hours_f64()),
                _ => None,
            })
            .sum();
        assert!(
            (gpu / targets::GPU_HOURS - 1.0).abs() < 0.25,
            "GPU hours {gpu:.0} vs target {}",
            targets::GPU_HOURS
        );
    }

    #[test]
    fn storage_near_targets_and_within_quota() {
        let (_, events) = plan_fixture(3);
        let block: u64 = volumes(&events).map(|v| v.gb).sum();
        assert!(block <= 10_240, "block {block} exceeds quota");
        assert!(
            (block as f64 / targets::BLOCK_GB - 1.0).abs() < 0.25,
            "block {block} vs target {}",
            targets::BLOCK_GB
        );
        let object: f64 = events
            .iter()
            .filter_map(|(_, ev)| match ev {
                Ev::BucketPut { gb, .. } => Some(gb),
                _ => None,
            })
            .sum();
        assert!(
            (object / targets::OBJECT_GB - 1.0).abs() < 0.25,
            "object {object:.0} vs target {}",
            targets::OBJECT_GB
        );
    }

    #[test]
    fn every_group_plans_something() {
        let (_, events) = plan_fixture(4);
        for g in 0..GROUPS {
            let prefix = format!("proj-g{g:02}-");
            assert!(
                vms(&events).any(|v| v.name.starts_with(&prefix)),
                "group {g} has no VM services"
            );
            assert!(
                volumes(&events).any(|v| v.name.starts_with(&prefix)),
                "group {g} has no volume"
            );
        }
    }

    #[test]
    fn leases_admitted_in_calendar() {
        let (cloud, events) = plan_fixture(5);
        for (_, ev) in &events {
            if let Ev::LeaseUp { name, lease, .. } = ev {
                assert!(
                    cloud.calendar().get(*lease).is_some(),
                    "{name} lease missing"
                );
            }
        }
    }

    #[test]
    fn intensity_multipliers_average_to_one() {
        let mut rng = Rng::new(9);
        let mean: f64 = (0..50_000)
            .map(|_| Intensity::sample(&mut rng).multiplier())
            .sum::<f64>()
            / 50_000.0;
        assert!((mean - 1.0).abs() < 0.01, "mean multiplier {mean}");
    }

    #[test]
    fn deterministic() {
        let (_, a) = plan_fixture(6);
        let (_, b) = plan_fixture(6);
        assert_eq!(a.len(), b.len());
        let key = |events: &[(SimTime, Ev)]| -> Vec<(String, u64)> {
            vms(events).map(|v| (v.name.clone(), v.wall.0)).collect()
        };
        assert_eq!(key(&a), key(&b));
    }
}
