//! The student behaviour model, calibrated to §5 of the paper.
//!
//! ## The mechanism
//!
//! VM instances on the testbed are **not auto-terminated**, so a lab's
//! wall-clock footprint is `work + overhang`: the hands-on time plus
//! however long the deployment lingers afterwards — "sometimes
//! intentionally (to avoid repeating lengthy setup), other times due to
//! neglect" (§5). Bare-metal/edge labs auto-terminate at slot end, so
//! their footprint is a whole number of 2–3-hour slots.
//!
//! ## The model
//!
//! Each student carries two latent traits, drawn once and shared across
//! all labs (this cross-lab correlation is what produces Fig. 2's heavy
//! per-student tail):
//!
//! * `tidy` (P = [`P_TIDY`]): tears deployments down promptly —
//!   overhang ≈ 0. §5 reports 75% of students exceeding the expected AWS
//!   cost, i.e. roughly a quarter did not.
//! * `neglect ∈ (0,1)` (Beta(2,3)): scales how long non-tidy students
//!   leave VMs running.
//!
//! Per (student, lab), `overhang = scale·neglect·L` with `L` lognormal
//! (σ = 1.0, mean 1). The per-lab `scale` is set in closed form so the
//! cohort-mean wall duration hits the paper's observed per-student mean
//! for that lab (Table 1 hours ÷ 191 ÷ node count) — see
//! [`observed_mean_wall`].
//!
//! A shard takes each student's draws in one call, `sample_student`,
//! before it books anything.

use crate::labspec::LabSpec;
use opml_simkernel::{split_seed, Rng, SimDuration, SimTime};
use opml_testbed::FlavorId;
use serde::{Deserialize, Serialize};

/// Probability a student is tidy (prompt teardown).
pub const P_TIDY: f64 = 0.25;
/// Residual overhang factor for tidy students (they still take a few
/// minutes to tear down).
pub const TIDY_OVERHANG: f64 = 0.05;
/// Beta(α, β) for the neglect trait.
pub const NEGLECT_ALPHA: f64 = 2.0;
/// Beta β parameter.
pub const NEGLECT_BETA: f64 = 3.0;
/// σ of the per-(student, lab) lognormal overhang multiplier.
pub const OVERHANG_SIGMA: f64 = 1.0;
/// σ of the work-time lognormal (how much hands-on time varies).
pub const WORK_SIGMA: f64 = 0.25;
/// Probability a student completes any given leased lab at all.
pub const P_LEASED_PARTICIPATION: f64 = 0.92;
/// Mean work time as a multiple of the expected duration.
pub const WORK_MEAN_FACTOR: f64 = 1.05;

/// Observed mean wall-clock hours per student for each VM lab, derived
/// from Table 1 (`instance hours ÷ 191 ÷ node count`).
pub fn observed_mean_wall(tag: &str) -> Option<f64> {
    Some(match tag {
        "lab1" => 2_620.0 / 191.0,        // 13.7 h
        "lab2" => 52_332.0 / 191.0 / 3.0, // 91.3 h
        "lab3" => 32_344.0 / 191.0 / 3.0, // 56.4 h
        "lab7" => 9_889.0 / 191.0,        // 51.8 h
        "lab8" => 8_693.0 / 191.0,        // 45.5 h
        _ => return None,
    })
}

/// Expected value of the overhang weight `w = tidy·TIDY_OVERHANG +
/// (1−tidy)·E[neglect]·E[L]` used to normalize per-lab scales.
fn mean_overhang_weight() -> f64 {
    let mean_neglect = NEGLECT_ALPHA / (NEGLECT_ALPHA + NEGLECT_BETA);
    P_TIDY * TIDY_OVERHANG + (1.0 - P_TIDY) * mean_neglect
}

/// A student's latent traits and id.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudentProfile {
    /// Student index (0-based).
    pub id: u32,
    /// Tears deployments down promptly.
    pub tidy: bool,
    /// Neglect propensity in (0, 1).
    pub neglect: f64,
    /// Work-speed multiplier (applies to hands-on time).
    pub speed: f64,
}

impl StudentProfile {
    /// Sample a student's traits from their own stream.
    pub fn sample(id: u32, rng: &mut Rng) -> StudentProfile {
        StudentProfile {
            id,
            tidy: rng.chance(P_TIDY),
            neglect: rng.beta(NEGLECT_ALPHA, NEGLECT_BETA),
            speed: rng.lognormal(-WORK_SIGMA * WORK_SIGMA / 2.0, WORK_SIGMA),
        }
    }

    /// Wall-clock hours this student's deployment of a **VM lab** lives,
    /// sampled from the calibrated model.
    pub fn vm_wall_hours(&self, spec: &LabSpec, rng: &mut Rng) -> f64 {
        debug_assert!(!spec.is_leased(), "vm_wall_hours on a leased lab");
        let target = observed_mean_wall(spec.tag).unwrap_or(spec.expected_hours * 2.0);
        let work = spec.expected_hours
            * WORK_MEAN_FACTOR
            * self.speed
            * rng.lognormal(-WORK_SIGMA * WORK_SIGMA / 2.0, WORK_SIGMA);
        let overhang_budget = (target - spec.expected_hours * WORK_MEAN_FACTOR).max(0.0);
        let weight = if self.tidy {
            TIDY_OVERHANG
        } else {
            self.neglect * rng.lognormal(-OVERHANG_SIGMA * OVERHANG_SIGMA / 2.0, OVERHANG_SIGMA)
        };
        let overhang = overhang_budget * weight / mean_overhang_weight();
        work + overhang
    }

    /// Number of reservation slots this student books for a **leased
    /// lab** (0 = did not complete this lab), reproducing the Fig. 1(b)
    /// patterns:
    ///
    /// * each leased lab is skipped by ≈8% of students (labs are graded
    ///   on completion, but not everyone completes every one);
    /// * `lab4-single` / `lab5-single`: §5 — "students could optionally
    ///   complete the single-GPU part on the same instance used for the
    ///   multi-GPU part"; most absorb it, so only a minority book a
    ///   separate slot;
    /// * `lab5-multi`: hyperparameter-search re-booking is concentrated
    ///   in a non-tidy "heavy tuner" minority who come back for several
    ///   Ray Tune sessions (cohort mean ≈ 2.3 slots);
    /// * other leased labs: one slot, with extra sessions again
    ///   concentrated in a non-tidy minority.
    ///
    /// The per-tag constants are calibrated so the cohort-mean slots per
    /// *enrolled* student equal Table 1 hours ÷ 191 ÷ slot length.
    pub fn slots_booked(&self, spec: &LabSpec, rng: &mut Rng) -> u32 {
        debug_assert!(spec.is_leased(), "slots_booked on a VM lab");
        if !rng.chance(P_LEASED_PARTICIPATION) {
            return 0;
        }
        // Extra sessions belong to non-tidy students only; probabilities
        // are scaled by 1/(1−P_TIDY) to keep the cohort means fixed.
        let extra_ok = !self.tidy;
        match spec.tag {
            "lab4-multi" => 1 + u32::from(rng.chance(0.073)),
            "lab4-single" => u32::from(rng.chance(0.62)),
            "lab5-multi" => {
                if extra_ok && rng.chance(0.493) {
                    // Heavy tuner: 1 + Geometric-ish extra sessions.
                    let mut extra = 1;
                    while extra < 12 && rng.chance(0.771) {
                        extra += 1;
                    }
                    1 + extra
                } else {
                    1
                }
            }
            "lab5-single" => u32::from(rng.chance(0.304)),
            "lab6-opt" => {
                1 + if extra_ok && rng.chance(0.293) {
                    1 + u32::from(rng.chance(0.29))
                } else {
                    0
                }
            }
            "lab6-edge" => {
                1 + if extra_ok && rng.chance(0.334) {
                    1 + u32::from(rng.chance(0.60))
                } else {
                    0
                }
            }
            "lab6-system" => {
                1 + if extra_ok && rng.chance(0.321) {
                    1 + u32::from(rng.chance(0.41))
                } else {
                    0
                }
            }
            _ => {
                // Unknown tags are a programming error, not a runtime
                // failure path: flag in debug builds, book one slot.
                debug_assert!(false, "unknown leased lab {}", spec.tag);
                1
            }
        }
    }

    /// Pick the hardware pool for a leased lab by the spec's weights.
    pub fn pick_flavor(&self, spec: &LabSpec, rng: &mut Rng) -> opml_testbed::FlavorId {
        let weights = spec.flavors.iter().map(|(_, w)| w);
        // detlint::allow(DL008): weighted_index returns an index < flavors.len()
        spec.flavors[rng.weighted_index(weights)].0
    }

    /// Hour offset within the release week when this student starts the
    /// lab (uniform over the first five days).
    pub fn start_offset_hours(&self, rng: &mut Rng) -> f64 {
        rng.range_f64(0.0, 120.0)
    }
}

/// One step of a student's semester: drawn, not yet booked.
#[derive(Debug)]
pub(crate) enum Intent<'s> {
    /// Deploy VM lab `spec` at `at` for `wall`.
    Vm {
        spec: &'s LabSpec,
        at: SimTime,
        wall: SimDuration,
    },
    /// Start a leased lab: its first session searches from `at`.
    Leased { at: SimTime },
    /// Book one session of leased lab `spec` on `flavor`.
    Session { spec: &'s LabSpec, flavor: FlavorId },
}

/// Draw every behaviour choice student `sid` makes, in lab order, into
/// `intents` (cleared first). Only the student's own stream is read, so
/// no draw can depend on what booking later finds: a session the
/// calendar skips has still drawn its flavor. VM walls are capped at
/// `vm_cap` (the auto-termination ablation).
pub(crate) fn sample_student<'s>(
    specs: &'s [LabSpec],
    seed: u64,
    sid: u32,
    vm_cap: Option<SimDuration>,
    intents: &mut Vec<Intent<'s>>,
) {
    intents.clear();
    let mut rng = Rng::new(split_seed(seed, u64::from(sid)));
    let profile = StudentProfile::sample(sid, &mut rng);
    for spec in specs {
        let week_start = SimTime::at(spec.week, 0, 0, 0);
        let at = week_start + SimDuration::from_hours_f64(profile.start_offset_hours(&mut rng));
        if spec.is_leased() {
            intents.push(Intent::Leased { at });
            for _ in 0..profile.slots_booked(spec, &mut rng) {
                let flavor = profile.pick_flavor(spec, &mut rng);
                intents.push(Intent::Session { spec, flavor });
            }
        } else {
            let mut wall = SimDuration::from_hours_f64(profile.vm_wall_hours(spec, &mut rng));
            if let Some(cap) = vm_cap {
                wall = wall.min(cap);
            }
            intents.push(Intent::Vm { spec, at, wall });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labspec::spec_for;
    use opml_simkernel::split_seed;

    fn cohort(n: usize, seed: u64) -> Vec<(StudentProfile, Rng)> {
        (0..n)
            .map(|i| {
                let mut rng = Rng::new(split_seed(seed, i as u64));
                let p = StudentProfile::sample(i as u32, &mut rng);
                (p, rng)
            })
            .collect()
    }

    #[test]
    fn traits_are_plausible() {
        let students = cohort(2000, 1);
        let tidy = students.iter().filter(|(p, _)| p.tidy).count() as f64 / 2000.0;
        assert!((tidy - P_TIDY).abs() < 0.03, "tidy fraction {tidy}");
        let mean_neglect: f64 = students.iter().map(|(p, _)| p.neglect).sum::<f64>() / 2000.0;
        assert!(
            (mean_neglect - 0.4).abs() < 0.02,
            "mean neglect {mean_neglect}"
        );
    }

    #[test]
    fn vm_wall_means_hit_calibration_targets() {
        for tag in ["lab1", "lab2", "lab3", "lab7", "lab8"] {
            let spec = spec_for(tag).unwrap();
            let target = observed_mean_wall(tag).unwrap();
            let mut total = 0.0;
            let n = 20_000;
            for (p, mut rng) in cohort(n, 42) {
                total += p.vm_wall_hours(&spec, &mut rng);
            }
            let mean = total / n as f64;
            assert!(
                (mean / target - 1.0).abs() < 0.05,
                "{tag}: mean {mean:.1} vs target {target:.1}"
            );
        }
    }

    #[test]
    fn wall_distribution_is_heavy_tailed() {
        let spec = spec_for("lab2").unwrap();
        let mut walls: Vec<f64> = cohort(191, 7)
            .into_iter()
            .map(|(p, mut rng)| p.vm_wall_hours(&spec, &mut rng))
            .collect();
        walls.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        let max = walls[walls.len() - 1];
        assert!(max / mean > 3.0, "tail too light: max/mean {}", max / mean);
        // Tidy students keep it close to the expected duration.
        assert!(walls[9] < 3.0 * spec.expected_hours, "p5 {}", walls[9]);
    }

    #[test]
    fn slot_counts_hit_table1_ratios() {
        let n = 20_000;
        let targets = [
            ("lab4-multi", (167.0 + 210.0) / 191.0 / 2.0), // slots of 2 h
            ("lab4-single", 218.0 / 191.0 / 2.0),
            ("lab5-multi", (330.0 + 1002.0) / 191.0 / 3.0),
            ("lab5-single", (28.0 + 130.0) / 191.0 / 3.0),
            ("lab6-opt", (215.0 + 460.0) / 191.0 / 3.0),
            ("lab6-edge", 492.0 / 191.0 / 2.0),
            ("lab6-system", 707.0 / 191.0 / 3.0),
        ];
        for (tag, target_slots) in targets {
            let spec = spec_for(tag).unwrap();
            let mean: f64 = cohort(n, 13)
                .into_iter()
                .map(|(p, mut rng)| p.slots_booked(&spec, &mut rng) as f64)
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean / target_slots - 1.0).abs() < 0.10,
                "{tag}: mean slots {mean:.2} vs target {target_slots:.2}"
            );
        }
    }

    #[test]
    fn flavor_pool_split_matches_weights() {
        let spec = spec_for("lab5-multi").unwrap();
        let n = 20_000;
        let mi100 = cohort(n, 17)
            .into_iter()
            .filter(|_| true)
            .map(|(p, mut rng)| p.pick_flavor(&spec, &mut rng))
            .filter(|&f| f == opml_testbed::FlavorId::GpuMi100)
            .count() as f64
            / n as f64;
        assert!((mi100 - 0.75).abs() < 0.02, "mi100 share {mi100}");
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = spec_for("lab7").unwrap();
        let run = || -> Vec<u64> {
            cohort(50, 3)
                .into_iter()
                .map(|(p, mut rng)| (p.vm_wall_hours(&spec, &mut rng) * 1000.0) as u64)
                .collect()
        };
        assert_eq!(run(), run());
    }
}
