//! The seeded fault plan: replay-stable injection decisions.

use opml_simkernel::{split_seed, Rng};
use serde::{Deserialize, Serialize};

/// Where a fault can be injected — the testbed seams the semester and
/// scheduler simulations exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultKind {
    /// `create_instance` fails transiently at deploy time.
    LaunchFail,
    /// A running instance dies partway through its planned wall time.
    InstanceCrash,
    /// Floating-IP allocation fails (deployment degrades to no public IP).
    FipFail,
    /// Block-volume attach fails transiently.
    VolumeAttach,
    /// An admitted lease is revoked before its window ends.
    LeaseRevoke,
    /// A running scheduler job is preempted (spot reclaim).
    SpotPreempt,
}

impl FaultKind {
    /// All kinds, in stable order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::LaunchFail,
        FaultKind::InstanceCrash,
        FaultKind::FipFail,
        FaultKind::VolumeAttach,
        FaultKind::LeaseRevoke,
        FaultKind::SpotPreempt,
    ];

    /// Stable telemetry name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::LaunchFail => "launch_fail",
            FaultKind::InstanceCrash => "instance_crash",
            FaultKind::FipFail => "fip_fail",
            FaultKind::VolumeAttach => "volume_attach",
            FaultKind::LeaseRevoke => "lease_revoke",
            FaultKind::SpotPreempt => "spot_preempt",
        }
    }

    /// Stable stream tag: decorrelates the per-kind decision streams.
    fn tag(self) -> u64 {
        match self {
            FaultKind::LaunchFail => 0xFA01,
            FaultKind::InstanceCrash => 0xFA02,
            FaultKind::FipFail => 0xFA03,
            FaultKind::VolumeAttach => 0xFA04,
            FaultKind::LeaseRevoke => 0xFA05,
            FaultKind::SpotPreempt => 0xFA06,
        }
    }
}

/// An immutable, seeded fault plan.
///
/// Every decision is drawn from a stream derived from the plan seed, the
/// fault kind, a caller-supplied stable **site key** (hash the resource
/// name with [`site_key`]), and an attempt number. Two queries with the
/// same arguments always agree; queries at different sites never share
/// state, so adding or removing one site cannot perturb another. Every
/// kind fires at the plan's one rate; the kind only picks the stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
}

impl FaultPlan {
    /// A plan with the given seed, firing every kind at `rate`
    /// (clamped to `[0,1]`).
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The inert plan: never fires, never draws.
    pub fn none() -> FaultPlan {
        FaultPlan::new(0, 0.0)
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no query can ever fire (the rate is zero).
    pub fn is_inert(&self) -> bool {
        self.rate <= 0.0
    }

    /// The decision stream for `(kind, site, attempt)`.
    fn stream(&self, kind: FaultKind, site: u64, attempt: u32) -> Rng {
        Rng::for_stream(split_seed(self.seed ^ kind.tag(), site), u64::from(attempt))
    }

    /// Does a fault of `kind` fire at this site/attempt?
    ///
    /// Zero-rate queries return `false` without constructing a stream, so
    /// an inert plan is free and byte-identical to no plan.
    pub fn fires(&self, kind: FaultKind, site: u64, attempt: u32) -> bool {
        if self.is_inert() {
            return false;
        }
        self.stream(kind, site, attempt).chance(self.rate)
    }

    /// A uniform draw in `[lo, hi)` on a stream decorrelated from the
    /// `fires` decision at the same site (used for crash/preemption
    /// points and revocation instants).
    pub fn fraction(&self, kind: FaultKind, site: u64, attempt: u32, lo: f64, hi: f64) -> f64 {
        let mut rng = self.stream(kind, site, attempt);
        // Burn the `fires` draw so the fraction is independent of it.
        let _ = rng.f64();
        rng.range_f64(lo, hi)
    }
}

/// Stable 64-bit site key from a resource name (FNV-1a).
///
/// Deterministic across runs, platforms, and toolchains — unlike
/// `DefaultHasher`, whose per-process keys detlint bans (DL001).
#[inline]
pub fn site_key(name: &str) -> u64 {
    opml_simkernel::fnv1a64(name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        for &kind in &FaultKind::ALL {
            for site in 0..100 {
                assert!(!plan.fires(kind, site, 0));
            }
        }
    }

    #[test]
    fn full_rate_always_fires() {
        let plan = FaultPlan::new(7, 1.0);
        for &kind in &FaultKind::ALL {
            assert!(plan.fires(kind, 42, 3));
        }
    }

    #[test]
    fn decisions_are_replay_stable() {
        let plan = FaultPlan::new(99, 0.3);
        for &kind in &FaultKind::ALL {
            for site in 0..200u64 {
                let a = plan.fires(kind, site, 1);
                let b = plan.fires(kind, site, 1);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn sites_and_attempts_decorrelate() {
        let plan = FaultPlan::new(5, 0.5);
        let hits = |f: &dyn Fn(u64) -> bool| (0..1000).filter(|&i| f(i)).count();
        let by_site = hits(&|i| plan.fires(FaultKind::LaunchFail, i, 0));
        let by_attempt = hits(&|i| plan.fires(FaultKind::LaunchFail, 7, i as u32));
        // Roughly half fire either way; neither collapses to all/none.
        assert!((300..700).contains(&by_site), "{by_site}");
        assert!((300..700).contains(&by_attempt), "{by_attempt}");
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let plan = FaultPlan::new(11, 0.2);
        let n = 20_000;
        let fired = (0..n)
            .filter(|&i| plan.fires(FaultKind::InstanceCrash, i, 0))
            .count();
        let observed = fired as f64 / n as f64;
        assert!((observed - 0.2).abs() < 0.02, "observed {observed}");
    }

    #[test]
    fn fraction_in_bounds_and_stable() {
        let plan = FaultPlan::new(13, 0.5);
        for site in 0..500 {
            let f = plan.fraction(FaultKind::InstanceCrash, site, 0, 0.05, 0.95);
            assert!((0.05..0.95).contains(&f));
            assert_eq!(
                f,
                plan.fraction(FaultKind::InstanceCrash, site, 0, 0.05, 0.95)
            );
        }
    }

    #[test]
    fn site_key_is_stable_and_spread() {
        assert_eq!(site_key("lab2-s003"), site_key("lab2-s003"));
        assert_ne!(site_key("lab2-s003"), site_key("lab2-s004"));
        // Pin the FNV constant so the stream never silently changes.
        assert_eq!(site_key(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn serialization_is_stable() {
        let plan = FaultPlan::new(21, 0.1);
        let a = serde_json::to_string(&plan).expect("serialize");
        let b = serde_json::to_string(&plan.clone()).expect("serialize");
        assert_eq!(a, b);
        assert!(a.contains("\"seed\":21"));
    }
}
