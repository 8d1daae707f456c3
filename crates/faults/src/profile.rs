//! The serializable fault configuration carried by `SemesterConfig`
//! (one injection rate), the recovery policy derived from it, and the
//! recovery counters a simulation reports back.

use crate::breaker::CircuitBreaker;
use crate::retry::RetryPolicy;
use opml_simkernel::SimDuration;
use serde::{Deserialize, Serialize};

/// Probability that a student whose lab instance crashed walks away
/// **without** releasing what it still holds: the paper's signature
/// cost pathology (leaked instances, IPs and volumes metered until
/// semester finalize).
pub const LEAK_PROB: f64 = 0.35;

/// How a semester fails: every fault kind is injected at one rate.
///
/// Recovery is not configured; it follows from the rate. Quota denials
/// retry on the legacy fixed schedule ([`FaultProfile::quota_retry`]),
/// injected faults on a jittered exponential one
/// ([`FaultProfile::fault_retry`]), a quota breaker arms only when
/// something can be injected ([`FaultProfile::breaker`]), and a crashed
/// lab is walked away from with probability [`LEAK_PROB`].
///
/// [`FaultProfile::none`] is the exact pre-fault behaviour: no
/// injections, the fixed 4-hour quota retry, no breaker and no leaks —
/// a semester run with it is byte-identical to one run before this
/// module existed. It equals `chaos(0.0)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Injection probability for every fault kind, in `[0,1]`.
    pub rate: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

impl FaultProfile {
    /// The fault-free profile reproducing the legacy semester exactly.
    pub fn none() -> FaultProfile {
        FaultProfile::chaos(0.0)
    }

    /// Every kind injected at `rate` (clamped to `[0,1]`).
    pub fn chaos(rate: f64) -> FaultProfile {
        FaultProfile {
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// True when this profile cannot change a fault-free run: nothing
    /// is injected, so no breaker arms and no crash can leak.
    pub fn is_inert(&self) -> bool {
        self.rate <= 0.0
    }

    /// Retry schedule for quota denials: the legacy fixed 4 hours, 100
    /// tries, which draws nothing.
    pub fn quota_retry(&self) -> RetryPolicy {
        RetryPolicy::fixed(SimDuration::hours(4), 100)
    }

    /// Retry schedule for injected transient faults: 30 min doubling to
    /// an 8-hour cap, 5 attempts, 50% jitter, two-day budget.
    pub fn fault_retry(&self) -> RetryPolicy {
        RetryPolicy::exponential(SimDuration::minutes(30), 2.0, SimDuration::hours(8), 5, 0.5)
            .with_deadline(SimDuration::days(2))
    }

    /// The quota breaker: 8 consecutive denials open it for 12 hours.
    /// It would reshape the quota-retry schedule, so it arms only when
    /// something can be injected.
    pub fn breaker(&self) -> Option<CircuitBreaker> {
        (!self.is_inert()).then(|| CircuitBreaker::new(8, SimDuration::hours(12)))
    }
}

/// Counters describing what the failure path did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Faults injected (all kinds).
    pub injected: u64,
    /// Retry attempts scheduled (quota and fault causes).
    pub retries: u64,
    /// Operations abandoned after exhausting their retry policy.
    pub abandoned: u64,
    /// Deployments leaked by a walk-away student (metered to finalize).
    pub leaked: u64,
    /// Lease slots successfully rebooked after a revocation.
    pub requeued: u64,
    /// Deployments that degraded (e.g. continued without a floating IP).
    pub degraded: u64,
    /// Times the quota circuit breaker tripped open.
    pub breaker_trips: u64,
}

impl FaultStats {
    /// Sum of all counters (quick "anything happened?" check).
    pub fn total(&self) -> u64 {
        self.injected
            + self.retries
            + self.abandoned
            + self.leaked
            + self.requeued
            + self.degraded
            + self.breaker_trips
    }

    /// Fold another run's counters into this one (fieldwise sum).
    ///
    /// This is the shard-merge law for fault statistics: counter
    /// addition over `u64` is exact, so merging per-shard stats is
    /// associative and commutative — any grouping or ordering of shards
    /// yields the identical struct. Property-tested in
    /// `crates/metering/tests/shard_merge.rs`.
    pub fn merge(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.retries += other.retries;
        self.abandoned += other.abandoned;
        self.leaked += other.leaked;
        self.requeued += other.requeued;
        self.degraded += other.degraded;
        self.breaker_trips += other.breaker_trips;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_is_fieldwise_and_commutative() {
        let a = FaultStats {
            injected: 1,
            retries: 2,
            abandoned: 3,
            leaked: 4,
            requeued: 5,
            degraded: 6,
            breaker_trips: 7,
        };
        let b = FaultStats {
            injected: 10,
            ..FaultStats::default()
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.injected, 11);
        assert_eq!(ab.total(), a.total() + b.total());
    }

    #[test]
    fn none_profile_is_inert_and_legacy_shaped() {
        let p = FaultProfile::none();
        assert!(p.is_inert());
        assert_eq!(p, FaultProfile::chaos(0.0));
        assert_eq!(
            p.quota_retry(),
            RetryPolicy::fixed(SimDuration::hours(4), 100)
        );
        assert!(p.breaker().is_none());
    }

    #[test]
    fn chaos_profile_injects() {
        let p = FaultProfile::chaos(0.1);
        assert!(!p.is_inert());
        assert_eq!(p.rate, 0.1);
        assert_eq!(
            p.breaker(),
            Some(CircuitBreaker::new(8, SimDuration::hours(12)))
        );
        assert_eq!(
            p.fault_retry(),
            RetryPolicy::exponential(SimDuration::minutes(30), 2.0, SimDuration::hours(8), 5, 0.5)
                .with_deadline(SimDuration::days(2))
        );
        assert_eq!(FaultProfile::chaos(1.5).rate, 1.0);
        assert!(FaultProfile::chaos(-0.5).is_inert());
    }

    #[test]
    fn stats_total() {
        let mut s = FaultStats::default();
        assert_eq!(s.total(), 0);
        s.injected = 2;
        s.leaked = 1;
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn serialization_is_stable() {
        let p = FaultProfile::chaos(0.25);
        let a = serde_json::to_string(&p).expect("serialize");
        assert_eq!(a, serde_json::to_string(&p.clone()).expect("serialize"));
        assert_eq!(a, r#"{"rate":0.25}"#);
    }
}
