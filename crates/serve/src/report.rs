//! Schema-versioned serve report.
//!
//! [`ServeCounts`] is the **digested subtree**: every field in it is an
//! integer, string, or bool derived purely from the seeded simulation,
//! so its canonical JSON is byte-identical across reruns and rayon
//! thread counts. [`ServeReport`] wraps the counts together with
//! presentation-only extras (latency histograms for table rendering)
//! that never enter the digest.

use crate::workload::OpKind;
use opml_faults::site_key;
use opml_telemetry::SimTimeHistogram;
use serde::Serialize;
use std::collections::BTreeMap;

/// Schema tag embedded in `serve.json`; bump on any breaking change to
/// the digested subtree.
pub const SERVE_SCHEMA: &str = "serve/v1";

/// Terminal dispositions of generated ops. Every generated op lands in
/// exactly one bucket (retries are attributed once, by their final
/// outcome), so `generated == accounted()` is the ledger invariant the
/// proptests enforce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OpCounts {
    /// Ops emitted by the workload generator.
    pub generated: u64,
    /// Served successfully (possibly after retries).
    pub completed: u64,
    /// Displaced from the full admission queue by higher priority work.
    pub shed: u64,
    /// Turned away at admission (queue overload or open breaker).
    pub rejected: u64,
    /// Abandoned because the per-op deadline budget ran out.
    pub timed_out: u64,
    /// Terminal errors: permanent, or retry budget exhausted.
    pub failed: u64,
}

impl OpCounts {
    /// Sum of all terminal dispositions; equals `generated` when the
    /// accounting invariant holds.
    pub fn accounted(&self) -> u64 {
        self.completed + self.shed + self.rejected + self.timed_out + self.failed
    }

    /// Ops that did not complete (the failure-rate gate numerator).
    pub fn unserved(&self) -> u64 {
        self.generated.saturating_sub(self.completed)
    }

    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &OpCounts) {
        self.generated += other.generated;
        self.completed += other.completed;
        self.shed += other.shed;
        self.rejected += other.rejected;
        self.timed_out += other.timed_out;
        self.failed += other.failed;
    }

    /// Unserved fraction in parts-per-million (integer, digest-safe);
    /// 0 when nothing was generated.
    pub fn failure_ppm(&self) -> u64 {
        (self.unserved() * 1_000_000)
            .checked_div(self.generated)
            .unwrap_or(0)
    }
}

/// Integer latency digest of a [`SimTimeHistogram`] (ticks = seconds in
/// service mode). All-zero when no samples were recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LatencySummary {
    /// Recorded samples.
    pub count: u64,
    /// Mean latency in seconds, rounded to nearest.
    pub mean_s: u64,
    /// Median upper bound in seconds.
    pub p50_s: u64,
    /// 90th-percentile upper bound in seconds.
    pub p90_s: u64,
    /// 99th-percentile upper bound in seconds.
    pub p99_s: u64,
    /// Largest sample in seconds.
    pub max_s: u64,
}

impl LatencySummary {
    /// Summarize a histogram (empty histogram → all zeros).
    pub fn from_histogram(h: &SimTimeHistogram) -> LatencySummary {
        LatencySummary {
            count: h.count,
            mean_s: h.mean_minutes(),
            p50_s: h.p50_minutes().unwrap_or(0),
            p90_s: h.p90_minutes().unwrap_or(0),
            p99_s: h.p99_minutes().unwrap_or(0),
            max_s: h.max_minutes,
        }
    }
}

/// One ramp round's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: u32,
    /// Offered rate for the round, ops/sec.
    pub offered_rps: u64,
    /// Terminal dispositions of the round's ops.
    pub counts: OpCounts,
    /// Retry attempts re-queued during the round.
    pub retries: u64,
    /// Fault-plan injections that fired during the round.
    pub injected: u64,
    /// `counts.failure_ppm()`, precomputed for the report.
    pub failure_ppm: u64,
    /// Latency digest over the round's completed ops.
    pub latency: LatencySummary,
    /// Whether the round cleared both gates (failure rate and p99).
    pub sustainable: bool,
}

/// Totals for one op kind across the whole soak.
#[derive(Debug, Clone, Serialize)]
pub struct KindStats {
    /// Stable kind name ([`OpKind::name`]).
    pub kind: String,
    /// Terminal dispositions for this kind.
    pub counts: OpCounts,
    /// Retry attempts for this kind.
    pub retries: u64,
    /// Injections that fired against this kind.
    pub injected: u64,
    /// Completed ops/sec of this kind during the best sustainable
    /// round, in milli-ops/sec (0 when no round was sustainable).
    pub sustained_milli_ops_per_sec: u64,
    /// Latency digest over this kind's completed ops.
    pub latency: LatencySummary,
}

/// Totals for one tenant across the whole soak.
#[derive(Debug, Clone, Serialize)]
pub struct TenantStats {
    /// Tenant index (0-based).
    pub tenant: u32,
    /// Shedding priority (higher survives longer).
    pub priority: u32,
    /// Terminal dispositions for this tenant's ops.
    pub counts: OpCounts,
    /// Admissions refused by the tenant's quota breaker.
    pub breaker_rejects: u64,
    /// Times the tenant's breaker tripped open.
    pub breaker_trips: u64,
}

/// The digested subtree of `serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ServeCounts {
    /// Schema tag ([`SERVE_SCHEMA`]).
    pub schema: String,
    /// Master seed.
    pub seed: u64,
    /// Tenant count.
    pub tenants: u32,
    /// Simulated server (worker) count.
    pub servers: u32,
    /// Admission queue bound.
    pub queue_bound: u64,
    /// Initial offered rate, ops/sec.
    pub target_rps: u64,
    /// Per-round rate increment, ops/sec.
    pub increment_rps: u64,
    /// Rate ceiling, ops/sec.
    pub max_rps: u64,
    /// Round length in sim seconds.
    pub round_secs: u64,
    /// Fault-injection rate in parts-per-million.
    pub fault_rate_ppm: u64,
    /// Per-round outcomes, in ramp order.
    pub rounds: Vec<RoundStats>,
    /// Per-kind totals, in [`OpKind::ALL`] order.
    pub per_kind: Vec<KindStats>,
    /// Per-tenant totals, in tenant order.
    pub per_tenant: Vec<TenantStats>,
    /// Whole-soak disposition totals.
    pub totals: OpCounts,
    /// Whole-soak retry attempts.
    pub retries: u64,
    /// Whole-soak fault injections fired.
    pub injected: u64,
    /// Whole-soak breaker trips.
    pub breaker_trips: u64,
    /// Whole-soak breaker admission refusals.
    pub breaker_rejects: u64,
    /// Admission-queue high-water mark.
    pub peak_queue_depth: u64,
    /// Round the ramp stopped on (last round run).
    pub stop_round: u32,
    /// Which gate stopped the ramp ("failure_rate", "p99_latency", or
    /// "max_rate_reached").
    pub stop_reason: String,
    /// Highest offered rate whose round cleared both gates (0 = none).
    pub max_sustainable_rps: u64,
    /// Latency digest over all completed ops.
    pub overall_latency: LatencySummary,
}

/// Full result of a service soak: digested counts plus presentation
/// extras.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The digested subtree.
    pub counts: ServeCounts,
    /// Canonical JSON of `counts` (what the digest is taken over).
    pub counts_json: String,
    /// FNV-1a digest of `counts_json`.
    pub counts_digest: u64,
    /// Latency histograms for table rendering, keyed `"overall"` and
    /// per kind name. Not digested.
    pub histograms: BTreeMap<String, SimTimeHistogram>,
}

impl ServeReport {
    /// Seal a report: canonicalize the counts to JSON and digest them.
    pub fn seal(
        counts: ServeCounts,
        histograms: BTreeMap<String, SimTimeHistogram>,
    ) -> ServeReport {
        // The vendored writer is infallible for derive-produced trees;
        // an empty string would still digest deterministically.
        let counts_json = serde_json::to_string(&counts).unwrap_or_default();
        let counts_digest = site_key(&counts_json);
        ServeReport {
            counts,
            counts_json,
            counts_digest,
            histograms,
        }
    }
}

/// Index of `kind` in [`OpKind::ALL`] (report row order).
pub fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Launch => 0,
        OpKind::Terminate => 1,
        OpKind::Reserve => 2,
        OpKind::Revoke => 3,
        OpKind::QuotaCheck => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opml_simkernel::SimDuration;

    #[test]
    fn op_counts_ledger_invariant() {
        let c = OpCounts {
            generated: 10,
            completed: 4,
            shed: 2,
            rejected: 1,
            timed_out: 2,
            failed: 1,
        };
        assert_eq!(c.accounted(), 10);
        assert_eq!(c.unserved(), 6);
        assert_eq!(c.failure_ppm(), 600_000);
        assert_eq!(OpCounts::default().failure_ppm(), 0);
    }

    #[test]
    fn latency_summary_from_histogram() {
        let mut h = SimTimeHistogram::default();
        for s in [5, 10, 20, 40, 40] {
            h.observe(SimDuration(s));
        }
        let l = LatencySummary::from_histogram(&h);
        assert_eq!(l.count, 5);
        assert_eq!(l.mean_s, 23);
        assert_eq!(l.max_s, 40);
        assert!(l.p50_s <= l.p99_s && l.p99_s <= l.max_s);
        assert_eq!(
            LatencySummary::from_histogram(&SimTimeHistogram::default()),
            LatencySummary::default()
        );
    }

    #[test]
    fn seal_digest_tracks_counts_json() {
        let counts = ServeCounts {
            schema: SERVE_SCHEMA.to_string(),
            seed: 42,
            tenants: 4,
            servers: 64,
            queue_bound: 256,
            target_rps: 8,
            increment_rps: 8,
            max_rps: 64,
            round_secs: 60,
            fault_rate_ppm: 0,
            rounds: Vec::new(),
            per_kind: Vec::new(),
            per_tenant: Vec::new(),
            totals: OpCounts::default(),
            retries: 0,
            injected: 0,
            breaker_trips: 0,
            breaker_rejects: 0,
            peak_queue_depth: 0,
            stop_round: 0,
            stop_reason: "max_rate_reached".to_string(),
            max_sustainable_rps: 0,
            overall_latency: LatencySummary::default(),
        };
        let a = ServeReport::seal(counts.clone(), BTreeMap::new());
        let b = ServeReport::seal(counts, BTreeMap::new());
        assert_eq!(a.counts_json, b.counts_json);
        assert_eq!(a.counts_digest, b.counts_digest);
        assert!(a.counts_json.contains("\"schema\":\"serve/v1\""));
    }

    #[test]
    fn kind_index_matches_all_order() {
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            assert_eq!(kind_index(*kind), i);
        }
    }
}
