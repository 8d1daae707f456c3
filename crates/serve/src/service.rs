//! The service loop: ramp rounds of seeded load through one persistent
//! [`Cloud`] until an overload gate trips.
//!
//! Each round offers `target_rps + round * increment_rps` ops/sec
//! (capped at `max_rps`) for `round_secs` sim seconds, then drains
//! completely before the gates are evaluated:
//!
//! * **failure-rate gate** — stop when the round's unserved fraction
//!   reaches `stop_failure_ppm` (`STOP_FAILURE_RATE` in the IC
//!   scalability suite);
//! * **p99 latency gate** — stop when the round's p99 sim latency
//!   exceeds `allowable_latency_s` (`ALLOWABLE_LATENCY`).
//!
//! The loop is a sequential discrete-event sweep: arrivals and queued
//! dispatches interleave in sim-time order, `servers` simulated workers
//! serve queued ops FIFO, and every source of randomness is a seeded
//! stream keyed by stable op id — so the digested report is
//! byte-identical across reruns and rayon thread counts.

use crate::admission::{AdmissionOutcome, AdmissionQueue, QueuedOp};
use crate::report::{
    kind_index, KindStats, LatencySummary, OpCounts, RoundStats, ServeCounts, ServeReport,
    TenantStats, SERVE_SCHEMA,
};
use crate::workload::{generate_round, OpKind, OpSpec};
use opml_faults::{BreakerState, CircuitBreaker, FaultKind, FaultPlan, RetryPolicy};
use opml_simkernel::{SimDuration, SimTime};
use opml_telemetry::SimTimeHistogram;
use opml_testbed::{Cloud, CloudError, InstanceId, LeaseId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Stream tag decorrelating the fault plan from workload draws.
const FAULT_TAG: u64 = 0x5E12_FA17;
/// Stream tag decorrelating retry jitter from both of the above.
const RETRY_TAG: u64 = 0x5E12_4E72;
/// Lead time between a reserve op and its window start, in ticks.
const RESERVE_LEAD_TICKS: u64 = 30;
/// A round is "sustainable" only if its unserved fraction stays at or
/// below this (parts-per-million): the IC suite's
/// `ALLOWABLE_FAILURE_RATE` of 0.2, separate from the stop gate's
/// [`ServeConfig::stop_failure_ppm`].
const ALLOWABLE_FAILURE_PPM: u64 = 200_000;
/// Consecutive quota failures that trip a tenant's breaker.
const BREAKER_THRESHOLD: u32 = 5;
/// Breaker cool-down before a half-open probe, sim seconds.
const BREAKER_COOLDOWN_S: u64 = 30;

/// Configuration for one service soak. Rates are ops/sec, durations
/// are sim seconds, and the gate thresholds are integer parts-per-
/// million so the config echo in the digested report stays float-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Master seed for every stream (workload, faults, retry jitter).
    pub seed: u64,
    /// Number of tenants (priority = tenant index + 1).
    pub tenants: u32,
    /// Simulated service workers draining the admission queue.
    pub servers: u32,
    /// Admission queue bound (0 is normalized to 1).
    pub queue_bound: usize,
    /// Offered rate of the first round, ops/sec.
    pub target_rps: u64,
    /// Rate added each round, ops/sec.
    pub increment_rps: u64,
    /// Rate ceiling; the ramp stops after the round that reaches it.
    pub max_rps: u64,
    /// Arrival window of each round, sim seconds.
    pub round_secs: u64,
    /// Stop the ramp when a round's unserved fraction reaches this
    /// (parts-per-million; 500_000 = the classic STOP_FAILURE_RATE 0.5).
    pub stop_failure_ppm: u64,
    /// A round is "sustainable" only if its p99 latency stays at or
    /// below this; exceeding it also stops the ramp. Sim seconds.
    pub allowable_latency_s: u64,
    /// Per-op total budget from first arrival, sim seconds: ops still
    /// unserved past this are abandoned as timed out.
    pub deadline_s: u64,
    /// Uniform fault-injection rate (parts-per-million; 0 = inert).
    pub fault_rate_ppm: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            seed: 42,
            tenants: 4,
            servers: 64,
            queue_bound: 256,
            target_rps: 8,
            increment_rps: 8,
            max_rps: 64,
            round_secs: 60,
            stop_failure_ppm: 500_000,
            allowable_latency_s: 30,
            deadline_s: 120,
            fault_rate_ppm: 0,
        }
    }
}

impl ServeConfig {
    /// Clamp degenerate values so the loop always terminates and stays
    /// within memory bounds (rates are capped at 10k ops/sec, rounds at
    /// one sim hour — far above anything the gates survive).
    fn normalized(&self) -> ServeConfig {
        let mut c = self.clone();
        c.tenants = c.tenants.max(1);
        c.servers = c.servers.max(1);
        c.round_secs = c.round_secs.clamp(1, 3_600);
        c.target_rps = c.target_rps.clamp(1, 10_000);
        c.max_rps = c.max_rps.clamp(c.target_rps, 10_000);
        c.stop_failure_ppm = c.stop_failure_ppm.min(1_000_000);
        c
    }
}

/// Where one queued attempt ended up.
enum Disposition {
    /// Served; payload is end-to-end latency in ticks.
    Completed(u64),
    Shed,
    Rejected,
    TimedOut,
    Failed,
}

/// Per-round accumulator (drives the gates and the round table row).
struct RoundAccum {
    counts: OpCounts,
    retries: u64,
    injected: u64,
    hist: SimTimeHistogram,
    kind_completed: [u64; 5],
}

impl RoundAccum {
    fn new() -> RoundAccum {
        RoundAccum {
            counts: OpCounts::default(),
            retries: 0,
            injected: 0,
            hist: SimTimeHistogram::default(),
            kind_completed: [0; 5],
        }
    }
}

/// Retry heap entry: `(tick, op index, failures so far)`, min-ordered.
type Pending = Reverse<(u64, u64, u32)>;

struct Service {
    cloud: Cloud,
    plan: FaultPlan,
    policy: RetryPolicy,
    retry_seed: u64,
    breakers: Vec<CircuitBreaker>,
    /// Per-tenant pools of live VM ids (terminate targets).
    instances: Vec<Vec<InstanceId>>,
    /// Per-tenant pools of admitted lease ids (revoke targets).
    leases: Vec<Vec<LeaseId>>,
    /// `(next-free tick, index)` of every simulated server, min first:
    /// the top is the lowest-numbered server with the earliest tick.
    servers: BinaryHeap<Reverse<(u64, usize)>>,
    queue: AdmissionQueue,
    kind_counts: [OpCounts; 5],
    kind_retries: [u64; 5],
    kind_injected: [u64; 5],
    kind_hists: [SimTimeHistogram; 5],
    tenant_counts: Vec<OpCounts>,
    tenant_breaker_rejects: Vec<u64>,
    tenant_breaker_trips: Vec<u64>,
    overall_hist: SimTimeHistogram,
    retries_total: u64,
    injected_total: u64,
}

impl Service {
    fn new(cfg: &ServeConfig) -> Service {
        let t = cfg.tenants as usize;
        let rate = cfg.fault_rate_ppm.min(1_000_000) as f64 / 1_000_000.0;
        Service {
            cloud: Cloud::paper_course(),
            plan: FaultPlan::new(cfg.seed ^ FAULT_TAG, rate),
            policy: RetryPolicy::exponential(SimDuration(2), 2.0, SimDuration(16), 4, 0.25)
                .with_deadline(SimDuration(cfg.deadline_s.max(1))),
            retry_seed: cfg.seed ^ RETRY_TAG,
            breakers: vec![
                CircuitBreaker::new(BREAKER_THRESHOLD, SimDuration(BREAKER_COOLDOWN_S));
                t
            ],
            instances: vec![Vec::new(); t],
            leases: vec![Vec::new(); t],
            servers: (0..cfg.servers as usize).map(|i| Reverse((0, i))).collect(),
            queue: AdmissionQueue::new(cfg.queue_bound),
            kind_counts: [OpCounts::default(); 5],
            kind_retries: [0; 5],
            kind_injected: [0; 5],
            kind_hists: std::array::from_fn(|_| SimTimeHistogram::default()),
            tenant_counts: vec![OpCounts::default(); t],
            tenant_breaker_rejects: vec![0; t],
            tenant_breaker_trips: vec![0; t],
            overall_hist: SimTimeHistogram::default(),
            retries_total: 0,
            injected_total: 0,
        }
    }

    /// Apply `bump` to the round, per-kind, and per-tenant counters of
    /// `op` in lockstep.
    fn bump(&mut self, acc: &mut RoundAccum, op: &OpSpec, bump: impl Fn(&mut OpCounts)) {
        bump(&mut acc.counts);
        if let Some(c) = self.kind_counts.get_mut(kind_index(op.kind)) {
            bump(c);
        }
        if let Some(c) = self.tenant_counts.get_mut(op.tenant as usize) {
            bump(c);
        }
    }

    /// Attribute a terminal disposition for `op`.
    fn record(&mut self, acc: &mut RoundAccum, op: &OpSpec, d: Disposition) {
        match d {
            Disposition::Completed(latency) => {
                self.bump(acc, op, |c| c.completed += 1);
                let ki = kind_index(op.kind);
                acc.hist.observe(SimDuration(latency));
                self.overall_hist.observe(SimDuration(latency));
                if let Some(h) = self.kind_hists.get_mut(ki) {
                    h.observe(SimDuration(latency));
                }
                if let Some(k) = acc.kind_completed.get_mut(ki) {
                    *k += 1;
                }
            }
            Disposition::Shed => self.bump(acc, op, |c| c.shed += 1),
            Disposition::Rejected => self.bump(acc, op, |c| c.rejected += 1),
            Disposition::TimedOut => self.bump(acc, op, |c| c.timed_out += 1),
            Disposition::Failed => self.bump(acc, op, |c| c.failed += 1),
        }
    }

    /// One full round: feed `ops` through admission, dispatch, retry,
    /// and drain the queue to empty before returning.
    fn run_round(&mut self, ops: &[OpSpec]) -> RoundAccum {
        let mut acc = RoundAccum::new();
        for op in ops {
            self.bump(&mut acc, op, |c| c.generated += 1);
        }
        let mut heap: BinaryHeap<Pending> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| Reverse((op.arrival, i as u64, 0u32)))
            .collect();
        while !(heap.is_empty() && self.queue.is_empty()) {
            let next_arrival = heap.peek().map(|Reverse((t, _, _))| *t);
            // Dispatch the queue head if a server frees up before the
            // next arrival; ties go to the arrival so admission (and
            // shedding) sees the fullest queue.
            let mut dispatched = false;
            if let (Some(head), Some(&Reverse((free, si)))) =
                (self.queue.front().copied(), self.servers.peek())
            {
                let start = free.max(head.arrival);
                if next_arrival.is_none_or(|na| start < na) {
                    if self.queue.pop_front().is_some() {
                        self.dispatch(head, start, si, ops, &mut heap, &mut acc);
                    }
                    dispatched = true;
                }
            }
            if !dispatched {
                if let Some(Reverse((t, idx, failures))) = heap.pop() {
                    self.admit(t, idx as usize, failures, ops, &mut acc);
                }
            }
        }
        acc
    }

    /// An arrival (or retry re-arrival) meets the admission queue.
    fn admit(&mut self, t: u64, idx: usize, failures: u32, ops: &[OpSpec], acc: &mut RoundAccum) {
        let Some(op) = ops.get(idx) else { return };
        let queued = QueuedOp {
            op_index: idx,
            arrival: t,
            first_arrival: op.arrival,
            attempt: failures,
            priority: op.priority,
        };
        match self.queue.offer(queued) {
            AdmissionOutcome::Enqueued => {}
            AdmissionOutcome::Shed(victim) => {
                if let Some(vop) = ops.get(victim.op_index) {
                    let vop = vop.clone();
                    self.record(acc, &vop, Disposition::Shed);
                }
            }
            AdmissionOutcome::Rejected(_) => {
                let op = op.clone();
                self.record(acc, &op, Disposition::Rejected);
            }
        }
    }

    /// Server `si`, the top of `servers`, picks up the queue head at
    /// `start`.
    fn dispatch(
        &mut self,
        head: QueuedOp,
        start: u64,
        si: usize,
        ops: &[OpSpec],
        heap: &mut BinaryHeap<Pending>,
        acc: &mut RoundAccum,
    ) {
        let Some(op) = ops.get(head.op_index) else {
            return;
        };
        let op = op.clone();
        let now = SimTime(start);
        let first = SimTime(head.first_arrival);
        // Deadline budget: abandon before consuming a server.
        if self.policy.deadline_exceeded(first, now) {
            self.record(acc, &op, Disposition::TimedOut);
            return;
        }
        // Per-tenant quota breaker gates quota-consuming kinds; while
        // half-open exactly one probe op is admitted per cool-down.
        if op.kind.consumes_quota() {
            let admitted = match self.breakers.get_mut(op.tenant as usize) {
                Some(b) => match b.state(now) {
                    BreakerState::Closed => true,
                    BreakerState::HalfOpen => b.try_acquire_probe(now),
                    BreakerState::Open => false,
                },
                None => true,
            };
            if !admitted {
                if let Some(r) = self.tenant_breaker_rejects.get_mut(op.tenant as usize) {
                    *r += 1;
                }
                self.record(acc, &op, Disposition::Rejected);
                return;
            }
        }
        let completion = start + op.service_ticks;
        if let Some(mut top) = self.servers.peek_mut() {
            *top = Reverse((completion, si));
        }
        self.cloud.advance_to(now);
        let result = self.execute(&op, head.attempt, acc);
        // The breaker hears every outcome of the guarded kind: quota
        // denials and injected faults open it, successes close it (and
        // resolve any in-flight probe).
        if op.kind.consumes_quota() {
            if let Some(b) = self.breakers.get_mut(op.tenant as usize) {
                match &result {
                    Ok(()) => b.record_success(),
                    Err(_) => {
                        if b.record_failure(now) {
                            if let Some(trips) =
                                self.tenant_breaker_trips.get_mut(op.tenant as usize)
                            {
                                *trips += 1;
                            }
                        }
                    }
                }
            }
        }
        match result {
            Ok(()) => {
                self.record(
                    acc,
                    &op,
                    Disposition::Completed(completion.saturating_sub(head.first_arrival)),
                );
            }
            Err(e) if e.is_retryable() => {
                let failures = head.attempt + 1;
                match self.policy.backoff(self.retry_seed, op.id, failures) {
                    Some(delay) => {
                        let retry_at = completion + delay.0;
                        if self.policy.deadline_exceeded(first, SimTime(retry_at)) {
                            self.record(acc, &op, Disposition::TimedOut);
                        } else {
                            acc.retries += 1;
                            self.retries_total += 1;
                            if let Some(r) = self.kind_retries.get_mut(kind_index(op.kind)) {
                                *r += 1;
                            }
                            heap.push(Reverse((retry_at, head.op_index as u64, failures)));
                        }
                    }
                    None => self.record(acc, &op, Disposition::Failed),
                }
            }
            Err(_) => self.record(acc, &op, Disposition::Failed),
        }
    }

    /// Note a fault-plan injection against `op`.
    fn inject(&mut self, op: &OpSpec, acc: &mut RoundAccum) {
        acc.injected += 1;
        self.injected_total += 1;
        if let Some(n) = self.kind_injected.get_mut(kind_index(op.kind)) {
            *n += 1;
        }
    }

    /// Run one op against the cloud. Transient errors bubble up to the
    /// retry path; no-ops (terminating with an empty pool, revoking an
    /// already-ended lease) succeed.
    fn execute(
        &mut self,
        op: &OpSpec,
        attempt: u32,
        acc: &mut RoundAccum,
    ) -> Result<(), CloudError> {
        let ti = op.tenant as usize;
        match op.kind {
            OpKind::Launch => {
                if self.plan.fires(FaultKind::LaunchFail, op.id, attempt) {
                    self.inject(op, acc);
                    return Err(CloudError::TransientFault {
                        op: "create_instance",
                    });
                }
                let name = format!("t{}-op{}", op.tenant, op.id);
                let id = self.cloud.create_instance(&name, op.vm_flavor)?;
                if let Some(pool) = self.instances.get_mut(ti) {
                    pool.push(id);
                }
                Ok(())
            }
            OpKind::Terminate => {
                if self.plan.fires(FaultKind::InstanceCrash, op.id, attempt) {
                    self.inject(op, acc);
                    return Err(CloudError::TransientFault {
                        op: "delete_instance",
                    });
                }
                let target = self.instances.get_mut(ti).and_then(|pool| {
                    if pool.is_empty() {
                        None
                    } else {
                        let i = (op.pick % pool.len() as u64) as usize;
                        Some(pool.swap_remove(i))
                    }
                });
                match target {
                    // Nothing to terminate yet: a no-op success.
                    None => Ok(()),
                    Some(id) => self.cloud.delete_instance(id),
                }
            }
            OpKind::Reserve => {
                if self.plan.fires(FaultKind::LeaseRevoke, op.id, attempt) {
                    self.inject(op, acc);
                    return Err(CloudError::TransientFault { op: "reserve" });
                }
                let start = self.cloud.now() + SimDuration(RESERVE_LEAD_TICKS);
                let end = start + SimDuration(op.lease_ticks.max(1));
                let name = format!("t{}-op{}", op.tenant, op.id);
                let lease = self
                    .cloud
                    .reserve(op.bm_flavor, op.count.max(1), start, end, &name)?;
                if let Some(pool) = self.leases.get_mut(ti) {
                    pool.push(lease.id);
                }
                Ok(())
            }
            OpKind::Revoke => {
                let target = self.leases.get_mut(ti).and_then(|pool| {
                    if pool.is_empty() {
                        None
                    } else {
                        let i = (op.pick % pool.len() as u64) as usize;
                        Some(pool.swap_remove(i))
                    }
                });
                match target {
                    None => Ok(()),
                    Some(id) => match self.cloud.revoke_lease(id) {
                        // A lease that already ended (auto-terminated by
                        // `advance_to`) or was already revoked is a
                        // revoke no-op, not a failure.
                        Ok(_)
                        | Err(CloudError::OutsideLease)
                        | Err(CloudError::LeaseRevoked)
                        | Err(CloudError::NoSuchLease) => Ok(()),
                        Err(e) => Err(e),
                    },
                }
            }
            OpKind::QuotaCheck => {
                // Both read-only hot paths: the sweep-line calendar
                // earliest-slot query and the quota headroom probe.
                let now = self.cloud.now();
                let _ = self.cloud.earliest_slot(
                    op.bm_flavor,
                    op.count.max(1),
                    SimDuration(op.lease_ticks.max(1)),
                    now,
                );
                self.cloud.quota_check(op.vm_flavor)
            }
        }
    }
}

/// Run a full soak: ramp rounds until a gate trips (or the rate
/// ceiling is reached), then seal the schema-versioned report.
///
/// This is the crate's simulation entry point for the DL008 panic-
/// freedom walk.
pub fn run_service(config: &ServeConfig) -> ServeReport {
    let cfg = config.normalized();
    let mut svc = Service::new(&cfg);
    let mut rounds: Vec<RoundStats> = Vec::new();
    let mut round_kind_completed: Vec<[u64; 5]> = Vec::new();
    let mut round_start = 0u64;
    let mut base_id = 0u64;
    let mut round = 0u32;
    let mut stop_reason = "max_rate_reached";
    loop {
        let rate = cfg
            .target_rps
            .saturating_add(u64::from(round).saturating_mul(cfg.increment_rps))
            .min(cfg.max_rps);
        let ops = generate_round(
            cfg.seed,
            round,
            round_start,
            rate,
            cfg.round_secs,
            cfg.tenants,
            base_id,
        );
        base_id += ops.len() as u64;
        let acc = svc.run_round(&ops);
        let latency = LatencySummary::from_histogram(&acc.hist);
        let failure_ppm = acc.counts.failure_ppm();
        let sustainable = acc.counts.completed > 0
            && failure_ppm <= ALLOWABLE_FAILURE_PPM
            && latency.p99_s <= cfg.allowable_latency_s;
        rounds.push(RoundStats {
            round,
            offered_rps: rate,
            counts: acc.counts,
            retries: acc.retries,
            injected: acc.injected,
            failure_ppm,
            latency,
            sustainable,
        });
        round_kind_completed.push(acc.kind_completed);
        if failure_ppm >= cfg.stop_failure_ppm {
            stop_reason = "failure_rate";
            break;
        }
        if latency.p99_s > cfg.allowable_latency_s {
            stop_reason = "p99_latency";
            break;
        }
        if rate >= cfg.max_rps {
            break;
        }
        round_start += cfg.round_secs;
        round += 1;
    }

    // Best sustainable round (highest offered rate that cleared both
    // gates) anchors the "max sustainable" numbers.
    let best = rounds
        .iter()
        .enumerate()
        .filter(|(_, r)| r.sustainable)
        .max_by_key(|(_, r)| r.offered_rps)
        .map(|(i, r)| (i, r.offered_rps));
    let max_sustainable_rps = best.map_or(0, |(_, rps)| rps);
    let per_kind: Vec<KindStats> = OpKind::ALL
        .iter()
        .enumerate()
        .map(|(ki, kind)| {
            let sustained = best
                .and_then(|(bi, _)| round_kind_completed.get(bi))
                .and_then(|ks| ks.get(ki))
                .map_or(0, |done| done * 1_000 / cfg.round_secs);
            KindStats {
                kind: kind.name().to_string(),
                counts: svc.kind_counts.get(ki).copied().unwrap_or_default(),
                retries: svc.kind_retries.get(ki).copied().unwrap_or(0),
                injected: svc.kind_injected.get(ki).copied().unwrap_or(0),
                sustained_milli_ops_per_sec: sustained,
                latency: svc
                    .kind_hists
                    .get(ki)
                    .map(LatencySummary::from_histogram)
                    .unwrap_or_default(),
            }
        })
        .collect();
    let per_tenant: Vec<TenantStats> = (0..cfg.tenants)
        .map(|t| TenantStats {
            tenant: t,
            priority: t + 1,
            counts: svc
                .tenant_counts
                .get(t as usize)
                .copied()
                .unwrap_or_default(),
            breaker_rejects: svc
                .tenant_breaker_rejects
                .get(t as usize)
                .copied()
                .unwrap_or(0),
            breaker_trips: svc
                .tenant_breaker_trips
                .get(t as usize)
                .copied()
                .unwrap_or(0),
        })
        .collect();
    let mut totals = OpCounts::default();
    for r in &rounds {
        totals.merge(&r.counts);
    }
    let stop_round = rounds.len().saturating_sub(1) as u32;
    let counts = ServeCounts {
        schema: SERVE_SCHEMA.to_string(),
        seed: cfg.seed,
        tenants: cfg.tenants,
        servers: cfg.servers,
        queue_bound: cfg.queue_bound.max(1) as u64,
        target_rps: cfg.target_rps,
        increment_rps: cfg.increment_rps,
        max_rps: cfg.max_rps,
        round_secs: cfg.round_secs,
        fault_rate_ppm: cfg.fault_rate_ppm,
        rounds,
        per_kind,
        per_tenant,
        totals,
        retries: svc.retries_total,
        injected: svc.injected_total,
        breaker_trips: svc.tenant_breaker_trips.iter().sum(),
        breaker_rejects: svc.tenant_breaker_rejects.iter().sum(),
        peak_queue_depth: svc.queue.peak_depth as u64,
        stop_round,
        stop_reason: stop_reason.to_string(),
        max_sustainable_rps,
        overall_latency: LatencySummary::from_histogram(&svc.overall_hist),
    };
    let mut histograms = BTreeMap::new();
    histograms.insert("overall".to_string(), svc.overall_hist.clone());
    for (ki, kind) in OpKind::ALL.iter().enumerate() {
        if let Some(h) = svc.kind_hists.get(ki) {
            histograms.insert(kind.name().to_string(), h.clone());
        }
    }
    ServeReport::seal(counts, histograms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opml_simkernel::parallel::with_thread_count;

    fn tiny() -> ServeConfig {
        ServeConfig {
            seed: 42,
            tenants: 3,
            servers: 8,
            queue_bound: 16,
            target_rps: 2,
            increment_rps: 2,
            max_rps: 8,
            round_secs: 20,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn accounting_invariant_holds() {
        let report = run_service(&tiny());
        assert_eq!(
            report.counts.totals.accounted(),
            report.counts.totals.generated,
            "every generated op must land in exactly one terminal bucket"
        );
        for r in &report.counts.rounds {
            assert_eq!(
                r.counts.accounted(),
                r.counts.generated,
                "round {}",
                r.round
            );
        }
        assert!(report.counts.totals.generated > 0);
    }

    #[test]
    fn rerun_is_byte_identical() {
        let a = run_service(&tiny());
        let b = run_service(&tiny());
        assert_eq!(a.counts_json, b.counts_json);
        assert_eq!(a.counts_digest, b.counts_digest);
    }

    #[test]
    fn thread_count_does_not_change_digest() {
        let cfg = tiny();
        let one = with_thread_count(1, || run_service(&cfg));
        let eight = with_thread_count(8, || run_service(&cfg));
        assert_eq!(one.counts_json, eight.counts_json);
        assert_eq!(one.counts.stop_round, eight.counts.stop_round);
    }

    #[test]
    fn overload_sheds_and_rejects_under_pressure() {
        let cfg = ServeConfig {
            servers: 2,
            queue_bound: 8,
            target_rps: 16,
            increment_rps: 16,
            max_rps: 64,
            round_secs: 30,
            ..ServeConfig::default()
        };
        let report = run_service(&cfg);
        let t = &report.counts.totals;
        assert!(
            t.shed + t.rejected > 0,
            "2 servers at 16+ ops/sec must overflow an 8-deep queue: {t:?}"
        );
        assert_eq!(report.counts.stop_reason, "failure_rate");
        assert!(report.counts.peak_queue_depth >= 8);
    }

    #[test]
    fn priority_shedding_favors_high_tenants() {
        let cfg = ServeConfig {
            servers: 2,
            queue_bound: 8,
            target_rps: 32,
            increment_rps: 0,
            max_rps: 32,
            round_secs: 30,
            ..ServeConfig::default()
        };
        let report = run_service(&cfg);
        let shed: Vec<u64> = report
            .counts
            .per_tenant
            .iter()
            .map(|t| t.counts.shed)
            .collect();
        let (Some(first), Some(last)) = (shed.first(), shed.last()) else {
            panic!("per-tenant stats missing");
        };
        assert!(
            first >= last,
            "lowest-priority tenant must shed at least as much as the highest: {shed:?}"
        );
    }

    #[test]
    fn fault_soak_reports_injections_without_panicking() {
        let cfg = ServeConfig {
            fault_rate_ppm: 200_000,
            ..tiny()
        };
        let report = run_service(&cfg);
        assert!(report.counts.injected > 0, "20% fault rate must fire");
        assert!(report.counts.retries > 0, "transient faults must retry");
        assert_eq!(
            report.counts.totals.accounted(),
            report.counts.totals.generated
        );
    }

    #[test]
    fn zero_fault_plan_matches_inert_plan_digest() {
        let base = run_service(&tiny());
        let zero = run_service(&ServeConfig {
            fault_rate_ppm: 0,
            ..tiny()
        });
        assert_eq!(base.counts_digest, zero.counts_digest);
    }

    #[test]
    fn ramp_stops_at_gate_or_ceiling() {
        let report = run_service(&ServeConfig::default());
        let n = report.counts.rounds.len() as u32;
        assert!(n > 0);
        assert_eq!(report.counts.stop_round, n - 1);
        assert!(
            ["failure_rate", "p99_latency", "max_rate_reached"]
                .contains(&report.counts.stop_reason.as_str()),
            "{}",
            report.counts.stop_reason
        );
    }
}
