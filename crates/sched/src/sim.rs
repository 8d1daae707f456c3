//! The event-driven scheduling simulator.

use crate::cluster::{Cluster, Placement};
use crate::job::{Job, JobId, JobOutcome};
use crate::metrics::ScheduleMetrics;
use crate::policy::Policy;
use opml_faults::{site_key, FaultKind, FaultPlan, RetryPolicy};
use opml_simkernel::{EventQueue, SimDuration, SimTime};
use opml_telemetry::Telemetry;
use std::collections::HashMap;
use std::fmt;

/// Why a trace was rejected before simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// A job wants more GPUs than the cluster has — it could never start
    /// under any policy, so the trace is unrunnable.
    OversizedJob {
        /// The offending job.
        id: JobId,
        /// GPUs it asked for.
        gpus: u32,
        /// GPUs the cluster has in total.
        total: u32,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::OversizedJob { id, gpus, total } => write!(
                f,
                "job {id:?} wants {gpus} GPUs but the cluster has {total}"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

/// The result of running a trace through a policy.
#[derive(Debug, Clone)]
pub struct Schedule {
    outcomes: Vec<JobOutcome>,
    total_gpus: u32,
}

impl Schedule {
    /// Per-job outcomes, in start order.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// GPUs in the cluster the schedule ran on.
    pub fn total_gpus(&self) -> u32 {
        self.total_gpus
    }

    /// Aggregate metrics.
    pub fn metrics(&self) -> ScheduleMetrics {
        ScheduleMetrics::of(self)
    }
}

/// Simulator: a cluster, a policy, and a placement rule.
#[derive(Debug, Clone)]
pub struct SchedSim {
    cluster: Cluster,
    policy: Policy,
    placement: Placement,
    telemetry: Telemetry,
    faults: FaultPlan,
    restart_policy: RetryPolicy,
}

/// A job running on the cluster (for shadow-time computation).
struct Running {
    end: SimTime,
    gpus: u32,
    outcome_idx: usize,
}

impl SchedSim {
    /// Build a simulator.
    pub fn new(cluster: Cluster, policy: Policy, placement: Placement) -> Self {
        SchedSim {
            cluster,
            policy,
            placement,
            telemetry: Telemetry::disabled(),
            faults: FaultPlan::none(),
            // Checkpoint-restart backoff: 5 min doubling to a 1-hour cap,
            // no jitter, never giving up — a preempted job is requeued,
            // not abandoned.
            restart_policy: RetryPolicy::exponential(
                SimDuration::minutes(5),
                2.0,
                SimDuration::hours(1),
                u32::MAX,
                0.0,
            ),
        }
    }

    /// Attach a fault plan (builder style). A plan with a nonzero
    /// `spot_preempt` rate reclaims running jobs partway through; the
    /// job checkpoints and re-enters the queue with its remaining
    /// duration after a [`RetryPolicy`] backoff. The inert plan draws
    /// nothing and reproduces the fault-free schedule byte-identically.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attach a telemetry handle (builder style). The simulator emits
    /// `job.start`/`job.complete` events, a `sched.wait` histogram, and a
    /// `sched.queue_depth.max` gauge through it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Run the trace to completion and return the schedule.
    ///
    /// Panics if any job requests more GPUs than the cluster has (such a
    /// job could never start under any policy); [`SchedSim::try_run`] is
    /// the non-panicking form.
    pub fn run(self, jobs: &[Job]) -> Schedule {
        self.try_run(jobs)
            .expect("trace contains a job the cluster can never run")
    }

    /// Run the trace to completion, or reject it with a typed error if
    /// any job could never start.
    pub fn try_run(mut self, jobs: &[Job]) -> Result<Schedule, SchedError> {
        let total_gpus = self.cluster.total_gpus();
        for j in jobs {
            if j.gpus > total_gpus {
                return Err(SchedError::OversizedJob {
                    id: j.id,
                    gpus: j.gpus,
                    total: total_gpus,
                });
            }
        }
        let mut arrivals: Vec<Job> = jobs.to_vec();
        arrivals.sort_by_key(|j| (j.submit, j.id));
        let mut arrivals = arrivals.into_iter().peekable();

        let mut completions: EventQueue<usize> = EventQueue::new();
        let mut running: Vec<Running> = Vec::new();
        let mut outcomes: Vec<JobOutcome> = Vec::new();
        let mut queue: Vec<Job> = Vec::new();
        let mut usage_gpu_hours: HashMap<u32, f64> = HashMap::new();
        // Checkpoint-restart state. `requeues` holds preempted jobs
        // waiting out their restart backoff; `preempted` maps a running
        // outcome index to the duration left when the reclaim hits;
        // `discarded` flags partial-segment outcomes dropped from the
        // final schedule (the restarted run supersedes them).
        let mut requeues: EventQueue<Job> = EventQueue::new();
        let mut restart_counts: HashMap<JobId, u32> = HashMap::new();
        let mut preempted: HashMap<usize, SimDuration> = HashMap::new();
        let mut discarded: Vec<bool> = Vec::new();

        while let Some(now) = [
            arrivals.peek().map(|j| j.submit),
            requeues.peek_time(),
            completions.peek_time(),
        ]
        .into_iter()
        .flatten()
        .min()
        {
            // Free completed jobs first so arrivals at `now` can use them.
            for (end, idx) in completions.pop_due(now) {
                // detlint::allow(DL008): completion indices are outcome positions recorded at start
                self.cluster.release(&outcomes[idx].allocation);
                running.retain(|r| r.outcome_idx != idx);
                if let Some(remaining) = preempted.remove(&idx) {
                    // Spot reclaim: the segment checkpointed at `end`;
                    // requeue the rest of the job after a backoff.
                    // detlint::allow(DL008): completion indices are outcome positions recorded at start
                    discarded[idx] = true;
                    // detlint::allow(DL008): completion indices are outcome positions recorded at start
                    let job = outcomes[idx].job.clone();
                    let count = restart_counts.entry(job.id).or_insert(0);
                    *count += 1;
                    let restarts_now = *count;
                    self.telemetry.instant(end, "fault.inject", || {
                        vec![
                            ("kind", FaultKind::SpotPreempt.name().into()),
                            ("job", job.id.0.into()),
                        ]
                    });
                    self.telemetry.instant(end, "job.preempt", || {
                        vec![
                            ("id", job.id.0.into()),
                            ("remaining_min", remaining.0.into()),
                            ("restarts", restarts_now.into()),
                        ]
                    });
                    self.telemetry.counter_add("sched.preemptions", 1);
                    let site = site_key(&format!("job-{}", job.id.0));
                    let delay = self
                        .restart_policy
                        .backoff(self.faults.seed(), site, restarts_now)
                        .unwrap_or(SimDuration(1));
                    let resubmit = end + delay;
                    requeues.push(
                        resubmit,
                        Job {
                            duration: remaining,
                            submit: resubmit,
                            ..job
                        },
                    );
                } else {
                    // detlint::allow(DL008): completion indices are outcome positions recorded at start
                    let o = &outcomes[idx];
                    self.telemetry.instant(end, "job.complete", || {
                        vec![
                            ("id", o.job.id.0.into()),
                            ("user", o.job.user.into()),
                            ("gpus", o.job.gpus.into()),
                        ]
                    });
                }
            }
            for (_, job) in requeues.pop_due(now) {
                queue.push(job);
            }
            while arrivals.peek().is_some_and(|j| j.submit <= now) {
                // detlint::allow(DL008): guarded by the peek in the loop condition
                queue.push(arrivals.next().expect("peeked"));
            }
            self.telemetry
                .gauge_max("sched.queue_depth.max", queue.len() as f64);
            self.try_start(
                now,
                &mut queue,
                &mut running,
                &mut outcomes,
                &mut completions,
                &mut usage_gpu_hours,
                &restart_counts,
                &mut preempted,
                &mut discarded,
            );
        }
        debug_assert!(queue.is_empty(), "jobs left queued at end of trace");
        let outcomes = outcomes
            .into_iter()
            .zip(discarded)
            .filter_map(|(o, d)| (!d).then_some(o))
            .collect();
        Ok(Schedule {
            outcomes,
            total_gpus,
        })
    }

    /// Queue order for this policy: indices into `queue`.
    fn ordered(&self, queue: &[Job], usage: &HashMap<u32, f64>) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..queue.len()).collect();
        match self.policy {
            Policy::Fcfs | Policy::EasyBackfill => {
                // detlint::allow(DL008): `idx` holds indices from 0..queue.len()
                idx.sort_by_key(|&i| (queue[i].submit, queue[i].id));
            }
            Policy::FairShare { .. } => {
                idx.sort_by(|&a, &b| {
                    // detlint::allow(DL008): `idx` holds indices from 0..queue.len()
                    let ua = usage.get(&queue[a].user).copied().unwrap_or(0.0);
                    // detlint::allow(DL008): `idx` holds indices from 0..queue.len()
                    let ub = usage.get(&queue[b].user).copied().unwrap_or(0.0);
                    ua.total_cmp(&ub)
                        // detlint::allow(DL008): `idx` holds indices from 0..queue.len()
                        .then(queue[a].submit.cmp(&queue[b].submit))
                        // detlint::allow(DL008): `idx` holds indices from 0..queue.len()
                        .then(queue[a].id.cmp(&queue[b].id))
                });
            }
        }
        idx
    }

    #[allow(clippy::too_many_arguments)]
    fn start_job(
        &mut self,
        now: SimTime,
        job: Job,
        alloc: Vec<(usize, u32)>,
        restarts: u32,
        running: &mut Vec<Running>,
        outcomes: &mut Vec<JobOutcome>,
        completions: &mut EventQueue<usize>,
        usage: &mut HashMap<u32, f64>,
        preempted: &mut HashMap<usize, SimDuration>,
        discarded: &mut Vec<bool>,
    ) {
        self.cluster.allocate(&alloc);
        let idx = outcomes.len();
        let mut end = now + job.duration;
        // Draw the spot-reclaim decision for this run segment. The
        // reclaim lands 10–90% of the way through, so every segment
        // makes progress and restart chains terminate.
        let site = site_key(&format!("job-{}", job.id.0));
        if self.faults.fires(FaultKind::SpotPreempt, site, restarts) {
            let frac = self
                .faults
                .fraction(FaultKind::SpotPreempt, site, restarts, 0.1, 0.9);
            let seg = SimDuration(((job.duration.0 as f64 * frac).ceil() as u64).max(1))
                .min(job.duration);
            if seg < job.duration {
                end = now + seg;
                preempted.insert(idx, SimDuration(job.duration.0 - seg.0));
            }
        }
        // Fair-share usage accrues for the time actually occupied.
        *usage.entry(job.user).or_insert(0.0) += job.gpus as f64 * end.since(now).as_hours_f64();
        let wait = now.since(job.submit);
        self.telemetry.instant(now, "job.start", || {
            vec![
                ("id", job.id.0.into()),
                ("user", job.user.into()),
                ("gpus", job.gpus.into()),
                ("wait_min", wait.0.into()),
            ]
        });
        self.telemetry.observe("sched.wait", wait);
        self.telemetry.counter_add("sched.jobs_started", 1);
        running.push(Running {
            end,
            gpus: job.gpus,
            outcome_idx: idx,
        });
        completions.push(end, idx);
        discarded.push(false);
        outcomes.push(JobOutcome {
            job,
            start: now,
            end,
            allocation: alloc,
            restarts,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn try_start(
        &mut self,
        now: SimTime,
        queue: &mut Vec<Job>,
        running: &mut Vec<Running>,
        outcomes: &mut Vec<JobOutcome>,
        completions: &mut EventQueue<usize>,
        usage: &mut HashMap<u32, f64>,
        restart_counts: &HashMap<JobId, u32>,
        preempted: &mut HashMap<usize, SimDuration>,
        discarded: &mut Vec<bool>,
    ) {
        // Greedy head-start loop: keep starting the (policy-ordered) head
        // while it fits.
        loop {
            if queue.is_empty() {
                return;
            }
            let order = self.ordered(queue, usage);
            // detlint::allow(DL008): queue proved non-empty above; `ordered` is a permutation of it
            let head = order[0];
            // detlint::allow(DL008): `head` is an index from `ordered`, a permutation of 0..queue.len()
            match self.cluster.plan(queue[head].gpus, self.placement) {
                Some(plan) => {
                    let job = queue.remove(head);
                    let restarts = restart_counts.get(&job.id).copied().unwrap_or(0);
                    self.start_job(
                        now,
                        job,
                        plan,
                        restarts,
                        running,
                        outcomes,
                        completions,
                        usage,
                        preempted,
                        discarded,
                    );
                }
                None => break,
            }
        }
        // Head is blocked. Backfill if the policy allows it.
        let backfill = matches!(
            self.policy,
            Policy::EasyBackfill | Policy::FairShare { backfill: true }
        );
        if !backfill {
            return;
        }
        let order = self.ordered(queue, usage);
        // detlint::allow(DL008): queue is non-empty here (the greedy loop returns when it drains)
        let head_job = queue[order[0]].clone();
        // Shadow time: earliest instant the head could start, accumulating
        // GPUs released by running jobs in end order.
        let mut frees: Vec<(SimTime, u32)> = running.iter().map(|r| (r.end, r.gpus)).collect();
        frees.sort_unstable_by_key(|&(t, _)| t);
        let mut avail = self.cluster.free_gpus();
        let mut shadow: Option<SimTime> = None;
        let mut extra: u32 = 0;
        for (end, g) in frees {
            avail += g;
            if avail >= head_job.gpus {
                shadow = Some(end);
                extra = avail - head_job.gpus;
                break;
            }
        }
        let Some(shadow) = shadow else {
            // Head cannot ever fit given the running set — impossible since
            // job sizes are validated against total capacity and running
            // jobs all terminate.
            // detlint::allow(DL008): job sizes are validated against total capacity on entry
            unreachable!("head job larger than cluster capacity");
        };
        // Scan the rest of the queue (policy order) for backfill starts.
        // detlint::allow(DL008): `order` is a non-empty permutation of 0..queue.len()
        let candidates: Vec<crate::job::JobId> = order[1..].iter().map(|&i| queue[i].id).collect();
        for id in candidates {
            let Some(pos) = queue.iter().position(|j| j.id == id) else {
                continue;
            };
            // detlint::allow(DL008): `pos` was just returned by position() on this queue
            let job = &queue[pos];
            let Some(plan) = self.cluster.plan(job.gpus, self.placement) else {
                continue;
            };
            let finishes_before_shadow = now + job.duration <= shadow;
            let within_extra = job.gpus <= extra;
            if finishes_before_shadow || within_extra {
                if !finishes_before_shadow {
                    extra -= job.gpus;
                }
                let job = queue.remove(pos);
                let restarts = restart_counts.get(&job.id).copied().unwrap_or(0);
                self.start_job(
                    now,
                    job,
                    plan,
                    restarts,
                    running,
                    outcomes,
                    completions,
                    usage,
                    preempted,
                    discarded,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use opml_simkernel::SimDuration;

    fn job(id: u64, user: u32, gpus: u32, hours: u64, submit_h: u64) -> Job {
        Job {
            id: JobId(id),
            user,
            gpus,
            duration: SimDuration::hours(hours),
            submit: SimTime(submit_h * 60),
        }
    }

    #[test]
    fn fcfs_head_of_line_blocks() {
        // 4 GPUs. j0 takes all 4 for 4h. j1 (arrives t=1h) needs 4 → waits.
        // j2 (arrives t=1h) needs 1 for 1h → under FCFS it must wait behind
        // j1 even though a GPU is... no: j0 holds all 4, so nothing fits
        // anyway. Use: j0 takes 3 for 4h; j1 needs 4; j2 needs 1 for 1h.
        let jobs = vec![job(0, 0, 3, 4, 0), job(1, 1, 4, 2, 1), job(2, 2, 1, 1, 1)];
        let cluster = Cluster::homogeneous(1, 4);
        let fcfs = SchedSim::new(cluster.clone(), Policy::Fcfs, Placement::Packed).run(&jobs);
        let o2 = fcfs
            .outcomes()
            .iter()
            .find(|o| o.job.id == JobId(2))
            .unwrap();
        // FCFS: j2 waits for j1 which waits for j0's release at t=4h.
        assert!(o2.start >= SimTime(4 * 60), "j2 started at {:?}", o2.start);

        let easy = SchedSim::new(cluster, Policy::EasyBackfill, Placement::Packed).run(&jobs);
        let o2 = easy
            .outcomes()
            .iter()
            .find(|o| o.job.id == JobId(2))
            .unwrap();
        // EASY: j2 fits in the free GPU and ends (t=2h) before the shadow
        // time (t=4h) → backfills immediately at its arrival.
        assert_eq!(o2.start, SimTime(60));
    }

    #[test]
    fn backfill_never_delays_head() {
        // The backfilled job must not push the head job's start later.
        let jobs = vec![job(0, 0, 3, 4, 0), job(1, 1, 4, 2, 1), job(2, 2, 1, 10, 1)];
        let cluster = Cluster::homogeneous(1, 4);
        let easy = SchedSim::new(cluster, Policy::EasyBackfill, Placement::Packed).run(&jobs);
        let o1 = easy
            .outcomes()
            .iter()
            .find(|o| o.job.id == JobId(1))
            .unwrap();
        let o2 = easy
            .outcomes()
            .iter()
            .find(|o| o.job.id == JobId(2))
            .unwrap();
        // j2 runs 10h > shadow (4h) and extra = (4+3)-4 = ... after j0's
        // release avail=4, head takes 4, extra=0 → j2 may NOT backfill.
        assert_eq!(o1.start, SimTime(4 * 60), "head delayed by backfill");
        assert!(o2.start >= o1.start);
    }

    #[test]
    fn jobs_all_complete_exactly_once() {
        let jobs: Vec<Job> = (0..50)
            .map(|i| job(i, (i % 5) as u32, 1 + (i % 4) as u32, 1 + i % 3, i / 2))
            .collect();
        for policy in Policy::ALL {
            let s = SchedSim::new(Cluster::homogeneous(2, 4), policy, Placement::Packed).run(&jobs);
            assert_eq!(s.outcomes().len(), jobs.len(), "{}", policy.name());
            let mut ids: Vec<u64> = s.outcomes().iter().map(|o| o.job.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), jobs.len(), "{}: duplicate starts", policy.name());
        }
    }

    #[test]
    fn no_start_before_submit() {
        let jobs: Vec<Job> = (0..40).map(|i| job(i, 0, 2, 2, 5 + i)).collect();
        let s = SchedSim::new(
            Cluster::homogeneous(2, 2),
            Policy::EasyBackfill,
            Placement::Packed,
        )
        .run(&jobs);
        for o in s.outcomes() {
            assert!(o.start >= o.job.submit);
            assert_eq!(o.end, o.start + o.job.duration);
        }
    }

    #[test]
    fn gpu_capacity_never_exceeded() {
        let jobs: Vec<Job> = (0..60)
            .map(|i| job(i, (i % 7) as u32, 1 + (i % 8) as u32, 1 + i % 5, i / 3))
            .collect();
        let s = SchedSim::new(
            Cluster::homogeneous(2, 4),
            Policy::EasyBackfill,
            Placement::Packed,
        )
        .run(&jobs);
        // Sweep: at every start instant, the sum of overlapping jobs' GPUs
        // must be within capacity.
        for o in s.outcomes() {
            let t = o.start;
            let in_flight: u32 = s
                .outcomes()
                .iter()
                .filter(|x| x.start <= t && t < x.end)
                .map(|x| x.job.gpus)
                .sum();
            assert!(in_flight <= 8, "{} GPUs in flight at {:?}", in_flight, t);
        }
    }

    #[test]
    fn fair_share_prioritizes_starved_user() {
        // User 0 floods the queue; user 1 submits one job slightly later.
        let mut jobs: Vec<Job> = (0..8).map(|i| job(i, 0, 4, 4, 0)).collect();
        jobs.push(job(100, 1, 4, 1, 1));
        let cluster = Cluster::homogeneous(1, 4);
        let fcfs = SchedSim::new(cluster.clone(), Policy::Fcfs, Placement::Packed).run(&jobs);
        let fair = SchedSim::new(
            cluster,
            Policy::FairShare { backfill: false },
            Placement::Packed,
        )
        .run(&jobs);
        let wait = |s: &Schedule| {
            s.outcomes()
                .iter()
                .find(|o| o.job.id == JobId(100))
                .unwrap()
                .wait_hours()
        };
        assert!(
            wait(&fair) < wait(&fcfs),
            "fair share should serve the starved user sooner ({} vs {})",
            wait(&fair),
            wait(&fcfs)
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let jobs: Vec<Job> = (0..80)
            .map(|i| job(i, (i % 6) as u32, 1 + (i % 4) as u32, 1 + i % 6, i / 4))
            .collect();
        let run = || {
            SchedSim::new(
                Cluster::homogeneous(4, 4),
                Policy::EasyBackfill,
                Placement::Packed,
            )
            .run(&jobs)
            .outcomes()
            .iter()
            .map(|o| (o.job.id.0, o.start.0))
            .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn telemetry_balances_starts_and_completions() {
        let telemetry = Telemetry::recording();
        let jobs: Vec<Job> = (0..10).map(|i| job(i, 0, 2, 2, i)).collect();
        let s = SchedSim::new(Cluster::homogeneous(1, 4), Policy::Fcfs, Placement::Packed)
            .with_telemetry(telemetry.clone())
            .run(&jobs);
        assert_eq!(s.outcomes().len(), 10);
        let events = telemetry.events();
        let starts = events.iter().filter(|e| e.name == "job.start").count();
        let completes = events.iter().filter(|e| e.name == "job.complete").count();
        assert_eq!(starts, 10);
        assert_eq!(completes, 10);
        let metrics = telemetry.metrics_snapshot();
        assert_eq!(metrics.counters["sched.jobs_started"], 10);
        assert_eq!(metrics.histograms["sched.wait"].count, 10);
        assert!(metrics.gauges["sched.queue_depth.max"] >= 1.0);
    }

    #[test]
    #[should_panic(expected = "can never run")]
    fn oversized_job_panics() {
        let jobs = vec![job(0, 0, 99, 1, 0)];
        SchedSim::new(Cluster::homogeneous(1, 4), Policy::Fcfs, Placement::Packed).run(&jobs);
    }

    #[test]
    fn oversized_job_is_a_typed_error() {
        let jobs = vec![job(0, 0, 99, 1, 0)];
        let err = SchedSim::new(Cluster::homogeneous(1, 4), Policy::Fcfs, Placement::Packed)
            .try_run(&jobs)
            .unwrap_err();
        assert!(matches!(
            err,
            SchedError::OversizedJob {
                gpus: 99,
                total: 4,
                ..
            }
        ));
        assert!(err.to_string().contains("wants 99 GPUs"));
    }

    #[test]
    fn preempted_jobs_checkpoint_and_complete() {
        use opml_faults::FaultRates;
        let jobs: Vec<Job> = (0..25)
            .map(|i| job(i, (i % 3) as u32, 1 + (i % 4) as u32, 2 + i % 5, i / 2))
            .collect();
        let mut rates = FaultRates::none();
        rates.spot_preempt = 0.6;
        let run = || {
            SchedSim::new(
                Cluster::homogeneous(2, 4),
                Policy::EasyBackfill,
                Placement::Packed,
            )
            .with_faults(FaultPlan::new(9, rates.clone()))
            .run(&jobs)
        };
        let s = run();
        // Every job completes exactly once despite reclaims.
        assert_eq!(s.outcomes().len(), jobs.len());
        let mut ids: Vec<u64> = s.outcomes().iter().map(|o| o.job.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len(), "duplicate or lost jobs");
        let total_restarts: u32 = s.outcomes().iter().map(|o| o.restarts).sum();
        assert!(total_restarts > 0, "no preemptions fired at a 60% rate");
        // The final segment runs its remaining duration to completion.
        for o in s.outcomes() {
            assert_eq!(o.end, o.start + o.job.duration);
            assert!(o.start >= o.job.submit);
        }
        // Faulty schedules replay deterministically.
        let again = run();
        let key = |s: &Schedule| {
            s.outcomes()
                .iter()
                .map(|o| (o.job.id.0, o.start.0, o.end.0, o.restarts))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&s), key(&again));
    }

    #[test]
    fn inert_plan_reproduces_fault_free_schedule() {
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, (i % 5) as u32, 1 + (i % 4) as u32, 1 + i % 6, i / 3))
            .collect();
        let base = SchedSim::new(
            Cluster::homogeneous(2, 4),
            Policy::FairShare { backfill: true },
            Placement::Packed,
        )
        .run(&jobs);
        let inert = SchedSim::new(
            Cluster::homogeneous(2, 4),
            Policy::FairShare { backfill: true },
            Placement::Packed,
        )
        .with_faults(FaultPlan::none())
        .run(&jobs);
        let key = |s: &Schedule| {
            s.outcomes()
                .iter()
                .map(|o| (o.job.id.0, o.start.0, o.end.0, o.restarts))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&base), key(&inert));
    }
}
