//! Semester simulation: sample → book → execute → closed ledger.
//!
//! Each shard samples every student's behaviour from the student's own
//! stream, then books it: bare-metal/edge reservations go into the
//! cloud's calendar (reservations are future-dated, like the real
//! course's advance arrangements in §4) and every action into one
//! time-ordered event queue. Executing that queue keeps the cloud's
//! clock monotone, so lease auto-terminations fire exactly when they
//! should.
//!
//! ## Sharded execution
//!
//! Cohorts larger than [`SemesterConfig::shard_students`] are split
//! into shards of at most that many students, each simulated against
//! its own replicated campus (own capacity calendar, quota ledger,
//! fault engine and telemetry buffer), then merged in shard-index
//! order. The shard structure is a pure function of the config — never
//! of the executing thread count — so every [`Storage`] (memory or
//! spill) produces a byte-identical outcome at any rayon pool size;
//! [`simulate_semester_exec`] takes the `Storage`, and
//! [`simulate_semester`] keeps shards in memory. Shards always run on
//! the ambient pool; a pool pinned to one thread runs them one after
//! another on the calling thread. A cohort that fits in one shard takes
//! the legacy single-campus path unchanged.

use crate::behavior::{sample_student, Intent};
use crate::labspec::lab_specs;
use crate::project::{plan_projects_range, GROUPS};
use crate::spill::{SpillConfig, SpillError, SpillStats, StreamOutcome};
use opml_faults::{
    site_key, CircuitBreaker, FaultKind, FaultPlan, FaultProfile, FaultStats, RetryPolicy,
    LEAK_PROB,
};
use opml_metering::attribution::student_name;
use opml_simkernel::parallel::map_slice;
use opml_simkernel::{split_seed, EventQueue, Rng, SimDuration, SimTime};
use opml_telemetry::{AttrValue, MetricsSnapshot, Telemetry, TelemetryEvent};
use opml_testbed::error::CloudError;
use opml_testbed::flavor::FlavorId;
use opml_testbed::instance::InstanceId;
use opml_testbed::lease::LeaseId;
use opml_testbed::ledger::{Ledger, UsageRecord};
use opml_testbed::network::{FloatingIpId, NetworkId};
use opml_testbed::storage::VolumeId;
use opml_testbed::Cloud;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::sync::{Mutex, PoisonError};

/// A queued on-demand VM deployment.
#[derive(Debug)]
pub(crate) struct PlannedVm {
    /// Deployment name (attribution key; nodes get `-node<k>` suffixes).
    pub(crate) name: String,
    /// Flavor.
    pub(crate) flavor: FlavorId,
    /// Instances in the deployment.
    pub(crate) node_count: u32,
    /// How long the deployment lives.
    pub(crate) wall: SimDuration,
    /// Whether it holds a floating IP.
    pub(crate) fip: bool,
    /// Whether it creates a private network + router.
    pub(crate) network: bool,
    /// Quota-retry attempts so far.
    pub(crate) attempts: u32,
    /// Injected-fault retries/relaunches so far (also the attempt index
    /// for fault-plan draws, so each retry re-rolls independently).
    pub(crate) fault_attempts: u32,
}

/// A queued block volume.
#[derive(Debug)]
pub(crate) struct PlannedVolume {
    /// Volume name.
    pub(crate) name: String,
    /// Size in GB.
    pub(crate) gb: u64,
    /// Deletion time.
    pub(crate) end: SimTime,
    /// Injected-fault retries so far.
    pub(crate) attempts: u32,
}

/// Semester length in weeks: the paper's course runs 14.
pub const SEMESTER_WEEKS: u64 = 14;

/// When every semester closes its books: the start of the week after
/// the last, so end-of-term teardowns are metered.
pub const SEMESTER_END: SimTime = SimTime::at(SEMESTER_WEEKS + 1, 0, 0, 0);

/// Semester configuration. Every semester runs [`SEMESTER_WEEKS`] weeks
/// and closes its books at [`SEMESTER_END`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SemesterConfig {
    /// Enrolled students (paper: 191).
    pub enrollment: u32,
    /// Whether to simulate the project phase.
    pub run_projects: bool,
    /// Ablation: if set, on-demand VM deployments are capped at this
    /// duration, emulating Chameleon's later addition of VM advance
    /// reservations with automatic termination (§5).
    pub vm_auto_terminate_after: Option<SimDuration>,
    /// Fault injection rate; recovery follows from it.
    /// [`FaultProfile::none`] (the default) reproduces the fault-free
    /// semester byte-identically.
    pub faults: FaultProfile,
    /// Maximum students per shard. Cohorts at or below this size run on
    /// the legacy single-campus path; larger cohorts are split into
    /// replicated-campus shards (see the module docs). The default is
    /// the paper's enrollment, so the paper course is always exactly
    /// one shard.
    #[serde(default = "default_shard_students")]
    pub shard_students: u32,
}

/// Serde default for [`SemesterConfig::shard_students`] (configs
/// serialized before sharding existed deserialize onto the legacy
/// single-shard path).
fn default_shard_students() -> u32 {
    191
}

impl SemesterConfig {
    /// The paper's course: 191 students, 14 weeks, projects on.
    pub fn paper_course() -> SemesterConfig {
        SemesterConfig {
            enrollment: 191,
            run_projects: true,
            vm_auto_terminate_after: None,
            faults: FaultProfile::none(),
            shard_students: default_shard_students(),
        }
    }

    /// Labs only (the Table 1 scope).
    pub fn labs_only() -> SemesterConfig {
        SemesterConfig {
            run_projects: false,
            ..SemesterConfig::paper_course()
        }
    }

    /// Split the cohort into shards of at most `shard_students`
    /// students each.
    ///
    /// The split is a function of the config alone — never of the
    /// executing thread count — so the shard structure (and therefore
    /// every byte of the merged outcome) is fixed before any execution
    /// strategy is chosen. A cohort that fits in one shard keeps the
    /// legacy single-campus semantics: groups `0..GROUPS` regardless of
    /// enrollment. Multi-shard runs give every full shard all `GROUPS`
    /// project groups and the trailing remainder shard a proportional
    /// share, with globally unique group ids.
    pub fn shards(&self) -> Vec<ShardSpec> {
        let per = self.shard_students.max(1);
        if self.enrollment <= per {
            return vec![ShardSpec {
                index: 0,
                students: 0..self.enrollment,
                groups: 0..GROUPS,
            }];
        }
        let mut shards = Vec::new();
        let mut group_base = 0u32;
        let mut start = 0u32;
        while start < self.enrollment {
            let end = start.saturating_add(per).min(self.enrollment);
            let count = end - start;
            let groups = if count == per {
                GROUPS
            } else {
                // Remainder shard: proportional share, rounded up so
                // any non-empty shard plans at least one group.
                ((u64::from(count) * u64::from(GROUPS)).div_ceil(u64::from(per))) as u32
            };
            shards.push(ShardSpec {
                index: shards.len() as u32,
                students: start..end,
                groups: group_base..group_base + groups,
            });
            group_base += groups;
            start = end;
        }
        shards
    }
}

/// One shard of a (possibly sharded) semester run: a contiguous range
/// of global student ids plus a contiguous range of global project
/// group ids, executed against its own replicated campus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index; shards are merged in index order.
    pub index: u32,
    /// Global student ids simulated by this shard.
    pub students: std::ops::Range<u32>,
    /// Global project-group ids planned by this shard.
    pub groups: std::ops::Range<u32>,
}

impl ShardSpec {
    /// Number of students in this shard.
    pub fn student_count(&self) -> u32 {
        self.students.end - self.students.start
    }
}

/// Result of a semester simulation.
#[derive(Debug)]
pub struct SemesterOutcome {
    /// The closed usage ledger.
    pub ledger: Ledger,
    /// Quota denials encountered (deployments retried later).
    pub quota_denials: u64,
    /// Reservations that could not be placed at the preferred time and
    /// were pushed to a later slot.
    pub slot_pushbacks: u64,
    /// What the failure path did (all zeros under an inert profile).
    pub faults: FaultStats,
}

/// One queued event of a shard's semester.
pub(crate) enum Ev {
    VmUp(PlannedVm),
    VmDown(Deployment),
    /// An injected mid-lab crash of a running deployment (fault path
    /// only; never scheduled under an inert plan).
    VmCrash {
        vm: PlannedVm,
        dep: Deployment,
        down_at: SimTime,
    },
    LeaseUp {
        name: String,
        lease: LeaseId,
        fip_until: SimTime,
        attempt: u32,
    },
    /// An injected lease revocation (fault path only).
    LeaseRevoked {
        name: String,
        lease: LeaseId,
        end: SimTime,
        attempt: u32,
    },
    FipDown(FloatingIpId),
    VolUp(PlannedVolume),
    VolDown(VolumeId),
    BucketPut {
        name: String,
        gb: f64,
    },
}

impl Ev {
    /// Stable variant tag for the `queue.pop` telemetry event.
    fn kind(&self) -> &'static str {
        match self {
            Ev::VmUp(_) => "vm_up",
            Ev::VmDown { .. } => "vm_down",
            Ev::VmCrash { .. } => "vm_crash",
            Ev::LeaseUp { .. } => "lease_up",
            Ev::LeaseRevoked { .. } => "lease_revoked",
            Ev::FipDown(_) => "fip_down",
            Ev::VolUp(_) => "vol_up",
            Ev::VolDown(_) => "vol_down",
            Ev::BucketPut { .. } => "bucket_put",
        }
    }
}

/// Stream id deriving the fault-plan seed from the semester seed (keeps
/// fault decisions decorrelated from every student stream).
const FAULT_STREAM: u64 = 0xFA57_0001;
/// Stream tag for the walk-away (leak) decision.
const LEAK_TAG: u64 = 0x1EAC;

/// Runtime fault state for one semester run: the immutable plan, the
/// recovery policies the profile derives from its rate, and the mutable
/// breaker and counters.
struct FaultEngine {
    plan: FaultPlan,
    quota_retry: RetryPolicy,
    fault_retry: RetryPolicy,
    breaker: Option<CircuitBreaker>,
    stats: FaultStats,
}

impl FaultEngine {
    fn new(profile: &FaultProfile, seed: u64) -> FaultEngine {
        FaultEngine {
            plan: FaultPlan::new(split_seed(seed, FAULT_STREAM), profile.rate),
            quota_retry: profile.quota_retry(),
            fault_retry: profile.fault_retry(),
            breaker: profile.breaker(),
            stats: FaultStats::default(),
        }
    }

    /// Does the student walk away without cleaning up? Deterministic
    /// per-site draw, reached only after an injected crash.
    fn leaks(&self, site: u64, attempt: u32) -> bool {
        Rng::for_stream(
            split_seed(self.plan.seed() ^ LEAK_TAG, site),
            u64::from(attempt),
        )
        .chance(LEAK_PROB)
    }
}

/// Where each shard's output waits for the merge. The shard structure,
/// and so every byte of the outcome, is the same under every `Storage`.
#[derive(Debug, Clone)]
pub enum Storage {
    /// In memory: peak memory is O(cohort).
    Memory,
    /// In one run file per shard ([`crate::spill`]): peak memory is
    /// O(threads × shard).
    Spill(SpillConfig),
}

/// Receives a semester's ledger record by record, in merge order.
pub trait LedgerSink {
    /// Announces the total record count before the first record.
    fn reserve(&mut self, _records: usize) {}
    /// Takes the next record.
    fn push(&mut self, record: UsageRecord);
    /// Takes a whole ledger at once (the single-shard path).
    fn append(&mut self, ledger: Ledger) {
        self.reserve(ledger.records().len());
        for record in ledger {
            self.push(record);
        }
    }
}

/// Materializes the ledger: adopts a whole ledger's buffer, or allocates
/// once at the announced size.
impl LedgerSink for Ledger {
    fn reserve(&mut self, records: usize) {
        Ledger::reserve(self, records);
    }

    fn push(&mut self, record: UsageRecord) {
        Ledger::push(self, record);
    }

    fn append(&mut self, ledger: Ledger) {
        if self.records().is_empty() {
            // Adopt the buffer rather than copy it.
            *self = ledger;
        } else {
            Ledger::append(self, ledger);
        }
    }
}

impl<F: FnMut(UsageRecord)> LedgerSink for F {
    fn push(&mut self, record: UsageRecord) {
        self(record);
    }
}

/// Simulate a full semester; returns the closed ledger and counters.
///
/// Cohorts larger than [`SemesterConfig::shard_students`] are split
/// into shards executed in parallel on the ambient rayon pool and
/// merged deterministically; the outcome is byte-identical under every
/// [`Storage`] ([`simulate_semester_exec`]) at any thread count.
pub fn simulate_semester(config: &SemesterConfig, seed: u64) -> SemesterOutcome {
    simulate_semester_with(config, seed, &Telemetry::disabled())
}

/// Simulate a full semester like [`simulate_semester`], emitting the
/// semester trace through `telemetry`: `semester.plan`/`semester.exec`
/// spans, per-pop `queue.pop` instants, `slot.pushback`/`vm.retry`
/// events, weekly `semester.week_start` transitions, and the cloud's own
/// instance/lease/quota events. Multi-shard runs buffer each shard's
/// trace privately and replay the buffers through `telemetry` in
/// shard-index order, so the merged trace is identical however the
/// shards were scheduled.
pub fn simulate_semester_with(
    config: &SemesterConfig,
    seed: u64,
    telemetry: &Telemetry,
) -> SemesterOutcome {
    let mut ledger = Ledger::new();
    let Ok(outcome) = drive(config, seed, &InMemory::default(), telemetry, &mut ledger);
    outcome.with_ledger(ledger)
}

/// Simulate a full semester with shard output kept in `storage`,
/// emitting its trace through `telemetry` and delivering its ledger to
/// `sink`. Every `storage` produces the same trace, ledger and
/// counters; only [`Storage::Spill`] can fail.
pub fn simulate_semester_exec(
    config: &SemesterConfig,
    seed: u64,
    storage: &Storage,
    telemetry: &Telemetry,
    sink: &mut impl LedgerSink,
) -> Result<StreamOutcome, SpillError> {
    match storage {
        Storage::Memory => {
            let Ok(outcome) = drive(config, seed, &InMemory::default(), telemetry, sink);
            Ok(outcome)
        }
        Storage::Spill(spill) => drive(config, seed, spill, telemetry, sink),
    }
}

/// Measured per-student telemetry event volume (2k-student profile run:
/// ~221 events/student), rounded up. Sizes each shard's event buffer.
const EVENTS_PER_STUDENT: usize = 232;

/// Per-student capacity hint for the shard cloud's ledger. The paper
/// course fills about half of it (8,798 records for 191 students with
/// projects) and a labs-only shard about a third (~32 per student).
const LEDGER_RECORDS_PER_STUDENT: usize = 96;

/// Event-queue capacity hint per student (peak outstanding future
/// events is far below the total event count).
const QUEUE_EVENTS_PER_STUDENT: usize = 16;

/// Intent-buffer capacity: one per lab (12) plus the most sessions one
/// student can book (26), so the buffer never grows.
const INTENTS_PER_STUDENT: usize = 38;

/// A shard's telemetry events and metrics snapshot, folded into the
/// parent handle by the merge.
type ShardAux = (Vec<TelemetryEvent>, MetricsSnapshot);

/// Where shard ledgers wait between the shard map and the merge: in
/// memory ([`InMemory`]) or in run files ([`SpillConfig`]). Telemetry
/// never goes through the store; the driver holds it in memory.
pub(crate) trait ShardStore: Sync {
    /// What storing one shard's ledger leaves for the merge.
    type Run: Send;
    /// What storing or draining can fail with.
    type Error: Send;

    /// Keep one shard's ledger, in the order it was closed, until the
    /// merge. Shards may arrive in any order.
    fn store(&self, shard: u32, ledger: Ledger) -> Result<Self::Run, Self::Error>;

    /// Deliver every stored record to `sink` in canonical order,
    /// counting disk work in `stats`; returns the records delivered.
    /// `runs` come in shard order.
    fn drain(
        &self,
        runs: Vec<Self::Run>,
        stats: &mut SpillStats,
        sink: &mut impl LedgerSink,
    ) -> Result<u64, Self::Error>;
}

/// The cohort's one ledger: each shard appends its records as it
/// finishes, and the merge sorts the whole buffer in place.
///
/// Records that tie on the canonical key are equal in every field
/// ([`Ledger::sort_canonical`]), so the sorted bytes do not depend on
/// the order the shards appended in. A poisoned lock is taken as is:
/// an append grows the buffer before it moves a record, so a panic
/// mid-append leaves the ledger whole.
#[derive(Default)]
struct InMemory {
    ledger: Mutex<Ledger>,
}

impl ShardStore for InMemory {
    type Run = ();
    type Error = Infallible;

    /// Moves the records into the cohort ledger and frees the shard's
    /// buffer.
    fn store(&self, _shard: u32, ledger: Ledger) -> Result<(), Infallible> {
        self.ledger
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(ledger);
        Ok(())
    }

    /// Sorts the cohort ledger in place and hands the buffer to `sink`.
    fn drain(
        &self,
        _runs: Vec<()>,
        _stats: &mut SpillStats,
        sink: &mut impl LedgerSink,
    ) -> Result<u64, Infallible> {
        let _phase = opml_profiler::wall_phase(opml_profiler::phases::MERGE_LEDGER);
        let mut ledger =
            std::mem::take(&mut *self.ledger.lock().unwrap_or_else(PoisonError::into_inner));
        ledger.sort_canonical();
        let records = ledger.records().len() as u64;
        sink.append(ledger);
        Ok(records)
    }
}

/// The semester driver behind every entry point.
///
/// A cohort that fits in one shard takes the legacy single-campus path:
/// the parent telemetry handle, the close-order ledger, no merge and no
/// disk. Larger cohorts map their shards on the ambient rayon pool and
/// hand each shard's ledger to `store` (its telemetry stays in memory),
/// then fold per-shard results in shard-index order and let `store`
/// drain the ledger into `sink`.
///
/// Merge laws, each associative and stable under the fixed shard
/// order: ledgers merge into the canonical record order, which is the
/// sort of their concatenation in any order, since records that tie
/// are equal in every field; `u64` counters sum exactly;
/// [`FaultStats`] sum fieldwise; telemetry buffers replay through the
/// parent handle in shard-index order (fresh, gapless sequence stamps);
/// metric snapshots fold via [`Telemetry::merge_metrics`].
pub(crate) fn drive<S: ShardStore>(
    config: &SemesterConfig,
    seed: u64,
    store: &S,
    telemetry: &Telemetry,
    sink: &mut impl LedgerSink,
) -> Result<StreamOutcome, S::Error> {
    let shards = config.shards();
    if let [only] = shards.as_slice() {
        let outcome = run_shard(config, seed, only, telemetry, false);
        let scalars = StreamOutcome::of(&outcome);
        sink.append(outcome.ledger);
        return Ok(scalars);
    }

    let record = telemetry.is_enabled();
    let stored = map_slice(&shards, |_, shard| {
        let (outcome, aux) = run_shard_buffered(config, seed, shard, record);
        let scalars = StreamOutcome::of(&outcome);
        store
            .store(shard.index, outcome.ledger)
            .map(|stored| (scalars, aux, stored))
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    telemetry.counter_add("semester.shards", stored.len() as u64);
    let mut outcome = StreamOutcome::default();
    let mut runs = Vec::with_capacity(stored.len());
    for (shard, aux, run) in stored {
        let metrics = {
            let _phase = opml_profiler::wall_phase(opml_profiler::phases::MERGE_REPLAY);
            aux.map(|(events, metrics)| {
                telemetry.replay_owned(events);
                metrics
            })
        };
        if let Some(metrics) = metrics {
            let _phase = opml_profiler::wall_phase(opml_profiler::phases::MERGE_METRICS);
            telemetry.merge_metrics(&metrics);
        }
        outcome.quota_denials += shard.quota_denials;
        outcome.slot_pushbacks += shard.slot_pushbacks;
        outcome.faults.merge(&shard.faults);
        runs.push(run);
    }
    outcome.records = store.drain(runs, &mut outcome.stats, sink)?;
    Ok(outcome)
}

/// Execute one shard against its own recording telemetry handle (or
/// fully disabled telemetry when the parent handle is disabled), so
/// shards never contend on the parent handle and their event streams
/// can be replayed in shard order afterwards. The telemetry comes back
/// as `None` when the parent handle is disabled.
fn run_shard_buffered(
    config: &SemesterConfig,
    seed: u64,
    shard: &ShardSpec,
    record: bool,
) -> (SemesterOutcome, Option<ShardAux>) {
    // Wall-phase attribution (no-op unless a profiled run enabled the
    // profiler): the shard body vs the merge stages is exactly the
    // split that explains sharded-vs-serial wall time.
    let _phase = opml_profiler::wall_phase(opml_profiler::phases::SHARD_SIM);
    let telemetry = if record {
        Telemetry::recording_with_capacity(shard.student_count() as usize * EVENTS_PER_STUDENT)
    } else {
        Telemetry::disabled()
    };
    let outcome = run_shard(config, seed, shard, &telemetry, true);
    // Drain rather than clone: the buffer moves wholesale into the
    // merge's restamp pass.
    let aux = record.then(|| (telemetry.take_events(), telemetry.metrics_snapshot()));
    (outcome, aux)
}

/// Run one shard of the semester against its own replicated campus.
///
/// With the cohort-sized single shard this is exactly the legacy
/// monolithic driver (and `annotate` is false so the trace bytes are
/// unchanged); multi-shard callers set `annotate` to stamp the shard
/// index onto the plan span.
fn run_shard(
    config: &SemesterConfig,
    seed: u64,
    shard: &ShardSpec,
    telemetry: &Telemetry,
    annotate: bool,
) -> SemesterOutcome {
    // Capacity hints derived from the shard size (measured per-student
    // volumes at the 2k profile scale, rounded up): they keep the
    // ledger and the event queue from reallocating mid-simulation.
    // Hints, not bounds — a shard that outgrows them just grows.
    let students = shard.student_count() as usize;
    let mut campus = Campus {
        cloud: Cloud::paper_course()
            .with_telemetry(telemetry.clone())
            .with_ledger_capacity(students * LEDGER_RECORDS_PER_STUDENT),
        queue: EventQueue::with_capacity(students * QUEUE_EVENTS_PER_STUDENT),
        fe: FaultEngine::new(&config.faults, seed),
        telemetry,
        quota_denials: 0,
        slot_pushbacks: 0,
    };
    let plan_span = telemetry.span(SimTime::ZERO, "semester.plan", || {
        let mut attrs = vec![
            ("enrollment", shard.student_count().into()),
            ("weeks", SEMESTER_WEEKS.into()),
            ("projects", config.run_projects.into()),
        ];
        if annotate {
            attrs.push(("shard", shard.index.into()));
        }
        attrs
    });

    let specs = lab_specs();
    let vm_cap = config.vm_auto_terminate_after;
    let mut intents = Vec::with_capacity(INTENTS_PER_STUDENT);
    for sid in shard.students.clone() {
        sample_student(&specs, seed, sid, vm_cap, &mut intents);
        campus.book_student(sid, &intents);
    }
    if config.run_projects && !shard.groups.is_empty() {
        let window_start = SimTime::at(8, 3, 12, 0);
        telemetry.instant(window_start, "project.window_open", || {
            vec![("until_min", SEMESTER_END.0.into())]
        });
        // The project seed and per-group streams are global (shard 0
        // reproduces the legacy plan bit-for-bit); only the group range
        // is shard-local.
        plan_projects_range(
            &mut campus.cloud,
            &mut campus.queue,
            window_start,
            SEMESTER_END,
            seed ^ 0x1234_5678,
            shard.groups.clone(),
        );
    }
    plan_span.end(SimTime::ZERO);

    let exec_span = telemetry.span(SimTime::ZERO, "semester.exec", Vec::new);
    campus.execute();
    exec_span.end(SEMESTER_END);
    let quota_denials = campus.quota_denials;
    telemetry.instant(SEMESTER_END, "semester.finalize", || {
        vec![("quota_denials", quota_denials.into())]
    });
    let stats = campus.queue.stats();
    telemetry.counter_add("semester.queue_pushes", stats.pushes);
    telemetry.counter_add("semester.queue_pops", stats.pops);
    telemetry.gauge_set("semester.queue_high_water", stats.high_water as f64);
    telemetry.counter_add("semester.quota_denials", quota_denials);
    let faults = campus.fe.stats;
    telemetry.counter_add("semester.faults_injected", faults.injected);
    telemetry.counter_add("semester.faults_abandoned", faults.abandoned);
    telemetry.counter_add("semester.faults_leaked", faults.leaked);
    SemesterOutcome {
        ledger: campus.cloud.into_ledger(),
        quota_denials,
        slot_pushbacks: campus.slot_pushbacks,
        faults,
    }
}

/// One shard's replicated campus while its semester runs: the cloud,
/// the event queue every booking pushes into, the fault engine, and the
/// counters the outcome reports.
struct Campus<'t> {
    cloud: Cloud,
    queue: EventQueue<Ev>,
    fe: FaultEngine,
    telemetry: &'t Telemetry,
    quota_denials: u64,
    slot_pushbacks: u64,
}

impl Campus<'_> {
    /// Book one student's sampled labs in lab order. Each VM lab queues
    /// its deployment, and lab 8 its volume and bucket behind it. A
    /// leased lab's first session searches the calendar from the
    /// student's preferred time, each later one from the end of the
    /// last booked session; a skipped session leaves the search point
    /// where it was.
    fn book_student(&mut self, sid: u32, intents: &[Intent<'_>]) {
        let mut from = SimTime::ZERO;
        for intent in intents {
            match *intent {
                Intent::Vm { spec, at, wall } => {
                    let name = student_name(spec.tag, sid);
                    let storage = spec
                        .storage
                        .map(|s| (s, format!("{name}-vol"), format!("{name}-bucket")));
                    self.queue.push(
                        at,
                        Ev::VmUp(PlannedVm {
                            name,
                            // detlint::allow(DL008): every LabSpec declares at least one flavor
                            flavor: spec.flavors[0].0,
                            node_count: spec.node_count,
                            wall,
                            fip: true,
                            network: spec.private_network,
                            attempts: 0,
                            fault_attempts: 0,
                        }),
                    );
                    if let Some((storage, volume, bucket)) = storage {
                        self.queue.push(
                            at,
                            Ev::VolUp(PlannedVolume {
                                name: volume,
                                gb: storage.block_gb,
                                end: at + wall,
                                attempts: 0,
                            }),
                        );
                        self.queue.push(
                            at + SimDuration::minutes(30),
                            Ev::BucketPut {
                                name: bucket,
                                gb: storage.object_gb,
                            },
                        );
                    }
                }
                Intent::Leased { at } => from = at,
                Intent::Session { spec, flavor } => {
                    let dur = SimDuration::hours(spec.slot_hours);
                    let Some(start) = self.cloud.earliest_slot(flavor, 1, dur, from) else {
                        continue;
                    };
                    if start > from {
                        self.slot_pushbacks += 1;
                        self.telemetry.instant(SimTime::ZERO, "slot.pushback", || {
                            vec![
                                ("name", student_name(spec.tag, sid).into()),
                                ("flavor", flavor.name().into()),
                                ("wanted_min", from.0.into()),
                                ("got_min", start.0.into()),
                            ]
                        });
                        self.telemetry.counter_add("semester.slot_pushbacks", 1);
                    }
                    let name = student_name(spec.tag, sid);
                    // earliest_slot admitted this window; if the reserve
                    // is refused anyway, the student just loses the slot.
                    let Ok(lease) = self.cloud.reserve(flavor, 1, start, start + dur, &name) else {
                        continue;
                    };
                    self.queue.push(
                        start,
                        Ev::LeaseUp {
                            name,
                            lease: lease.id,
                            fip_until: start + dur,
                            attempt: 0,
                        },
                    );
                    from = start + dur;
                }
            }
        }
    }

    /// Pop and execute every queued event in time order, then close the
    /// books at the end of the semester.
    fn execute(&mut self) {
        let mut last_week: Option<u64> = None;
        while let Some((t, ev)) = self.queue.pop() {
            if self.telemetry.is_enabled() {
                let week = t.week();
                if last_week != Some(week) {
                    last_week = Some(week);
                    self.telemetry
                        .instant(t, "semester.week_start", || vec![("week", week.into())]);
                }
                let kind = ev.kind();
                let depth = self.queue.len();
                self.telemetry.instant(t, "queue.pop", || {
                    vec![("kind", kind.into()), ("depth", depth.into())]
                });
            }
            self.cloud.advance_to(t);
            match ev {
                Ev::VmUp(vm) => self.vm_up(t, vm),
                Ev::VmDown(dep) => dep.tear_down(&mut self.cloud),
                Ev::VmCrash { vm, dep, down_at } => self.vm_crash(t, vm, dep, down_at),
                Ev::LeaseUp {
                    name,
                    lease,
                    fip_until,
                    attempt,
                } => self.lease_up(t, name, lease, fip_until, attempt),
                Ev::LeaseRevoked {
                    name,
                    lease,
                    end,
                    attempt,
                } => self.lease_revoked(t, name, lease, end, attempt),
                Ev::FipDown(fip) => {
                    let _ = self.cloud.release_fip(fip);
                }
                Ev::VolUp(v) => self.vol_up(t, v),
                Ev::VolDown(id) => {
                    let _ = self.cloud.detach_volume(id);
                    let _ = self.cloud.delete_volume(id);
                }
                Ev::BucketPut { name, gb } => {
                    self.cloud.bucket(&name).put((gb * 1000.0) as u64, gb);
                }
            }
        }
        self.cloud.finalize(SEMESTER_END);
    }

    fn vm_up(&mut self, t: SimTime, mut vm: PlannedVm) {
        // Retry drift must not outlive the books: a requeued deployment
        // that can no longer finish before finalize is abandoned. First
        // attempts are untouched (legacy path).
        if (vm.attempts > 0 || vm.fault_attempts > 0 || self.fe.breaker.is_some())
            && t + vm.wall > SEMESTER_END
        {
            self.abandon(t, &vm.name, "term_end".into(), false);
            return;
        }
        // An open quota breaker defers the whole attempt ("staff said
        // stop launching") without burning a retry.
        if let Some(at) = self.fe.breaker.as_ref().and_then(|b| b.retry_at(t)) {
            self.telemetry.instant(t, "retry.attempt", || {
                vec![
                    ("name", vm.name.clone().into()),
                    ("cause", "breaker".into()),
                ]
            });
            self.queue.push(at, Ev::VmUp(vm));
            return;
        }
        let site = site_key(&vm.name);
        match deploy_vm(&mut self.cloud, &vm, &self.fe.plan) {
            Ok((dep, degraded)) => {
                if let Some(b) = self.fe.breaker.as_mut() {
                    b.record_success();
                }
                if degraded {
                    // Floating-IP allocation failed: the lab runs on the
                    // private network only.
                    self.fe.stats.degraded += 1;
                    self.inject(t, FaultKind::FipFail, &vm.name, None);
                    self.telemetry.instant(t, "recover.degraded", || {
                        vec![("name", vm.name.clone().into()), ("mode", "no_fip".into())]
                    });
                }
                let down_at = t + vm.wall;
                let crash = FaultKind::InstanceCrash;
                if self.fe.plan.fires(crash, site, vm.fault_attempts) {
                    let frac = self
                        .fe
                        .plan
                        .fraction(crash, site, vm.fault_attempts, 0.1, 0.9);
                    let crash_in =
                        SimDuration((vm.wall.0 as f64 * frac).ceil().max(1.0) as u64).min(vm.wall);
                    self.queue
                        .push(t + crash_in, Ev::VmCrash { vm, dep, down_at });
                } else {
                    self.queue.push(down_at, Ev::VmDown(dep));
                }
            }
            Err(CloudError::QuotaExceeded { .. }) => {
                self.quota_denials += 1;
                vm.attempts += 1;
                let fe = &mut self.fe;
                let mut retry_at = fe
                    .quota_retry
                    .backoff(fe.plan.seed(), site, vm.attempts)
                    .map(|d| t + d);
                if let Some(b) = fe.breaker.as_mut() {
                    if b.record_failure(t) {
                        fe.stats.breaker_trips += 1;
                        self.telemetry
                            .instant(t, "breaker.open", || vec![("name", vm.name.clone().into())]);
                    }
                    if let (Some(at), Some(open_until)) = (retry_at, b.retry_at(t)) {
                        retry_at = Some(at.max(open_until));
                    }
                }
                self.requeue_or_abandon(t, retry_at, "quota", vm.attempts, vm);
            }
            Err(e) if e.is_retryable() => {
                // Injected transient failure on the deploy path.
                if matches!(e, CloudError::TransientFault { .. }) {
                    self.inject(t, FaultKind::LaunchFail, &vm.name, Some(vm.fault_attempts));
                }
                vm.fault_attempts += 1;
                let fe = &self.fe;
                let retry_at = fe
                    .fault_retry
                    .backoff(fe.plan.seed(), site, vm.fault_attempts)
                    .map(|d| t + d);
                self.requeue_or_abandon(t, retry_at, "fault", vm.fault_attempts, vm);
            }
            // Permanent refusal: retrying the identical call can never
            // succeed, so the student gives up.
            Err(e) => self.abandon(t, &vm.name, e.to_string().into(), false),
        }
    }

    fn vm_crash(&mut self, t: SimTime, mut vm: PlannedVm, dep: Deployment, down_at: SimTime) {
        self.inject(t, FaultKind::InstanceCrash, &vm.name, None);
        if let Some(&first) = dep.ids.first() {
            let _ = self.cloud.crash_instance(first);
        }
        let site = site_key(&vm.name);
        if self.fe.leaks(site, vm.fault_attempts) {
            // The paper's signature pathology: the student walks away and
            // the surviving nodes, floating IP and network all run until
            // semester finalize.
            self.abandon(t, &vm.name, "crash".into(), true);
            return;
        }
        // Tidy recovery: tear down the survivors now, then relaunch for
        // the remaining wall if it is worth it.
        dep.tear_down(&mut self.cloud);
        let remaining = down_at.since(t);
        vm.fault_attempts += 1;
        let fe = &mut self.fe;
        match fe
            .fault_retry
            .backoff(fe.plan.seed(), site, vm.fault_attempts)
        {
            Some(d) if remaining >= SimDuration::minutes(30) => {
                fe.stats.retries += 1;
                vm.wall = remaining;
                self.telemetry.instant(t, "recover.relaunch", || {
                    vec![
                        ("name", vm.name.clone().into()),
                        ("remaining_min", remaining.0.into()),
                    ]
                });
                self.queue.push(t + d, Ev::VmUp(vm));
            }
            _ => self.abandon(t, &vm.name, "crash".into(), false),
        }
    }

    fn lease_up(
        &mut self,
        t: SimTime,
        name: String,
        lease: LeaseId,
        fip_until: SimTime,
        attempt: u32,
    ) {
        // Bare-metal provisioning per §4: the student claims the node at
        // slot start; auto-termination reclaims it.
        if let Err(e) = self.cloud.create_leased_instance(&name, lease) {
            // The slot no longer exists (e.g. revoked before its start);
            // the student loses the session.
            self.fe.stats.abandoned += 1;
            let msg = e.to_string();
            self.telemetry.instant(t, "lease.skip", || {
                vec![("name", name.clone().into()), ("error", msg.clone().into())]
            });
            return;
        }
        if let Ok(fip) = self.cloud.allocate_fip(&name) {
            self.queue.push(fip_until, Ev::FipDown(fip));
        }
        let site = site_key(&name);
        let plan = &self.fe.plan;
        if plan.fires(FaultKind::LeaseRevoke, site, attempt) {
            let frac = plan.fraction(FaultKind::LeaseRevoke, site, attempt, 0.05, 0.95);
            let window = fip_until.since(t);
            let revoke_in =
                SimDuration((window.0 as f64 * frac).ceil().max(1.0) as u64).min(window);
            self.queue.push(
                t + revoke_in,
                Ev::LeaseRevoked {
                    name,
                    lease,
                    end: fip_until,
                    attempt,
                },
            );
        }
    }

    fn lease_revoked(
        &mut self,
        t: SimTime,
        name: String,
        lease: LeaseId,
        end: SimTime,
        attempt: u32,
    ) {
        let flavor = self.cloud.calendar().get(lease).map(|l| l.flavor);
        if self.cloud.revoke_lease(lease).is_err() {
            // A revocation racing the natural lease end is a no-op.
            return;
        }
        self.inject(t, FaultKind::LeaseRevoke, &name, None);
        let remaining = end.since(t);
        let next_attempt = attempt + 1;
        let rebooked = if next_attempt < self.fe.fault_retry.max_attempts
            && remaining >= SimDuration::minutes(30)
        {
            flavor.and_then(|fl| {
                self.cloud
                    .earliest_slot(fl, 1, remaining, t + SimDuration::hours(1))
                    // The rebooked window must still close its books
                    // before finalize.
                    .filter(|&s| s + remaining <= SEMESTER_END)
                    .and_then(|s| {
                        self.cloud
                            .reserve(fl, 1, s, s + remaining, &name)
                            .ok()
                            .map(|l2| (s, l2.id))
                    })
            })
        } else {
            None
        };
        let Some((start, lease)) = rebooked else {
            self.abandon(t, &name, "lease_revoked".into(), false);
            return;
        };
        self.fe.stats.requeued += 1;
        self.telemetry.instant(t, "recover.rebook", || {
            vec![("name", name.clone().into()), ("start_min", start.0.into())]
        });
        self.queue.push(
            start,
            Ev::LeaseUp {
                name,
                lease,
                fip_until: start + remaining,
                attempt: next_attempt,
            },
        );
    }

    fn vol_up(&mut self, t: SimTime, mut v: PlannedVolume) {
        let site = site_key(&v.name);
        let attach = FaultKind::VolumeAttach;
        if self.fe.plan.fires(attach, site, v.attempts) {
            self.inject(t, attach, &v.name, Some(v.attempts));
            v.attempts += 1;
            let fe = &mut self.fe;
            match fe.fault_retry.backoff(fe.plan.seed(), site, v.attempts) {
                Some(d) if t + d < v.end => {
                    fe.stats.retries += 1;
                    self.telemetry.instant(t, "retry.attempt", || {
                        vec![
                            ("name", v.name.clone().into()),
                            ("cause", "fault".into()),
                            ("attempt", v.attempts.into()),
                        ]
                    });
                    self.queue.push(t + d, Ev::VolUp(v));
                }
                _ => {
                    fe.stats.abandoned += 1;
                    self.telemetry.instant(t, "volume.abandon", || {
                        vec![("name", v.name.clone().into()), ("cause", "fault".into())]
                    });
                }
            }
            return;
        }
        match self.cloud.create_volume(&v.name, v.gb) {
            Ok(id) => self.queue.push(v.end, Ev::VolDown(id)),
            Err(CloudError::QuotaExceeded { .. }) => self.quota_denials += 1,
            Err(e) => {
                // A typed failure, not a panic: the student proceeds
                // without the volume.
                self.fe.stats.abandoned += 1;
                let msg = e.to_string();
                self.telemetry.instant(t, "volume.abandon", || {
                    vec![
                        ("name", v.name.clone().into()),
                        ("cause", msg.clone().into()),
                    ]
                });
            }
        }
    }

    /// Requeue a failed VM deployment at `retry_at`, or abandon it when
    /// the retry policy is exhausted (`None`). `attempt` is the counter
    /// of the failure being handled: quota or injected fault.
    fn requeue_or_abandon(
        &mut self,
        t: SimTime,
        retry_at: Option<SimTime>,
        cause: &'static str,
        attempt: u32,
        vm: PlannedVm,
    ) {
        let Some(at) = retry_at else {
            self.abandon(t, &vm.name, cause.into(), false);
            return;
        };
        self.fe.stats.retries += 1;
        self.telemetry.instant(t, "vm.retry", || {
            vec![
                ("name", vm.name.clone().into()),
                ("attempt", attempt.into()),
                ("cause", cause.into()),
            ]
        });
        self.queue.push(at, Ev::VmUp(vm));
    }

    /// Count and trace an abandoned deployment. A leaked one is an
    /// abandonment that also keeps metering until finalize.
    fn abandon(&mut self, t: SimTime, name: &str, cause: AttrValue, leaked: bool) {
        self.fe.stats.abandoned += 1;
        self.telemetry.instant(t, "vm.abandon", || {
            vec![
                ("name", name.to_owned().into()),
                ("cause", cause),
                ("leaked", leaked.into()),
            ]
        });
        if leaked {
            self.fe.stats.leaked += 1;
            self.telemetry.counter_add("semester.leaks", 1);
        }
    }

    /// Count and trace an injected fault; `attempt` is traced for the
    /// faults that retry.
    fn inject(&mut self, t: SimTime, kind: FaultKind, name: &str, attempt: Option<u32>) {
        self.fe.stats.injected += 1;
        self.telemetry.instant(t, "fault.inject", || {
            let mut attrs = Vec::with_capacity(3);
            attrs.push(("kind", kind.name().into()));
            attrs.push(("name", name.to_owned().into()));
            attrs.extend(attempt.map(|a| ("attempt", a.into())));
            attrs
        });
    }
}

/// What a running VM deployment holds.
pub(crate) struct Deployment {
    ids: Vec<InstanceId>,
    fip: Option<FloatingIpId>,
    net: Option<NetworkId>,
}

impl Deployment {
    /// Create the parts in order: instances, private network, floating
    /// IP. On failure the parts created so far stay in `self`.
    fn create(
        &mut self,
        cloud: &mut Cloud,
        vm: &PlannedVm,
        with_fip: bool,
    ) -> Result<(), CloudError> {
        for k in 0..vm.node_count {
            let id = if vm.node_count == 1 {
                cloud.create_instance(&vm.name, vm.flavor)?
            } else {
                cloud.create_instance(&format!("{}-node{k}", vm.name), vm.flavor)?
            };
            self.ids.push(id);
        }
        if vm.network {
            self.net = Some(cloud.create_network(&vm.name)?);
        }
        if with_fip {
            self.fip = Some(cloud.allocate_fip(&vm.name)?);
        }
        Ok(())
    }

    /// Release what the deployment holds: the network, the instances,
    /// then the floating IP. Parts already gone (a crashed node, say)
    /// are skipped. Deleting a network neither meters nor emits, so its
    /// place in the order changes no output; it goes first so that a
    /// rollback after a floating-IP failure deletes the network before
    /// the instances.
    fn tear_down(self, cloud: &mut Cloud) {
        if let Some(n) = self.net {
            let _ = cloud.delete_network(n);
        }
        for id in self.ids {
            let _ = cloud.delete_instance(id);
        }
        if let Some(f) = self.fip {
            let _ = cloud.release_fip(f);
        }
    }
}

/// Create a VM deployment atomically; on any failure, tear down what
/// was created so the retry starts clean. Fault seams: the whole launch
/// can fail transiently ([`FaultKind::LaunchFail`], surfaced as
/// [`CloudError::TransientFault`]); floating-IP allocation can fail
/// ([`FaultKind::FipFail`]), degrading the deployment (returned flag)
/// rather than failing it.
fn deploy_vm(
    cloud: &mut Cloud,
    vm: &PlannedVm,
    plan: &FaultPlan,
) -> Result<(Deployment, bool), CloudError> {
    let site = site_key(&vm.name);
    if plan.fires(FaultKind::LaunchFail, site, vm.fault_attempts) {
        return Err(CloudError::TransientFault {
            op: "create_instance",
        });
    }
    let degraded = vm.fip && plan.fires(FaultKind::FipFail, site, vm.fault_attempts);
    let mut dep = Deployment {
        ids: Vec::with_capacity(vm.node_count as usize),
        fip: None,
        net: None,
    };
    match dep.create(cloud, vm, vm.fip && !degraded) {
        Ok(()) => Ok((dep, degraded)),
        Err(e) => {
            dep.tear_down(cloud);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opml_metering::rollup::AssignmentRollup;
    use opml_simkernel::parallel::with_thread_count;

    #[test]
    fn small_semester_runs_clean() {
        let config = SemesterConfig {
            enrollment: 12,
            run_projects: false,
            vm_auto_terminate_after: None,
            faults: FaultProfile::none(),
            shard_students: 191,
        };
        let outcome = simulate_semester(&config, 7);
        assert!(outcome.ledger.instance_hours(None) > 0.0);
        assert_eq!(
            outcome.quota_denials, 0,
            "12 students should never hit quota"
        );
        let rollup = AssignmentRollup::from_ledger(&outcome.ledger, 12);
        // Every lab family appears.
        for tag in [
            "lab1",
            "lab2",
            "lab3",
            "lab4-multi",
            "lab5-multi",
            "lab6-edge",
            "lab7",
            "lab8",
        ] {
            assert!(
                rollup.rows.iter().any(|r| r.tag == tag),
                "missing rollup rows for {tag}"
            );
        }
    }

    #[test]
    fn leased_usage_is_auto_terminated() {
        let config = SemesterConfig {
            enrollment: 8,
            run_projects: false,
            vm_auto_terminate_after: None,
            faults: FaultProfile::none(),
            shard_students: 191,
        };
        let outcome = simulate_semester(&config, 8);
        let rollup = AssignmentRollup::from_ledger(&outcome.ledger, 8);
        for row in rollup.rows.iter().filter(|r| r.flavor.requires_lease()) {
            assert!(
                (row.auto_terminated_hours - row.instance_hours).abs() < 1e-9,
                "{}/{}: leased usage should auto-terminate",
                row.tag,
                row.flavor
            );
        }
    }

    #[test]
    fn vm_reservation_ablation_caps_usage() {
        let base = SemesterConfig {
            enrollment: 24,
            run_projects: false,
            vm_auto_terminate_after: None,
            faults: FaultProfile::none(),
            shard_students: 191,
        };
        let capped = SemesterConfig {
            vm_auto_terminate_after: Some(SimDuration::hours(8)),
            ..base.clone()
        };
        let free = simulate_semester(&base, 9);
        let auto = simulate_semester(&capped, 9);
        let vm_hours = |l: &Ledger| {
            l.instance_hours(Some(FlavorId::M1Medium))
                + l.instance_hours(Some(FlavorId::M1Small))
                + l.instance_hours(Some(FlavorId::M1Large))
        };
        assert!(
            vm_hours(&auto.ledger) < vm_hours(&free.ledger) / 2.0,
            "auto-termination should cut VM hours drastically: {} vs {}",
            vm_hours(&auto.ledger),
            vm_hours(&free.ledger)
        );
        // Bare-metal hours are unaffected by the VM policy.
        let bm_free = free.ledger.instance_hours(Some(FlavorId::GpuV100));
        let bm_auto = auto.ledger.instance_hours(Some(FlavorId::GpuV100));
        assert!((bm_free - bm_auto).abs() < 1e-9);
    }

    #[test]
    fn deterministic_by_seed() {
        let config = SemesterConfig {
            enrollment: 10,
            run_projects: true,
            vm_auto_terminate_after: None,
            faults: FaultProfile::none(),
            shard_students: 191,
        };
        let a = simulate_semester(&config, 11);
        let b = simulate_semester(&config, 11);
        assert_eq!(a.ledger.records().len(), b.ledger.records().len());
        assert_eq!(a.ledger.instance_hours(None), b.ledger.instance_hours(None));
        let c = simulate_semester(&config, 12);
        assert_ne!(a.ledger.instance_hours(None), c.ledger.instance_hours(None));
    }

    #[test]
    fn telemetry_trace_is_byte_identical_across_runs() {
        use opml_telemetry::{export_jsonl, Telemetry};
        let config = SemesterConfig {
            enrollment: 3,
            run_projects: false,
            vm_auto_terminate_after: None,
            faults: FaultProfile::none(),
            shard_students: 191,
        };
        let trace = |seed: u64| {
            let telemetry = Telemetry::recording();
            let outcome = simulate_semester_with(&config, seed, &telemetry);
            (export_jsonl(&telemetry.events()), outcome, telemetry)
        };
        let (a, outcome, telemetry) = trace(7);
        let (b, _, _) = trace(7);
        assert_eq!(a, b, "same seed must produce identical trace bytes");
        assert!(!a.is_empty());
        let (c, _, _) = trace(8);
        assert_ne!(a, c, "different seed must change the trace");

        // The spans balance and the metrics agree with the outcome.
        assert!(a.contains("\"name\":\"semester.plan\""));
        assert!(a.contains("\"name\":\"semester.finalize\""));
        let metrics = telemetry.metrics_snapshot();
        assert_eq!(
            metrics.counters["semester.queue_pushes"], metrics.counters["semester.queue_pops"],
            "every scheduled event must execute"
        );
        assert_eq!(
            metrics.counters.get("semester.quota_denials").copied(),
            Some(outcome.quota_denials)
        );
    }

    #[test]
    fn projects_add_usage_after_week_eight() {
        let config = SemesterConfig {
            enrollment: 16,
            run_projects: true,
            vm_auto_terminate_after: None,
            faults: FaultProfile::none(),
            shard_students: 191,
        };
        let outcome = simulate_semester(&config, 13);
        let proj_hours: f64 = outcome
            .ledger
            .with_prefix("proj-")
            .filter(|r| matches!(r.kind, opml_testbed::ledger::UsageKind::Instance { .. }))
            .map(|r| r.hours())
            .sum();
        assert!(proj_hours > 10_000.0, "project usage missing: {proj_hours}");
        // Project records never start before the project window.
        for r in outcome.ledger.with_prefix("proj-") {
            assert!(
                r.start >= SimTime::at(8, 3, 0, 0),
                "{} starts early",
                r.name
            );
        }
    }

    /// The in-memory store sorts whatever order the shards appended in:
    /// shard ledgers stored last-shard-first merge to the bytes a
    /// one-thread pool, which stores them first-shard-first, produces.
    #[test]
    fn in_memory_store_merges_shards_appended_in_reverse_order() {
        let config = SemesterConfig {
            enrollment: 60,
            shard_students: 24,
            ..SemesterConfig::paper_course()
        };
        let shards = config.shards();
        assert_eq!(shards.len(), 3);
        let store = InMemory::default();
        for shard in shards.iter().rev() {
            let (outcome, _) = run_shard_buffered(&config, 5, shard, false);
            let Ok(()) = store.store(shard.index, outcome.ledger);
        }
        let mut merged = Ledger::new();
        let Ok(records) = store.drain(Vec::new(), &mut SpillStats::default(), &mut merged);

        let reference = with_thread_count(1, || simulate_semester(&config, 5)).ledger;
        assert_eq!(records, reference.records().len() as u64);
        assert_eq!(
            serde_json::to_string(&merged).expect("ledger serializes"),
            serde_json::to_string(&reference).expect("ledger serializes")
        );
    }
}
