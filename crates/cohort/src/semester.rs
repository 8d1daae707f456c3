//! The semester driver: plan → time-ordered execution → closed ledger.
//!
//! Planning makes all bare-metal/edge reservations against the cloud's
//! calendar (reservations are future-dated, like the real course's
//! advance arrangements in §4), then every action is executed through a
//! single time-ordered event queue so the cloud's clock stays monotone
//! and lease auto-terminations fire exactly when they should.
//!
//! ## Sharded execution
//!
//! Cohorts larger than [`SemesterConfig::shard_students`] are split
//! into shards of at most that many students, each simulated against
//! its own replicated campus (own capacity calendar, quota ledger,
//! fault engine and telemetry buffer), then merged in shard-index
//! order. The shard structure is a pure function of the config — never
//! of the executing thread count — so every [`Exec`] (serial or pool
//! schedule, memory or spill storage) produces a byte-identical outcome
//! at any rayon pool size; [`simulate_semester_exec`] takes the `Exec`,
//! and [`simulate_semester`] runs on the pool in memory. A cohort that
//! fits in one shard takes the legacy single-campus path unchanged.

use crate::behavior::StudentProfile;
use crate::labspec::lab_specs;
use crate::project::{plan_projects_range, ProjectPlan, GROUPS};
use crate::spill::{SpillConfig, SpillError, SpillStats, StreamOutcome};
use opml_faults::{site_key, CircuitBreaker, FaultKind, FaultPlan, FaultProfile, FaultStats};
use opml_metering::attribution::student_name;
use opml_simkernel::parallel::map_slice;
use opml_simkernel::{split_seed, EventQueue, Rng, SimDuration, SimTime};
use opml_telemetry::{MemorySink, MetricsSnapshot, Telemetry, TelemetryEvent};
use opml_testbed::error::CloudError;
use opml_testbed::flavor::FlavorId;
use opml_testbed::instance::InstanceId;
use opml_testbed::lease::LeaseId;
use opml_testbed::ledger::{Ledger, RecordSource, StreamMerge, UsageRecord};
use opml_testbed::network::{FloatingIpId, NetworkId};
use opml_testbed::storage::VolumeId;
use opml_testbed::Cloud;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;

/// A planned on-demand VM deployment.
#[derive(Debug, Clone)]
pub struct PlannedVm {
    /// Deployment name (attribution key; nodes get `-node<k>` suffixes).
    pub name: String,
    /// Flavor.
    pub flavor: FlavorId,
    /// Instances in the deployment.
    pub node_count: u32,
    /// Creation time.
    pub start: SimTime,
    /// How long the deployment lives.
    pub wall: SimDuration,
    /// Whether it holds a floating IP.
    pub fip: bool,
    /// Whether it creates a private network + router.
    pub network: bool,
    /// Quota-retry attempts so far.
    pub attempts: u32,
    /// Injected-fault retries/relaunches so far (also the attempt index
    /// for fault-plan draws, so each retry re-rolls independently).
    pub fault_attempts: u32,
}

/// A planned lease-backed deployment (instance created at lease start,
/// auto-terminated at lease end).
#[derive(Debug, Clone)]
pub struct PlannedLease {
    /// Instance/FIP name.
    pub name: String,
    /// Admitted lease.
    pub lease: LeaseId,
    /// Lease start.
    pub start: SimTime,
    /// Lease end.
    pub end: SimTime,
}

/// A planned block volume.
#[derive(Debug, Clone)]
pub struct PlannedVolume {
    /// Volume name.
    pub name: String,
    /// Size in GB.
    pub gb: u64,
    /// Creation time.
    pub start: SimTime,
    /// Deletion time.
    pub end: SimTime,
    /// Injected-fault retries so far.
    pub attempts: u32,
}

/// Semester configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SemesterConfig {
    /// Enrolled students (paper: 191).
    pub enrollment: u32,
    /// Semester length in weeks (paper: 14; we close the books at
    /// `weeks + 1` to catch end-of-term teardowns).
    pub weeks: u64,
    /// Whether to simulate the project phase.
    pub run_projects: bool,
    /// Ablation: if set, on-demand VM deployments are capped at this
    /// duration, emulating Chameleon's later addition of VM advance
    /// reservations with automatic termination (§5).
    pub vm_auto_terminate_after: Option<SimDuration>,
    /// Fault injection and recovery policy. [`FaultProfile::none`] (the
    /// default) reproduces the fault-free semester byte-identically.
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
            weeks: 14,
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

enum Ev {
    VmUp(PlannedVm),
    VmDown {
        ids: Vec<InstanceId>,
        fip: Option<FloatingIpId>,
        net: Option<NetworkId>,
        vol: Option<VolumeId>,
    },
    /// An injected mid-lab crash of a running deployment (fault path
    /// only; never scheduled under an inert plan).
    VmCrash {
        vm: PlannedVm,
        ids: Vec<InstanceId>,
        fip: Option<FloatingIpId>,
        net: Option<NetworkId>,
        vol: Option<VolumeId>,
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

/// Runtime fault state for one semester run: the immutable plan plus the
/// mutable breaker and counters.
struct FaultEngine {
    plan: FaultPlan,
    profile: FaultProfile,
    breaker: Option<CircuitBreaker>,
    stats: FaultStats,
}

impl FaultEngine {
    fn new(profile: &FaultProfile, seed: u64) -> FaultEngine {
        FaultEngine {
            plan: FaultPlan::new(split_seed(seed, FAULT_STREAM), profile.rates.clone()),
            // An inert profile must reproduce the fault-free semester
            // byte-identically, so the breaker (which would reshape the
            // quota-retry schedule) only arms when something can inject.
            breaker: if profile.is_inert() {
                None
            } else {
                profile.breaker.as_ref().map(|b| b.build())
            },
            profile: profile.clone(),
            stats: FaultStats::default(),
        }
    }

    /// Does the student walk away without cleaning up? Deterministic
    /// per-site draw; never consulted when `leak_prob` is zero.
    fn leaks(&self, site: u64, attempt: u32) -> bool {
        if self.profile.leak_prob <= 0.0 {
            return false;
        }
        Rng::for_stream(
            split_seed(self.plan.seed() ^ LEAK_TAG, site),
            u64::from(attempt),
        )
        .chance(self.profile.leak_prob)
    }
}

/// How a semester executes: where its shards run and where each
/// shard's output waits for the merge. The shard structure, and so every
/// byte of the outcome, is the same under every `Exec`.
#[derive(Debug, Clone)]
pub struct Exec {
    /// Where the shards run.
    pub schedule: Schedule,
    /// Where shard output waits for the merge.
    pub storage: Storage,
}

/// Where a sharded cohort's shards run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One after another on the calling thread.
    Serial,
    /// In parallel on the ambient rayon pool.
    Pool,
}

/// Where each shard's output waits for the merge.
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

/// Materializes the ledger, allocated once at its final size.
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
            ledger.into_iter().for_each(|record| self.push(record));
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
/// [`Exec`] ([`simulate_semester_exec`]) at any thread count.
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
    let Ok(outcome) = drive(
        config,
        seed,
        Schedule::Pool,
        &InMemory,
        telemetry,
        &mut ledger,
    );
    outcome.with_ledger(ledger)
}

/// Simulate a full semester under `exec`, emitting its trace through
/// `telemetry` and delivering its ledger to `sink`. Every `exec`
/// produces the same trace, ledger and counters; only
/// [`Storage::Spill`] can fail.
pub fn simulate_semester_exec(
    config: &SemesterConfig,
    seed: u64,
    exec: &Exec,
    telemetry: &Telemetry,
    sink: &mut impl LedgerSink,
) -> Result<StreamOutcome, SpillError> {
    match &exec.storage {
        Storage::Memory => {
            let Ok(outcome) = drive(config, seed, exec.schedule, &InMemory, telemetry, sink);
            Ok(outcome)
        }
        Storage::Spill(spill) => drive(config, seed, exec.schedule, spill, telemetry, sink),
    }
}

/// Measured per-student telemetry event volume (2k-student profile run:
/// ~221 events/student), rounded up. Sizes each shard's private sink.
const EVENTS_PER_STUDENT: usize = 232;

/// Measured per-student usage-record volume (~92 records/student),
/// rounded up. Sizes the shard cloud's ledger.
const LEDGER_RECORDS_PER_STUDENT: usize = 96;

/// Event-queue capacity hint per student (peak outstanding future
/// events is far below the total event count).
const QUEUE_EVENTS_PER_STUDENT: usize = 16;

/// A shard's telemetry events and metrics snapshot, folded into the
/// parent handle by the merge.
type ShardAux = (Vec<TelemetryEvent>, MetricsSnapshot);

/// Where shard ledgers wait between the shard map and the merge: in
/// memory ([`InMemory`]) or in run files ([`SpillConfig`]). Telemetry
/// never goes through the store; the driver holds it in memory.
pub(crate) trait ShardStore: Sync {
    /// One stored shard ledger.
    type Run: Send;
    /// A stored shard's ledger, read back by the merge.
    type Source: RecordSource<Error = Self::Error>;
    /// What storing or reading back can fail with.
    type Error: Send;
    /// The wall phase the final merge runs under.
    const MERGE_PHASE: &'static str;

    /// Keep one shard's canonically sorted ledger until the merge.
    fn store(&self, shard: u32, ledger: Ledger) -> Result<Self::Run, Self::Error>;

    /// Turn the stored shards, in shard order, into merge sources,
    /// counting disk work in `stats`.
    fn sources(
        &self,
        runs: Vec<Self::Run>,
        stats: &mut SpillStats,
    ) -> Result<Vec<Self::Source>, Self::Error>;

    /// Release the store once the merge delivered `merged` of the
    /// `expected` records.
    fn finish(&self, _merged: u64, _expected: u64) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Shard ledgers held in memory until the merge.
struct InMemory;

impl ShardStore for InMemory {
    type Run = Ledger;
    type Source = std::vec::IntoIter<UsageRecord>;
    type Error = Infallible;
    const MERGE_PHASE: &'static str = opml_profiler::phases::MERGE_LEDGER;

    fn store(&self, _shard: u32, ledger: Ledger) -> Result<Ledger, Infallible> {
        Ok(ledger)
    }

    fn sources(
        &self,
        runs: Vec<Ledger>,
        _stats: &mut SpillStats,
    ) -> Result<Vec<Self::Source>, Infallible> {
        Ok(runs.into_iter().map(Ledger::into_iter).collect())
    }
}

/// The semester driver behind every entry point.
///
/// A cohort that fits in one shard takes the legacy single-campus path:
/// the parent telemetry handle, the close-order ledger, no merge and no
/// disk. Larger cohorts run their shards under `schedule` and keep each
/// shard's ledger in `store` (its telemetry stays in memory), then fold
/// per-shard results in shard-index order and feed one [`StreamMerge`]
/// into `sink`.
///
/// Merge laws, each associative and stable under the fixed shard
/// order: ledgers merge into the canonical record order, ties broken
/// by shard index (exactly [`Ledger::merge_sorted`]); `u64` counters
/// sum exactly; [`FaultStats`] sum fieldwise; telemetry buffers replay
/// through the parent handle in shard-index order (fresh, gapless
/// sequence stamps); metric snapshots fold via
/// [`Telemetry::merge_metrics`].
pub(crate) fn drive<S: ShardStore>(
    config: &SemesterConfig,
    seed: u64,
    schedule: Schedule,
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
    let run_and_store = |shard: &ShardSpec| {
        let (outcome, aux) = run_shard_buffered(config, seed, shard, record);
        let scalars = StreamOutcome::of(&outcome);
        store
            .store(shard.index, outcome.ledger)
            .map(|stored| (scalars, aux, stored))
    };
    let stored: Vec<_> = match schedule {
        Schedule::Serial => shards.iter().map(run_and_store).collect(),
        Schedule::Pool => map_slice(&shards, |_, shard| run_and_store(shard)),
    };
    let stored = stored.into_iter().collect::<Result<Vec<_>, _>>()?;

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
        outcome.records += shard.records;
        runs.push(run);
    }

    let sources = store.sources(runs, &mut outcome.stats)?;
    let merged = {
        let _phase = opml_profiler::wall_phase(S::MERGE_PHASE);
        sink.reserve(outcome.records as usize);
        let mut merge = StreamMerge::new(sources)?;
        let mut merged = 0u64;
        while let Some(record) = merge.next()? {
            sink.push(record);
            merged += 1;
        }
        merged
    };
    store.finish(merged, outcome.records)?;
    Ok(outcome)
}

/// Execute one shard against a private telemetry buffer (or fully
/// disabled telemetry when the parent handle is disabled), so shards
/// never contend on the parent handle and their event streams can be
/// replayed in shard order afterwards. The telemetry comes back as
/// `None` when the parent handle is disabled.
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
    let sink = record
        .then(|| MemorySink::with_capacity(shard.student_count() as usize * EVENTS_PER_STUDENT));
    let telemetry = sink.as_ref().map_or_else(Telemetry::disabled, |sink| {
        Telemetry::with_sink(sink.clone())
    });
    let mut outcome = run_shard(config, seed, shard, &telemetry, true);
    // Sort here, inside the (possibly parallel) shard map, so the merge
    // only interleaves presorted runs. The single-shard legacy path
    // never comes through here and keeps its close-order ledger.
    outcome.ledger.sort_canonical();
    let aux = sink.map(|sink| {
        let metrics = telemetry.metrics_snapshot();
        // Drain rather than clone: the buffer moves wholesale into the
        // merge's restamp pass.
        (sink.take_events(), metrics)
    });
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
    let mut cloud = Cloud::paper_course()
        .with_telemetry(telemetry.clone())
        .with_ledger_capacity(students * LEDGER_RECORDS_PER_STUDENT);
    let mut queue: EventQueue<Ev> = EventQueue::with_capacity(students * QUEUE_EVENTS_PER_STUDENT);
    let mut slot_pushbacks = 0u64;
    let mut fe = FaultEngine::new(&config.faults, seed);
    let plan_span = telemetry.span(SimTime::ZERO, "semester.plan", || {
        let mut attrs = vec![
            ("enrollment", shard.student_count().into()),
            ("weeks", config.weeks.into()),
            ("projects", config.run_projects.into()),
        ];
        if annotate {
            attrs.push(("shard", shard.index.into()));
        }
        attrs
    });

    // ------------------------------------------------ plan student labs
    let specs = lab_specs();
    for sid in shard.students.clone() {
        let mut rng = Rng::new(split_seed(seed, sid as u64));
        let profile = StudentProfile::sample(sid, &mut rng);
        for spec in &specs {
            let week_start = SimTime::at(spec.week, 0, 0, 0);
            let preferred =
                week_start + SimDuration::from_hours_f64(profile.start_offset_hours(&mut rng));
            if spec.is_leased() {
                let slots = profile.slots_booked(spec, &mut rng);
                let mut earliest = preferred;
                for _ in 0..slots {
                    let flavor = profile.pick_flavor(spec, &mut rng);
                    let dur = SimDuration::hours(spec.slot_hours);
                    let Some(start) = cloud.earliest_slot(flavor, 1, dur, earliest) else {
                        continue;
                    };
                    if start > earliest {
                        slot_pushbacks += 1;
                        telemetry.instant(SimTime::ZERO, "slot.pushback", || {
                            vec![
                                ("name", student_name(spec.tag, sid).into()),
                                ("flavor", flavor.name().into()),
                                ("wanted_min", earliest.0.into()),
                                ("got_min", start.0.into()),
                            ]
                        });
                        telemetry.counter_add("semester.slot_pushbacks", 1);
                    }
                    let name = student_name(spec.tag, sid);
                    // earliest_slot admitted this window; if the reserve
                    // is refused anyway, the student just loses the slot.
                    let Ok(lease) = cloud.reserve(flavor, 1, start, start + dur, &name) else {
                        continue;
                    };
                    queue.push(
                        start,
                        Ev::LeaseUp {
                            name,
                            lease: lease.id,
                            fip_until: start + dur,
                            attempt: 0,
                        },
                    );
                    earliest = start + dur;
                }
            } else {
                let mut wall = SimDuration::from_hours_f64(profile.vm_wall_hours(spec, &mut rng));
                if let Some(cap) = config.vm_auto_terminate_after {
                    wall = wall.min(cap);
                }
                queue.push(
                    preferred,
                    Ev::VmUp(PlannedVm {
                        name: student_name(spec.tag, sid),
                        // detlint::allow(DL008): every LabSpec declares at least one flavor
                        flavor: spec.flavors[0].0,
                        node_count: spec.node_count,
                        start: preferred,
                        wall,
                        fip: true,
                        network: spec.private_network,
                        attempts: 0,
                        fault_attempts: 0,
                    }),
                );
                if let Some(storage) = spec.storage {
                    let name = student_name(spec.tag, sid);
                    queue.push(
                        preferred,
                        Ev::VolUp(PlannedVolume {
                            name: format!("{name}-vol"),
                            gb: storage.block_gb,
                            start: preferred,
                            end: preferred + wall,
                            attempts: 0,
                        }),
                    );
                    queue.push(
                        preferred + SimDuration::minutes(30),
                        Ev::BucketPut {
                            name: format!("{name}-bucket"),
                            gb: storage.object_gb,
                        },
                    );
                }
            }
        }
    }

    // ----------------------------------------------------- plan projects
    if config.run_projects && !shard.groups.is_empty() {
        let window_start = SimTime::at(8, 3, 12, 0);
        let window_end = SimTime::at(config.weeks + 1, 0, 0, 0);
        telemetry.instant(window_start, "project.window_open", || {
            vec![("until_min", window_end.0.into())]
        });
        // The project seed and per-group streams are global (shard 0
        // reproduces the legacy plan bit-for-bit); only the group range
        // is shard-local.
        let plan: ProjectPlan = plan_projects_range(
            &mut cloud,
            window_start,
            window_end,
            seed ^ 0x1234_5678,
            shard.groups.clone(),
        );
        for vm in plan.vms {
            queue.push(vm.start, Ev::VmUp(vm));
        }
        for l in plan.leases {
            queue.push(
                l.start,
                Ev::LeaseUp {
                    name: l.name,
                    lease: l.lease,
                    fip_until: l.end,
                    attempt: 0,
                },
            );
        }
        for v in plan.volumes {
            queue.push(v.start, Ev::VolUp(v));
        }
        for (name, gb, at) in plan.buckets {
            queue.push(at, Ev::BucketPut { name, gb });
        }
    }

    // -------------------------------------------------------- execution
    plan_span.end(SimTime::ZERO);
    let exec_span = telemetry.span(SimTime::ZERO, "semester.exec", Vec::new);
    let semester_end = SimTime::at(config.weeks + 1, 0, 0, 0);
    let mut quota_denials = 0u64;
    let mut last_week: Option<u64> = None;
    while let Some((t, ev)) = queue.pop() {
        if telemetry.is_enabled() {
            let week = t.week();
            if last_week != Some(week) {
                last_week = Some(week);
                telemetry.instant(t, "semester.week_start", || vec![("week", week.into())]);
            }
            let kind = ev.kind();
            let depth = queue.len();
            telemetry.instant(t, "queue.pop", || {
                vec![("kind", kind.into()), ("depth", depth.into())]
            });
        }
        cloud.advance_to(t);
        match ev {
            Ev::VmUp(mut vm) => {
                let site = site_key(&vm.name);
                // Retry drift must not outlive the books: a requeued
                // deployment that can no longer finish before finalize is
                // abandoned. First attempts are untouched (legacy path).
                if (vm.attempts > 0 || vm.fault_attempts > 0 || fe.breaker.is_some())
                    && t + vm.wall > semester_end
                {
                    fe.stats.abandoned += 1;
                    telemetry.instant(t, "vm.abandon", || {
                        vec![
                            ("name", vm.name.clone().into()),
                            ("cause", "term_end".into()),
                            ("leaked", false.into()),
                        ]
                    });
                    continue;
                }
                // An open quota breaker defers the whole attempt ("staff
                // said stop launching") without burning a retry.
                if let Some(at) = fe.breaker.as_ref().and_then(|b| b.retry_at(t)) {
                    telemetry.instant(t, "retry.attempt", || {
                        vec![
                            ("name", vm.name.clone().into()),
                            ("cause", "breaker".into()),
                        ]
                    });
                    queue.push(at, Ev::VmUp(vm));
                    continue;
                }
                match deploy_vm(&mut cloud, &vm, &fe.plan) {
                    Ok(((ids, fip, net, vol), degraded)) => {
                        if let Some(b) = fe.breaker.as_mut() {
                            b.record_success();
                        }
                        if degraded {
                            // Floating-IP allocation failed: the lab runs
                            // on the private network only.
                            fe.stats.injected += 1;
                            fe.stats.degraded += 1;
                            telemetry.instant(t, "fault.inject", || {
                                vec![
                                    ("kind", FaultKind::FipFail.name().into()),
                                    ("name", vm.name.clone().into()),
                                ]
                            });
                            telemetry.instant(t, "recover.degraded", || {
                                vec![("name", vm.name.clone().into()), ("mode", "no_fip".into())]
                            });
                        }
                        let down_at = t + vm.wall;
                        if fe
                            .plan
                            .fires(FaultKind::InstanceCrash, site, vm.fault_attempts)
                        {
                            let frac = fe.plan.fraction(
                                FaultKind::InstanceCrash,
                                site,
                                vm.fault_attempts,
                                0.1,
                                0.9,
                            );
                            let crash_in =
                                SimDuration((vm.wall.0 as f64 * frac).ceil().max(1.0) as u64)
                                    .min(vm.wall);
                            queue.push(
                                t + crash_in,
                                Ev::VmCrash {
                                    vm,
                                    ids,
                                    fip,
                                    net,
                                    vol,
                                    down_at,
                                },
                            );
                        } else {
                            queue.push(down_at, Ev::VmDown { ids, fip, net, vol });
                        }
                    }
                    Err(CloudError::QuotaExceeded { .. }) => {
                        quota_denials += 1;
                        vm.attempts += 1;
                        let mut retry_at = fe
                            .profile
                            .quota_retry
                            .backoff(fe.plan.seed(), site, vm.attempts)
                            .map(|d| t + d);
                        if let Some(b) = fe.breaker.as_mut() {
                            if b.record_failure(t) {
                                fe.stats.breaker_trips += 1;
                                telemetry.instant(t, "breaker.open", || {
                                    vec![("name", vm.name.clone().into())]
                                });
                            }
                            if let (Some(at), Some(open_until)) = (retry_at, b.retry_at(t)) {
                                retry_at = Some(at.max(open_until));
                            }
                        }
                        match retry_at {
                            Some(at) => {
                                fe.stats.retries += 1;
                                telemetry.instant(t, "vm.retry", || {
                                    vec![
                                        ("name", vm.name.clone().into()),
                                        ("attempt", vm.attempts.into()),
                                        ("cause", "quota".into()),
                                    ]
                                });
                                // Student tries again later.
                                queue.push(at, Ev::VmUp(vm));
                            }
                            None => {
                                fe.stats.abandoned += 1;
                                telemetry.instant(t, "vm.abandon", || {
                                    vec![
                                        ("name", vm.name.clone().into()),
                                        ("cause", "quota".into()),
                                        ("leaked", false.into()),
                                    ]
                                });
                            }
                        }
                    }
                    Err(e) if e.is_retryable() => {
                        // Injected transient failure on the deploy path.
                        if matches!(e, CloudError::TransientFault { .. }) {
                            fe.stats.injected += 1;
                            telemetry.instant(t, "fault.inject", || {
                                vec![
                                    ("kind", FaultKind::LaunchFail.name().into()),
                                    ("name", vm.name.clone().into()),
                                    ("attempt", vm.fault_attempts.into()),
                                ]
                            });
                        }
                        vm.fault_attempts += 1;
                        retry_or_abandon_vm(&mut fe, telemetry, &mut queue, t, site, vm);
                    }
                    Err(e) => {
                        // Permanent refusal: retrying the identical call
                        // can never succeed, so the student gives up.
                        fe.stats.abandoned += 1;
                        let msg = e.to_string();
                        telemetry.instant(t, "vm.abandon", || {
                            vec![
                                ("name", vm.name.clone().into()),
                                ("cause", msg.clone().into()),
                                ("leaked", false.into()),
                            ]
                        });
                    }
                }
            }
            Ev::VmDown { ids, fip, net, vol } => {
                for id in ids {
                    // Ignore instances already reaped (ablation overlap).
                    let _ = cloud.delete_instance(id);
                }
                if let Some(f) = fip {
                    let _ = cloud.release_fip(f);
                }
                if let Some(n) = net {
                    let _ = cloud.delete_network(n);
                }
                if let Some(v) = vol {
                    let _ = cloud.detach_volume(v);
                    let _ = cloud.delete_volume(v);
                }
            }
            Ev::VmCrash {
                mut vm,
                ids,
                fip,
                net,
                vol,
                down_at,
            } => {
                fe.stats.injected += 1;
                telemetry.instant(t, "fault.inject", || {
                    vec![
                        ("kind", FaultKind::InstanceCrash.name().into()),
                        ("name", vm.name.clone().into()),
                    ]
                });
                if let Some(&first) = ids.first() {
                    let _ = cloud.crash_instance(first);
                }
                let site = site_key(&vm.name);
                if fe.leaks(site, vm.fault_attempts) {
                    // The paper's signature pathology: the student walks
                    // away and the surviving nodes, floating IP, network
                    // and volume all run until semester finalize. A leak
                    // is an abandonment that also keeps metering.
                    fe.stats.abandoned += 1;
                    fe.stats.leaked += 1;
                    telemetry.instant(t, "vm.abandon", || {
                        vec![
                            ("name", vm.name.clone().into()),
                            ("cause", "crash".into()),
                            ("leaked", true.into()),
                        ]
                    });
                    telemetry.counter_add("semester.leaks", 1);
                } else {
                    // Tidy recovery: tear down the survivors now, then
                    // relaunch for the remaining wall if it is worth it.
                    for id in ids.iter().skip(1) {
                        let _ = cloud.delete_instance(*id);
                    }
                    if let Some(f) = fip {
                        let _ = cloud.release_fip(f);
                    }
                    if let Some(n) = net {
                        let _ = cloud.delete_network(n);
                    }
                    if let Some(v) = vol {
                        let _ = cloud.detach_volume(v);
                        let _ = cloud.delete_volume(v);
                    }
                    let remaining = down_at.since(t);
                    vm.fault_attempts += 1;
                    let delay =
                        fe.profile
                            .fault_retry
                            .backoff(fe.plan.seed(), site, vm.fault_attempts);
                    match delay {
                        Some(d) if remaining >= SimDuration::minutes(30) => {
                            fe.stats.retries += 1;
                            vm.wall = remaining;
                            telemetry.instant(t, "recover.relaunch", || {
                                vec![
                                    ("name", vm.name.clone().into()),
                                    ("remaining_min", remaining.0.into()),
                                ]
                            });
                            queue.push(t + d, Ev::VmUp(vm));
                        }
                        _ => {
                            fe.stats.abandoned += 1;
                            telemetry.instant(t, "vm.abandon", || {
                                vec![
                                    ("name", vm.name.clone().into()),
                                    ("cause", "crash".into()),
                                    ("leaked", false.into()),
                                ]
                            });
                        }
                    }
                }
            }
            Ev::LeaseUp {
                name,
                lease,
                fip_until,
                attempt,
            } => {
                // Bare-metal provisioning per §4: student claims the node
                // at slot start; auto-termination reclaims it.
                match cloud.create_leased_instance(&name, lease) {
                    Ok(_inst) => {
                        if let Ok(fip) = cloud.allocate_fip(&name) {
                            queue.push(fip_until, Ev::FipDown(fip));
                        }
                        let site = site_key(&name);
                        if fe.plan.fires(FaultKind::LeaseRevoke, site, attempt) {
                            let frac =
                                fe.plan
                                    .fraction(FaultKind::LeaseRevoke, site, attempt, 0.05, 0.95);
                            let window = fip_until.since(t);
                            let revoke_in =
                                SimDuration((window.0 as f64 * frac).ceil().max(1.0) as u64)
                                    .min(window);
                            queue.push(
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
                    Err(e) => {
                        // The slot no longer exists (e.g. revoked before
                        // its start); the student loses the session.
                        fe.stats.abandoned += 1;
                        let msg = e.to_string();
                        telemetry.instant(t, "lease.skip", || {
                            vec![("name", name.clone().into()), ("error", msg.clone().into())]
                        });
                    }
                }
            }
            Ev::LeaseRevoked {
                name,
                lease,
                end,
                attempt,
            } => {
                let flavor = cloud.calendar().get(lease).map(|l| l.flavor);
                if cloud.revoke_lease(lease).is_ok() {
                    fe.stats.injected += 1;
                    telemetry.instant(t, "fault.inject", || {
                        vec![
                            ("kind", FaultKind::LeaseRevoke.name().into()),
                            ("name", name.clone().into()),
                        ]
                    });
                    let remaining = end.since(t);
                    let next_attempt = attempt + 1;
                    let rebooked = if next_attempt < fe.profile.fault_retry.max_attempts
                        && remaining >= SimDuration::minutes(30)
                    {
                        flavor.and_then(|fl| {
                            cloud
                                .earliest_slot(fl, 1, remaining, t + SimDuration::hours(1))
                                // The rebooked window must still close its
                                // books before finalize.
                                .filter(|&s| s + remaining <= semester_end)
                                .and_then(|s| {
                                    cloud
                                        .reserve(fl, 1, s, s + remaining, &name)
                                        .ok()
                                        .map(|l2| (s, l2.id))
                                })
                        })
                    } else {
                        None
                    };
                    match rebooked {
                        Some((start, lease2)) => {
                            fe.stats.requeued += 1;
                            telemetry.instant(t, "recover.rebook", || {
                                vec![("name", name.clone().into()), ("start_min", start.0.into())]
                            });
                            queue.push(
                                start,
                                Ev::LeaseUp {
                                    name,
                                    lease: lease2,
                                    fip_until: start + remaining,
                                    attempt: next_attempt,
                                },
                            );
                        }
                        None => {
                            fe.stats.abandoned += 1;
                            telemetry.instant(t, "vm.abandon", || {
                                vec![
                                    ("name", name.clone().into()),
                                    ("cause", "lease_revoked".into()),
                                    ("leaked", false.into()),
                                ]
                            });
                        }
                    }
                }
                // A revocation racing the natural lease end is a no-op.
            }
            Ev::FipDown(fip) => {
                let _ = cloud.release_fip(fip);
            }
            Ev::VolUp(mut v) => {
                let site = site_key(&v.name);
                if fe.plan.fires(FaultKind::VolumeAttach, site, v.attempts) {
                    fe.stats.injected += 1;
                    telemetry.instant(t, "fault.inject", || {
                        vec![
                            ("kind", FaultKind::VolumeAttach.name().into()),
                            ("name", v.name.clone().into()),
                            ("attempt", v.attempts.into()),
                        ]
                    });
                    v.attempts += 1;
                    let delay = fe
                        .profile
                        .fault_retry
                        .backoff(fe.plan.seed(), site, v.attempts);
                    match delay {
                        Some(d) if t + d < v.end => {
                            fe.stats.retries += 1;
                            telemetry.instant(t, "retry.attempt", || {
                                vec![
                                    ("name", v.name.clone().into()),
                                    ("cause", "fault".into()),
                                    ("attempt", v.attempts.into()),
                                ]
                            });
                            queue.push(t + d, Ev::VolUp(v));
                        }
                        _ => {
                            fe.stats.abandoned += 1;
                            telemetry.instant(t, "volume.abandon", || {
                                vec![("name", v.name.clone().into()), ("cause", "fault".into())]
                            });
                        }
                    }
                } else {
                    match cloud.create_volume(&v.name, v.gb) {
                        Ok(id) => {
                            queue.push(v.end, Ev::VolDown(id));
                        }
                        Err(CloudError::QuotaExceeded { .. }) => {
                            quota_denials += 1;
                        }
                        Err(e) => {
                            // Typed failure instead of the old panic: the
                            // student proceeds without the volume.
                            fe.stats.abandoned += 1;
                            let msg = e.to_string();
                            telemetry.instant(t, "volume.abandon", || {
                                vec![
                                    ("name", v.name.clone().into()),
                                    ("cause", msg.clone().into()),
                                ]
                            });
                        }
                    }
                }
            }
            Ev::VolDown(id) => {
                let _ = cloud.detach_volume(id);
                let _ = cloud.delete_volume(id);
            }
            Ev::BucketPut { name, gb } => {
                cloud.bucket(&name).put((gb * 1000.0) as u64, gb);
            }
        }
    }
    cloud.finalize(semester_end);
    exec_span.end(semester_end);
    telemetry.instant(semester_end, "semester.finalize", || {
        vec![("quota_denials", quota_denials.into())]
    });
    let stats = queue.stats();
    telemetry.counter_add("semester.queue_pushes", stats.pushes);
    telemetry.counter_add("semester.queue_pops", stats.pops);
    telemetry.gauge_set("semester.queue_high_water", stats.high_water as f64);
    telemetry.counter_add("semester.quota_denials", quota_denials);
    telemetry.counter_add("semester.faults_injected", fe.stats.injected);
    telemetry.counter_add("semester.faults_abandoned", fe.stats.abandoned);
    telemetry.counter_add("semester.faults_leaked", fe.stats.leaked);
    SemesterOutcome {
        ledger: cloud.into_ledger(),
        quota_denials,
        slot_pushbacks,
        faults: fe.stats,
    }
}

/// Schedule a fault-policy retry of a VM deployment, or abandon it once
/// the policy is exhausted. `vm.fault_attempts` must already count the
/// failure being handled.
fn retry_or_abandon_vm(
    fe: &mut FaultEngine,
    telemetry: &Telemetry,
    queue: &mut EventQueue<Ev>,
    t: SimTime,
    site: u64,
    vm: PlannedVm,
) {
    match fe
        .profile
        .fault_retry
        .backoff(fe.plan.seed(), site, vm.fault_attempts)
    {
        Some(delay) => {
            fe.stats.retries += 1;
            telemetry.instant(t, "vm.retry", || {
                vec![
                    ("name", vm.name.clone().into()),
                    ("attempt", vm.fault_attempts.into()),
                    ("cause", "fault".into()),
                ]
            });
            queue.push(t + delay, Ev::VmUp(vm));
        }
        None => {
            fe.stats.abandoned += 1;
            telemetry.instant(t, "vm.abandon", || {
                vec![
                    ("name", vm.name.clone().into()),
                    ("cause", "fault".into()),
                    ("leaked", false.into()),
                ]
            });
        }
    }
}

type Deployed = (
    Vec<InstanceId>,
    Option<FloatingIpId>,
    Option<NetworkId>,
    Option<VolumeId>,
);

/// Create a VM deployment atomically; on quota failure, roll back any
/// partial allocation so the retry starts clean. Fault seams: the whole
/// launch can fail transiently ([`FaultKind::LaunchFail`], surfaced as
/// [`CloudError::TransientFault`]); floating-IP allocation can fail
/// ([`FaultKind::FipFail`]), degrading the deployment (returned flag)
/// rather than failing it.
fn deploy_vm(
    cloud: &mut Cloud,
    vm: &PlannedVm,
    plan: &FaultPlan,
) -> Result<(Deployed, bool), CloudError> {
    let site = site_key(&vm.name);
    if plan.fires(FaultKind::LaunchFail, site, vm.fault_attempts) {
        return Err(CloudError::TransientFault {
            op: "create_instance",
        });
    }
    let mut ids = Vec::with_capacity(vm.node_count as usize);
    let rollback = |cloud: &mut Cloud, ids: &[InstanceId]| {
        for &id in ids {
            let _ = cloud.delete_instance(id);
        }
    };
    for k in 0..vm.node_count {
        let node_name = if vm.node_count == 1 {
            vm.name.clone()
        } else {
            format!("{}-node{k}", vm.name)
        };
        match cloud.create_instance(&node_name, vm.flavor) {
            Ok(id) => ids.push(id),
            Err(e) => {
                rollback(cloud, &ids);
                return Err(e);
            }
        }
    }
    let net = if vm.network {
        match cloud.create_network(&vm.name) {
            Ok(n) => Some(n),
            Err(e) => {
                rollback(cloud, &ids);
                return Err(e);
            }
        }
    } else {
        None
    };
    let mut degraded = false;
    let fip = if vm.fip {
        if plan.fires(FaultKind::FipFail, site, vm.fault_attempts) {
            degraded = true;
            None
        } else {
            match cloud.allocate_fip(&vm.name) {
                Ok(f) => Some(f),
                Err(e) => {
                    if let Some(n) = net {
                        let _ = cloud.delete_network(n);
                    }
                    rollback(cloud, &ids);
                    return Err(e);
                }
            }
        }
    } else {
        None
    };
    Ok(((ids, fip, net, None), degraded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use opml_metering::rollup::AssignmentRollup;

    #[test]
    fn small_semester_runs_clean() {
        let config = SemesterConfig {
            enrollment: 12,
            weeks: 14,
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
            weeks: 14,
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
            weeks: 14,
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
            weeks: 14,
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
        use opml_telemetry::{export_jsonl, MemorySink, Telemetry};
        let config = SemesterConfig {
            enrollment: 3,
            weeks: 14,
            run_projects: false,
            vm_auto_terminate_after: None,
            faults: FaultProfile::none(),
            shard_students: 191,
        };
        let trace = |seed: u64| {
            let sink = MemorySink::new();
            let telemetry = Telemetry::with_sink(sink.clone());
            let outcome = simulate_semester_with(&config, seed, &telemetry);
            (export_jsonl(&sink.events()), outcome, telemetry)
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
            weeks: 14,
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
}
