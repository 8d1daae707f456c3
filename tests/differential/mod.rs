//! The differential harness for the semester driver, shared by the
//! tier-1 suites `sharded_differential`, `spill_differential` and
//! `alloc_pass_differential`.
//!
//! The determinism contract: for any config, every [`Exec`] — serial
//! or pool schedule, memory or spill storage — reproduces the serial
//! in-memory reference byte for byte at 1, 2 and 8 rayon threads: trace
//! JSONL, ledger bytes, metrics snapshot, scalar counters and fault
//! stats, the streamed outcome digest, and folded span stacks. Along
//! the way it pins spill hygiene (directories end empty; a one-shard
//! cohort touches no disk; a run file holds its header and the shard's
//! records, nothing else). Each suite runs the reference plus its own
//! slice of the arm matrix.

use ml_ops_course::cohort::semester::{
    simulate_semester_exec, Exec, Schedule, SemesterConfig, Storage,
};
use ml_ops_course::cohort::spill::{SpillConfig, SpillStats, StreamOutcome};
use ml_ops_course::experiments::scale::OutcomeDigest;
use ml_ops_course::simkernel::parallel::with_thread_count;
use ml_ops_course::telemetry::{export_jsonl, Telemetry};
use ml_ops_course::testbed::ledger::{Ledger, UsageRecord};
use std::path::PathBuf;

pub(crate) const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A spill run's header: 8 bytes of magic and a `u64` record count.
const RUN_HEADER_BYTES: u64 = 16;

/// The paper course shrunk to 48-student shards so the merge does real
/// work (4 shards, projects included).
pub(crate) fn forced_multi_shard() -> SemesterConfig {
    let config = SemesterConfig {
        shard_students: 48,
        ..SemesterConfig::paper_course()
    };
    assert!(config.shards().len() > 1, "config must actually shard");
    config
}

/// One way to run a semester: `threads == None` runs the serial
/// schedule on the calling thread.
pub(crate) struct Arm {
    pub(crate) name: String,
    pub(crate) threads: Option<usize>,
    pub(crate) exec: Exec,
}

impl Arm {
    pub(crate) fn spills(&self) -> bool {
        matches!(self.exec.storage, Storage::Spill(_))
    }
}

/// The serial in-memory reference first, then every other arm: serial
/// spill, and pool runs in memory and spill at each thread count. Spill
/// arms get fresh directories under the cargo-managed temp root, keyed
/// by `suite` and `tag`.
pub(crate) fn arms(suite: &str, tag: &str) -> Vec<Arm> {
    let arm = |threads: Option<usize>, spill: bool| {
        let at = threads.map_or_else(|| "serial".to_string(), |t| format!("{t}threads"));
        let storage = if spill {
            let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(suite)
                .join(tag)
                .join(&at);
            let _ = std::fs::remove_dir_all(&dir);
            Storage::Spill(SpillConfig::new(dir))
        } else {
            Storage::Memory
        };
        Arm {
            name: format!("{at} {}", if spill { "spill" } else { "memory" }),
            threads,
            exec: Exec {
                schedule: threads.map_or(Schedule::Serial, |_| Schedule::Pool),
                storage,
            },
        }
    };
    let mut arms = vec![arm(None, false), arm(None, true)];
    for t in THREAD_COUNTS {
        arms.push(arm(Some(t), false));
        arms.push(arm(Some(t), true));
    }
    arms
}

/// Everything determinism-relevant from one run, as comparable bytes.
pub(crate) struct RunBytes {
    pub(crate) trace: String,
    pub(crate) ledger: String,
    pub(crate) metrics: String,
    pub(crate) scalars: String,
    pub(crate) digest: u64,
    pub(crate) folded: String,
}

impl RunBytes {
    /// The name of the first part that differs from `other`, if any.
    fn diff(&self, other: &RunBytes) -> Option<&'static str> {
        [
            ("trace", self.trace == other.trace),
            ("ledger", self.ledger == other.ledger),
            ("metrics", self.metrics == other.metrics),
            ("scalars", self.scalars == other.scalars),
            ("outcome digest", self.digest == other.digest),
            ("folded stacks", self.folded == other.folded),
        ]
        .into_iter()
        .find_map(|(part, same)| (!same).then_some(part))
    }
}

/// Run one arm with recording telemetry; the ledger sink both
/// materializes the ledger and folds the streamed outcome digest. A
/// spill arm also sums the encoded size of the delivered records and
/// holds its shard runs to exactly that plus one header each: the trace
/// stays in memory.
pub(crate) fn run(config: &SemesterConfig, seed: u64, arm: &Arm) -> (RunBytes, StreamOutcome) {
    let telemetry = Telemetry::recording();
    let mut ledger = Ledger::new();
    let mut digest = OutcomeDigest::new();
    let spills = arm.spills();
    let mut encoded = Vec::new();
    let mut encoded_bytes = 0u64;
    let mut simulate = || {
        let mut consume = |r: UsageRecord| {
            if spills {
                encoded.clear();
                r.encode_into(&mut encoded);
                encoded_bytes += encoded.len() as u64;
            }
            digest.push(&r);
            ledger.push(r);
        };
        simulate_semester_exec(config, seed, &arm.exec, &telemetry, &mut consume)
    };
    let outcome = match arm.threads {
        None => simulate(),
        Some(t) => with_thread_count(t, simulate),
    }
    .unwrap_or_else(|e| panic!("{} run failed: {e}", arm.name));
    assert_eq!(
        outcome.records as usize,
        ledger.records().len(),
        "{}: outcome record count must match delivered records",
        arm.name
    );
    let stats = &outcome.stats;
    if stats.shard_runs > 0 {
        // Harness configs stay within the default fan-in, so every
        // record is spilled exactly once, by its shard's run.
        assert_eq!(
            stats.spilled_bytes,
            RUN_HEADER_BYTES * stats.shard_runs as u64 + encoded_bytes,
            "{}: spill runs must hold only their headers and records ({stats:?})",
            arm.name
        );
    }
    let events = telemetry.take_events();
    let bytes = RunBytes {
        trace: export_jsonl(&events),
        ledger: serde_json::to_string(ledger.records()).expect("ledger serializes"),
        metrics: serde_json::to_string(&telemetry.metrics_snapshot()).expect("metrics serialize"),
        scalars: format!(
            "qd={} pb={} faults={:?}",
            outcome.quota_denials, outcome.slot_pushbacks, outcome.faults
        ),
        digest: digest.finish(
            outcome.quota_denials,
            outcome.slot_pushbacks,
            &outcome.faults,
        ),
        folded: ml_ops_course::profiler::profile_spans(&events).to_folded(),
    };
    (bytes, outcome)
}

/// Run `config` at seed 42 under the serial in-memory reference and
/// every other arm that `keep` selects, and hold each to the reference;
/// returns the reference.
pub(crate) fn every_exec_matches_the_reference(
    config: &SemesterConfig,
    suite: &str,
    tag: &str,
    keep: impl Fn(&Arm) -> bool,
) -> RunBytes {
    let sharded = config.shards().len() > 1;
    let mut arms = arms(suite, tag).into_iter();
    let reference_arm = arms.next().expect("the reference arm");
    let (reference, _) = run(config, 42, &reference_arm);
    assert!(
        !reference.trace.is_empty() && !reference.folded.is_empty(),
        "reference run must produce a trace and folded stacks"
    );
    for arm in arms.filter(|arm| keep(arm)) {
        let (bytes, outcome) = run(config, 42, &arm);
        if let Some(part) = reference.diff(&bytes) {
            panic!(
                "{tag}: {part} of the {} run diverged from the serial in-memory reference",
                arm.name
            );
        }
        if let Storage::Spill(spill) = &arm.exec.storage {
            assert!(
                !spill.dir.exists(),
                "{tag}: the {} run left its spill directory behind",
                arm.name
            );
            if sharded {
                assert!(
                    outcome.stats.shard_runs > 0,
                    "{}: nothing spilled",
                    arm.name
                );
            } else {
                assert_eq!(outcome.stats, SpillStats::default(), "{}", arm.name);
            }
        }
    }
    reference
}
