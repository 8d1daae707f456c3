//! The differential harness for the semester driver, shared by the
//! tier-1 suites `sharded_differential`, `spill_differential` and
//! `alloc_pass_differential`.
//!
//! The determinism contract: for any config, every [`Storage`] —
//! memory or spill — at 1, 2 and 8 rayon threads, and
//! `simulate_semester_streaming_serial` called from inside an 8-thread
//! pool, reproduce the 1-thread in-memory reference byte for byte:
//! trace JSONL, ledger
//! bytes, metrics snapshot, scalar counters and fault stats, the
//! streamed outcome digest, and folded span stacks. Every arm's
//! streamed digest is also held to its definition, FNV-1a of the
//! serialized outcome, on the real cohort's records. Along the way it
//! pins spill hygiene (directories end empty; a one-shard cohort
//! touches no disk; a run file holds its header and the shard's
//! records, nothing else). Each suite runs the reference plus its own
//! slice of the arm matrix.

use ml_ops_course::cohort::semester::{simulate_semester_exec, SemesterConfig, Storage};
use ml_ops_course::cohort::spill::{
    simulate_semester_streaming_serial, SpillConfig, SpillStats, StreamOutcome,
};
use ml_ops_course::experiments::scale::OutcomeDigest;
use ml_ops_course::simkernel::fnv1a64;
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

/// One way to run a semester: a storage on a pool of `threads`, entered
/// through `simulate_semester_exec`, or, if `streaming_serial`, through
/// `simulate_semester_streaming_serial`, which pins its own 1-thread
/// pool inside that one.
pub(crate) struct Arm {
    pub(crate) name: String,
    pub(crate) threads: usize,
    pub(crate) storage: Storage,
    pub(crate) streaming_serial: bool,
}

impl Arm {
    pub(crate) fn spills(&self) -> bool {
        matches!(self.storage, Storage::Spill(_))
    }
}

/// The 1-thread in-memory reference first, then every other arm: memory
/// and spill at each thread count, and last the streaming-serial spill
/// arm, called from inside an 8-thread pool. Spill arms get fresh
/// directories under the cargo-managed temp root, keyed by `suite` and
/// `tag`.
pub(crate) fn arms(suite: &str, tag: &str) -> Vec<Arm> {
    let spill_dir = |leaf: &str| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(suite)
            .join(tag)
            .join(leaf);
        let _ = std::fs::remove_dir_all(&dir);
        Storage::Spill(SpillConfig::new(dir))
    };
    let arm = |threads: usize, spill: bool| {
        let at = format!("{threads}threads");
        Arm {
            name: format!("{at} {}", if spill { "spill" } else { "memory" }),
            threads,
            storage: if spill {
                spill_dir(&at)
            } else {
                Storage::Memory
            },
            streaming_serial: false,
        }
    };
    let streaming_serial = Arm {
        name: "streaming serial in an 8-thread pool".to_string(),
        threads: 8,
        storage: spill_dir("streaming_serial"),
        streaming_serial: true,
    };
    THREAD_COUNTS
        .into_iter()
        .flat_map(|t| [arm(t, false), arm(t, true)])
        .chain([streaming_serial])
        .collect()
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
/// materializes the ledger and folds the streamed outcome digest, which
/// must equal FNV-1a of the materialized ledger's JSON and the scalar
/// suffix. A spill arm also sums the encoded size of the delivered
/// records and holds its shard runs to exactly that plus one header
/// each: the trace stays in memory.
pub(crate) fn run(config: &SemesterConfig, seed: u64, arm: &Arm) -> (RunBytes, StreamOutcome) {
    let telemetry = Telemetry::recording();
    let mut ledger = Ledger::new();
    let mut digest = OutcomeDigest::new();
    let spills = arm.spills();
    let mut encoded = Vec::new();
    let mut encoded_bytes = 0u64;
    let outcome = with_thread_count(arm.threads, || {
        let mut consume = |r: UsageRecord| {
            if spills {
                encoded.clear();
                r.encode_into(&mut encoded);
                encoded_bytes += encoded.len() as u64;
            }
            digest.push(&r);
            ledger.push(r);
        };
        match &arm.storage {
            Storage::Spill(spill) if arm.streaming_serial => {
                simulate_semester_streaming_serial(config, seed, &telemetry, spill, |r| {
                    consume(r.clone())
                })
            }
            storage => simulate_semester_exec(config, seed, storage, &telemetry, &mut consume),
        }
    })
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
    let definition = format!(
        "{{\"records\":{}}}|qd={}|pb={}|faults={:?}",
        bytes.ledger, outcome.quota_denials, outcome.slot_pushbacks, outcome.faults
    );
    assert_eq!(
        bytes.digest,
        fnv1a64(definition.as_bytes()),
        "{}: the streamed digest is not FNV-1a of the serialized outcome",
        arm.name
    );
    (bytes, outcome)
}

/// Run `config` at seed 42 under the 1-thread in-memory reference and
/// every other arm that `keep` selects, and hold each to the reference;
/// returns the reference.
pub(crate) fn every_arm_matches_the_reference(
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
                "{tag}: {part} of the {} run diverged from the 1-thread in-memory reference",
                arm.name
            );
        }
        if let Storage::Spill(spill) = &arm.storage {
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
