//! Scale sweep (`run-experiments scale`): sharded cohort simulation at
//! large enrollments.
//!
//! The monolithic semester driver saturates its shared reservation
//! calendar as the cohort grows (placement scans get super-cubically
//! slower), so enrollments far beyond the paper's 191 are infeasible
//! unsharded. The sharded driver replicates the campus per
//! [`SemesterConfig::shard_students`] students, simulates shards in
//! parallel and merges deterministically. This sweep runs one cohort at
//! several rayon thread counts plus the strictly sequential reference,
//! digests each outcome, and demands byte-equivalence across all of
//! them.
//!
//! Every arm feeds the merged record stream straight into an
//! incremental [`OutcomeDigest`]; only the [`Exec`] differs between
//! arms.
//!
//! ## Out-of-core mode
//!
//! With a spill directory (`--spill-dir`) or a memory budget the
//! estimated in-memory peak would exceed (`--mem-budget-mb`), each arm
//! runs with [`Storage::Spill`]: shard ledgers go to on-disk runs, so
//! peak RSS is O(shard), not O(cohort). The stream is byte-identical to
//! the in-memory merge, hence so is the digest — the sharded
//! differential test and the `check.sh` forced-spill smoke pin this
//! against the committed goldens.
//!
//! Peak RSS is the process high water, `VmHWM`
//! ([`opml_profiler::peak_rss_kb`]), reported alongside a
//! budget-exceeded verdict so the RSS gate is observable, not inferred.
//!
//! Each arm is wall-timed with [`opml_profiler::timed`]; the measured
//! times are reported, never fed back into simulation state.

use opml_cohort::semester::{
    simulate_semester_exec, Exec, Schedule, SemesterConfig, SemesterOutcome, Storage,
};
use opml_cohort::spill::{SpillConfig, SpillError};
use opml_faults::FaultStats;
use opml_profiler::{peak_rss_kb, timed};
use opml_report::table::{fmt_num, Table};
use opml_simkernel::parallel::with_thread_count;
use opml_simkernel::DetHasher;
use opml_telemetry::Telemetry;
use opml_testbed::ledger::{UsageKind, UsageRecord};
use std::fmt::Write;
use std::hash::Hasher;
use std::path::PathBuf;

/// What to sweep.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Semester seed.
    pub seed: u64,
    /// Cohort size.
    pub enrollment: u32,
    /// Students per shard (the paper's 191 by default).
    pub shard_students: u32,
    /// Rayon thread counts for the parallel arms.
    pub threads: Vec<usize>,
    /// Spill shard runs to this directory (out-of-core mode). `None`
    /// defaults to a per-process temp directory when spilling is
    /// triggered by `mem_budget_mb`.
    pub spill_dir: Option<PathBuf>,
    /// Peak-RSS budget in MB. Spilling engages when the estimated
    /// in-memory peak exceeds it; the report records whether the
    /// *observed* peak stayed within it.
    pub mem_budget_mb: Option<u64>,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            seed: 42,
            enrollment: 100_000,
            shard_students: 191,
            threads: vec![1, 2, 4, 8],
            spill_dir: None,
            mem_budget_mb: None,
        }
    }
}

/// One arm of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleArm {
    /// Rayon threads (`None` = the strictly sequential reference).
    pub threads: Option<usize>,
    /// Wall time in seconds.
    pub wall_s: f64,
    /// FNV-1a digest of the serialized outcome.
    pub digest: u64,
    /// Ledger records in the merged outcome.
    pub records: usize,
}

/// Sweep outcome.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Rendered table.
    pub text: String,
    /// Sequential reference followed by one arm per thread count.
    pub arms: Vec<ScaleArm>,
    /// All digests identical (sequential vs every thread count).
    pub equivalent: bool,
    /// Whether the arms ran through the out-of-core spill path.
    pub spilled: bool,
    /// The configured memory budget, if any.
    pub mem_budget_mb: Option<u64>,
    /// `Some(true)` when a budget was set and the process peak
    /// (`VmHWM`) exceeded it. Informational here; the hard gate lives in
    /// `bench_semester --check`.
    pub budget_exceeded: Option<bool>,
}

/// Digest every determinism-relevant byte of an outcome: the full
/// serialized ledger plus the scalar counters and fault stats. This is
/// the [`OutcomeDigest`] fold over the materialized ledger, so the
/// in-memory and out-of-core paths share one digest code path.
pub fn digest_outcome(outcome: &SemesterOutcome) -> u64 {
    let mut digest = OutcomeDigest::new();
    for record in outcome.ledger.records() {
        digest.push(record);
    }
    digest.finish(
        outcome.quota_denials,
        outcome.slot_pushbacks,
        &outcome.faults,
    )
}

/// Incremental outcome digest: records are folded one at a time, in
/// merge order. The hashed bytes are exactly the compact JSON of the
/// ledger (`{"records":[...]}`, each record as the private
/// `write_record_json` renders it) followed by the scalar suffix, so
/// the digest is defined by the serialized outcome without ever holding
/// it: each record is written into one reused buffer and hashed.
#[derive(Debug)]
pub struct OutcomeDigest {
    hash: DetHasher,
    first: bool,
    buf: String,
}

impl OutcomeDigest {
    /// Start a digest (opens the serialized-ledger envelope).
    pub fn new() -> OutcomeDigest {
        let mut hash = DetHasher::default();
        hash.write(b"{\"records\":[");
        OutcomeDigest {
            hash,
            first: true,
            buf: String::new(),
        }
    }

    /// Fold the next merged record.
    pub fn push(&mut self, record: &UsageRecord) {
        self.buf.clear();
        if self.first {
            self.first = false;
        } else {
            self.buf.push(',');
        }
        write_record_json(&mut self.buf, record);
        self.hash.write(self.buf.as_bytes());
    }

    /// Close the envelope, fold the scalar counters, return the digest.
    pub fn finish(mut self, quota_denials: u64, slot_pushbacks: u64, faults: &FaultStats) -> u64 {
        self.hash.write(b"]}");
        self.hash
            .write(format!("|qd={quota_denials}|pb={slot_pushbacks}|faults={faults:?}").as_bytes());
        self.hash.finish()
    }
}

impl Default for OutcomeDigest {
    fn default() -> Self {
        OutcomeDigest::new()
    }
}

/// Append `r`'s compact JSON exactly as `serde_json::to_string(r)`
/// renders it — fields in declaration order, `UsageKind` externally
/// tagged, unit variants as their name (a `FlavorId`'s derived `Debug`)
/// — without building the intermediate `serde::Node` tree. String and
/// float rules come from the shim itself;
/// `record_json_matches_the_serializer` pins the rest.
fn write_record_json(out: &mut String, r: &UsageRecord) {
    out.push_str("{\"name\":");
    serde_json::write_escaped(out, &r.name);
    out.push_str(",\"kind\":");
    // Writing into a `String` cannot fail.
    let _ = match r.kind {
        UsageKind::Instance {
            flavor,
            auto_terminated,
        } => write!(
            out,
            "{{\"Instance\":{{\"flavor\":\"{flavor:?}\",\"auto_terminated\":{auto_terminated}}}}}"
        ),
        UsageKind::FloatingIp => {
            out.push_str("\"FloatingIp\"");
            Ok(())
        }
        UsageKind::Volume { size_gb } => write!(out, "{{\"Volume\":{{\"size_gb\":{size_gb}}}}}"),
        UsageKind::ObjectStorage { gb } => {
            out.push_str("{\"ObjectStorage\":{\"gb\":");
            serde_json::write_f64(out, gb);
            out.push_str("}}");
            Ok(())
        }
    };
    let _ = write!(out, ",\"start\":{},\"end\":{}}}", r.start.0, r.end.0);
}

/// Labs-only config for the sweep (projects plan against per-shard
/// campuses too, but the scale story in the paper is about labs).
fn sweep_config(config: &ScaleConfig) -> SemesterConfig {
    SemesterConfig {
        enrollment: config.enrollment,
        run_projects: false,
        shard_students: config.shard_students,
        ..SemesterConfig::paper_course()
    }
}

/// Estimated in-memory peak RSS for a cohort of `enrollment` students,
/// in MB, rounded up. Calibrated from observed `VmHWM` peaks of the
/// in-memory path (`scale`: ~5.1 KiB/student at 100k and
/// ~6.0 at 200k on one thread, ~7.2 at 1M on two, while the merged
/// ledger was still materialized; ~5.5 at 100k and 1M on two since the
/// arms stream it into the digest), rounded up to 8 KiB/student;
/// deliberately coarse — it only decides *whether* to spill under
/// `--mem-budget-mb`.
pub fn estimated_peak_mb(enrollment: u32) -> u64 {
    (u64::from(enrollment) * 8).div_ceil(1024)
}

/// Run and time one arm (`threads == None` is the serial reference):
/// stream the merged ledger into an incremental digest, never
/// materializing it.
fn run_arm(
    sem: &SemesterConfig,
    seed: u64,
    storage: &Storage,
    threads: Option<usize>,
) -> Result<ScaleArm, SpillError> {
    let exec = Exec {
        schedule: threads.map_or(Schedule::Serial, |_| Schedule::Pool),
        storage: storage.clone(),
    };
    let mut digest = OutcomeDigest::new();
    let mut run = || {
        let mut sink = |r: UsageRecord| digest.push(&r);
        simulate_semester_exec(sem, seed, &exec, &Telemetry::disabled(), &mut sink)
    };
    let (outcome, wall_s) = timed(|| match threads {
        None => run(),
        Some(t) => with_thread_count(t, run),
    });
    let outcome = outcome?;
    Ok(ScaleArm {
        threads,
        wall_s,
        digest: digest.finish(
            outcome.quota_denials,
            outcome.slot_pushbacks,
            &outcome.faults,
        ),
        records: outcome.records as usize,
    })
}

/// Run the sweep: the strictly sequential reference first, then one
/// sharded arm per requested thread count, each timed.
/// Spilling engages when a spill directory is given or the estimated
/// peak exceeds the memory budget; a spill failure is returned, naming
/// the file it hit.
pub fn run(config: &ScaleConfig) -> Result<ScaleReport, SpillError> {
    let sem = sweep_config(config);
    let spilled = config.spill_dir.is_some()
        || config
            .mem_budget_mb
            .is_some_and(|budget| estimated_peak_mb(config.enrollment) > budget);
    let spill_dir = config.spill_dir.clone().unwrap_or_else(|| {
        // detlint::allow(DL001): spill paths are harness plumbing, never simulation input
        std::env::temp_dir().join(format!("opml-spill-{}", std::process::id()))
    });
    let storage = if spilled {
        Storage::Spill(SpillConfig::new(spill_dir))
    } else {
        Storage::Memory
    };

    let mut arms = Vec::new();
    let mut arm_threads: Vec<Option<usize>> = vec![None];
    arm_threads.extend(config.threads.iter().map(|&t| Some(t)));
    for threads in arm_threads {
        arms.push(run_arm(&sem, config.seed, &storage, threads)?);
    }
    let peak_rss_kb = peak_rss_kb();
    let budget_exceeded = config
        .mem_budget_mb
        .map(|budget| peak_rss_kb.unwrap_or(0) > budget * 1024);
    let equivalent = arms.windows(2).all(|w| w[0].digest == w[1].digest);

    let mut table = Table::new(&["arm", "wall s", "records", "digest"]);
    for arm in &arms {
        table.row(&[
            match arm.threads {
                None => "sequential".to_string(),
                Some(t) => format!("{t} threads"),
            },
            fmt_num(arm.wall_s, 3),
            arm.records.to_string(),
            format!("{:016x}", arm.digest),
        ]);
    }
    let verdict = if equivalent {
        "byte-equivalent"
    } else {
        "MISMATCH"
    };
    table.footer(&[
        "verdict".to_string(),
        String::new(),
        String::new(),
        verdict.to_string(),
    ]);
    let mut text = table.render();
    text.push_str(&format!(
        "\nenrollment {} | shard_students {} | seed {} | digest={:016x}\n",
        config.enrollment, config.shard_students, config.seed, arms[0].digest
    ));
    text.push_str(&format!(
        "path: {}\n",
        if spilled {
            "out-of-core (spill runs + streaming merge)"
        } else {
            "in-memory"
        }
    ));
    if let Some(budget) = config.mem_budget_mb {
        text.push_str(&format!(
            "mem budget: {budget} MB | estimated in-memory peak: {} MB | observed peak: {} | {}\n",
            estimated_peak_mb(config.enrollment),
            peak_rss_kb.map_or_else(|| "n/a".to_string(), |kb| format!("{} MB", kb / 1024)),
            match budget_exceeded {
                Some(true) => "BUDGET EXCEEDED",
                _ => "within budget",
            }
        ));
    }
    Ok(ScaleReport {
        text,
        arms,
        equivalent,
        spilled,
        mem_budget_mb: config.mem_budget_mb,
        budget_exceeded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use opml_simkernel::{fnv1a64, SimTime};
    use opml_testbed::flavor::FlavorId;
    use opml_testbed::ledger::Ledger;

    #[test]
    fn tiny_sweep_is_equivalent_across_thread_counts() {
        let report = run(&ScaleConfig {
            seed: 7,
            enrollment: 40,
            shard_students: 12,
            threads: vec![1, 2, 8],
            spill_dir: None,
            mem_budget_mb: None,
        })
        .expect("in-memory sweep cannot fail");
        assert!(report.equivalent, "{}", report.text);
        assert_eq!(report.arms.len(), 4);
        assert!(report.arms[0].records > 0);
        assert!(!report.spilled);
    }

    #[test]
    fn forced_spill_matches_in_memory_digest() {
        let base = ScaleConfig {
            seed: 7,
            enrollment: 40,
            shard_students: 12,
            threads: vec![2],
            spill_dir: None,
            mem_budget_mb: None,
        };
        let in_memory = run(&base).expect("in-memory sweep cannot fail");
        // detlint::allow(DL001): test-unique temp path, never simulation input
        let dir = std::env::temp_dir().join(format!("opml-scale-test-{}", std::process::id()));
        let spilled = run(&ScaleConfig {
            spill_dir: Some(dir),
            ..base
        })
        .expect("spill sweep");
        assert!(spilled.spilled, "{}", spilled.text);
        assert!(in_memory.equivalent && spilled.equivalent);
        assert_eq!(
            in_memory.arms[0].digest, spilled.arms[0].digest,
            "spill path must reproduce the in-memory digest\n{}\n{}",
            in_memory.text, spilled.text
        );
    }

    #[test]
    fn tiny_budget_triggers_spilling() {
        let report = run(&ScaleConfig {
            seed: 7,
            enrollment: 40,
            shard_students: 12,
            threads: vec![],
            spill_dir: None,
            mem_budget_mb: Some(1),
        })
        .expect("in-memory sweep cannot fail");
        // estimated_peak_mb(40) = ceil(40 * 8 / 1024) = 1 MB, equal to
        // the budget, so no spill; the estimate rounds up, so a zero
        // budget always spills.
        assert!(!report.spilled);
        let report = run(&ScaleConfig {
            seed: 7,
            enrollment: 40,
            shard_students: 12,
            threads: vec![],
            spill_dir: None,
            mem_budget_mb: Some(0),
        })
        .expect("spill sweep");
        assert!(report.spilled, "{}", report.text);
        assert_eq!(report.mem_budget_mb, Some(0));
        assert!(report.budget_exceeded.is_some());
    }

    #[test]
    fn spill_failure_is_a_typed_error_naming_the_path() {
        // detlint::allow(DL001): test-unique temp path, never simulation input
        let file = std::env::temp_dir().join(format!("opml-scale-notadir-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").expect("write blocker file");
        let result = run(&ScaleConfig {
            seed: 7,
            enrollment: 40,
            shard_students: 12,
            threads: vec![],
            spill_dir: Some(file.clone()),
            mem_budget_mb: None,
        });
        let _ = std::fs::remove_file(&file);
        match result {
            Err(SpillError::Io { path, .. }) => assert_eq!(path, file),
            Err(other) => panic!("expected SpillError::Io, got {other}"),
            Ok(report) => panic!("spilling into a regular file succeeded:\n{}", report.text),
        }
    }

    fn rec(name: &str, kind: UsageKind, start: u64, end: u64) -> UsageRecord {
        UsageRecord {
            name: name.into(),
            kind,
            start: SimTime(start),
            end: SimTime(end),
        }
    }

    /// The records the digest tests fold: every kind variant, every
    /// flavor both ways, awkward names and awkward floats.
    fn contract_records() -> Vec<UsageRecord> {
        let mut recs = Vec::new();
        for flavor in FlavorId::ALL {
            for auto_terminated in [true, false] {
                let kind = UsageKind::Instance {
                    flavor,
                    auto_terminated,
                };
                recs.push(rec("lab1-s0", kind, 0, 90));
            }
        }
        recs.push(rec("lab1-s0", UsageKind::FloatingIp, 0, 90));
        recs.push(rec("v0", UsageKind::Volume { size_gb: 50 }, 5, 60));
        recs.push(rec("v1", UsageKind::Volume { size_gb: 0 }, 0, u64::MAX));
        for gb in [2.5, 2.0, 1.25, 1e15, 1e300, -0.0, f64::NAN, f64::INFINITY] {
            recs.push(rec("b0", UsageKind::ObjectStorage { gb }, 9, 9));
        }
        for name in [
            "",
            "quote\"d",
            "back\\slash",
            "new\nline",
            "tab\tbed",
            "ctl\u{1}x",
            "non-ASCII: étudiant ✓ 学生",
        ] {
            recs.push(rec(name, UsageKind::FloatingIp, 1, 2));
        }
        recs
    }

    #[test]
    fn record_json_matches_the_serializer() {
        let mut out = String::new();
        for r in contract_records() {
            out.clear();
            write_record_json(&mut out, &r);
            assert_eq!(
                out,
                serde_json::to_string(&r).expect("record serializes"),
                "hand-written record JSON diverged from serde_json for {r:?}"
            );
        }
    }

    #[test]
    fn streaming_digest_matches_materialized_digest() {
        // The digest's definition: FNV-1a over the whole serialized
        // ledger plus the scalar suffix. Both `OutcomeDigest` and
        // `digest_outcome` must reproduce it without materializing it.
        fn reference(outcome: &SemesterOutcome) -> u64 {
            let mut blob = serde_json::to_string(&outcome.ledger).expect("ledger serializes");
            blob.push_str(&format!(
                "|qd={}|pb={}|faults={:?}",
                outcome.quota_denials, outcome.slot_pushbacks, outcome.faults
            ));
            fnv1a64(blob.as_bytes())
        }
        let mut ledger = Ledger::new();
        let mut streaming = OutcomeDigest::new();
        for r in contract_records() {
            streaming.push(&r);
            ledger.push(r);
        }
        let faults = FaultStats {
            injected: 2,
            retries: 5,
            ..FaultStats::default()
        };
        let outcome = SemesterOutcome {
            ledger,
            quota_denials: 3,
            slot_pushbacks: 1,
            faults,
        };
        assert_eq!(
            streaming.finish(3, 1, &faults),
            reference(&outcome),
            "incremental digest must equal the whole-ledger definition"
        );
        assert_eq!(digest_outcome(&outcome), reference(&outcome));
        // And the empty envelope agrees too.
        let empty = SemesterOutcome {
            ledger: Ledger::new(),
            quota_denials: 0,
            slot_pushbacks: 0,
            faults: FaultStats::default(),
        };
        assert_eq!(digest_outcome(&empty), reference(&empty));
        assert_eq!(
            OutcomeDigest::new().finish(0, 0, &FaultStats::default()),
            reference(&empty)
        );
    }

    #[test]
    fn digest_is_seed_sensitive() {
        let arm = |seed| {
            run(&ScaleConfig {
                seed,
                enrollment: 24,
                shard_students: 8,
                threads: vec![],
                spill_dir: None,
                mem_budget_mb: None,
            })
            .expect("in-memory sweep cannot fail")
            .arms[0]
                .digest
        };
        assert_ne!(arm(1), arm(2));
    }
}
