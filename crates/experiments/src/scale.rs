//! Scale sweep (`run-experiments scale`): sharded cohort simulation at
//! large enrollments.
//!
//! The monolithic semester driver saturates its shared reservation
//! calendar as the cohort grows (placement scans get super-cubically
//! slower), so enrollments far beyond the paper's 191 are infeasible
//! unsharded. The sharded driver replicates the campus per
//! [`SemesterConfig::shard_students`] students, simulates shards in
//! parallel and merges deterministically. This sweep runs one cohort at
//! several rayon thread counts, digests each outcome, and demands
//! byte-equivalence across all of them. A one-thread arm runs the
//! shards one after another on the calling thread.
//!
//! Every arm feeds the merged record stream straight into an
//! incremental [`OutcomeDigest`]; only the thread count differs between
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

use opml_cohort::semester::{simulate_semester_exec, SemesterConfig, SemesterOutcome, Storage};
use opml_cohort::spill::{SpillConfig, SpillError};
use opml_faults::FaultStats;
use opml_profiler::{peak_rss_kb, timed};
use opml_report::table::{fmt_num, Table};
use opml_simkernel::parallel::with_thread_count;
use opml_simkernel::{DetHasher, FnvConst};
use opml_telemetry::Telemetry;
use opml_testbed::flavor::FlavorId;
use opml_testbed::ledger::{UsageKind, UsageRecord};
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
    /// Rayon thread counts, one arm each; an empty list runs one
    /// 1-thread arm.
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
    /// Rayon threads.
    pub threads: usize,
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
    /// One arm per thread count, in the requested order.
    pub arms: Vec<ScaleArm>,
    /// All digests identical across thread counts.
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
/// ledger (`{"records":[...]}`, each record as `serde_json::to_string`
/// renders it) followed by the scalar suffix, so the digest is defined
/// by the serialized outcome without ever holding it. No record is
/// formatted: each push hashes only the bytes that vary (the name, the
/// decimal `start` and `end`, a volume's or bucket's size) and folds
/// every constant run of JSON between them in O(1) ([`FnvConst`]).
#[derive(Debug)]
pub struct OutcomeDigest {
    hash: DetHasher,
    first: bool,
    json: Box<RecordJson>,
    /// An escaped name or a formatted float.
    scratch: String,
}

/// The constant runs of a record's compact JSON, between the bytes that
/// vary. A record's closing `}` is folded with the next record's
/// opening, or with the envelope's close in [`OutcomeDigest::finish`].
#[derive(Debug)]
struct RecordJson {
    /// `{"name":"`, opening the first record.
    open_first: FnvConst,
    /// `},{"name":"`, closing a record and opening the next.
    open_next: FnvConst,
    /// From the name's closing quote to `"start":`, for an instance of
    /// each flavor (in [`FlavorId::ALL`] order), not auto-terminated
    /// then auto-terminated.
    instance: Vec<[FnvConst; 2]>,
    /// From the name's closing quote to `"start":`, for a floating IP.
    floating_ip: FnvConst,
    /// From the name's closing quote to a volume's size.
    volume: FnvConst,
    /// From the name's closing quote to a bucket's size.
    object_storage: FnvConst,
    /// From a volume's or bucket's size to `"start":`.
    size_to_start: FnvConst,
    /// `,"end":`.
    end: FnvConst,
}

impl RecordJson {
    fn new() -> RecordJson {
        let c = |s: &str| FnvConst::new(s.as_bytes());
        let instance = |flavor: FlavorId, auto_terminated: bool| {
            c(&format!(
                "\",\"kind\":{{\"Instance\":{{\"flavor\":\"{flavor:?}\",\
                 \"auto_terminated\":{auto_terminated}}}}},\"start\":"
            ))
        };
        RecordJson {
            open_first: c("{\"name\":\""),
            open_next: c("},{\"name\":\""),
            instance: FlavorId::ALL
                .into_iter()
                .map(|flavor| [instance(flavor, false), instance(flavor, true)])
                .collect(),
            floating_ip: c("\",\"kind\":\"FloatingIp\",\"start\":"),
            volume: c("\",\"kind\":{\"Volume\":{\"size_gb\":"),
            object_storage: c("\",\"kind\":{\"ObjectStorage\":{\"gb\":"),
            size_to_start: c("}},\"start\":"),
            end: c(",\"end\":"),
        }
    }
}

impl OutcomeDigest {
    /// Start a digest (opens the serialized-ledger envelope).
    pub fn new() -> OutcomeDigest {
        let mut hash = DetHasher::default();
        hash.write(b"{\"records\":[");
        OutcomeDigest {
            hash,
            first: true,
            json: Box::new(RecordJson::new()),
            scratch: String::new(),
        }
    }

    /// Fold the next merged record.
    pub fn push(&mut self, record: &UsageRecord) {
        let (hash, json) = (&mut self.hash, &*self.json);
        hash.write_const(if self.first {
            &json.open_first
        } else {
            &json.open_next
        });
        self.first = false;
        let name = record.name.as_bytes();
        if name.iter().copied().any(serde_json::escapes) {
            self.scratch.clear();
            serde_json::write_escaped(&mut self.scratch, &record.name);
            let unquoted = self
                .scratch
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'));
            hash.write(unquoted.unwrap_or_default().as_bytes());
        } else {
            hash.write(name);
        }
        match record.kind {
            UsageKind::Instance {
                flavor,
                auto_terminated,
            } => {
                if let Some([manual, auto]) = json.instance.get(flavor as usize) {
                    hash.write_const(if auto_terminated { auto } else { manual });
                }
            }
            UsageKind::FloatingIp => hash.write_const(&json.floating_ip),
            UsageKind::Volume { size_gb } => {
                hash.write_const(&json.volume);
                write_decimal(hash, size_gb);
                hash.write_const(&json.size_to_start);
            }
            UsageKind::ObjectStorage { gb } => {
                hash.write_const(&json.object_storage);
                self.scratch.clear();
                serde_json::write_f64(&mut self.scratch, gb);
                hash.write(self.scratch.as_bytes());
                hash.write_const(&json.size_to_start);
            }
        }
        write_decimal(hash, record.start.0);
        hash.write_const(&json.end);
        write_decimal(hash, record.end.0);
    }

    /// Close the envelope, fold the scalar counters, return the digest.
    pub fn finish(mut self, quota_denials: u64, slot_pushbacks: u64, faults: &FaultStats) -> u64 {
        self.hash
            .write(if self.first { b"]}".as_slice() } else { b"}]}" });
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

/// Hash `n`'s decimal digits, as JSON writes a `u64`.
#[inline]
fn write_decimal(hash: &mut DetHasher, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut len = 0;
    for digit in digits.iter_mut().rev() {
        *digit = b'0' + (n % 10) as u8;
        n /= 10;
        len += 1;
        if n == 0 {
            break;
        }
    }
    hash.write(digits.get(digits.len() - len..).unwrap_or_default());
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
/// in MB, rounded up: 8 KiB/student, deliberately coarse — it only
/// decides *whether* to spill under `--mem-budget-mb`, and check.sh's
/// forced-spill smoke relies on its 16 MB at 2k students. The observed
/// `VmHWM` peak of `scale`'s in-memory arms, which stream the merge into
/// the digest, is ~1.8 KiB/student (181 MB at 100k and 1.77 GB at 1M on
/// two threads), so the estimate overstates it about 4.5 times.
pub fn estimated_peak_mb(enrollment: u32) -> u64 {
    (u64::from(enrollment) * 8).div_ceil(1024)
}

/// Run and time one arm on a pool of `threads`: stream the merged
/// ledger into an incremental digest, never materializing it.
fn run_arm(
    sem: &SemesterConfig,
    seed: u64,
    storage: &Storage,
    threads: usize,
) -> Result<ScaleArm, SpillError> {
    let mut digest = OutcomeDigest::new();
    let (outcome, wall_s) = timed(|| {
        with_thread_count(threads, || {
            let mut sink = |r: UsageRecord| digest.push(&r);
            simulate_semester_exec(sem, seed, storage, &Telemetry::disabled(), &mut sink)
        })
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

/// Run the sweep: one sharded arm per requested thread count (one
/// 1-thread arm when none is requested), each timed.
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

    let threads = if config.threads.is_empty() {
        &[1][..]
    } else {
        &config.threads
    };
    let arms = threads
        .iter()
        .map(|&t| run_arm(&sem, config.seed, &storage, t))
        .collect::<Result<Vec<_>, _>>()?;
    let peak_rss_kb = peak_rss_kb();
    let budget_exceeded = config
        .mem_budget_mb
        .map(|budget| peak_rss_kb.unwrap_or(0) > budget * 1024);
    let equivalent = arms.windows(2).all(|w| w[0].digest == w[1].digest);

    let mut table = Table::new(&["arm", "wall s", "records", "digest"]);
    for arm in &arms {
        table.row(&[
            format!("{} threads", arm.threads),
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
        assert_eq!(report.arms.len(), 3);
        assert!(report.arms[0].records > 0);
        assert!(!report.spilled);
    }

    #[test]
    fn no_thread_counts_run_one_single_thread_arm() {
        let report = run(&ScaleConfig {
            seed: 7,
            enrollment: 40,
            shard_students: 12,
            threads: vec![],
            spill_dir: None,
            mem_budget_mb: None,
        })
        .expect("in-memory sweep cannot fail");
        assert_eq!(report.arms.len(), 1, "{}", report.text);
        assert_eq!(report.arms[0].threads, 1);
        assert!(report.arms[0].records > 0);
        assert!(report.equivalent);
        assert!(
            report
                .text
                .contains(&format!("digest={:016x}", report.arms[0].digest)),
            "{}",
            report.text
        );
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
            // The longest name kept in place (22 bytes), the shortest
            // kept on the heap (23), and a heap-side non-ASCII name.
            "lab4-single-s999999999",
            "lab4-single-s9999999999",
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
        // Each record alone first, so a failure names the record.
        for r in contract_records() {
            let mut alone = OutcomeDigest::new();
            alone.push(&r);
            let json = serde_json::to_string(&r).expect("record serializes");
            assert_eq!(
                alone.finish(0, 0, &FaultStats::default()),
                fnv1a64(
                    format!(
                        "{{\"records\":[{json}]}}|qd=0|pb=0|faults={:?}",
                        FaultStats::default()
                    )
                    .as_bytes()
                ),
                "the digest of {r:?} is not FNV-1a of its JSON {json}"
            );
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
