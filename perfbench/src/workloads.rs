//! The four workloads. Each is a closed loop on one thread: the next
//! iteration starts when the previous one returns, and every call runs
//! under a one-thread pool (multi-thread walls spread by ±25% on a
//! small shared host).
//!
//! * `paper` — the full `run-experiments` reproduction at one seed: the
//!   191-student course with projects, metering rollups, pricing, every
//!   artifact, the 5-seed sweep and the ablations. The only workload
//!   with the project phase and the single-shard path; no merge and no
//!   disk I/O, so metering and the artifact code are a visible share.
//! * `scale_100k` — 100k labs-only students through the in-memory
//!   sharded path (524 shards, `Ledger::merge_sorted`), then the
//!   outcome digest, then dropping the outcome: an O(cohort) working set.
//! * `spill_100k` — the same cohort and seed through the out-of-core
//!   path with a streaming digest: the same simulation and digest as
//!   `scale_100k`, but storage goes through disk runs and one
//!   intermediate merge pass, with O(shard) memory.
//! * `serve` — the `bench_serve` ramp through `opml_serve::run_service`,
//!   8 → 168 ops/s in 21 rounds: the testbed cloud as a long-lived
//!   mutating service, touching none of the cohort, merge or spill layers.
//!
//! Every iteration checks its own output and returns a digest that must
//! repeat across iterations; at seed 42 the digests are also held to
//! the repository's committed goldens (`tests/golden/scale_*.digest`,
//! `BENCH_serve.json`), and the paper's comparisons must all be within
//! tolerance.

use crate::trace::{Clock, Tracer};
use opml_cohort::semester::{simulate_semester, simulate_semester_with, SemesterConfig};
use opml_cohort::spill::{simulate_semester_streaming_serial, SpillConfig, StreamOutcome};
use opml_experiments::digest::fnv1a64;
use opml_experiments::scale::{digest_outcome, OutcomeDigest};
use opml_experiments::{
    ablation, capacity, fig1, fig2, fig3, headline, project_cost, seeds, spot_ablation, table1,
    ExperimentContext,
};
use opml_metering::rollup::{AssignmentRollup, PerStudentUsage};
use opml_pricing::estimate::{price_lab_assignments, ProjectUsageSummary};
use opml_profiler::Json;
use opml_report::compare::ComparisonSet;
use opml_serve::{run_service, OpCounts, OpKind, ServeConfig, ServeCounts, ServeReport};
use opml_simkernel::parallel::with_thread_count;
use opml_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub const NAMES: [&str; 4] = ["paper", "scale_100k", "spill_100k", "serve"];

/// The seed the committed goldens were recorded at.
pub const GOLDEN_SEED: u64 = 42;

const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Input sizes. [`FULL`] is the benchmark; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Students in the `scale_100k` and `spill_100k` cohorts.
    pub cohort: u32,
    /// Students in the cohort warm-up run during set-up.
    pub warmup_cohort: u32,
    /// Highest offered rate of the `serve` ramp, ops/s.
    pub serve_max_rps: u64,
}

pub const FULL: Size = Size {
    cohort: 100_000,
    warmup_cohort: 2_000,
    serve_max_rps: 168,
};

/// What one iteration produced.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Digest of the outputs; identical on every iteration of a run.
    pub digest: u64,
    /// Exact per-layer counts.
    pub counts: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Run one iteration and check its outputs.
    fn iterate(&mut self, tr: &mut Tracer) -> Result<Iteration, String>;
}

/// Build a workload's inputs and run its reduced-size warm-up, checking
/// the warm-up's outputs. `out_dir` holds the spill runs.
pub fn setup(
    name: &str,
    seed: u64,
    size: Size,
    out_dir: &Path,
) -> Result<Box<dyn Workload>, String> {
    match name {
        "paper" => {
            let mut paper = Paper { seed };
            paper.iterate(&mut Tracer::new())?;
            Ok(Box::new(paper))
        }
        "scale_100k" | "spill_100k" => {
            let spill_dir = (name == "spill_100k").then(|| out_dir.join("spill"));
            warm_up_cohort(seed, size.warmup_cohort, spill_dir.as_deref())?;
            let cohort = Cohort {
                seed,
                config: labs(size.cohort),
                golden: golden_digest(seed, size.cohort)?,
            };
            Ok(match spill_dir {
                None => Box::new(InMemory(cohort)),
                Some(spill_dir) => Box::new(Spilled { cohort, spill_dir }),
            })
        }
        "serve" => {
            // Four rounds: enough work that set-up time is not just
            // first-touch page faults.
            let warm_up = serve_config(seed, 32);
            let report = with_thread_count(1, || run_service(&warm_up));
            check_balance(&report.counts)?;
            let config = serve_config(seed, size.serve_max_rps);
            let golden = if seed == GOLDEN_SEED && size.serve_max_rps == FULL.serve_max_rps {
                Some(bench_serve_digest()?)
            } else {
                None
            };
            Ok(Box::new(Serve { config, golden }))
        }
        other => Err(format!(
            "unknown workload `{other}` (expected one of {NAMES:?} or all)"
        )),
    }
}

// ---------------------------------------------------------------------------
// paper
// ---------------------------------------------------------------------------

struct Paper {
    seed: u64,
}

impl Workload for Paper {
    fn iterate(&mut self, tr: &mut Tracer) -> Result<Iteration, String> {
        with_thread_count(1, || paper_iteration(self.seed, tr))
    }
}

/// `run-experiments` without its printing and file output.
fn paper_iteration(seed: u64, tr: &mut Tracer) -> Result<Iteration, String> {
    let config = SemesterConfig::paper_course();
    let outcome = tr.span("cohort.simulate", |_| {
        simulate_semester_with(&config, seed, &Telemetry::disabled())
    });
    let (rollup, per_student) = tr.span("metering.rollup", |_| {
        (
            AssignmentRollup::from_ledger(&outcome.ledger, config.enrollment as usize),
            PerStudentUsage::from_ledger(&outcome.ledger),
        )
    });
    let (table, project) = tr.span("pricing.estimate", |_| {
        (
            price_lab_assignments(&rollup),
            ProjectUsageSummary::from_ledger(&outcome.ledger),
        )
    });
    let mut counts = cohort_counts(
        outcome.ledger.records().len() as u64,
        config.shards().len(),
        outcome.quota_denials,
        outcome.slot_pushbacks,
    );
    let ctx = ExperimentContext {
        outcome,
        rollup,
        per_student,
        table,
        project,
        seed,
    };
    let mut sections: Vec<(String, ComparisonSet)> = tr.span("experiments.artifacts", |_| {
        vec![
            table1::run(&ctx),
            fig1::run(&ctx),
            fig2::run(&ctx),
            fig3::run(&ctx),
            project_cost::run(&ctx),
            headline::run(&ctx),
            capacity::run(&ctx),
            spot_ablation::run(&ctx, seed),
        ]
    });
    let (text, cmp, _) = tr.span("experiments.seeds", |_| seeds::run(seed, 5));
    sections.push((text, cmp));
    let (text, cmp, _) = tr.span("experiments.ablation", |_| ablation::run(seed, 64));
    sections.push((text, cmp));

    let mut rendered = String::new();
    let (mut rows, mut within) = (0u64, 0u64);
    for (text, cmp) in &sections {
        rendered.push_str(text);
        rendered.push_str(&serde_json::to_string(cmp).expect("the serde_json shim cannot fail"));
        rows += cmp.rows.len() as u64;
        within += cmp.rows.iter().filter(|r| r.within_tolerance()).count() as u64;
    }
    if seed == GOLDEN_SEED && within != rows {
        return Err(format!(
            "{within} of {rows} paper comparisons within tolerance at seed {GOLDEN_SEED}; all must be"
        ));
    }
    counts.push(("experiments.comparisons", rows as f64));
    counts.push(("experiments.within_tolerance", within as f64));
    Ok(Iteration {
        digest: fnv1a64(rendered.as_bytes()),
        counts,
    })
}

// ---------------------------------------------------------------------------
// scale_100k and spill_100k
// ---------------------------------------------------------------------------

fn labs(enrollment: u32) -> SemesterConfig {
    SemesterConfig {
        enrollment,
        run_projects: false,
        shard_students: 191,
        ..SemesterConfig::paper_course()
    }
}

fn cohort_counts(
    records: u64,
    shards: usize,
    denials: u64,
    pushbacks: u64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("cohort.records", records as f64),
        ("cohort.shards", shards as f64),
        ("cohort.quota_denials", denials as f64),
        ("cohort.slot_pushbacks", pushbacks as f64),
    ]
}

/// The committed digest of a labs-only cohort, where one exists.
fn golden_digest(seed: u64, enrollment: u32) -> Result<Option<u64>, String> {
    let file = match (seed, enrollment) {
        (GOLDEN_SEED, 2_000) => "scale_2k_seed42.digest",
        (GOLDEN_SEED, 100_000) => "scale_100k_seed42.digest",
        _ => return Ok(None),
    };
    let path = Path::new(REPO_ROOT).join("tests/golden").join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
    u64::from_str_radix(text.trim(), 16)
        .map(Some)
        .map_err(|e| format!("golden {} is not a hex digest: {e}", path.display()))
}

fn check_digest(what: &str, digest: u64, golden: Option<u64>) -> Result<(), String> {
    match golden {
        Some(g) if g != digest => Err(format!(
            "{what} digest {digest:016x} != committed golden {g:016x}"
        )),
        _ => Ok(()),
    }
}

/// Spill runs are deleted as they are merged; anything left is a leak.
fn check_spill_dir_empty(dir: &Path) -> Result<(), String> {
    match std::fs::read_dir(dir) {
        Err(_) => Ok(()),
        Ok(mut entries) => match entries.next() {
            None => Ok(()),
            Some(_) => Err(format!(
                "spill directory {} not empty after the merge",
                dir.display()
            )),
        },
    }
}

/// Stream a cohort through the out-of-core path into an outcome
/// digest. With `timed`, the nanoseconds spent digesting records are
/// added to its counter.
fn stream_digest(
    config: &SemesterConfig,
    seed: u64,
    spill_dir: &Path,
    mut timed: Option<(Clock, &mut u64)>,
) -> Result<(u64, StreamOutcome), String> {
    let mut digest = OutcomeDigest::new();
    let outcome = simulate_semester_streaming_serial(
        config,
        seed,
        &Telemetry::disabled(),
        &SpillConfig::new(spill_dir),
        |record| match timed.as_mut() {
            Some((clock, ns)) => {
                let start = clock.elapsed_ns();
                digest.push(record);
                **ns += clock.elapsed_ns() - start;
            }
            None => digest.push(record),
        },
    )
    .map_err(|e| format!("out-of-core run failed: {e}"))?;
    check_spill_dir_empty(spill_dir)?;
    let digest = digest.finish(
        outcome.quota_denials,
        outcome.slot_pushbacks,
        &outcome.faults,
    );
    Ok((digest, outcome))
}

/// Set-up warm-up: a small cohort through the workload's own path
/// (the other one would set the process's peak RSS), held to the golden
/// at seed 42.
fn warm_up_cohort(seed: u64, enrollment: u32, spill_dir: Option<&Path>) -> Result<(), String> {
    let config = labs(enrollment);
    let golden = golden_digest(seed, enrollment)?;
    with_thread_count(1, || match spill_dir {
        None => check_digest(
            "in-memory warm-up",
            digest_outcome(&simulate_semester(&config, seed)),
            golden,
        ),
        Some(dir) => check_digest(
            "out-of-core warm-up",
            stream_digest(&config, seed, dir, None)?.0,
            golden,
        ),
    })
}

struct Cohort {
    seed: u64,
    config: SemesterConfig,
    golden: Option<u64>,
}

struct InMemory(Cohort);

impl Workload for InMemory {
    fn iterate(&mut self, tr: &mut Tracer) -> Result<Iteration, String> {
        let c = &self.0;
        with_thread_count(1, || {
            let outcome = tr.span("cohort.simulate", |_| simulate_semester(&c.config, c.seed));
            let digest = tr.span("experiments.digest", |_| digest_outcome(&outcome));
            let counts = cohort_counts(
                outcome.ledger.records().len() as u64,
                c.config.shards().len(),
                outcome.quota_denials,
                outcome.slot_pushbacks,
            );
            tr.span("testbed.ledger_drop", move |_| drop(outcome));
            check_digest("cohort", digest, c.golden)?;
            Ok(Iteration { digest, counts })
        })
    }
}

struct Spilled {
    cohort: Cohort,
    spill_dir: PathBuf,
}

impl Workload for Spilled {
    fn iterate(&mut self, tr: &mut Tracer) -> Result<Iteration, String> {
        let c = &self.cohort;
        let io_before = ProcIo::read();
        let mut digest_ns = 0u64;
        let result = with_thread_count(1, || {
            tr.span("cohort.stream", |tr| {
                let timed = tr.enabled().then_some((tr.clock(), &mut digest_ns));
                stream_digest(&c.config, c.seed, &self.spill_dir, timed)
            })
        });
        let (digest, outcome) = result?;
        let io = ProcIo::read().since(io_before);
        tr.attach(
            "phase.merge_stream",
            "experiments.digest",
            digest_ns,
            outcome.records,
        );
        check_digest("cohort", digest, c.golden)?;
        let stats = &outcome.stats;
        let mut counts = cohort_counts(
            outcome.records,
            c.config.shards().len(),
            outcome.quota_denials,
            outcome.slot_pushbacks,
        );
        counts.extend([
            ("spill.shard_runs", stats.shard_runs as f64),
            ("spill.merge_passes", stats.merge_passes as f64),
            ("spill.intermediate_runs", stats.intermediate_runs as f64),
            ("spill.spilled_bytes", stats.spilled_bytes as f64),
            ("spill.max_open_runs", stats.max_open_runs as f64),
            (
                "spill.bytes_per_record",
                stats.spilled_bytes as f64 / outcome.records.max(1) as f64,
            ),
            ("io.write_mb", io.written as f64 / 1e6),
            ("io.read_mb", io.read as f64 / 1e6),
        ]);
        Ok(Iteration { digest, counts })
    }
}

/// Bytes this process passed to `read`/`write` system calls, from
/// `/proc/self/io` (`rchar`/`wchar`: the traffic the program asked for,
/// whether or not the page cache absorbed it). Zero where unreadable.
#[derive(Debug, Clone, Copy, Default)]
struct ProcIo {
    read: u64,
    written: u64,
}

impl ProcIo {
    fn read() -> ProcIo {
        let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        ProcIo {
            read: field("rchar:"),
            written: field("wchar:"),
        }
    }

    fn since(self, before: ProcIo) -> ProcIo {
        ProcIo {
            read: self.read.saturating_sub(before.read),
            written: self.written.saturating_sub(before.written),
        }
    }
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// The `bench_serve` soak (8 tenants, 512 servers, 8 ops/s rising by 8
/// per round) ending at `max_rps` instead of at its failure-rate gate,
/// which stops different seeds in different rounds: every seed offers
/// the same ops. The gate still stops a round that completes nothing.
fn serve_config(seed: u64, max_rps: u64) -> ServeConfig {
    ServeConfig {
        seed,
        tenants: 8,
        servers: 512,
        queue_bound: 1024,
        target_rps: 8,
        increment_rps: 8,
        max_rps,
        round_secs: 600,
        stop_failure_ppm: 1_000_000,
        allowable_latency_s: 600,
        deadline_s: 300,
        ..ServeConfig::default()
    }
}

/// The committed soak's ramp cap and its stop reason at seed 42.
const BENCH_SERVE_MAX_RPS: u64 = 512;
const BENCH_SERVE_STOP: &str = "failure_rate";

/// At seed 42 the committed `bench_serve` soak stops on its failure gate
/// after the round at 168 ops/s, where [`FULL`]'s ramp ends by its cap.
/// Its rounds are the same; with the committed cap and stop reason put
/// back, the counts digest to the value in `BENCH_serve.json`.
fn as_committed_soak(counts: &ServeCounts) -> u64 {
    let mut counts = counts.clone();
    counts.max_rps = BENCH_SERVE_MAX_RPS;
    counts.stop_reason = BENCH_SERVE_STOP.to_string();
    ServeReport::seal(counts, BTreeMap::new()).counts_digest
}

/// The counts digest committed in `BENCH_serve.json`.
fn bench_serve_digest() -> Result<u64, String> {
    let path = Path::new(REPO_ROOT).join("BENCH_serve.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
    json.get("counts_digest")
        .and_then(Json::as_str)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| format!("{} has no hex counts_digest", path.display()))
}

/// Every generated op lands in exactly one terminal bucket.
fn check_balance(counts: &ServeCounts) -> Result<(), String> {
    let unbalanced = |what: &str, c: &OpCounts| {
        (c.generated != c.accounted()).then(|| {
            format!(
                "serve {what}: generated {} != completed + shed + rejected + timed out + failed = {}",
                c.generated,
                c.accounted()
            )
        })
    };
    let mut problems: Vec<String> = unbalanced("totals", &counts.totals).into_iter().collect();
    problems.extend(
        counts
            .per_kind
            .iter()
            .filter_map(|k| unbalanced(&k.kind, &k.counts)),
    );
    problems.extend(
        counts
            .rounds
            .iter()
            .filter_map(|r| unbalanced(&format!("round {}", r.round), &r.counts)),
    );
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// Per-kind metric names, in `OpKind::ALL` order.
const KIND_METRICS: [(OpKind, &str, &str); 5] = [
    (
        OpKind::Launch,
        "serve.launch.completed",
        "serve.launch.failed",
    ),
    (
        OpKind::Terminate,
        "serve.terminate.completed",
        "serve.terminate.failed",
    ),
    (
        OpKind::Reserve,
        "serve.reserve.completed",
        "serve.reserve.failed",
    ),
    (
        OpKind::Revoke,
        "serve.revoke.completed",
        "serve.revoke.failed",
    ),
    (
        OpKind::QuotaCheck,
        "serve.quota_check.completed",
        "serve.quota_check.failed",
    ),
];

struct Serve {
    config: ServeConfig,
    golden: Option<u64>,
}

impl Workload for Serve {
    fn iterate(&mut self, tr: &mut Tracer) -> Result<Iteration, String> {
        let report = with_thread_count(1, || {
            tr.span("serve.run_service", |_| run_service(&self.config))
        });
        let c = &report.counts;
        check_balance(c)?;
        if let Some(golden) = self.golden {
            check_digest("serve counts", as_committed_soak(c), Some(golden))?;
        }
        let t = &c.totals;
        let mut counts = vec![
            ("serve.generated", t.generated as f64),
            ("serve.completed", t.completed as f64),
            ("serve.shed", t.shed as f64),
            ("serve.rejected", t.rejected as f64),
            ("serve.timed_out", t.timed_out as f64),
            ("serve.failed", t.failed as f64),
            ("serve.retries", c.retries as f64),
            ("serve.breaker_trips", c.breaker_trips as f64),
            ("serve.breaker_rejects", c.breaker_rejects as f64),
            ("serve.peak_queue_depth", c.peak_queue_depth as f64),
            ("serve.stop_round", f64::from(c.stop_round)),
            ("serve.max_sustainable_rps", c.max_sustainable_rps as f64),
            (
                "serve.completed_ratio",
                t.completed as f64 / t.generated.max(1) as f64,
            ),
        ];
        for (kind, completed, failed) in KIND_METRICS {
            let k = c.per_kind.iter().find(|k| k.kind == kind.name());
            counts.push((completed, k.map_or(0.0, |k| k.counts.completed as f64)));
            counts.push((failed, k.map_or(0.0, |k| k.counts.failed as f64)));
        }
        Ok(Iteration {
            digest: report.counts_digest,
            counts,
        })
    }
}
