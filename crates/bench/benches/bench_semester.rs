//! Sharded-semester scaling bench: wall time, speedup and peak RSS for
//! the large-cohort sweep, written to `BENCH_semester.json`.
//!
//! Three families of arms, all labs-only at seed 42:
//!
//! * **spill** — the out-of-core streaming pipeline at 1M students
//!   (`BENCH_SPILL_ENROLLMENT` overrides), digest-only, run strictly
//!   FIRST: `peak_rss_kb()` reads the process-lifetime `VmHWM` high
//!   water, so the in-memory arms below would mask the spill arm's
//!   O(shard) peak if they ran earlier. The observed peak is gated
//!   against a fixed 8 GB ceiling (`rss_ceiling_kb`), fatally, in both
//!   write and `--check` mode — this is the machine-checked form of the
//!   issue's "10M under a fixed RSS cap" claim at bench-tractable scale;
//! * **sharded** — 191-student shards, enrollment × rayon thread count,
//!   via the parallel driver. The 1-thread arm, whose pool runs the
//!   shards one after another on the calling thread, is the
//!   byte-identity and speedup reference;
//! * **unsharded** — the pre-shard monolithic driver
//!   (`shard_students = enrollment`), only at enrollments where it is
//!   still tractable: its shared reservation calendar makes placement
//!   scans super-cubically slower as the cohort grows, which is exactly
//!   why the sharded path exists.
//!
//! The headline `speedup_floor_100k` divides a *linear* extrapolation
//! of the unsharded wall time (measured at its largest tractable
//! enrollment) by the best sharded wall at 100k. Linear extrapolation
//! is a deliberate underestimate — the measured unsharded scaling is
//! super-linear even on the sweep-line calendar, because a shared
//! calendar's backlog grows with the cohort while per-shard calendars
//! stay small — so the true speedup is higher than the recorded floor.
//!
//! Every arm records the rayon pool size actually observed inside the
//! run (`effective_threads`) next to the requested count, plus an
//! `oversubscribed` flag for arms where the request exceeds the host
//! CPUs: on such hosts (the committed report once said `host_cpus: 1`)
//! the multi-thread speedup columns measure scheduling determinism, not
//! hardware parallelism, and are flagged so nobody reads them as real.
//!
//! Every arm's outcome digest is checked against the 1-thread reference;
//! the bench exits nonzero on any divergence, so `scripts/bench.sh`
//! doubles as a determinism gate.
//!
//! This harness measures wall time with `opml_profiler::timed`; the
//! simulators under test never read the clock (`opml-detlint` enforces
//! that).
//!
//! With `--check` (the perf-regression gate, see `scripts/perfgate.sh`)
//! the bench compares each arm against the committed
//! `BENCH_semester.json` instead of overwriting it: digests, record
//! counts and the 100k speedup floor fatally, wall times within
//! `PERFGATE_TOLERANCE` (min of
//! `PERFGATE_RUNS`, default 2). Oversubscribed arms are exempt from
//! the *wall* gate only — their times measure host timeslicing, with
//! run-to-run variance far beyond any sane tolerance — while their
//! digest and record gates stay fatal.

use opml_bench::perfgate::{min_of, Gate};
use opml_cohort::semester::{simulate_semester, SemesterConfig};
use opml_cohort::spill::{simulate_semester_streaming_serial, SpillConfig};
use opml_experiments::scale::{digest_outcome, OutcomeDigest};
use opml_profiler::{peak_rss_kb, timed, Json};
use opml_simkernel::parallel::{effective_thread_count, with_thread_count};
use opml_telemetry::Telemetry;

const SEED: u64 = 42;
const SHARD_STUDENTS: u32 = 191;
/// Hard ceiling on the spill arm's observed peak RSS: 8 GB in kB. The
/// in-memory path needs ~1.8 GB at 1M students (the streaming sweep
/// measures 1.77 GB) and ten times that at 10M; the out-of-core path
/// must stay under this regardless of enrollment (peak is O(shard)).
const SPILL_RSS_CEILING_KB: u64 = 8 * 1024 * 1024;
/// Default spill-arm enrollment (1M); `BENCH_SPILL_ENROLLMENT`
/// overrides for quicker local runs or the 10M endurance run.
const SPILL_ENROLLMENT: u32 = 1_000_000;
/// Sharded sweep enrollments.
const ENROLLMENTS: [u32; 2] = [10_000, 100_000];
/// Thread counts for the sharded arms; the first is the reference.
const THREADS: [usize; 3] = [1, 2, 8];
/// Enrollments where the monolithic driver is still tractable (the
/// sweep-line calendar pushed this frontier out from 800).
const UNSHARDED: [u32; 3] = [800, 3000, 10_000];
/// Required `speedup_floor_100k`: the linearly extrapolated unsharded
/// wall over the best sharded wall at 100k.
const SPEEDUP_FLOOR_100K: f64 = 3.0;

/// One measured arm, flattened for the JSON report.
struct Arm {
    family: &'static str,
    enrollment: u32,
    threads: usize,
    effective_threads: usize,
    oversubscribed: bool,
    wall_s: f64,
    digest: u64,
    records: usize,
    speedup_vs_serial: Option<f64>,
    matches_serial: bool,
}

fn labs_config(enrollment: u32, shard_students: u32) -> SemesterConfig {
    SemesterConfig {
        enrollment,
        run_projects: false,
        shard_students,
        ..SemesterConfig::paper_course()
    }
}

/// The out-of-core arm, measured separately from the in-memory sweep.
struct SpillArm {
    enrollment: u32,
    wall_s: f64,
    digest: u64,
    records: u64,
    shard_runs: usize,
    spilled_bytes: u64,
    peak_rss_kb: Option<u64>,
}

/// Run the spill arm: serial streaming digest-only semester, once
/// (never min-of-K — the interesting number is the RSS high water, and
/// a repeat run cannot lower `VmHWM`).
fn run_spill_arm(gate: &Gate) -> SpillArm {
    let enrollment = std::env::var("BENCH_SPILL_ENROLLMENT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SPILL_ENROLLMENT);
    let config = labs_config(enrollment, SHARD_STUDENTS);
    // detlint::allow(DL001): spill paths are bench harness plumbing, never simulation input
    let dir = std::env::temp_dir().join(format!("opml-bench-spill-{}", std::process::id()));
    let spill = SpillConfig::new(dir);
    let mut digest = OutcomeDigest::new();
    let (outcome, wall_s) = timed(|| {
        gate.inject_sleep();
        simulate_semester_streaming_serial(&config, SEED, &Telemetry::disabled(), &spill, |r| {
            digest.push(r)
        })
    });
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("bench_semester: FAILED — spill arm errored: {e}");
        std::process::exit(1);
    });
    let peak = peak_rss_kb();
    let hash = digest.finish(
        outcome.quota_denials,
        outcome.slot_pushbacks,
        &outcome.faults,
    );
    eprintln!(
        "spill       n={enrollment:>8}            {wall_s:>8.3}s digest {hash:016x} \
         peak_rss {} kB (ceiling {SPILL_RSS_CEILING_KB})",
        peak.map_or_else(|| "?".to_string(), |p| p.to_string()),
    );
    SpillArm {
        enrollment,
        wall_s,
        digest: hash,
        records: outcome.records,
        shard_runs: outcome.stats.shard_runs,
        spilled_bytes: outcome.stats.spilled_bytes,
        peak_rss_kb: peak,
    }
}

/// CPUs actually online on the host, from `/proc/cpuinfo`.
/// `available_parallelism` can be clipped by cgroup quotas or affinity
/// masks, so both numbers are reported.
fn host_cpus_online() -> Option<usize> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let n = info.lines().filter(|l| l.starts_with("processor")).count();
    (n > 0).then_some(n)
}

fn main() {
    // Cargo passes `--bench` (and possibly filters); apart from
    // `--check`, arguments are accepted and ignored.
    let args: Vec<String> = std::env::args().collect();
    let mut gate = Gate::from_env(&args, 2);
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpus_online = host_cpus_online();
    let mut arms: Vec<Arm> = Vec::new();
    let mut divergent = false;
    let mut sharded_100k_best = f64::INFINITY;

    // Out-of-core arm first: `VmHWM` never goes down, so this is the
    // only window where the observed peak is the spill pipeline's own.
    let spill_arm = run_spill_arm(&gate);
    let spill_within_ceiling = spill_arm
        .peak_rss_kb
        .is_some_and(|p| p <= SPILL_RSS_CEILING_KB);
    if !spill_within_ceiling {
        eprintln!(
            "bench_semester: FAILED — spill arm peak RSS {:?} kB exceeds the {SPILL_RSS_CEILING_KB} kB \
             ceiling (or was unreadable); the out-of-core pipeline is no longer O(shard)",
            spill_arm.peak_rss_kb
        );
        std::process::exit(1);
    }

    for &enrollment in &ENROLLMENTS {
        let config = labs_config(enrollment, SHARD_STUDENTS);
        // The first (1-thread) arm sets the reference digest and wall.
        let mut reference: Option<(u64, f64)> = None;
        for &threads in &THREADS {
            let ((outcome, effective_threads), wall) = min_of(gate.measure_runs(), || {
                timed(|| {
                    gate.inject_sleep();
                    with_thread_count(threads, || {
                        (simulate_semester(&config, SEED), effective_thread_count())
                    })
                })
            });
            let oversubscribed = threads > host_cpus;
            let digest = digest_outcome(&outcome);
            let (ref_digest, ref_wall) = *reference.get_or_insert((digest, wall));
            let ok = digest == ref_digest;
            divergent |= !ok;
            if enrollment == 100_000 {
                sharded_100k_best = sharded_100k_best.min(wall);
            }
            eprintln!(
                "sharded     n={enrollment:>6} threads={threads} (effective {effective_threads}{}) \
                 {wall:>8.3}s digest {}",
                if oversubscribed { ", OVERSUBSCRIBED" } else { "" },
                if ok { "ok" } else { "MISMATCH" }
            );
            arms.push(Arm {
                family: "sharded",
                enrollment,
                threads,
                effective_threads,
                oversubscribed,
                wall_s: wall,
                digest,
                records: outcome.ledger.records().len(),
                speedup_vs_serial: Some(ref_wall / wall.max(1e-9)),
                matches_serial: ok,
            });
        }
    }

    let mut unsharded_last = (0u32, 0.0f64);
    for &enrollment in &UNSHARDED {
        let config = labs_config(enrollment, enrollment);
        let (outcome, wall) = min_of(gate.measure_runs(), || {
            timed(|| {
                gate.inject_sleep();
                simulate_semester(&config, SEED)
            })
        });
        eprintln!("unsharded   n={enrollment:>6}            {wall:>8.3}s");
        unsharded_last = (enrollment, wall);
        arms.push(Arm {
            family: "unsharded",
            enrollment,
            threads: 1,
            effective_threads: 1,
            oversubscribed: false,
            wall_s: wall,
            digest: digest_outcome(&outcome),
            records: outcome.ledger.records().len(),
            speedup_vs_serial: None,
            matches_serial: true,
        });
    }

    // Speedup floor at 100k: linear extrapolation of the unsharded wall
    // from its largest tractable enrollment vs the best sharded arm.
    let (un_n, un_wall) = unsharded_last;
    let unsharded_100k_floor = un_wall * (100_000.0 / f64::from(un_n));
    let speedup_floor = unsharded_100k_floor / sharded_100k_best.max(1e-9);
    eprintln!(
        "speedup floor at 100k: {speedup_floor:.1}x \
         (unsharded linear floor {unsharded_100k_floor:.1}s vs sharded {sharded_100k_best:.3}s)"
    );

    // Rendered speedup summary. Arms whose requested thread count
    // exceeds the host CPUs carry the caveat inline so the ratio is
    // never quoted bare: on a 1-CPU host every multi-thread arm is
    // timesliced, and `speedup_vs_serial` then measures scheduling
    // determinism, not hardware parallelism.
    eprintln!(
        "\nspeedup_vs_serial summary (host_cpus={host_cpus}, online={}):",
        cpus_online.map_or_else(|| "?".to_string(), |n| n.to_string())
    );
    for a in &arms {
        if let Some(s) = a.speedup_vs_serial {
            let caveat = if a.oversubscribed {
                format!(
                    "  [OVERSUBSCRIBED: requested {} > {host_cpus} host CPUs; \
                     measures scheduling determinism, not parallelism]",
                    a.threads
                )
            } else {
                String::new()
            };
            eprintln!(
                "  n={:>6} threads={} (effective {}): {s:.2}x{caveat}",
                a.enrollment, a.threads, a.effective_threads
            );
        }
    }

    if divergent {
        eprintln!("bench_semester: FAILED — a sharded arm diverged from the 1-thread reference");
        std::process::exit(1);
    }

    if gate.check {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_semester.json");
        let base = gate.load_baseline(out);
        let schema = base.get("schema").and_then(Json::as_str).unwrap_or("");
        gate.fatal(
            "schema",
            schema == "bench_semester/v3",
            &format!("baseline schema `{schema}` != bench_semester/v3"),
        );
        gate.fatal(
            "speedup_floor_100k",
            speedup_floor >= SPEEDUP_FLOOR_100K,
            &format!("speedup floor {speedup_floor:.2}x < {SPEEDUP_FLOOR_100K}x"),
        );
        // The RSS ceiling was already enforced above (write and check
        // mode alike). Digest/record identity vs the baseline is fatal
        // when the enrollments match; an env-overridden enrollment
        // changes the workload, so only the ceiling applies. The wall
        // gate never applies — the arm runs once, not min-of-K.
        if let Some(b) = base.get("spill") {
            let base_n = b.get("enrollment").and_then(Json::as_u64).unwrap_or(0);
            if base_n == u64::from(spill_arm.enrollment) {
                let base_digest = b.get("digest").and_then(Json::as_str).unwrap_or("");
                let live_digest = format!("{:016x}", spill_arm.digest);
                gate.fatal(
                    "spill digest",
                    base_digest == live_digest,
                    &format!("digest {live_digest} != baseline {base_digest}"),
                );
                let base_records = b.get("records").and_then(Json::as_u64).unwrap_or(0);
                gate.fatal(
                    "spill records",
                    base_records == spill_arm.records,
                    &format!("records {} != baseline {base_records}", spill_arm.records),
                );
            } else {
                eprintln!(
                    "perfgate: spill arm enrollment {} != baseline {base_n} \
                     (BENCH_SPILL_ENROLLMENT override); digest gate skipped, RSS ceiling still held",
                    spill_arm.enrollment
                );
            }
        } else {
            gate.fatal("spill", false, "spill arm missing from baseline");
        }
        let empty = Vec::new();
        let base_arms = base.get("arms").and_then(Json::as_array).unwrap_or(&empty);
        for a in &arms {
            let label = format!("{}/n={}/t={}", a.family, a.enrollment, a.threads);
            let found = base_arms.iter().find(|b| {
                b.get("family").and_then(Json::as_str) == Some(a.family)
                    && b.get("enrollment").and_then(Json::as_u64) == Some(u64::from(a.enrollment))
                    && b.get("threads").and_then(Json::as_u64) == Some(a.threads as u64)
            });
            let Some(b) = found else {
                gate.fatal(&label, false, "arm missing from baseline");
                continue;
            };
            let base_digest = b.get("digest").and_then(Json::as_str).unwrap_or("");
            let live_digest = format!("{:016x}", a.digest);
            gate.fatal(
                &format!("{label} digest"),
                base_digest == live_digest,
                &format!("digest {live_digest} != baseline {base_digest}"),
            );
            let base_records = b.get("records").and_then(Json::as_u64).unwrap_or(0);
            gate.fatal(
                &format!("{label} records"),
                base_records == a.records as u64,
                &format!("records {} != baseline {base_records}", a.records),
            );
            let base_wall = b.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
            if a.oversubscribed {
                // A timesliced arm's wall clock measures host scheduling,
                // not this repo's code (see the module docs); its digest
                // and record gates above stay fatal, the wall does not.
                eprintln!(
                    "perfgate: {label} wall_s {:.4}s vs baseline {base_wall:.4}s \
                     (informational: arm is oversubscribed on this host)",
                    a.wall_s
                );
            } else {
                gate.wall(&format!("{label} wall_s"), a.wall_s, base_wall);
            }
        }
        gate.finish("bench_semester");
        return;
    }

    let arm_values: Vec<serde_json::Value> = arms
        .iter()
        .map(|a| {
            serde_json::json!({
                "family": a.family,
                "enrollment": a.enrollment,
                "threads": a.threads,
                "effective_threads": a.effective_threads,
                "oversubscribed": a.oversubscribed,
                "wall_s": a.wall_s,
                "digest": format!("{:016x}", a.digest),
                "records": a.records,
                "speedup_vs_serial": a.speedup_vs_serial,
                "matches_serial": a.matches_serial,
            })
        })
        .collect();
    let notes: Vec<String> = vec![
        "labs-only cohorts at seed 42; sharded arms use 191-student shards, and each \
         enrollment's 1-thread arm is the digest and speedup_vs_serial reference"
            .to_string(),
        "unsharded = monolithic driver (shard_students = enrollment); measured only at \
         tractable enrollments — even on the sweep-line calendar a single shared \
         calendar scales super-linearly with the cohort"
            .to_string(),
        format!(
            "speedup_floor_100k extrapolates the unsharded wall LINEARLY from \
             {un_n} students, a deliberate underestimate of the true speedup"
        ),
        "arms with oversubscribed=true requested more threads than host CPUs; their \
         speedup_vs_serial measures scheduling determinism, not hardware parallelism"
            .to_string(),
        "spill = out-of-core streaming pipeline (digest-only, serial, run first so \
         spill.peak_rss_kb is its own VmHWM high water); its observed peak must stay \
         under rss_ceiling_kb, enforced fatally in write and --check mode alike"
            .to_string(),
    ];
    let report = serde_json::json!({
        "schema": "bench_semester/v3",
        "seed": SEED,
        "host_cpus": host_cpus,
        "host_cpus_online": cpus_online,
        "shard_students": SHARD_STUDENTS,
        "peak_rss_kb": peak_rss_kb(),
        "spill": serde_json::json!({
            "enrollment": spill_arm.enrollment,
            "threads": 1,
            "wall_s": spill_arm.wall_s,
            "digest": format!("{:016x}", spill_arm.digest),
            "records": spill_arm.records,
            "shard_runs": spill_arm.shard_runs,
            "spilled_bytes": spill_arm.spilled_bytes,
            "peak_rss_kb": spill_arm.peak_rss_kb,
            "rss_ceiling_kb": SPILL_RSS_CEILING_KB,
        }),
        "arms": arm_values,
        "speedup_floor_100k": speedup_floor,
        "notes": notes,
    });
    // Cargo runs benches with the package as CWD; anchor the report at
    // the workspace root so `scripts/bench.sh` finds it there.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_semester.json");
    std::fs::write(
        out,
        serde_json::to_string_pretty(&report).expect("serialize bench report"),
    )
    .expect("write BENCH_semester.json");
    eprintln!("wrote {out}");

    if speedup_floor < SPEEDUP_FLOOR_100K {
        eprintln!(
            "bench_semester: FAILED — speedup floor {speedup_floor:.2}x < {SPEEDUP_FLOOR_100K}x"
        );
        std::process::exit(1);
    }
}
