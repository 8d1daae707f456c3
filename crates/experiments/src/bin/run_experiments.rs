//! Regenerate every table and figure in the paper's evaluation and print
//! paper-vs-measured comparisons. With `--write-md <path>` the comparison
//! sections are also written as Markdown (used to refresh
//! EXPERIMENTS.md); with `--seed <n>` the semester seed changes; with
//! `--metrics` the telemetry metrics summary is appended; `--quiet`
//! silences all stderr narration.
//!
//! The `verify-determinism` subcommand runs the replay-equivalence
//! verifier instead: `table1` and `fig2` twice per rayon thread count
//! (1 and the machine's parallelism, or `--threads a,b,…`), asserting
//! byte-identical serialized results across all runs.
//!
//! The `trace` subcommand captures a full telemetry trace of one
//! semester and writes `trace.jsonl` (one event per line, sequence
//! order) and `trace_chrome.json` (Chrome trace-event format, loadable
//! in Perfetto / `chrome://tracing`) to `--out <dir>`.
//!
//! The `serve` subcommand soaks the campus cloud as a long-running
//! service: seeded multi-tenant load ramps per round (`--target-rps`,
//! `--increment-rps`, `--max-rps`) through a bounded admission queue
//! with priority-aware shedding, per-tenant quota breakers, and
//! deadline-budgeted retries, until a failure-rate or p99-latency gate
//! trips. Writes a digested `serve.json` to `--out <dir>`.
//!
//! The `profile` subcommand turns the instruments on the harness
//! itself: sim-time span attribution (self/total per span path,
//! per-shard breakdown), wall-clock phase counters around the
//! shard/merge seams, opt-in allocation accounting (feature
//! `alloc-profile`), and a sampled RSS timeline, written as
//! `profile.json` + flamegraph-ready `profile.folded` to `--out <dir>`.
//!
//! Every subcommand runs through one harness path: one flag parser
//! ([`Args`]: a malformed value prints ``run-experiments: <flag> takes
//! <what>, got `<raw>` `` and exits 2), one writer ([`OutDir`] creates
//! `--out` before the run starts; an I/O error names its path and exits
//! 1), and one `peak rss: <n> kB` line (the process `VmHWM`), printed
//! by `main` after the subcommand.

use opml_experiments::{
    chaos, experiments_markdown, paper_sections, profile, scale, serve, tolerance_count, trace,
    verify,
};
use opml_simkernel::SimTime;
use opml_telemetry::{narrate, Telemetry};
use std::process::ExitCode;
use std::str::FromStr;

// Opt-in allocation accounting for the `profile` subcommand: installing
// the counting wrapper is a binary-level decision, so it is gated on a
// cargo feature and costs nothing (not even a flag check) by default.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static COUNTING_ALLOC: opml_profiler::CountingAlloc = opml_profiler::CountingAlloc;

/// A subcommand's result: `Err` carries the failure message, and the
/// process exits 1 after printing it.
type Outcome = Result<(), String>;

fn main() -> ExitCode {
    let args = Args(std::env::args().collect());
    let seed = args
        .value("--seed", NON_NEGATIVE, non_negative)
        .unwrap_or(42);

    // Harness narration goes through telemetry too, so `--quiet`
    // silences the runner and the simulator uniformly.
    let narrator = if args.has("--quiet") {
        Telemetry::disabled()
    } else {
        Telemetry::narrating()
    };

    let outcome = match args.0.get(1).map(String::as_str) {
        Some("verify-determinism") => run_verify(&args, seed, &narrator),
        Some("trace") => run_trace(&args, seed, &narrator),
        Some("chaos") => run_chaos(&args, seed, &narrator),
        Some("scale") => run_scale(&args, seed, &narrator),
        Some("serve") => run_serve(&args, seed, &narrator),
        Some("profile") => run_profile(&args, seed, &narrator),
        _ => run_full(&args, seed, &narrator),
    };
    let peak =
        opml_profiler::peak_rss_kb().map_or_else(|| "n/a".to_string(), |kb| format!("{kb} kB"));
    println!("peak rss: {peak}");
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

const NON_NEGATIVE: &str = "a non-negative integer";
const POSITIVE: &str = "a positive integer";
const POSITIVE_LIST: &str = "a comma-separated list of positive integers";
const RATE: &str = "a number in [0, 1]";
const RATE_LIST: &str = "a comma-separated list of numbers in [0, 1]";

fn non_negative<T: FromStr>(raw: &str) -> Option<T> {
    raw.trim().parse().ok()
}

fn positive<T: FromStr + PartialOrd + Default>(raw: &str) -> Option<T> {
    non_negative(raw).filter(|n| *n > T::default())
}

fn rate(raw: &str) -> Option<f64> {
    raw.trim().parse().ok().filter(|r| (0.0..=1.0).contains(r))
}

/// The command line. Flags are looked up by name anywhere after the
/// subcommand; a value is the argument that follows its flag.
struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn raw(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    /// `flag`'s value through `parse`, or `None` when the flag is
    /// absent. A value `parse` rejects exits 2: `flag` takes `what`.
    fn value<T>(&self, flag: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        let raw = self.raw(flag)?;
        Some(parse(raw).unwrap_or_else(|| bad_value(flag, what, raw)))
    }

    /// A comma-separated list, each item through `parse`.
    fn list<T>(&self, flag: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
        let raw = self.raw(flag)?;
        let items: Option<Vec<T>> = raw.split(',').map(&parse).collect();
        Some(items.unwrap_or_else(|| bad_value(flag, what, raw)))
    }

    /// A positive-integer flag with a default.
    fn positive<T: FromStr + PartialOrd + Default>(&self, flag: &str, default: T) -> T {
        self.value(flag, POSITIVE, positive).unwrap_or(default)
    }
}

fn bad_value(flag: &str, what: &str, raw: &str) -> ! {
    eprintln!("run-experiments: {flag} takes {what}, got `{raw}`");
    std::process::exit(2);
}

/// Write `contents` to `path`; an error names the path.
fn write_file(path: &str, contents: &str) -> Outcome {
    std::fs::write(path, contents).map_err(|e| format!("run-experiments: cannot write {path}: {e}"))
}

/// A subcommand's `--out` directory. It is created before the run
/// starts, so a path that cannot be a directory fails before any work.
struct OutDir(String);

impl OutDir {
    fn create(args: &Args, default: &str) -> Result<OutDir, String> {
        let dir = args.raw("--out").unwrap_or(default).to_string();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("run-experiments: cannot create {dir}: {e}"))?;
        Ok(OutDir(dir))
    }

    /// Write `name` under the directory and report it on stdout.
    fn write(&self, name: &str, contents: &str) -> Outcome {
        let path = format!("{}/{name}", self.0);
        write_file(&path, contents)?;
        println!("wrote {path}");
        Ok(())
    }
}

fn run_verify(args: &Args, seed: u64, narrator: &Telemetry) -> Outcome {
    let threads = args
        .list("--threads", POSITIVE_LIST, positive)
        .unwrap_or_default();
    narrate!(
        narrator,
        SimTime::ZERO,
        "verifying replay equivalence (seed {seed})…"
    );
    let outcome = verify::verify_determinism(seed, &threads);
    println!("{}", outcome.to_table());
    if !outcome.is_equivalent() {
        return Err(
            "verify-determinism: FAILED — results differ across runs/thread counts".to_string(),
        );
    }
    narrate!(
        narrator,
        SimTime::ZERO,
        "verify-determinism: all runs byte-identical"
    );
    Ok(())
}

fn run_trace(args: &Args, seed: u64, narrator: &Telemetry) -> Outcome {
    let config = trace::TraceConfig {
        seed,
        enrollment: args.positive("--enrollment", 191),
        labs_only: args.has("--labs-only"),
    };
    let out = OutDir::create(args, "trace_out")?;
    narrate!(
        narrator,
        SimTime::ZERO,
        "tracing a {}-student semester (seed {seed}, projects {})…",
        config.enrollment,
        if config.labs_only { "off" } else { "on" }
    );
    let artifacts = trace::capture_trace(&config);
    println!(
        "captured {} events ({} ledger records, {} quota denials)",
        artifacts.events,
        artifacts.outcome.ledger.records().len(),
        artifacts.outcome.quota_denials
    );
    out.write("trace.jsonl", &artifacts.jsonl)?;
    out.write("trace_chrome.json", &artifacts.chrome)?;
    if args.has("--metrics") {
        println!("\n== Telemetry metrics ==\n");
        println!("{}", opml_report::metrics_summary(&artifacts.metrics));
    }
    Ok(())
}

fn run_chaos(args: &Args, seed: u64, narrator: &Telemetry) -> Outcome {
    let defaults = chaos::ChaosConfig::default();
    let config = chaos::ChaosConfig {
        seed,
        enrollment: args.positive("--enrollment", 191),
        rates: args
            .list("--rates", RATE_LIST, rate)
            .or_else(|| args.value("--rate", RATE, rate).map(|r| vec![r]))
            .unwrap_or(defaults.rates),
        threads: args.positive("--threads", 1),
    };
    narrate!(
        narrator,
        SimTime::ZERO,
        "chaos sweep: {}-student semester (seed {seed}), rates {:?}…",
        config.enrollment,
        config.rates
    );
    let report = chaos::run(&config);
    println!("== Chaos: cost of injected faults ==\n{}", report.text);
    if !report.zero_rate_matches_baseline {
        return Err(
            "chaos: FAILED — zero-rate plan diverged from the fault-free baseline".to_string(),
        );
    }
    Ok(())
}

fn run_scale(args: &Args, seed: u64, narrator: &Telemetry) -> Outcome {
    let defaults = scale::ScaleConfig::default();
    let config = scale::ScaleConfig {
        seed,
        enrollment: args.positive("--enrollment", defaults.enrollment),
        shard_students: args.positive("--shard-students", defaults.shard_students),
        threads: args
            .list("--threads", POSITIVE_LIST, positive)
            .unwrap_or(defaults.threads),
        spill_dir: args.raw("--spill-dir").map(std::path::PathBuf::from),
        mem_budget_mb: args.value("--mem-budget-mb", NON_NEGATIVE, non_negative),
    };
    narrate!(
        narrator,
        SimTime::ZERO,
        "scale sweep: {} students, {}/shard, threads {:?}…",
        config.enrollment,
        config.shard_students,
        config.threads
    );
    let report = scale::run(&config).map_err(|e| format!("scale: FAILED — {e}"))?;
    println!("== Scale: sharded cohort sweep ==\n{}", report.text);
    if report.spilled {
        println!("spill: out-of-core path engaged");
    }
    if let (Some(budget), Some(exceeded)) = (report.mem_budget_mb, report.budget_exceeded) {
        println!(
            "mem budget: {budget} MB — {}",
            if exceeded { "EXCEEDED" } else { "respected" }
        );
    }
    if !report.equivalent {
        return Err(
            "scale: FAILED — sharded outcomes differ across execution strategies".to_string(),
        );
    }
    Ok(())
}

fn run_serve(args: &Args, seed: u64, narrator: &Telemetry) -> Outcome {
    let defaults = serve::ServeRunConfig::default();
    let d = &defaults.config;
    let config = opml_serve::ServeConfig {
        seed,
        tenants: args.positive("--tenants", d.tenants),
        servers: args.positive("--servers", d.servers),
        queue_bound: args.positive("--queue-bound", d.queue_bound),
        target_rps: args.positive("--target-rps", d.target_rps),
        increment_rps: args
            .value("--increment-rps", NON_NEGATIVE, non_negative)
            .unwrap_or(d.increment_rps),
        max_rps: args.positive("--max-rps", d.max_rps),
        round_secs: args.positive("--round-secs", d.round_secs),
        deadline_s: args.positive("--deadline-s", d.deadline_s),
        fault_rate_ppm: args
            .value("--fault-rate", RATE, rate)
            .map_or(d.fault_rate_ppm, |r| (r * 1_000_000.0).round() as u64),
        ..d.clone()
    };
    let threads = args.positive("--threads", defaults.threads);
    let out = OutDir::create(args, "serve_out")?;
    narrate!(
        narrator,
        SimTime::ZERO,
        "service soak: seed {seed}, ramp {}→{} (+{}) ops/s, {} tenants, fault rate {} ppm…",
        config.target_rps,
        config.max_rps,
        config.increment_rps,
        config.tenants,
        config.fault_rate_ppm
    );
    let run = serve::run(&serve::ServeRunConfig { config, threads });
    println!("== Serve: campus cloud under ramping load ==\n{}", run.text);
    out.write("serve.json", &run.json)?;
    println!("counts_digest={:016x}", run.report.counts_digest);
    Ok(())
}

fn run_profile(args: &Args, seed: u64, narrator: &Telemetry) -> Outcome {
    let defaults = profile::ProfileConfig::default();
    let config = profile::ProfileConfig {
        seed,
        enrollment: args.positive("--enrollment", defaults.enrollment),
        shard_students: args.positive("--shard-students", defaults.shard_students),
        threads: args.positive("--threads", defaults.threads),
        run_projects: args.has("--projects"),
        rss_sample_ms: args.positive("--rss-sample-ms", defaults.rss_sample_ms),
    };
    let out = OutDir::create(args, "profile_out")?;
    narrate!(
        narrator,
        SimTime::ZERO,
        "profiling a {}-student semester (seed {seed}, {} threads)…",
        config.enrollment,
        config.threads
    );
    let report = profile::run(&config);
    println!("{}", report.text);
    out.write("profile.json", &report.json)?;
    out.write("profile.folded", &report.folded)?;
    println!("counts_digest={:016x}", report.counts_digest);
    Ok(())
}

fn run_full(args: &Args, seed: u64, narrator: &Telemetry) -> Outcome {
    let want_metrics = args.has("--metrics");
    narrate!(
        narrator,
        SimTime::ZERO,
        "simulating the 191-student semester (seed {seed})…"
    );
    let sim_telemetry = if want_metrics {
        // Only the metrics are kept; events are dropped as they are
        // stamped, so the per-event cost stays near zero.
        Telemetry::metrics_only()
    } else {
        Telemetry::disabled()
    };
    let ctx = opml_experiments::run_paper_course_with(seed, &sim_telemetry);
    narrate!(
        narrator,
        SimTime::ZERO,
        "done: {} ledger records, {} quota denials, {} slot pushbacks\n",
        ctx.outcome.ledger.records().len(),
        ctx.outcome.quota_denials,
        ctx.outcome.slot_pushbacks
    );
    narrate!(
        narrator,
        SimTime::ZERO,
        "rendering every section (with a 5-seed sweep and a reduced-cohort VM ablation)…"
    );
    let sections = paper_sections(&ctx);
    for section in &sections {
        println!("== {} ==\n{}", section.title, section.text);
    }

    // Comparison summary.
    println!("== Paper vs measured ==\n");
    for section in &sections {
        println!("{}", section.comparisons.to_markdown());
    }
    let (all_pass, all_rows) = tolerance_count(&sections);
    println!(
        "overall: {all_pass}/{all_rows} comparisons within tolerance ({:.0}%)",
        all_pass as f64 / all_rows.max(1) as f64 * 100.0
    );

    let metrics_md = if want_metrics {
        let summary = opml_report::metrics_summary(&sim_telemetry.metrics_snapshot());
        println!("== Telemetry metrics ==\n");
        println!("{summary}");
        Some(summary)
    } else {
        None
    };

    if let Some(path) = args.raw("--write-md") {
        write_file(
            path,
            &experiments_markdown(seed, &sections, metrics_md.as_deref()),
        )?;
        narrate!(
            narrator,
            SimTime::ZERO,
            "comparison sections written to {path}"
        );
    }

    let json = serde_json::json!({
        "seed": seed,
        "comparisons": sections
            .iter()
            .map(|s| &s.comparisons)
            .collect::<Vec<_>>(),
    });
    write_file(
        "experiments_results.json",
        &serde_json::to_string_pretty(&json).expect("serialize"),
    )?;
    narrate!(
        narrator,
        SimTime::ZERO,
        "structured results written to experiments_results.json"
    );
    Ok(())
}
