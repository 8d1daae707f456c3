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
//! <what>, got `<raw>` `` and exits 2; so do an unknown subcommand, a
//! flag the subcommand does not read and a value-taking flag with no
//! value, before any work), one writer
//! ([`OutDir`] creates `--out` before the run starts; an I/O error
//! names its path and exits 1), one stdout handle ([`Stdout`]: once
//! the reader is gone the rest of the output is dropped and the run
//! carries on, and any other write error exits 1 naming it), one
//! stderr writer ([`Stderr`]: usage errors, the failure line and
//! narration; a write it cannot make is dropped, and the exit status
//! stays the run's), and one `peak rss: <n> kB` line (the process
//! `VmHWM`), printed by `main` after the subcommand.

use opml_experiments::{
    chaos, experiments_markdown, paper_sections, profile, scale, serve, tolerance_count, trace,
    verify,
};
use opml_telemetry::Telemetry;
use std::fmt::Display;
use std::io::{self, Write};
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

/// A subcommand: its name, the flags it reads besides `--seed` and
/// `--quiet`, and its runner.
struct Subcommand {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args, u64, &Stderr, &mut Stdout) -> Outcome,
}

/// The paper run, taken when the first argument is not a subcommand.
const PAPER_RUN: Subcommand = Subcommand {
    name: "the paper run",
    flags: &["--metrics", "--write-md"],
    run: run_full,
};

const SUBCOMMANDS: [Subcommand; 6] = [
    Subcommand {
        name: "verify-determinism",
        flags: &["--threads"],
        run: run_verify,
    },
    Subcommand {
        name: "trace",
        flags: &["--enrollment", "--labs-only", "--metrics", "--out"],
        run: run_trace,
    },
    Subcommand {
        name: "chaos",
        flags: &["--enrollment", "--rates", "--threads"],
        run: run_chaos,
    },
    Subcommand {
        name: "scale",
        flags: &[
            "--enrollment",
            "--shard-students",
            "--threads",
            "--spill-dir",
            "--mem-budget-mb",
        ],
        run: run_scale,
    },
    Subcommand {
        name: "serve",
        flags: &[
            "--tenants",
            "--servers",
            "--queue-bound",
            "--target-rps",
            "--increment-rps",
            "--max-rps",
            "--round-secs",
            "--deadline-s",
            "--fault-rate",
            "--threads",
            "--out",
        ],
        run: run_serve,
    },
    Subcommand {
        name: "profile",
        flags: &["--enrollment", "--shard-students", "--threads", "--out"],
        run: run_profile,
    },
];

/// Flags that take no value; every other flag takes the argument after it.
const SWITCHES: [&str; 3] = ["--quiet", "--labs-only", "--metrics"];

fn main() -> ExitCode {
    let args = Args(std::env::args().collect());
    let subcommand = args.subcommand();
    let seed = args
        .value("--seed", NON_NEGATIVE, non_negative)
        .unwrap_or(42);

    let stderr = Stderr {
        narrating: !args.has("--quiet"),
    };
    let mut stdout = Stdout::new();
    let outcome = (subcommand.run)(&args, seed, &stderr, &mut stdout);
    let peak =
        opml_profiler::peak_rss_kb().map_or_else(|| "n/a".to_string(), |kb| format!("{kb} kB"));
    let printed = stdout.line(format_args!("peak rss: {peak}"));
    match outcome.and(printed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            Stderr::line(message);
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
    /// The subcommand the command line names, once every later argument
    /// is a flag it reads or the value of such a flag. Anything else,
    /// and a value-taking flag with no argument after it, exits 2
    /// before any work starts.
    fn subcommand(&self) -> &'static Subcommand {
        let words = self.0.get(1..).unwrap_or_default();
        let (subcommand, flags) = match words.split_first() {
            Some((word, rest)) if !word.starts_with("--") => {
                let subcommand = SUBCOMMANDS
                    .iter()
                    .find(|s| s.name == word)
                    .unwrap_or_else(|| usage(&format!("unknown subcommand {word}")));
                (subcommand, rest)
            }
            _ => (&PAPER_RUN, words),
        };
        let mut flags = flags.iter().map(String::as_str);
        while let Some(flag) = flags.next() {
            if !(["--seed", "--quiet"].contains(&flag) || subcommand.flags.contains(&flag)) {
                usage(&format!("{} does not take {flag}", subcommand.name));
            }
            if !SWITCHES.contains(&flag) && flags.next().is_none() {
                usage(&format!("{flag} takes a value, got nothing"));
            }
        }
        subcommand
    }

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
    usage(&format!("{flag} takes {what}, got `{raw}`"))
}

/// A command-line error: print it and exit 2.
fn usage(message: &str) -> ! {
    Stderr::line(format_args!("run-experiments: {message}"));
    std::process::exit(2);
}

/// The process's stdout, through one locked handle. When the reader is
/// gone (`BrokenPipe`), printing stops and the run carries on, so a
/// closed pipe neither panics nor changes the exit status; any other
/// write error fails the run, naming the error.
struct Stdout {
    handle: io::StdoutLock<'static>,
    closed: bool,
}

impl Stdout {
    fn new() -> Stdout {
        Stdout {
            handle: io::stdout().lock(),
            closed: false,
        }
    }

    /// Print `text` and a newline.
    fn line(&mut self, text: impl Display) -> Outcome {
        if self.closed {
            return Ok(());
        }
        match writeln!(self.handle, "{text}") {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(())
            }
            result => result.map_err(|e| format!("run-experiments: cannot write to stdout: {e}")),
        }
    }
}

/// The process's stderr: usage errors, `main`'s failure line and,
/// unless `--quiet`, narration. A line it cannot write is dropped:
/// stderr is where the failure would be reported, so a closed stderr
/// never panics and never changes the exit status.
struct Stderr {
    narrating: bool,
}

impl Stderr {
    /// Print `text` and a newline.
    fn line(text: impl Display) {
        let _ = writeln!(io::stderr(), "{text}");
    }

    /// Print a progress line, unless `--quiet`.
    fn narrate(&self, text: impl Display) {
        if self.narrating {
            Stderr::line(text);
        }
    }
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
    fn write(&self, stdout: &mut Stdout, name: &str, contents: &str) -> Outcome {
        let path = format!("{}/{name}", self.0);
        write_file(&path, contents)?;
        stdout.line(format_args!("wrote {path}"))
    }
}

fn run_verify(args: &Args, seed: u64, stderr: &Stderr, stdout: &mut Stdout) -> Outcome {
    let threads = args
        .list("--threads", POSITIVE_LIST, positive)
        .unwrap_or_default();
    stderr.narrate(format_args!("verifying replay equivalence (seed {seed})…"));
    let outcome = verify::verify_determinism(seed, &threads);
    stdout.line(outcome.to_table())?;
    if !outcome.is_equivalent() {
        return Err(
            "verify-determinism: FAILED — results differ across runs/thread counts".to_string(),
        );
    }
    stderr.narrate("verify-determinism: all runs byte-identical");
    Ok(())
}

fn run_trace(args: &Args, seed: u64, stderr: &Stderr, stdout: &mut Stdout) -> Outcome {
    let config = trace::TraceConfig {
        seed,
        enrollment: args.positive("--enrollment", 191),
        labs_only: args.has("--labs-only"),
    };
    let out = OutDir::create(args, "trace_out")?;
    stderr.narrate(format_args!(
        "tracing a {}-student semester (seed {seed}, projects {})…",
        config.enrollment,
        if config.labs_only { "off" } else { "on" }
    ));
    let artifacts = trace::capture_trace(&config);
    stdout.line(format_args!(
        "captured {} events ({} ledger records, {} quota denials)",
        artifacts.events,
        artifacts.outcome.ledger.records().len(),
        artifacts.outcome.quota_denials
    ))?;
    out.write(stdout, "trace.jsonl", &artifacts.jsonl)?;
    out.write(stdout, "trace_chrome.json", &artifacts.chrome)?;
    if args.has("--metrics") {
        stdout.line("\n== Telemetry metrics ==\n")?;
        stdout.line(opml_report::metrics_summary(&artifacts.metrics))?;
    }
    Ok(())
}

fn run_chaos(args: &Args, seed: u64, stderr: &Stderr, stdout: &mut Stdout) -> Outcome {
    let defaults = chaos::ChaosConfig::default();
    let config = chaos::ChaosConfig {
        seed,
        enrollment: args.positive("--enrollment", 191),
        rates: args
            .list("--rates", RATE_LIST, rate)
            .unwrap_or(defaults.rates),
        threads: args.positive("--threads", 1),
    };
    stderr.narrate(format_args!(
        "chaos sweep: {}-student semester (seed {seed}), rates {:?}…",
        config.enrollment, config.rates
    ));
    let report = chaos::run(&config);
    stdout.line(format_args!(
        "== Chaos: cost of injected faults ==\n{}",
        report.text
    ))?;
    if !report.zero_rate_matches_baseline {
        return Err(
            "chaos: FAILED — zero-rate plan diverged from the fault-free baseline".to_string(),
        );
    }
    Ok(())
}

fn run_scale(args: &Args, seed: u64, stderr: &Stderr, stdout: &mut Stdout) -> Outcome {
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
    stderr.narrate(format_args!(
        "scale sweep: {} students, {}/shard, threads {:?}…",
        config.enrollment, config.shard_students, config.threads
    ));
    let report = scale::run(&config).map_err(|e| format!("scale: FAILED — {e}"))?;
    stdout.line(format_args!(
        "== Scale: sharded cohort sweep ==\n{}",
        report.text
    ))?;
    if report.spilled {
        stdout.line("spill: out-of-core path engaged")?;
    }
    if let (Some(budget), Some(exceeded)) = (report.mem_budget_mb, report.budget_exceeded) {
        stdout.line(format_args!(
            "mem budget: {budget} MB — {}",
            if exceeded { "EXCEEDED" } else { "respected" }
        ))?;
    }
    if !report.equivalent {
        return Err("scale: FAILED — sharded outcomes differ across thread counts".to_string());
    }
    Ok(())
}

fn run_serve(args: &Args, seed: u64, stderr: &Stderr, stdout: &mut Stdout) -> Outcome {
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
    stderr.narrate(format_args!(
        "service soak: seed {seed}, ramp {}→{} (+{}) ops/s, {} tenants, fault rate {} ppm…",
        config.target_rps,
        config.max_rps,
        config.increment_rps,
        config.tenants,
        config.fault_rate_ppm
    ));
    let run = serve::run(&serve::ServeRunConfig { config, threads });
    stdout.line(format_args!(
        "== Serve: campus cloud under ramping load ==\n{}",
        run.text
    ))?;
    out.write(stdout, "serve.json", &run.json)?;
    stdout.line(format_args!(
        "counts_digest={:016x}",
        run.report.counts_digest
    ))
}

fn run_profile(args: &Args, seed: u64, stderr: &Stderr, stdout: &mut Stdout) -> Outcome {
    let defaults = profile::ProfileConfig::default();
    let config = profile::ProfileConfig {
        seed,
        enrollment: args.positive("--enrollment", defaults.enrollment),
        shard_students: args.positive("--shard-students", defaults.shard_students),
        threads: args.positive("--threads", defaults.threads),
    };
    let out = OutDir::create(args, "profile_out")?;
    stderr.narrate(format_args!(
        "profiling a {}-student semester (seed {seed}, {} threads)…",
        config.enrollment, config.threads
    ));
    let report = profile::run(&config);
    stdout.line(&report.text)?;
    out.write(stdout, "profile.json", &report.json)?;
    out.write(stdout, "profile.folded", &report.folded)?;
    stdout.line(format_args!("counts_digest={:016x}", report.counts_digest))
}

fn run_full(args: &Args, seed: u64, stderr: &Stderr, stdout: &mut Stdout) -> Outcome {
    let want_metrics = args.has("--metrics");
    stderr.narrate(format_args!(
        "simulating the 191-student semester (seed {seed})…"
    ));
    let sim_telemetry = if want_metrics {
        // Only the metrics are kept; events are dropped as they are
        // stamped, so the per-event cost stays near zero.
        Telemetry::metrics_only()
    } else {
        Telemetry::disabled()
    };
    let ctx = opml_experiments::run_paper_course_with(seed, &sim_telemetry);
    stderr.narrate(format_args!(
        "done: {} ledger records, {} quota denials, {} slot pushbacks\n",
        ctx.outcome.ledger.records().len(),
        ctx.outcome.quota_denials,
        ctx.outcome.slot_pushbacks
    ));
    stderr
        .narrate("rendering every section (with a 5-seed sweep and a reduced-cohort VM ablation)…");
    let sections = paper_sections(&ctx);
    for section in &sections {
        stdout.line(format_args!("== {} ==\n{}", section.title, section.text))?;
    }

    // Comparison summary.
    stdout.line("== Paper vs measured ==\n")?;
    for section in &sections {
        stdout.line(section.comparisons.to_markdown())?;
    }
    let (all_pass, all_rows) = tolerance_count(&sections);
    stdout.line(format_args!(
        "overall: {all_pass}/{all_rows} comparisons within tolerance ({:.0}%)",
        all_pass as f64 / all_rows.max(1) as f64 * 100.0
    ))?;

    let metrics_md = if want_metrics {
        let summary = opml_report::metrics_summary(&sim_telemetry.metrics_snapshot());
        stdout.line("== Telemetry metrics ==\n")?;
        stdout.line(&summary)?;
        Some(summary)
    } else {
        None
    };

    if let Some(path) = args.raw("--write-md") {
        write_file(
            path,
            &experiments_markdown(seed, &sections, metrics_md.as_deref()),
        )?;
        stderr.narrate(format_args!("comparison sections written to {path}"));
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
    stderr.narrate("structured results written to experiments_results.json");
    Ok(())
}
