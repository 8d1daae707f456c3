//! The repository benchmark: four workloads, each measured end to end,
//! and a traced run that splits each iteration into layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|scale_100k|spill_100k|serve|all> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! A run sets its workload up [`SETUPS`] times (inputs plus a
//! reduced-size warm-up whose outputs are checked) and reports the
//! median as `setup_s`. It then runs iterations back to back for
//! `--seconds`, stopping before an iteration that would overrun, but
//! never before [`MIN_ITERATIONS`]. Every iteration checks its outputs;
//! a failed check counts the iteration as failed and makes the process
//! exit 1. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` reports the end-to-end metrics of `BENCHMARK.json`:
//! median set-up time, median iteration wall and peak RSS.
//!
//! `--trace 1` alternates traced and untraced iterations and reports
//! the per-layer metrics: the median per-iteration time of each layer,
//! the exact counts each layer produced, the traced wall, the tracing
//! overhead (traced minus untraced median wall) and the share of the
//! iteration no layer accounts for. It also writes
//! `.bench_out/<workload>/trace_chrome.json` (one span per layer call,
//! loadable in Perfetto) and `layers.json` (self time, total time and
//! count per layer). A layer a workload never calls reads 0.
//!
//! `--workload all` runs every workload in a child process of its own,
//! so each peak RSS is that workload's, and requires the out-of-core
//! and in-memory 100k digests to be equal.
//!
//! Every output starts with a provenance line (seed, CPU counts as
//! `nproc`, `available_parallelism`, `/proc/cpuinfo` and cgroup
//! `cpu.max` see them, CPU model, git commit), so numbers from
//! different hosts are never compared blindly, and a summary line
//! (iteration counts, output digest) precedes the result. Defaults:
//! seed 42, which has committed goldens, 10 seconds, no tracing.

mod trace;
mod workloads;

use opml_profiler::Json;
use serde_json::Value;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use trace::{Clock, Tracer};
use workloads::{Iteration, Size, FULL, NAMES};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Iterations every run makes, whatever `--seconds` says: two are the
/// least that can show a digest repeating, and give a traced run one
/// untraced iteration to compare against.
const MIN_ITERATIONS: usize = 2;

/// Where traces and spill runs go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Layers timed in the traced run, and the metric each is reported as.
const LAYERS: [(&str, &str); 17] = [
    ("cohort.simulate", "cohort.simulate_s"),
    ("cohort.stream", "cohort.stream_s"),
    ("metering.rollup", "metering.rollup_s"),
    ("pricing.estimate", "pricing.estimate_s"),
    ("experiments.artifacts", "experiments.artifacts_s"),
    ("experiments.seeds", "experiments.seeds_s"),
    ("experiments.ablation", "experiments.ablation_s"),
    ("experiments.digest", "experiments.digest_s"),
    ("testbed.ledger_drop", "testbed.ledger_drop_s"),
    ("serve.run_service", "serve.run_service_s"),
    ("phase.shard_sim", "phase.shard_sim_s"),
    ("phase.merge_replay", "phase.merge_replay_s"),
    ("phase.merge_metrics", "phase.merge_metrics_s"),
    ("phase.merge_ledger", "phase.merge_ledger_s"),
    ("phase.merge_spill", "phase.merge_spill_s"),
    ("phase.merge_stream", "phase.merge_stream_s"),
    ("phase.runtime_pool", "phase.runtime_pool_s"),
];

/// Exact counts from the traced run: name and unit.
const COUNTS: [(&str, &str); 37] = [
    ("cohort.records", "count"),
    ("cohort.shards", "count"),
    ("cohort.quota_denials", "count"),
    ("cohort.slot_pushbacks", "count"),
    ("experiments.comparisons", "count"),
    ("experiments.within_tolerance", "count"),
    ("spill.shard_runs", "count"),
    ("spill.merge_passes", "count"),
    ("spill.intermediate_runs", "count"),
    ("spill.spilled_bytes", "B"),
    ("spill.max_open_runs", "count"),
    ("spill.bytes_per_record", "B"),
    ("io.write_mb", "MB"),
    ("io.read_mb", "MB"),
    ("serve.generated", "count"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.timed_out", "count"),
    ("serve.failed", "count"),
    ("serve.retries", "count"),
    ("serve.breaker_trips", "count"),
    ("serve.breaker_rejects", "count"),
    ("serve.peak_queue_depth", "count"),
    ("serve.stop_round", "count"),
    ("serve.max_sustainable_rps", "1/s"),
    ("serve.completed_ratio", "ratio"),
    ("serve.launch.completed", "count"),
    ("serve.launch.failed", "count"),
    ("serve.terminate.completed", "count"),
    ("serve.terminate.failed", "count"),
    ("serve.reserve.completed", "count"),
    ("serve.reserve.failed", "count"),
    ("serve.revoke.completed", "count"),
    ("serve.revoke.failed", "count"),
    ("serve.quota_check.completed", "count"),
    ("serve.quota_check.failed", "count"),
];

/// Tracing's own metrics: name and unit.
const TRACE: [(&str, &str); 3] = [
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_share", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload <paper|scale_100k|spill_100k|serve|all> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: workloads::GOLDEN_SEED,
        seconds: 10,
        trace: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a non-negative integer, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if parsed.workload != "all" && !NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?} or all"));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("provenance: {}", to_json(&provenance(&args)));
    let ok = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Median; the mean of the two middle samples for an even count, 0 for none.
fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("the serde_json shim cannot fail")
}

// ---------------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------------

/// Everything one run measured.
struct Run {
    setup_s: Vec<f64>,
    /// Walls of untraced iterations, seconds.
    walls: Vec<f64>,
    /// Walls of traced iterations, seconds.
    traced_walls: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Digest of the first iteration that completed.
    digest: Option<u64>,
    /// Counts of the last iteration that completed.
    counts: Vec<(&'static str, f64)>,
    tracer: Tracer,
}

/// Set up, then iterate for `seconds`, tracing every other iteration
/// when `trace`. Fails only if set-up fails; failed iterations are
/// counted in the run.
fn measure(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    setups: usize,
    out_dir: &Path,
) -> Result<Run, String> {
    let mut setup_s = Vec::with_capacity(setups);
    let mut workload = None;
    for _ in 0..setups {
        let clock = Clock::start();
        workload = Some(workloads::setup(name, seed, size, out_dir)?);
        setup_s.push(clock.elapsed_s());
    }
    let mut workload = workload.ok_or("no set-up ran")?;
    let mut run = Run {
        setup_s,
        walls: Vec::new(),
        traced_walls: Vec::new(),
        attempted: 0,
        failed: 0,
        digest: None,
        counts: Vec::new(),
        tracer: Tracer::new(),
    };
    let budget = Clock::start();
    loop {
        let done = run.walls.len() + run.traced_walls.len();
        let all: Vec<f64> = run.walls.iter().chain(&run.traced_walls).copied().collect();
        let next = median(&all);
        if done >= MIN_ITERATIONS && budget.elapsed_s() + next > seconds as f64 {
            break;
        }
        let traced = trace && done.is_multiple_of(2);
        run.tracer.begin_iteration(done as u64, traced);
        let clock = Clock::start();
        let result = run.tracer.span("iteration", |tr| workload.iterate(tr));
        let wall = clock.elapsed_s();
        if traced {
            run.traced_walls.push(wall);
        } else {
            run.walls.push(wall);
        }
        run.attempted += 1;
        match check_repeats(result, run.digest) {
            Ok(it) => {
                run.digest.get_or_insert(it.digest);
                run.counts = it.counts;
            }
            Err(e) => {
                eprintln!("perfbench: {name} iteration {done} failed: {e}");
                run.failed += 1;
            }
        }
    }
    // Leave the simulator's phase counters off.
    run.tracer.begin_iteration(0, false);
    Ok(run)
}

fn check_repeats(
    result: Result<Iteration, String>,
    first: Option<u64>,
) -> Result<Iteration, String> {
    let it = result?;
    match first {
        Some(d) if d != it.digest => Err(format!(
            "digest {:016x} differs from the first iteration's {d:016x}",
            it.digest
        )),
        _ => Ok(it),
    }
}

impl Run {
    /// The end-to-end metrics (`trace` false) or the per-layer ones.
    fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if !trace {
            let values = [
                median(&self.setup_s),
                median(&self.walls),
                opml_profiler::peak_rss_kb().unwrap_or(0) as f64 * 1024.0 / 1e6,
            ];
            return END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect();
        }
        let nodes = self.tracer.nodes();
        let by_iteration = trace::totals_by_iteration(nodes);
        let mut out = Vec::new();
        for (layer, metric) in LAYERS {
            let per_iteration: Vec<f64> = by_iteration
                .values()
                .map(|totals| totals.get(layer).copied().unwrap_or(0) as f64 / 1e9)
                .collect();
            out.push((metric, median(&per_iteration), "s"));
        }
        for (name, unit) in COUNTS {
            let v = self
                .counts
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            out.push((name, v, unit));
        }
        let selves = trace::self_times(nodes);
        let unattributed: Vec<f64> = nodes
            .iter()
            .zip(&selves)
            .filter(|(n, _)| n.parent.is_none())
            .map(|(n, &s)| s as f64 / n.total_ns.max(1) as f64)
            .collect();
        let traced = median(&self.traced_walls);
        let values = [traced, traced - median(&self.walls), median(&unattributed)];
        out.extend(TRACE.iter().zip(values).map(|(&(n, u), v)| (n, v, u)));
        out
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &str)>,
) -> Value {
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name,
                Value::Map(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ])
}

fn run_one(args: &Args) -> bool {
    if args.trace {
        opml_profiler::install_pool_attribution();
    }
    let out_dir = Path::new(OUT_DIR).join(&args.workload);
    let run = match measure(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        FULL,
        SETUPS,
        &out_dir,
    ) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            return false;
        }
    };
    let summary = serde_json::json!({
        "workload": args.workload,
        "seed": args.seed,
        "setups": run.setup_s.len(),
        "iterations": run.walls.len(),
        "traced_iterations": run.traced_walls.len(),
        "digest": run.digest.map(|d| format!("{d:016x}")),
    });
    println!("summary: {}", to_json(&summary));
    if args.trace {
        if let Err(e) = write_trace(&run, &out_dir, provenance(args)) {
            eprintln!("perfbench: cannot write the trace: {e}");
            return false;
        }
    }
    let correct = run.failed == 0;
    let metrics = run
        .metrics(args.trace)
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect();
    println!(
        "{}",
        to_json(&result_json(correct, run.attempted, run.failed, metrics))
    );
    correct
}

fn write_trace(run: &Run, out_dir: &Path, provenance: Value) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let nodes = run.tracer.nodes();
    std::fs::write(
        out_dir.join("trace_chrome.json"),
        trace::chrome_json(nodes, provenance.clone()),
    )?;
    let layers = trace::layers(nodes);
    let self_sum_ns: i64 = layers.iter().map(|l| l.self_ns).sum();
    let layers: Vec<Value> = layers
        .iter()
        .map(|l| {
            serde_json::json!({
                "name": l.name,
                "parent": l.parent,
                "count": l.count,
                "total_s": l.total_ns as f64 / 1e9,
                "self_s": l.self_ns as f64 / 1e9,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "provenance": provenance,
        "traced_iterations": run.traced_walls.len(),
        "traced_wall_s": run.traced_walls.iter().sum::<f64>(),
        "self_sum_s": self_sum_ns as f64 / 1e9,
        "layers": layers,
    });
    std::fs::write(
        out_dir.join("layers.json"),
        serde_json::to_string_pretty(&doc).expect("the serde_json shim cannot fail"),
    )
}

// ---------------------------------------------------------------------------
// All workloads
// ---------------------------------------------------------------------------

/// One child's result line and digest.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    digest: Option<String>,
}

fn run_child(args: &Args, workload: &str) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        println!("{workload}: {line}");
    }
    let parse = |line: &str| Json::parse(line).ok();
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("summary: "))
        .and_then(parse)
        .and_then(|s| s.get("digest").and_then(|d| d.as_str().map(String::from)));
    let result = stdout
        .lines()
        .last()
        .and_then(parse)
        .ok_or_else(|| format!("the {workload} run printed no result"))?;
    let number = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
    let metrics = match result.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                (format!("{workload}.{name}"), value, unit.to_string())
            })
            .collect(),
        _ => Vec::new(),
    };
    Ok(ChildResult {
        correct: output.status.success()
            && result.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: number("attempted"),
        failed: number("failed"),
        metrics,
        digest,
    })
}

fn run_all(args: &Args) -> bool {
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    let mut digests: Vec<(&str, Option<String>)> = Vec::new();
    for workload in NAMES {
        match run_child(args, workload) {
            Ok(child) => {
                correct &= child.correct;
                attempted += child.attempted;
                failed += child.failed;
                metrics.extend(child.metrics);
                digests.push((workload, child.digest));
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                correct = false;
            }
        }
    }
    let digest_of = |w: &str| {
        digests
            .iter()
            .find(|(n, _)| *n == w)
            .and_then(|(_, d)| d.clone())
    };
    let (in_memory, spilled) = (digest_of("scale_100k"), digest_of("spill_100k"));
    if in_memory.is_none() || in_memory != spilled {
        eprintln!("perfbench: out-of-core digest {spilled:?} != in-memory digest {in_memory:?}");
        correct = false;
    }
    let metrics = metrics
        .iter()
        .map(|(n, v, u)| (n.clone(), *v, u.as_str()))
        .collect();
    println!(
        "{}",
        to_json(&result_json(correct, attempted.max(1), failed, metrics))
    );
    correct
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

fn provenance(args: &Args) -> Value {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let cpus_allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|s| s.trim().to_string());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let online = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string());
    let cpu_max = std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .ok()
        .map(|s| s.trim().to_string());
    serde_json::json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setups": SETUPS,
        "min_iterations": MIN_ITERATIONS,
        "nproc": cpus_allowed.as_deref().and_then(count_cpu_list),
        "cpus_allowed": cpus_allowed,
        "available_parallelism": std::thread::available_parallelism().map(|n| n.get()).ok(),
        "cpuinfo_processors": online,
        "cgroup_cpu_max": cpu_max,
        "cpu_model": model,
        "git_commit": git_commit(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"))),
    })
}

/// CPUs in a kernel CPU list such as `0-3,6`: what `nproc` counts.
fn count_cpu_list(list: &str) -> Option<usize> {
    let mut n = 0;
    for part in list.split(',').filter(|p| !p.is_empty()) {
        n += match part.split_once('-') {
            Some((lo, hi)) => hi.parse::<usize>().ok()? + 1 - lo.parse::<usize>().ok()?,
            None => part.parse::<usize>().map(|_| 1).ok()?,
        };
    }
    Some(n)
}

/// The commit `HEAD` names, read from the `.git` directory; `None`
/// outside a git checkout.
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    const SMOKE: Size = Size {
        cohort: 2_000,
        warmup_cohort: 2_000,
        serve_max_rps: 8,
    };

    /// Each workload at a tiny size: its checks pass, and it reports every
    /// metric `BENCHMARK.json` names, in both modes.
    #[test]
    fn every_workload_passes_its_checks_and_reports_every_metric() {
        let doc = benchmark_json();
        let workloads = names(&doc, "workloads");
        assert_eq!(workloads, NAMES.to_vec());
        let dir = std::env::temp_dir().join("perfbench-smoke");
        for name in NAMES {
            let run = measure(name, 42, 0, true, SMOKE, 1, &dir.join(name))
                .unwrap_or_else(|e| panic!("{name} set-up: {e}"));
            assert_eq!(run.failed, 0, "{name} iterations failed");
            assert_eq!(run.attempted, MIN_ITERATIONS as u64);
            assert_eq!((run.walls.len(), run.traced_walls.len()), (1, 1));
            for (count, _) in &run.counts {
                assert!(COUNTS.iter().any(|(c, _)| c == count), "{count} unlisted");
            }
            for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
                let reported: Vec<String> =
                    run.metrics(trace).iter().map(|m| m.0.to_string()).collect();
                assert_eq!(reported, names(&doc, key), "{name} {key}");
            }
            let metric = |m: &str| {
                run.metrics(true)
                    .iter()
                    .find(|x| x.0 == m)
                    .map(|x| x.1)
                    .expect("metric")
            };
            match name {
                "paper" => assert!(metric("metering.rollup_s") > 0.0),
                "scale_100k" => {
                    assert!(metric("phase.merge_ledger_s") > 0.0);
                    assert_eq!(metric("spill.spilled_bytes"), 0.0);
                }
                "spill_100k" => {
                    assert!(metric("spill.spilled_bytes") > 0.0);
                    assert!(metric("experiments.digest_s") > 0.0);
                    assert_eq!(metric("phase.merge_ledger_s"), 0.0);
                }
                _ => {
                    assert!(metric("serve.generated") > 0.0);
                    assert_eq!(metric("cohort.records"), 0.0);
                }
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = parse("--workload serve --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("serve", 7, 3, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve --trace 2").is_err());
        assert!(parse("--workload serve --seed -1").is_err());
        assert!(parse("--workload serve --seed").is_err());
        assert!(parse("--workload serve --bogus 1").is_err());
    }

    #[test]
    fn cpu_lists_count_like_nproc() {
        assert_eq!(count_cpu_list("0-1"), Some(2));
        assert_eq!(count_cpu_list("0-3,6,8-9"), Some(7));
        assert_eq!(count_cpu_list("x"), None);
    }
}
