//! The `run-experiments` command line: every subcommand goes through one
//! flag parser, one output writer and one peak-RSS line.
//!
//! - An `--out` that cannot be a directory exits 1 with an error naming
//!   the path, before the run starts, instead of panicking after it.
//! - Each malformed flag value exits 2 with the shared message
//!   ``run-experiments: <flag> takes <what>, got `<raw>` ``.
//! - An unknown subcommand, a flag the subcommand does not read, or a
//!   value-taking flag with no value exits 2 before any work starts.
//! - Every subcommand prints exactly one `peak rss:` line.
//! - A stdout whose reader is gone stops the printing, not the run: the
//!   program finishes its work and exits 0 without a panic. Any other
//!   stdout error exits 1 naming it.
//! - A stderr whose reader is gone drops usage errors, the failure line
//!   and narration, and leaves the exit status as it would have been.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const TRACE: &[&str] = &["trace", "--seed", "7", "--enrollment", "3", "--labs-only"];
const SERVE: &[&str] = &[
    "serve",
    "--seed",
    "7",
    "--tenants",
    "3",
    "--servers",
    "8",
    "--target-rps",
    "2",
    "--increment-rps",
    "2",
    "--max-rps",
    "6",
    "--round-secs",
    "15",
];
const PROFILE: &[&str] = &[
    "profile",
    "--seed",
    "7",
    "--enrollment",
    "20",
    "--shard-students",
    "10",
    "--threads",
    "1",
];

/// A fresh directory under cargo's scratch space for integration tests.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cli")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run the binary in `cwd` with exactly `args`, so default output paths
/// (`trace_out/`, `experiments_results.json`, ...) land there.
fn run_verbatim(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run-experiments"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn run-experiments")
}

/// Run the binary quietly in `cwd`.
fn run(cwd: &Path, args: &[&str]) -> Output {
    run_verbatim(cwd, &[args, &["--quiet"]].concat())
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn out_under_a_regular_file_exits_1_naming_the_path() {
    let dir = scratch("blocked_out");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").expect("write blocker file");
    let out = blocker.join("out");
    let out = out.to_str().expect("scratch path is UTF-8");
    for base in [TRACE, SERVE, PROFILE] {
        let o = run(&dir, &[base, &["--out", out]].concat());
        let stderr = text(&o.stderr);
        assert_eq!(o.status.code(), Some(1), "{}: {stderr}", base[0]);
        assert!(
            stderr.contains(out),
            "{}: the error does not name {out}: {stderr}",
            base[0]
        );
        assert!(!stderr.contains("panicked"), "{}: {stderr}", base[0]);
        assert!(
            !text(&o.stdout).contains("wrote"),
            "{}: wrote output after --out failed",
            base[0]
        );
    }
}

#[test]
fn malformed_values_exit_2_with_the_shared_message() {
    // (arguments ending in the bad value, flag, what the flag takes)
    let cases: &[(&[&str], &str, &str)] = &[
        (
            &["verify-determinism", "--seed", "-1"],
            "--seed",
            "a non-negative integer",
        ),
        (
            &["trace", "--enrollment", "0"],
            "--enrollment",
            "a positive integer",
        ),
        (
            &["scale", "--threads", "1,0"],
            "--threads",
            "a comma-separated list of positive integers",
        ),
        (
            &["chaos", "--rates", "0.1,2"],
            "--rates",
            "a comma-separated list of numbers in [0, 1]",
        ),
        (
            &["serve", "--fault-rate", "1.5"],
            "--fault-rate",
            "a number in [0, 1]",
        ),
        (
            &["scale", "--mem-budget-mb", "x"],
            "--mem-budget-mb",
            "a non-negative integer",
        ),
        (
            &["serve", "--increment-rps", "-3"],
            "--increment-rps",
            "a non-negative integer",
        ),
    ];
    let dir = scratch("malformed");
    for (args, flag, what) in cases {
        let raw = args[args.len() - 1];
        let o = run(&dir, args);
        assert_eq!(o.status.code(), Some(2), "{args:?}: {}", text(&o.stderr));
        assert_eq!(
            text(&o.stderr).trim_end(),
            format!("run-experiments: {flag} takes {what}, got `{raw}`"),
            "{args:?}"
        );
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir).expect("read scratch dir").collect();
    assert!(
        leftovers.is_empty(),
        "a rejected command line wrote files: {leftovers:?}"
    );
}

#[test]
fn unknown_flags_and_subcommands_exit_2_before_any_work() {
    // (arguments, the rejection after `run-experiments: `)
    let cases: &[(&[&str], &str)] = &[
        (
            &["trace", "--enrolment", "3", "--labs-only"],
            "trace does not take --enrolment",
        ),
        (&["scale", "--help"], "scale does not take --help"),
        (&["verify"], "unknown subcommand verify"),
        (&["serve", "--labs-only"], "serve does not take --labs-only"),
        (
            &["--enrollment", "3"],
            "the paper run does not take --enrollment",
        ),
        // The value after a value-taking flag is skipped, whatever it is.
        (
            &["chaos", "--rates", "--bogus", "--enrollment", "4", "extra"],
            "chaos does not take extra",
        ),
        (&["chaos", "--rate", "0.05"], "chaos does not take --rate"),
        // A value-taking flag given last has no value.
        (&["trace", "--out"], "--out takes a value, got nothing"),
        (
            &["scale", "--quiet", "--threads"],
            "--threads takes a value, got nothing",
        ),
    ];
    let dir = scratch("unknown");
    for (args, rejection) in cases {
        // As written: an appended `--quiet` would be the missing value.
        let o = run_verbatim(&dir, args);
        assert_eq!(o.status.code(), Some(2), "{args:?}: {}", text(&o.stderr));
        assert_eq!(
            text(&o.stderr).trim_end(),
            format!("run-experiments: {rejection}"),
            "{args:?}"
        );
        assert_eq!(text(&o.stdout), "", "{args:?} started work");
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir).expect("read scratch dir").collect();
    assert!(
        leftovers.is_empty(),
        "a rejected command line wrote files: {leftovers:?}"
    );
}

#[test]
fn every_subcommand_prints_one_peak_rss_line() {
    let dir = scratch("peak_rss");
    let out = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (trace_out, serve_out, profile_out) = (out("trace"), out("serve"), out("profile"));
    let runs: Vec<Vec<&str>> = vec![
        vec![],
        vec!["verify-determinism", "--threads", "1"],
        [TRACE, &["--out", &trace_out]].concat(),
        vec!["chaos", "--rates", "0.05", "--enrollment", "10"],
        vec![
            "scale",
            "--enrollment",
            "20",
            "--shard-students",
            "10",
            "--threads",
            "1",
        ],
        [SERVE, &["--out", &serve_out]].concat(),
        [PROFILE, &["--out", &profile_out]].concat(),
    ];
    for args in &runs {
        let o = run(&dir, args);
        let stdout = text(&o.stdout);
        assert!(o.status.success(), "{args:?}: {}", text(&o.stderr));
        let lines: Vec<&str> = stdout
            .lines()
            .filter(|l| l.starts_with("peak rss:"))
            .collect();
        assert_eq!(lines.len(), 1, "{args:?} printed {lines:?}");
        assert!(
            lines[0].ends_with(" kB") || lines[0] == "peak rss: n/a",
            "{args:?}: {}",
            lines[0]
        );
    }
}

/// Run the binary quietly in `cwd` with its stdout sent to `stdout`.
fn run_into(cwd: &Path, args: &[&str], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run-experiments"))
        .args([args, &["--quiet"]].concat())
        .current_dir(cwd)
        .stdout(stdout)
        .output()
        .expect("spawn run-experiments")
}

/// A pipe whose only reader, `true`, has exited before the program
/// starts: the first line written to it meets a broken pipe.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new("true")
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn true");
    let pipe = reader.stdin.take().expect("the reader's stdin is piped");
    reader.wait().expect("wait for true");
    Stdio::from(pipe)
}

#[test]
fn a_closed_stdout_stops_the_printing_not_the_run() {
    let dir = scratch("closed_stdout");
    let out = dir.join("trace");
    let out = out.to_str().expect("scratch path is UTF-8");
    let o = run_into(&dir, &[TRACE, &["--out", out]].concat(), closed_pipe());
    let stderr = text(&o.stderr);
    assert_ne!(o.status.code(), Some(101), "{stderr}");
    assert_eq!(o.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for name in ["trace.jsonl", "trace_chrome.json"] {
        assert!(
            Path::new(out).join(name).is_file(),
            "the run stopped at the closed pipe before writing {name}"
        );
    }
}

#[test]
fn a_closed_stderr_keeps_the_exit_status() {
    let dir = scratch("closed_stderr");
    let trace_out = dir.join("trace");
    let trace_out = trace_out.to_str().expect("scratch path is UTF-8");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").expect("write blocker file");
    let blocked_out = blocker.join("out");
    let blocked_out = blocked_out.to_str().expect("scratch path is UTF-8");
    let usage_error: &[&str] = &["trace", "--enrollment", "0"];
    // Without `--quiet`, so the run narrates to the closed stderr.
    let narrating = [TRACE, &["--out", trace_out]].concat();
    let failing = [TRACE, &["--out", blocked_out]].concat();
    for (args, code) in [(usage_error, 2), (&narrating[..], 0), (&failing[..], 1)] {
        let o = Command::new(env!("CARGO_BIN_EXE_run-experiments"))
            .args(args)
            .current_dir(&dir)
            .stderr(closed_pipe())
            .output()
            .expect("spawn run-experiments");
        assert_eq!(o.status.code(), Some(code), "{args:?}: {}", text(&o.stdout));
    }
    for name in ["trace.jsonl", "trace_chrome.json"] {
        assert!(
            Path::new(trace_out).join(name).is_file(),
            "the narrating run stopped at the closed stderr before writing {name}"
        );
    }
}

#[test]
fn a_failed_stdout_write_exits_1_naming_the_error() {
    // Every write to /dev/full fails with "no space left on device".
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let dir = scratch("full_stdout");
    let out = dir.join("trace");
    let out = out.to_str().expect("scratch path is UTF-8");
    let o = run_into(&dir, &[TRACE, &["--out", out]].concat(), Stdio::from(full));
    let stderr = text(&o.stderr);
    assert_eq!(o.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("run-experiments: cannot write to stdout: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
