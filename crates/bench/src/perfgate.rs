//! Perf-regression gate shared by the bench `--check` modes.
//!
//! A bench invoked with `--check` reruns its measured sections
//! (min-of-K, `PERFGATE_RUNS`) and compares the results against the
//! committed `BENCH_*.json` baseline instead of overwriting it:
//!
//! * **wall-time comparisons** fail when the live minimum exceeds the
//!   baseline by more than `PERFGATE_TOLERANCE` (fractional, default
//!   0.10 = 10% regression allowed) plus `PERFGATE_ABS_SLACK_S`
//!   (absolute seconds, default 0.05 — a purely relative gate on a
//!   milliseconds-scale section is scheduler-jitter-dominated, while
//!   50 ms is far below any real regression in these benches);
//! * **fatal comparisons** (digests, admitted-lease counts, record
//!   counts, schema tags) fail on any mismatch regardless of tolerance
//!   — a perf gate must never wave through a correctness drift;
//! * `PERFGATE_INJECT_SLEEP_MS` injects a synthetic slowdown into every
//!   measured section, which is how `scripts/perfgate.sh`'s own failure
//!   path is tested end to end.
//!
//! Env knobs are read once at [`Gate::from_env`]; malformed values are
//! a usage error (exit 2), not a silent fallback.

use opml_profiler::Json;

/// Gate state for one bench run.
pub struct Gate {
    /// `--check` seen on the command line.
    pub check: bool,
    /// Allowed fractional wall-time regression (`PERFGATE_TOLERANCE`).
    pub tolerance: f64,
    /// Min-of-K run count in check mode (`PERFGATE_RUNS`).
    pub runs: usize,
    /// Absolute wall slack in seconds (`PERFGATE_ABS_SLACK_S`).
    pub abs_slack_s: f64,
    /// Synthetic slowdown per measured section, in milliseconds.
    pub inject_sleep_ms: u64,
    failures: Vec<String>,
    comparisons: usize,
}

fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => match raw.trim().parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("perfgate: {name} must be a number, got `{raw}`");
                std::process::exit(2);
            }
        },
    }
}

impl Gate {
    /// Build a gate from the command line and environment.
    /// `default_runs` is the bench's min-of-K default (cheap benches
    /// use 3; the semester sweep defaults to 2).
    pub fn from_env(args: &[String], default_runs: usize) -> Gate {
        let check = args.iter().any(|a| a == "--check");
        let tolerance: f64 = env_parse("PERFGATE_TOLERANCE", 0.10);
        if !(0.0..=100.0).contains(&tolerance) {
            eprintln!("perfgate: PERFGATE_TOLERANCE must be in [0, 100], got {tolerance}");
            std::process::exit(2);
        }
        Gate {
            check,
            tolerance,
            runs: env_parse::<usize>("PERFGATE_RUNS", default_runs).max(1),
            abs_slack_s: env_parse::<f64>("PERFGATE_ABS_SLACK_S", 0.05).max(0.0),
            inject_sleep_ms: env_parse("PERFGATE_INJECT_SLEEP_MS", 0),
            failures: Vec::new(),
            comparisons: 0,
        }
    }

    /// Min-of-K count for the measured sections: K in check mode, a
    /// single run otherwise (normal mode regenerates the baseline the
    /// way it always did).
    pub fn measure_runs(&self) -> usize {
        if self.check {
            self.runs
        } else {
            1
        }
    }

    /// Synthetic slowdown hook; call inside every measured section.
    /// No-op unless check mode set `PERFGATE_INJECT_SLEEP_MS`.
    pub fn inject_sleep(&self) {
        if self.check && self.inject_sleep_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.inject_sleep_ms));
        }
    }

    /// Parse a committed baseline file.
    pub fn load_baseline(&self, path: &str) -> Json {
        let raw = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!(
                    "perfgate: cannot read baseline {path}: {e}\n\
                     (run the bench once without --check to regenerate it)"
                );
                std::process::exit(2);
            }
        };
        match Json::parse(&raw) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perfgate: baseline {path} is not valid JSON: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Tolerance-gated wall-time comparison.
    pub fn wall(&mut self, label: &str, measured_s: f64, baseline_s: f64) {
        self.comparisons += 1;
        let limit = baseline_s * (1.0 + self.tolerance) + self.abs_slack_s;
        if measured_s > limit {
            self.failures.push(format!(
                "{label}: wall {measured_s:.4}s exceeds baseline {baseline_s:.4}s \
                 by more than {:.0}% (limit {limit:.4}s)",
                self.tolerance * 100.0
            ));
        } else {
            eprintln!(
                "perfgate: {label} ok — {measured_s:.4}s vs baseline {baseline_s:.4}s \
                 (limit {limit:.4}s)"
            );
        }
    }

    /// Tolerance-independent comparison: digests, counts, schema tags.
    pub fn fatal(&mut self, label: &str, ok: bool, detail: &str) {
        self.comparisons += 1;
        if !ok {
            self.failures.push(format!(
                "{label}: {detail} (fatal: tolerance does not apply)"
            ));
        }
    }

    /// Print the verdict; exit nonzero when anything failed.
    pub fn finish(self, bench: &str) {
        if self.failures.is_empty() {
            eprintln!(
                "perfgate({bench}): PASS — {} comparisons, tolerance {:.0}%, min of {} run(s)",
                self.comparisons,
                self.tolerance * 100.0,
                self.runs
            );
        } else {
            for f in &self.failures {
                eprintln!("perfgate({bench}): FAIL — {f}");
            }
            std::process::exit(1);
        }
    }
}

/// Run `f` `runs` times and keep the result of the fastest run.
pub fn min_of<R>(runs: usize, mut f: impl FnMut() -> (R, f64)) -> (R, f64) {
    let (mut best, mut best_wall) = f();
    for _ in 1..runs {
        let (r, wall) = f();
        if wall < best_wall {
            best = r;
            best_wall = wall;
        }
    }
    (best, best_wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_gate(tolerance: f64) -> Gate {
        Gate {
            check: true,
            tolerance,
            runs: 1,
            abs_slack_s: 0.0,
            inject_sleep_ms: 0,
            failures: Vec::new(),
            comparisons: 0,
        }
    }

    #[test]
    fn abs_slack_absorbs_jitter_on_tiny_sections() {
        let mut g = quiet_gate(0.10);
        g.abs_slack_s = 0.05;
        // 14 ms baseline, 20 ms measured: >40% relative, inside slack.
        g.wall("tiny", 0.020, 0.014);
        assert!(g.failures.is_empty());
        // An injected 400 ms slowdown still trips the gate.
        g.wall("tiny", 0.414, 0.014);
        assert_eq!(g.failures.len(), 1);
    }

    #[test]
    fn wall_within_tolerance_passes() {
        let mut g = quiet_gate(0.10);
        g.wall("x", 1.05, 1.0);
        assert!(g.failures.is_empty());
        g.wall("x", 1.2, 1.0);
        assert_eq!(g.failures.len(), 1);
    }

    #[test]
    fn fatal_ignores_tolerance() {
        let mut g = quiet_gate(100.0);
        g.fatal("digest", false, "mismatch");
        assert_eq!(g.failures.len(), 1);
    }

    #[test]
    fn min_of_keeps_fastest() {
        let mut walls = vec![3.0, 1.0, 2.0].into_iter();
        let (tag, wall) = min_of(3, || {
            let w = walls.next().unwrap_or(9.0);
            (w as u64, w)
        });
        assert_eq!(wall, 1.0);
        assert_eq!(tag, 1);
    }
}
