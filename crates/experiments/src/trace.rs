//! Trace capture for `run-experiments trace`: run a semester with
//! telemetry recording, export the event stream as JSONL and Chrome
//! trace-event JSON, and snapshot the metrics.

use opml_cohort::semester::{simulate_semester_with, SemesterConfig, SemesterOutcome};
use opml_simkernel::SimTime;
use opml_telemetry::{
    export_chrome_trace, export_jsonl, MetricsSnapshot, Telemetry, HARNESS_TRACK, TRACK_ATTR,
};

/// What to trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Semester seed.
    pub seed: u64,
    /// Cohort size (default 191; the trace smoke run uses a handful).
    pub enrollment: u32,
    /// Skip the project phase (Table 1 scope).
    pub labs_only: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            seed: 42,
            enrollment: 191,
            labs_only: false,
        }
    }
}

/// Captured trace artifacts, ready to write to disk.
#[derive(Debug)]
pub struct TraceArtifacts {
    /// One JSON object per event, in emission (sequence) order.
    pub jsonl: String,
    /// Chrome trace-event document (Perfetto-loadable).
    pub chrome: String,
    /// Number of recorded events.
    pub events: usize,
    /// Metrics recorded during the run.
    pub metrics: MetricsSnapshot,
    /// The simulated semester's outcome (for narration/summary).
    pub outcome: SemesterOutcome,
}

/// Run the configured semester with a recording handle and export both
/// trace formats. Byte-deterministic: the same config produces identical
/// `jsonl`/`chrome` strings on every run and thread count.
pub fn capture_trace(config: &TraceConfig) -> TraceArtifacts {
    let telemetry = Telemetry::recording();
    let sem_config = SemesterConfig {
        enrollment: config.enrollment,
        run_projects: !config.labs_only,
        ..SemesterConfig::paper_course()
    };
    let stage = telemetry.span(SimTime::ZERO, "stage.semester", || {
        vec![
            (TRACK_ATTR, HARNESS_TRACK.into()),
            ("seed", config.seed.into()),
            ("enrollment", config.enrollment.into()),
            ("labs_only", config.labs_only.into()),
        ]
    });
    let outcome = simulate_semester_with(&sem_config, config.seed, &telemetry);
    let end = SimTime::at(sem_config.weeks + 1, 0, 0, 0);
    stage.end(end);
    let events = telemetry.take_events();
    TraceArtifacts {
        jsonl: export_jsonl(&events),
        chrome: export_chrome_trace(&events),
        events: events.len(),
        metrics: telemetry.metrics_snapshot(),
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TraceConfig {
        TraceConfig {
            seed: 7,
            enrollment: 3,
            labs_only: true,
        }
    }

    #[test]
    fn capture_is_byte_deterministic() {
        let a = capture_trace(&tiny());
        let b = capture_trace(&tiny());
        assert_eq!(a.jsonl, b.jsonl);
        assert_eq!(a.chrome, b.chrome);
        assert!(a.events > 0);
        assert!(!a.metrics.counters.is_empty());
    }

    #[test]
    fn harness_stage_wraps_the_run() {
        let art = capture_trace(&tiny());
        let first = art.jsonl.lines().next().expect("events recorded");
        assert!(
            first.contains("\"name\":\"stage.semester\"") && first.contains("\"ph\":\"B\""),
            "first event opens the harness stage span: {first}"
        );
        assert!(art.chrome.contains("\"name\":\"stage.semester\""));
        // Harness events live on tid 2 in the Chrome export.
        assert!(art.chrome.contains("\"tid\":2"));
    }
}
