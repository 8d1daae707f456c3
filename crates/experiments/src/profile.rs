//! Self-profiling of the semester simulator: the `run-experiments
//! profile` subcommand.
//!
//! A profiled run executes one sharded semester with telemetry
//! recording, the wall-phase profiler enabled, the counting allocator
//! attributing (when the `alloc-profile` feature installed it), and a
//! background RSS sampler. It emits three artifacts:
//!
//! * `profile.json` — schema `opml_profile/v2`. Its `counts` subtree is
//!   a *canonical compact JSON string* covering every deterministic
//!   quantity (span paths with sim-time attribution, per-shard event
//!   breakdowns, phase enter counts, ledger record count, ...); the
//!   digest in `counts_digest` is FNV-1a over exactly those bytes, so
//!   "two runs produced the same counts" is one string compare. The
//!   `alloc` subtree is digested the same way (`alloc_digest`):
//!   per-phase allocation counts over the user phases, invariant
//!   across runs *and* thread counts now that pool bookkeeping is
//!   fenced into `runtime.pool`. Wall times, RSS, and thread counts
//!   live outside both digested subtrees.
//! * `profile.folded` — flamegraph.pl/inferno-compatible folded stacks
//!   weighted by sim-minute self time (deterministic bytes).
//! * a human-readable table (stdout) splitting host wall time into
//!   `shard.sim` vs the `merge.*` phases — the sharded-slower-than-
//!   serial anomaly made visible.

use std::time::Duration;

use opml_cohort::semester::{
    simulate_semester_with, SemesterConfig, SemesterOutcome, SEMESTER_END,
};
use opml_profiler::{
    profile_spans, shard_breakdown, timed, PhaseStat, RssSample, RssSampler, ShardBreakdown,
    SpanProfile,
};
use opml_report::Table;
use opml_simkernel::parallel::{effective_thread_count, with_thread_count};
use opml_simkernel::{fnv1a64, SimTime};
use opml_telemetry::{Telemetry, HARNESS_TRACK, TRACK_ATTR};
use serde_json::{json, Value};

/// Schema tag written into `profile.json`.
pub const PROFILE_SCHEMA: &str = "opml_profile/v2";

/// How often the background sampler reads RSS.
const RSS_SAMPLE_INTERVAL: Duration = Duration::from_millis(25);

/// What to profile.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Semester seed.
    pub seed: u64,
    /// Cohort size.
    pub enrollment: u32,
    /// Students per shard (the sharded-path default).
    pub shard_students: u32,
    /// Rayon thread count to pin for the run.
    pub threads: usize,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            seed: 42,
            enrollment: 10_000,
            shard_students: SemesterConfig::paper_course().shard_students,
            threads: 2,
        }
    }
}

/// Everything a profiled run produces.
#[derive(Debug)]
pub struct ProfileReport {
    /// Full `profile.json` document.
    pub json: String,
    /// The canonical `counts` substring (digested bytes).
    pub counts_json: String,
    /// FNV-1a digest of `counts_json`.
    pub counts_digest: u64,
    /// The canonical `alloc` substring: per-phase allocation counts
    /// over the user phases (digested bytes; all zeros unless the
    /// counting allocator is installed).
    pub alloc_json: String,
    /// FNV-1a digest of `alloc_json`.
    pub alloc_digest: u64,
    /// `profile.folded` contents.
    pub folded: String,
    /// Human-readable report.
    pub text: String,
    /// Recorded telemetry events.
    pub events: u64,
}

/// Run one profiled semester and assemble the artifacts.
pub fn run(config: &ProfileConfig) -> ProfileReport {
    opml_profiler::reset();
    opml_profiler::reset_totals();
    // Pool bookkeeping goes to `runtime.pool` before any allocation is
    // attributed: that is what keeps the user-phase alloc counts
    // thread-count invariant.
    opml_profiler::install_pool_attribution();
    opml_profiler::enable();
    let alloc_counted = opml_profiler::counting_allocator_installed();
    if alloc_counted {
        opml_profiler::enable_counting();
    }
    let sampler = RssSampler::start(RSS_SAMPLE_INTERVAL);

    let telemetry = Telemetry::recording();
    // Labs only: the sharded sweep the profiler exists to explain is
    // labs-only, like `scale`.
    let sem = SemesterConfig {
        enrollment: config.enrollment,
        run_projects: false,
        shard_students: config.shard_students,
        ..SemesterConfig::paper_course()
    };
    let stage = telemetry.span(SimTime::ZERO, "stage.profile", || {
        vec![
            (TRACK_ATTR, HARNESS_TRACK.into()),
            ("seed", config.seed.into()),
            ("enrollment", config.enrollment.into()),
        ]
    });
    let ((outcome, effective_threads), wall_total_s) = timed(|| {
        with_thread_count(config.threads, || {
            (
                simulate_semester_with(&sem, config.seed, &telemetry),
                effective_thread_count(),
            )
        })
    });
    stage.end(SEMESTER_END);

    opml_profiler::disable_counting();
    opml_profiler::disable();
    let rss_samples = sampler.stop();
    let events = telemetry.take_events();

    let spans = profile_spans(&events);
    let shards = shard_breakdown(&events);
    let phases = opml_profiler::phase_report();

    let counts_json = render_counts(config, &outcome, &spans, &shards, &phases);
    let counts_digest = fnv1a64(counts_json.as_bytes());
    let alloc_json = render_alloc(&phases);
    let alloc_digest = fnv1a64(alloc_json.as_bytes());
    let folded = spans.to_folded();
    let json = render_json(
        config,
        &counts_json,
        counts_digest,
        &alloc_json,
        alloc_digest,
        alloc_counted,
        effective_threads,
        wall_total_s,
        &phases,
        opml_profiler::peak_rss_kb(),
        &rss_samples,
    );
    let text = render_text(
        config,
        &spans,
        &shards,
        &phases,
        wall_total_s,
        effective_threads,
        counts_digest,
        alloc_counted,
    );

    ProfileReport {
        json,
        counts_json,
        counts_digest,
        alloc_json,
        alloc_digest,
        folded,
        text,
        events: spans.events,
    }
}

/// The phases both digested subtrees cover: every phase but
/// `(unattributed)` and `runtime.pool` (see [`render_counts`] and
/// [`render_alloc`] for why those two are excluded).
fn user_phases(phases: &[PhaseStat]) -> impl Iterator<Item = &PhaseStat> {
    phases.iter().filter(|p| {
        p.name != opml_profiler::UNATTRIBUTED_NAME && p.name != opml_profiler::phases::RUNTIME_POOL
    })
}

/// The canonical, digested `counts` subtree: compact JSON, fixed field
/// order, deterministic across runs and thread counts. Wall times, RSS
/// and anything host-dependent are excluded by construction.
///
/// `phase_enters` skips two phases whose enter counts are not part of
/// the determinism contract: `(unattributed)` (the RSS sampler's
/// background thread lands there) and `runtime.pool` (one enter per
/// pool dispatch bracket per participating thread — thread-count
/// dependent by nature). Everything else is invariant. Phase
/// *allocation* counts live in the separately-digested `alloc` subtree
/// (see [`render_alloc`]); the full per-phase numbers including the
/// excluded phases stay visible in the non-digested `wall.phases`
/// section.
fn render_counts(
    config: &ProfileConfig,
    outcome: &SemesterOutcome,
    spans: &SpanProfile,
    shards: &ShardBreakdown,
    phases: &[PhaseStat],
) -> String {
    let span_paths: Vec<Value> = spans
        .paths
        .iter()
        .map(|p| {
            json!({
                "path": p.path,
                "count": p.count,
                "total_min": p.total_min,
                "self_min": p.self_min,
            })
        })
        .collect();
    let instant_paths: Vec<Value> = spans
        .instant_paths
        .iter()
        .map(|(path, count)| json!({ "path": path, "count": count }))
        .collect();
    let shard_rows: Vec<Value> = shards
        .shards
        .iter()
        .map(|s| {
            json!({
                "shard": s.shard,
                "events": s.events,
                "instants": s.instants,
                "queue_pops": s.queue_pops,
                "quota_denials": s.quota_denials,
            })
        })
        .collect();
    let phase_enters: Vec<Value> = user_phases(phases)
        .map(|p| json!({ "phase": p.name, "enters": p.enters }))
        .collect();
    let counts = json!({
        "seed": config.seed,
        "enrollment": config.enrollment,
        "shard_students": config.shard_students,
        // Always false (the profile is labs-only), but part of the
        // digested bytes that the committed golden covers.
        "run_projects": false,
        "events": spans.events,
        "instants": spans.instants,
        "begins": spans.begins,
        "ends": spans.ends,
        "unbalanced_ends": spans.unbalanced_ends,
        "open_at_end": spans.open_at_end,
        "harness_events": shards.harness_events,
        "preamble_events": shards.preamble_events,
        "records": outcome.ledger.records().len(),
        "quota_denials": outcome.quota_denials,
        "slot_pushbacks": outcome.slot_pushbacks,
        "span_paths": span_paths,
        "instant_paths": instant_paths,
        "shards": shard_rows,
        "phase_enters": phase_enters,
    });
    // The vendored writer is infallible.
    serde_json::to_string(&counts).unwrap_or_default()
}

/// The canonical, digested `alloc` subtree: per-phase allocation and
/// deallocation counts/bytes over the **user** phases, compact JSON in
/// phase-report (name-sorted) order.
///
/// Two phases are excluded, and their exclusion is what makes the rest
/// digestable: `runtime.pool` collects the pool dispatch machinery
/// (worker result buffers are chunked by thread count, so its numbers
/// legitimately vary with `--threads`), and `(unattributed)` absorbs
/// the RSS sampler's background thread (sample count varies with wall
/// time). Every phase that remains — `shard.sim`, the `merge.*`
/// stages — allocates identically at any thread count for a fixed seed
/// and config. With the counting allocator absent the subtree is all
/// zeros (and the digest is the stable all-zeros digest).
fn render_alloc(phases: &[PhaseStat]) -> String {
    let rows: Vec<Value> = user_phases(phases)
        .map(|p| {
            json!({
                "phase": p.name,
                "allocs": p.allocs,
                "alloc_bytes": p.alloc_bytes,
                "deallocs": p.deallocs,
                "dealloc_bytes": p.dealloc_bytes,
            })
        })
        .collect();
    // The vendored writer is infallible.
    serde_json::to_string(&json!({ "phases": rows })).unwrap_or_default()
}

/// The full `profile.json` document. The digested `counts` and `alloc`
/// strings are embedded verbatim; everything else is explicitly
/// host-dependent.
#[allow(clippy::too_many_arguments)]
fn render_json(
    config: &ProfileConfig,
    counts_json: &str,
    counts_digest: u64,
    alloc_json: &str,
    alloc_digest: u64,
    alloc_counted: bool,
    effective_threads: usize,
    wall_total_s: f64,
    phases: &[PhaseStat],
    peak_rss_kb: Option<u64>,
    rss_samples: &[RssSample],
) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{PROFILE_SCHEMA}\",\n"));
    out.push_str(&format!("  \"counts\": {counts_json},\n"));
    out.push_str(&format!("  \"counts_digest\": \"{counts_digest:016x}\",\n"));
    out.push_str(&format!("  \"alloc\": {alloc_json},\n"));
    out.push_str(&format!("  \"alloc_digest\": \"{alloc_digest:016x}\",\n"));
    out.push_str(&format!("  \"alloc_counted\": {alloc_counted},\n"));
    out.push_str(&format!(
        "  \"threads\": {{\"requested\": {}, \"effective\": {}}},\n",
        config.threads, effective_threads
    ));
    out.push_str(&format!(
        "  \"wall\": {{\"total_s\": {wall_total_s:.6}, \"phases\": ["
    ));
    for (i, p) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"phase\": ");
        serde_json::write_escaped(&mut out, p.name);
        out.push_str(&format!(
            ", \"enters\": {}, \"wall_s\": {:.6}, \"allocs\": {}, \"alloc_bytes\": {}, \
             \"deallocs\": {}, \"dealloc_bytes\": {}}}",
            p.enters,
            p.wall_s(),
            p.allocs,
            p.alloc_bytes,
            p.deallocs,
            p.dealloc_bytes
        ));
    }
    out.push_str("\n  ]},\n");
    match peak_rss_kb {
        Some(kb) => out.push_str(&format!("  \"rss\": {{\"peak_kb\": {kb}, \"samples\": [")),
        None => out.push_str("  \"rss\": {\"peak_kb\": null, \"samples\": ["),
    }
    for (i, s) in rss_samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"ms\": {}, \"kb\": {}}}",
            s.elapsed_ms, s.rss_kb
        ));
    }
    out.push_str("\n  ]}\n}\n");
    out
}

/// Human-readable profile: sim-time attribution, shard imbalance, and
/// the host wall-time phase split.
#[allow(clippy::too_many_arguments)]
fn render_text(
    config: &ProfileConfig,
    spans: &SpanProfile,
    shards: &ShardBreakdown,
    phases: &[PhaseStat],
    wall_total_s: f64,
    effective_threads: usize,
    counts_digest: u64,
    alloc_counted: bool,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "profile: seed {}, {} students ({} per shard), threads {} (effective {})\n\n",
        config.seed, config.enrollment, config.shard_students, config.threads, effective_threads
    ));

    out.push_str("-- sim-time span attribution (deterministic) --\n");
    let mut t = Table::new(&["span path", "count", "total simh", "self simh"]);
    for p in &spans.paths {
        t.row(&[
            p.path.clone(),
            p.count.to_string(),
            format!("{:.1}", p.total_min as f64 / 60.0),
            format!("{:.1}", p.self_min as f64 / 60.0),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\n-- shard breakdown (deterministic) --\n");
    if shards.shards.is_empty() {
        out.push_str("(single-shard run: no shard segmentation)\n");
    } else if shards.shards.len() <= 16 {
        let mut t = Table::new(&["shard", "events", "instants", "queue pops", "quota denials"]);
        for s in &shards.shards {
            t.row(&[
                s.shard.map_or("-".to_string(), |k| k.to_string()),
                s.events.to_string(),
                s.instants.to_string(),
                s.queue_pops.to_string(),
                s.quota_denials.to_string(),
            ]);
        }
        out.push_str(&t.render());
    } else {
        let n = shards.shards.len() as u64;
        let total: u64 = shards.shards.iter().map(|s| s.events).sum();
        let (min, max) = shards.imbalance().unwrap_or((0, 0));
        out.push_str(&format!(
            "{n} shards, {total} events total; events/shard min {min}, mean {:.0}, max {max} \
             (imbalance {:.2}x)\n",
            total as f64 / n as f64,
            if min > 0 {
                max as f64 / min as f64
            } else {
                f64::NAN
            },
        ));
    }

    out.push_str("\n-- host wall-time phases (not deterministic) --\n");
    let mut t = Table::new(&["phase", "enters", "wall s", "allocs", "alloc MB"]);
    for p in phases {
        t.row(&[
            p.name.to_string(),
            p.enters.to_string(),
            format!("{:.3}", p.wall_s()),
            p.allocs.to_string(),
            format!("{:.1}", p.alloc_bytes as f64 / 1e6),
        ]);
    }
    out.push_str(&t.render());
    let shard_wall: f64 = phases
        .iter()
        .filter(|p| p.name == opml_profiler::phases::SHARD_SIM)
        .map(PhaseStat::wall_s)
        .sum();
    let merge_wall: f64 = phases
        .iter()
        .filter(|p| p.name.starts_with("merge."))
        .map(PhaseStat::wall_s)
        .sum();
    out.push_str(&format!(
        "wall total {wall_total_s:.3} s; shard.sim (summed over shards) {shard_wall:.3} s, \
         merge.* {merge_wall:.3} s ({:.0}% of wall)\n",
        merge_wall / wall_total_s.max(1e-9) * 100.0
    ));
    if !alloc_counted {
        out.push_str(
            "allocation columns are zero: counting allocator not installed \
             (build run-experiments with --features alloc-profile)\n",
        );
    }
    out.push_str(&format!("counts digest: {counts_digest:016x}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProfileConfig {
        ProfileConfig {
            seed: 7,
            enrollment: 500,
            threads: 2,
            ..ProfileConfig::default()
        }
    }

    #[test]
    fn profile_emits_all_artifacts() {
        let report = run(&tiny());
        assert!(report.events > 0);
        assert!(report.json.contains(PROFILE_SCHEMA));
        assert!(report
            .json
            .contains(&format!("{:016x}", report.counts_digest)));
        assert!(
            report.folded.lines().count() >= 2,
            "folded: {}",
            report.folded
        );
        // The merge phases must be named separately from shard simulation.
        assert!(report.text.contains("shard.sim"));
        assert!(report.text.contains("merge.replay_restamp"));
        assert!(report.text.contains("merge.ledger"));
    }

    #[test]
    fn profile_json_parses_and_counts_round_trip() {
        let report = run(&tiny());
        let doc = opml_profiler::Json::parse(&report.json).expect("profile.json parses");
        assert_eq!(
            doc.get("schema").and_then(opml_profiler::Json::as_str),
            Some(PROFILE_SCHEMA)
        );
        let counts = doc.get("counts").expect("counts subtree");
        assert!(counts.get("events").and_then(opml_profiler::Json::as_u64) == Some(report.events));
        // 500 students at the default shard size -> multiple shards.
        let shards = counts
            .get("shards")
            .and_then(opml_profiler::Json::as_array)
            .expect("shards");
        assert!(shards.len() >= 2, "expected multi-shard run");
    }
}
