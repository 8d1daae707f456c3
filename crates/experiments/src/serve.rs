//! Service-mode soak harness (`run-experiments serve`).
//!
//! Wraps [`opml_serve::run_service`] with the same operational contract
//! as the chaos and scale subcommands: the whole soak is pinned to one
//! rayon pool via [`opml_simkernel::parallel::with_thread_count`], the
//! report's counts subtree is digested (byte-identical across reruns
//! and thread counts), and the rendered text reuses the shared latency
//! table so serve, chaos, and the metrics summary all read alike.

use opml_profiler::timed;
use opml_report::latency::{latency_table, LatencyUnit};
use opml_report::table::Table;
use opml_serve::{run_service, OpKind, ServeConfig, ServeReport};
use opml_simkernel::parallel;

/// One soak request: the service config plus harness knobs.
#[derive(Debug, Clone)]
pub struct ServeRunConfig {
    /// The service configuration (seed, ramp, gates, faults).
    pub config: ServeConfig,
    /// Rayon threads the soak is pinned to.
    pub threads: usize,
}

impl Default for ServeRunConfig {
    fn default() -> ServeRunConfig {
        ServeRunConfig {
            config: ServeConfig::default(),
            threads: 1,
        }
    }
}

/// Soak outcome: the sealed report, rendered tables, and the
/// `serve.json` document.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// The sealed service report.
    pub report: ServeReport,
    /// Rendered summary tables.
    pub text: String,
    /// The `serve.json` document (digested counts subtree inline).
    pub json: String,
    /// Wall-clock seconds for the soak (not digested).
    pub wall_s: f64,
}

/// Run the soak under a pinned pool and render the report.
pub fn run(cfg: &ServeRunConfig) -> ServeRun {
    let (report, wall_s) =
        timed(|| parallel::with_thread_count(cfg.threads, || run_service(&cfg.config)));
    let text = render_text(&report);
    let json = render_json(&report, cfg.threads, wall_s, opml_profiler::peak_rss_kb());
    ServeRun {
        report,
        text,
        json,
        wall_s,
    }
}

fn render_text(report: &ServeReport) -> String {
    let c = &report.counts;
    let mut out = String::new();

    let mut rounds = Table::new(&[
        "round",
        "rps",
        "generated",
        "completed",
        "shed",
        "rejected",
        "timed out",
        "failed",
        "retries",
        "fail %",
        "p99 s",
        "sustainable",
    ]);
    for r in &c.rounds {
        rounds.row(&[
            r.round.to_string(),
            r.offered_rps.to_string(),
            r.counts.generated.to_string(),
            r.counts.completed.to_string(),
            r.counts.shed.to_string(),
            r.counts.rejected.to_string(),
            r.counts.timed_out.to_string(),
            r.counts.failed.to_string(),
            r.retries.to_string(),
            format!("{:.1}", r.failure_ppm as f64 / 10_000.0),
            r.latency.p99_s.to_string(),
            if r.sustainable { "yes" } else { "no" }.to_string(),
        ]);
    }
    out.push_str(&rounds.render());

    let mut kinds = Table::new(&[
        "op kind",
        "generated",
        "completed",
        "shed",
        "rejected",
        "timed out",
        "failed",
        "injected",
        "sustained ops/s",
    ]);
    for k in &c.per_kind {
        kinds.row(&[
            k.kind.clone(),
            k.counts.generated.to_string(),
            k.counts.completed.to_string(),
            k.counts.shed.to_string(),
            k.counts.rejected.to_string(),
            k.counts.timed_out.to_string(),
            k.counts.failed.to_string(),
            k.injected.to_string(),
            format!("{:.3}", k.sustained_milli_ops_per_sec as f64 / 1_000.0),
        ]);
    }
    out.push('\n');
    out.push_str(&kinds.render());

    let mut tenants = Table::new(&[
        "tenant",
        "priority",
        "generated",
        "completed",
        "shed",
        "rejected",
        "breaker rejects",
        "breaker trips",
    ]);
    for t in &c.per_tenant {
        tenants.row(&[
            t.tenant.to_string(),
            t.priority.to_string(),
            t.counts.generated.to_string(),
            t.counts.completed.to_string(),
            t.counts.shed.to_string(),
            t.counts.rejected.to_string(),
            t.breaker_rejects.to_string(),
            t.breaker_trips.to_string(),
        ]);
    }
    out.push('\n');
    out.push_str(&tenants.render());

    // Same table shape as the metrics summary and the chaos arms, in
    // service-mode units (a tick is a second here).
    out.push_str("\nsim-time latency (completed ops):\n");
    let order = ["overall"]
        .into_iter()
        .chain(OpKind::ALL.iter().map(|k| k.name()));
    out.push_str(&latency_table(
        "latency",
        LatencyUnit::Seconds,
        order.filter_map(|name| report.histograms.get(name).map(|h| (name, h))),
    ));

    out.push_str(&format!(
        "\nstopped at round {} ({}); max sustainable rate {} ops/s; \
         peak queue depth {}\n",
        c.stop_round, c.stop_reason, c.max_sustainable_rps, c.peak_queue_depth,
    ));
    out
}

/// Assemble `serve.json`: the digested counts subtree verbatim, the
/// digest as zero-padded hex, and non-digested harness facts (threads,
/// wall, RSS) outside the subtree.
fn render_json(
    report: &ServeReport,
    threads: usize,
    wall_s: f64,
    peak_rss_kb: Option<u64>,
) -> String {
    let rss = match peak_rss_kb {
        Some(kb) => kb.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"counts\": {counts},\n  \
         \"counts_digest\": \"{digest:016x}\",\n  \"threads\": {threads},\n  \
         \"wall_s\": {wall_s:.3},\n  \"peak_rss_kb\": {rss}\n}}\n",
        schema = opml_serve::SERVE_SCHEMA,
        counts = report.counts_json,
        digest = report.counts_digest,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeRunConfig {
        ServeRunConfig {
            config: ServeConfig {
                tenants: 3,
                servers: 8,
                queue_bound: 16,
                target_rps: 2,
                increment_rps: 2,
                max_rps: 6,
                round_secs: 15,
                ..ServeConfig::default()
            },
            threads: 2,
        }
    }

    #[test]
    fn renders_tables_and_digest_json() {
        let run = run(&tiny());
        for needle in [
            "round",
            "op kind",
            "tenant",
            "p99 s",
            "launch",
            "quota_check",
            "max sustainable rate",
        ] {
            assert!(
                run.text.contains(needle),
                "`{needle}` missing:\n{}",
                run.text
            );
        }
        assert!(run.json.contains("\"schema\": \"serve/v1\""));
        assert!(run.json.contains("\"counts_digest\": \""));
        // The digested subtree is embedded verbatim.
        assert!(run.json.contains(&run.report.counts_json));
    }

    #[test]
    fn json_counts_subtree_is_rerun_stable() {
        let a = run(&tiny());
        let b = run(&tiny());
        assert_eq!(a.report.counts_json, b.report.counts_json);
        assert_eq!(a.report.counts_digest, b.report.counts_digest);
    }
}
