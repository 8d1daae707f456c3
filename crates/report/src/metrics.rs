//! Rendering of telemetry metrics snapshots as summary tables
//! (the `--metrics` flag of `run-experiments`).

use crate::latency::{latency_table, LatencyUnit};
use crate::table::Table;
use opml_telemetry::MetricsSnapshot;

/// Render a metrics snapshot as ASCII tables: counters, gauges, and one
/// row per histogram (count/mean/p50/p90/p99/max, percentiles being
/// bucket upper bounds — see `SimTimeHistogram::percentile_minutes`).
/// Sections with no entries are omitted; an entirely empty snapshot
/// renders a placeholder line.
pub fn metrics_summary(snapshot: &MetricsSnapshot) -> String {
    if snapshot.is_empty() {
        return "(no metrics recorded)\n".to_string();
    }
    let mut out = String::new();
    if !snapshot.counters.is_empty() {
        let mut t = Table::new(&["counter", "value"]);
        for (name, value) in &snapshot.counters {
            t.row(&[name.to_string(), value.to_string()]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    if !snapshot.gauges.is_empty() {
        let mut t = Table::new(&["gauge", "value"]);
        for (name, value) in &snapshot.gauges {
            t.row(&[name.to_string(), format!("{value:.1}")]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    if !snapshot.histograms.is_empty() {
        out.push_str(&latency_table(
            "histogram (sim time)",
            LatencyUnit::Hours,
            snapshot.histograms.iter().map(|(&n, h)| (n, h)),
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use opml_simkernel::SimDuration;
    use opml_telemetry::Telemetry;

    #[test]
    fn empty_snapshot_renders_placeholder() {
        assert_eq!(
            metrics_summary(&MetricsSnapshot::default()),
            "(no metrics recorded)\n"
        );
    }

    #[test]
    fn sections_render_sorted_and_stable() {
        let t = Telemetry::metrics_only();
        t.counter_add("z.count", 2);
        t.counter_add("a.count", 40);
        t.gauge_set("depth", 3.0);
        t.observe("wait", SimDuration::hours(2));
        t.observe("wait", SimDuration::hours(4));
        let out = metrics_summary(&t.metrics_snapshot());
        let a = out.find("a.count").expect("a.count rendered");
        let z = out.find("z.count").expect("z.count rendered");
        assert!(a < z, "counters must render name-sorted");
        assert!(out.contains("depth"));
        assert!(out.contains("3.00"), "mean of 2h and 4h is 3.00: {out}");
        assert!(out.contains("p50 h") && out.contains("p99 h"));
        assert_eq!(out, metrics_summary(&t.metrics_snapshot()));
    }

    #[test]
    fn histogram_row_renders_percentile_bounds() {
        let t = Telemetry::metrics_only();
        // 100 uniform samples 1..=100 min: p50 bound 60 min = 1.00 h,
        // p90/p99 clamp to the 100-minute max = 1.67 h.
        for m in 1..=100 {
            t.observe("wait", SimDuration::minutes(m));
        }
        let out = metrics_summary(&t.metrics_snapshot());
        let row = out
            .lines()
            .find(|l| l.contains("wait"))
            .expect("wait histogram row");
        assert!(row.contains("1.00"), "p50 bound missing: {row}");
        assert!(row.contains("1.67"), "p90/p99 bound missing: {row}");
    }
}
