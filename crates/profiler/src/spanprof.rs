//! Span-stream profiling: deterministic time attribution from the
//! recorded telemetry event stream.
//!
//! Everything here is computed from [`TelemetryEvent`]s stamped with
//! *sim time*, so every number (counts and sim-minute durations alike)
//! is byte-identical across runs and thread counts — unlike the
//! wall-clock phase profiler in [`crate::phase`]. The two views are
//! complementary: sim-time attribution says where the *modelled* time
//! goes; wall-phase attribution says where the *host* time goes.
//!
//! Span nesting is reconstructed per the Begin/End discipline of
//! `opml-telemetry` (well-nested per emitting handle; the merged
//! multi-shard stream replays shards in shard order, so each shard's
//! spans re-open and re-close the same paths and their stats
//! accumulate). Self time is total time minus the time of directly
//! nested child spans, saturating at zero.

use std::collections::BTreeMap;

use opml_telemetry::{AttrValue, EventPhase, TelemetryEvent};

/// Aggregated statistics for one span *path* (semicolon-joined chain of
/// span names from the outermost open span to this one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanPathStat {
    /// `outer;inner;leaf` — flamegraph.pl frame syntax.
    pub path: String,
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total sim-minutes spent inside spans at this path.
    pub total_min: u64,
    /// Sim-minutes not covered by directly nested child spans.
    pub self_min: u64,
}

/// Profile of a whole event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanProfile {
    /// Completed span paths, sorted by path.
    pub paths: Vec<SpanPathStat>,
    /// Instant-event paths (`parent_path;event_name` or bare name at
    /// top level) with occurrence counts, sorted by path.
    pub instant_paths: Vec<(String, u64)>,
    /// Total events seen.
    pub events: u64,
    /// Total instant events.
    pub instants: u64,
    /// Total span Begins.
    pub begins: u64,
    /// Total span Ends.
    pub ends: u64,
    /// `End` events whose name did not match the innermost open span
    /// (skipped, not attributed).
    pub unbalanced_ends: u64,
    /// Spans still open when the stream finished (not attributed).
    pub open_at_end: u64,
}

struct OpenSpan {
    name: &'static str,
    path: String,
    begin_min: u64,
    child_min: u64,
}

/// Reconstruct span nesting and attribute sim time per span path.
pub fn profile_spans(events: &[TelemetryEvent]) -> SpanProfile {
    let mut agg: BTreeMap<String, SpanPathStat> = BTreeMap::new();
    let mut instants: BTreeMap<String, u64> = BTreeMap::new();
    let mut stack: Vec<OpenSpan> = Vec::new();
    let mut profile = SpanProfile::default();

    for ev in events {
        profile.events += 1;
        match ev.phase {
            EventPhase::Begin => {
                profile.begins += 1;
                let path = match stack.last() {
                    Some(parent) => format!("{};{}", parent.path, ev.name),
                    None => ev.name.to_string(),
                };
                stack.push(OpenSpan {
                    name: ev.name,
                    path,
                    begin_min: ev.time.0,
                    child_min: 0,
                });
            }
            EventPhase::End => {
                profile.ends += 1;
                let matches = stack.last().is_some_and(|top| top.name == ev.name);
                if !matches {
                    profile.unbalanced_ends += 1;
                    continue;
                }
                let Some(top) = stack.pop() else { continue };
                let total = ev.time.0.saturating_sub(top.begin_min);
                let self_min = total.saturating_sub(top.child_min);
                let entry = agg.entry(top.path.clone()).or_insert_with(|| SpanPathStat {
                    path: top.path,
                    count: 0,
                    total_min: 0,
                    self_min: 0,
                });
                entry.count += 1;
                entry.total_min += total;
                entry.self_min += self_min;
                if let Some(parent) = stack.last_mut() {
                    parent.child_min = parent.child_min.saturating_add(total);
                }
            }
            EventPhase::Instant => {
                profile.instants += 1;
                let path = match stack.last() {
                    Some(parent) => format!("{};{}", parent.path, ev.name),
                    None => ev.name.to_string(),
                };
                *instants.entry(path).or_insert(0) += 1;
            }
        }
    }

    profile.open_at_end = stack.len() as u64;
    profile.paths = agg.into_values().collect();
    profile.instant_paths = instants.into_iter().collect();
    profile
}

impl SpanProfile {
    /// Render flamegraph.pl / inferno-compatible folded stacks, one
    /// `frame;frame value` line per span path, weighted by *self
    /// sim-minutes*. Deterministic: paths are emitted in sorted order.
    /// Zero-self paths are kept (they still show structure).
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for stat in &self.paths {
            out.push_str(&stat.path);
            out.push(' ');
            out.push_str(&stat.self_min.to_string());
            out.push('\n');
        }
        out
    }
}

/// Per-shard slice of a merged multi-shard event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStat {
    /// Shard index from the `semester.plan` span's `shard` attribute;
    /// `None` for a single-shard (unannotated) stream.
    pub shard: Option<u64>,
    /// Events attributed to this shard's segment.
    pub events: u64,
    /// Instant events in the segment.
    pub instants: u64,
    /// `queue.pop` instants — the shard's scheduling work.
    pub queue_pops: u64,
    /// Quota denials reported by the shard's `semester.finalize`.
    pub quota_denials: u64,
}

/// Shard-segmented view of a merged stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardBreakdown {
    /// Per-shard stats in stream (= shard) order.
    pub shards: Vec<ShardStat>,
    /// Harness-track events (never attributed to a shard).
    pub harness_events: u64,
    /// Events before the first shard segment opened.
    pub preamble_events: u64,
}

impl ShardBreakdown {
    /// (min, max) events across shards — the imbalance envelope.
    pub fn imbalance(&self) -> Option<(u64, u64)> {
        let min = self.shards.iter().map(|s| s.events).min()?;
        let max = self.shards.iter().map(|s| s.events).max()?;
        Some((min, max))
    }
}

/// Segment a merged event stream by shard. A `semester.plan` Begin
/// opens a new segment (its `shard` attribute names the shard; absent
/// for the single-shard path); every following non-harness event
/// belongs to that segment until the next `semester.plan` Begin.
pub fn shard_breakdown(events: &[TelemetryEvent]) -> ShardBreakdown {
    let mut out = ShardBreakdown::default();
    let mut current: Option<ShardStat> = None;

    for ev in events {
        if ev.is_harness_track() {
            out.harness_events += 1;
            continue;
        }
        if ev.phase == EventPhase::Begin && ev.name == "semester.plan" {
            if let Some(done) = current.take() {
                out.shards.push(done);
            }
            let shard = match ev.attr("shard") {
                Some(AttrValue::U64(n)) => Some(*n),
                _ => None,
            };
            current = Some(ShardStat {
                shard,
                events: 0,
                instants: 0,
                queue_pops: 0,
                quota_denials: 0,
            });
        }
        match current.as_mut() {
            Some(stat) => {
                stat.events += 1;
                if ev.phase == EventPhase::Instant {
                    stat.instants += 1;
                    if ev.name == "queue.pop" {
                        stat.queue_pops += 1;
                    } else if ev.name == "semester.finalize" {
                        if let Some(AttrValue::U64(n)) = ev.attr("quota_denials") {
                            stat.quota_denials = *n;
                        }
                    }
                }
            }
            None => out.preamble_events += 1,
        }
    }
    if let Some(done) = current.take() {
        out.shards.push(done);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use opml_simkernel::SimTime;

    fn ev(
        seq: u64,
        t: u64,
        phase: EventPhase,
        name: &'static str,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> TelemetryEvent {
        TelemetryEvent {
            seq,
            time: SimTime(t),
            phase,
            name,
            attrs,
        }
    }

    #[test]
    fn nested_spans_attribute_self_and_total() {
        let stream = vec![
            ev(0, 0, EventPhase::Begin, "outer", vec![]),
            ev(1, 10, EventPhase::Begin, "inner", vec![]),
            ev(2, 30, EventPhase::End, "inner", vec![]),
            ev(3, 100, EventPhase::End, "outer", vec![]),
        ];
        let p = profile_spans(&stream);
        assert_eq!(p.unbalanced_ends, 0);
        assert_eq!(p.open_at_end, 0);
        let outer = p.paths.iter().find(|s| s.path == "outer").expect("outer");
        let inner = p
            .paths
            .iter()
            .find(|s| s.path == "outer;inner")
            .expect("inner");
        assert_eq!(outer.total_min, 100);
        assert_eq!(outer.self_min, 80); // 100 - 20 nested
        assert_eq!(inner.total_min, 20);
        assert_eq!(inner.self_min, 20);
    }

    #[test]
    fn instants_are_counted_per_path() {
        let stream = vec![
            ev(0, 0, EventPhase::Begin, "exec", vec![]),
            ev(1, 5, EventPhase::Instant, "queue.pop", vec![]),
            ev(2, 6, EventPhase::Instant, "queue.pop", vec![]),
            ev(3, 9, EventPhase::End, "exec", vec![]),
            ev(4, 10, EventPhase::Instant, "loose", vec![]),
        ];
        let p = profile_spans(&stream);
        assert_eq!(p.instants, 3);
        assert_eq!(
            p.instant_paths,
            vec![("exec;queue.pop".to_string(), 2), ("loose".to_string(), 1)]
        );
    }

    #[test]
    fn unbalanced_end_is_skipped_not_misattributed() {
        let stream = vec![
            ev(0, 0, EventPhase::Begin, "a", vec![]),
            ev(1, 5, EventPhase::End, "b", vec![]),
        ];
        let p = profile_spans(&stream);
        assert_eq!(p.unbalanced_ends, 1);
        assert_eq!(p.open_at_end, 1);
        assert!(p.paths.is_empty());
    }

    #[test]
    fn folded_output_is_sorted_and_newline_terminated() {
        let stream = vec![
            ev(0, 0, EventPhase::Begin, "b", vec![]),
            ev(1, 4, EventPhase::End, "b", vec![]),
            ev(2, 4, EventPhase::Begin, "a", vec![]),
            ev(3, 9, EventPhase::End, "a", vec![]),
        ];
        let p = profile_spans(&stream);
        assert_eq!(p.to_folded(), "a 5\nb 4\n");
    }

    #[test]
    fn shard_breakdown_segments_by_plan_begin() {
        let stream = vec![
            ev(
                0,
                0,
                EventPhase::Begin,
                "stage",
                vec![("track", "harness".into())],
            ),
            ev(
                1,
                0,
                EventPhase::Begin,
                "semester.plan",
                vec![("shard", 0u64.into())],
            ),
            ev(2, 0, EventPhase::End, "semester.plan", vec![]),
            ev(3, 1, EventPhase::Instant, "queue.pop", vec![]),
            ev(
                4,
                2,
                EventPhase::Instant,
                "semester.finalize",
                vec![("quota_denials", 3u64.into())],
            ),
            ev(
                5,
                0,
                EventPhase::Begin,
                "semester.plan",
                vec![("shard", 1u64.into())],
            ),
            ev(6, 1, EventPhase::Instant, "queue.pop", vec![]),
            ev(7, 1, EventPhase::Instant, "queue.pop", vec![]),
            ev(
                8,
                2,
                EventPhase::Instant,
                "semester.finalize",
                vec![("quota_denials", 0u64.into())],
            ),
            ev(
                9,
                9,
                EventPhase::End,
                "stage",
                vec![("track", "harness".into())],
            ),
        ];
        let b = shard_breakdown(&stream);
        assert_eq!(b.harness_events, 2);
        assert_eq!(b.preamble_events, 0);
        assert_eq!(b.shards.len(), 2);
        assert_eq!(b.shards[0].shard, Some(0));
        assert_eq!(b.shards[0].queue_pops, 1);
        assert_eq!(b.shards[0].quota_denials, 3);
        assert_eq!(b.shards[1].shard, Some(1));
        assert_eq!(b.shards[1].queue_pops, 2);
        assert_eq!(b.imbalance(), Some((4, 4)));
    }
}
