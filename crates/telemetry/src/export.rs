//! Trace exporters: JSONL and Chrome trace-event format.
//!
//! Both exporters hand-roll their JSON with fixed field order so the
//! output is byte-stable: the same event stream always produces the same
//! bytes, which is what the golden-trace test and `verify-determinism`
//! hash. Strings and floats are written by the serde_json shim's
//! `write_escaped` and `write_f64`, the same writers every other JSON
//! output in the workspace uses.
//!
//! The Chrome exporter targets the [trace-event format] consumed by
//! Perfetto and `chrome://tracing`: one simulated minute is rendered as
//! one microsecond of trace time, simulation events go on `tid` 1 and
//! harness (meta) events on `tid` 2.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{EventPhase, TelemetryEvent, HARNESS_TRACK};
use serde_json::write_escaped;

/// Process id used for every exported Chrome event (single simulated
/// process).
const PID: u64 = 1;
/// Thread lane for simulation-timeline events.
const SIM_TID: u64 = 1;
/// Thread lane for harness-track (meta) events.
const HARNESS_TID: u64 = 2;

/// Render events as JSON Lines, one event per line in sequence order,
/// with a trailing newline. Byte-stable for a given event stream.
pub fn export_jsonl(events: &[TelemetryEvent]) -> String {
    let mut sorted: Vec<&TelemetryEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.seq);
    let mut out = String::new();
    for e in sorted {
        out.push_str(&e.to_json_line());
        out.push('\n');
    }
    out
}

/// Render events as a Chrome trace-event JSON document
/// (`{"traceEvents":[…]}`), loadable in Perfetto.
///
/// Events are sorted by `(time, seq)` so the emitted `ts` values are
/// monotonically non-decreasing; thread-name metadata events come first
/// (metadata carries no timestamp semantics).
pub fn export_chrome_trace(events: &[TelemetryEvent]) -> String {
    let mut sorted: Vec<&TelemetryEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.time, e.seq));

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(&thread_meta(SIM_TID, "simulation (1 min = 1 us)"));
    out.push(',');
    out.push_str(&thread_meta(HARNESS_TID, HARNESS_TRACK));
    for e in sorted {
        out.push(',');
        write_chrome_event(&mut out, e);
    }
    out.push_str("]}");
    out
}

fn thread_meta(tid: u64, name: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"ph\":\"M\",\"pid\":");
    out.push_str(&PID.to_string());
    out.push_str(",\"tid\":");
    out.push_str(&tid.to_string());
    out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":");
    write_escaped(&mut out, name);
    out.push_str("}}");
    out
}

fn write_chrome_event(out: &mut String, e: &TelemetryEvent) {
    let tid = if e.is_harness_track() {
        HARNESS_TID
    } else {
        SIM_TID
    };
    out.push_str("{\"name\":");
    write_escaped(out, e.name);
    out.push_str(",\"ph\":\"");
    out.push_str(e.phase.code());
    out.push_str("\",\"ts\":");
    out.push_str(&e.time.0.to_string());
    out.push_str(",\"pid\":");
    out.push_str(&PID.to_string());
    out.push_str(",\"tid\":");
    out.push_str(&tid.to_string());
    if e.phase == EventPhase::Instant {
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"args\":{\"seq\":");
    out.push_str(&e.seq.to_string());
    for (k, v) in &e.attrs {
        out.push(',');
        write_escaped(out, k);
        out.push(':');
        // Chrome/Perfetto args accept arbitrary JSON values; reuse the
        // JSONL rendering via a one-attr event would allocate, so the
        // value writer is exposed crate-internally instead.
        v.write_json_into(out);
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AttrValue, TRACK_ATTR};
    use opml_simkernel::SimTime;

    fn ev(seq: u64, t: u64, phase: EventPhase, name: &'static str) -> TelemetryEvent {
        TelemetryEvent {
            seq,
            time: SimTime(t),
            phase,
            name,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn jsonl_is_seq_ordered_and_newline_terminated() {
        let events = vec![
            ev(2, 30, EventPhase::Instant, "c"),
            ev(0, 10, EventPhase::Instant, "a"),
            ev(1, 20, EventPhase::Instant, "b"),
        ];
        let out = export_jsonl(&events);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[2].contains("\"seq\":2"));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn chrome_ts_is_monotone_non_decreasing() {
        // Deliberately shuffled input: exporter must sort by (time, seq).
        let mut events = vec![
            ev(5, 500, EventPhase::End, "z"),
            ev(1, 10, EventPhase::Begin, "z"),
            ev(3, 200, EventPhase::Instant, "m"),
            ev(2, 10, EventPhase::Instant, "same-minute"),
            ev(4, 200, EventPhase::Instant, "m2"),
        ];
        events.push(TelemetryEvent {
            seq: 0,
            time: SimTime(0),
            phase: EventPhase::Instant,
            name: "stage",
            attrs: vec![(TRACK_ATTR, AttrValue::from(HARNESS_TRACK))],
        });
        let out = export_chrome_trace(&events);

        let mut last_ts = 0i64;
        let mut seen = 0;
        for chunk in out.split("\"ts\":").skip(1) {
            let digits: String = chunk.chars().take_while(char::is_ascii_digit).collect();
            let ts: i64 = digits.parse().expect("ts is an integer");
            assert!(ts >= last_ts, "ts went backwards: {last_ts} -> {ts}");
            last_ts = ts;
            seen += 1;
        }
        assert_eq!(seen, 6, "every non-metadata event carries a ts");
        // Harness event landed on its own lane.
        assert!(out.contains("\"name\":\"stage\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":2"));
    }

    #[test]
    fn export_is_byte_stable() {
        let events = vec![
            ev(0, 10, EventPhase::Instant, "a"),
            ev(1, 20, EventPhase::Instant, "b"),
        ];
        assert_eq!(export_jsonl(&events), export_jsonl(&events));
        assert_eq!(export_chrome_trace(&events), export_chrome_trace(&events));
    }
}
