//! The telemetry event model.
//!
//! Every event is stamped with a [`SimTime`] (never wall clock) and a
//! stable per-handle sequence number, so a recorded stream is
//! byte-identical across runs and thread counts as long as the emitting
//! simulation is itself deterministic. Attributes are an ordered list of
//! key/value pairs — insertion order is the serialization order.

use opml_simkernel::SimTime;
use serde_json::{write_escaped, write_f64};
use std::fmt;

/// Reserved event name for progress narration (see
/// [`crate::Telemetry::narrating`]).
pub const NARRATE: &str = "narrate";

/// Attribute key marking an event as belonging to the harness (meta)
/// track rather than the simulation timeline; the Chrome exporter puts
/// such events on their own thread lane.
pub const TRACK_ATTR: &str = "track";

/// Value of [`TRACK_ATTR`] for harness-track events.
pub const HARNESS_TRACK: &str = "harness";

/// Span/event phase, mirroring the Chrome trace-event phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// Span open (`"B"` in Chrome trace terms).
    Begin,
    /// Span close (`"E"`).
    End,
    /// Point event (`"i"`).
    Instant,
}

impl EventPhase {
    /// One-letter code used in both exporters.
    pub fn code(self) -> &'static str {
        match self {
            EventPhase::Begin => "B",
            EventPhase::End => "E",
            EventPhase::Instant => "i",
        }
    }
}

/// An attribute value. Constructed via the `From` impls:
/// `("gpus", 4u64.into())`.
///
/// String payloads come in two flavours that serialize identically and
/// compare equal by content: [`AttrValue::Static`] (a borrowed
/// `&'static str` — zero allocation, the hot-path case for literal
/// values like `("cause", "quota".into())`) and [`AttrValue::Str`] (an
/// owned `String` for dynamic values such as instance names).
#[derive(Debug, Clone)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (serialized with Rust's shortest-roundtrip printing, which
    /// is deterministic per platform and toolchain).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string (dynamic values).
    Str(String),
    /// Borrowed string literal (no allocation; same wire format as
    /// [`AttrValue::Str`]).
    Static(&'static str),
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (AttrValue::U64(a), AttrValue::U64(b)) => a == b,
            (AttrValue::I64(a), AttrValue::I64(b)) => a == b,
            (AttrValue::F64(a), AttrValue::F64(b)) => a == b,
            (AttrValue::Bool(a), AttrValue::Bool(b)) => a == b,
            // String equality is by content: `Static("x") == Str("x")`,
            // matching the identical serialization.
            (a, b) => match (a.as_str(), b.as_str()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Static(v)
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl AttrValue {
    /// The string payload, if this is a `Str` or `Static` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            AttrValue::Static(s) => Some(s),
            _ => None,
        }
    }

    /// Append the value as a JSON literal.
    pub(crate) fn write_json_into(&self, out: &mut String) {
        match self {
            AttrValue::U64(n) => out.push_str(&n.to_string()),
            AttrValue::I64(n) => out.push_str(&n.to_string()),
            AttrValue::F64(x) => write_f64(out, *x),
            AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            AttrValue::Str(s) => write_escaped(out, s),
            AttrValue::Static(s) => write_escaped(out, s),
        }
    }
}

/// One attribute: a static key plus a value.
pub type Attr = (&'static str, AttrValue);

/// A recorded telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Stable sequence number within the emitting [`crate::Telemetry`]
    /// handle (emission order).
    pub seq: u64,
    /// Simulated time of the event.
    pub time: SimTime,
    /// Phase (span open/close or point event).
    pub phase: EventPhase,
    /// Dotted event name (`instance.launch`, `queue.pop`, …), a string
    /// literal at every emitting call site.
    pub name: &'static str,
    /// Ordered attributes.
    pub attrs: Vec<Attr>,
}

impl TelemetryEvent {
    /// Look up an attribute value by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// True when the event sits on the harness (meta) track.
    pub fn is_harness_track(&self) -> bool {
        self.attr(TRACK_ATTR).and_then(AttrValue::as_str) == Some(HARNESS_TRACK)
    }

    /// Render as one compact JSON object (no trailing newline). Field
    /// order is fixed (`seq`, `t`, `ph`, `name`, `attrs`) so the output
    /// is byte-stable.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + self.name.len());
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"t\":");
        out.push_str(&self.time.0.to_string());
        out.push_str(",\"ph\":\"");
        out.push_str(self.phase.code());
        out.push_str("\",\"name\":");
        write_escaped(&mut out, self.name);
        if !self.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(&mut out, k);
                out.push(':');
                v.write_json_into(&mut out);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

impl fmt::Display for TelemetryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} #{}] {} {}",
            self.time,
            self.seq,
            self.phase.code(),
            self.name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape_and_escaping() {
        let ev = TelemetryEvent {
            seq: 3,
            time: SimTime(120),
            phase: EventPhase::Instant,
            name: "quota.deny",
            attrs: vec![
                ("resource", "instance".into()),
                ("who", "lab2-s007\"x\"".into()),
                ("vcpus", 8u64.into()),
                ("frac", 0.5f64.into()),
                ("ok", false.into()),
            ],
        };
        let line = ev.to_json_line();
        assert_eq!(
            line,
            "{\"seq\":3,\"t\":120,\"ph\":\"i\",\"name\":\"quota.deny\",\"attrs\":{\"resource\":\"instance\",\"who\":\"lab2-s007\\\"x\\\"\",\"vcpus\":8,\"frac\":0.5,\"ok\":false}}"
        );
    }

    #[test]
    fn attr_lookup_and_track() {
        let ev = TelemetryEvent {
            seq: 0,
            time: SimTime::ZERO,
            phase: EventPhase::Begin,
            name: "stage.table1",
            attrs: vec![(TRACK_ATTR, HARNESS_TRACK.into())],
        };
        assert!(ev.is_harness_track());
        assert_eq!(ev.attr("missing"), None);
    }

    #[test]
    fn float_attr_is_integral_stable() {
        let render = |x: f64| {
            let mut s = String::new();
            AttrValue::F64(x).write_json_into(&mut s);
            s
        };
        assert_eq!(render(4.0), "4.0");
        assert_eq!(render(f64::NAN), "null");
    }
}
