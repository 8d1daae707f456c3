//! Telemetry sinks: where emitted events go.
//!
//! The sink is behind a trait object so the instrumented crates never
//! know (or care) whether events are recorded, narrated, or dropped.
//! [`MemorySink`] is the recording sink used by the exporters and the
//! golden-trace tests; [`StderrNarrationSink`] renders only narration
//! events, replacing the ad-hoc `eprintln!` progress lines the
//! experiments runner used to have.

use crate::event::{TelemetryEvent, NARRATE};
use parking_lot::Mutex;
use std::sync::Arc;

/// Receives every event emitted through an enabled [`crate::Telemetry`]
/// handle, in sequence order.
pub trait TelemetrySink: Send + Sync {
    /// Record one event. Called synchronously from the emitting thread;
    /// implementations must not reorder events. The sink owns the event,
    /// so a recording sink moves it into its buffer without a clone.
    fn record(&self, event: TelemetryEvent);

    /// Record a batch of events in order. Recording sinks override this
    /// with a bulk append; the default forwards to
    /// [`TelemetrySink::record`] per event.
    fn record_batch(&self, events: Vec<TelemetryEvent>) {
        for event in events {
            self.record(event);
        }
    }
}

/// Drops every event. Useful to run the metrics registry without
/// recording a trace (`run-experiments --metrics`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn record(&self, _event: TelemetryEvent) {}
}

/// Records every event in memory, in emission order.
///
/// Cloning shares the buffer, so keep a clone before handing the sink to
/// [`crate::Telemetry::with_sink`] and read the events back afterwards.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<TelemetryEvent>>>,
}

impl MemorySink {
    /// Empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty recording sink whose buffer is pre-sized for `capacity`
    /// events (capacity hint for hot loops with a known event volume).
    pub fn with_capacity(capacity: usize) -> Self {
        MemorySink {
            events: Arc::new(Mutex::new(Vec::with_capacity(capacity))),
        }
    }

    /// Snapshot of the recorded events (clone; the buffer keeps
    /// recording).
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events.lock().clone()
    }

    /// Drain the recorded events without cloning, leaving the sink
    /// empty. The shard merge uses this to move each shard's buffer
    /// into the restamp pass allocation-free.
    pub fn take_events(&self) -> Vec<TelemetryEvent> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl TelemetrySink for MemorySink {
    fn record(&self, event: TelemetryEvent) {
        self.events.lock().push(event);
    }

    fn record_batch(&self, events: Vec<TelemetryEvent>) {
        let mut buf = self.events.lock();
        if buf.is_empty() {
            // Common shard-merge shape: the parent buffer adopts the
            // first batch wholesale instead of copying element-wise.
            *buf = events;
        } else {
            buf.extend(events);
        }
    }
}

/// Prints narration events (name == [`NARRATE`]) to stderr and ignores
/// everything else. This is the uniform replacement for scattered
/// `eprintln!` progress lines: `--quiet` swaps the whole handle for
/// [`crate::Telemetry::disabled`] and every narration line vanishes.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrNarrationSink;

impl TelemetrySink for StderrNarrationSink {
    fn record(&self, event: TelemetryEvent) {
        if event.name == NARRATE {
            if let Some(msg) = event.attr("message").and_then(crate::AttrValue::as_str) {
                eprintln!("{msg}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventPhase;
    use opml_simkernel::SimTime;

    fn ev(seq: u64, name: &'static str) -> TelemetryEvent {
        TelemetryEvent {
            seq,
            time: SimTime(seq),
            phase: EventPhase::Instant,
            name,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn memory_sink_preserves_order() {
        let sink = MemorySink::new();
        for i in 0..5 {
            sink.record(ev(i, "x"));
        }
        let got: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(sink.len(), 5);
        assert!(!sink.is_empty());
    }
}
