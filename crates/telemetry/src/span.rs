//! Span guard: a begin/end pair on the sim-time trace.
//!
//! Spans are explicit about their end time — there is no `Drop`-based
//! closing, because a drop can't know the simulated time at which the
//! phase finished. `SpanGuard::end(time)` must be called; the guard is
//! `#[must_use]` so forgetting it is a (deny-by-default) warning.

use crate::event::EventPhase;
use crate::Telemetry;
use opml_simkernel::SimTime;

/// An open span. Emitted as a `"B"` event on creation; call
/// [`SpanGuard::end`] with the closing sim-time to emit the matching
/// `"E"` event.
#[must_use = "spans must be closed with .end(time) to balance the trace"]
#[derive(Debug)]
pub struct SpanGuard {
    telemetry: Telemetry,
    name: &'static str,
}

impl SpanGuard {
    pub(crate) fn new(telemetry: Telemetry, name: &'static str) -> Self {
        SpanGuard { telemetry, name }
    }

    /// Close the span at simulated time `time`.
    pub fn end(self, time: SimTime) {
        self.telemetry
            .emit(time, EventPhase::End, self.name, Vec::new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use crate::Telemetry;

    #[test]
    fn span_emits_balanced_begin_end() {
        let sink = MemorySink::new();
        let t = Telemetry::with_sink(sink.clone());
        let span = t.span(SimTime(10), "semester.plan", Vec::new);
        span.end(SimTime(50));
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase, EventPhase::Begin);
        assert_eq!(events[0].time, SimTime(10));
        assert_eq!(events[1].phase, EventPhase::End);
        assert_eq!(events[1].time, SimTime(50));
        assert_eq!(events[0].name, events[1].name);
        assert_eq!(events[0].seq + 1, events[1].seq);
    }

    #[test]
    fn disabled_span_is_silent() {
        let t = Telemetry::disabled();
        let span = t.span(SimTime(10), "noop", Vec::new);
        span.end(SimTime(20));
        // Nothing to assert beyond "did not panic": there is no sink.
        assert!(!t.is_enabled());
    }
}
