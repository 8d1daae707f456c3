//! `opml-telemetry` — deterministic sim-time tracing and metrics for the
//! semester simulator.
//!
//! # Determinism contract
//!
//! Every event is stamped with the **simulated** clock ([`SimTime`]) and
//! a stable per-handle sequence number; nothing in this crate reads wall
//! clock or ambient entropy, so a trace of a deterministic simulation is
//! byte-identical across runs and rayon thread counts. The rules:
//!
//! 1. **Sim-time only.** Timestamps come from the caller's simulation
//!    clock. Harness-level stages that have no simulated time use
//!    synthetic monotone stamps on a separate track (see
//!    [`event::HARNESS_TRACK`]).
//! 2. **One handle per run.** A [`Telemetry`] handle is owned by one
//!    simulation run. Parallel sweeps (rayon) give each run its own
//!    handle (usually [`Telemetry::disabled`]) so sequence numbers never
//!    interleave across threads.
//! 3. **Stable iteration.** The metrics are `BTreeMap`-backed;
//!    snapshots render identically regardless of registration order.
//! 4. **No process-wide state.** Event and metric names are
//!    `&'static str` literals: an event carries its name by reference
//!    and the metrics are keyed by it, so recording a name allocates
//!    nothing and a handle shares no table with any other.
//!
//! # Handle modes
//!
//! A handle keeps what it records itself. [`Telemetry::recording`]
//! keeps every event for [`Telemetry::events`] /
//! [`Telemetry::take_events`], and [`Telemetry::metrics_only`] keeps
//! only the metrics. Every enabled handle keeps its metrics in one
//! [`MetricsSnapshot`], which [`Telemetry::metrics_snapshot`] copies.
//!
//! # Cost when disabled
//!
//! [`Telemetry::disabled`] is a `None` — emission is a branch on an
//! `Option`, and attribute vectors are built behind a closure that never
//! runs. `crates/bench/benches/bench_telemetry.rs` gates the disabled
//! path at <5% overhead against uninstrumented code.
//!
//! ```
//! use opml_telemetry::Telemetry;
//! use opml_simkernel::{SimTime, SimDuration};
//!
//! let t = Telemetry::recording();
//! t.instant(SimTime(90), "instance.launch", || vec![("flavor", "g1.xlarge".into())]);
//! t.counter_add("cloud.instances_launched", 1);
//! t.observe("instance.lifetime", SimDuration::hours(3));
//! assert_eq!(t.events().len(), 1);
//! assert_eq!(t.metrics_snapshot().counters["cloud.instances_launched"], 1);
//! ```

pub mod event;
pub mod export;
pub mod metrics;
pub mod span;

pub use event::{Attr, AttrValue, EventPhase, TelemetryEvent, HARNESS_TRACK, TRACK_ATTR};
pub use export::{export_chrome_trace, export_jsonl};
pub use metrics::{MetricsSnapshot, SimTimeHistogram};
pub use span::SpanGuard;

use opml_simkernel::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What an enabled handle does with the events it stamps.
enum Mode {
    /// Keep every event, in emission order.
    Recording(Mutex<Vec<TelemetryEvent>>),
    /// Drop every event; only the metrics are kept.
    MetricsOnly,
}

struct Inner {
    mode: Mode,
    /// Next sequence number. Relaxed is sufficient: a handle belongs to
    /// one simulation run, which emits from a single thread; the atomic
    /// only exists so `Telemetry` stays `Sync` for storage in shared
    /// structs.
    seq: AtomicU64,
    metrics: Mutex<MetricsSnapshot>,
}

impl Inner {
    /// Deliver one stamped event according to the handle's mode.
    fn keep(&self, event: TelemetryEvent) {
        if let Mode::Recording(events) = &self.mode {
            events.lock().push(event);
        }
    }
}

/// Handle to the telemetry pipeline. Cheap to clone (an `Option<Arc>`);
/// a disabled handle is a `None` and every operation on it is a single
/// branch.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Telemetry({})",
            if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A no-op handle: events are never constructed, metrics never
    /// recorded. This is the default everywhere instrumentation is
    /// threaded through.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle that keeps every event, in emission order, for
    /// [`Telemetry::events`] and [`Telemetry::take_events`].
    pub fn recording() -> Self {
        Self::recording_with_capacity(0)
    }

    /// A [`Telemetry::recording`] handle whose event buffer is pre-sized
    /// for `capacity` events (a hint for hot loops with a known event
    /// volume, such as one shard of a sharded semester).
    pub fn recording_with_capacity(capacity: usize) -> Self {
        Self::enabled(Mode::Recording(Mutex::new(Vec::with_capacity(capacity))))
    }

    /// An enabled handle that keeps metrics and drops every event
    /// (`run-experiments --metrics`).
    pub fn metrics_only() -> Self {
        Self::enabled(Mode::MetricsOnly)
    }

    fn enabled(mode: Mode) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                mode,
                seq: AtomicU64::new(0),
                metrics: Mutex::default(),
            })),
        }
    }

    /// Whether the handle is enabled: it stamps events and keeps
    /// metrics.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A copy of the recorded events, in emission order; the handle
    /// keeps recording. Empty unless the handle is recording.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.recorded()
            .map_or_else(Vec::new, |events| events.lock().clone())
    }

    /// Drain the recorded events without copying them, leaving the
    /// buffer empty. The shard merge moves each shard's buffer into the
    /// restamp pass this way.
    pub fn take_events(&self) -> Vec<TelemetryEvent> {
        self.recorded()
            .map_or_else(Vec::new, |events| std::mem::take(&mut *events.lock()))
    }

    fn recorded(&self) -> Option<&Mutex<Vec<TelemetryEvent>>> {
        match &self.inner.as_deref()?.mode {
            Mode::Recording(events) => Some(events),
            Mode::MetricsOnly => None,
        }
    }

    /// Emit one event. `attrs` is a closure so that argument
    /// construction is skipped entirely on the disabled path; the
    /// enabled path is outlined (`#[cold]`) so a disabled emit inlines
    /// to a single test-and-skip at the call site.
    #[inline]
    pub fn emit<F>(&self, time: SimTime, phase: EventPhase, name: &'static str, attrs: F)
    where
        F: FnOnce() -> Vec<Attr>,
    {
        if let Some(inner) = &self.inner {
            emit_enabled(inner, time, phase, name, attrs);
        }
    }

    /// Emit a point event (`"i"`).
    #[inline]
    pub fn instant<F>(&self, time: SimTime, name: &'static str, attrs: F)
    where
        F: FnOnce() -> Vec<Attr>,
    {
        self.emit(time, EventPhase::Instant, name, attrs);
    }

    /// Open a span at `time`; close it with [`SpanGuard::end`].
    pub fn span<F>(&self, time: SimTime, name: &'static str, attrs: F) -> SpanGuard
    where
        F: FnOnce() -> Vec<Attr>,
    {
        self.emit(time, EventPhase::Begin, name, attrs);
        SpanGuard::new(self.clone(), name)
    }

    /// Add `delta` to a counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.lock().counter_add(name, delta);
        }
    }

    /// Set a gauge (last write wins).
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.lock().gauge_set(name, value);
        }
    }

    /// Raise a gauge high-water mark.
    pub fn gauge_max(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.lock().gauge_max(name, value);
        }
    }

    /// Record a sim-duration histogram sample.
    pub fn observe(&self, name: &'static str, d: SimDuration) {
        if let Some(inner) = &self.inner {
            inner.metrics.lock().observe(name, d);
        }
    }

    /// Re-emit previously captured events through this handle, in input
    /// order, restamping each with a fresh sequence number from this
    /// handle's counter (times, phases, names and attrs are preserved).
    ///
    /// This is the shard-merge seam: each shard of a sharded simulation
    /// records into its own handle with its own dense `seq` space, and
    /// the merger replays the buffers in shard-index order — so the
    /// merged stream's sequence stamps depend only on the shard
    /// structure, never on which thread finished first. The whole
    /// sequence range is reserved with one counter bump, the events are
    /// restamped in place, and a recording handle with an empty buffer
    /// adopts the batch wholesale: no per-event allocation in
    /// `merge.replay_restamp`.
    pub fn replay_owned(&self, mut events: Vec<TelemetryEvent>) {
        let Some(inner) = &self.inner else {
            return;
        };
        let base = inner.seq.fetch_add(events.len() as u64, Ordering::Relaxed);
        for (i, e) in events.iter_mut().enumerate() {
            e.seq = base + i as u64;
        }
        if let Mode::Recording(buf) = &inner.mode {
            let mut buf = buf.lock();
            if buf.is_empty() {
                *buf = events;
            } else {
                buf.extend(events);
            }
        }
    }

    /// Fold a (per-shard) metrics snapshot into this handle's metrics;
    /// see [`MetricsSnapshot::merge`] for the merge laws.
    pub fn merge_metrics(&self, snap: &MetricsSnapshot) {
        if let Some(inner) = &self.inner {
            inner.metrics.lock().merge(snap);
        }
    }

    /// A copy of this handle's metrics (empty for a disabled handle).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.metrics.lock().clone(),
            None => MetricsSnapshot::default(),
        }
    }
}

/// The recording half of [`Telemetry::emit`], kept out of line so the
/// disabled fast path stays a bare branch (verified by
/// `bench_telemetry`'s overhead gate).
#[cold]
#[inline(never)]
fn emit_enabled<F>(inner: &Inner, time: SimTime, phase: EventPhase, name: &'static str, attrs: F)
where
    F: FnOnce() -> Vec<Attr>,
{
    let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
    inner.keep(TelemetryEvent {
        seq,
        time,
        phase,
        name,
        attrs: attrs(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_dense_and_ordered() {
        let t = Telemetry::recording();
        for i in 0..10u64 {
            t.instant(SimTime(i * 10), "tick", Vec::new);
        }
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        assert_eq!(t.take_events().len(), 10);
        assert!(t.events().is_empty(), "take_events drains the buffer");
    }

    #[test]
    fn disabled_handle_skips_attr_construction() {
        let t = Telemetry::disabled();
        let mut called = false;
        t.instant(SimTime::ZERO, "x", || {
            called = true;
            Vec::new()
        });
        assert!(!called);
        assert!(t.metrics_snapshot().is_empty());
        assert!(t.events().is_empty());
    }

    #[test]
    fn metrics_via_handle() {
        let t = Telemetry::metrics_only();
        t.counter_add("c", 1);
        t.counter_add("c", 2);
        t.gauge_set("g", 1.5);
        t.gauge_max("m", 3.0);
        t.gauge_max("m", 2.0);
        t.observe("h", SimDuration::hours(1));
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counters["c"], 3);
        assert_eq!(snap.gauges["g"], 1.5);
        assert_eq!(snap.gauges["m"], 3.0);
        assert_eq!(snap.histograms["h"].count, 1);
        assert!(
            t.events().is_empty(),
            "a metrics-only handle keeps no events"
        );
    }

    #[test]
    fn replay_restamps_sequence_numbers() {
        let shard = Telemetry::recording();
        shard.instant(SimTime(5), "a", || vec![("k", 1u64.into())]);
        shard.instant(SimTime(9), "b", Vec::new);

        let parent = Telemetry::recording();
        parent.instant(SimTime(1), "pre", Vec::new);
        parent.replay_owned(shard.events());
        let events = parent.events();
        assert_eq!(events.len(), 3);
        // Fresh, dense seq stamps from the parent's counter...
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // ...with times, names and attrs preserved.
        assert_eq!(events[1].time, SimTime(5));
        assert_eq!(events[1].name, "a");
        assert_eq!(events[1].attr("k"), Some(&AttrValue::U64(1)));

        // An empty recording handle adopts the batch as it stands.
        let fresh = Telemetry::recording();
        fresh.replay_owned(shard.take_events());
        assert_eq!(fresh.events().len(), 2);

        // Replay through a disabled handle is a no-op.
        Telemetry::disabled().replay_owned(fresh.events());
    }

    #[test]
    fn merge_metrics_folds_shard_snapshots() {
        let mk = |c: u64, g: f64, h_hours: u64| {
            let t = Telemetry::metrics_only();
            t.counter_add("n", c);
            t.gauge_set("high_water", g);
            t.observe("dur", SimDuration::hours(h_hours));
            t.metrics_snapshot()
        };
        let (a, b) = (mk(2, 5.0, 1), mk(3, 2.0, 3));
        let fold = |first: &MetricsSnapshot, second: &MetricsSnapshot| {
            let t = Telemetry::metrics_only();
            t.merge_metrics(first);
            t.merge_metrics(second);
            t.metrics_snapshot()
        };
        let ab = fold(&a, &b);
        assert_eq!(ab.counters["n"], 5, "counters add");
        assert_eq!(ab.gauges["high_water"], 5.0, "gauges take the max");
        assert_eq!(ab.histograms["dur"].count, 2, "histograms merge");
        assert_eq!(ab.histograms["dur"].sum_minutes, 4 * 60);
        assert_eq!(ab, fold(&b, &a), "merge is order-invariant");
    }

    #[test]
    fn clones_share_sequence_space() {
        let t = Telemetry::recording();
        let t2 = t.clone();
        t.instant(SimTime(1), "a", Vec::new);
        t2.instant(SimTime(2), "b", Vec::new);
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }
}
