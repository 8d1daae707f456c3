//! `opml-profiler` — the workspace's self-profiling layer.
//!
//! The paper's thesis is that operational cost stays invisible until it
//! is metered; this crate applies the same discipline to the simulator
//! itself. It provides four small, composable pieces:
//!
//! * [`phase`] — a wall-clock phase profiler with fixed static slots.
//!   The semester simulator brackets its shard bodies and merge stages
//!   in [`wall_phase`] guards, so a profiled run can split host time
//!   into `shard.sim` vs `merge.replay_restamp`/`merge.metrics`/
//!   `merge.ledger` — the breakdown that explains why the sharded path
//!   can run slower than serial on a small host.
//! * [`alloc`] — an opt-in [`CountingAlloc`] global-allocator wrapper
//!   attributing allocation counts/bytes to the active phase via a
//!   `const`-init thread-local. Binary-level opt-in (`alloc-profile`
//!   feature of `opml-experiments`); zero cost when not installed.
//! * [`spanprof`] — deterministic sim-time attribution computed from
//!   the recorded telemetry span stream: per-path total/self time,
//!   per-shard event/work breakdown, and flamegraph.pl-compatible
//!   folded-stack export.
//! * [`rss`] — `/proc/self/status` readers. [`peak_rss_kb`] (`VmHWM`)
//!   is the one meaning of "peak RSS" for every subcommand and bench;
//!   [`RssSampler`] records the sampled timeline `profile` writes out.
//! * [`timed`] — the one wall-clock stopwatch harnesses and benches
//!   wrap their runs in.
//!
//! Determinism contract: everything derived from the telemetry stream
//! (span counts, sim-minute durations, shard breakdowns) and every
//! *count* the phase layer produces (enters, phase-attributed allocs)
//! is identical across runs and thread counts for a fixed seed. Wall
//! times and RSS are host noise and are never digested; the `profile`
//! subcommand keeps them in a separate, explicitly non-deterministic
//! part of its output.

pub mod alloc;
pub mod json;
pub mod phase;
pub mod rss;
pub mod spanprof;

pub use alloc::{
    counting_allocator_installed, disable_counting, enable_counting, is_counting, reset_totals,
    totals, AllocTotals, CountingAlloc,
};
pub use json::Json;
pub use phase::{
    current_phase, disable, enable, is_enabled, phase_report, phases, reset, wall_phase,
    PhaseGuard, PhaseStat, MAX_PHASES, UNATTRIBUTED, UNATTRIBUTED_NAME,
};
pub use rss::{current_rss_kb, peak_rss_kb, RssSample, RssSampler};

/// Route the rayon shim's dispatch machinery (worker spawn/join,
/// per-worker result buffers, reassembly) into the
/// [`phase::phases::RUNTIME_POOL`] phase. Idempotent and cheap; the
/// hooks are inert while phase profiling is disabled, so installing
/// them unconditionally costs one atomic load per pool dispatch.
///
/// Without this, pool bookkeeping lands in whatever phase the
/// dispatching thread happened to be in — which varies with thread
/// count and makes user-phase allocation counts undigestable.
pub fn install_pool_attribution() {
    rayon::install_pool_hooks(phase::pool_phase_enter, phase::pool_phase_exit);
}
pub use spanprof::{
    profile_spans, shard_breakdown, ShardBreakdown, ShardStat, SpanPathStat, SpanProfile,
};

/// Run `f` and return its result with the host wall time it took, in
/// seconds. The simulators never read the clock; harnesses and benches
/// measure them from outside with this, and the times are reported,
/// never fed back into simulation state.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    // detlint::allow(DL001): harness measures wall time by design
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}
