//! Wall-clock phase profiler with fixed static slots.
//!
//! A *phase* is a named region of host execution (`shard.sim`,
//! `merge.ledger`, ...) entered via [`wall_phase`]. The phases are the
//! fixed table [`phases::ALL`], and each owns a slot of atomic
//! counters: enter count, accumulated wall nanoseconds, and (when the
//! counting allocator is installed) allocation counts/bytes attributed
//! while the phase was the active leaf on the entering thread.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero-cost when disabled.** [`wall_phase`] is a single relaxed
//!    atomic load when profiling is off; no table lookup, no TLS touch,
//!    no clock read. The simulation hot paths call it unconditionally.
//!    When enabled, finding a phase's slot is a scan of the seven-entry
//!    table: no lock and no process-wide registration.
//! 2. **No allocation on the record path.** The counting allocator
//!    calls [`current_phase`] from inside `GlobalAlloc::alloc`;
//!    everything it touches is a `const`-initialised thread-local
//!    `Cell` and a static array of atomics — re-entrancy safe.
//! 3. **Panic-free.** These hooks sit on the shard/merge path of the
//!    semester simulator; lookups use `get`/`try_with`, never indexing.
//!
//! Wall times are host-dependent and therefore *never* part of any
//! determinism digest; enter counts and (phase-attributed) allocation
//! counts are deterministic for a fixed seed and config, independent of
//! thread count, because phases are entered on whichever thread runs
//! the shard and the work per shard is identical.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Slot 0 is reserved: work recorded while no phase is active, or in
/// a phase not in [`phases::ALL`].
pub const UNATTRIBUTED: u16 = 0;

/// Name reported for slot 0.
pub const UNATTRIBUTED_NAME: &str = "(unattributed)";

/// The phase table: every phase the semester simulator hooks enter.
/// Centralised so the profile report and tests spell them identically.
pub mod phases {
    /// Per-shard simulation body (`run_shard_buffered`).
    pub const SHARD_SIM: &str = "shard.sim";
    /// Replaying shard event buffers into the parent handle (restamp).
    pub const MERGE_REPLAY: &str = "merge.replay_restamp";
    /// Folding shard metrics snapshots into the parent handle's metrics.
    pub const MERGE_METRICS: &str = "merge.metrics";
    /// In-memory merge of shard ledgers: one canonical sort of the
    /// cohort ledger they were appended to.
    pub const MERGE_LEDGER: &str = "merge.ledger";
    /// Sorting and encoding shard ledgers into on-disk spill runs
    /// (out-of-core path), plus intermediate merge passes that rewrite
    /// runs.
    pub const MERGE_SPILL: &str = "merge.spill";
    /// Final streaming k-way merge over on-disk runs (decode +
    /// heap merge + consumer callback).
    pub const MERGE_STREAM: &str = "merge.stream";
    /// Thread-pool dispatch machinery (worker spawn/join, per-worker
    /// result buffers, reassembly). Attributed via the rayon-shim pool
    /// hooks; thread-count dependent by nature, so it is excluded from
    /// allocation digests — its existence is what makes the *user*
    /// phases digestable.
    pub const RUNTIME_POOL: &str = "runtime.pool";

    /// Every phase, in name order. A phase's slot is its position here
    /// plus one; slot 0 is [`super::UNATTRIBUTED`].
    pub const ALL: [&str; 7] = [
        MERGE_LEDGER,
        MERGE_METRICS,
        MERGE_REPLAY,
        MERGE_SPILL,
        MERGE_STREAM,
        RUNTIME_POOL,
        SHARD_SIM,
    ];
}

/// One phase's counters. All relaxed atomics: totals are read only
/// after the profiled region has quiesced (joins/barriers provide the
/// ordering we need).
struct Slot {
    enters: AtomicU64,
    wall_ns: AtomicU64,
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
    deallocs: AtomicU64,
    dealloc_bytes: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            enters: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            dealloc_bytes: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        self.enters.store(0, Ordering::Relaxed);
        self.wall_ns.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
        self.alloc_bytes.store(0, Ordering::Relaxed);
        self.deallocs.store(0, Ordering::Relaxed);
        self.dealloc_bytes.store(0, Ordering::Relaxed);
    }
}

/// The unattributed slot, then one slot per entry of [`phases::ALL`].
static SLOTS: [Slot; phases::ALL.len() + 1] = [const { Slot::new() }; phases::ALL.len() + 1];

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The active leaf phase on this thread. `const`-initialised so the
    /// first access never allocates (the counting allocator reads this
    /// from inside `GlobalAlloc::alloc`).
    static CURRENT: std::cell::Cell<u16> = const { std::cell::Cell::new(UNATTRIBUTED) };
}

/// Turn phase profiling on. Counters are *not* reset; call [`reset`]
/// first for a fresh capture.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn phase profiling off. Guards created while enabled still
/// restore their saved phase on drop, but stop accumulating wall time.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Is phase profiling currently on?
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero every slot's counters, so [`phase_report`] lists only what runs
/// afterwards.
pub fn reset() {
    for slot in &SLOTS {
        slot.reset();
    }
}

/// The active leaf phase id on the calling thread. Safe to call from
/// allocator context: const-init TLS, `try_with`, no allocation.
#[inline]
pub fn current_phase() -> u16 {
    CURRENT.try_with(|c| c.get()).unwrap_or(UNATTRIBUTED)
}

/// Record an allocation event against a phase slot (called by the
/// counting allocator; also usable from tests).
#[inline]
pub(crate) fn record_alloc_for(id: u16, bytes: usize, is_alloc: bool) {
    if let Some(slot) = SLOTS.get(id as usize) {
        if is_alloc {
            slot.allocs.fetch_add(1, Ordering::Relaxed);
            slot.alloc_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        } else {
            slot.deallocs.fetch_add(1, Ordering::Relaxed);
            slot.dealloc_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }
}

/// The slot of phase `name`: its position in [`phases::ALL`] plus one,
/// or [`UNATTRIBUTED`] for a name not in the table.
fn slot_of(name: &str) -> u16 {
    phases::ALL
        .iter()
        .position(|&phase| phase == name)
        .map_or(UNATTRIBUTED, |i| i as u16 + 1)
}

/// RAII guard for a wall phase; restores the previous leaf phase and
/// accumulates elapsed wall time on drop.
pub struct PhaseGuard {
    id: u16,
    prev: u16,
    start: Option<Instant>,
}

/// Enter a named wall phase on the calling thread. Returns an inert
/// guard (one atomic load total) when profiling is disabled. A name
/// not in [`phases::ALL`] is counted in the unattributed slot.
///
/// Attribution is *leaf-based*, not stack-based: while this guard is
/// live, wall time and allocations on this thread are attributed to
/// `name` alone, and the previous phase is restored on drop. Leaf
/// attribution is what keeps counts thread-count invariant — a shard
/// body attributes identically whether it runs on the caller or on a
/// pool worker whose stack is otherwise empty.
#[must_use = "the phase ends when the guard drops; binding to `_` ends it immediately"]
pub fn wall_phase(name: &'static str) -> PhaseGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return PhaseGuard {
            id: UNATTRIBUTED,
            prev: UNATTRIBUTED,
            start: None,
        };
    }
    let id = slot_of(name);
    let prev = CURRENT
        .try_with(|c| {
            let p = c.get();
            c.set(id);
            p
        })
        .unwrap_or(UNATTRIBUTED);
    if let Some(slot) = SLOTS.get(id as usize) {
        slot.enters.fetch_add(1, Ordering::Relaxed);
    }
    PhaseGuard {
        id,
        prev,
        // detlint::allow(DL001): host-side profiling measurement, never fed into simulation state
        start: Some(Instant::now()),
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let _ = CURRENT.try_with(|c| c.set(self.prev));
        let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(slot) = SLOTS.get(self.id as usize) {
            slot.wall_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        }
    }
}

/// Token returned by [`pool_phase_enter`] when profiling was off at
/// entry: nothing to restore on exit.
const POOL_TOKEN_INERT: usize = usize::MAX;

/// Low 48 bits of the token carry nanoseconds since [`pool_epoch`]
/// (~78 hours of range); the high 16 bits carry the phase id to
/// restore on exit.
const POOL_NS_MASK: u64 = (1 << 48) - 1;

/// Lazily-pinned process epoch for pool wall accounting. The hook pair
/// cannot carry an `Instant` through its `usize` token, so elapsed
/// time is reconstructed from two offsets against this epoch.
fn pool_epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    // detlint::allow(DL001): host-side profiling measurement, never fed into simulation state
    *EPOCH.get_or_init(Instant::now)
}

/// Rayon-shim pool hook: re-point this thread's attribution at
/// [`phases::RUNTIME_POOL`] and return a token encoding the previous
/// phase plus the entry timestamp. Allocation-free (the counting
/// allocator may interrogate [`current_phase`] while this runs) and
/// panic-free, per the hook contract.
pub fn pool_phase_enter() -> usize {
    if !ENABLED.load(Ordering::Relaxed) {
        return POOL_TOKEN_INERT;
    }
    let id = slot_of(phases::RUNTIME_POOL);
    let prev = CURRENT
        .try_with(|c| {
            let p = c.get();
            c.set(id);
            p
        })
        .unwrap_or(UNATTRIBUTED);
    if let Some(slot) = SLOTS.get(id as usize) {
        slot.enters.fetch_add(1, Ordering::Relaxed);
    }
    // detlint::allow(DL001): host-side profiling measurement, never fed into simulation state
    let ns = u64::try_from(pool_epoch().elapsed().as_nanos()).unwrap_or(u64::MAX) & POOL_NS_MASK;
    (u64::from(prev) << 48 | ns) as usize
}

/// Rayon-shim pool hook: restore the phase saved by
/// [`pool_phase_enter`] and accumulate the bracket's wall time on the
/// pool slot.
pub fn pool_phase_exit(token: usize) {
    if token == POOL_TOKEN_INERT {
        return;
    }
    let prev = (token as u64 >> 48) as u16;
    let _ = CURRENT.try_with(|c| c.set(prev));
    // detlint::allow(DL001): host-side profiling measurement, never fed into simulation state
    let now = u64::try_from(pool_epoch().elapsed().as_nanos()).unwrap_or(u64::MAX) & POOL_NS_MASK;
    let elapsed = now.saturating_sub(token as u64 & POOL_NS_MASK);
    if let Some(slot) = SLOTS.get(slot_of(phases::RUNTIME_POOL) as usize) {
        slot.wall_ns.fetch_add(elapsed, Ordering::Relaxed);
    }
}

/// A snapshot of one phase's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    pub name: &'static str,
    pub enters: u64,
    pub wall_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub deallocs: u64,
    pub dealloc_bytes: u64,
}

impl PhaseStat {
    /// Wall time in seconds (host-dependent; excluded from digests).
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }
}

/// Snapshot every phase with any activity since [`reset`], in name
/// order, with the unattributed slot (if it saw any activity) last.
/// Cold path.
pub fn phase_report() -> Vec<PhaseStat> {
    let names = phases::ALL.into_iter().chain([UNATTRIBUTED_NAME]);
    let slots = SLOTS.iter().skip(1).chain(SLOTS.first());
    names
        .zip(slots)
        .map(|(name, slot)| snapshot_slot(name, slot))
        .filter(|s| s.enters != 0 || s.wall_ns != 0 || s.allocs != 0 || s.deallocs != 0)
        .collect()
}

fn snapshot_slot(name: &'static str, slot: &Slot) -> PhaseStat {
    PhaseStat {
        name,
        enters: slot.enters.load(Ordering::Relaxed),
        wall_ns: slot.wall_ns.load(Ordering::Relaxed),
        allocs: slot.allocs.load(Ordering::Relaxed),
        alloc_bytes: slot.alloc_bytes.load(Ordering::Relaxed),
        deallocs: slot.deallocs.load(Ordering::Relaxed),
        dealloc_bytes: slot.dealloc_bytes.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    // Phase tests share global state; run them under one lock so
    // `cargo test` thread interleaving cannot cross-contaminate slots.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn phase_table_is_in_name_order() {
        assert!(phases::ALL.windows(2).all(|w| w[0] < w[1]));
        for (i, &name) in phases::ALL.iter().enumerate() {
            assert_eq!(slot_of(name) as usize, i + 1);
        }
        assert_eq!(slot_of("not.a.phase"), UNATTRIBUTED);
    }

    #[test]
    fn disabled_wall_phase_records_nothing() {
        let _guard = TEST_LOCK.lock();
        reset();
        disable();
        {
            let _p = wall_phase(phases::SHARD_SIM);
        }
        assert!(phase_report().is_empty());
    }

    #[test]
    fn nested_phases_restore_leaf_and_count_enters() {
        let _guard = TEST_LOCK.lock();
        reset();
        enable();
        assert_eq!(current_phase(), UNATTRIBUTED);
        {
            let _outer = wall_phase(phases::SHARD_SIM);
            let outer_id = current_phase();
            assert_ne!(outer_id, UNATTRIBUTED);
            {
                let _inner = wall_phase(phases::MERGE_LEDGER);
                assert_ne!(current_phase(), outer_id);
            }
            assert_eq!(current_phase(), outer_id);
        }
        assert_eq!(current_phase(), UNATTRIBUTED);
        disable();
        let report = phase_report();
        let enters: Vec<(&str, u64)> = report.iter().map(|s| (s.name, s.enters)).collect();
        // Only the phases that ran are listed, in name order.
        assert_eq!(
            enters,
            vec![(phases::MERGE_LEDGER, 1), (phases::SHARD_SIM, 1)]
        );
    }

    #[test]
    fn reenter_same_phase_reuses_slot() {
        let _guard = TEST_LOCK.lock();
        reset();
        enable();
        for _ in 0..3 {
            let _p = wall_phase(phases::MERGE_METRICS);
        }
        disable();
        let report = phase_report();
        let stat = report.iter().find(|s| s.name == phases::MERGE_METRICS);
        assert_eq!(stat.map(|s| s.enters), Some(3));
        reset();
        assert!(phase_report().is_empty(), "reset clears the report");
    }
}
