//! Opt-in counting allocator.
//!
//! [`CountingAlloc`] wraps the system allocator and, while counting is
//! enabled, attributes every allocation/deallocation to the calling
//! thread's active leaf phase (see [`crate::phase`]) plus a global
//! total. Installing it is a *binary-level* decision:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: opml_profiler::CountingAlloc = opml_profiler::CountingAlloc;
//! ```
//!
//! The workspace installs it only behind the `alloc-profile` feature of
//! `opml-experiments` (the `run-experiments` binary), so benches and
//! library consumers pay nothing — not even the disabled-path atomic
//! load. With the wrapper installed but counting disabled, the cost is
//! one relaxed atomic load per allocator call.
//!
//! The record path must be re-entrancy safe: it runs inside
//! `GlobalAlloc::alloc` and therefore must not allocate, lock, or touch
//! lazily-initialised thread-locals. It reads a `const`-init TLS cell
//! and bumps static atomics, nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::phase;

static COUNTING: AtomicBool = AtomicBool::new(false);

static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_DEALLOCS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_DEALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Global allocation totals (independent of phase attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocTotals {
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub deallocs: u64,
    pub dealloc_bytes: u64,
}

/// Start attributing allocator traffic. No-op unless [`CountingAlloc`]
/// is installed as the global allocator.
pub fn enable_counting() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Stop attributing allocator traffic.
pub fn disable_counting() {
    COUNTING.store(false, Ordering::Relaxed);
}

/// Zero the global totals (per-phase alloc counters are zeroed by
/// [`crate::reset`]).
pub fn reset_totals() {
    GLOBAL_ALLOCS.store(0, Ordering::Relaxed);
    GLOBAL_ALLOC_BYTES.store(0, Ordering::Relaxed);
    GLOBAL_DEALLOCS.store(0, Ordering::Relaxed);
    GLOBAL_DEALLOC_BYTES.store(0, Ordering::Relaxed);
}

/// Snapshot the global totals.
pub fn totals() -> AllocTotals {
    AllocTotals {
        allocs: GLOBAL_ALLOCS.load(Ordering::Relaxed),
        alloc_bytes: GLOBAL_ALLOC_BYTES.load(Ordering::Relaxed),
        deallocs: GLOBAL_DEALLOCS.load(Ordering::Relaxed),
        dealloc_bytes: GLOBAL_DEALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Runtime probe: is [`CountingAlloc`] actually the global allocator?
/// Briefly enables counting, performs a heap allocation through a
/// `black_box`, and checks whether the global counter moved. Restores
/// the previous counting flag.
pub fn counting_allocator_installed() -> bool {
    let was = COUNTING.swap(true, Ordering::Relaxed);
    let before = GLOBAL_ALLOCS.load(Ordering::Relaxed);
    let probe: Box<u64> = Box::new(std::hint::black_box(0xA110C));
    std::hint::black_box(&probe);
    drop(probe);
    let after = GLOBAL_ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(was, Ordering::Relaxed);
    after > before
}

#[inline]
fn record(bytes: usize, is_alloc: bool) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    if is_alloc {
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        GLOBAL_ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    } else {
        GLOBAL_DEALLOCS.fetch_add(1, Ordering::Relaxed);
        GLOBAL_DEALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
    phase::record_alloc_for(phase::current_phase(), bytes, is_alloc);
}

/// Counting wrapper around [`System`]. See the module docs for the
/// installation contract and cost model.
pub struct CountingAlloc;

// SAFETY: defers every allocation decision to `System`; the counting
// side channel only touches atomics and a const-init TLS cell, so the
// GlobalAlloc contract (no unwinding, no reentrant allocation) holds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), true);
        // SAFETY: caller upholds the GlobalAlloc contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(layout.size(), false);
        // SAFETY: `ptr` was allocated by this allocator (which defers
        // to System) with the same `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), true);
        // SAFETY: caller upholds the GlobalAlloc contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is modelled as dealloc(old) + alloc(new) so byte
        // totals stay balanced against dealloc accounting.
        record(layout.size(), false);
        record(new_size, true);
        // SAFETY: caller upholds the GlobalAlloc::realloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
