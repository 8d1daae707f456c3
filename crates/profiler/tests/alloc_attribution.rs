//! Counting-allocator attribution test.
//!
//! This integration test installs [`CountingAlloc`] as the global
//! allocator for its own test binary (integration tests link their own
//! executable, so nothing else in the workspace is affected) and
//! checks the satellite-task invariant: per-phase attribution balances
//! to the global totals.

use opml_profiler::{phase, phases, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn per_phase_attribution_balances_to_global_totals() {
    assert!(
        opml_profiler::counting_allocator_installed(),
        "CountingAlloc should be this binary's global allocator"
    );

    opml_profiler::reset();
    opml_profiler::reset_totals();
    opml_profiler::enable();
    opml_profiler::enable_counting();

    // Allocate in two phases and outside any phase; sizes are
    // arbitrary but distinctive.
    {
        let _p = phase::wall_phase(phases::SHARD_SIM);
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
    }
    {
        let _p = phase::wall_phase(phases::MERGE_LEDGER);
        let v: Vec<u64> = Vec::with_capacity(1000);
        std::hint::black_box(&v);
        let s = String::from("phase-b allocation payload");
        std::hint::black_box(&s);
    }
    let loose: Box<[u8; 512]> = Box::new([0u8; 512]);
    std::hint::black_box(&loose);
    drop(loose);

    opml_profiler::disable_counting();
    opml_profiler::disable();

    let totals = opml_profiler::totals();
    let report = opml_profiler::phase_report();

    let a = report
        .iter()
        .find(|s| s.name == phases::SHARD_SIM)
        .expect("phase a reported");
    let b = report
        .iter()
        .find(|s| s.name == phases::MERGE_LEDGER)
        .expect("phase b reported");
    assert!(a.allocs >= 1, "phase a saw no allocations");
    assert!(a.alloc_bytes >= 4096, "phase a bytes {}", a.alloc_bytes);
    assert!(b.allocs >= 2, "phase b saw {} allocations", b.allocs);
    assert!(b.alloc_bytes >= 8000, "phase b bytes {}", b.alloc_bytes);

    // The balance invariant: summing attribution over every slot
    // (including unattributed) reproduces the global totals exactly.
    let sum_allocs: u64 = report.iter().map(|s| s.allocs).sum();
    let sum_alloc_bytes: u64 = report.iter().map(|s| s.alloc_bytes).sum();
    let sum_deallocs: u64 = report.iter().map(|s| s.deallocs).sum();
    let sum_dealloc_bytes: u64 = report.iter().map(|s| s.dealloc_bytes).sum();
    assert_eq!(sum_allocs, totals.allocs, "alloc count attribution leak");
    assert_eq!(
        sum_alloc_bytes, totals.alloc_bytes,
        "alloc byte attribution leak"
    );
    assert_eq!(
        sum_deallocs, totals.deallocs,
        "dealloc count attribution leak"
    );
    assert_eq!(
        sum_dealloc_bytes, totals.dealloc_bytes,
        "dealloc byte attribution leak"
    );

    // The scoped allocations above were dropped while counting was
    // still on, so dealloc traffic must be visible too (exact equality
    // with alloc bytes is not asserted: the libtest harness allocates
    // concurrently on other threads).
    assert!(totals.deallocs >= 3, "deallocs {}", totals.deallocs);
}
