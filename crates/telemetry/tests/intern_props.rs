//! Property tests for the telemetry name interner.
//!
//! The interner backs [`opml_telemetry::Sym`], the `Copy` handle that
//! replaced per-event name `String`s on the emit hot path. Its
//! contract has two halves. The *resolution* half — every symbol
//! resolves back to exactly the string it was interned from, and equal
//! strings yield equal symbols — is what keeps trace bytes unchanged.
//! The *assignment* half — symbol ids are process-global, assigned
//! once, and never depend on which thread won the race to intern a
//! name first — is what keeps exported bytes identical at any rayon
//! pool size: ids never appear in any serialized output, so as long as
//! resolution is stable, the export is automatically thread-invariant.
//! These properties pin both halves on arbitrary name multisets, in
//! the same shape as the shard-merge laws in
//! `crates/metering/tests/shard_merge.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use opml_simkernel::SimTime;
use opml_telemetry::event::EventPhase;
use opml_telemetry::export::export_jsonl;
use opml_telemetry::intern::{intern, interned_count};
use opml_telemetry::{Sym, TelemetryEvent};
use proptest::prelude::*;

/// Tests in this binary share the process-global intern table, so
/// names are uniquified per case; ids can never be predicted, only
/// required to be consistent.
static CASE: AtomicU64 = AtomicU64::new(0);

/// `reinterning_does_not_grow_the_table` asserts the table does not
/// grow; every test holds this so none interns concurrently with it.
static INTERN_LOCK: Mutex<()> = Mutex::new(());

fn intern_lock() -> MutexGuard<'static, ()> {
    INTERN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn uniquify(names: &[String]) -> Vec<String> {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    names.iter().map(|n| format!("{n}.c{case}")).collect()
}

fn event(seq: u64, name: Sym) -> TelemetryEvent {
    TelemetryEvent {
        seq,
        time: SimTime(seq),
        phase: EventPhase::Instant,
        name,
        attrs: Vec::new(),
    }
}

proptest! {
    /// Resolution round-trip: interning any string hands back a symbol
    /// that dereferences to those exact bytes, and re-interning the
    /// same string yields the same id.
    #[test]
    fn intern_resolve_round_trips(names in prop::collection::vec("[a-z.]{1,16}", 1..40)) {
        let _guard = intern_lock();
        for name in &names {
            let sym = intern(name);
            prop_assert_eq!(sym.as_str(), name.as_str());
            prop_assert_eq!(intern(name).id(), sym.id());
            // Content equality is independent of interning history.
            prop_assert!(sym == name.as_str());
        }
    }

    /// Id stability under arbitrary interleavings: however a multiset
    /// of names is ordered, each distinct name maps to one id, equal
    /// names always collide, and distinct names never do.
    #[test]
    fn ids_are_stable_under_interleavings(
        names in prop::collection::vec("[a-z]{1,8}", 1..24),
        picks in prop::collection::vec(0usize..24, 1..96),
    ) {
        let _guard = intern_lock();
        let names = uniquify(&names);
        // First pass fixes the assignment in one (arbitrary) order.
        let first: Vec<(String, u32)> =
            names.iter().map(|n| (n.clone(), intern(n).id())).collect();
        // Replaying in any other order must reproduce it exactly.
        for &p in &picks {
            let name = &names[p % names.len()];
            let sym = intern(name);
            let expected = first.iter().find(|(n, _)| n == name);
            prop_assert_eq!(expected.map(|(_, id)| *id), Some(sym.id()));
            prop_assert_eq!(sym.as_str(), name.as_str());
        }
        for (i, (na, ia)) in first.iter().enumerate() {
            for (nb, ib) in first.iter().skip(i + 1) {
                prop_assert_eq!(na == nb, ia == ib);
            }
        }
    }

    /// Thread-invariance: eight threads race to intern a fresh
    /// vocabulary; every thread must observe the identical name→id
    /// mapping, and a trace exported from symbols interned on any
    /// thread is byte-identical to one interned serially — symbol ids
    /// never reach the wire, so first-interner races cannot show.
    #[test]
    fn export_bytes_identical_across_interning_threads(
        names in prop::collection::vec("[a-z]{2,10}", 1..16),
    ) {
        let _guard = intern_lock();
        let names = uniquify(&names);
        let maps: Vec<Vec<(String, u32)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let names = &names;
                    s.spawn(move || {
                        // Each thread walks the vocabulary from a
                        // different starting point so no single thread
                        // deterministically wins every first-intern.
                        (0..names.len())
                            .map(|i| {
                                let n = &names[(i + t) % names.len()];
                                (n.clone(), intern(n).id())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("interner thread")).collect()
        });
        let reference: &Vec<(String, u32)> = &maps[0];
        for map in &maps[1..] {
            let mut sorted_a = reference.clone();
            let mut sorted_b = map.clone();
            sorted_a.sort();
            sorted_b.sort();
            prop_assert_eq!(&sorted_a, &sorted_b, "threads disagree on symbol ids");
        }
        // Serial re-intern and concurrent symbols export identically.
        let concurrent: Vec<TelemetryEvent> = (0..names.len() as u64)
            .map(|i| event(i, intern(&names[i as usize])))
            .collect();
        let serial: Vec<TelemetryEvent> = (0..names.len() as u64)
            .map(|i| event(i, Sym::new(&names[i as usize])))
            .collect();
        prop_assert_eq!(export_jsonl(&concurrent), export_jsonl(&serial));
    }

    /// Interning is idempotent on the table: re-interning an existing
    /// vocabulary never grows `interned_count` (the probe the
    /// differential alloc tests rely on).
    #[test]
    fn reinterning_does_not_grow_the_table(
        names in prop::collection::vec("[a-z]{1,8}", 1..24),
    ) {
        let _guard = intern_lock();
        let names = uniquify(&names);
        for n in &names {
            let _ = intern(n);
        }
        let settled = interned_count();
        for n in names.iter().rev() {
            let _ = intern(n);
        }
        prop_assert_eq!(interned_count(), settled);
    }
}
