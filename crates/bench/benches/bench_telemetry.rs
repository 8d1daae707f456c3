//! Telemetry overhead at the event-queue hot seam.
//!
//! Three variants of the same push/pop churn: no telemetry calls at all
//! (baseline), instrumented with a *disabled* handle (what production
//! runs pay when tracing is off), and instrumented with a metrics-only
//! handle (`Telemetry::metrics_only`: the cost of formatting attrs and
//! sequencing, with every event dropped rather than kept).
//!
//! Besides the criterion samples, this bench enforces the observability
//! contract from DESIGN.md §8: the disabled-handle variant must stay
//! within 5% of the uninstrumented baseline. On violation it exits
//! nonzero so `scripts/check.sh` fails.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opml_simkernel::{EventQueue, SimTime};
use opml_telemetry::Telemetry;

/// Events pushed/popped per iteration.
const EVENTS: u64 = 4_096;

/// The uninstrumented hot loop: interleaved pushes and pops, like the
/// semester driver's main loop.
fn churn_baseline() -> u64 {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut acc = 0u64;
    for i in 0..EVENTS {
        queue.push(SimTime(i % 97), i);
        if i % 3 == 0 {
            if let Some((t, p)) = queue.pop() {
                acc = acc.wrapping_add(t.0).wrapping_add(p);
            }
        }
    }
    while let Some((t, p)) = queue.pop() {
        acc = acc.wrapping_add(t.0).wrapping_add(p);
    }
    acc
}

/// The same loop with a telemetry instant at every pop, exactly as the
/// semester driver emits `queue.pop`.
fn churn_instrumented(telemetry: &Telemetry) -> u64 {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut acc = 0u64;
    let on_pop = |queue_len: usize, t: SimTime, p: u64| {
        telemetry.instant(t, "queue.pop", || {
            vec![("payload", p.into()), ("depth", queue_len.into())]
        });
        t.0.wrapping_add(p)
    };
    for i in 0..EVENTS {
        queue.push(SimTime(i % 97), i);
        if i % 3 == 0 {
            if let Some((t, p)) = queue.pop() {
                acc = acc.wrapping_add(on_pop(queue.len(), t, p));
            }
        }
    }
    while let Some((t, p)) = queue.pop() {
        acc = acc.wrapping_add(on_pop(queue.len(), t, p));
    }
    acc
}

/// Wall-clock nanoseconds for one run of `f`.
///
/// Wall-clock timing is the point of this harness, not simulation
/// state, so the DL001 wall-clock ban is suppressed here explicitly.
fn time_once(f: &mut impl FnMut() -> u64) -> u128 {
    // detlint::allow(DL001): benchmark harness measures wall time by design
    let start = std::time::Instant::now();
    black_box(f());
    // detlint::allow(DL001): benchmark harness measures wall time by design
    start.elapsed().as_nanos()
}

/// Median of per-round `b/a` time ratios over `rounds` paired rounds.
///
/// Each round times both variants back-to-back, so frequency scaling
/// and background load hit the pair alike and cancel in the ratio; the
/// median then discards rounds where a preemption landed inside one of
/// the two runs. This is far more stable across loaded CI hosts than
/// comparing independent minima.
fn median_paired_ratio(
    rounds: usize,
    mut a: impl FnMut() -> u64,
    mut b: impl FnMut() -> u64,
) -> (u128, u128, f64) {
    let (mut best_a, mut best_b) = (u128::MAX, u128::MAX);
    let mut ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let ta = time_once(&mut a);
        let tb = time_once(&mut b);
        best_a = best_a.min(ta);
        best_b = best_b.min(tb);
        ratios.push(tb as f64 / ta.max(1) as f64);
    }
    ratios.sort_by(f64::total_cmp);
    (best_a, best_b, ratios[ratios.len() / 2])
}

fn bench_telemetry(c: &mut Criterion) {
    let disabled = Telemetry::disabled();
    let metrics_only = Telemetry::metrics_only();

    let mut group = c.benchmark_group("telemetry");
    group.sample_size(20);
    group.bench_function("queue_churn/baseline", |b| b.iter(churn_baseline));
    group.bench_function("queue_churn/disabled", |b| {
        b.iter(|| churn_instrumented(&disabled))
    });
    group.bench_function("queue_churn/metrics_only", |b| {
        b.iter(|| churn_instrumented(&metrics_only))
    });
    group.finish();

    // Overhead gate. Paired rounds; warm-up first so the comparison
    // isn't dominated by first-touch allocation.
    let _ = churn_baseline();
    let _ = churn_instrumented(&disabled);
    let (base, off, ratio) =
        median_paired_ratio(80, churn_baseline, || churn_instrumented(&disabled));
    println!(
        "[telemetry] disabled-handle overhead: baseline min {base} ns, \
         instrumented(disabled) min {off} ns, median paired ratio {ratio:.4}"
    );
    if ratio > 1.05 {
        eprintln!(
            "[telemetry] FAIL: disabled telemetry costs {:.1}% over baseline (gate: 5%)",
            (ratio - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    println!("[telemetry] disabled-overhead gate passed (<5%)");
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
