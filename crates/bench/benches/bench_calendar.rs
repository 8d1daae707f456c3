//! Differential reservation-calendar bench: the sweep-line
//! [`ReservationCalendar`] vs the naive `O(L²)`/`O(L³)` reference it
//! replaced, on the same synthetic ~10k-lease booking workload, written
//! to `BENCH_calendar.json`.
//!
//! The workload replays the student booking pattern from the semester
//! simulator: an advancing frontier of `earliest_slot` → `reserve`
//! pairs with bounded back-jitter, sprinkled with `peak_reserved`
//! queries and revocations. The op script is generated up front from an
//! LCG, so both implementations execute byte-identical requests; every
//! op's result (slot choice, admission decision, error, revocation
//! outcome) is folded into a digest and the bench exits nonzero if the
//! two digests differ — it is a correctness gate first and a stopwatch
//! second.
//!
//! This harness measures wall time with `opml_profiler::timed`; the
//! calendar itself never reads the clock (`opml-detlint` enforces
//! that).
//!
//! With `--check` (the perf-regression gate, see `scripts/perfgate.sh`)
//! the bench reruns both sides min-of-`PERFGATE_RUNS` and compares the
//! wall times against the committed `BENCH_calendar.json` instead of
//! overwriting it; admitted-lease counts, the digest verdict and the
//! speedup floor are compared fatally, wall times within
//! `PERFGATE_TOLERANCE`. Outside `--check` the floor fails the run
//! after the baseline is written.

use opml_bench::perfgate::{min_of, Gate};
use opml_profiler::{timed, Json};
use opml_simkernel::fnv1a64;
use opml_simkernel::{SimDuration, SimTime};
use opml_testbed::lease::naive::NaiveCalendar;
use opml_testbed::lease::ReservationCalendar;
use opml_testbed::FlavorId;

const SEED: u64 = 42;
const OPS: usize = 14_000;
const FLAVOR: FlavorId = FlavorId::GpuA100Pcie;
const CAPACITY: u32 = 6;
/// Required wall-time ratio (naive / sweep-line) on this workload.
const SPEEDUP_FLOOR: f64 = 50.0;

/// One scripted calendar operation. Generated independently of either
/// implementation's responses so both sides replay the same stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `earliest_slot` then, if a slot is found, `reserve` it — the
    /// semester's booking workflow.
    Book {
        count: u32,
        len_min: u64,
        earliest: SimTime,
    },
    /// Range-max query.
    Peak { start: SimTime, end: SimTime },
    /// Revoke the `nth % admitted` lease at `at`.
    Revoke { nth: usize, at: SimTime },
}

/// Deterministic LCG (same constants as `mmix`), kept local so the
/// bench needs no RNG dependency and the script never drifts.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Generate the op script: ~`OPS` bookings along an advancing frontier
/// with bounded back-jitter (big jumps backwards would make the naive
/// side's candidate scans intractable, not just slow).
fn script() -> Vec<Op> {
    let mut rng = Lcg(SEED);
    let mut ops = Vec::with_capacity(OPS);
    let mut frontier = 0u64; // minutes
    for i in 0..OPS {
        // Mean demand runs ~15% over capacity (≈1.5 nodes × 2.5 h booked
        // every ~24 min against 6 nodes): the scarce-GPU regime where the
        // booking backlog grows and earliest_slot has to sweep past an
        // ever-longer run of busy candidates — the pathology that made
        // 100k-student semesters cost ~17 s serial before the rewrite.
        frontier += 14 + rng.next() % 21;
        match i % 8 {
            3 | 6 => {
                // Staff-style capacity check over a day-or-two window:
                // O(overlap × L) for the naive scan, O(log L + W) for the
                // sweep-line range-max.
                let start = frontier.saturating_sub(rng.next() % 3_000);
                ops.push(Op::Peak {
                    start: SimTime(start),
                    end: SimTime(start + 600 + rng.next() % 2_400),
                });
            }
            5 => ops.push(Op::Revoke {
                nth: rng.next() as usize,
                at: SimTime(frontier.saturating_sub(rng.next() % 240)),
            }),
            _ => ops.push(Op::Book {
                count: 1 + (rng.next() % 2) as u32,
                len_min: 60 * (2 + rng.next() % 2), // the 2–3-hour student slot
                earliest: SimTime(frontier.saturating_sub(rng.next() % 400)),
            }),
        }
    }
    ops
}

/// Replay the script against one implementation via its callbacks,
/// digesting every observable result.
struct Replay {
    digest_parts: Vec<u64>,
    admitted: Vec<u64>,
    booked: u64,
    denied: u64,
    revoked: u64,
}

impl Replay {
    fn new() -> Self {
        Replay {
            digest_parts: Vec::new(),
            admitted: Vec::new(),
            booked: 0,
            denied: 0,
            revoked: 0,
        }
    }

    fn digest(&self) -> u64 {
        let blob: Vec<u8> = self
            .digest_parts
            .iter()
            .flat_map(|p| p.to_le_bytes())
            .collect();
        fnv1a64(&blob)
    }
}

macro_rules! replay_with {
    ($cal:expr, $ops:expr) => {{
        let cal = $cal;
        let mut r = Replay::new();
        for op in $ops {
            match *op {
                Op::Book {
                    count,
                    len_min,
                    earliest,
                } => {
                    let len = SimDuration::minutes(len_min);
                    match cal.earliest_slot(FLAVOR, count, len, earliest) {
                        None => r.digest_parts.push(u64::MAX),
                        Some(start) => {
                            r.digest_parts.push(start.0);
                            match cal.reserve(FLAVOR, count, start, start + len) {
                                Ok(lease) => {
                                    r.booked += 1;
                                    r.admitted.push(lease.id.0);
                                    r.digest_parts.push(lease.id.0);
                                }
                                Err(e) => {
                                    r.denied += 1;
                                    r.digest_parts.push(fnv1a64(e.to_string().as_bytes()));
                                }
                            }
                        }
                    }
                }
                Op::Peak { start, end } => {
                    r.digest_parts
                        .push(u64::from(cal.peak_reserved(FLAVOR, start, end)));
                }
                Op::Revoke { nth, at } => {
                    if !r.admitted.is_empty() {
                        let id = opml_testbed::LeaseId(r.admitted[nth % r.admitted.len()]);
                        match cal.revoke(id, at) {
                            Ok(()) => {
                                r.revoked += 1;
                                r.digest_parts.push(1);
                            }
                            Err(e) => r.digest_parts.push(fnv1a64(e.to_string().as_bytes())),
                        }
                    }
                }
            }
        }
        r
    }};
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut gate = Gate::from_env(&args, 3);
    let ops = script();

    let (sweep, sweep_wall) = min_of(gate.measure_runs(), || {
        timed(|| {
            gate.inject_sleep();
            let mut cal = ReservationCalendar::new();
            cal.set_capacity(FLAVOR, CAPACITY);
            replay_with!(&mut cal, &ops)
        })
    });
    eprintln!(
        "sweep-line: {:>8.4}s  booked {} denied {} revoked {}",
        sweep_wall, sweep.booked, sweep.denied, sweep.revoked
    );

    let (naive, naive_wall) = min_of(gate.measure_runs(), || {
        timed(|| {
            gate.inject_sleep();
            let mut cal = NaiveCalendar::new();
            cal.set_capacity(FLAVOR, CAPACITY);
            replay_with!(&mut cal, &ops)
        })
    });
    eprintln!(
        "naive:      {:>8.4}s  booked {} denied {} revoked {}",
        naive_wall, naive.booked, naive.denied, naive.revoked
    );

    let identical = sweep.digest() == naive.digest();
    let speedup = naive_wall / sweep_wall.max(1e-9);
    eprintln!(
        "speedup {speedup:.1}x, results {}",
        if identical { "identical" } else { "DIVERGED" }
    );

    if !identical {
        eprintln!("bench_calendar: FAILED — sweep-line diverged from the naive reference");
        std::process::exit(1);
    }

    if gate.check {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_calendar.json");
        let base = gate.load_baseline(out);
        let schema = base.get("schema").and_then(Json::as_str).unwrap_or("");
        gate.fatal(
            "schema",
            schema == "bench_calendar/v1",
            &format!("baseline schema `{schema}` != bench_calendar/v1"),
        );
        let base_ops = base.get("ops").and_then(Json::as_u64).unwrap_or(0);
        gate.fatal(
            "ops",
            base_ops == ops.len() as u64,
            &format!("op count {} != baseline {base_ops}", ops.len()),
        );
        let base_admitted = base
            .get("leases_admitted")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        gate.fatal(
            "leases_admitted",
            base_admitted == sweep.booked,
            &format!("admitted {} != baseline {base_admitted}", sweep.booked),
        );
        gate.fatal(
            "baseline_identical",
            base.get("identical").and_then(Json::as_bool) == Some(true),
            "baseline was recorded with diverging digests",
        );
        gate.fatal(
            "speedup_floor",
            speedup >= SPEEDUP_FLOOR,
            &format!("speedup {speedup:.1}x < {SPEEDUP_FLOOR}x"),
        );
        let base_sweep = base
            .get("sweep_wall_s")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let base_naive = base
            .get("naive_wall_s")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        gate.wall("sweep_wall_s", sweep_wall, base_sweep);
        gate.wall("naive_wall_s", naive_wall, base_naive);
        gate.finish("bench_calendar");
        return;
    }

    let report = serde_json::json!({
        "schema": "bench_calendar/v1",
        "seed": SEED,
        "ops": ops.len(),
        "leases_admitted": sweep.booked,
        "capacity": CAPACITY,
        "flavor": "gpu_a100_pcie",
        "naive_wall_s": naive_wall,
        "sweep_wall_s": sweep_wall,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "identical": identical,
        "notes": [
            "identical op script replayed through both implementations; every slot \
             choice, admission decision, error, and revocation folded into the digest",
            "workload: advancing booking frontier with bounded back-jitter, 2-3h slots, \
             peak queries and revocations mixed in (the semester simulator's pattern)",
        ],
    });
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_calendar.json");
    std::fs::write(
        out,
        serde_json::to_string_pretty(&report).expect("serialize bench report"),
    )
    .expect("write BENCH_calendar.json");
    eprintln!("wrote {out}");

    if speedup < SPEEDUP_FLOOR {
        eprintln!("bench_calendar: FAILED — speedup {speedup:.1}x < {SPEEDUP_FLOOR}x");
        std::process::exit(1);
    }
}
