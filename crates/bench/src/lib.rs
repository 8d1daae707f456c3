//! # opml-bench
//!
//! The workspace's gated benches. Each one exits nonzero when its gate
//! fails:
//!
//! * `bench_telemetry` — event-queue churn with and without telemetry;
//!   the disabled handle must stay within 5% of the uninstrumented
//!   baseline (`scripts/check.sh`).
//! * `bench_semester` — sharded-semester scaling, written to
//!   `BENCH_semester.json`; every arm's digest must match the serial
//!   reference, the 100k speedup floor must reach 3x, and the spill
//!   arm must peak under its RSS ceiling.
//! * `bench_calendar` — the sweep-line reservation calendar against the
//!   naive reference, written to `BENCH_calendar.json`; both digests
//!   must match and the speedup must reach its floor.
//! * `bench_serve` — one fixed ramp through the service soak, written to
//!   `BENCH_serve.json`, with a wall-throughput floor.
//!
//! With `--check`, the last three compare against their committed
//! baseline through [`perfgate`] instead of overwriting it
//! (`scripts/perfgate.sh`).

pub mod perfgate;
