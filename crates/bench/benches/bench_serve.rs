//! Service-soak bench: one fixed ramp through `opml_serve::run_service`
//! — the admission queue, shedder, breaker, and retry hot paths under a
//! load that outruns the simulated servers — written to
//! `BENCH_serve.json`.
//!
//! The soak is the digested workload itself: the report's counts
//! subtree is byte-identical across reruns and thread counts, so the
//! bench doubles as a drift gate. Normal mode regenerates the baseline
//! and enforces a throughput floor (`OPS_PER_SEC_WALL_FLOOR`); with
//! `--check` (see `scripts/perfgate.sh --full`) the digest, op totals,
//! and stop round are compared fatally against the committed baseline
//! and the wall time is gated by `PERFGATE_TOLERANCE`.
//!
//! This harness measures wall time with `opml_profiler::timed`; the
//! service loop itself never reads the clock (`opml-detlint` enforces
//! that).

use opml_bench::perfgate::{min_of, Gate};
use opml_profiler::{timed, Json};
use opml_serve::{run_service, ServeConfig, ServeReport};
use opml_simkernel::parallel;

const SEED: u64 = 42;
/// Simulated ops the harness must push through per wall second, floor.
/// Deliberately conservative (release builds sustain well over 10x
/// this) so the gate only trips on real algorithmic regressions.
const OPS_PER_SEC_WALL_FLOOR: f64 = 20_000.0;

/// The benched soak: a ramp that outruns the simulated fleet so the
/// overload machinery (shed, reject, time-out, retry) all stay hot.
fn config() -> ServeConfig {
    ServeConfig {
        seed: SEED,
        tenants: 8,
        servers: 512,
        queue_bound: 1024,
        // Open BELOW saturation: 512 simulated servers sustain the
        // 8 ops/s opening round, so `max_sustainable_rps` anchors a
        // real sustainable rate instead of the degenerate 0 a
        // saturated opening round produces (the old 64→512 ramp
        // started past saturation and stopped in round 2 with nothing
        // sustainable on record).
        target_rps: 8,
        increment_rps: 8,
        max_rps: 512,
        round_secs: 600,
        // Let the ramp run to the failure-rate gate: with the latency
        // gate this loose, rounds keep coming until half the offered
        // ops go unserved, which keeps every overload path hot.
        allowable_latency_s: 600,
        deadline_s: 300,
        ..ServeConfig::default()
    }
}

fn soak(gate: &Gate) -> (ServeReport, f64) {
    let cfg = config();
    min_of(gate.measure_runs(), || {
        timed(|| {
            gate.inject_sleep();
            parallel::with_thread_count(1, || run_service(&cfg))
        })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut gate = Gate::from_env(&args, 3);

    let (report, wall_s) = soak(&gate);
    let total_ops = report.counts.totals.generated;
    let ops_per_sec_wall = total_ops as f64 / wall_s.max(1e-9);
    eprintln!(
        "serve soak: {:>8.4}s  {} ops ({:.0} ops/s wall), stopped round {} ({}), \
         max sustainable {} ops/s, digest {:016x}",
        wall_s,
        total_ops,
        ops_per_sec_wall,
        report.counts.stop_round,
        report.counts.stop_reason,
        report.counts.max_sustainable_rps,
        report.counts_digest,
    );

    if gate.check {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        let base = gate.load_baseline(out);
        let schema = base.get("schema").and_then(Json::as_str).unwrap_or("");
        gate.fatal(
            "schema",
            schema == "bench_serve/v1",
            &format!("baseline schema `{schema}` != bench_serve/v1"),
        );
        let digest = format!("{:016x}", report.counts_digest);
        let base_digest = base
            .get("counts_digest")
            .and_then(Json::as_str)
            .unwrap_or("");
        gate.fatal(
            "counts_digest",
            digest == base_digest,
            &format!("digest {digest} != baseline {base_digest}"),
        );
        let base_ops = base.get("total_ops").and_then(Json::as_u64).unwrap_or(0);
        gate.fatal(
            "total_ops",
            total_ops == base_ops,
            &format!("total ops {total_ops} != baseline {base_ops}"),
        );
        let base_stop = base
            .get("stop_round")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX);
        gate.fatal(
            "stop_round",
            u64::from(report.counts.stop_round) == base_stop,
            &format!(
                "stop round {} != baseline {base_stop}",
                report.counts.stop_round
            ),
        );
        let base_rate = base
            .get("max_sustainable_rps")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX);
        gate.fatal(
            "max_sustainable_rps",
            report.counts.max_sustainable_rps == base_rate,
            &format!(
                "max sustainable {} != baseline {base_rate}",
                report.counts.max_sustainable_rps
            ),
        );
        gate.fatal(
            "sustainable_round_exists",
            report.counts.max_sustainable_rps > 0,
            "ramp opened at or past saturation; no sustainable round on record",
        );
        gate.fatal(
            "ops_per_sec_wall_floor",
            ops_per_sec_wall >= OPS_PER_SEC_WALL_FLOOR,
            &format!("{ops_per_sec_wall:.0} ops/s wall below floor {OPS_PER_SEC_WALL_FLOOR}"),
        );
        let base_wall = base.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
        gate.wall("serve_wall_s", wall_s, base_wall);
        gate.finish("bench_serve");
        return;
    }

    let report_json = serde_json::json!({
        "schema": "bench_serve/v1",
        "seed": SEED,
        "total_ops": total_ops,
        "counts_digest": format!("{:016x}", report.counts_digest),
        "stop_round": report.counts.stop_round,
        "stop_reason": report.counts.stop_reason,
        "max_sustainable_rps": report.counts.max_sustainable_rps,
        "wall_s": wall_s,
        "ops_per_sec_wall": ops_per_sec_wall,
        "ops_per_sec_wall_floor": OPS_PER_SEC_WALL_FLOOR,
        "notes": [
            "ramp 8→512 (+8) ops/s against 512 simulated servers: the ramp opens \
             below saturation (so max_sustainable_rps is a real rate, not 0) and \
             runs deep past it, keeping the shed, reject, time-out, and retry \
             paths hot until the failure-rate gate trips",
            "counts digest is thread-invariant and rerun-stable; --check compares \
             it fatally, so this baseline is also a determinism anchor",
        ],
    });
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(
        out,
        serde_json::to_string_pretty(&report_json).expect("serialize bench report"),
    )
    .expect("write BENCH_serve.json");
    eprintln!("wrote {out}");

    if ops_per_sec_wall < OPS_PER_SEC_WALL_FLOOR {
        eprintln!(
            "bench_serve: FAILED — {ops_per_sec_wall:.0} ops/s wall < {OPS_PER_SEC_WALL_FLOOR}"
        );
        std::process::exit(1);
    }
    if report.counts.max_sustainable_rps == 0 {
        eprintln!(
            "bench_serve: FAILED — no sustainable round; the ramp must open below saturation"
        );
        std::process::exit(1);
    }
}
