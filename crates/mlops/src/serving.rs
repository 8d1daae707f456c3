//! Inference serving with concurrency and dynamic batching — Unit 6.
//!
//! The lab's third part "explored system-level optimizations using NVIDIA
//! Triton Inference Server, including concurrency, dynamic batching, and
//! scaling across multiple GPUs or multiple model instances" (§3.6). This
//! module is a deterministic discrete-event simulation of exactly that
//! server architecture:
//!
//! * requests arrive (open-loop Poisson),
//! * a **dynamic batcher** groups them: a batch dispatches when a replica
//!   is free and either the queue reaches `max_batch` or the oldest
//!   request has waited `max_queue_delay_ms`,
//! * `replicas` model instances execute batches concurrently,
//! * batch service time follows the [`ModelProfile`] cost model
//!   `base + per_item · batch` — the affine shape that makes batching pay
//!   (amortizing the fixed kernel-launch/weight-read cost).
//!
//! Profiles for optimized/edge variants come from [`crate::optimize`]'s
//! measured speedups. The unit tests check the lab's latency/throughput
//! trade-off: batching survives a load that collapses the unbatched
//! baseline, and int8 beats fp32 on every profile.

use opml_simkernel::stats::percentile_sorted;
use opml_simkernel::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Affine batch-latency model: `latency(k) = base_ms + per_item_ms·k`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Fixed per-batch cost (kernel launch, weight streaming).
    pub base_ms: f64,
    /// Marginal per-request cost.
    pub per_item_ms: f64,
}

impl ModelProfile {
    /// FP32 image classifier on a server GPU (A100/A30 class).
    pub fn fp32_server_gpu() -> Self {
        ModelProfile {
            base_ms: 8.0,
            per_item_ms: 1.2,
        }
    }

    /// The same model graph-optimized + INT8-quantized (ONNX Runtime path
    /// in the lab): lower fixed and marginal cost.
    pub fn int8_server_gpu() -> Self {
        ModelProfile {
            base_ms: 4.5,
            per_item_ms: 0.55,
        }
    }

    /// FP32 on a server CPU.
    pub fn fp32_server_cpu() -> Self {
        ModelProfile {
            base_ms: 15.0,
            per_item_ms: 22.0,
        }
    }

    /// INT8 on a Raspberry Pi 5 (the CHI\@Edge lab part): big fixed and
    /// marginal costs; batching barely helps because compute, not launch
    /// overhead, dominates.
    pub fn int8_edge_pi5() -> Self {
        ModelProfile {
            base_ms: 25.0,
            per_item_ms: 95.0,
        }
    }

    /// Service time of a batch of `k` requests, in ms.
    pub fn batch_ms(&self, k: usize) -> f64 {
        assert!(k > 0);
        self.base_ms + self.per_item_ms * k as f64
    }

    /// Peak throughput (req/s) at a given batch size, one replica.
    pub fn peak_rps(&self, batch: usize) -> f64 {
        batch as f64 / self.batch_ms(batch) * 1000.0
    }
}

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Concurrent model instances (Triton "instance groups").
    pub replicas: usize,
    /// Dynamic batcher: max requests per batch (1 = batching off).
    pub max_batch: usize,
    /// Dynamic batcher: max time the oldest request may wait before the
    /// batch dispatches anyway.
    pub max_queue_delay_ms: f64,
}

impl ServerConfig {
    /// No batching, single instance — the lab's baseline configuration.
    pub fn baseline() -> Self {
        ServerConfig {
            replicas: 1,
            max_batch: 1,
            max_queue_delay_ms: 0.0,
        }
    }
}

/// Open-loop load: Poisson arrivals at `rps` for `requests` requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadSpec {
    /// Offered requests per second.
    pub rps: f64,
    /// Total requests to send.
    pub requests: usize,
}

/// Result of a serving simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingReport {
    /// Requests completed.
    pub completed: usize,
    /// Mean end-to-end latency (queue + service), ms.
    pub mean_latency_ms: f64,
    /// Median latency, ms.
    pub p50_latency_ms: f64,
    /// 95th percentile latency, ms.
    pub p95_latency_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_latency_ms: f64,
    /// Achieved throughput over the busy interval, req/s.
    pub throughput_rps: f64,
    /// Mean dispatched batch size.
    pub mean_batch_size: f64,
    /// Number of batches executed.
    pub batches: usize,
}

/// Run the discrete-event serving simulation.
///
/// ```
/// use opml_mlops::serving::{simulate, LoadSpec, ModelProfile, ServerConfig};
/// let report = simulate(
///     ModelProfile::int8_server_gpu(),
///     ServerConfig { replicas: 2, max_batch: 8, max_queue_delay_ms: 5.0 },
///     LoadSpec { rps: 100.0, requests: 500 },
///     42,
/// );
/// assert_eq!(report.completed, 500);
/// assert!(report.p50_latency_ms <= report.p99_latency_ms);
/// ```
pub fn simulate(
    profile: ModelProfile,
    server: ServerConfig,
    load: LoadSpec,
    seed: u64,
) -> ServingReport {
    assert!(server.replicas > 0 && server.max_batch > 0);
    assert!(load.rps > 0.0 && load.requests > 0);
    let mut rng = Rng::new(seed);
    // Pre-generate arrival times (ms).
    let mean_gap_ms = 1000.0 / load.rps;
    let mut arrivals = Vec::with_capacity(load.requests);
    let mut t = 0.0f64;
    for _ in 0..load.requests {
        t += rng.exponential(mean_gap_ms);
        arrivals.push(t);
    }

    let mut next_arrival = 0usize; // index into arrivals
    let mut queue: VecDeque<f64> = VecDeque::new(); // arrival times of queued requests
                                                    // Min-heap of replica completion times (f64 as ordered bits).
    let mut busy: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let mut free_replicas = server.replicas;
    let mut latencies: Vec<f64> = Vec::with_capacity(load.requests);
    let mut batches = 0usize;
    let mut batch_size_sum = 0usize;
    let mut now = 0.0f64;
    let mut last_completion = 0.0f64;

    let to_bits = |x: f64| -> u64 { x.to_bits() }; // all times are non-negative finite
    let from_bits = |b: u64| -> f64 { f64::from_bits(b) };
    // Tolerance for the batching-timer comparison: `(front + delay) −
    // front` can round to just below `delay` in f64, which would
    // otherwise stall the event loop at the timer instant forever.
    const TIMER_EPS_MS: f64 = 1e-6;
    // Progress guard: the loop handles at most one arrival, one timer,
    // and a completion sweep per iteration, so a healthy run is bounded.
    let max_iterations = 16 * load.requests + 1_024;
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        assert!(
            iterations <= max_iterations,
            "serving simulation stopped making progress at t={now} ms \
             (queue {}, free {free_replicas})",
            queue.len()
        );
        // Dispatch as many batches as the policy allows at `now`.
        while free_replicas > 0 && !queue.is_empty() {
            let oldest_wait = now - queue.front().copied().expect("non-empty");
            let full = queue.len() >= server.max_batch;
            let timed_out = oldest_wait >= server.max_queue_delay_ms - TIMER_EPS_MS;
            let drained = next_arrival >= arrivals.len(); // no more arrivals: flush
            if !(full || timed_out || drained) {
                break;
            }
            let k = queue.len().min(server.max_batch);
            let done = now + profile.batch_ms(k);
            for _ in 0..k {
                let arr = queue.pop_front().expect("counted");
                latencies.push(done - arr);
            }
            batches += 1;
            batch_size_sum += k;
            free_replicas -= 1;
            busy.push(Reverse(to_bits(done)));
            last_completion = last_completion.max(done);
        }
        // Next event: arrival, completion, or batching timer.
        let t_arrival = arrivals.get(next_arrival).copied();
        let t_completion = busy.peek().map(|&Reverse(b)| from_bits(b));
        let t_timer = if free_replicas > 0 && !queue.is_empty() && server.max_queue_delay_ms > 0.0 {
            queue.front().map(|&a| a + server.max_queue_delay_ms)
        } else {
            None
        };
        let next = [t_arrival, t_completion, t_timer]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        if !next.is_finite() {
            break;
        }
        now = now.max(next);
        if t_arrival.is_some_and(|a| a <= now) {
            queue.push_back(arrivals[next_arrival]);
            next_arrival += 1;
        }
        while busy.peek().is_some_and(|&Reverse(b)| from_bits(b) <= now) {
            busy.pop();
            free_replicas += 1;
        }
    }
    assert!(queue.is_empty(), "requests stranded in queue");
    assert_eq!(latencies.len(), load.requests);

    let mut sorted = latencies.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency NaN"));
    let span_s = (last_completion - arrivals[0]).max(1e-9) / 1000.0;
    ServingReport {
        completed: latencies.len(),
        mean_latency_ms: latencies.iter().sum::<f64>() / latencies.len() as f64,
        p50_latency_ms: percentile_sorted(&sorted, 50.0),
        p95_latency_ms: percentile_sorted(&sorted, 95.0),
        p99_latency_ms: percentile_sorted(&sorted, 99.0),
        throughput_rps: latencies.len() as f64 / span_s,
        mean_batch_size: batch_size_sum as f64 / batches.max(1) as f64,
        batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_math() {
        let p = ModelProfile::fp32_server_gpu();
        assert_eq!(p.batch_ms(1), 9.2);
        assert_eq!(p.batch_ms(8), 8.0 + 9.6);
        // Batching raises peak throughput.
        assert!(p.peak_rps(8) > 3.0 * p.peak_rps(1));
    }

    #[test]
    fn all_requests_complete() {
        let r = simulate(
            ModelProfile::fp32_server_gpu(),
            ServerConfig {
                replicas: 2,
                max_batch: 8,
                max_queue_delay_ms: 5.0,
            },
            LoadSpec {
                rps: 200.0,
                requests: 2000,
            },
            1,
        );
        assert_eq!(r.completed, 2000);
        assert!(r.mean_latency_ms > 0.0);
        assert!(r.mean_batch_size >= 1.0);
    }

    #[test]
    fn batching_survives_overload_where_baseline_collapses() {
        // Offered 150 rps; baseline capacity = 1000/9.2 ≈ 109 rps → queue
        // grows without bound; batched capacity at batch 8 ≈ 455 rps.
        let load = LoadSpec {
            rps: 150.0,
            requests: 3000,
        };
        let base = simulate(
            ModelProfile::fp32_server_gpu(),
            ServerConfig::baseline(),
            load,
            2,
        );
        let batched = simulate(
            ModelProfile::fp32_server_gpu(),
            ServerConfig {
                replicas: 1,
                max_batch: 8,
                max_queue_delay_ms: 10.0,
            },
            load,
            2,
        );
        assert!(
            batched.p95_latency_ms < base.p95_latency_ms / 5.0,
            "batched p95 {} vs baseline p95 {}",
            batched.p95_latency_ms,
            base.p95_latency_ms
        );
        assert!(batched.throughput_rps > base.throughput_rps);
    }

    #[test]
    fn at_low_load_batching_costs_little_latency() {
        // 20 rps on a 109-rps server: batches rarely fill; the delay bound
        // caps added latency at ~max_queue_delay.
        let load = LoadSpec {
            rps: 20.0,
            requests: 1000,
        };
        let base = simulate(
            ModelProfile::fp32_server_gpu(),
            ServerConfig::baseline(),
            load,
            3,
        );
        let batched = simulate(
            ModelProfile::fp32_server_gpu(),
            ServerConfig {
                replicas: 1,
                max_batch: 8,
                max_queue_delay_ms: 4.0,
            },
            load,
            3,
        );
        assert!(batched.mean_latency_ms < base.mean_latency_ms + 6.0);
    }

    #[test]
    fn more_replicas_cut_queueing() {
        let load = LoadSpec {
            rps: 180.0,
            requests: 2500,
        };
        let one = simulate(
            ModelProfile::fp32_server_gpu(),
            ServerConfig {
                replicas: 1,
                max_batch: 1,
                max_queue_delay_ms: 0.0,
            },
            load,
            4,
        );
        let two = simulate(
            ModelProfile::fp32_server_gpu(),
            ServerConfig {
                replicas: 2,
                max_batch: 1,
                max_queue_delay_ms: 0.0,
            },
            load,
            4,
        );
        assert!(
            two.p95_latency_ms < one.p95_latency_ms,
            "two replicas p95 {} vs one {}",
            two.p95_latency_ms,
            one.p95_latency_ms
        );
    }

    #[test]
    fn int8_beats_fp32_everywhere() {
        let load = LoadSpec {
            rps: 100.0,
            requests: 1500,
        };
        let cfg = ServerConfig {
            replicas: 1,
            max_batch: 4,
            max_queue_delay_ms: 3.0,
        };
        let fp32 = simulate(ModelProfile::fp32_server_gpu(), cfg, load, 5);
        let int8 = simulate(ModelProfile::int8_server_gpu(), cfg, load, 5);
        assert!(int8.mean_latency_ms < fp32.mean_latency_ms);
        assert!(int8.p99_latency_ms < fp32.p99_latency_ms);
    }

    #[test]
    fn edge_profile_is_orders_slower() {
        let load = LoadSpec {
            rps: 2.0,
            requests: 200,
        };
        let cfg = ServerConfig::baseline();
        let server = simulate(ModelProfile::int8_server_gpu(), cfg, load, 6);
        let edge = simulate(ModelProfile::int8_edge_pi5(), cfg, load, 6);
        assert!(edge.mean_latency_ms > 10.0 * server.mean_latency_ms);
    }

    #[test]
    fn deterministic_by_seed() {
        let load = LoadSpec {
            rps: 80.0,
            requests: 800,
        };
        let cfg = ServerConfig {
            replicas: 2,
            max_batch: 4,
            max_queue_delay_ms: 2.0,
        };
        let a = simulate(ModelProfile::fp32_server_gpu(), cfg, load, 7);
        let b = simulate(ModelProfile::fp32_server_gpu(), cfg, load, 7);
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
        assert_eq!(a.batches, b.batches);
        let c = simulate(ModelProfile::fp32_server_gpu(), cfg, load, 8);
        assert_ne!(a.mean_latency_ms, c.mean_latency_ms);
    }

    #[test]
    fn latency_ordering_invariants() {
        let r = simulate(
            ModelProfile::fp32_server_gpu(),
            ServerConfig {
                replicas: 2,
                max_batch: 8,
                max_queue_delay_ms: 5.0,
            },
            LoadSpec {
                rps: 120.0,
                requests: 1000,
            },
            9,
        );
        assert!(r.p50_latency_ms <= r.p95_latency_ms);
        assert!(r.p95_latency_ms <= r.p99_latency_ms);
        assert!(r.mean_latency_ms >= ModelProfile::fp32_server_gpu().batch_ms(1) - 1e-9);
    }
}
