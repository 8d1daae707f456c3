//! # opml-faults
//!
//! Deterministic fault injection for the semester/testbed simulation.
//!
//! The paper's cost overruns are driven by operational friction: launches
//! that fail, instances that die mid-lab, leases that get revoked,
//! students who give up and leave resources running. This crate provides
//! the machinery to inject such faults **reproducibly** and to model how
//! students and schedulers recover:
//!
//! * [`plan`] — a seeded [`FaultPlan`]: every injection decision is drawn
//!   from its own RNG stream derived from `(plan seed, fault kind, site
//!   key, attempt)` with [`opml_simkernel::split_seed`], so decisions are
//!   bit-identical regardless of thread schedule, entity iteration
//!   order, or how many *other* sites consult the plan. Every kind fires
//!   at the plan's one rate. A zero-rate plan never draws and never
//!   fires, so it is byte-identical to running with no plan at all.
//! * [`retry`] — [`RetryPolicy`]: bounded exponential backoff with
//!   seeded jitter and an optional total-deadline budget. The legacy
//!   fixed-interval quota retry is the `factor = 1, jitter = 0` special
//!   case, so the default semester schedule is reproduced exactly.
//! * [`breaker`] — [`CircuitBreaker`]: opens after N consecutive quota
//!   denials and defers retries for a cooldown, modelling students who
//!   stop hammering a full project allocation.
//! * [`profile`] — [`FaultProfile`]: the one injection rate carried by
//!   `SemesterConfig`, with the recovery it implies (the retry
//!   policies, the breaker and the [`LEAK_PROB`] walk-away chance)
//!   derived in one place, and [`FaultStats`], the counters a
//!   simulation reports back.
//!
//! ## Determinism contract
//!
//! Nothing in this crate holds mutable RNG state across decisions: a
//! [`FaultPlan`] is an immutable value and every query derives a fresh
//! stream from stable identifiers. Replay-equivalence across rayon
//! thread counts is therefore structural, not incidental.

pub mod breaker;
pub mod plan;
pub mod profile;
pub mod retry;

pub use breaker::{BreakerState, CircuitBreaker};
pub use plan::{site_key, FaultKind, FaultPlan};
pub use profile::{FaultProfile, FaultStats, LEAK_PROB};
pub use retry::RetryPolicy;
