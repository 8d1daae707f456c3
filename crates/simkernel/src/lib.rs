//! # opml-simkernel
//!
//! Discrete-event simulation kernel underpinning the course/testbed
//! reproduction of *The Cost of Teaching Operational ML* (SC Workshops '25).
//!
//! The kernel provides four things, each in its own module:
//!
//! * [`time`] — simulated time. The semester simulation counts **minutes**
//!   since the first day of class; helpers convert to hours/days/weeks and
//!   render calendar positions ("week 3, day 2, 14:30").
//! * [`rng`] — deterministic random-number generation. Every simulated
//!   entity (student, group, job) owns an independent stream derived from a
//!   master seed with SplitMix64, so results are bit-identical regardless of
//!   thread schedule or entity iteration order. The generator itself is
//!   xoshiro256++, implemented here so the simulation does not depend on the
//!   `rand` crate's version-to-version stream changes.
//! * [`stats`] — the statistics the paper's evaluation needs: streaming
//!   moments (Welford), exact percentiles, histograms (Fig. 2 is a
//!   per-student cost histogram), and the distribution samplers used by the
//!   behaviour model (lognormal, exponential, Beta, Gamma), plus the
//!   two-sample Kolmogorov–Smirnov statistic and Population Stability Index
//!   used by the drift-detection substrate.
//! * [`event`] — a generic time-ordered event queue with stable FIFO
//!   tie-breaking.
//! * [`dethash`] — the fixed-seed FNV-1a [`DetHasher`], its one-shot
//!   [`fnv1a64`] and the O(1) constant fold [`FnvConst`]: the workspace's
//!   digest function.
//! * [`parallel`] — order-stable parallel fan-out over independent entities
//!   or replications (rayon), merging by index rather than reduction order.
//! * [`binio`] — little-endian binary wire primitives for the
//!   out-of-core spill-run format (panic-free decoders with typed
//!   `io::Error`s, so corrupt run files surface as errors, not crashes).
//!
//! ## Determinism contract
//!
//! All public entry points take an explicit `u64` seed. Two invocations with
//! the same seed produce identical results on any machine and any number of
//! threads. This is property-tested in each module.

pub mod binio;
pub mod dethash;
pub mod event;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod time;

pub use dethash::{fnv1a64, DetHasher, FnvConst};
pub use event::{EventQueue, QueueStats};
pub use rng::{split_seed, Rng};
pub use stats::{Histogram, OnlineStats, Summary};
pub use time::{SimDuration, SimTime};
