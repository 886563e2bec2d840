//! # simcore — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the `netsched` workspace. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a totally ordered simulated clock with
//!   nanosecond resolution stored as `u64` ticks (no floating point drift in
//!   the event queue ordering).
//! * [`rng`] — a seedable, splittable pseudo-random number generator family
//!   (SplitMix64 for seeding, Xoshiro256** for streams) with the usual
//!   distributions (uniform, normal, exponential, log-normal, Pareto) so every
//!   experiment in the workspace is reproducible from a single `u64` seed.
//! * [`event`] / [`engine`] — a generic discrete-event engine: applications
//!   define an event type, implement [`engine::World`], and the engine drains
//!   a time-ordered queue, letting handlers schedule follow-up events.
//! * [`stats`] — online statistics (Welford), summaries, histograms and
//!   exponentially weighted moving averages used by the telemetry substrate.
//! * [`parallel`] — a small scoped-thread fork/join helper used to run
//!   independent simulation replications and to train tree ensembles in
//!   parallel while keeping results deterministic (ordered reduction).
//!
//! The engine is intentionally minimal: the network substrate (`simnet`), the
//! mini-Kubernetes control plane (`cluster`) and the Spark-like workload model
//! (`sparksim`) all build their own event vocabularies on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Engine, StepResult, World};
pub use event::{EventEntry, EventQueue};
pub use rng::{Rng, SplitMix64, Xoshiro256StarStar};
pub use stats::{Histogram, OnlineStats, Summary};
pub use time::{SimDuration, SimTime};

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use crate::engine::{Engine, StepResult, World};
    pub use crate::event::{EventEntry, EventQueue};
    pub use crate::rng::Rng;
    pub use crate::stats::{Histogram, OnlineStats, Summary};
    pub use crate::time::{SimDuration, SimTime};
}
