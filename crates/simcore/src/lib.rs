//! # simcore — deterministic simulation primitives
//!
//! This crate is the foundation of the `netsched` workspace. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a totally ordered simulated clock with
//!   nanosecond resolution stored as `u64` ticks (no floating point drift in
//!   time comparisons).
//! * [`rng`] — a seedable, splittable pseudo-random number generator family
//!   (SplitMix64 for seeding, Xoshiro256** for streams) with the usual
//!   distributions (uniform, normal, exponential) so every experiment in the
//!   workspace is reproducible from a single `u64` seed.
//! * [`OnlineStats`] — an online mean/variance/max accumulator (Welford).
//! * [`parallel_map`] — a small scoped-thread fork/join helper used to run
//!   independent simulation replications and to train tree ensembles in
//!   parallel while keeping results deterministic (ordered reduction).

#![warn(missing_docs)]

mod parallel;
// Named by path in `benchmark/src`; private once ROADMAP item 27 lands.
pub mod rng;
mod stats;
mod time;

pub use parallel::{default_workers, parallel_map};
pub use rng::{Rng, SplitMix64, Xoshiro256StarStar};
pub use stats::OnlineStats;
pub use time::{SimDuration, SimTime};
